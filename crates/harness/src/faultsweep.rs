//! Fault-sweep experiments: prove the countermeasures leak nothing on their
//! error paths.
//!
//! The attack sweeps and timelines show what the protection levels guarantee
//! on the *happy* path. This family asks the robustness question the paper's
//! deployment advice presumes: if an allocation fails, a fork is refused, or
//! a process dies halfway through key handling, does the half-finished state
//! leak key bytes into unallocated memory?
//!
//! The method is exhaustive first-order fault injection on top of
//! [`memsim`]'s deterministic operation counter:
//!
//! 1. **Probe** — run the standard fault workload once with an empty
//!    [`FaultPlan`] and record the kernel's operation-index interval
//!    `[start, end)` the workload occupies. Because plans never perturb the
//!    index stream (a faulted operation burns its index just like a
//!    successful one), this interval addresses every fallible step of the
//!    faulted runs too.
//! 2. **Sweep** — for every `k` in the interval (optionally strided), restore
//!    a machine identical to the sweep's one boot image, install a plan that
//!    fails (or kills) the operation at index `k`, drive the identical
//!    workload, and let the servers shed whatever the fault costs them.
//! 3. **Scan** — run [`keyscan`] over physical memory afterwards. At the
//!    kernel and integrated levels the no-leak invariant must hold: zero key
//!    bytes in unallocated frames, *no matter which step failed*.
//!
//! Each `k` is one executor cell, so sweeps parallelise like every other
//! family and stay bit-identical to the serial oracle.

use crate::exec::{ExecReport, Executor};
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, ScanStats, Scanner};
use memsim::{FaultPlan, Kernel};
use rsa_repro::material::KeyMaterial;
use servers::{ApacheServer, SecureServer, ServerConfig, SheddingStats, SshServer};
use simrng::Rng64;
use std::sync::Mutex;
use std::time::Duration;

/// Standing connections the fault workload keeps open.
const FAULT_CONCURRENCY: usize = 2;

/// Transfer cycles the fault workload pumps through the server.
const FAULT_REQUESTS: usize = 4;

/// Tweak folded into the experiment seed for the machine-boot RNG, so fault
/// runs never share a stream with the attack sweeps.
const BOOT_TWEAK: u64 = 0xFA01_7500;

/// What the installed plan does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation returns an error (`OutOfMemory`, or `MlockDenied` for
    /// `mlock`) and the machine keeps running.
    Fail,
    /// The process performing the operation is killed on the spot — the
    /// harshest error path, since the dying process frees every page it owns
    /// with no chance to clean up.
    Kill,
}

impl FaultMode {
    /// Name used in output files (`fail` / `kill`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Fail => "fail",
            Self::Kill => "kill",
        }
    }

    /// A plan that applies this mode to the operation at index `k`.
    pub(crate) fn plan_at(self, k: u64) -> FaultPlan {
        match self {
            Self::Fail => FaultPlan::new().fail_at_index(k),
            Self::Kill => FaultPlan::new().kill_at_index(k),
        }
    }
}

impl core::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one fault-injected run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCell {
    /// Operation index targeted by this cell's plan (or the repetition
    /// number, for seeded sweeps).
    pub k: u64,
    /// Faults the kernel actually injected (0 means index `k` was never
    /// reached — e.g. an earlier shed shortened the run).
    pub injected: u64,
    /// Processes a kill-mode plan terminated.
    pub kills: u64,
    /// First error that escaped the server's shedding and reached the
    /// harness, if any (workload steps after it still ran).
    pub error: Option<String>,
    /// Key copies found in allocated memory after the run.
    pub allocated: usize,
    /// Key copies found in unallocated memory after the run — the no-leak
    /// invariant says this must be 0 at the kernel and integrated levels.
    pub unallocated: usize,
    /// Handshakes the server still completed despite the fault.
    pub handshakes: u64,
    /// Work the server shed absorbing the fault.
    pub shed: SheddingStats,
}

/// A completed fault sweep over one `(server, level, mode)` combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepReport {
    /// Which server was driven (`ssh` / `apache` label).
    pub kind_label: &'static str,
    /// Protection level deployed.
    pub level: ProtectionLevel,
    /// Fault mode swept.
    pub mode: FaultMode,
    /// First operation index of the workload (from the probe run).
    pub start: u64,
    /// One past the last operation index of the workload.
    pub end: u64,
    /// Stride between targeted indices (1 = exhaustive).
    pub stride: u64,
    /// One outcome per targeted index, in index order.
    pub cells: Vec<FaultCell>,
    /// Scan effort summed over the sweep's cells. Cells fork a scanner
    /// whose cache is warm on the shared boot image, so each cell re-reads
    /// only the frames its own faulted workload dirtied (counters are
    /// deterministic; wall-clock rides the timed entry points instead).
    pub scan: ScanStats,
}

/// Whether `level` promises the no-leak invariant on error paths: the
/// kernel-level zeroing patches (and the integrated solution that includes
/// them) must leave zero key bytes in unallocated frames even mid-failure.
/// The user-space-only levels make no such promise — a killed process dumps
/// its dirty pages on the free lists, exactly like the paper's Section 3.
#[must_use]
pub fn level_guarantees_clean_unallocated(level: ProtectionLevel) -> bool {
    matches!(level, ProtectionLevel::Kernel | ProtectionLevel::Integrated)
}

impl FaultSweepReport {
    /// Cells that violate the level's no-leak invariant. Always empty at
    /// levels without the kernel zeroing patches (nothing is promised
    /// there), and empty at the kernel/integrated levels exactly when the
    /// countermeasures hold up.
    #[must_use]
    pub fn violations(&self) -> Vec<&FaultCell> {
        if !level_guarantees_clean_unallocated(self.level) {
            return Vec::new();
        }
        self.cells.iter().filter(|c| c.unallocated > 0).collect()
    }

    /// Cells whose targeted index was actually reached (the fault fired).
    #[must_use]
    pub fn injected_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.injected > 0).count()
    }

    /// Total shed events across the sweep.
    #[must_use]
    pub fn total_shed(&self) -> u64 {
        self.cells.iter().map(|c| c.shed.total()).sum()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}/{}/{}: {} cells over ops [{}, {}) stride {}, {} faults injected, {} shed events, {} violations, scans re-read {:.1}% of frames",
            self.kind_label,
            self.level.label(),
            self.mode,
            self.cells.len(),
            self.start,
            self.end,
            self.stride,
            self.injected_cells(),
            self.total_shed(),
            self.violations().len(),
            self.scan.rescan_fraction() * 100.0
        )
    }
}

/// Boots the machine every cell of a `(kind, level)` sweep starts from.
/// Deterministic in the experiment config and the family's boot `tweak`
/// alone, so the probe run and every faulted run see the identical
/// pre-workload operation index, and no two sweep families share a stream.
pub(crate) fn boot(level: ProtectionLevel, cfg: &ExperimentConfig, tweak: u64) -> Kernel {
    let mut rng = Rng64::new(cfg.seed ^ tweak);
    cfg.boot_machine(level, &mut rng)
}

pub(crate) fn server_config(level: ProtectionLevel, cfg: &ExperimentConfig) -> ServerConfig {
    ServerConfig::new(level).with_key_bits(cfg.key_bits)
}

/// Drives the standard fault workload on an already-booted kernel with
/// whatever plan is installed: start, open standing connections, pump, drain,
/// stop. Every step records (rather than propagates) its first error, because
/// a faulted run is still a valid experiment — the scan afterwards is the
/// point.
fn drive_workload<S: SecureServer>(
    kernel: &mut Kernel,
    server_cfg: ServerConfig,
) -> (Option<String>, u64, SheddingStats) {
    let mut error: Option<String> = None;
    let note = |e: memsim::SimError, error: &mut Option<String>| {
        error.get_or_insert_with(|| e.to_string());
    };
    match S::start(kernel, server_cfg) {
        Ok(mut server) => {
            if let Err(e) = server.set_concurrency(kernel, FAULT_CONCURRENCY) {
                note(e, &mut error);
            }
            if let Err(e) = server.pump(kernel, FAULT_REQUESTS) {
                note(e, &mut error);
            }
            if let Err(e) = server.set_concurrency(kernel, 0) {
                note(e, &mut error);
            }
            if let Err(e) = server.stop(kernel) {
                note(e, &mut error);
            }
            (error, server.handshakes(), server.shedding())
        }
        Err(e) => {
            // Startup died mid-key-load: the daemon's half-built state stays
            // behind un-reaped. The scan below decides whether that state
            // leaked anything.
            note(e, &mut error);
            (error, 0, SheddingStats::default())
        }
    }
}

/// What every cell of one `(kind, level)` sweep starts from: the
/// deterministic boot image, an incremental scanner whose cache is already
/// warm on that image, and a pool of spare machines. Each cell restores a
/// spare from the boot image with [`Kernel::clone_from`], which copies only
/// the frames the spare's previous cell changed, and forks the scanner, so
/// the post-fault scan re-reads only the frames that cell's own workload
/// dirtied — bit-identical to a full `scan_kernel`, by the differential
/// suites. Shared by the fault and rotation sweeps.
pub(crate) struct SweepTemplate {
    pub(crate) kernel: Kernel,
    pub(crate) scanner: IncrementalScanner,
    spares: SparePool,
}

/// Machines a sweep's cells run on, each returned after its cell. They
/// hold simulated memory, the very thing the experiments measure, and are
/// restored from the boot image before every reuse.
struct SparePool(Mutex<Vec<Kernel>>);

impl SparePool {
    fn take(&self) -> Option<Kernel> {
        self.0.lock().expect("spare pool poisoned").pop()
    }

    fn put(&self, kernel: Kernel) {
        self.0.lock().expect("spare pool poisoned").push(kernel);
    }
}

impl SweepTemplate {
    /// Warms `scanner` on the boot image `kernel`.
    pub(crate) fn new(kernel: Kernel, mut scanner: IncrementalScanner) -> Self {
        // Forks inherit the warm cache for free.
        let _ = scanner.scan(&kernel);
        Self {
            kernel,
            scanner,
            spares: SparePool(Mutex::new(Vec::new())),
        }
    }

    /// Runs the sweep's unfaulted probe on a copy of the boot image, then
    /// keeps that copy as the first spare: a sweep boots only once.
    pub(crate) fn probe<T>(&self, probe: impl FnOnce(&mut Kernel) -> T) -> T {
        let mut kernel = self.kernel.clone();
        let out = probe(&mut kernel);
        self.spares.put(kernel);
        out
    }

    /// The sweep loop every fault and rotation sweep runs. Each cell gets a
    /// machine identical to the boot image — a spare restored by delta
    /// copy, or a fresh clone when every spare is taken — and a fork of the
    /// warm scanner; the machine returns to the pool afterwards, whatever
    /// the cell left running on it. Results come back in cell order, with
    /// the batch's [`ExecReport`] carrying the cells' summed scan effort and
    /// scan wall-clock.
    pub(crate) fn run<C: Send, T: Send>(
        &self,
        exec: &Executor,
        cells: Vec<C>,
        cell: impl Fn(&mut Kernel, &mut IncrementalScanner, C) -> T + Sync,
    ) -> (Vec<T>, ExecReport) {
        let (outs, report) = exec.run_timed(cells, |_, c| {
            let mut kernel = match self.spares.take() {
                Some(mut kernel) => {
                    kernel.clone_from(&self.kernel);
                    kernel
                }
                None => self.kernel.clone(),
            };
            let mut scanner = self.scanner.fork();
            let out = cell(&mut kernel, &mut scanner, c);
            self.spares.put(kernel);
            (out, scanner.stats(), scanner.wall())
        });
        let mut scan = ScanStats::default();
        let mut scan_wall = Duration::ZERO;
        let outs = outs
            .into_iter()
            .map(|(out, stats, wall)| {
                scan.absorb(stats);
                scan_wall += wall;
                out
            })
            .collect();
        (outs, report.with_scan(scan, scan_wall))
    }
}

fn sweep_template(
    kind_label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> SweepTemplate {
    let server_cfg = server_config(level, cfg);
    // The scanner is built from the derived key *before* any server exists,
    // so it works even when a fault aborts server startup.
    let scanner = IncrementalScanner::new(Scanner::from_material(&KeyMaterial::from_key(
        &server_cfg.derive_key(kind_label),
    )))
    .with_threads(cfg.scan_threads);
    SweepTemplate::new(boot(level, cfg, BOOT_TWEAK), scanner)
}

fn run_one<S: SecureServer>(
    kernel: &mut Kernel,
    scanner: &mut IncrementalScanner,
    server_cfg: ServerConfig,
    plan: FaultPlan,
    k: u64,
) -> FaultCell {
    kernel.install_fault_plan(plan);
    let (error, handshakes, shed) = drive_workload::<S>(kernel, server_cfg);
    kernel.clear_fault_plan();
    let stats = kernel.stats();
    let report = scanner.scan(kernel);
    FaultCell {
        k,
        injected: stats.faults_injected,
        kills: stats.fault_kills,
        error,
        allocated: report.allocated(),
        unallocated: report.unallocated(),
        handshakes,
        shed,
    }
}

fn run_kind(
    kind: ServerKind,
    kernel: &mut Kernel,
    scanner: &mut IncrementalScanner,
    server_cfg: ServerConfig,
    plan: FaultPlan,
    k: u64,
) -> FaultCell {
    match kind {
        ServerKind::Ssh => run_one::<SshServer>(kernel, scanner, server_cfg, plan, k),
        ServerKind::Apache => run_one::<ApacheServer>(kernel, scanner, server_cfg, plan, k),
    }
}

/// Runs the fault workload once with an empty plan and returns the operation
/// index interval `[start, end)` it occupies — the index space a targeted
/// sweep must cover. `start` is the index after machine boot (booting itself
/// is not part of the workload under test).
///
/// # Errors
///
/// Returns the workload's error if the *unfaulted* run fails — that would
/// mean the machine is too small for the workload, and sweep results would
/// be meaningless.
pub fn probe_index_space(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<(u64, u64), String> {
    probe_on(&mut boot(level, cfg, BOOT_TWEAK), kind, level, cfg)
}

/// [`probe_index_space`] on an already-booted machine.
fn probe_on(
    kernel: &mut Kernel,
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<(u64, u64), String> {
    let start = kernel.op_index();
    let server_cfg = server_config(level, cfg);
    let (error, _, _) = match kind {
        ServerKind::Ssh => drive_workload::<SshServer>(kernel, server_cfg),
        ServerKind::Apache => drive_workload::<ApacheServer>(kernel, server_cfg),
    };
    if let Some(e) = error {
        return Err(format!("unfaulted probe run failed: {e}"));
    }
    Ok((start, kernel.op_index()))
}

/// Sweeps "fail (or kill) the operation at index `k`" over every `k`-th
/// operation of the fault workload, on an explicit executor.
///
/// Each cell is an independent machine + server + plan; results come back in
/// index order and are bit-identical at any thread count.
///
/// # Errors
///
/// Propagates a failing probe run.
///
/// # Panics
///
/// Panics if `stride` is 0.
pub fn fault_sweep_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    mode: FaultMode,
    stride: u64,
    cfg: &ExperimentConfig,
) -> Result<FaultSweepReport, String> {
    fault_sweep_timed_on(exec, kind, level, mode, stride, cfg).map(|(report, _)| report)
}

/// Like [`fault_sweep_on`], but also returns the batch's [`ExecReport`] with
/// scan-effort accounting (frames rescanned, scan wall-clock) attached.
///
/// # Errors
///
/// Propagates a failing probe run.
///
/// # Panics
///
/// Panics if `stride` is 0.
pub fn fault_sweep_timed_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    mode: FaultMode,
    stride: u64,
    cfg: &ExperimentConfig,
) -> Result<(FaultSweepReport, ExecReport), String> {
    assert!(stride > 0, "stride must be at least 1");
    let template = sweep_template(kind.label(), level, cfg);
    let (start, end) = template.probe(|kernel| probe_on(kernel, kind, level, cfg))?;
    let server_cfg = server_config(level, cfg);
    let ks: Vec<u64> = (start..end).step_by(stride as usize).collect();
    let (cells, timing) = template.run(exec, ks, |kernel, scanner, k| {
        run_kind(kind, kernel, scanner, server_cfg, mode.plan_at(k), k)
    });
    let report = FaultSweepReport {
        kind_label: kind.label(),
        level,
        mode,
        start,
        end,
        stride,
        cells,
        scan: timing.scan,
    };
    Ok((report, timing))
}

/// Seeded random fault sweep: `reps` independent runs, each under a plan
/// that fails roughly one in `denom` operations, streams derived from
/// `fault_seed`. Complements the exhaustive sweep with multi-fault runs
/// (several operations fail in the same run). Returns the batch's
/// [`ExecReport`] alongside, like [`fault_sweep_timed_on`].
///
/// # Errors
///
/// Propagates a failing probe run.
///
/// # Panics
///
/// Panics if `denom` is 0 (the plan would fail every operation, including
/// all of boot).
pub fn fault_sweep_seeded_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    fault_seed: u64,
    denom: u64,
    reps: u64,
    cfg: &ExperimentConfig,
) -> Result<(FaultSweepReport, ExecReport), String> {
    assert!(denom > 0, "denom must be at least 1");
    let template = sweep_template(kind.label(), level, cfg);
    let (start, end) = template.probe(|kernel| probe_on(kernel, kind, level, cfg))?;
    let server_cfg = server_config(level, cfg);
    let (cells, timing) = template.run(exec, (0..reps).collect(), |kernel, scanner, rep| {
        let plan = FaultPlan::new().seeded(fault_seed.wrapping_add(rep), denom);
        run_kind(kind, kernel, scanner, server_cfg, plan, rep)
    });
    let report = FaultSweepReport {
        kind_label: kind.label(),
        level,
        mode: FaultMode::Fail,
        start,
        end,
        stride: 0,
        cells,
        scan: timing.scan,
    };
    Ok((report, timing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::test()
    }

    #[test]
    fn probe_interval_is_stable_and_nonempty() {
        let a = probe_index_space(ServerKind::Ssh, ProtectionLevel::Kernel, &cfg()).unwrap();
        let b = probe_index_space(ServerKind::Ssh, ProtectionLevel::Kernel, &cfg()).unwrap();
        assert_eq!(a, b);
        assert!(a.1 > a.0, "workload must perform operations: {a:?}");
    }

    #[test]
    fn strided_fail_sweep_injects_and_finds_no_kernel_level_leak() {
        let report = fault_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            FaultMode::Fail,
            97,
            &cfg(),
        )
        .unwrap();
        assert!(!report.cells.is_empty());
        assert!(report.injected_cells() > 0, "{}", report.summary());
        assert!(report.violations().is_empty(), "{}", report.summary());
        // Every cell scanned once, off the sweep's warm boot-image cache, so
        // the sweep must have skipped the frames the workload never touched.
        assert_eq!(report.scan.scans, report.cells.len() as u64);
        assert!(
            report.scan.rescan_fraction() < 0.9,
            "warm forks re-read nearly everything: {:?}",
            report.scan
        );
    }

    #[test]
    fn unprotected_levels_never_report_violations_by_definition() {
        let report = fault_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            FaultMode::Kill,
            131,
            &cfg(),
        )
        .unwrap();
        assert!(report.violations().is_empty());
        assert!(!level_guarantees_clean_unallocated(ProtectionLevel::None));
        assert!(level_guarantees_clean_unallocated(ProtectionLevel::Integrated));
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let report = fault_sweep_on(
            &Executor::from_env(),
            ServerKind::Apache,
            ProtectionLevel::Integrated,
            FaultMode::Fail,
            149,
            &cfg(),
        )
        .unwrap();
        let s = report.summary();
        assert!(s.contains("apache/integrated/fail"), "{s}");
        assert!(s.contains("violations"), "{s}");
    }

    /// The spare pool changes no result: every cell of a pooled sweep equals
    /// the same cell run on a fresh clone of the boot image, under fail plans
    /// and under kill plans (a kill leaves the dead daemon's state behind in
    /// the spare), with one spare (1 thread) and with two. The public probe
    /// finds the interval the sweep's own probe found.
    #[test]
    fn pooled_cells_equal_clone_per_cell() {
        let cfg = cfg();
        for (kind, level, mode) in [
            (ServerKind::Ssh, ProtectionLevel::Kernel, FaultMode::Kill),
            (
                ServerKind::Apache,
                ProtectionLevel::Integrated,
                FaultMode::Fail,
            ),
        ] {
            let template: SweepTemplate = sweep_template(kind.label(), level, &cfg);
            let server_cfg = server_config(level, &cfg);
            for threads in [1, 2] {
                let exec = Executor::new(threads);
                let report = fault_sweep_on(&exec, kind, level, mode, 13, &cfg).unwrap();
                assert_eq!(
                    probe_index_space(kind, level, &cfg),
                    Ok((report.start, report.end))
                );
                let mut scan = ScanStats::default();
                let cells: Vec<FaultCell> = report
                    .cells
                    .iter()
                    .map(|c| {
                        let mut kernel = template.kernel.clone();
                        let mut scanner = template.scanner.fork();
                        let plan = mode.plan_at(c.k);
                        let cell = run_kind(kind, &mut kernel, &mut scanner, server_cfg, plan, c.k);
                        scan.absorb(scanner.stats());
                        cell
                    })
                    .collect();
                assert_eq!(
                    report.cells, cells,
                    "{kind}/{level}/{mode}, {threads} threads"
                );
                assert_eq!(report.scan, scan);
                assert!(report.injected_cells() > 0, "{}", report.summary());
                if mode == FaultMode::Kill {
                    assert!(
                        report.cells.iter().any(|c| c.kills > 0),
                        "{}",
                        report.summary()
                    );
                }
            }
        }
    }

    #[test]
    fn mode_labels() {
        assert_eq!(FaultMode::Fail.to_string(), "fail");
        assert_eq!(FaultMode::Kill.label(), "kill");
    }
}
