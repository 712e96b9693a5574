//! Rotation fault sweeps: prove live rekeying is crash-consistent and
//! leak-free under first- and second-order fault injection.
//!
//! [`crate::faultsweep`] asks whether the *steady-state* countermeasures
//! leak on their error paths. This family asks the sharper lifecycle
//! question: while a live server is mid-rotation — new key installing, old
//! key draining, both resident — does a fault (or two) at any point leave
//! the machine holding stray bytes of a key it should no longer have?
//!
//! The method extends the fault-sweep recipe to the rotation window:
//!
//! 1. **Probe** — run the rotation workload (boot, standing connections,
//!    `rotate_key`, drain pumps, quiesce) once unfaulted and record the
//!    operation-index interval `[start, end)` spanning the `Generate →
//!    Install → Activate → Drain → Retire` lifecycle. Plans never perturb
//!    the index stream, so this interval addresses the faulted runs too.
//! 2. **Sweep** — for every targeted index (or `(j, k)` pair, second
//!    order), restore a machine identical to the sweep's one boot image,
//!    install the plan, drive the identical workload, and let the server
//!    recover however it can.
//! 3. **Judge** — after quiescing, scan for *both* epochs' key patterns.
//!    Recovery must have landed in exactly one of {old key live, new key
//!    live}: whichever epoch the server reports is the **winner**; the
//!    other is the **loser**, and at the hardened levels (kernel,
//!    integrated, shielded) the loser's byte count must be exactly zero —
//!    a rolled-back rotation unwinds the successor completely, a completed
//!    one retires the predecessor completely.
//!
//! Second-order plans ([`FaultPlan::fail_at_indices`] /
//! [`FaultPlan::fail_then_kill`]) fault the recovery path itself: the
//! first fault forces a rollback or mid-drain shed, the second lands while
//! that recovery is running.
//!
//! The unfaulted [`retire_check`] closes the loop on retirement: after a
//! clean rotation and drain, the *retired* key must be invisible to the
//! pattern scanner **and** unrecoverable by the cold-boot reconstructor
//! ([`keyscan::reconstruct`]) given a perfect image of all physical
//! memory.

use crate::exec::{ExecReport, Executor};
use crate::faultsweep::{boot, server_config, FaultMode, SweepTemplate};
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::reconstruct::{reconstruct, ReconstructConfig};
use keyscan::{IncrementalScanner, ScanStats, Scanner};
use memsim::{FaultPlan, Kernel};
use rsa_repro::material::{KeyMaterial, Pattern};
use servers::{ApacheServer, SecureServer, ServerConfig, SheddingStats, SshServer};

/// Standing connections held open across the rotation (they pin the old
/// epoch and force a real drain window).
const ROT_CONCURRENCY: usize = 2;

/// Transfer cycles pumped before and after `rotate_key`.
const ROT_REQUESTS: usize = 2;

/// Tweak folded into the experiment seed for the machine-boot RNG, so
/// rotation sweeps never share a stream with the other families.
const BOOT_TWEAK: u64 = 0x4074_0FA1;

/// Seed tweak for the perfect-image snapshot taken by [`retire_check`].
const RETIRE_SNAPSHOT_TWEAK: u64 = 0x0D1E_0FF1;

/// Whether `level` promises that a retired (or rolled-back) key epoch is
/// completely gone from scanner-visible memory. The kernel zeroing patches
/// are the enabling mechanism, so this holds at kernel, integrated, and
/// shielded; the stock-kernel levels leak startup-time residue (free-list
/// PEM buffers) by design — exactly the exposure the paper's Section 3
/// measures.
#[must_use]
pub fn level_guarantees_retired_key_gone(level: ProtectionLevel) -> bool {
    matches!(
        level,
        ProtectionLevel::Kernel | ProtectionLevel::Integrated | ProtectionLevel::Shielded
    )
}

/// Outcome of one fault-injected rotation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationCell {
    /// First (or only) operation index targeted by this cell's plan.
    pub k: u64,
    /// Second targeted index, for second-order `(j, k)` cells.
    pub k2: Option<u64>,
    /// Faults the kernel actually injected.
    pub injected: u64,
    /// Processes a kill plan terminated.
    pub kills: u64,
    /// First error that escaped shedding and reached the harness, if any
    /// (the workload keeps going; recovery is the point).
    pub error: Option<String>,
    /// Key epoch the server reports after recovery: 0 = the rotation
    /// rolled back (old key live), 1 = it completed (new key live).
    pub epoch: u64,
    /// Scanner-visible copies of the *winning* epoch's patterns after
    /// quiescing — informational (a kill can legitimately take the daemon
    /// down, leaving zero).
    pub winner_resident: usize,
    /// Scanner-visible copies of the *losing* epoch's patterns after
    /// quiescing. The crash-consistency invariant: 0 at hardened levels.
    pub loser_resident: usize,
    /// Handshakes completed despite the faults.
    pub handshakes: u64,
    /// Work the server shed (and recovered) absorbing the faults.
    pub shed: SheddingStats,
}

/// A completed rotation sweep over one `(server, level, mode)` combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationSweepReport {
    /// Which server was driven.
    pub kind_label: &'static str,
    /// Protection level deployed.
    pub level: ProtectionLevel,
    /// Fault mode swept. For second-order sweeps, `Fail` means both
    /// injections fail, `Kill` means fail-then-kill.
    pub mode: FaultMode,
    /// Fault order: 1 = single injection per run, 2 = `(j, k)` pairs.
    pub order: u32,
    /// First operation index of the rotation lifecycle (from the probe).
    pub start: u64,
    /// One past the last operation index of the lifecycle.
    pub end: u64,
    /// Stride between targeted indices (1 = exhaustive).
    pub stride: u64,
    /// One outcome per targeted index / pair, in sweep order.
    pub cells: Vec<RotationCell>,
    /// Scan effort summed over the sweep's cells (warm-fork incremental
    /// scans, like the other sweep families).
    pub scan: ScanStats,
}

impl RotationSweepReport {
    /// Cells where the losing epoch's key bytes survived recovery. Always
    /// empty at levels that promise nothing ([`level_guarantees_retired_key_gone`]
    /// is false); empty at the hardened levels exactly when rotation is
    /// crash-consistent.
    #[must_use]
    pub fn violations(&self) -> Vec<&RotationCell> {
        if !level_guarantees_retired_key_gone(self.level) {
            return Vec::new();
        }
        self.cells.iter().filter(|c| c.loser_resident > 0).collect()
    }

    /// Cells whose plan actually fired at least one fault.
    #[must_use]
    pub fn injected_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.injected > 0).count()
    }

    /// Cells that recovered to the *old* key (rolled back).
    #[must_use]
    pub fn rolled_back(&self) -> usize {
        self.cells.iter().filter(|c| c.epoch == 0).count()
    }

    /// Cells that recovered to the *new* key (rotation completed).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.epoch > 0).count()
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
            "{}/{}/{} order-{}: {} cells over ops [{}, {}) stride {}, {} injected, {} rolled back / {} completed, {} shed events, {} violations",
            self.kind_label,
            self.level.label(),
            self.mode,
            self.order,
            self.cells.len(),
            self.start,
            self.end,
            self.stride,
            self.injected_cells(),
            self.rolled_back(),
            self.completed(),
            self.total_shed(),
            self.violations().len()
        )
    }
}

/// Outcome of the unfaulted retirement probe for one `(server, level)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetireCheck {
    /// Which server was driven.
    pub kind_label: &'static str,
    /// Protection level deployed.
    pub level: ProtectionLevel,
    /// Scanner-visible copies of the retired epoch's patterns after the
    /// rotation drained and quiesced (server still running on the new key).
    pub old_resident: usize,
    /// Whether [`keyscan::reconstruct`] rebuilt the retired private key
    /// from a perfect snapshot of all physical memory.
    pub reconstructed: bool,
}

impl RetireCheck {
    /// Whether the retired key is gone: no pattern hits and no CRT
    /// reconstruction. Only promised where
    /// [`level_guarantees_retired_key_gone`] holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.old_resident == 0 && !self.reconstructed
    }
}

/// Drives the rotation workload on an already-booted kernel with whatever
/// plan is installed: start, standing connections, warm-up pump, rotate,
/// drain pumps, quiesce. Every step records (rather than propagates) its
/// first error — a faulted run is still a valid experiment. Returns the
/// (still-running, still-owning-its-key) server so callers can scan the
/// quiesced machine before stopping it, plus the operation-index span of
/// the rotation lifecycle (`rotate_key` through quiesce).
fn drive_rotation<S: SecureServer>(
    kernel: &mut Kernel,
    server_cfg: ServerConfig,
) -> (Option<S>, Option<String>, (u64, u64)) {
    let mut error: Option<String> = None;
    let note = |e: memsim::SimError, error: &mut Option<String>| {
        error.get_or_insert_with(|| e.to_string());
    };
    let mut span = (kernel.op_index(), kernel.op_index());
    match S::start(kernel, server_cfg) {
        Ok(mut server) => {
            if let Err(e) = server.set_concurrency(kernel, ROT_CONCURRENCY) {
                note(e, &mut error);
            }
            if let Err(e) = server.pump(kernel, ROT_REQUESTS) {
                note(e, &mut error);
            }
            span.0 = kernel.op_index();
            if let Err(e) = server.rotate_key(kernel) {
                note(e, &mut error);
            }
            if let Err(e) = server.pump(kernel, ROT_REQUESTS) {
                note(e, &mut error);
            }
            if let Err(e) = server.set_concurrency(kernel, 0) {
                note(e, &mut error);
            }
            span.1 = kernel.op_index();
            (Some(server), error, span)
        }
        Err(e) => {
            note(e, &mut error);
            (None, error, span)
        }
    }
}

/// What every cell of one `(kind, level)` sweep starts from: the shared
/// [`SweepTemplate`] (boot image, spare pool) with a dual-epoch incremental
/// scanner (old-key patterns first, new-key patterns after) warm on the
/// image. Both epochs' keys are pure functions of the configuration
/// ([`ServerConfig::derive_rotated_key`]), so the scanner exists before any
/// server does.
struct RotTemplate {
    sweep: SweepTemplate,
    old_patterns: usize,
}

fn rot_template(
    kind_label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> RotTemplate {
    let server_cfg = server_config(level, cfg);
    let old = KeyMaterial::from_key(&server_cfg.derive_rotated_key(kind_label, 0));
    let new = KeyMaterial::from_key(&server_cfg.derive_rotated_key(kind_label, 1));
    let mut patterns: Vec<Pattern> =
        old.patterns().iter().map(Pattern::clone_secret).collect();
    let old_patterns = patterns.len();
    patterns.extend(new.patterns().iter().map(Pattern::clone_secret));
    let scanner = IncrementalScanner::new(Scanner::new(patterns)).with_threads(cfg.scan_threads);
    RotTemplate {
        sweep: SweepTemplate::new(boot(level, cfg, BOOT_TWEAK), scanner),
        old_patterns,
    }
}

/// The plan a rotation cell installs: `mode` at `k` for first-order cells;
/// for second-order `(j, k)` pairs, `Fail` fails both operations
/// ([`FaultPlan::fail_at_indices`]) and `Kill` fails `j` then kills the
/// process at `k` ([`FaultPlan::fail_then_kill`]).
fn cell_plan(mode: FaultMode, k: u64, k2: Option<u64>) -> FaultPlan {
    match (k2, mode) {
        (None, _) => mode.plan_at(k),
        (Some(k2), FaultMode::Fail) => FaultPlan::new().fail_at_indices(k, k2),
        (Some(k2), FaultMode::Kill) => FaultPlan::new().fail_then_kill(k, k2),
    }
}

fn run_one<S: SecureServer>(
    kernel: &mut Kernel,
    scanner: &mut IncrementalScanner,
    old_patterns: usize,
    server_cfg: ServerConfig,
    plan: FaultPlan,
    (k, k2): (u64, Option<u64>),
) -> RotationCell {
    kernel.install_fault_plan(plan);
    let (mut server, mut error, _) = drive_rotation::<S>(kernel, server_cfg);
    // The plan has done its worst inside the lifecycle. Recovery is part of
    // the contract under judgment — retirement is *retryable*, completing
    // at the next quiesce after the faults stop — so the server gets
    // exactly one unfaulted quiesce (which also reaps a killed daemon's
    // orphans) before the scan. A fault on the last retire write therefore
    // judges the converged state, not the mid-retry window; whether the
    // converged state is the old or the new epoch stays the cell's verdict.
    kernel.clear_fault_plan();
    let stats = kernel.stats();
    if let Some(s) = server.as_mut() {
        if s.is_running() {
            if let Err(e) = s.set_concurrency(kernel, 0) {
                error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    let report = scanner.scan(kernel);
    let counts = report.by_pattern();
    let old_total: usize = counts[..old_patterns].iter().sum();
    let new_total: usize = counts[old_patterns..].iter().sum();
    let (epoch, handshakes, shed) = server.as_ref().map_or_else(
        || (0, 0, SheddingStats::default()),
        |s| (s.key_epoch(), s.handshakes(), s.shedding()),
    );
    let (winner_resident, loser_resident) = if epoch == 0 {
        (old_total, new_total)
    } else {
        (new_total, old_total)
    };
    if let Some(mut s) = server {
        if let Err(e) = s.stop(kernel) {
            error.get_or_insert_with(|| e.to_string());
        }
    }
    RotationCell {
        k,
        k2,
        injected: stats.faults_injected,
        kills: stats.fault_kills,
        error,
        epoch,
        winner_resident,
        loser_resident,
        handshakes,
        shed,
    }
}

fn run_kind(
    kind: ServerKind,
    kernel: &mut Kernel,
    scanner: &mut IncrementalScanner,
    old_patterns: usize,
    server_cfg: ServerConfig,
    plan: FaultPlan,
    cell: (u64, Option<u64>),
) -> RotationCell {
    match kind {
        ServerKind::Ssh => {
            run_one::<SshServer>(kernel, scanner, old_patterns, server_cfg, plan, cell)
        }
        ServerKind::Apache => {
            run_one::<ApacheServer>(kernel, scanner, old_patterns, server_cfg, plan, cell)
        }
    }
}

fn probe_one<S: SecureServer>(
    kernel: &mut Kernel,
    kind_label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<(u64, u64), String> {
    let server_cfg = server_config(level, cfg);
    let (server, error, span) = drive_rotation::<S>(kernel, server_cfg);
    if let Some(e) = error {
        return Err(format!("unfaulted rotation probe failed: {e}"));
    }
    let server = server.ok_or_else(|| "probe lost its server".to_string())?;
    if server.key_epoch() != 1 {
        return Err(format!(
            "{kind_label}/{}: unfaulted rotation did not reach epoch 1",
            level.label()
        ));
    }
    if server.draining() {
        return Err(format!(
            "{kind_label}/{}: quiesce left the old epoch draining",
            level.label()
        ));
    }
    Ok(span)
}

/// [`probe_rotation_space`] on an already-booted machine.
fn probe_on(
    kernel: &mut Kernel,
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<(u64, u64), String> {
    match kind {
        ServerKind::Ssh => probe_one::<SshServer>(kernel, kind.label(), level, cfg),
        ServerKind::Apache => probe_one::<ApacheServer>(kernel, kind.label(), level, cfg),
    }
}

/// Runs the rotation workload once with an empty plan and returns the
/// operation-index interval `[start, end)` of the rotation lifecycle —
/// from the first operation of `rotate_key` through the quiesce that
/// completes Retire. This is the index space the targeted sweeps cover.
///
/// # Errors
///
/// Returns an error if the unfaulted run fails, does not reach epoch 1,
/// or leaves the old epoch draining — any of which would make sweep
/// verdicts meaningless.
pub fn probe_rotation_space(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<(u64, u64), String> {
    probe_on(&mut boot(level, cfg, BOOT_TWEAK), kind, level, cfg)
}

/// Rotation sweep of fault order 1 or 2, on an explicit executor.
///
/// Order 1 sweeps "fail (or kill) the operation at index `k`" over every
/// `k`-th operation of the rotation lifecycle. Order 2 gives every ordered
/// pair `(j, k)`, `j < k`, of the strided index set one run whose plan
/// faults *both* indices — `Fail` mode fails both operations
/// ([`FaultPlan::fail_at_indices`]), `Kill` mode fails `j` then kills the
/// process at `k` ([`FaultPlan::fail_then_kill`]), so the second fault
/// lands while the recovery from the first is still in flight.
///
/// Each cell is an independent machine + server + plan; results come back
/// in sweep order and are bit-identical at any thread count. The batch's
/// [`ExecReport`] carries the scan-effort accounting.
///
/// # Errors
///
/// Propagates a failing probe run.
///
/// # Panics
///
/// Panics if `stride` is 0 or `order` is neither 1 nor 2.
pub fn rotation_sweep_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    mode: FaultMode,
    order: u32,
    stride: u64,
    cfg: &ExperimentConfig,
) -> Result<(RotationSweepReport, ExecReport), String> {
    assert!(stride > 0, "stride must be at least 1");
    assert!(matches!(order, 1 | 2), "fault order must be 1 or 2, got {order}");
    let template = rot_template(kind.label(), level, cfg);
    let (start, end) = template
        .sweep
        .probe(|kernel| probe_on(kernel, kind, level, cfg))?;
    let server_cfg = server_config(level, cfg);
    let idx: Vec<u64> = (start..end).step_by(stride as usize).collect();
    let mut targets = Vec::new();
    for (i, &j) in idx.iter().enumerate() {
        if order == 1 {
            targets.push((j, None));
        } else {
            targets.extend(idx[i + 1..].iter().map(|&k2| (j, Some(k2))));
        }
    }
    let (cells, timing) = template.sweep.run(exec, targets, |kernel, scanner, (k, k2)| {
        let plan = cell_plan(mode, k, k2);
        run_kind(kind, kernel, scanner, template.old_patterns, server_cfg, plan, (k, k2))
    });
    let report = RotationSweepReport {
        kind_label: kind.label(),
        level,
        mode,
        order,
        start,
        end,
        stride,
        cells,
        scan: timing.scan,
    };
    Ok((report, timing))
}

fn retire_one<S: SecureServer>(
    kind_label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<RetireCheck, String> {
    let mut kernel = boot(level, cfg, BOOT_TWEAK);
    let server_cfg = server_config(level, cfg);
    let old_key = server_cfg.derive_rotated_key(kind_label, 0);
    let old_public = old_key.public_key();
    let old_scanner = Scanner::from_material(&KeyMaterial::from_key(&old_key));
    let (server, error, _) = drive_rotation::<S>(&mut kernel, server_cfg);
    if let Some(e) = error {
        return Err(format!("unfaulted retire run failed: {e}"));
    }
    let mut server = server.ok_or_else(|| "retire run lost its server".to_string())?;
    // Pattern scan: exact byte images of d, P, Q, and the PEM file.
    let old_resident = old_scanner.scan_kernel(&kernel).total();
    // Forensic pass: hand the cold-boot reconstructor a *perfect* image of
    // physical memory (decay 0) and the retired public key. If even that
    // cannot rebuild the private key, no memory-disclosure attacker can.
    let dump = kernel.snapshot_decayed(cfg.seed ^ RETIRE_SNAPSHOT_TWEAK, 0.0);
    let reconstructed = reconstruct(&dump, &old_public, &ReconstructConfig::default())
        .key
        .is_some();
    server.stop(&mut kernel).map_err(|e| e.to_string())?;
    Ok(RetireCheck {
        kind_label,
        level,
        old_resident,
        reconstructed,
    })
}

/// Unfaulted retirement probe: rotate, drain, quiesce, then check the
/// retired epoch is both pattern-invisible and unreconstructable from a
/// perfect physical-memory image. [`RetireCheck::holds`] is only promised
/// where [`level_guarantees_retired_key_gone`] is true.
///
/// # Errors
///
/// Returns an error if the unfaulted workload itself fails.
pub fn retire_check(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
) -> Result<RetireCheck, String> {
    match kind {
        ServerKind::Ssh => retire_one::<SshServer>(kind.label(), level, cfg),
        ServerKind::Apache => retire_one::<ApacheServer>(kind.label(), level, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::test()
    }

    #[test]
    fn probe_interval_is_stable_and_spans_the_lifecycle() {
        let a = probe_rotation_space(ServerKind::Ssh, ProtectionLevel::Integrated, &cfg()).unwrap();
        let b = probe_rotation_space(ServerKind::Ssh, ProtectionLevel::Integrated, &cfg()).unwrap();
        assert_eq!(a, b);
        assert!(
            a.1 > a.0 + 10,
            "rotation lifecycle must span real work: {a:?}"
        );
    }

    #[test]
    fn first_order_sweep_rolls_back_or_completes_and_never_leaks() {
        let report = rotation_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::Integrated,
            FaultMode::Fail,
            1,
            1,
            &cfg(),
        )
        .unwrap()
        .0;
        assert!(report.injected_cells() > 0, "{}", report.summary());
        // The sweep must observe both recovery outcomes: early faults roll
        // the rotation back, late faults let it complete.
        assert!(report.rolled_back() > 0, "{}", report.summary());
        assert!(report.completed() > 0, "{}", report.summary());
        assert!(report.violations().is_empty(), "{}", report.summary());
    }

    #[test]
    fn kill_mode_sweep_is_leak_free_at_shielded() {
        let report = rotation_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::Shielded,
            FaultMode::Kill,
            1,
            3,
            &cfg(),
        )
        .unwrap()
        .0;
        assert!(report.injected_cells() > 0, "{}", report.summary());
        assert!(report.violations().is_empty(), "{}", report.summary());
    }

    #[test]
    fn second_order_pairs_fault_the_recovery_path() {
        let report = rotation_sweep_on(
            &Executor::from_env(),
            ServerKind::Apache,
            ProtectionLevel::Kernel,
            FaultMode::Fail,
            2,
            7,
            &cfg(),
        )
        .unwrap()
        .0;
        assert_eq!(report.order, 2);
        assert!(!report.cells.is_empty());
        // Pairs carry both indices and at least some fire twice.
        assert!(report.cells.iter().all(|c| c.k2.is_some()));
        assert!(
            report.cells.iter().any(|c| c.injected >= 2),
            "{}",
            report.summary()
        );
        assert!(report.violations().is_empty(), "{}", report.summary());
    }

    /// The spare pool changes no result: every cell of a pooled rotation
    /// sweep equals the same cell run on a fresh clone of the boot image,
    /// under fail and kill plans, at 1 and 2 threads. The public probe
    /// finds the interval the sweep's own probe found.
    #[test]
    fn pooled_cells_equal_clone_per_cell() {
        let cfg = cfg();
        for (kind, level, mode) in [
            (ServerKind::Apache, ProtectionLevel::Kernel, FaultMode::Kill),
            (ServerKind::Ssh, ProtectionLevel::Shielded, FaultMode::Fail),
        ] {
            let template: RotTemplate = rot_template(kind.label(), level, &cfg);
            let server_cfg = server_config(level, &cfg);
            for threads in [1, 2] {
                let exec = Executor::new(threads);
                let (report, _) = rotation_sweep_on(&exec, kind, level, mode, 1, 5, &cfg).unwrap();
                assert_eq!(
                    probe_rotation_space(kind, level, &cfg),
                    Ok((report.start, report.end))
                );
                let mut scan = ScanStats::default();
                let cells: Vec<RotationCell> = report
                    .cells
                    .iter()
                    .map(|c| {
                        let mut kernel = template.sweep.kernel.clone();
                        let mut scanner = template.sweep.scanner.fork();
                        let cell = run_kind(
                            kind,
                            &mut kernel,
                            &mut scanner,
                            template.old_patterns,
                            server_cfg,
                            mode.plan_at(c.k),
                            (c.k, c.k2),
                        );
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
    fn retired_key_is_unrecoverable_at_hardened_levels() {
        let check = retire_check(ServerKind::Ssh, ProtectionLevel::Integrated, &cfg()).unwrap();
        assert_eq!(check.old_resident, 0, "{check:?}");
        assert!(!check.reconstructed, "{check:?}");
        assert!(check.holds());
    }

    #[test]
    fn hardened_gate_covers_exactly_the_zeroing_levels() {
        assert!(!level_guarantees_retired_key_gone(ProtectionLevel::None));
        assert!(!level_guarantees_retired_key_gone(ProtectionLevel::Application));
        assert!(!level_guarantees_retired_key_gone(ProtectionLevel::Library));
        assert!(level_guarantees_retired_key_gone(ProtectionLevel::Kernel));
        assert!(level_guarantees_retired_key_gone(ProtectionLevel::Integrated));
        assert!(level_guarantees_retired_key_gone(ProtectionLevel::Shielded));
    }
}
