//! `faultsweep_64m`: strided fault sweeps over both servers × {kernel,
//! integrated} × {fail, kill}, through `fault_sweep_timed_on`.
//!
//! Chosen because every cell clones the 64 MB sweep template, and the clone
//! plus its drop is about 90% of cell time: a memsim clone or copy-on-write
//! change shows here, while scan and server costs barely register.

use super::{count_kernel, Bench, Round, Scale};
use crate::host::{HostMeter, Sample};
use crate::Recorder;
use harness::exec::Executor;
use harness::faultsweep::{fault_sweep_timed_on, FaultCell, FaultMode, FaultSweepReport};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, ScanStats, Scanner};
use memsim::{FaultPlan, Kernel};
use rsa_repro::material::KeyMaterial;
use servers::{ApacheServer, SecureServer, ServerConfig, SheddingStats, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

/// The sweeps of one round, in order.
pub const COMBOS: [(ServerKind, ProtectionLevel, FaultMode); 8] = [
    (ServerKind::Ssh, ProtectionLevel::Kernel, FaultMode::Fail),
    (ServerKind::Ssh, ProtectionLevel::Kernel, FaultMode::Kill),
    (
        ServerKind::Ssh,
        ProtectionLevel::Integrated,
        FaultMode::Fail,
    ),
    (
        ServerKind::Ssh,
        ProtectionLevel::Integrated,
        FaultMode::Kill,
    ),
    (ServerKind::Apache, ProtectionLevel::Kernel, FaultMode::Fail),
    (ServerKind::Apache, ProtectionLevel::Kernel, FaultMode::Kill),
    (
        ServerKind::Apache,
        ProtectionLevel::Integrated,
        FaultMode::Fail,
    ),
    (
        ServerKind::Apache,
        ProtectionLevel::Integrated,
        FaultMode::Kill,
    ),
];

// The replica mirrors these private constants of `harness::faultsweep`;
// `tests/replica.rs` fails if they drift.
const FAULT_CONCURRENCY: usize = 2;
const FAULT_REQUESTS: usize = 4;
const BOOT_TWEAK: u64 = 0xFA01_7500;

/// The fault-sweep workload. Every round runs the same eight sweeps, so
/// rounds differ only in how fast the host ran them.
pub struct FaultSweep {
    exec: Executor,
    cfg: ExperimentConfig,
    stride: u64,
    meter: HostMeter,
}

impl FaultSweep {
    /// The workload at `scale`: stride 12 (about 60 cells a round) at full
    /// scale, stride 4 at the test scale so the traced run still has 100
    /// cells for a p90.
    #[must_use]
    pub fn new(exec: Executor, scale: Scale) -> Self {
        Self {
            meter: HostMeter::new(exec.threads()),
            exec,
            cfg: scale.cfg,
            stride: if scale.test { 4 } else { 12 },
        }
    }
}

impl Bench for FaultSweep {
    /// Runs the eight sweeps. Each sweep call sets up its own probe run
    /// and template; that set-up is timed as entry-call wall minus
    /// executor wall. Each sweep is a sample of its own kind.
    fn round(&mut self, _r: usize, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        for (combo, (kind, level, mode)) in COMBOS.into_iter().enumerate() {
            let t0 = Instant::now();
            let result = if rec.enabled() {
                rec.span("harness.fault_sweep", |rec| {
                    sweep(rec, &self.exec, kind, level, mode, self.stride, &self.cfg)
                })
            } else {
                fault_sweep_timed_on(&self.exec, kind, level, mode, self.stride, &self.cfg)
                    .map(|(report, exec)| (report, exec.wall))
            };
            let call = t0.elapsed();
            let ref_ms = self.meter.lap();
            match result {
                Ok((report, wall)) => {
                    let ops = report.cells.len() as u64;
                    round.setup.push(Sample {
                        kind: combo,
                        ops: 1,
                        secs: call.saturating_sub(wall).as_secs_f64(),
                        ref_ms,
                    });
                    round.samples.push(Sample {
                        kind: combo,
                        ops,
                        secs: wall.as_secs_f64(),
                        ref_ms,
                    });
                    round.wall += wall;
                    round.ops += ops;
                    let violations = report.violations().len() as u64;
                    round.failed += violations;
                    if violations > 0 {
                        round.problems.push(report.summary());
                    }
                    round.digest.push_str(&format!("{report:?}\n"));
                }
                Err(e) => {
                    round.failed += 1;
                    round.ops += 1;
                    round.problems.push(format!("{kind}/{level}/{mode}: {e}"));
                }
            }
        }
        round
    }
}

/// Read-only state every cell of one sweep starts from.
struct Template {
    kernel: Kernel,
    scanner: IncrementalScanner,
}

fn boot(rec: &mut Recorder, level: ProtectionLevel, cfg: &ExperimentConfig) -> Kernel {
    let mut rng = Rng64::new(cfg.seed ^ BOOT_TWEAK);
    rec.span("memsim.boot", |_| cfg.boot_machine(level, &mut rng))
}

fn drive_workload<S: SecureServer>(
    rec: &mut Recorder,
    kernel: &mut Kernel,
    server_cfg: ServerConfig,
) -> (Option<String>, u64, SheddingStats) {
    let mut error: Option<String> = None;
    let mut note = |r: memsim::SimResult<()>| {
        if let Err(e) = r {
            error.get_or_insert_with(|| e.to_string());
        }
    };
    match rec.span("servers.start", |_| S::start(kernel, server_cfg)) {
        Ok(mut server) => {
            note(rec.span("servers.set_concurrency", |_| {
                server.set_concurrency(kernel, FAULT_CONCURRENCY)
            }));
            note(rec.span("servers.pump", |_| server.pump(kernel, FAULT_REQUESTS)));
            note(rec.span("servers.set_concurrency", |_| {
                server.set_concurrency(kernel, 0)
            }));
            note(rec.span("servers.stop", |_| server.stop(kernel)));
            (error, server.handshakes(), server.shedding())
        }
        Err(e) => {
            note(Err(e));
            (error, 0, SheddingStats::default())
        }
    }
}

fn drive_kind(
    rec: &mut Recorder,
    kind: ServerKind,
    kernel: &mut Kernel,
    server_cfg: ServerConfig,
) -> (Option<String>, u64, SheddingStats) {
    match kind {
        ServerKind::Ssh => drive_workload::<SshServer>(rec, kernel, server_cfg),
        ServerKind::Apache => drive_workload::<ApacheServer>(rec, kernel, server_cfg),
    }
}

fn server_config(level: ProtectionLevel, cfg: &ExperimentConfig) -> ServerConfig {
    ServerConfig::new(level).with_key_bits(cfg.key_bits)
}

fn run_cell(
    rec: &mut Recorder,
    (boot_image, warm): (&Kernel, &IncrementalScanner),
    kind: ServerKind,
    server_cfg: ServerConfig,
    plan: FaultPlan,
    k: u64,
) -> (FaultCell, ScanStats) {
    let mut kernel = rec.span("memsim.clone", |_| boot_image.clone());
    rec.count("memsim.clone_bytes", kernel.phys().len() as u64);
    let mut scanner = rec.span("keyscan.fork", |_| warm.fork());
    kernel.install_fault_plan(plan);
    let (error, handshakes, shed) = drive_kind(rec, kind, &mut kernel, server_cfg);
    kernel.clear_fault_plan();
    let stats = kernel.stats();
    let report = rec.span("keyscan.incr_scan", |_| scanner.scan(&kernel));
    count_kernel(rec, stats, boot_image.stats());
    rec.count("keyscan.frames_rescanned", scanner.stats().frames_rescanned);
    rec.count("servers.handshakes", handshakes);
    rec.count("servers.shed", shed.total());
    rec.span("memsim.drop", |_| drop(kernel));
    let cell = FaultCell {
        k,
        injected: stats.faults_injected,
        kills: stats.fault_kills,
        error,
        allocated: report.allocated(),
        unallocated: report.unallocated(),
        handshakes,
        shed,
    };
    (cell, scanner.stats())
}

/// Replica of [`fault_sweep_timed_on`] from public calls, with every call
/// into a layer in a span. Returns the report and the executor wall time.
///
/// # Errors
///
/// Fails like the harness when the unfaulted probe run fails.
pub fn sweep(
    rec: &mut Recorder,
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    mode: FaultMode,
    stride: u64,
    cfg: &ExperimentConfig,
) -> Result<(FaultSweepReport, Duration), String> {
    let server_cfg = server_config(level, cfg);
    let (start, end) = rec.span("harness.probe_index_space", |rec| {
        let mut kernel = boot(rec, level, cfg);
        let start = kernel.op_index();
        match drive_kind(rec, kind, &mut kernel, server_cfg).0 {
            Some(e) => Err(format!("unfaulted probe run failed: {e}")),
            None => Ok((start, kernel.op_index())),
        }
    })?;
    let template = rec.span("harness.sweep_template", |rec| {
        let key = rec.span("rsa.keygen", |_| server_cfg.derive_key(kind.label()));
        let mut scanner =
            IncrementalScanner::new(Scanner::from_material(&KeyMaterial::from_key(&key)))
                .with_threads(cfg.scan_threads);
        rec.at_least(
            "keyscan.patterns",
            scanner.scanner().patterns().len() as u64,
        );
        let kernel = boot(rec, level, cfg);
        rec.span("keyscan.warm_scan", |_| scanner.scan(&kernel));
        Template { kernel, scanner }
    });
    let ks: Vec<u64> = (start..end).step_by(stride as usize).collect();
    let first = rec.reserve_cells(ks.len());
    let (outs, wall) = rec.span("exec.run", |rec| {
        let proto = &*rec;
        let t0 = Instant::now();
        let outs = exec.run(ks, |i, k| {
            let mut cell = proto.cell(first + i as u64);
            let plan = match mode {
                FaultMode::Fail => FaultPlan::new().fail_at_index(k),
                FaultMode::Kill => FaultPlan::new().kill_at_index(k),
            };
            let out = cell.span("exec.cell", |cell| {
                run_cell(
                    cell,
                    (&template.kernel, &template.scanner),
                    kind,
                    server_cfg,
                    plan,
                    k,
                )
            });
            (out, cell)
        });
        let wall = t0.elapsed();
        let outs: Vec<(FaultCell, ScanStats)> = outs
            .into_iter()
            .map(|(out, cell)| {
                rec.absorb(cell);
                out
            })
            .collect();
        (outs, wall)
    });
    let mut cells = Vec::with_capacity(outs.len());
    let mut scan = ScanStats::default();
    for (cell, stats) in outs {
        scan.absorb(stats);
        cells.push(cell);
    }
    let report = FaultSweepReport {
        kind_label: kind.label(),
        level,
        mode,
        start,
        end,
        stride,
        cells,
        scan,
    };
    Ok((report, wall))
}
