//! `attack_matrix`: the level × attacker-class matrix through
//! `attacker_matrix_on` for both servers, two repetitions per cell (144
//! cells a round); round `r` uses seed `seed + r`. Every round covers both
//! servers, so rounds differ only in their keys and the host's speed.
//!
//! Chosen because it uses memsim and keyscan differently from the other
//! three: every cell boots and ages a fresh machine, generates a key, and
//! attacks it with full-memory single-epoch scans (the SWAR path),
//! cold-boot reconstruction, swap-out and KSM merging. A boot, snapshot or
//! reconstruct change shows here, and so does a scan change that slows
//! few-pattern full scans.

use super::{count_kernel, setup_mix, Bench, Round, Scale};
use crate::host::{HostMeter, Sample};
use crate::Recorder;
use harness::attack_matrix::{
    attacker_matrix_on, AttackerClass, AttackerMatrixReport, MatrixCell, DEFAULT_DECAY_RATE,
};
use harness::exec::{cell_seed, Executor};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::dedup_probe;
use keyscan::reconstruct::{reconstruct, ReconstructConfig};
use keyscan::Scanner;
use memsim::{Kernel, KernelStats, SimResult, PAGE_SIZE};
use rsa_repro::material::limb_bytes;
use rsa_repro::RsaPrivateKey;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

// The replica mirrors these private constants of `harness::attack_sweep`
// and `harness::attack_matrix`; `tests/replica.rs` fails if they drift.
const MATRIX_CONNECTIONS: usize = 24;
const SWEEP_CONCURRENCY: usize = 16;
const BACKGROUND_MIX: f64 = 0.5;

/// The attacker-matrix workload.
pub struct AttackMatrix {
    exec: Executor,
    cfg: ExperimentConfig,
    meter: HostMeter,
}

/// Repetitions per matrix cell and round. The executor queue holds the
/// repetitions of one cell next to each other, so with two of them both
/// workers run the same attacker class side by side in every round; with
/// one, whether two cold-boot or swap-theft cells (a machine plus a 64 MB
/// dump each) ever overlapped was up to the scheduler, and the run's peak
/// RSS read either ~207 or ~267 MB.
pub const REPETITIONS: usize = 2;

impl AttackMatrix {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(exec: Executor, scale: Scale) -> Self {
        Self {
            meter: HostMeter::new(exec.threads()),
            exec,
            cfg: scale.cfg.with_repetitions(REPETITIONS),
        }
    }
}

impl Bench for AttackMatrix {
    /// Times the set-up of each [`setup_mix`] cell — what a cell does
    /// before its attack: boot and age the machine, start the server, open
    /// the standing connections — then runs the matrix for both servers,
    /// each a sample of its own kind.
    fn round(&mut self, r: usize, rec: &mut Recorder) -> Round {
        let cfg = ExperimentConfig {
            seed: self.cfg.seed.wrapping_add(r as u64),
            ..self.cfg
        };
        let mut round = Round::default();
        for (i, (kind, level)) in setup_mix().into_iter().enumerate() {
            let seed = matrix_cell_seed(cfg.seed, kind, level, AttackerClass::ExactAllocated, 0);
            let (prepared, sample) = self.meter.time(i, || match kind {
                ServerKind::Ssh => prepare::<SshServer>(rec, level, &cfg, seed, false).map(drop),
                ServerKind::Apache => {
                    prepare::<ApacheServer>(rec, level, &cfg, seed, false).map(drop)
                }
            });
            if let Err(e) = prepared {
                round
                    .problems
                    .push(format!("set-up of {kind}/{level}: {e}"));
            }
            round.setup.push(sample);
        }
        let reps = cfg.repetitions;
        let cells = (ProtectionLevel::ALL.len() * AttackerClass::ALL.len() * reps) as u64;
        for (k, kind) in ServerKind::ALL.into_iter().enumerate() {
            let t0 = Instant::now();
            let (result, wall) = if rec.enabled() {
                rec.span("harness.attacker_matrix", |rec| {
                    matrix(rec, &self.exec, kind, &cfg, DEFAULT_DECAY_RATE)
                })
            } else {
                let report = attacker_matrix_on(&self.exec, kind, &cfg, DEFAULT_DECAY_RATE);
                (report, t0.elapsed())
            };
            round.wall += wall;
            round.ops += cells;
            round.samples.push(Sample {
                kind: k,
                ops: cells,
                secs: wall.as_secs_f64(),
                ref_ms: self.meter.lap(),
            });
            match result {
                Ok(report) => {
                    let violations = (report.violations().len() * reps) as u64;
                    round.failed += violations;
                    if violations > 0 {
                        round.problems.push(report.summary());
                    }
                    round.digest.push_str(&format!("{report:?}\n"));
                }
                Err(e) => {
                    round.failed += cells;
                    round.problems.push(format!("{kind} round {r}: {e}"));
                }
            }
        }
        round
    }
}

fn matrix_cell_seed(
    root: u64,
    kind: ServerKind,
    level: ProtectionLevel,
    attacker: AttackerClass,
    rep: usize,
) -> u64 {
    let kind_ix = match kind {
        ServerKind::Ssh => 1u64,
        ServerKind::Apache => 2u64,
    };
    let level_ix = ProtectionLevel::ALL
        .iter()
        .position(|&l| l == level)
        .expect("level in ALL");
    let attacker_ix = AttackerClass::ALL
        .iter()
        .position(|&a| a == attacker)
        .expect("attacker in ALL");
    cell_seed(
        root,
        &[kind_ix, level_ix as u64, attacker_ix as u64, rep as u64],
    )
}

/// The dedup attacker's planted guess: the byte-exact first page of an
/// aligned key region for `key`.
fn aligned_region_page(key: &RsaPrivateKey) -> Vec<u8> {
    let mut page = Vec::with_capacity(PAGE_SIZE);
    for part in [key.d(), key.p(), key.q(), key.dp(), key.dq(), key.qinv()] {
        page.extend_from_slice(&limb_bytes(part));
    }
    page.truncate(PAGE_SIZE);
    page.resize(PAGE_SIZE, 0);
    page
}

/// Boots a cell's machine and drives the victim workload: start the
/// server, open the standing connections, pump the rest, and — for the
/// free-memory attacker — close everything and remix the free lists.
/// Returns the machine, the server, a scanner for its key, and the
/// machine's counters right after boot.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn prepare<S: SecureServer>(
    rec: &mut Recorder,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    rep_seed: u64,
    close_all: bool,
) -> SimResult<(Kernel, S, Scanner, KernelStats)> {
    let mut rng = Rng64::new(rep_seed);
    let mut kernel = rec.span("memsim.boot", |_| cfg.boot_machine(level, &mut rng));
    let base = kernel.stats();
    let server_cfg = ServerConfig::new(level)
        .with_key_bits(cfg.key_bits)
        .with_seed(rep_seed);
    let mut server = rec.span("servers.start", |_| S::start(&mut kernel, server_cfg))?;
    let scanner = Scanner::from_material(server.material());
    rec.at_least("keyscan.patterns", scanner.patterns().len() as u64);
    let standing = MATRIX_CONNECTIONS.min(SWEEP_CONCURRENCY);
    rec.span("servers.set_concurrency", |_| {
        server.set_concurrency(&mut kernel, standing)
    })?;
    if MATRIX_CONNECTIONS > standing {
        rec.span("servers.pump", |_| {
            server.pump(&mut kernel, MATRIX_CONNECTIONS - standing)
        })?;
    }
    if close_all {
        rec.span("servers.set_concurrency", |_| {
            server.set_concurrency(&mut kernel, 0)
        })?;
        let mut mix_rng = Rng64::new(rep_seed ^ 0xB1D_F00D);
        rec.span("memsim.age", |_| {
            kernel.age_memory(&mut mix_rng, BACKGROUND_MIX)
        });
    }
    Ok((kernel, server, scanner, base))
}

/// The span around one attacker class's attack, after the victim is set up.
#[must_use]
pub fn attack_span(attacker: AttackerClass) -> &'static str {
    match attacker {
        AttackerClass::ExactFree => "attack.exact-free",
        AttackerClass::ExactAllocated => "attack.exact-allocated",
        AttackerClass::ColdBoot => "attack.cold-boot",
        AttackerClass::SwapTheft => "attack.swap-theft",
        AttackerClass::Dedup => "attack.dedup",
        AttackerClass::RotationWindow => "attack.rotation-window",
    }
}

/// One matrix cell: set up the victim, then attack it; `true` when the
/// attack recovered the key.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_one_cell<S: SecureServer>(
    rec: &mut Recorder,
    level: ProtectionLevel,
    attacker: AttackerClass,
    cfg: &ExperimentConfig,
    rep_seed: u64,
    decay_rate: f64,
) -> SimResult<bool> {
    let close_all = !attacker.reads_allocated();
    let (mut kernel, mut server, scanner, base) =
        prepare::<S>(rec, level, cfg, rep_seed, close_all)?;
    let threads = cfg.scan_threads;
    let compromised = rec.span(attack_span(attacker), |rec| -> SimResult<bool> {
        Ok(match attacker {
            AttackerClass::ExactFree => {
                rec.span("keyscan.full_scan", |_| {
                    scanner.scan_kernel_sharded(&kernel, threads)
                })
                .unallocated()
                    > 0
            }
            AttackerClass::ExactAllocated => {
                rec.span("keyscan.full_scan", |_| {
                    scanner.scan_kernel_sharded(&kernel, threads)
                })
                .allocated()
                    > 0
            }
            AttackerClass::ColdBoot => {
                let dump = rec.span("memsim.snapshot", |_| {
                    kernel.snapshot_decayed(rep_seed ^ 0xDECA_1DED, decay_rate)
                });
                rec.span("keyscan.dump_scan", |_| scanner.dump_compromises_key(&dump))
                    || rec
                        .span("keyscan.reconstruct", |_| {
                            reconstruct(
                                &dump,
                                &server.key().public_key(),
                                &ReconstructConfig::default(),
                            )
                        })
                        .key
                        .is_some_and(|k| k.d() == server.key().d())
            }
            AttackerClass::SwapTheft => {
                rec.span("memsim.swap_out", |_| kernel.swap_out_pressure(usize::MAX))?;
                rec.span("keyscan.dump_scan", |_| {
                    scanner.dump_compromises_key(kernel.swap_bytes())
                })
            }
            AttackerClass::Dedup => {
                let candidate = aligned_region_page(server.key());
                let attacker_pid = kernel.spawn();
                rec.span("keyscan.dedup_probe", |_| {
                    dedup_probe(&mut kernel, attacker_pid, &candidate)
                })?
                .confirms_candidate()
            }
            AttackerClass::RotationWindow => {
                rec.span("servers.rotate", |_| server.rotate_key(&mut kernel))?;
                rec.span("keyscan.full_scan", |_| {
                    scanner.scan_kernel_sharded(&kernel, threads)
                })
                .total()
                    > 0
            }
        })
    })?;
    count_kernel(rec, kernel.stats(), base);
    rec.count("servers.handshakes", server.handshakes());
    rec.count("servers.shed", server.shedding().total());
    drop(server);
    Ok(compromised)
}

/// Replica of [`attacker_matrix_on`] from public calls, with every call
/// into a layer in a span. Returns the report and the wall time of the
/// call.
pub fn matrix(
    rec: &mut Recorder,
    exec: &Executor,
    kind: ServerKind,
    cfg: &ExperimentConfig,
    decay_rate: f64,
) -> (SimResult<AttackerMatrixReport>, Duration) {
    let mut tasks = Vec::new();
    for &level in &ProtectionLevel::ALL {
        for &attacker in &AttackerClass::ALL {
            for rep in 0..cfg.repetitions {
                tasks.push((level, attacker, rep));
            }
        }
    }
    let first = rec.reserve_cells(tasks.len());
    let t0 = Instant::now();
    let raw: Vec<SimResult<bool>> = rec.span("exec.run", |rec| {
        let proto = &*rec;
        let outs = exec.run(tasks, |i, (level, attacker, rep)| {
            let mut cell = proto.cell(first + i as u64);
            let rep_seed = matrix_cell_seed(cfg.seed, kind, level, attacker, rep);
            let out = cell.span("exec.cell", |cell| match kind {
                ServerKind::Ssh => {
                    run_one_cell::<SshServer>(cell, level, attacker, cfg, rep_seed, decay_rate)
                }
                ServerKind::Apache => {
                    run_one_cell::<ApacheServer>(cell, level, attacker, cfg, rep_seed, decay_rate)
                }
            });
            (out, cell)
        });
        outs.into_iter()
            .map(|(out, cell)| {
                rec.absorb(cell);
                out
            })
            .collect()
    });
    let wall = t0.elapsed();

    let fold = || -> SimResult<AttackerMatrixReport> {
        let mut cells = Vec::new();
        let mut reps = raw.into_iter();
        for &level in &ProtectionLevel::ALL {
            for &attacker in &AttackerClass::ALL {
                let mut compromised = 0usize;
                for _ in 0..cfg.repetitions {
                    compromised += usize::from(reps.next().expect("cell count mismatch")?);
                }
                cells.push(MatrixCell {
                    level,
                    attacker,
                    compromised,
                    repetitions: cfg.repetitions,
                    as_expected: (compromised > 0) == attacker.expected_to_defeat(level),
                });
            }
        }
        Ok(AttackerMatrixReport {
            kind_label: kind.label(),
            decay_rate,
            cells,
        })
    };
    (fold(), wall)
}
