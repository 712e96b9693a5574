//! `timeline_rotating`: the paper's 29-tick timeline on both servers × all
//! six protection levels, rekeying every 4 ticks, through
//! `run_timelines_timed`; round `r` uses seed `seed + r`.
//!
//! Chosen because it does no clones, and its scanners carry five key epochs
//! (20 patterns), more triggers than the SWAR prefilter takes, so scans fall
//! back to the Horspool core; rotation and pump add server work. A
//! multi-pattern scan change shows here, and a clone change must leave it
//! flat.

use super::{count_kernel, setup_mix, Bench, Round, Scale};
use crate::host::{HostMeter, Sample};
use crate::Recorder;
use harness::exec::Executor;
use harness::timeline::{run_timelines_timed, Schedule, Timeline, TimelinePoint};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, Scanner};
use memsim::{Kernel, SimResult};
use rsa_repro::material::{KeyMaterial, Pattern};
use rsa_repro::RsaPrivateKey;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

// Mirrors the boot tweak of `harness::timeline`.
const BOOT_TWEAK: u64 = 0x71ED_11E5;

/// Every `(server, level)` job of one round.
#[must_use]
pub fn jobs() -> Vec<(ServerKind, ProtectionLevel)> {
    ServerKind::ALL
        .into_iter()
        .flat_map(|k| ProtectionLevel::ALL.into_iter().map(move |l| (k, l)))
        .collect()
}

/// The schedule every job follows: the paper's, rekeying every 4 ticks.
#[must_use]
pub fn schedule() -> Schedule {
    Schedule::paper().with_rotation(4)
}

/// The rotating-timeline workload.
pub struct Timelines {
    exec: Executor,
    cfg: ExperimentConfig,
    meter: HostMeter,
}

impl Timelines {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(exec: Executor, scale: Scale) -> Self {
        Self {
            meter: HostMeter::new(exec.threads()),
            exec,
            cfg: scale.cfg,
        }
    }
}

impl Bench for Timelines {
    /// Times the set-up of each [`setup_mix`] job — what a timeline does
    /// before its first tick: boot and age the machine, derive every
    /// epoch's key, build the scanner — then runs the pass as one sample.
    fn round(&mut self, r: usize, rec: &mut Recorder) -> Round {
        let cfg = ExperimentConfig {
            seed: self.cfg.seed.wrapping_add(r as u64),
            ..self.cfg
        };
        let jobs = jobs();
        let schedule = schedule();
        let setup = setup_mix()
            .into_iter()
            .enumerate()
            .map(|(i, (kind, level))| {
                let ((), sample) = self.meter.time(i, || {
                    drop(preamble(rec, label(kind), level, &cfg, &schedule));
                });
                sample
            })
            .collect();
        let (result, wall) = if rec.enabled() {
            rec.span("harness.run_timelines", |rec| {
                run_timelines(rec, &self.exec, &jobs, &cfg, &schedule)
            })
        } else {
            match run_timelines_timed(&self.exec, &jobs, &cfg, &schedule) {
                Ok((timelines, exec)) => (Ok(timelines), exec.wall),
                Err(e) => (Err(e), Duration::ZERO),
            }
        };
        let mut round = Round {
            wall,
            setup,
            ..Round::default()
        };
        let ref_ms = self.meter.lap();
        match result {
            Ok(timelines) => {
                round.ops = timelines.iter().map(|t| t.points.len() as u64).sum();
                round.samples.push(Sample {
                    kind: 0,
                    ops: round.ops,
                    secs: wall.as_secs_f64(),
                    ref_ms,
                });
                round.digest = format!("{timelines:?}\n");
            }
            Err(e) => {
                round.ops = (jobs.len() * schedule.end) as u64;
                round.failed = round.ops;
                round.problems.push(format!("round {r}: {e}"));
            }
        }
        round
    }
}

fn label(kind: ServerKind) -> &'static str {
    match kind {
        ServerKind::Ssh => "openssh",
        ServerKind::Apache => "apache",
    }
}

/// A timeline's state before its first tick.
struct Preamble {
    kernel: Kernel,
    scanner: IncrementalScanner,
    server_cfg: ServerConfig,
    preview: RsaPrivateKey,
}

fn preamble(
    rec: &mut Recorder,
    label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    schedule: &Schedule,
) -> Preamble {
    let mut rng = Rng64::new(cfg.seed ^ BOOT_TWEAK);
    let kernel = rec.span("memsim.boot", |_| cfg.boot_machine(level, &mut rng));
    let server_cfg = ServerConfig::new(level).with_key_bits(cfg.key_bits);
    let preview = rec.span("rsa.keygen", |_| server_cfg.derive_key(label));
    let mut patterns: Vec<Pattern> = KeyMaterial::from_key(&preview)
        .patterns()
        .iter()
        .map(Pattern::clone_secret)
        .collect();
    for ordinal in 1..=schedule.rotation_count() as u64 {
        let epoch_key = rec.span("rsa.keygen", |_| {
            server_cfg.derive_rotated_key(label, ordinal)
        });
        patterns.extend(
            KeyMaterial::from_key(&epoch_key)
                .patterns()
                .iter()
                .map(Pattern::clone_secret),
        );
    }
    rec.at_least("keyscan.patterns", patterns.len() as u64);
    let scanner = IncrementalScanner::new(Scanner::new(patterns)).with_threads(cfg.scan_threads);
    Preamble {
        kernel,
        scanner,
        server_cfg,
        preview,
    }
}

fn drive<S: SecureServer>(
    rec: &mut Recorder,
    label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    schedule: &Schedule,
) -> SimResult<Timeline> {
    let Preamble {
        mut kernel,
        mut scanner,
        server_cfg,
        preview,
    } = preamble(rec, label, level, cfg, schedule);
    let base = kernel.stats();
    let mut server: Option<S> = None;
    let mut points = Vec::with_capacity(schedule.end);
    for t in 0..schedule.end {
        let point = rec.span("timeline.tick", |rec| -> SimResult<TimelinePoint> {
            if t == schedule.start_server {
                let s = rec.span("servers.start", |_| S::start(&mut kernel, server_cfg))?;
                assert!(
                    s.key() == &preview,
                    "derived preview key must match the server key"
                );
                server = Some(s);
            }
            if let Some(s) = server.as_mut().filter(|s| s.is_running()) {
                if schedule.rotates_at(t) {
                    rec.span("servers.rotate", |_| s.rotate_key(&mut kernel))?;
                }
                let conc = schedule.concurrency_at(t);
                rec.span("servers.set_concurrency", |_| {
                    s.set_concurrency(&mut kernel, conc)
                })?;
                if conc > 0 {
                    rec.span("servers.pump", |_| {
                        s.pump(&mut kernel, conc * schedule.churn_per_slot)
                    })?;
                }
            }
            if t == schedule.stop_server {
                if let Some(s) = server.as_mut() {
                    rec.span("servers.stop", |_| s.stop(&mut kernel))?;
                }
            }
            // The first scan is the cold one that warms the cache.
            let scan = if t == 0 {
                "keyscan.warm_scan"
            } else {
                "keyscan.incr_scan"
            };
            let report = rec.span(scan, |_| scanner.scan(&kernel));
            let swap_hits = rec.span("keyscan.swap_scan", |_| {
                scanner.scanner().count_matches(kernel.swap_bytes())
            });
            Ok(TimelinePoint {
                t,
                allocated: report.allocated(),
                unallocated: report.unallocated(),
                locations: report.locations(),
                swap_hits,
            })
        })?;
        points.push(point);
    }
    let shed = server
        .as_ref()
        .map(SecureServer::shedding)
        .unwrap_or_default();
    count_kernel(rec, kernel.stats(), base);
    rec.count("keyscan.frames_rescanned", scanner.stats().frames_rescanned);
    rec.count(
        "servers.handshakes",
        server.as_ref().map_or(0, SecureServer::handshakes),
    );
    rec.count("servers.shed", shed.total());
    Ok(Timeline {
        kind_label: label,
        level,
        points,
        shed,
        scan: scanner.stats(),
    })
}

/// Replica of [`run_timelines_timed`] from public calls, with every call
/// into a layer in a span. Returns the timelines (or the first error in job
/// order) and the executor wall time.
pub fn run_timelines(
    rec: &mut Recorder,
    exec: &Executor,
    jobs: &[(ServerKind, ProtectionLevel)],
    cfg: &ExperimentConfig,
    schedule: &Schedule,
) -> (SimResult<Vec<Timeline>>, Duration) {
    let first = rec.reserve_cells(jobs.len());
    rec.span("exec.run", |rec| {
        let proto = &*rec;
        let t0 = Instant::now();
        let outs = exec.run(jobs.to_vec(), |i, (kind, level)| {
            let mut cell = proto.cell(first + i as u64);
            let out = cell.span("exec.cell", |cell| match kind {
                ServerKind::Ssh => drive::<SshServer>(cell, label(kind), level, cfg, schedule),
                ServerKind::Apache => {
                    drive::<ApacheServer>(cell, label(kind), level, cfg, schedule)
                }
            });
            (out, cell)
        });
        let wall = t0.elapsed();
        let timelines: Vec<SimResult<Timeline>> = outs
            .into_iter()
            .map(|(out, cell)| {
                rec.absorb(cell);
                out
            })
            .collect();
        (timelines.into_iter().collect(), wall)
    })
}
