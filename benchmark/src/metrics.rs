//! The metrics a run reports: [`end_to_end`] for an untraced run, and
//! [`per_layer`] for a traced one, which draws on three sources, all
//! measured in the traced run:
//!
//! * **spans** of the replica: executor busy/idle time, per-operation
//!   latency, and the mean time per call of each layer call the workload
//!   makes;
//! * **counters** the replica records next to its spans: kernel events,
//!   bytes cloned, frames rescanned, handshakes, shed work;
//! * **probes**: calls timed on a machine of the workload's own size and
//!   key size, with its own scan-pattern count. Every workload reports
//!   every layer call, so a call the workload never makes (a clone in
//!   `server_stress`, say) is probed instead of reported as zero; the
//!   printed table says which source each number came from. The scan
//!   throughput, RSA private operation and handshake accept are always
//!   probed, because the workloads only make them inside larger calls.

use crate::workloads::attack_matrix::{attack_span, run_one_cell};
use crate::workloads::{timeline, Run, Workload};
use crate::{median, percentile, Recorder};
use bignum::BigUint;
use harness::attack_matrix::{AttackerClass, DEFAULT_DECAY_RATE};
use harness::ExperimentConfig;
use keyguard::ProtectionLevel;
use keyscan::reconstruct::{reconstruct, ReconstructConfig};
use keyscan::{dedup_probe, IncrementalScanner, Scanner};
use memsim::{Kernel, PAGE_SIZE};
use rsa_repro::material::{KeyMaterial, Pattern};
use rsa_repro::CrtEngine;
use servers::{SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Where the number came from: `run` (the untraced rounds), `span`,
    /// `probe` or `counter`.
    pub source: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, source: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            source,
        }
    }
}

/// Layer calls reported as mean milliseconds per call (`<span>_ms`).
pub const PER_CALL: [&str; 15] = [
    "memsim.boot",
    "memsim.clone",
    "memsim.snapshot",
    "memsim.swap_out",
    "keyscan.warm_scan",
    "keyscan.fork",
    "keyscan.incr_scan",
    "keyscan.reconstruct",
    "keyscan.dedup_probe",
    "servers.start",
    "servers.set_concurrency",
    "servers.pump",
    "servers.transfer",
    "servers.rotate",
    "rsa.keygen",
];

/// Counters reported per workload operation (`<counter>_per_op`).
pub const PER_OP: [&str; 7] = [
    "memsim.clone_bytes",
    "memsim.forks",
    "memsim.cow_breaks",
    "memsim.pages_zeroed",
    "memsim.frames_allocated",
    "keyscan.frames_rescanned",
    "servers.handshakes",
];

/// Epoch counts of the scan-throughput series: 1 and 2 epochs stay on the
/// SWAR prefilter, 3 and more exceed its trigger budget.
pub const EPOCHS: [usize; 4] = [1, 2, 3, 5];

/// Timed calls per probe; the median is reported.
const PROBE_REPS: usize = 3;
/// Timed calls per microsecond-scale probe (RSA, handshakes).
const MICRO_REPS: usize = 31;
/// Standing connections on the probe machine.
const PROBE_CONCURRENCY: usize = 8;
/// Seed tweak of the probe machine, apart from every workload stream.
const PROBE_TWEAK: u64 = 0x9B0B_E000;
const LABEL: &str = "openssh";

/// A machine of the workload's size running an unprotected SSH server
/// with standing connections: the image every probe runs on.
struct ProbeRig {
    cfg: ExperimentConfig,
    epochs: usize,
    kernel: Kernel,
    server: SshServer,
    server_cfg: ServerConfig,
    rng: Rng64,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn median_ms(mut f: impl FnMut() -> Duration, reps: usize) -> f64 {
    median(
        &(0..reps)
            .map(|_| f().as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    )
}

impl ProbeRig {
    fn new(workload: Workload, cfg: ExperimentConfig) -> Self {
        let mut rng = Rng64::new(cfg.seed ^ PROBE_TWEAK);
        let mut kernel = cfg.boot_machine(ProtectionLevel::None, &mut rng);
        let server_cfg = ServerConfig::new(ProtectionLevel::None)
            .with_key_bits(cfg.key_bits)
            .with_seed(cfg.seed ^ PROBE_TWEAK);
        let mut server = SshServer::start(&mut kernel, server_cfg).expect("probe server starts");
        server
            .set_concurrency(&mut kernel, PROBE_CONCURRENCY)
            .expect("probe connections open");
        server
            .pump(&mut kernel, PROBE_CONCURRENCY)
            .expect("probe traffic");
        let epochs = match workload {
            Workload::Timeline => 1 + timeline::schedule().rotation_count(),
            _ => 1,
        };
        Self {
            cfg,
            epochs,
            kernel,
            server,
            server_cfg,
            rng,
        }
    }

    /// A scanner for the server's first `epochs` key epochs.
    fn scanner(&self, epochs: usize) -> Scanner {
        let mut patterns: Vec<Pattern> = Vec::new();
        for ordinal in 0..epochs as u64 {
            let key = self.server_cfg.derive_rotated_key(LABEL, ordinal);
            patterns.extend(
                KeyMaterial::from_key(&key)
                    .patterns()
                    .iter()
                    .map(Pattern::clone_secret),
            );
        }
        Scanner::new(patterns)
    }

    /// Median milliseconds per call of the layer call `span`.
    fn call_ms(&mut self, span: &str) -> f64 {
        let reps = PROBE_REPS;
        match span {
            "memsim.boot" => median_ms(
                || time(|| self.cfg.boot_machine(ProtectionLevel::None, &mut self.rng)).1,
                reps,
            ),
            "memsim.clone" => median_ms(|| time(|| self.kernel.clone()).1, reps),
            "memsim.snapshot" => median_ms(
                || {
                    time(|| {
                        self.kernel
                            .snapshot_decayed(self.rng.next_u64(), DEFAULT_DECAY_RATE)
                    })
                    .1
                },
                reps,
            ),
            "memsim.swap_out" => median_ms(
                || {
                    let mut k = self.kernel.clone();
                    time(|| k.swap_out_pressure(usize::MAX).expect("probe swap-out")).1
                },
                reps,
            ),
            "keyscan.warm_scan" => {
                let scanner = self.scanner(self.epochs);
                median_ms(
                    || {
                        let mut cold = IncrementalScanner::new(scanner.fork());
                        time(|| cold.scan(&self.kernel)).1
                    },
                    reps,
                )
            }
            "keyscan.fork" => {
                let mut warm = IncrementalScanner::new(self.scanner(self.epochs));
                warm.scan(&self.kernel);
                median_ms(|| time(|| warm.fork()).1, reps)
            }
            "keyscan.incr_scan" => {
                let mut warm = IncrementalScanner::new(self.scanner(self.epochs));
                warm.scan(&self.kernel);
                median_ms(
                    || {
                        self.server
                            .pump(&mut self.kernel, 1)
                            .expect("probe traffic");
                        time(|| warm.scan(&self.kernel)).1
                    },
                    reps,
                )
            }
            "keyscan.reconstruct" => {
                let public = self.server.key().public_key();
                median_ms(
                    || {
                        let dump = self
                            .kernel
                            .snapshot_decayed(self.rng.next_u64(), DEFAULT_DECAY_RATE);
                        time(|| reconstruct(&dump, &public, &ReconstructConfig::default())).1
                    },
                    reps,
                )
            }
            "keyscan.dedup_probe" => median_ms(
                || {
                    let mut k = self.kernel.clone();
                    let pid = k.spawn();
                    let guess = self.rng.gen_bytes(PAGE_SIZE);
                    time(|| dedup_probe(&mut k, pid, &guess).expect("probe dedup")).1
                },
                reps,
            ),
            "servers.start" => median_ms(
                || {
                    let mut k = self.kernel.clone();
                    time(|| SshServer::start(&mut k, self.server_cfg).expect("probe start")).1
                },
                reps,
            ),
            "servers.set_concurrency" => median_ms(
                || {
                    self.server
                        .set_concurrency(&mut self.kernel, 0)
                        .expect("probe close");
                    time(|| {
                        self.server
                            .set_concurrency(&mut self.kernel, PROBE_CONCURRENCY)
                            .expect("probe open")
                    })
                    .1
                },
                reps,
            ),
            "servers.pump" => median_ms(
                || time(|| self.server.pump(&mut self.kernel, 1).expect("probe pump")).1,
                reps,
            ),
            "servers.transfer" => median_ms(
                || {
                    time(|| {
                        self.server
                            .transfer(&mut self.kernel, harness::perf::HTTP_RESPONSE_BYTES)
                            .expect("probe transfer")
                    })
                    .1
                },
                reps,
            ),
            "servers.rotate" => median_ms(
                || {
                    time(|| {
                        self.server
                            .rotate_key(&mut self.kernel)
                            .expect("probe rotate")
                    })
                    .1
                },
                reps,
            ),
            "rsa.keygen" => {
                let mut ordinal = 100;
                median_ms(
                    || {
                        ordinal += 1;
                        time(|| self.server_cfg.derive_rotated_key(LABEL, ordinal)).1
                    },
                    reps,
                )
            }
            other => unreachable!("no probe for {other}"),
        }
    }

    /// Median milliseconds of one `attacker` attack on a freshly prepared
    /// unprotected SSH victim (the attack span alone, not the set-up).
    fn attack_ms(&self, attacker: AttackerClass) -> f64 {
        let span = attack_span(attacker);
        let mut rep = 0;
        median_ms(
            || {
                rep += 1;
                let mut rec = Recorder::new(Instant::now());
                run_one_cell::<SshServer>(
                    &mut rec,
                    ProtectionLevel::None,
                    attacker,
                    &self.cfg,
                    self.cfg.seed ^ PROBE_TWEAK ^ rep,
                    DEFAULT_DECAY_RATE,
                )
                .expect("probe attack");
                Duration::from_secs_f64(rec.durations_ms(span)[0] / 1e3)
            },
            PROBE_REPS,
        )
    }

    /// Full-scan throughput of a scanner over `epochs` key epochs, GB/s.
    fn full_scan_gbps(&self, epochs: usize) -> f64 {
        let scanner = self.scanner(epochs);
        let ms = median_ms(
            || time(|| scanner.scan_kernel(&self.kernel).total()).1,
            PROBE_REPS,
        );
        self.kernel.phys().len() as f64 / (ms * 1e-3) / 1e9
    }

    /// Microseconds per CRT private operation, with or without the
    /// Montgomery-context cache.
    fn private_op_us(&mut self, cached: bool) -> f64 {
        let mut engine = CrtEngine::new(self.server_cfg.derive_key(LABEL), cached);
        let len = engine.key().modulus_len() - 1;
        let c = BigUint::from_be_bytes(&self.rng.gen_bytes(len));
        1e3 * median_ms(
            || time(|| engine.private_op(&c).expect("probe private op")).1,
            MICRO_REPS,
        )
    }

    /// Microseconds per server-side handshake accept, TLS and SSH.
    fn accept_us(&mut self) -> (f64, f64) {
        let mut engine = CrtEngine::new(self.server_cfg.derive_key(LABEL), true);
        let public = engine.key().public_key();
        let rng = &mut self.rng;
        let tls = 1e3
            * median_ms(
                || {
                    let (_, bundle) =
                        wireproto::tls::Client::start(public.clone(), rng).expect("tls hello");
                    time(|| wireproto::tls::accept(&mut engine, &bundle, rng).expect("tls accept"))
                        .1
                },
                MICRO_REPS,
            );
        let ssh = 1e3
            * median_ms(
                || {
                    let (_, bundle) = wireproto::ssh::Client::start(public.clone(), rng);
                    time(|| wireproto::ssh::accept(&mut engine, &bundle, rng).expect("ssh accept"))
                        .1
                },
                MICRO_REPS,
            );
        (tls, ssh)
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order.
///
/// # Panics
///
/// Panics if `run` was not traced.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let rec: &Recorder = &run.rec;
    assert!(rec.enabled(), "per-layer metrics need a traced run");
    let ops = run.attempted() as f64;
    let threads = run.threads as f64;
    let wall = run.measured_wall().as_secs_f64();
    let busy_span = match run.workload {
        Workload::ServerStress => "server.tx",
        _ => "exec.cell",
    };
    let busy = rec.durations_ms(busy_span).iter().sum::<f64>() / 1e3;
    let op_ms = rec.durations_ms(run.workload.op_span());
    let tail = |p| percentile(&op_ms, p).unwrap_or(f64::NAN);
    let mut out = vec![
        Metric::new("exec.threads", threads, "count", "span"),
        Metric::new("exec.busy_s", busy, "s", "span"),
        Metric::new("exec.idle_s", threads * wall - busy, "s", "span"),
        Metric::new("exec.utilization", busy / (threads * wall), "ratio", "span"),
        Metric::new("exec.op_ms_p50", tail(50.0), "ms", "span"),
        Metric::new("exec.op_ms_p90", tail(90.0), "ms", "span"),
        Metric::new("trace.ops_per_s", run.ops_per_s(), "ops/s", "span"),
    ];

    let mut rig = ProbeRig::new(run.workload, run.cfg);
    for span in PER_CALL {
        let calls = rec.durations_ms(span);
        let name = format!("{span}_ms");
        out.push(if calls.is_empty() {
            Metric::new(name, rig.call_ms(span), "ms", "probe")
        } else {
            Metric::new(name, mean(&calls), "ms", "span")
        });
    }
    for attacker in AttackerClass::ALL {
        let calls = rec.durations_ms(attack_span(attacker));
        let name = format!("attack_matrix.{}_ms", attacker.label().replace('-', "_"));
        out.push(if calls.is_empty() {
            Metric::new(name, rig.attack_ms(attacker), "ms", "probe")
        } else {
            Metric::new(name, mean(&calls), "ms", "span")
        });
    }
    for counter in PER_OP {
        let unit = if counter == "memsim.clone_bytes" {
            "bytes"
        } else {
            "count"
        };
        out.push(Metric::new(
            format!("{counter}_per_op"),
            rec.counter(counter) as f64 / ops,
            unit,
            "counter",
        ));
    }
    out.push(Metric::new(
        "servers.shed",
        rec.counter("servers.shed") as f64,
        "count",
        "counter",
    ));
    out.push(Metric::new(
        "keyscan.patterns",
        rec.gauge("keyscan.patterns") as f64,
        "count",
        "counter",
    ));

    let gbps: Vec<f64> = EPOCHS.iter().map(|&e| rig.full_scan_gbps(e)).collect();
    let own = EPOCHS
        .iter()
        .position(|&e| e == rig.epochs)
        .expect("every workload's epoch count is in EPOCHS");
    out.push(Metric::new(
        "keyscan.full_scan_gbps",
        gbps[own],
        "GB/s",
        "probe",
    ));
    for (e, g) in EPOCHS.iter().zip(gbps) {
        out.push(Metric::new(
            format!("keyscan.full_scan_gbps.e{e}"),
            g,
            "GB/s",
            "probe",
        ));
    }
    out.push(Metric::new(
        "rsa.private_op_us.cached",
        rig.private_op_us(true),
        "us",
        "probe",
    ));
    out.push(Metric::new(
        "rsa.private_op_us.uncached",
        rig.private_op_us(false),
        "us",
        "probe",
    ));
    let (tls, ssh) = rig.accept_us();
    out.push(Metric::new("wireproto.tls_accept_us", tls, "us", "probe"));
    out.push(Metric::new("wireproto.ssh_accept_us", ssh, "us", "probe"));
    out
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        Metric::new("ops_per_s", run.ops_per_s(), "ops/s", "run"),
        Metric::new("setup_s", run.setup_s(), "s", "run"),
        Metric::new(
            "peak_rss_mb",
            crate::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
            "run",
        ),
    ]
}
