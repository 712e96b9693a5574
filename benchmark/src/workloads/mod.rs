//! The four workloads and the round loop they share.
//!
//! Every workload is a closed loop: an executor worker takes the next cell
//! only when it has finished the previous one, and `server_stress` has one
//! client thread that sends the next transaction when the last returns.
//! A run performs set-up, then rounds of identical shape until both
//! [`MIN_ROUNDS`] and the requested seconds are reached. Every timed piece
//! of work is recorded as a [`Sample`] with the host's speed around it, and
//! throughput and set-up time are read at the reference speed
//! ([`crate::host`]), so a contended stretch of the host does not move the
//! result.
//!
//! Untraced rounds call the harness's public entry points. Traced rounds
//! run a replica of the same entry point built only from public calls,
//! wrapped in spans; `tests/replica.rs` pins each replica to its harness
//! entry point result for result.

pub mod attack_matrix;
pub mod faultsweep;
pub mod server_stress;
pub mod timeline;

use crate::host::{ops_per_s_at_reference, secs_at_reference, Sample};
use crate::{fnv1a, median, Recorder};
use harness::exec::Executor;
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use memsim::KernelStats;
use std::time::{Duration, Instant};

/// Seed used when none is given. Any other seed is a held-out seed.
pub const DEFAULT_SEED: u64 = 0x2007_0625;

/// Executor workers for the sweep workloads: two give about twice the
/// cells per second of one, and more would overcommit a small host.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Adds the kernel's event counters since `base` to the trace.
pub(crate) fn count_kernel(rec: &mut Recorder, now: KernelStats, base: KernelStats) {
    rec.count("memsim.forks", now.forks - base.forks);
    rec.count("memsim.cow_breaks", now.cow_breaks - base.cow_breaks);
    rec.count("memsim.pages_zeroed", now.pages_zeroed - base.pages_zeroed);
    rec.count(
        "memsim.frames_allocated",
        now.frames_allocated - base.frames_allocated,
    );
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Strided fault sweeps: per-cell kernel clones dominate.
    FaultSweep,
    /// Rotating timelines: multi-epoch incremental scans, no clones.
    Timeline,
    /// The paper's Fig. 8 / 19–20 server stress: no scans, no clones.
    ServerStress,
    /// The level × attacker matrix: boots, full scans, reconstruction.
    AttackMatrix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 4] = [
        Self::FaultSweep,
        Self::Timeline,
        Self::ServerStress,
        Self::AttackMatrix,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FaultSweep => "faultsweep_64m",
            Self::Timeline => "timeline_rotating",
            Self::ServerStress => "server_stress",
            Self::AttackMatrix => "attack_matrix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What one operation of the workload is, and the name of its
    /// throughput line in the human-readable report.
    #[must_use]
    pub fn op(self) -> (&'static str, &'static str) {
        match self {
            Self::FaultSweep | Self::AttackMatrix => ("cells", "cells_per_s"),
            Self::Timeline => ("ticks", "ticks_per_s"),
            Self::ServerStress => ("transactions", "tx_per_s"),
        }
    }

    /// Threads doing the workload's operations: the executor's workers, or
    /// the single client thread of `server_stress`.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Self::ServerStress => 1,
            _ => threads(),
        }
    }

    /// The span that times one operation in a traced run.
    #[must_use]
    pub fn op_span(self) -> &'static str {
        match self {
            Self::FaultSweep | Self::AttackMatrix => "exec.cell",
            Self::Timeline => "timeline.tick",
            Self::ServerStress => "server.tx",
        }
    }

    /// The experiment configuration the workload runs at `scale`: the
    /// scale's own, except that full-scale `server_stress` uses the paper's
    /// RSA-1024.
    #[must_use]
    pub fn cfg(self, scale: Scale) -> ExperimentConfig {
        match self {
            Self::ServerStress if !scale.test => ExperimentConfig {
                key_bits: 1024,
                ..scale.cfg
            },
            _ => scale.cfg,
        }
    }

    /// Builds the workload at `scale`.
    #[must_use]
    pub fn bench(self, scale: Scale) -> Box<dyn Bench> {
        let exec = Executor::new(threads());
        match self {
            Self::FaultSweep => Box::new(faultsweep::FaultSweep::new(exec, scale)),
            Self::Timeline => Box::new(timeline::Timelines::new(exec, scale)),
            Self::ServerStress => Box::new(server_stress::ServerStress::new(scale)),
            Self::AttackMatrix => Box::new(attack_matrix::AttackMatrix::new(exec, scale)),
        }
    }
}

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Machine size, key size and seed of the run.
    pub cfg: ExperimentConfig,
    /// The `--test` scale: 16 MB machines, RSA-256, one round.
    pub test: bool,
}

impl Scale {
    /// The benchmark's scale: 64 MB machines and RSA-512 (the harness's
    /// quick configuration), inputs derived from `seed`.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self {
            cfg: ExperimentConfig {
                seed,
                ..ExperimentConfig::quick()
            },
            test: false,
        }
    }

    /// The smoke-test scale: 16 MB machines, RSA-256, a few seconds in all.
    #[must_use]
    pub fn test(seed: u64) -> Self {
        Self {
            cfg: ExperimentConfig {
                seed,
                ..ExperimentConfig::test()
            },
            test: true,
        }
    }
}

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted.
    pub ops: u64,
    /// Operations whose outputs failed their check.
    pub failed: u64,
    /// Wall time of the measured phase (executor batches, or the
    /// transaction loop), set-up excluded.
    pub wall: Duration,
    /// The measured phase as timed pieces of work; their operations add up
    /// to `ops` and their times to `wall`.
    pub samples: Vec<Sample>,
    /// Set-ups the round timed, one operation each.
    pub setup: Vec<Sample>,
    /// Per-operation latencies in ms, where the workload times each one
    /// untraced (`server_stress`).
    pub latencies_ms: Vec<f64>,
    /// A rendering of the round's deterministic results.
    pub digest: String,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Round {
    /// Operations per second of the measured phase.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// The configurations every round of `timeline_rotating` and
/// `attack_matrix` times the set-up of: every protection level once, server
/// kinds alternating. Booting a machine at the kernel-enforced levels costs
/// tens of times more than at the others, so each configuration is a sample
/// kind of its own, and `setup_s` weighs them equally whatever the round
/// count.
#[must_use]
pub fn setup_mix() -> [(ServerKind, ProtectionLevel); 6] {
    std::array::from_fn(|i| (ServerKind::ALL[i % 2], ProtectionLevel::ALL[i]))
}

/// One workload. Untraced calls (a disabled [`Recorder`]) go through the
/// harness's public entry points; traced calls run the replica.
pub trait Bench {
    /// Set-up done once before the rounds, returning one sample per
    /// set-up; most workloads need none and time their set-ups in the
    /// rounds.
    fn setup(&mut self, _rec: &mut Recorder) -> Vec<Sample> {
        Vec::new()
    }

    /// Round `r`.
    fn round(&mut self, r: usize, rec: &mut Recorder) -> Round;
}

/// A finished run.
#[derive(Debug)]
pub struct Run {
    /// The workload run.
    pub workload: Workload,
    /// The experiment configuration it ran ([`Workload::cfg`]).
    pub cfg: ExperimentConfig,
    /// Executor workers.
    pub threads: usize,
    /// Every set-up measured.
    pub setup: Vec<Sample>,
    /// Every round, in order.
    pub rounds: Vec<Round>,
    /// FNV-1a of the deterministic results of the rounds every run
    /// performs (the first [`MIN_ROUNDS`]), so it repeats exactly for a
    /// seed.
    pub sim_digest: u64,
    /// The trace (disabled for untraced runs).
    pub rec: Recorder,
}

impl Run {
    /// Operations attempted over all rounds.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Operations that failed their check.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    /// Every failed check.
    #[must_use]
    pub fn problems(&self) -> Vec<&str> {
        self.rounds
            .iter()
            .flat_map(|r| r.problems.iter().map(String::as_str))
            .collect()
    }

    /// Throughput of the measured phases at the reference host speed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let samples: Vec<Sample> = self
            .rounds
            .iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect();
        ops_per_s_at_reference(&samples)
    }

    /// Median of the per-round throughputs as timed, printed alongside.
    #[must_use]
    pub fn median_ops_per_s(&self) -> f64 {
        median(&self.rounds.iter().map(Round::rate).collect::<Vec<_>>())
    }

    /// Set-up time of one configuration in seconds at the reference host
    /// speed ([`secs_at_reference`]).
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        secs_at_reference(&self.setup)
    }

    /// Total wall time of the measured phases.
    #[must_use]
    pub fn measured_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }
}

/// Rounds a full-scale run performs at least, whatever `--seconds`.
pub const MIN_ROUNDS: usize = 5;

/// Runs `workload`: set-up, then rounds until `seconds` have passed and at
/// least [`MIN_ROUNDS`] are done (exactly one round at the test scale).
#[must_use]
pub fn run(workload: Workload, scale: Scale, seconds: f64, trace: bool) -> Run {
    let mut rec = if trace {
        Recorder::new(Instant::now())
    } else {
        Recorder::disabled()
    };
    let mut bench = workload.bench(scale);
    let mut setup = rec.span("bench.setup", |rec| bench.setup(rec));
    let min_rounds = if scale.test { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || (!scale.test && started.elapsed().as_secs_f64() < seconds) {
        let r = rounds.len();
        let round = rec.span("bench.round", |rec| bench.round(r, rec));
        setup.extend(round.setup.iter().copied());
        rounds.push(round);
    }
    let digest: String = rounds[..min_rounds]
        .iter()
        .map(|r| r.digest.as_str())
        .collect();
    Run {
        workload,
        cfg: workload.cfg(scale),
        threads: workload.threads(),
        setup,
        rounds,
        sim_digest: fnv1a(digest.as_bytes()),
        rec,
    }
}
