//! Performance benchmarks: Figure 8 (OpenSSH scp stress) and Figures 19–20
//! (Apache Siege stress), before and after the countermeasures.
//!
//! As in the paper, the point is the *relative* cost of the protections
//! (which should be ≈ 0), not the absolute numbers: the workload runs the
//! full simulated stack — fork/exit, page allocation and zeroing, COW
//! faults, real RSA-CRT handshakes, and byte-for-byte payload movement — and
//! is timed with the protections off and on.

use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use memsim::SimResult;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::time::Instant;

/// Percentile over a sample set (nearest-rank).
///
/// # Panics
///
/// Panics when `samples` is empty or `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty samples");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in timings"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Workload parameters, defaulting to the paper's stress tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Concurrent connections to maintain (paper: 20).
    pub concurrency: usize,
    /// Total transactions to complete (paper: 4000).
    pub transactions: usize,
    /// Repetitions of the none/integrated pair (paper: 16 for scp).
    pub repetitions: usize,
}

impl PerfConfig {
    /// The paper's parameters: 20 concurrent, 4000 transactions.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            concurrency: 20,
            transactions: 4000,
            repetitions: 3,
        }
    }

    /// A scaled-down workload for quick runs and tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            concurrency: 8,
            transactions: 200,
            repetitions: 2,
        }
    }
}

/// The file-size mix of the paper's scp benchmark: "10 different files from
/// 1 KB to 512 KB, average 102.3 KB".
#[must_use]
pub fn scp_file_sizes() -> [usize; 10] {
    // 1,2,4,…,512 KB geometric ladder averages 102.3 KB.
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512].map(|kb| kb * 1024)
}

/// Response size for the Siege-style HTTPS benchmark.
pub const HTTP_RESPONSE_BYTES: usize = 32 * 1024;

/// Measured results of one benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfResult {
    /// Protection level measured.
    pub level: ProtectionLevel,
    /// Transactions completed.
    pub transactions: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Transactions per second.
    pub transaction_rate: f64,
    /// Payload megabits per second.
    pub throughput_mbps: f64,
    /// Mean seconds per transaction.
    pub response_secs: f64,
    /// Median per-transaction latency in seconds.
    pub response_p50: f64,
    /// 95th-percentile per-transaction latency in seconds.
    pub response_p95: f64,
    /// Concurrency maintained.
    pub concurrency: f64,
}

/// One run of the stress benchmark at one level: repetition `rep`'s
/// machine and server key.
fn run_rep<S: SecureServer>(
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    perf: &PerfConfig,
    rep: usize,
    sizes: &[usize],
) -> SimResult<PerfResult> {
    let mut rng = Rng64::new(cfg.seed ^ (rep as u64) << 8 ^ 0x9E4F);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    let server_cfg = ServerConfig::new(level)
        .with_key_bits(cfg.key_bits)
        .with_seed(cfg.seed + rep as u64);
    let started = Instant::now();
    let mut server = S::start(&mut kernel, server_cfg)?;
    server.set_concurrency(&mut kernel, perf.concurrency)?;
    let mut bytes = 0u64;
    let mut latencies = Vec::with_capacity(perf.transactions);
    for i in 0..perf.transactions {
        let t0 = Instant::now();
        // Each transaction: one handshake cycle plus the file payload.
        server.pump(&mut kernel, 1)?;
        let size = sizes[i % sizes.len()];
        server.transfer(&mut kernel, size)?;
        bytes += size as u64;
        latencies.push(t0.elapsed().as_secs_f64());
    }
    server.stop(&mut kernel)?;
    let elapsed = started.elapsed().as_secs_f64();
    let tx = perf.transactions as u64;
    Ok(PerfResult {
        level,
        transactions: tx,
        bytes,
        elapsed_secs: elapsed,
        transaction_rate: tx as f64 / elapsed,
        throughput_mbps: (bytes as f64 * 8.0) / (elapsed * 1_000_000.0),
        response_secs: elapsed / tx as f64,
        response_p50: percentile(&mut latencies, 50.0),
        response_p95: percentile(&mut latencies, 95.0),
        concurrency: perf.concurrency as f64,
    })
}

/// [`run_rep`] for the server `kind` names, with its transfer sizes.
fn run_kind(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    perf: &PerfConfig,
    rep: usize,
) -> SimResult<PerfResult> {
    match kind {
        ServerKind::Ssh => run_rep::<SshServer>(level, cfg, perf, rep, &scp_file_sizes()),
        ServerKind::Apache => {
            run_rep::<ApacheServer>(level, cfg, perf, rep, &[HTTP_RESPONSE_BYTES])
        }
    }
}

/// Runs the stress benchmark once for one server and level, on the first
/// repetition's machine and server key (`perf.repetitions` is not read).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_perf(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    perf: &PerfConfig,
) -> SimResult<PerfResult> {
    run_kind(kind, level, cfg, perf, 0)
}

/// Runs `perf.repetitions` repetitions of the stress benchmark, each at
/// both levels: `[none, integrated]` per repetition. A repetition boots its
/// own machine and serves its own key, the same for both levels, and runs
/// the two levels back to back, alternating which goes first, so the
/// host's drift in speed lands on both alike. This is the one measurement
/// behind Figures 8 and 19–20.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_perf_pairs(
    kind: ServerKind,
    cfg: &ExperimentConfig,
    perf: &PerfConfig,
) -> SimResult<Vec<[PerfResult; 2]>> {
    let (none, integrated) = (ProtectionLevel::None, ProtectionLevel::Integrated);
    (0..perf.repetitions)
        .map(|rep| {
            if rep % 2 == 0 {
                let before = run_kind(kind, none, cfg, perf, rep)?;
                Ok([before, run_kind(kind, integrated, cfg, perf, rep)?])
            } else {
                let after = run_kind(kind, integrated, cfg, perf, rep)?;
                Ok([run_kind(kind, none, cfg, perf, rep)?, after])
            }
        })
        .collect()
}

/// Relative overhead of `b` with respect to `a` in percent
/// (positive = `b` slower).
#[must_use]
pub fn overhead_percent(a: &PerfResult, b: &PerfResult) -> f64 {
    (b.elapsed_secs - a.elapsed_secs) / a.elapsed_secs * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scp_mix_matches_paper_average() {
        let sizes = scp_file_sizes();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64 / 1024.0;
        assert!((avg - 102.3).abs() < 0.01, "average {avg} KB");
    }

    #[test]
    fn perf_runs_and_reports_consistent_metrics() {
        let cfg = ExperimentConfig::test();
        let perf = PerfConfig {
            concurrency: 4,
            transactions: 20,
            repetitions: 1,
        };
        let r = run_perf(ServerKind::Ssh, ProtectionLevel::None, &cfg, &perf).unwrap();
        assert_eq!(r.transactions, 20);
        assert!(r.elapsed_secs > 0.0);
        assert!(r.transaction_rate > 0.0);
        assert!(r.throughput_mbps > 0.0);
        assert!((r.response_secs * r.transaction_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integrated_apache_also_completes() {
        let cfg = ExperimentConfig::test();
        let perf = PerfConfig {
            concurrency: 4,
            transactions: 10,
            repetitions: 1,
        };
        let r = run_perf(ServerKind::Apache, ProtectionLevel::Integrated, &cfg, &perf).unwrap();
        assert_eq!(r.transactions, 10);
        assert!(r.bytes >= 10 * HTTP_RESPONSE_BYTES as u64);
    }

    #[test]
    fn pairs_run_both_levels_on_each_repetitions_key() {
        let cfg = ExperimentConfig::test();
        let perf = PerfConfig {
            concurrency: 2,
            transactions: 5,
            repetitions: 3,
        };
        let pairs = run_perf_pairs(ServerKind::Ssh, &cfg, &perf).unwrap();
        assert_eq!(pairs.len(), 3);
        for [none, integrated] in &pairs {
            assert_eq!(none.level, ProtectionLevel::None);
            assert_eq!(integrated.level, ProtectionLevel::Integrated);
            assert_eq!(none.transactions, 5);
            assert_eq!(none.bytes, integrated.bytes);
        }
        let first = run_perf(ServerKind::Ssh, ProtectionLevel::None, &cfg, &perf).unwrap();
        assert_eq!(
            (first.transactions, first.bytes),
            (pairs[0][0].transactions, pairs[0][0].bytes)
        );
    }

    #[test]
    fn overhead_is_symmetric_zero_for_identical_runs() {
        let cfg = ExperimentConfig::test();
        let perf = PerfConfig {
            concurrency: 2,
            transactions: 5,
            repetitions: 1,
        };
        let a = run_perf(ServerKind::Ssh, ProtectionLevel::None, &cfg, &perf).unwrap();
        assert_eq!(overhead_percent(&a, &a), 0.0);
    }
}

#[cfg(test)]
mod percentile_tests {
    use super::percentile;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut xs, 50.0), 3.0);
        assert_eq!(percentile(&mut xs, 100.0), 5.0);
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 95.0), 5.0);
        let mut one = vec![7.5];
        assert_eq!(percentile(&mut one, 50.0), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_samples_panic() {
        let _ = percentile(&mut [], 50.0);
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&mut [1.0], 101.0);
    }
}
