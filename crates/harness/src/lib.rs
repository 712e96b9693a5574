//! Experiment drivers that regenerate every table and figure of Harrison &
//! Xu (DSN 2007).
//!
//! | Paper figure | Driver | Binary |
//! |---|---|---|
//! | Fig 1, 2 (ext2 sweep) | [`attack_sweep::ext2_sweep_on`] | `fig1_2` |
//! | Fig 3, 4 (tty sweep) | [`attack_sweep::tty_sweep_on`] | `fig3_4` |
//! | Fig 5, 6, 9–16, 21–28 (timelines) | [`timeline::run_timelines_timed`] | `timeline` |
//! | Fig 7, 17, 18 (before/after) | [`attack_sweep::tty_sweep_on`] at two levels | `fig7_17_18` |
//! | Fig 8, 19, 20 (performance) | [`perf::run_perf_pairs`] | `perf` |
//! | Error-path robustness (beyond the paper) | [`faultsweep::fault_sweep_timed_on`] | `faultsweep` |
//! | Stronger attackers (beyond the paper) | [`attack_matrix::attacker_matrix_on`] | `attacker_matrix` |
//! | Rotation crash-consistency (beyond the paper) | [`rotsweep::rotation_sweep_on`] | `rotsweep` |
//!
//! Each driver returns plain data structures; the [`report`] module renders
//! them as the gnuplot-style `.dat` series the paper's plots were built from
//! plus human-readable summaries. The `all_experiments` binary runs the full
//! set and writes `results/`.
//!
//! Sweeps and batches run on the [`exec`] work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); results are bit-identical to the
//! serial path at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack_matrix;
pub mod attack_sweep;
pub mod baselines;
pub mod cli;
pub mod exec;
pub mod faultsweep;
pub mod perf;
pub mod plot;
pub mod report;
pub mod rotsweep;
pub mod scenario;
pub mod timeline;

use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, Scanner};
use memsim::{Kernel, MachineConfig};
use rsa_repro::material::{KeyMaterial, Pattern};
use servers::ServerConfig;
use simrng::Rng64;

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Simulated physical memory size in bytes.
    pub mem_bytes: usize,
    /// RSA modulus size in bits.
    pub key_bits: usize,
    /// Attack repetitions to average over.
    pub repetitions: usize,
    /// Master seed; every repetition derives its own stream.
    pub seed: u64,
    /// Worker threads for *intra-kernel* scan sharding (1 = serial): the
    /// thread count of every scanner a run builds
    /// ([`keyscan::Scanner::with_threads`]), which splits one machine's
    /// physical sweep, the incremental scanner's dirty-frame rescans and
    /// capture scans into contiguous chunks merged in order. Results are
    /// bit-identical at any value; orthogonal to the executor's across-cell
    /// `--threads`.
    pub scan_threads: usize,
}

impl ExperimentConfig {
    /// The paper's parameters: 256 MB of RAM, RSA-1024, 15–20 repetitions.
    /// Slow — use [`Self::quick`] for exploratory runs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            mem_bytes: 256 * 1024 * 1024,
            key_bits: 1024,
            repetitions: 15,
            seed: 0x2007_0625,
            scan_threads: 1,
        }
    }

    /// A scaled-down configuration (64 MB, RSA-512, 5 repetitions) whose
    /// qualitative shape matches the paper at a fraction of the runtime.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            mem_bytes: 64 * 1024 * 1024,
            key_bits: 512,
            repetitions: 5,
            seed: 0x2007_0625,
            scan_threads: 1,
        }
    }

    /// A tiny configuration for unit tests (16 MB, RSA-256, 3 repetitions).
    #[must_use]
    pub fn test() -> Self {
        Self {
            mem_bytes: 16 * 1024 * 1024,
            key_bits: 256,
            repetitions: 3,
            seed: 0x2007_0625,
            scan_threads: 1,
        }
    }

    /// Overrides the repetition count.
    #[must_use]
    pub fn with_repetitions(mut self, reps: usize) -> Self {
        self.repetitions = reps;
        self
    }

    /// Overrides the intra-kernel scan-shard thread count (clamped to at
    /// least 1). Results stay bit-identical; only wall-clock changes.
    #[must_use]
    pub fn with_scan_threads(mut self, threads: usize) -> Self {
        self.scan_threads = threads.max(1);
        self
    }

    /// Boots an aged machine with this configuration under `level`'s kernel
    /// policy. Aging scatters the free lists over all of RAM so attack
    /// coverage behaves like the paper's long-running testbed.
    #[must_use]
    pub fn boot_machine(&self, level: ProtectionLevel, rng: &mut Rng64) -> Kernel {
        let mut kernel = Kernel::new(
            MachineConfig::paper()
                .with_mem_bytes(self.mem_bytes)
                .with_policy(level.kernel_policy()),
        );
        kernel.age_memory(rng, 1.0);
        kernel
    }
}

/// The incremental scanner that watches one server across its key epochs:
/// the patterns of every key `server_cfg` derives for `kind_label` at
/// rotation ordinals `0..=last_epoch`, in ordinal order, then `extra`, with
/// its scans split across `threads`. Every epoch key is a pure function of
/// the configuration ([`ServerConfig::derive_rotated_key`]), so the scanner
/// exists before the server does, and still works when a fault aborts the
/// server's start.
pub(crate) fn epoch_scanner(
    server_cfg: ServerConfig,
    kind_label: &str,
    last_epoch: u64,
    extra: Option<Pattern>,
    threads: usize,
) -> IncrementalScanner {
    let mut patterns = Vec::new();
    for ordinal in 0..=last_epoch {
        let epoch = KeyMaterial::from_key(&server_cfg.derive_rotated_key(kind_label, ordinal));
        patterns.extend(epoch.patterns().iter().map(Pattern::clone_secret));
    }
    patterns.extend(extra);
    IncrementalScanner::new(Scanner::new(patterns).with_threads(threads))
}

/// Which simulated server an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// OpenSSH-style fork-per-connection server.
    Ssh,
    /// Apache-style prefork worker-pool server.
    Apache,
}

impl ServerKind {
    /// Both servers, in paper order.
    pub const ALL: [Self; 2] = [Self::Ssh, Self::Apache];

    /// Name used in output files (`ssh` / `apache`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Ssh => "ssh",
            Self::Apache => "apache",
        }
    }

    /// Parses a label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "ssh" | "openssh" => Some(Self::Ssh),
            "apache" | "httpd" => Some(Self::Apache),
            _ => None,
        }
    }
}

impl core::fmt::Display for ServerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_have_sane_scaling() {
        let paper = ExperimentConfig::paper();
        let quick = ExperimentConfig::quick();
        let test = ExperimentConfig::test();
        assert!(paper.mem_bytes > quick.mem_bytes);
        assert!(quick.mem_bytes > test.mem_bytes);
        assert!(paper.key_bits >= quick.key_bits);
        assert_eq!(paper.with_repetitions(2).repetitions, 2);
    }

    #[test]
    fn boot_machine_ages_memory() {
        let cfg = ExperimentConfig::test();
        let mut rng = Rng64::new(1);
        let k = cfg.boot_machine(ProtectionLevel::None, &mut rng);
        // Aging leaves every frame on a free list, not at the watermark.
        assert_eq!(k.free_listed_frames(), k.num_frames());
    }

    #[test]
    fn server_kind_labels() {
        assert_eq!(ServerKind::Ssh.label(), "ssh");
        assert_eq!(ServerKind::from_label("apache"), Some(ServerKind::Apache));
        assert_eq!(ServerKind::from_label("openssh"), Some(ServerKind::Ssh));
        assert_eq!(ServerKind::from_label("nginx"), None);
        assert_eq!(ServerKind::Apache.to_string(), "apache");
    }
}
