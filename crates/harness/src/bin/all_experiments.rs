//! Runs the entire experiment suite — every figure of the paper — through
//! the five [`harness::figures`] drivers, the same code the per-figure
//! binaries call, and writes their files plus a summary to stdout.
//!
//! ```text
//! cargo run --release -p harness --bin all_experiments -- [--paper|--quick|--test]
//!     [--reps N] [--mem-mb M] [--key-bits B] [--scan-threads N]
//!     [--out DIR] [--threads N]
//! ```
//!
//! `results/` holds the `--test` scale, byte for byte apart from the two
//! perf tables, which hold timings; write other scales elsewhere with
//! `--out DIR`. `--quick` (the default) finishes in under a minute;
//! `--paper` uses the paper's full 256 MB / RSA-1024 / 15-repetition
//! parameters and grids and takes much longer. Sweeps run on the
//! work-stealing executor (`--threads`, or `HARNESS_THREADS`, default:
//! available parallelism); results are bit-identical at any thread count.
//! The fault-injection gate is the separate `faultsweep` binary.

use harness::cli::Args;
use harness::figures;
use harness::perf::PerfConfig;
use harness::ServerKind;
use keyguard::ProtectionLevel;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let (exec, out) = (args.executor(), args.out_dir());
    let paper = args.has("paper");
    args.reject_unread();
    println!(
        "memory-disclosure reproduction suite: {} MB RAM, RSA-{}, {} reps, {} threads -> {}/",
        cfg.mem_bytes / (1024 * 1024),
        cfg.key_bits,
        cfg.repetitions,
        exec.threads(),
        out.display()
    );

    let wall = Instant::now();
    let kinds = ServerKind::ALL;
    figures::ext2(&exec, &cfg, paper, &kinds, &out);
    figures::tty(&exec, &cfg, paper, &kinds, &out);
    figures::timelines(&exec, &cfg, &kinds, &ProtectionLevel::ALL, &out);
    let workload = if paper { PerfConfig::paper() } else { PerfConfig::quick() };
    figures::perf(&cfg, &workload, &kinds, &out);
    figures::baselines(&cfg, &out);
    println!(
        "\nAll experiments complete in {:.1}s. Data written under {}/",
        wall.elapsed().as_secs_f64(),
        out.display()
    );
}
