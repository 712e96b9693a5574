//! Defense-portfolio comparison (beyond the paper): the paper's solutions
//! vs the related-work baselines it cites — Chow et al.'s secure
//! deallocation and Provos' swap encryption ([`harness::figures::baselines`]).
//!
//! ```text
//! cargo run --release -p harness --bin baseline_compare -- [--paper|--quick|--test]
//!     [--reps N] [--mem-mb M] [--key-bits B] [--scan-threads N] [--out DIR]
//! ```
//!
//! The comparison takes at least 8 repetitions. Reading the table:
//! Chow-style secure deallocation cleans freed heap chunks but misses
//! exit-time pages and all allocated-memory disclosure; Provos' swap
//! encryption covers exactly one channel; the paper's integrated solution
//! dominates both, and stacking all three covers every channel except the
//! irreducible disclosed-fraction floor of the tty dump.

use harness::cli::Args;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let out = args.out_dir();
    args.reject_unread();
    harness::figures::baselines(&cfg, &out);
}
