//! Figures 1 and 2: the ext2 dirent-leak attack sweep over
//! (connections × directories) against unprotected OpenSSH and Apache,
//! plus the §5.2/6.2 kernel-level re-examination ([`harness::figures::ext2`]).
//!
//! ```text
//! cargo run --release -p harness --bin fig1_2 -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--reps N] [--mem-mb M] [--key-bits B]
//!     [--scan-threads N] [--out DIR] [--threads N]
//! ```
//!
//! `--paper` also selects the paper's 10 × 10 grid. Repetitions run as
//! independent cells on the work-stealing executor (`--threads` /
//! `HARNESS_THREADS`); output is bit-identical at any thread count.

use harness::cli::Args;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let (exec, kinds, out) = (args.executor(), args.servers(), args.out_dir());
    let paper = args.has("paper");
    args.reject_unread();
    harness::figures::ext2(&exec, &cfg, paper, &kinds, &out);
}
