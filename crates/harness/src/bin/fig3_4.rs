//! Figures 3–4 and 7, 17–18: the n_tty memory-dump attack vs connection
//! count against OpenSSH and Apache, unprotected and with the integrated
//! library–kernel solution ([`harness::figures::tty`]).
//!
//! ```text
//! cargo run --release -p harness --bin fig3_4 -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--reps N] [--mem-mb M] [--key-bits B]
//!     [--scan-threads N] [--out DIR] [--threads N]
//! ```
//!
//! `--paper` also selects the paper's 0–120 grid; every sweep takes at
//! least 10 repetitions. Repetitions run as independent cells on the
//! work-stealing executor (`--threads` / `HARNESS_THREADS`); output is
//! bit-identical at any thread count.

use harness::cli::Args;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let (exec, kinds, out) = (args.executor(), args.servers(), args.out_dir());
    let paper = args.has("paper");
    args.reject_unread();
    harness::figures::tty(&exec, &cfg, paper, &kinds, &out);
}
