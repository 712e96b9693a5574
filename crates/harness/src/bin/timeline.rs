//! Timeline experiments: Figures 5–6 (unprotected) and 9–16 / 21–28 (the
//! four protection levels), as locations + counts over the paper's 29-tick
//! schedule ([`harness::figures::timelines`]).
//!
//! ```text
//! cargo run --release -p harness --bin timeline -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--level none|app|lib|kernel|integrated|shielded|all]
//!     [--reps N] [--mem-mb M] [--key-bits B] [--scan-threads N] [--out DIR] [--threads N]
//! ```
//!
//! `--level all` runs every level (regenerating the whole figure family).
//! The timelines run as one batch on the work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); output is bit-identical at any
//! thread count.

use harness::cli::Args;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let (exec, kinds, out) = (args.executor(), args.servers(), args.out_dir());
    let levels = args.levels("none");
    args.reject_unread();
    harness::figures::timelines(&exec, &cfg, &kinds, &levels, &out);
}
