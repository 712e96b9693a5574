//! Performance benchmarks: Figure 8 (OpenSSH scp stress) and Figures 19–20
//! (Apache Siege stress), before vs after the integrated solution
//! ([`harness::figures::perf`]).
//!
//! ```text
//! cargo run --release -p harness --bin perf -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--transactions N] [--concurrency C]
//!     [--bench-reps R] [--reps N] [--mem-mb M] [--key-bits B]
//!     [--scan-threads N] [--out DIR]
//! ```
//!
//! Each repetition runs both levels back to back, alternating which goes
//! first (`harness::perf::run_perf_pairs`); the table gives each level's
//! median and the per-repetition delta's median and quartiles.

use harness::cli::Args;
use harness::perf::PerfConfig;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let mut workload = if args.has("paper") {
        PerfConfig::paper()
    } else {
        PerfConfig::quick()
    };
    workload.transactions = args.get_usize("transactions", workload.transactions);
    workload.concurrency = args.get_usize("concurrency", workload.concurrency);
    workload.repetitions = args.get_usize("bench-reps", workload.repetitions);
    let (kinds, out) = (args.servers(), args.out_dir());
    args.reject_unread();
    harness::figures::perf(&cfg, &workload, &kinds, &out);
}
