//! Performance benchmarks: Figure 8 (OpenSSH scp stress) and Figures 19–20
//! (Apache Siege stress), before vs after the integrated solution.
//!
//! ```text
//! cargo run --release -p harness --bin perf -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--transactions N] [--concurrency C]
//!     [--bench-reps R] [--out DIR]
//! ```
//!
//! Each repetition runs both levels back to back, alternating which goes
//! first (`harness::perf::run_perf_pairs`); the table gives each level's
//! median and the per-repetition delta's median and quartiles.

use harness::cli::Args;
use harness::perf::{run_perf_pairs, PerfConfig};
use harness::report::{perf_table, write_dat};
use harness::ServerKind;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let mut perf = if args.has("paper") {
        PerfConfig::paper()
    } else {
        PerfConfig::quick()
    };
    perf.transactions = args.get_usize("transactions", perf.transactions);
    perf.concurrency = args.get_usize("concurrency", perf.concurrency);
    perf.repetitions = args.get_usize("bench-reps", perf.repetitions);

    for kind in args.servers() {
        let fig = match kind {
            ServerKind::Ssh => "fig8",
            ServerKind::Apache => "fig19-20",
        };
        println!(
            "== {fig}: {} stress, {} transactions at concurrency {} ({} reps) ==",
            kind, perf.transactions, perf.concurrency, perf.repetitions
        );
        let pairs = run_perf_pairs(kind, &cfg, &perf).expect("bench failed");
        let table = perf_table(&pairs);
        println!("{table}");
        write_dat(
            &args.out_dir(),
            &format!("{fig}_{}_perf.txt", kind.label()),
            &table,
        )
        .expect("write results");
    }
}
