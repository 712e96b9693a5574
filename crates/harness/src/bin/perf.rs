//! Performance benchmarks: Figure 8 (OpenSSH scp stress) and Figures 19–20
//! (Apache Siege stress), before vs after the integrated solution.
//!
//! ```text
//! cargo run --release -p harness --bin perf -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--transactions N] [--concurrency C]
//!     [--bench-reps R] [--out DIR]
//! ```

use harness::cli::Args;
use harness::perf::{overhead_percent, run_perf, PerfConfig};
use harness::report::{perf_table, write_dat};
use harness::ServerKind;
use keyguard::ProtectionLevel;

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
        let before =
            run_perf(kind, ProtectionLevel::None, &cfg, &perf).expect("baseline bench failed");
        let after = run_perf(kind, ProtectionLevel::Integrated, &cfg, &perf)
            .expect("protected bench failed");
        let table = perf_table(&before, &after);
        print!("{table}");
        println!(
            "overall elapsed: {:.3}s -> {:.3}s ({:+.1}% overhead)\n",
            before.elapsed_secs,
            after.elapsed_secs,
            overhead_percent(&before, &after)
        );
        write_dat(
            &args.out_dir(),
            &format!("{fig}_{}_perf.txt", kind.label()),
            &table,
        )
        .expect("write results");
    }
}
