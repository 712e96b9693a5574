//! Figures 7 (OpenSSH) and 17–18 (Apache): the n_tty dump attack before and
//! after deploying the integrated library–kernel solution.
//!
//! ```text
//! cargo run --release -p harness --bin fig7_17_18 -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--reps N] [--out DIR] [--threads N]
//! ```
//!
//! Repetitions run as independent cells on the work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); output is bit-identical at any
//! thread count.

use harness::attack_sweep::{paper_tty_connection_grid, tty_sweep_on};
use harness::cli::Args;
use harness::plot::sweep_lines_svg;
use harness::report::{sweep_line_dat, write_dat};
use harness::ServerKind;
use keyguard::ProtectionLevel;

fn main() {
    let args = Args::parse();
    let exec = args.executor();
    let mut cfg = args.experiment_config();
    if !args.has("paper") && args.get("reps").is_none() {
        cfg.repetitions = cfg.repetitions.max(10);
    }
    let connections = if args.has("paper") {
        paper_tty_connection_grid()
    } else {
        vec![0, 20, 40, 80, 120]
    };
    for kind in args.servers() {
        let fig = match kind {
            ServerKind::Ssh => "fig7",
            ServerKind::Apache => "fig17_18",
        };
        println!("== {fig}: tty attack before/after integrated solution, server={kind} ==");
        let (before, report) = tty_sweep_on(&exec, kind, ProtectionLevel::None, &connections, &cfg)
            .expect("baseline sweep failed");
        println!("   before: {report}");
        let (after, report) =
            tty_sweep_on(&exec, kind, ProtectionLevel::Integrated, &connections, &cfg)
                .expect("protected sweep failed");
        println!("   after:  {report}");

        println!(
            "{:>12} | {:>10} {:>9} | {:>10} {:>9}",
            "connections", "keys:none", "succ:none", "keys:intg", "succ:intg"
        );
        for (b, a) in before.iter().zip(after.iter()) {
            println!(
                "{:>12} | {:>10.2} {:>8.0}% | {:>10.2} {:>8.0}%",
                b.connections,
                b.avg_keys_found,
                b.success_rate * 100.0,
                a.avg_keys_found,
                a.success_rate * 100.0
            );
        }
        let out = args.out_dir();
        write_dat(
            &out,
            &format!("{fig}_{}_orig.dat", kind.label()),
            &sweep_line_dat(&before),
        )
        .expect("write results");
        write_dat(
            &out,
            &format!("{fig}_{}_all.dat", kind.label()),
            &sweep_line_dat(&after),
        )
        .expect("write results");
        let svg = sweep_lines_svg(
            &format!("{kind} private key copies recovered: before vs after integrated solution"),
            &before,
            Some(&after),
        );
        write_dat(&out, &format!("{fig}_{}_compare.svg", kind.label()), &svg)
            .expect("write svg");
        println!(
            "   -> {}/{fig}_{}_{{orig,all}}.dat and _compare.svg\n",
            out.display(),
            kind.label()
        );
    }
}
