//! Figures 3 and 4: the n_tty memory-dump attack vs connection count,
//! against unprotected OpenSSH and Apache.
//!
//! ```text
//! cargo run --release -p harness --bin fig3_4 -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--level L] [--reps N] [--out DIR] [--threads N]
//! ```
//!
//! Repetitions run as independent cells on the work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); output is bit-identical at any
//! thread count.

use harness::attack_sweep::{paper_tty_connection_grid, tty_sweep_on};
use harness::cli::Args;
use harness::report::{sweep_line_dat, write_dat};
use harness::ServerKind;
use keyguard::ProtectionLevel;

fn main() {
    let args = Args::parse();
    let exec = args.executor();
    let mut cfg = args.experiment_config();
    if !args.has("paper") && args.get("reps").is_none() {
        cfg.repetitions = cfg.repetitions.max(10); // success rates need samples
    }
    let level = args
        .get("level")
        .map(|l| ProtectionLevel::from_label(l).expect("unknown --level"))
        .unwrap_or(ProtectionLevel::None);
    let connections = if args.has("paper") {
        paper_tty_connection_grid()
    } else {
        vec![0, 20, 40, 80, 120]
    };
    for kind in args.servers() {
        let fig = match kind {
            ServerKind::Ssh => "fig3",
            ServerKind::Apache => "fig4",
        };
        println!("== {fig}: n_tty dump sweep, server={kind}, level={level} ==");
        let (points, report) =
            tty_sweep_on(&exec, kind, level, &connections, &cfg).expect("sweep failed");
        println!("   {report}");
        println!("{:>12} {:>10} {:>9} {:>14}", "connections", "avg keys", "success", "disclosed MB");
        for p in &points {
            println!(
                "{:>12} {:>10.2} {:>8.0}% {:>14.1}",
                p.connections,
                p.avg_keys_found,
                p.success_rate * 100.0,
                p.avg_disclosed_bytes / (1024.0 * 1024.0)
            );
        }
        let name = format!("{fig}_{}_{}_tty.dat", kind.label(), level.label());
        write_dat(&args.out_dir(), &name, &sweep_line_dat(&points)).expect("write results");
        println!("   -> {}/{name}\n", args.out_dir().display());
    }
}
