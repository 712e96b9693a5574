//! Figures 1 and 2: the ext2 dirent-leak attack sweep over
//! (connections × directories) against OpenSSH and Apache.
//!
//! ```text
//! cargo run --release -p harness --bin fig1_2 -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--level none|app|lib|kernel|integrated]
//!     [--reps N] [--mem-mb M] [--key-bits B] [--out DIR] [--full-grid]
//!     [--threads N]
//! ```
//!
//! Repetitions run as independent cells on the work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); output is bit-identical at any
//! thread count.

use harness::attack_sweep::{ext2_sweep_with_plan_on, paper_connection_grid, paper_directory_grid};
use harness::cli::Args;
use harness::plot::sweep_grid_svg;
use harness::report::{sweep_grid_dat, write_dat};
use harness::ServerKind;
use keyguard::ProtectionLevel;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let exec = args.executor();
    let level = args
        .get("level")
        .map(|l| ProtectionLevel::from_label(l).expect("unknown --level"))
        .unwrap_or(ProtectionLevel::None);
    let (connections, directories) = if args.has("full-grid") || args.has("paper") {
        (paper_connection_grid(), paper_directory_grid())
    } else {
        (vec![50, 150, 300, 500], vec![1000, 4000, 10000])
    };
    for kind in args.servers() {
        let fig = match kind {
            ServerKind::Ssh => "fig1",
            ServerKind::Apache => "fig2",
        };
        println!("== {fig}: ext2 dirent-leak sweep, server={kind}, level={level} ==");
        println!(
            "   machine: {} MB RAM, RSA-{}, {} attacks per point",
            cfg.mem_bytes / (1024 * 1024),
            cfg.key_bits,
            cfg.repetitions
        );
        let (points, report) =
            ext2_sweep_with_plan_on(&exec, kind, level, &connections, &directories, &cfg, None)
                .expect("sweep failed");
        println!("   {report}");
        println!(
            "{:>12} {:>12} {:>10} {:>9}",
            "connections", "directories", "avg keys", "success"
        );
        for p in &points {
            println!(
                "{:>12} {:>12} {:>10.2} {:>8.0}%",
                p.connections,
                p.directories,
                p.avg_keys_found,
                p.success_rate * 100.0
            );
        }
        let name = format!("{fig}_{}_{}_ext2.dat", kind.label(), level.label());
        write_dat(&args.out_dir(), &name, &sweep_grid_dat(&points)).expect("write results");
        let svg = sweep_grid_svg(
            &format!("{kind}: avg key copies recovered by the ext2 dirent leak ({level})"),
            &points,
        );
        write_dat(
            &args.out_dir(),
            &format!("{fig}_{}_{}_ext2.svg", kind.label(), level.label()),
            &svg,
        )
        .expect("write svg");
        println!("   -> {}/{name} (+ .svg)\n", args.out_dir().display());
    }
}
