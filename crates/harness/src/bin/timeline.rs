//! Timeline experiments: Figures 5–6 (unprotected) and 9–16 / 21–28 (the
//! four protection levels), as locations + counts over the paper's 29-tick
//! schedule.
//!
//! ```text
//! cargo run --release -p harness --bin timeline -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--level none|app|lib|kernel|integrated|all]
//!     [--out DIR] [--threads N]
//! ```
//!
//! `--level all` runs every level (regenerating the whole figure family).
//! The timelines run as one batch on the work-stealing executor
//! (`--threads` / `HARNESS_THREADS`); output is bit-identical at any
//! thread count.

use harness::cli::Args;
use harness::plot::{timeline_counts_svg, timeline_locations_svg};
use harness::report::{timeline_ascii, timeline_counts_dat, timeline_locations_dat, write_dat};
use harness::timeline::{run_timelines_timed, Schedule};
use harness::ServerKind;
use keyguard::ProtectionLevel;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let exec = args.executor();
    let levels = args.levels("none");
    let jobs: Vec<(ServerKind, ProtectionLevel)> = args
        .servers()
        .into_iter()
        .flat_map(|kind| levels.iter().map(move |&level| (kind, level)))
        .collect();
    let out = args.out_dir();

    let (timelines, report) =
        run_timelines_timed(&exec, &jobs, &cfg, &Schedule::paper()).expect("timeline failed");
    println!("{} timelines: {report}\n", jobs.len());
    for ((kind, level), tl) in jobs.into_iter().zip(timelines) {
        let figure = figure_name(kind, level);
        println!("== {figure}: timeline, server={kind}, level={level} ==");
        println!("{}", timeline_ascii(&tl, 48));
        let base = format!("{}_{}", kind.label(), level.label());
        write_dat(&out, &format!("timeline_{base}_counts.dat"), &timeline_counts_dat(&tl))
            .expect("write counts");
        write_dat(
            &out,
            &format!("timeline_{base}_locations.dat"),
            &timeline_locations_dat(&tl),
        )
        .expect("write locations");
        write_dat(
            &out,
            &format!("timeline_{base}_locations.svg"),
            &timeline_locations_svg(&tl, cfg.mem_bytes),
        )
        .expect("write locations svg");
        write_dat(
            &out,
            &format!("timeline_{base}_counts.svg"),
            &timeline_counts_svg(&tl),
        )
        .expect("write counts svg");
        // Call out the big transitions (the paper's observations 3/4).
        for (t, appeared, vanished, freed) in tl.transitions() {
            if appeared + vanished + freed >= 8 {
                println!(
                    "   t={t}: {appeared} copies appeared, {vanished} vanished, \
                     {freed} freed in place (allocated -> unallocated)"
                );
            }
        }
        println!(
            "   {} scans re-read {:.1}% of frames (incremental)",
            tl.scan.scans,
            tl.scan.rescan_fraction() * 100.0
        );
        println!(
            "   peak {} copies ({} unallocated) -> {}/timeline_{base}_*.dat\n",
            tl.peak_total(),
            tl.peak_unallocated(),
            out.display()
        );
    }
}

/// Paper figure corresponding to a (server, level) timeline.
fn figure_name(kind: ServerKind, level: ProtectionLevel) -> &'static str {
    use ProtectionLevel as L;
    match (kind, level) {
        (ServerKind::Ssh, L::None) => "fig5",
        (ServerKind::Ssh, L::Application) => "fig9-10",
        (ServerKind::Ssh, L::Library) => "fig11-12",
        (ServerKind::Ssh, L::Kernel) => "fig13-14",
        (ServerKind::Ssh, L::Integrated) => "fig15-16",
        (ServerKind::Apache, L::None) => "fig6",
        (ServerKind::Apache, L::Application) => "fig21-22",
        (ServerKind::Apache, L::Library) => "fig23-24",
        (ServerKind::Apache, L::Kernel) => "fig25-26",
        (ServerKind::Apache, L::Integrated) => "fig27-28",
        // The shielded tier is ours, not the paper's; no figure to pin.
        (_, L::Shielded) => "shielded",
    }
}
