//! One driver per figure family of the paper: each runs the family's
//! sweeps, prints its table and writes its `results/` files. The per-figure
//! binaries and `all_experiments` only parse arguments and call these, so
//! both entry points write the same files byte for byte.
//!
//! Every driver panics on a simulator or I/O error: the drivers back
//! command-line entry points, where an error ends the run.

use crate::attack_sweep::{
    ext2_sweep_with_plan_on, paper_connection_grid, paper_directory_grid,
    paper_tty_connection_grid, tty_sweep_on, SweepPoint,
};
use crate::baselines::{compare_strategies, render_table};
use crate::exec::Executor;
use crate::perf::{run_perf_pairs, PerfConfig};
use crate::plot::{sweep_grid_svg, sweep_lines_svg, timeline_counts_svg, timeline_locations_svg};
use crate::report::{
    perf_table, sweep_grid_dat, sweep_line_dat, timeline_ascii, timeline_counts_dat,
    timeline_locations_dat, write_dat,
};
use crate::timeline::{run_timelines_timed, Schedule};
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use std::path::Path;

/// Figures 1–2: the ext2 dirent-leak sweep over (connections ×
/// directories) against the unprotected server, plus the §5.2/6.2
/// re-examination at the kernel level on the grid's largest point (where
/// the unprotected server leaks the most). `paper` selects the paper's
/// 10 × 10 grid. Writes `fig{1,2}_<server>_{none,kernel}_ext2.dat` and the
/// unprotected sweep's heatmap, `fig{1,2}_<server>_none_ext2.svg`.
///
/// # Panics
///
/// Panics on a simulator or I/O error.
pub fn ext2(
    exec: &Executor,
    cfg: &ExperimentConfig,
    paper: bool,
    kinds: &[ServerKind],
    out: &Path,
) {
    let (connections, directories) = if paper {
        (paper_connection_grid(), paper_directory_grid())
    } else {
        (vec![50, 200, 500], vec![1000, 4000, 10000])
    };
    let last_connections = [*connections.last().expect("grid")];
    let last_directories = [*directories.last().expect("grid")];
    for &kind in kinds {
        let fig = if kind == ServerKind::Ssh { "fig1" } else { "fig2" };
        for (level, conns, dirs) in [
            (ProtectionLevel::None, &connections[..], &directories[..]),
            (ProtectionLevel::Kernel, &last_connections[..], &last_directories[..]),
        ] {
            println!("\n[{fig}] ext2 dirent-leak sweep / {kind} / {level}");
            let (points, report) =
                ext2_sweep_with_plan_on(exec, kind, level, conns, dirs, cfg, None)
                    .expect("ext2 sweep");
            println!("  {report}");
            print_sweep(&points);
            let name = format!("{fig}_{kind}_{level}_ext2");
            write(out, &format!("{name}.dat"), &sweep_grid_dat(&points));
            if level == ProtectionLevel::None {
                let title = format!("{kind}: avg key copies recovered by the ext2 dirent leak");
                write(out, &format!("{name}.svg"), &sweep_grid_svg(&title, &points));
            }
        }
    }
}

/// Figures 3–4 and 7, 17–18: the n_tty dump sweep over connections against
/// the unprotected server (Figs. 3–4) and against the integrated solution
/// (Figs. 7, 17–18 plot the two together). `paper` selects the paper's
/// 0–120 grid; every sweep takes at least 10 repetitions, because success
/// rates need samples. Writes `fig{3,4}_<server>_none_tty.dat`,
/// `fig{7,17_18}_<server>_all_tty.dat` and `fig{7,17_18}_<server>_compare.svg`.
///
/// # Panics
///
/// Panics on a simulator or I/O error.
pub fn tty(
    exec: &Executor,
    cfg: &ExperimentConfig,
    paper: bool,
    kinds: &[ServerKind],
    out: &Path,
) {
    let connections = if paper {
        paper_tty_connection_grid()
    } else {
        vec![0, 20, 60, 120]
    };
    let cfg = cfg.with_repetitions(cfg.repetitions.max(10));
    for &kind in kinds {
        let (fig, fig_after) = match kind {
            ServerKind::Ssh => ("fig3", "fig7"),
            ServerKind::Apache => ("fig4", "fig17_18"),
        };
        let sweep = |fig: &str, level| {
            println!("\n[{fig}] n_tty dump sweep / {kind} / {level}");
            let (points, report) =
                tty_sweep_on(exec, kind, level, &connections, &cfg).expect("tty sweep");
            println!("  {report}");
            print_sweep(&points);
            points
        };
        let before = sweep(fig, ProtectionLevel::None);
        let after = sweep(fig_after, ProtectionLevel::Integrated);
        write(out, &format!("{fig}_{kind}_none_tty.dat"), &sweep_line_dat(&before));
        write(out, &format!("{fig_after}_{kind}_all_tty.dat"), &sweep_line_dat(&after));
        let title = format!("{kind}: key copies recovered by the n_tty dump, before vs after");
        let svg = sweep_lines_svg(&title, &before, Some(&after));
        write(out, &format!("{fig_after}_{kind}_compare.svg"), &svg);
    }
}

/// Figures 5–6, 9–16 and 21–28: per-tick key-copy counts and locations
/// over the paper's 29-tick schedule, one timeline per `(server, level)`,
/// run as one batch on `exec`. Writes
/// `timeline_<server>_<level>_{counts,locations}.{dat,svg}`.
///
/// # Panics
///
/// Panics on a simulator or I/O error.
pub fn timelines(
    exec: &Executor,
    cfg: &ExperimentConfig,
    kinds: &[ServerKind],
    levels: &[ProtectionLevel],
    out: &Path,
) {
    let jobs: Vec<(ServerKind, ProtectionLevel)> = kinds
        .iter()
        .flat_map(|&kind| levels.iter().map(move |&level| (kind, level)))
        .collect();
    let (timelines, report) =
        run_timelines_timed(exec, &jobs, cfg, &Schedule::paper()).expect("timeline");
    println!("\n[timelines] {} runs: {report}", jobs.len());
    for ((kind, level), tl) in jobs.into_iter().zip(timelines) {
        println!("\n[{}] timeline / {kind} / {level}", timeline_figure(kind, level));
        print!("{}", timeline_ascii(&tl, 48));
        // Call out the big transitions (the paper's observations 3/4).
        for (t, appeared, vanished, freed) in tl.transitions() {
            if appeared + vanished + freed >= 8 {
                println!(
                    "  t={t}: {appeared} copies appeared, {vanished} vanished, \
                     {freed} freed in place (allocated -> unallocated)"
                );
            }
        }
        println!(
            "  peak {} copies ({} unallocated); {} scans re-read {:.1}% of frames",
            tl.peak_total(),
            tl.peak_unallocated(),
            tl.scan.scans,
            tl.scan.rescan_fraction() * 100.0
        );
        let base = format!("timeline_{kind}_{level}");
        write(out, &format!("{base}_counts.dat"), &timeline_counts_dat(&tl));
        write(out, &format!("{base}_locations.dat"), &timeline_locations_dat(&tl));
        let svg = timeline_locations_svg(&tl, cfg.mem_bytes);
        write(out, &format!("{base}_locations.svg"), &svg);
        write(out, &format!("{base}_counts.svg"), &timeline_counts_svg(&tl));
    }
}

/// Figures 8 and 19–20: the scp and Siege stress tests, none against
/// integrated, as [`run_perf_pairs`] measures them. Writes
/// `fig8_ssh_perf.txt` and `fig19-20_apache_perf.txt`; they hold timings,
/// so unlike every other figure file they differ run to run.
///
/// # Panics
///
/// Panics on a simulator or I/O error.
pub fn perf(cfg: &ExperimentConfig, workload: &PerfConfig, kinds: &[ServerKind], out: &Path) {
    for &kind in kinds {
        let fig = if kind == ServerKind::Ssh { "fig8" } else { "fig19-20" };
        println!(
            "\n[{fig}] {kind} stress, {} transactions at concurrency {} ({} reps)",
            workload.transactions, workload.concurrency, workload.repetitions
        );
        let table = perf_table(&run_perf_pairs(kind, cfg, workload).expect("perf"));
        print!("{table}");
        write(out, &format!("{fig}_{kind}_perf.txt"), &table);
    }
}

/// Beyond the paper: the paper's solutions against the related-work
/// defenses it cites (Chow et al.'s secure deallocation, Provos' swap
/// encryption), over at least 8 repetitions. Writes `baseline_compare.txt`.
///
/// # Panics
///
/// Panics on a simulator or I/O error.
pub fn baselines(cfg: &ExperimentConfig, out: &Path) {
    let cfg = cfg.with_repetitions(cfg.repetitions.max(8));
    println!(
        "\n[baselines] defense portfolio comparison: ssh workload, {} reps",
        cfg.repetitions
    );
    let table = render_table(&compare_strategies(&cfg).expect("baseline comparison"));
    print!("{table}");
    write(out, "baseline_compare.txt", &table);
}

fn write(out: &Path, name: &str, contents: &str) {
    write_dat(out, name, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.join(name).display()));
}

fn print_sweep(points: &[SweepPoint]) {
    println!(
        "  {:>11} {:>11} {:>9} {:>8} {:>12}",
        "connections", "directories", "avg keys", "success", "disclosed MB"
    );
    for p in points {
        println!(
            "  {:>11} {:>11} {:>9.2} {:>7.0}% {:>12.1}",
            p.connections,
            p.directories,
            p.avg_keys_found,
            p.success_rate * 100.0,
            p.avg_disclosed_bytes / (1024.0 * 1024.0)
        );
    }
}

/// The paper figure a `(server, level)` timeline reproduces.
fn timeline_figure(kind: ServerKind, level: ProtectionLevel) -> &'static str {
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
        // The shielded tier is ours, not the paper's.
        (_, L::Shielded) => "shielded",
    }
}
