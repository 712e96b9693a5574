//! Runs the entire experiment suite — every figure of the paper — and
//! writes `results/` plus a summary to stdout.
//!
//! ```text
//! cargo run --release -p harness --bin all_experiments -- [--paper|--quick|--test]
//!     [--out DIR] [--threads N] [--no-speedup-probe]
//! ```
//!
//! `--quick` (the default) finishes in a few minutes; `--paper` uses the
//! paper's full 256 MB / RSA-1024 / 15-repetition parameters and takes much
//! longer. Sweeps run on the work-stealing executor (`--threads`, or
//! `HARNESS_THREADS`, default: available parallelism) and report wall-clock
//! plus cells/sec; results are bit-identical at any thread count. A final
//! probe re-runs one representative sweep serially and in parallel and
//! prints the measured speedup (skip with `--no-speedup-probe`).

use harness::attack_sweep::{ext2_sweep_with_plan_on, tty_sweep_on};
use harness::baselines::{compare_strategies, render_table};
use harness::cli::Args;
use harness::exec::Executor;
use harness::plot::{sweep_lines_svg, timeline_counts_svg, timeline_locations_svg};
use harness::perf::{run_perf_pairs, PerfConfig};
use harness::report::{
    perf_table, sweep_grid_dat, sweep_line_dat, timeline_ascii, timeline_counts_dat,
    timeline_locations_dat, write_dat,
};
use harness::timeline::{run_timelines_timed, Schedule};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let exec = args.executor();
    let out = args.out_dir();
    println!(
        "memory-disclosure reproduction suite: {} MB RAM, RSA-{}, {} reps, {} threads -> {}/",
        cfg.mem_bytes / (1024 * 1024),
        cfg.key_bits,
        cfg.repetitions,
        exec.threads(),
        out.display()
    );

    let wall = Instant::now();
    run_attack_figures(&exec, &cfg, &out, args.has("paper"));
    run_timeline_figures(&exec, &cfg, &out);
    run_perf_figures(&cfg, &out, args.has("paper"));
    run_baselines(&cfg, &out);
    run_fault_figures(&exec, &cfg, &out, args.has("paper"));
    println!(
        "\nAll experiments complete in {:.1}s. Data written under {}/",
        wall.elapsed().as_secs_f64(),
        out.display()
    );
    if !args.has("no-speedup-probe") {
        speedup_probe(&exec, &cfg);
    }
}

fn run_attack_figures(exec: &Executor, cfg: &ExperimentConfig, out: &Path, paper_scale: bool) {
    let (conn_grid, dir_grid) = if paper_scale {
        (
            harness::attack_sweep::paper_connection_grid(),
            harness::attack_sweep::paper_directory_grid(),
        )
    } else {
        (vec![50, 200, 500], vec![1000, 4000, 10000])
    };
    let tty_grid = if paper_scale {
        harness::attack_sweep::paper_tty_connection_grid()
    } else {
        vec![0, 20, 60, 120]
    };
    let tty_cfg = cfg.with_repetitions(cfg.repetitions.max(10));

    for kind in ServerKind::ALL {
        // Figures 1–2: ext2 sweep, unprotected.
        let fig = if kind == ServerKind::Ssh { "fig1" } else { "fig2" };
        println!("\n[{fig}] ext2 sweep / {kind} / unprotected");
        let (pts, report) = ext2_sweep_with_plan_on(
            exec,
            kind,
            ProtectionLevel::None,
            &conn_grid,
            &dir_grid,
            cfg,
            None,
        )
        .expect("ext2 sweep");
        println!("  {report}");
        summarize_sweep(&pts);
        write_dat(out, &format!("{fig}_{}_none_ext2.dat", kind.label()), &sweep_grid_dat(&pts))
            .expect("write");

        // §5.2/6.2 re-exam: ext2 after kernel-level protection (expect zero).
        println!("[{fig}-reexam] ext2 sweep / {kind} / kernel level");
        let (pts, report) = ext2_sweep_with_plan_on(
            exec,
            kind,
            ProtectionLevel::Kernel,
            &[*conn_grid.last().unwrap()],
            &[*dir_grid.last().unwrap()],
            cfg,
            None,
        )
        .expect("ext2 reexam");
        println!("  {report}");
        summarize_sweep(&pts);
        write_dat(
            out,
            &format!("{fig}_{}_kernel_ext2.dat", kind.label()),
            &sweep_grid_dat(&pts),
        )
        .expect("write");

        // Figures 3–4: tty sweep, unprotected.
        let fig = if kind == ServerKind::Ssh { "fig3" } else { "fig4" };
        println!("[{fig}] tty sweep / {kind} / unprotected");
        let (before, report) =
            tty_sweep_on(exec, kind, ProtectionLevel::None, &tty_grid, &tty_cfg).expect("tty");
        println!("  {report}");
        summarize_sweep(&before);
        write_dat(out, &format!("{fig}_{}_none_tty.dat", kind.label()), &sweep_line_dat(&before))
            .expect("write");

        // Figures 7 / 17–18: tty sweep, integrated.
        let fig = if kind == ServerKind::Ssh { "fig7" } else { "fig17_18" };
        println!("[{fig}] tty sweep / {kind} / integrated");
        let (after, report) =
            tty_sweep_on(exec, kind, ProtectionLevel::Integrated, &tty_grid, &tty_cfg)
                .expect("tty");
        println!("  {report}");
        summarize_sweep(&after);
        write_dat(out, &format!("{fig}_{}_all_tty.dat", kind.label()), &sweep_line_dat(&after))
            .expect("write");
        let svg = sweep_lines_svg(
            &format!("{kind}: key copies recovered by the n_tty dump, before vs after"),
            &before,
            Some(&after),
        );
        write_dat(out, &format!("{fig}_{}_compare.svg", kind.label()), &svg).expect("write");
    }
}

fn run_timeline_figures(exec: &Executor, cfg: &ExperimentConfig, out: &Path) {
    let schedule = Schedule::paper();
    let jobs: Vec<(ServerKind, ProtectionLevel)> = ServerKind::ALL
        .into_iter()
        .flat_map(|kind| ProtectionLevel::ALL.into_iter().map(move |level| (kind, level)))
        .collect();
    println!("\n[timelines] {} runs across {} threads", jobs.len(), exec.threads());
    let (timelines, report) =
        run_timelines_timed(exec, &jobs, cfg, &schedule).expect("timeline");
    println!("  {report}");
    for ((kind, level), tl) in jobs.into_iter().zip(timelines) {
        println!("\n[timeline] {kind} / {level}");
        print!("{}", timeline_ascii(&tl, 40));
        let base = format!("{}_{}", kind.label(), level.label());
        write_dat(out, &format!("timeline_{base}_counts.dat"), &timeline_counts_dat(&tl))
            .expect("write");
        write_dat(
            out,
            &format!("timeline_{base}_locations.dat"),
            &timeline_locations_dat(&tl),
        )
        .expect("write");
        write_dat(
            out,
            &format!("timeline_{base}_locations.svg"),
            &timeline_locations_svg(&tl, cfg.mem_bytes),
        )
        .expect("write");
        write_dat(out, &format!("timeline_{base}_counts.svg"), &timeline_counts_svg(&tl))
            .expect("write");
    }
}

fn run_baselines(cfg: &ExperimentConfig, out: &Path) {
    println!("\n[baselines] defense portfolio comparison (beyond the paper)");
    let results = compare_strategies(&cfg.with_repetitions(cfg.repetitions.max(8)))
        .expect("baseline comparison");
    let table = render_table(&results);
    print!("{table}");
    write_dat(out, "baseline_compare.txt", &table).expect("write");
}

fn run_perf_figures(cfg: &ExperimentConfig, out: &Path, paper_scale: bool) {
    let perf = if paper_scale {
        PerfConfig::paper()
    } else {
        PerfConfig::quick()
    };
    for kind in ServerKind::ALL {
        let fig = if kind == ServerKind::Ssh { "fig8" } else { "fig19-20" };
        println!("\n[{fig}] {kind} stress benchmark");
        let pairs = run_perf_pairs(kind, cfg, &perf).expect("perf");
        let table = perf_table(&pairs);
        print!("{table}");
        write_dat(out, &format!("{fig}_{}_perf.txt", kind.label()), &table).expect("write");
    }
}

/// Error-path robustness matrix (beyond the paper): inject faults into the
/// server workloads at the levels that promise kernel zeroing and verify the
/// no-leak invariant after every one. `--paper` runs exhaustively (stride 1);
/// the default strides the index space to keep the suite fast. The full
/// exhaustive gate is the dedicated `faultsweep` binary.
fn run_fault_figures(exec: &Executor, cfg: &ExperimentConfig, out: &Path, paper_scale: bool) {
    use harness::faultsweep::{fault_sweep_timed_on, FaultMode};
    use harness::report::fault_sweep_dat;

    let stride = if paper_scale { 1 } else { 23 };
    println!("\n[faultsweep] error-path no-leak matrix (stride {stride})");
    let mut violations = 0;
    for kind in ServerKind::ALL {
        for level in [ProtectionLevel::Kernel, ProtectionLevel::Integrated] {
            for mode in [FaultMode::Fail, FaultMode::Kill] {
                let (report, timing) =
                    fault_sweep_timed_on(exec, kind, level, mode, stride, cfg)
                        .expect("fault sweep");
                println!("  {} — {timing}", report.summary());
                violations += report.violations().len();
                write_dat(
                    out,
                    &format!(
                        "faultsweep_{}_{}_{}.dat",
                        report.kind_label,
                        level.label(),
                        mode.label()
                    ),
                    &fault_sweep_dat(&report),
                )
                .expect("write");
            }
        }
    }
    assert_eq!(violations, 0, "no-leak invariant violated under fault injection");
}

fn summarize_sweep(points: &[harness::attack_sweep::SweepPoint]) {
    let first = points.first().expect("non-empty sweep");
    let last = points.last().expect("non-empty sweep");
    println!(
        "  {} points; first: {:.2} keys / {:.0}% success; last: {:.2} keys / {:.0}% success",
        points.len(),
        first.avg_keys_found,
        first.success_rate * 100.0,
        last.avg_keys_found,
        last.success_rate * 100.0
    );
}

/// Re-runs one representative sweep (the fig3 tty sweep) serially and on
/// the configured executor, and prints the measured wall-clock speedup —
/// the number the ROADMAP's "fast as the hardware allows" goal tracks.
fn speedup_probe(exec: &Executor, cfg: &ExperimentConfig) {
    let grid = vec![0, 20, 60, 120];
    let probe_cfg = cfg.with_repetitions(cfg.repetitions.max(10));
    println!("\n[speedup probe] fig3 tty sweep, serial vs {} threads", exec.threads());
    let probe = |exec: &Executor| {
        tty_sweep_on(exec, ServerKind::Ssh, ProtectionLevel::None, &grid, &probe_cfg)
            .expect("speedup probe")
    };
    let (serial, serial_report) = probe(&Executor::serial());
    println!("  serial:   {serial_report}");
    let (parallel, parallel_report) = probe(exec);
    println!("  parallel: {parallel_report}");

    assert_eq!(serial, parallel, "parallel sweep must be bit-identical to serial");
    let speedup = serial_report.wall.as_secs_f64() / parallel_report.wall.as_secs_f64().max(1e-9);
    println!(
        "  speedup: {speedup:.2}x with {} threads (results bit-identical)",
        exec.threads()
    );
}
