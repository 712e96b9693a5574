//! Runs user-written scenario scripts (see `harness::scenario` for the
//! grammar) — the spiritual successor of the paper's `runsimulation.pl`.
//!
//! ```text
//! cargo run --release -p harness --bin run_scenario -- --file scenarios/fig5.txt [--out DIR]
//! cargo run --release -p harness --bin run_scenario -- --dir scenarios [--threads N] [--out DIR]
//! ```
//!
//! `--dir` runs every `*.txt` script in the directory (sorted by name) as
//! one batch across the executor's worker threads; results print in file
//! order and are bit-identical to running each file alone.

use harness::cli::Args;
use harness::exec::ExecReport;
use harness::report::{timeline_ascii, timeline_counts_dat, timeline_locations_dat, write_dat};
use harness::scenario::{Scenario, ScenarioOutcome};

fn main() {
    let args = Args::parse();
    let exec = args.executor();
    let out = args.out_dir();
    let (dir, file) = (args.get("dir"), args.get("file"));
    assert!(dir.is_none() || file.is_none(), "give --file or --dir, not both");
    args.reject_unread();

    let paths: Vec<std::path::PathBuf> = if let Some(dir) = dir {
        let mut found: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("cannot read scenario dir {dir}: {e}"))
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "txt"))
            .collect();
        found.sort();
        assert!(!found.is_empty(), "no *.txt scenarios under {dir}");
        found
    } else {
        let path = file.expect("--file <scenario.txt> or --dir <dir> is required");
        vec![std::path::PathBuf::from(path)]
    };

    let scenarios: Vec<Scenario> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read scenario {}: {e}", path.display()));
            Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect();

    let start = std::time::Instant::now();
    let outcomes = Scenario::run_batch(&exec, &scenarios);
    let report = ExecReport::new(scenarios.len(), exec.threads(), start.elapsed());

    for (path, outcome) in paths.iter().zip(outcomes) {
        let outcome = outcome
            .unwrap_or_else(|e| panic!("scenario {} failed: {e:?}", path.display()));
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("scenario");
        println!("== {} ==", path.display());
        print_outcome(&outcome);
        write_dat(&out, &format!("{stem}_counts.dat"), &timeline_counts_dat(&outcome.timeline))
            .expect("write");
        write_dat(
            &out,
            &format!("{stem}_locations.dat"),
            &timeline_locations_dat(&outcome.timeline),
        )
        .expect("write");
        println!("-> {}/{stem}_{{counts,locations}}.dat\n", out.display());
    }
    if paths.len() > 1 {
        println!("{report}");
    }
}

fn print_outcome(outcome: &ScenarioOutcome) {
    print!("{}", timeline_ascii(&outcome.timeline, 48));
    if outcome.attacks.is_empty() {
        println!("\n(no attacks scripted)");
    } else {
        println!("\nattacks:");
        for a in &outcome.attacks {
            println!(
                "  t={:>2} {:>4}: {:>6} KB disclosed, {} key copies, {}",
                a.t,
                a.kind,
                a.disclosed_bytes / 1024,
                a.keys_found,
                if a.succeeded { "KEY COMPROMISED" } else { "key safe" }
            );
        }
    }
}
