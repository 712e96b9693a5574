//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--test]`
//!
//! Runs one workload, prints a human-readable report, and ends with one JSON
//! line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. An
//! untraced run (`--trace 0`, the default) reports the end-to-end metrics; a
//! traced run (`--trace 1`) re-runs the workload through its replica, writes
//! `trace_<workload>.json`, prints per-layer self times, and reports the
//! per-layer metrics. Exits 1 when a correctness check fails, 2 on bad
//! arguments.

use benchmark::metrics::{end_to_end, per_layer, Metric};
use benchmark::host::REFERENCE_MS;
use benchmark::{median, percentile, quartiles};
use benchmark::workloads::{run, Run, Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload <faultsweep_64m|timeline_rotating|server_stress|attack_matrix> \
[--seed N] [--seconds S] [--trace 0|1] [--test]";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    test: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut out = Options {
        workload: Workload::FaultSweep,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        test: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--test" {
            out.test = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => out.seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.workload = workload.ok_or("--workload is required")?;
    Ok(out)
}

fn print_rounds(run: &Run) {
    let (unit, rate_name) = run.workload.op();
    println!(
        "round {:>6} {:>9} {:>11} {:>8}",
        unit, "wall_s", rate_name, "ref_ms"
    );
    for (i, r) in run.rounds.iter().enumerate() {
        let refs: Vec<f64> = r.samples.iter().map(|s| s.ref_ms).collect();
        println!(
            "{i:>5} {:>6} {:>9.3} {:>11.2} {:>8.3}",
            r.ops,
            r.wall.as_secs_f64(),
            r.rate(),
            if refs.is_empty() { f64::NAN } else { median(&refs) }
        );
    }
    let rates: Vec<f64> = run.rounds.iter().map(|r| r.rate()).collect();
    let (q1, q3) = quartiles(&rates);
    println!(
        "{rate_name} {:.3} {unit}/s at the reference speed ({REFERENCE_MS} ms reference loop); \
as timed over {} rounds: median {:.3}, quartiles {q1:.3} and {q3:.3}",
        run.ops_per_s(),
        run.rounds.len(),
        run.median_ops_per_s()
    );
    let latencies: Vec<f64> = run
        .rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    if !latencies.is_empty() {
        for p in [50.0, 99.0] {
            match percentile(&latencies, p) {
                Some(v) => println!("tx_p{p}_ms {v:.4} ms ({} samples)", latencies.len()),
                None => println!(
                    "tx_p{p}_ms refused: under 10 of {} samples beyond it",
                    latencies.len()
                ),
            }
        }
    }
}

fn print_self_times(run: &Run) {
    let totals = run.rec.totals();
    let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "{:<26} {:>9} {:>11} {:>11} {:>6}",
        "span (self time)", "calls", "total_ms", "self_ms", "share"
    );
    for (name, t) in rows {
        println!(
            "{name:<26} {:>9} {:>11.1} {:>11.1} {:>5.1}%",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self.max(1) as f64
        );
    }
}

fn json_line(correct: bool, run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted(),
        run.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.test {
        Scale::test(args.seed)
    } else {
        Scale::full(args.seed)
    };
    let run = run(args.workload, scale, args.seconds, args.trace);
    println!(
        "benchmark {}: seed {}, {} MB machines, RSA-{}, {} thread(s), {} run",
        args.workload.name(),
        args.seed,
        run.cfg.mem_bytes >> 20,
        run.cfg.key_bits,
        run.threads,
        if args.trace { "traced" } else { "untraced" }
    );
    print_rounds(&run);

    let metrics = if args.trace {
        let path = format!("trace_{}.json", args.workload.name());
        match std::fs::write(&path, run.rec.to_json(args.workload.name())) {
            Ok(()) => println!("trace: {} spans written to {path}", run.rec.spans().len()),
            Err(e) => eprintln!("benchmark: could not write {path}: {e}"),
        }
        print_self_times(&run);
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    for m in &metrics {
        println!("{} {} {} [{}]", m.name, m.value, m.unit, m.source);
    }
    let (attempted, failed) = (run.attempted(), run.failed());
    let setups: Vec<f64> = run.setup.iter().map(|s| s.secs).collect();
    println!(
        "setup samples {} ({:.4} s at the reference speed; as timed, median {:.4} s)",
        run.setup.len(),
        run.setup_s(),
        median(&setups)
    );
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    println!(
        "error_rate {} failed/attempted",
        failed as f64 / attempted as f64
    );
    println!("sim_digest {:#018x}", run.sim_digest);
    let problems = run.problems();
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", json_line(correct, &run, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
