//! Runs every workload of `BENCHMARK.json` at the test scale, untraced and
//! traced, and checks the result line against the manifest: each listed
//! metric printed with its unit, every operation passing its check, and the
//! traced replica reproducing the untraced run's `sim_digest`.

use keylint::json::{parse, Value};
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its stdout lines.
fn run(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--test",
            "--trace",
            trace,
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout.lines().map(str::to_string).collect()
}

fn check_result(lines: &[String], expected: &[(String, String)], what: &str) {
    let result = parse(lines.last().expect("result line")).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed"),
        Some(&Value::Num(0.0)),
        "{what}: error_rate must be 0"
    );
    assert!(
        matches!(result.get("attempted"), Some(Value::Num(n)) if *n >= 1.0),
        "{what}"
    );
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let printed: Vec<&String> = metrics.keys().collect();
    let mut wanted: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    wanted.sort();
    assert_eq!(printed, wanted, "{what}: exactly the manifest's metrics");
    for (name, unit) in expected {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        assert!(
            matches!(m.get("value"), Some(Value::Num(_))),
            "{what}: {name} has a value"
        );
    }
    assert!(
        lines.iter().any(|l| l == "error_rate 0 failed/attempted"),
        "{what}: error_rate line"
    );
}

fn digest(lines: &[String]) -> &str {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .expect("sim_digest line")
}

#[test]
fn every_workload_prints_its_metrics_and_the_replica_agrees() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let workloads = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let plain = run(name, "0");
        check_result(&plain, &end_to_end, name);
        let traced = run(name, "1");
        check_result(&traced, &per_layer, name);
        assert_eq!(
            digest(&plain),
            digest(&traced),
            "{name}: replica changed the results"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
