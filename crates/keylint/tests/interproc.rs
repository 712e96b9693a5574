//! End-to-end interprocedural tests: runs the `keylint` binary over the
//! interproc fixtures *together* with `--format json` and asserts the
//! findings match the fixtures' `//~` markers exactly — cross-file
//! two-hop laundering, a recursive launderer, a call-site sink (S008
//! with its trace), loop back-edge taint, module-qualified call sinks,
//! and *nothing* on the sanitizer-summary, sanitizer-method or suppressed
//! lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use keylint::json::{self, Value};

const FIXTURES: [&str; 6] = [
    "interproc_helpers.rs",
    "interproc_caller.rs",
    "interproc_loops.rs",
    "interproc_self.rs",
    "interproc_modpath.rs",
    "interproc_sanitizer_method.rs",
];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// `(file, rule, line)` triples from the `//~` markers.
fn markers(name: &str) -> BTreeSet<(String, String, u32)> {
    let src = std::fs::read_to_string(fixture(name)).unwrap();
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(rest) = line.split("//~").nth(1) {
            for rule in rest.split_whitespace() {
                let mut chars = rule.chars();
                if chars.next() == Some('S')
                    && chars.clone().count() == 3
                    && chars.all(|c| c.is_ascii_digit())
                {
                    out.insert((name.to_string(), rule.to_string(), i as u32 + 1));
                }
            }
        }
    }
    out
}

#[test]
fn interproc_fixture_findings_via_json_output() {
    let mut want = BTreeSet::new();
    for name in FIXTURES {
        want.extend(markers(name));
    }
    // Sanity: the markers cover the scenarios this suite exists for.
    assert!(
        want.iter().any(|(f, r, _)| f == "interproc_caller.rs" && r == "S008"),
        "caller fixture must mark a call-site sink"
    );
    assert!(
        want.iter().filter(|(f, r, _)| f == "interproc_caller.rs" && r == "S004").count() >= 2,
        "caller fixture must mark the two-hop and recursive launderings"
    );
    assert!(
        want.iter().any(|(f, r, _)| f == "interproc_loops.rs" && r == "S004"),
        "loops fixture must mark the back-edge leak"
    );
    assert!(
        !want.iter().any(|(f, _, _)| f == "interproc_helpers.rs"),
        "helpers are clean in isolation"
    );
    assert!(
        want.iter().any(|(f, r, _)| f == "interproc_self.rs" && r == "S008"),
        "self fixture must mark the Self::-qualified call sink"
    );
    assert_eq!(
        want.iter().filter(|(f, r, _)| f == "interproc_modpath.rs" && r == "S008").count(),
        2,
        "modpath fixture must mark both module-qualified call sinks"
    );
    assert_eq!(
        want.iter().filter(|(f, _, _)| f == "interproc_sanitizer_method.rs").count(),
        1,
        "sanitizer-method fixture marks only the unsanitized control"
    );

    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_keylint"));
    for name in FIXTURES {
        cmd.arg(fixture(name));
    }
    let out = cmd.args(["--format", "json"]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "interproc fixtures must fail the lint: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let findings = report
        .get("findings")
        .and_then(Value::as_arr)
        .expect("report must carry a findings array");
    let got: BTreeSet<(String, String, u32)> = findings
        .iter()
        .map(|f| {
            let file = f.get("file").and_then(Value::as_str).unwrap();
            let base = file.rsplit('/').next().unwrap().to_string();
            let rule = f.get("rule").and_then(Value::as_str).unwrap().to_string();
            let line = match f.get("line") {
                Some(Value::Num(n)) => *n as u32,
                other => panic!("finding line must be a number, got {other:?}"),
            };
            (base, rule, line)
        })
        .collect();
    assert_eq!(got, want, "JSON findings must match the fixture markers exactly");

    // The S008 finding must carry its laundering trace: the call-site hop
    // in the caller file, then the concrete sink in the helper file.
    let s008 = findings
        .iter()
        .find(|f| {
            f.get("rule").and_then(Value::as_str) == Some("S008")
                && f.get("file")
                    .and_then(Value::as_str)
                    .is_some_and(|p| p.ends_with("interproc_caller.rs"))
        })
        .expect("an S008 finding is present in the caller fixture");
    let trace = s008
        .get("trace")
        .and_then(Value::as_arr)
        .expect("S008 finding must carry a trace array");
    assert!(trace.len() >= 2, "trace must span at least two hops");
    let files: Vec<&str> = trace
        .iter()
        .map(|s| s.get("file").and_then(Value::as_str).unwrap())
        .collect();
    assert!(
        files[0].ends_with("interproc_caller.rs"),
        "trace starts at the call site: {files:?}"
    );
    assert!(
        files.last().unwrap().ends_with("interproc_helpers.rs"),
        "trace ends at the sink inside the helper: {files:?}"
    );
}
