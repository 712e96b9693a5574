//! The `protection level × attacker class` matrix: the paper's exact-pattern
//! free-memory attacker next to two stronger models — an all-of-physical-
//! memory exact scan and a cold-boot decay snapshot followed by CRT
//! partial-key reconstruction.
//!
//! ```text
//! cargo run --release -p harness --bin attacker_matrix -- [--paper|--quick|--test]
//!     [--smoke] [--server ssh|apache|both] [--decay RATE]
//!     [--out DIR] [--threads N]
//! ```
//!
//! `--smoke` is the CI entry point: the tiny test configuration with one
//! repetition per cell. The process exits nonzero if any cell contradicts
//! the expectation table — in particular if a `shielded` cell falls to any
//! attacker — so the matrix doubles as a CI gate on the shielded tier.

use harness::attack_matrix::{attacker_matrix_on, DEFAULT_DECAY_RATE};
use harness::cli::{exit_on_violations, Args};
use harness::report::{attacker_matrix_dat, write_dat};

fn main() {
    let args = Args::parse();
    let cfg = if args.has("smoke") {
        harness::ExperimentConfig::test().with_repetitions(1)
    } else {
        args.experiment_config()
    };
    let exec = args.executor();
    let out = args.out_dir();
    let decay: f64 = args
        .get("decay")
        .map(|v| v.parse().unwrap_or_else(|_| panic!("--decay expects a rate, got {v:?}")))
        .unwrap_or(DEFAULT_DECAY_RATE);

    let kinds = args.servers();
    args.reject_unread();

    println!(
        "attacker_matrix: {} MB RAM, RSA-{}, {} reps/cell, decay {:.3}, {} threads -> {}/",
        cfg.mem_bytes / (1024 * 1024),
        cfg.key_bits,
        cfg.repetitions,
        decay,
        exec.threads(),
        out.display()
    );

    let mut violations = Vec::new();
    for &kind in &kinds {
        println!("[attacker_matrix] {kind}");
        let report = attacker_matrix_on(&exec, kind, &cfg, decay)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        println!("  {}", report.summary());
        for cell in &report.cells {
            println!(
                "  {:<12} {:<16} {}/{} compromised{}",
                cell.level.label(),
                cell.attacker.label(),
                cell.compromised,
                cell.repetitions,
                if cell.as_expected { "" } else { "  << UNEXPECTED" }
            );
        }
        let name = format!("attacker_matrix_{}.dat", report.kind_label);
        write_dat(&out, &name, &attacker_matrix_dat(&report)).expect("write");
        let verdict = |defeated| if defeated { "defeated" } else { "survived" };
        for cell in report.violations() {
            violations.push(format!(
                "{}/{} under {}: {} (expected {})",
                report.kind_label,
                cell.level.label(),
                cell.attacker.label(),
                verdict(cell.defeated()),
                verdict(cell.attacker.expected_to_defeat(cell.level))
            ));
        }
    }

    exit_on_violations(
        "attacker_matrix",
        "expectation",
        &violations,
        "expectation table held — shielded survived every attacker class",
    );
}
