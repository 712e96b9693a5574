//! Exhaustive first-order fault injection over the server workloads: for
//! every fallible kernel operation of a standard workload, fail (or kill)
//! exactly that operation, then scan physical memory for key bytes.
//!
//! ```text
//! cargo run --release -p harness --bin faultsweep -- [--paper|--quick|--test]
//!     [--server ssh|apache|both] [--level none|app|lib|kernel|integrated|all]
//!     [--mode fail|kill|both] [--stride N] [--fault-seed SEED [--denom D] [--fault-reps R]]
//!     [--out DIR] [--threads N]
//! ```
//!
//! The process exits nonzero if any cell violates the no-leak invariant
//! (kernel/integrated levels: zero key bytes in unallocated frames after an
//! injected fault), so the sweep doubles as a CI gate. `--stride 1` (the
//! default) targets every operation; larger strides bound the matrix for
//! smoke runs. `--fault-seed` adds a seeded multi-fault sweep on top of the
//! exhaustive one.

use harness::cli::{exit_on_violations, Args};
use harness::exec::ExecReport;
use harness::faultsweep::{fault_sweep_seeded_on, fault_sweep_timed_on, FaultSweepReport};
use harness::report::{fault_sweep_dat, write_dat};

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let exec = args.executor();
    let out = args.out_dir();
    let kinds = args.servers();
    let levels = args.levels("all");
    let modes = args.modes();
    let stride = args.get_usize("stride", 1) as u64;
    let seeded = args.get("fault-seed").map(|seed| {
        let seed: u64 = seed.parse().expect("--fault-seed expects a number");
        let denom = args.get_usize("denom", 200) as u64;
        let reps = args.get_usize("fault-reps", 16) as u64;
        (seed, denom, reps)
    });
    args.reject_unread();

    println!(
        "faultsweep: {} MB RAM, RSA-{}, stride {}, {} threads -> {}/",
        cfg.mem_bytes / (1024 * 1024),
        cfg.key_bits,
        stride,
        exec.threads(),
        out.display()
    );

    let mut violations = Vec::new();
    let mut emit = |(report, timing): (FaultSweepReport, ExecReport), tag: &str| {
        println!("  {timing}");
        println!("  {}", report.summary());
        let name = format!(
            "faultsweep_{}_{}_{}{}.dat",
            report.kind_label,
            report.level.label(),
            report.mode.label(),
            tag
        );
        write_dat(&out, &name, &fault_sweep_dat(&report)).expect("write");
        for cell in report.violations() {
            violations.push(format!(
                "{}/{} op {} ({} mode) left {} key copies in unallocated memory",
                report.kind_label,
                report.level.label(),
                cell.k,
                report.mode,
                cell.unallocated
            ));
        }
    };

    for &kind in &kinds {
        for &level in &levels {
            for &mode in &modes {
                println!("[faultsweep] {kind} / {} / {mode}", level.label());
                let sweep = fault_sweep_timed_on(&exec, kind, level, mode, stride, &cfg)
                    .unwrap_or_else(|e| panic!("{kind}/{}: {e}", level.label()));
                emit(sweep, "");
            }
            if let Some((seed, denom, reps)) = seeded {
                println!(
                    "[faultsweep] {kind} / {} / seeded (seed {seed}, 1/{denom}, {reps} reps)",
                    level.label()
                );
                let sweep = fault_sweep_seeded_on(&exec, kind, level, seed, denom, reps, &cfg)
                    .unwrap_or_else(|e| panic!("{kind}/{}: {e}", level.label()));
                emit(sweep, "_seeded");
            }
        }
    }

    exit_on_violations(
        "faultsweep",
        "no-leak",
        &violations,
        "no-leak invariant held across every injected fault",
    );
}
