//! End-to-end fault-sweep assertions: for a tiny workload, exhaustively fail
//! or kill every fallible operation and check that the kernel-level and
//! integrated countermeasures never leak key bytes into unallocated memory —
//! while the unprotected baseline demonstrably does, proving the sweep has
//! teeth.

use harness::exec::Executor;
use harness::faultsweep::{
    fault_sweep_on, fault_sweep_seeded_on, level_guarantees_clean_unallocated,
    probe_index_space, FaultMode,
};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::test()
}

/// Exhaustive (stride 1) sweep of every fallible operation of the SSH
/// workload at the integrated level, in both fault modes. This is the PR's
/// headline claim in miniature: no single injected failure — wherever it
/// lands — leaves key bytes in unallocated frames.
#[test]
fn integrated_ssh_survives_every_single_fault_exhaustively() {
    let exec = Executor::from_env();
    for mode in [FaultMode::Fail, FaultMode::Kill] {
        let report = fault_sweep_on(
            &exec,
            ServerKind::Ssh,
            ProtectionLevel::Integrated,
            mode,
            1,
            &cfg(),
        )
        .unwrap();
        assert_eq!(
            report.cells.len() as u64,
            report.end - report.start,
            "stride 1 must cover the whole index space"
        );
        assert!(report.injected_cells() > 0);
        assert!(
            report.violations().is_empty(),
            "{mode}: {:?}",
            report
                .violations()
                .iter()
                .map(|c| (c.k, c.unallocated))
                .collect::<Vec<_>>()
        );
        // The sweep exercised real error paths: some faults were absorbed by
        // shedding rather than vanishing silently.
        assert!(report.total_shed() > 0, "{}", report.summary());
    }
}

/// Strided coverage of the remaining protected combinations (kept strided so
/// the debug-mode suite stays fast; the release-mode `faultsweep` binary and
/// CI smoke matrix run wider).
#[test]
fn kernel_level_apache_and_ssh_hold_the_no_leak_invariant() {
    let exec = Executor::from_env();
    for kind in ServerKind::ALL {
        for mode in [FaultMode::Fail, FaultMode::Kill] {
            let report =
                fault_sweep_on(&exec, kind, ProtectionLevel::Kernel, mode, 17, &cfg()).unwrap();
            assert!(report.injected_cells() > 0, "{}", report.summary());
            assert!(report.violations().is_empty(), "{}", report.summary());
        }
    }
}

/// The sweep must be able to detect leaks, or the green runs above mean
/// nothing: the unprotected baseline, kill-faulted over the same workload,
/// leaves key copies in unallocated memory in plenty of cells.
#[test]
fn unprotected_baseline_leaks_under_the_same_faults() {
    let report = fault_sweep_on(
        &Executor::from_env(),
        ServerKind::Ssh,
        ProtectionLevel::None,
        FaultMode::Kill,
        17,
        &cfg(),
    )
    .unwrap();
    let leaky = report.cells.iter().filter(|c| c.unallocated > 0).count();
    assert!(
        leaky > 0,
        "the baseline must leak somewhere or the sweep is blind: {}",
        report.summary()
    );
    // ...but violations() stays empty because level None promises nothing.
    assert!(report.violations().is_empty());
    assert!(!level_guarantees_clean_unallocated(ProtectionLevel::None));
}

/// Multi-fault seeded runs at the integrated level: several operations fail
/// in the same run and the invariant still holds.
#[test]
fn seeded_multi_fault_runs_stay_clean_at_integrated_level() {
    let (report, _) = fault_sweep_seeded_on(
        &Executor::from_env(),
        ServerKind::Ssh,
        ProtectionLevel::Integrated,
        0xDEAD_FA17,
        12,
        8,
        &cfg(),
    )
    .unwrap();
    assert!(
        report.cells.iter().any(|c| c.injected > 1),
        "seeded plans should land several faults in one run"
    );
    assert!(report.violations().is_empty(), "{}", report.summary());
}

/// The probe interval genuinely addresses the faulted runs: a fault targeted
/// inside `[start, end)` fires, one targeted past `end` never does.
#[test]
fn probe_interval_addresses_the_fault_space() {
    let (start, end) =
        probe_index_space(ServerKind::Ssh, ProtectionLevel::Kernel, &cfg()).unwrap();
    assert!(end > start);

    let inside = fault_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Kernel,
        FaultMode::Fail,
        (end - start).max(1),
        &cfg(),
    )
    .unwrap();
    // Stride = whole interval -> exactly one cell, at `start` itself: the
    // workload's very first fallible operation must be reachable.
    assert_eq!(inside.cells.len(), 1);
    assert_eq!(inside.cells[0].k, start);
    assert!(inside.cells[0].injected > 0, "{:?}", inside.cells[0]);
}
