//! Determinism-equivalence suite: the parallel executor must be
//! **bit-identical** to the serial `threads = 1` reference oracle at every
//! thread count, for every sweep family and for scripted scenarios.
//!
//! Every comparison below is exact (`assert_eq!`, not approximate): the
//! per-cell seeding scheme means no float is ever accumulated in a
//! different order under parallelism, so even `Stats`-derived aggregates
//! (means, success rates) match to the last bit.

use harness::attack_sweep::{ext2_sweep_on, tty_sweep_on};
use harness::exec::Executor;
use harness::scenario::Scenario;
use harness::timeline::{run_timeline, run_timelines, Schedule};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;

/// The thread counts every family is checked at, against serial.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn cfg() -> ExperimentConfig {
    ExperimentConfig::test()
}

// ---------------------------------------------------------------------
// Figures 1–2 family: ext2 dirent-leak sweep
// ---------------------------------------------------------------------

#[test]
fn ext2_sweep_parallel_is_bit_identical_to_serial() {
    let conns = [20, 40];
    let dirs = [200, 400];
    let serial = ext2_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &conns,
        &dirs,
        &cfg(),
    )
    .unwrap();
    for threads in THREAD_COUNTS {
        let parallel = ext2_sweep_on(
            &Executor::new(threads),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &conns,
            &dirs,
            &cfg(),
        )
        .unwrap();
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

#[test]
fn ext2_sweep_apache_and_protected_levels_match_serial() {
    for level in [ProtectionLevel::None, ProtectionLevel::Kernel] {
        let serial = ext2_sweep_on(
            &Executor::serial(),
            ServerKind::Apache,
            level,
            &[30],
            &[300],
            &cfg(),
        )
        .unwrap();
        let parallel = ext2_sweep_on(
            &Executor::new(4),
            ServerKind::Apache,
            level,
            &[30],
            &[300],
            &cfg(),
        )
        .unwrap();
        assert_eq!(serial, parallel, "{level}");
    }
}

// ---------------------------------------------------------------------
// Figures 3–4 and 7/17/18 family: n_tty dump sweep
// ---------------------------------------------------------------------

#[test]
fn tty_sweep_parallel_is_bit_identical_to_serial() {
    let conns = [0, 12, 24];
    let c = cfg().with_repetitions(4);
    for level in [ProtectionLevel::None, ProtectionLevel::Integrated] {
        let (serial, _) =
            tty_sweep_on(&Executor::serial(), ServerKind::Ssh, level, &conns, &c).unwrap();
        for threads in THREAD_COUNTS {
            let parallel =
                tty_sweep_on(&Executor::new(threads), ServerKind::Ssh, level, &conns, &c)
                    .unwrap()
                    .0;
            assert_eq!(serial, parallel, "{level} at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------
// Timeline family (Figures 5/6, 9–16, 21–28)
// ---------------------------------------------------------------------

#[test]
fn timeline_batch_parallel_is_bit_identical_to_serial() {
    let schedule = Schedule::paper();
    let jobs: Vec<(ServerKind, ProtectionLevel)> = ServerKind::ALL
        .into_iter()
        .flat_map(|kind| {
            [ProtectionLevel::None, ProtectionLevel::Integrated]
                .into_iter()
                .map(move |level| (kind, level))
        })
        .collect();
    let serial = run_timelines(&Executor::serial(), &jobs, &cfg(), &schedule).unwrap();
    for threads in THREAD_COUNTS {
        let parallel = run_timelines(&Executor::new(threads), &jobs, &cfg(), &schedule).unwrap();
        assert_eq!(serial, parallel, "{threads} threads");
    }
    // The batch must also agree with individually-driven runs.
    for (job, tl) in jobs.iter().zip(&serial) {
        let (alone, _) = run_timeline(job.0, job.1, &cfg(), &schedule, None).unwrap();
        assert_eq!(*tl, alone, "{}/{}", job.0, job.1);
    }
}

#[test]
fn rotating_timeline_with_plan_parallel_is_bit_identical_to_serial() {
    use memsim::FaultPlan;
    // A rotation cadence plus an active fault plan: the full chaos stack
    // must still be bit-identical at every thread count.
    let schedule = Schedule::paper().with_rotation(4);
    let plan = FaultPlan::new().seeded(0xF417_0925, 193);
    let jobs: Vec<(ServerKind, ProtectionLevel)> = ServerKind::ALL
        .into_iter()
        .map(|kind| (kind, ProtectionLevel::Integrated))
        .collect();
    let run = |exec: Executor| {
        exec.run(jobs.clone(), |_, (kind, level)| {
            run_timeline(kind, level, &cfg(), &schedule, Some(&plan)).unwrap().0
        })
    };
    let serial = run(Executor::serial());
    for threads in THREAD_COUNTS {
        let parallel = run(Executor::new(threads));
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

#[test]
fn attack_sweep_with_plan_parallel_is_bit_identical_to_serial() {
    use harness::attack_sweep::ext2_sweep_with_plan_on;
    use memsim::FaultPlan;
    let plan = FaultPlan::new().seeded(0x5EED_F417, 89);
    let serial = ext2_sweep_with_plan_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Kernel,
        &[20, 40],
        &[200],
        &cfg(),
        Some(&plan),
    )
    .unwrap()
    .0;
    for threads in THREAD_COUNTS {
        let parallel = ext2_sweep_with_plan_on(
            &Executor::new(threads),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            &[20, 40],
            &[200],
            &cfg(),
            Some(&plan),
        )
        .unwrap()
        .0;
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

// ---------------------------------------------------------------------
// Fault sweeps (error-path robustness family)
// ---------------------------------------------------------------------

#[test]
fn rotation_sweep_parallel_is_bit_identical_to_serial() {
    use harness::faultsweep::FaultMode;
    use harness::rotsweep::rotation_sweep_on;
    // First-order, exhaustive over the rotation lifecycle.
    let serial = rotation_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Integrated,
        FaultMode::Fail,
        1,
        1,
        &cfg(),
    )
    .unwrap()
    .0;
    for threads in THREAD_COUNTS {
        let parallel = rotation_sweep_on(
            &Executor::new(threads),
            ServerKind::Ssh,
            ProtectionLevel::Integrated,
            FaultMode::Fail,
            1,
            1,
            &cfg(),
        )
        .unwrap()
        .0;
        assert_eq!(serial, parallel, "{threads} threads");
    }
    // Second-order pairs, kill mode (fail-then-kill).
    let serial = rotation_sweep_on(
        &Executor::serial(),
        ServerKind::Apache,
        ProtectionLevel::Shielded,
        FaultMode::Kill,
        2,
        7,
        &cfg(),
    )
    .unwrap()
    .0;
    for threads in THREAD_COUNTS {
        let parallel = rotation_sweep_on(
            &Executor::new(threads),
            ServerKind::Apache,
            ProtectionLevel::Shielded,
            FaultMode::Kill,
            2,
            7,
            &cfg(),
        )
        .unwrap()
        .0;
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

#[test]
fn fault_sweep_parallel_is_bit_identical_to_serial() {
    use harness::faultsweep::{fault_sweep_on, fault_sweep_seeded_on, FaultMode};

    let serial = fault_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Kernel,
        FaultMode::Fail,
        61,
        &cfg(),
    )
    .unwrap();
    assert!(serial.injected_cells() > 0, "{}", serial.summary());
    for threads in THREAD_COUNTS {
        let parallel = fault_sweep_on(
            &Executor::new(threads),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            FaultMode::Fail,
            61,
            &cfg(),
        )
        .unwrap();
        assert_eq!(serial, parallel, "{threads} threads");
    }

    // Seeded multi-fault runs replay bit-identically too.
    let seeded_serial = fault_sweep_seeded_on(
        &Executor::serial(),
        ServerKind::Apache,
        ProtectionLevel::Integrated,
        0xFA17,
        150,
        6,
        &cfg(),
    )
    .unwrap()
    .0;
    let seeded_parallel = fault_sweep_seeded_on(
        &Executor::new(4),
        ServerKind::Apache,
        ProtectionLevel::Integrated,
        0xFA17,
        150,
        6,
        &cfg(),
    )
    .unwrap()
    .0;
    assert_eq!(seeded_serial, seeded_parallel);
}

// ---------------------------------------------------------------------
// Attacker matrix (stronger-attacker family)
// ---------------------------------------------------------------------

#[test]
fn attacker_matrix_parallel_is_bit_identical_to_serial() {
    use harness::attack_matrix::{attacker_matrix_on, DEFAULT_DECAY_RATE};

    let c = cfg().with_repetitions(1);
    for kind in ServerKind::ALL {
        let serial =
            attacker_matrix_on(&Executor::serial(), kind, &c, DEFAULT_DECAY_RATE).unwrap();
        assert!(serial.violations().is_empty(), "{}", serial.summary());
        for threads in THREAD_COUNTS {
            let parallel =
                attacker_matrix_on(&Executor::new(threads), kind, &c, DEFAULT_DECAY_RATE)
                    .unwrap();
            assert_eq!(serial, parallel, "{kind} at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------
// Scenario scripts (scenarios/)
// ---------------------------------------------------------------------

fn shipped_scenarios() -> Vec<Scenario> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    paths
        .iter()
        .map(|p| {
            Scenario::parse(&std::fs::read_to_string(p).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

#[test]
fn scenario_batch_parallel_is_bit_identical_to_serial() {
    let scenarios = shipped_scenarios();
    let serial: Vec<_> = Scenario::run_batch(&Executor::serial(), &scenarios)
        .into_iter()
        .map(|r| r.expect("scenario runs"))
        .collect();
    // The serial batch path must equal plain sequential Scenario::run.
    for (s, outcome) in scenarios.iter().zip(&serial) {
        assert_eq!(*outcome, s.run().unwrap());
    }
    for threads in THREAD_COUNTS {
        let parallel: Vec<_> = Scenario::run_batch(&Executor::new(threads), &scenarios)
            .into_iter()
            .map(|r| r.expect("scenario runs"))
            .collect();
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

// ---------------------------------------------------------------------
// Cell independence: execution order cannot leak into results
// ---------------------------------------------------------------------

#[test]
fn reordering_cell_execution_cannot_change_any_cells_result() {
    // The executor claims cells in queue order; feeding the grid in two
    // different orders makes workers execute the underlying cells in
    // different sequences. Per-point results must not notice.
    let c = cfg();
    let fwd = ext2_sweep_on(
        &Executor::new(4),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[20, 40],
        &[200, 400],
        &c,
    )
    .unwrap();
    let rev = ext2_sweep_on(
        &Executor::new(4),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[40, 20],
        &[400, 200],
        &c,
    )
    .unwrap();
    for p in &fwd {
        let twin = rev
            .iter()
            .find(|q| q.connections == p.connections && q.directories == p.directories)
            .expect("same grid, different order");
        assert_eq!(p, twin);
    }

    // Likewise a sub-grid: a cell's result cannot depend on which other
    // cells exist around it (no shared kernel aging / free-list state).
    let single = ext2_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[40],
        &[400],
        &c,
    )
    .unwrap();
    let in_grid = fwd
        .iter()
        .find(|p| p.connections == 40 && p.directories == 400)
        .unwrap();
    assert_eq!(*in_grid, single[0]);
}

#[test]
fn tty_subgrid_matches_full_grid() {
    let c = cfg().with_repetitions(4);
    let full = tty_sweep_on(
        &Executor::new(4),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[0, 12, 24],
        &c,
    )
    .unwrap()
    .0;
    let single =
        tty_sweep_on(&Executor::serial(), ServerKind::Ssh, ProtectionLevel::None, &[12], &c)
            .unwrap()
            .0;
    let shared = full.iter().find(|p| p.connections == 12).unwrap();
    assert_eq!(*shared, single[0]);
}

// ---------------------------------------------------------------------
// Wall-clock report (printed by scripts/ci.sh with --nocapture)
// ---------------------------------------------------------------------

#[test]
fn serial_vs_parallel_wallclock() {
    use std::time::Instant;
    let conns = [0, 12, 24];
    let c = cfg().with_repetitions(6);
    let cells = conns.len() * c.repetitions;

    let start = Instant::now();
    let serial =
        tty_sweep_on(&Executor::serial(), ServerKind::Ssh, ProtectionLevel::None, &conns, &c)
            .unwrap()
            .0;
    let serial_wall = start.elapsed();

    let threads = Executor::from_env().threads().max(2);
    let start = Instant::now();
    let parallel = tty_sweep_on(
        &Executor::new(threads),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &conns,
        &c,
    )
    .unwrap()
    .0;
    let parallel_wall = start.elapsed();

    assert_eq!(serial, parallel);
    println!(
        "representative tty sweep ({cells} cells): serial {:.3}s, {} threads {:.3}s, speedup {:.2}x",
        serial_wall.as_secs_f64(),
        threads,
        parallel_wall.as_secs_f64(),
        serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
    );
}

// ---------------------------------------------------------------------
// Intra-kernel scan sharding: `scan_threads` is a pure performance knob
// ---------------------------------------------------------------------

/// Every result family must be invariant under the `scan_threads` config —
/// the intra-kernel sharded scan is an optimization, never an observable.
#[test]
fn scan_threads_is_invisible_to_every_sweep_family() {
    let schedule = Schedule::paper();
    let jobs: Vec<(ServerKind, ProtectionLevel)> = vec![
        (ServerKind::Ssh, ProtectionLevel::None),
        (ServerKind::Apache, ProtectionLevel::Integrated),
    ];
    let tl_ref = run_timelines(&Executor::serial(), &jobs, &cfg(), &schedule).unwrap();
    let ext2_ref = ext2_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[20],
        &[200],
        &cfg(),
    )
    .unwrap();
    let tty_ref = tty_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::None,
        &[4, 8],
        &cfg(),
    )
    .unwrap()
    .0;

    for threads in THREAD_COUNTS {
        let c = cfg().with_scan_threads(threads);
        let tl = run_timelines(&Executor::serial(), &jobs, &c, &schedule).unwrap();
        assert_eq!(tl_ref, tl, "timelines, scan_threads {threads}");
        let ext2 = ext2_sweep_on(
            &Executor::serial(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &[20],
            &[200],
            &c,
        )
        .unwrap();
        assert_eq!(ext2_ref, ext2, "ext2 sweep, scan_threads {threads}");
        let tty = tty_sweep_on(
            &Executor::serial(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &[4, 8],
            &c,
        )
        .unwrap()
        .0;
        assert_eq!(tty_ref, tty, "tty sweep, scan_threads {threads}");
    }
}

/// Scripted scenarios with intra-kernel sharding must replay identically.
#[test]
fn scenario_results_are_scan_thread_invariant() {
    for (i, scenario) in shipped_scenarios().into_iter().enumerate() {
        let reference = scenario.run().unwrap();
        for threads in THREAD_COUNTS {
            let sharded = scenario.clone().with_scan_threads(threads).run().unwrap();
            assert_eq!(reference, sharded, "scenario {i} scan_threads {threads}");
        }
    }
}
