//! The traced replicas must reproduce the harness entry points they stand
//! in for, result for result; otherwise the per-layer numbers would
//! describe a different program. Runs at the test scale.

use benchmark::workloads::server_stress::{ServerStress, CONCURRENCY, CONFIGS};
use benchmark::workloads::{attack_matrix, faultsweep, timeline, Bench, Scale, DEFAULT_SEED};
use benchmark::Recorder;
use exploits::Ext2DirentLeak;
use harness::attack_matrix::{attacker_matrix_on, DEFAULT_DECAY_RATE};
use harness::attack_sweep::ext2_sweep_on;
use harness::exec::Executor;
use harness::faultsweep::{fault_sweep_on, FaultMode};
use harness::perf::{run_perf, PerfConfig};
use harness::timeline::run_timelines;
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use servers::SshServer;
use simrng::Stats;
use std::time::Instant;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::test()
}

fn traced() -> Recorder {
    Recorder::new(Instant::now())
}

#[test]
fn faultsweep_replica_matches_fault_sweep_on() {
    let exec = Executor::new(2);
    for (kind, level, mode, stride) in [
        (ServerKind::Ssh, ProtectionLevel::Kernel, FaultMode::Fail, 7),
        (
            ServerKind::Apache,
            ProtectionLevel::Integrated,
            FaultMode::Kill,
            3,
        ),
    ] {
        let expected = fault_sweep_on(&exec, kind, level, mode, stride, &cfg()).unwrap();
        let mut rec = traced();
        let (replica, _) =
            faultsweep::sweep(&mut rec, &exec, kind, level, mode, stride, &cfg()).unwrap();
        assert_eq!(replica, expected, "{kind}/{level}/{mode}");
        assert_eq!(
            rec.durations_ms("memsim.clone").len(),
            expected.cells.len(),
            "one clone per cell"
        );
    }
}

#[test]
fn timeline_replica_matches_run_timelines() {
    let exec = Executor::new(2);
    let jobs = [
        (ServerKind::Ssh, ProtectionLevel::Integrated),
        (ServerKind::Apache, ProtectionLevel::None),
        (ServerKind::Ssh, ProtectionLevel::Shielded),
    ];
    let schedule = timeline::schedule();
    let expected = run_timelines(&exec, &jobs, &cfg(), &schedule).unwrap();
    let mut rec = traced();
    let (replica, _) = timeline::run_timelines(&mut rec, &exec, &jobs, &cfg(), &schedule);
    assert_eq!(replica.unwrap(), expected);
    assert_eq!(
        rec.durations_ms("timeline.tick").len(),
        jobs.len() * schedule.end
    );
    assert_eq!(
        rec.gauge("keyscan.patterns"),
        20,
        "five epochs of four patterns"
    );
}

#[test]
fn attack_matrix_replica_matches_attacker_matrix_on() {
    let exec = Executor::new(2);
    let cfg = cfg().with_repetitions(1);
    for kind in ServerKind::ALL {
        let expected = attacker_matrix_on(&exec, kind, &cfg, DEFAULT_DECAY_RATE).unwrap();
        let mut rec = traced();
        let (replica, _) = attack_matrix::matrix(&mut rec, &exec, kind, &cfg, DEFAULT_DECAY_RATE);
        assert_eq!(replica.unwrap(), expected, "{kind}");
        assert!(expected.violations().is_empty(), "{}", expected.summary());
    }
}

/// The matrix reports only verdicts, which a drifted victim workload could
/// still reproduce. The ext2 sweep drives the same private victim workload
/// (close every connection, remix the free lists) and reports how many key
/// copies and bytes leaked, so matching it pins `prepare` exactly.
#[test]
fn attack_victim_workload_matches_the_ext2_sweep() {
    let cfg = cfg();
    let (conns, dirs) = (24usize, 400usize);
    for level in [ProtectionLevel::None, ProtectionLevel::Kernel] {
        let expected = ext2_sweep_on(
            &Executor::serial(),
            ServerKind::Ssh,
            level,
            &[conns],
            &[dirs],
            &cfg,
        )
        .unwrap();
        let (mut keys, mut bytes, mut successes) = (Stats::new(), Stats::new(), 0usize);
        for rep in 0..cfg.repetitions {
            // The harness's ext2 cell seed.
            let rep_seed = cfg
                .seed
                .wrapping_add(rep as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(conns as u64 ^ (dirs as u64) << 20);
            let (mut kernel, _server, scanner, _) =
                attack_matrix::prepare::<SshServer>(&mut traced(), level, &cfg, rep_seed, true)
                    .unwrap();
            let capture = Ext2DirentLeak::new(dirs).run(&mut kernel).unwrap();
            keys.push(capture.keys_found_sharded(&scanner, cfg.scan_threads) as f64);
            bytes.push(capture.disclosed_bytes() as f64);
            successes += usize::from(capture.succeeded(&scanner));
        }
        let point = expected[0];
        assert_eq!(
            (
                keys.mean(),
                successes as f64 / cfg.repetitions as f64,
                bytes.mean()
            ),
            (
                point.avg_keys_found,
                point.success_rate,
                point.avg_disclosed_bytes
            ),
            "{level}"
        );
        if level == ProtectionLevel::None {
            assert!(
                point.avg_keys_found > 0.0,
                "the check must see leaked copies"
            );
        }
    }
}

#[test]
fn server_stress_matches_run_perf_traced_or_not() {
    let scale = Scale::test(DEFAULT_SEED);
    let rounds = 2;
    let drive = |rec: &mut Recorder| {
        let mut stress = ServerStress::new(scale);
        stress.setup(rec);
        let digests: Vec<String> = (0..rounds).map(|r| stress.round(r, rec).digest).collect();
        (stress.totals(), digests)
    };
    let (untraced, plain_digests) = drive(&mut Recorder::disabled());
    let (replica, traced_digests) = drive(&mut traced());
    assert_eq!(untraced, replica, "handshakes and bytes, traced or not");
    assert_eq!(plain_digests, traced_digests);

    let per_server = untraced[0].0 as usize;
    assert_eq!(per_server, rounds * 100);
    for ((kind, level), (tx, bytes, _)) in CONFIGS.into_iter().zip(untraced) {
        let perf = PerfConfig {
            concurrency: CONCURRENCY,
            transactions: per_server,
            repetitions: 1,
        };
        let expected = run_perf(kind, level, &scale.cfg, &perf).unwrap();
        assert_eq!(
            (tx, bytes),
            (expected.transactions, expected.bytes),
            "{kind}/{level}"
        );
    }
}
