//! Scan-path equivalence under the parallel executor: every harness context
//! that moved onto [`IncrementalScanner`] must stay **bit-identical** to the
//! full scan (`Scanner::scan_kernel`), at 2, 4, and 8 worker threads as well
//! as serially, and both must report what a scan of the whole physical
//! dump finds, which ignores the frames' known-zero bits.
//!
//! Layering: `keyscan/tests/incremental.rs` proves the scanner exact on one
//! kernel lineage; this suite proves the *harness wiring* exact — warm-cache
//! forks inside executor cells, timeline batches, and fault sweeps — where a
//! caching bug would otherwise hide behind thread scheduling.

use harness::exec::{cell_seed, Executor};
use harness::faultsweep::{fault_sweep_on, FaultMode};
use harness::timeline::{run_timeline, run_timelines_timed, Schedule};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, KeyHit, Scanner};
use memsim::{FrameId, FrameState, Kernel, MachineConfig, Pid, VAddr, PAGE_SIZE};
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// The hits every kernel scan must report, found without the frame bits:
/// the dump scan of all of physical memory, which finds all-zero pages by
/// reading them, each hit attributed from the `frame_view` of the frame
/// holding its first byte. The dump scan shares the span builder with the
/// kernel scans; `keyscan/tests/incremental.rs` checks the known-zero edge
/// cases against the naive oracle, which does not.
fn reference_hits(scanner: &Scanner, k: &Kernel) -> Vec<KeyHit> {
    scanner
        .scan_bytes(k.phys())
        .into_iter()
        .map(|h| {
            let frame = FrameId(h.offset / PAGE_SIZE);
            let view = k.frame_view(frame);
            KeyHit {
                pattern: h.pattern,
                // keylint: allow(S005) -- the pattern *name* ("d", "pem") is a public label, not key bytes
                name: scanner.pattern_name(h.pattern).to_owned(),
                offset: h.offset,
                frame,
                state: view.state,
                allocated: view.state != FrameState::Free,
                owners: view.owners,
            }
        })
        .collect()
}

/// Every cell runs its own random kernel-mutation sequence, scanning with a
/// forked incremental scanner, the full scan and the whole-dump reference
/// at interleaved points, asserting equality as it goes; the cell's value is the final
/// report's location fingerprint. Serial and parallel runs must agree on
/// every fingerprint — and every in-cell assertion must hold on a worker
/// thread exactly as it does inline.
#[test]
fn incremental_equals_oracle_inside_executor_cells() {
    let key = RsaPrivateKey::generate(128, &mut Rng64::new(0x5CA9));
    let material = KeyMaterial::from_key(&key);
    let oracle = Scanner::from_material(&material);

    let run_cell = |i: usize| -> Vec<(usize, bool)> {
        let mut rng = Rng64::new(cell_seed(0x5CA9, &[i as u64]));
        let mut k = Kernel::new(MachineConfig::small());
        let mut inc = IncrementalScanner::new(oracle.fork());
        let mut live: Vec<(Pid, Vec<VAddr>)> = vec![(k.spawn(), Vec::new())];
        let mut fingerprint = Vec::new();
        for step in 0..60 {
            match rng.gen_below(6) {
                0 => live.push((k.spawn(), Vec::new())),
                1 | 2 => {
                    let idx = rng.gen_index(live.len());
                    let (pid, bufs) = &mut live[idx];
                    let pat = [material.d_bytes(), material.p_bytes(), material.q_bytes()]
                        [rng.gen_index(3)];
                    if let Ok(b) = k.heap_alloc(*pid, pat.len()) {
                        let take = 1 + rng.gen_index(pat.len());
                        let _ = k.write_bytes(*pid, b, &pat[..take]);
                        bufs.push(b);
                    }
                }
                3 => {
                    let idx = rng.gen_index(live.len());
                    let (pid, bufs) = &mut live[idx];
                    if !bufs.is_empty() {
                        let b = bufs.swap_remove(rng.gen_index(bufs.len()));
                        let _ = k.heap_free(*pid, b);
                    }
                }
                4 => {
                    if live.len() > 1 {
                        let (pid, _) = live.swap_remove(1 + rng.gen_index(live.len() - 1));
                        let _ = k.exit(pid);
                    }
                }
                _ => {
                    let _ = k.swap_out_pressure(rng.gen_index(3));
                    let _ = k.tty_input(material.p_bytes());
                }
            }
            if step % 5 == 0 {
                let fast = inc.scan(&k);
                let full = oracle.scan_kernel(&k);
                let want = reference_hits(&oracle, &k);
                assert_eq!(full.hits(), want, "cell {i} step {step}");
                assert_eq!(fast, full, "cell {i} step {step}");
                fingerprint = fast.locations();
            }
        }
        let fast = inc.scan(&k);
        let full = oracle.scan_kernel(&k);
        assert_eq!(full.hits(), reference_hits(&oracle, &k), "cell {i} final");
        assert_eq!(fast, full, "cell {i} final");
        assert!(
            inc.stats().frames_rescanned < inc.stats().frames_total,
            "cell {i} never skipped a frame: {:?}",
            inc.stats()
        );
        fingerprint.extend(fast.locations());
        fingerprint
    };

    let cells: Vec<usize> = (0..8).collect();
    let serial = Executor::serial().run(cells.clone(), |_, i| run_cell(i));
    assert!(serial.iter().any(|f| !f.is_empty()), "cells found no keys at all");
    for threads in THREAD_COUNTS {
        let parallel = Executor::new(threads).run(cells.clone(), |_, i| run_cell(i));
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

/// Timeline batches: the incremental per-tick scans produce identical
/// timelines — points, shedding, *and* deterministic scan counters — at any
/// thread count, and the batch report actually shows frames being skipped.
#[test]
fn timeline_batches_are_thread_invariant_with_scan_stats() {
    let cfg = ExperimentConfig::test();
    let schedule = Schedule::paper();
    let jobs: Vec<(ServerKind, ProtectionLevel)> = vec![
        (ServerKind::Ssh, ProtectionLevel::None),
        (ServerKind::Ssh, ProtectionLevel::Integrated),
        (ServerKind::Apache, ProtectionLevel::None),
        (ServerKind::Apache, ProtectionLevel::Kernel),
    ];

    let (serial, serial_report) =
        run_timelines_timed(&Executor::serial(), &jobs, &cfg, &schedule).unwrap();
    // The batch is bit-identical to individual runs...
    for ((kind, level), tl) in jobs.iter().zip(&serial) {
        assert_eq!(tl, &run_timeline(*kind, *level, &cfg, &schedule, None).unwrap().0);
    }
    // ...each timeline scanned every tick while skipping clean frames...
    for tl in &serial {
        assert_eq!(tl.scan.scans, schedule.end as u64);
        assert!(tl.scan.frames_rescanned < tl.scan.frames_total, "{:?}", tl.scan);
    }
    assert!(serial_report.scan.scans > 0);

    for threads in THREAD_COUNTS {
        let (parallel, report) =
            run_timelines_timed(&Executor::new(threads), &jobs, &cfg, &schedule).unwrap();
        assert_eq!(serial, parallel, "{threads} threads");
        assert_eq!(serial_report.scan, report.scan, "{threads} threads");
    }
}

/// Fault sweeps: cells fork a warm scanner off the shared boot image; the
/// resulting reports (cells and aggregated scan counters) must be identical
/// at every thread count and keep the no-leak verdict intact.
#[test]
fn fault_sweeps_are_thread_invariant_with_warm_forks() {
    let cfg = ExperimentConfig::test();
    let serial = fault_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Kernel,
        FaultMode::Kill,
        89,
        &cfg,
    )
    .unwrap();
    assert!(serial.violations().is_empty(), "{}", serial.summary());
    assert_eq!(serial.scan.scans, serial.cells.len() as u64);

    for threads in THREAD_COUNTS {
        let parallel = fault_sweep_on(
            &Executor::new(threads),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            FaultMode::Kill,
            89,
            &cfg,
        )
        .unwrap();
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

/// Intra-kernel sharding: `scan_kernel` on a scanner split across threads
/// must be bit-identical to the serial scan — same hits, same order, same
/// attribution — at every width, on a machine with interleaved
/// allocated/free/dirty regions.
#[test]
fn sharded_scan_kernel_is_bit_identical_to_serial() {
    let key = RsaPrivateKey::generate(128, &mut Rng64::new(0x51A2));
    let material = KeyMaterial::from_key(&key);
    let scanner = Scanner::from_material(&material);

    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let mut bufs = Vec::new();
    for i in 0..10 {
        let pat = [material.d_bytes(), material.p_bytes(), material.q_bytes()][i % 3];
        let b = k.heap_alloc(pid, pat.len() + 512).unwrap();
        k.write_bytes(pid, b, pat).unwrap();
        bufs.push(b);
    }
    // A second process plants a copy and exits without clearing, so hits
    // live in unallocated memory too.
    let doomed = k.spawn();
    let b = k.heap_alloc(doomed, material.d_bytes().len()).unwrap();
    k.write_bytes(doomed, b, material.d_bytes()).unwrap();
    k.exit(doomed).unwrap();
    let _ = bufs;

    let serial = scanner.scan_kernel(&k);
    assert_eq!(serial.hits(), reference_hits(&scanner, &k));
    assert!(serial.total() > 0, "workload must produce hits");
    assert!(serial.unallocated() > 0, "freed copies must stay visible");
    for threads in [1usize, 2, 3, 4, 8, 64] {
        let sharded = scanner.fork().with_threads(threads).scan_kernel(&k);
        assert_eq!(serial, sharded, "threads {threads}");
    }
}

/// The `scan_threads` config knob: the whole timeline pipeline must produce
/// bit-identical results whether the per-kernel scan runs serially or split
/// across 2/4/8 intra-kernel threads.
#[test]
fn scan_threads_config_is_result_invariant() {
    let schedule = Schedule::paper();
    let base = ExperimentConfig::test();
    let jobs: Vec<(ServerKind, ProtectionLevel)> = vec![
        (ServerKind::Ssh, ProtectionLevel::None),
        (ServerKind::Apache, ProtectionLevel::Kernel),
    ];
    let (reference, _) =
        run_timelines_timed(&Executor::serial(), &jobs, &base, &schedule).unwrap();
    for threads in THREAD_COUNTS {
        let cfg = ExperimentConfig::test().with_scan_threads(threads);
        let (tls, _) =
            run_timelines_timed(&Executor::serial(), &jobs, &cfg, &schedule).unwrap();
        assert_eq!(reference, tls, "scan_threads {threads}");
    }
}

/// Fault sweeps with intra-kernel sharding enabled: same verdicts, same
/// cells, same counters as the serial-scan sweep.
#[test]
fn fault_sweeps_are_scan_thread_invariant() {
    let serial = fault_sweep_on(
        &Executor::serial(),
        ServerKind::Ssh,
        ProtectionLevel::Kernel,
        FaultMode::Kill,
        89,
        &ExperimentConfig::test(),
    )
    .unwrap();
    for threads in THREAD_COUNTS {
        let sharded = fault_sweep_on(
            &Executor::serial(),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            FaultMode::Kill,
            89,
            &ExperimentConfig::test().with_scan_threads(threads),
        )
        .unwrap();
        assert_eq!(serial, sharded, "scan_threads {threads}");
    }
}
