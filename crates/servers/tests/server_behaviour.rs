//! End-to-end behaviour: do the simulated servers reproduce the memory
//! phenomena of Sections 3, 5, and 6 of the paper?

use exploits::{Ext2DirentLeak, TtyMemoryDump};
use keyguard::ProtectionLevel;
use keyscan::Scanner;
use memsim::{Kernel, KernelStats, MachineConfig, PAGE_SIZE};
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

const KEY_BITS: usize = 256;

fn machine(level: ProtectionLevel) -> Kernel {
    // 16 MB machine: big enough for tens of workers, fast enough for tests.
    let mut k = Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(16 * 1024 * 1024)
            .with_policy(level.kernel_policy()),
    );
    // Scatter the free lists across all of RAM, as on a long-running box.
    k.age_memory(&mut Rng64::new(0xA6E), 1.0);
    k
}

fn start_ssh(kernel: &mut Kernel, level: ProtectionLevel) -> SshServer {
    SshServer::start(kernel, ServerConfig::new(level).with_key_bits(KEY_BITS)).unwrap()
}

fn start_apache(kernel: &mut Kernel, level: ProtectionLevel) -> ApacheServer {
    ApacheServer::start(kernel, ServerConfig::new(level).with_key_bits(KEY_BITS)).unwrap()
}

// -------------------------------------------------------------------------
// Section 3: unprotected behaviour
// -------------------------------------------------------------------------

#[test]
fn ssh_copies_flood_with_connection_churn() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(ssh.material());

    let at_start = scanner.scan_kernel(&k).total();
    ssh.set_concurrency(&mut k, 8).unwrap();
    let at_load = scanner.scan_kernel(&k).total();
    assert!(
        at_load > at_start,
        "live connections should add key copies: {at_start} -> {at_load}"
    );

    ssh.pump(&mut k, 30).unwrap();
    let report = scanner.scan_kernel(&k);
    assert!(
        report.unallocated() > 0,
        "closed connections must leave copies in unallocated memory"
    );
    ssh.stop(&mut k).unwrap();
}

#[test]
fn ssh_copies_grow_with_concurrency() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 2).unwrap();
    let low = scanner.scan_kernel(&k).allocated();
    ssh.set_concurrency(&mut k, 12).unwrap();
    let high = scanner.scan_kernel(&k).allocated();
    assert!(high > low, "allocated copies scale with live connections: {low} -> {high}");
}

#[test]
fn ssh_stop_moves_copies_to_unallocated() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 4).unwrap();
    ssh.pump(&mut k, 10).unwrap();
    ssh.stop(&mut k).unwrap();
    let report = scanner.scan_kernel(&k);
    // Observation (5) of Fig 5: after sshd stops, d/p/q survive only in
    // unallocated memory, plus the PEM file in the page cache.
    assert!(report.unallocated() > 0);
    let allocated_names: Vec<&str> = report
        .hits()
        .iter()
        .filter(|h| h.allocated)
        .map(|h| h.name.as_str())
        .collect();
    assert!(
        allocated_names.iter().all(|&n| n == "pem"),
        "only the cached PEM should remain allocated, got {allocated_names:?}"
    );
}

#[test]
fn apache_copies_scale_with_worker_pool() {
    let mut k = machine(ProtectionLevel::None);
    let mut apache = start_apache(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(apache.material());

    apache.set_concurrency(&mut k, 5).unwrap();
    apache.pump(&mut k, 10).unwrap(); // every worker does its first op
    let small_pool = scanner.scan_kernel(&k).allocated();

    apache.set_concurrency(&mut k, 20).unwrap();
    apache.pump(&mut k, 40).unwrap();
    let big_pool = scanner.scan_kernel(&k).allocated();
    assert!(
        big_pool > small_pool,
        "more workers, more allocated copies: {small_pool} -> {big_pool}"
    );
    apache.stop(&mut k).unwrap();
}

#[test]
fn apache_reaping_floods_unallocated_memory() {
    let mut k = machine(ProtectionLevel::None);
    let mut apache = start_apache(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(apache.material());
    apache.set_concurrency(&mut k, 16).unwrap();
    apache.pump(&mut k, 32).unwrap();
    let before = scanner.scan_kernel(&k).unallocated();
    apache.set_concurrency(&mut k, 5).unwrap(); // reap 11 workers
    let after = scanner.scan_kernel(&k).unallocated();
    assert!(
        after > before,
        "reaped workers leave copies in free memory: {before} -> {after}"
    );
}

// -------------------------------------------------------------------------
// Sections 5/6: protected behaviour
// -------------------------------------------------------------------------

#[test]
fn aligned_levels_keep_copies_constant_under_load() {
    for level in [ProtectionLevel::Application, ProtectionLevel::Library] {
        let mut k = machine(level);
        let mut ssh = start_ssh(&mut k, level);
        let scanner = Scanner::from_material(ssh.material());

        let at_start = scanner.scan_kernel(&k);
        ssh.set_concurrency(&mut k, 12).unwrap();
        ssh.pump(&mut k, 30).unwrap();
        let at_load = scanner.scan_kernel(&k);

        // d, p, q: exactly one copy each (the aligned page), independent of
        // load. The PEM file may add cache/buffer copies but no more appear
        // under load.
        assert_eq!(
            at_load.by_pattern()[..3],
            [1, 1, 1],
            "{level}: one aligned copy of each component"
        );
        assert_eq!(
            at_start.total(),
            at_load.total(),
            "{level}: copy count independent of connections"
        );
        assert_eq!(at_load.unallocated(), 0, "{level}: nothing in free memory");
        ssh.stop(&mut k).unwrap();
    }
}

#[test]
fn kernel_level_still_floods_allocated_but_not_unallocated() {
    let mut k = machine(ProtectionLevel::Kernel);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::Kernel);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 8).unwrap();
    ssh.pump(&mut k, 20).unwrap();
    let report = scanner.scan_kernel(&k);
    assert!(
        report.allocated() > 3,
        "kernel level does not stop duplication in allocated memory"
    );
    assert_eq!(report.unallocated(), 0, "but free memory is always clean");
    ssh.stop(&mut k).unwrap();
    assert_eq!(scanner.scan_kernel(&k).unallocated(), 0);
}

#[test]
fn integrated_level_leaves_exactly_three_copies_total() {
    let mut k = machine(ProtectionLevel::Integrated);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::Integrated);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 10).unwrap();
    ssh.pump(&mut k, 25).unwrap();
    let report = scanner.scan_kernel(&k);
    // d + p + q on the aligned page; the PEM was never cached (O_NOCACHE)
    // and its read buffer was zeroed.
    assert_eq!(report.by_pattern(), vec![1, 1, 1, 0]);
    assert_eq!(report.unallocated(), 0);
}

#[test]
fn integrated_apache_matches_paper_figure_28() {
    let mut k = machine(ProtectionLevel::Integrated);
    let mut apache = start_apache(&mut k, ProtectionLevel::Integrated);
    let scanner = Scanner::from_material(apache.material());
    apache.set_concurrency(&mut k, 16).unwrap();
    apache.pump(&mut k, 48).unwrap();
    let report = scanner.scan_kernel(&k);
    assert_eq!(report.by_pattern(), vec![1, 1, 1, 0]);
    apache.set_concurrency(&mut k, 5).unwrap();
    assert_eq!(scanner.scan_kernel(&k).by_pattern(), vec![1, 1, 1, 0]);
    apache.stop(&mut k).unwrap();
    assert_eq!(scanner.scan_kernel(&k).total(), 0, "clean after shutdown");
}

// -------------------------------------------------------------------------
// Attacks against the servers (Sections 2 and 5.2/6.2 end-to-end)
// -------------------------------------------------------------------------

#[test]
fn ext2_attack_compromises_unprotected_ssh() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(ssh.material());
    // Paper methodology: create connections, close them all, then leak.
    ssh.set_concurrency(&mut k, 10).unwrap();
    ssh.pump(&mut k, 20).unwrap();
    ssh.set_concurrency(&mut k, 0).unwrap();
    let capture = Ext2DirentLeak::new(500).run(&mut k).unwrap();
    assert!(capture.succeeded(&scanner), "unprotected ssh must fall");
    assert!(capture.keys_found(&scanner) >= 1);
}

#[test]
fn ext2_attack_fails_against_kernel_and_integrated_levels() {
    for level in [ProtectionLevel::Kernel, ProtectionLevel::Integrated] {
        let mut k = machine(level);
        let mut ssh = start_ssh(&mut k, level);
        let scanner = Scanner::from_material(ssh.material());
        ssh.set_concurrency(&mut k, 10).unwrap();
        ssh.pump(&mut k, 20).unwrap();
        ssh.set_concurrency(&mut k, 0).unwrap();
        let capture = Ext2DirentLeak::new(500).run(&mut k).unwrap();
        assert!(!capture.succeeded(&scanner), "{level}: ext2 leak must find nothing");
    }
}

#[test]
fn tty_attack_succeeds_partially_against_integrated_level() {
    // Fig 7b: even integrated protection leaves ~50% success because the
    // dump covers ~50% of RAM and one copy must exist somewhere.
    let mut k = machine(ProtectionLevel::Integrated);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::Integrated);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 6).unwrap();
    ssh.pump(&mut k, 12).unwrap();

    let dump = TtyMemoryDump::paper();
    let mut rng = Rng64::new(99);
    let runs = 60;
    let mut successes = 0;
    let mut keys = 0;
    for _ in 0..runs {
        let c = dump.run(&k, &mut rng);
        if c.succeeded(&scanner) {
            successes += 1;
        }
        keys += c.keys_found(&scanner);
    }
    let rate = f64::from(successes) / f64::from(runs);
    assert!(
        (0.25..=0.75).contains(&rate),
        "integrated tty success rate {rate} should hover near disclosed fraction"
    );
    // Far fewer copies per successful run than unprotected would show.
    assert!(keys as f64 / f64::from(runs) < 4.0);
}

#[test]
fn tty_attack_overwhelms_unprotected_ssh() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 10).unwrap();
    ssh.pump(&mut k, 20).unwrap();

    let dump = TtyMemoryDump::paper();
    let mut rng = Rng64::new(7);
    let runs = 30;
    let successes = (0..runs)
        .filter(|_| dump.run(&k, &mut rng).succeeded(&scanner))
        .count();
    // With dozens of copies spread over memory, nearly every dump hits one.
    assert!(
        successes as f64 / runs as f64 > 0.8,
        "unprotected ssh: {successes}/{runs}"
    );
}

// -------------------------------------------------------------------------
// Robustness
// -------------------------------------------------------------------------

#[test]
fn servers_share_one_machine_without_interference() {
    let mut k = machine(ProtectionLevel::None);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::None);
    let mut apache = ApacheServer::start(
        &mut k,
        ServerConfig::new(ProtectionLevel::None)
            .with_key_bits(KEY_BITS)
            .with_seed(777),
    )
    .unwrap();
    assert_ne!(ssh.key().n(), apache.key().n(), "distinct keys");
    ssh.set_concurrency(&mut k, 3).unwrap();
    apache.set_concurrency(&mut k, 6).unwrap();
    ssh.pump(&mut k, 6).unwrap();
    apache.pump(&mut k, 12).unwrap();
    let ssh_report = Scanner::from_material(ssh.material()).scan_kernel(&k);
    let apache_report = Scanner::from_material(apache.material()).scan_kernel(&k);
    assert!(ssh_report.total() > 0);
    assert!(apache_report.total() > 0);
    ssh.stop(&mut k).unwrap();
    apache.stop(&mut k).unwrap();
}

#[test]
fn stop_is_idempotent() {
    let mut k = machine(ProtectionLevel::Integrated);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::Integrated);
    ssh.stop(&mut k).unwrap();
    ssh.stop(&mut k).unwrap();
    assert!(!ssh.is_running());
}

#[test]
fn handshake_counter_advances() {
    let mut k = machine(ProtectionLevel::None);
    let mut apache = start_apache(&mut k, ProtectionLevel::None);
    assert_eq!(apache.handshakes(), 0);
    apache.pump(&mut k, 7).unwrap();
    assert_eq!(apache.handshakes(), 7);
    assert_eq!(apache.name(), "apache");
}

#[test]
fn tiny_machine_oom_is_graceful() {
    let mut k = Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(40 * PAGE_SIZE)
            .with_policy(ProtectionLevel::None.kernel_policy()),
    );
    let mut ssh = SshServer::start(
        &mut k,
        ServerConfig::new(ProtectionLevel::None).with_key_bits(KEY_BITS),
    )
    .unwrap();
    // Driving far past capacity must neither panic nor abort the batch: the
    // daemon sheds the connections it cannot open and stays up.
    ssh.set_concurrency(&mut k, 500).unwrap();
    assert!(ssh.concurrency() < 500, "a 40-page machine cannot hold 500");
    assert!(ssh.shedding().failed_forks > 0, "shed work must be counted");
    assert!(ssh.is_running());
}

#[test]
fn derive_key_predicts_server_keys() {
    let cfg = ServerConfig::new(ProtectionLevel::None).with_key_bits(KEY_BITS);
    let mut k = machine(ProtectionLevel::None);
    let ssh = SshServer::start(&mut k, cfg).unwrap();
    assert_eq!(ssh.key(), &cfg.derive_key("openssh"));
    let apache = ApacheServer::start(&mut k, cfg).unwrap();
    assert_eq!(apache.key(), &cfg.derive_key("apache"));
}

#[test]
fn transfer_moves_payload_without_new_key_copies_when_integrated() {
    let mut k = machine(ProtectionLevel::Integrated);
    let mut ssh = start_ssh(&mut k, ProtectionLevel::Integrated);
    let scanner = Scanner::from_material(ssh.material());
    ssh.set_concurrency(&mut k, 4).unwrap();
    let before = scanner.scan_kernel(&k).total();
    ssh.transfer(&mut k, 300 * 1024).unwrap();
    assert_eq!(scanner.scan_kernel(&k).total(), before);
}

/// `after`'s counters that differ from `before`'s, as `name+delta`.
fn stats_delta(before: KernelStats, after: KernelStats) -> String {
    let (a, b) = (before, after);
    [
        ("forks", b.forks - a.forks),
        ("exits", b.exits - a.exits),
        ("cow_breaks", b.cow_breaks - a.cow_breaks),
        ("pages_zeroed", b.pages_zeroed - a.pages_zeroed),
        ("frames_allocated", b.frames_allocated - a.frames_allocated),
        ("frames_freed", b.frames_freed - a.frames_freed),
        ("heap_allocs", b.heap_allocs - a.heap_allocs),
        ("heap_frees", b.heap_frees - a.heap_frees),
        ("cache_inserts", b.cache_inserts - a.cache_inserts),
        ("cache_evictions", b.cache_evictions - a.cache_evictions),
        ("swap_writes", b.swap_writes - a.swap_writes),
        ("swap_ins", b.swap_ins - a.swap_ins),
        ("writebacks", b.writebacks - a.writebacks),
        ("pages_merged", b.pages_merged - a.pages_merged),
        ("kmallocs", b.kmallocs - a.kmallocs),
        ("kfrees", b.kfrees - a.kfrees),
        ("faults_injected", b.faults_injected - a.faults_injected),
        ("mlock_denials", b.mlock_denials - a.mlock_denials),
        ("fault_kills", b.fault_kills - a.fault_kills),
    ]
    .iter()
    .filter(|(_, d)| *d != 0)
    .map(|(name, d)| format!("{name}+{d}"))
    .collect::<Vec<_>>()
    .join(" ")
}

/// One transfer of each scp file size of the Fig. 8 benchmark
/// (`harness::perf::scp_file_sizes`, 1 to 512 KiB), then one 32 KiB
/// Siege response, on `server` with two live connections that have each
/// served a request. Returns one line per transfer (its op-index delta,
/// its `KernelStats` delta and the frames it wrote, `z` marking those left
/// known-zero) and the bytes of those frames after it. Asserts that no
/// transfer adds a key hit.
fn transfer_trace<S: SecureServer>(k: &mut Kernel, server: &mut S) -> (Vec<String>, Vec<u8>) {
    server.set_concurrency(k, 2).unwrap();
    // Every worker serves once first: a first write into a worker's heap
    // breaks the COW share of the key page, which is not the transfer's
    // doing.
    server.pump(k, 8).unwrap();
    let scanner = Scanner::from_material(server.material());
    let hits = scanner.scan_kernel(k);
    let (mut lines, mut written) = (Vec::new(), Vec::new());
    for kib in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 32] {
        let (clock, ops, stats) = (k.generation_clock(), k.op_index(), k.stats());
        server.transfer(k, kib * 1024).unwrap();
        let mut frames = String::new();
        for f in k.frames_written_since(clock) {
            written.extend_from_slice(k.frame_bytes(f));
            let zero = if k.frame_known_zero(f) { "z" } else { "" };
            frames.push_str(&format!(" {}{zero}", f.0));
        }
        lines.push(format!(
            "{kib} KiB: ops+{} {} frames{frames}",
            k.op_index() - ops,
            stats_delta(stats, k.stats())
        ));
    }
    let after = scanner.scan_kernel(k);
    assert_eq!(
        after.by_pattern(),
        hits.by_pattern(),
        "transfers added key hits"
    );
    assert_eq!(after.unallocated(), hits.unallocated());
    (lines, written)
}

/// What a transfer does to the machine, whatever bytes its payload holds:
/// the buffer's allocation, one write per chunk of that chunk's length,
/// and the free. A second run from the same seeds writes the same bytes.
#[test]
fn transfers_are_pinned_op_for_op_and_frame_for_frame() {
    let pinned: [(&str, ProtectionLevel, &[&str]); 4] = [
        (
            "ssh",
            ProtectionLevel::None,
            &[
                "1 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517z 3273z 3870",
                "2 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517z 3273z 3870",
                "4 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273z 3870",
                "8 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "16 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "32 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "64 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "128 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "256 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 2351 3273",
                "512 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
                "32 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 1517 3273 3870",
            ],
        ),
        (
            "ssh",
            ProtectionLevel::Integrated,
            &[
                "1 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "2 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "4 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "8 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "16 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "32 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "64 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "128 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "256 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 1939 2880z",
                "512 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
                "32 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 554z 2880z 3078",
            ],
        ),
        (
            "apache",
            ProtectionLevel::None,
            &[
                "1 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854z 3078",
                "2 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854z 2880",
                "4 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1045 2854",
                "8 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 2854 2880",
                "16 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 2854 2880",
                "32 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 1939 2854",
                "64 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 554 2854",
                "128 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 1045 2854",
                "256 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 1045 2854",
                "512 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 1045 2854",
                "32 KiB: ops+3 pages_zeroed+2 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424 2854 2880",
            ],
        ),
        (
            "apache",
            ProtectionLevel::Integrated,
            &[
                "1 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2880 3078z",
                "2 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1939 3078z",
                "4 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854 3078z",
                "8 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1939 3078z",
                "16 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1939 3078z",
                "32 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 554 3078z",
                "64 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1045 3078z",
                "128 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854 3078z",
                "256 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854 3078z",
                "512 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 2854 3078z",
                "32 KiB: ops+3 pages_zeroed+6 frames_allocated+2 frames_freed+2 heap_allocs+1 heap_frees+1 frames 424z 1939 3078z",
            ],
        ),
    ];
    for (server, level, want) in pinned {
        let run = || {
            let mut k = machine(level);
            if server == "ssh" {
                let mut ssh = start_ssh(&mut k, level);
                transfer_trace(&mut k, &mut ssh)
            } else {
                let mut apache = start_apache(&mut k, level);
                transfer_trace(&mut k, &mut apache)
            }
        };
        let (lines, written) = run();
        assert_eq!(lines, want, "{server} at {level:?}");
        assert!(
            run() == (lines, written),
            "{server} at {level:?}: equal seeds, equal bytes"
        );
    }
}

#[test]
fn apache_graceful_restart_churns_or_preserves_by_level() {
    // Unprotected: a graceful restart floods free memory with the reaped
    // workers' copies, and the fresh pool re-accumulates.
    let mut k = machine(ProtectionLevel::None);
    let mut apache = start_apache(&mut k, ProtectionLevel::None);
    let scanner = Scanner::from_material(apache.material());
    apache.set_concurrency(&mut k, 12).unwrap();
    apache.pump(&mut k, 24).unwrap();
    let before = scanner.scan_kernel(&k).unallocated();
    apache.graceful_restart(&mut k).unwrap();
    let after = scanner.scan_kernel(&k).unallocated();
    assert!(after > before, "restart dumps copies: {before} -> {after}");
    apache.pump(&mut k, 24).unwrap();
    assert!(scanner.scan_kernel(&k).allocated() > 3);

    // Integrated: restart leaves exactly the aligned copies and nothing in
    // free memory.
    let mut k2 = machine(ProtectionLevel::Integrated);
    let mut protected = start_apache(&mut k2, ProtectionLevel::Integrated);
    let scanner2 = Scanner::from_material(protected.material());
    protected.set_concurrency(&mut k2, 12).unwrap();
    protected.pump(&mut k2, 24).unwrap();
    protected.graceful_restart(&mut k2).unwrap();
    protected.pump(&mut k2, 24).unwrap();
    let report = scanner2.scan_kernel(&k2);
    assert_eq!(report.by_pattern(), vec![1, 1, 1, 0]);
    assert_eq!(report.unallocated(), 0);
}

#[test]
fn apache_pool_respects_prefork_bounds() {
    let mut k = machine(ProtectionLevel::None);
    let mut apache = start_apache(&mut k, ProtectionLevel::None);
    // Floor: StartServers.
    apache.set_concurrency(&mut k, 0).unwrap();
    assert_eq!(apache.pool_size(), 5);
    // Cap: MaxClients (the paper's Apache default is 150).
    apache.set_concurrency(&mut k, 10_000).unwrap();
    assert_eq!(apache.pool_size(), 150);
    apache.set_concurrency(&mut k, 10).unwrap();
    assert_eq!(apache.pool_size(), 10);
    apache.stop(&mut k).unwrap();
    assert_eq!(apache.pool_size(), 0);
}

#[test]
fn ssh_and_tls_handshake_protocols_are_wired_correctly() {
    use servers::Protocol;
    let mut k = machine(ProtectionLevel::None);
    let ssh_worker = servers::WorkerCrypto::with_protocol(
        ServerConfig::new(ProtectionLevel::None)
            .with_key_bits(KEY_BITS)
            .derive_key("openssh"),
        ProtectionLevel::None,
        1,
        Protocol::Ssh,
    );
    assert_eq!(ssh_worker.protocol(), Protocol::Ssh);
    let tls_worker = servers::WorkerCrypto::new(
        ServerConfig::new(ProtectionLevel::None)
            .with_key_bits(KEY_BITS)
            .derive_key("apache"),
        ProtectionLevel::None,
        1,
    );
    assert_eq!(tls_worker.protocol(), Protocol::Tls);
    let _ = &mut k;
}
