//! Differential suite for [`IncrementalScanner`] and `Scanner::scan_kernel`:
//! after *any* sequence of kernel mutations — spawns, writes, frees, forks,
//! COW breaks, evictions, injected faults, clears — both must be
//! **bit-identical** to a scan of the whole physical dump that ignores the
//! frames' known-zero bits, while the incremental cache retains zero
//! key-derived bytes.

use keyscan::{IncrementalScanner, KeyHit, Scanner};
use memsim::{
    FaultPlan, FrameId, FrameState, Kernel, KernelPolicy, MachineConfig, Pid, VAddr, PAGE_SIZE,
};
use rsa_repro::material::{KeyMaterial, Pattern};
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;

fn material_and_scanner(seed: u64) -> (KeyMaterial, Scanner) {
    let key = RsaPrivateKey::generate(128, &mut Rng64::new(seed));
    let material = KeyMaterial::from_key(&key);
    let scanner = Scanner::from_material(&material);
    (material, scanner)
}

/// The hits every kernel scan must report, found without the frame bits:
/// the span walk over the whole dump, each hit attributed from the
/// `frame_view` of the frame holding its first byte.
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

/// Asserts that the full scan reports the reference hits and that the
/// incremental report equals the full one on the current snapshot.
fn check(inc: &mut IncrementalScanner, oracle: &Scanner, k: &Kernel) {
    let full = oracle.scan_kernel(k);
    assert_eq!(full.hits(), reference_hits(oracle, k));
    assert_eq!(inc.scan(k), full);
}

#[test]
fn incremental_equals_oracle_across_scripted_lifecycle() {
    let (material, scanner) = material_and_scanner(7);
    let oracle = Scanner::from_material(&material);
    let mut inc = IncrementalScanner::new(scanner);
    let mut k = Kernel::new(MachineConfig::small());
    check(&mut inc, &oracle, &k);

    // Plant the key, fork (COW), break the sharing, free, re-use.
    let parent = k.spawn();
    let buf = k.heap_alloc(parent, material.d_bytes().len()).unwrap();
    k.write_bytes(parent, buf, material.d_bytes()).unwrap();
    check(&mut inc, &oracle, &k);

    let child = k.fork(parent).unwrap();
    check(&mut inc, &oracle, &k);

    // Child write breaks COW: a second physical copy appears.
    k.write_bytes(child, buf, material.d_bytes()).unwrap();
    check(&mut inc, &oracle, &k);

    // Exit without clearing: copies migrate to unallocated (state change
    // with *no* byte change — the attribution-refresh path).
    k.exit(child).unwrap();
    check(&mut inc, &oracle, &k);
    k.exit(parent).unwrap();
    check(&mut inc, &oracle, &k);

    // A new process reuses the dirty frames.
    let p2 = k.spawn();
    let buf2 = k.heap_alloc(p2, 64 * 1024).unwrap();
    k.write_bytes(p2, buf2, &vec![0x5A; 64 * 1024]).unwrap();
    check(&mut inc, &oracle, &k);

    // The incremental path must actually have skipped most frames.
    let stats = inc.stats();
    assert!(stats.scans >= 7);
    assert!(
        stats.frames_rescanned < stats.frames_total / 2,
        "no skipping happened: {stats:?}"
    );
}

#[test]
fn incremental_equals_oracle_on_random_mutation_sequences() {
    let (material, _scanner) = material_and_scanner(11);
    let oracle = Scanner::from_material(&material);
    for round in 0..6u64 {
        let mut rng = Rng64::new(0x1234 + round);
        let mut k = Kernel::new(MachineConfig::small());
        let mut inc = IncrementalScanner::new(oracle.fork());
        let mut live: Vec<(Pid, Vec<VAddr>)> = Vec::new();
        for step in 0..120 {
            match rng.gen_below(10) {
                0 => {
                    let pid = k.spawn();
                    live.push((pid, Vec::new()));
                }
                1 | 2 => {
                    // Allocate and write a key fragment or noise.
                    if let Some(i) = (!live.is_empty()).then(|| rng.gen_index(live.len())) {
                        let (pid, bufs) = &mut live[i];
                        let pat = [material.d_bytes(), material.p_bytes(), material.q_bytes()]
                            [rng.gen_index(3)];
                        let take = 1 + rng.gen_index(pat.len());
                        if let Ok(b) = k.heap_alloc(*pid, pat.len()) {
                            let _ = k.write_bytes(*pid, b, &pat[..take]);
                            bufs.push(b);
                        }
                    }
                }
                3 => {
                    // Free a buffer (bytes stay behind — the paper's hazard).
                    if let Some(i) = (!live.is_empty()).then(|| rng.gen_index(live.len())) {
                        let (pid, bufs) = &mut live[i];
                        if !bufs.is_empty() {
                            let b = bufs.swap_remove(rng.gen_index(bufs.len()));
                            let _ = k.heap_free(*pid, b);
                        }
                    }
                }
                4 => {
                    // Fork: COW-share everything.
                    if let Some(i) = (!live.is_empty()).then(|| rng.gen_index(live.len())) {
                        let (pid, bufs) = live[i].clone();
                        if let Ok(c) = k.fork(pid) {
                            live.push((c, bufs));
                        }
                    }
                }
                5 => {
                    // Write through a possibly-COW page: break sharing.
                    if let Some(i) = (!live.is_empty()).then(|| rng.gen_index(live.len())) {
                        let (pid, bufs) = &live[i];
                        if !bufs.is_empty() {
                            let b = bufs[rng.gen_index(bufs.len())];
                            let _ = k.write_bytes(*pid, b, material.q_bytes());
                        }
                    }
                }
                6 => {
                    // Exit a process entirely.
                    if !live.is_empty() {
                        let (pid, _) = live.swap_remove(rng.gen_index(live.len()));
                        let _ = k.exit(pid);
                    }
                }
                7 => {
                    // Kernel-side traffic: tty input leaves slab residue.
                    let _ = k.tty_input(material.p_bytes());
                    let _ = k.slab_shrink();
                }
                8 => {
                    // File traffic through the page cache.
                    if let Some(&(pid, _)) = live.first() {
                        let fid = k.create_file("noise.pem", material.d_bytes());
                        let _ = k.read_file(pid, fid, rng.gen_bool(0.5));
                        if rng.gen_bool(0.5) {
                            k.evict_file_cache(fid, rng.gen_bool(0.5));
                        }
                    }
                }
                _ => {
                    // Memory pressure.
                    let _ = k.swap_out_pressure(rng.gen_index(4));
                    k.reclaim_page_cache(rng.gen_index(4));
                }
            }
            // Scan at random points, not just at quiescence.
            if step % 7 == 0 || rng.gen_bool(0.15) {
                check(&mut inc, &oracle, &k);
            }
        }
        check(&mut inc, &oracle, &k);
    }
}

#[test]
fn incremental_equals_oracle_under_injected_faults() {
    let (material, scanner) = material_and_scanner(13);
    let oracle = Scanner::from_material(&material);
    for fault_index in [0u64, 3, 7, 15, 40] {
        let mut k = Kernel::new(MachineConfig::small());
        k.install_fault_plan(FaultPlan::new().fail_at_index(fault_index));
        let mut inc = IncrementalScanner::new(scanner.fork());
        let parent = k.spawn();
        // Drive a workload where every fallible op may be the failed one;
        // errors are shed, and the scan must stay exact either way.
        let mut bufs = Vec::new();
        for i in 0..6 {
            if let Ok(b) = k.heap_alloc(parent, material.d_bytes().len()) {
                if k.write_bytes(parent, b, material.d_bytes()).is_ok() {
                    bufs.push(b);
                }
            }
            if i % 2 == 0 {
                if let Ok(c) = k.fork(parent) {
                    let _ = k.write_bytes(c, *bufs.first().unwrap_or(&VAddr(0)), b"xxxxxxxx");
                    let _ = k.exit(c);
                }
            }
            check(&mut inc, &oracle, &k);
        }
        for b in bufs {
            let _ = k.heap_free(parent, b);
            check(&mut inc, &oracle, &k);
        }
        k.clear_fault_plan();
        let _ = k.exit(parent);
        check(&mut inc, &oracle, &k);
    }
}

#[test]
fn fork_carries_the_warm_cache_across_kernel_clones() {
    let (material, scanner) = material_and_scanner(17);
    let oracle = Scanner::from_material(&material);
    let mut inc = IncrementalScanner::new(scanner);
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, material.d_bytes().len()).unwrap();
    k.write_bytes(pid, buf, material.d_bytes()).unwrap();
    check(&mut inc, &oracle, &k);

    // Clone the machine twice and diverge the clones; each clone gets its
    // own scanner fork and must stay exact on its own lineage.
    let mut k1 = k.clone();
    let mut k2 = k.clone();
    let mut inc1 = inc.fork();
    let mut inc2 = inc.fork();
    k1.write_bytes(pid, buf, material.p_bytes()).unwrap();
    k2.exit(pid).unwrap();
    check(&mut inc1, &oracle, &k1);
    check(&mut inc2, &oracle, &k2);
    check(&mut inc, &oracle, &k);

    // Warm forks skip clean frames: one dirtied frame, not a full rescan.
    let s1 = inc1.stats();
    assert_eq!(s1.scans, 1);
    assert!(
        s1.frames_rescanned <= 4,
        "fork should only rescan the diverged frames: {s1:?}"
    );
}

#[test]
fn scanner_cache_retains_no_key_bytes() {
    let (material, scanner) = material_and_scanner(19);
    let oracle = Scanner::from_material(&material);
    let mut inc = IncrementalScanner::new(scanner);
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    for pat in [material.d_bytes(), material.p_bytes(), material.q_bytes()] {
        let b = k.heap_alloc(pid, pat.len()).unwrap();
        k.write_bytes(pid, b, pat).unwrap();
        let report = inc.scan(&k);
        assert!(report.compromised(), "keys are in memory — hits must exist");
    }

    // The cache knows *where* the keys are, but must not know their bytes:
    // scanning the serialized cache with the very scanner that filled it
    // (and with a generous 8-byte partial threshold) finds nothing.
    let audit = inc.cache_audit_bytes();
    assert!(!audit.is_empty());
    assert_eq!(oracle.count_matches(&audit), 0, "cache holds full key bytes");
    assert!(
        oracle.scan_bytes_partial(&audit, 8).is_empty(),
        "cache holds key fragments"
    );
}

#[test]
fn mismatched_machine_resets_instead_of_lying() {
    let (material, scanner) = material_and_scanner(23);
    let oracle = Scanner::from_material(&material);
    let mut inc = IncrementalScanner::new(scanner);

    // Scan machine A (with a key), then switch to a *different* machine B.
    let mut a = Kernel::new(MachineConfig::small());
    let pid = a.spawn();
    let buf = a.heap_alloc(pid, material.d_bytes().len()).unwrap();
    a.write_bytes(pid, buf, material.d_bytes()).unwrap();
    check(&mut inc, &oracle, &a);

    let b = Kernel::new(MachineConfig::small());
    // B is freshly booted: clock 0 < A's clock → cache must reset, so the
    // stale hit from A must not survive into B's report.
    check(&mut inc, &oracle, &b);

    // And back to A (clock now "ahead" of B's): still exact.
    check(&mut inc, &oracle, &a);
}

#[test]
fn threaded_incremental_scans_are_bit_identical_at_every_width() {
    // One serial and three threaded incremental scanners driven through the
    // same mutation sequence must produce bit-identical reports at every
    // step — and all must equal the full-scan oracle.
    let (material, _) = material_and_scanner(29);
    let oracle = Scanner::from_material(&material);
    let widths = [1usize, 2, 4, 8];
    let mut scanners: Vec<IncrementalScanner> = widths
        .iter()
        .map(|&t| IncrementalScanner::new(Scanner::from_material(&material).with_threads(t)))
        .collect();

    let mut k = Kernel::new(MachineConfig::small());
    let mut rng = Rng64::new(0x7EAD);
    let pid = k.spawn();
    let mut bufs: Vec<VAddr> = Vec::new();

    let step = |k: &Kernel, scanners: &mut Vec<IncrementalScanner>, what: &str| {
        let full = oracle.scan_kernel(k);
        for (inc, t) in scanners.iter_mut().zip(widths) {
            assert_eq!(inc.scan(k), full, "threads {t} diverged after {what}");
        }
    };

    step(&k, &mut scanners, "boot");
    for round in 0..12 {
        match rng.next_u64() % 4 {
            0 => {
                let sz = 4096 * (1 + (rng.next_u64() % 8) as usize);
                if let Ok(b) = k.heap_alloc(pid, sz) {
                    bufs.push(b);
                }
            }
            1 => {
                if let Some(&b) = bufs.last() {
                    let _ = k.write_bytes(pid, b, material.d_bytes());
                }
            }
            2 => {
                if let Some(&b) = bufs.last() {
                    let _ = k.write_bytes(pid, b, &[0u8; 4096]);
                }
            }
            _ => {
                if bufs.len() > 1 {
                    let b = bufs.remove(0);
                    let _ = k.heap_free(pid, b);
                }
            }
        }
        step(&k, &mut scanners, &format!("round {round}"));
    }
}

/// Leading and trailing zero bytes of the synthetic edge patterns.
const LEAD: usize = 3;
const TRAIL: usize = 2;

/// Patterns whose matches reach into known-zero frames: `lead` starts with
/// [`LEAD`] zero bytes, `trail` ends with [`TRAIL`], and the real key's
/// `d` (seed 15) ends with one, its top byte being zero. `d`, `p` and `q`
/// are odd, so a real key's little-endian images never start with a zero
/// byte; the leading-zero edge needs the synthetic pattern. `zeros`, when
/// asked for, is all zeros and matches anywhere in zero memory.
fn edge_scanner(with_zeros: bool) -> (Scanner, KeyMaterial) {
    let material = KeyMaterial::from_key(&RsaPrivateKey::generate(128, &mut Rng64::new(15)));
    assert_eq!(
        material.d_bytes().last(),
        Some(&0),
        "seed 15's d ends in a zero byte"
    );
    let mut lead = vec![0u8; LEAD];
    lead.extend(1..=13u8);
    let mut trail: Vec<u8> = (101..=114u8).collect();
    trail.extend([0; TRAIL]);
    let mut patterns = vec![
        Pattern::new("lead", lead),
        Pattern::new("trail", trail),
        Pattern::new("d", material.d_bytes().to_vec()),
    ];
    if with_zeros {
        patterns.push(Pattern::new("zeros", vec![0; 16]));
    }
    (Scanner::new(patterns), material)
}

/// Full scans at 1/2/3/8 threads and one incremental scanner per thread
/// count, followed from boot, all checked against the reference hits.
struct EdgeCheck {
    oracle: Scanner,
    full: [Scanner; 4],
    incremental: [IncrementalScanner; 4],
}

impl EdgeCheck {
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    fn new(oracle: Scanner) -> Self {
        Self {
            full: Self::THREADS.map(|t| oracle.fork().with_threads(t)),
            incremental: Self::THREADS
                .map(|t| IncrementalScanner::new(oracle.fork().with_threads(t))),
            oracle,
        }
    }

    /// Checks every scanner and returns the reference hits.
    fn step(&mut self, k: &Kernel, what: &str) -> Vec<KeyHit> {
        let want = reference_hits(&self.oracle, k);
        for (s, t) in self.full.iter().zip(Self::THREADS) {
            assert_eq!(s.scan_kernel(k).hits(), want, "full x{t} after {what}");
        }
        for (s, t) in self.incremental.iter_mut().zip(Self::THREADS) {
            assert_eq!(s.scan(k).hits(), want, "incremental x{t} after {what}");
        }
        want
    }
}

fn has_hit(hits: &[KeyHit], name: &str, offset: usize) -> bool {
    hits.iter().any(|h| h.name == name && h.offset == offset)
}

/// Plants matches whose zero bytes lie in known-zero frames next to written
/// ones, then clears and rewrites them. They live on kernel pages, which a
/// fresh machine hands out in frame order and does not clear: `lead` starts
/// in the last bytes of frame 1, which stays known-zero, and goes on in
/// frame 2; `trail` and `d` start in frames 4 and 6 and end with their zero
/// bytes in frames 5 and 7.
fn known_zero_edges(policy: KernelPolicy, mem_bytes: usize, with_zeros: bool) {
    let (oracle, material) = edge_scanner(with_zeros);
    let lead = oracle.patterns()[0].bytes.clone();
    let trail = oracle.patterns()[1].bytes.clone();
    let d = material.d_bytes();
    // The bytes written: each pattern without the zeros the frame bit holds.
    let (lead_tail, trail_head, d_head) = (
        &lead[LEAD..],
        &trail[..trail.len() - TRAIL],
        &d[..d.len() - 1],
    );
    let (lead_at, trail_at, d_at) = (
        2 * PAGE_SIZE - LEAD,
        5 * PAGE_SIZE - trail_head.len(),
        7 * PAGE_SIZE - d_head.len(),
    );
    let mut k = Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(mem_bytes)
            .with_policy(policy),
    );
    let mut edges = EdgeCheck::new(oracle);
    edges.step(&k, "boot");
    let frames = k.alloc_kernel_pages(8).unwrap();
    assert_eq!(frames, (0..8).map(FrameId).collect::<Vec<_>>());

    k.write_kernel_page(frames[2], 0, lead_tail);
    assert!(k.frame_known_zero(frames[1]));
    assert!(has_hit(&edges.step(&k, "lead planted"), "lead", lead_at));

    k.write_kernel_page(frames[4], trail_at % PAGE_SIZE, trail_head);
    k.write_kernel_page(frames[6], d_at % PAGE_SIZE, d_head);
    assert!(k.frame_known_zero(frames[5]) && k.frame_known_zero(frames[7]));
    let hits = edges.step(&k, "trail and d planted");
    assert!(has_hit(&hits, "trail", trail_at) && has_hit(&hits, "d", d_at));

    // Zeros written over zeros: frame 1 reads zero without the bit.
    k.write_kernel_page(frames[1], 0, &[0; PAGE_SIZE]);
    assert!(!k.frame_known_zero(frames[1]));
    let hits = edges.step(&k, "frame 1 zero-written");
    assert!(has_hit(&hits, "lead", lead_at));

    k.write_kernel_page(frames[2], 0, &[0; 16]);
    k.write_kernel_page(frames[5], 0, &[0xEE]);
    let hits = edges.step(&k, "lead and trail overwritten");
    assert!(!has_hit(&hits, "lead", lead_at) && !has_hit(&hits, "trail", trail_at));
    k.write_kernel_page(frames[2], 0, lead_tail);
    k.write_kernel_page(frames[5], 0, &[0]);
    let hits = edges.step(&k, "lead and trail rewritten");
    assert!(has_hit(&hits, "lead", lead_at) && has_hit(&hits, "trail", trail_at));

    // Freed: cleared (and known-zero again) under zero-on-free, left in
    // unallocated memory otherwise. Reallocated pages come back last
    // freed first, uncleared, and are written again.
    k.free_kernel_pages(&frames[1..=2]);
    k.free_kernel_pages(&frames[4..=5]);
    assert_eq!(k.frame_known_zero(frames[2]), policy.zero_on_free);
    let hits = edges.step(&k, "frames 1, 2, 4 and 5 freed");
    assert_eq!(has_hit(&hits, "lead", lead_at), !policy.zero_on_free);
    let again = k.alloc_kernel_pages(4).unwrap();
    assert_eq!(again, [5, 4, 2, 1].map(FrameId));
    k.write_kernel_page(frames[2], 0, lead_tail);
    k.write_kernel_page(frames[4], trail_at % PAGE_SIZE, trail_head);
    let hits = edges.step(&k, "lead and trail rewritten after the free");
    assert!(has_hit(&hits, "lead", lead_at) && has_hit(&hits, "trail", trail_at));
    assert!(has_hit(&hits, "d", d_at));
}

#[test]
fn matches_into_known_zero_frames_are_found_across_clears_and_rewrites() {
    for policy in [KernelPolicy::stock(), KernelPolicy::hardened()] {
        known_zero_edges(policy, MachineConfig::small().mem_bytes, false);
    }
}

#[test]
fn an_all_zero_pattern_is_found_in_known_zero_frames() {
    // Matches at nearly every offset: a 16-frame machine keeps them few.
    for policy in [KernelPolicy::stock(), KernelPolicy::hardened()] {
        known_zero_edges(policy, 16 * PAGE_SIZE, true);
    }
}
