//! Incremental, dirty-frame kernel scanning.
//!
//! `Scanner::scan_kernel` reads every frame of simulated physical memory
//! that is not known to be zero on every call — the paper's `scanmemory`
//! behaviour, and exactly what the harness does after every timeline tick,
//! sweep cell, and faultsweep op. Between two consecutive snapshots only a
//! handful of frames actually change, and [`memsim::Kernel`] stamps every
//! byte mutation and every metadata change with a per-frame generation
//! counter. [`IncrementalScanner`] exploits that: it caches raw hits keyed
//! by write generation, refreshes the hits of only the frames whose
//! generation moved (plus the neighbours a straddling match could reach
//! from), and re-attributes allocation state from the metadata generation —
//! producing a [`ScanReport`] that is **bit-identical** to a scan of the
//! whole dump (enforced by the differential suite in `tests/incremental.rs`
//! and `harness/tests/scan_equivalence.rs`). Of those frames it reads only
//! the parts where a match can start ([`Scanner::live_spans`] over the
//! frames not known to be zero), so known-zero frames cost nothing.
//!
//! The cache keeps one write generation per machine frame, and hits and
//! attribution only for the frames that hold hits. It stores only pattern
//! indices, page offsets, generations, and frame attribution — never
//! pattern (key) bytes. `cache_audit_bytes` serializes the whole cache so
//! tests can assert no key material leaks into it.

use crate::{KeyHit, ScanReport, Scanner};
use memsim::{FrameId, FrameState, Kernel, Pid, PAGE_SIZE};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Deterministic scan-effort counters, accumulated across every
/// [`IncrementalScanner::scan`] call.
///
/// Contains *counts only* (no wall-clock), so it can ride on results that
/// the determinism suite compares bit-for-bit across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Snapshots scanned.
    pub scans: u64,
    /// Frames whose cached hits were refreshed: the frames whose write
    /// generation moved, plus the frames before them that a straddling
    /// match could start in. Of these, only the bytes where a match can
    /// start are read, so a known-zero frame counts here without being
    /// read.
    pub frames_rescanned: u64,
    /// Frames a full scan would have read: `num_frames × scans`.
    pub frames_total: u64,
}

impl ScanStats {
    /// Fraction of frames rescanned relative to full scans (1.0 = no skip).
    #[must_use]
    pub fn rescan_fraction(&self) -> f64 {
        if self.frames_total == 0 {
            return 0.0;
        }
        self.frames_rescanned as f64 / self.frames_total as f64
    }

    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: ScanStats) {
        self.scans += other.scans;
        self.frames_rescanned += other.frames_rescanned;
        self.frames_total += other.frames_total;
    }
}

/// Cached hits and attribution of one frame that holds hits. A
/// `u64::MAX` state generation means "not yet attributed", which can never
/// collide with a real generation (the clock starts at 0 and a 64-bit
/// counter bumped once per operation does not wrap).
#[derive(Debug, Clone)]
struct HitFrame {
    /// Kernel state generation the cached attribution was refreshed at.
    state_gen: u64,
    /// Raw hits *starting* in this frame: `(pattern index, page offset)`.
    hits: Vec<(u32, u32)>,
    /// Cached attribution.
    state: FrameState,
    allocated: bool,
    owners: Vec<Pid>,
}

impl HitFrame {
    fn unattributed() -> Self {
        Self {
            state_gen: u64::MAX,
            hits: Vec::new(),
            state: FrameState::Free,
            allocated: false,
            owners: Vec::new(),
        }
    }
}

/// The non-secret cache body: generations, offsets, indices, attribution.
/// Deliberately a separate struct from [`IncrementalScanner`] so the scanner
/// remains a pure delegation wrapper around [`Scanner`] under keylint S003 —
/// no buffer-typed field sits next to the secret patterns.
#[derive(Debug, Clone, Default)]
struct ScanCache {
    /// `Kernel::generation_clock` observed at the last scan. A clock that
    /// moves backwards (or a frame-count change) means a different machine:
    /// the cache resets instead of trusting coincidental generations.
    clock: u64,
    /// Per machine frame, the write generation its cached hits were
    /// computed at; `u64::MAX` means never scanned (see [`HitFrame`]).
    write_gens: Vec<u64>,
    /// Hits and attribution of the frames that hold hits, in frame order.
    hit_frames: BTreeMap<usize, HitFrame>,
}

impl ScanCache {
    fn reset(&mut self, num_frames: usize) {
        self.clock = 0;
        self.write_gens.clear();
        self.write_gens.resize(num_frames, u64::MAX);
        self.hit_frames.clear();
    }
}

/// The parts of the ascending, disjoint spans `a` that also lie in the
/// ascending, disjoint spans `b`, ascending.
fn intersect_spans(a: &[(usize, usize)], b: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (lo, hi) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// A [`Scanner`] with a hit cache: scans the *same kernel lineage*
/// repeatedly, refreshing the hits of only the frames whose write
/// generation moved since the previous call (plus up to
/// `max_pattern_len - 1` straddle bytes' worth of preceding frames, whose
/// matches could reach into a dirty frame).
///
/// **Contract:** one scanner follows one kernel lineage — the kernel passed
/// to [`Self::scan`] must be the same machine (or a clone of the machine)
/// previously scanned, never a *diverged sibling* clone. Cloned-kernel
/// fan-out (the faultsweep pattern) forks the scanner alongside the kernel:
/// [`Self::fork`] copies the warm cache so each lineage pays only for its
/// own divergence. A frame-count change or a generation clock that moves
/// backwards is detected and resets the cache (correctness is preserved;
/// only the speedup is lost).
pub struct IncrementalScanner {
    scanner: Scanner,
    cache: ScanCache,
    stats: ScanStats,
    wall: Duration,
}

impl core::fmt::Debug for IncrementalScanner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The cache holds no key bytes, but the wrapped scanner does.
        write!(f, "IncrementalScanner(<redacted>, {:?})", self.stats)
    }
}

impl IncrementalScanner {
    /// Wraps a scanner. The first [`Self::scan`] is a full scan that warms
    /// the cache; later calls are incremental. The dirty-run rescan splits
    /// across the scanner's threads ([`Scanner::with_threads`]).
    #[must_use]
    pub fn new(scanner: Scanner) -> Self {
        Self {
            scanner,
            cache: ScanCache::default(),
            stats: ScanStats::default(),
            wall: Duration::ZERO,
        }
    }

    /// [`Scanner::with_threads`] on the wrapped scanner, for the benchmark
    /// package's timeline and fault-sweep replicas
    /// (`benchmark/src/workloads/{timeline,faultsweep}.rs`), which call it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        Self {
            scanner: self.scanner.with_threads(threads),
            ..self
        }
    }

    /// The wrapped scanner (for capture scans that bypass the cache).
    #[must_use]
    pub fn scanner(&self) -> &Scanner {
        &self.scanner
    }

    /// Duplicates this scanner — audited pattern copies *and* the warm frame
    /// cache — so a cloned kernel can be followed without a cold full scan.
    /// Effort counters and wall-clock start at zero on the fork; the thread
    /// count carries over with the scanner.
    #[must_use]
    pub fn fork(&self) -> Self {
        Self {
            scanner: self.scanner.fork(),
            cache: self.cache.clone(),
            stats: ScanStats::default(),
            wall: Duration::ZERO,
        }
    }

    /// Deterministic effort counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Wall-clock time spent inside [`Self::scan`] so far. Kept out of
    /// [`ScanStats`] on purpose: timings are not deterministic and must not
    /// leak into bit-compared results.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Scans the kernel, reusing cached hits for every clean frame. The
    /// returned report is bit-identical to `self.scanner().scan_kernel(k)`.
    pub fn scan(&mut self, kernel: &Kernel) -> ScanReport {
        let start = Instant::now();
        let num_frames = kernel.num_frames();
        let cache = &mut self.cache;
        if cache.write_gens.len() != num_frames || kernel.generation_clock() < cache.clock {
            cache.reset(num_frames);
        }
        cache.clock = kernel.generation_clock();

        // A match starting up to `max_len - 1` bytes before a dirty frame
        // can read dirty bytes, so that many *preceding* frames rescan too.
        let straddle = (self.scanner.max_pattern_len() - 1).div_ceil(PAGE_SIZE);

        // Pass 1 — dirty detection against *pre-scan* generations, then
        // coalescing consecutive dirty frames into byte runs.
        let mut rescanned = 0u64;
        let mut dirty_runs: Vec<(usize, usize)> = Vec::new(); // byte ranges [start, end)
        for i in 0..num_frames {
            let dirty_near = (i..=(i + straddle).min(num_frames - 1))
                .any(|j| kernel.write_generation(FrameId(j)) != cache.write_gens[j]);
            if !dirty_near {
                continue;
            }
            rescanned += 1;
            let base = i * PAGE_SIZE;
            match dirty_runs.last_mut() {
                Some(run) if run.1 == base => run.1 += PAGE_SIZE,
                _ => dirty_runs.push((base, base + PAGE_SIZE)),
            }
        }

        // Pass 2 — a rescanned frame drops its cached hits, then the parts
        // of the dirty runs where a match can start go through the
        // scanner's span walk. Its hits ascend at any thread count, so each
        // frame's hits are refilled in the same order. Every frame whose
        // generation moved lies in a dirty run, so the runs are all the
        // generations there are to stamp.
        for &(lo, hi) in &dirty_runs {
            for (_, entry) in cache.hit_frames.range_mut(lo / PAGE_SIZE..hi / PAGE_SIZE) {
                entry.hits.clear();
            }
        }
        let live: Vec<_> = self.scanner.kernel_spans(kernel).collect();
        let spans = intersect_spans(&dirty_runs, &live);
        for hit in self.scanner.scan_spans(kernel.phys(), spans) {
            cache
                .hit_frames
                .entry(hit.offset / PAGE_SIZE)
                .or_insert_with(HitFrame::unattributed)
                .hits
                .push((hit.pattern as u32, (hit.offset % PAGE_SIZE) as u32));
        }
        cache.hit_frames.retain(|_, entry| !entry.hits.is_empty());
        for &(lo, hi) in &dirty_runs {
            for i in lo / PAGE_SIZE..hi / PAGE_SIZE {
                cache.write_gens[i] = kernel.write_generation(FrameId(i));
            }
        }

        // Attribution: refresh state/owners for frames whose metadata
        // generation moved.
        let mut hits = Vec::new();
        for (&i, entry) in &mut cache.hit_frames {
            let frame = FrameId(i);
            let state_gen = kernel.state_generation(frame);
            if entry.state_gen != state_gen {
                let view = kernel.frame_view(frame);
                entry.state = view.state;
                entry.allocated = view.state != FrameState::Free;
                entry.owners = view.owners;
                entry.state_gen = state_gen;
            }
            for &(pi, off) in &entry.hits {
                hits.push(KeyHit {
                    pattern: pi as usize,
                    // keylint: allow(S005) -- the pattern *name* ("d", "pem") is a public label, not key bytes
                    name: self.scanner.patterns()[pi as usize].name.clone(),
                    offset: frame.base() + off as usize,
                    frame,
                    state: entry.state,
                    allocated: entry.allocated,
                    owners: entry.owners.clone(),
                });
            }
        }

        self.stats.scans += 1;
        self.stats.frames_rescanned += rescanned;
        self.stats.frames_total += num_frames as u64;
        self.wall += start.elapsed();
        ScanReport {
            hits,
            num_patterns: self.scanner.patterns().len(),
        }
    }

    /// Serializes the entire cache body — every byte the cache retains
    /// between scans — so tests can assert it contains no key material.
    /// (Generations, frame indices, counts, pattern indices, page offsets,
    /// frame states, and owner pids; nothing else is stored.)
    #[must_use]
    pub fn cache_audit_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.cache.clock.to_le_bytes());
        for gen in &self.cache.write_gens {
            out.extend_from_slice(&gen.to_le_bytes());
        }
        for (&i, e) in &self.cache.hit_frames {
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&e.state_gen.to_le_bytes());
            out.extend_from_slice(&(e.hits.len() as u64).to_le_bytes());
            for &(pi, off) in &e.hits {
                out.extend_from_slice(&pi.to_le_bytes());
                out.extend_from_slice(&off.to_le_bytes());
            }
            out.push(e.state as u8);
            out.push(u8::from(e.allocated));
            for p in &e.owners {
                out.extend_from_slice(&p.0.to_le_bytes());
            }
        }
        out
    }
}
