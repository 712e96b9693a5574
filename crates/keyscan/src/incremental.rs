//! Incremental, dirty-frame kernel scanning.
//!
//! `Scanner::scan_kernel` reads every frame of simulated physical memory
//! that is not known to be zero on every call — the paper's `scanmemory`
//! behaviour, and exactly what the harness does after every timeline tick,
//! sweep cell, and faultsweep op. Between two consecutive snapshots only a
//! handful of frames actually change, and [`memsim::Kernel`] stamps every
//! byte mutation and every metadata change with a per-frame generation
//! from one clock. [`IncrementalScanner`] exploits that: it keeps the clock
//! of its last scan, refreshes the hits of only the frames written since
//! ([`Kernel::frames_written_since`], plus the neighbours a straddling
//! match could reach from), and re-attributes allocation state from the
//! metadata generation — producing a [`ScanReport`] that is
//! **bit-identical** to a scan of the whole dump (enforced by the
//! differential suite in `tests/incremental.rs` and
//! `harness/tests/scan_equivalence.rs`). Of those frames it reads only the
//! parts where a match can start ([`Scanner::live_spans`] over the frames
//! not known to be zero), so known-zero frames cost nothing.
//!
//! The cache is one clock, plus hits and attribution for the frames that
//! hold hits; it keeps nothing per machine frame. It stores only pattern
//! indices, page offsets, generations, and frame attribution — never
//! pattern (key) bytes. `cache_audit_bytes` serializes the whole cache so
//! tests can assert no key material leaks into it.

use crate::{ScanReport, Scanner};
use memsim::{FrameId, FrameView, Kernel, PAGE_SIZE};
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// Frames whose cached hits were refreshed: the frames written since
    /// the previous scan, plus the frames before them that a straddling
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

/// Cached hits and attribution of one frame that holds hits.
#[derive(Debug, Clone, Default)]
struct HitFrame {
    /// Raw hits *starting* in this frame: `(pattern index, page offset)`.
    hits: Vec<(u32, u32)>,
    /// The frame's attribution and the kernel state generation it was read
    /// at; `None` until the frame is first attributed.
    view: Option<(u64, FrameView)>,
}

/// The non-secret cache body: a clock, offsets, indices, attribution.
/// Deliberately a separate struct from [`IncrementalScanner`] so the scanner
/// remains a pure delegation wrapper around [`Scanner`] under keylint S003 —
/// no buffer-typed field sits next to the secret patterns.
#[derive(Debug, Clone, Default)]
struct ScanCache {
    /// Frame count and `Kernel::generation_clock` of the machine at the
    /// last scan (no frames before the first). A frame-count change or a
    /// clock that moves backwards means a different machine: the cache
    /// resets instead of trusting coincidental generations.
    frames: usize,
    clock: u64,
    /// Hits and attribution of the frames that hold hits, in frame order.
    hit_frames: BTreeMap<usize, HitFrame>,
}

/// The frames to rescan, as ascending, disjoint runs of frame indices:
/// each `written` frame (ascending) widened back by `straddle` frames,
/// with overlapping and adjacent runs joined.
fn rescan_runs(written: impl Iterator<Item = FrameId>, straddle: usize) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for FrameId(f) in written {
        let lo = f.saturating_sub(straddle);
        match runs.last_mut() {
            Some(run) if run.end >= lo => run.end = f + 1,
            _ => runs.push(lo..f + 1),
        }
    }
    runs
}

/// A [`Scanner`] with a hit cache: scans the *same kernel lineage*
/// repeatedly, refreshing the hits of only the frames written since the
/// previous call (plus up to `max_pattern_len - 1` straddle bytes' worth of
/// preceding frames, whose matches could reach into a written frame). The
/// cache is the clock of the last scan plus the frames that hold hits; it
/// keeps nothing per machine frame.
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
        let clock = kernel.generation_clock();
        let cache = &mut self.cache;

        // A match starting up to `max_len - 1` bytes before a written frame
        // can read its bytes, so that many *preceding* frames rescan too.
        let straddle = (self.scanner.max_pattern_len() - 1).div_ceil(PAGE_SIZE);
        let runs = if cache.frames == num_frames && clock >= cache.clock {
            rescan_runs(kernel.frames_written_since(cache.clock), straddle)
        } else {
            cache.hit_frames.clear();
            rescan_runs((0..num_frames).map(FrameId), straddle)
        };
        cache.frames = num_frames;
        cache.clock = clock;

        // A rescanned frame drops its cached hits, then the parts of the
        // runs where a match can start go through the scanner's span walk.
        // Its hits ascend at any thread count, so each frame's hits are
        // refilled in the same order.
        let mut rescanned = 0u64;
        for run in &runs {
            rescanned += run.len() as u64;
            for (_, entry) in cache.hit_frames.range_mut(run.clone()) {
                entry.hits.clear();
            }
        }
        let spans = runs
            .iter()
            .flat_map(|run| self.scanner.kernel_spans(kernel, run.clone()));
        for hit in self.scanner.scan_spans(kernel.phys(), spans) {
            cache
                .hit_frames
                .entry(hit.offset / PAGE_SIZE)
                .or_default()
                .hits
                .push((hit.pattern as u32, (hit.offset % PAGE_SIZE) as u32));
        }
        cache.hit_frames.retain(|_, entry| !entry.hits.is_empty());

        // Attribution: refresh the view of frames whose metadata
        // generation moved.
        let mut hits = Vec::new();
        for (&i, entry) in &mut cache.hit_frames {
            let frame = FrameId(i);
            let state_gen = kernel.state_generation(frame);
            if entry.view.as_ref().map(|&(gen, _)| gen) != Some(state_gen) {
                entry.view = Some((state_gen, kernel.frame_view(frame)));
            }
            let (_, view) = entry.view.as_ref().expect("attributed above");
            for &(pi, off) in &entry.hits {
                let offset = frame.base() + off as usize;
                hits.push(self.scanner.key_hit(pi as usize, offset, view.clone()));
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
    /// (The frame count and clock, frame indices, counts, pattern indices,
    /// page offsets, and each hit frame's attribution: its generation, state,
    /// refcount, lock bit, owner pids and cached file; nothing else is
    /// stored.)
    #[must_use]
    pub fn cache_audit_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.cache.frames as u64).to_le_bytes());
        out.extend_from_slice(&self.cache.clock.to_le_bytes());
        for (&i, e) in &self.cache.hit_frames {
            out.extend_from_slice(&(i as u64).to_le_bytes());
            out.extend_from_slice(&(e.hits.len() as u64).to_le_bytes());
            for &(pi, off) in &e.hits {
                out.extend_from_slice(&pi.to_le_bytes());
                out.extend_from_slice(&off.to_le_bytes());
            }
            if let Some((gen, view)) = &e.view {
                out.extend_from_slice(&gen.to_le_bytes());
                out.extend([view.state as u8, u8::from(view.locked)]);
                out.extend_from_slice(&view.refcount.to_le_bytes());
                for p in &view.owners {
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
                if let Some(fid) = view.cache_file {
                    out.extend_from_slice(&fid.0.to_le_bytes());
                }
            }
        }
        out
    }
}
