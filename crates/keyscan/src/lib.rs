//! Locating cryptographic keys in (simulated) memory.
//!
//! This crate reimplements the paper's `scanmemory` loadable kernel module
//! (Section 3.1 and the appendix): a linear, O(n) sweep of physical memory
//! for the byte patterns that constitute "a copy of the private key" (d, P,
//! Q, and the PEM file), with each hit attributed to the processes that map
//! the containing page via the reverse mapping, and classified as living in
//! *allocated* or *unallocated* memory.
//!
//! # Examples
//!
//! ```
//! use keyscan::Scanner;
//! use memsim::{Kernel, MachineConfig};
//! use rsa_repro::{material::KeyMaterial, RsaPrivateKey};
//! use simrng::Rng64;
//!
//! let key = RsaPrivateKey::generate(128, &mut Rng64::new(1));
//! let material = KeyMaterial::from_key(&key);
//! let scanner = Scanner::from_material(&material);
//!
//! let mut k = Kernel::new(MachineConfig::small());
//! let pid = k.spawn();
//! let buf = k.heap_alloc(pid, material.d_bytes().len()).unwrap();
//! k.write_bytes(pid, buf, material.d_bytes()).unwrap();
//!
//! let report = scanner.scan_kernel(&k);
//! assert_eq!(report.total(), 1);
//! assert_eq!(report.allocated(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dedup;
mod dump;
mod entropy;
mod incremental;
pub mod reconstruct;

pub use dedup::{dedup_probe, DedupProbe};
use dump::Dump;
pub use entropy::{EntropyRegion, EntropyScanner};
pub use incremental::{IncrementalScanner, ScanStats};

use memsim::{FrameId, FrameState, FrameView, Kernel, Pid, PAGE_SIZE};
use rsa_repro::material::{KeyMaterial, Pattern};
use std::ops::Range;

/// A pattern match in a raw byte dump (no page metadata available).
///
/// Deliberately index-only: a scan over gigabytes used to clone the pattern
/// *name* (`"d"`, `"p"`, …) into every hit, one heap allocation per match.
/// Resolve the label at report/format time via [`Scanner::pattern_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawHit {
    /// Index into the scanner's pattern list.
    pub pattern: usize,
    /// Byte offset of the match start.
    pub offset: usize,
}

/// A full or truncated prefix match found by [`Scanner::scan_bytes_partial`].
/// Index-only like [`RawHit`]; resolve names via [`Scanner::pattern_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialHit {
    /// Index into the scanner's pattern list.
    pub pattern: usize,
    /// Byte offset of the match start.
    pub offset: usize,
    /// How many leading bytes of the pattern matched.
    pub matched_len: usize,
    /// Whether the entire pattern matched.
    pub full: bool,
}

/// A pattern match in simulated physical memory, with page attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyHit {
    /// Index into the scanner's pattern list.
    pub pattern: usize,
    /// Pattern name.
    pub name: String,
    /// Physical byte offset of the match start.
    pub offset: usize,
    /// Frame containing the match start.
    pub frame: FrameId,
    /// State of that frame.
    pub state: FrameState,
    /// Whether the frame counts as allocated memory (process, kernel, or
    /// page cache) rather than free-list memory.
    pub allocated: bool,
    /// Processes mapping the frame (the paper's `printOwningProcesses`).
    pub owners: Vec<Pid>,
}

/// Aggregated scan results for one snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    hits: Vec<KeyHit>,
    num_patterns: usize,
}

impl ScanReport {
    /// All hits, in ascending physical order.
    #[must_use]
    pub fn hits(&self) -> &[KeyHit] {
        &self.hits
    }

    /// Total number of key copies found.
    #[must_use]
    pub fn total(&self) -> usize {
        self.hits.len()
    }

    /// Copies found in allocated memory.
    #[must_use]
    pub fn allocated(&self) -> usize {
        self.hits.iter().filter(|h| h.allocated).count()
    }

    /// Copies found in unallocated (free-list) memory.
    #[must_use]
    pub fn unallocated(&self) -> usize {
        self.hits.iter().filter(|h| !h.allocated).count()
    }

    /// Hit counts per pattern index.
    #[must_use]
    pub fn by_pattern(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_patterns];
        for h in &self.hits {
            counts[h.pattern] += 1;
        }
        counts
    }

    /// `(physical_offset, allocated)` pairs — the data behind the paper's
    /// "locations of keys in memory" scatter plots (Figures 5a, 6a, 9…27).
    #[must_use]
    pub fn locations(&self) -> Vec<(usize, bool)> {
        self.hits.iter().map(|h| (h.offset, h.allocated)).collect()
    }

    /// Whether any full copy of the key was found at all.
    #[must_use]
    pub fn compromised(&self) -> bool {
        !self.hits.is_empty()
    }
}

/// The change between two scans of the same machine — how the paper's
/// timeline observations (copies appearing under load, migrating from
/// allocated to unallocated at process exit) are detected mechanically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanDiff {
    /// Copies present only in the later scan.
    pub appeared: Vec<KeyHit>,
    /// Copies present only in the earlier scan.
    pub disappeared: Vec<KeyHit>,
    /// Copies at the same location whose allocation state flipped,
    /// `(earlier, later)` — observation (4) of Figure 5 is exactly a wave of
    /// allocated→unallocated entries here.
    pub reclassified: Vec<(KeyHit, KeyHit)>,
}

impl ScanDiff {
    /// Whether nothing changed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.disappeared.is_empty() && self.reclassified.is_empty()
    }

    /// Number of copies that moved from allocated to unallocated.
    #[must_use]
    pub fn freed_in_place(&self) -> usize {
        self.reclassified
            .iter()
            .filter(|(before, after)| before.allocated && !after.allocated)
            .count()
    }
}

impl ScanReport {
    /// Diffs this (earlier) report against a `later` one. Hits are matched
    /// by `(pattern, physical offset)`.
    #[must_use]
    pub fn diff(&self, later: &ScanReport) -> ScanDiff {
        use std::collections::HashMap;
        let key = |h: &KeyHit| (h.pattern, h.offset);
        let earlier: HashMap<_, &KeyHit> = self.hits.iter().map(|h| (key(h), h)).collect();
        let later_map: HashMap<_, &KeyHit> = later.hits.iter().map(|h| (key(h), h)).collect();

        let mut diff = ScanDiff::default();
        for h in &later.hits {
            match earlier.get(&key(h)) {
                None => diff.appeared.push(h.clone()),
                Some(old) if old.allocated != h.allocated => {
                    diff.reclassified.push(((*old).clone(), h.clone()));
                }
                Some(_) => {}
            }
        }
        for h in &self.hits {
            if !later_map.contains_key(&key(h)) {
                diff.disappeared.push(h.clone());
            }
        }
        diff
    }
}

/// Multi-pattern linear memory scanner.
///
/// Construction precomputes one match core over the pattern set, a
/// Boyer–Moore–Horspool skip walk: a bad-character shift table (block size
/// 1, window = the shortest pattern length). The walk examines the byte at
/// the *end* of the current window and either skips ahead by its shift or —
/// when the byte can terminate a window (`shift == 0`, a "trigger" byte) —
/// verifies the few candidate patterns whose window-end byte it is. Hits
/// come in ascending offset order, ties in ascending pattern order. Worst
/// case stays O(n·k) like the paper's LKM.
///
/// Every scan runs through one span walk over ascending byte spans of its
/// haystack, which splits the spans' bytes across the thread count fixed
/// by [`Self::with_threads`]. The spans come from one crate-private
/// builder, `live_spans`, which leaves out memory where no match can
/// start: a machine's or a [`memsim::Snapshot`]'s frames known to be zero,
/// a plain dump's all-zero pages. Results are bit-identical at any thread
/// count.
// keylint: allow(S003) -- the patterns vector drops its elements and each Pattern zeroes its own bytes; the shift and tail tables hold only byte-frequency structure and pattern indices, not key bytes
pub struct Scanner {
    patterns: Vec<Pattern>,
    /// Window length: the shortest pattern length (>= 8 by `Pattern::new`).
    window: usize,
    /// Bad-character shift per byte value. `shift[c] == 0` marks a trigger
    /// byte (`c` is some pattern's byte at position `window - 1`).
    shift: Vec<usize>,
    /// For each trigger byte, the patterns whose `window - 1` byte it is —
    /// the only candidates that can match at the current alignment.
    tail: Vec<Vec<u32>>,
    /// Longest pattern length (straddle width for windowed scans).
    max_len: usize,
    /// The most leading zero bytes of any pattern: how far before a
    /// non-zero page a match can start. `None` when some pattern is all
    /// zeros, which can match anywhere in zero memory.
    zero_lead: Option<usize>,
    /// Worker threads the span walk splits a scan's bytes across (>= 1).
    threads: usize,
}

/// Splits ascending, disjoint byte spans into at most `shards` groups of
/// near-equal total length (sizes differ by at most one byte), cutting
/// inside a span where a group boundary lands; empty spans are dropped.
/// The groups keep the spans' order, so concatenating their hits keeps the
/// serial hit order. Deterministic in `spans` and `shards` alone: the split
/// never depends on thread scheduling.
fn shard_spans(spans: &[(usize, usize)], shards: usize) -> Vec<Vec<(usize, usize)>> {
    let total: usize = spans.iter().map(|&(lo, hi)| hi - lo).sum();
    let shards = shards.clamp(1, total.max(1));
    let size = |i: usize| total / shards + usize::from(i < total % shards);
    let mut groups = vec![Vec::new()];
    let mut room = size(0);
    for &(mut lo, hi) in spans {
        while lo < hi {
            if room == 0 {
                groups.push(Vec::new());
                room = size(groups.len() - 1);
            }
            let take = room.min(hi - lo);
            let group = groups.last_mut().expect("one group at least");
            group.push((lo, lo + take));
            lo += take;
            room -= take;
        }
    }
    groups
}

/// The patterns are the key material being hunted, so `{:?}` stops at a count.
impl core::fmt::Debug for Scanner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let count = self.patterns.len();
        write!(f, "Scanner({count} patterns, <redacted>)")
    }
}

impl Scanner {
    /// Builds a scanner for arbitrary patterns.
    ///
    /// # Panics
    ///
    /// Panics when `patterns` is empty.
    #[must_use]
    pub fn new(patterns: Vec<Pattern>) -> Self {
        assert!(!patterns.is_empty(), "scanner needs at least one pattern");
        let window = patterns.iter().map(|p| p.bytes.len()).min().expect("non-empty");
        let max_len = patterns.iter().map(|p| p.bytes.len()).max().expect("non-empty");
        let mut shift = vec![window; 256];
        for p in &patterns {
            for (j, &b) in p.bytes[..window].iter().enumerate() {
                shift[b as usize] = shift[b as usize].min(window - 1 - j);
            }
        }
        let mut tail = vec![Vec::new(); 256];
        for (i, p) in patterns.iter().enumerate() {
            tail[p.bytes[window - 1] as usize].push(i as u32);
        }
        let zero_lead = patterns.iter().try_fold(0, |lead: usize, p| {
            p.bytes.iter().position(|&b| b != 0).map(|n| lead.max(n))
        });
        Self {
            patterns,
            window,
            shift,
            tail,
            max_len,
            zero_lead,
            threads: 1,
        }
    }

    /// The same scanner with its scans split across `threads` OS threads
    /// (clamped to at least 1). Only wall-clock changes: every result is
    /// bit-identical at any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builds the paper's standard scanner over `(d, p, q, pem)`.
    #[must_use]
    pub fn from_material(material: &KeyMaterial) -> Self {
        Self::new(material.patterns().iter().map(Pattern::clone_secret).collect())
    }

    /// The patterns being searched for.
    #[must_use]
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// A fresh scanner over audited copies of the same patterns, with the
    /// same thread count — the only way to duplicate one (patterns are
    /// deliberately not `Clone`).
    #[must_use]
    pub fn fork(&self) -> Self {
        Self::new(self.patterns.iter().map(Pattern::clone_secret).collect())
            .with_threads(self.threads)
    }

    /// Length of the longest pattern — how far a match starting in one page
    /// can reach into the next, i.e. the straddle width windowed scans need.
    #[must_use]
    pub fn max_pattern_len(&self) -> usize {
        self.max_len
    }

    /// The public label of pattern `pi` (`"d"`, `"p"`, `"q"`, `"pem"`).
    /// Hit types carry only the index; resolve names here at report time.
    ///
    /// # Panics
    ///
    /// Panics when `pi` is out of range.
    #[must_use]
    pub fn pattern_name(&self, pi: usize) -> &str {
        &self.patterns[pi].name
    }

    /// The allocation-free match core every scan shares: the Horspool skip
    /// walk (see the type docs). Invokes `on_hit(pattern_index, offset)`
    /// for every full match, in ascending offset order (ties in ascending
    /// pattern order), until the callback returns `false`.
    fn for_each_match(&self, haystack: &[u8], mut on_hit: impl FnMut(usize, usize) -> bool) {
        let w = self.window;
        let mut pos = w - 1; // index of the current window's last byte
        while pos < haystack.len() {
            let b = haystack[pos];
            let s = self.shift[b as usize];
            if s == 0 {
                if !self.verify_at(haystack, pos + 1 - w, b, &mut on_hit) {
                    return;
                }
                pos += 1;
            } else {
                pos += s;
            }
        }
    }

    /// Verifies the candidate patterns whose window-end byte is `b` against
    /// `haystack[start..]`. Returns `false` when the callback stops the scan.
    #[inline]
    fn verify_at(
        &self,
        haystack: &[u8],
        start: usize,
        b: u8,
        on_hit: &mut impl FnMut(usize, usize) -> bool,
    ) -> bool {
        for &pi in &self.tail[b as usize] {
            let pat = &self.patterns[pi as usize].bytes;
            if haystack.len() - start >= pat.len()
                && &haystack[start..start + pat.len()] == pat.as_slice()
                && !on_hit(pi as usize, start)
            {
                return false;
            }
        }
        true
    }

    /// Calls `on_hit(pattern_index, offset)` for every match that starts
    /// inside one of the ascending, disjoint `spans` of `haystack`, in
    /// ascending offset order, until the callback returns `false`. Returns
    /// whether the walk ran to the end.
    ///
    /// This is the straddle rule every scan rests on: a match starting in a
    /// span may run up to `max_len - 1` bytes past its end, so each span is
    /// scanned that far beyond it and keeps only the matches that start
    /// inside it. A later start belongs to the next span, whose own window
    /// finds it, so cutting a haystack into spans anywhere loses and
    /// duplicates nothing.
    fn walk(
        &self,
        haystack: &[u8],
        spans: impl IntoIterator<Item = (usize, usize)>,
        mut on_hit: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        spans.into_iter().all(|(lo, hi)| {
            let end = (hi + self.max_len - 1).min(haystack.len());
            let mut go_on = true;
            self.for_each_match(&haystack[lo..end], |pi, off| {
                // Offsets ascend, so the first start at or past `hi` ends
                // this span's work.
                if off >= hi - lo {
                    return false;
                }
                go_on = on_hit(pi, lo + off);
                go_on
            });
            go_on
        })
    }

    /// Every match starting inside `spans`, in ascending order: the span
    /// walk with its bytes split by [`shard_spans`] across the scanner's
    /// threads, and the groups' hits concatenated in span order.
    pub(crate) fn scan_spans(
        &self,
        haystack: &[u8],
        spans: impl IntoIterator<Item = (usize, usize)>,
    ) -> Vec<RawHit> {
        let scan_group = |group: &[(usize, usize)]| {
            let mut hits = Vec::new();
            self.walk(haystack, group.iter().copied(), |pattern, offset| {
                hits.push(RawHit { pattern, offset });
                true
            });
            hits
        };
        let groups = shard_spans(&spans.into_iter().collect::<Vec<_>>(), self.threads);
        if let [group] = groups.as_slice() {
            return scan_group(group);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .map(|group| scope.spawn(move || scan_group(group)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("scan shard panicked"))
                .collect()
        })
    }

    /// The ascending, disjoint byte spans inside the page range `pages`
    /// of a `len`-byte haystack where a match can start, built lazily from
    /// `page_live(p)`, which says whether page `p` may hold a non-zero
    /// byte: each run of such pages, widened backwards by the most leading
    /// zero bytes of any pattern, clamped to the previous span's end (or
    /// the range's start) and cut at the range's end. A match's first
    /// non-zero byte lies in a live page, and at most that many zeros come
    /// before it; its trailing zeros are the span walk's straddle reach
    /// past each span's end. So the pages those zeros reach past the range
    /// are tested too: a match starting inside the range may have its first
    /// non-zero byte there. With an all-zero pattern every page is live.
    ///
    /// A span is yielded once the page after its run has been tested, so a
    /// walk that stops inside it tests no later page.
    pub(crate) fn live_spans(
        &self,
        pages: Range<usize>,
        len: usize,
        mut page_live: impl FnMut(usize) -> bool,
    ) -> impl Iterator<Item = (usize, usize)> {
        let lead = self.zero_lead;
        let reach = lead.map_or(0, |lead| lead.div_ceil(PAGE_SIZE));
        let stop = len.min(pages.end * PAGE_SIZE);
        let mut end = pages.start * PAGE_SIZE;
        let mut pages = (pages.start..len.div_ceil(PAGE_SIZE).min(pages.end + reach))
            .map(move |p| (p, lead.is_none() || page_live(p)));
        let lead = lead.unwrap_or(0);
        std::iter::from_fn(move || {
            let (first, _) = pages.find(|&(_, live)| live)?;
            let lo = (first * PAGE_SIZE).saturating_sub(lead).max(end);
            end = pages
                .find(|&(_, live)| !live)
                .map_or(stop, |(p, _)| stop.min(p * PAGE_SIZE));
            (lo < end).then_some((lo, end))
        })
    }

    /// [`Self::live_spans`] of a dump, from its page source
    /// ([`Dump::page_live`]).
    fn dump_spans<'a, D: Dump + ?Sized>(
        &self,
        dump: &'a D,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let len = dump.bytes().len();
        self.live_spans(0..len.div_ceil(PAGE_SIZE), len, |p| dump.page_live(p))
    }

    /// [`Self::live_spans`] of a machine's physical memory inside the
    /// frame range `frames`, whose frames are live unless known to be zero
    /// ([`Kernel::frame_known_zero`]).
    pub(crate) fn kernel_spans<'k>(
        &self,
        kernel: &'k Kernel,
        frames: Range<usize>,
    ) -> impl Iterator<Item = (usize, usize)> + 'k {
        self.live_spans(frames, kernel.phys().len(), |f| {
            !kernel.frame_known_zero(FrameId(f))
        })
    }

    /// Scans an arbitrary byte dump (an attacker's USB capture, a memory
    /// dump, swap contents, a cold-boot [`memsim::Snapshot`]) and returns
    /// every match. All-zero pages are left out, apart from the leading
    /// zeros a match may carry into them: a plain dump's pages are tested,
    /// and a snapshot's known-zero frames are not read at all.
    #[must_use]
    pub fn scan_bytes<D: Dump + ?Sized>(&self, haystack: &D) -> Vec<RawHit> {
        self.scan_spans(haystack.bytes(), self.dump_spans(haystack))
    }

    /// Reference oracle: the obvious per-offset, per-pattern comparison the
    /// paper's LKM performs. Kept public so differential tests (and anyone
    /// doubting the fast scans) can check the skip walk, the span builder
    /// and the span walk at any thread count against it.
    #[must_use]
    pub fn scan_bytes_naive(&self, haystack: &[u8]) -> Vec<RawHit> {
        let mut hits = Vec::new();
        for offset in 0..haystack.len() {
            for (pi, p) in self.patterns.iter().enumerate() {
                let pat = &p.bytes;
                if haystack.len() - offset >= pat.len()
                    && &haystack[offset..offset + pat.len()] == pat.as_slice()
                {
                    hits.push(RawHit { pattern: pi, offset });
                }
            }
        }
        hits
    }

    /// Number of full matches in a byte dump: the length of
    /// [`Self::scan_bytes`].
    #[must_use]
    pub fn count_matches<D: Dump + ?Sized>(&self, haystack: &D) -> usize {
        self.scan_bytes(haystack).len()
    }

    /// Scans for full *and partial* prefix matches of at least `min_len`
    /// bytes, the way the paper's LKM reports "Partial match found" for runs
    /// of at least `MIN = 5` machine words (20 bytes). Partial matches
    /// matter because a truncated key fragment (e.g. a copy cut by a page
    /// boundary or an overwrite) still narrows an attacker's search space.
    ///
    /// Full matches are reported with `matched_len == pattern length`. A
    /// *run* of overlapping partial prefixes (a self-overlapping pattern
    /// sliding over repetitive memory — all-zero or `0xAA`-filled frames)
    /// reports only the run head: the offset where the previous offset's
    /// prefix was below threshold. Interior offsets of such a run carry no
    /// information an attacker doesn't already have from the head, and
    /// reporting them all is what made this path O(n·m) with an O(n·m)-sized
    /// result. Per-offset work is O(1) amortized (Z-algorithm matching
    /// statistics), so pathological memory costs the same as random memory.
    ///
    /// # Panics
    ///
    /// Panics when `min_len` is zero.
    #[must_use]
    pub fn scan_bytes_partial(&self, haystack: &[u8], min_len: usize) -> Vec<PartialHit> {
        assert!(min_len > 0, "min_len must be positive");
        let mut hits = Vec::new();
        let n = haystack.len();
        for (pi, p) in self.patterns.iter().enumerate() {
            let pat = &p.bytes;
            let clamp = min_len.min(pat.len());
            let z = z_array(pat);
            // Stream the matching statistic ms(i) = lcp(pat, haystack[i..])
            // left to right, carrying the rightmost match interval [l, r).
            let (mut l, mut r) = (0usize, 0usize);
            let mut prev_ms = 0usize;
            for i in 0..n {
                let ms;
                if i < r && (z[i - l] as usize) < r - i {
                    // Entirely inside the known interval: copy the Z value.
                    ms = z[i - l] as usize;
                } else {
                    // Extend an explicit comparison from the interval edge.
                    let mut k = if i < r { r - i } else { 0 };
                    while k < pat.len() && i + k < n && haystack[i + k] == pat[k] {
                        k += 1;
                    }
                    ms = k;
                    if i + k > r {
                        l = i;
                        r = i + k;
                    }
                }
                let full = ms == pat.len();
                if ms >= clamp && (full || prev_ms < clamp) {
                    hits.push(PartialHit {
                        pattern: pi,
                        offset: i,
                        matched_len: ms,
                        full,
                    });
                }
                prev_ms = ms;
            }
        }
        hits.sort_by_key(|h| (h.offset, h.pattern));
        hits
    }

    /// Whether a dump contains at least one full key copy — "attack success"
    /// in the paper's experiments. A serial walk over the same spans as
    /// [`Self::scan_bytes`] that stops at the first hit without allocating,
    /// and without testing the pages after the one that closes its span.
    #[must_use]
    pub fn dump_compromises_key<D: Dump + ?Sized>(&self, haystack: &D) -> bool {
        !self.walk(haystack.bytes(), self.dump_spans(haystack), |_, _| false)
    }

    /// Renders a report in the exact format the paper's LKM wrote to its
    /// `/proc` entry:
    ///
    /// ```text
    /// Full match found for q of size 64 bytes at: 000123456, in page: 000030, processes: 12 14
    /// ```
    ///
    /// Kernel-owned and page-cache pages print `0` (the LKM's convention for
    /// "the kernel"); free pages with no owner print `none`.
    #[must_use]
    pub fn proc_report(&self, report: &ScanReport) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("Request recieved\n"); // sic — the LKM's spelling
        for h in report.hits() {
            let size = self.patterns[h.pattern].bytes.len();
            let _ = write!(
                out,
                "Full match found for {} of size {} bytes at: {:09}, in page: {:06}, processes:",
                h.name, size, h.offset, h.frame.0
            );
            if h.owners.is_empty() {
                if h.allocated {
                    out.push_str(" 0");
                } else {
                    out.push_str(" none");
                }
            } else {
                for p in &h.owners {
                    let _ = write!(out, " {}", p.0);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Scans the simulated machine's physical memory, attributing each
    /// match to its frame, owners, and allocation state — the full
    /// `scanmemory` experience. A match straddling two frames is attributed
    /// to the frame holding its first byte. Frames known to be zero are
    /// not read, apart from the leading zeros a match may carry into them.
    #[must_use]
    pub fn scan_kernel(&self, kernel: &Kernel) -> ScanReport {
        let spans = self.kernel_spans(kernel, 0..kernel.num_frames());
        let hits = self
            .scan_spans(kernel.phys(), spans)
            .into_iter()
            .map(|r| {
                let view = kernel.frame_view(FrameId(r.offset / PAGE_SIZE));
                self.key_hit(r.pattern, r.offset, view)
            })
            .collect();
        ScanReport {
            hits,
            num_patterns: self.patterns.len(),
        }
    }

    /// The hit of pattern `pattern` at physical offset `offset`, attributed
    /// from `view`, the [`Kernel::frame_view`] of the frame holding its
    /// first byte.
    pub(crate) fn key_hit(&self, pattern: usize, offset: usize, view: FrameView) -> KeyHit {
        KeyHit {
            pattern,
            // keylint: allow(S005) -- the pattern *name* ("d", "pem") is a public label, not key bytes
            name: self.patterns[pattern].name.clone(),
            offset,
            frame: FrameId(offset / PAGE_SIZE),
            state: view.state,
            allocated: view.state != FrameState::Free,
            owners: view.owners,
        }
    }

    /// [`Self::scan_kernel`] on a fork with `threads` workers, for the
    /// benchmark package's attack-matrix replica
    /// (`benchmark/src/workloads/attack_matrix.rs`), which calls it.
    #[doc(hidden)]
    #[must_use]
    pub fn scan_kernel_sharded(&self, kernel: &Kernel, threads: usize) -> ScanReport {
        self.fork().with_threads(threads).scan_kernel(kernel)
    }
}

/// Z-array of `s`: `z[i]` = length of the longest common prefix of `s` and
/// `s[i..]`, with `z[0] = s.len()`. O(len) time.
fn z_array(s: &[u8]) -> Vec<u32> {
    let n = s.len();
    let mut z = vec![0u32; n];
    z[0] = n as u32;
    let (mut l, mut r) = (0usize, 0usize);
    for i in 1..n {
        let mut k = if i < r { (z[i - l] as usize).min(r - i) } else { 0 };
        while i + k < n && s[k] == s[i + k] {
            k += 1;
        }
        z[i] = k as u32;
        if i + k > r {
            l = i;
            r = i + k;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(name: &str, bytes: &[u8]) -> Pattern {
        Pattern::new(name, bytes.to_vec())
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn empty_scanner_rejected() {
        let _ = Scanner::new(vec![]);
    }

    #[test]
    fn finds_single_pattern() {
        let s = Scanner::new(vec![pat("a", b"SECRETKEY")]);
        let hay = [b"xxxx".as_ref(), b"SECRETKEY", b"yy"].concat();
        let hits = s.scan_bytes(&hay);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].offset, 4);
        assert_eq!(s.pattern_name(hits[0].pattern), "a");
    }

    #[test]
    fn finds_multiple_occurrences() {
        let s = Scanner::new(vec![pat("a", b"ABCDEFGH")]);
        let hay = [b"ABCDEFGH".as_ref(), b"..", b"ABCDEFGH"].concat();
        assert_eq!(s.count_matches(&hay), 2);
    }

    #[test]
    fn finds_overlapping_occurrences() {
        let s = Scanner::new(vec![pat("a", b"AAAAAAAA")]);
        let hay = vec![b'A'; 10];
        // Positions 0, 1, 2 all match.
        assert_eq!(s.count_matches(&hay), 3);
    }

    #[test]
    fn distinguishes_patterns_with_shared_prefix() {
        let s = Scanner::new(vec![pat("x", b"PREFIX_ONE"), pat("y", b"PREFIX_TWO")]);
        let hay = b"..PREFIX_TWO..PREFIX_ONE..".to_vec();
        let hits = s.scan_bytes(&hay);
        assert_eq!(hits.len(), 2);
        assert_eq!(s.pattern_name(hits[0].pattern), "y");
        assert_eq!(s.pattern_name(hits[1].pattern), "x");
    }

    #[test]
    fn no_false_positive_on_partial_match() {
        let s = Scanner::new(vec![pat("a", b"SECRETKEY")]);
        assert_eq!(s.count_matches(b"SECRETKE"), 0);
        assert_eq!(s.count_matches(b"SECRETKExxxxxxx"), 0);
        assert_eq!(s.count_matches(b""), 0);
    }

    #[test]
    fn match_at_very_end() {
        let s = Scanner::new(vec![pat("a", b"TAILBYTE")]);
        let hay = [b"pad".as_ref(), b"TAILBYTE"].concat();
        let hits = s.scan_bytes(&hay);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].offset, 3);
    }

    #[test]
    fn dump_compromise_short_circuit_agrees_with_count() {
        let s = Scanner::new(vec![pat("a", b"NEEDLE__")]);
        assert!(!s.dump_compromises_key(b"nothing here"));
        assert!(s.dump_compromises_key(b"...NEEDLE__..."));
    }

    #[test]
    fn partial_scan_reports_truncated_prefixes() {
        let s = Scanner::new(vec![pat("k", b"ABCDEFGHIJKLMNOP")]); // 16 bytes
        // Full copy plus a 10-byte truncated prefix.
        let hay = [b"..".as_ref(), b"ABCDEFGHIJKLMNOP", b"..", b"ABCDEFGHIJ", b"zz"].concat();
        let hits = s.scan_bytes_partial(&hay, 8);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].full);
        assert_eq!(hits[0].matched_len, 16);
        assert!(!hits[1].full);
        assert_eq!(hits[1].matched_len, 10);
        // A 4-byte fragment stays below the threshold.
        let hits = s.scan_bytes_partial(b"..ABCD..", 8);
        assert!(hits.is_empty());
    }

    #[test]
    fn partial_scan_handles_prefix_cut_by_end_of_dump() {
        let s = Scanner::new(vec![pat("k", b"ABCDEFGHIJKLMNOP")]);
        let hay = b"....ABCDEFGHIJ"; // dump truncates mid-pattern
        let hits = s.scan_bytes_partial(hay, 8);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].matched_len, 10);
        assert!(!hits[0].full);
    }

    #[test]
    fn partial_scan_full_matches_agree_with_scan_bytes() {
        let s = Scanner::new(vec![pat("k", b"NEEDLE__")]);
        let hay = [b"NEEDLE__".as_ref(), b"..", b"NEEDLE__"].concat();
        let full: Vec<usize> = s
            .scan_bytes_partial(&hay, 8)
            .into_iter()
            .filter(|h| h.full)
            .map(|h| h.offset)
            .collect();
        let direct: Vec<usize> = s.scan_bytes(&hay).into_iter().map(|h| h.offset).collect();
        assert_eq!(full, direct);
    }

    #[test]
    #[should_panic(expected = "min_len must be positive")]
    fn partial_scan_zero_min_rejected() {
        let s = Scanner::new(vec![pat("k", b"NEEDLE__")]);
        let _ = s.scan_bytes_partial(b"x", 0);
    }

    /// Random ascending span lists over `0..len`: consecutive cuts become
    /// spans or gaps, repeated cuts make empty spans, a cut pair `c, c + 1`
    /// makes a one-byte span, and a cut at `len` ends a span flush with the
    /// haystack.
    fn random_spans(rng: &mut simrng::Rng64, len: usize) -> Vec<(usize, usize)> {
        let mut cuts: Vec<usize> = (0..rng.gen_index(10))
            .map(|_| rng.gen_index(len + 1))
            .collect();
        for _ in 0..rng.gen_index(3) {
            let c = rng.gen_index(len);
            cuts.extend([c, c + 1]);
        }
        if rng.gen_bool(0.5) {
            cuts.push(len);
        }
        cuts.push(0);
        cuts.sort_unstable();
        cuts.windows(2)
            .filter(|_| rng.gen_bool(0.75))
            .map(|w| (w[0], w[1]))
            .collect()
    }

    #[test]
    fn shard_spans_partition_the_range() {
        let mut rng = simrng::Rng64::new(0x5A4D);
        let mut lists = vec![
            vec![],
            vec![(0, 0)],
            vec![(0, 1)],
            vec![(0, 12345)],
            vec![(3, 3), (7, 9)],
        ];
        for _ in 0..200 {
            let len = 1 + rng.gen_index(5000);
            lists.push(random_spans(&mut rng, len));
        }
        for spans in &lists {
            let total: usize = spans.iter().map(|&(lo, hi)| hi - lo).sum();
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let groups = shard_spans(spans, shards);
                assert!(!groups.is_empty() && groups.len() <= shards.max(1));
                assert_eq!(
                    groups.len(),
                    shards.min(total).max(1),
                    "{spans:?} x{shards}"
                );
                // Near-equal: group sizes differ by at most one byte.
                let sizes: Vec<usize> = groups
                    .iter()
                    .map(|g| g.iter().map(|&(lo, hi)| hi - lo).sum())
                    .collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{spans:?} x{shards}: sizes {sizes:?}");
                // The pieces, in group order, are non-empty, ascending, and
                // glue back into exactly the non-empty input spans.
                let mut glued: Vec<(usize, usize)> = Vec::new();
                for &(lo, hi) in groups.iter().flatten() {
                    assert!(lo < hi, "empty piece in {groups:?}");
                    match glued.last_mut() {
                        Some(last)
                            if last.1 == lo && spans.iter().any(|s| s.0 < lo && lo < s.1) =>
                        {
                            last.1 = hi;
                        }
                        Some(last) => {
                            assert!(last.1 <= lo, "pieces out of order in {groups:?}");
                            glued.push((lo, hi));
                        }
                        None => glued.push((lo, hi)),
                    }
                }
                let nonempty: Vec<(usize, usize)> =
                    spans.iter().copied().filter(|&(lo, hi)| lo < hi).collect();
                assert_eq!(glued, nonempty, "x{shards}");
            }
        }
    }

    #[test]
    fn span_walk_matches_naive_oracle_on_random_span_lists() {
        // Random span lists through the span walk at 1, 2, 3 and 8 threads,
        // against the naive oracle filtered to matches that start inside the
        // spans. A copy is planted across every span edge and every thread
        // split, so the straddle rule is exercised at each cut.
        let mut rng = simrng::Rng64::new(0x5BA7);
        let mut seen = [0usize; 5]; // adjacent, gapped, empty, one-byte, flush
        for round in 0..150 {
            let alphabet = [2u64, 3, 251][round % 3];
            let mut draw =
                |n: usize| -> Vec<u8> { (0..n).map(|_| rng.gen_below(alphabet) as u8).collect() };
            let pats: Vec<Vec<u8>> = (0..1 + round % 3)
                .map(|i| draw(8 + (round * 7 + i) % 17))
                .collect();
            let scanner = Scanner::new(pats.iter().map(|p| pat("p", p)).collect());
            let len = 64 + rng.gen_index(1500);
            let mut hay: Vec<u8> = (0..len).map(|_| rng.gen_below(alphabet) as u8).collect();
            let spans = random_spans(&mut rng, len);

            let mut edges: Vec<usize> = spans.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
            for threads in [2usize, 3, 8] {
                edges.extend(
                    shard_spans(&spans, threads)
                        .iter()
                        .filter_map(|g| g.first())
                        .map(|p| p.0),
                );
            }
            for edge in edges {
                let p = &pats[rng.gen_index(pats.len())];
                let at = (edge + 1)
                    .saturating_sub(1 + rng.gen_index(p.len() - 1))
                    .min(len - p.len());
                hay[at..at + p.len()].copy_from_slice(p);
            }

            for w in spans.windows(2) {
                seen[usize::from(w[0].1 < w[1].0)] += 1;
            }
            seen[2] += spans.iter().filter(|&&(lo, hi)| lo == hi).count();
            seen[3] += spans.iter().filter(|&&(lo, hi)| hi == lo + 1).count();
            seen[4] += usize::from(spans.last().is_some_and(|s| s.1 == len));

            let oracle: Vec<RawHit> = scanner
                .scan_bytes_naive(&hay)
                .into_iter()
                .filter(|h| {
                    spans
                        .iter()
                        .any(|&(lo, hi)| lo <= h.offset && h.offset < hi)
                })
                .collect();
            for threads in [1usize, 2, 3, 8] {
                let threaded = scanner.fork().with_threads(threads);
                assert_eq!(
                    threaded.scan_spans(&hay, spans.iter().copied()),
                    oracle,
                    "round {round} x{threads}: {spans:?}"
                );
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "span kinds seen: {seen:?}");
    }

    #[test]
    fn skip_walk_agrees_with_naive_on_small_cases() {
        let s = Scanner::new(vec![pat("a", b"AAAAAAAA"), pat("b", b"ABABABAB")]);
        for hay in [
            vec![b'A'; 100],
            b"xxABABABABxxAAAAAAAAxx".to_vec(),
            vec![0u8; 300],
            b"short".to_vec(),
        ] {
            let oracle = s.scan_bytes_naive(&hay);
            // The whole haystack as one span, so all-zero pages reach the
            // skip walk too.
            assert_eq!(s.scan_spans(&hay, [(0, hay.len())]), oracle);
            assert_eq!(s.scan_bytes(&hay), oracle);
        }
    }

    #[test]
    fn a_dump_walk_stopped_by_a_hit_tests_no_page_past_its_span() {
        // Pages 0 and 2 are all zero, pages 1 and 3.. hold noise and the
        // hit is in page 1: its span closes at page 2, the last page the
        // builder may test. An all-zero dump tests every page and finds
        // nothing.
        let ps = PAGE_SIZE;
        let s = Scanner::new(vec![pat("k", b"\0\0NEEDLE")]);
        let mut dump = vec![0x5Au8; 8 * ps];
        dump[..ps].fill(0);
        dump[2 * ps..3 * ps].fill(0);
        dump[ps + 100..ps + 108].copy_from_slice(b"\0\0NEEDLE");
        for (dump, hit, last_tested) in [(dump, true, 2), (vec![0; 8 * ps + 7], false, 8)] {
            let mut tested = Vec::new();
            let mut page_test = |p: usize| {
                tested.push(p);
                dump.page_live(p)
            };
            let spans = s.live_spans(0..dump.len().div_ceil(ps), dump.len(), &mut page_test);
            assert_eq!(!s.walk(&dump, spans, |_, _| false), hit);
            assert_eq!(tested, (0..=last_tested).collect::<Vec<_>>());
            assert_eq!(s.dump_compromises_key(&dump), hit);
        }
    }

    /// The builder over a page range yields the spans of the whole
    /// haystack clipped to that range: what a rescan of a few frames must
    /// scan to find what a whole scan finds there.
    #[test]
    fn a_page_range_yields_the_whole_spans_clipped_to_it() {
        let ps = PAGE_SIZE;
        let len = 24 * ps - 100;
        let mut rng = simrng::Rng64::new(0x5BA5);
        let mut deep = vec![0; 5000];
        deep.extend_from_slice(b"NEEDLE");
        for needle in [
            &b"NEEDLE__"[..],
            b"\0\0\0NEEDLE",
            &deep,
            b"\0\0\0\0\0\0\0\0",
        ] {
            let s = Scanner::new(vec![pat("k", needle)]);
            for _ in 0..50 {
                let live: Vec<bool> = (0..24).map(|_| rng.gen_bool(0.4)).collect();
                let whole: Vec<_> = s.live_spans(0..24, len, |p| live[p]).collect();
                let a = rng.gen_index(24);
                let b = a + rng.gen_index(25 - a);
                let (lo, hi) = (a * ps, (b * ps).min(len));
                let clipped: Vec<_> = whole
                    .iter()
                    .map(|&(x, y)| (x.max(lo), y.min(hi)))
                    .filter(|&(x, y)| x < y)
                    .collect();
                let ranged: Vec<_> = s.live_spans(a..b, len, |p| live[p]).collect();
                assert_eq!(ranged, clipped, "pages {a}..{b} of {live:?}");
            }
        }
    }

    #[test]
    fn sharded_scan_is_bit_identical_to_serial() {
        let s = Scanner::new(vec![pat("a", b"NEEDLE__")]);
        let mut hay = vec![0u8; 10_000];
        // Plant copies everywhere, including straddling every 4-thread chunk
        // boundary (multiples of 2500) and ending flush with the haystack.
        for &at in &[0usize, 1000, 2496, 4996, 7496, 9992] {
            hay[at..at + 8].copy_from_slice(b"NEEDLE__");
        }
        let serial = s.scan_bytes(&hay);
        assert_eq!(serial.len(), 6);
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let threaded = s.fork().with_threads(threads);
            assert_eq!(threaded.scan_bytes(&hay), serial, "threads={threads}");
            assert_eq!(threaded.count_matches(&hay), serial.len());
        }
    }

    #[test]
    fn pattern_with_zero_trigger_byte_disables_zero_skip_correctly() {
        // Window-end byte 0x00: the skip walk verifies at every zero byte,
        // and the match ends in zero memory.
        let mut bytes = vec![1u8; 8];
        bytes[7] = 0;
        let s = Scanner::new(vec![pat("z", &bytes)]);
        let mut hay = vec![0u8; 600];
        hay[256..264].copy_from_slice(&[1, 1, 1, 1, 1, 1, 1, 0]);
        assert_eq!(s.scan_bytes(&hay), s.scan_bytes_naive(&hay));
        assert_eq!(s.count_matches(&hay), 1);
    }
}
