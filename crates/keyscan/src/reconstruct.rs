//! Partial-key reconstruction from noisy (cold-boot) memory dumps.
//!
//! The exact-pattern scanner in the crate root models the paper's attacker:
//! a byte-for-byte sweep that a single flipped bit defeats. This module
//! models the *stronger* attacker of the cold-boot literature
//! (Halderman et al., Heninger–Shacham): given a decayed physical image
//! whose 1-bits only ever decay to 0 (the ground-state assumption), every
//! surviving 1-bit is a *certain* bit of the original memory, and an RSA
//! private key can be rebuilt from far less than a full copy by exploiting
//! the arithmetic relations between its CRT components.
//!
//! The pipeline, all driven by public information (`n`, `e`) plus the dump:
//!
//! 1. **Candidate harvest** — propose `(d, p, q)` window triples from the
//!    two layouts the simulated victims actually produce: the page-aligned
//!    packed `SecureKeyRegion` image, and the bump-allocated heap chunks of
//!    a scattered `d2i_RSAPrivateKey` load (anchored on the `0xC3` filler
//!    the derived-CRT chunks carry). Every test a window must pass demands
//!    at least one surviving 1-bit per byte of a prime's length, so a
//!    window lying wholly in all-zero pages never passes: the harvest reads
//!    only windows that reach a page the dump's page source calls live (a
//!    plain dump's non-zero pages, a snapshot's frames not known to be
//!    zero).
//! 2. **k prefilter** — for `e·d = 1 + k·φ(n)`, the integer `k < e` also
//!    satisfies `d̃(k) = ⌊(1 + k(n+1))/e⌋ ≥ d` with `d̃(k) − d < p + q`,
//!    so the *top* bits of `d` equal the top bits of `d̃(k)`. One-sided
//!    comparison of a high window of the observed `d` against a
//!    precomputed table of all `e − 1` values `d̃(k)` eliminates junk
//!    candidates and pins `k` to a handful of values before any tree
//!    search runs. With `n + 1 = Q·e + R`, `d̃(k) = k·Q + ⌊(k·R + 1)/e⌋`,
//!    and the second term grows by 0 or 1 per step, so each table entry
//!    costs one bignum add of `Q` (or `Q + 1`).
//! 3. **Branch-and-bound** — Heninger–Shacham style LSB-up lifting of
//!    `(p, q, d)` simultaneously: `p·q ≡ n (mod 2^i)` determines each
//!    `q_i` from the chosen `p_i`, and `d ≡ e⁻¹(1 + k(n + 1 − p − q))
//!    (mod 2^i)` checks the decayed `d` image. Observed 1-bits force
//!    branches; observed 0-bits are uninformative (they may have decayed).
//! 4. **Exact verification** — a candidate survives only if `p·q = n`
//!    exactly and [`RsaPrivateKey::from_components`] accepts the tuple, so
//!    the reconstructor *never returns a wrong key*: above the decay
//!    threshold it reports failure (budget exhaustion), not garbage.

use crate::dump::Dump;
use bignum::BigUint;
use memsim::PAGE_SIZE;
use rsa_repro::{RsaPrivateKey, RsaPublicKey};

/// Heap chunks are 16-byte aligned (`memsim`'s `CHUNK_ALIGN`).
const CHUNK_ALIGN: usize = 16;

/// Filler byte the scattered loader writes into the dp/dq/qinv chunks.
const CRT_FILLER: u8 = 0xC3;

/// Search budgets and screening thresholds. The defaults are tuned so a
/// sub-second reconstruction succeeds comfortably below ~35% decay on the
/// experiment key sizes and fails *cleanly* (budget exhaustion) above.
#[derive(Debug, Clone)]
pub struct ReconstructConfig {
    /// Node budget for a single `(candidate, k)` branch-and-bound run.
    pub max_nodes_per_branch: usize,
    /// Aggregate node budget across the whole dump.
    pub max_total_nodes: usize,
    /// How many surviving `k` values to try per candidate, best first.
    pub max_k_candidates: usize,
    /// One-sided mismatches tolerated in the high-window `k` prefilter.
    pub k_conflict_tolerance: u32,
    /// Cap on harvested candidate triples per dump.
    pub max_candidates: usize,
}

impl Default for ReconstructConfig {
    fn default() -> Self {
        Self {
            max_nodes_per_branch: 200_000,
            max_total_nodes: 2_000_000,
            max_k_candidates: 8,
            k_conflict_tolerance: 3,
            max_candidates: 16_384,
        }
    }
}

/// What the reconstruction attempt did — enough to explain both success
/// and failure in experiment reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconstructStats {
    /// Candidate `(d, p, q)` window triples harvested from the dump.
    pub candidates: usize,
    /// `(candidate, k)` pairs that survived the high-window prefilter.
    pub branches_tried: usize,
    /// Branch-and-bound nodes expanded in total.
    pub nodes_expanded: usize,
    /// Whether any budget cap cut the search short (the honest failure
    /// mode: the true path is never *pruned*, only priced out).
    pub truncated: bool,
}

/// Result of [`reconstruct`]: the rebuilt key, if any, plus search stats.
pub struct Reconstruction {
    /// The recovered private key. `Some` is always *correct* (verified
    /// against `n` and `e`); `None` means the dump did not yield the key
    /// within budget.
    pub key: Option<RsaPrivateKey>,
    /// Search statistics.
    pub stats: ReconstructStats,
}

/// The key, if present, stays out of debug output.
impl core::fmt::Debug for Reconstruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let status = if self.key.is_some() { "<redacted>" } else { "none" };
        write!(f, "Reconstruction(key={status}, stats={:?})", self.stats)
    }
}

/// Component byte-image lengths implied by the public modulus: the limb
/// layout (`rsa_repro::material::limb_bytes`) stores `ceil(bits/64)` limbs
/// of 8 bytes each, and generated primes have exactly `⌈bit_len(n)/2⌉`
/// bits.
struct Layout {
    /// `bit_len(n)`.
    b: usize,
    /// Prime bit length `⌈b/2⌉`.
    h: usize,
    /// Byte length of the `d` image (usual case: full-width `d`).
    dl: usize,
    /// Byte length of the `p`/`q` images.
    pl: usize,
}

impl Layout {
    fn of(n: &BigUint) -> Self {
        let b = n.bit_len();
        let h = b.div_ceil(2);
        Self {
            b,
            h,
            dl: b.div_ceil(64) * 8,
            pl: h.div_ceil(64) * 8,
        }
    }
}

/// One proposed `(d, p, q)` byte-window triple, already lifted to bignums.
struct Candidate {
    obs_d: BigUint,
    obs_p: BigUint,
    obs_q: BigUint,
}

/// The `len` bytes at `off`, if the dump holds all of them.
fn window(dump: &[u8], off: usize, len: usize) -> Option<&[u8]> {
    dump.get(off..off.checked_add(len)?)
}

/// Reads `len` little-endian-limb bytes at `off` as a [`BigUint`].
fn window_biguint(dump: &[u8], off: usize, len: usize) -> Option<BigUint> {
    let limbs = window(dump, off, len)?
        .chunks(8)
        .map(|c| {
            let mut a = [0u8; 8];
            a[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(a)
        })
        .collect();
    Some(BigUint::from_limbs(limbs))
}

/// `bytes` as little-endian `u64` words, the last one zero-padded.
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let (whole, tail) = bytes.as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    whole
        .iter()
        .copied()
        .chain((!tail.is_empty()).then_some(last))
        .map(u64::from_le_bytes)
}

/// Number of 1-bits in `bytes`.
fn ones(bytes: &[u8]) -> usize {
    words(bytes).map(|w| w.count_ones() as usize).sum()
}

/// Truncates `x` to its low `bits` bits.
fn mask_bits(x: &BigUint, bits: usize) -> BigUint {
    let whole = bits / 64;
    let rem = bits % 64;
    let keep = whole + usize::from(rem != 0);
    let src = x.limbs();
    let mut limbs: Vec<u64> = src.iter().copied().take(keep).collect();
    if rem != 0 && limbs.len() == keep && src.len() >= keep {
        limbs[keep - 1] &= (1u64 << rem) - 1;
    }
    BigUint::from_limbs(limbs)
}

/// Bits `[lo, lo + w)` of the little-endian limbs `x` as a `u128` (LSB of
/// the result = bit `lo`). The window spans at most three limbs, so two
/// shifts take it out.
fn window_bits(x: &[u64], lo: usize, w: usize) -> u128 {
    debug_assert!(w <= 128);
    let limb = |i: usize| u128::from(x.get(i).copied().unwrap_or(0));
    let (i, s) = (lo / 64, lo % 64);
    let mut out = (limb(i) | (limb(i + 1) << 64)) >> s;
    if s != 0 {
        out |= limb(i + 2) << (128 - s);
    }
    if w < 128 {
        out &= (1 << w) - 1;
    }
    out
}

/// Does the decayed window at `off..off + len` look like a `0xC3`-filled
/// chunk? One-sided: every observed 1-bit must lie inside `0xC3`, and
/// enough 1-bits must survive to rule out zeroed/free memory. Tested a
/// `u64` word at a time.
fn is_filler(dump: &[u8], off: usize, len: usize) -> bool {
    const OUTSIDE: u64 = !u64::from_le_bytes([CRT_FILLER; 8]);
    let Some(bytes) = window(dump, off, len) else {
        return false;
    };
    let mut ones = 0;
    for w in words(bytes) {
        if w & OUTSIDE != 0 {
            return false;
        }
        ones += w.count_ones() as usize;
    }
    // A pristine chunk has 4 one-bits per byte; demand at least one per
    // byte on average so long runs of zeros never anchor a candidate.
    ones >= len
}

/// Which pages of the dump may hold a non-zero byte (the last page may be
/// short), by the page source of the dump scans ([`Dump::page_live`]).
fn live_pages<D: Dump + ?Sized>(dump: &D) -> Vec<bool> {
    (0..dump.bytes().len().div_ceil(PAGE_SIZE))
        .map(|p| dump.page_live(p))
        .collect()
}

/// Whether the `len`-byte window at `off` reaches a live page. A window
/// that does not, or that runs past the dump's end, holds no 1-bit the
/// harvest could use.
fn reaches_live(live: &[bool], off: usize, len: usize) -> bool {
    live.get(off / PAGE_SIZE..(off + len).div_ceil(PAGE_SIZE))
        .is_some_and(|pages| pages.contains(&true))
}

/// The chunk-aligned offsets whose `len`-byte window passes [`is_filler`],
/// ascending. The test needs `len` one-bits, so a window lying wholly in
/// all-zero pages never passes: only offsets whose window reaches a live
/// page are tried.
fn filler_anchors<'a>(
    dump: &'a [u8],
    live: &'a [bool],
    len: usize,
) -> impl Iterator<Item = usize> + 'a {
    // First offset not yet tried, so consecutive live pages try each
    // offset once.
    let mut next = 0;
    live.iter()
        .enumerate()
        .filter(|&(_, &live)| live)
        .flat_map(move |(page, _)| {
            // Windows starting up to `len − 1` bytes before the page reach it.
            let first = (page * PAGE_SIZE + 1)
                .saturating_sub(len)
                .max(next)
                .next_multiple_of(CHUNK_ALIGN);
            next = ((page + 1) * PAGE_SIZE).min(dump.len());
            (first..next).step_by(CHUNK_ALIGN)
        })
        .filter(move |&anchor| is_filler(dump, anchor, len))
}

/// Rounds a chunk size up to the heap allocator's alignment.
fn round_chunk(len: usize) -> usize {
    len.div_ceil(CHUNK_ALIGN) * CHUNK_ALIGN
}

/// Harvests candidate triples from both victim layouts.
///
/// *Region layout*: `SecureKeyRegion` packs `d ‖ p ‖ q ‖ …` from the start
/// of a page-aligned region, so every page offset proposes one triple
/// (two, when `d` may be one limb short of full width).
///
/// *Heap layout*: the scattered loader allocates `d, p, q, dp, dq, qinv`
/// back to back in a headerless 16-byte-aligned bump heap and fills the
/// three derived chunks with `0xC3`. A decayed filler pair (`dp` then
/// `dq`) anchors the walk back to `q`, `p`, and `d`.
///
/// The cheap byte tests run before any bignum is built. Every window test
/// demands `pl` one-bits, so a region window is read only when its `p`
/// window reaches a live page, and a heap anchor only when its `dp`
/// window does.
fn harvest<D: Dump + ?Sized>(dump: &D, layout: &Layout, cfg: &ReconstructConfig) -> Vec<Candidate> {
    let live = live_pages(dump);
    let dump = dump.bytes();
    let mut out = Vec::new();
    let d_lens = if layout.dl > 8 {
        vec![layout.dl, layout.dl - 8]
    } else {
        vec![layout.dl]
    };

    // Reject windows too sparse to be decayed key material: at decay rate
    // r the expected 1-bit density is (1 − r)/2, so even 75% decay keeps
    // ~12.5% of bits — one per byte. A window that reaches no live page
    // has none, and is not read.
    let dense = |off: usize| {
        reaches_live(&live, off, layout.pl)
            && window(dump, off, layout.pl).is_some_and(|w| ones(w) >= layout.pl)
    };
    let push = |out: &mut Vec<Candidate>, d_off: usize, dl: usize, p_off: usize, q_off: usize| {
        if !(dense(p_off) && dense(q_off)) {
            return;
        }
        let (Some(obs_d), Some(obs_p), Some(obs_q)) = (
            window_biguint(dump, d_off, dl),
            window_biguint(dump, p_off, layout.pl),
            window_biguint(dump, q_off, layout.pl),
        ) else {
            return;
        };
        out.push(Candidate { obs_d, obs_p, obs_q });
    };

    // Region layout: one window per page.
    for page in 0..dump.len() / PAGE_SIZE {
        let base = page * PAGE_SIZE;
        for &dl in &d_lens {
            push(&mut out, base, dl, base + dl, base + dl + layout.pl);
            if out.len() >= cfg.max_candidates {
                return out;
            }
        }
    }

    // Heap layout: anchor on the dp/dq filler chunks.
    let pc = round_chunk(layout.pl);
    for anchor in filler_anchors(dump, &live, layout.pl) {
        if !is_filler(dump, anchor + pc, layout.pl) {
            continue;
        }
        let Some(q_off) = anchor.checked_sub(pc) else {
            continue;
        };
        let Some(p_off) = q_off.checked_sub(pc) else {
            continue;
        };
        for &dl in &d_lens {
            let Some(d_off) = p_off.checked_sub(round_chunk(dl)) else {
                continue;
            };
            push(&mut out, d_off, dl, p_off, q_off);
            if out.len() >= cfg.max_candidates {
                return out;
            }
        }
    }
    out
}

/// The precomputed `k → top window of d̃(k)` table plus its geometry.
struct KTable {
    /// `windows[k - 1]` = bits `[lo, lo + w)` of `⌊(1 + k(n+1))/e⌋`.
    windows: Vec<u128>,
    lo: usize,
    w: usize,
}

impl KTable {
    /// Builds the table. The window sits well above bit `h + 1` (where
    /// `d̃(k) − d < p + q < 2^(h+1)` can disturb bits) so the true `k`
    /// scores zero conflicts except for a vanishingly rare borrow chain.
    ///
    /// With `n + 1 = Q·e + R`, `d̃(k) = k·Q + ⌊(k·R + 1)/e⌋`. The second
    /// term grows by 0 or 1 per step (`R < e`), so `d̃(k)` is `d̃(k − 1)`
    /// plus `Q` or `Q + 1`: one bignum add per `k`.
    fn build(n: &BigUint, e_u64: u64, layout: &Layout) -> Self {
        let lo = (layout.h + 40).min(layout.b.saturating_sub(16));
        let w = (layout.b - lo).min(128);
        let (quot, rem) = (n + &BigUint::one()).div_rem_u64(e_u64);
        let quot_plus_one = &quot + &BigUint::one();
        // d̃(0) = ⌊1/e⌋ = 0, and so is its small term.
        let mut dt = BigUint::zero();
        let mut prev_term = 0;
        let mut windows = Vec::with_capacity(e_u64 as usize - 1);
        for k in 1..e_u64 {
            let term = (k * rem + 1) / e_u64;
            debug_assert!(term - prev_term <= 1);
            dt.add_assign(if term > prev_term {
                &quot_plus_one
            } else {
                &quot
            });
            prev_term = term;
            windows.push(window_bits(dt.limbs(), lo, w));
        }
        Self { windows, lo, w }
    }

    /// Surviving `k` values for an observed `d` window, ordered by
    /// one-sided conflict count (observed 1 where `d̃` has 0).
    fn filter(&self, obs_d: &BigUint, cfg: &ReconstructConfig) -> Vec<u64> {
        let obs = window_bits(obs_d.limbs(), self.lo, self.w);
        // Too few surviving 1-bits make every k "consistent"; demand the
        // density a real decayed window keeps even at 75% decay.
        if obs.count_ones() < (self.w / 8) as u32 {
            return Vec::new();
        }
        // The default x86-64 target has no POPCNT, so a 128-bit count is two
        // 64-bit bit tricks. Nearly every k has tens of conflicts, too many
        // in the low half alone, so count the high half only for the rest.
        let tolerance = cfg.k_conflict_tolerance;
        let halves = |x: u128| (x as u64, (x >> 64) as u64);
        let (obs_low, obs_high) = halves(obs);
        let mut hits: Vec<(u32, u64)> = self
            .windows
            .iter()
            .enumerate()
            .filter_map(|(i, &dt)| {
                let (dt_low, dt_high) = halves(dt);
                let low = (obs_low & !dt_low).count_ones();
                if low > tolerance {
                    return None;
                }
                let conflicts = low + (obs_high & !dt_high).count_ones();
                (conflicts <= tolerance).then_some((conflicts, i as u64 + 1))
            })
            .collect();
        hits.sort_unstable();
        hits.truncate(cfg.max_k_candidates);
        hits.into_iter().map(|(_, k)| k).collect()
    }
}

/// One branch-and-bound run for a fixed `(candidate, k)`.
///
/// Returns `Ok(Some(key))` on verified success, `Ok(None)` when the tree
/// is exhausted without a solution, `Err(nodes)` when the node budget ran
/// out (`nodes` spent either way).
struct Search<'a> {
    n: &'a BigUint,
    e: &'a BigUint,
    /// `e⁻¹ mod 2^h` — masked down per level as needed.
    e_inv: BigUint,
    k: BigUint,
    obs_p: &'a BigUint,
    obs_q: &'a BigUint,
    obs_d: &'a BigUint,
    h: usize,
    nodes: usize,
    budget: usize,
}

impl Search<'_> {
    fn run(mut self) -> Result<(Option<RsaPrivateKey>, usize), usize> {
        // Both primes are odd: bit 0 of p, q (and of d, since e·d odd) is 1.
        let mut stack = vec![(BigUint::one(), BigUint::one(), 1usize)];
        while let Some((p, q, i)) = stack.pop() {
            if i == self.h {
                if let Some(key) = self.verify(&p, &q) {
                    return Ok((Some(key), self.nodes));
                }
                continue;
            }
            self.nodes += 1;
            if self.nodes > self.budget {
                return Err(self.nodes);
            }
            let m = i + 1;
            // p·q ≡ n (mod 2^i) holds by construction; the next bit of the
            // deficit decides the parity constraint p_i ⊕ q_i = t.
            let t = mask_bits(&(&p * &q), m) != mask_bits(self.n, m);
            // An observed 1 forces the bit; an observed 0 leaves it free.
            let p_choices: &[bool] = if self.obs_p.bit(i) { &[true] } else { &[false, true] };
            for &p_i in p_choices {
                let q_i = t ^ p_i;
                if self.obs_q.bit(i) && !q_i {
                    continue;
                }
                let mut np = p.clone();
                if p_i {
                    np.set_bit(i);
                }
                let mut nq = q.clone();
                if q_i {
                    nq.set_bit(i);
                }
                if self.obs_d.bit(i) && !self.d_bit(&np, &nq, m) {
                    continue;
                }
                stack.push((np, nq, i + 1));
            }
        }
        Ok((None, self.nodes))
    }

    /// Bit `m − 1` of `d ≡ e⁻¹·(1 + k·(n + 1 − p − q)) (mod 2^m)`.
    fn d_bit(&self, p: &BigUint, q: &BigUint, m: usize) -> bool {
        let modulus_bit = m; // working modulo 2^m
        let a = mask_bits(&(self.n + &BigUint::one()), modulus_bit);
        let s = mask_bits(&(p + q), modulus_bit);
        // a − s mod 2^m without signed arithmetic: add 2^m first.
        let mut pow2 = BigUint::zero();
        pow2.set_bit(modulus_bit);
        let phi_low = mask_bits(&(&(&a + &pow2) - &s), modulus_bit);
        let inner = &(&self.k * &phi_low) + &BigUint::one();
        let d_low = mask_bits(&(&self.e_inv * &inner), modulus_bit);
        d_low.bit(m - 1)
    }

    /// Exact final check: `p·q = n`, `d = (1 + kφ)/e` divides exactly, and
    /// the full component tuple satisfies the key equation.
    fn verify(&self, p: &BigUint, q: &BigUint) -> Option<RsaPrivateKey> {
        if p.is_one() || q.is_one() || &(p * q) != self.n {
            return None;
        }
        let one = BigUint::one();
        let phi = &(p - &one) * &(q - &one);
        let (d, rem) = (&(&self.k * &phi) + &one).div_rem(self.e);
        if !rem.is_zero() {
            return None;
        }
        // Match the generator's OpenSSL ordering (p > q).
        let (hi, lo) = if p > q { (p, q) } else { (q, p) };
        RsaPrivateKey::from_components(hi, lo, self.e, &d).ok()
    }
}

/// Attempts to rebuild the private key behind `public` from a decayed
/// physical memory image: plain bytes, or a [`memsim::Snapshot`], whose
/// known-zero frames the harvest does not read.
///
/// The returned key, when present, is exact — verified against `n` and the
/// key equation — so callers can treat `Some` as full compromise. `None`
/// with [`ReconstructStats::truncated`] set means the search was priced
/// out, the expected outcome above the decay threshold.
#[must_use]
pub fn reconstruct<D: Dump + ?Sized>(
    dump: &D,
    public: &RsaPublicKey,
    cfg: &ReconstructConfig,
) -> Reconstruction {
    let mut stats = ReconstructStats::default();
    let n = public.n();
    let layout = Layout::of(n);
    // k enumeration needs a small public exponent (the universal F4 case);
    // anything huge would need a different prefilter entirely.
    let Some(e_u64) = public.e().to_u64().filter(|&e| (3..=1 << 20).contains(&e)) else {
        stats.truncated = true;
        return Reconstruction { key: None, stats };
    };

    let candidates = harvest(dump, &layout, cfg);
    stats.candidates = candidates.len();
    if candidates.is_empty() {
        return Reconstruction { key: None, stats };
    }

    let ktable = KTable::build(n, e_u64, &layout);
    let mut pow2h = BigUint::zero();
    pow2h.set_bit(layout.h);
    let e_inv = public
        .e()
        .mod_inverse(&pow2h)
        .expect("e is odd, invertible mod 2^h");

    for cand in &candidates {
        for k in ktable.filter(&cand.obs_d, cfg) {
            if stats.nodes_expanded >= cfg.max_total_nodes {
                stats.truncated = true;
                return Reconstruction { key: None, stats };
            }
            stats.branches_tried += 1;
            let budget = cfg
                .max_nodes_per_branch
                .min(cfg.max_total_nodes - stats.nodes_expanded);
            let search = Search {
                n,
                e: public.e(),
                e_inv: e_inv.clone(),
                k: BigUint::from_u64(k),
                obs_p: &cand.obs_p,
                obs_q: &cand.obs_q,
                obs_d: &cand.obs_d,
                h: layout.h,
                nodes: 0,
                budget,
            };
            match search.run() {
                Ok((Some(key), nodes)) => {
                    stats.nodes_expanded += nodes;
                    return Reconstruction { key: Some(key), stats };
                }
                Ok((None, nodes)) => stats.nodes_expanded += nodes,
                Err(nodes) => {
                    stats.nodes_expanded += nodes;
                    stats.truncated = true;
                }
            }
        }
    }
    Reconstruction { key: None, stats }
}

/// The harvest, table build and k filter the fast paths above replaced,
/// kept as differential oracles for them.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Bits `[lo, lo + w)` of `x` as a `u128` (LSB of the result = bit `lo`).
    pub(super) fn window_u128(x: &BigUint, lo: usize, w: usize) -> u128 {
        debug_assert!(w <= 128);
        let mut out = 0u128;
        for j in 0..w {
            if x.bit(lo + j) {
                out |= 1u128 << j;
            }
        }
        out
    }

    /// Byte-at-a-time [`is_filler`](super::is_filler).
    pub(super) fn looks_like_filler(dump: &[u8], off: usize, len: usize) -> bool {
        let Some(bytes) = dump.get(off..off + len) else {
            return false;
        };
        let mut ones = 0u32;
        for &b in bytes {
            if b & !CRT_FILLER != 0 {
                return false;
            }
            ones += b.count_ones();
        }
        ones as usize >= len
    }

    /// [`harvest`](super::harvest) without the page skip or the byte
    /// tests: every chunk-aligned anchor, bignums first.
    pub(super) fn harvest(dump: &[u8], layout: &Layout, cfg: &ReconstructConfig) -> Vec<Candidate> {
        let mut out = Vec::new();
        let d_lens = if layout.dl > 8 {
            vec![layout.dl, layout.dl - 8]
        } else {
            vec![layout.dl]
        };

        let push =
            |out: &mut Vec<Candidate>, d_off: usize, dl: usize, p_off: usize, q_off: usize| {
                let (Some(obs_d), Some(obs_p), Some(obs_q)) = (
                    window_biguint(dump, d_off, dl),
                    window_biguint(dump, p_off, layout.pl),
                    window_biguint(dump, q_off, layout.pl),
                ) else {
                    return;
                };
                if count_ones(&obs_p) < layout.pl || count_ones(&obs_q) < layout.pl {
                    return;
                }
                out.push(Candidate {
                    obs_d,
                    obs_p,
                    obs_q,
                });
            };

        for page in 0..dump.len() / PAGE_SIZE {
            let base = page * PAGE_SIZE;
            for &dl in &d_lens {
                push(&mut out, base, dl, base + dl, base + dl + layout.pl);
                if out.len() >= cfg.max_candidates {
                    return out;
                }
            }
        }

        let pc = round_chunk(layout.pl);
        for anchor in (0..dump.len()).step_by(CHUNK_ALIGN) {
            if !looks_like_filler(dump, anchor, layout.pl)
                || !looks_like_filler(dump, anchor + pc, layout.pl)
            {
                continue;
            }
            let Some(q_off) = anchor.checked_sub(pc) else {
                continue;
            };
            let Some(p_off) = q_off.checked_sub(pc) else {
                continue;
            };
            for &dl in &d_lens {
                let Some(d_off) = p_off.checked_sub(round_chunk(dl)) else {
                    continue;
                };
                push(&mut out, d_off, dl, p_off, q_off);
                if out.len() >= cfg.max_candidates {
                    return out;
                }
            }
        }
        out
    }

    fn count_ones(x: &BigUint) -> usize {
        x.limbs().iter().map(|l| l.count_ones() as usize).sum()
    }

    /// [`KTable::filter`] counting all 128 bits of every entry.
    pub(super) fn filter_ktable(
        table: &KTable,
        obs_d: &BigUint,
        cfg: &ReconstructConfig,
    ) -> Vec<u64> {
        let obs = window_bits(obs_d.limbs(), table.lo, table.w);
        if obs.count_ones() < (table.w / 8) as u32 {
            return Vec::new();
        }
        let mut hits: Vec<(u32, u64)> = table
            .windows
            .iter()
            .enumerate()
            .filter_map(|(i, &dt)| {
                let conflicts = (obs & !dt).count_ones();
                (conflicts <= cfg.k_conflict_tolerance).then_some((conflicts, i as u64 + 1))
            })
            .collect();
        hits.sort_unstable();
        hits.truncate(cfg.max_k_candidates);
        hits.into_iter().map(|(_, k)| k).collect()
    }

    /// [`KTable::build`] by one multiply and one division per `k`.
    pub(super) fn build_ktable(n: &BigUint, e_u64: u64, layout: &Layout) -> KTable {
        let lo = (layout.h + 40).min(layout.b.saturating_sub(16));
        let w = (layout.b - lo).min(128);
        let n1 = n + &BigUint::one();
        let mut windows = Vec::with_capacity(e_u64 as usize - 1);
        for k in 1..e_u64 {
            let num = &n1.mul_u64(k) + &BigUint::one();
            let (dt, _) = num.div_rem_u64(e_u64);
            windows.push(window_u128(&dt, lo, w));
        }
        KTable { windows, lo, w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsa_repro::material::KeyMaterial;
    use simrng::Rng64;

    /// Writes `d ‖ p ‖ q` packed from `off`, as `SecureKeyRegion` does.
    fn plant_region_layout(dump: &mut [u8], mut off: usize, material: &KeyMaterial) {
        for part in [material.d_bytes(), material.p_bytes(), material.q_bytes()] {
            dump[off..off + part.len()].copy_from_slice(part);
            off += part.len();
        }
    }

    /// Writes the scattered loader's bump-heap image from the 16-aligned
    /// `off`: d, p, q, then the three `0xC3` chunks.
    fn plant_heap_layout(dump: &mut [u8], mut off: usize, material: &KeyMaterial) {
        for (bytes, filler) in [
            (material.d_bytes(), false),
            (material.p_bytes(), false),
            (material.q_bytes(), false),
            (material.p_bytes(), true),
            (material.q_bytes(), true),
            (material.q_bytes(), true),
        ] {
            if filler {
                dump[off..off + bytes.len()].fill(CRT_FILLER);
            } else {
                dump[off..off + bytes.len()].copy_from_slice(bytes);
            }
            off += round_chunk(bytes.len());
        }
    }

    fn dump_with_region_layout(key: &RsaPrivateKey, pad: usize) -> Vec<u8> {
        let mut dump = vec![0u8; pad * PAGE_SIZE];
        plant_region_layout(&mut dump, 2 * PAGE_SIZE, &KeyMaterial::from_key(key));
        dump
    }

    fn decay(dump: &mut [u8], rate: f64, seed: u64) {
        let mut rng = Rng64::new(seed);
        for b in dump.iter_mut() {
            for bit in 0..8 {
                if *b & (1 << bit) != 0 && rng.gen_bool(rate) {
                    *b &= !(1 << bit);
                }
            }
        }
    }

    #[test]
    fn recovers_from_pristine_region_dump() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(7));
        let dump = dump_with_region_layout(&key, 8);
        let rec = reconstruct(&dump, &key.public_key(), &ReconstructConfig::default());
        let got = rec.key.expect("pristine dump must reconstruct");
        assert_eq!(got.d(), key.d());
        assert_eq!(got.p(), key.p());
        assert_eq!(got.q(), key.q());
    }

    #[test]
    fn recovers_from_moderately_decayed_dump() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(8));
        let mut dump = dump_with_region_layout(&key, 8);
        decay(&mut dump, 0.25, 99);
        let rec = reconstruct(&dump, &key.public_key(), &ReconstructConfig::default());
        assert_eq!(rec.key.expect("25% decay is recoverable").d(), key.d());
    }

    #[test]
    fn heap_layout_with_filler_anchor_is_found() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(9));
        let mut dump = vec![0u8; 4 * PAGE_SIZE];
        // 16-aligned, not page-aligned.
        plant_heap_layout(&mut dump, PAGE_SIZE + 48, &KeyMaterial::from_key(&key));
        decay(&mut dump, 0.1, 5);
        let rec = reconstruct(&dump, &key.public_key(), &ReconstructConfig::default());
        assert_eq!(rec.key.expect("heap anchor must be found").n(), key.n());
    }

    #[test]
    fn heavy_decay_fails_cleanly_never_wrongly() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(10));
        let mut dump = dump_with_region_layout(&key, 8);
        decay(&mut dump, 0.9, 4);
        let cfg = ReconstructConfig {
            max_total_nodes: 50_000,
            ..ReconstructConfig::default()
        };
        let rec = reconstruct(&dump, &key.public_key(), &cfg);
        assert!(rec.key.is_none(), "90% decay must not reconstruct");
    }

    #[test]
    fn junk_dump_yields_nothing() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(11));
        let mut dump = vec![0u8; 8 * PAGE_SIZE];
        let mut rng = Rng64::new(3);
        rng.fill_bytes(&mut dump);
        let rec = reconstruct(&dump, &key.public_key(), &ReconstructConfig::default());
        assert!(rec.key.is_none());
    }

    /// 16 pages and a short 17th: both key layouts among decoys, with
    /// chunks and windows placed across page edges.
    fn page_edge_scene(material: &KeyMaterial, rng: &mut Rng64) -> Vec<u8> {
        let ps = PAGE_SIZE;
        let mut dump = vec![0u8; 16 * ps + 1000];
        let dp_at =
            round_chunk(material.d_bytes().len()) + 2 * round_chunk(material.p_bytes().len());
        // Page 1: the region layout at the page start.
        plant_region_layout(&mut dump, ps, material);
        // Page 3: dense noise, so every page offset proposes a window.
        rng.fill_bytes(&mut dump[3 * ps..4 * ps]);
        // Page 5: random bits inside 0xC3 only, so most anchors pass.
        for b in &mut dump[5 * ps..6 * ps] {
            *b = rng.next_u32() as u8 & CRT_FILLER;
        }
        // Pages 7–8: a heap image whose dp chunk crosses into page 8.
        plant_heap_layout(&mut dump, 8 * ps - 16 - dp_at, material);
        // Pages 9–10: a heap image whose p chunk crosses into page 10.
        let d_chunk = round_chunk(material.d_bytes().len());
        plant_heap_layout(&mut dump, 10 * ps - 16 - d_chunk, material);
        // Filler that starts in the last bytes of non-zero page 11 and ends
        // in all-zero page 12, and filler that starts in all-zero page 13
        // (as zeros) and ends in non-zero page 14.
        dump[12 * ps - 16..12 * ps].fill(CRT_FILLER);
        dump[14 * ps..14 * ps + 16].fill(CRT_FILLER);
        // The short last page: a heap image, and filler running off the end.
        plant_heap_layout(&mut dump, 16 * ps + 64, material);
        let end = dump.len();
        dump[end - 8..].fill(CRT_FILLER);
        dump
    }

    /// The fast harvest tries exactly the filler anchors the oracle's scan
    /// accepts, and returns the oracle's candidates in the oracle's order,
    /// also when the candidate cap cuts either layout's loop short.
    fn assert_harvest_matches_oracle(dump: &[u8], layout: &Layout, what: &str) {
        let anchors: Vec<usize> = filler_anchors(dump, &live_pages(dump), layout.pl).collect();
        let oracle_anchors: Vec<usize> = (0..dump.len())
            .step_by(CHUNK_ALIGN)
            .filter(|&a| oracle::looks_like_filler(dump, a, layout.pl))
            .collect();
        assert_eq!(anchors, oracle_anchors, "{what}: filler anchors");
        let all = oracle::harvest(dump, layout, &ReconstructConfig::default()).len();
        for max_candidates in [
            ReconstructConfig::default().max_candidates,
            3,
            all.max(2) - 1,
        ] {
            let cfg = ReconstructConfig {
                max_candidates,
                ..ReconstructConfig::default()
            };
            let fast = harvest(dump, layout, &cfg);
            let slow = oracle::harvest(dump, layout, &cfg);
            assert_eq!(
                fast.len(),
                slow.len(),
                "{what}, cap {max_candidates}: candidate count"
            );
            let first_difference = fast
                .iter()
                .zip(&slow)
                .position(|(f, s)| f.obs_d != s.obs_d || f.obs_p != s.obs_p || f.obs_q != s.obs_q);
            assert_eq!(first_difference, None, "{what}, cap {max_candidates}");
        }
    }

    #[test]
    fn harvest_matches_oracle_across_layouts_rates_and_key_sizes() {
        let ps = PAGE_SIZE;
        // 384 bits gives 24-byte primes, not a whole 16-byte chunk.
        for (bits, seed) in [(256, 31), (384, 32), (512, 33)] {
            let mut rng = Rng64::new(seed);
            let key = RsaPrivateKey::generate(bits, &mut rng);
            let layout = Layout::of(key.n());
            let scene = page_edge_scene(&KeyMaterial::from_key(&key), &mut rng);
            // The page-crossing filler windows anchor in the pristine scene
            // (a 16-byte window at a 16-aligned anchor crosses no page edge).
            let live = live_pages(&scene);
            assert!(!live[12] && !live[13] && live[11] && live[14]);
            let anchors: Vec<usize> = filler_anchors(&scene, &live, layout.pl).collect();
            if layout.pl > CHUNK_ALIGN {
                assert!(anchors.contains(&(12 * ps - 16)) && anchors.contains(&(14 * ps - 16)));
            }
            assert!(oracle::harvest(&scene, &layout, &ReconstructConfig::default()).len() > 8);
            for rate in [0.0, 0.02, 0.10, 0.25, 0.5] {
                let mut dump = scene.clone();
                decay(&mut dump, rate, seed ^ rate.to_bits());
                assert_harvest_matches_oracle(
                    &dump,
                    &layout,
                    &format!("RSA-{bits} at decay {rate}"),
                );
            }
        }
    }

    /// A random odd number of exactly `bits` bits.
    fn random_odd(bits: usize, rng: &mut Rng64) -> BigUint {
        let limbs = (0..bits.div_ceil(64)).map(|_| rng.next_u64()).collect();
        let mut n = mask_bits(&BigUint::from_limbs(limbs), bits);
        n.set_bit(bits - 1);
        n.set_bit(0);
        n
    }

    #[test]
    fn ktable_matches_oracle() {
        let mut rng = Rng64::new(0x6B7A_B1E5);
        // Below ~72 bits the window sits low enough for the ⌊(k·R + 1)/e⌋
        // term to reach it; at 256 and 512 bits `lo` is not limb-aligned.
        for bits in [24, 40, 72, 256, 384, 512] {
            let n = random_odd(bits, &mut rng);
            let layout = Layout::of(&n);
            for e in [3, 17, 65537] {
                let fast = KTable::build(&n, e, &layout);
                let slow = oracle::build_ktable(&n, e, &layout);
                assert_eq!(
                    (fast.lo, fast.w),
                    (slow.lo, slow.w),
                    "{bits}-bit n, e = {e}"
                );
                assert_eq!(fast.windows.len(), slow.windows.len());
                let first_difference = fast
                    .windows
                    .iter()
                    .zip(&slow.windows)
                    .position(|(f, s)| f != s);
                assert_eq!(
                    first_difference, None,
                    "{bits}-bit n, e = {e}: first differing k − 1"
                );
            }
        }
    }

    /// The filter that rejects on the low half first keeps the survivors,
    /// counts and order of the one that counts all 128 bits, at every
    /// tolerance from 0 to 6, for windows narrower than a half, between a
    /// half and 128 bits, and of 128 bits.
    #[test]
    fn ktable_filter_matches_the_count_only_oracle() {
        let mut rng = Rng64::new(0xF117);
        for w in [40, 88, 128] {
            let random = |rng: &mut Rng64| {
                let x = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                if w == 128 {
                    x
                } else {
                    x & ((1 << w) - 1)
                }
            };
            let table = KTable {
                windows: (0..4096).map(|_| random(&mut rng)).collect(),
                lo: 0,
                w,
            };
            // Observations that are table entries with a few bits decayed
            // and 0 to 6 bits added (so some k survive at each tolerance),
            // and random ones.
            let mut observed: Vec<u128> = Vec::new();
            for added in 0..=6 {
                let mut obs = table.windows[rng.gen_index(table.windows.len())];
                for _ in 0..3 {
                    obs &= !(1 << rng.gen_index(w));
                }
                for _ in 0..added {
                    obs |= 1 << rng.gen_index(w);
                }
                observed.push(obs);
            }
            observed.extend((0..8).map(|_| random(&mut rng)));
            let mut survivors = [0; 7];
            for obs in observed {
                let obs_d = BigUint::from_limbs(vec![obs as u64, (obs >> 64) as u64]);
                for k_conflict_tolerance in 0..=6 {
                    for max_k_candidates in [1, 8, usize::MAX] {
                        let cfg = ReconstructConfig {
                            k_conflict_tolerance,
                            max_k_candidates,
                            ..ReconstructConfig::default()
                        };
                        let got = table.filter(&obs_d, &cfg);
                        assert_eq!(
                            got,
                            oracle::filter_ktable(&table, &obs_d, &cfg),
                            "w {w}, tolerance {k_conflict_tolerance}, cap {max_k_candidates}"
                        );
                        survivors[k_conflict_tolerance as usize] += got.len();
                    }
                }
            }
            assert!(
                survivors.iter().all(|&n| n > 0),
                "w {w}: survivors {survivors:?}"
            );
        }
    }

    #[test]
    fn mask_and_window_helpers_agree_with_bit_access() {
        let x = BigUint::from_hex("F0F0F0F0F0F0F0F0AAAA5555DEADBEEF").unwrap();
        for bits in [1, 7, 64, 65, 100, 128, 200] {
            let m = mask_bits(&x, bits);
            for i in 0..bits.min(130) {
                assert_eq!(m.bit(i), x.bit(i), "bit {i} under mask {bits}");
            }
            assert!(m.bit_len() <= bits);
        }
        let w = oracle::window_u128(&x, 8, 16);
        for j in 0..16 {
            assert_eq!(w & (1 << j) != 0, x.bit(8 + j));
        }
        // The limb-shift window at the k-table's widths, on, beside and
        // across limb boundaries, and past the top limb.
        let y = BigUint::from_hex(concat!(
            "9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251",
            "F86C6A11D0C18E952767F0B153D27B7F0347045B5BF1827F",
        ))
        .unwrap();
        for w in [16, 88, 128] {
            for lo in [0, 1, 40, 63, 64, 65, 127, 168, 232, 296, 300, 400] {
                let got = window_bits(y.limbs(), lo, w);
                assert_eq!(got, oracle::window_u128(&y, lo, w), "lo {lo}, w {w}");
                for j in 0..128 {
                    assert_eq!(
                        (got >> j) & 1 == 1,
                        j < w && y.bit(lo + j),
                        "bit {j}, lo {lo}, w {w}"
                    );
                }
            }
        }
    }
}
