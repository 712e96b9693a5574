//! Differential property suite for the fast multi-pattern core: on random
//! haystacks with planted, truncated, and overlapping patterns, the
//! optimized skip-loop scan must agree exactly with the naive per-offset
//! oracle — hit for hit, in the same order.

use keyscan::Scanner;
use rsa_repro::material::Pattern;
use simrng::Rng64;

fn pat(name: &str, bytes: &[u8]) -> Pattern {
    Pattern::new(name, bytes.to_vec())
}

/// Random bytes drawn from a small alphabet, so pattern fragments collide
/// with the background often enough to exercise the verify path.
fn noisy_haystack(rng: &mut Rng64, len: usize, alphabet: u8) -> Vec<u8> {
    (0..len).map(|_| (rng.next_u64() % alphabet as u64) as u8).collect()
}

fn random_patterns(rng: &mut Rng64, alphabet: u8) -> Vec<Pattern> {
    let n = 1 + (rng.next_u64() % 4) as usize;
    (0..n)
        .map(|i| {
            let len = 8 + (rng.next_u64() % 25) as usize;
            let bytes = noisy_haystack(rng, len, alphabet);
            Pattern::new(&format!("p{i}"), bytes)
        })
        .collect()
}

#[test]
fn fuzz_scan_bytes_matches_naive_oracle() {
    let mut rng = Rng64::new(0xD1FF);
    for round in 0..200 {
        // Small alphabets make overlaps and near-misses common.
        let alphabet = [2u8, 3, 5, 251][round % 4];
        let pats = random_patterns(&mut rng, alphabet);
        let scanner = Scanner::new(pats.iter().map(Pattern::clone_secret).collect());
        let hay_len = 200 + (rng.next_u64() % 2000) as usize;
        let mut hay = noisy_haystack(&mut rng, hay_len, alphabet);
        // Plant full copies, truncated prefixes, and suffix fragments at
        // random positions (overwriting whatever is there).
        for _ in 0..(rng.next_u64() % 6) {
            let p = &pats[(rng.next_u64() % pats.len() as u64) as usize].bytes;
            let keep = match rng.next_u64() % 3 {
                0 => p.len(),                                  // full copy
                1 => 1 + (rng.next_u64() % p.len() as u64) as usize, // prefix
                _ => p.len() - (rng.next_u64() % p.len() as u64) as usize, // shorter full-ish
            };
            if hay.len() > keep {
                let at = (rng.next_u64() % (hay.len() - keep) as u64) as usize;
                hay[at..at + keep].copy_from_slice(&p[..keep]);
            }
        }
        let fast = scanner.scan_bytes(&hay);
        let naive = scanner.scan_bytes_naive(&hay);
        assert_eq!(fast, naive, "round {round}");
        assert_eq!(scanner.count_matches(&hay), naive.len(), "round {round}");
        assert_eq!(scanner.dump_compromises_key(&hay), !naive.is_empty(), "round {round}");
    }
}

#[test]
fn overlapping_and_self_overlapping_patterns_agree_with_oracle() {
    // Periodic patterns over periodic memory: the worst case for shift
    // tables (every byte is a trigger) and for missed-overlap bugs.
    let scanner = Scanner::new(vec![
        pat("aa", b"AAAAAAAA"),
        pat("ab", b"AAAAAAAB"),
        pat("ba", b"BAAAAAAA"),
    ]);
    let mut hay = vec![b'A'; 300];
    hay[100] = b'B';
    hay[250] = b'B';
    let fast = scanner.scan_bytes(&hay);
    let naive = scanner.scan_bytes_naive(&hay);
    assert_eq!(fast, naive);
    assert!(fast.len() > 200, "self-overlapping runs must all be reported");
}

#[test]
fn matches_straddling_chunk_ends_are_found() {
    // Patterns planted at every alignment near the start and end of the
    // haystack, where the skip loop's window arithmetic is most delicate.
    let p = b"EDGECASE";
    let scanner = Scanner::new(vec![pat("e", p)]);
    for at in [0usize, 1, 2, 7, 8] {
        let mut hay = vec![0u8; 64];
        hay[at..at + p.len()].copy_from_slice(p);
        assert_eq!(scanner.scan_bytes(&hay), scanner.scan_bytes_naive(&hay), "start {at}");
        assert_eq!(scanner.count_matches(&hay), 1, "start {at}");
    }
    for end_gap in 0usize..4 {
        let mut hay = vec![0u8; 64];
        let at = hay.len() - p.len() - end_gap;
        hay[at..at + p.len()].copy_from_slice(p);
        assert_eq!(scanner.count_matches(&hay), 1, "end gap {end_gap}");
    }
    // Haystack shorter than the window: no match, no panic.
    assert_eq!(scanner.count_matches(b"EDGE"), 0);
    assert_eq!(scanner.count_matches(b""), 0);
}

// ---------------------------------------------------------------------
// SWAR prefilter and threaded scans vs. the same oracle
// ---------------------------------------------------------------------

/// Thread counts the span walk is checked at: serial, even and odd splits,
/// and more threads than cores.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Both match cores — forced explicitly, bypassing the trigger-count
/// dispatch — plus every scan call at each of [`THREADS`], against naive.
fn assert_all_cores_agree(scanner: &Scanner, hay: &[u8], ctx: &str) {
    let naive = scanner.scan_bytes_naive(hay);
    assert_eq!(scanner.scan_bytes_swar(hay), naive, "swar vs naive: {ctx}");
    assert_eq!(
        scanner.scan_bytes_horspool(hay),
        naive,
        "horspool vs naive: {ctx}"
    );
    for threads in THREADS {
        let threaded = scanner.fork().with_threads(threads);
        assert_eq!(
            threaded.scan_bytes(hay),
            naive,
            "x{threads} vs naive: {ctx}"
        );
        assert_eq!(
            threaded.count_matches(hay),
            naive.len(),
            "count x{threads}: {ctx}"
        );
        assert_eq!(
            threaded.dump_compromises_key(hay),
            !naive.is_empty(),
            "dump x{threads}: {ctx}"
        );
    }
}

/// Where a scan at `threads` cuts `0..len`: group sizes differ by at most
/// one byte, the larger ones first.
fn thread_splits(len: usize, threads: usize) -> impl Iterator<Item = usize> {
    (1..threads.min(len)).map(move |i| i * (len / threads) + i.min(len % threads))
}

#[test]
fn fuzz_swar_and_sharded_match_naive_oracle() {
    let mut rng = Rng64::new(0x5AAE);
    for round in 0..120 {
        let alphabet = [2u8, 3, 5, 251][round % 4];
        let pats = random_patterns(&mut rng, alphabet);
        let scanner = Scanner::new(pats.iter().map(Pattern::clone_secret).collect());
        let hay_len = 200 + (rng.next_u64() % 3000) as usize;
        let mut hay = noisy_haystack(&mut rng, hay_len, alphabet);
        for _ in 0..(rng.next_u64() % 6) {
            let p = &pats[(rng.next_u64() % pats.len() as u64) as usize].bytes;
            if hay.len() > p.len() {
                let at = (rng.next_u64() % (hay.len() - p.len()) as u64) as usize;
                hay[at..at + p.len()].copy_from_slice(p);
            }
        }
        // A copy across every cut a threaded scan makes, so each split's
        // straddle window has a match to find.
        for threads in THREADS {
            for cut in thread_splits(hay_len, threads) {
                let p = &pats[(rng.next_u64() % pats.len() as u64) as usize].bytes;
                let lo = (cut + 1).saturating_sub(p.len());
                let hi = (cut - 1).min(hay_len - p.len());
                let at = lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
                hay[at..at + p.len()].copy_from_slice(p);
                assert!(at < cut && cut < at + p.len());
            }
        }
        assert_all_cores_agree(&scanner, &hay, &format!("round {round}"));
    }
}

#[test]
fn swar_on_repetitive_memory_agrees_with_oracle() {
    // All-0xAA memory with a pattern that *ends* in 0xAA: every SWAR block
    // lights up every lane, maximizing prefilter false-positive pressure and
    // borrow-propagation artifacts. Must still be hit-for-hit identical.
    let scanner = Scanner::new(vec![
        pat("tail_aa", b"BAAAAAAA\xAA"),
        pat("all_aa", b"\xAA\xAA\xAA\xAA\xAA\xAA\xAA\xAA"),
    ]);
    let mut hay = vec![0xAAu8; 4096];
    hay[1000] = b'B';
    hay[2048] = b'B';
    assert_all_cores_agree(&scanner, &hay, "0xAA memory");
    // And the degenerate case: memory that is *entirely* matches.
    let hay2 = vec![0xAAu8; 4096];
    assert_all_cores_agree(&scanner, &hay2, "pure 0xAA memory");
}

#[test]
fn zero_trigger_byte_disables_zero_skip_without_missing_hits() {
    // A pattern ending in 0x00 makes 0x00 a trigger byte, so the all-zero
    // 64-byte fast-reject must stay off; matches buried in zero memory must
    // all be found.
    let scanner = Scanner::new(vec![pat("zt", b"KEY\x00\x00\x00\x00\x00")]);
    let mut hay = vec![0u8; 8192];
    for at in [0usize, 60, 68, 124, 4000, 8184] {
        hay[at..at + 8].copy_from_slice(b"KEY\x00\x00\x00\x00\x00");
    }
    assert_all_cores_agree(&scanner, &hay, "zero trigger byte");
    assert_eq!(scanner.count_matches(&hay), 6);
}

#[test]
fn near_miss_haystacks_produce_no_false_hits() {
    // Memory saturated with 7-of-8-byte near misses of the pattern: the
    // prefilter fires constantly but the verifier must reject every one.
    let p = b"SECRETK1";
    let scanner = Scanner::new(vec![pat("nm", p)]);
    let mut hay = Vec::with_capacity(8 * 1024);
    for i in 0..1024usize {
        let mut copy = *p;
        copy[i % 8] ^= 0xFF; // corrupt a rotating byte
        hay.extend_from_slice(&copy);
    }
    assert_all_cores_agree(&scanner, &hay, "near misses");
    assert_eq!(scanner.count_matches(&hay), 0);
    // Now repair one copy; exactly one hit, found by every core.
    hay[512 * 8..512 * 8 + 8].copy_from_slice(p);
    assert_eq!(scanner.count_matches(&hay), 1);
    assert_all_cores_agree(&scanner, &hay, "one repaired");
}

#[test]
fn sharded_scan_finds_matches_straddling_every_chunk_boundary() {
    // With 4 threads over 4096 bytes the chunk cuts land at 1024/2048/3072.
    // Plant a match straddling each cut and one at the very end.
    let p = b"STRADDLE";
    let scanner = Scanner::new(vec![pat("s", p)]);
    let mut hay = vec![0u8; 4096];
    for at in [1020usize, 2044, 3068, 4088] {
        hay[at..at + 8].copy_from_slice(p);
    }
    for threads in [1usize, 2, 3, 4, 8, 64] {
        let hits = scanner.fork().with_threads(threads).scan_bytes(&hay);
        let offs: Vec<usize> = hits.iter().map(|h| h.offset).collect();
        assert_eq!(offs, vec![1020, 2044, 3068, 4088], "threads {threads}");
    }
    assert_all_cores_agree(&scanner, &hay, "straddles");
}

// ---------------------------------------------------------------------
// scan_bytes_partial: linear-time matching statistics vs. a naive oracle
// ---------------------------------------------------------------------

/// The partial-scan oracle: per-offset longest-common-prefix computed the
/// obvious O(n·m) way, with the same run-head reporting rule the production
/// path documents (full matches always; non-full prefixes only where the
/// previous offset was below threshold).
fn partial_oracle(pats: &[Pattern], hay: &[u8], min_len: usize) -> Vec<(usize, usize, usize, bool)> {
    let mut out = Vec::new();
    for (pi, p) in pats.iter().enumerate() {
        let clamp = min_len.min(p.bytes.len());
        let mut prev = 0usize;
        for i in 0..hay.len() {
            let mut k = 0;
            while k < p.bytes.len() && i + k < hay.len() && hay[i + k] == p.bytes[k] {
                k += 1;
            }
            let full = k == p.bytes.len();
            if k >= clamp && (full || prev < clamp) {
                out.push((pi, i, k, full));
            }
            prev = k;
        }
    }
    out.sort_by_key(|&(pi, i, _, _)| (i, pi));
    out
}

#[test]
fn fuzz_partial_scan_matches_quadratic_oracle() {
    let mut rng = Rng64::new(0xBEEF);
    for round in 0..80 {
        let alphabet = [2u8, 3, 4][round % 3];
        let pats = random_patterns(&mut rng, alphabet);
        let scanner = Scanner::new(pats.iter().map(Pattern::clone_secret).collect());
        let hay_len = 150 + (rng.next_u64() % 600) as usize;
        let hay = noisy_haystack(&mut rng, hay_len, alphabet);
        let min_len = 4 + (rng.next_u64() % 10) as usize;
        let got: Vec<_> = scanner
            .scan_bytes_partial(&hay, min_len)
            .into_iter()
            .map(|h| (h.pattern, h.offset, h.matched_len, h.full))
            .collect();
        assert_eq!(got, partial_oracle(&pats, &hay, min_len), "round {round}");
    }
}

#[test]
fn pathological_repetitive_memory_stays_linear() {
    use std::time::Instant;
    // 4 MB of 0xAA vs. a 2 KB pattern that is 0xAA except its final byte:
    // the old per-offset while loop did ~2047 compares at *every* offset
    // (O(n·m) ≈ 8.6e9 steps) and flooded the result with one overlapping
    // PartialHit per offset. The matching-statistics scan does O(n + m)
    // work and reports one run-head hit.
    let mut bytes = vec![0xAAu8; 2048];
    *bytes.last_mut().unwrap() = 0xBB;
    let scanner = Scanner::new(vec![pat("worst", &bytes)]);
    let hay = vec![0xAAu8; 4 << 20];

    let start = Instant::now();
    let hits = scanner.scan_bytes_partial(&hay, 20);
    let elapsed = start.elapsed();

    // One suppressed run: the head at offset 0 (2047 matching bytes), no
    // full matches (the 0xBB never appears).
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].offset, 0);
    assert_eq!(hits[0].matched_len, 2047);
    assert!(!hits[0].full);
    // Generous wall-clock sanity bound (debug builds on slow containers):
    // the quadratic path took minutes; linear is well under this.
    assert!(
        elapsed.as_secs() < 30,
        "partial scan took {elapsed:?} — quadratic blow-up is back"
    );

    // Same memory, but with full copies planted: every full match is still
    // reported individually even inside the suppressed run.
    let mut hay2 = vec![0xAAu8; 1 << 20];
    for at in [0usize, 4096, 4097, 500_000] {
        hay2[at..at + bytes.len()].copy_from_slice(&bytes);
    }
    // (The 4097 plant overwrites the tail of the 4096 one, killing it.)
    let fulls: Vec<usize> = scanner
        .scan_bytes_partial(&hay2, 20)
        .into_iter()
        .filter(|h| h.full)
        .map(|h| h.offset)
        .collect();
    assert_eq!(fulls, vec![0, 4097, 500_000]);
    let direct: Vec<usize> = scanner.scan_bytes(&hay2).into_iter().map(|h| h.offset).collect();
    assert_eq!(fulls, direct);
}
