//! Differential property suite for the fast multi-pattern scans: on random
//! haystacks with planted, truncated, and overlapping patterns, on dumps
//! whose all-zero pages the scans test instead of scanning, and on machine
//! snapshots whose known-zero frames they do not read, the skip-walk scan
//! must agree exactly with the naive per-offset oracle — hit for hit, in
//! the same order.

use keyscan::Scanner;
use memsim::{FrameId, Kernel, MachineConfig, Snapshot, PAGE_SIZE};
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
// Threaded scans vs. the same oracle
// ---------------------------------------------------------------------

/// Thread counts the span walk is checked at: serial, even and odd splits,
/// and more threads than cores.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Every dump scan call at each of [`THREADS`], against naive.
fn assert_scans_agree(scanner: &Scanner, hay: &[u8], ctx: &str) {
    let naive = scanner.scan_bytes_naive(hay);
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
fn fuzz_sharded_scans_match_naive_oracle() {
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
        assert_scans_agree(&scanner, &hay, &format!("round {round}"));
    }
}

#[test]
fn repetitive_memory_agrees_with_oracle() {
    // All-0xAA memory with a pattern that *ends* in 0xAA: every window of
    // the skip walk ends in a trigger byte, so the verifier runs at every
    // offset. Must still be hit-for-hit identical.
    let scanner = Scanner::new(vec![
        pat("tail_aa", b"BAAAAAAA\xAA"),
        pat("all_aa", b"\xAA\xAA\xAA\xAA\xAA\xAA\xAA\xAA"),
    ]);
    let mut hay = vec![0xAAu8; 4096];
    hay[1000] = b'B';
    hay[2048] = b'B';
    assert_scans_agree(&scanner, &hay, "0xAA memory");
    // And the degenerate case: memory that is *entirely* matches.
    let hay2 = vec![0xAAu8; 4096];
    assert_scans_agree(&scanner, &hay2, "pure 0xAA memory");
}

#[test]
fn zero_trigger_byte_disables_zero_skip_without_missing_hits() {
    // A pattern ending in 0x00 makes 0x00 a trigger byte, so the skip walk
    // verifies at every zero byte; matches buried in zero memory must all
    // be found.
    let scanner = Scanner::new(vec![pat("zt", b"KEY\x00\x00\x00\x00\x00")]);
    let mut hay = vec![0u8; 8192];
    for at in [0usize, 60, 68, 124, 4000, 8184] {
        hay[at..at + 8].copy_from_slice(b"KEY\x00\x00\x00\x00\x00");
    }
    assert_scans_agree(&scanner, &hay, "zero trigger byte");
    assert_eq!(scanner.count_matches(&hay), 6);
}

#[test]
fn near_miss_haystacks_produce_no_false_hits() {
    // Memory saturated with 7-of-8-byte near misses of the pattern: the
    // verifier runs constantly but must reject every one.
    let p = b"SECRETK1";
    let scanner = Scanner::new(vec![pat("nm", p)]);
    let mut hay = Vec::with_capacity(8 * 1024);
    for i in 0..1024usize {
        let mut copy = *p;
        copy[i % 8] ^= 0xFF; // corrupt a rotating byte
        hay.extend_from_slice(&copy);
    }
    assert_scans_agree(&scanner, &hay, "near misses");
    assert_eq!(scanner.count_matches(&hay), 0);
    // Now repair one copy; exactly one hit, found by every core.
    hay[512 * 8..512 * 8 + 8].copy_from_slice(p);
    assert_eq!(scanner.count_matches(&hay), 1);
    assert_scans_agree(&scanner, &hay, "one repaired");
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
    assert_scans_agree(&scanner, &hay, "straddles");
}

// ---------------------------------------------------------------------
// The dump page rule: all-zero pages are tested, not scanned
// ---------------------------------------------------------------------

/// A `len`-byte dump, all zero but for 500 bytes of noise at `at` for each
/// `at` in `noise`.
fn zero_dump_with_noise(len: usize, noise: &[usize], rng: &mut Rng64) -> Vec<u8> {
    let mut dump = vec![0u8; len];
    for &at in noise {
        rng.fill_bytes(&mut dump[at..at + 500]);
    }
    dump
}

/// `bytes` preceded by `lead` zeros and followed by `trail` zeros.
fn zero_padded(lead: usize, bytes: &[u8], trail: usize) -> Vec<u8> {
    [vec![0; lead], bytes.to_vec(), vec![0; trail]].concat()
}

/// Asserts the scans agree with naive on `dump` and that naive finds each
/// pattern of `scanner` at the offset `want` gives it.
fn assert_dump_hits(scanner: &Scanner, dump: &[u8], want: &[(usize, usize)], ctx: &str) {
    let naive = scanner.scan_bytes_naive(dump);
    for &(pattern, offset) in want {
        assert!(
            naive
                .iter()
                .any(|h| (h.pattern, h.offset) == (pattern, offset)),
            "{ctx}: no {} hit at {offset}",
            scanner.pattern_name(pattern)
        );
    }
    assert_scans_agree(scanner, dump, ctx);
}

#[test]
fn leading_and_trailing_zeros_reach_into_all_zero_pages() {
    let ps = PAGE_SIZE;
    let mut rng = Rng64::new(0x2E20);
    // Three leading zeros; more leading zeros than a page; trailing zeros.
    let near = zero_padded(3, b"LEADING3", 0);
    let far = zero_padded(ps + 904, b"FARLEAD!", 0);
    let trail = zero_padded(0, b"TRAILING", 40);
    let scanner = Scanner::new(vec![
        pat("near", &near),
        pat("far", &far),
        pat("trail", &trail),
    ]);
    // Pages 1, 3, 5 and 6 are all zero.
    let mut dump = zero_dump_with_noise(8 * ps, &[0, 2 * ps + 1000, 7 * ps + 300], &mut rng);
    // `near` starts in all-zero page 3 and goes on in page 4.
    dump[4 * ps..4 * ps + 8].copy_from_slice(b"LEADING3");
    // `trail` starts in page 4 and runs on into all-zero page 5.
    dump[5 * ps - 20..5 * ps - 12].copy_from_slice(b"TRAILING");
    // `far` starts in page 0 past its noise, with all of page 1 among its
    // zeros: page 2's span is widened back over page 1 and clamped to the
    // end of page 0's. It also starts in all-zero page 5 and ends in page 7.
    dump[2 * ps + 500..2 * ps + 508].copy_from_slice(b"FARLEAD!");
    dump[7 * ps + 200..7 * ps + 208].copy_from_slice(b"FARLEAD!");
    let want = [
        (0, 4 * ps - 3),
        (2, 5 * ps - 20),
        (1, 2 * ps + 508 - far.len()),
        (1, 7 * ps + 208 - far.len()),
    ];
    assert!(want[3].1 / ps == 5 && want[2].1 > 1000);
    assert_dump_hits(&scanner, &dump, &want, "leading and trailing zeros");
    // Each match alone, so `dump_compromises_key` must find that one.
    for (i, &(pattern, at)) in want.iter().enumerate() {
        let pattern_bytes = &scanner.patterns()[pattern].bytes;
        let mut alone = vec![0u8; dump.len()];
        alone[at..at + pattern_bytes.len()].copy_from_slice(pattern_bytes);
        assert_dump_hits(&scanner, &alone, &want[i..=i], &format!("match {i} alone"));
    }
}

#[test]
fn an_all_zero_pattern_is_found_in_all_zero_pages() {
    let ps = PAGE_SIZE;
    let mut rng = Rng64::new(0x2E21);
    let scanner = Scanner::new(vec![pat("zeros", &[0; 16]), pat("key", b"KEYBYTES")]);
    let mut dump = zero_dump_with_noise(4 * ps, &[ps + 2000], &mut rng);
    dump[3 * ps - 4..3 * ps + 4].copy_from_slice(b"KEYBYTES");
    let want = [(0, 0), (0, 2 * ps), (0, 4 * ps - 16), (1, 3 * ps - 4)];
    assert_dump_hits(&scanner, &dump, &want, "all-zero pattern");
    let all_zero = vec![0; 3 * ps + 5];
    assert_dump_hits(&scanner, &all_zero, &[(0, 3 * ps - 11)], "all-zero dump");
}

#[test]
fn a_short_last_page_is_scanned_like_any_other() {
    // Dumps that end inside a page, as ext2 captures do (multiples of
    // 4,072 bytes): one match per dump, in, across into, or flush with the
    // end of the short last page, after all-zero pages.
    let ps = PAGE_SIZE;
    let mut rng = Rng64::new(0x2E22);
    let lead = zero_padded(6, b"LEADKEY!", 0);
    let trail = zero_padded(0, b"TAILKEY!", 30);
    let scanner = Scanner::new(vec![
        pat("end", b"ENDMATCH"),
        pat("lead", &lead),
        pat("trail", &trail),
    ]);
    for len in [
        3 * 4072,
        5 * 4072,
        2 * ps + 1,
        2 * ps + 7,
        2 * ps + 64,
        2 * ps + 100,
    ] {
        let last = len / ps * ps; // start of the short last page
        let short = len - last;
        let mut cases = vec![(0, len - 8), (1, len - lead.len()), (2, len - trail.len())];
        if short >= 4 {
            cases.push((0, last - 4)); // across the edge into the short page
        }
        if short >= 11 {
            cases.push((1, last - 3)); // leading zeros in the page before
        }
        for (pattern, at) in cases {
            let bytes = &scanner.patterns()[pattern].bytes;
            let mut dump = zero_dump_with_noise(len, &[0], &mut rng);
            dump[at..at + bytes.len()].copy_from_slice(bytes);
            assert_dump_hits(&scanner, &dump, &[(pattern, at)], &format!("{len}: {at}"));
        }
    }
}

#[test]
fn fuzz_paged_dumps_match_naive_oracle() {
    // Random dumps of up to 12 pages and a short tail, each page all zero
    // or holding a little noise, with patterns padded by up to a page and
    // a half of leading or trailing zeros planted near page edges.
    let ps = PAGE_SIZE;
    let mut rng = Rng64::new(0x2E23);
    for round in 0..40 {
        let pats: Vec<Vec<u8>> = (0..1 + rng.gen_index(3))
            .map(|_| {
                let lead = [0, 1, 7, rng.gen_index(ps + ps / 2)][rng.gen_index(4)];
                let trail = [0, 5, rng.gen_index(ps + ps / 2)][rng.gen_index(3)];
                let body: Vec<u8> = rng.gen_bytes(8).iter().map(|b| b | 1).collect();
                zero_padded(lead, &body, trail)
            })
            .collect();
        let scanner = Scanner::new(pats.iter().map(|p| pat("p", p)).collect());
        let len = (1 + rng.gen_index(12)) * ps + [0, 1, 64, rng.gen_index(ps)][rng.gen_index(4)];
        let mut dump = vec![0u8; len];
        for page in 0..len.div_ceil(ps) {
            if rng.gen_bool(0.4) {
                let at = page * ps + rng.gen_index(ps.min(len - page * ps));
                let n = (1 + rng.gen_index(64)).min(len - at);
                rng.fill_bytes(&mut dump[at..at + n]);
            }
        }
        for _ in 0..rng.gen_index(5) {
            let p = &pats[rng.gen_index(pats.len())];
            if p.len() <= len {
                let edge = rng.gen_index(len.div_ceil(ps) + 1) * ps;
                let at = (edge + rng.gen_index(64)).saturating_sub(rng.gen_index(p.len() + 64));
                let at = at.min(len - p.len());
                dump[at..at + p.len()].copy_from_slice(p);
            }
        }
        assert_scans_agree(&scanner, &dump, &format!("round {round}"));
    }
}

// ---------------------------------------------------------------------
// Snapshots: the known-zero frame bits are the page source
// ---------------------------------------------------------------------

/// The dump scans over `snapshot` at each of [`THREADS`] against naive,
/// and the same calls over its bytes, which test every page instead.
fn assert_snapshot_scans_agree(scanner: &Scanner, snapshot: &Snapshot, ctx: &str) {
    let naive = scanner.scan_bytes_naive(snapshot);
    for threads in THREADS {
        let threaded = scanner.fork().with_threads(threads);
        assert_eq!(
            threaded.scan_bytes(snapshot),
            naive,
            "snapshot x{threads} vs naive: {ctx}"
        );
        assert_eq!(
            threaded.count_matches(snapshot),
            naive.len(),
            "snapshot count x{threads}: {ctx}"
        );
        assert_eq!(
            threaded.dump_compromises_key(snapshot),
            !naive.is_empty(),
            "snapshot dump x{threads}: {ctx}"
        );
    }
    assert_scans_agree(scanner, &snapshot[..], ctx);
}

#[test]
fn snapshot_scans_agree_with_their_bytes_and_naive() {
    // 16-frame machines whose frames are all kernel pages, handed out in
    // frame order and never cleared. Each round plants some of three
    // matches: `lead` starts with its zeros in known-zero frame `a - 1`,
    // `trail` runs with its zeros into known-zero frame `b + 1`, and
    // `last` lies in the last frame, at its end half of the time. The
    // other frames get a little noise, a page of written zeros (which
    // reads zero without the bit) or nothing.
    const FRAMES: usize = 16;
    let ps = PAGE_SIZE;
    let lead = zero_padded(5, b"LEADBODY", 0);
    let trail = zero_padded(0, b"TRAILBDY", 9);
    let last = b"LASTPAGE";
    let scanners = [
        Scanner::new(vec![pat("lead", &lead), pat("trail", &trail), pat("last", last)]),
        Scanner::new(vec![pat("zeros", &[0; 16]), pat("last", last)]),
    ];
    let mut rng = Rng64::new(0x5A95);
    for round in 0..24 {
        let mut k = Kernel::new(MachineConfig::small().with_mem_bytes(FRAMES * ps));
        let frames = k.alloc_kernel_pages(FRAMES).unwrap();
        let (a, b) = (2 + rng.gen_index(4), 8 + rng.gen_index(4));
        let planted = 1 + rng.gen_index(7);
        for (i, &f) in frames.iter().enumerate() {
            if [a - 1, a, b, b + 1, FRAMES - 1].contains(&i) {
                continue;
            }
            match rng.gen_index(3) {
                0 => {
                    let len = 1 + rng.gen_index(64);
                    let noise = rng.gen_bytes(len);
                    k.write_kernel_page(f, rng.gen_index(ps - noise.len()), &noise);
                }
                1 => k.write_kernel_page(f, 0, &[0; PAGE_SIZE]),
                _ => {}
            }
        }
        let last_at = if rng.gen_bool(0.5) { ps - last.len() } else { rng.gen_index(ps - 8) };
        let mut want = Vec::new();
        if planted & 1 != 0 {
            k.write_kernel_page(frames[a], 0, b"LEADBODY");
            want.push((0, a * ps - 5));
        }
        if planted & 2 != 0 {
            k.write_kernel_page(frames[b], ps - 8, b"TRAILBDY");
            want.push((1, b * ps + ps - 8));
        }
        if planted & 4 != 0 {
            k.write_kernel_page(frames[FRAMES - 1], last_at, last);
            want.push((2, (FRAMES - 1) * ps + last_at));
        }
        assert!(k.frame_known_zero(FrameId(a - 1)) && k.frame_known_zero(FrameId(b + 1)));
        for rate in [0.0, 0.02] {
            let snapshot = k.snapshot_decayed(round, rate);
            let ctx = format!("round {round} at rate {rate}");
            if rate == 0.0 {
                assert_dump_hits(&scanners[0], &snapshot, &want, &ctx);
            }
            for scanner in &scanners {
                assert_snapshot_scans_agree(scanner, &snapshot, &ctx);
            }
        }
    }
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
