//! Miller–Rabin primality testing and random prime generation.

use crate::{BigUint, MontCtx};
use simrng::Rng64;

/// The primes below 1000, used for trial division before Miller–Rabin.
pub const SMALL_PRIMES: [u64; 168] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
    97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
    307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419,
    421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541,
    547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653,
    659, 661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787,
    797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919,
    929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// [`SMALL_PRIMES`] cut, in order, into runs whose product fits a `u64`:
/// `(product, start, end)` for each run, where `start..end` indexes the
/// run's primes, and the number of runs.
const PRIME_RUNS: ([(u64, usize, usize); SMALL_PRIMES.len()], usize) = prime_runs();

const fn prime_runs() -> ([(u64, usize, usize); SMALL_PRIMES.len()], usize) {
    let mut runs = [(0, 0, 0); SMALL_PRIMES.len()];
    let mut count = 0;
    let mut product = 1u64;
    let mut start = 0;
    let mut i = 0;
    while i < SMALL_PRIMES.len() {
        if let Some(wider) = product.checked_mul(SMALL_PRIMES[i]) {
            product = wider;
        } else {
            runs[count] = (product, start, i);
            count += 1;
            product = SMALL_PRIMES[i];
            start = i;
        }
        i += 1;
    }
    runs[count] = (product, start, i);
    (runs, count + 1)
}

/// Whether a prime in [`SMALL_PRIMES`] divides `n`: one multi-limb
/// remainder per run of [`PRIME_RUNS`], then one word-sized remainder per
/// prime, since `p` divides `n` exactly when it divides `n mod product`.
fn has_small_factor(n: &BigUint) -> bool {
    let (runs, count) = &PRIME_RUNS;
    runs[..*count].iter().any(|&(product, start, end)| {
        let residue = n.rem_u64(product);
        SMALL_PRIMES[start..end]
            .iter()
            .any(|&p| residue.is_multiple_of(p))
    })
}

/// Probabilistic primality test.
///
/// Runs trial division by [`SMALL_PRIMES`], then Miller–Rabin rounds on one
/// [`MontCtx`] built for `n`: the fixed bases 2 and 3, then `rounds` random
/// bases drawn from `rng`, stopping at the first witness. False positives
/// occur with probability at most `4^-rounds`.
///
/// `n − 1`, `n − 3` and the odd part `d` of `n − 1` are wiped before
/// returning: for an accepted prime, each recovers it.
///
/// # Examples
///
/// ```
/// use bignum::{is_probable_prime, BigUint};
/// use simrng::Rng64;
///
/// let mut rng = Rng64::new(1);
/// assert!(is_probable_prime(&BigUint::from_u64(65_537), 16, &mut rng));
/// assert!(!is_probable_prime(&BigUint::from_u64(65_539 * 3), 16, &mut rng));
/// ```
#[must_use]
pub fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut Rng64) -> bool {
    if let Some(small) = n.to_u64() {
        if small < 2 {
            return false;
        }
        if SMALL_PRIMES.contains(&small) {
            return true;
        }
    }
    // Divisible by a small prime; only prime if it *is* that prime, which
    // the to_u64 fast path above already handled.
    if n.is_even() || has_small_factor(n) {
        return false;
    }

    // Write n − 1 = d·2^r with d odd. Trial division leaves n > 1000.
    let mut n_minus_1 = n - &BigUint::one();
    let r = (0..).take_while(|&i| !n_minus_1.bit(i)).count();
    let mut d = n_minus_1.shr_bits(r);
    let mut n_minus_3 = &n_minus_1 - &BigUint::from_u64(2);
    let ctx = MontCtx::new(n);
    // Fixed bases first (cheap confidence), then random bases uniform in
    // [2, n − 2]; the first witness ends the test before any later draw.
    let probable = [2u64, 3]
        .into_iter()
        .all(|base| ctx.miller_rabin_round(&BigUint::from_u64(base), &d, r))
        && (0..rounds).all(|_| {
            let base = &random_below(&n_minus_3, rng) + &BigUint::from_u64(2);
            ctx.miller_rabin_round(&base, &d, r)
        });
    n_minus_1.zeroize();
    n_minus_3.zeroize();
    d.zeroize();
    probable
}

/// Uniform random value in `[0, bound)` by rejection sampling.
fn random_below(bound: &BigUint, rng: &mut Rng64) -> BigUint {
    debug_assert!(!bound.is_zero());
    loop {
        let candidate = random_bits(bound.bit_len(), rng);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Uniform random value below `2^bits`: one draw per limb, the bits above
/// `bits` masked off.
fn random_bits(bits: usize, rng: &mut Rng64) -> BigUint {
    let mut limbs = vec![0u64; bits.div_ceil(64)];
    for l in &mut limbs {
        *l = rng.next_u64();
    }
    let excess = limbs.len() * 64 - bits;
    if let Some(top) = limbs.last_mut() {
        *top &= u64::MAX >> excess;
    }
    BigUint::from_limbs(limbs)
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The two most significant bits are forced to one (so RSA moduli built from
/// two such primes have full length, as OpenSSL does) and the low bit is
/// forced to one.
///
/// Every candidate is a fresh draw, tested by [`is_probable_prime`] with 16
/// random bases. Trial division rejects most of them; each survivor gets one
/// [`MontCtx`](crate::MontCtx), and its rounds run on fixed-width stack
/// arrays for 128-, 256- and 512-bit primes. Most of the time goes to the
/// first round of each composite that survives trial division, and to the
/// 18 rounds of the prime that is returned.
///
/// # Panics
///
/// Panics if `bits < 8`.
///
/// # Examples
///
/// ```
/// use bignum::gen_prime;
/// use simrng::Rng64;
///
/// let mut rng = Rng64::new(7);
/// let p = gen_prime(64, &mut rng);
/// assert_eq!(p.bit_len(), 64);
/// ```
#[must_use]
pub fn gen_prime(bits: usize, rng: &mut Rng64) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        // Exactly `bits` bits, with the framing bits pinned.
        let mut candidate = random_bits(bits, rng);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if is_probable_prime(&candidate, 16, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// Trial division one small prime at a time: the loop the grouped
    /// residues replaced, kept as their oracle.
    fn has_small_factor_per_prime(n: &BigUint) -> bool {
        SMALL_PRIMES.iter().any(|&p| n.rem_u64(p) == 0)
    }

    #[test]
    fn prime_runs_cut_the_small_primes_into_maximal_word_products() {
        let (runs, count) = PRIME_RUNS;
        let runs = &runs[..count];
        assert_eq!(runs[0].1, 0);
        assert_eq!(runs[count - 1].2, SMALL_PRIMES.len());
        for pair in runs.windows(2) {
            assert_eq!(pair[0].2, pair[1].1, "runs are contiguous");
        }
        for &(product, start, end) in runs {
            assert!(start < end);
            assert_eq!(SMALL_PRIMES[start..end].iter().product::<u64>(), product);
            if let Some(&next) = SMALL_PRIMES.get(end) {
                assert!(
                    product.checked_mul(next).is_none(),
                    "run at {start} stops early"
                );
            }
        }
    }

    #[test]
    fn grouped_trial_division_matches_one_prime_at_a_time() {
        let mut rng = Rng64::new(8);
        let mut cases = Vec::new();
        // Random candidates of 1 to 8 limbs, odd and even.
        for limbs in 1..=8 {
            for _ in 0..100 {
                cases.push(random_bits(64 * limbs, &mut rng));
            }
        }
        // The small primes themselves, their squares, their neighbours, and
        // each times a random cofactor of 1 to 4 limbs.
        for &p in &SMALL_PRIMES {
            cases.extend([n(p), n(p * p), n(p - 1), n(p + 1)]);
            let cofactor = random_bits(64 * (1 + (p as usize % 4)), &mut rng);
            cases.push(&cofactor * &n(p));
        }
        // Products of two or three small primes (repeats allowed), times a
        // large prime, and one more or less than a product.
        let big = n(0xffff_ffff_ffff_ffc5);
        for _ in 0..300 {
            let mut product = n(1);
            for _ in 0..2 + rng.next_u64() % 2 {
                product = &product * &n(SMALL_PRIMES[rng.next_u64() as usize % SMALL_PRIMES.len()]);
            }
            cases.extend([&product * &big, &product + &n(1), &product - &n(1)]);
            cases.push(product);
        }
        // Each run's product, and its multiples and neighbours.
        let (runs, count) = PRIME_RUNS;
        for &(product, _, _) in &runs[..count] {
            let product = n(product);
            cases.extend([&product * &big, &product + &n(2), &product - &n(2)]);
            cases.push(product);
        }
        // Values below 2^64: every value below 5000, random words, and the
        // words just below 2^64.
        cases.extend((0..5000).map(n));
        cases.extend((0..1000).map(|_| n(rng.next_u64())));
        cases.extend((0..64).map(|i| n(u64::MAX - i)));

        for c in &cases {
            assert_eq!(
                has_small_factor(c),
                has_small_factor_per_prime(c),
                "n={c:?}"
            );
        }
    }

    #[test]
    fn small_values() {
        let mut rng = Rng64::new(1);
        assert!(!is_probable_prime(&n(0), 8, &mut rng));
        assert!(!is_probable_prime(&n(1), 8, &mut rng));
        assert!(is_probable_prime(&n(2), 8, &mut rng));
        assert!(is_probable_prime(&n(3), 8, &mut rng));
        assert!(!is_probable_prime(&n(4), 8, &mut rng));
        assert!(is_probable_prime(&n(5), 8, &mut rng));
    }

    #[test]
    fn known_primes_pass() {
        let mut rng = Rng64::new(2);
        for p in [101u64, 997, 65_537, 2_147_483_647, 0xffff_ffff_ffff_ffc5] {
            assert!(is_probable_prime(&n(p), 16, &mut rng), "p={p}");
        }
    }

    #[test]
    fn known_composites_fail() {
        let mut rng = Rng64::new(3);
        for c in [
            100u64,
            999,
            65_537 * 3,
            561,       // Carmichael
            41_041,    // Carmichael
            6_601,     // Carmichael
            1_000_001, // 101 * 9901
        ] {
            assert!(!is_probable_prime(&n(c), 16, &mut rng), "c={c}");
        }
    }

    #[test]
    fn mersenne_127_is_prime() {
        let mut rng = Rng64::new(4);
        let mut p = BigUint::zero();
        p.set_bit(127);
        let p = &p - &BigUint::one();
        assert!(is_probable_prime(&p, 16, &mut rng));
        // And 2^128 - 1 is famously composite.
        let mut q = BigUint::zero();
        q.set_bit(128);
        let q = &q - &BigUint::one();
        assert!(!is_probable_prime(&q, 16, &mut rng));
    }

    #[test]
    fn gen_prime_has_exact_bit_length_and_is_odd() {
        let mut rng = Rng64::new(5);
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit must be set");
        }
    }

    #[test]
    fn gen_prime_is_deterministic_per_seed() {
        let a = gen_prime(64, &mut Rng64::new(42));
        let b = gen_prime(64, &mut Rng64::new(42));
        assert_eq!(a, b);
        let c = gen_prime(64, &mut Rng64::new(43));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least 8 bits")]
    fn tiny_prime_request_panics() {
        let _ = gen_prime(4, &mut Rng64::new(0));
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = Rng64::new(6);
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn product_of_two_generated_primes_is_composite() {
        let mut rng = Rng64::new(7);
        let p = gen_prime(32, &mut rng);
        let q = gen_prime(32, &mut rng);
        assert!(!is_probable_prime(&(&p * &q), 16, &mut rng));
    }
}
