//! Miller–Rabin primality testing and random prime generation.

use crate::BigUint;
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

/// A single Miller–Rabin round: `true` means "possibly prime for this base".
fn miller_rabin_round(n: &BigUint, n_minus_1: &BigUint, d: &BigUint, r: usize, base: &BigUint) -> bool {
    let mut x = base.mod_pow(d, n);
    if x.is_one() || x == *n_minus_1 {
        return true;
    }
    for _ in 0..r.saturating_sub(1) {
        x = x.mul_mod(&x, n);
        if x == *n_minus_1 {
            return true;
        }
        if x.is_one() {
            // Hit 1 without passing through n-1: composite witness.
            return false;
        }
    }
    false
}

/// Probabilistic primality test.
///
/// Runs trial division by [`SMALL_PRIMES`], then `rounds` Miller–Rabin rounds
/// with random bases, always including the fixed bases 2 and 3. False
/// positives occur with probability at most `4^-rounds`.
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
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u64(p) == 0 {
            // Divisible by a small prime; only prime if it *is* that prime,
            // which the to_u64 fast path above already handled.
            return false;
        }
    }

    // Write n-1 = d * 2^r with d odd.
    let n_minus_1 = n - &BigUint::one();
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr_bits(1);
        r += 1;
    }

    // Fixed bases first (cheap confidence), then random bases.
    for base in [2u64, 3] {
        if !miller_rabin_round(n, &n_minus_1, &d, r, &BigUint::from_u64(base)) {
            return false;
        }
    }
    let n_minus_3 = match n_minus_1.checked_sub(&BigUint::from_u64(2)) {
        Some(v) if !v.is_zero() => v,
        _ => return true, // n in {3, 5} already settled above
    };
    for _ in 0..rounds {
        // base uniform in [2, n-2]
        let base = &random_below(&n_minus_3, rng) + &BigUint::from_u64(2);
        if !miller_rabin_round(n, &n_minus_1, &d, r, &base) {
            return false;
        }
    }
    true
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
