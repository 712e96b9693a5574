//! Montgomery multiplication and exponentiation.
//!
//! [`MontCtx`] is the analogue of OpenSSL's `BN_MONT_CTX`. Crucially for the
//! paper's analysis, the context *stores a full copy of the modulus*: when
//! OpenSSL caches Montgomery contexts for the RSA primes P and Q
//! (`RSA_FLAG_CACHE_PRIVATE`), each worker process ends up holding extra
//! copies of the private key components in its heap. The `rsa` crate models
//! that behaviour explicitly on the simulated memory.

use core::fmt;

use crate::BigUint;

/// Reusable Montgomery-domain context for a fixed odd modulus.
///
/// # Examples
///
/// ```
/// use bignum::{BigUint, MontCtx};
///
/// let m = BigUint::from_u64(0x1_0001); // 65537, odd
/// let ctx = MontCtx::new(&m);
/// let r = ctx.pow(&BigUint::from_u64(3), &BigUint::from_u64(10));
/// assert_eq!(r, BigUint::from_u64(59049 % 0x1_0001));
/// ```
#[derive(PartialEq, Eq)]
pub struct MontCtx {
    /// The modulus (a copy — this is the paper's cached-key leak site).
    n: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64·k)`.
    rr: Vec<u64>,
    /// `R mod n` (the Montgomery representation of one).
    one: Vec<u64>,
}

/// The cached limbs are the private primes when the context backs CRT
/// exponentiation, so formatting must never print them.
impl fmt::Debug for MontCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MontCtx({} limbs, <redacted>)", self.width())
    }
}

/// A context caches a full copy of its modulus; when that modulus is an RSA
/// prime the copy is key material, so every limb buffer is wiped before the
/// allocation is returned.
impl Drop for MontCtx {
    fn drop(&mut self) {
        self.n.zeroize();
        crate::secure_zero(&mut self.rr);
        crate::secure_zero(&mut self.one);
        self.n0inv = 0;
    }
}

/// Inverse of an odd `x` modulo `2^64` by Newton iteration.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Compares two equal-length limb slices.
fn limbs_ge(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x > y;
        }
    }
    true
}

/// `a -= b` over equal-length slices, wrapping modulo `2^(64·len)`.
///
/// A final borrow is intentionally allowed: when the Montgomery accumulator
/// has overflowed into its extra top limb, the wrap absorbs that limb.
fn limbs_sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

impl MontCtx {
    /// Builds a context for the odd modulus `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even or less than 3.
    #[must_use]
    pub fn new(m: &BigUint) -> Self {
        assert!(!m.is_even(), "Montgomery modulus must be odd");
        assert!(m.bit_len() > 1, "Montgomery modulus must be >= 3");
        let k = m.limbs.len();
        let n0inv = inv64(m.limbs[0]).wrapping_neg();
        // R^2 mod n with R = 2^(64k): one big division.
        let mut r2 = BigUint::zero();
        r2.set_bit(128 * k);
        let rr = r2.rem(m);
        let mut r1 = BigUint::zero();
        r1.set_bit(64 * k);
        let one = r1.rem(m);
        Self {
            n: m.clone(),
            n0inv,
            rr: Self::pad(rr, k),
            one: Self::pad(one, k),
        }
    }

    /// The modulus this context was built for.
    #[must_use]
    pub fn modulus(&self) -> BigUint {
        // keylint: allow(S005) -- reconstructs the modulus the caller already supplied; the cached copy itself is the modeled leak, sized via footprint_bytes
        self.n.clone()
    }

    /// Number of 64-bit limbs in the modulus.
    #[must_use]
    pub fn width(&self) -> usize {
        self.n.limbs.len()
    }

    /// Approximate heap footprint of the context in bytes — used by the
    /// copy-site model to size the simulated allocations holding cached
    /// copies of P and Q.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        (self.width() + self.rr.len() + self.one.len()) * 8
    }

    fn pad(v: BigUint, k: usize) -> Vec<u64> {
        let mut out = v.limbs;
        out.resize(k, 0);
        out
    }

    /// CIOS Montgomery product of two k-limb Montgomery-form operands.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.n.limbs.len();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter() {
            // t += ai * b
            let mut carry = 0u64;
            for j in 0..k {
                let wide = u128::from(ai) * u128::from(b[j]) + u128::from(t[j]) + u128::from(carry);
                t[j] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            let wide = u128::from(t[k]) + u128::from(carry);
            t[k] = wide as u64;
            t[k + 1] = (wide >> 64) as u64;

            // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0inv);
            let wide = u128::from(m) * u128::from(self.n.limbs[0]) + u128::from(t[0]);
            let mut carry = (wide >> 64) as u64;
            for j in 1..k {
                let wide = u128::from(m) * u128::from(self.n.limbs[j])
                    + u128::from(t[j])
                    + u128::from(carry);
                t[j - 1] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            let wide = u128::from(t[k]) + u128::from(carry);
            t[k - 1] = wide as u64;
            t[k] = t[k + 1] + ((wide >> 64) as u64);
            t[k + 1] = 0;
        }
        let mut out = t[..k].to_vec();
        if t[k] != 0 || limbs_ge(&out, &self.n.limbs) {
            limbs_sub_assign(&mut out, &self.n.limbs);
        }
        out
    }

    /// Converts a value into Montgomery form, reducing it first. The
    /// reduced value is wiped: `x − (x mod p)` is a multiple of `p`.
    fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let mut reduced = Self::pad(x.rem(&self.n), self.width());
        let xm = self.mont_mul(&reduced, &self.rr);
        crate::secure_zero(&mut reduced);
        xm
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, x: &[u64]) -> BigUint {
        let one = {
            let mut v = vec![0u64; self.width()];
            v[0] = 1;
            v
        };
        BigUint::from_limbs(self.mont_mul(x, &one))
    }

    /// Modular multiplication through the Montgomery domain.
    #[must_use]
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod n` with a fixed 4-bit window.
    ///
    /// 8- and 16-limb moduli (RSA-1024's CRT halves, key-generation primes
    /// and public modulus, and RSA-512's public modulus) run on stack
    /// arrays; every other width runs a product that allocates per step.
    #[must_use]
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match self.width() {
            8 => self.pow_n::<8>(base, exp),
            16 => self.pow_n::<16>(base, exp),
            _ => self.pow_generic(base, exp),
        }
    }

    /// `pow` over `Vec` limbs at any width: one allocated product per
    /// step. The fixed-width path is tested against it.
    fn pow_generic(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.n);
        }
        let bm = self.to_mont(base);
        // Precompute base^0..base^15 in Montgomery form.
        let mut table = Vec::with_capacity(16);
        // keylint: allow(S005) -- window-table scratch copy of R mod n, local to this exponentiation
        table.push(self.one.clone());
        table.push(bm.clone());
        for i in 2..16 {
            let prev: &Vec<u64> = &table[i - 1];
            table.push(self.mont_mul(prev, &bm));
        }

        let bits = exp.bit_len();
        let top_window = bits.div_ceil(4);
        let mut acc: Option<Vec<u64>> = None;
        for w in (0..top_window).rev() {
            if let Some(a) = acc.take() {
                let mut a = a;
                for _ in 0..4 {
                    a = self.mont_mul(&a, &a);
                }
                acc = Some(a);
            }
            let mut nibble = 0usize;
            for b in (0..4).rev() {
                let idx = w * 4 + b;
                nibble = (nibble << 1) | usize::from(exp.bit(idx));
            }
            acc = Some(match acc.take() {
                None => table[nibble].clone(),
                Some(a) if nibble != 0 => self.mont_mul(&a, &table[nibble]),
                Some(a) => a,
            });
        }
        self.from_mont(&acc.expect("nonzero exponent produces a value"))
    }

    /// [`Self::pow_mont_n`] converted out of Montgomery form; only the
    /// base's reduction and that conversion allocate.
    fn pow_n<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut acc = self.pow_mont_n::<N>(base, exp);
        let out = self.from_mont(&acc);
        crate::secure_zero(&mut acc);
        out
    }

    /// [`Self::pow_generic`]'s window walk over `[u64; N]` stack arrays:
    /// `base^exp` in Montgomery form, which the caller wipes.
    ///
    /// The reduced base and the window table are wiped before returning:
    /// each is secret-equivalent when the modulus is a prime factor of a
    /// public `n`, since `gcd(c·R − table[1], n)` recovers it. That is why
    /// the base enters Montgomery form here, on the stack, and not through
    /// `to_mont`, whose product scratch is freed unwiped.
    fn pow_mont_n<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> [u64; N] {
        let n: &[u64; N] = self
            .n
            .limbs()
            .try_into()
            .expect("callers pick N from the width");
        let rr: &[u64; N] = self.rr.as_slice().try_into().expect("rr has the width");
        let mut table = [[0u64; N]; 16];
        table[0].copy_from_slice(&self.one);
        let mut reduced = base.rem(&self.n);
        table[1][..reduced.limbs().len()].copy_from_slice(reduced.limbs());
        reduced.zeroize();
        table[1] = mont_mul_n(&table[1], rr, n, self.n0inv);
        for i in 2..16 {
            table[i] = mont_mul_n(&table[i - 1], &table[1], n, self.n0inv);
        }

        let windows = exp.bit_len().div_ceil(4);
        // Montgomery one: what a zero exponent leaves.
        let mut acc = table[0];
        for w in (0..windows).rev() {
            let nibble = (0..4)
                .rev()
                .fold(0, |v, b| (v << 1) | usize::from(exp.bit(w * 4 + b)));
            if w + 1 == windows {
                acc = table[nibble];
                continue;
            }
            for _ in 0..4 {
                acc = mont_mul_n(&acc, &acc, n, self.n0inv);
            }
            if nibble != 0 {
                acc = mont_mul_n(&acc, &table[nibble], n, self.n0inv);
            }
        }
        crate::secure_zero(table.as_flattened_mut());
        acc
    }

    /// One Miller–Rabin round: whether the modulus `n` is a strong probable
    /// prime to `base`, given `n − 1 = d·2^r` with `d` odd.
    ///
    /// 2-, 4- and 8-limb moduli (the primes of RSA-256, RSA-512 and
    /// RSA-1024) run the round in the Montgomery domain on stack arrays;
    /// every other width runs it through [`Self::pow`] and `mul_mod`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bignum::{BigUint, MontCtx};
    ///
    /// // 65537 − 1 = 1·2^16, and 3 is a witness for no prime.
    /// let p = MontCtx::new(&BigUint::from_u64(65_537));
    /// assert!(p.miller_rabin_round(&BigUint::from_u64(3), &BigUint::one(), 16));
    /// // 2047 = 23·89, with 2047 − 1 = 1023·2, fools base 2 but not base 3.
    /// let c = MontCtx::new(&BigUint::from_u64(2047));
    /// let d = BigUint::from_u64(1023);
    /// assert!(c.miller_rabin_round(&BigUint::from_u64(2), &d, 1));
    /// assert!(!c.miller_rabin_round(&BigUint::from_u64(3), &d, 1));
    /// ```
    #[must_use]
    pub fn miller_rabin_round(&self, base: &BigUint, d: &BigUint, r: usize) -> bool {
        match self.width() {
            2 => self.miller_rabin_round_n::<2>(base, d, r),
            4 => self.miller_rabin_round_n::<4>(base, d, r),
            8 => self.miller_rabin_round_n::<8>(base, d, r),
            _ => self.miller_rabin_round_generic(base, d, r),
        }
    }

    /// The round outside the Montgomery domain, at any width: `base^d`
    /// from [`Self::pow`], squared with `mul_mod`. The fixed-width round
    /// is tested against it.
    fn miller_rabin_round_generic(&self, base: &BigUint, d: &BigUint, r: usize) -> bool {
        let mut n_minus_1 = &self.n - &BigUint::one();
        let mut x = self.pow(base, d);
        let probable = 'round: {
            if x.is_one() || x == n_minus_1 {
                break 'round true;
            }
            for _ in 1..r {
                x = x.mul_mod(&x, &self.n);
                if x == n_minus_1 {
                    break 'round true;
                }
                if x.is_one() {
                    // Hit 1 without passing through n − 1: a witness.
                    break 'round false;
                }
            }
            false
        };
        n_minus_1.zeroize();
        x.zeroize();
        probable
    }

    /// The round over `[u64; N]` stack arrays, never leaving the Montgomery
    /// domain: `base^d` from [`Self::pow_mont_n`] is compared with
    /// Montgomery one (`R mod n`) and Montgomery `n − 1`, which is
    /// `n − (R mod n)`, then squared with [`mont_mul_n`]. Every product is
    /// fully reduced, so equal values have equal limbs.
    ///
    /// The running value and Montgomery `n − 1` are wiped before
    /// returning: when `n` is a prime factor of a public modulus, each is
    /// `c·R mod n` for a known `c`, which recovers `n`.
    fn miller_rabin_round_n<const N: usize>(&self, base: &BigUint, d: &BigUint, r: usize) -> bool {
        let n: &[u64; N] = self
            .n
            .limbs()
            .try_into()
            .expect("the round picks N from the width");
        let one: &[u64; N] = self.one.as_slice().try_into().expect("one has the width");
        let mut minus_one = *n;
        limbs_sub_assign(&mut minus_one, one);
        let mut x = self.pow_mont_n::<N>(base, d);
        let probable = 'round: {
            if x == *one || x == minus_one {
                break 'round true;
            }
            for _ in 1..r {
                x = mont_mul_n(&x, &x, n, self.n0inv);
                if x == minus_one {
                    break 'round true;
                }
                if x == *one {
                    // Hit 1 without passing through n − 1: a witness.
                    break 'round false;
                }
            }
            false
        };
        crate::secure_zero(&mut x);
        crate::secure_zero(&mut minus_one);
        probable
    }
}

/// CIOS Montgomery product `a·b·R⁻¹ mod n` of two `N`-limb operands below
/// `n`, the fixed-width form of [`MontCtx::mont_mul`]: the two limbs above
/// the accumulator live in locals, and every index is below the
/// compile-time `N`.
fn mont_mul_n<const N: usize>(a: &[u64; N], b: &[u64; N], n: &[u64; N], n0inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    // t[N] of the generic product; t[N + 1] lives only within a round.
    let mut hi = 0u64;
    for &ai in a {
        // t += ai * b
        let mut carry = 0u64;
        for j in 0..N {
            let wide = u128::from(ai) * u128::from(b[j]) + u128::from(t[j]) + u128::from(carry);
            t[j] = wide as u64;
            carry = (wide >> 64) as u64;
        }
        let wide = u128::from(hi) + u128::from(carry);
        hi = wide as u64;
        let top = (wide >> 64) as u64;

        // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
        let m = t[0].wrapping_mul(n0inv);
        let wide = u128::from(m) * u128::from(n[0]) + u128::from(t[0]);
        let mut carry = (wide >> 64) as u64;
        for j in 1..N {
            let wide = u128::from(m) * u128::from(n[j]) + u128::from(t[j]) + u128::from(carry);
            t[j - 1] = wide as u64;
            carry = (wide >> 64) as u64;
        }
        let wide = u128::from(hi) + u128::from(carry);
        t[N - 1] = wide as u64;
        hi = top + ((wide >> 64) as u64);
    }
    if hi != 0 || limbs_ge(&t, n) {
        limbs_sub_assign(&mut t, n);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::Rng64;

    fn n(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn inv64_small_odds() {
        for x in [1u64, 3, 5, 7, 0xffff_ffff_ffff_ffff, 0x1234_5679] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontCtx::new(&n("10"));
    }

    #[test]
    #[should_panic(expected = ">= 3")]
    fn unit_modulus_rejected() {
        let _ = MontCtx::new(&BigUint::one());
    }

    #[test]
    fn mul_matches_naive() {
        let m = n("ffffffffffffffffffffffffffffff61"); // odd 128-bit
        let ctx = MontCtx::new(&m);
        let a = n("123456789abcdef0fedcba9876543210");
        let b = n("deadbeefcafebabe0123456789abcdef");
        assert_eq!(ctx.mul(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn mul_handles_unreduced_inputs() {
        let m = n("10001");
        let ctx = MontCtx::new(&m);
        let a = n("fffffff"); // much larger than m
        let b = n("abcdef0");
        assert_eq!(ctx.mul(&a, &b), a.rem(&m).mul_mod(&b.rem(&m), &m));
    }

    #[test]
    fn pow_matches_iterated_multiplication() {
        let m = n("ffffffffffffffc5");
        let ctx = MontCtx::new(&m);
        let base = n("2");
        for e in [0u64, 1, 2, 3, 15, 16, 17, 64, 100] {
            let expected = {
                let mut acc = BigUint::one();
                for _ in 0..e {
                    acc = acc.mul_mod(&base, &m);
                }
                acc
            };
            assert_eq!(ctx.pow(&base, &BigUint::from_u64(e)), expected, "e={e}");
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = n("10001");
        let ctx = MontCtx::new(&m);
        assert_eq!(ctx.pow(&n("1234"), &BigUint::zero()), BigUint::one());
    }

    #[test]
    fn pow_of_zero_base() {
        let m = n("10001");
        let ctx = MontCtx::new(&m);
        assert_eq!(ctx.pow(&BigUint::zero(), &n("5")), BigUint::zero());
    }

    #[test]
    fn fermat_on_multi_limb_prime() {
        // 2^127 - 1 is a Mersenne prime (multi-limb).
        let mut p = BigUint::zero();
        p.set_bit(127);
        let p = &p - &BigUint::one();
        let ctx = MontCtx::new(&p);
        let exp = &p - &BigUint::one();
        assert_eq!(ctx.pow(&n("3"), &exp), BigUint::one());
    }

    #[test]
    fn footprint_scales_with_width() {
        let small = MontCtx::new(&n("10001"));
        let big = MontCtx::new(&(&{
            let mut p = BigUint::zero();
            p.set_bit(127);
            p
        } - &BigUint::one()));
        assert!(big.footprint_bytes() > small.footprint_bytes());
        assert_eq!(small.width(), 1);
        assert_eq!(big.width(), 2);
    }

    #[test]
    fn modulus_round_trips() {
        let m = n("ffffffffffffffffffffffffffffff61");
        assert_eq!(MontCtx::new(&m).modulus(), m);
    }

    fn random_limbs(rng: &mut Rng64, k: usize) -> Vec<u64> {
        (0..k).map(|_| rng.next_u64()).collect()
    }

    /// Odd `k`-limb moduli: random, with a top limb of 1 (a modulus just
    /// above a limb boundary), and with a top limb of `u64::MAX` (where
    /// the product's carries reach the limb above the accumulator).
    fn moduli(rng: &mut Rng64, k: usize) -> Vec<BigUint> {
        [None, Some(1), Some(u64::MAX)]
            .into_iter()
            .map(|top| {
                let mut limbs = random_limbs(rng, k);
                limbs[k - 1] = top.unwrap_or(limbs[k - 1].max(1));
                limbs[0] |= 1;
                BigUint::from_limbs(limbs)
            })
            .filter(|m| m.bit_len() > 1)
            .collect()
    }

    /// Bases 0, 1, m − 1, a random reduced one, and an unreduced one of
    /// k + 1 limbs.
    fn bases(rng: &mut Rng64, m: &BigUint) -> Vec<BigUint> {
        let k = m.limbs().len();
        let mut wide = random_limbs(rng, k + 1);
        wide[k] = wide[k].max(1);
        vec![
            BigUint::zero(),
            BigUint::one(),
            m - &BigUint::one(),
            BigUint::from_limbs(random_limbs(rng, k)).rem(m),
            BigUint::from_limbs(wide),
        ]
    }

    /// Exponents 0, 1, 2, 15, 16, 17 (either side of the first window
    /// boundary) and a random full-width one.
    fn exponents(rng: &mut Rng64, k: usize) -> Vec<BigUint> {
        let mut full = random_limbs(rng, k);
        full[k - 1] |= 1 << 63;
        [0u64, 1, 2, 15, 16, 17]
            .into_iter()
            .map(BigUint::from_u64)
            .chain([BigUint::from_limbs(full)])
            .collect()
    }

    /// Left-to-right square-and-multiply over `mul_mod`: shares no code
    /// with the Montgomery products.
    fn square_and_multiply(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let base = base.rem(m);
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    #[test]
    fn pow_matches_square_and_multiply_at_every_width() {
        let mut rng = Rng64::new(0x6d6f_6e74);
        for k in (1..=17).flat_map(|k| [k; 2]) {
            for m in moduli(&mut rng, k) {
                let ctx = MontCtx::new(&m);
                for base in bases(&mut rng, &m) {
                    for exp in exponents(&mut rng, k) {
                        assert_eq!(
                            ctx.pow(&base, &exp),
                            square_and_multiply(&base, &exp, &m),
                            "k={k} m={m:?} base={base:?} exp={exp:?}"
                        );
                    }
                }
            }
        }
    }

    /// `base^exp` through [`MontCtx::pow_mont_n`], the Montgomery-form
    /// core, at the widths that have one.
    fn pow_core(ctx: &MontCtx, base: &BigUint, exp: &BigUint) -> BigUint {
        match ctx.width() {
            2 => ctx.from_mont(&ctx.pow_mont_n::<2>(base, exp)),
            4 => ctx.from_mont(&ctx.pow_mont_n::<4>(base, exp)),
            8 => ctx.from_mont(&ctx.pow_mont_n::<8>(base, exp)),
            16 => ctx.from_mont(&ctx.pow_mont_n::<16>(base, exp)),
            k => unreachable!("no fixed-width core at {k} limbs"),
        }
    }

    #[test]
    fn fixed_width_pow_matches_the_generic_body() {
        let mut rng = Rng64::new(0x6669_7865);
        for k in [2, 4, 8, 16] {
            for _ in 0..4 {
                for m in moduli(&mut rng, k) {
                    let ctx = MontCtx::new(&m);
                    for base in bases(&mut rng, &m) {
                        for exp in exponents(&mut rng, k) {
                            let generic = ctx.pow_generic(&base, &exp);
                            let core = pow_core(&ctx, &base, &exp);
                            assert_eq!(core, generic, "k={k} m={m:?} base={base:?} exp={exp:?}");
                            assert_eq!(ctx.pow(&base, &exp), generic);
                        }
                    }
                }
            }
        }
    }

    /// `(d, r)` with `n − 1 = d·2^r` and `d` odd.
    fn split(n: &BigUint) -> (BigUint, usize) {
        let n_minus_1 = n - &BigUint::one();
        let r = (0..).take_while(|&i| !n_minus_1.bit(i)).count();
        (n_minus_1.shr_bits(r), r)
    }

    /// The largest probable prime at or below the odd `c`.
    fn prime_at_or_below(mut c: BigUint, rng: &mut Rng64) -> BigUint {
        while !crate::is_probable_prime(&c, 2, rng) {
            c = &c - &BigUint::from_u64(2);
        }
        c
    }

    /// Bases 0, 1, 2, 3, n − 1, two random reduced ones and an unreduced
    /// one of k + 1 limbs.
    fn round_bases(rng: &mut Rng64, n: &BigUint) -> Vec<BigUint> {
        let k = n.limbs().len();
        let mut wide = random_limbs(rng, k + 1);
        wide[k] = wide[k].max(1);
        [0, 1, 2, 3]
            .into_iter()
            .map(BigUint::from_u64)
            .chain([
                n - &BigUint::one(),
                BigUint::from_limbs(random_limbs(rng, k)).rem(n),
                BigUint::from_limbs(random_limbs(rng, k)).rem(n),
                BigUint::from_limbs(wide),
            ])
            .collect()
    }

    /// Runs the dispatched round against the generic one on every base of
    /// [`round_bases`], returning the verdicts.
    fn rounds_agree(rng: &mut Rng64, n: &BigUint) -> Vec<bool> {
        let ctx = MontCtx::new(n);
        let (d, r) = split(n);
        round_bases(rng, n)
            .iter()
            .map(|base| {
                let verdict = ctx.miller_rabin_round(base, &d, r);
                let oracle = ctx.miller_rabin_round_generic(base, &d, r);
                assert_eq!(verdict, oracle, "n={n:?} base={base:?}");
                verdict
            })
            .collect()
    }

    /// Base-2 strong pseudoprimes: 1093² and 3511² (squares of the
    /// Wieferich primes), the composite Fermat numbers 2^(2^j) + 1 for
    /// j = 6..=10 (2, 3, 5, 9 and 17 limbs, a top limb of 1), and
    /// (4^103 + 1)/5 and (4^227 + 1)/5 (4 and 8 limbs). None has a factor
    /// below 1000, so each reaches Miller–Rabin in `is_probable_prime`.
    fn base_2_pseudoprimes() -> Vec<BigUint> {
        let power_of_two = |bits: usize| {
            let mut v = BigUint::zero();
            v.set_bit(bits);
            v
        };
        let mut out = vec![
            BigUint::from_u64(1093 * 1093),
            BigUint::from_u64(3511 * 3511),
        ];
        out.extend((6..=10).map(|j| &power_of_two(1 << j) + &BigUint::one()));
        for p in [103, 227] {
            let (q, rem) = (&power_of_two(2 * p) + &BigUint::one()).div_rem_u64(5);
            assert_eq!(rem, 0);
            out.push(q);
        }
        out
    }

    /// Carmichael numbers: 561 and 41041, and (6m + 1)(12m + 1)(18m + 1)
    /// with all three factors prime (Chernick's form) at 2 to 17 limbs;
    /// those at 5 and 7 limbs are also strong pseudoprimes to base 2.
    fn carmichael_numbers(rng: &mut Rng64) -> Vec<BigUint> {
        const CHERNICK_M: [&str; 16] = [
            "2c531714",
            "3f8fd114ca5ad",
            "e990c6c32e13860187",
            "16dd33ce509b1489a501cc62",
            "2f0dba24b191eb463a5d26899a97a",
            "848a00b3317a416ddd47c1a1786b432662",
            "121cbed021666fcd3e9a62dfdc02167b26ee70c1",
            "36d3cad9e0af9932a7b42485aaf3a9cb540e65fcd4a5f",
            "82ca390c6beecc81a6fa7c44ce3363bc79a838ce8e7287e8a5",
            "17500dc89321cefdb50e646ff15d0f7af7fd60d8dfe8a41135851003",
            "27042b8f83a592cd94a36addedbb73a475f2f8b3c84846fba65e88d549ddb",
            "c3ea7adb44d9372902ab6c37ee55e13474cf7ab167ddc0fbf9c266004ac1981bd0",
            "1f08ae3f8d0a01457d952a68b322107c47ed52997d90fdade1a79be255eaf11505a335fc",
            "2c7a41a631dfc9b063661dba2708f37d4efcbcecac73fa7396df12b3d52bf618f3f194f1731e8",
            "e3f1864d176875ebb7ee7b500f928fe5fe91ee34a85f6d5605d1287f9ec3c91bf7e0f20795afb02365",
            "1dc6361bffa7a5c1c2b7cef3f070fe0b93d0efab93a8845c4fb7126e0e507586b36e543162c622eb975d464f",
        ];
        let mut out = vec![BigUint::from_u64(561), BigUint::from_u64(41041)];
        for (k, m) in (2..).zip(CHERNICK_M) {
            let m = n(m);
            let factors = [6, 12, 18].map(|c| &m.mul_u64(c) + &BigUint::one());
            for f in &factors {
                assert!(crate::is_probable_prime(f, 16, rng), "k={k} factor {f:?}");
            }
            let carmichael = &(&factors[0] * &factors[1]) * &factors[2];
            assert_eq!(carmichael.limbs().len(), k);
            out.push(carmichael);
        }
        out
    }

    /// Primes whose n − 1 carries many factors of two: 65537 = 2^16 + 1,
    /// 2^64 − 2^32 + 1, and t·2^(64(k − 1)) + 1 at 2 to 17 limbs, whose
    /// top limb is the small odd t.
    fn primes_with_many_twos() -> Vec<BigUint> {
        const PROTH_T: [u64; 16] = [
            25, 21, 133, 207, 7, 553, 25, 223, 327, 141, 1005, 63, 123, 837, 1201, 1125,
        ];
        let mut out = vec![
            BigUint::from_u64(65_537),
            BigUint::from_u64(0xffff_ffff_0000_0001),
        ];
        for (k, t) in (2..).zip(PROTH_T) {
            let mut top = BigUint::zero();
            top.set_bit(64 * (k - 1));
            out.push(&top.mul_u64(t) + &BigUint::one());
        }
        out
    }

    #[test]
    fn miller_rabin_round_matches_the_generic_round_at_every_width() {
        let mut rng = Rng64::new(0x6d72_6e64);
        for k in 1..=17 {
            for m in moduli(&mut rng, k) {
                // An odd value with the modulus's top limb, nearly always
                // composite, and the prime at or below it.
                let prime = prime_at_or_below(m.clone(), &mut rng);
                assert_eq!(prime.limbs().len(), k);
                rounds_agree(&mut rng, &m);
                let verdicts = rounds_agree(&mut rng, &prime);
                // Base 0 reduces to 0, which no round passes; every other
                // base is a unit modulo a prime.
                assert!(!verdicts[0], "k={k} prime={prime:?}");
                assert!(verdicts[1..].iter().all(|&v| v), "k={k} prime={prime:?}");
            }
            // A product of two primes of half the width.
            let half = 32 * k;
            let semiprime = &crate::gen_prime(half, &mut rng) * &crate::gen_prime(half, &mut rng);
            assert_eq!(semiprime.limbs().len(), k);
            rounds_agree(&mut rng, &semiprime);
        }
    }

    #[test]
    fn miller_rabin_round_on_pseudoprimes_and_twos_heavy_primes() {
        let mut rng = Rng64::new(0x7073_7073);
        let mut widths = std::collections::BTreeSet::new();
        for psp in base_2_pseudoprimes() {
            widths.insert(psp.limbs().len());
            let verdicts = rounds_agree(&mut rng, &psp);
            assert!(verdicts[2], "{psp:?} is a strong pseudoprime to base 2");
            assert!(!crate::is_probable_prime(&psp, 16, &mut rng), "{psp:?}");
        }
        for carmichael in carmichael_numbers(&mut rng) {
            widths.insert(carmichael.limbs().len());
            rounds_agree(&mut rng, &carmichael);
            assert!(
                !crate::is_probable_prime(&carmichael, 16, &mut rng),
                "{carmichael:?}"
            );
        }
        for prime in primes_with_many_twos() {
            widths.insert(prime.limbs().len());
            let verdicts = rounds_agree(&mut rng, &prime);
            assert!(verdicts[1..].iter().all(|&v| v), "{prime:?}");
            assert!(crate::is_probable_prime(&prime, 16, &mut rng), "{prime:?}");
            // A quadratic non-residue a, by Euler's criterion
            // a^((n − 1)/2) = n − 1, reaches n − 1 only at the last of the
            // r − 1 squarings, so a round one squaring short rejects it.
            let minus_one = &prime - &BigUint::one();
            let half = minus_one.shr_bits(1);
            let non_residue = (2..)
                .map(BigUint::from_u64)
                .find(|a| square_and_multiply(a, &half, &prime) == minus_one)
                .expect("half of the units are non-residues");
            let (d, r) = split(&prime);
            let ctx = MontCtx::new(&prime);
            assert!(ctx.miller_rabin_round(&non_residue, &d, r), "{prime:?}");
            assert!(
                !ctx.miller_rabin_round(&non_residue, &d, r - 1),
                "{prime:?}"
            );
        }
        assert!((1..=17).all(|k| widths.contains(&k)), "widths {widths:?}");
    }

    #[test]
    fn footprint_is_pinned_at_the_rsa_widths() {
        // Three k-limb buffers (n, R² mod n, R mod n): the size of the
        // simulated allocations that hold cached copies of P and Q.
        let mut rng = Rng64::new(0x666f_6f74);
        for (k, bytes) in [(2, 48), (4, 96), (8, 192), (16, 384)] {
            for m in moduli(&mut rng, k) {
                assert_eq!(MontCtx::new(&m).footprint_bytes(), bytes, "k={k}");
            }
        }
    }
}
