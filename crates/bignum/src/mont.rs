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

    /// [`Self::pow_generic`]'s window walk over `[u64; N]` stack arrays;
    /// only the base's reduction and the conversion out of Montgomery form
    /// allocate.
    ///
    /// The reduced base, the window table and the accumulator are wiped
    /// before returning: each is secret-equivalent when the modulus is a
    /// prime factor of a public `n`, since `gcd(c·R − table[1], n)`
    /// recovers it. That is why the base enters Montgomery form here, on
    /// the stack, and not through `to_mont`, whose product scratch is
    /// freed unwiped.
    fn pow_n<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let n: &[u64; N] = self
            .n
            .limbs()
            .try_into()
            .expect("pow picks N from the width");
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
        let out = self.from_mont(&acc);
        crate::secure_zero(table.as_flattened_mut());
        crate::secure_zero(&mut acc);
        out
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

    #[test]
    fn fixed_width_pow_matches_the_generic_body() {
        let mut rng = Rng64::new(0x6669_7865);
        for k in [8, 16] {
            for _ in 0..4 {
                for m in moduli(&mut rng, k) {
                    let ctx = MontCtx::new(&m);
                    for base in bases(&mut rng, &m) {
                        for exp in exponents(&mut rng, k) {
                            let fixed = if k == 8 {
                                ctx.pow_n::<8>(&base, &exp)
                            } else {
                                ctx.pow_n::<16>(&base, &exp)
                            };
                            let generic = ctx.pow_generic(&base, &exp);
                            assert_eq!(fixed, generic, "k={k} m={m:?} base={base:?} exp={exp:?}");
                            assert_eq!(ctx.pow(&base, &exp), generic);
                        }
                    }
                }
            }
        }
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
