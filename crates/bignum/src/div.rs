//! Division and remainder: Knuth Algorithm D, plus a simple binary long
//! division retained as an independently implemented cross-check oracle.

use crate::BigUint;

impl BigUint {
    /// Divides by a single machine word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    #[must_use]
    pub fn div_rem_u64(&self, divisor: u64) -> (Self, u64) {
        assert!(divisor != 0, "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let wide = (u128::from(rem) << 64) | u128::from(limb);
            quotient[i] = (wide / u128::from(divisor)) as u64;
            rem = (wide % u128::from(divisor)) as u64;
        }
        (Self::from_limbs(quotient), rem)
    }

    /// The remainder of [`Self::div_rem_u64`], without building the
    /// quotient: what trial division needs, with no allocation.
    pub(crate) fn rem_u64(&self, divisor: u64) -> u64 {
        assert!(divisor != 0, "division by zero");
        self.limbs.iter().rev().fold(0, |rem, &limb| {
            let wide = (u128::from(rem) << 64) | u128::from(limb);
            (wide % u128::from(divisor)) as u64
        })
    }

    /// Divides, returning `(quotient, remainder)` with `remainder < divisor`.
    ///
    /// Implements Knuth TAOCP vol. 2 Algorithm D in base 2^64.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Self::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Self::from_u64(r));
        }

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl_bits(shift);
        let u_big = self.shl_bits(shift);
        let n = v.limbs.len();
        let mut u = u_big.limbs.clone();
        u.push(0); // extra high limb for the algorithm
        let m = u.len() - n - 1;
        let v_top = v.limbs[n - 1];
        let v_next = v.limbs[n - 2];

        let mut q_limbs = vec![0u64; m + 1];

        // D2/D7: loop over quotient digits from most significant down.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top three dividend limbs and top two
            // divisor limbs.
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut qhat = top / u128::from(v_top);
            let mut rhat = top % u128::from(v_top);
            while qhat >= (1u128 << 64)
                || qhat * u128::from(v_next) > ((rhat << 64) | u128::from(u[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(v_top);
                if rhat >= (1u128 << 64) {
                    break;
                }
            }
            let mut qhat = qhat as u64;

            // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = u128::from(qhat) * u128::from(v.limbs[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(u[j + i]) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = i128::from(u[j + n]) - carry as i128 + borrow;
            u[j + n] = sub as u64;

            // D5/D6: if we subtracted too much, add the divisor back once.
            if sub < 0 {
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u128::from(u[j + i]) + u128::from(v.limbs[i]) + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = qhat;
        }

        // D8: denormalize the remainder.
        let rem = Self::from_limbs(u[..n].to_vec()).shr_bits(shift);
        (Self::from_limbs(q_limbs), rem)
    }

    /// Reduces `self` modulo `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// Binary (shift-and-subtract) long division. Slower than [`Self::div_rem`]
    /// but implemented independently, so the two can cross-validate each other
    /// in tests.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn div_rem_binary(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Self::zero(), self.clone());
        }
        let mut quotient = Self::zero();
        let mut rem = Self::zero();
        for i in (0..self.bit_len()).rev() {
            rem = rem.shl_bits(1);
            if self.bit(i) {
                rem.set_bit(0);
            }
            if rem >= *divisor {
                rem = &rem - divisor;
                quotient.set_bit(i);
            }
        }
        (quotient, rem)
    }

    /// Modular addition: `(self + other) mod m`, assuming both inputs are
    /// already reduced.
    #[must_use]
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let s = self + other;
        if s >= *m {
            &s - m
        } else {
            s
        }
    }

    /// Modular subtraction: `(self - other) mod m`, assuming both inputs are
    /// already reduced.
    #[must_use]
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self >= other {
            self - other
        } else {
            &(self + m) - other
        }
    }

    /// Modular multiplication via full product and reduction.
    #[must_use]
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        (self * other).rem(m)
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    fn n(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn div_rem_u64_basics() {
        let (q, r) = n("64").div_rem_u64(10); // 100 / 10
        assert_eq!(q, n("a"));
        assert_eq!(r, 0);
        let (q, r) = n("65").div_rem_u64(10);
        assert_eq!(q, n("a"));
        assert_eq!(r, 1);
    }

    /// The allocation-free remainder equals `div_rem_u64`'s, for random
    /// values of 1 to 17 limbs (and zero) by every trial-division prime and
    /// by divisors up to `u64::MAX`.
    #[test]
    fn rem_u64_matches_div_rem_u64() {
        let mut rng = simrng::Rng64::new(0x7E11);
        let mut values = vec![BigUint::zero()];
        for len in 1..=17 {
            for _ in 0..4 {
                values.push(BigUint::from_limbs(
                    (0..len).map(|_| rng.next_u64()).collect(),
                ));
            }
            values.push(BigUint::from_limbs(vec![u64::MAX; len]));
        }
        let divisors =
            crate::SMALL_PRIMES
                .iter()
                .copied()
                .chain([1, 1 << 32, u64::MAX, rng.next_u64() | 1]);
        for d in divisors {
            for v in &values {
                assert_eq!(v.rem_u64(d), v.div_rem_u64(d).1, "{v:?} mod {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_word_panics() {
        let _ = n("5").div_rem_u64(0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n("5").div_rem(&BigUint::zero());
    }

    #[test]
    fn div_smaller_than_divisor() {
        let (q, r) = n("5").div_rem(&n("100000000000000000"));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, n("5"));
    }

    #[test]
    fn div_exact_and_self() {
        let a = n("123456789abcdef0123456789abcdef0");
        let (q, r) = a.div_rem(&a);
        assert_eq!(q, BigUint::one());
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    fn div_reconstruction_multi_limb() {
        let a = n("fedcba9876543210fedcba9876543210fedcba9876543210");
        let b = n("123456789abcdef01234567");
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn knuth_matches_binary_on_adversarial_cases() {
        // Cases chosen to stress qhat correction: divisor top limb near 2^63,
        // dividend limbs of all-ones, near-equal operands.
        let cases = [
            ("ffffffffffffffffffffffffffffffff", "8000000000000001"),
            ("ffffffffffffffffffffffffffffffff", "ffffffffffffffff0000000000000001"),
            ("100000000000000000000000000000000", "ffffffffffffffff"),
            (
                "7fffffffffffffffffffffffffffffffffffffffffffffff",
                "80000000000000000000000000000000",
            ),
            ("fedcba9876543210", "fedcba987654320f"),
        ];
        for (a_s, b_s) in cases {
            let a = n(a_s);
            let b = n(b_s);
            let (q1, r1) = a.div_rem(&b);
            let (q2, r2) = a.div_rem_binary(&b);
            assert_eq!(q1, q2, "quotient mismatch for {a_s}/{b_s}");
            assert_eq!(r1, r2, "remainder mismatch for {a_s}/{b_s}");
        }
    }

    #[test]
    fn rem_is_reduced() {
        let m = n("10001");
        let x = n("123456789abcdef");
        let r = x.rem(&m);
        assert!(r < m);
    }

    #[test]
    fn add_mod_wraps() {
        let m = n("11");
        assert_eq!(n("10").add_mod(&n("5"), &m), n("4")); // 16+5 = 21 = 17+4
        assert_eq!(n("1").add_mod(&n("2"), &m), n("3"));
    }

    #[test]
    fn sub_mod_wraps() {
        let m = n("11");
        assert_eq!(n("3").sub_mod(&n("5"), &m), n("f")); // 3-5 mod 17 = 15
        assert_eq!(n("5").sub_mod(&n("3"), &m), n("2"));
    }

    #[test]
    fn mul_mod_reduces() {
        let m = n("65537");
        let a = n("123456");
        let b = n("abcdef");
        let direct = (&a * &b).rem(&m);
        assert_eq!(a.mul_mod(&b, &m), direct);
        assert!(a.mul_mod(&b, &m) < m);
    }
}
