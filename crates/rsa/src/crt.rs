//! The CRT engine with OpenSSL-style Montgomery-context caching.
//!
//! OpenSSL's `RSA_eay_mod_exp` builds `BN_MONT_CTX` structures for the two
//! primes the first time a private-key operation runs and — when
//! `RSA_FLAG_CACHE_PRIVATE` is set (the default) — stores them in the RSA
//! object. Each cached context contains a full copy of its modulus, i.e. of
//! P and of Q. Section 5.1 of the paper disables that flag precisely to keep
//! those extra copies of the primes out of server memory; [`CrtEngine`]
//! reproduces both behaviours.

use crate::{RsaError, RsaPrivateKey};
use bignum::{BigUint, MontCtx};
use simrng::Rng64;

/// A stateful RSA private-key engine with optional Montgomery caching.
///
/// # Examples
///
/// ```
/// use rsa_repro::{CrtEngine, RsaPrivateKey};
/// use simrng::Rng64;
///
/// let key = RsaPrivateKey::generate(256, &mut Rng64::new(1));
/// let mut cached = CrtEngine::new(key.clone_secret(), true);
/// let mut uncached = CrtEngine::new(key.clone_secret(), false);
///
/// let c = key.public_key().encrypt_raw(&bignum::BigUint::from_u64(42))?;
/// assert_eq!(cached.private_op(&c)?, uncached.private_op(&c)?);
/// // Only the cached engine retains copies of the primes.
/// assert_eq!(cached.cached_contexts().len(), 2);
/// assert!(uncached.cached_contexts().is_empty());
/// # Ok::<(), rsa_repro::RsaError>(())
/// ```
pub struct CrtEngine {
    key: RsaPrivateKey,
    cache_private: bool,
    mont_p: Option<MontCtx>,
    mont_q: Option<MontCtx>,
    /// RSA blinding state (OpenSSL's timing-attack countermeasure): when
    /// enabled, each private op computes `(c · r^e)^d · r^{-1} mod n` for a
    /// fresh random `r`. Blinding multiplies the *temporaries* in flight but
    /// never touches where the key itself lives.
    blinding: Option<Rng64>,
    ops: u64,
}

/// The wrapped key and any cached contexts stay out of `{:?}` output; the
/// engine's *configuration* is what debugging needs.
impl core::fmt::Debug for CrtEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "CrtEngine(cache_private={}, blinding={}, ops={}, key=<redacted>)",
            self.cache_private,
            self.blinding.is_some(),
            self.ops
        )
    }
}

impl CrtEngine {
    /// Wraps a key. `cache_private` mirrors `RSA_FLAG_CACHE_PRIVATE`.
    #[must_use]
    pub fn new(key: RsaPrivateKey, cache_private: bool) -> Self {
        Self {
            key,
            cache_private,
            mont_p: None,
            mont_q: None,
            blinding: None,
            ops: 0,
        }
    }

    /// Enables RSA blinding with the given randomness seed (OpenSSL enables
    /// blinding by default; it defends the private op against timing
    /// side channels at the cost of two extra modular multiplications).
    #[must_use]
    pub fn with_blinding(mut self, seed: u64) -> Self {
        self.blinding = Some(Rng64::new(seed));
        self
    }

    /// Whether blinding is active.
    #[must_use]
    pub fn blinding(&self) -> bool {
        self.blinding.is_some()
    }

    /// The wrapped key.
    #[must_use]
    pub fn key(&self) -> &RsaPrivateKey {
        &self.key
    }

    /// Whether Montgomery contexts for P and Q are being cached.
    #[must_use]
    pub fn cache_private(&self) -> bool {
        self.cache_private
    }

    /// Toggles caching. Turning it off drops any cached contexts — the
    /// `flags &= ~RSA_FLAG_CACHE_PRIVATE` step of `RSA_memory_align()`.
    pub fn set_cache_private(&mut self, on: bool) {
        self.cache_private = on;
        if !on {
            self.mont_p = None;
            self.mont_q = None;
        }
    }

    /// The Montgomery contexts currently held — each one contains a copy of
    /// its prime modulus. Used by the servers' copy-site model to place those
    /// copies in simulated memory.
    #[must_use]
    pub fn cached_contexts(&self) -> Vec<&MontCtx> {
        self.mont_p.iter().chain(self.mont_q.iter()).collect()
    }

    /// Number of private operations performed.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// CRT private-key operation. With caching enabled, the first call
    /// constructs and retains the contexts; without it, fresh contexts are
    /// built and dropped every time (slower, but no lingering prime copies).
    ///
    /// # Errors
    ///
    /// Fails with [`RsaError::MessageTooLarge`] when `c >= n`.
    pub fn private_op(&mut self, c: &BigUint) -> Result<BigUint, RsaError> {
        if c >= self.key.n() {
            return Err(RsaError::MessageTooLarge);
        }
        self.ops += 1;

        // Blind the input: c' = c * r^e mod n.
        let unblind = if let Some(rng) = self.blinding.as_mut() {
            // keylint: allow(S005) -- the modulus n is public; blinding needs an owned copy alongside the mutable rng borrow
            let n = self.key.n().clone();
            let bytes = n.bit_len().div_ceil(8);
            let (r, r_inv) = loop {
                let candidate = BigUint::from_be_bytes(&rng.gen_bytes(bytes)).rem(&n);
                if candidate.is_zero() {
                    continue;
                }
                if let Some(inv) = candidate.mod_inverse(&n) {
                    break (candidate, inv);
                }
            };
            Some((r, r_inv, n))
        } else {
            None
        };
        let c_blinded;
        let c = if let Some((r, _, n)) = &unblind {
            let r_e = r.mod_pow(self.key.e(), n);
            c_blinded = c.mul_mod(&r_e, n);
            &c_blinded
        } else {
            c
        };

        let fresh;
        let (mp, mq) = if self.cache_private {
            if self.mont_p.is_none() {
                self.mont_p = Some(MontCtx::new(self.key.p()));
                self.mont_q = Some(MontCtx::new(self.key.q()));
            }
            (
                self.mont_p.as_ref().expect("just ensured"),
                self.mont_q.as_ref().expect("just ensured"),
            )
        } else {
            fresh = (MontCtx::new(self.key.p()), MontCtx::new(self.key.q()));
            (&fresh.0, &fresh.1)
        };
        let (p, q) = (self.key.p(), self.key.q());
        // Each of these recovers p or q through a gcd with n (c mod p
        // through gcd(c − c mod p, n), for one), so all are wiped before
        // they drop; `BigUint::rem`'s own quotient and scratch are not.
        let mut c_p = c.rem(p);
        let mut c_q = c.rem(q);
        let mut m1 = mp.pow(&c_p, self.key.dp());
        let mut m2 = mq.pow(&c_q, self.key.dq());
        let mut m2_p = m2.rem(p);
        let mut diff = m1.sub_mod(&m2_p, p);
        let mut h = self.key.qinv().mul_mod(&diff, p);
        let mut hq = &h * q;
        let m = &m2 + &hq;
        for v in [
            &mut c_p, &mut c_q, &mut m1, &mut m2, &mut m2_p, &mut diff, &mut h, &mut hq,
        ] {
            v.zeroize();
        }

        // Unblind: m = m' * r^{-1} mod n.
        if let Some((_, r_inv, n)) = unblind {
            Ok(m.mul_mod(&r_inv, &n))
        } else {
            Ok(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::Rng64;

    fn key() -> RsaPrivateKey {
        RsaPrivateKey::generate(256, &mut Rng64::new(21))
    }

    #[test]
    fn engine_matches_key_crt_and_raw() {
        let k = key();
        let mut eng = CrtEngine::new(k.clone_secret(), true);
        for seed in 0..5u64 {
            let m = BigUint::from_be_bytes(&Rng64::new(seed).gen_bytes(20));
            let c = k.public_key().encrypt_raw(&m).unwrap();
            let out = eng.private_op(&c).unwrap();
            assert_eq!(out, m);
            assert_eq!(out, k.private_op_raw(&c).unwrap());
        }
        assert_eq!(eng.ops(), 5);
    }

    #[test]
    fn caching_retains_prime_copies() {
        let k = key();
        let mut eng = CrtEngine::new(k.clone_secret(), true);
        assert!(eng.cached_contexts().is_empty(), "no contexts before use");
        let c = k.public_key().encrypt_raw(&BigUint::from_u64(5)).unwrap();
        eng.private_op(&c).unwrap();
        let ctxs = eng.cached_contexts();
        assert_eq!(ctxs.len(), 2);
        // Each context holds a copy of its prime.
        assert_eq!(&ctxs[0].modulus(), k.p());
        assert_eq!(&ctxs[1].modulus(), k.q());
    }

    #[test]
    fn uncached_engine_holds_nothing() {
        let k = key();
        let mut eng = CrtEngine::new(k.clone_secret(), false);
        let c = k.public_key().encrypt_raw(&BigUint::from_u64(5)).unwrap();
        eng.private_op(&c).unwrap();
        assert!(eng.cached_contexts().is_empty());
    }

    #[test]
    fn clearing_the_flag_drops_contexts() {
        let k = key();
        let mut eng = CrtEngine::new(k.clone_secret(), true);
        let c = k.public_key().encrypt_raw(&BigUint::from_u64(9)).unwrap();
        eng.private_op(&c).unwrap();
        assert_eq!(eng.cached_contexts().len(), 2);
        eng.set_cache_private(false);
        assert!(eng.cached_contexts().is_empty());
        // Still computes correctly afterwards.
        assert_eq!(eng.private_op(&c).unwrap(), BigUint::from_u64(9));
    }

    #[test]
    fn rsa_1024_engines_match_the_raw_private_op() {
        // CRT halves run the 8-limb Montgomery kernel, the raw op the
        // 16-limb one.
        let k = RsaPrivateKey::generate(1024, &mut Rng64::new(22));
        let mut cached = CrtEngine::new(k.clone_secret(), true);
        let mut uncached = CrtEngine::new(k.clone_secret(), false);
        let mut rng = Rng64::new(23);
        for i in 0..16 {
            let c = BigUint::from_be_bytes(&rng.gen_bytes(128)).rem(k.n());
            let raw = k.private_op_raw(&c).unwrap();
            assert_eq!(cached.private_op(&c).unwrap(), raw, "ciphertext {i}");
            assert_eq!(uncached.private_op(&c).unwrap(), raw, "ciphertext {i}");
        }
    }

    #[test]
    fn rejects_oversized_input() {
        let k = key();
        let mut eng = CrtEngine::new(k.clone_secret(), true);
        let big = k.n() + &BigUint::one();
        assert_eq!(eng.private_op(&big), Err(RsaError::MessageTooLarge));
        assert_eq!(eng.ops(), 0);
    }
}

#[cfg(test)]
mod blinding_tests {
    use super::*;
    use simrng::Rng64;

    #[test]
    fn blinded_results_match_unblinded() {
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(31));
        let mut plain = CrtEngine::new(key.clone_secret(), true);
        let mut blinded = CrtEngine::new(key.clone_secret(), true).with_blinding(99);
        assert!(blinded.blinding());
        assert!(!plain.blinding());
        for seed in 0..8u64 {
            let m = BigUint::from_be_bytes(&Rng64::new(seed).gen_bytes(24)).rem(key.n());
            let c = key.public_key().encrypt_raw(&m).unwrap();
            assert_eq!(
                blinded.private_op(&c).unwrap(),
                plain.private_op(&c).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn blinding_varies_internally_but_not_externally() {
        // Two engines with different blinding seeds agree on every output.
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(32));
        let mut a = CrtEngine::new(key.clone_secret(), false).with_blinding(1);
        let mut b = CrtEngine::new(key.clone_secret(), false).with_blinding(2);
        let c = key.public_key().encrypt_raw(&BigUint::from_u64(77)).unwrap();
        assert_eq!(a.private_op(&c).unwrap(), b.private_op(&c).unwrap());
        assert_eq!(a.private_op(&c).unwrap(), BigUint::from_u64(77));
    }
}
