//! [`ShieldedKeyRegion`] — OpenSSH/OpenBSD-style key shielding over a
//! [`SecureKeyRegion`].
//!
//! The scheme (OpenSSH `sshkey_shield_private`, reproduced here over the
//! simulated machine):
//!
//! 1. allocate a **prekey**: 16 KiB of fresh random bytes in its own
//!    `mlock`ed, write-protected special region;
//! 2. hash the prekey down to a 16-byte stream-cipher key
//!    ([`wireproto::digest16`]);
//! 3. XOR-encrypt the six CRT components **in place** inside the
//!    [`SecureKeyRegion`];
//! 4. around each CRT operation, decrypt (unshield), run the operation,
//!    re-encrypt (reshield), and zero every transient work buffer.
//!
//! The point of the large prekey is cold-boot asymmetry: recovering the
//! cipher key requires *every one* of the 16384 prekey bytes intact, so a
//! memory image with even a tiny per-bit decay rate loses the prekey with
//! overwhelming probability — while the ciphertext it protects is useless
//! on its own. An exact-pattern scan of **allocated** memory (the class
//! that defeats kernel zeroing) finds only ciphertext outside the narrow
//! unshield window. That is not secrecy against an exact reader of all
//! memory: the prekey is allocated memory too, so a reader who knows the
//! scheme can hash it and decrypt the region, as a probe did in 6 of 6
//! attacker-matrix cells (ROADMAP item 2). The scheme's threat model is a
//! channel with bit errors, such as cold boot.

use crate::host::{secure_zero, SecretBuf};
use crate::region::SecureKeyRegion;
use memsim::{Kernel, Pid, SimError, SimResult, VAddr, PAGE_SIZE};
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;
use wireproto::{digest16, StreamCipher};

/// Size of the random prekey in bytes (16 KiB, as in OpenSSH).
pub const PREKEY_BYTES: usize = 16 * 1024;

const PREKEY_PAGES: usize = PREKEY_BYTES / PAGE_SIZE;

/// A [`SecureKeyRegion`] whose contents are encrypted at rest behind a
/// large random prekey, decrypted only around each CRT operation.
///
/// # Examples
///
/// ```
/// use keyguard::ShieldedKeyRegion;
/// use memsim::{Kernel, MachineConfig};
/// use rsa_repro::RsaPrivateKey;
/// use simrng::Rng64;
///
/// let mut kernel = Kernel::new(MachineConfig::small());
/// let pid = kernel.spawn();
/// let key = RsaPrivateKey::generate(128, &mut Rng64::new(1));
/// let mut shield =
///     ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(2))?;
/// assert!(shield.is_shielded());
/// // The region holds ciphertext; unshield exposes the plaintext copy
/// // only for the duration of the closure.
/// shield.with_unshielded(&mut kernel, pid, |_kernel| Ok(()))?;
/// assert!(shield.is_shielded());
/// shield.destroy(&mut kernel, pid)?;
/// # Ok::<(), memsim::SimError>(())
/// ```
// keylint: allow(S003) -- the key bytes live encrypted in simulated kernel pages; the transient host-side work buffers are SecretBufs (zero-on-drop) scrubbed after every operation
pub struct ShieldedKeyRegion {
    region: SecureKeyRegion,
    prekey_base: VAddr,
    prekey_locked: bool,
    shielded: bool,
    /// Host-side copy of the prekey read out for key derivation; scrubbed
    /// after every shield/unshield.
    work_prekey: SecretBuf,
    /// The derived 16-byte cipher key; scrubbed after every operation.
    work_key: SecretBuf,
    /// Component staging buffer for the in-place XOR; scrubbed per use.
    work_component: SecretBuf,
}

impl core::fmt::Debug for ShieldedKeyRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShieldedKeyRegion(region={:?}, prekey_base={:?}, shielded={}, <redacted>)",
            self.region, self.prekey_base, self.shielded
        )
    }
}

impl ShieldedKeyRegion {
    /// Installs the key into a fresh [`SecureKeyRegion`], allocates and
    /// fills the prekey, and shields the region. On return the only
    /// plaintext copy of the key in simulated memory has been replaced by
    /// ciphertext.
    ///
    /// Like [`SecureKeyRegion::install`], an `mlock` refusal on the prekey
    /// degrades to an unlocked (swappable) prekey rather than failing;
    /// every other mid-step failure rolls the install back.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (dead process, out of memory).
    pub fn install(
        kernel: &mut Kernel,
        pid: Pid,
        key: &RsaPrivateKey,
        rng: &mut Rng64,
    ) -> SimResult<Self> {
        let region = SecureKeyRegion::install(kernel, pid, key)?;
        match Self::wrap(kernel, pid, region, rng) {
            Ok(shield) => Ok(shield),
            Err((region, e)) => {
                // Leave memory as clean as before the call.
                let _ = region.destroy(kernel, pid);
                Err(e)
            }
        }
    }

    /// Shields an already-installed region (the servers' path: the region
    /// is installed by the generic aligned-level code, then wrapped when
    /// the level asks for shielding). On failure the untouched region is
    /// handed back so the caller decides its fate.
    ///
    /// # Errors
    ///
    /// Returns the original region alongside the simulator error.
    pub fn wrap(
        kernel: &mut Kernel,
        pid: Pid,
        region: SecureKeyRegion,
        rng: &mut Rng64,
    ) -> Result<Self, (SecureKeyRegion, SimError)> {
        let prekey_base = match kernel.alloc_special_region(pid, PREKEY_PAGES) {
            Ok(b) => b,
            Err(e) => return Err((region, e)),
        };
        let mut prekey = SecretBuf::from_vec(rng.gen_bytes(PREKEY_BYTES));
        let setup = Self::prekey_setup(kernel, pid, prekey_base, prekey.expose());
        prekey.wipe();
        let prekey_locked = match setup {
            Ok(locked) => locked,
            Err(e) => {
                Self::prekey_rollback(kernel, pid, prekey_base);
                return Err((region, e));
            }
        };
        let mut shield = Self {
            region,
            prekey_base,
            prekey_locked,
            shielded: false,
            work_prekey: SecretBuf::from_vec(Vec::new()),
            work_key: SecretBuf::from_vec(Vec::new()),
            work_component: SecretBuf::from_vec(Vec::new()),
        };
        if let Err(e) = shield.shield(kernel, pid) {
            Self::prekey_rollback(kernel, pid, shield.prekey_base);
            return Err((shield.region, e));
        }
        Ok(shield)
    }

    /// Writes the prekey bytes, mlocks (tolerating denial), and
    /// write-protects the prekey region. Returns whether the lock stuck.
    fn prekey_setup(
        kernel: &mut Kernel,
        pid: Pid,
        base: VAddr,
        bytes: &[u8],
    ) -> SimResult<bool> {
        kernel.write_bytes(pid, base, bytes)?;
        let locked = match kernel.mlock(pid, base, PREKEY_BYTES) {
            Ok(()) => true,
            Err(SimError::MlockDenied) => false,
            Err(e) => return Err(e),
        };
        kernel.mprotect_readonly(pid, base, PREKEY_BYTES, true)?;
        Ok(locked)
    }

    /// Best-effort teardown of a half-built prekey region.
    fn prekey_rollback(kernel: &mut Kernel, pid: Pid, base: VAddr) {
        let _ = kernel.mprotect_readonly(pid, base, PREKEY_BYTES, false);
        let _ = kernel.write_bytes(pid, base, &vec![0u8; PREKEY_BYTES]);
        let _ = kernel.free_special_region(pid, base, PREKEY_PAGES);
    }

    /// Whether the region currently holds ciphertext.
    #[must_use]
    pub fn is_shielded(&self) -> bool {
        self.shielded
    }

    /// Whether the prekey is pinned against swap (mirrors
    /// [`SecureKeyRegion::is_locked`] degradation semantics).
    #[must_use]
    pub fn prekey_locked(&self) -> bool {
        self.prekey_locked
    }

    /// The wrapped region.
    #[must_use]
    pub fn region(&self) -> &SecureKeyRegion {
        &self.region
    }

    /// Base address of the prekey region (page-aligned).
    #[must_use]
    pub fn prekey_base(&self) -> VAddr {
        self.prekey_base
    }

    /// Re-encrypts the region. No-op when already shielded.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; on a mid-transform fault the region is
    /// wiped (best-effort) so no plaintext component survives the failure.
    pub fn shield(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        if self.shielded {
            return Ok(());
        }
        self.xor_region(kernel, pid)?;
        self.shielded = true;
        Ok(())
    }

    /// Decrypts the region in place for a CRT operation. No-op when
    /// already unshielded.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; on a mid-transform fault the region is
    /// wiped (best-effort) so no plaintext component survives the failure.
    pub fn unshield(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        if !self.shielded {
            return Ok(());
        }
        self.xor_region(kernel, pid)?;
        self.shielded = false;
        Ok(())
    }

    /// Unshields, runs `f`, and reshields — even when `f` fails. The
    /// closure's error wins over a reshield error (the caller's fault
    /// handling comes first); a reshield failure on a successful closure
    /// is reported.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error, then any unshield/reshield error.
    pub fn with_unshielded<T>(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        f: impl FnOnce(&mut Kernel) -> SimResult<T>,
    ) -> SimResult<T> {
        self.unshield(kernel, pid)?;
        let result = f(kernel);
        let reshield = self.shield(kernel, pid);
        let value = result?;
        reshield?;
        Ok(value)
    }

    /// The symmetric in-place transform: derive the cipher key from the
    /// prekey, XOR every component with its keystream, scrub the work
    /// buffers. Encryption and decryption are the same operation.
    fn xor_region(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        let len = self.region.npages() * PAGE_SIZE;
        let outcome = (|| {
            self.work_prekey =
                SecretBuf::from_vec(kernel.read_bytes(pid, self.prekey_base, PREKEY_BYTES)?);
            self.work_key = SecretBuf::from_slice(&digest16(self.work_prekey.expose()));
            kernel.mprotect_readonly(pid, self.region.base(), len, false)?;
            let transform = self.xor_components(kernel, pid);
            let reprotect = kernel.mprotect_readonly(pid, self.region.base(), len, true);
            transform.and(reprotect)
        })();
        self.scrub();
        if outcome.is_err() {
            // A partial transform left a mix of plaintext and ciphertext:
            // destroy the evidence rather than leave plaintext components.
            let _ = self.region.wipe(kernel, pid);
        }
        outcome
    }

    fn xor_components(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        let key: [u8; 16] = self
            .work_key
            .expose()
            .try_into()
            .expect("digest16 is 16 bytes");
        for (nonce, name) in SecureKeyRegion::COMPONENTS.iter().enumerate() {
            let addr = self.region.component_addr(name).expect("fixed layout");
            let clen = self.region.component_len(name).expect("fixed layout");
            self.work_component = SecretBuf::from_vec(kernel.read_bytes(pid, addr, clen)?);
            StreamCipher::new(&key, nonce as u64).apply(self.work_component.expose_mut());
            kernel.write_bytes(pid, addr, self.work_component.expose())?;
            self.work_component.wipe();
        }
        Ok(())
    }

    /// Zeroes every host-side work buffer (prekey copy, derived cipher
    /// key, component staging).
    fn scrub(&mut self) {
        self.work_prekey.wipe();
        self.work_key.wipe();
        self.work_component.wipe();
    }

    /// Every retained host-side work-buffer byte, concatenated — the
    /// shielding analogue of `IncrementalScanner::cache_audit_bytes`. Tests
    /// scan this to prove no key material outlives an operation.
    #[must_use]
    pub fn work_audit_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.work_prekey.expose());
        out.extend_from_slice(self.work_key.expose());
        out.extend_from_slice(self.work_component.expose());
        out
    }

    /// Zeroes and frees the prekey, then wipes and unmaps the region.
    ///
    /// # Errors
    ///
    /// Propagates simulator address errors.
    pub fn destroy(self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        self.try_destroy(kernel, pid).map_err(|(_, e)| e)
    }

    /// Like [`Self::destroy`], but returns the intact handle alongside the
    /// error on failure, so the caller can retry. Both wipes (prekey and
    /// region) run before either unmap: a zeroing write can fail mid-way —
    /// COW-shared pages break the share first, and that allocation is
    /// fallible — and re-running a wipe is idempotent where re-running a
    /// free is not.
    ///
    /// # Errors
    ///
    /// Returns `(self, error)` with no pages lost.
    ///
    /// # Panics
    ///
    /// Panics if unmapping the already-wiped region fails — impossible
    /// without a simulator invariant violation, since a wiped region has no
    /// COW shares left to break and frees are not fault-injectable.
    pub fn try_destroy(self, kernel: &mut Kernel, pid: Pid) -> Result<(), (Self, SimError)> {
        if let Err(e) = kernel.mprotect_readonly(pid, self.prekey_base, PREKEY_BYTES, false) {
            return Err((self, e));
        }
        let mut zeros = vec![0u8; PREKEY_BYTES];
        let wrote = kernel.write_bytes(pid, self.prekey_base, &zeros);
        secure_zero(&mut zeros);
        if let Err(e) = wrote {
            return Err((self, e));
        }
        if let Err(e) = self.region.wipe(kernel, pid) {
            return Err((self, e));
        }
        // Past the wipes nothing allocates, so nothing below can be
        // fault-injected; the frees run exactly once.
        if let Err(e) = kernel.free_special_region(pid, self.prekey_base, PREKEY_PAGES) {
            return Err((self, e));
        }
        if let Err(e) = self.region.destroy(kernel, pid) {
            unreachable!("post-wipe region free failed: {e}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineConfig;
    use rsa_repro::material::limb_bytes;

    fn setup() -> (Kernel, Pid, RsaPrivateKey) {
        let mut kernel = Kernel::new(MachineConfig::small());
        let pid = kernel.spawn();
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(33));
        (kernel, pid, key)
    }

    #[test]
    fn install_leaves_ciphertext_in_the_region() {
        let (mut kernel, pid, key) = setup();
        let shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(7)).unwrap();
        assert!(shield.is_shielded());
        let d_plain = limb_bytes(key.d());
        let addr = shield.region().component_addr("d").unwrap();
        let stored = kernel.read_bytes(pid, addr, d_plain.len()).unwrap();
        assert_ne!(stored, d_plain, "region must not hold plaintext d");
        shield.destroy(&mut kernel, pid).unwrap();
    }

    #[test]
    fn unshield_restores_every_component_exactly() {
        let (mut kernel, pid, key) = setup();
        let mut shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(7)).unwrap();
        shield.unshield(&mut kernel, pid).unwrap();
        for name in SecureKeyRegion::COMPONENTS {
            let got = shield
                .region()
                .read_component(&kernel, pid, name)
                .unwrap()
                .unwrap();
            let want = match name {
                "d" => key.d(),
                "p" => key.p(),
                "q" => key.q(),
                "dp" => key.dp(),
                "dq" => key.dq(),
                _ => key.qinv(),
            };
            assert_eq!(&got, want, "component {name}");
        }
        shield.shield(&mut kernel, pid).unwrap();
        shield.destroy(&mut kernel, pid).unwrap();
    }

    #[test]
    fn shield_and_unshield_are_idempotent() {
        let (mut kernel, pid, key) = setup();
        let mut shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(9)).unwrap();
        let addr = shield.region().component_addr("p").unwrap();
        let len = shield.region().component_len("p").unwrap();
        let once = kernel.read_bytes(pid, addr, len).unwrap();
        shield.shield(&mut kernel, pid).unwrap();
        assert_eq!(kernel.read_bytes(pid, addr, len).unwrap(), once);
        shield.unshield(&mut kernel, pid).unwrap();
        shield.unshield(&mut kernel, pid).unwrap();
        assert_eq!(
            kernel.read_bytes(pid, addr, len).unwrap(),
            limb_bytes(key.p())
        );
        shield.destroy(&mut kernel, pid).unwrap();
    }

    #[test]
    fn with_unshielded_reshields_on_error() {
        let (mut kernel, pid, key) = setup();
        let mut shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(11)).unwrap();
        let err: SimResult<()> =
            shield.with_unshielded(&mut kernel, pid, |_| Err(SimError::MlockDenied));
        assert!(err.is_err());
        assert!(shield.is_shielded(), "error path must reshield");
        let d_plain = limb_bytes(key.d());
        let addr = shield.region().component_addr("d").unwrap();
        let stored = kernel.read_bytes(pid, addr, d_plain.len()).unwrap();
        assert_ne!(stored, d_plain);
        shield.destroy(&mut kernel, pid).unwrap();
    }

    #[test]
    fn work_buffers_are_scrubbed_after_each_operation() {
        let (mut kernel, pid, key) = setup();
        let mut shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(13)).unwrap();
        assert!(shield.work_audit_bytes().iter().all(|&b| b == 0));
        shield
            .with_unshielded(&mut kernel, pid, |_| Ok(()))
            .unwrap();
        assert!(shield.work_audit_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn destroy_clears_prekey_and_region() {
        let (mut kernel, pid, key) = setup();
        let shield =
            ShieldedKeyRegion::install(&mut kernel, pid, &key, &mut Rng64::new(17)).unwrap();
        let prekey_base = shield.prekey_base();
        let region_base = shield.region().base();
        shield.destroy(&mut kernel, pid).unwrap();
        // Both regions are unmapped now; their old frames hold zeros (the
        // wipe ran before the free), so a phys sweep finds no prekey bytes.
        assert!(kernel.read_bytes(pid, prekey_base, 16).is_err());
        assert!(kernel.read_bytes(pid, region_base, 16).is_err());
    }
}
