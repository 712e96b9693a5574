//! Crash-consistent key rotation: the lifecycle state machine that moves a
//! live deployment from one private key to its successor without a window in
//! which either key is exposed — or dropped traffic.
//!
//! The lifecycle is `Generate → Install → Activate → Drain → Retire`:
//!
//! 1. **Generate** — the successor key exists host-side only (derived
//!    deterministically by the caller); nothing has touched simulated memory.
//! 2. **Install** — the successor gets its protected home
//!    ([`Custody::install`]): a fresh [`SecureKeyRegion`], wrapped in a
//!    [`ShieldedKeyRegion`] at `ProtectionLevel::Shielded`. The step reuses
//!    `SecureKeyRegion::install`'s rollback discipline, so a fault here
//!    leaves memory exactly as scanned-clean as before — the old key is
//!    still fully live and no byte of the new key is resident.
//! 3. **Activate** — a pure in-memory swap: the caller adopts the incoming
//!    custody and hands the outgoing custody to the machine. New handshakes
//!    bind the new key from this instant; no kernel operation runs, so the
//!    step cannot be interrupted by a fault plan.
//! 4. **Drain** — both keys are resident (the rotation-window an attacker
//!    scans for): the new key serves fresh connections while in-flight
//!    sessions finish on engines that own the old key host-side. The
//!    outgoing custody stays at rest — shielded custody is never unshielded
//!    again after Activate.
//! 5. **Retire** — the outgoing custody is wiped and unmapped
//!    ([`Custody::destroy`]: zero *before* free, so nothing survives even a
//!    stock kernel's free lists). After Retire the old key is gone from
//!    every page the rotation machinery ever owned.
//!
//! Crash consistency is the contract the `rotsweep` harness enumerates: a
//! `fail` or `kill` injected at *any* operation index of the lifecycle —
//! including second-order `(j, k)` pairs that fault the recovery path of the
//! first fault — must leave the deployment in exactly one of
//! {old key fully live, new key fully live}, with zero stray bytes of
//! either key scanner-visible.

use crate::{ProtectionLevel, SecureKeyRegion, ShieldedKeyRegion};
use memsim::{Kernel, Pid, SimError, SimResult};
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;

/// The phases of one key rotation, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RotationPhase {
    /// The successor key has been generated host-side; simulated memory is
    /// untouched.
    Generate,
    /// The successor key sits in its own protected custody; the old key
    /// still serves all traffic.
    Install,
    /// The logical switch has happened: new handshakes use the new key.
    Activate,
    /// Both keys resident: old connections drain while new ones bind the
    /// successor.
    Drain,
    /// The old key's custody has been zeroized and unmapped (terminal).
    Retire,
}

impl RotationPhase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Self; 5] = [
        Self::Generate,
        Self::Install,
        Self::Activate,
        Self::Drain,
        Self::Retire,
    ];

    /// Short label used in sweep output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Generate => "generate",
            Self::Install => "install",
            Self::Activate => "activate",
            Self::Drain => "drain",
            Self::Retire => "retire",
        }
    }
}

impl core::fmt::Display for RotationPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The protected in-memory home of one key at an aligned protection level:
/// a plain [`SecureKeyRegion`], or the shielded wrapper at
/// [`ProtectionLevel::Shielded`].
///
/// Custody unifies the two shapes so the rotation machine (and a server,
/// which holds its key's home as an `Option<Custody>`) can install, hold,
/// and destroy either through one transactional interface.
// keylint: allow(S003) -- wraps the region/shield types, which keep the key bytes in simulated kernel pages
pub enum Custody {
    /// An unshielded aligned region (application/library/integrated).
    Plain(SecureKeyRegion),
    /// The prekey-encrypted region (shielded level).
    Shielded(ShieldedKeyRegion),
}

impl core::fmt::Debug for Custody {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Plain(r) => write!(f, "Custody::Plain({r:?})"),
            Self::Shielded(s) => write!(f, "Custody::Shielded({s:?})"),
        }
    }
}

impl Custody {
    /// Installs `key` into fresh custody appropriate for `level`:
    /// a [`SecureKeyRegion`], wrapped in a [`ShieldedKeyRegion`] when
    /// `level.shield_key()`.
    ///
    /// **Transactional**: any mid-step failure (including a failure while
    /// wrapping the shield) zeroes and frees everything already placed
    /// before the error is returned.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn install(
        kernel: &mut Kernel,
        pid: Pid,
        key: &RsaPrivateKey,
        level: ProtectionLevel,
        rng: &mut Rng64,
    ) -> SimResult<Self> {
        let region = SecureKeyRegion::install(kernel, pid, key)?;
        if level.shield_key() {
            match ShieldedKeyRegion::wrap(kernel, pid, region, rng) {
                Ok(shield) => Ok(Self::Shielded(shield)),
                Err((region, e)) => {
                    // Leave memory as clean as before the call.
                    let _ = region.destroy(kernel, pid);
                    Err(e)
                }
            }
        } else {
            Ok(Self::Plain(region))
        }
    }

    /// The underlying aligned region.
    #[must_use]
    pub fn region(&self) -> &SecureKeyRegion {
        match self {
            Self::Plain(r) => r,
            Self::Shielded(s) => s.region(),
        }
    }

    /// Whether the custody is encrypted at rest.
    #[must_use]
    pub fn is_shielded(&self) -> bool {
        matches!(self, Self::Shielded(_))
    }

    /// Wipes and unmaps the custody: zero before free, so no key byte
    /// reaches a free list even on a stock (non-zeroing) kernel.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn destroy(self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        match self {
            Self::Plain(r) => r.destroy(kernel, pid),
            Self::Shielded(s) => s.destroy(kernel, pid),
        }
    }

    /// Like [`Self::destroy`], but returns the intact custody alongside the
    /// error on failure so the caller can retry — the teardown writes are
    /// fallible (zeroing a COW-shared page allocates), and losing the
    /// handle on such a failure would strand the key bytes forever.
    ///
    /// # Errors
    ///
    /// Returns `(self, error)` with no pages lost.
    pub fn try_destroy(self, kernel: &mut Kernel, pid: Pid) -> Result<(), (Self, SimError)> {
        match self {
            Self::Plain(r) => r.try_destroy(kernel, pid).map_err(|(r, e)| (Self::Plain(r), e)),
            Self::Shielded(s) => {
                s.try_destroy(kernel, pid).map_err(|(s, e)| (Self::Shielded(s), e))
            }
        }
    }
}

/// One key rotation in flight: the state machine that owns the successor's
/// custody between Install and Activate, and the predecessor's custody
/// between Activate and Retire.
///
/// # Examples
///
/// ```
/// use keyguard::{KeyRotation, ProtectionLevel, RotationPhase};
/// use memsim::{Kernel, MachineConfig};
/// use rsa_repro::RsaPrivateKey;
/// use simrng::Rng64;
///
/// let mut kernel = Kernel::new(MachineConfig::small());
/// let pid = kernel.spawn();
/// let old = RsaPrivateKey::generate(128, &mut Rng64::new(1));
/// let new = RsaPrivateKey::generate(128, &mut Rng64::new(2));
/// let level = ProtectionLevel::Integrated;
/// let old_custody =
///     keyguard::Custody::install(&mut kernel, pid, &old, level, &mut Rng64::new(3))?;
///
/// let mut rot = KeyRotation::begin(level, 1);
/// rot.install(&mut kernel, pid, &new, &mut Rng64::new(4))?;
/// let adopted = rot.activate(Some(old_custody)).expect("aligned level");
/// rot.begin_drain();
/// assert_eq!(rot.phase(), RotationPhase::Drain);
/// rot.retire(&mut kernel, pid)?; // old key zeroized
/// adopted.destroy(&mut kernel, pid)?;
/// # Ok::<(), memsim::SimError>(())
/// ```
#[derive(Debug)]
pub struct KeyRotation {
    level: ProtectionLevel,
    ordinal: u64,
    phase: RotationPhase,
    /// The successor key's custody, held from Install until Activate.
    incoming: Option<Custody>,
    /// The predecessor key's custody, held from Activate until Retire.
    outgoing: Option<Custody>,
}

impl KeyRotation {
    /// Starts a rotation toward the key with rotation ordinal `ordinal`
    /// (1 for the first successor of the boot key). Phase: `Generate`.
    #[must_use]
    pub fn begin(level: ProtectionLevel, ordinal: u64) -> Self {
        Self {
            level,
            ordinal,
            phase: RotationPhase::Generate,
            incoming: None,
            outgoing: None,
        }
    }

    /// Current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> RotationPhase {
        self.phase
    }

    /// The rotation ordinal of the successor key.
    #[must_use]
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// The protection level this rotation deploys at.
    #[must_use]
    pub fn level(&self) -> ProtectionLevel {
        self.level
    }

    /// Whether both keys are resident (the mid-rotation attack window).
    #[must_use]
    pub fn both_resident(&self) -> bool {
        matches!(self.phase, RotationPhase::Activate | RotationPhase::Drain)
    }

    /// Whether old connections are still draining on the predecessor.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.phase == RotationPhase::Drain
    }

    /// Install phase: places `new_key` into fresh custody at aligned levels
    /// (a no-op in simulated memory at unaligned levels, whose scattered
    /// homes the server manages). Transactional — on error the machine
    /// stays in `Generate` and memory is exactly as before.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// If called outside the `Generate` phase.
    pub fn install(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        new_key: &RsaPrivateKey,
        rng: &mut Rng64,
    ) -> SimResult<()> {
        assert_eq!(self.phase, RotationPhase::Generate, "install out of order");
        if self.level.align_key() {
            self.incoming = Some(Custody::install(kernel, pid, new_key, self.level, rng)?);
        }
        self.phase = RotationPhase::Install;
        Ok(())
    }

    /// Abandons an installed-but-not-activated rotation: the successor's
    /// custody is zeroized and the machine returns to `Generate`, leaving
    /// the old key fully live.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the teardown.
    ///
    /// # Panics
    ///
    /// If called outside the `Install` phase.
    pub fn abort(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        assert_eq!(self.phase, RotationPhase::Install, "abort out of order");
        self.phase = RotationPhase::Generate;
        match self.incoming.take() {
            Some(custody) => custody.destroy(kernel, pid),
            None => Ok(()),
        }
    }

    /// Activate phase: the atomic switch. Takes the predecessor's custody
    /// into the machine and returns the successor's custody for the caller
    /// to adopt (`None` at unaligned levels). Pure in-memory — no kernel
    /// operation runs, so no fault plan can split it.
    ///
    /// # Panics
    ///
    /// If called outside the `Install` phase.
    pub fn activate(&mut self, outgoing: Option<Custody>) -> Option<Custody> {
        assert_eq!(self.phase, RotationPhase::Install, "activate out of order");
        self.outgoing = outgoing;
        self.phase = RotationPhase::Activate;
        self.incoming.take()
    }

    /// Enters the drain window: in-flight connections finish on the old
    /// key while new handshakes already use the successor.
    ///
    /// # Panics
    ///
    /// If called outside the `Activate` phase.
    pub fn begin_drain(&mut self) {
        assert_eq!(self.phase, RotationPhase::Activate, "drain out of order");
        self.phase = RotationPhase::Drain;
    }

    /// Retire phase (terminal): zeroizes and unmaps the predecessor's
    /// custody. **Retryable**: the teardown writes are fallible (zeroing a
    /// page the owner still COW-shares with a child must break the share,
    /// and that allocation can fail or be fault-injected), so on error the
    /// outgoing custody is kept, the phase stays `Drain`, and a later call
    /// picks the teardown back up — the one discipline that guarantees no
    /// fault at any index can strand the predecessor's bytes. A dead
    /// owner is terminal rather than transient — exit already unmapped
    /// the custody — so `retire` then finalizes like [`Self::retire_dead`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the teardown; the rotation still
    /// owns the outgoing custody and `retire` can be called again.
    ///
    /// # Panics
    ///
    /// If called outside the `Drain` (or, retrying, `Retire`) phase.
    pub fn retire(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        assert!(
            matches!(self.phase, RotationPhase::Drain | RotationPhase::Retire),
            "retire out of order"
        );
        if !kernel.alive(pid) {
            // Not a transient fault: exit already unmapped every page the
            // custody covered, so there is nothing left to scrub or retry.
            self.retire_dead();
            return Ok(());
        }
        if let Some(custody) = self.outgoing.take() {
            if let Err((custody, e)) = custody.try_destroy(kernel, pid) {
                self.outgoing = Some(custody);
                return Err(e);
            }
        }
        self.phase = RotationPhase::Retire;
        Ok(())
    }

    /// Retire for a dead owner: when the owning process was killed by a
    /// fault plan its pages are already unmapped, so the custody handles
    /// are simply dropped. (A hardened kernel zeroed the frames at unmap;
    /// on a stock kernel the kill itself is the disclosure, not the drop.)
    pub fn retire_dead(&mut self) {
        self.phase = RotationPhase::Retire;
        self.incoming = None;
        self.outgoing = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyscan::Scanner;
    use memsim::{FaultPlan, MachineConfig};
    use rsa_repro::material::KeyMaterial;

    fn setup(level: ProtectionLevel) -> (Kernel, Pid) {
        let mut kernel = Kernel::new(MachineConfig::small().with_policy(level.kernel_policy()));
        let pid = kernel.spawn();
        (kernel, pid)
    }

    fn keys() -> (RsaPrivateKey, RsaPrivateKey, Scanner, Scanner) {
        let old = RsaPrivateKey::generate(256, &mut Rng64::new(71));
        let new = RsaPrivateKey::generate(256, &mut Rng64::new(72));
        let old_scanner = Scanner::from_material(&KeyMaterial::from_key(&old));
        let new_scanner = Scanner::from_material(&KeyMaterial::from_key(&new));
        (old, new, old_scanner, new_scanner)
    }

    #[test]
    fn full_lifecycle_swaps_keys_without_residue_at_every_aligned_level() {
        for level in ProtectionLevel::ALL.into_iter().filter(|l| l.align_key()) {
            let (mut kernel, pid) = setup(level);
            let (old, new, old_scanner, new_scanner) = keys();
            let mut rng = Rng64::new(5);
            let old_custody = Custody::install(&mut kernel, pid, &old, level, &mut rng).unwrap();
            assert_eq!(old_custody.is_shielded(), level.shield_key());

            let mut rot = KeyRotation::begin(level, 1);
            assert_eq!(rot.phase(), RotationPhase::Generate);
            rot.install(&mut kernel, pid, &new, &mut rng).unwrap();
            assert_eq!(rot.phase(), RotationPhase::Install);

            let adopted = rot.activate(Some(old_custody)).expect("aligned custody");
            rot.begin_drain();
            assert!(rot.both_resident() && rot.draining(), "{level}");
            // Mid-drain: both keys resident (ciphertext at shielded).
            if !level.shield_key() {
                assert!(old_scanner.scan_kernel(&kernel).compromised(), "{level}");
                assert!(new_scanner.scan_kernel(&kernel).compromised(), "{level}");
            }

            rot.retire(&mut kernel, pid).unwrap();
            assert_eq!(rot.phase(), RotationPhase::Retire);
            // Old key gone everywhere — allocated and unallocated.
            assert_eq!(old_scanner.scan_kernel(&kernel).total(), 0, "{level}");
            adopted.destroy(&mut kernel, pid).unwrap();
            assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0, "{level}");
        }
    }

    #[test]
    fn faulted_install_leaves_old_key_fully_live_and_no_new_key_bytes() {
        for level in [ProtectionLevel::Integrated, ProtectionLevel::Shielded] {
            let (mut kernel, pid) = setup(level);
            let (old, new, old_scanner, new_scanner) = keys();
            let mut rng = Rng64::new(9);
            let old_custody = Custody::install(&mut kernel, pid, &old, level, &mut rng).unwrap();
            let old_resident = old_scanner.scan_kernel(&kernel).total();

            let mut rot = KeyRotation::begin(level, 1);
            // Fault the frame allocation backing the new region's page.
            let start = kernel.op_index();
            kernel.install_fault_plan(FaultPlan::new().fail_at_index(start + 1));
            let err = rot.install(&mut kernel, pid, &new, &mut rng);
            kernel.clear_fault_plan();
            assert!(err.is_err(), "{level}");
            assert_eq!(rot.phase(), RotationPhase::Generate, "{level}");
            // Old key exactly as live as before; zero new-key bytes.
            assert_eq!(old_scanner.scan_kernel(&kernel).total(), old_resident);
            assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0, "{level}");
            // Retry from Generate succeeds.
            rot.install(&mut kernel, pid, &new, &mut rng).unwrap();
            let adopted = rot.activate(Some(old_custody)).unwrap();
            rot.begin_drain();
            rot.retire(&mut kernel, pid).unwrap();
            assert_eq!(old_scanner.scan_kernel(&kernel).total(), 0);
            adopted.destroy(&mut kernel, pid).unwrap();
            let _ = new_scanner;
        }
    }

    #[test]
    fn second_order_fault_on_install_retry_still_leaves_clean_state() {
        let level = ProtectionLevel::Integrated;
        let (mut kernel, pid) = setup(level);
        let (old, new, old_scanner, new_scanner) = keys();
        let mut rng = Rng64::new(11);
        let _old_custody = Custody::install(&mut kernel, pid, &old, level, &mut rng).unwrap();

        let mut rot = KeyRotation::begin(level, 1);
        let start = kernel.op_index();
        // First fault hits the install; second faults the retry's region
        // write path — the recovery path of the first failure.
        kernel.install_fault_plan(FaultPlan::new().fail_at_indices(start + 1, start + 3));
        assert!(rot.install(&mut kernel, pid, &new, &mut rng).is_err());
        assert_eq!(rot.phase(), RotationPhase::Generate);
        let second = rot.install(&mut kernel, pid, &new, &mut rng);
        kernel.clear_fault_plan();
        // Whatever the retry's fate, state is one of the two legal outcomes
        // and no stray new-key bytes are visible on the hardened kernel.
        if second.is_err() {
            assert_eq!(rot.phase(), RotationPhase::Generate);
            assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0);
        }
        assert!(old_scanner.scan_kernel(&kernel).compromised(), "old key live");
    }

    #[test]
    fn abort_unwinds_an_installed_rotation() {
        let level = ProtectionLevel::Application;
        let (mut kernel, pid) = setup(level);
        let (old, new, old_scanner, new_scanner) = keys();
        let mut rng = Rng64::new(13);
        let _old_custody = Custody::install(&mut kernel, pid, &old, level, &mut rng).unwrap();

        let mut rot = KeyRotation::begin(level, 1);
        rot.install(&mut kernel, pid, &new, &mut rng).unwrap();
        assert!(new_scanner.scan_kernel(&kernel).compromised());
        rot.abort(&mut kernel, pid).unwrap();
        assert_eq!(rot.phase(), RotationPhase::Generate);
        // Stock kernel here (application level) — the zero-before-free
        // discipline, not kernel policy, is what scrubs the successor.
        assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0);
        assert!(old_scanner.scan_kernel(&kernel).compromised());
    }

    #[test]
    fn kill_mid_retire_leaves_nothing_on_a_hardened_kernel() {
        let level = ProtectionLevel::Integrated;
        let (mut kernel, pid) = setup(level);
        let (old, new, old_scanner, new_scanner) = keys();
        let mut rng = Rng64::new(17);
        let old_custody = Custody::install(&mut kernel, pid, &old, level, &mut rng).unwrap();
        let mut rot = KeyRotation::begin(level, 1);
        rot.install(&mut kernel, pid, &new, &mut rng).unwrap();
        let adopted = rot.activate(Some(old_custody)).unwrap();
        rot.begin_drain();
        // Kill the owner at the next fallible operation, then retire.
        kernel.install_fault_plan(FaultPlan::new().kill_at_index(kernel.op_index()));
        // Force a fallible op so the kill lands before the retire writes.
        let _ = kernel.heap_alloc(pid, 8);
        kernel.clear_fault_plan();
        assert!(!kernel.alive(pid));
        let _ = rot.retire(&mut kernel, pid); // errors: owner is dead
        assert_eq!(rot.phase(), RotationPhase::Retire);
        drop(adopted); // handle of a dead process's pages
        // exit unmapped everything; the hardened kernel zeroed the frames.
        assert_eq!(old_scanner.scan_kernel(&kernel).total(), 0);
        assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0);
    }

    #[test]
    fn unaligned_levels_carry_no_custody_through_the_machine() {
        let level = ProtectionLevel::Kernel;
        let (mut kernel, pid) = setup(level);
        let (_, new, _, new_scanner) = keys();
        let mut rng = Rng64::new(19);
        let mut rot = KeyRotation::begin(level, 1);
        rot.install(&mut kernel, pid, &new, &mut rng).unwrap();
        // No aligned custody at kernel level: nothing entered memory.
        assert_eq!(new_scanner.scan_kernel(&kernel).total(), 0);
        assert!(rot.activate(None).is_none());
        rot.begin_drain();
        rot.retire(&mut kernel, pid).unwrap();
        assert_eq!(rot.phase(), RotationPhase::Retire);
    }

    #[test]
    #[should_panic(expected = "activate out of order")]
    fn out_of_order_activate_panics() {
        let mut rot = KeyRotation::begin(ProtectionLevel::Integrated, 1);
        let _ = rot.activate(None);
    }

    #[test]
    #[should_panic(expected = "retire out of order")]
    fn out_of_order_retire_panics() {
        let (mut kernel, pid) = setup(ProtectionLevel::Integrated);
        let mut rot = KeyRotation::begin(ProtectionLevel::Integrated, 1);
        let _ = rot.retire(&mut kernel, pid);
    }

    #[test]
    fn phase_labels_are_stable_and_ordered() {
        let labels: Vec<&str> = RotationPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["generate", "install", "activate", "drain", "retire"]
        );
        assert!(RotationPhase::Generate < RotationPhase::Retire);
        assert_eq!(RotationPhase::Drain.to_string(), "drain");
    }
}
