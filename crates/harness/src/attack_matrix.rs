//! The attacker-class × protection-level matrix: how each countermeasure
//! tier fares as the attacker model strengthens beyond the paper's.
//!
//! Six attacker classes:
//!
//! * **exact-free** — the paper's disclosure attacker: exact byte patterns,
//!   but only *unallocated* (freed) memory is ever disclosed to it.
//! * **exact-allocated** — an attacker who can read *all* of physical
//!   memory (DMA device, hypervisor, `/dev/mem`) but still needs a
//!   byte-perfect key image.
//! * **cold-boot** — full physical memory *after* a power-cut decay
//!   ([`memsim::Kernel::snapshot_decayed`]): exact patterns are destroyed,
//!   but [`keyscan::reconstruct`] rebuilds the key from the surviving
//!   1-bits via the CRT-component relations.
//! * **swap-theft** — the attacker never touches RAM: memory pressure
//!   evicts what it can, and the attacker reads the swap device (a stolen
//!   disk). Falls exactly along the `mlock` line: tiers that pin the key
//!   region keep it off the device; tiers that leave it pageable lose it.
//! * **dedup** — the KSM timing oracle ([`keyscan::dedup_probe`]): no read
//!   primitive at all, only "was my planted page merged?". Defeats exactly
//!   the tiers whose *tidy aligned plaintext layout* makes the key page
//!   guessable byte-for-byte — the aligned region's neatness turned against
//!   it — while `Shielded` (ciphertext page) and the heap tiers
//!   (unpredictable chunk layout) survive.
//! * **rotation-window** — an all-of-physical-memory reader who times the
//!   seizure for the one moment rekeying doubles the attack surface: the
//!   Drain phase, when in-flight handshakes still hold the predecessor key
//!   while new handshakes already use the successor. Every level below
//!   `Shielded` keeps a plaintext working copy of the *outgoing* key
//!   somewhere until its last connection drains; `Shielded` keeps both
//!   epochs ciphertext at rest, so even the widest window shows the
//!   exact-pattern scan nothing.
//!
//! The matrix pins the headline claim of the shielded tier: levels up to
//! `Integrated` keep a plaintext working copy *somewhere* in allocated
//! memory, so the stronger attackers defeat them; `Shielded` keeps the
//! region ciphertext at rest, and no class as run here recovers it. Its
//! HELD verdicts against `exact-allocated` and `rotation-window` hold
//! against the exact-pattern scanner only: both read all of memory, where
//! the 16 KiB prekey sits beside the ciphertext, and a probe reader that
//! knows the scheme recovered the key in 6 of 6 such cells (ROADMAP
//! item 2). The tier's margin is against readers with bit errors, such as
//! cold boot.
//!
//! Every cell is an independent executor task seeded purely from the cell
//! coordinates, so the matrix is bit-identical at any thread count.

use crate::attack_sweep::drive_workload;
use crate::exec::{cell_seed, Executor};
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::dedup_probe;
use keyscan::reconstruct::{reconstruct, ReconstructConfig};
use memsim::{SimResult, PAGE_SIZE};
use rsa_repro::material::limb_bytes;
use rsa_repro::RsaPrivateKey;
use servers::{ApacheServer, SecureServer, SshServer};
use simrng::Rng64;

/// Fraction of 1-bits lost in the cold-boot snapshot. Low enough that the
/// reconstruction attack is comfortably inside its threshold, high enough
/// that exact pattern copies are destroyed with overwhelming probability.
pub const DEFAULT_DECAY_RATE: f64 = 0.02;

/// Total connections driven through the victim before each attack.
const MATRIX_CONNECTIONS: usize = 24;

/// The attacker models the matrix sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerClass {
    /// Exact patterns over unallocated memory only (the paper's attacker).
    ExactFree,
    /// Exact patterns over all of physical memory.
    ExactAllocated,
    /// Decayed full-memory image plus CRT partial-key reconstruction.
    ColdBoot,
    /// Memory pressure plus a stolen swap device: exact patterns over
    /// [`memsim::Kernel::swap_bytes`] after maximal eviction.
    SwapTheft,
    /// The memory-deduplication timing oracle: plant a byte-exact guess of
    /// the victim's key page, let the deduplicator run, detect the merge
    /// through the copy-on-write fault it causes.
    Dedup,
    /// Full physical memory read timed for the rotation drain window, when
    /// the predecessor and successor keys are both resident. Success means
    /// recovering the *outgoing* key mid-Drain.
    RotationWindow,
}

impl AttackerClass {
    /// All classes. New classes are appended so the positional cell seeds
    /// of the original three stay stable across releases.
    pub const ALL: [Self; 6] = [
        Self::ExactFree,
        Self::ExactAllocated,
        Self::ColdBoot,
        Self::SwapTheft,
        Self::Dedup,
        Self::RotationWindow,
    ];

    /// Name used in output files and flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ExactFree => "exact-free",
            Self::ExactAllocated => "exact-allocated",
            Self::ColdBoot => "cold-boot",
            Self::SwapTheft => "swap-theft",
            Self::Dedup => "dedup",
            Self::RotationWindow => "rotation-window",
        }
    }

    /// Parses a label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "exact-free" | "free" => Some(Self::ExactFree),
            "exact-allocated" | "allocated" => Some(Self::ExactAllocated),
            "cold-boot" | "coldboot" => Some(Self::ColdBoot),
            "swap-theft" | "swap" => Some(Self::SwapTheft),
            "dedup" | "ksm" => Some(Self::Dedup),
            "rotation-window" | "rotation" => Some(Self::RotationWindow),
            _ => None,
        }
    }

    /// Whether this attacker reads allocated memory (and should therefore
    /// attack a *live* server rather than freed residue).
    #[must_use]
    pub fn reads_allocated(self) -> bool {
        !matches!(self, Self::ExactFree)
    }

    /// The expected verdict for a protection level: `true` means the level
    /// is expected to fall to this attacker.
    ///
    /// * exact-free falls only for the unprotected baseline (every aligned
    ///   or zeroing level keeps free memory clean — the paper's result);
    /// * exact-allocated defeats everything below `Shielded`: some process
    ///   always holds a byte-exact working copy;
    /// * cold-boot likewise defeats everything below `Shielded` — decay
    ///   breaks the exact scan but not the CRT reconstruction;
    /// * swap-theft falls exactly along the `mlock` line: the tiers that
    ///   never pin the key (`None`, `Kernel`) lose it to the device, every
    ///   aligned tier keeps it locked in RAM;
    /// * dedup defeats exactly the *plaintext aligned* tiers
    ///   (`Application`, `Library`, `Integrated`): their fixed page layout
    ///   is byte-for-byte guessable. The heap tiers are safe by obscurity
    ///   (chunk headers and offsets make the page unguessable), `Shielded`
    ///   by construction (the resident page is ciphertext);
    /// * rotation-window defeats everything below `Shielded`: while a
    ///   drained connection is still in flight the outgoing key's working
    ///   copy stays plaintext-resident, and the window is the attacker's to
    ///   time. `Shielded` holds both epochs ciphertext at rest;
    /// * `Shielded` survives all six as they run here: ciphertext at rest,
    ///   and the plaintext window is closed whenever the machine can be
    ///   seized. Against the two all-memory readers that holds for the
    ///   exact-pattern scan only, not for a reader that knows the scheme
    ///   (see the module docs).
    #[must_use]
    pub fn expected_to_defeat(self, level: ProtectionLevel) -> bool {
        match self {
            Self::ExactFree => level == ProtectionLevel::None,
            Self::ExactAllocated | Self::ColdBoot | Self::RotationWindow => {
                level != ProtectionLevel::Shielded
            }
            Self::SwapTheft => !level.mlock_key(),
            Self::Dedup => matches!(
                level,
                ProtectionLevel::Application
                    | ProtectionLevel::Library
                    | ProtectionLevel::Integrated
            ),
        }
    }
}

impl core::fmt::Display for AttackerClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Protection level under attack.
    pub level: ProtectionLevel,
    /// Attacker model.
    pub attacker: AttackerClass,
    /// Repetitions in which the attacker recovered the key.
    pub compromised: usize,
    /// Total repetitions.
    pub repetitions: usize,
    /// Whether the observed verdict matches [`AttackerClass::expected_to_defeat`].
    pub as_expected: bool,
}

impl MatrixCell {
    /// The cell's verdict: did the attacker get the key at least once?
    #[must_use]
    pub fn defeated(&self) -> bool {
        self.compromised > 0
    }
}

/// The full matrix for one server kind.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackerMatrixReport {
    /// Server label (`ssh` / `apache`).
    pub kind_label: &'static str,
    /// Decay rate used for the cold-boot cells.
    pub decay_rate: f64,
    /// Cells in `(level, attacker)` row-major order.
    pub cells: Vec<MatrixCell>,
}

impl AttackerMatrixReport {
    /// Cells whose verdict contradicts the expectation table — in CI these
    /// fail the run.
    #[must_use]
    pub fn violations(&self) -> Vec<&MatrixCell> {
        self.cells.iter().filter(|c| !c.as_expected).collect()
    }

    /// One-line summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "attacker matrix / {}: {} cells, decay {:.3}, {} violations",
            self.kind_label,
            self.cells.len(),
            self.decay_rate,
            self.violations().len()
        )
    }
}

/// Per-cell seed: a pure function of the root seed and the cell coordinates
/// `(level, attacker, repetition)` plus the server kind — independent of
/// execution order, grid composition, and thread count.
fn matrix_cell_seed(
    root: u64,
    kind: ServerKind,
    level: ProtectionLevel,
    attacker: AttackerClass,
    rep: usize,
) -> u64 {
    let kind_ix = match kind {
        ServerKind::Ssh => 1u64,
        ServerKind::Apache => 2u64,
    };
    let level_ix = ProtectionLevel::ALL
        .iter()
        .position(|&l| l == level)
        .expect("level in ALL") as u64;
    let attacker_ix = AttackerClass::ALL
        .iter()
        .position(|&a| a == attacker)
        .expect("attacker in ALL") as u64;
    cell_seed(root, &[kind_ix, level_ix, attacker_ix, rep as u64])
}

/// The byte-exact first page of an aligned key region for `key` — the
/// dedup attacker's planted guess. The aligned tiers pack the six CRT
/// components from the page start into a freshly zeroed page
/// (`SecureKeyRegion::install`), so the whole page image is a pure
/// function of the key: exactly the predictability the oracle needs.
fn aligned_region_page(key: &RsaPrivateKey) -> Vec<u8> {
    let mut page = Vec::with_capacity(PAGE_SIZE);
    for part in [key.d(), key.p(), key.q(), key.dp(), key.dq(), key.qinv()] {
        page.extend_from_slice(&limb_bytes(part));
    }
    page.truncate(PAGE_SIZE);
    page.resize(PAGE_SIZE, 0);
    page
}

/// One repetition of one cell: drive the workload, run the attacker,
/// return whether the key was recovered.
fn run_one_cell<S: SecureServer>(
    level: ProtectionLevel,
    attacker: AttackerClass,
    cfg: &ExperimentConfig,
    rep_seed: u64,
    decay_rate: f64,
) -> SimResult<bool> {
    let mut rng = Rng64::new(rep_seed);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    // The free-memory attacker scavenges after the connections close; the
    // stronger attackers seize the machine with the server still live.
    let close_all = !attacker.reads_allocated();
    let (mut server, scanner) =
        drive_workload::<S>(&mut kernel, level, cfg, rep_seed, MATRIX_CONNECTIONS, close_all)?;
    let compromised = match attacker {
        AttackerClass::ExactFree => {
            scanner.scan_kernel(&kernel).unallocated() > 0
        }
        AttackerClass::ExactAllocated => {
            scanner.scan_kernel(&kernel).allocated() > 0
        }
        AttackerClass::ColdBoot => {
            let dump = kernel.snapshot_decayed(rep_seed ^ 0xDECA_1DED, decay_rate);
            // The exact scan almost surely finds nothing in a decayed
            // image; the arithmetic reconstruction is the real threat.
            // Success only counts if the *victim's* key comes back.
            scanner.dump_compromises_key(&dump)
                || reconstruct(&dump, &server.key().public_key(), &ReconstructConfig::default())
                    .key
                    .is_some_and(|k| k.d() == server.key().d())
        }
        AttackerClass::SwapTheft => {
            // Evict everything evictable, then read the device image —
            // RAM is never touched. mlock'd key pages cannot land here.
            kernel.swap_out_pressure(usize::MAX)?;
            scanner.dump_compromises_key(kernel.swap_bytes())
        }
        AttackerClass::Dedup => {
            // The oracle needs a byte-exact guess of the victim's key
            // page; testing it with the true key asks exactly "does the
            // merge channel confirm a correct guess?" — the per-candidate
            // step of the real enumeration attack.
            let candidate = aligned_region_page(server.key());
            let attacker_pid = kernel.spawn();
            dedup_probe(&mut kernel, attacker_pid, &candidate)?.confirms_candidate()
        }
        AttackerClass::RotationWindow => {
            // The workload left standing connections open; rekeying now
            // pins them to the outgoing epoch and opens the Drain window.
            // The scanner was built from the pre-rotation material, so a
            // hit mid-Drain is exactly "the outgoing key is recoverable
            // while both keys are resident".
            server.rotate_key(&mut kernel)?;
            scanner.scan_kernel(&kernel).total() > 0
        }
    };
    drop(server);
    Ok(compromised)
}

/// Runs the full `level × attacker` matrix for one server kind on an
/// explicit executor. Each `(level, attacker, repetition)` is one cell.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn attacker_matrix_on(
    exec: &Executor,
    kind: ServerKind,
    cfg: &ExperimentConfig,
    decay_rate: f64,
) -> SimResult<AttackerMatrixReport> {
    let mut tasks = Vec::new();
    for &level in &ProtectionLevel::ALL {
        for &attacker in &AttackerClass::ALL {
            for rep in 0..cfg.repetitions {
                tasks.push((level, attacker, rep));
            }
        }
    }
    let raw = exec.run(tasks, |_, (level, attacker, rep)| {
        let rep_seed = matrix_cell_seed(cfg.seed, kind, level, attacker, rep);
        match kind {
            ServerKind::Ssh => {
                run_one_cell::<SshServer>(level, attacker, cfg, rep_seed, decay_rate)
            }
            ServerKind::Apache => {
                run_one_cell::<ApacheServer>(level, attacker, cfg, rep_seed, decay_rate)
            }
        }
    });

    let mut cells = Vec::new();
    let mut reps = raw.into_iter();
    for &level in &ProtectionLevel::ALL {
        for &attacker in &AttackerClass::ALL {
            let mut compromised = 0usize;
            for _ in 0..cfg.repetitions {
                compromised += usize::from(reps.next().expect("cell count mismatch")?);
            }
            let defeated = compromised > 0;
            cells.push(MatrixCell {
                level,
                attacker,
                compromised,
                repetitions: cfg.repetitions,
                as_expected: defeated == attacker.expected_to_defeat(level),
            });
        }
    }
    Ok(AttackerMatrixReport {
        kind_label: kind.label(),
        decay_rate,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_table_shape() {
        use AttackerClass as A;
        use ProtectionLevel as L;
        // The paper's attacker falls only to the baseline.
        assert!(A::ExactFree.expected_to_defeat(L::None));
        for l in [L::Application, L::Library, L::Kernel, L::Integrated, L::Shielded] {
            assert!(!A::ExactFree.expected_to_defeat(l), "{l}");
        }
        // The stronger memory readers defeat everything except Shielded —
        // including the attacker who times the rotation drain window.
        for a in [A::ExactAllocated, A::ColdBoot, A::RotationWindow] {
            for l in [L::None, L::Application, L::Library, L::Kernel, L::Integrated] {
                assert!(a.expected_to_defeat(l), "{a}/{l}");
            }
            assert!(!a.expected_to_defeat(L::Shielded), "{a}");
        }
        // Swap theft falls exactly along the mlock line.
        for l in ProtectionLevel::ALL {
            assert_eq!(A::SwapTheft.expected_to_defeat(l), !l.mlock_key(), "{l}");
        }
        // Dedup defeats exactly the plaintext aligned tiers.
        for l in [L::Application, L::Library, L::Integrated] {
            assert!(A::Dedup.expected_to_defeat(l), "{l}");
        }
        for l in [L::None, L::Kernel, L::Shielded] {
            assert!(!A::Dedup.expected_to_defeat(l), "{l}");
        }
        // No tier-ordering inversion: Shielded survives every class as the
        // matrix runs it.
        for a in AttackerClass::ALL {
            assert!(!a.expected_to_defeat(L::Shielded), "{a}");
        }
    }

    #[test]
    fn labels_round_trip() {
        for a in AttackerClass::ALL {
            assert_eq!(AttackerClass::from_label(a.label()), Some(a));
        }
        assert_eq!(AttackerClass::from_label("coldboot"), Some(AttackerClass::ColdBoot));
        assert_eq!(AttackerClass::from_label("quantum"), None);
    }

    #[test]
    fn cell_seeds_depend_only_on_coordinates() {
        use AttackerClass as A;
        use ProtectionLevel as L;
        let s = |k, l, a, r| matrix_cell_seed(7, k, l, a, r);
        assert_eq!(s(ServerKind::Ssh, L::None, A::ColdBoot, 0), s(ServerKind::Ssh, L::None, A::ColdBoot, 0));
        assert_ne!(s(ServerKind::Ssh, L::None, A::ColdBoot, 0), s(ServerKind::Ssh, L::None, A::ColdBoot, 1));
        assert_ne!(s(ServerKind::Ssh, L::None, A::ColdBoot, 0), s(ServerKind::Apache, L::None, A::ColdBoot, 0));
        assert_ne!(s(ServerKind::Ssh, L::None, A::ColdBoot, 0), s(ServerKind::Ssh, L::Shielded, A::ColdBoot, 0));
        assert_ne!(s(ServerKind::Ssh, L::None, A::ColdBoot, 0), s(ServerKind::Ssh, L::None, A::ExactFree, 0));
    }

    /// The headline three cells on a tiny config: the allocated-memory
    /// attacker defeats Integrated but not Shielded; the paper's attacker
    /// defeats neither.
    #[test]
    fn shielded_survives_allocated_attacker_that_defeats_integrated() {
        let cfg = ExperimentConfig::test().with_repetitions(1);
        for (level, attacker, expect) in [
            (ProtectionLevel::Integrated, AttackerClass::ExactAllocated, true),
            (ProtectionLevel::Shielded, AttackerClass::ExactAllocated, false),
            (ProtectionLevel::Shielded, AttackerClass::ExactFree, false),
        ] {
            let seed = matrix_cell_seed(cfg.seed, ServerKind::Ssh, level, attacker, 0);
            let got = run_one_cell::<servers::SshServer>(
                level,
                attacker,
                &cfg,
                seed,
                DEFAULT_DECAY_RATE,
            )
            .unwrap();
            assert_eq!(got, expect, "{level}/{attacker}");
        }
    }

    /// Swap theft: the unlocked tiers lose the key to the device, the
    /// mlock'd tiers keep it off. Dedup: the aligned plaintext page is
    /// guessable, the shielded (ciphertext) and heap (unpredictable
    /// layout) pages are not.
    #[test]
    fn swap_theft_and_dedup_fall_along_their_own_lines() {
        let cfg = ExperimentConfig::test().with_repetitions(1);
        for (level, attacker, expect) in [
            (ProtectionLevel::Kernel, AttackerClass::SwapTheft, true),
            (ProtectionLevel::Integrated, AttackerClass::SwapTheft, false),
            (ProtectionLevel::Integrated, AttackerClass::Dedup, true),
            (ProtectionLevel::None, AttackerClass::Dedup, false),
            (ProtectionLevel::Shielded, AttackerClass::Dedup, false),
        ] {
            let seed = matrix_cell_seed(cfg.seed, ServerKind::Ssh, level, attacker, 0);
            let got = run_one_cell::<servers::SshServer>(
                level,
                attacker,
                &cfg,
                seed,
                DEFAULT_DECAY_RATE,
            )
            .unwrap();
            assert_eq!(got, expect, "{level}/{attacker}");
        }
    }

    /// The rotation-window attacker catches the outgoing key mid-Drain at
    /// every plaintext tier, but a shielded drain window discloses nothing.
    #[test]
    fn rotation_window_catches_plaintext_tiers_but_not_shielded() {
        let cfg = ExperimentConfig::test().with_repetitions(1);
        for (level, expect) in [
            (ProtectionLevel::None, true),
            (ProtectionLevel::Integrated, true),
            (ProtectionLevel::Shielded, false),
        ] {
            let seed = matrix_cell_seed(
                cfg.seed,
                ServerKind::Ssh,
                level,
                AttackerClass::RotationWindow,
                0,
            );
            let got = run_one_cell::<servers::SshServer>(
                level,
                AttackerClass::RotationWindow,
                &cfg,
                seed,
                DEFAULT_DECAY_RATE,
            )
            .unwrap();
            assert_eq!(got, expect, "{level}/rotation-window");
        }
    }

    /// Cold boot: reconstruction defeats Kernel, shielding stops it.
    #[test]
    fn cold_boot_reconstruction_defeats_kernel_but_not_shielded() {
        let cfg = ExperimentConfig::test().with_repetitions(1);
        for (level, expect) in [(ProtectionLevel::Kernel, true), (ProtectionLevel::Shielded, false)] {
            let seed =
                matrix_cell_seed(cfg.seed, ServerKind::Ssh, level, AttackerClass::ColdBoot, 0);
            let got = run_one_cell::<servers::SshServer>(
                level,
                AttackerClass::ColdBoot,
                &cfg,
                seed,
                DEFAULT_DECAY_RATE,
            )
            .unwrap();
            assert_eq!(got, expect, "{level}/cold-boot");
        }
    }
}
