//! The cold-boot attacker end to end: decayed machine snapshots from
//! `memsim` fed to `keyscan::reconstruct`, table-driven across decay rates.
//!
//! Pins the two halves of the threat model:
//!
//! * below the decay threshold the CRT reconstruction recovers the exact
//!   key even though the exact-pattern scanner finds nothing;
//! * above it the search fails *cleanly* — it never fabricates a key —
//!   and the failure is a budget/statistics story, not a wrong answer.
//!
//! Every reconstruction here runs twice, over the snapshot and over its
//! bytes: the snapshot's known-zero frame bits may spare the harvest pages
//! to read, but must not change a candidate, a search step or the key.

use keyscan::reconstruct::{reconstruct, ReconstructConfig, Reconstruction};
use keyscan::Scanner;
use memsim::{Kernel, MachineConfig, Pid, Snapshot};
use rsa_repro::material::KeyMaterial;
use rsa_repro::{RsaPrivateKey, RsaPublicKey};
use simrng::Rng64;

/// Replays the scattered loader's allocation pattern: six bump-heap chunks
/// holding d, p, q and the three `0xC3`-filled CRT derivatives — the heap
/// image an unprotected victim leaves behind.
fn load_scattered(kernel: &mut Kernel, pid: Pid, material: &KeyMaterial) {
    let parts: [(&[u8], bool); 6] = [
        (material.d_bytes(), false),
        (material.p_bytes(), false),
        (material.q_bytes(), false),
        (material.p_bytes(), true),
        (material.q_bytes(), true),
        (material.q_bytes(), true),
    ];
    for (bytes, filler) in parts {
        let addr = kernel.heap_alloc(pid, bytes.len()).unwrap();
        if filler {
            kernel.write_bytes(pid, addr, &vec![0xC3u8; bytes.len()]).unwrap();
        } else {
            kernel.write_bytes(pid, addr, bytes).unwrap();
        }
    }
}

/// A machine with background noise plus one scattered key image.
fn victim(seed: u64) -> (Kernel, RsaPrivateKey, KeyMaterial) {
    let mut kernel = Kernel::new(MachineConfig::small());
    let mut rng = Rng64::new(seed);
    kernel.age_memory(&mut rng, 0.5);
    let pid = kernel.spawn();
    let key = RsaPrivateKey::generate(256, &mut rng);
    let material = KeyMaterial::from_key(&key);
    load_scattered(&mut kernel, pid, &material);
    (kernel, key, material)
}

/// [`reconstruct`] over `dump`, asserted equal — stats and key — to the
/// same call over the dump's bytes, which tests every page instead.
fn reconstruct_both(
    dump: &Snapshot,
    public: &RsaPublicKey,
    cfg: &ReconstructConfig,
) -> Reconstruction {
    let fast = reconstruct(dump, public, cfg);
    let bytes = reconstruct(&dump[..], public, cfg);
    assert_eq!(fast.stats, bytes.stats, "snapshot vs its bytes: stats");
    let same_key = match (&fast.key, &bytes.key) {
        (Some(a), Some(b)) => a.d() == b.d() && a.p() == b.p() && a.q() == b.q(),
        (a, b) => a.is_none() && b.is_none(),
    };
    assert!(same_key, "snapshot vs its bytes: key");
    fast
}

fn attempt(kernel: &Kernel, key: &RsaPrivateKey, seed: u64, rate: f64) -> Reconstruction {
    let dump = kernel.snapshot_decayed(seed, rate);
    reconstruct_both(&dump, &key.public_key(), &ReconstructConfig::default())
}

#[test]
fn recovers_exact_key_below_threshold_across_rates() {
    let (kernel, key, _material) = victim(21);
    for rate in [0.0f64, 0.02, 0.10, 0.25] {
        let rec = attempt(&kernel, &key, 0xB00B5EED ^ rate.to_bits(), rate);
        let got = rec
            .key
            .unwrap_or_else(|| panic!("rate {rate} must reconstruct (stats {:?})", rec.stats));
        // Exact, not merely consistent: every component matches.
        assert_eq!(got.n(), key.n());
        assert_eq!(got.d(), key.d());
        assert_eq!(got.p(), key.p());
        assert_eq!(got.q(), key.q());
        assert_eq!(got.dp(), key.dp());
        assert_eq!(got.dq(), key.dq());
        assert_eq!(got.qinv(), key.qinv());
    }
}

#[test]
fn reconstruction_beats_the_exact_scanner_on_decayed_dumps() {
    let (kernel, key, material) = victim(22);
    let dump = kernel.snapshot_decayed(77, 0.10);
    // The paper's attacker needs a byte-perfect copy; 10% decay leaves none.
    let scanner = Scanner::from_material(&material);
    assert!(
        !scanner.dump_compromises_key(&dump),
        "exact scan must find nothing in a decayed image"
    );
    // The arithmetic attacker still wins.
    let rec = reconstruct_both(&dump, &key.public_key(), &ReconstructConfig::default());
    assert_eq!(rec.key.expect("reconstruction succeeds").d(), key.d());
}

#[test]
fn fails_cleanly_above_threshold_never_wrong() {
    let (kernel, key, _material) = victim(23);
    // Keep the budget modest so the high-decay cases price out quickly.
    let cfg = ReconstructConfig {
        max_total_nodes: 300_000,
        ..ReconstructConfig::default()
    };
    for rate in [0.75, 0.9] {
        for seed in [1u64, 2, 3] {
            let dump = kernel.snapshot_decayed(seed, rate);
            let rec = reconstruct_both(&dump, &key.public_key(), &cfg);
            // `Some` would have been verified exact; at these rates the only
            // acceptable outcome is an honest failure.
            assert!(
                rec.key.is_none(),
                "rate {rate} seed {seed}: reconstruction must fail, not guess"
            );
        }
    }
}

#[test]
fn reconstruction_is_deterministic_per_seed() {
    let (kernel, key, _material) = victim(24);
    let a = attempt(&kernel, &key, 5, 0.15);
    let b = attempt(&kernel, &key, 5, 0.15);
    assert_eq!(a.stats, b.stats, "same dump must search identically");
    assert_eq!(a.key.is_some(), b.key.is_some());
    // Pinned expectation for this seeded case: success with a bounded search.
    assert!(a.key.is_some(), "15% decay on seed 5 reconstructs");
    assert!(a.stats.candidates > 0);
    assert!(!a.stats.truncated);
}

#[test]
fn wrong_public_key_reconstructs_nothing() {
    let (kernel, key, _material) = victim(25);
    let other = RsaPrivateKey::generate(256, &mut Rng64::new(4242));
    assert_ne!(other.n(), key.n());
    let dump = kernel.snapshot_decayed(9, 0.05);
    let rec = reconstruct_both(&dump, &other.public_key(), &ReconstructConfig::default());
    assert!(
        rec.key.is_none(),
        "a dump of someone else's key must not satisfy this modulus"
    );
}
