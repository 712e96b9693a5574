//! Property suite for `Kernel::snapshot_decayed` — the cold-boot capture.
//!
//! The decay model's contract, pinned here:
//!
//! * deterministic: same `(machine state, seed, rate)` → bit-identical image;
//! * one-sided: bits only ever decay 1→0, never 0→1;
//! * `decay_rate = 0` is exactly `Kernel::phys()`;
//! * the realized flip rate over the machine's 1-bits matches the configured
//!   rate within binomial concentration bounds;
//! * capturing is a pure read — machine state is untouched;
//! * the snapshot's known-zero frame bits are its own copy: later clears
//!   and writes on the machine leave them as they were.

use memsim::{FrameId, Kernel, KernelPolicy, MachineConfig, Snapshot, PAGE_SIZE};
use simrng::{propcheck, Rng64};

mod common;

/// A small machine with memory worth decaying: aged free lists plus a live
/// process heap full of dense random bytes.
fn busy_machine(seed: u64) -> Kernel {
    let mut kernel = Kernel::new(MachineConfig::small());
    let mut rng = Rng64::new(seed);
    kernel.age_memory(&mut rng, 1.0);
    let pid = kernel.spawn();
    let len = 256 * PAGE_SIZE;
    let buf = kernel.heap_alloc(pid, len).unwrap();
    let payload = rng.gen_bytes(len);
    kernel.write_bytes(pid, buf, &payload).unwrap();
    kernel
}

fn count_ones(bytes: &[u8]) -> u64 {
    bytes.iter().map(|b| u64::from(b.count_ones())).sum()
}

#[test]
fn snapshots_are_deterministic_per_seed() {
    let kernel = busy_machine(1);
    propcheck::cases(16, |g| {
        let seed = g.u64();
        let rate = f64::from(g.u64_below(300) as u32) / 1000.0;
        assert_eq!(
            kernel.snapshot_decayed(seed, rate)[..],
            kernel.snapshot_decayed(seed, rate)[..],
            "same seed+rate must reproduce the image exactly"
        );
    });
    // Different seeds decay different bits (at any non-trivial rate).
    assert_ne!(
        kernel.snapshot_decayed(1, 0.1)[..],
        kernel.snapshot_decayed(2, 0.1)[..]
    );
}

/// Checked on a busy machine and, under both policies, on machines whose
/// planted kernel pages hold a non-zero byte only at the page's end (the
/// capture copies only frames that hold a non-zero byte).
#[test]
fn zero_rate_is_bit_identical_to_phys() {
    let planted = |policy| {
        let mut kernel = Kernel::new(MachineConfig::small().with_policy(policy));
        kernel.age_memory(&mut Rng64::new(2), 1.0);
        common::plant_last_byte_frames(&mut kernel, 8, 4);
        kernel
    };
    for kernel in [
        busy_machine(2),
        planted(KernelPolicy::stock()),
        planted(KernelPolicy::hardened()),
    ] {
        propcheck::cases(8, |g| {
            let seed = g.u64();
            assert_eq!(&kernel.snapshot_decayed(seed, 0.0)[..], kernel.phys());
            assert_eq!(&kernel.snapshot_decayed(seed, -1.0)[..], kernel.phys());
        });
    }
}

#[test]
fn decay_never_flips_zero_to_one() {
    let kernel = busy_machine(3);
    propcheck::cases(12, |g| {
        let seed = g.u64();
        let rate = f64::from(g.u64_below(500) as u32) / 1000.0;
        let image = kernel.snapshot_decayed(seed, rate);
        for (decayed, original) in image.iter().zip(kernel.phys()) {
            // Every surviving 1-bit existed in the original: decayed ⊆ original.
            assert_eq!(
                decayed & !original,
                0,
                "bit appeared from nowhere (seed {seed}, rate {rate})"
            );
        }
    });
}

#[test]
fn realized_flip_rate_matches_configured_rate() {
    let kernel = busy_machine(4);
    let total_ones = count_ones(kernel.phys());
    assert!(
        total_ones > 3_000_000,
        "machine must have enough 1-bits for tight bounds, got {total_ones}"
    );
    for rate in [0.01, 0.05, 0.15, 0.30] {
        // Realized flips over all frames are a Binomial(total_ones, rate)
        // draw; hold every seed within six standard deviations (a seeded
        // deterministic test, so failures mean the model is biased, not
        // unlucky).
        let sigma = (total_ones as f64 * rate * (1.0 - rate)).sqrt();
        let expect = total_ones as f64 * rate;
        propcheck::cases(6, |g| {
            let image = kernel.snapshot_decayed(g.u64(), rate);
            let flipped = (total_ones - count_ones(&image)) as f64;
            assert!(
                (flipped - expect).abs() <= 6.0 * sigma,
                "rate {rate}: flipped {flipped}, expected {expect} ± {:.0}",
                6.0 * sigma
            );
        });
    }
}

/// Chi-square uniformity across frames: decay must not concentrate in some
/// frames and spare others beyond what independence predicts.
#[test]
fn decay_is_uniform_across_frames() {
    let kernel = busy_machine(5);
    let rate = 0.1;
    let image = kernel.snapshot_decayed(0xC01D_B007, rate);
    let mut chi2 = 0.0;
    let mut dof = 0u32;
    for frame in 0..kernel.num_frames() {
        let span = frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE;
        let ones = count_ones(&kernel.phys()[span.clone()]) as f64;
        if ones < 500.0 {
            continue; // too sparse for the normal approximation
        }
        let flipped = ones - count_ones(&image[span]) as f64;
        let expect = ones * rate;
        let var = ones * rate * (1.0 - rate);
        chi2 += (flipped - expect).powi(2) / var;
        dof += 1;
    }
    assert!(dof > 100, "need many dense frames, got {dof}");
    // Chi-square with k degrees of freedom has mean k and variance 2k;
    // accept within six standard deviations.
    let k = f64::from(dof);
    assert!(
        (chi2 - k).abs() <= 6.0 * (2.0 * k).sqrt(),
        "chi2 {chi2:.1} vs dof {k} — per-frame decay is not independent"
    );
}

#[test]
fn capture_does_not_mutate_machine_state() {
    let kernel = busy_machine(6);
    let before = kernel.phys().to_vec();
    let stats = kernel.stats();
    let _ = kernel.snapshot_decayed(99, 0.25);
    assert_eq!(kernel.phys(), &before[..]);
    assert_eq!(kernel.stats(), stats);
}

/// The snapshot's known-zero bit of every frame.
fn snapshot_bits(snapshot: &Snapshot, frames: usize) -> Vec<bool> {
    (0..frames).map(|f| snapshot.frame_known_zero(FrameId(f))).collect()
}

/// A clear made after the capture would mark a frame zero that the
/// snapshot holds written, and a write would unmark one it holds zero: the
/// snapshot keeps the bits, and the bytes, it was taken with.
#[test]
fn later_clears_and_writes_leave_a_snapshots_bits_as_they_were() {
    for rate in [0.0, 0.02] {
        let mut kernel = Kernel::new(MachineConfig::small().with_policy(KernelPolicy::hardened()));
        let frames = kernel.alloc_kernel_pages(2).unwrap();
        kernel.write_kernel_page(frames[0], 100, &[0xFF; 64]);
        let snapshot = kernel.snapshot_decayed(3, rate);
        let (bits, image) = (snapshot_bits(&snapshot, kernel.num_frames()), snapshot.to_vec());
        let kernel_bits: Vec<bool> = (0..kernel.num_frames())
            .map(|f| kernel.frame_known_zero(FrameId(f)))
            .collect();
        assert_eq!(bits, kernel_bits, "rate {rate}: the capture copies the bits");
        assert!(!bits[frames[0].0] && bits[frames[1].0]);

        // Frame 0 is cleared by zero-on-free, frame 1 written.
        kernel.free_kernel_pages(&frames[..1]);
        kernel.write_kernel_page(frames[1], 0, &[0xFF; 64]);
        assert!(kernel.frame_known_zero(frames[0]) && !kernel.frame_known_zero(frames[1]));
        assert_eq!(
            snapshot_bits(&snapshot, kernel.num_frames()),
            bits,
            "rate {rate}"
        );
        assert!(snapshot[..] == image[..], "rate {rate}: the image moved");
    }
}

/// The property that makes shielding work: even at tiny decay rates, a
/// 16 KiB high-entropy region almost surely loses at least one bit, while
/// plenty of individual bytes survive for the scanner to chew on.
#[test]
fn large_buffers_lose_bits_even_at_low_rates() {
    let kernel = busy_machine(7);
    propcheck::cases(8, |g| {
        let image = kernel.snapshot_decayed(g.u64(), 0.01);
        assert_ne!(&image[..], kernel.phys(), "1% decay must touch a busy machine");
    });
}

/// Byte-at-a-time reference capture: each nonzero byte draws one coin per
/// 1-bit, in address order, from its frame's own stream; zero bytes draw
/// nothing.
fn snapshot_bytewise(kernel: &Kernel, seed: u64, rate: f64) -> Vec<u8> {
    let mut image = kernel.phys().to_vec();
    for frame in 0..kernel.num_frames() {
        let mut rng = Rng64::new(seed ^ (frame as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for byte in &mut image[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE] {
            if *byte == 0 {
                continue;
            }
            let mut mask = 0u8;
            for bit in 0..8 {
                if *byte & (1 << bit) != 0 && rng.gen_bool(rate) {
                    mask |= 1 << bit;
                }
            }
            *byte &= !mask;
        }
    }
    image
}

/// Skipping all-zero words moves no bit: the capture equals the
/// byte-at-a-time reference exactly, on a machine whose memory mixes dense
/// random pages, sparse pages (isolated nonzero bytes between zero words)
/// and untouched ones.
#[test]
fn capture_is_bit_identical_to_the_bytewise_reference() {
    let mut kernel = busy_machine(8);
    let pid = kernel.spawn();
    let len = 64 * PAGE_SIZE;
    let sparse: Vec<u8> = (0..len)
        .map(|i| if i % 13 == 0 { (i / 13 % 255 + 1) as u8 } else { 0 })
        .collect();
    let buf = kernel.heap_alloc(pid, len).unwrap();
    kernel.write_bytes(pid, buf, &sparse).unwrap();
    for seed in [1, 0xC01D_B007, u64::MAX] {
        for rate in [0.001, 0.02, 0.3, 1.0] {
            assert!(
                kernel.snapshot_decayed(seed, rate)[..] == snapshot_bytewise(&kernel, seed, rate),
                "seed {seed:#x}, rate {rate}: capture differs from the bytewise reference"
            );
        }
    }
}
