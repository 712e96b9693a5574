//! Per-frame generation counters: the contract incremental scanners build
//! on. A frame whose `write_generation` did not move has bit-identical
//! bytes; a frame whose `state_generation` did not move has an identical
//! `FrameView`; a frame whose bytes changed after the clock read C is
//! among `frames_written_since(C)`. Verified here both for scripted single
//! operations and property-style across random operation sequences.

use memsim::{FaultPlan, FrameId, Kernel, KernelPolicy, MachineConfig, VAddr};
use simrng::Rng64;

fn snapshot(k: &Kernel) -> Vec<(u64, u64, Vec<u8>, memsim::FrameView)> {
    (0..k.num_frames())
        .map(|i| {
            let f = FrameId(i);
            (
                k.write_generation(f),
                k.state_generation(f),
                k.frame_bytes(f).to_vec(),
                k.frame_view(f),
            )
        })
        .collect()
}

/// The central property: comparing two snapshots, equal write generations
/// imply equal bytes and equal state generations imply equal metadata.
fn assert_generations_cover_changes(before: &[(u64, u64, Vec<u8>, memsim::FrameView)], k: &Kernel) {
    for (i, (wg, sg, bytes, view)) in before.iter().enumerate() {
        let f = FrameId(i);
        if k.write_generation(f) == *wg {
            assert_eq!(k.frame_bytes(f), &bytes[..], "frame {i}: bytes changed, generation didn't");
        }
        if k.state_generation(f) == *sg {
            assert_eq!(k.frame_view(f), *view, "frame {i}: metadata changed, generation didn't");
        }
    }
}

/// The change walk against the bytes: every frame whose bytes changed
/// since a snapshot taken at `clock` is among `frames_written_since(clock)`,
/// which ascends and yields only frames written above the clock, and every
/// frame whose metadata changed carries a state stamp above it.
fn assert_walk_covers_changes(
    before: &[(u64, u64, Vec<u8>, memsim::FrameView)],
    clock: u64,
    k: &Kernel,
) {
    let written: Vec<FrameId> = k.frames_written_since(clock).collect();
    assert!(written.windows(2).all(|w| w[0] < w[1]), "the walk ascends");
    for &f in &written {
        assert!(
            k.write_generation(f) > clock,
            "{f} yielded at or below {clock}"
        );
    }
    for (i, (_, _, bytes, view)) in before.iter().enumerate() {
        let f = FrameId(i);
        if k.frame_bytes(f) != &bytes[..] {
            assert!(
                written.contains(&f),
                "{f}: bytes changed, the walk missed it"
            );
        }
        if k.frame_view(f) != *view {
            assert!(
                k.state_generation(f) > clock,
                "{f}: metadata changed unstamped"
            );
        }
    }
}

#[test]
fn fresh_machine_has_zero_generations_and_clock() {
    let k = Kernel::new(MachineConfig::small());
    assert_eq!(k.generation_clock(), 0);
    for i in 0..k.num_frames() {
        assert_eq!(k.write_generation(FrameId(i)), 0);
        assert_eq!(k.state_generation(FrameId(i)), 0);
    }
}

#[test]
fn write_bumps_only_touched_frames() {
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, 3 * 4096).unwrap();
    let before = snapshot(&k);
    let clock = k.generation_clock();
    k.write_bytes(pid, buf, &[0xCC; 5000]).unwrap();
    assert!(k.generation_clock() > clock, "clock must advance on writes");
    assert_generations_cover_changes(&before, &k);
    // Exactly the two spanned frames moved.
    let moved: Vec<usize> = (0..k.num_frames())
        .filter(|&i| k.write_generation(FrameId(i)) != before[i].0)
        .collect();
    assert_eq!(moved.len(), 2, "a 5000-byte write spans two frames: {moved:?}");
}

#[test]
fn state_changes_without_byte_changes_move_only_state_gen() {
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, 4096).unwrap();
    k.write_bytes(pid, buf, &[0xDD; 4096]).unwrap();
    let frame = k.translate(pid, buf).unwrap();
    let before = snapshot(&k);

    // Exit without zeroing (stock policy): bytes stay, state flips to Free.
    k.exit(pid).unwrap();
    assert_eq!(k.write_generation(frame), before[frame.0].0, "no bytes changed on exit");
    assert_ne!(k.state_generation(frame), before[frame.0].1, "state flipped to Free");
    assert_generations_cover_changes(&before, &k);
}

#[test]
fn fork_and_mlock_are_metadata_events() {
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, 4096).unwrap();
    k.write_bytes(pid, buf, &[0xEE; 64]).unwrap();
    let frame = k.translate(pid, buf).unwrap();

    let wg = k.write_generation(frame);
    let sg = k.state_generation(frame);
    let child = k.fork(pid).unwrap();
    assert_eq!(k.write_generation(frame), wg, "fork copies nothing");
    assert_ne!(k.state_generation(frame), sg, "fork adds a mapping");

    let sg = k.state_generation(frame);
    k.mlock(pid, buf, 4096).unwrap();
    assert_eq!(k.write_generation(frame), wg);
    assert_ne!(k.state_generation(frame), sg, "mlock sets the lock bit");

    // COW break: the child's write materializes a *new* frame (byte event)
    // and drops a mapping from the old one (metadata event).
    let before = snapshot(&k);
    k.write_bytes(child, buf, &[0x11; 64]).unwrap();
    let new_frame = k.translate(child, buf).unwrap();
    assert_ne!(new_frame, frame);
    assert_ne!(k.write_generation(new_frame), before[new_frame.0].0);
    assert_ne!(k.state_generation(frame), before[frame.0].1);
    assert_generations_cover_changes(&before, &k);
}

/// Freeing under `zero_on_free` is a byte event whatever the frame held:
/// clearing a frame that is already zero writes nothing, yet it still moves
/// the write generation and counts in `pages_zeroed`, so rescan counts and
/// statistics do not depend on what the frame held.
#[test]
fn zero_on_free_is_a_byte_event() {
    let hardened = || {
        Kernel::new(MachineConfig {
            policy: KernelPolicy::hardened(),
            ..MachineConfig::small()
        })
    };
    let mut k = hardened();
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, 4096).unwrap();
    k.write_bytes(pid, buf, &[0x77; 4096]).unwrap();
    let frame = k.translate(pid, buf).unwrap();
    let wg = k.write_generation(frame);
    k.exit(pid).unwrap();
    assert_ne!(k.write_generation(frame), wg, "zero_on_free rewrites the frame");
    assert!(k.frame_bytes(frame).iter().all(|&b| b == 0));

    // A kernel page never written since boot, and one that aging has
    // already zeroed once.
    let mut aged = hardened();
    aged.age_memory(&mut Rng64::new(1), 1.0);
    for (mut k, never_written) in [(hardened(), true), (aged, false)] {
        let frame = k.alloc_kernel_pages(1).unwrap()[0];
        let wg = k.write_generation(frame);
        assert_eq!(wg == 0, never_written, "{frame} write generation {wg}");
        assert!(k.frame_bytes(frame).iter().all(|&b| b == 0));
        let zeroed = k.stats().pages_zeroed;
        k.free_kernel_pages(&[frame]);
        assert_ne!(k.write_generation(frame), wg, "clearing a zero {frame} is a byte event");
        assert_eq!(k.stats().pages_zeroed, zeroed + 1, "clearing a zero {frame} counts");
    }
}

#[test]
fn generation_stamps_are_unique_and_monotone() {
    let mut k = Kernel::new(MachineConfig::small());
    let pid = k.spawn();
    let mut seen = std::collections::HashSet::new();
    let mut last_clock = 0;
    for i in 0..32 {
        let b = k.heap_alloc(pid, 1024).unwrap();
        k.write_bytes(pid, b, &[i as u8; 1024]).unwrap();
        let clock = k.generation_clock();
        assert!(clock > last_clock);
        last_clock = clock;
        for j in 0..k.num_frames() {
            let g = k.write_generation(FrameId(j));
            if g != 0 {
                seen.insert((j, g));
            }
        }
    }
    // Every (frame, generation) pair names one byte image; collisions would
    // have shrunk the set below the number of distinct images. (Indirectly:
    // all stamps observed for one frame are distinct by construction.)
    assert!(!seen.is_empty());
}

#[test]
fn random_operation_soup_never_mutates_behind_the_generations() {
    for seed in 0..4u64 {
        let mut rng = Rng64::new(0x6E5 + seed);
        let mut k = Kernel::new(MachineConfig::small());
        if seed == 3 {
            // One round with faults landing mid-sequence.
            k.install_fault_plan(FaultPlan::new().seeded(seed, 7));
        }
        let mut pids = vec![k.spawn()];
        let mut bufs: Vec<(memsim::Pid, VAddr)> = Vec::new();
        let log = k.create_file("log", &[]);
        for _ in 0..80 {
            let before = snapshot(&k);
            let clock = k.generation_clock();
            match rng.gen_below(12) {
                0 => pids.push(k.spawn()),
                1 => {
                    let pid = pids[rng.gen_index(pids.len())];
                    if let Ok(b) = k.heap_alloc(pid, 1 + rng.gen_index(3 * 4096)) {
                        let _ = k.write_bytes(pid, b, &[rng.next_u64() as u8; 97]);
                        bufs.push((pid, b));
                    }
                }
                2 => {
                    if !bufs.is_empty() {
                        let (pid, b) = bufs.swap_remove(rng.gen_index(bufs.len()));
                        let _ = k.heap_free(pid, b);
                    }
                }
                3 => {
                    let pid = pids[rng.gen_index(pids.len())];
                    if let Ok(c) = k.fork(pid) {
                        pids.push(c);
                    }
                }
                4 => {
                    if pids.len() > 1 {
                        let pid = pids.swap_remove(1 + rng.gen_index(pids.len() - 1));
                        bufs.retain(|&(p, _)| p != pid);
                        let _ = k.exit(pid);
                    }
                }
                5 => {
                    let _ = k.tty_input(&[rng.next_u64() as u8; 33]);
                    if rng.gen_bool(0.3) {
                        k.slab_shrink();
                    }
                }
                6 => {
                    let pid = pids[rng.gen_index(pids.len())];
                    let fid = k.create_file("f", &[rng.next_u64() as u8; 5000]);
                    let _ = k.read_file(pid, fid, rng.gen_bool(0.5));
                }
                7 => {
                    // Page-cache writes, partial pages included: a missing
                    // page is filled from the file before the write lands.
                    let at = rng.gen_index(3 * 4096);
                    let _ = k.write_file(log, at, &[rng.next_u64() as u8 | 1; 300]);
                    if rng.gen_bool(0.3) {
                        let _ = k.writeback(2);
                    }
                }
                8 => {
                    // Swap-out, then a fault-in with no write after it.
                    let _ = k.swap_out_pressure(1 + rng.gen_index(3));
                    if let Some(&(pid, b)) = bufs.get(rng.gen_index(bufs.len().max(1))) {
                        let _ = k.touch_pages(pid, b, 64);
                    }
                }
                9 => {
                    k.merge_identical_pages();
                }
                10 => {
                    let fraction = rng.gen_f64();
                    k.age_memory(&mut rng, fraction);
                }
                _ => {
                    if !bufs.is_empty() {
                        let (pid, b) = bufs[rng.gen_index(bufs.len())];
                        let _ = k.mlock(pid, b, 64);
                        let _ = k.write_bytes(pid, b, &[0xF0; 31]);
                    }
                }
            }
            assert_generations_cover_changes(&before, &k);
            assert_walk_covers_changes(&before, clock, &k);
        }
    }
}
