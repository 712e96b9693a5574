//! Property-based tests: simulator invariants under randomized operation
//! sequences — frame conservation, no aliasing, COW correctness, the
//! zeroing guarantee, known-zero frames reading zero, `clone` reproducing
//! its source, and `clone_from` restoring a diverged spare exactly.
//!
//! Runs on `simrng::propcheck` (pure std) so the suite works with no
//! registry access.

use memsim::{
    FaultOp, FaultPlan, FrameId, Kernel, KernelPolicy, MachineConfig, Pid, SimError, VAddr,
    PAGE_SIZE,
};
use simrng::propcheck::{self, Gen};

mod common;

/// A randomized workload step.
#[derive(Debug, Clone)]
enum Op {
    Spawn,
    Fork(usize),
    Exit(usize),
    Alloc { proc_idx: usize, size: usize },
    Free { proc_idx: usize, alloc_idx: usize },
    Write { proc_idx: usize, alloc_idx: usize, byte: u8 },
    /// Faults a live allocation back in off swap, with no write.
    Touch { proc_idx: usize, alloc_idx: usize },
    KernelPageCycle { n: usize },
    SwapOut { pages: usize },
}

fn gen_op(g: &mut Gen) -> Op {
    match g.usize_in(0..9) {
        0 => Op::Spawn,
        1 => Op::Fork(g.usize_in(0..8)),
        2 => Op::Exit(g.usize_in(0..8)),
        3 => Op::Alloc {
            proc_idx: g.usize_in(0..8),
            size: g.usize_in(1..3 * PAGE_SIZE),
        },
        4 => Op::Free {
            proc_idx: g.usize_in(0..8),
            alloc_idx: g.usize_in(0..8),
        },
        5 => Op::Write {
            proc_idx: g.usize_in(0..8),
            alloc_idx: g.usize_in(0..8),
            byte: g.u8(),
        },
        6 => Op::KernelPageCycle {
            n: g.usize_in(1..16),
        },
        7 => Op::Touch {
            proc_idx: g.usize_in(0..8),
            alloc_idx: g.usize_in(0..8),
        },
        _ => Op::SwapOut {
            pages: g.usize_in(1..64),
        },
    }
}

fn gen_ops(g: &mut Gen, max: usize) -> Vec<Op> {
    let n = g.usize_in(1..max);
    (0..n).map(|_| gen_op(g)).collect()
}

/// Host-side mirror of live state for cross-checking.
#[derive(Default, Clone)]
struct Mirror {
    procs: Vec<Pid>,
    /// Live allocations per process: (addr, size, fill byte if written).
    allocs: Vec<Vec<(VAddr, usize, Option<u8>)>>,
}

impl Mirror {
    /// Forgets processes a fault plan killed behind the mirror's back.
    fn forget_dead(&mut self, kernel: &Kernel) {
        let mut i = 0;
        while i < self.procs.len() {
            if kernel.alive(self.procs[i]) {
                i += 1;
            } else {
                self.procs.remove(i);
                self.allocs.remove(i);
            }
        }
    }
}

fn machine(policy: KernelPolicy) -> Kernel {
    Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(2 * 1024 * 1024)
            .with_policy(policy),
    )
}

/// Applies one op, mirroring it. Fork and allocation failures are part of
/// the workload; any other kernel error is returned.
fn apply(kernel: &mut Kernel, m: &mut Mirror, op: &Op) -> Result<(), SimError> {
    match *op {
        Op::Spawn => {
            if m.procs.len() < 8 {
                m.procs.push(kernel.spawn());
                m.allocs.push(Vec::new());
            }
        }
        Op::Fork(i) => {
            if !m.procs.is_empty() && m.procs.len() < 8 {
                let parent = m.procs[i % m.procs.len()];
                if let Ok(child) = kernel.fork(parent) {
                    m.procs.push(child);
                    // The child's live chunk set mirrors the parent's,
                    // but we track only parent-owned chunks to keep the
                    // mirror simple: the child gets an empty list.
                    m.allocs.push(Vec::new());
                }
            }
        }
        Op::Exit(i) => {
            if m.procs.len() > 1 {
                let idx = i % m.procs.len();
                let pid = m.procs.remove(idx);
                m.allocs.remove(idx);
                kernel.exit(pid)?;
            }
        }
        Op::Alloc { proc_idx, size } => {
            if !m.procs.is_empty() {
                let idx = proc_idx % m.procs.len();
                if let Ok(addr) = kernel.heap_alloc(m.procs[idx], size) {
                    m.allocs[idx].push((addr, size, None));
                }
            }
        }
        Op::Free { proc_idx, alloc_idx } => {
            if !m.procs.is_empty() {
                let idx = proc_idx % m.procs.len();
                if !m.allocs[idx].is_empty() {
                    let pos = alloc_idx % m.allocs[idx].len();
                    let a = m.allocs[idx].remove(pos);
                    kernel.heap_free(m.procs[idx], a.0)?;
                }
            }
        }
        Op::Write { proc_idx, alloc_idx, byte } => {
            if !m.procs.is_empty() {
                let idx = proc_idx % m.procs.len();
                if !m.allocs[idx].is_empty() {
                    let ai = alloc_idx % m.allocs[idx].len();
                    let (addr, size, fill) = &mut m.allocs[idx][ai];
                    let data = vec![byte; *size];
                    kernel.write_bytes(m.procs[idx], *addr, &data)?;
                    *fill = Some(byte);
                }
            }
        }
        Op::Touch { proc_idx, alloc_idx } => {
            if !m.procs.is_empty() {
                let idx = proc_idx % m.procs.len();
                if !m.allocs[idx].is_empty() {
                    let (addr, size, _) = m.allocs[idx][alloc_idx % m.allocs[idx].len()];
                    kernel.touch_pages(m.procs[idx], addr, size)?;
                }
            }
        }
        Op::KernelPageCycle { n } => {
            if let Ok(frames) = kernel.alloc_kernel_pages(n) {
                kernel.free_kernel_pages(&frames);
            }
        }
        Op::SwapOut { pages } => {
            kernel.swap_out_pressure(pages)?;
        }
    }
    Ok(())
}

fn run_on(kernel: &mut Kernel, m: &mut Mirror, ops: &[Op]) {
    for op in ops {
        apply(kernel, m, op).unwrap();
    }
}

fn run_ops(policy: KernelPolicy, ops: &[Op]) -> (Kernel, Mirror) {
    let mut kernel = machine(policy);
    let mut m = Mirror::default();
    run_on(&mut kernel, &mut m, ops);
    (kernel, m)
}

/// Frame conservation: every frame is either free or allocated, and the
/// counts always add up to the machine size.
#[test]
fn frame_conservation() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (kernel, _) = run_ops(KernelPolicy::stock(), &ops);
        let allocated = (0..kernel.num_frames())
            .filter(|&i| kernel.is_allocated(FrameId(i)))
            .count();
        assert_eq!(allocated + kernel.available_frames(), kernel.num_frames());
    });
}

/// Written data is read back intact — no aliasing between live chunks
/// across arbitrary fork/exit/free interleavings, and a round trip through
/// the swap device never corrupts a byte.
#[test]
fn no_aliasing_of_live_allocations() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (mut kernel, m) = run_ops(KernelPolicy::stock(), &ops);
        for (idx, pid) in m.procs.iter().enumerate() {
            for &(addr, size, fill) in &m.allocs[idx] {
                if let Some(byte) = fill {
                    // Chunks may have been evicted; fault them back in.
                    kernel.touch_pages(*pid, addr, size).unwrap();
                    let data = kernel.read_bytes(*pid, addr, size).unwrap();
                    assert!(
                        data.iter().all(|&b| b == byte),
                        "chunk at {addr} corrupted"
                    );
                }
            }
        }
    });
}

/// The zeroing guarantee: under the hardened policy, free memory is
/// all-zero after any operation sequence.
#[test]
fn hardened_policy_keeps_free_memory_zero() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (kernel, _) = run_ops(KernelPolicy::hardened(), &ops);
        for i in 0..kernel.num_frames() {
            let f = FrameId(i);
            if !kernel.is_allocated(f) {
                assert!(
                    kernel.frame_bytes(f).iter().all(|&b| b == 0),
                    "free {f} contains data under hardened policy"
                );
            }
        }
    });
}

/// Asserts that every frame whose known-zero bit is set reads all zero.
fn assert_known_zero_frames_read_zero(kernel: &Kernel, after: &dyn std::fmt::Debug) {
    const ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
    for i in 0..kernel.num_frames() {
        let f = FrameId(i);
        assert!(
            !kernel.frame_known_zero(f) || kernel.frame_bytes(f) == ZERO_PAGE,
            "{f} is marked known-zero but holds data after {after:?}"
        );
    }
}

/// The known-zero bit is conservative: after every op of a random workload,
/// under stock and hardened policies and a plan that kills whichever
/// process performs one of the ops, a frame with the bit set reads all
/// zero.
#[test]
fn known_zero_frames_read_zero_after_every_op() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let kill_at = g.u64_below(200);
        for policy in [KernelPolicy::stock(), KernelPolicy::hardened()] {
            let mut k = machine(policy);
            k.install_fault_plan(FaultPlan::new().kill_at_index(kill_at));
            let mut m = Mirror::default();
            assert_known_zero_frames_read_zero(&k, &"boot");
            for op in &ops {
                let _ = apply(&mut k, &mut m, op);
                m.forget_dead(&k);
                assert_known_zero_frames_read_zero(&k, op);
            }
        }
    });
}

/// Exited processes are gone and their frames reclaimed: allocating the
/// whole machine afterwards succeeds.
#[test]
fn exits_release_all_frames() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 80);
        let (mut kernel, m) = run_ops(KernelPolicy::stock(), &ops);
        for pid in &m.procs {
            kernel.exit(*pid).unwrap();
        }
        let n = kernel.available_frames();
        assert_eq!(n, kernel.num_frames(), "all frames reclaimable");
    });
}

/// Double frees are always rejected, never corrupting state.
#[test]
fn double_free_always_rejected() {
    propcheck::cases(48, |g| {
        let size = g.usize_in(1..4096);
        let mut kernel = Kernel::new(MachineConfig::small());
        let pid = kernel.spawn();
        let a = kernel.heap_alloc(pid, size).unwrap();
        kernel.heap_free(pid, a).unwrap();
        assert_eq!(kernel.heap_free(pid, a), Err(SimError::BadFree(a)));
        // And the heap still works.
        assert!(kernel.heap_alloc(pid, size).is_ok());
    });
}

/// Fork + read equality: a child always reads exactly what the parent
/// wrote, before and after either side triggers COW.
#[test]
fn fork_preserves_contents() {
    propcheck::cases(48, |g| {
        let data = g.bytes(1..2000);
        let mut kernel = Kernel::new(MachineConfig::small());
        let parent = kernel.spawn();
        let addr = kernel.heap_alloc(parent, data.len()).unwrap();
        kernel.write_bytes(parent, addr, &data).unwrap();
        let child = kernel.fork(parent).unwrap();
        assert_eq!(&kernel.read_bytes(child, addr, data.len()).unwrap(), &data);
        // Child mutates its view; parent must be unaffected.
        let mutated = vec![0xFFu8; data.len()];
        kernel.write_bytes(child, addr, &mutated).unwrap();
        assert_eq!(&kernel.read_bytes(parent, addr, data.len()).unwrap(), &data);
        assert_eq!(&kernel.read_bytes(child, addr, data.len()).unwrap(), &mutated);
    });
}

/// Every observable of two machines agrees: bytes, per-frame metadata,
/// generations and known-zero bits, clock, counters, swap device, processes
/// and free lists.
fn assert_same_machine(got: &Kernel, want: &Kernel) {
    assert_eq!(got.num_frames(), want.num_frames());
    assert!(got.phys() == want.phys(), "phys bytes differ");
    for i in 0..want.num_frames() {
        let f = FrameId(i);
        assert_eq!(got.frame_view(f), want.frame_view(f), "{f} view");
        assert_eq!(
            got.write_generation(f),
            want.write_generation(f),
            "{f} write gen"
        );
        assert_eq!(
            got.state_generation(f),
            want.state_generation(f),
            "{f} state gen"
        );
        assert_eq!(
            got.frame_known_zero(f),
            want.frame_known_zero(f),
            "{f} known-zero bit"
        );
    }
    assert_eq!(got.generation_clock(), want.generation_clock());
    assert_eq!(got.stats(), want.stats());
    assert_eq!(got.op_index(), want.op_index());
    for op in FaultOp::ALL {
        assert_eq!(got.op_count(op), want.op_count(op), "{op} count");
    }
    assert!(got.swap_bytes() == want.swap_bytes(), "swap device differs");
    assert_eq!(got.fault_plan(), want.fault_plan());
    assert_eq!(got.processes(), want.processes());
    assert_eq!(got.available_frames(), want.available_frames());
    assert_eq!(got.free_listed_frames(), want.free_listed_frames());
}

/// A fresh clone equals its source. `clone` writes only the frames that
/// hold a non-zero byte, so the random workloads run, under both policies,
/// around planted kernel pages whose only non-zero byte is the last.
#[test]
fn clone_equals_its_source() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let planted = g.usize_in(1..9);
        let keep = g.usize_in(0..planted + 1);
        for policy in [KernelPolicy::stock(), KernelPolicy::hardened()] {
            let mut k = machine(policy);
            common::plant_last_byte_frames(&mut k, planted, keep);
            run_on(&mut k, &mut Mirror::default(), &ops);
            assert_same_machine(&k.clone(), &k);
        }
    });
}

fn policy(g: &mut Gen) -> KernelPolicy {
    if g.usize_in(0..2) == 0 {
        KernelPolicy::stock()
    } else {
        KernelPolicy::hardened()
    }
}

/// A divergent workload for a spare: random ops that end in a swap-out, a
/// kernel page cycle and an exit, under a plan that kills whichever process
/// performs one of its operations. Kernel errors are the point here.
fn diverge(g: &mut Gen, spare: &mut Kernel, m: &mut Mirror) {
    let mut ops = gen_ops(g, 60);
    ops.extend([
        Op::SwapOut { pages: 16 },
        Op::KernelPageCycle { n: 4 },
        Op::Exit(0),
    ]);
    spare.install_fault_plan(FaultPlan::new().kill_at_index(spare.op_index() + g.u64_below(40)));
    for op in &ops {
        let _ = apply(spare, m, op);
        m.forget_dead(spare);
    }
}

/// After `clone_from`, the restored machine behaves like the source's
/// fresh clone under the same further ops.
fn assert_restored(g: &mut Gen, spare: &mut Kernel, template: &Kernel, m: &Mirror) {
    let mut want = template.clone();
    assert_same_machine(spare, &want);
    let ops = gen_ops(g, 60);
    let (mut m_got, mut m_want) = (m.clone(), m.clone());
    for op in &ops {
        assert_eq!(
            apply(spare, &mut m_got, op),
            apply(&mut want, &mut m_want, op),
            "{op:?}"
        );
    }
    assert_same_machine(spare, &want);
}

/// The restore oracle: a spare cloned from a template, driven off through
/// kills, swap-out, kernel page cycles and exits, and restored with
/// `clone_from` equals a fresh clone of the template, and stays equal.
#[test]
fn clone_from_restores_a_spare_to_its_template() {
    propcheck::cases(48, |g| {
        let mut template = machine(policy(g));
        let mut m = Mirror::default();
        run_on(&mut template, &mut m, &gen_ops(g, 80));
        let mut spare = template.clone();
        // The second round restores a spare that has been restored before.
        for _ in 0..2 {
            diverge(g, &mut spare, &mut m.clone());
            spare.clone_from(&template);
            assert_restored(g, &mut spare, &template, &m);
        }
    });
}

/// `clone_from` falls back to a full copy, with the same result, when the
/// template changed after the spare was derived, when the spare comes from
/// another boot, and when the machine size differs.
#[test]
fn clone_from_falls_back_when_the_spare_is_not_a_copy() {
    propcheck::cases(32, |g| {
        let mut template = machine(policy(g));
        let mut m = Mirror::default();
        run_on(&mut template, &mut m, &gen_ops(g, 80));

        let mut spare = template.clone();
        diverge(g, &mut spare, &mut m.clone());
        let clock = template.generation_clock();
        run_on(&mut template, &mut m, &[Op::KernelPageCycle { n: 2 }]);
        run_on(&mut template, &mut m, &gen_ops(g, 20));
        assert!(template.generation_clock() > clock, "the template moved");
        spare.clone_from(&template);
        assert_restored(g, &mut spare, &template, &m);

        let (mut other_boot, _) = run_ops(policy(g), &gen_ops(g, 80));
        other_boot.clone_from(&template);
        assert_restored(g, &mut other_boot, &template, &m);

        let mut other_size = Kernel::new(MachineConfig::small().with_mem_bytes(1024 * 1024));
        other_size.clone_from(&template);
        assert_restored(g, &mut other_size, &template, &m);
    });
}
