//! The simulated kernel: owns physical memory, the page allocator, processes,
//! the page cache, and the swap device, and implements the paper's zeroing
//! policies and `O_NOCACHE` semantics.

use crate::alloc::FreeLists;
use crate::fault::{FaultDecision, FaultOp, FaultPlan};
use crate::process::{Process, VmaKind, SPECIAL_BASE};
use crate::slab::{class_for, SlabAllocator};
use crate::vfs::Vfs;
use crate::KObj;
use crate::{
    FileId, FrameId, FrameState, MachineConfig, Pid, SimError, SimResult, VAddr, PAGE_SIZE,
};
use simrng::Rng64;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-frame metadata (the simulated `struct page`).
#[derive(Debug, Clone)]
struct Frame {
    state: FrameState,
    refcount: u32,
    locked: bool,
    /// Reverse mappings: which `(pid, vpn)` pairs map this frame. This is the
    /// information the paper's `scanmemory` module recovers through
    /// `page_lock_anon_vma` + `for_each_process`.
    mappings: Vec<(Pid, u64)>,
    /// For page-cache frames: which file page this caches.
    cache_key: Option<(FileId, u64)>,
}

impl Frame {
    fn free() -> Self {
        Self {
            state: FrameState::Free,
            refcount: 0,
            locked: false,
            mappings: Vec::new(),
            cache_key: None,
        }
    }
}

/// Metadata of one in-use swap slot. A freed slot keeps its bytes — a real
/// swap partition is never cleared on free, which is exactly the disclosure
/// channel the paper's `mlock` discipline defends against.
#[derive(Debug, Clone)]
struct SwapSlot {
    /// Number of `(pid, vpn)` swapped-PTE references to this slot.
    refs: u32,
    /// Initial keystream state when the slot was written under
    /// [`MachineConfig::swap_crypto`] (`None` = written in the clear). Provos
    /// keeps the per-page keys in kernel memory for exactly this purpose:
    /// decrypting on swap-in, and forgetting them at shutdown.
    crypt_seed: Option<u64>,
}

/// Read-only view of one frame's metadata, for scanners and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameView {
    /// Current allocation state.
    pub state: FrameState,
    /// Number of address spaces (or kernel users) holding the frame.
    pub refcount: u32,
    /// Whether the frame is mlocked.
    pub locked: bool,
    /// Processes mapping the frame (empty for kernel/page-cache frames).
    pub owners: Vec<Pid>,
    /// The cached file, when this is a page-cache frame.
    pub cache_file: Option<FileId>,
}

/// Event counters exposed for tests, ablations, and the performance model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// `fork` calls completed.
    pub forks: u64,
    /// Processes torn down.
    pub exits: u64,
    /// Copy-on-write faults that duplicated a frame.
    pub cow_breaks: u64,
    /// Pages cleared by any policy or by `O_NOCACHE` eviction.
    pub pages_zeroed: u64,
    /// Frames handed out by the page allocator.
    pub frames_allocated: u64,
    /// Frames returned to the free lists.
    pub frames_freed: u64,
    /// User heap allocations served.
    pub heap_allocs: u64,
    /// User heap frees served.
    pub heap_frees: u64,
    /// Page-cache fills.
    pub cache_inserts: u64,
    /// Page-cache evictions.
    pub cache_evictions: u64,
    /// Pages evicted to the swap device (one event per page written out).
    pub swap_writes: u64,
    /// Pages faulted back in from the swap device.
    pub swap_ins: u64,
    /// Dirty page-cache pages flushed to their backing file.
    pub writebacks: u64,
    /// Duplicate anonymous frames retired by `merge_identical_pages`.
    pub pages_merged: u64,
    /// kmalloc objects handed out.
    pub kmallocs: u64,
    /// kmalloc objects freed (back to their slab, not the page allocator).
    pub kfrees: u64,
    /// Operations forced to fail (or processes killed) by the installed
    /// [`FaultPlan`].
    pub faults_injected: u64,
    /// `mlock` calls refused, whether by the `memlock_limit` cap or by fault
    /// injection.
    pub mlock_denials: u64,
    /// Processes killed by a [`FaultPlan`] kill decision.
    pub fault_kills: u64,
}

/// Source of machine-image ids for [`Lineage`]. The id only selects between
/// two copy paths that produce the same machine, so the order in which
/// threads draw ids never reaches a simulated result.
static NEXT_IMAGE_ID: AtomicU64 = AtomicU64::new(1);

/// Which image a machine was last copied from: what lets
/// [`Kernel::clone_from`] copy only the frames that diverged since.
#[derive(Debug)]
struct Lineage {
    /// Fresh at boot and at every `clone` / `clone_from`, so `(id, clock)`
    /// names exactly one machine image: while a machine keeps its id, every
    /// change to its frame bytes or metadata advances its generation clock.
    id: u64,
    /// `(id, generation clock)` of the image this machine was copied from.
    source: Option<(u64, u64)>,
}

impl Lineage {
    fn fresh_id() -> u64 {
        // Relaxed: the counter publishes no other data; uniqueness is all
        // an atomic increment has to give.
        NEXT_IMAGE_ID.fetch_add(1, Ordering::Relaxed)
    }

    fn boot() -> Self {
        Self {
            id: Self::fresh_id(),
            source: None,
        }
    }

    fn copy_of(src: &Kernel) -> Self {
        Self {
            id: Self::fresh_id(),
            source: Some((src.lineage.id, src.gen_clock)),
        }
    }
}

/// One bit per frame, packed: 2 KiB for a 64 MB machine, small enough to
/// stay cached while a boot frees every frame in random order (a byte per
/// frame made that boot ~6% slower).
#[derive(Debug, Clone)]
struct FrameBits(Vec<u64>);

impl FrameBits {
    /// Bits for `frames` frames, all set.
    fn all_set(frames: usize) -> Self {
        Self(vec![u64::MAX; frames.div_ceil(64)])
    }

    fn get(&self, f: usize) -> bool {
        (self.0[f / 64] >> (f % 64)) & 1 == 1
    }

    fn set(&mut self, f: usize, value: bool) {
        let mask = 1 << (f % 64);
        if value {
            self.0[f / 64] |= mask;
        } else {
            self.0[f / 64] &= !mask;
        }
    }
}

/// The simulated machine. See the crate docs for an overview.
///
/// `clone` copies everything, writing into a fresh zeroed image only the
/// frames not known to be zero (see [`Kernel::frame_known_zero`]).
/// `clone_from` restores a machine from `src` by copying only the frames
/// whose write or state generation differs, when `self` was last copied
/// from this same `src` and `src`'s generation clock has not moved since;
/// otherwise it does a full copy into `self`'s existing buffers. Either way
/// the result equals `src.clone()`.
#[derive(Debug)]
pub struct Kernel {
    config: MachineConfig,
    phys: Vec<u8>,
    frames: Vec<Frame>,
    free: FreeLists,
    procs: BTreeMap<Pid, Process>,
    next_pid: u32,
    vfs: Vfs,
    /// Ordered, so reclaim/eviction victim order — and hence free-list order
    /// and frame-reuse leak locations — is identical run to run. (This was a
    /// `HashMap` once; `RandomState` made eviction order nondeterministic.)
    page_cache: BTreeMap<(FileId, u64), FrameId>,
    /// Page-cache pages whose contents are newer than their backing file.
    /// Dirty pages are skipped by reclaim and flushed by [`Self::writeback`].
    dirty_cache: BTreeSet<(FileId, u64)>,
    /// The swap device: slot `i` occupies bytes
    /// `[i * PAGE_SIZE, (i + 1) * PAGE_SIZE)`. Slots are reused, so the
    /// device stays bounded by peak swap residency, not by event count.
    swap: Vec<u8>,
    /// Per-slot metadata; `None` marks a slot free for reuse (its stale bytes
    /// stay on the device, as on a real partition).
    swap_slots: Vec<Option<SwapSlot>>,
    slab: SlabAllocator,
    stats: KernelStats,
    fault_plan: FaultPlan,
    /// Global count of fallible operations attempted since boot — the index
    /// space [`FaultPlan::fail_at_index`] addresses.
    op_index: u64,
    /// Per-class occurrence counters (1-based after increment), indexed by
    /// [`FaultOp::index`].
    op_counts: [u64; 9],
    /// Monotone clock stamping [`Self::write_gens`] / [`Self::state_gens`].
    /// Every stamp is unique, so "frame F at generation G" names exactly one
    /// byte image — what lets incremental scanners skip clean frames.
    gen_clock: u64,
    /// Per-frame generation of the last byte mutation (write, zero, copy).
    write_gens: Vec<u64>,
    /// Per-frame generation of the last *metadata* change (state, refcount,
    /// lock bit, mappings, cache key) — tracked separately so attribution can
    /// be refreshed without rescanning unchanged bytes.
    state_gens: Vec<u64>,
    /// Per-frame *known-zero* bit: set at boot and by every clear, dropped
    /// by every other byte write. Conservative: a frame with the bit set
    /// holds only zeros, but a written frame may hold only zeros too.
    known_zero: FrameBits,
    /// Identity for `clone_from`'s delta copy; never part of the image.
    lineage: Lineage,
}

impl Clone for Kernel {
    fn clone(&self) -> Self {
        let Self {
            config,
            phys: _,
            frames,
            free,
            procs,
            next_pid,
            vfs,
            page_cache,
            dirty_cache,
            swap,
            swap_slots,
            slab,
            stats,
            fault_plan,
            op_index,
            op_counts,
            gen_clock,
            write_gens,
            state_gens,
            known_zero,
            lineage: _,
        } = self;
        Self {
            config: *config,
            phys: self.copy_phys(|_, _| ()),
            frames: frames.clone(),
            free: free.clone(),
            procs: procs.clone(),
            next_pid: *next_pid,
            vfs: vfs.clone(),
            page_cache: page_cache.clone(),
            dirty_cache: dirty_cache.clone(),
            swap: swap.clone(),
            swap_slots: swap_slots.clone(),
            slab: slab.clone(),
            stats: *stats,
            fault_plan: fault_plan.clone(),
            op_index: *op_index,
            op_counts: *op_counts,
            gen_clock: *gen_clock,
            write_gens: write_gens.clone(),
            state_gens: state_gens.clone(),
            known_zero: known_zero.clone(),
            lineage: Lineage::copy_of(self),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let delta = self.is_copy_of(src);
        let Self {
            config,
            phys,
            frames,
            free,
            procs,
            next_pid,
            vfs,
            page_cache,
            dirty_cache,
            swap,
            swap_slots,
            slab,
            stats,
            fault_plan,
            op_index,
            op_counts,
            gen_clock,
            write_gens,
            state_gens,
            known_zero,
            lineage: _,
        } = src;
        if delta {
            // Every frame `self` touched since the copy carries a stamp
            // above `src`'s unmoved clock; every other frame still carries
            // the stamp it was copied with. Two known-zero frames already
            // hold the same bytes.
            for f in 0..frames.len() {
                if self.write_gens[f] != write_gens[f] {
                    if !(self.known_zero.get(f) && known_zero.get(f)) {
                        let bytes = f * PAGE_SIZE..(f + 1) * PAGE_SIZE;
                        self.phys[bytes.clone()].copy_from_slice(&phys[bytes]);
                    }
                    self.write_gens[f] = write_gens[f];
                    self.known_zero.set(f, known_zero.get(f));
                }
                if self.state_gens[f] != state_gens[f] {
                    self.frames[f].clone_from(&frames[f]);
                    self.state_gens[f] = state_gens[f];
                }
            }
        } else {
            self.phys.clone_from(phys);
            self.frames.clone_from(frames);
            self.write_gens.clone_from(write_gens);
            self.state_gens.clone_from(state_gens);
            self.known_zero.clone_from(known_zero);
        }
        self.config = *config;
        self.free.clone_from(free);
        self.procs.clone_from(procs);
        self.next_pid = *next_pid;
        self.vfs.clone_from(vfs);
        self.page_cache.clone_from(page_cache);
        self.dirty_cache.clone_from(dirty_cache);
        self.swap.clone_from(swap);
        self.swap_slots.clone_from(swap_slots);
        self.slab.clone_from(slab);
        self.stats = *stats;
        self.fault_plan.clone_from(fault_plan);
        self.op_index = *op_index;
        self.op_counts = *op_counts;
        self.gen_clock = *gen_clock;
        self.lineage = Lineage::copy_of(src);
    }
}

impl Kernel {
    /// Boots a machine with the given configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        let num_frames = config.num_frames();
        Self {
            config,
            phys: vec![0u8; num_frames * PAGE_SIZE],
            frames: vec![Frame::free(); num_frames],
            free: FreeLists::new(num_frames, config.hot_list_max),
            procs: BTreeMap::new(),
            next_pid: 1,
            vfs: Vfs::default(),
            page_cache: BTreeMap::new(),
            dirty_cache: BTreeSet::new(),
            swap: Vec::new(),
            swap_slots: Vec::new(),
            slab: SlabAllocator::default(),
            stats: KernelStats::default(),
            fault_plan: FaultPlan::default(),
            op_index: 0,
            op_counts: [0; 9],
            gen_clock: 0,
            write_gens: vec![0; num_frames],
            state_gens: vec![0; num_frames],
            known_zero: FrameBits::all_set(num_frames),
            lineage: Lineage::boot(),
        }
    }

    /// Whether `self` was last copied from `src` and `src` has not changed
    /// since: the condition under which `clone_from(src)` may copy only the
    /// frames whose generations differ.
    fn is_copy_of(&self, src: &Self) -> bool {
        self.lineage.source == Some((src.lineage.id, src.gen_clock))
    }

    // ------------------------------------------------------------------
    // Frame generations (dirty tracking for incremental scanners)
    // ------------------------------------------------------------------

    /// Stamps `f` as byte-dirty and drops its known-zero bit. Called by
    /// every path that mutates `phys`; a clear sets the bit again after.
    fn touch_bytes(&mut self, f: FrameId) {
        self.gen_clock += 1;
        self.write_gens[f.0] = self.gen_clock;
        self.known_zero.set(f.0, false);
    }

    /// Stamps `f` as metadata-dirty. Called by every path that changes a
    /// frame's state, refcount, lock bit, reverse mappings, or cache key.
    fn touch_state(&mut self, f: FrameId) {
        self.gen_clock += 1;
        self.state_gens[f.0] = self.gen_clock;
    }

    /// Generation of the last byte mutation of frame `f` (0 = never written
    /// since boot). Two equal generations guarantee bit-identical contents.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn write_generation(&self, f: FrameId) -> u64 {
        self.write_gens[f.0]
    }

    /// Generation of the last metadata change of frame `f` (0 = untouched
    /// since boot). Equal generations guarantee an identical [`FrameView`].
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn state_generation(&self, f: FrameId) -> u64 {
        self.state_gens[f.0]
    }

    /// Whether frame `f` is known to hold only zero bytes: it has not been
    /// written since boot or since its last clear. The bit is conservative:
    /// a frame written with zeros reads all zero with the bit clear. Scans
    /// read it to skip frames no match can start in.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn frame_known_zero(&self, f: FrameId) -> bool {
        self.known_zero.get(f.0)
    }

    /// Current value of the monotone generation clock. Strictly increases
    /// with every byte or metadata mutation; a snapshot whose clock moved
    /// backwards (or changed frame count) is a *different* machine, which is
    /// how incremental scanners detect a mismatched kernel.
    #[must_use]
    pub fn generation_clock(&self) -> u64 {
        self.gen_clock
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault schedule. Replaces any previous plan; counters keep
    /// running, so a plan installed mid-run addresses the same index space a
    /// probe run with an empty plan observed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Removes the fault schedule (counters keep advancing).
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = FaultPlan::default();
    }

    /// The currently installed fault schedule.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Number of fallible operations attempted since boot. Advances
    /// identically with or without an installed plan, so `(seed, op_index)`
    /// replays: a probe run discovers the indices a targeted plan addresses.
    #[must_use]
    pub fn op_index(&self) -> u64 {
        self.op_index
    }

    /// Occurrences of one operation class attempted since boot — the
    /// occurrence space [`FaultPlan::fail_nth`] addresses (its next
    /// occurrence is `op_count(op) + 1`).
    #[must_use]
    pub fn op_count(&self, op: FaultOp) -> u64 {
        self.op_counts[op.index()]
    }

    /// Counts this operation and asks the plan whether it proceeds. Every
    /// fallible entry point calls this exactly once per attempt, faulted or
    /// not — the counters are what make plans replayable.
    fn fault_check(&mut self, op: FaultOp, pid: Option<Pid>) -> SimResult<()> {
        let idx = self.op_index;
        self.op_index += 1;
        self.op_counts[op.index()] += 1;
        let occurrence = self.op_counts[op.index()];
        match self.fault_plan.decide(op, occurrence, idx) {
            FaultDecision::Allow => Ok(()),
            FaultDecision::Fail => {
                self.stats.faults_injected += 1;
                Err(match op {
                    FaultOp::Mlock => {
                        self.stats.mlock_denials += 1;
                        SimError::MlockDenied
                    }
                    _ => SimError::OutOfMemory,
                })
            }
            FaultDecision::Kill => {
                self.stats.faults_injected += 1;
                match pid {
                    Some(p) => {
                        if self.alive(p) {
                            self.stats.fault_kills += 1;
                            let _ = self.exit(p);
                        }
                        Err(SimError::NoSuchProcess(p))
                    }
                    // No acting process to kill (e.g. kmalloc): plain failure.
                    None => Err(SimError::OutOfMemory),
                }
            }
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Event counters accumulated since boot.
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Raw simulated physical memory — what a memory-disclosure attack sees.
    #[must_use]
    pub fn phys(&self) -> &[u8] {
        &self.phys
    }

    /// A cold-boot image of physical memory: every bit that is `1` decays
    /// to `0` independently with probability `decay_rate`, modeling DRAM
    /// remanence loss after power-off (Halderman et al.'s ground state;
    /// decay is one-sided, so an observed `1` in the image is certain).
    ///
    /// Deterministic in `(seed, decay_rate)` and the current memory
    /// contents: each frame decays under its own [`Rng64`] forked from the
    /// frame index, so images are reproducible regardless of scan order or
    /// parallelism. `decay_rate <= 0` returns a bit-identical copy of
    /// [`Self::phys`]; the capture itself never mutates machine state.
    #[must_use]
    pub fn snapshot_decayed(&self, seed: u64, decay_rate: f64) -> Vec<u8> {
        if decay_rate <= 0.0 {
            return self.copy_phys(|_, _| ());
        }
        // The copy leaves out known-zero frames, which have no 1-bits to
        // decay; every other frame draws from a stream of its own.
        self.copy_phys(|frame, page| {
            let mut rng = Rng64::new(seed ^ (frame as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for word in page.chunks_exact_mut(8) {
                // Zero bytes have no 1-bits to decay and draw no randomness,
                // so skipping them (a whole zero word at a time) leaves every
                // 1-bit elsewhere drawing from the same stream position.
                if u64::from_ne_bytes(word.try_into().expect("8-byte chunk")) == 0 {
                    continue;
                }
                for byte in word.iter_mut().filter(|b| **b != 0) {
                    let mut mask = 0u8;
                    for bit in 0..8 {
                        if *byte & (1 << bit) != 0 && rng.gen_bool(decay_rate) {
                            mask |= 1 << bit;
                        }
                    }
                    *byte &= !mask;
                }
            }
        })
    }

    /// A copy of `phys` built on a zeroed allocation, into which only the
    /// frames not known to be zero are written; `edit` then runs on each
    /// written frame's copy. A large zeroed allocation comes straight from
    /// the host, which maps it lazily onto its shared zero page, so a
    /// known-zero frame costs neither a read, a copy nor a page fault.
    fn copy_phys(&self, mut edit: impl FnMut(usize, &mut [u8])) -> Vec<u8> {
        let mut image = vec![0u8; self.phys.len()];
        for frame in (0..self.frames.len()).filter(|&f| !self.known_zero.get(f)) {
            let page = &mut image[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE];
            page.copy_from_slice(self.frame_bytes(FrameId(frame)));
            edit(frame, page);
        }
        image
    }

    /// Number of physical page frames.
    #[must_use]
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Frames currently available for allocation.
    #[must_use]
    pub fn available_frames(&self) -> usize {
        self.free.available()
    }

    /// Frames sitting on a free list with possibly-stale contents.
    #[must_use]
    pub fn free_listed_frames(&self) -> usize {
        self.free.listed()
    }

    /// The bytes of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn frame_bytes(&self, f: FrameId) -> &[u8] {
        &self.phys[f.base()..f.base() + PAGE_SIZE]
    }

    /// Metadata view of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn frame_view(&self, f: FrameId) -> FrameView {
        let fr = &self.frames[f.0];
        let mut owners: Vec<Pid> = fr.mappings.iter().map(|&(p, _)| p).collect();
        owners.sort_unstable();
        owners.dedup();
        FrameView {
            state: fr.state,
            refcount: fr.refcount,
            locked: fr.locked,
            owners,
            cache_file: fr.cache_key.map(|(fid, _)| fid),
        }
    }

    /// Whether the frame currently belongs to *allocated* memory in the
    /// paper's sense (process, kernel, or page cache), as opposed to the free
    /// lists.
    #[must_use]
    pub fn is_allocated(&self, f: FrameId) -> bool {
        self.frames[f.0].state != FrameState::Free
    }

    // ------------------------------------------------------------------
    // Page allocator
    // ------------------------------------------------------------------

    /// Clears one frame and sets its known-zero bit. Only a frame not
    /// known to be zero is written: zeros over zeros would change nothing
    /// but fault the host page in. Either way the clear is a byte event
    /// that moves the write generation and counts in `pages_zeroed`, so
    /// scanners and statistics see the same history.
    fn zero_frame(&mut self, f: FrameId) {
        if !self.known_zero.get(f.0) {
            self.phys[f.base()..f.base() + PAGE_SIZE].fill(0);
        }
        self.touch_bytes(f);
        self.known_zero.set(f.0, true);
        self.stats.pages_zeroed += 1;
    }

    /// Core allocation path. Anonymous and page-cache pages are cleared on
    /// allocation (as real kernels clear pages destined for user space);
    /// kernel pages are *not* — that omission is the ext2 leak.
    ///
    /// When the free lists run dry, the allocator reclaims page-cache frames
    /// (ordinary memory-pressure eviction — which does *not* clear the
    /// evicted contents on a stock kernel, another data-lifetime hazard).
    fn alloc_frame(&mut self, state: FrameState) -> SimResult<FrameId> {
        debug_assert_ne!(state, FrameState::Free);
        self.fault_check(FaultOp::FrameAlloc, None)?;
        if self.free.available() == 0 {
            self.reclaim_page_cache(1);
        }
        let f = self.free.alloc().ok_or(SimError::OutOfMemory)?;
        self.stats.frames_allocated += 1;
        if matches!(state, FrameState::Anon | FrameState::PageCache) {
            self.zero_frame(f);
        }
        let fr = &mut self.frames[f.0];
        fr.state = state;
        fr.refcount = 1;
        fr.locked = false;
        fr.mappings.clear();
        fr.cache_key = None;
        self.touch_state(f);
        Ok(f)
    }

    /// Returns a frame to the free lists, applying `zero_on_free`.
    fn free_frame(&mut self, f: FrameId) {
        if self.config.policy.zero_on_free {
            self.zero_frame(f);
        }
        let fr = &mut self.frames[f.0];
        debug_assert_ne!(fr.state, FrameState::Free, "double free of {f}");
        fr.state = FrameState::Free;
        fr.refcount = 0;
        fr.locked = false;
        fr.mappings.clear();
        fr.cache_key = None;
        self.touch_state(f);
        self.free.free(f);
        self.stats.frames_freed += 1;
    }

    /// Allocates `n` kernel pages (e.g. ext2 directory block buffers). Their
    /// contents are whatever the previous owner left there.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when physical memory is exhausted.
    pub fn alloc_kernel_pages(&mut self, n: usize) -> SimResult<Vec<FrameId>> {
        self.ensure_free_frames(n)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc_frame(FrameState::Kernel) {
                Ok(f) => out.push(f),
                Err(e) => {
                    // All-or-nothing: return the frames already taken so a
                    // mid-batch failure cannot strand allocated pages.
                    for f in out {
                        self.free_frame(f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Frees kernel pages obtained from [`Self::alloc_kernel_pages`].
    pub fn free_kernel_pages(&mut self, frames: &[FrameId]) {
        for &f in frames {
            self.free_frame(f);
        }
    }

    /// Writes into a kernel page (e.g. the dirent header the ext2 exploit
    /// leaves at the start of each leaked block).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page or the frame is not kernel-owned.
    pub fn write_kernel_page(&mut self, f: FrameId, offset: usize, bytes: &[u8]) {
        assert_eq!(self.frames[f.0].state, FrameState::Kernel, "not a kernel page");
        assert!(offset + bytes.len() <= PAGE_SIZE, "write beyond page");
        self.phys[f.base() + offset..f.base() + offset + bytes.len()].copy_from_slice(bytes);
        self.touch_bytes(f);
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Creates a fresh process with an empty address space.
    pub fn spawn(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(None));
        pid
    }

    /// Whether `pid` names a live process.
    #[must_use]
    pub fn alive(&self, pid: Pid) -> bool {
        self.procs.contains_key(&pid)
    }

    /// Live process ids, ascending.
    #[must_use]
    pub fn processes(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    fn proc(&self, pid: Pid) -> SimResult<&Process> {
        self.procs.get(&pid).ok_or(SimError::NoSuchProcess(pid))
    }

    fn proc_mut(&mut self, pid: Pid) -> SimResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Forks `parent`, sharing every mapped page copy-on-write.
    ///
    /// No physical page is duplicated until one side writes — the property
    /// the paper's `RSA_memory_align` exploits to keep exactly one physical
    /// copy of the key across any number of worker processes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] when `parent` is not alive.
    pub fn fork(&mut self, parent: Pid) -> SimResult<Pid> {
        self.fault_check(FaultOp::Fork, Some(parent))?;
        let child_pid = Pid(self.next_pid);
        let parent_proc = self.procs.get_mut(&parent).ok_or(SimError::NoSuchProcess(parent))?;
        self.next_pid += 1;

        let mut child = Process::new(Some(parent));
        child.heap = parent_proc.heap.clone();
        child.next_special = parent_proc.next_special;
        child.vma_kind = parent_proc.vma_kind.clone();
        child.locked_vpns = parent_proc.locked_vpns.clone();
        // Swapped pages are shared too: both sides reference the same slot
        // until one faults the page back in (swap-in always privatises).
        child.swapped = parent_proc.swapped.clone();
        let shared_slots: Vec<usize> = child.swapped.values().map(|s| s.slot).collect();
        for slot in shared_slots {
            if let Some(s) = self.swap_slots[slot].as_mut() {
                s.refs += 1;
            }
        }

        // Share all pages COW.
        let mut entries: Vec<(u64, crate::process::Pte)> = Vec::new();
        for (&vpn, pte) in parent_proc.page_table.iter_mut() {
            pte.cow = true;
            entries.push((vpn, *pte));
        }
        for (vpn, pte) in entries {
            child.page_table.insert(vpn, pte);
            let fr = &mut self.frames[pte.frame.0];
            fr.refcount += 1;
            fr.mappings.push((child_pid, vpn));
            self.touch_state(pte.frame);
        }
        self.procs.insert(child_pid, child);
        self.stats.forks += 1;
        Ok(child_pid)
    }

    /// Unmaps one page from a process, applying `zero_on_unmap` when the
    /// process held the last reference, and freeing the frame when the
    /// reference count reaches zero.
    fn unmap_page(&mut self, pid: Pid, vpn: u64, frame: FrameId) {
        let fr = &mut self.frames[frame.0];
        fr.mappings.retain(|&(p, v)| !(p == pid && v == vpn));
        fr.refcount = fr.refcount.saturating_sub(1);
        let now_free = fr.refcount == 0;
        self.touch_state(frame);
        if now_free {
            if self.config.policy.zero_on_unmap {
                // The zap_pte_range patch clears when page_count == 1.
                self.zero_frame(frame);
            }
            self.free_frame(frame);
        }
    }

    /// Terminates a process, unmapping its whole address space.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] when `pid` is not alive.
    pub fn exit(&mut self, pid: Pid) -> SimResult<()> {
        let proc = self.procs.remove(&pid).ok_or(SimError::NoSuchProcess(pid))?;
        for (vpn, pte) in proc.page_table {
            self.unmap_page(pid, vpn, pte.frame);
        }
        // Release swap-slot references; the slot bytes stay on the device
        // (real swap partitions are never cleared on exit).
        for swapped in proc.swapped.values() {
            self.unref_swap_slot(swapped.slot);
        }
        self.stats.exits += 1;
        Ok(())
    }

    /// Resolves a virtual address to its physical frame.
    #[must_use]
    pub fn translate(&self, pid: Pid, addr: VAddr) -> Option<FrameId> {
        self.procs.get(&pid)?.pte(addr).map(|p| p.frame)
    }

    // ------------------------------------------------------------------
    // User heap
    // ------------------------------------------------------------------

    /// `malloc(size)` for `pid`.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`] or [`SimError::OutOfMemory`].
    pub fn heap_alloc(&mut self, pid: Pid, size: usize) -> SimResult<VAddr> {
        self.fault_check(FaultOp::HeapAlloc, Some(pid))?;
        // Reserve a conservative page estimate before mutating heap state so
        // OOM cannot leave the chunk map inconsistent; reclaim page cache
        // first when the free lists are short.
        let worst_pages = size / PAGE_SIZE + 2;
        self.ensure_free_frames(worst_pages)?;
        let proc = self.proc_mut(pid)?;
        let (addr, grow_bytes) = proc.heap.alloc(size as u64);
        if grow_bytes > 0 {
            let first_new_vpn = {
                // Pages [old mapped end, new mapped end) must be mapped.
                let new_end = proc.heap.brk().next_multiple_of(PAGE_SIZE as u64);
                (new_end - grow_bytes) / PAGE_SIZE as u64
            };
            let pages = (grow_bytes / PAGE_SIZE as u64) as usize;
            for i in 0..pages {
                let vpn = first_new_vpn + i as u64;
                let frame = match self.alloc_frame(FrameState::Anon) {
                    Ok(f) => f,
                    Err(e) => {
                        // Transactional: unmap the pages mapped so far and
                        // retract the chunk + break growth, restoring the
                        // heap to its exact pre-call geometry.
                        for j in 0..i as u64 {
                            let vpn = first_new_vpn + j;
                            let proc = self.proc_mut(pid)?;
                            if let Some(pte) = proc.page_table.remove(&vpn) {
                                proc.vma_kind.remove(&vpn);
                                proc.locked_vpns.remove(&vpn);
                                self.unmap_page(pid, vpn, pte.frame);
                            }
                        }
                        let proc = self.proc_mut(pid)?;
                        proc.heap.retract(addr);
                        return Err(e);
                    }
                };
                self.frames[frame.0].mappings.push((pid, vpn));
                self.touch_state(frame);
                let proc = self.proc_mut(pid)?;
                proc.page_table.insert(
                    vpn,
                    crate::process::Pte {
                        frame,
                        cow: false,
                        readonly: false,
                    },
                );
                proc.vma_kind.insert(vpn, VmaKind::Heap);
            }
        }
        self.stats.heap_allocs += 1;
        Ok(addr)
    }

    /// Size in bytes of the live heap chunk at `addr`.
    #[must_use]
    pub fn heap_chunk_size(&self, pid: Pid, addr: VAddr) -> Option<usize> {
        self.procs.get(&pid)?.heap.chunk_size(addr).map(|s| s as usize)
    }

    /// `free(addr)` for `pid`. The chunk's bytes are *not* cleared — this is
    /// the data-lifetime hazard the paper measures. Trailing fully-free pages
    /// are returned to the kernel when [`MachineConfig::heap_trim`] is set.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadFree`] for pointers that are not live chunk
    /// starts (double frees included).
    pub fn heap_free(&mut self, pid: Pid, addr: VAddr) -> SimResult<()> {
        if self.config.secure_dealloc {
            // Chow-style secure deallocation: the allocator clears the chunk
            // before recycling it.
            let size = self
                .heap_chunk_size(pid, addr)
                .ok_or(SimError::BadFree(addr))?;
            let zeros = vec![0u8; size];
            self.write_bytes(pid, addr, &zeros)?;
        }
        let trim = self.config.heap_trim;
        let proc = self.proc_mut(pid)?;
        let outcome = proc
            .heap
            .free(addr, trim)
            .map_err(|()| SimError::BadFree(addr))?;
        self.stats.heap_frees += 1;
        if let Some(trim_to) = outcome.trim_to {
            let first_vpn = trim_to / PAGE_SIZE as u64;
            let proc = self.proc_mut(pid)?;
            let doomed: Vec<(u64, FrameId)> = proc
                .page_table
                .range(first_vpn..)
                .filter(|(vpn, _)| proc.vma_kind.get(vpn) == Some(&VmaKind::Heap))
                .map(|(&vpn, pte)| (vpn, pte.frame))
                .collect();
            for (vpn, frame) in doomed {
                let proc = self.proc_mut(pid)?;
                proc.page_table.remove(&vpn);
                proc.vma_kind.remove(&vpn);
                proc.locked_vpns.remove(&vpn);
                self.unmap_page(pid, vpn, frame);
            }
            // Trimmed pages that are sitting in swap are released too (their
            // slot bytes stay behind on the device).
            let proc = self.proc_mut(pid)?;
            let doomed_swapped: Vec<(u64, usize)> = proc
                .swapped
                .range(first_vpn..)
                .filter(|(vpn, _)| proc.vma_kind.get(vpn) == Some(&VmaKind::Heap))
                .map(|(&vpn, s)| (vpn, s.slot))
                .collect();
            for (vpn, slot) in doomed_swapped {
                let proc = self.proc_mut(pid)?;
                proc.swapped.remove(&vpn);
                proc.vma_kind.remove(&vpn);
                self.unref_swap_slot(slot);
            }
        }
        Ok(())
    }

    /// `memset(addr, 0, chunk_size); free(addr)` — what a security-conscious
    /// application does.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::heap_free`].
    pub fn heap_free_zeroed(&mut self, pid: Pid, addr: VAddr) -> SimResult<()> {
        let size = self
            .heap_chunk_size(pid, addr)
            .ok_or(SimError::BadFree(addr))?;
        let zeros = vec![0u8; size];
        self.write_bytes(pid, addr, &zeros)?;
        self.heap_free(pid, addr)
    }

    // ------------------------------------------------------------------
    // Special (page-aligned, lockable) regions
    // ------------------------------------------------------------------

    /// Allocates a page-aligned special region of `npages` pages — the
    /// simulated `posix_memalign`. The frames are zero-filled.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`] or [`SimError::OutOfMemory`].
    pub fn alloc_special_region(&mut self, pid: Pid, npages: usize) -> SimResult<VAddr> {
        self.fault_check(FaultOp::SpecialAlloc, Some(pid))?;
        self.ensure_free_frames(npages)?;
        let proc = self.proc_mut(pid)?;
        let base = proc.next_special.max(SPECIAL_BASE);
        // One guard page of address space between regions.
        proc.next_special = base + ((npages as u64 + 1) * PAGE_SIZE as u64);
        let first_vpn = base / PAGE_SIZE as u64;
        for i in 0..npages {
            let frame = match self.alloc_frame(FrameState::Anon) {
                Ok(f) => f,
                Err(e) => {
                    // Transactional: unmap the (still zero-filled) pages
                    // mapped so far and restore the region cursor.
                    for j in 0..i as u64 {
                        let vpn = first_vpn + j;
                        let proc = self.proc_mut(pid)?;
                        if let Some(pte) = proc.page_table.remove(&vpn) {
                            proc.vma_kind.remove(&vpn);
                            proc.locked_vpns.remove(&vpn);
                            self.unmap_page(pid, vpn, pte.frame);
                        }
                    }
                    self.proc_mut(pid)?.next_special = base;
                    return Err(e);
                }
            };
            let vpn = first_vpn + i as u64;
            self.frames[frame.0].mappings.push((pid, vpn));
            self.touch_state(frame);
            let proc = self.proc_mut(pid)?;
            proc.page_table.insert(
                vpn,
                crate::process::Pte {
                    frame,
                    cow: false,
                    readonly: false,
                },
            );
            proc.vma_kind.insert(vpn, VmaKind::Special);
        }
        Ok(VAddr(base))
    }

    /// Unmaps a special region previously returned by
    /// [`Self::alloc_special_region`].
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when any page is unmapped.
    pub fn free_special_region(&mut self, pid: Pid, base: VAddr, npages: usize) -> SimResult<()> {
        let first_vpn = base.vpn();
        for i in 0..npages as u64 {
            let vpn = first_vpn + i;
            let proc = self.proc_mut(pid)?;
            if let Some(pte) = proc.page_table.remove(&vpn) {
                proc.vma_kind.remove(&vpn);
                proc.locked_vpns.remove(&vpn);
                self.unmap_page(pid, vpn, pte.frame);
            } else if let Some(swapped) = proc.swapped.remove(&vpn) {
                // Freed while evicted: release the slot reference without
                // faulting the page back in (its bytes stay on the device).
                proc.vma_kind.remove(&vpn);
                proc.locked_vpns.remove(&vpn);
                self.unref_swap_slot(swapped.slot);
            } else {
                return Err(SimError::BadAddress(VAddr(vpn * PAGE_SIZE as u64)));
            }
        }
        Ok(())
    }

    /// `mlock(addr, len)`: pins the covered frames so the swap path skips
    /// them.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when any page is unmapped, or
    /// [`SimError::MlockDenied`] when the lock would push the process past
    /// [`MachineConfig::memlock_limit`] (or a fault plan refuses the call).
    pub fn mlock(&mut self, pid: Pid, addr: VAddr, len: usize) -> SimResult<()> {
        self.fault_check(FaultOp::Mlock, Some(pid))?;
        let first = addr.vpn();
        let last = VAddr(addr.0 + len.max(1) as u64 - 1).vpn();
        if let Some(limit) = self.config.memlock_limit {
            let proc = self.proc(pid)?;
            let newly = (first..=last)
                .filter(|vpn| !proc.locked_vpns.contains(vpn))
                .count();
            if (proc.locked_vpns.len() + newly) * PAGE_SIZE > limit {
                self.stats.mlock_denials += 1;
                return Err(SimError::MlockDenied);
            }
        }
        // mlock faults the covered range in before pinning it (as the real
        // syscall does), so a previously-evicted page comes back off swap.
        for vpn in first..=last {
            if self.proc(pid)?.swapped.contains_key(&vpn) {
                self.swap_in(pid, vpn)?;
            }
        }
        for vpn in first..=last {
            let proc = self.proc_mut(pid)?;
            let pte = *proc
                .page_table
                .get(&vpn)
                .ok_or(SimError::BadAddress(VAddr(vpn * PAGE_SIZE as u64)))?;
            proc.locked_vpns.insert(vpn);
            if !self.frames[pte.frame.0].locked {
                self.frames[pte.frame.0].locked = true;
                self.touch_state(pte.frame);
            }
        }
        Ok(())
    }

    /// `mprotect(addr, len, PROT_READ)` / back to writable: toggles write
    /// protection on the covered pages. With `readonly` set, any write
    /// through [`Self::write_bytes`] faults with [`SimError::ReadOnly`] —
    /// the enforcement the paper's `BN_FLG_STATIC_DATA` annotation implies
    /// for the aligned key region.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when any page is unmapped.
    pub fn mprotect_readonly(
        &mut self,
        pid: Pid,
        addr: VAddr,
        len: usize,
        readonly: bool,
    ) -> SimResult<()> {
        let first = addr.vpn();
        let last = VAddr(addr.0 + len.max(1) as u64 - 1).vpn();
        let proc = self.proc_mut(pid)?;
        // Validate all pages first so the change is all-or-nothing.
        for vpn in first..=last {
            if !proc.page_table.contains_key(&vpn) {
                return Err(SimError::BadAddress(VAddr(vpn * PAGE_SIZE as u64)));
            }
        }
        for vpn in first..=last {
            if let Some(pte) = proc.page_table.get_mut(&vpn) {
                pte.readonly = readonly;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Memory access
    // ------------------------------------------------------------------

    /// Writes `bytes` into the process address space, breaking copy-on-write
    /// sharing as a real write fault would.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when any page is unmapped, or
    /// [`SimError::OutOfMemory`] when a COW duplication cannot find a frame.
    pub fn write_bytes(&mut self, pid: Pid, addr: VAddr, bytes: &[u8]) -> SimResult<()> {
        let mut off = 0usize;
        while off < bytes.len() {
            let cur = addr.add(off as u64);
            let vpn = cur.vpn();
            let page_off = cur.page_offset();
            let n = (PAGE_SIZE - page_off).min(bytes.len() - off);
            // A store to a swapped page is a major fault: bring it back in
            // (fallible — the swap read or the frame allocation can fail).
            if self.proc(pid)?.swapped.contains_key(&vpn) {
                self.swap_in(pid, vpn)?;
            }
            let pte = self
                .proc(pid)?
                .page_table
                .get(&vpn)
                .copied()
                .ok_or(SimError::BadAddress(cur))?;
            if pte.readonly {
                return Err(SimError::ReadOnly(cur));
            }
            let frame = if pte.cow {
                self.cow_break(pid, vpn, pte)?
            } else {
                pte.frame
            };
            let base = frame.base() + page_off;
            self.phys[base..base + n].copy_from_slice(&bytes[off..off + n]);
            self.touch_bytes(frame);
            off += n;
        }
        Ok(())
    }

    /// Handles a write fault on a COW page.
    fn cow_break(&mut self, pid: Pid, vpn: u64, pte: crate::process::Pte) -> SimResult<FrameId> {
        if self.frames[pte.frame.0].refcount == 1 {
            // Last owner: just drop the COW marking.
            let proc = self.proc_mut(pid)?;
            if let Some(p) = proc.page_table.get_mut(&vpn) {
                p.cow = false;
            }
            return Ok(pte.frame);
        }
        // Shared: duplicate the frame. This byte copy is precisely how key
        // material multiplies across worker processes.
        let new = self.alloc_frame(FrameState::Anon)?;
        let (src, dst) = (pte.frame.base(), new.base());
        let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
        let (a, b) = self.phys.split_at_mut(hi);
        if src < dst {
            b[..PAGE_SIZE].copy_from_slice(&a[lo..lo + PAGE_SIZE]);
        } else {
            a[lo..lo + PAGE_SIZE].copy_from_slice(&b[..PAGE_SIZE]);
        }
        self.touch_bytes(new);
        {
            let old = &mut self.frames[pte.frame.0];
            old.mappings.retain(|&(p, v)| !(p == pid && v == vpn));
            old.refcount -= 1;
        }
        self.touch_state(pte.frame);
        self.frames[new.0].mappings.push((pid, vpn));
        let locked = {
            let proc = self.proc_mut(pid)?;
            if let Some(p) = proc.page_table.get_mut(&vpn) {
                p.frame = new;
                p.cow = false;
            }
            proc.locked_vpns.contains(&vpn)
        };
        self.frames[new.0].locked = locked;
        self.touch_state(new);
        self.stats.cow_breaks += 1;
        Ok(new)
    }

    /// Reads `len` bytes from the process address space.
    ///
    /// Reading takes `&self`, so it cannot service a major fault: a page
    /// that has been evicted to swap surfaces as [`SimError::SwappedOut`].
    /// Fault it back in first with [`Self::touch_pages`] (or any write).
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when any page is unmapped, or
    /// [`SimError::SwappedOut`] when a covered page is on the swap device.
    pub fn read_bytes(&self, pid: Pid, addr: VAddr, len: usize) -> SimResult<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut off = 0usize;
        while off < len {
            let cur = addr.add(off as u64);
            let proc = self.proc(pid)?;
            if proc.swapped.contains_key(&cur.vpn()) {
                return Err(SimError::SwappedOut(cur));
            }
            let pte = proc.pte(cur).ok_or(SimError::BadAddress(cur))?;
            let page_off = cur.page_offset();
            let n = (PAGE_SIZE - page_off).min(len - off);
            let base = pte.frame.base() + page_off;
            out.extend_from_slice(&self.phys[base..base + n]);
            off += n;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Files and the page cache
    // ------------------------------------------------------------------

    /// Creates a file on the simulated disk.
    pub fn create_file(&mut self, name: &str, content: &[u8]) -> FileId {
        self.vfs.create(name, content.to_vec())
    }

    /// Length of a file's contents.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchFile`].
    pub fn file_len(&self, fid: FileId) -> SimResult<usize> {
        Ok(self.vfs.get(fid).ok_or(SimError::NoSuchFile(fid))?.content.len())
    }

    /// Reads a whole file into a fresh heap buffer of `pid`, populating the
    /// page cache on the way (unless already resident).
    ///
    /// With `nocache` set — the paper's `O_NOCACHE` flag — the file's cache
    /// pages are removed and cleared immediately after the read, so the PEM
    /// key file does not linger in kernel memory.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchFile`], [`SimError::NoSuchProcess`], or
    /// [`SimError::OutOfMemory`].
    pub fn read_file(&mut self, pid: Pid, fid: FileId, nocache: bool) -> SimResult<(VAddr, usize)> {
        let mut content = self
            .vfs
            .get(fid)
            .ok_or(SimError::NoSuchFile(fid))?
            .content
            .clone();
        // Dirty cache pages hold data newer than the backing file; a read
        // observes them (this is write-back caching, not write-through).
        let dirty: Vec<(FileId, u64)> = self
            .dirty_cache
            .iter()
            .filter(|(f, _)| *f == fid)
            .copied()
            .collect();
        for key in dirty {
            if let Some(&frame) = self.page_cache.get(&key) {
                let start = key.1 as usize * PAGE_SIZE;
                let end = (start + PAGE_SIZE).min(content.len());
                if start < content.len() {
                    content[start..end]
                        .copy_from_slice(&self.phys[frame.base()..frame.base() + (end - start)]);
                }
            }
        }
        let npages = content.len().div_ceil(PAGE_SIZE).max(1);
        for idx in 0..npages as u64 {
            if self.page_cache.contains_key(&(fid, idx)) {
                continue;
            }
            let frame = self.alloc_frame(FrameState::PageCache)?;
            let start = idx as usize * PAGE_SIZE;
            let end = (start + PAGE_SIZE).min(content.len());
            if start < content.len() {
                self.phys[frame.base()..frame.base() + (end - start)]
                    .copy_from_slice(&content[start..end]);
                self.touch_bytes(frame);
            }
            self.frames[frame.0].cache_key = Some((fid, idx));
            self.touch_state(frame);
            self.page_cache.insert((fid, idx), frame);
            self.stats.cache_inserts += 1;
        }

        let buf = self.heap_alloc(pid, content.len().max(1))?;
        self.write_bytes(pid, buf, &content)?;

        if nocache {
            self.evict_file_cache(fid, true);
        }
        Ok((buf, content.len()))
    }

    /// Number of page-cache pages currently holding `fid`.
    #[must_use]
    pub fn file_cached_pages(&self, fid: FileId) -> usize {
        self.page_cache.keys().filter(|(f, _)| *f == fid).count()
    }

    /// Writes `bytes` into `fid` at `offset` through the page cache: the
    /// covered cache pages are filled (allocating as needed), updated, and
    /// marked dirty. The backing file's *data* sees nothing until
    /// [`Self::writeback`] flushes — write-back caching, the window in which
    /// written secrets exist only in RAM. Extending writes grow the file
    /// with zeros immediately (size is metadata, data waits for writeback).
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchFile`], or with the frame-allocation
    /// failure modes when a cache page must be created.
    pub fn write_file(&mut self, fid: FileId, offset: usize, bytes: &[u8]) -> SimResult<()> {
        let entry = self.vfs.get_mut(fid).ok_or(SimError::NoSuchFile(fid))?;
        let file_end = offset + bytes.len();
        if entry.content.len() < file_end {
            entry.content.resize(file_end, 0);
        }
        let mut off = 0usize;
        while off < bytes.len() {
            let pos = offset + off;
            let idx = (pos / PAGE_SIZE) as u64;
            let page_off = pos % PAGE_SIZE;
            let n = (PAGE_SIZE - page_off).min(bytes.len() - off);
            let frame = match self.page_cache.get(&(fid, idx)) {
                Some(&f) => f,
                None => {
                    let f = self.alloc_frame(FrameState::PageCache)?;
                    // Fill from the backing file so a partial-page write
                    // cannot clobber the rest of the page at flush time.
                    let start = idx as usize * PAGE_SIZE;
                    let chunk = {
                        let content =
                            &self.vfs.get(fid).ok_or(SimError::NoSuchFile(fid))?.content;
                        let end = (start + PAGE_SIZE).min(content.len());
                        if start < content.len() {
                            content[start..end].to_vec()
                        } else {
                            Vec::new()
                        }
                    };
                    if !chunk.is_empty() {
                        self.phys[f.base()..f.base() + chunk.len()].copy_from_slice(&chunk);
                    }
                    self.frames[f.0].cache_key = Some((fid, idx));
                    self.touch_state(f);
                    self.page_cache.insert((fid, idx), f);
                    self.stats.cache_inserts += 1;
                    f
                }
            };
            let base = frame.base() + page_off;
            self.phys[base..base + n].copy_from_slice(&bytes[off..off + n]);
            self.touch_bytes(frame);
            self.dirty_cache.insert((fid, idx));
            off += n;
        }
        Ok(())
    }

    /// Flushes up to `max_pages` dirty page-cache pages to their backing
    /// files, in `(file, page)` order. Each page flushed is one `Writeback`
    /// fault operation; on an injected failure the pages already flushed
    /// stay flushed and the rest stay dirty.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::OutOfMemory`] when the installed [`FaultPlan`]
    /// targets a `Writeback` operation.
    pub fn writeback(&mut self, max_pages: usize) -> SimResult<usize> {
        let victims: Vec<(FileId, u64)> =
            self.dirty_cache.iter().take(max_pages).copied().collect();
        let mut flushed = 0usize;
        for key in victims {
            self.fault_check(FaultOp::Writeback, None)?;
            if let Some(&frame) = self.page_cache.get(&key) {
                self.flush_cache_page(key, frame);
            }
            self.dirty_cache.remove(&key);
            self.stats.writebacks += 1;
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Copies one cache page's bytes over its backing-file range (clamped to
    /// the file's length — size is metadata, set at write time).
    fn flush_cache_page(&mut self, key: (FileId, u64), frame: FrameId) {
        let start = key.1 as usize * PAGE_SIZE;
        let base = frame.base();
        if let Some(entry) = self.vfs.get_mut(key.0) {
            let end = (start + PAGE_SIZE).min(entry.content.len());
            if start < entry.content.len() {
                entry.content[start..end]
                    .copy_from_slice(&self.phys[base..base + (end - start)]);
            }
        }
    }

    /// Number of dirty page-cache pages awaiting writeback.
    #[must_use]
    pub fn dirty_cache_pages(&self) -> usize {
        self.dirty_cache.len()
    }

    /// An image of the simulated disk: every file's contents, concatenated
    /// in creation order. Together with [`Self::swap_bytes`] this is the
    /// attackable persistent storage of the paper's threat model — what a
    /// stolen disk or a backup tape reveals.
    #[must_use]
    pub fn disk_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for fid in self.vfs.ids() {
            if let Some(entry) = self.vfs.get(fid) {
                out.extend_from_slice(&entry.content);
            }
        }
        out
    }

    /// The concatenated contents of every *world-readable* file — what an
    /// unprivileged local reader sees. Mode-0600 files (see
    /// [`Self::chmod_private`]) are skipped.
    #[must_use]
    pub fn public_disk_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for fid in self.vfs.ids() {
            if let Some(entry) = self.vfs.get(fid) {
                if !entry.private {
                    out.extend_from_slice(&entry.content);
                }
            }
        }
        out
    }

    /// Marks a file mode 0600: excluded from [`Self::public_disk_bytes`].
    /// Servers apply this to their at-rest key files so the unprivileged
    /// disk channel measures page-cache leakage, not the key file itself.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchFile`] for an unknown id.
    pub fn chmod_private(&mut self, fid: FileId) -> SimResult<()> {
        self.vfs
            .get_mut(fid)
            .ok_or(SimError::NoSuchFile(fid))?
            .private = true;
        Ok(())
    }

    /// Ensures at least `want` frames are available, reclaiming page cache
    /// as needed.
    fn ensure_free_frames(&mut self, want: usize) -> SimResult<()> {
        let have = self.free.available();
        if have < want {
            self.reclaim_page_cache(want - have);
        }
        if self.free.available() < want {
            return Err(SimError::OutOfMemory);
        }
        Ok(())
    }

    /// Reclaims up to `n` page-cache frames under memory pressure (no
    /// clearing beyond what the kernel policy mandates). Returns how many
    /// frames were reclaimed.
    ///
    /// Victims are taken in key order (the `page_cache` map is ordered), so
    /// reclaim — and hence free-list order and frame-reuse leak locations —
    /// is identical run to run. Dirty pages are skipped: they hold data the
    /// backing file does not, and only [`Self::writeback`] may retire that.
    pub fn reclaim_page_cache(&mut self, n: usize) -> usize {
        let victims: Vec<(FileId, u64)> = self
            .page_cache
            .keys()
            .filter(|key| !self.dirty_cache.contains(*key))
            .take(n)
            .copied()
            .collect();
        let count = victims.len();
        for key in victims {
            if let Some(frame) = self.page_cache.remove(&key) {
                self.free_frame(frame);
                self.stats.cache_evictions += 1;
            }
        }
        count
    }

    /// Evicts a file from the page cache. With `clear`, pages are zeroed
    /// before being freed (the `remove_from_page_cache` + `clear_highpage`
    /// sequence of the paper's patch); without it, this models ordinary
    /// memory-pressure reclaim, which leaves the bytes behind.
    pub fn evict_file_cache(&mut self, fid: FileId, clear: bool) {
        let doomed: Vec<(FileId, u64)> = self
            .page_cache
            .keys()
            .filter(|(f, _)| *f == fid)
            .copied()
            .collect();
        for key in doomed {
            if let Some(frame) = self.page_cache.remove(&key) {
                // A dirty page cannot just be dropped: its contents are newer
                // than the backing file, so eviction flushes it synchronously
                // (no fault op — this is the non-fallible teardown path).
                if self.dirty_cache.remove(&key) {
                    self.flush_cache_page(key, frame);
                }
                if clear {
                    self.zero_frame(frame);
                }
                self.free_frame(frame);
                self.stats.cache_evictions += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Slab (kmalloc) — see `slab.rs` for why this is a zeroing-policy gap
    // ------------------------------------------------------------------

    /// `kmalloc(size)`: a kernel object from the matching slab class. The
    /// object's bytes are whatever the previous occupant left (real slabs do
    /// not clear on alloc unless `__GFP_ZERO`).
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::OutOfMemory`] when `size` exceeds the largest
    /// class or no page can back a new slab.
    pub fn kmalloc(&mut self, size: usize) -> SimResult<KObj> {
        self.fault_check(FaultOp::Kmalloc, None)?;
        let class = class_for(size).ok_or(SimError::OutOfMemory)?;
        if let Some(obj) = self.slab.take(class) {
            self.stats.kmallocs += 1;
            return Ok(obj);
        }
        let frame = self.alloc_frame(FrameState::Kernel)?;
        self.slab.add_page(class, frame);
        let obj = self.slab.take(class).expect("fresh slab page has objects");
        self.stats.kmallocs += 1;
        Ok(obj)
    }

    /// `kfree(obj)`: returns the object to its slab free list. **Its bytes
    /// remain in place** — the page stays allocated, so not even the
    /// `zero_on_free` policy touches them until [`Self::slab_shrink`].
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadFree`] on double frees.
    pub fn kfree(&mut self, obj: KObj) -> SimResult<()> {
        if !self.slab.give_back(obj) {
            return Err(SimError::BadFree(VAddr(obj.offset as u64)));
        }
        self.stats.kfrees += 1;
        Ok(())
    }

    /// Writes into a kmalloc'd object.
    ///
    /// # Panics
    ///
    /// Panics when the write exceeds the object's size class.
    pub fn kwrite(&mut self, obj: KObj, bytes: &[u8]) {
        assert!(bytes.len() <= obj.capacity(), "kwrite beyond object");
        let base = obj.frame.base() + obj.offset;
        self.phys[base..base + bytes.len()].copy_from_slice(bytes);
        self.touch_bytes(obj.frame);
    }

    /// Reads a kmalloc'd object's full contents (stale bytes included —
    /// which is precisely how slab infoleaks work).
    #[must_use]
    pub fn kread(&self, obj: KObj) -> Vec<u8> {
        let base = obj.frame.base() + obj.offset;
        self.phys[base..base + obj.capacity()].to_vec()
    }

    /// Shrinks the slab caches: fully-free slab pages are returned to the
    /// page allocator, where the kernel zeroing policy finally applies.
    /// Returns the number of pages released.
    pub fn slab_shrink(&mut self) -> usize {
        let reaped = self.slab.reap_empty_pages();
        let n = reaped.len();
        for f in reaped {
            self.free_frame(f);
        }
        n
    }

    /// Pages currently owned by slab caches (allocated kernel memory).
    #[must_use]
    pub fn slab_pages(&self) -> usize {
        self.slab.pages_owned()
    }

    /// Models data arriving through a tty line discipline: the kernel
    /// buffers `bytes` in a kmalloc'd object (a `tty_buffer`), delivers it,
    /// and frees the buffer — leaving the typed bytes (passphrases!) in the
    /// slab until the object is reused or the slab shrunk.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::OutOfMemory`] for lines over 2048 bytes.
    pub fn tty_input(&mut self, bytes: &[u8]) -> SimResult<()> {
        let obj = self.kmalloc(bytes.len().max(1))?;
        self.kwrite(obj, bytes);
        // The reader consumed it; the buffer goes back to the slab dirty.
        self.kfree(obj)
    }

    // ------------------------------------------------------------------
    // Swap
    // ------------------------------------------------------------------

    /// Lowest-index free swap slot, growing the device by one page only when
    /// every slot is referenced. Reuse keeps the device bounded by peak swap
    /// residency, not by event count.
    fn alloc_swap_slot(&mut self) -> usize {
        if let Some(i) = self.swap_slots.iter().position(Option::is_none) {
            return i;
        }
        self.swap_slots.push(None);
        self.swap.resize(self.swap.len() + PAGE_SIZE, 0);
        self.swap_slots.len() - 1
    }

    /// Drops one reference to a slot, marking it reusable at zero. The slot's
    /// bytes stay on the device — freed swap is never cleared, which is
    /// exactly why the paper's `mlock` discipline keeps keys from ever
    /// reaching it.
    fn unref_swap_slot(&mut self, slot: usize) {
        if let Some(s) = self.swap_slots[slot].as_mut() {
            s.refs = s.refs.saturating_sub(1);
            if s.refs == 0 {
                self.swap_slots[slot] = None;
            }
        }
    }

    /// Simulates memory pressure: evicts up to `max_pages` unlocked anonymous
    /// pages to the swap device, returning how many were written. Eviction is
    /// real: every mapping of the victim frame becomes a swapped PTE naming
    /// the slot, and the frame returns to the free lists (`zero_on_free`
    /// applies to the *frame* — the swap copy persists, which is why
    /// kernel-level zeroing alone does not close this channel). `mlock`ed
    /// pages are skipped — the protection the paper's solutions rely on.
    ///
    /// Each page written is one `SwapOut` fault operation charged to the
    /// first mapping process; on an injected failure the error propagates
    /// with already-evicted pages staying evicted (partial progress, as with
    /// a mid-run I/O error).
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::OutOfMemory`] (or [`SimError::NoSuchProcess`]
    /// after a kill) when the installed [`FaultPlan`] targets a `SwapOut`
    /// operation.
    pub fn swap_out_pressure(&mut self, max_pages: usize) -> SimResult<usize> {
        let mut written = 0usize;
        for i in 0..self.frames.len() {
            if written >= max_pages {
                break;
            }
            if self.frames[i].state != FrameState::Anon
                || self.frames[i].locked
                || self.frames[i].mappings.is_empty()
            {
                continue;
            }
            let f = FrameId(i);
            let owner = self.frames[i].mappings[0].0;
            self.fault_check(FaultOp::SwapOut, Some(owner))?;
            let slot = self.alloc_swap_slot();
            let base = f.base();
            let crypt_seed = if self.config.swap_crypto {
                // Provos-style swap encryption, modeled as a keyed stream
                // cipher: the device only ever sees ciphertext. The key mixes
                // the frame id with the event counter so no two writes share
                // a keystream (a pure function of the frame id was a
                // two-time pad: swapping the same frame before and after a
                // key install XORed to the plaintext diff).
                Some(swap_slot_seed(f, self.stats.swap_writes))
            } else {
                None
            };
            let mut page = self.phys[base..base + PAGE_SIZE].to_vec();
            if let Some(seed) = crypt_seed {
                swap_keystream_xor(seed, &mut page);
            }
            self.swap[slot * PAGE_SIZE..(slot + 1) * PAGE_SIZE].copy_from_slice(&page);
            let mappings = self.frames[i].mappings.clone();
            let mut refs = 0u32;
            for (pid, vpn) in mappings {
                if let Some(proc) = self.procs.get_mut(&pid) {
                    if let Some(pte) = proc.page_table.remove(&vpn) {
                        proc.swapped.insert(
                            vpn,
                            crate::process::SwappedPte {
                                slot,
                                cow: pte.cow,
                                readonly: pte.readonly,
                            },
                        );
                        refs += 1;
                    }
                }
            }
            self.swap_slots[slot] = Some(SwapSlot {
                refs: refs.max(1),
                crypt_seed,
            });
            self.free_frame(f);
            self.stats.swap_writes += 1;
            written += 1;
        }
        Ok(written)
    }

    /// Services a major fault: brings the swapped page `vpn` of `pid` back
    /// into a fresh frame, decrypting when the slot was written under swap
    /// crypto. Sharing ends here — each faulting mapping gets a private copy
    /// (a simplification of real swap-cache sharing; the slot stays live
    /// until every reference has faulted in or exited).
    ///
    /// One `SwapIn` fault operation, plus the nested `FrameAlloc` for the
    /// receiving frame (as with heap growth). On failure the page stays
    /// swapped — the fault can be retried.
    fn swap_in(&mut self, pid: Pid, vpn: u64) -> SimResult<FrameId> {
        self.fault_check(FaultOp::SwapIn, Some(pid))?;
        let swapped = *self
            .proc(pid)?
            .swapped
            .get(&vpn)
            .ok_or(SimError::BadAddress(VAddr(vpn * PAGE_SIZE as u64)))?;
        let frame = self.alloc_frame(FrameState::Anon)?;
        let slot = swapped.slot;
        let mut page = self.swap[slot * PAGE_SIZE..(slot + 1) * PAGE_SIZE].to_vec();
        if let Some(seed) = self.swap_slots[slot].as_ref().and_then(|s| s.crypt_seed) {
            swap_keystream_xor(seed, &mut page);
        }
        self.phys[frame.base()..frame.base() + PAGE_SIZE].copy_from_slice(&page);
        self.touch_bytes(frame);
        let locked = {
            let proc = self.proc_mut(pid)?;
            proc.swapped.remove(&vpn);
            proc.page_table.insert(
                vpn,
                crate::process::Pte {
                    frame,
                    cow: false,
                    readonly: swapped.readonly,
                },
            );
            proc.locked_vpns.contains(&vpn)
        };
        self.frames[frame.0].mappings.push((pid, vpn));
        self.frames[frame.0].locked = locked;
        self.touch_state(frame);
        self.unref_swap_slot(slot);
        self.stats.swap_ins += 1;
        Ok(frame)
    }

    /// Touches every page covering `[addr, addr + len)`, faulting swapped
    /// pages back in — how a caller clears [`SimError::SwappedOut`] ahead of
    /// a `&self` read.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::BadAddress`] when a page is neither resident
    /// nor swapped, or with the swap-in failure modes.
    pub fn touch_pages(&mut self, pid: Pid, addr: VAddr, len: usize) -> SimResult<()> {
        let first = addr.vpn();
        let last = VAddr(addr.0 + len.max(1) as u64 - 1).vpn();
        for vpn in first..=last {
            let proc = self.proc(pid)?;
            if proc.page_table.contains_key(&vpn) {
                continue;
            }
            if proc.swapped.contains_key(&vpn) {
                self.swap_in(pid, vpn)?;
            } else {
                return Err(SimError::BadAddress(VAddr(vpn * PAGE_SIZE as u64)));
            }
        }
        Ok(())
    }

    /// Number of `pid`'s pages currently on the swap device.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`].
    pub fn swapped_pages(&self, pid: Pid) -> SimResult<usize> {
        Ok(self.proc(pid)?.swapped.len())
    }

    /// Contents of the swap device (attackable storage in the paper's threat
    /// model). Bounded by peak swap residency: slots are reused, and freed
    /// slots keep their stale bytes, as on a real partition.
    #[must_use]
    pub fn swap_bytes(&self) -> &[u8] {
        &self.swap
    }

    // ------------------------------------------------------------------
    // Same-page merging (KSM)
    // ------------------------------------------------------------------

    /// Kernel same-page merging: scans anonymous frames and remaps every
    /// duplicate onto the lowest-numbered frame with identical bytes,
    /// marking all surviving PTEs copy-on-write. Locked pages merge too —
    /// KSM is exactly as eager on mlocked memory, which is what lets the
    /// dedup timing side channel confirm guesses about mlock-protected key
    /// pages. Returns the number of duplicate frames retired.
    ///
    /// The next write to a merged page breaks the sharing through the usual
    /// COW machinery (`stats.cow_breaks` ticks) — the observable latency
    /// difference the dedup attacker measures.
    pub fn merge_identical_pages(&mut self) -> usize {
        let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for i in 0..self.frames.len() {
            if self.frames[i].state != FrameState::Anon {
                continue;
            }
            let base = i * PAGE_SIZE;
            by_hash
                .entry(fnv1a(&self.phys[base..base + PAGE_SIZE]))
                .or_default()
                .push(i);
        }
        let mut merged = 0usize;
        for group in by_hash.into_values() {
            if group.len() < 2 {
                continue;
            }
            // Lowest frame id with each distinct content is canonical; hash
            // collisions are resolved by the byte comparison.
            let mut canonicals: Vec<usize> = Vec::new();
            for i in group {
                let target = canonicals.iter().copied().find(|&c| {
                    self.phys[c * PAGE_SIZE..(c + 1) * PAGE_SIZE]
                        == self.phys[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]
                });
                match target {
                    Some(c) => {
                        self.merge_frame_into(FrameId(i), FrameId(c));
                        merged += 1;
                    }
                    None => canonicals.push(i),
                }
            }
        }
        merged
    }

    /// Remaps every mapping of `dup` onto `canon`, marks all PTEs of both
    /// frames COW, and retires `dup` to the free lists.
    fn merge_frame_into(&mut self, dup: FrameId, canon: FrameId) {
        let canon_mappings = self.frames[canon.0].mappings.clone();
        for (pid, vpn) in canon_mappings {
            if let Some(proc) = self.procs.get_mut(&pid) {
                if let Some(pte) = proc.page_table.get_mut(&vpn) {
                    pte.cow = true;
                }
            }
        }
        let dup_mappings = self.frames[dup.0].mappings.clone();
        for &(pid, vpn) in &dup_mappings {
            if let Some(proc) = self.procs.get_mut(&pid) {
                if let Some(pte) = proc.page_table.get_mut(&vpn) {
                    pte.frame = canon;
                    pte.cow = true;
                }
            }
        }
        let dup_refs = self.frames[dup.0].refcount;
        let dup_locked = self.frames[dup.0].locked;
        {
            let fr = &mut self.frames[canon.0];
            fr.mappings.extend(dup_mappings);
            fr.refcount += dup_refs;
            fr.locked |= dup_locked;
        }
        self.touch_state(canon);
        // `free_frame` resets the dup's metadata; with `zero_on_free` unset
        // its (duplicate) bytes linger on the free list, as ever.
        self.free_frame(dup);
        self.stats.pages_merged += 1;
    }

    /// Produces a core-dump image of one process: the contents of every
    /// mapped page in ascending virtual order. This is the artifact of the
    /// Broadwell et al. crash-report problem the paper cites — a core file
    /// shipped off-machine carries whatever the process had in memory.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`].
    pub fn dump_process(&self, pid: Pid) -> SimResult<Vec<u8>> {
        let proc = self.proc(pid)?;
        let mut out = Vec::with_capacity(proc.page_table.len() * PAGE_SIZE);
        for pte in proc.page_table.values() {
            out.extend_from_slice(self.frame_bytes(pte.frame));
        }
        Ok(out)
    }

    /// Ages the machine: cycles `fraction` of the currently free frames
    /// through an allocate/free pass and returns them to the free lists in
    /// random order.
    ///
    /// A freshly booted simulator hands out frames in strict watermark order,
    /// which would cluster every allocation at the bottom of physical memory.
    /// A real machine that has been up for a while has its free lists
    /// scattered across all of RAM — which is why the paper's key copies
    /// (Figures 5a, 6a) appear spread over the whole 256 MB. Call this once
    /// after boot to reproduce that spread. The cycled pages are never
    /// written, so no scan artifacts are introduced.
    ///
    /// Returns the number of frames cycled.
    pub fn age_memory(&mut self, rng: &mut simrng::Rng64, fraction: f64) -> usize {
        let n = (self.free.available() as f64 * fraction.clamp(0.0, 1.0)) as usize;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc_frame(FrameState::Kernel) {
                Ok(f) => frames.push(f),
                Err(_) => break,
            }
        }
        rng.shuffle(&mut frames);
        let cycled = frames.len();
        for f in frames {
            self.free_frame(f);
        }
        cycled
    }

    /// Heap diagnostics: `(live_bytes, live_chunks, mapped_pages)`.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`].
    pub fn heap_usage(&self, pid: Pid) -> SimResult<(u64, usize, usize)> {
        let p = self.proc(pid)?;
        Ok((p.heap.live_bytes(), p.heap.live_chunks(), p.mapped_pages()))
    }

    /// Base virtual address of the process heap.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`].
    pub fn heap_base(&self, pid: Pid) -> SimResult<VAddr> {
        Ok(VAddr(self.proc(pid)?.heap.base()))
    }

    /// Parent of `pid` at fork time, if any.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchProcess`].
    pub fn parent_of(&self, pid: Pid) -> SimResult<Option<Pid>> {
        Ok(self.proc(pid)?.parent)
    }

    /// Name a file was created with.
    ///
    /// # Errors
    ///
    /// Fails with [`SimError::NoSuchFile`].
    pub fn file_name(&self, fid: FileId) -> SimResult<&str> {
        Ok(&self.vfs.get(fid).ok_or(SimError::NoSuchFile(fid))?.name)
    }

    /// Number of files on the simulated disk.
    #[must_use]
    pub fn file_count(&self) -> usize {
        self.vfs.len()
    }
}

/// Per-event swap-encryption key: mixes the frame id with the global swap
/// write counter so no two writes ever share a keystream.
fn swap_slot_seed(f: FrameId, event: u64) -> u64 {
    let seed = 0x5DEE_CE66_D1CE_5EED_u64
        ^ (f.0 as u64).wrapping_mul(0x9E37_79B9)
        ^ event.wrapping_mul(0x94D0_49BB_1331_11EB);
    if seed == 0 {
        // xorshift's one fixed point; any nonzero constant restores mixing.
        0x5DEE_CE66_D1CE_5EED
    } else {
        seed
    }
}

/// XORs `buf` with the xorshift64 keystream seeded by `seed`. Symmetric:
/// applying it twice with the same seed restores the input.
fn swap_keystream_xor(seed: u64, buf: &mut [u8]) {
    let mut key = seed;
    for b in buf {
        key ^= key << 13;
        key ^= key >> 7;
        key ^= key << 17;
        *b ^= key as u8;
    }
}

/// FNV-1a over one page: buckets candidate frames before the byte comparison
/// that actually decides a merge.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted(mem_bytes: usize) -> Kernel {
        let mut k = Kernel::new(MachineConfig::small().with_mem_bytes(mem_bytes));
        k.age_memory(&mut Rng64::new(7), 1.0);
        k
    }

    fn dirty(k: &mut Kernel) {
        let pid = k.spawn();
        let buf = k.heap_alloc(pid, 3 * PAGE_SIZE).expect("heap alloc");
        k.write_bytes(pid, buf, &[0x5A; 3 * PAGE_SIZE])
            .expect("write");
        k.fork(pid).expect("fork");
    }

    /// The delta path runs exactly when `self` was last copied from this
    /// same `src` object and `src`'s clock has not moved since.
    #[test]
    fn delta_copy_is_taken_only_from_the_unchanged_source() {
        let mut template = booted(1 << 20);
        let mut spare = template.clone();
        assert!(spare.is_copy_of(&template), "a fresh clone");
        assert!(!template.is_copy_of(&spare), "copies are directed");

        // The spare's own divergence never invalidates the delta.
        dirty(&mut spare);
        assert!(spare.is_copy_of(&template), "spare ran a workload");
        spare.clone_from(&template);
        assert!(spare.is_copy_of(&template), "a delta restore");

        // A clone of the spare descends from the spare, not the template.
        let grandchild = spare.clone();
        assert!(!grandchild.is_copy_of(&template));
        assert!(grandchild.is_copy_of(&spare));

        // The template moved: full copy, after which the delta is valid again.
        dirty(&mut template);
        assert!(!spare.is_copy_of(&template), "template clock moved");
        spare.clone_from(&template);
        assert!(spare.is_copy_of(&template), "after the full copy");

        // Another boot reaches the same clock but is another image.
        let mut other = booted(1 << 20);
        dirty(&mut other);
        assert_eq!(other.generation_clock(), template.generation_clock());
        assert!(!spare.is_copy_of(&other), "same clock, other boot");

        // The template overwritten in place gets a new identity even when
        // its clock lands where it was.
        template.clone_from(&other);
        assert_eq!(template.generation_clock(), other.generation_clock());
        assert!(
            !spare.is_copy_of(&template),
            "template replaced by clone_from"
        );

        // A different machine size is another image too.
        let small = booted(1 << 19);
        assert!(!spare.is_copy_of(&small));
        spare.clone_from(&small);
        assert_eq!(spare.num_frames(), small.num_frames());
        assert!(spare.is_copy_of(&small));
    }

    /// Why the source's clock must not have moved: once both sides write,
    /// equal generations no longer mean equal bytes.
    #[test]
    fn a_moved_template_is_copied_in_full() {
        let mut template = booted(1 << 20);
        let pid = template.spawn();
        let buf = template.heap_alloc(pid, 64).expect("heap alloc");
        let frame = template.translate(pid, buf).expect("mapped");
        let mut spare = template.clone();
        spare.write_bytes(pid, buf, b"spare").expect("write");
        template.write_bytes(pid, buf, b"templ").expect("write");
        assert_eq!(
            spare.write_generation(frame),
            template.write_generation(frame)
        );
        spare.clone_from(&template);
        assert_eq!(spare.read_bytes(pid, buf, 5).expect("read"), b"templ");
    }
}
