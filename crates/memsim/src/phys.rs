//! Simulated physical memory and its change tracking: the frames' bytes,
//! their write and state generations, their known-zero bits and the
//! generation clock.
//!
//! This module is the only code that writes a frame's bytes or stamps a
//! generation. Besides whole-image copies (`clone` and the delta restore),
//! its mutators are a byte write, a copy-on-write frame copy, a clear and a
//! metadata stamp, and each one stamps what it changes from the one
//! monotone clock, so no write can miss its stamp. Every stamp is
//! unique, so "frame F at generation G" names one byte image (or one
//! metadata state), and one walk over the stamps answers "which frames
//! changed since clock C" for incremental scans and delta restores alike.
//! The [`Kernel`] methods that read memory and its stamps live here too.

use crate::snapshot::Snapshot;
use crate::{FrameId, Kernel, PAGE_SIZE};

/// One bit per frame, packed: 2 KiB for a 64 MB machine, small enough to
/// stay cached while a boot frees every frame in random order (a byte per
/// frame made that boot ~6% slower).
#[derive(Debug, Clone)]
pub(crate) struct FrameBits(Vec<u64>);

impl FrameBits {
    pub(crate) fn get(&self, f: usize) -> bool {
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

/// The one "what changed since clock C" walk: the frames whose stamp in
/// `gens` lies above `clock`, ascending.
fn stamped_above(gens: &[u64], clock: u64) -> impl Iterator<Item = usize> + '_ {
    gens.iter()
        .enumerate()
        .filter(move |&(_, &gen)| gen > clock)
        .map(|(f, _)| f)
}

/// A machine's physical memory with its per-frame stamps.
///
/// `clone` (and so `clone_from`) writes into a fresh zeroed image only the
/// frames not known to be zero; [`Self::restore_from`] copies only what
/// changed since a copy.
#[derive(Debug)]
pub(crate) struct PhysMem {
    /// Every frame's bytes, contiguous: frame `f` is
    /// `[f * PAGE_SIZE, (f + 1) * PAGE_SIZE)`.
    bytes: Vec<u8>,
    /// Monotone clock every stamp is drawn from.
    clock: u64,
    /// Per-frame generation of the last byte mutation (write, clear, copy).
    write_gens: Vec<u64>,
    /// Per-frame generation of the last *metadata* change (state, refcount,
    /// lock bit, mappings, cache key) — tracked separately so attribution
    /// can be refreshed without rescanning unchanged bytes.
    state_gens: Vec<u64>,
    /// Per-frame *known-zero* bit: set at boot and by every clear, dropped
    /// by every other byte write. Conservative: a frame with the bit set
    /// holds only zeros, but a written frame may hold only zeros too.
    known_zero: FrameBits,
}

impl Clone for PhysMem {
    fn clone(&self) -> Self {
        Self {
            bytes: self.copy(|_, _| ()),
            clock: self.clock,
            write_gens: self.write_gens.clone(),
            state_gens: self.state_gens.clone(),
            known_zero: self.known_zero.clone(),
        }
    }
}

impl PhysMem {
    /// `frames` zeroed frames, never stamped.
    pub(crate) fn new(frames: usize) -> Self {
        Self {
            bytes: vec![0; frames * PAGE_SIZE],
            clock: 0,
            write_gens: vec![0; frames],
            state_gens: vec![0; frames],
            known_zero: FrameBits(vec![u64::MAX; frames.div_ceil(64)]),
        }
    }

    /// Writes `bytes` into frame `f` at `offset` and stamps the frame.
    ///
    /// # Panics
    ///
    /// Panics if the write runs past the end of the frame.
    pub(crate) fn write_frame(&mut self, f: FrameId, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= PAGE_SIZE, "write beyond page");
        let at = f.base() + offset;
        self.bytes[at..at + bytes.len()].copy_from_slice(bytes);
        self.stamp_write(f);
    }

    /// Copies frame `src` over frame `dst` and stamps `dst`: the byte copy
    /// of a copy-on-write break.
    pub(crate) fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        self.bytes
            .copy_within(src.base()..src.base() + PAGE_SIZE, dst.base());
        self.stamp_write(dst);
    }

    /// Clears frame `f`, stamps it and sets its known-zero bit. Only a
    /// frame not known to be zero is written: zeros over zeros would change
    /// nothing but fault the host page in. Either way the clear is a byte
    /// event that moves the write generation, so scanners see the same
    /// history.
    pub(crate) fn clear_frame(&mut self, f: FrameId) {
        if !self.known_zero.get(f.0) {
            self.bytes[f.base()..f.base() + PAGE_SIZE].fill(0);
        }
        self.stamp_write(f);
        self.known_zero.set(f.0, true);
    }

    /// Stamps frame `f` as metadata-dirty, after the kernel changed its
    /// state, refcount, lock bit, reverse mappings or cache key.
    pub(crate) fn stamp_state(&mut self, f: FrameId) {
        self.clock += 1;
        self.state_gens[f.0] = self.clock;
    }

    fn stamp_write(&mut self, f: FrameId) {
        self.clock += 1;
        self.write_gens[f.0] = self.clock;
        self.known_zero.set(f.0, false);
    }

    pub(crate) fn frame(&self, f: FrameId) -> &[u8] {
        &self.bytes[f.base()..f.base() + PAGE_SIZE]
    }

    /// Restores `self` to `src`, given that `self` was copied from `src`
    /// and `src` has not been stamped since. Then every frame `self`
    /// changed after the copy carries a stamp above `src`'s clock, and
    /// every other frame still matches `src`, so only the frames stamped
    /// above that clock are copied. Calls `restate(f)` for each frame whose
    /// metadata stamp it restores, for the caller to restore the metadata.
    pub(crate) fn restore_from(&mut self, src: &Self, mut restate: impl FnMut(usize)) {
        let written: Vec<usize> = stamped_above(&self.write_gens, src.clock).collect();
        for f in written {
            // Two known-zero frames already hold the same bytes.
            if !(self.known_zero.get(f) && src.known_zero.get(f)) {
                let page = f * PAGE_SIZE..(f + 1) * PAGE_SIZE;
                self.bytes[page.clone()].copy_from_slice(&src.bytes[page]);
            }
            self.write_gens[f] = src.write_gens[f];
            self.known_zero.set(f, src.known_zero.get(f));
        }
        let restated: Vec<usize> = stamped_above(&self.state_gens, src.clock).collect();
        for f in restated {
            self.state_gens[f] = src.state_gens[f];
            restate(f);
        }
        self.clock = src.clock;
    }

    /// A cold-boot capture: a copy of the bytes, edited frame by frame by
    /// `edit`, with a copy of the known-zero bits (see [`Self::copy`]).
    pub(crate) fn snapshot(&self, edit: impl FnMut(usize, &mut [u8])) -> Snapshot {
        Snapshot::new(self.copy(edit), self.known_zero.clone())
    }

    /// A copy of the bytes built on a zeroed allocation, into which only
    /// the frames not known to be zero are written; `edit` then runs on
    /// each written frame's copy. A large zeroed allocation comes straight
    /// from the host, which maps it lazily onto its shared zero page, so a
    /// known-zero frame costs neither a read, a copy nor a page fault.
    fn copy(&self, mut edit: impl FnMut(usize, &mut [u8])) -> Vec<u8> {
        let mut image = vec![0u8; self.bytes.len()];
        for frame in (0..self.write_gens.len()).filter(|&f| !self.known_zero.get(f)) {
            let page = &mut image[frame * PAGE_SIZE..(frame + 1) * PAGE_SIZE];
            page.copy_from_slice(self.frame(FrameId(frame)));
            edit(frame, page);
        }
        image
    }
}

impl Kernel {
    /// Raw simulated physical memory — what a memory-disclosure attack sees.
    #[must_use]
    pub fn phys(&self) -> &[u8] {
        &self.mem.bytes
    }

    /// The bytes of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn frame_bytes(&self, f: FrameId) -> &[u8] {
        self.mem.frame(f)
    }

    /// Generation of the last byte mutation of frame `f` (0 = never written
    /// since boot). Two equal generations guarantee bit-identical contents.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn write_generation(&self, f: FrameId) -> u64 {
        self.mem.write_gens[f.0]
    }

    /// Generation of the last metadata change of frame `f` (0 = untouched
    /// since boot). Equal generations guarantee an identical
    /// [`FrameView`](crate::FrameView).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn state_generation(&self, f: FrameId) -> u64 {
        self.mem.state_gens[f.0]
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
        self.mem.known_zero.get(f.0)
    }

    /// Current value of the monotone generation clock. Strictly increases
    /// with every byte or metadata mutation; a snapshot whose clock moved
    /// backwards (or changed frame count) is a *different* machine, which is
    /// how incremental scanners detect a mismatched kernel.
    #[must_use]
    pub fn generation_clock(&self) -> u64 {
        self.mem.clock
    }

    /// The frames whose bytes changed after the generation clock read
    /// `clock`, ascending: those whose [`Self::write_generation`] lies
    /// above it. A frame outside them holds the bytes it held then.
    pub fn frames_written_since(&self, clock: u64) -> impl Iterator<Item = FrameId> + '_ {
        stamped_above(&self.mem.write_gens, clock).map(FrameId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each mutator stamps its frame above the clock it started from, and
    /// the walk yields exactly the frames whose bytes were stamped above a
    /// clock: a metadata stamp is not a write.
    #[test]
    fn every_mutator_stamps_and_the_walk_sees_it() {
        let mut mem = PhysMem::new(8);
        mem.write_frame(FrameId(1), 10, b"abc");
        let clock = mem.clock;
        mem.write_frame(FrameId(5), 0, b"x");
        mem.copy_frame(FrameId(1), FrameId(3));
        mem.clear_frame(FrameId(6));
        mem.stamp_state(FrameId(2));
        let written = |c| stamped_above(&mem.write_gens, c).collect::<Vec<_>>();
        assert_eq!(written(clock), [3, 5, 6]);
        assert_eq!(written(0), [1, 3, 5, 6]);
        assert_eq!(written(mem.clock), [] as [usize; 0]);
        assert_eq!(mem.bytes[3 * PAGE_SIZE + 10..3 * PAGE_SIZE + 13], *b"abc");
        assert!(mem.known_zero.get(6) && mem.known_zero.get(2));
        assert!(!mem.known_zero.get(3) && !mem.known_zero.get(5));
        assert!(mem.state_gens[2] > clock && mem.write_gens[2] == 0);
    }

    /// A delta restore undoes every stamp since the copy, byte writes and
    /// metadata stamps alike, and hands each restated frame to the caller.
    #[test]
    fn restore_undoes_every_stamp_since_the_copy() {
        let mut src = PhysMem::new(8);
        src.write_frame(FrameId(0), 0, b"template");
        src.stamp_state(FrameId(4));
        src.write_frame(FrameId(6), 7, b"kept");
        let mut copy = src.clone();
        copy.write_frame(FrameId(0), 0, b"diverged");
        copy.write_frame(FrameId(7), 100, b"new");
        copy.clear_frame(FrameId(6));
        copy.stamp_state(FrameId(4));
        copy.stamp_state(FrameId(2));
        let mut restated = Vec::new();
        copy.restore_from(&src, |f| restated.push(f));
        assert_eq!(restated, [2, 4]);
        assert_eq!(copy.bytes, src.bytes);
        assert_eq!(copy.clock, src.clock);
        assert_eq!(copy.write_gens, src.write_gens);
        assert_eq!(copy.state_gens, src.state_gens);
        assert_eq!(copy.known_zero.0, src.known_zero.0);
    }
}
