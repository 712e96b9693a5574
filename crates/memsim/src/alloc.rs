//! The physical page allocator: hot/cold free lists over a high-watermark
//! pool, mirroring the per-CPU page lists of the 2.6 kernel's
//! `free_hot_cold_page` path (the function the paper patches).

use crate::FrameId;
use std::collections::VecDeque;

/// Free-frame bookkeeping.
///
/// Frames are handed out in this order: hot list (LIFO — most recently freed
/// first; a ring, so a spill from its old end costs no shift), then the cold
/// stack (also most-recently-spilled first, matching
/// the buddy allocator's head-insertion of freed pages), then never-yet-used
/// frames from the watermark. The overall most-recently-freed-first order is
/// deliberately faithful: it is what makes freshly freed, secret-bearing
/// pages the *first* thing a subsequent kernel allocation (such as an ext2
/// directory block) receives.
#[derive(Debug, Clone)]
pub(crate) struct FreeLists {
    hot: VecDeque<FrameId>,
    cold: Vec<FrameId>,
    hot_max: usize,
    /// First frame that has never been allocated; all frames at or above this
    /// index are pristine zeros.
    watermark: usize,
    total_frames: usize,
}

impl FreeLists {
    pub(crate) fn new(total_frames: usize, hot_max: usize) -> Self {
        Self {
            hot: VecDeque::new(),
            cold: Vec::new(),
            hot_max: hot_max.max(1),
            watermark: 0,
            total_frames,
        }
    }

    /// Takes a frame, preferring recently freed ones.
    pub(crate) fn alloc(&mut self) -> Option<FrameId> {
        if let Some(f) = self.hot.pop_back() {
            return Some(f);
        }
        if let Some(f) = self.cold.pop() {
            return Some(f);
        }
        if self.watermark < self.total_frames {
            let f = FrameId(self.watermark);
            self.watermark += 1;
            return Some(f);
        }
        None
    }

    /// Returns a frame to the hot list, spilling the oldest hot frame onto
    /// the cold stack when the hot list is full.
    pub(crate) fn free(&mut self, frame: FrameId) {
        self.hot.push_back(frame);
        if self.hot.len() > self.hot_max {
            let spilled = self.hot.pop_front().expect("over hot_max, so not empty");
            self.cold.push(spilled);
        }
    }

    /// Returns `frames` in order, leaving the lists as one [`Self::free`]
    /// per frame would: of the hot list followed by `frames`, all but the
    /// last `hot_max` spill onto the cold stack, oldest first.
    pub(crate) fn free_all(&mut self, frames: &[FrameId]) {
        let spill = (self.hot.len() + frames.len()).saturating_sub(self.hot_max);
        let from_hot = spill.min(self.hot.len());
        let (spilled, kept) = frames.split_at(spill - from_hot);
        // One push per frame, so the cold stack's buffer grows through the
        // same sizes as under `free`, and with it the process's memory.
        for f in self.hot.drain(..from_hot).chain(spilled.iter().copied()) {
            self.cold.push(f);
        }
        self.hot.extend(kept);
    }

    /// Number of frames currently available without OOM.
    pub(crate) fn available(&self) -> usize {
        self.hot.len() + self.cold.len() + (self.total_frames - self.watermark)
    }

    /// Frames sitting on a free list (excludes never-used frames).
    pub(crate) fn listed(&self) -> usize {
        self.hot.len() + self.cold.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_from_empty_lists_uses_watermark_in_order() {
        let mut fl = FreeLists::new(4, 2);
        assert_eq!(fl.alloc(), Some(FrameId(0)));
        assert_eq!(fl.alloc(), Some(FrameId(1)));
        assert_eq!(fl.available(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fl = FreeLists::new(2, 2);
        assert!(fl.alloc().is_some());
        assert!(fl.alloc().is_some());
        assert_eq!(fl.alloc(), None);
        assert_eq!(fl.available(), 0);
    }

    #[test]
    fn freed_frame_is_reused_lifo() {
        let mut fl = FreeLists::new(8, 4);
        let a = fl.alloc().unwrap();
        let b = fl.alloc().unwrap();
        fl.free(a);
        fl.free(b);
        // Most recently freed first — the hot-list behaviour the ext2 attack
        // exploits.
        assert_eq!(fl.alloc(), Some(b));
        assert_eq!(fl.alloc(), Some(a));
    }

    #[test]
    fn reuse_order_is_most_recently_freed_first_across_spill() {
        let mut fl = FreeLists::new(16, 2);
        let frames: Vec<FrameId> = (0..4).map(|_| fl.alloc().unwrap()).collect();
        for &f in &frames {
            fl.free(f);
        }
        // hot holds the last 2 freed (frames[2], frames[3]); the earlier
        // frees spilled to the cold stack with the most recent spill on top.
        assert_eq!(fl.alloc(), Some(frames[3]));
        assert_eq!(fl.alloc(), Some(frames[2]));
        assert_eq!(fl.alloc(), Some(frames[1]));
        assert_eq!(fl.alloc(), Some(frames[0]));
    }

    /// [`FreeLists::free_all`] against one `free` per frame, from hot
    /// lists that start empty, partly full and full, with batches shorter
    /// and longer than `hot_max`: the same lists, so the same allocations.
    #[test]
    fn batch_free_equals_one_free_per_frame() {
        let hot_max = 4;
        for already_hot in [0, 2, hot_max] {
            for batch in [0, 1, 3, hot_max, hot_max + 1, 11] {
                let mut seq = FreeLists::new(64, hot_max);
                let frames: Vec<FrameId> = (0..hot_max + 3 + batch)
                    .map(|_| seq.alloc().unwrap())
                    .collect();
                // A full hot list over three cold frames, then taken down
                // to `already_hot` frames.
                let (listed, returned) = frames.split_at(hot_max + 3);
                for &f in listed {
                    seq.free(f);
                }
                for _ in already_hot..hot_max {
                    seq.alloc();
                }
                let mut batched = seq.clone();
                for &f in returned {
                    seq.free(f);
                }
                batched.free_all(returned);
                let what = format!("{already_hot} hot, batch of {batch}");
                assert_eq!(batched.hot, seq.hot, "{what}: hot list");
                assert_eq!(batched.cold, seq.cold, "{what}: cold stack");
                let drain = |fl: &mut FreeLists| {
                    (0..fl.available()).map(|_| fl.alloc()).collect::<Vec<_>>()
                };
                assert_eq!(
                    drain(&mut batched),
                    drain(&mut seq),
                    "{what}: allocation order"
                );
            }
        }
    }

    #[test]
    fn listed_counts_only_freed_frames() {
        let mut fl = FreeLists::new(8, 4);
        assert_eq!(fl.listed(), 0);
        let a = fl.alloc().unwrap();
        fl.free(a);
        assert_eq!(fl.listed(), 1);
    }
}
