//! Cold-boot captures of physical memory.

use crate::phys::FrameBits;
use crate::FrameId;
use core::fmt;
use core::ops::Deref;

/// A cold-boot image of physical memory, taken by
/// [`Kernel::snapshot_decayed`](crate::Kernel::snapshot_decayed): the image
/// bytes, which it derefs to, plus its own copy of the machine's known-zero
/// frame bits at capture time.
///
/// A frame marked known-zero reads all zero in the image: the capture
/// writes only frames whose bit is clear, and decay only clears bits. The
/// bits are the snapshot's own, so later writes and clears on the machine
/// leave them as they were.
pub struct Snapshot {
    image: Vec<u8>,
    known_zero: FrameBits,
}

impl Snapshot {
    pub(crate) fn new(image: Vec<u8>, known_zero: FrameBits) -> Self {
        Self { image, known_zero }
    }

    /// Whether frame `f` of the image is known to hold only zero bytes:
    /// the machine knew it to be zero when the snapshot was taken. The bit
    /// is conservative, like [`Kernel::frame_known_zero`]: a frame without
    /// it may read all zero too, for instance after decay.
    ///
    /// [`Kernel::frame_known_zero`]: crate::Kernel::frame_known_zero
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[must_use]
    pub fn frame_known_zero(&self, f: FrameId) -> bool {
        self.known_zero.get(f.0)
    }
}

impl Deref for Snapshot {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.image
    }
}

/// The image may hold key bytes, so `{:?}` stops at its size.
impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Snapshot({} bytes, <redacted>)", self.image.len())
    }
}
