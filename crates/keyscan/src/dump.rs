//! The one page source of dump scans and of the cold-boot harvest.

use memsim::{FrameId, Snapshot, PAGE_SIZE};

/// A dump that [`Scanner`](crate::Scanner)'s dump scans and
/// [`reconstruct`](crate::reconstruct::reconstruct) read: its bytes, and
/// whether a page of them may hold a non-zero byte. A page that may not is
/// left out of the scans and the harvest, apart from the zeros a match or
/// window carries into it.
///
/// Plain bytes (a slice, an array or a `Vec`) test each page, which on a
/// fresh dump faults the page in. A [`Snapshot`] answers from its
/// known-zero frame bits and touches none of the pages they mark. The
/// dump calls take a generic parameter, not `&[u8]`, so a `Snapshot`
/// cannot deref-coerce onto the page test; the trait sits in a private
/// module, so no other crate implements it.
pub trait Dump {
    /// The dump's bytes.
    fn bytes(&self) -> &[u8];

    /// Whether page `p` (the last one may be short) may hold a non-zero
    /// byte. A page this says `false` for must read all zero.
    fn page_live(&self, p: usize) -> bool {
        let bytes = self.bytes();
        page_is_nonzero(&bytes[p * PAGE_SIZE..bytes.len().min((p + 1) * PAGE_SIZE)])
    }
}

impl Dump for [u8] {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl<const N: usize> Dump for [u8; N] {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Dump for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

impl Dump for Snapshot {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn page_live(&self, p: usize) -> bool {
        !self.frame_known_zero(FrameId(p))
    }
}

/// Whether `page` holds a non-zero byte, tested 64 bytes at a time up to
/// the first block that does.
fn page_is_nonzero(page: &[u8]) -> bool {
    let (blocks, tail) = page.as_chunks::<64>();
    blocks
        .iter()
        .any(|b| b.iter().fold(0, |acc, &x| acc | x) != 0)
        || tail.iter().any(|&x| x != 0)
}
