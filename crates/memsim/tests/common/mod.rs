//! Machine set-up shared by several test binaries.

use memsim::{Kernel, PAGE_SIZE};

/// Allocates `n` kernel pages whose only non-zero byte is the page's last
/// byte, then frees all but the first `keep` of them: frames that a zero
/// test stopping short of a page's end would take for zero. Under
/// `zero_on_free` the freed ones are cleared; otherwise they keep their
/// byte on the free lists.
pub fn plant_last_byte_frames(kernel: &mut Kernel, n: usize, keep: usize) {
    let frames = kernel
        .alloc_kernel_pages(n)
        .expect("room for the planted pages");
    let mut page = vec![0u8; PAGE_SIZE];
    for (i, &f) in frames.iter().enumerate() {
        page[PAGE_SIZE - 1] = 0x80 | i as u8;
        kernel.write_kernel_page(f, 0, &page);
    }
    kernel.free_kernel_pages(&frames[keep.min(n)..]);
}
