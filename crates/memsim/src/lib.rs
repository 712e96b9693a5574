//! A user-space simulation of the memory subsystem of a 2.6-era Linux kernel,
//! built to reproduce the experiments in Harrison & Xu, *Protecting
//! Cryptographic Keys from Memory Disclosure Attacks* (DSN 2007).
//!
//! The simulated machine provides exactly the mechanisms the paper's attacks
//! and countermeasures live on:
//!
//! * a flat physical memory of page frames with per-frame metadata
//!   (allocation state, reference count, mlock, reverse mappings);
//! * a page allocator with **hot/cold free lists** — freed pages are recycled
//!   most-recently-freed first, which is why the ext2 dirent leak observes
//!   freshly freed data;
//! * processes with copy-on-write `fork`, a `malloc`-style user heap whose
//!   freed chunks keep their contents, page-aligned "special regions"
//!   (`posix_memalign` + `mlock`), and page-granular unmapping;
//! * a page cache fed by a tiny VFS, including the paper's `O_NOCACHE` flag
//!   that evicts and clears a file's pages right after they are read;
//! * a slot-based swap device with real eviction: under pressure, unlocked
//!   anonymous pages move out of their frames (PTE → swapped, frame freed)
//!   and fault back in on the next access, optionally through Provos-style
//!   swap encryption;
//! * the paper's two kernel patches as switchable policies:
//!   [`KernelPolicy::zero_on_free`] (the `free_hot_cold_page` /
//!   `__free_pages_ok` patch) and [`KernelPolicy::zero_on_unmap`] (the
//!   `zap_pte_range` patch).
//!
//! Everything a process writes lands in one `Vec<u8>` of simulated physical
//! memory, so the `keyscan` crate can scan it exactly like the paper's
//! `scanmemory` kernel module scanned real RAM.
//!
//! # Examples
//!
//! ```
//! use memsim::{Kernel, MachineConfig};
//!
//! let mut k = Kernel::new(MachineConfig::small());
//! let pid = k.spawn();
//! let buf = k.heap_alloc(pid, 64)?;
//! k.write_bytes(pid, buf, b"secret key material")?;
//! let child = k.fork(pid)?;
//! // The child shares the page copy-on-write until somebody writes.
//! assert_eq!(k.read_bytes(child, buf, 6)?, b"secret");
//! # Ok::<(), memsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod fault;
mod heap;
mod kernel;
mod phys;
mod process;
mod slab;
mod snapshot;
mod vfs;

pub use fault::{FaultDecision, FaultOp, FaultPlan};
pub use kernel::{FrameView, Kernel, KernelStats};
pub use process::Pid;
pub use slab::{KObj, SLAB_CLASSES};
pub use snapshot::Snapshot;
pub use vfs::FileId;

use core::fmt;

/// Size of one simulated page in bytes, matching i386 Linux.
pub const PAGE_SIZE: usize = 4096;

/// Index of a physical page frame.
///
/// Frame `i` covers simulated physical bytes `[i * PAGE_SIZE, (i+1) * PAGE_SIZE)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub usize);

impl FrameId {
    /// First physical byte offset covered by this frame.
    #[must_use]
    pub fn base(self) -> usize {
        self.0 * PAGE_SIZE
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// A virtual address inside one simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Virtual page number containing this address.
    #[must_use]
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Byte offset within the page.
    #[must_use]
    pub fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Address advanced by `n` bytes.
    ///
    /// Named like `Add`, intentionally: pointer arithmetic on a newtype.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, n: u64) -> Self {
        Self(self.0 + n)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08x}", self.0)
    }
}

/// What a physical frame is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// On a free list (or never yet allocated). Its bytes are whatever the
    /// previous owner left behind, unless a zeroing policy cleared them.
    Free,
    /// Mapped into one or more process address spaces as anonymous memory.
    Anon,
    /// Owned by the kernel (e.g. an ext2 directory block buffer).
    Kernel,
    /// Holding a cached page of a file.
    PageCache,
}

/// The paper's kernel patches, as independently switchable policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelPolicy {
    /// Clear pages in the page-free path (`free_hot_cold_page` /
    /// `__free_pages_ok` patch). Guarantees unallocated memory never holds
    /// stale data, whatever kind of page is being freed.
    pub zero_on_free: bool,
    /// Clear pages at unmap time when the unmapping process holds the last
    /// reference (`zap_pte_range` patch). Covers anonymous process pages but
    /// not kernel or page-cache pages.
    pub zero_on_unmap: bool,
}

impl KernelPolicy {
    /// Both patches off — the stock vulnerable kernel.
    #[must_use]
    pub fn stock() -> Self {
        Self::default()
    }

    /// Both patches on — the paper's kernel-level solution.
    #[must_use]
    pub fn hardened() -> Self {
        Self {
            zero_on_free: true,
            zero_on_unmap: true,
        }
    }
}

/// Configuration of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Physical memory size in bytes (rounded down to whole pages).
    pub mem_bytes: usize,
    /// Kernel zeroing policy.
    pub policy: KernelPolicy,
    /// Maximum length of the hot (most-recently-freed) list before frames
    /// spill to the cold list.
    pub hot_list_max: usize,
    /// When `true`, the user heap returns fully-free trailing pages to the
    /// kernel (glibc-style trim), which is how key-bearing pages reach the
    /// free lists *while a worker process keeps running*.
    pub heap_trim: bool,
    /// Chow et al.'s "secure deallocation" (USENIX Security 2005) as a
    /// library baseline: every `free()` clears the chunk's bytes. The paper
    /// argues its own solutions are strictly stronger — this switch lets the
    /// comparison experiments demonstrate why.
    pub secure_dealloc: bool,
    /// Provos-style swap encryption (USENIX Security 2000): pages written to
    /// the swap device are encrypted, so a stolen swap partition reveals
    /// nothing.
    pub swap_crypto: bool,
    /// `RLIMIT_MEMLOCK`-style cap on the bytes one process may `mlock`
    /// (`None` = unlimited, the pre-2.6.9 root default). Real deployments
    /// routinely run with a small limit — 32 KB was the longtime Linux
    /// default — which is exactly the condition under which the paper's
    /// `mlock`-based countermeasure degrades.
    pub memlock_limit: Option<usize>,
}

impl MachineConfig {
    /// The paper's testbed: 256 MB of RAM, stock policy.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            mem_bytes: 256 * 1024 * 1024,
            policy: KernelPolicy::stock(),
            hot_list_max: 64,
            heap_trim: true,
            secure_dealloc: false,
            swap_crypto: false,
            memlock_limit: None,
        }
    }

    /// A small 4 MB machine for fast unit tests.
    #[must_use]
    pub fn small() -> Self {
        Self {
            mem_bytes: 4 * 1024 * 1024,
            policy: KernelPolicy::stock(),
            hot_list_max: 16,
            heap_trim: true,
            secure_dealloc: false,
            swap_crypto: false,
            memlock_limit: None,
        }
    }

    /// Same machine with a different policy.
    #[must_use]
    pub fn with_policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables Chow-style secure deallocation (clear on `free()`).
    #[must_use]
    pub fn with_secure_dealloc(mut self, on: bool) -> Self {
        self.secure_dealloc = on;
        self
    }

    /// Enables Provos-style swap encryption.
    #[must_use]
    pub fn with_swap_crypto(mut self, on: bool) -> Self {
        self.swap_crypto = on;
        self
    }

    /// Same machine with a different memory size.
    #[must_use]
    pub fn with_mem_bytes(mut self, mem_bytes: usize) -> Self {
        self.mem_bytes = mem_bytes;
        self
    }

    /// Caps the bytes one process may `mlock` (`None` = unlimited).
    #[must_use]
    pub fn with_memlock_limit(mut self, limit: Option<usize>) -> Self {
        self.memlock_limit = limit;
        self
    }

    /// Number of page frames this configuration yields.
    #[must_use]
    pub fn num_frames(&self) -> usize {
        self.mem_bytes / PAGE_SIZE
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Errors surfaced by the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// No free physical frames remain.
    OutOfMemory,
    /// The referenced process does not exist or has exited.
    NoSuchProcess(Pid),
    /// The referenced file does not exist.
    NoSuchFile(FileId),
    /// An address was not mapped, or a heap pointer did not reference a live
    /// allocation.
    BadAddress(VAddr),
    /// A heap free targeted an address that is not an allocated chunk start.
    BadFree(VAddr),
    /// A write hit a page protected with [`Kernel::mprotect_readonly`].
    ReadOnly(VAddr),
    /// An `mlock` call was refused — the process hit the
    /// [`MachineConfig::memlock_limit`] cap, or an installed [`FaultPlan`]
    /// forced the refusal (`EPERM`/`ENOMEM` from real `mlock`).
    MlockDenied,
    /// The page holding this address is valid but currently evicted to swap.
    /// Mutable accessors ([`Kernel::write_bytes`], [`Kernel::touch_pages`])
    /// fault such pages back in transparently; this error surfaces only from
    /// shared-reference reads, which cannot run the fault-in path.
    SwappedOut(VAddr),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfMemory => write!(f, "out of simulated physical memory"),
            Self::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            Self::NoSuchFile(id) => write!(f, "no such file: {id}"),
            Self::BadAddress(a) => write!(f, "unmapped or invalid address: {a}"),
            Self::BadFree(a) => write!(f, "free of non-allocated chunk at {a}"),
            Self::ReadOnly(a) => write!(f, "write to read-only page at {a}"),
            Self::MlockDenied => write!(f, "mlock refused: RLIMIT_MEMLOCK exceeded or fault injected"),
            Self::SwappedOut(a) => write!(f, "page at {a} is swapped out; fault it in first"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_id_base() {
        assert_eq!(FrameId(0).base(), 0);
        assert_eq!(FrameId(3).base(), 3 * PAGE_SIZE);
    }

    #[test]
    fn vaddr_decomposition() {
        let a = VAddr(0x1000_0123);
        assert_eq!(a.vpn(), 0x10000);
        assert_eq!(a.page_offset(), 0x123);
        assert_eq!(a.add(0x10).0, 0x1000_0133);
    }

    #[test]
    fn config_frame_count() {
        assert_eq!(MachineConfig::small().num_frames(), 1024);
        assert_eq!(MachineConfig::paper().num_frames(), 65536);
    }

    #[test]
    fn policy_constructors() {
        assert!(!KernelPolicy::stock().zero_on_free);
        assert!(KernelPolicy::hardened().zero_on_free);
        assert!(KernelPolicy::hardened().zero_on_unmap);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: [SimError; 8] = [
            SimError::OutOfMemory,
            SimError::NoSuchProcess(Pid(3)),
            SimError::NoSuchFile(FileId(1)),
            SimError::BadAddress(VAddr(0x10)),
            SimError::BadFree(VAddr(0x20)),
            SimError::ReadOnly(VAddr(0x30)),
            SimError::MlockDenied,
            SimError::SwappedOut(VAddr(0x40)),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
