//! Host-side secret hygiene: the paper's "clear sensitive data promptly"
//! advice applied to real Rust buffers, outside the simulation.
//!
//! Guarantee level: this crate forbids `unsafe`, so wiping is implemented
//! with ordinary writes followed by [`core::hint::black_box`], which prevents
//! the compiler from proving the buffer dead and eliding the zeroing. This
//! is the same best-effort tier as C's `memset_s`-via-barrier idioms; for a
//! hard guarantee on bare metal use a crate with volatile writes (e.g.
//! `zeroize`). The substitution is documented in DESIGN.md.

use core::fmt;

/// Overwrites a slice with zeros in a way the optimizer must not elide:
/// the workspace's one wipe routine, [`bignum::secure_zero`].
///
/// # Examples
///
/// ```
/// let mut secret = *b"p@ssw0rd";
/// keyguard::host::secure_zero(&mut secret);
/// assert_eq!(secret, [0u8; 8]);
/// ```
pub use bignum::secure_zero;

/// A heap buffer that zeroes itself on drop.
///
/// Use it for key material, passphrases, and decrypted payloads so that heap
/// reuse (the `malloc_recycles_dirty_chunks` hazard) and process teardown do
/// not leak them — invariant (ii) of the paper applied at application level.
///
/// `Debug` and `Display` never reveal contents.
///
/// # Examples
///
/// ```
/// use keyguard::host::SecretBuf;
///
/// let secret = SecretBuf::from_vec(b"session key".to_vec());
/// assert_eq!(secret.expose().len(), 11);
/// assert_eq!(format!("{secret:?}"), "SecretBuf(11 bytes, <redacted>)");
/// drop(secret); // contents are zeroed before the allocation is released
/// ```
#[derive(Default)]
pub struct SecretBuf {
    data: Vec<u8>,
}

impl SecretBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zero-filled buffer of `len` bytes.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        Self {
            data: vec![0u8; len],
        }
    }

    /// Takes ownership of existing bytes. The original vector is consumed,
    /// not copied, so no stray duplicate is created.
    #[must_use]
    pub fn from_vec(data: Vec<u8>) -> Self {
        Self { data }
    }

    /// Copies from a slice (the caller should wipe the source if it is
    /// sensitive).
    #[must_use]
    pub fn from_slice(data: &[u8]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read access to the secret bytes.
    #[must_use]
    pub fn expose(&self) -> &[u8] {
        &self.data
    }

    /// Write access to the secret bytes.
    #[must_use]
    pub fn expose_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Duplicates the buffer. `SecretBuf` deliberately does not implement
    /// `Clone`; this explicit method keeps every copy of the contents
    /// greppable and auditable.
    #[must_use]
    pub fn clone_secret(&self) -> Self {
        Self {
            data: self.data.clone(),
        }
    }

    /// Explicitly wipes the contents now (the buffer stays usable, zeroed).
    pub fn wipe(&mut self) {
        secure_zero(&mut self.data);
    }
}

impl Drop for SecretBuf {
    fn drop(&mut self) {
        secure_zero(&mut self.data);
    }
}

impl fmt::Debug for SecretBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let len = self.data.len();
        write!(f, "SecretBuf({len} bytes, <redacted>)")
    }
}

impl PartialEq for SecretBuf {
    /// Byte-wise comparison without early exit (constant-time with respect
    /// to content for equal-length inputs).
    fn eq(&self, other: &Self) -> bool {
        if self.data.len() != other.data.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl Eq for SecretBuf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_zero_clears() {
        let mut data = [0xffu8; 32];
        secure_zero(&mut data);
        assert_eq!(data, [0u8; 32]);
        let mut empty: [u8; 0] = [];
        secure_zero(&mut empty); // no panic on empty
    }

    #[test]
    fn secret_buf_round_trip() {
        let mut s = SecretBuf::from_slice(b"key material");
        assert_eq!(s.expose(), b"key material");
        assert_eq!(s.len(), 12);
        assert!(!s.is_empty());
        s.expose_mut()[0] = b'K';
        assert_eq!(s.expose(), b"Key material");
    }

    #[test]
    fn wipe_zeroes_in_place() {
        let mut s = SecretBuf::from_slice(b"secret");
        s.wipe();
        assert_eq!(s.expose(), &[0u8; 6]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn zeroed_constructor() {
        let s = SecretBuf::zeroed(16);
        assert_eq!(s.expose(), &[0u8; 16]);
        assert!(SecretBuf::new().is_empty());
    }

    #[test]
    fn debug_redacts() {
        let s = SecretBuf::from_slice(b"hunter2");
        let rendered = format!("{s:?}");
        assert!(!rendered.contains("hunter2"));
        assert!(rendered.contains("7 bytes"));
    }

    #[test]
    fn equality_semantics() {
        let a = SecretBuf::from_slice(b"same");
        let b = SecretBuf::from_slice(b"same");
        let c = SecretBuf::from_slice(b"diff");
        let d = SecretBuf::from_slice(b"longer!");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn clone_is_independent() {
        let a = SecretBuf::from_slice(b"orig");
        let mut b = a.clone_secret();
        b.wipe();
        assert_eq!(a.expose(), b"orig");
        assert_eq!(b.expose(), &[0u8; 4]);
    }
}
