//! Simulated network servers whose key-handling behaviour reproduces the
//! memory traces of Section 3 of the paper.
//!
//! Two servers are modeled on top of [`memsim`]:
//!
//! * [`SshServer`] — OpenSSH 4.3p2-style: the listener loads the host key at
//!   startup and, for every incoming connection, forks a child that (without
//!   the `-r` option) *re-loads the private key file* and performs the RSA
//!   handshake before exiting. This per-connection reload is what floods
//!   memory with key copies as connection counts grow.
//! * [`ApacheServer`] — Apache 2.0 prefork + mod_ssl: the parent loads the
//!   key once, then forks a pool of worker processes that scales with load.
//!   Each worker's first private-key operation dirties the heap page holding
//!   the key BIGNUMs (breaking copy-on-write and duplicating d, P, Q) and —
//!   with `RSA_FLAG_CACHE_PRIVATE` set — caches Montgomery contexts holding
//!   fresh copies of P and Q. Reaped idle workers dump all of it into
//!   unallocated memory.
//!
//! Every protection level of [`keyguard::ProtectionLevel`] can be applied,
//! changing exactly what the paper's patches changed: key consolidation +
//! mlock + no Montgomery caching (application/library), kernel zeroing
//! (kernel), and `O_NOCACHE` for the PEM file (integrated).
//!
//! # Examples
//!
//! ```
//! use keyguard::ProtectionLevel;
//! use memsim::{Kernel, MachineConfig};
//! use servers::{ServerConfig, SecureServer, SshServer};
//!
//! let mut kernel = Kernel::new(MachineConfig::small());
//! let cfg = ServerConfig::new(ProtectionLevel::None).with_key_bits(128);
//! let mut ssh = SshServer::start(&mut kernel, cfg)?;
//! ssh.set_concurrency(&mut kernel, 4)?;
//! ssh.pump(&mut kernel, 8)?; // eight completed transfers
//! ssh.stop(&mut kernel)?;
//! # Ok::<(), memsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apache;
mod daemon;
mod engine;
mod ssh;

pub use apache::ApacheServer;
pub use engine::{Protocol, ScatteredKey, WorkerCrypto};
pub use ssh::SshServer;

use keyguard::ProtectionLevel;
use memsim::{Kernel, SimResult};
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;

/// Counters for work a server shed on its error paths instead of letting a
/// [`memsim::SimError`] escape `pump`/`set_concurrency`.
///
/// A production daemon that cannot fork a child logs the failure, drops that
/// connection, and keeps serving; these counters make the simulated servers'
/// equivalent behaviour observable (they are surfaced in timeline output and
/// checked by the `faultsweep` harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SheddingStats {
    /// Connections (SSH) or workers (Apache) never opened because `fork` or
    /// per-connection setup failed.
    pub failed_forks: u64,
    /// Live connections/workers dropped after a fault hit them mid-operation
    /// (their process is terminated and removed from the pool).
    pub shed_connections: u64,
    /// Handshakes abandoned because of a fault.
    pub shed_handshakes: u64,
    /// Bounded-backoff re-dial attempts made for previously shed
    /// connections (each attempt counts, successful or not).
    pub retries: u64,
    /// Shed connections brought back by a successful retry.
    pub recovered: u64,
}

impl SheddingStats {
    /// Total shed events of any kind (retry bookkeeping is separate: a
    /// retry is recovery work, not a shed event).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.failed_forks + self.shed_connections + self.shed_handshakes
    }
}

/// Most shed connections a server remembers for re-dialing. Sheds beyond
/// the cap are permanently dropped (the client gave up), which keeps the
/// retry loop bounded under sustained fault pressure.
pub const RETRY_BACKLOG_CAP: u64 = 16;

/// Ceiling for the deterministic exponential backoff between re-dial
/// attempts, measured in `pump` calls (1, 2, 4, 8, 8, ...).
pub const RETRY_BACKOFF_MAX: u64 = 8;

/// Configuration shared by both servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Countermeasure level to deploy.
    pub level: ProtectionLevel,
    /// RSA modulus size in bits (the paper uses 1024).
    pub key_bits: usize,
    /// Seed for key generation and handshake randomness.
    pub seed: u64,
}

impl ServerConfig {
    /// A configuration at the given protection level with paper-style
    /// defaults (1024-bit key).
    #[must_use]
    pub fn new(level: ProtectionLevel) -> Self {
        Self {
            level,
            key_bits: 1024,
            seed: 0xD51_2007,
        }
    }

    /// Overrides the key size (small keys make tests fast).
    #[must_use]
    pub fn with_key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Overrides the randomness seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derives the private key a server with this configuration will use.
    ///
    /// Key generation is deterministic in the configuration, so experiment
    /// harnesses can build scanners for a server's key *before* the server
    /// is started (e.g. to scan the machine at timeline ticks preceding
    /// server startup).
    #[must_use]
    pub fn derive_key(&self, server_name: &str) -> RsaPrivateKey {
        self.derive_rotated_key(server_name, 0)
    }

    /// Derives the key a server with this configuration uses at rotation
    /// ordinal `ordinal` (0 = the boot key, 1 = the first successor, ...).
    ///
    /// Like [`Self::derive_key`], this is a pure function of the
    /// configuration, so sweep harnesses and scanners know every epoch's
    /// key before the server rotates to it.
    #[must_use]
    pub fn derive_rotated_key(&self, server_name: &str, ordinal: u64) -> RsaPrivateKey {
        RsaPrivateKey::generate(self.key_bits, &mut self.key_rng(server_name, ordinal))
    }

    /// The generator [`Self::derive_rotated_key`] draws epoch `ordinal`'s
    /// key from. A starting server keeps drawing its handshake randomness
    /// from the boot key's generator once the key is generated.
    pub(crate) fn key_rng(&self, server_name: &str, ordinal: u64) -> simrng::Rng64 {
        let salt = match server_name {
            "apache" => 0xA9AC_4E00,
            _ => 0,
        };
        // Ordinal 0 must reproduce the historical derive_key stream.
        let rotation = if ordinal == 0 {
            0
        } else {
            (0x07A7_E000 + ordinal).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        simrng::Rng64::new(self.seed ^ salt ^ rotation)
    }
}

/// Common interface of the simulated servers, used by the experiment
/// harness to sweep both.
pub trait SecureServer: Sized {
    /// Boots the server on the simulated machine: creates the PEM key file,
    /// spawns the daemon process, and loads the key according to the
    /// configured protection level.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (out of memory, etc.).
    fn start(kernel: &mut Kernel, config: ServerConfig) -> SimResult<Self>;

    /// Adjusts the number of concurrently open connections. For SSH this
    /// forks/reaps per-connection children; for Apache it grows/shrinks the
    /// worker pool.
    ///
    /// A failure to open one connection (fork refused, allocation failure in
    /// per-connection setup) is **shed** — counted in [`Self::shedding`] and
    /// skipped — so a fork-exhausted server converges below the requested
    /// concurrency instead of erroring out, and recovers on a later call
    /// once resources free up.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable simulator errors (teardown failures).
    fn set_concurrency(&mut self, kernel: &mut Kernel, n: usize) -> SimResult<()>;

    /// Completes `requests` transfer cycles at the current concurrency —
    /// each one a full RSA handshake plus data movement. For SSH a completed
    /// transfer closes its connection and a fresh one replaces it (scp
    /// churn); for Apache a worker serves the request and stays alive.
    ///
    /// A fault during one request — fork refused, a worker killed or failing
    /// mid-handshake — **sheds that connection/worker** (terminating its
    /// process, counting the event in [`Self::shedding`]) and keeps serving
    /// the remaining requests; per-connection faults never escape `pump`.
    ///
    /// # Errors
    ///
    /// Propagates non-recoverable simulator errors.
    fn pump(&mut self, kernel: &mut Kernel, requests: usize) -> SimResult<()>;

    /// Moves `bytes` of payload through one live connection's channel
    /// buffer — the data-plane half of an scp or HTTPS transfer, used by the
    /// performance benchmarks. Opens a transient connection when none is
    /// live.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    fn transfer(&mut self, kernel: &mut Kernel, bytes: usize) -> SimResult<()>;

    /// Stops the server, terminating every process it owns.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    fn stop(&mut self, kernel: &mut Kernel) -> SimResult<()>;

    /// The configuration the server was started with.
    fn config(&self) -> ServerConfig;

    /// Restarts the server: by default a full stop + start
    /// (`/etc/init.d/<svc> restart`); Apache overrides this with its
    /// pool-preserving graceful reload.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    fn restart(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        self.stop(kernel)?;
        *self = Self::start(kernel, self.config())?;
        Ok(())
    }

    /// Rotates the server to its next key epoch with no dropped traffic:
    /// the crash-consistent `Generate → Install → Activate → Drain →
    /// Retire` lifecycle of [`keyguard::KeyRotation`]. On return the new
    /// key serves all fresh handshakes; connections opened before the call
    /// drain on engines that own the old key, and the old key's custody is
    /// zeroized ([`keyguard::RotationPhase::Retire`]) as soon as the last
    /// of them closes (immediately, on an idle server).
    ///
    /// **Crash-consistent**: a fault injected at any operation index leaves
    /// the server in exactly one of {old key fully live, new key fully
    /// live} — an install-phase failure unwinds the successor completely
    /// and returns the error with the old key untouched.
    ///
    /// Returns the new key epoch ordinal (1 for the first rotation).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; on error the old key is still live.
    fn rotate_key(&mut self, kernel: &mut Kernel) -> SimResult<u64>;

    /// The current key epoch ordinal (0 until the first rotation).
    fn key_epoch(&self) -> u64 {
        0
    }

    /// Whether a previous key epoch is still draining (both keys resident).
    fn draining(&self) -> bool {
        false
    }

    /// The server's private key.
    fn key(&self) -> &RsaPrivateKey;

    /// The searchable key material derived from the key.
    fn material(&self) -> &KeyMaterial;

    /// Current number of open connections (SSH) or busy-capable workers
    /// (Apache).
    fn concurrency(&self) -> usize;

    /// Whether the server is running.
    fn is_running(&self) -> bool;

    /// Human-readable name (`"openssh"` / `"apache"`).
    fn name(&self) -> &'static str;

    /// Total handshakes performed since start.
    fn handshakes(&self) -> u64;

    /// Work shed on error paths since start (failed forks, dropped
    /// connections, abandoned handshakes). `pump` and `set_concurrency`
    /// absorb per-connection faults by shedding the affected connection and
    /// continuing; these counters are how that absorption stays observable.
    fn shedding(&self) -> SheddingStats {
        SheddingStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = ServerConfig::new(ProtectionLevel::Kernel)
            .with_key_bits(256)
            .with_seed(42);
        assert_eq!(c.level, ProtectionLevel::Kernel);
        assert_eq!(c.key_bits, 256);
        assert_eq!(c.seed, 42);
        assert_eq!(ServerConfig::new(ProtectionLevel::None).key_bits, 1024);
    }
}
