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
use simrng::Rng64;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

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
    /// server startup). This is [`Self::derive_rotated_key`] at ordinal 0,
    /// read through the same memo.
    #[must_use]
    pub fn derive_key(&self, server_name: &str) -> RsaPrivateKey {
        self.derive_rotated_key(server_name, 0)
    }

    /// Derives the key a server with this configuration uses at rotation
    /// ordinal `ordinal` (0 = the boot key, 1 = the first successor, ...).
    ///
    /// The key is a pure function of `key_bits`, `seed`, the server name
    /// and the ordinal, so sweep harnesses and scanners know every epoch's
    /// key before the server rotates to it.
    ///
    /// Being pure, a key is generated once and then read back: this call,
    /// [`Self::derive_key`], and every server start and rotation go through
    /// one process-wide memo keyed on the key size and the seed of the key's
    /// generator. It keeps the last 32 keys derived, three times the most
    /// any sweep re-derives (a rotating timeline batch's ten). The memo
    /// lives on the host and moves no simulated byte, so no result depends
    /// on whether a call hit it. A key leaves the memo only as a
    /// [`RsaPrivateKey::clone_secret`] copy, and an evicted key is zeroized
    /// by its `Drop`.
    #[must_use]
    pub fn derive_rotated_key(&self, server_name: &str, ordinal: u64) -> RsaPrivateKey {
        self.derive_with_rng(server_name, ordinal).0
    }

    /// Epoch `ordinal`'s key together with its generator in the state the
    /// key's draw left it: a starting server keeps drawing its handshake
    /// seeds and shield prekeys from the boot key's generator. Served from
    /// [`KEY_MEMO`], so a key is generated at most once while its draw
    /// stays among the last [`KEY_MEMO_CAP`].
    pub(crate) fn derive_with_rng(
        &self,
        server_name: &str,
        ordinal: u64,
    ) -> (RsaPrivateKey, Rng64) {
        let (bits, seed) = (self.key_bits, self.key_rng(server_name, ordinal));
        let memo = || KEY_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        let is_draw = |d: &KeyDraw| d.bits == bits && d.seed == seed;
        if let Some(d) = memo().iter().find(|d| is_draw(d)) {
            return (d.key.clone_secret(), d.after.clone());
        }
        // Generate outside the lock: a 1024-bit key takes 15–25 ms, and the
        // executor's other workers must not wait on it. Two workers that
        // miss the same draw both generate it, and the same key comes out
        // of both.
        let mut after = seed.clone();
        let key = RsaPrivateKey::generate(bits, &mut after);
        let mut draws = memo();
        if !draws.iter().any(is_draw) {
            if draws.len() == KEY_MEMO_CAP {
                draws.pop_front();
            }
            draws.push_back(KeyDraw {
                bits,
                seed,
                key: key.clone_secret(),
                after: after.clone(),
            });
        }
        (key, after)
    }

    /// The generator [`Self::derive_rotated_key`] draws epoch `ordinal`'s
    /// key from.
    pub(crate) fn key_rng(&self, server_name: &str, ordinal: u64) -> Rng64 {
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
        Rng64::new(self.seed ^ salt ^ rotation)
    }
}

/// Most keys the derivation memo keeps. The sweeps re-derive a handful of
/// keys in every cell: two in `faultsweep`, four in `rotsweep`, eight in
/// a `run_scenario --dir` batch, ten in a rotating timeline batch (two
/// servers × five epochs). 32 holds the largest of these three times over.
/// The tty sweeps' before/after pairs re-derive more keys (40 in
/// `all_experiments --test`, hundreds at paper scale), but each only once,
/// in cells that cost many key generations each; those keys cycle
/// through the memo instead of piling up as host-side copies.
const KEY_MEMO_CAP: usize = 32;

/// One memoized draw: `RsaPrivateKey::generate(bits, &mut rng)` on a
/// generator that started as `seed` produced `key` and left it at `after`.
struct KeyDraw {
    bits: usize,
    seed: Rng64,
    key: RsaPrivateKey,
    after: Rng64,
}

/// The derivation memo, oldest draw first. Host-side only.
static KEY_MEMO: Mutex<VecDeque<KeyDraw>> = Mutex::new(VecDeque::new());

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

    // The memo is shared by every test in this process, so the tests below
    // use seeds no other test derives and assert that each derivation
    // equals a fresh generation — never how many calls hit the memo.

    /// Asserts that `cfg`'s memoized derivation of `name`'s epoch `ordinal`
    /// equals `RsaPrivateKey::generate` on a fresh generator: the same key
    /// in DER, and a generator whose next 64 draws match the fresh one's.
    fn assert_fresh(cfg: &ServerConfig, name: &str, ordinal: u64, when: &str) {
        let (key, mut rng) = cfg.derive_with_rng(name, ordinal);
        let mut fresh_rng = cfg.key_rng(name, ordinal);
        let fresh = RsaPrivateKey::generate(cfg.key_bits, &mut fresh_rng);
        let at = format!("{} bits, {name}, ordinal {ordinal}, {when}", cfg.key_bits);
        assert!(key.to_der() == fresh.to_der(), "memoized key differs ({at})");
        for draw in 0..64 {
            assert!(
                rng.next_u64() == fresh_rng.next_u64(),
                "generator diverges at draw {draw} ({at})"
            );
        }
    }

    #[test]
    fn memo_equals_fresh_generation_on_miss_hit_and_after_eviction() {
        // One seed for every size and both names, derived size after size
        // while the others are still memoized: an entry keyed on too little
        // of the configuration would hand out a wrong key.
        let seed = 0x4D45_4D4F_0000;
        let cfgs = [128, 256, 512].map(|bits| {
            ServerConfig::new(ProtectionLevel::None)
                .with_key_bits(bits)
                .with_seed(seed)
        });
        for (half, name) in ["openssh", "apache"].into_iter().enumerate() {
            for when in ["miss", "hit"] {
                for ordinal in 0..=5 {
                    for cfg in &cfgs {
                        assert_fresh(cfg, name, ordinal, when);
                    }
                }
            }
            // Cap + 1 draws made nowhere else push all 18 out of the FIFO.
            let evictors = seed + 0x1_0000 * (1 + half as u64);
            for i in 0..=KEY_MEMO_CAP as u64 {
                let other = ServerConfig::new(ProtectionLevel::None)
                    .with_key_bits(128)
                    .with_seed(evictors + i);
                drop(other.derive_key("openssh"));
            }
            for ordinal in 0..=5 {
                for cfg in &cfgs {
                    assert_fresh(cfg, name, ordinal, "after eviction");
                }
            }
        }
    }

    #[test]
    fn concurrent_derivations_in_opposite_orders_equal_fresh_generation() {
        let cfg = ServerConfig::new(ProtectionLevel::None)
            .with_key_bits(256)
            .with_seed(0x4D45_4D4F_1000);
        let configs: Vec<(&str, u64)> = ["openssh", "apache"]
            .into_iter()
            .flat_map(|name| (0..=5).map(move |ordinal| (name, ordinal)))
            .collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for &(name, ordinal) in &configs {
                    assert_fresh(&cfg, name, ordinal, "ascending thread");
                }
            });
            s.spawn(|| {
                start.wait();
                for &(name, ordinal) in configs.iter().rev() {
                    assert_fresh(&cfg, name, ordinal, "descending thread");
                }
            });
        });
    }

    /// Starts `cfg` on two clones of one booted machine — the second start
    /// reads back the key the first put in the memo, unless a concurrent
    /// test evicted it — drives both the same way, and asserts the two
    /// machines end in the same state.
    fn assert_hit_start_matches<S: SecureServer>(cfg: ServerConfig) {
        let mut booted = Kernel::new(
            memsim::MachineConfig::small().with_policy(cfg.level.kernel_policy()),
        );
        booted.age_memory(&mut Rng64::new(cfg.seed), 1.0);
        let mut machines = [booted.clone(), booted];
        let mut ends = Vec::new();
        let mut name = "";
        for kernel in &mut machines {
            let mut server = S::start(kernel, cfg).expect("server starts");
            server.set_concurrency(kernel, 3).expect("connections open");
            server.pump(kernel, 6).expect("traffic");
            server.set_concurrency(kernel, 1).expect("connections close");
            ends.push((kernel.stats(), server.handshakes(), server.shedding()));
            name = server.name();
        }
        assert_eq!(ends[0], ends[1], "{name} at {}", cfg.level);
        assert!(
            machines[0].phys() == machines[1].phys(),
            "{name} at {}: physical memory differs",
            cfg.level
        );
    }

    #[test]
    fn a_start_that_hits_the_memo_leaves_the_machine_a_fresh_start_leaves() {
        // Shielded draws its prekeys from the generator the key's draw left,
        // None caches Montgomery contexts in every worker.
        for (i, level) in [ProtectionLevel::None, ProtectionLevel::Shielded]
            .into_iter()
            .enumerate()
        {
            let cfg = ServerConfig::new(level)
                .with_key_bits(256)
                .with_seed(0x4D45_4D4F_2000 + i as u64);
            assert_hit_start_matches::<SshServer>(cfg);
            assert_hit_start_matches::<ApacheServer>(cfg);
        }
    }
}
