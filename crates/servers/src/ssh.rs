//! The simulated OpenSSH server: fork-per-connection, with the unprotected
//! configuration re-loading the host key for every connection (the default
//! re-exec behaviour the paper's `-r` option disables).

use crate::daemon::{Daemon, Identity, Redial};
use crate::engine::{ScatteredKey, WorkerCrypto};
use crate::{SecureServer, ServerConfig, SheddingStats};
use memsim::{FileId, Kernel, Pid, SimResult};
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;

/// One live SSH connection: a forked child process with its own crypto
/// state and (when unprotected) its own reloaded key copies.
struct Connection {
    pid: Pid,
    crypto: WorkerCrypto,
    /// Key epoch the connection's handshake bound: a connection opened
    /// before a rotation drains on the old key.
    epoch: u64,
}

impl core::fmt::Debug for Connection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Connection(pid={:?}, epoch={}, key=<redacted>)",
            self.pid, self.epoch
        )
    }
}

/// Simulated OpenSSH 4.3p2.
///
/// See [`crate`] docs and [`SecureServer`] for the interface.
pub struct SshServer {
    /// The listener process and everything it does with the host key.
    daemon: Daemon,
    connections: Vec<Connection>,
    handshakes: u64,
    /// Shed connections and their bounded-backoff re-dial state.
    shed: Redial,
}

/// Pages of private data/bss/stack a re-exec'd sshd child owns. When such a
/// child exits it frees far more pages than the allocator's hot list holds,
/// so its key-bearing pages spill to the cold list and linger unreused —
/// exactly why the paper keeps finding key copies in unallocated memory
/// while traffic is running.
const EXEC_IMAGE_BYTES: usize = 24 * memsim::PAGE_SIZE;

/// Holds the host key and its search material; `{:?}` reports daemon state only.
impl core::fmt::Debug for SshServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SshServer(connections={}, handshakes={}, running={}, key=<redacted>)",
            self.connections.len(),
            self.handshakes,
            self.daemon.running()
        )
    }
}

impl SshServer {
    fn open_connection(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        let child = kernel.fork(self.daemon.pid())?;
        match self.setup_connection(kernel, child) {
            Ok(crypto) => {
                self.handshakes += 1;
                self.connections.push(Connection {
                    pid: child,
                    crypto,
                    epoch: self.daemon.epoch(),
                });
                Ok(())
            }
            Err(e) => {
                // The half-set-up child dies like a crashed sshd: a plain
                // exit, no cleanup of whatever it already wrote — the
                // error-path residue faultsweep scans for.
                if kernel.alive(child) {
                    let _ = kernel.exit(child);
                }
                Err(e)
            }
        }
    }

    fn setup_connection(&mut self, kernel: &mut Kernel, child: Pid) -> SimResult<WorkerCrypto> {
        let mut crypto = self.daemon.worker_crypto();
        if !self.daemon.config().level.align_key() {
            // Without -r the child re-executes sshd and must re-read the
            // host key file: a fresh PEM buffer and six fresh BIGNUMs, all
            // doomed to be freed dirty at connection close.
            let (pem, material) = (self.daemon.pem_file(), self.daemon.material());
            let _reload = ScatteredKey::load(kernel, child, pem, material, false, false)?;
            // The re-exec also gives the child a private process image.
            let _image = kernel.heap_alloc(child, EXEC_IMAGE_BYTES)?;
        }
        // Key-exchange handshake happens at connection setup; a shielded
        // daemon opens its key region only for the duration of the op.
        let epoch = self.daemon.epoch();
        self.daemon.with_open(kernel, epoch, |k, material| {
            crypto.handshake(k, child, None, material)
        })?;
        Ok(crypto)
    }

    /// Opens one connection, shedding (not propagating) any failure. A shed
    /// connection joins the bounded re-dial backlog.
    fn open_or_shed(&mut self, kernel: &mut Kernel) -> bool {
        let opened = self.open_connection(kernel).is_ok();
        if !opened {
            self.shed.fork_failed();
        }
        opened
    }

    /// Retires the drain window once no connection remains on an old epoch.
    fn maybe_retire(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        if self
            .connections
            .iter()
            .all(|c| c.epoch >= self.daemon.epoch())
        {
            self.daemon.retire(kernel)?;
        }
        Ok(())
    }

    /// Bounds the drain window before a back-to-back rotation: any session
    /// still on an old epoch is terminated (sshd's rekey-limit behaviour),
    /// counted as a shed connection, and the predecessor retires. Only a
    /// drain window leaves sessions on an old epoch, so outside one this
    /// is a no-op.
    fn force_drain(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        while let Some(pos) = self
            .connections
            .iter()
            .position(|c| c.epoch < self.daemon.epoch())
        {
            let was_alive = kernel.alive(self.connections[pos].pid);
            self.close_connection(kernel, pos)?;
            if was_alive {
                self.shed.stats.shed_connections += 1;
                self.shed.note();
            }
        }
        self.daemon.retire(kernel)
    }

    fn close_connection(&mut self, kernel: &mut Kernel, idx: usize) -> SimResult<()> {
        let conn = self.connections.swap_remove(idx);
        self.shed.exit(kernel, conn.pid)
    }

    /// The simulated key file on disk.
    #[must_use]
    pub fn pem_file(&self) -> FileId {
        self.daemon.pem_file()
    }
}

impl SecureServer for SshServer {
    fn start(kernel: &mut Kernel, config: ServerConfig) -> SimResult<Self> {
        Ok(Self {
            // The listener loads the host key once at startup.
            daemon: Daemon::start(kernel, config, Identity::OpenSsh)?,
            connections: Vec::new(),
            handshakes: 0,
            shed: Redial::new(),
        })
    }

    fn set_concurrency(&mut self, kernel: &mut Kernel, n: usize) -> SimResult<()> {
        while self.connections.len() > n {
            let last = self.connections.len() - 1;
            self.close_connection(kernel, last)?;
        }
        // Bounded: one attempt per missing slot. A failing attempt is shed
        // (the daemon keeps listening below target) instead of looping or
        // erroring; a later call retries once resources free up.
        let missing = n.saturating_sub(self.connections.len());
        for _ in 0..missing {
            self.open_or_shed(kernel);
        }
        self.maybe_retire(kernel)
    }

    fn pump(&mut self, kernel: &mut Kernel, requests: usize) -> SimResult<()> {
        if self.shed.due() {
            let recovered = self.open_connection(kernel).is_ok();
            self.shed.record(recovered);
        }
        for _ in 0..requests {
            if self.connections.is_empty() {
                // No standing concurrency: each transfer is its own
                // connect/transfer/disconnect cycle.
                if self.open_or_shed(kernel) {
                    self.close_connection(kernel, 0)?;
                }
                continue;
            }
            // scp churn: a replacement connection arrives, then the oldest
            // transfer finishes and its child exits — leaving the child's
            // pages dirty on the free lists until something reuses them.
            // Mid-drain the oldest is always a pre-rotation connection
            // (swap_remove reorders the list, so find one explicitly); this
            // is what lets a rotation drain to Retire under churn.
            if self.open_or_shed(kernel) {
                let victim = self
                    .connections
                    .iter()
                    .position(|c| c.epoch < self.daemon.epoch())
                    .unwrap_or(0);
                self.close_connection(kernel, victim)?;
            }
            if self.connections.is_empty() {
                continue;
            }
            // Established connections also push data. A connection opened
            // before a rotation drains on its own epoch's key material.
            let idx = self.daemon.rng.gen_index(self.connections.len());
            let conn = &mut self.connections[idx];
            let result = self.daemon.with_open(kernel, conn.epoch, |k, material| {
                conn.crypto.handshake(k, conn.pid, None, material)
            });
            match result {
                Ok(()) => self.handshakes += 1,
                Err(_) => {
                    // Shed the failing connection — like sshd reaping a
                    // crashed child — and keep serving the rest.
                    let pid = self.connections.swap_remove(idx).pid;
                    self.shed.handshake_failed(kernel, pid);
                }
            }
        }
        self.maybe_retire(kernel)
    }

    fn transfer(&mut self, kernel: &mut Kernel, bytes: usize) -> SimResult<()> {
        if self.connections.is_empty() {
            self.open_connection(kernel)?;
        }
        let idx = self.daemon.rng.gen_index(self.connections.len());
        let pid = self.connections[idx].pid;
        crate::engine::move_data(kernel, pid, bytes, self.daemon.rng.next_u64())
    }

    fn stop(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        if !self.daemon.running() {
            return Ok(());
        }
        self.set_concurrency(kernel, 0)?;
        self.daemon.stop(kernel)
    }

    fn config(&self) -> ServerConfig {
        self.daemon.config()
    }

    fn rotate_key(&mut self, kernel: &mut Kernel) -> SimResult<u64> {
        self.daemon.ensure_live(kernel)?;
        // Bound the drain window: a back-to-back rotation finishes the
        // previous epoch's drain before starting its own.
        self.force_drain(kernel)?;
        let ordinal = self.daemon.rotate(kernel)?;
        // An idle listener retires the predecessor immediately.
        self.maybe_retire(kernel)?;
        Ok(ordinal)
    }

    fn key_epoch(&self) -> u64 {
        self.daemon.epoch()
    }

    fn draining(&self) -> bool {
        self.daemon.draining()
    }

    fn key(&self) -> &RsaPrivateKey {
        self.daemon.key()
    }

    fn material(&self) -> &KeyMaterial {
        self.daemon.material()
    }

    fn concurrency(&self) -> usize {
        self.connections.len()
    }

    fn is_running(&self) -> bool {
        self.daemon.running()
    }

    fn name(&self) -> &'static str {
        Identity::OpenSsh.name()
    }

    fn handshakes(&self) -> u64 {
        self.handshakes
    }

    fn shedding(&self) -> SheddingStats {
        self.shed.stats
    }
}
