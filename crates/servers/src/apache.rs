//! The simulated Apache 2.0 prefork + mod_ssl server: a parent that loads
//! the key once and a worker pool that scales with load. Workers are
//! long-lived, so key copies accumulate in *allocated* memory (COW-broken
//! key pages + per-worker Montgomery caches); reaping idle workers dumps
//! those copies into unallocated memory.

use crate::daemon::{Daemon, Identity, Redial};
use crate::engine::WorkerCrypto;
use crate::{SecureServer, ServerConfig, SheddingStats};
use memsim::{FileId, Kernel, Pid, SimResult};
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;

/// Apache prefork defaults (httpd.conf `StartServers` / `MaxClients`).
const START_SERVERS: usize = 5;
const MAX_CLIENTS: usize = 150;

struct Worker {
    pid: Pid,
    crypto: WorkerCrypto,
    /// Key epoch the worker's crypto was cloned from; a pre-rotation worker
    /// drains gracefully (serve one more request, then exit).
    epoch: u64,
    /// Forked during a drain window, so its address space COW-shares the
    /// predecessor key's pages. Retire recycles tainted workers (reap +
    /// respawn) to close that hole — the parent's wipe only COW-breaks its
    /// own mapping.
    tainted: bool,
}

impl core::fmt::Debug for Worker {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Worker(pid={:?}, epoch={}, key=<redacted>)", self.pid, self.epoch)
    }
}

/// Simulated Apache HTTP Server 2.0.55 (prefork MPM, SSL enabled).
///
/// See [`crate`] docs and [`SecureServer`] for the interface.
pub struct ApacheServer {
    /// The parent process and everything it does with the server key.
    daemon: Daemon,
    workers: Vec<Worker>,
    next_worker: usize,
    handshakes: u64,
    /// Shed workers and their bounded-backoff re-spawn state.
    shed: Redial,
}

/// Holds the host key and its search material; `{:?}` reports pool state only.
impl core::fmt::Debug for ApacheServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ApacheServer(workers={}, handshakes={}, running={}, key=<redacted>)",
            self.workers.len(),
            self.handshakes,
            self.daemon.running()
        )
    }
}

impl ApacheServer {
    fn spawn_worker(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        if self.workers.len() >= MAX_CLIENTS {
            return Ok(());
        }
        let pid = kernel.fork(self.daemon.pid())?;
        let crypto = self.daemon.worker_crypto();
        self.workers.push(Worker {
            pid,
            crypto,
            epoch: self.daemon.epoch(),
            tainted: self.daemon.draining(),
        });
        Ok(())
    }

    /// Spawns one worker, shedding (not propagating) a fork failure. A shed
    /// worker joins the bounded re-spawn backlog.
    fn spawn_or_shed(&mut self, kernel: &mut Kernel) -> bool {
        let spawned = self.spawn_worker(kernel).is_ok();
        if !spawned {
            self.shed.fork_failed();
        }
        spawned
    }

    /// Retires the drain window once no worker remains on an old epoch.
    fn maybe_retire(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        if self.workers.iter().all(|w| w.epoch >= self.daemon.epoch()) {
            self.retire_old(kernel)?;
        }
        Ok(())
    }

    /// Retire phase ([`Daemon::retire`]), then the recycling of the workers
    /// forked during the drain window.
    fn retire_old(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        self.daemon.retire(kernel)?;
        // Recycle workers forked during the drain window: their address
        // spaces COW-share the predecessor's (now-wiped-in-the-parent) pages,
        // and only their exit releases the original frames. Replacements are
        // forked after the wipe, so they are clean — prefork recycles workers
        // routinely (MaxRequestsPerChild), and no request is in flight here.
        while let Some(pos) = self.workers.iter().position(|w| w.tainted) {
            let w = self.workers.swap_remove(pos);
            self.shed.exit(kernel, w.pid)?;
            self.spawn_or_shed(kernel);
        }
        Ok(())
    }

    /// Bounds the drain window before a back-to-back rotation or a graceful
    /// restart: any worker still on an old epoch is reaped and the
    /// predecessor retires. Only a drain window leaves workers on an old
    /// epoch (and tainted), so outside one this is a no-op.
    fn force_drain(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        while let Some(pos) = self
            .workers
            .iter()
            .position(|w| w.epoch < self.daemon.epoch())
        {
            let w = self.workers.swap_remove(pos);
            self.shed.exit(kernel, w.pid)?;
        }
        self.retire_old(kernel)
    }

    fn reap_worker(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        match self.workers.pop() {
            Some(w) => self.shed.exit(kernel, w.pid),
            None => Ok(()),
        }
    }

    /// The current worker pool size.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.workers.len()
    }

    /// The simulated key file on disk.
    #[must_use]
    pub fn pem_file(&self) -> FileId {
        self.daemon.pem_file()
    }

    /// `apachectl graceful`: reap every worker, re-read the key file in the
    /// parent, and respawn the pool. On an unprotected machine each restart
    /// dumps a worker-pool's worth of key copies into free memory and loads
    /// fresh ones; the aligned levels re-install the single locked page.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn graceful_restart(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        // A restart mid-drain first finishes the drain: the old epoch's
        // workers are being reaped below anyway, and its key must not
        // survive the reload.
        self.force_drain(kernel)?;
        let pool = self.workers.len().max(START_SERVERS);
        while !self.workers.is_empty() {
            self.reap_worker(kernel)?;
        }
        // Re-load the configuration, key file included.
        self.daemon.load(kernel)?;
        for _ in 0..pool {
            self.spawn_worker(kernel)?;
        }
        Ok(())
    }
}

impl SecureServer for ApacheServer {
    fn start(kernel: &mut Kernel, config: ServerConfig) -> SimResult<Self> {
        let mut server = Self {
            daemon: Daemon::start(kernel, config, Identity::Apache)?,
            workers: Vec::new(),
            next_worker: 0,
            handshakes: 0,
            shed: Redial::new(),
        };
        for _ in 0..START_SERVERS {
            server.spawn_worker(kernel)?;
        }
        Ok(server)
    }

    fn set_concurrency(&mut self, kernel: &mut Kernel, n: usize) -> SimResult<()> {
        // A reconfiguration bounds any open drain window: pre-rotation
        // workers are idle here (no request in flight), so they exit
        // gracefully and successor-epoch replacements join — round-robin
        // scheduling alone can starve a drained worker of its final request
        // forever, which would leave the predecessor key resident.
        while let Some(pos) = self
            .workers
            .iter()
            .position(|w| w.epoch < self.daemon.epoch())
        {
            let w = self.workers.swap_remove(pos);
            self.shed.exit(kernel, w.pid)?;
            self.spawn_or_shed(kernel);
        }
        // Prefork keeps at least StartServers processes alive and grows the
        // pool to match concurrent demand. Growth is bounded — one spawn
        // attempt per missing slot, failures shed — so a fork-exhausted pool
        // settles below target and regrows on a later call.
        let target = n.clamp(START_SERVERS, MAX_CLIENTS);
        let missing = target.saturating_sub(self.workers.len());
        for _ in 0..missing {
            self.spawn_or_shed(kernel);
        }
        while self.workers.len() > target {
            self.reap_worker(kernel)?;
        }
        self.maybe_retire(kernel)
    }

    fn pump(&mut self, kernel: &mut Kernel, requests: usize) -> SimResult<()> {
        if self.shed.due() {
            let recovered = self.spawn_worker(kernel).is_ok();
            self.shed.record(recovered);
        }
        for _ in 0..requests {
            if self.workers.is_empty() && !self.spawn_or_shed(kernel) {
                // No pool and no way to grow one right now: this request is
                // dropped, like a listener backlog overflow.
                continue;
            }
            let idx = self.next_worker % self.workers.len();
            self.next_worker = self.next_worker.wrapping_add(1);
            let shared = self.daemon.rsa_struct();
            let w = &mut self.workers[idx];
            let worker_epoch = w.epoch;
            // A pre-rotation worker drains on its own epoch's key material.
            let result = self.daemon.with_open(kernel, worker_epoch, |k, material| {
                w.crypto.handshake(k, w.pid, shared, material)
            });
            match result {
                Ok(()) => {
                    self.handshakes += 1;
                    if worker_epoch < self.daemon.epoch() {
                        // Graceful drain: the old-epoch worker finished its
                        // request; it exits and a successor-epoch replacement
                        // joins the pool — no request was dropped.
                        let pid = self.workers.swap_remove(idx).pid;
                        if kernel.alive(pid) {
                            let _ = kernel.exit(pid);
                        }
                        self.spawn_or_shed(kernel);
                    }
                }
                Err(_) => {
                    // Shed the failing worker — prefork reaps a crashed
                    // child and carries on.
                    let pid = self.workers.swap_remove(idx).pid;
                    self.shed.handshake_failed(kernel, pid);
                }
            }
        }
        self.maybe_retire(kernel)
    }

    fn transfer(&mut self, kernel: &mut Kernel, bytes: usize) -> SimResult<()> {
        if self.workers.is_empty() {
            self.spawn_worker(kernel)?;
        }
        let idx = self.daemon.rng.gen_index(self.workers.len());
        let pid = self.workers[idx].pid;
        crate::engine::move_data(kernel, pid, bytes, self.daemon.rng.next_u64())
    }

    fn stop(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        if !self.daemon.running() {
            return Ok(());
        }
        while !self.workers.is_empty() {
            self.reap_worker(kernel)?;
        }
        self.daemon.stop(kernel)
    }

    fn config(&self) -> ServerConfig {
        self.daemon.config()
    }

    fn restart(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        self.graceful_restart(kernel)
    }

    fn rotate_key(&mut self, kernel: &mut Kernel) -> SimResult<u64> {
        self.daemon.ensure_live(kernel)?;
        // Bound the drain window: a back-to-back rotation finishes the
        // previous epoch's drain before starting its own.
        self.force_drain(kernel)?;
        let ordinal = self.daemon.rotate(kernel)?;
        // Old-epoch workers each serve one more request, then exit; an idle
        // (empty-pool) server retires the predecessor immediately.
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
        self.workers.len()
    }

    fn is_running(&self) -> bool {
        self.daemon.running()
    }

    fn name(&self) -> &'static str {
        Identity::Apache.name()
    }

    fn handshakes(&self) -> u64 {
        self.handshakes
    }

    fn shedding(&self) -> SheddingStats {
        self.shed.stats
    }
}
