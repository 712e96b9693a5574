//! The key half of both servers: the daemon process that owns the private
//! key, where the key lives at each protection level, and the
//! crash-consistent rotation and retirement of that key (DESIGN.md §13).
//! [`crate::SshServer`] and [`crate::ApacheServer`] keep only their process
//! models and call [`Daemon`] for everything they do with the key.

use crate::engine::{Protocol, ScatteredKey, WorkerCrypto};
use crate::{ServerConfig, SheddingStats, RETRY_BACKLOG_CAP, RETRY_BACKOFF_MAX};
use keyguard::{Custody, KeyRotation, SecureKeyRegion, ShieldedKeyRegion};
use memsim::{FileId, Kernel, Pid, SimError, SimResult, VAddr};
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;

/// Which server a daemon belongs to: its key salt, key file and protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Identity {
    /// OpenSSH's listener with its host key.
    OpenSsh,
    /// Apache's prefork parent with its mod_ssl server key.
    Apache,
}

impl Identity {
    /// The name [`ServerConfig::derive_rotated_key`] salts the key with.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::OpenSsh => "openssh",
            Self::Apache => "apache",
        }
    }

    fn pem_path(self) -> &'static str {
        match self {
            Self::OpenSsh => "/etc/ssh/ssh_host_rsa_key",
            Self::Apache => "/etc/apache2/ssl/server.key",
        }
    }

    fn protocol(self) -> Protocol {
        match self {
            Self::OpenSsh => Protocol::Ssh,
            Self::Apache => Protocol::Tls,
        }
    }
}

/// The process that owns a server's private key (sshd's listener, Apache's
/// parent), with the key's home, its epoch and any rotation in flight.
pub(crate) struct Daemon {
    id: Identity,
    config: ServerConfig,
    pid: Pid,
    key: RsaPrivateKey,
    material: KeyMaterial,
    pem_file: FileId,
    /// The key's aligned home (shielded at `ProtectionLevel::Shielded`:
    /// ciphertext at rest, opened only around each private-key operation).
    custody: Option<Custody>,
    /// The scattered key copies at unaligned levels, retained so a
    /// rotation can zero + free the predecessor's chunks at Retire.
    scattered: Option<ScatteredKey>,
    /// Key generation, shield prekeys and the server's handshake seeds.
    pub(crate) rng: Rng64,
    running: bool,
    /// Current key epoch ordinal (0 = boot key).
    epoch: u64,
    /// The in-flight rotation while the previous epoch drains.
    rotation: Option<KeyRotation>,
    /// Predecessor state held only during a drain window.
    old_scattered: Option<ScatteredKey>,
    old_material: Option<KeyMaterial>,
    old_pem: Option<FileId>,
}

impl Daemon {
    /// Generates the boot key, writes it to the server's key file, spawns
    /// the daemon and loads the key into it ([`Self::load`]).
    pub(crate) fn start(
        kernel: &mut Kernel,
        config: ServerConfig,
        id: Identity,
    ) -> SimResult<Self> {
        let mut rng = config.key_rng(id.name(), 0);
        let key = RsaPrivateKey::generate(config.key_bits, &mut rng);
        let material = KeyMaterial::from_key(&key);
        let pem_file = kernel.create_file(id.pem_path(), material.pem_bytes());
        // Key files ship mode 0600: off-limits to the unprivileged disk scan.
        kernel.chmod_private(pem_file)?;
        let mut daemon = Self {
            id,
            config,
            pid: kernel.spawn(),
            key,
            material,
            pem_file,
            custody: None,
            scattered: None,
            rng,
            running: true,
            epoch: 0,
            rotation: None,
            old_scattered: None,
            old_material: None,
            old_pem: None,
        };
        daemon.load(kernel)?;
        Ok(daemon)
    }

    /// Reads the key file into the daemon and gives the key its home at
    /// the configured level, replacing a previous aligned home. A previous
    /// scattered load keeps leaking (faithful restart behaviour); only the
    /// newest handle is retired by rotation.
    pub(crate) fn load(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        let level = self.config.level;
        let pid = self.pid;
        let scattered = ScatteredKey::load(
            kernel,
            pid,
            self.pem_file,
            &self.material,
            level.nocache_pem(),
            level.align_key(),
        )?;
        if !level.align_key() {
            self.scattered = Some(scattered);
            return Ok(());
        }
        // A graceful restart re-installs the key: wipe its old home first.
        if let Some(old) = self.custody.take() {
            old.destroy(kernel, pid)?;
        }
        // RSA_memory_align: consolidate, then zero + free the originals.
        // The shield wraps after the free, not before as in
        // `Custody::install`: its prekey pages must land where they always
        // have, or every location checksum at Shielded moves.
        let region = SecureKeyRegion::install(kernel, pid, &self.key)?;
        scattered.zero_and_free(kernel, pid)?;
        self.custody = Some(if level.shield_key() {
            // sshkey_shield: encrypt the consolidated region at rest.
            match ShieldedKeyRegion::wrap(kernel, pid, region, &mut self.rng) {
                Ok(shield) => Custody::Shielded(shield),
                Err((region, e)) => {
                    let _ = region.destroy(kernel, pid);
                    return Err(e);
                }
            }
        } else {
            Custody::Plain(region)
        });
        Ok(())
    }

    /// The configuration the server was started with.
    pub(crate) fn config(&self) -> ServerConfig {
        self.config
    }

    /// The key-owning process.
    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    /// The current epoch's key.
    pub(crate) fn key(&self) -> &RsaPrivateKey {
        &self.key
    }

    /// The current epoch's search material.
    pub(crate) fn material(&self) -> &KeyMaterial {
        &self.material
    }

    /// The current epoch's key file.
    pub(crate) fn pem_file(&self) -> FileId {
        self.pem_file
    }

    /// The current key epoch ordinal (0 = boot key).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the daemon runs (false once [`Self::stop`] returned).
    pub(crate) fn running(&self) -> bool {
        self.running
    }

    /// A worker's crypto engine over the current key, seeded from the
    /// daemon's generator.
    pub(crate) fn worker_crypto(&mut self) -> WorkerCrypto {
        WorkerCrypto::with_protocol(
            self.key.clone_secret(),
            self.config.level,
            self.rng.next_u64(),
            self.id.protocol(),
        )
    }

    /// The current scattered home's RSA struct: the page forked workers
    /// dirty on their first private-key op (unaligned levels only).
    pub(crate) fn rsa_struct(&self) -> Option<VAddr> {
        self.scattered.as_ref().map(ScatteredKey::rsa_struct_addr)
    }

    /// Runs `f` with the key material of epoch `epoch` — a connection
    /// opened before a rotation drains on the old key — inside the
    /// OpenSSH `sshkey_shield`/`unshield` window: a shielded region is
    /// decrypted for the duration of the op and re-encrypted before this
    /// returns, success or failure.
    pub(crate) fn with_open<T>(
        &mut self,
        kernel: &mut Kernel,
        epoch: u64,
        f: impl FnOnce(&mut Kernel, &KeyMaterial) -> SimResult<T>,
    ) -> SimResult<T> {
        let material = match &self.old_material {
            Some(old) if epoch < self.epoch => old,
            _ => &self.material,
        };
        match &mut self.custody {
            Some(Custody::Shielded(shield)) => {
                shield.with_unshielded(kernel, self.pid, |k| f(k, material))
            }
            _ => f(kernel, material),
        }
    }

    /// Whether a previous key epoch is still draining (both keys resident).
    pub(crate) fn draining(&self) -> bool {
        self.rotation.is_some()
    }

    /// Fails with `NoSuchProcess` unless the server runs and its daemon is
    /// alive: a rotation needs a live key owner.
    pub(crate) fn ensure_live(&self, kernel: &Kernel) -> SimResult<()> {
        if !self.running || !kernel.alive(self.pid) {
            return Err(SimError::NoSuchProcess(self.pid));
        }
        Ok(())
    }

    /// Generate → Install → Activate → Drain: moves the daemon to its next
    /// key epoch and returns the new ordinal. The caller has bounded any
    /// previous drain window first, and retires this one when its old
    /// connections are gone ([`Self::retire`]).
    pub(crate) fn rotate(&mut self, kernel: &mut Kernel) -> SimResult<u64> {
        let ordinal = self.epoch + 1;
        let level = self.config.level;
        // Generate: host-side only, deterministic in (config, ordinal).
        let new_key = self.config.derive_rotated_key(self.id.name(), ordinal);
        let new_material = KeyMaterial::from_key(&new_key);

        // Install: the successor's protected home. Transactional — on error
        // the old key is untouched and no successor byte is resident.
        let mut rot = KeyRotation::begin(level, ordinal);
        rot.install(kernel, self.pid, &new_key, &mut self.rng)?;

        // The successor key file replaces the old path, mode 0600. Creation
        // places nothing in simulated memory, so it cannot leak on failure.
        let new_pem = kernel.create_file(self.id.pem_path(), new_material.pem_bytes());
        if let Err(e) = kernel.chmod_private(new_pem) {
            let _ = rot.abort(kernel, self.pid);
            return Err(e);
        }

        // The daemon's scattered home at unaligned levels — rolled back as a
        // unit on failure, keeping "old key fully live" true.
        let new_scattered = if level.align_key() {
            None
        } else {
            match ScatteredKey::load_transactional(
                kernel,
                self.pid,
                new_pem,
                &new_material,
                level.nocache_pem(),
            ) {
                Ok(sk) => Some(sk),
                Err(e) => {
                    let _ = shred_file(kernel, new_pem);
                    let _ = rot.abort(kernel, self.pid);
                    return Err(e);
                }
            }
        };

        // Activate: the atomic in-memory switch — new handshakes bind the
        // successor from here on; nothing below this point can fail in a way
        // that splits the two-key state.
        self.custody = rot.activate(self.custody.take());
        self.old_scattered = core::mem::replace(&mut self.scattered, new_scattered);
        self.old_material = Some(core::mem::replace(&mut self.material, new_material));
        self.old_pem = Some(core::mem::replace(&mut self.pem_file, new_pem));
        self.key = new_key;
        self.epoch = ordinal;

        // Drain: in-flight sessions finish on the old key.
        rot.begin_drain();
        self.rotation = Some(rot);
        Ok(ordinal)
    }

    /// Retire phase: zeroizes everything the predecessor key ever owned —
    /// its custody ([`KeyRotation::retire`]), its scattered chunks at
    /// unaligned levels, and its on-disk PEM file (shredded in place,
    /// scrubbing any cached page-cache copies). No-op when not draining.
    ///
    /// **Retryable**: every teardown step can fault (zeroing writes break
    /// COW shares, the shred allocates page-cache frames), so on error the
    /// un-torn-down pieces are put back and the drain window stays open —
    /// the next quiesce point finishes the retirement. Nothing is ever
    /// stranded half-wiped.
    pub(crate) fn retire(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        let Some(mut rot) = self.rotation.take() else {
            return Ok(());
        };
        if kernel.alive(self.pid) {
            if let Err(e) = rot.retire(kernel, self.pid) {
                self.rotation = Some(rot);
                return Err(e);
            }
            if let Some(sk) = self.old_scattered.take() {
                if let Err((sk, e)) = sk.try_zero_and_free(kernel, self.pid) {
                    self.old_scattered = Some(sk);
                    self.rotation = Some(rot);
                    return Err(e);
                }
            }
        } else {
            // A killed daemon took its mappings with it; a hardened kernel
            // zeroed the frames at unmap.
            rot.retire_dead();
            self.old_scattered = None;
        }
        if let Some(fid) = self.old_pem.take() {
            if let Err(e) = shred_file(kernel, fid) {
                self.old_pem = Some(fid);
                self.rotation = Some(rot);
                return Err(e);
            }
        }
        self.old_material = None;
        Ok(())
    }

    /// Shuts the daemon down once its connections are gone: retires an
    /// open drain window, wipes the key's aligned home, and exits.
    pub(crate) fn stop(&mut self, kernel: &mut Kernel) -> SimResult<()> {
        // Backstop: an open drain window retires before shutdown (covers a
        // daemon already killed mid-drain, where no quiesce point could run
        // the live path).
        self.retire(kernel)?;
        let alive = kernel.alive(self.pid);
        if let Some(custody) = self.custody.take() {
            // The library clears the special region (a shielded one with its
            // prekey) before the daemon dies — the "special care" the paper
            // requires of aligned deployments. A daemon already killed by a
            // fault took its region mappings with it; there is nothing left
            // to wipe.
            if alive {
                custody.destroy(kernel, self.pid)?;
            }
        }
        if alive {
            kernel.exit(self.pid)?;
        }
        self.running = false;
        Ok(())
    }
}

/// Overwrites a whole file with zeros — the shred a retiring key epoch
/// applies to its PEM file. Writing through the page cache scrubs any
/// still-cached pages of the old contents in place (and marks them dirty,
/// so a later writeback flushes zeros to the backing store too).
///
/// # Errors
///
/// Propagates simulator errors (a faulted cache-frame allocation). No
/// error path places file bytes in memory: each cache page is zeroed
/// within the same step that fills it.
fn shred_file(kernel: &mut Kernel, fid: FileId) -> SimResult<()> {
    let len = kernel.file_len(fid)?;
    if len == 0 {
        return Ok(());
    }
    kernel.write_file(fid, 0, &vec![0u8; len])
}

/// Counters for shed work plus the bounded-backoff re-dial state: a shed
/// connection (SSH) or worker (Apache) joins a capped backlog, and one
/// deterministic re-dial step runs at the top of every `pump` call.
#[derive(Debug)]
pub(crate) struct Redial {
    pub(crate) stats: SheddingStats,
    backlog: u64,
    delay: u64,
    backoff: u64,
}

impl Redial {
    pub(crate) fn new() -> Self {
        Self {
            stats: SheddingStats::default(),
            backlog: 0,
            delay: 0,
            backoff: 1,
        }
    }

    /// Remembers one shed connection for re-dialing, up to the cap.
    pub(crate) fn note(&mut self) {
        self.backlog = (self.backlog + 1).min(RETRY_BACKLOG_CAP);
    }

    /// Counts a connection never opened because fork or setup failed.
    pub(crate) fn fork_failed(&mut self) {
        self.stats.failed_forks += 1;
        self.note();
    }

    /// Sheds a connection whose handshake failed: its process is
    /// terminated (unless a fault already killed it) and it joins the
    /// re-dial backlog.
    pub(crate) fn handshake_failed(&mut self, kernel: &mut Kernel, pid: Pid) {
        self.stats.shed_handshakes += 1;
        if kernel.alive(pid) {
            let _ = kernel.exit(pid);
        }
        self.stats.shed_connections += 1;
        self.note();
    }

    /// Exits a connection's or worker's process. One that already died
    /// (e.g. a fault-plan kill) is simply gone and counts as shed.
    pub(crate) fn exit(&mut self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        match kernel.exit(pid) {
            Err(SimError::NoSuchProcess(_)) => {
                self.stats.shed_connections += 1;
                Ok(())
            }
            r => r,
        }
    }

    /// The re-dial step: after `delay` pumps of silence one attempt to
    /// re-open a shed connection is due; the caller makes it and reports
    /// the outcome to [`Self::record`].
    pub(crate) fn due(&mut self) -> bool {
        if self.backlog == 0 {
            return false;
        }
        if self.delay > 0 {
            self.delay -= 1;
            return false;
        }
        self.stats.retries += 1;
        true
    }

    /// Success recovers one shed connection and resets the backoff;
    /// failure doubles it up to [`RETRY_BACKOFF_MAX`].
    pub(crate) fn record(&mut self, recovered: bool) {
        if recovered {
            self.stats.recovered += 1;
            self.backlog -= 1;
            self.backoff = 1;
        } else {
            self.backoff = (self.backoff * 2).min(RETRY_BACKOFF_MAX);
        }
        self.delay = self.backoff;
    }
}
