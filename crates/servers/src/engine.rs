//! The copy-site model: where OpenSSL-era key handling actually puts key
//! bytes in process memory.
//!
//! Every function here pairs *real cryptographic computation* (host-side
//! bignum math, verified end-to-end) with *explicit placement* of the byte
//! images that the corresponding OpenSSL code would leave in the process
//! heap: the PEM read buffer, the six decoded BIGNUMs, the cached Montgomery
//! contexts (copies of P and Q), and per-connection session buffers.

use keyguard::ProtectionLevel;
use memsim::{FileId, Kernel, Pid, SimError, SimResult, VAddr};
use rsa_repro::material::KeyMaterial;
use rsa_repro::{CrtEngine, RsaPrivateKey};
use simrng::Rng64;
use wireproto::{ssh, tls, SecureChannel};

/// Which wire protocol a server's handshakes follow — the two asymmetric
/// usage shapes of the paper's victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// SSH: the host key signs the key-exchange hash.
    Ssh,
    /// TLS-RSA (mod_ssl): the server key decrypts the premaster secret.
    Tls,
}

/// Size of the per-connection transfer buffer (an SSL/SSH channel buffer).
pub(crate) const SESSION_BUF: usize = 8 * 1024;

/// Streams `bytes` of payload through a channel buffer in `pid`'s heap:
/// allocate once, write it chunk by chunk (real memory traffic through the
/// simulated machine), free it dirty at the end. The payload stands in for
/// a real server's stream-cipher output: unique per transfer and never a
/// key pattern. No result reads its bytes, only the allocation, the writes
/// and their lengths, and the free, so an [`Rng64`] seeded per transfer
/// fills each chunk, eight bytes per generator step.
pub(crate) fn move_data(kernel: &mut Kernel, pid: Pid, bytes: usize, seed: u64) -> memsim::SimResult<()> {
    let buf = kernel.heap_alloc(pid, SESSION_BUF)?;
    let mut chunk = [0u8; SESSION_BUF];
    let mut payload = Rng64::new(seed);
    let mut remaining = bytes;
    while remaining > 0 {
        let n = remaining.min(SESSION_BUF);
        payload.fill_bytes(&mut chunk[..n]);
        kernel.write_bytes(pid, buf, &chunk[..n])?;
        remaining -= n;
    }
    kernel.heap_free(pid, buf)
}

/// The scattered in-heap home of a freshly loaded key: what
/// `d2i_RSAPrivateKey` leaves behind.
#[derive(Debug, Clone)]
pub struct ScatteredKey {
    /// The small RSA struct chunk — the thing workers write to (flags,
    /// cached pointers), dirtying the page that also holds the BIGNUMs.
    rsa_struct: VAddr,
    /// `(component name, chunk address)` for the six BIGNUM data buffers.
    chunks: Vec<(&'static str, VAddr)>,
}

impl ScatteredKey {
    /// Reads the PEM key file and "decodes" it: allocates the RSA struct and
    /// the six BIGNUM chunks in `pid`'s heap and writes the component byte
    /// images into them. The PEM read buffer is freed afterwards — zeroed
    /// only when `zero_pem_buffer` is set (the hygiene the paper's library
    /// patch adds; stock OpenSSL leaves the bytes in the freed chunk).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn load(
        kernel: &mut Kernel,
        pid: Pid,
        pem_file: FileId,
        material: &KeyMaterial,
        nocache: bool,
        zero_pem_buffer: bool,
    ) -> SimResult<Self> {
        // read() the key file into a heap buffer (populating the page cache
        // unless O_NOCACHE).
        let (pem_buf, _len) = kernel.read_file(pid, pem_file, nocache)?;
        // A fault mid-decode leaves whatever it placed behind, like a
        // crashed d2i: the error-path residue faultsweep scans for.
        let key = Self::decode(kernel, pid, material, &mut Vec::new())?;
        // The PEM buffer has been consumed by the decode.
        if zero_pem_buffer {
            kernel.heap_free_zeroed(pid, pem_buf)?;
        } else {
            kernel.heap_free(pid, pem_buf)?;
        }
        Ok(key)
    }

    /// [`Self::load`] with rollback: any mid-step failure zeroes and frees
    /// every chunk (and the PEM buffer) already placed before the error is
    /// returned, leaving memory exactly as scanned-clean as before the
    /// call. The key-rotation path uses this so a faulted reload of the
    /// successor key cannot strand successor bytes next to the still-live
    /// predecessor.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn load_transactional(
        kernel: &mut Kernel,
        pid: Pid,
        pem_file: FileId,
        material: &KeyMaterial,
        nocache: bool,
    ) -> SimResult<Self> {
        let (pem_buf, _len) = kernel.read_file(pid, pem_file, nocache)?;
        let mut placed: Vec<VAddr> = vec![pem_buf];
        match Self::decode(kernel, pid, material, &mut placed) {
            Ok(key) => {
                // The PEM buffer has been consumed by the decode: the
                // rotation path always clears it, whatever the level
                // (library hygiene).
                kernel.heap_free_zeroed(pid, pem_buf)?;
                Ok(key)
            }
            Err(e) => {
                for &addr in &placed {
                    let _ = kernel.heap_free_zeroed(pid, addr);
                }
                Err(e)
            }
        }
    }

    /// d2i: allocates the RSA struct, then each BIGNUM's data buffer, and
    /// writes the component byte images into them. Every chunk enters
    /// `placed` before it is written, so a caller can unwind a faulted
    /// write too.
    fn decode(
        kernel: &mut Kernel,
        pid: Pid,
        material: &KeyMaterial,
        placed: &mut Vec<VAddr>,
    ) -> SimResult<Self> {
        let rsa_struct = kernel.heap_alloc(pid, 64)?;
        placed.push(rsa_struct);
        let parts: [(&'static str, &[u8]); 6] = [
            ("d", material.d_bytes()),
            ("p", material.p_bytes()),
            ("q", material.q_bytes()),
            // dp/dq/qinv are real allocations too, but their byte images are
            // not among the paper's four searched patterns; sizing them like
            // p keeps the heap geometry honest.
            ("dp", material.p_bytes()),
            ("dq", material.q_bytes()),
            ("qinv", material.q_bytes()),
        ];
        let mut chunks = Vec::with_capacity(6);
        for (name, bytes) in parts {
            let addr = kernel.heap_alloc(pid, bytes.len())?;
            placed.push(addr);
            match name {
                // Only d, p, q hold their true images; the derived parts get
                // distinct filler so they never false-positive as p/q.
                "d" | "p" | "q" => kernel.write_bytes(pid, addr, bytes)?,
                _ => kernel.write_bytes(pid, addr, &vec![0xC3u8; bytes.len()])?,
            }
            chunks.push((name, addr));
        }
        Ok(Self { rsa_struct, chunks })
    }

    /// Address of the RSA struct chunk (shared COW with forked workers; the
    /// first write from a worker duplicates the page and every key byte on
    /// it).
    #[must_use]
    pub fn rsa_struct_addr(&self) -> VAddr {
        self.rsa_struct
    }

    /// The `memset(0) + free` pass `RSA_memory_align()` applies to the
    /// original scattered buffers once the key has moved to its secure
    /// region.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn zero_and_free(self, kernel: &mut Kernel, pid: Pid) -> SimResult<()> {
        self.try_zero_and_free(kernel, pid).map_err(|(_, e)| e)
    }

    /// Like [`Self::zero_and_free`], but returns the handle (minus the
    /// chunks already freed) alongside the error on failure, so the caller
    /// can retry. The zeroing writes are fallible — a COW-shared heap page
    /// breaks its share first, and that allocation can fail — and losing
    /// the chunk addresses on such a failure would strand key bytes in
    /// still-allocated heap forever.
    ///
    /// # Errors
    ///
    /// Returns `(self, error)`; already-freed chunks are dropped from the
    /// handle so a retry never double-frees.
    pub fn try_zero_and_free(
        mut self,
        kernel: &mut Kernel,
        pid: Pid,
    ) -> Result<(), (Self, SimError)> {
        while let Some(&(_, addr)) = self.chunks.last() {
            if let Err(e) = kernel.heap_free_zeroed(pid, addr) {
                return Err((self, e));
            }
            self.chunks.pop();
        }
        // The struct itself stays alive in real OpenSSL; it holds no key
        // bytes, so keeping it allocated is harmless and faithful.
        Ok(())
    }
}

/// Per-process cryptographic state: a real CRT engine plus the simulated
/// heap footprint of its Montgomery caches.
pub struct WorkerCrypto {
    engine: CrtEngine,
    protocol: Protocol,
    rng: Rng64,
    /// Sim-heap chunks holding the cached copies of P and Q, once built.
    mont_chunks: Option<(VAddr, VAddr)>,
    /// Whether this worker has already dirtied the shared key page.
    cow_poked: bool,
}

/// The wrapped engine holds the key; `{:?}` reports only configuration.
impl core::fmt::Debug for WorkerCrypto {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "WorkerCrypto({:?}, cow_poked={}, key=<redacted>)",
            self.protocol, self.cow_poked
        )
    }
}

impl WorkerCrypto {
    /// Creates the per-worker engine. `level.disable_mont_cache()` decides
    /// whether `RSA_FLAG_CACHE_PRIVATE` stays set.
    #[must_use]
    pub fn new(key: RsaPrivateKey, level: ProtectionLevel, seed: u64) -> Self {
        Self::with_protocol(key, level, seed, Protocol::Tls)
    }

    /// Creates an engine following a specific wire protocol.
    #[must_use]
    pub fn with_protocol(
        key: RsaPrivateKey,
        level: ProtectionLevel,
        seed: u64,
        protocol: Protocol,
    ) -> Self {
        Self {
            engine: CrtEngine::new(key, !level.disable_mont_cache()),
            protocol,
            rng: Rng64::new(seed),
            mont_chunks: None,
            cow_poked: false,
        }
    }

    /// The wire protocol this worker speaks.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of private-key operations this worker has performed.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.engine.ops()
    }

    /// One full handshake in process `pid`:
    ///
    /// 1. (first op only, unprotected) write to the shared RSA struct,
    ///    breaking COW on the page holding the key BIGNUMs;
    /// 2. (first op only, caching enabled) build the Montgomery contexts and
    ///    place their copies of P and Q in this worker's heap;
    /// 3. decrypt a PKCS#1-padded session key — real math, verified;
    /// 4. move a transfer's worth of data through a session buffer, then
    ///    free it (contents linger, as `free` does not clear).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors. Panics only if the RSA decrypt
    /// round-trip fails, which would be a bug in the crypto stack.
    pub fn handshake(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        shared_struct: Option<VAddr>,
        material: &KeyMaterial,
    ) -> SimResult<()> {
        // (1) Dirty the shared key page, once.
        if !self.cow_poked {
            if let Some(addr) = shared_struct {
                kernel.write_bytes(pid, addr, &1u64.to_le_bytes())?;
            }
            self.cow_poked = true;
        }

        // (2) Montgomery cache construction on first use.
        if self.engine.cache_private() && self.mont_chunks.is_none() {
            let p_chunk = kernel.heap_alloc(pid, material.p_bytes().len())?;
            kernel.write_bytes(pid, p_chunk, material.p_bytes())?;
            let q_chunk = kernel.heap_alloc(pid, material.q_bytes().len())?;
            kernel.write_bytes(pid, q_chunk, material.q_bytes())?;
            self.mont_chunks = Some((p_chunk, q_chunk));
        }

        // (3) The real handshake, over the wire protocol this server speaks.
        // SSH signs the key exchange; TLS decrypts the premaster. Both run
        // genuine RSA-CRT math through the engine and must agree on keys.
        let public = self.engine.key().public_key();
        let (server_keys, client_keys) = match self.protocol {
            Protocol::Tls => {
                let (client, bundle) =
                    tls::Client::start(public, &mut self.rng).expect("client hello");
                let (server_keys, reply) = tls::accept(&mut self.engine, &bundle, &mut self.rng)
                    .expect("TLS handshake");
                (server_keys, client.finish(&reply).expect("client finish"))
            }
            Protocol::Ssh => {
                let (client, bundle) = ssh::Client::start(public, &mut self.rng);
                let (server_keys, reply) = ssh::accept(&mut self.engine, &bundle, &mut self.rng)
                    .expect("SSH key exchange");
                (server_keys, client.finish(&reply).expect("host key verifies"))
            }
        };
        assert_eq!(
            client_keys, server_keys,
            "handshake key agreement failed"
        );

        // (4) Move one sealed application record through the session buffer:
        // what lands in simulated memory is ciphertext, unique per session —
        // which is why transfer payloads never match the key scanner.
        let mut server_chan = SecureChannel::new(server_keys, wireproto::Role::Server);
        let mut client_chan = SecureChannel::new(client_keys, wireproto::Role::Client);
        let mut payload = vec![0u8; SESSION_BUF / 2];
        let head = 64.min(payload.len());
        self.rng.fill_bytes(&mut payload[..head]);
        let sealed = server_chan.seal(&payload);
        let buf = kernel.heap_alloc(pid, sealed.len())?;
        kernel.write_bytes(pid, buf, &sealed)?;
        let (opened, _) = client_chan.open(&sealed).expect("channel round trip");
        assert_eq!(opened, payload);
        // keylint: allow(S007) -- buf holds sealed ciphertext, unique per session; freeing it unzeroed leaks no key bytes
        kernel.heap_free(pid, buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keyscan::Scanner;
    use memsim::MachineConfig;

    fn setup(level: ProtectionLevel) -> (Kernel, Pid, RsaPrivateKey, KeyMaterial, FileId) {
        let mut kernel = Kernel::new(MachineConfig::small().with_policy(level.kernel_policy()));
        let pid = kernel.spawn();
        let key = RsaPrivateKey::generate(256, &mut Rng64::new(55));
        let material = KeyMaterial::from_key(&key);
        let fid = kernel.create_file("/etc/key.pem", material.pem_bytes());
        (kernel, pid, key, material, fid)
    }

    #[test]
    fn scattered_load_places_d_p_q() {
        let (mut kernel, pid, _key, material, fid) = setup(ProtectionLevel::None);
        let _sk = ScatteredKey::load(&mut kernel, pid, fid, &material, false, false).unwrap();
        let scanner = Scanner::from_material(&material);
        let report = scanner.scan_kernel(&kernel);
        let counts = report.by_pattern(); // d, p, q, pem
        assert_eq!(counts[0], 1, "one d copy");
        assert_eq!(counts[1], 1, "one p copy");
        assert_eq!(counts[2], 1, "one q copy");
        // PEM: page cache + freed-but-dirty heap buffer.
        assert_eq!(counts[3], 2, "pem in cache and in freed buffer");
    }

    #[test]
    fn nocache_and_zeroed_buffer_leave_single_pem_copy_nowhere() {
        let (mut kernel, pid, _key, material, fid) = setup(ProtectionLevel::Integrated);
        let _sk = ScatteredKey::load(&mut kernel, pid, fid, &material, true, true).unwrap();
        let scanner = Scanner::from_material(&material);
        let counts = scanner.scan_kernel(&kernel).by_pattern();
        assert_eq!(counts[3], 0, "no pem copies anywhere");
    }

    #[test]
    fn zero_and_free_removes_component_copies() {
        let (mut kernel, pid, _key, material, fid) = setup(ProtectionLevel::None);
        let sk = ScatteredKey::load(&mut kernel, pid, fid, &material, true, true).unwrap();
        sk.zero_and_free(&mut kernel, pid).unwrap();
        let scanner = Scanner::from_material(&material);
        assert_eq!(scanner.scan_kernel(&kernel).total(), 0);
    }

    #[test]
    fn transfer_payload_follows_its_seed() {
        let (kernel, pid, _key, _material, _fid) = setup(ProtectionLevel::None);
        // The buffer's frames keep the payload after the dirty free.
        let payload = |seed| {
            let mut k = kernel.clone();
            let clock = k.generation_clock();
            move_data(&mut k, pid, SESSION_BUF + 100, seed).unwrap();
            let frames: Vec<_> = k.frames_written_since(clock).collect();
            frames
                .iter()
                .flat_map(|&f| k.frame_bytes(f).to_vec())
                .collect::<Vec<u8>>()
        };
        assert!(payload(7).iter().any(|&b| b != 0), "payload written");
        assert_eq!(payload(7), payload(7), "equal seeds, equal bytes");
        assert_ne!(payload(7), payload(8), "different seeds, different bytes");
    }

    #[test]
    fn handshake_executes_real_crypto() {
        let (mut kernel, pid, key, material, _fid) = setup(ProtectionLevel::None);
        let mut w = WorkerCrypto::new(key, ProtectionLevel::None, 1);
        for _ in 0..3 {
            w.handshake(&mut kernel, pid, None, &material).unwrap();
        }
        assert_eq!(w.ops(), 3);
    }

    #[test]
    fn cached_handshake_adds_prime_copies_uncached_does_not() {
        let (mut kernel, pid, key, material, _fid) = setup(ProtectionLevel::None);
        let scanner = Scanner::from_material(&material);

        let mut cached = WorkerCrypto::new(key.clone_secret(), ProtectionLevel::None, 1);
        cached.handshake(&mut kernel, pid, None, &material).unwrap();
        let counts = scanner.scan_kernel(&kernel).by_pattern();
        assert_eq!(counts[1], 1, "cached engine placed a p copy");
        assert_eq!(counts[2], 1, "cached engine placed a q copy");

        // Fresh machine, protected worker.
        let (mut kernel2, pid2, _, _, _) = setup(ProtectionLevel::Application);
        let mut plain = WorkerCrypto::new(key, ProtectionLevel::Application, 1);
        plain.handshake(&mut kernel2, pid2, None, &material).unwrap();
        let counts2 = scanner.scan_kernel(&kernel2).by_pattern();
        assert_eq!(counts2[1], 0);
        assert_eq!(counts2[2], 0);
    }

    #[test]
    fn cow_poke_duplicates_shared_key_page() {
        let (mut kernel, parent, key, material, fid) = setup(ProtectionLevel::None);
        let sk = ScatteredKey::load(&mut kernel, parent, fid, &material, false, false).unwrap();
        let scanner = Scanner::from_material(&material);
        let before = scanner.scan_kernel(&kernel).by_pattern();

        let child = kernel.fork(parent).unwrap();
        let mut w = WorkerCrypto::new(key, ProtectionLevel::None, 2);
        w.handshake(&mut kernel, child, Some(sk.rsa_struct_addr()), &material)
            .unwrap();
        let after = scanner.scan_kernel(&kernel).by_pattern();
        // The COW break duplicated the page holding d/p/q, and the Montgomery
        // cache added one more p and q.
        assert!(after[0] > before[0], "d copies grew: {before:?} -> {after:?}");
        assert!(after[1] >= before[1] + 2, "p copies grew by dup + cache");
        assert!(after[2] >= before[2] + 2, "q copies grew by dup + cache");
    }
}
