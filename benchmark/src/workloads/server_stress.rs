//! `server_stress`: the paper's Fig. 8 / 19–20 stress test, driving
//! `SecureServer` directly as `harness::perf::run_rep` does: ssh (the scp
//! file-size mix) and apache (32 KB responses) × {none, integrated}, 8
//! standing connections, RSA-1024, 64 MB machines. One client thread sends
//! the next transaction — `pump(1)` plus `transfer` — when the last
//! returns, and times each one; every [`CHUNK`] transactions on one server
//! make a throughput sample.
//!
//! Chosen because it does no scans and no clones, so RSA/bignum, wireproto
//! and memsim fork/COW/zeroing dominate. A clone change that makes each
//! write costlier shows up here as a regression.

use super::{count_kernel, Bench, Round, Scale, Workload};
use crate::host::{HostMeter, Sample};
use crate::Recorder;
use harness::perf::{scp_file_sizes, HTTP_RESPONSE_BYTES};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use memsim::{Kernel, SimResult};
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

/// The servers driven, each on its own machine.
pub const CONFIGS: [(ServerKind, ProtectionLevel); 4] = [
    (ServerKind::Ssh, ProtectionLevel::None),
    (ServerKind::Ssh, ProtectionLevel::Integrated),
    (ServerKind::Apache, ProtectionLevel::None),
    (ServerKind::Apache, ProtectionLevel::Integrated),
];

/// Standing connections, as in the harness's quick perf configuration.
pub const CONCURRENCY: usize = 8;

/// Transactions per throughput sample: about 15 ms of work, short enough
/// that the host's speed barely changes within one.
pub const CHUNK: usize = 20;

/// One server on its own machine, with its running totals.
struct StressRig<S> {
    kind: ServerKind,
    level: ProtectionLevel,
    kernel: Kernel,
    server: S,
    sizes: Vec<usize>,
    tx: u64,
    bytes: u64,
}

/// Object-safe view of a [`StressRig`] over either server type.
trait Rig {
    fn transactions(
        &mut self,
        rec: &mut Recorder,
        n: usize,
        kind: usize,
        meter: &mut HostMeter,
        round: &mut Round,
    );
    fn totals(&self) -> (u64, u64, u64);
    fn describe(&self) -> String;
}

impl<S: SecureServer> StressRig<S> {
    /// Boots and starts the server as `run_rep` does for repetition `rep`.
    fn start(
        rec: &mut Recorder,
        kind: ServerKind,
        level: ProtectionLevel,
        cfg: &ExperimentConfig,
        rep: u64,
    ) -> SimResult<Self> {
        let mut rng = Rng64::new(cfg.seed ^ rep << 8 ^ 0x9E4F);
        let mut kernel = rec.span("memsim.boot", |_| cfg.boot_machine(level, &mut rng));
        let server_cfg = ServerConfig::new(level)
            .with_key_bits(cfg.key_bits)
            .with_seed(cfg.seed.wrapping_add(rep));
        let mut server = rec.span("servers.start", |_| S::start(&mut kernel, server_cfg))?;
        rec.span("servers.set_concurrency", |_| {
            server.set_concurrency(&mut kernel, CONCURRENCY)
        })?;
        let sizes = match kind {
            ServerKind::Ssh => scp_file_sizes().to_vec(),
            ServerKind::Apache => vec![HTTP_RESPONSE_BYTES],
        };
        Ok(Self {
            kind,
            level,
            kernel,
            server,
            sizes,
            tx: 0,
            bytes: 0,
        })
    }
}

impl<S: SecureServer> Rig for StressRig<S> {
    fn transactions(
        &mut self,
        rec: &mut Recorder,
        n: usize,
        kind: usize,
        meter: &mut HostMeter,
        round: &mut Round,
    ) {
        let stats = self.kernel.stats();
        let handshakes = self.server.handshakes();
        let shed = self.server.shedding().total();
        for chunk in (0..n).step_by(CHUNK) {
            let ops = CHUNK.min(n - chunk);
            let mut chunk_wall = Duration::ZERO;
            for _ in 0..ops {
                let size = self.sizes[self.tx as usize % self.sizes.len()];
                let (kernel, server) = (&mut self.kernel, &mut self.server);
                let t0 = Instant::now();
                let result = rec.span("server.tx", |rec| {
                    rec.span("servers.pump", |_| server.pump(kernel, 1))?;
                    rec.span("servers.transfer", |_| server.transfer(kernel, size))
                });
                let elapsed = t0.elapsed();
                chunk_wall += elapsed;
                round.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                self.tx += 1;
                match result {
                    Ok(()) => self.bytes += size as u64,
                    Err(e) => {
                        round.failed += 1;
                        round.problems.push(format!(
                            "{}: transaction {}: {e}",
                            self.describe(),
                            self.tx
                        ));
                    }
                }
            }
            round.wall += chunk_wall;
            round.ops += ops as u64;
            round.samples.push(Sample {
                kind,
                ops: ops as u64,
                secs: chunk_wall.as_secs_f64(),
                ref_ms: meter.lap(),
            });
        }
        let shed_now = self.server.shedding().total() - shed;
        if shed_now > 0 {
            round.failed += shed_now;
            round
                .problems
                .push(format!("{}: {shed_now} connections shed", self.describe()));
        }
        count_kernel(rec, self.kernel.stats(), stats);
        rec.count("servers.handshakes", self.server.handshakes() - handshakes);
        rec.count("servers.shed", shed_now);
        round.digest.push_str(&format!(
            "{}: tx {} bytes {} handshakes {} {:?} {:?}\n",
            self.describe(),
            self.tx,
            self.bytes,
            self.server.handshakes(),
            self.server.shedding(),
            self.kernel.stats()
        ));
    }

    fn totals(&self) -> (u64, u64, u64) {
        (self.tx, self.bytes, self.server.handshakes())
    }

    fn describe(&self) -> String {
        format!("{}/{}", self.kind, self.level)
    }
}

/// The server-stress workload.
pub struct ServerStress {
    cfg: ExperimentConfig,
    tx_per_round: usize,
    rigs: Vec<Box<dyn Rig>>,
    meter: HostMeter,
}

impl ServerStress {
    /// The workload at `scale`: RSA-1024 and 400 transactions per server
    /// per round at full scale, the test key size and 100 at the test
    /// scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Self {
            cfg: Workload::ServerStress.cfg(scale),
            tx_per_round: if scale.test { 100 } else { 400 },
            rigs: Vec::new(),
            meter: HostMeter::new(1),
        }
    }

    /// `(transactions, payload bytes, handshakes)` per server so far, in
    /// [`CONFIGS`] order.
    #[must_use]
    pub fn totals(&self) -> Vec<(u64, u64, u64)> {
        self.rigs.iter().map(|r| r.totals()).collect()
    }
}

fn start_rig(
    rec: &mut Recorder,
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    rep: u64,
) -> SimResult<Box<dyn Rig>> {
    match kind {
        ServerKind::Ssh => StressRig::<SshServer>::start(rec, kind, level, cfg, rep)
            .map(|r| Box::new(r) as Box<dyn Rig>),
        ServerKind::Apache => StressRig::<ApacheServer>::start(rec, kind, level, cfg, rep)
            .map(|r| Box::new(r) as Box<dyn Rig>),
    }
}

impl Bench for ServerStress {
    /// Boot, start and open the standing connections of every server, as
    /// `run_rep` does for its first repetition; these servers serve the
    /// rounds. Each server's set-up is a sample of its own kind.
    fn setup(&mut self, rec: &mut Recorder) -> Vec<Sample> {
        self.meter.lap();
        let mut samples = Vec::new();
        for (i, (kind, level)) in CONFIGS.into_iter().enumerate() {
            let (rig, sample) = self
                .meter
                .time(i, || start_rig(rec, kind, level, &self.cfg, 0));
            self.rigs
                .push(rig.unwrap_or_else(|e| panic!("server_stress set-up of {kind}/{level}: {e}")));
            samples.push(sample);
        }
        samples
    }

    /// Times one more set-up of every server (with `run_rep`'s seeds for
    /// repetition `r + 1`, then dropped), and sends every standing server
    /// its transactions.
    fn round(&mut self, r: usize, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        for (i, (kind, level)) in CONFIGS.into_iter().enumerate() {
            let (rig, sample) = self
                .meter
                .time(i, || start_rig(rec, kind, level, &self.cfg, r as u64 + 1));
            if let Err(e) = rig {
                round
                    .problems
                    .push(format!("set-up of {kind}/{level}: {e}"));
            }
            round.setup.push(sample);
        }
        for (kind, rig) in self.rigs.iter_mut().enumerate() {
            rig.transactions(rec, self.tx_per_round, kind, &mut self.meter, &mut round);
        }
        round
    }
}
