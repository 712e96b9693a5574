//! Server stress benchmarks — Figures 8 and 19–20: the same transaction
//! workload with protections off and on. The paper's claim is that the two
//! bars are indistinguishable; Criterion quantifies the difference
//! statistically.

use bench::{BenchmarkId, Criterion, Throughput};
use harness::perf::{scp_file_sizes, HTTP_RESPONSE_BYTES};
use harness::ExperimentConfig;
use keyguard::ProtectionLevel;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

const TRANSACTIONS_PER_ITER: usize = 25;

fn bench_ssh_stress(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_ssh_stress");
    group.sample_size(10);
    let cfg = ExperimentConfig::test();
    for level in [ProtectionLevel::None, ProtectionLevel::Integrated] {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.label()),
            &level,
            |b, &level| {
                let mut rng = Rng64::new(21);
                let mut kernel = cfg.boot_machine(level, &mut rng);
                let mut ssh = SshServer::start(
                    &mut kernel,
                    ServerConfig::new(level).with_key_bits(cfg.key_bits),
                )
                .unwrap();
                ssh.set_concurrency(&mut kernel, 8).unwrap();
                b.iter(|| {
                    ssh.pump(&mut kernel, TRANSACTIONS_PER_ITER).unwrap();
                    ssh.transfer(&mut kernel, 100 * 1024).unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_apache_stress(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_20_apache_stress");
    group.sample_size(10);
    let cfg = ExperimentConfig::test();
    for level in [ProtectionLevel::None, ProtectionLevel::Integrated] {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.label()),
            &level,
            |b, &level| {
                let mut rng = Rng64::new(22);
                let mut kernel = cfg.boot_machine(level, &mut rng);
                let mut apache = ApacheServer::start(
                    &mut kernel,
                    ServerConfig::new(level).with_key_bits(cfg.key_bits),
                )
                .unwrap();
                apache.set_concurrency(&mut kernel, 8).unwrap();
                b.iter(|| {
                    apache.pump(&mut kernel, TRANSACTIONS_PER_ITER).unwrap();
                    apache.transfer(&mut kernel, 32 * 1024).unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    // The data plane alone, on a started server with its standing
    // connections: one transfer of each scp file size (the Fig. 8 mix),
    // and one Siege-style response.
    let mut group = c.benchmark_group("transfer");
    group.sample_size(10);
    let cfg = ExperimentConfig::test();
    let level = ProtectionLevel::None;
    let server_cfg = ServerConfig::new(level).with_key_bits(cfg.key_bits);
    let scp = scp_file_sizes();
    group.throughput(Throughput::Bytes(scp.iter().sum::<usize>() as u64));
    group.bench_function("ssh_scp_mix", |b| {
        let mut kernel = cfg.boot_machine(level, &mut Rng64::new(24));
        let mut ssh = SshServer::start(&mut kernel, server_cfg).unwrap();
        ssh.set_concurrency(&mut kernel, 8).unwrap();
        b.iter(|| {
            for size in scp {
                ssh.transfer(&mut kernel, size).unwrap();
            }
        });
    });
    group.throughput(Throughput::Bytes(HTTP_RESPONSE_BYTES as u64));
    group.bench_function("apache_32k", |b| {
        let mut kernel = cfg.boot_machine(level, &mut Rng64::new(25));
        let mut apache = ApacheServer::start(&mut kernel, server_cfg).unwrap();
        apache.set_concurrency(&mut kernel, 8).unwrap();
        b.iter(|| apache.transfer(&mut kernel, HTTP_RESPONSE_BYTES).unwrap());
    });
    group.finish();
}

fn bench_cow_consolidation_ablation(c: &mut Criterion) {
    // Ablation: cost of serving a connection when the key is aligned
    // (single COW page, no per-worker duplication) vs scattered. This is
    // the "does copy minimization cost anything?" question in isolation.
    let mut group = c.benchmark_group("cow_consolidation_ablation");
    group.sample_size(10);
    let cfg = ExperimentConfig::test();
    for (name, level) in [
        ("scattered", ProtectionLevel::None),
        ("aligned", ProtectionLevel::Application),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &level, |b, &level| {
            let mut rng = Rng64::new(23);
            let mut kernel = cfg.boot_machine(level, &mut rng);
            let mut ssh = SshServer::start(
                &mut kernel,
                ServerConfig::new(level).with_key_bits(cfg.key_bits),
            )
            .unwrap();
            b.iter(|| {
                // One full connection lifecycle.
                ssh.set_concurrency(&mut kernel, 1).unwrap();
                ssh.set_concurrency(&mut kernel, 0).unwrap();
            });
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_ssh_stress(&mut c);
    bench_apache_stress(&mut c);
    bench_transfer(&mut c);
    bench_cow_consolidation_ablation(&mut c);
}
