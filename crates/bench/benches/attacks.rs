//! Attack benchmarks regenerating single points of Figures 1–4 and 7, plus
//! the hot-list ablation (why freshly freed pages dominate the ext2 leak).

use bench::{BenchmarkId, Criterion};
use exploits::{Ext2DirentLeak, TtyMemoryDump};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::Scanner;
use servers::{SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

fn workload_machine(
    level: ProtectionLevel,
) -> (memsim::Kernel, Scanner) {
    let cfg = ExperimentConfig::test();
    let mut rng = Rng64::new(11);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    let mut ssh = SshServer::start(
        &mut kernel,
        ServerConfig::new(level).with_key_bits(cfg.key_bits),
    )
    .unwrap();
    ssh.set_concurrency(&mut kernel, 8).unwrap();
    ssh.pump(&mut kernel, 16).unwrap();
    ssh.set_concurrency(&mut kernel, 0).unwrap();
    let scanner = Scanner::from_material(ssh.material());
    (kernel, scanner)
}

fn bench_ext2_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_ext2_attack_point");
    group.sample_size(10);
    for level in [ProtectionLevel::None, ProtectionLevel::Kernel] {
        group.bench_with_input(
            BenchmarkId::from_parameter(level.label()),
            &level,
            |b, &level| {
                b.iter_batched(
                    || workload_machine(level),
                    |(mut kernel, scanner)| {
                        let capture = Ext2DirentLeak::new(500).run(&mut kernel).unwrap();
                        capture.keys_found(&scanner)
                    },
                    bench::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_tty_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_fig7_tty_attack_point");
    group.sample_size(10);
    for level in [ProtectionLevel::None, ProtectionLevel::Integrated] {
        let (kernel, scanner) = workload_machine(level);
        let dump = TtyMemoryDump::paper();
        group.bench_with_input(
            BenchmarkId::from_parameter(level.label()),
            &level,
            |b, _| {
                let mut rng = Rng64::new(12);
                b.iter(|| {
                    let capture = dump.run(&kernel, &mut rng);
                    capture.keys_found(&scanner)
                });
            },
        );
    }
    group.finish();
}

fn bench_sweep_throughput(c: &mut Criterion) {
    // How long one full repetition of a sweep point takes end to end — the
    // unit of work behind Figures 1–4.
    let mut group = c.benchmark_group("sweep_repetition");
    group.sample_size(10);
    let cfg = ExperimentConfig::test().with_repetitions(1);
    group.bench_function("ssh_ext2_one_rep", |b| {
        b.iter(|| {
            harness::attack_sweep::ext2_sweep_on(
                &harness::exec::Executor::from_env(),
                ServerKind::Ssh,
                ProtectionLevel::None,
                &[20],
                &[300],
                &cfg,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_ext2_attack(&mut c);
    bench_tty_attack(&mut c);
    bench_sweep_throughput(&mut c);
}
