//! Attack benchmarks regenerating single points of Figures 1–4 and 7, plus
//! the hot-list ablation (why freshly freed pages dominate the ext2 leak).
//!
//! `coldboot_reconstruct` times the cold-boot attacker's key reconstruction
//! on two dumps as plain bytes: the attacker matrix's (a kernel-level 64 MB
//! machine with a started server, decayed at the matrix's default rate,
//! almost every page all zero), and a dense 4 MB random dump with no
//! all-zero page that holds one decayed heap-layout key, where skipping
//! zero pages cannot help. Both reuse one dump, whose pages the first
//! iteration faults in, so they time the page test on mapped memory.
//! `cold_boot_cell_64mb` times a matrix cell's whole cold-boot attack on
//! the same machine as the matrix runs it: a fresh snapshot, the exact
//! scan and the reconstruction over it, and its drop.

use bench::{BenchmarkId, Criterion};
use exploits::{Ext2DirentLeak, TtyMemoryDump};
use harness::attack_matrix::DEFAULT_DECAY_RATE;
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::reconstruct::{reconstruct, ReconstructConfig};
use keyscan::Scanner;
use memsim::PAGE_SIZE;
use rsa_repro::material::KeyMaterial;
use rsa_repro::RsaPrivateKey;
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

/// The scattered loader's bump-heap image at the 16-aligned `off` (d, p, q,
/// then three `0xC3`-filled CRT chunks), each bit of it cleared with
/// probability `rate` as cold-boot decay would.
fn plant_decayed_heap_key(
    dump: &mut [u8],
    mut off: usize,
    key: &RsaPrivateKey,
    rate: f64,
    rng: &mut Rng64,
) {
    let material = KeyMaterial::from_key(key);
    let start = off;
    for (bytes, filler) in [
        (material.d_bytes(), false),
        (material.p_bytes(), false),
        (material.q_bytes(), false),
        (material.p_bytes(), true),
        (material.q_bytes(), true),
        (material.q_bytes(), true),
    ] {
        let chunk = &mut dump[off..off + bytes.len()];
        if filler {
            chunk.fill(0xC3);
        } else {
            chunk.copy_from_slice(bytes);
        }
        off += bytes.len().next_multiple_of(16);
    }
    for byte in &mut dump[start..off] {
        for bit in 0..8 {
            if rng.gen_bool(rate) {
                *byte &= !(1 << bit);
            }
        }
    }
}

fn bench_coldboot_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("coldboot_reconstruct");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick();
    let mut rng = Rng64::new(13);

    let level = ProtectionLevel::Kernel;
    let mut kernel = cfg.boot_machine(level, &mut rng);
    let ssh = SshServer::start(
        &mut kernel,
        ServerConfig::new(level).with_key_bits(cfg.key_bits),
    )
    .unwrap();
    let matrix_dump = kernel.snapshot_decayed(14, DEFAULT_DECAY_RATE);
    let zero_pages = matrix_dump
        .chunks(PAGE_SIZE)
        .filter(|page| page.iter().all(|&b| b == 0))
        .count();
    let public = ssh.key().public_key();
    let attempt = |dump: &[u8], public| reconstruct(dump, public, &ReconstructConfig::default());
    let rec = attempt(&matrix_dump, &public);
    assert!(rec.key.is_some(), "the matrix dump must yield its key");
    println!(
        "coldboot_reconstruct: matrix dump {} pages, {zero_pages} all zero; {:?}",
        matrix_dump.len() / PAGE_SIZE,
        rec.stats
    );
    group.bench_function("matrix_dump_64mb", |b| {
        b.iter(|| attempt(&matrix_dump, &public).key.is_some());
    });
    let scanner = Scanner::from_material(ssh.material());
    group.bench_function("cold_boot_cell_64mb", |b| {
        b.iter(|| {
            let dump = kernel.snapshot_decayed(14, DEFAULT_DECAY_RATE);
            let exact = scanner.dump_compromises_key(&dump);
            let rebuilt = reconstruct(&dump, &public, &ReconstructConfig::default());
            exact || rebuilt.key.is_some()
        });
    });

    let key = RsaPrivateKey::generate(cfg.key_bits, &mut rng);
    let mut dense_dump = vec![0u8; 4 << 20];
    rng.fill_bytes(&mut dense_dump);
    plant_decayed_heap_key(
        &mut dense_dump,
        (1 << 20) + 48,
        &key,
        DEFAULT_DECAY_RATE,
        &mut rng,
    );
    let public = key.public_key();
    let rec = attempt(&dense_dump, &public);
    assert!(rec.key.is_some(), "the dense dump must yield its key");
    println!("coldboot_reconstruct: dense dump; {:?}", rec.stats);
    group.bench_function("dense_random_4mb", |b| {
        b.iter(|| attempt(&dense_dump, &public).key.is_some());
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_ext2_attack(&mut c);
    bench_tty_attack(&mut c);
    bench_sweep_throughput(&mut c);
    bench_coldboot_reconstruct(&mut c);
}
