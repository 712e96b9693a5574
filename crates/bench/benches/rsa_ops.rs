//! RSA microbenchmarks, one Montgomery exponentiation per limb width, the
//! prime search and its Miller–Rabin round, the Montgomery-cache ablation,
//! and the cost of a server key: generated cold or read back from the
//! derivation memo.
//!
//! The cache ablation quantifies the security/performance trade the paper's
//! `RSA_memory_align()` makes when it clears `RSA_FLAG_CACHE_PRIVATE`:
//! caching saves per-op Montgomery setup but keeps copies of P and Q alive.

use bench::{BenchmarkId, Criterion};
use bignum::{gen_prime, BigUint, MontCtx};
use keyguard::ProtectionLevel;
use rsa_repro::{CrtEngine, RsaPrivateKey};
use servers::ServerConfig;
use simrng::Rng64;

fn bench_handshakes(c: &mut Criterion) {
    // Full wire-protocol handshakes: the unit of work behind every
    // connection in the perf figures.
    let mut group = c.benchmark_group("wire_handshake");
    let key = RsaPrivateKey::generate(1024, &mut Rng64::new(4));
    group.bench_function("tls_rsa", |b| {
        let mut engine = CrtEngine::new(key.clone_secret(), true);
        let mut rng = Rng64::new(5);
        b.iter(|| {
            let (client, bundle) =
                wireproto::tls::Client::start(key.public_key(), &mut rng).unwrap();
            let (sk, reply) = wireproto::tls::accept(&mut engine, &bundle, &mut rng).unwrap();
            let ck = client.finish(&reply).unwrap();
            assert_eq!(ck, sk);
        });
    });
    group.bench_function("ssh_kex", |b| {
        let mut engine = CrtEngine::new(key.clone_secret(), true);
        let mut rng = Rng64::new(6);
        b.iter(|| {
            let (client, bundle) = wireproto::ssh::Client::start(key.public_key(), &mut rng);
            let (sk, reply) = wireproto::ssh::accept(&mut engine, &bundle, &mut rng).unwrap();
            let ck = client.finish(&reply).unwrap();
            assert_eq!(ck, sk);
        });
    });
    group.bench_function("blinding_overhead", |b| {
        let mut engine = CrtEngine::new(key.clone_secret(), true).with_blinding(7);
        let ct = key
            .public_key()
            .encrypt_raw(&BigUint::from_u64(0xFEED))
            .unwrap();
        engine.private_op(&ct).unwrap();
        b.iter(|| engine.private_op(std::hint::black_box(&ct)).unwrap());
    });
    group.finish();
}

fn bench_private_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa_private_op");
    for bits in [512usize, 1024] {
        let key = RsaPrivateKey::generate(bits, &mut Rng64::new(1));
        let ct = key
            .public_key()
            .encrypt_raw(&BigUint::from_u64(0xDEAD_BEEF))
            .unwrap();
        group.bench_with_input(BenchmarkId::new("raw", bits), &bits, |b, _| {
            b.iter(|| key.private_op_raw(std::hint::black_box(&ct)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("crt", bits), &bits, |b, _| {
            b.iter(|| key.private_op_crt(std::hint::black_box(&ct)).unwrap());
        });
    }
    group.finish();
}

fn bench_mont_pow(c: &mut Criterion) {
    // One full-width exponentiation per modulus width: 4 limbs (RSA-512's
    // CRT halves, on the generic product), 8 (RSA-1024's CRT halves and
    // key-generation primes) and 16 (RSA-1024's public modulus).
    let mut group = c.benchmark_group("mont_pow");
    let mut rng = Rng64::new(8);
    for limbs in [4usize, 8, 16] {
        let mut full_width = |low_bit: u8| {
            let mut bytes = rng.gen_bytes(limbs * 8);
            bytes[0] |= 0x80;
            bytes[limbs * 8 - 1] |= low_bit;
            BigUint::from_be_bytes(&bytes)
        };
        let m = full_width(1);
        let base = full_width(0).rem(&m);
        let exp = full_width(0);
        let ctx = MontCtx::new(&m);
        group.bench_with_input(BenchmarkId::new("full_exp", limbs), &limbs, |b, _| {
            b.iter(|| ctx.pow(std::hint::black_box(&base), std::hint::black_box(&exp)));
        });
    }
    group.finish();
}

fn bench_prime_generation(c: &mut Criterion) {
    // Key generation's prime search at the prime sizes of RSA-256, RSA-512
    // and RSA-1024: a whole `gen_prime` (a fresh seed every iteration, so
    // the candidates vary as they do across keys), and one Miller–Rabin
    // round with a random base on a prime of each width, the unit the
    // search repeats.
    let mut group = c.benchmark_group("prime_generation");
    group.sample_size(10);
    for bits in [128usize, 256, 512] {
        group.bench_with_input(BenchmarkId::new("gen_prime", bits), &bits, |b, &bits| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                gen_prime(bits, &mut Rng64::new(seed))
            });
        });
    }
    let mut rng = Rng64::new(9);
    for limbs in [2usize, 4, 8] {
        let p = gen_prime(64 * limbs, &mut rng);
        let n_minus_1 = &p - &BigUint::one();
        let r = (0..).take_while(|&i| !n_minus_1.bit(i)).count();
        let d = n_minus_1.shr_bits(r);
        let base = BigUint::from_be_bytes(&rng.gen_bytes(limbs * 8)).rem(&p);
        let ctx = MontCtx::new(&p);
        group.bench_with_input(BenchmarkId::new("round", limbs), &limbs, |b, _| {
            b.iter(|| ctx.miller_rabin_round(std::hint::black_box(&base), &d, r));
        });
    }
    group.finish();
}

fn bench_mont_cache_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("mont_cache_ablation");
    let key = RsaPrivateKey::generate(1024, &mut Rng64::new(2));
    let ct = key
        .public_key()
        .encrypt_raw(&BigUint::from_u64(0xCAFE))
        .unwrap();
    // Cached: contexts built once, reused (RSA_FLAG_CACHE_PRIVATE set).
    group.bench_function("cached", |b| {
        let mut eng = CrtEngine::new(key.clone_secret(), true);
        eng.private_op(&ct).unwrap(); // warm the cache
        b.iter(|| eng.private_op(std::hint::black_box(&ct)).unwrap());
    });
    // Uncached: fresh contexts every op (the protected configuration).
    group.bench_function("uncached", |b| {
        let mut eng = CrtEngine::new(key.clone_secret(), false);
        b.iter(|| eng.private_op(std::hint::black_box(&ct)).unwrap());
    });
    group.finish();
}

fn bench_keygen_and_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa_key_lifecycle");
    group.sample_size(10);
    let key = RsaPrivateKey::generate(1024, &mut Rng64::new(3));
    group.bench_function("to_pem_1024", |b| b.iter(|| key.to_pem()));
    let pem = key.to_pem();
    group.bench_function("from_pem_1024", |b| {
        b.iter(|| RsaPrivateKey::from_pem(std::hint::black_box(&pem)).unwrap());
    });
    group.finish();
}

fn bench_key_derivation(c: &mut Criterion) {
    // What a server start pays for its key: a cold generation (a fresh seed
    // every iteration, so the prime search varies as it does across
    // configurations), against the memo hit every start and rotation of an
    // already-derived configuration reads (DESIGN.md §13).
    let mut group = c.benchmark_group("key_derivation");
    group.sample_size(10);
    for bits in [512usize, 1024] {
        group.bench_with_input(BenchmarkId::new("generate_cold", bits), &bits, |b, &bits| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                RsaPrivateKey::generate(bits, &mut Rng64::new(seed))
            });
        });
    }
    let cfg = ServerConfig::new(ProtectionLevel::None).with_key_bits(1024);
    drop(cfg.derive_key("openssh"));
    group.bench_function("derive_key_hit/1024", |b| b.iter(|| cfg.derive_key("openssh")));
    group.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_private_ops(&mut c);
    bench_mont_pow(&mut c);
    bench_prime_generation(&mut c);
    bench_mont_cache_ablation(&mut c);
    bench_keygen_and_codec(&mut c);
    bench_key_derivation(&mut c);
    bench_handshakes(&mut c);
}
