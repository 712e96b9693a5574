//! Scanner throughput — the §3.1 claim: the `scanmemory` module's linear
//! scan is O(n) and took ~5 s for 256 MB on 2007 hardware. This bench
//! measures our equivalent across memory sizes and pattern counts, compares
//! the skip-loop core against the naive per-offset oracle, and measures the
//! incremental dirty-frame scanner on a timeline-style workload.
//!
//! Every machine here is written from end to end with noise before the key
//! copies are planted: scans skip frames known to be zero, so a machine of
//! never-written frames would time the skip, not the scan.
//!
//! `cargo bench -p bench --bench scan_cost -- --smoke` runs a fixed smoke
//! measurement instead and writes machine-readable JSON (full-scan
//! bytes/sec, sharded and incremental-vs-full speedups, frames rescanned)
//! to `target/BENCH_scan.json`, where `scripts/ci.sh` reads its sharded-scan
//! floor. Each timing there is the median of [`SMOKE_REPEATS`] runs. The
//! committed `BENCH_scan.json` at the workspace root is a copy of one such
//! run, re-recorded on purpose when the scan path changes.

use bench::{BenchmarkId, Criterion, Throughput};
use keyscan::{IncrementalScanner, Scanner};
use memsim::{Kernel, MachineConfig, VAddr};
use rsa_repro::material::{KeyMaterial, Pattern};
use rsa_repro::RsaPrivateKey;
use simrng::Rng64;
use std::time::{Duration, Instant};

/// Timed repeats per `--smoke` measurement; the median is recorded.
const SMOKE_REPEATS: usize = 7;

/// A machine of `mb` MiB whose frames all hold written noise, apart from a
/// few hundred KiB of slack, plus eight planted key copies.
fn populated_machine(mb: usize) -> (Kernel, KeyMaterial) {
    const CHUNK: usize = 1 << 20;
    let mut k = Kernel::new(MachineConfig::small().with_mem_bytes(mb * 1024 * 1024));
    let key = RsaPrivateKey::generate(512, &mut Rng64::new(1));
    let material = KeyMaterial::from_key(&key);
    let mut rng = Rng64::new(3);
    let noise = k.spawn();
    let len = mb * 1024 * 1024 - 256 * 1024;
    let buf = k.heap_alloc(noise, len).expect("room for the noise");
    let mut chunk = vec![0u8; CHUNK];
    for at in (0..len).step_by(CHUNK) {
        let n = CHUNK.min(len - at);
        rng.fill_bytes(&mut chunk[..n]);
        k.write_bytes(noise, VAddr(buf.0 + at as u64), &chunk[..n])
            .expect("write noise");
    }
    // Plant a handful of copies so the scan does some real matching work.
    let pid = k.spawn();
    for i in 0..8 {
        let buf = k.heap_alloc(pid, 4096).unwrap();
        let bytes = if i % 2 == 0 {
            material.p_bytes()
        } else {
            material.d_bytes()
        };
        k.write_bytes(pid, buf, bytes).unwrap();
    }
    (k, material)
}

fn bench_scan_by_memory_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_memory_size");
    group.sample_size(10);
    for mb in [4usize, 16, 64] {
        let (k, material) = populated_machine(mb);
        let scanner = Scanner::from_material(&material);
        group.throughput(Throughput::Bytes((mb * 1024 * 1024) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(mb), &mb, |b, _| {
            b.iter(|| scanner.scan_kernel(std::hint::black_box(&k)).total());
        });
    }
    group.finish();
}

fn bench_scan_by_pattern_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_pattern_count");
    group.sample_size(10);
    let (k, material) = populated_machine(16);
    for n in [1usize, 4, 16] {
        let mut patterns: Vec<Pattern> =
            material.patterns().iter().map(Pattern::clone_secret).collect();
        let mut rng = Rng64::new(2);
        while patterns.len() < n {
            patterns.push(Pattern::new("filler", rng.gen_bytes(64)));
        }
        patterns.truncate(n);
        let scanner = Scanner::new(patterns);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| scanner.scan_kernel(std::hint::black_box(&k)).total());
        });
    }
    group.finish();
}

fn bench_match_cores(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_core");
    group.sample_size(10);
    let (k, material) = populated_machine(4);
    let scanner = Scanner::from_material(&material);
    let hay = k.phys().to_vec();
    group.throughput(Throughput::Bytes(hay.len() as u64));
    group.bench_function("swar_prefilter", |b| {
        b.iter(|| scanner.scan_bytes_swar(std::hint::black_box(&hay)).len());
    });
    group.bench_function("horspool_skip_loop", |b| {
        b.iter(|| scanner.scan_bytes_horspool(std::hint::black_box(&hay)).len());
    });
    group.bench_function("naive_per_offset", |b| {
        b.iter(|| scanner.scan_bytes_naive(std::hint::black_box(&hay)).len());
    });
    group.finish();
}

fn bench_sharded_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_sharded");
    group.sample_size(10);
    // One large kernel; the sweep is split *inside* the single machine.
    let (k, material) = populated_machine(64);
    let scanner = Scanner::from_material(&material);
    group.throughput(Throughput::Bytes(k.phys().len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let threaded = scanner.fork().with_threads(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| threaded.scan_kernel(std::hint::black_box(&k)).total());
        });
    }
    group.finish();
}

/// A timeline-shaped workload: per tick, a process dirties a few pages, then
/// memory is scanned — the harness's scan-dominated inner loop.
fn drive_ticks(
    mb: usize,
    ticks: usize,
    mut scan: impl FnMut(&Kernel),
) -> Duration {
    let (mut k, _material) = populated_machine(mb);
    let pid = k.spawn();
    let buf = k.heap_alloc(pid, 4 * 4096).expect("alloc");
    let start = Instant::now();
    for t in 0..ticks {
        k.write_bytes(pid, buf, &[t as u8; 3 * 4096]).expect("write");
        scan(&k);
    }
    start.elapsed()
}

fn bench_incremental_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_timeline");
    group.sample_size(10);
    let (_, material) = populated_machine(4);
    group.bench_function("full_per_tick", |b| {
        let scanner = Scanner::from_material(&material);
        b.iter(|| {
            drive_ticks(16, 8, |k| {
                std::hint::black_box(scanner.scan_kernel(k).total());
            })
        });
    });
    group.bench_function("incremental_per_tick", |b| {
        b.iter(|| {
            let mut inc = IncrementalScanner::new(Scanner::from_material(&material));
            drive_ticks(16, 8, |k| {
                std::hint::black_box(inc.scan(k).total());
            })
        });
    });
    group.finish();
}

/// Median wall clock of [`SMOKE_REPEATS`] runs of one closure.
fn median_time(mut f: impl FnMut()) -> Duration {
    let mut walls: Vec<Duration> = (0..SMOKE_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    walls.sort_unstable();
    walls[SMOKE_REPEATS / 2]
}

/// Fixed smoke measurement for CI: full-scan throughput, the SWAR-vs-Horspool
/// match-core speedup, the intra-kernel sharded-scan speedup per thread
/// count, and the incremental-vs-full timeline speedup, written to
/// `target/BENCH_scan.json`.
fn smoke() {
    const MB: usize = 32;
    const TICKS: usize = 24;
    let (k, material) = populated_machine(MB);
    let scanner = Scanner::from_material(&material);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Full-scan throughput over physical memory (the scanner dispatches
    // the SWAR prefilter core).
    let serial_wall = median_time(|| {
        std::hint::black_box(scanner.scan_kernel(&k).total());
    });
    let bytes = (MB * 1024 * 1024) as f64;
    let full_bytes_per_sec = bytes / serial_wall.as_secs_f64().max(1e-9);

    // Match cores head to head on the same physical image.
    let swar_wall = median_time(|| {
        std::hint::black_box(scanner.scan_bytes_swar(k.phys()).len());
    });
    let horspool_wall = median_time(|| {
        std::hint::black_box(scanner.scan_bytes_horspool(k.phys()).len());
    });
    let swar_bytes_per_sec = bytes / swar_wall.as_secs_f64().max(1e-9);
    let horspool_bytes_per_sec = bytes / horspool_wall.as_secs_f64().max(1e-9);
    let swar_speedup = horspool_wall.as_secs_f64() / swar_wall.as_secs_f64().max(1e-9);

    // Intra-kernel sharding: one machine's sweep split across N threads.
    let mut sharded = Vec::new(); // (threads, speedup vs serial)
    for threads in [2usize, 4, 8] {
        let threaded = scanner.fork().with_threads(threads);
        let wall = median_time(|| {
            std::hint::black_box(threaded.scan_kernel(&k).total());
        });
        sharded.push((threads, serial_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9)));
    }
    let sharded_speedup_4 = sharded
        .iter()
        .find(|&&(t, _)| t == 4)
        .map_or(1.0, |&(_, s)| s);

    // Scan-dominated timeline: identical workload, full vs incremental.
    let full_wall = drive_ticks(MB, TICKS, |k| {
        std::hint::black_box(scanner.scan_kernel(k).total());
    });
    let mut inc = IncrementalScanner::new(Scanner::from_material(&material));
    let inc_wall = drive_ticks(MB, TICKS, |k| {
        std::hint::black_box(inc.scan(k).total());
    });
    let stats = inc.stats();
    let speedup = full_wall.as_secs_f64() / inc_wall.as_secs_f64().max(1e-9);

    let json = format!(
        "{{\n  \"mem_mb\": {MB},\n  \"ticks\": {TICKS},\n  \"cores\": {cores},\n  \"full_scan_bytes_per_sec\": {full_bytes_per_sec:.0},\n  \"swar_bytes_per_sec\": {swar_bytes_per_sec:.0},\n  \"horspool_bytes_per_sec\": {horspool_bytes_per_sec:.0},\n  \"swar_filter_speedup\": {swar_speedup:.2},\n  \"sharded_scan_speedup_2\": {:.2},\n  \"sharded_scan_speedup_4\": {sharded_speedup_4:.2},\n  \"sharded_scan_speedup_8\": {:.2},\n  \"sharded_scan_speedup\": {sharded_speedup_4:.2},\n  \"timeline_full_wall_s\": {:.6},\n  \"timeline_incremental_wall_s\": {:.6},\n  \"incremental_speedup\": {speedup:.2},\n  \"scans\": {},\n  \"frames_rescanned\": {},\n  \"frames_total\": {},\n  \"rescan_fraction\": {:.6}\n}}\n",
        sharded[0].1,
        sharded[2].1,
        full_wall.as_secs_f64(),
        inc_wall.as_secs_f64(),
        stats.scans,
        stats.frames_rescanned,
        stats.frames_total,
        stats.rescan_fraction(),
    );
    // Cargo runs benches with the package dir as cwd; anchor the artifact
    // in the workspace's build directory, where scripts/ci.sh reads it, so
    // a smoke run never rewrites a tracked file.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).expect("create target/");
    std::fs::write(format!("{dir}/BENCH_scan.json"), &json).expect("write BENCH_scan.json");
    print!("{json}");
    println!(
        "smoke: full scan {:.0} MB/s ({cores} core(s)); swar/horspool {swar_speedup:.2}x; \
         sharded x4 {sharded_speedup_4:.2}x; timeline speedup {speedup:.2}x ({} of {} frames rescanned)",
        full_bytes_per_sec / (1024.0 * 1024.0),
        stats.frames_rescanned,
        stats.frames_total,
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut c = Criterion::from_args();
    bench_scan_by_memory_size(&mut c);
    bench_scan_by_pattern_count(&mut c);
    bench_match_cores(&mut c);
    bench_sharded_scan(&mut c);
    bench_incremental_timeline(&mut c);
}
