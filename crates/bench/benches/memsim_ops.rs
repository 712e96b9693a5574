//! Simulator microbenchmarks and the zeroing-policy ablation.
//!
//! `page_free_policy` is the cost side of the paper's kernel patch: how much
//! does clearing every freed page add to the allocator's free path? The
//! paper's answer at system level is "nothing measurable"; the microbench
//! shows the raw per-page cost that gets amortized away. Each page is
//! written before it is freed: memsim skips the write when clearing a page
//! that is already zero, so only a dirty page times the clear.
//!
//! `machine_setup/boot_64mb_kernel` is the boot every fault-sweep template
//! and every kernel-level matrix cell pays, and `boot_64mb_none` the same
//! boot under the stock policy, which clears nothing. `age_mix_64mb` is
//! the attacker matrix's background re-aging: half the free frames of a
//! machine a server ran on, cycled once. `kernel_clone` is the per-cell
//! cost of the fault and rotation sweeps: a fresh 64 MB clone of the boot
//! image against restoring a spare that just ran one fault-sweep cell's
//! workload.

use bench::{BatchSize, BenchmarkId, Criterion};
use harness::ExperimentConfig;
use keyguard::ProtectionLevel;
use memsim::{Kernel, KernelPolicy, MachineConfig, PAGE_SIZE};
use servers::{SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::cell::RefCell;

fn machine(policy: KernelPolicy) -> Kernel {
    Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(16 * 1024 * 1024)
            .with_policy(policy),
    )
}

fn bench_page_free_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_free_policy");
    for (name, policy) in [
        ("stock", KernelPolicy::stock()),
        ("zero_on_free", KernelPolicy::hardened()),
    ] {
        group.bench_with_input(BenchmarkId::new("alloc_free_64_pages", name), &policy, |b, p| {
            let mut k = machine(*p);
            let page = vec![0xA5u8; PAGE_SIZE];
            b.iter(|| {
                let frames = k.alloc_kernel_pages(64).unwrap();
                for &f in &frames {
                    k.write_kernel_page(f, 0, &page);
                }
                k.free_kernel_pages(&frames);
            });
        });
    }
    group.finish();
}

fn bench_fork_and_cow(c: &mut Criterion) {
    let mut group = c.benchmark_group("process_lifecycle");
    group.bench_function("fork_exit_cycle", |b| {
        let mut k = machine(KernelPolicy::stock());
        let parent = k.spawn();
        let buf = k.heap_alloc(parent, 16 * PAGE_SIZE).unwrap();
        k.write_bytes(parent, buf, &vec![7u8; 16 * PAGE_SIZE]).unwrap();
        b.iter(|| {
            let child = k.fork(parent).unwrap();
            k.exit(child).unwrap();
        });
    });
    group.bench_function("cow_break_one_page", |b| {
        let mut k = machine(KernelPolicy::stock());
        let parent = k.spawn();
        let buf = k.heap_alloc(parent, PAGE_SIZE).unwrap();
        k.write_bytes(parent, buf, &vec![9u8; PAGE_SIZE]).unwrap();
        b.iter(|| {
            let child = k.fork(parent).unwrap();
            // The write faults and duplicates the page.
            k.write_bytes(child, buf, b"x").unwrap();
            k.exit(child).unwrap();
        });
    });
    group.finish();
}

fn bench_heap_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("user_heap");
    group.bench_function("alloc_write_free_8k", |b| {
        let mut k = machine(KernelPolicy::stock());
        let pid = k.spawn();
        let payload = vec![3u8; 8192];
        b.iter(|| {
            let a = k.heap_alloc(pid, 8192).unwrap();
            k.write_bytes(pid, a, &payload).unwrap();
            k.heap_free(pid, a).unwrap();
        });
    });
    group.finish();
}

fn bench_aging(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_setup");
    group.sample_size(10);
    group.bench_function("age_16mb", |b| {
        b.iter(|| {
            let mut k = machine(KernelPolicy::stock());
            k.age_memory(&mut Rng64::new(1), 1.0)
        });
    });
    // The fault sweeps' 64 MB scale at the kernel level, where aging clears
    // every frame it frees.
    let cfg = ExperimentConfig::quick();
    group.bench_function("boot_64mb_kernel", |b| {
        b.iter(|| cfg.boot_machine(ProtectionLevel::Kernel, &mut Rng64::new(cfg.seed)));
    });
    group.bench_function("boot_64mb_none", |b| {
        b.iter(|| cfg.boot_machine(ProtectionLevel::None, &mut Rng64::new(cfg.seed)));
    });
    // Each sample restores a spare of the served machine and ages it; the
    // spare goes back into the slot, so no drop lands inside the timing.
    let level = ProtectionLevel::None;
    let mut served = cfg.boot_machine(level, &mut Rng64::new(cfg.seed));
    sweep_cell_workload(
        &mut served,
        ServerConfig::new(level).with_key_bits(cfg.key_bits),
    );
    let slot = RefCell::new(Some(served.clone()));
    group.bench_function("age_mix_64mb", |b| {
        b.iter_batched(
            || {
                let mut spare = slot.borrow_mut().take().unwrap();
                spare.clone_from(&served);
                spare
            },
            |mut spare| {
                spare.age_memory(&mut Rng64::new(1), 0.5);
                *slot.borrow_mut() = Some(spare);
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// One fault-sweep cell's unfaulted workload: start, two standing
/// connections, four transfer cycles, drain, stop.
fn sweep_cell_workload(kernel: &mut Kernel, server_cfg: ServerConfig) {
    let mut server = SshServer::start(kernel, server_cfg).unwrap();
    server.set_concurrency(kernel, 2).unwrap();
    server.pump(kernel, 4).unwrap();
    server.set_concurrency(kernel, 0).unwrap();
    server.stop(kernel).unwrap();
}

fn bench_kernel_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_clone");
    // The fault sweeps' 64 MB, RSA-512 scale, booted at the kernel level.
    let cfg = ExperimentConfig::quick();
    let level = ProtectionLevel::Kernel;
    let template = cfg.boot_machine(level, &mut Rng64::new(cfg.seed));
    let server_cfg = ServerConfig::new(level).with_key_bits(cfg.key_bits);
    group.bench_function("fresh_clone", |b| b.iter(|| template.clone()));
    // The spare lives in the slot between samples, so neither the workload
    // nor a drop lands inside the timed restore.
    let slot = RefCell::new(Some(template.clone()));
    group.bench_function("restore_spare", |b| {
        b.iter_batched(
            || {
                let mut spare = slot.borrow_mut().take().unwrap();
                sweep_cell_workload(&mut spare, server_cfg);
                spare
            },
            |mut spare| {
                spare.clone_from(&template);
                *slot.borrow_mut() = Some(spare);
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_page_free_policy(&mut c);
    bench_fork_and_cow(&mut c);
    bench_heap_churn(&mut c);
    bench_aging(&mut c);
    bench_kernel_clone(&mut c);
}
