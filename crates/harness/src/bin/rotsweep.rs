//! Fault enumeration over the key-rotation lifecycle: for every fallible
//! kernel operation between `rotate_key` and the post-rotation quiesce,
//! fail (or kill) exactly that operation — and, second-order, every sampled
//! `(j, k)` pair so the second fault lands inside the recovery from the
//! first — then scan for stray bytes of whichever epoch lost.
//!
//! ```text
//! cargo run --release -p harness --bin rotsweep -- [--paper|--quick|--test]
//!     [--smoke] [--server ssh|apache|both]
//!     [--level none|app|lib|kernel|integrated|shielded|all]
//!     [--mode fail|kill|both] [--stride N] [--pair-stride N]
//!     [--out DIR] [--threads N]
//! ```
//!
//! The crash-consistency invariant: after recovery the server is live on
//! exactly one epoch's key, and at the hardened levels (kernel, integrated,
//! shielded) not one byte of the *losing* epoch survives anywhere scanner-
//! visible. The unfaulted retire check additionally proves the retired key
//! is unreconstructable ([`keyscan::reconstruct`]) from a perfect image of
//! physical memory. The process exits nonzero on any violation, so the
//! sweep doubles as the CI gate on rotation.
//!
//! `--smoke` is the CI entry point: both servers at the hardened levels,
//! exhaustive first-order in both modes, sampled second-order pairs, and
//! the retire checks — on the tiny test configuration.

use harness::cli::{exit_on_violations, Args};
use harness::rotsweep::{
    level_guarantees_retired_key_gone, retire_check, rotation_sweep_on, RetireCheck,
};
use harness::report::{rotation_retire_dat, rotation_sweep_dat, write_dat};
use keyguard::ProtectionLevel;

/// The hardened levels the smoke run gates on — exactly the levels where
/// [`harness::rotsweep::level_guarantees_retired_key_gone`] promises zeroing.
const SMOKE_LEVELS: [ProtectionLevel; 3] = [
    ProtectionLevel::Kernel,
    ProtectionLevel::Integrated,
    ProtectionLevel::Shielded,
];

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let cfg = if smoke {
        harness::ExperimentConfig::test()
    } else {
        args.experiment_config()
    };
    let exec = args.executor();
    let out = args.out_dir();
    let kinds = args.servers();
    let levels = if smoke {
        SMOKE_LEVELS.to_vec()
    } else {
        args.levels("all")
    };
    let modes = args.modes();
    let stride = args.get_usize("stride", 1) as u64;
    let pair_stride = args.get_usize("pair-stride", 5) as u64;
    args.reject_unread();

    println!(
        "rotsweep: {} MB RAM, RSA-{}, stride {} (pairs {}), {} threads -> {}/",
        cfg.mem_bytes / (1024 * 1024),
        cfg.key_bits,
        stride,
        pair_stride,
        exec.threads(),
        out.display()
    );

    let mut violations = Vec::new();
    for &kind in &kinds {
        for &level in &levels {
            for &mode in &modes {
                for (order, stride) in [(1, stride), (2, pair_stride)] {
                    println!("[rotsweep] {kind} / {} / {mode} / order {order}", level.label());
                    let (report, timing) =
                        rotation_sweep_on(&exec, kind, level, mode, order, stride, &cfg)
                            .unwrap_or_else(|e| panic!("{kind}/{}: {e}", level.label()));
                    println!("  {timing}");
                    println!("  {}", report.summary());
                    let name = format!(
                        "rotsweep_{}_{}_{}_o{}.dat",
                        report.kind_label,
                        report.level.label(),
                        report.mode.label(),
                        report.order
                    );
                    write_dat(&out, &name, &rotation_sweep_dat(&report)).expect("write");
                    for cell in report.violations() {
                        let at = match cell.k2 {
                            Some(k2) => format!("ops ({}, {k2}) ({mode} mode, order 2)", cell.k),
                            None => format!("op {} ({mode} mode)", cell.k),
                        };
                        violations.push(format!(
                            "{kind}/{} {at} left {} copies of the losing epoch resident",
                            level.label(),
                            cell.loser_resident
                        ));
                    }
                }
            }
        }
    }

    // Unfaulted retirement forensics: the retired epoch must be pattern-
    // invisible *and* unreconstructable wherever zeroing is promised.
    let mut checks: Vec<RetireCheck> = Vec::new();
    for &kind in &kinds {
        for &level in &levels {
            println!("[rotsweep] {kind} / {} / retire check", level.label());
            let check = retire_check(kind, level, &cfg)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e}", level.label()));
            println!(
                "  {} resident, reconstructed: {}",
                check.old_resident, check.reconstructed
            );
            if level_guarantees_retired_key_gone(level) && !check.holds() {
                violations.push(format!("{kind}/{} retired key still recoverable", level.label()));
            }
            checks.push(check);
        }
    }
    write_dat(&out, "rotsweep_retire.dat", &rotation_retire_dat(&checks)).expect("write");

    exit_on_violations(
        "rotsweep",
        "rotation-invariant",
        &violations,
        "rotation invariant: HELD across every injected fault",
    );
}
