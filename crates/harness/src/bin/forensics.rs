//! Memory forensics walkthrough: run a workload, then print the
//! `scanmemory`-style `/proc` report plus an annotated hexdump around each
//! key copy — what the paper's authors saw when they read `/proc/sshmem`.
//!
//! ```text
//! cargo run --release -p harness --bin forensics -- [--test|--quick]
//!     [--server ssh|apache] [--level L] [--context 32] [--entropy]
//! ```

use harness::cli::Args;
use harness::ServerKind;
use keyguard::ProtectionLevel;
use keyscan::{EntropyScanner, Scanner};
use memsim::Kernel;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

fn main() {
    let args = Args::parse();
    let cfg = args.experiment_config();
    let kind = args
        .get("server")
        .and_then(ServerKind::from_label)
        .unwrap_or(ServerKind::Ssh);
    let level = args
        .get("level")
        .map(|l| ProtectionLevel::from_label(l).expect("unknown --level"))
        .unwrap_or(ProtectionLevel::None);
    let context = args.get_usize("context", 16);
    let entropy = args.has("entropy");
    args.reject_unread();

    let mut rng = Rng64::new(cfg.seed);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    let server_cfg = ServerConfig::new(level).with_key_bits(cfg.key_bits);
    let scanner = match kind {
        ServerKind::Ssh => {
            let mut s = SshServer::start(&mut kernel, server_cfg).expect("start");
            s.set_concurrency(&mut kernel, 8).expect("traffic");
            s.pump(&mut kernel, 16).expect("churn");
            Scanner::from_material(s.material())
        }
        ServerKind::Apache => {
            let mut s = ApacheServer::start(&mut kernel, server_cfg).expect("start");
            s.set_concurrency(&mut kernel, 12).expect("traffic");
            s.pump(&mut kernel, 24).expect("churn");
            Scanner::from_material(s.material())
        }
    };

    let report = scanner.scan_kernel(&kernel);
    println!("== /proc/{}mem ==", kind.label());
    // keylint: allow(S004) -- forensic demo: the report renders hit
    // offsets and disclosed simulated memory; displaying it is this
    // binary's entire purpose
    print!("{}", scanner.proc_report(&report));

    println!("\n== hexdump context ({context} bytes either side) ==");
    for hit in report.hits().iter().take(12) {
        println!(
            "\n[{}] at physical 0x{:08x} ({}, {}):",
            hit.name,
            hit.offset,
            if hit.allocated { "allocated" } else { "unallocated" },
            match hit.owners.len() {
                0 => "no owner".to_string(),
                n => format!("{n} owner(s)"),
            }
        );
        hexdump(&kernel, hit.offset.saturating_sub(context), context * 2 + 32);
    }
    if report.total() > 12 {
        println!("\n… and {} more copies", report.total() - 12);
    }

    if entropy {
        println!("\n== entropy candidates (no key knowledge) ==");
        let hunter = EntropyScanner::new(64, 5.5);
        let regions = hunter.scan(kernel.phys());
        println!("{} high-entropy regions flagged", regions.len());
        for r in regions.iter().take(10) {
            println!(
                "  0x{:08x}..0x{:08x}  {:.2} bits/byte",
                r.start,
                r.start + r.len,
                r.bits_per_byte
            );
        }
    }
}

fn hexdump(kernel: &Kernel, start: usize, len: usize) {
    let phys = kernel.phys();
    let end = (start + len).min(phys.len());
    for row_start in (start..end).step_by(16) {
        let row_end = (row_start + 16).min(end);
        let bytes = &phys[row_start..row_end];
        let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = bytes
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        println!("  {row_start:08x}  {:<47}  |{ascii}|", hex.join(" "));
    }
}
