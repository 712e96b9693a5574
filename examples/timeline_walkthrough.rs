//! Timeline walkthrough: reruns the paper's Section 3.2 experiment (Figure
//! 5/6) in miniature and prints the per-tick memory picture as ASCII.
//!
//! ```text
//! cargo run --release -p harness --example timeline_walkthrough [-- --level integrated]
//! ```

use harness::cli::Args;
use harness::report::timeline_ascii;
use harness::timeline::{run_timeline, Schedule};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;

fn main() {
    let args = Args::parse();
    let level = args
        .get("level")
        .map(|l| ProtectionLevel::from_label(l).expect("unknown --level"))
        .unwrap_or(ProtectionLevel::None);
    let cfg = ExperimentConfig::quick();
    let schedule = Schedule::paper();

    for kind in ServerKind::ALL {
        let (tl, _) = run_timeline(kind, level, &cfg, &schedule, None).expect("timeline runs");
        println!("{}", timeline_ascii(&tl, 50));
        println!(
            "events: t=2 server starts | t=6 8 clients | t=10 16 clients | \
             t=14 8 clients | t=18 idle | t=22 server stops\n"
        );
    }
}
