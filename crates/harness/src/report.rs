//! Rendering experiment data: gnuplot-style `.dat` series (the same format
//! the paper's plot scripts consumed), ASCII summaries, and tiny terminal
//! charts.

use crate::attack_sweep::SweepPoint;
use crate::perf::{percentile, PerfResult};
use crate::timeline::Timeline;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders an ext2 sweep as a gnuplot splot-style grid:
/// `connections directories avg_keys success_rate` per line, blank line
/// between connection groups (the format of Figures 1–2).
#[must_use]
pub fn sweep_grid_dat(points: &[SweepPoint]) -> String {
    let mut out = String::from("# connections directories avg_keys success_rate\n");
    let mut last_conn = None;
    for p in points {
        if last_conn.is_some_and(|c| c != p.connections) {
            out.push('\n');
        }
        last_conn = Some(p.connections);
        let _ = writeln!(
            out,
            "{} {} {:.3} {:.3}",
            p.connections, p.directories, p.avg_keys_found, p.success_rate
        );
    }
    out
}

/// Renders a tty sweep as `connections avg_keys success_rate` lines (the
/// format of Figures 3–4, 7, 17–18).
#[must_use]
pub fn sweep_line_dat(points: &[SweepPoint]) -> String {
    let mut out = String::from("# connections avg_keys success_rate avg_disclosed_bytes\n");
    for p in points {
        let _ = writeln!(
            out,
            "{} {:.3} {:.3} {:.0}",
            p.connections, p.avg_keys_found, p.success_rate, p.avg_disclosed_bytes
        );
    }
    out
}

/// Renders a timeline's per-tick counts: `t allocated unallocated total
/// swap` (the bar-chart data of Figures 5b, 6b, 10, 12, …, plus the swap
/// column marking when copies became disk-persistent).
#[must_use]
pub fn timeline_counts_dat(tl: &Timeline) -> String {
    let mut out = String::from("# t allocated unallocated total swap\n");
    for p in &tl.points {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            p.t,
            p.allocated,
            p.unallocated,
            p.total(),
            p.swap_hits
        );
    }
    out
}

/// Renders a timeline's copy locations: `t offset allocated(1/0)` scatter
/// rows (the data of Figures 5a, 6a, 9, 11, …).
#[must_use]
pub fn timeline_locations_dat(tl: &Timeline) -> String {
    let mut out = String::from("# t phys_offset allocated\n");
    for p in &tl.points {
        for &(off, alloc) in &p.locations {
            let _ = writeln!(out, "{} {} {}", p.t, off, u8::from(alloc));
        }
    }
    out
}

/// An ASCII bar chart of a timeline (counts per tick), with `#` for
/// allocated copies and `+` for unallocated ones.
#[must_use]
pub fn timeline_ascii(tl: &Timeline, width: usize) -> String {
    let peak = tl.peak_total().max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} / level={} — key copies per tick (# allocated, + unallocated, peak={})",
        tl.kind_label,
        tl.level,
        tl.peak_total()
    );
    for p in &tl.points {
        let a = p.allocated * width / peak;
        let u = p.unallocated * width / peak;
        let _ = writeln!(
            out,
            "t={:>2} |{}{}{} {:>3}a {:>3}u",
            p.t,
            "#".repeat(a),
            "+".repeat(u),
            " ".repeat(width.saturating_sub(a + u)),
            p.allocated,
            p.unallocated
        );
    }
    let shed = tl.shed;
    let _ = writeln!(
        out,
        "shed: {} failed forks, {} dropped connections, {} abandoned handshakes; retries: {} ({} recovered)",
        shed.failed_forks, shed.shed_connections, shed.shed_handshakes, shed.retries, shed.recovered
    );
    out
}

/// Renders a fault sweep as `k injected kills allocated unallocated handshakes shed_total`
/// lines plus a trailing verdict comment — the error-path analogue of the
/// sweep `.dat` files.
#[must_use]
pub fn fault_sweep_dat(report: &crate::faultsweep::FaultSweepReport) -> String {
    let mut out = format!(
        "# {}\n# k injected kills allocated unallocated handshakes shed_total\n",
        report.summary()
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {}",
            c.k, c.injected, c.kills, c.allocated, c.unallocated, c.handshakes, c.shed.total()
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        out.push_str("# no-leak invariant: HELD\n");
    } else {
        let _ = writeln!(
            out,
            "# no-leak invariant: VIOLATED at k = {:?}",
            violations.iter().map(|c| c.k).collect::<Vec<_>>()
        );
    }
    out
}

/// Renders an attacker matrix as `level attacker compromised reps defeated
/// expected` rows, one blank-separated group per protection level, plus a
/// trailing verdict comment in the sweep-file idiom.
#[must_use]
pub fn attacker_matrix_dat(report: &crate::attack_matrix::AttackerMatrixReport) -> String {
    let mut out = format!(
        "# {}\n# level attacker compromised reps defeated expected\n",
        report.summary()
    );
    let mut last_level = None;
    for c in &report.cells {
        if last_level.is_some_and(|l| l != c.level) {
            out.push('\n');
        }
        last_level = Some(c.level);
        let _ = writeln!(
            out,
            "{} {} {} {} {} {}",
            c.level.label(),
            c.attacker.label(),
            c.compromised,
            c.repetitions,
            u8::from(c.defeated()),
            u8::from(c.attacker.expected_to_defeat(c.level))
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        out.push_str("# expectation table: HELD\n");
    } else {
        let _ = writeln!(
            out,
            "# expectation table: VIOLATED at {:?}",
            violations
                .iter()
                .map(|c| format!("{}/{}", c.level.label(), c.attacker.label()))
                .collect::<Vec<_>>()
        );
    }
    out
}

/// Renders a rotation fault sweep as
/// `j k injected kills epoch winner loser handshakes shed_total retries`
/// lines plus a trailing verdict comment. `j`/`k` are the targeted op
/// indices (`k` is `-` for first-order cells); `epoch` is where recovery
/// landed (0 = rolled back, 1 = completed); `loser` is the scanner-visible
/// byte-pattern count of whichever key the recovered state must *not*
/// contain — the invariant is `loser == 0` at hardened levels.
#[must_use]
pub fn rotation_sweep_dat(report: &crate::rotsweep::RotationSweepReport) -> String {
    let mut out = format!(
        "# {}\n# j k injected kills epoch winner loser handshakes shed_total retries\n",
        report.summary()
    );
    for c in &report.cells {
        let second = c.k2.map_or_else(|| "-".to_string(), |k2| k2.to_string());
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {} {}",
            c.k,
            second,
            c.injected,
            c.kills,
            c.epoch,
            c.winner_resident,
            c.loser_resident,
            c.handshakes,
            c.shed.total(),
            c.shed.retries
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        out.push_str("# rotation invariant: HELD\n");
    } else {
        let _ = writeln!(
            out,
            "# rotation invariant: VIOLATED at (j, k) = {:?}",
            violations.iter().map(|c| (c.k, c.k2)).collect::<Vec<_>>()
        );
    }
    out
}

/// Renders retire checks as `server level old_resident reconstructed holds`
/// rows plus the HELD/VIOLATED verdict over the hardened levels.
#[must_use]
pub fn rotation_retire_dat(checks: &[crate::rotsweep::RetireCheck]) -> String {
    let mut out = String::from("# server level old_resident reconstructed holds\n");
    let mut violated = Vec::new();
    for c in checks {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            c.kind_label,
            c.level.label(),
            c.old_resident,
            u8::from(c.reconstructed),
            u8::from(c.holds())
        );
        if crate::rotsweep::level_guarantees_retired_key_gone(c.level) && !c.holds() {
            violated.push(format!("{}/{}", c.kind_label, c.level.label()));
        }
    }
    if violated.is_empty() {
        out.push_str("# rotation invariant: HELD\n");
    } else {
        let _ = writeln!(out, "# rotation invariant: VIOLATED at {violated:?}");
    }
    out
}

/// A two-column comparison table of perf results (the bar pairs of Figures
/// 8, 19, 20) over `[none, integrated]` repetition pairs: per metric, each
/// level's median over the repetitions, and the median and quartiles of
/// the per-repetition delta, which compares runs that shared a machine, a
/// key and a moment of the host.
///
/// # Panics
///
/// Panics when `pairs` is empty.
#[must_use]
pub fn perf_table(pairs: &[[PerfResult; 2]]) -> String {
    type Metric = fn(&PerfResult) -> f64;
    let metrics: [(&str, Metric); 6] = [
        ("transaction rate /s", |r| r.transaction_rate),
        ("throughput Mbit/s", |r| r.throughput_mbps),
        ("response time ms", |r| r.response_secs * 1e3),
        ("latency p50 ms", |r| r.response_p50 * 1e3),
        ("latency p95 ms", |r| r.response_p95 * 1e3),
        ("concurrency", |r| r.concurrency),
    ];
    let [before, after] = pairs[0].map(|r| r.level.label());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} repetitions, levels alternating first: medians, and the per-repetition delta% [q1, q3]",
        pairs.len()
    );
    let _ = writeln!(
        out,
        "{:<22} {before:>14} {after:>14} {:>9}",
        "metric", "delta%"
    );
    for (name, metric) in metrics {
        let median = |side: usize| {
            percentile(&mut pairs.iter().map(|p| metric(&p[side])).collect::<Vec<_>>(), 50.0)
        };
        let (b, a) = (median(0), median(1));
        let mut deltas: Vec<f64> = pairs
            .iter()
            .map(|[b, a]| {
                let (b, a) = (metric(b), metric(a));
                if b == 0.0 {
                    0.0
                } else {
                    (a - b) / b * 100.0
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "{name:<22} {b:>14.3} {a:>14.3} {:>+8.1}% [{:+.1}, {:+.1}]",
            percentile(&mut deltas, 50.0),
            percentile(&mut deltas, 25.0),
            percentile(&mut deltas, 75.0)
        );
    }
    out
}

/// Renders a scenario outcome as a stable, diff-friendly golden summary:
/// one `tick` row per tick (counts plus an FNV-1a checksum of the exact
/// copy locations, so bit-level drift fails the snapshot without checking
/// in megabytes of scatter data) and one `attack` row per attack event.
///
/// Used by the golden snapshot tests under `crates/harness/tests/golden/`.
#[must_use]
pub fn scenario_golden(outcome: &crate::scenario::ScenarioOutcome) -> String {
    let tl = &outcome.timeline;
    let mut out = String::new();
    let _ = writeln!(out, "server {} level {}", tl.kind_label, tl.level.label());
    for p in &tl.points {
        let mut fnv: u64 = 0xCBF2_9CE4_8422_2325;
        for &(off, alloc) in &p.locations {
            for byte in off.to_le_bytes().into_iter().chain([u8::from(alloc)]) {
                fnv ^= u64::from(byte);
                fnv = fnv.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let _ = writeln!(
            out,
            "tick {:>2} allocated {:>3} unallocated {:>3} swap {:>3} locations {:016x}",
            p.t, p.allocated, p.unallocated, p.swap_hits, fnv
        );
    }
    for a in &outcome.attacks {
        let _ = writeln!(
            out,
            "attack t={} kind={} keys={} succeeded={} disclosed={}",
            a.t, a.kind, a.keys_found, a.succeeded, a.disclosed_bytes
        );
    }
    let shed = tl.shed;
    let _ = writeln!(
        out,
        "shed forks={} dropped={} abandoned={} retries={} recovered={}",
        shed.failed_forks, shed.shed_connections, shed.shed_handshakes, shed.retries, shed.recovered
    );
    out
}

/// Writes a string to `dir/name`, creating `dir` if needed.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_dat(dir: &Path, name: &str, contents: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelinePoint;
    use keyguard::ProtectionLevel;

    fn sample_sweep() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                connections: 50,
                directories: 1000,
                avg_keys_found: 2.5,
                success_rate: 0.9,
                avg_disclosed_bytes: 4_072_000.0,
            },
            SweepPoint {
                connections: 100,
                directories: 1000,
                avg_keys_found: 4.0,
                success_rate: 1.0,
                avg_disclosed_bytes: 4_072_000.0,
            },
        ]
    }

    fn sample_timeline() -> Timeline {
        Timeline {
            kind_label: "openssh",
            level: ProtectionLevel::None,
            points: vec![
                TimelinePoint {
                    t: 0,
                    allocated: 0,
                    unallocated: 0,
                    locations: vec![],
                    swap_hits: 0,
                },
                TimelinePoint {
                    t: 1,
                    allocated: 3,
                    unallocated: 2,
                    locations: vec![(4096, true), (8192, false)],
                    swap_hits: 1,
                },
            ],
            shed: servers::SheddingStats::default(),
            scan: keyscan::ScanStats::default(),
        }
    }

    #[test]
    fn grid_dat_separates_connection_groups() {
        let dat = sweep_grid_dat(&sample_sweep());
        assert!(dat.contains("50 1000 2.500 0.900"));
        assert!(dat.contains("\n\n100 1000"));
        assert!(dat.starts_with("# connections"));
    }

    #[test]
    fn line_dat_rows() {
        let dat = sweep_line_dat(&sample_sweep());
        assert!(dat.contains("100 4.000 1.000"));
        assert_eq!(dat.lines().count(), 3);
    }

    #[test]
    fn timeline_dats() {
        let tl = sample_timeline();
        let counts = timeline_counts_dat(&tl);
        assert!(counts.contains("1 3 2 5 1"), "{counts}");
        assert!(counts.starts_with("# t allocated unallocated total swap\n"));
        let locs = timeline_locations_dat(&tl);
        assert!(locs.contains("1 4096 1"));
        assert!(locs.contains("1 8192 0"));
    }

    #[test]
    fn ascii_chart_renders_every_tick() {
        let tl = sample_timeline();
        let chart = timeline_ascii(&tl, 20);
        assert!(chart.contains("t= 0"));
        assert!(chart.contains("t= 1"));
        assert!(chart.contains('#'));
        assert!(chart.contains('+'));
        assert!(chart.contains("shed: 0 failed forks"));
    }

    #[test]
    fn ascii_chart_surfaces_shedding() {
        let mut tl = sample_timeline();
        tl.shed = servers::SheddingStats {
            failed_forks: 4,
            shed_connections: 2,
            shed_handshakes: 1,
            retries: 3,
            recovered: 2,
        };
        let chart = timeline_ascii(&tl, 20);
        assert!(
            chart.contains(
                "shed: 4 failed forks, 2 dropped connections, 1 abandoned handshakes; retries: 3 (2 recovered)"
            ),
            "{chart}"
        );
    }

    #[test]
    fn rotation_dat_renders_cells_and_verdict() {
        use crate::faultsweep::FaultMode;
        use crate::rotsweep::{RotationCell, RotationSweepReport};
        let cell = RotationCell {
            k: 40,
            k2: None,
            injected: 1,
            kills: 0,
            error: Some("out of physical memory".to_string()),
            epoch: 0,
            winner_resident: 6,
            loser_resident: 0,
            handshakes: 4,
            shed: servers::SheddingStats {
                retries: 2,
                ..Default::default()
            },
        };
        let mut report = RotationSweepReport {
            kind_label: "openssh",
            level: ProtectionLevel::Integrated,
            mode: FaultMode::Fail,
            order: 1,
            start: 40,
            end: 41,
            stride: 1,
            cells: vec![cell],
            scan: keyscan::ScanStats::default(),
        };
        let dat = rotation_sweep_dat(&report);
        assert!(dat.contains("40 - 1 0 0 6 0 4 0 2"), "{dat}");
        assert!(dat.contains("rotation invariant: HELD"), "{dat}");

        report.cells[0].k2 = Some(55);
        report.cells[0].loser_resident = 3;
        report.order = 2;
        let dat = rotation_sweep_dat(&report);
        assert!(dat.contains("40 55 1 0 0 6 3 4 0 2"), "{dat}");
        assert!(dat.contains("VIOLATED at (j, k) = [(40, Some(55))]"), "{dat}");
    }

    #[test]
    fn retire_dat_gates_verdict_on_hardened_levels() {
        use crate::rotsweep::RetireCheck;
        let clean = RetireCheck {
            kind_label: "openssh",
            level: ProtectionLevel::Shielded,
            old_resident: 0,
            reconstructed: false,
        };
        let leaky_stock = RetireCheck {
            kind_label: "openssh",
            level: ProtectionLevel::None,
            old_resident: 7,
            reconstructed: true,
        };
        let dat = rotation_retire_dat(&[clean, leaky_stock]);
        assert!(dat.contains("openssh shielded 0 0 1"), "{dat}");
        // Stock-kernel residue is expected and does not trip the verdict.
        assert!(dat.contains("openssh none 7 1 0"), "{dat}");
        assert!(dat.contains("rotation invariant: HELD"), "{dat}");

        let leaky_hardened = RetireCheck {
            kind_label: "apache",
            level: ProtectionLevel::Kernel,
            old_resident: 1,
            reconstructed: false,
        };
        let dat = rotation_retire_dat(&[leaky_hardened]);
        assert!(dat.contains("VIOLATED at [\"apache/kernel\"]"), "{dat}");
    }

    #[test]
    fn fault_dat_renders_cells_and_verdict() {
        use crate::faultsweep::{FaultCell, FaultMode, FaultSweepReport};
        let mut report = FaultSweepReport {
            kind_label: "ssh",
            level: ProtectionLevel::Kernel,
            mode: FaultMode::Fail,
            start: 10,
            end: 12,
            stride: 1,
            cells: vec![FaultCell {
                k: 10,
                injected: 1,
                kills: 0,
                error: None,
                allocated: 2,
                unallocated: 0,
                handshakes: 3,
                shed: servers::SheddingStats::default(),
            }],
            scan: keyscan::ScanStats::default(),
        };
        let dat = fault_sweep_dat(&report);
        assert!(dat.contains("10 1 0 2 0 3 0"), "{dat}");
        assert!(dat.contains("invariant: HELD"), "{dat}");

        report.cells[0].unallocated = 5;
        let dat = fault_sweep_dat(&report);
        assert!(dat.contains("VIOLATED at k = [10]"), "{dat}");
    }

    #[test]
    fn attacker_matrix_dat_renders_cells_and_verdict() {
        use crate::attack_matrix::{AttackerClass, AttackerMatrixReport, MatrixCell};
        let mut report = AttackerMatrixReport {
            kind_label: "ssh",
            decay_rate: 0.02,
            cells: vec![
                MatrixCell {
                    level: ProtectionLevel::Integrated,
                    attacker: AttackerClass::ColdBoot,
                    compromised: 3,
                    repetitions: 3,
                    as_expected: true,
                },
                MatrixCell {
                    level: ProtectionLevel::Shielded,
                    attacker: AttackerClass::ColdBoot,
                    compromised: 0,
                    repetitions: 3,
                    as_expected: true,
                },
            ],
        };
        let dat = attacker_matrix_dat(&report);
        assert!(dat.contains("integrated cold-boot 3 3 1 1"), "{dat}");
        assert!(dat.contains("\n\nshielded cold-boot 0 3 0 0"), "{dat}");
        assert!(dat.contains("expectation table: HELD"), "{dat}");

        report.cells[1].compromised = 1;
        report.cells[1].as_expected = false;
        let dat = attacker_matrix_dat(&report);
        assert!(
            dat.contains("expectation table: VIOLATED at [\"shielded/cold-boot\"]"),
            "{dat}"
        );
    }

    #[test]
    fn perf_table_has_all_metrics() {
        let r = PerfResult {
            level: ProtectionLevel::None,
            transactions: 100,
            bytes: 1_000_000,
            elapsed_secs: 2.0,
            transaction_rate: 50.0,
            throughput_mbps: 4.0,
            response_secs: 0.02,
            response_p50: 0.018,
            response_p95: 0.04,
            concurrency: 20.0,
        };
        let table = perf_table(&[[r, r]]);
        assert!(table.contains("transaction rate"));
        assert!(table.contains("throughput"));
        assert!(table.contains("response time"));
        assert!(table.contains("+0.0%"));
    }

    #[test]
    fn perf_table_deltas_are_paired() {
        let run = |level, transaction_rate| PerfResult {
            level,
            transactions: 100,
            bytes: 1_000_000,
            elapsed_secs: 2.0,
            transaction_rate,
            throughput_mbps: 4.0,
            response_secs: 0.02,
            response_p50: 0.018,
            response_p95: 0.04,
            concurrency: 20.0,
        };
        let pair = |before, after| {
            [
                run(ProtectionLevel::None, before),
                run(ProtectionLevel::Integrated, after),
            ]
        };
        // The medians 150 and 160 would read +6.7%; the repetitions read
        // +60%, -5% and -6.7%.
        let table = perf_table(&[pair(100.0, 160.0), pair(200.0, 190.0), pair(150.0, 140.0)]);
        assert!(table.starts_with("3 repetitions"), "{table}");
        assert!(table.contains("integrated"), "{table}");
        let rate = table
            .lines()
            .find(|l| l.starts_with("transaction rate"))
            .unwrap();
        assert!(
            rate.ends_with(" 150.000        160.000     -5.0% [-6.7, +60.0]"),
            "{rate}"
        );
    }

    #[test]
    fn write_dat_creates_directories() {
        let dir = std::env::temp_dir().join("memdisclosure_repro_test_dat");
        let _ = std::fs::remove_dir_all(&dir);
        write_dat(&dir, "x.dat", "hello\n").unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("x.dat")).unwrap(), "hello\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
