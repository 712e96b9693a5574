//! The timeline experiment of Section 3.2 / 5.3 / 6.3: scan memory at every
//! tick of the paper's 29-step schedule and record where key copies live.
//!
//! Regenerates Figures 5, 6 (unprotected), 9–16 (OpenSSH × four protection
//! levels) and 21–28 (Apache × four levels).

use crate::exec::{ExecReport, Executor};
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, ScanStats, Scanner};
use memsim::{FaultPlan, SimResult};
use rsa_repro::material::{KeyMaterial, Pattern};
use servers::{ApacheServer, SecureServer, ServerConfig, SheddingStats, SshServer};
use simrng::Rng64;
use std::time::{Duration, Instant};

/// The paper's schedule, in simulation ticks (1 tick = 2 minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Tick at which the server starts.
    pub start_server: usize,
    /// Tick at which the first client begins (8 concurrent transfers).
    pub start_traffic: usize,
    /// Tick at which the second client joins (16 concurrent).
    pub more_traffic: usize,
    /// Tick at which the first client stops (back to 8).
    pub less_traffic: usize,
    /// Tick at which all traffic ceases.
    pub stop_traffic: usize,
    /// Tick at which the server stops.
    pub stop_server: usize,
    /// Final tick (exclusive end of the run).
    pub end: usize,
    /// Completed transfers per concurrent connection per tick (each scp
    /// transfer lasted ~4 s; a 2-minute tick completes ~30 per slot — scaled
    /// down by default to keep runs fast, same shape).
    pub churn_per_slot: usize,
    /// Rekey the live server every this many ticks after it starts
    /// (`rotate every N ticks`); `None` reproduces the paper's static-key
    /// runs exactly. Beyond the paper: bounds how *long* a key stays
    /// resident, where the protection levels bound *where*.
    pub rotate_every: Option<usize>,
}

impl Schedule {
    /// The schedule from Sections 3.2/5.3: events at t = 2, 6, 10, 14, 18,
    /// 22, end at 29.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            start_server: 2,
            start_traffic: 6,
            more_traffic: 10,
            less_traffic: 14,
            stop_traffic: 18,
            stop_server: 22,
            end: 29,
            churn_per_slot: 4,
            rotate_every: None,
        }
    }

    /// Adds a rotation cadence: the server rekeys every `n` ticks while it
    /// is up (the first rotation fires `n` ticks after `start_server`).
    ///
    /// # Panics
    ///
    /// If `n` is zero.
    #[must_use]
    pub fn with_rotation(mut self, n: usize) -> Self {
        assert!(n > 0, "rotation cadence must be positive");
        self.rotate_every = Some(n);
        self
    }

    /// Whether the server rekeys at the start of tick `t`.
    #[must_use]
    pub fn rotates_at(&self, t: usize) -> bool {
        self.rotate_every.is_some_and(|n| {
            t > self.start_server && t < self.stop_server && (t - self.start_server) % n == 0
        })
    }

    /// Number of rotations the schedule fires over the whole run.
    #[must_use]
    pub fn rotation_count(&self) -> usize {
        (0..self.end).filter(|&t| self.rotates_at(t)).count()
    }

    /// Concurrency in force *during* tick `t`.
    #[must_use]
    pub fn concurrency_at(&self, t: usize) -> usize {
        if t >= self.stop_traffic || t < self.start_traffic {
            0
        } else if t >= self.more_traffic && t < self.less_traffic {
            16
        } else {
            8
        }
    }
}

/// One scanned tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Tick index (the x-axis of Figures 5–6 and friends).
    pub t: usize,
    /// Copies found in allocated memory (the light bars / "×" marks).
    pub allocated: usize,
    /// Copies found in unallocated memory (the dark bars / "+" marks).
    pub unallocated: usize,
    /// `(physical byte offset, allocated?)` of every copy — the scatter data
    /// of the "locations of keys in memory" plots.
    pub locations: Vec<(usize, bool)>,
    /// Copies found on the swap device at this tick. Kept out of
    /// [`Self::total`] — RAM copies are the paper's y-axis — but a nonzero
    /// value marks the tick at which the key became *persistent*: it now
    /// survives power-off with the stolen disk.
    pub swap_hits: usize,
}

impl TimelinePoint {
    /// Total copies in RAM at this tick (swap copies ride separately).
    #[must_use]
    pub fn total(&self) -> usize {
        self.allocated + self.unallocated
    }
}

/// A completed timeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Which server was driven.
    pub kind_label: &'static str,
    /// Protection level deployed.
    pub level: ProtectionLevel,
    /// One point per tick.
    pub points: Vec<TimelinePoint>,
    /// Work the server shed on error paths over the whole run (all zero on a
    /// healthy machine; nonzero under resource pressure or fault injection).
    pub shed: SheddingStats,
    /// Scan effort over the run's per-tick memory scans: deterministic
    /// counters only, so timelines stay bit-comparable across thread counts.
    pub scan: ScanStats,
}

impl Timeline {
    /// Peak number of copies across the run.
    #[must_use]
    pub fn peak_total(&self) -> usize {
        self.points.iter().map(TimelinePoint::total).max().unwrap_or(0)
    }

    /// Peak number of unallocated copies across the run.
    #[must_use]
    pub fn peak_unallocated(&self) -> usize {
        self.points.iter().map(|p| p.unallocated).max().unwrap_or(0)
    }

    /// The point at tick `t`.
    #[must_use]
    pub fn at(&self, t: usize) -> Option<&TimelinePoint> {
        self.points.iter().find(|p| p.t == t)
    }

    /// Per-tick transitions `(appeared, vanished, freed_in_place)` relative
    /// to the previous tick, matched by physical location — the mechanical
    /// form of the paper's Figure 5 observations (3) and (4).
    #[must_use]
    pub fn transitions(&self) -> Vec<(usize, usize, usize, usize)> {
        use std::collections::HashMap;
        let mut out = Vec::with_capacity(self.points.len().saturating_sub(1));
        for w in self.points.windows(2) {
            let before: HashMap<usize, bool> = w[0].locations.iter().copied().collect();
            let after: HashMap<usize, bool> = w[1].locations.iter().copied().collect();
            let appeared = after.keys().filter(|k| !before.contains_key(k)).count();
            let vanished = before.keys().filter(|k| !after.contains_key(k)).count();
            let freed_in_place = after
                .iter()
                .filter(|(k, &alloc)| !alloc && before.get(*k) == Some(&true))
                .count();
            out.push((w[1].t, appeared, vanished, freed_in_place));
        }
        out
    }
}

fn drive<S: SecureServer>(
    kind_label: &'static str,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    schedule: &Schedule,
    plan: Option<&FaultPlan>,
) -> SimResult<(Timeline, ExecReport)> {
    let started = Instant::now();
    let mut rng = Rng64::new(cfg.seed ^ 0x71ED_11E5);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    if let Some(p) = plan {
        kernel.install_fault_plan(p.clone());
    }
    let server_cfg = ServerConfig::new(level).with_key_bits(cfg.key_bits);
    // Build the scanner before the server exists, from the derived keys of
    // every epoch the schedule will reach — rotation is deterministic in
    // (config, ordinal), so the successor keys are known up front. The
    // per-tick scans ride the incremental path: only frames the tick's
    // workload actually dirtied are re-read, and the differential suites
    // pin the reports bit-identical to full `scan_kernel` calls.
    let preview = server_cfg.derive_key(kind_label);
    let mut patterns: Vec<Pattern> = KeyMaterial::from_key(&preview)
        .patterns()
        .iter()
        .map(Pattern::clone_secret)
        .collect();
    for ordinal in 1..=schedule.rotation_count() as u64 {
        let epoch_key = server_cfg.derive_rotated_key(kind_label, ordinal);
        patterns.extend(
            KeyMaterial::from_key(&epoch_key)
                .patterns()
                .iter()
                .map(Pattern::clone_secret),
        );
    }
    let mut scanner =
        IncrementalScanner::new(Scanner::new(patterns)).with_threads(cfg.scan_threads);

    let mut server: Option<S> = None;
    let mut points = Vec::with_capacity(schedule.end);
    for t in 0..schedule.end {
        // Events fire at the start of their tick.
        if t == schedule.start_server {
            let s = S::start(&mut kernel, server_cfg)?;
            assert_eq!(
                s.key(),
                &preview,
                "derived preview key must match the server key"
            );
            server = Some(s);
        }
        if let Some(s) = server.as_mut() {
            if s.is_running() {
                if schedule.rotates_at(t) {
                    s.rotate_key(&mut kernel)?;
                }
                let conc = schedule.concurrency_at(t);
                s.set_concurrency(&mut kernel, conc)?;
                if conc > 0 {
                    s.pump(&mut kernel, conc * schedule.churn_per_slot)?;
                }
            }
        }
        if t == schedule.stop_server {
            if let Some(s) = server.as_mut() {
                s.stop(&mut kernel)?;
            }
        }

        // Scan at the end of the tick, like the cron'd scanmemory read —
        // physical memory through the incremental path, the swap device as
        // a raw dump (it is small and has no frame metadata to skip by).
        let report = scanner.scan(&kernel);
        let swap_hits = scanner.scanner().count_matches(kernel.swap_bytes());
        points.push(TimelinePoint {
            t,
            allocated: report.allocated(),
            unallocated: report.unallocated(),
            locations: report.locations(),
            swap_hits,
        });
    }
    let timeline = Timeline {
        kind_label,
        level,
        points,
        shed: server.as_ref().map(SecureServer::shedding).unwrap_or_default(),
        scan: scanner.stats(),
    };
    let report = ExecReport::new(1, 1, started.elapsed()).with_scan(timeline.scan, scanner.wall());
    Ok((timeline, report))
}

/// Runs the full timeline for one server and protection level, optionally
/// with a [`FaultPlan`] active for the whole run — the ROADMAP's "faults
/// during attacks and timelines" wiring. The plan is installed on the
/// freshly booted kernel before the first tick, so its op indices are as
/// deterministic as the workload itself. The [`ExecReport`] alongside is a
/// one-cell batch: the run's wall-clock, plus the per-tick scans'
/// deterministic counters (also on [`Timeline::scan`]) and wall-clock.
///
/// # Errors
///
/// Propagates simulator errors, including injected faults the server's
/// shedding and retry machinery could not absorb.
pub fn run_timeline(
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    schedule: &Schedule,
    plan: Option<&FaultPlan>,
) -> SimResult<(Timeline, ExecReport)> {
    match kind {
        ServerKind::Ssh => drive::<SshServer>("openssh", level, cfg, schedule, plan),
        ServerKind::Apache => drive::<ApacheServer>("apache", level, cfg, schedule, plan),
    }
}

/// Runs a batch of timelines — one cell per `(server, level)` job — on the
/// given executor, returning results in job order.
///
/// Each timeline is internally sequential (it *is* a timeline), but the
/// jobs are independent: every run boots its own kernel from
/// `cfg.seed ^ 0x71ED_11E5`, so batch results are bit-identical to calling
/// [`run_timeline`] in a loop.
///
/// # Errors
///
/// Propagates the first simulator error in job order.
pub fn run_timelines(
    exec: &Executor,
    jobs: &[(ServerKind, ProtectionLevel)],
    cfg: &ExperimentConfig,
    schedule: &Schedule,
) -> SimResult<Vec<Timeline>> {
    run_timelines_timed(exec, jobs, cfg, schedule).map(|(timelines, _)| timelines)
}

/// Runs a batch of timelines and also returns the batch's [`ExecReport`],
/// including aggregated scan-effort counters and scan wall-clock — the
/// numbers the experiment binaries print per figure family.
///
/// The timelines themselves are bit-identical to [`run_timelines`].
///
/// # Errors
///
/// Propagates the first simulator error in job order.
pub fn run_timelines_timed(
    exec: &Executor,
    jobs: &[(ServerKind, ProtectionLevel)],
    cfg: &ExperimentConfig,
    schedule: &Schedule,
) -> SimResult<(Vec<Timeline>, ExecReport)> {
    let (results, report) = exec.run_timed(jobs.to_vec(), |_, (kind, level)| {
        run_timeline(kind, level, cfg, schedule, None)
    });
    let mut timelines = Vec::with_capacity(results.len());
    let mut scan = ScanStats::default();
    let mut scan_wall = Duration::ZERO;
    for r in results {
        let (tl, one) = r?;
        scan.absorb(one.scan);
        scan_wall += one.scan_wall;
        timelines.push(tl);
    }
    Ok((timelines, report.with_scan(scan, scan_wall)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_concurrency_matches_events() {
        let s = Schedule::paper();
        assert_eq!(s.concurrency_at(0), 0);
        assert_eq!(s.concurrency_at(5), 0);
        assert_eq!(s.concurrency_at(6), 8);
        assert_eq!(s.concurrency_at(10), 16);
        assert_eq!(s.concurrency_at(13), 16);
        assert_eq!(s.concurrency_at(14), 8);
        assert_eq!(s.concurrency_at(18), 0);
        assert_eq!(s.concurrency_at(25), 0);
    }

    #[test]
    fn unprotected_ssh_timeline_has_paper_shape() {
        let cfg = ExperimentConfig::test();
        let tl = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::None,
            &cfg,
            &Schedule::paper(),
            None,
        )
        .unwrap()
        .0;
        assert_eq!(tl.points.len(), 29);
        // Nothing before the server starts.
        assert_eq!(tl.at(0).unwrap().total(), 0);
        assert_eq!(tl.at(1).unwrap().total(), 0);
        // Key appears at startup, floods under load.
        let at_start = tl.at(2).unwrap().total();
        assert!(at_start >= 3, "d,p,q at least: {at_start}");
        let under_light = tl.at(8).unwrap().total();
        let under_heavy = tl.at(12).unwrap().total();
        assert!(under_heavy > at_start);
        assert!(under_heavy >= under_light);
        // After traffic stops, allocated copies drop...
        let after_traffic = tl.at(20).unwrap();
        assert!(after_traffic.allocated < tl.at(12).unwrap().allocated);
        // ...and unallocated copies persist through the end.
        let final_point = tl.at(28).unwrap();
        assert!(final_point.unallocated > 0);
    }

    #[test]
    fn transitions_expose_observations_three_and_four() {
        let cfg = ExperimentConfig::test();
        let tl = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::None,
            &cfg,
            &Schedule::paper(),
            None,
        )
        .unwrap()
        .0;
        let tr = tl.transitions();
        // Observation (3): a burst of appearances when traffic starts (t=6).
        let (_, appeared, _, _) = tr.iter().find(|(t, ..)| *t == 6).copied().unwrap();
        assert!(appeared > 10, "traffic start adds many copies: {appeared}");
        // Observation (4): copies freed in place when traffic stops (t=18).
        let (_, _, _, freed) = tr.iter().find(|(t, ..)| *t == 18).copied().unwrap();
        assert!(freed > 10, "traffic stop frees copies in place: {freed}");
    }

    #[test]
    fn timeline_scans_skip_clean_frames() {
        let cfg = ExperimentConfig::test();
        let (tl, one) = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::None,
            &cfg,
            &Schedule::paper(),
            None,
        )
        .unwrap();
        // One scan per tick, and the incremental path must actually skip:
        // quiet ticks (before start, after stop) dirty almost nothing.
        assert_eq!(tl.scan.scans, 29);
        assert!(
            tl.scan.rescan_fraction() < 0.9,
            "per-tick scans re-read nearly everything: {:?}",
            tl.scan
        );
        assert!(one.scan_wall > Duration::ZERO);
        assert_eq!(one.scan, tl.scan);

        // The batch report aggregates the same counters.
        let (tls, report) = run_timelines_timed(
            &Executor::serial(),
            &[(ServerKind::Ssh, ProtectionLevel::None)],
            &cfg,
            &Schedule::paper(),
        )
        .unwrap();
        assert_eq!(tls[0], tl);
        assert_eq!(report.scan, tl.scan);
        assert!(report.summary().contains("scans"), "{}", report.summary());
    }

    #[test]
    fn rotation_schedule_fires_between_start_and_stop() {
        let s = Schedule::paper().with_rotation(4);
        let fired: Vec<usize> = (0..s.end).filter(|&t| s.rotates_at(t)).collect();
        assert_eq!(fired, vec![6, 10, 14, 18]);
        assert_eq!(s.rotation_count(), 4);
        assert_eq!(Schedule::paper().rotation_count(), 0);
    }

    #[test]
    fn rotating_timeline_stays_clean_at_integrated() {
        let cfg = ExperimentConfig::test();
        let tl = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::Integrated,
            &cfg,
            &Schedule::paper().with_rotation(4),
            None,
        )
        .unwrap()
        .0;
        // Rotation churns four extra keys through memory, yet the hardened
        // level never spills a byte of any epoch into free memory…
        assert_eq!(tl.peak_unallocated(), 0, "no epoch leaks into free memory");
        // …at most one drain window is open at a scan, so at most two
        // epochs (3 copies each) are ever resident at once…
        assert!(tl.peak_total() <= 6, "peak {}", tl.peak_total());
        // …and a clean shutdown retires every epoch completely.
        assert_eq!(tl.at(28).unwrap().total(), 0);
    }

    #[test]
    fn rotating_timeline_scanner_sees_every_epoch() {
        let cfg = ExperimentConfig::test();
        let plain = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::None,
            &cfg,
            &Schedule::paper(),
            None,
        )
        .unwrap()
        .0;
        let rotated = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::None,
            &cfg,
            &Schedule::paper().with_rotation(4),
            None,
        )
        .unwrap()
        .0;
        // Unprotected, every retired epoch's debris lingers in free memory,
        // so rotation *adds* scanner-visible copies over the static-key run.
        assert!(
            rotated.peak_total() > plain.peak_total(),
            "rotation debris: {} vs {}",
            rotated.peak_total(),
            plain.peak_total()
        );
    }

    #[test]
    fn timeline_with_sparse_fault_plan_is_reproducible_and_sheds() {
        let cfg = ExperimentConfig::test();
        let plan = FaultPlan::new().seeded(0xF417_0925, 97);
        let run = || {
            run_timeline(
                ServerKind::Ssh,
                ProtectionLevel::Integrated,
                &cfg,
                &Schedule::paper().with_rotation(4),
                Some(&plan),
            )
            .unwrap()
            .0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault-plan timelines must be bit-identical");
        assert!(
            a.shed.total() + a.shed.retries > 0,
            "a 1-in-97 plan over a full timeline should shed or retry: {:?}",
            a.shed
        );
        // Faults shed work; they never leak a hardened level's key.
        assert_eq!(a.peak_unallocated(), 0);
        assert_eq!(a.at(28).unwrap().total(), 0);
    }

    #[test]
    fn integrated_timeline_is_flat_and_clean() {
        let cfg = ExperimentConfig::test();
        let tl = run_timeline(
            ServerKind::Ssh,
            ProtectionLevel::Integrated,
            &cfg,
            &Schedule::paper(),
            None,
        )
        .unwrap()
        .0;
        assert_eq!(tl.peak_unallocated(), 0, "never anything in free memory");
        // During the server's life: exactly d+p+q on the aligned page.
        for t in 2..22 {
            assert_eq!(tl.at(t).unwrap().total(), 3, "tick {t}");
        }
        // After a clean shutdown nothing remains at all.
        assert_eq!(tl.at(28).unwrap().total(), 0);
    }
}
