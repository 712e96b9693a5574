//! Attack-sweep experiments: Figures 1–4 (unprotected) and 7, 17, 18
//! (before/after the integrated solution).
//!
//! Both sweep families decompose into independent `(grid-point, repetition)`
//! cells executed by [`crate::exec::Executor`]. Each cell boots its own
//! kernel and server from a seed that is a pure function of the experiment's
//! root seed and the cell's coordinates, so results are bit-identical at any
//! thread count — and a sub-grid run reproduces the full-grid values at the
//! shared points.

use crate::exec::{ExecReport, Executor};
use crate::{ExperimentConfig, ServerKind};
use exploits::{Ext2DirentLeak, TtyMemoryDump};
use keyguard::ProtectionLevel;
use keyscan::Scanner;
use memsim::{FaultPlan, Kernel, SimResult};
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::{Rng64, Stats};

/// The paper's x-axis for Figures 1–2: total connections 50–500.
#[must_use]
pub fn paper_connection_grid() -> Vec<usize> {
    (1..=10).map(|i| i * 50).collect()
}

/// The paper's second axis for Figures 1–2: directories 1000–10000.
#[must_use]
pub fn paper_directory_grid() -> Vec<usize> {
    (1..=10).map(|i| i * 1000).collect()
}

/// The paper's x-axis for Figures 3–4 and 7/17/18: connections 0–120.
#[must_use]
pub fn paper_tty_connection_grid() -> Vec<usize> {
    (0..=12).map(|i| i * 10).collect()
}

/// One measured point of an attack sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Total connections driven through the server before the attack.
    pub connections: usize,
    /// Directories created (ext2 sweeps; 0 for tty sweeps).
    pub directories: usize,
    /// Mean number of full key copies recovered per attack.
    pub avg_keys_found: f64,
    /// Fraction of attacks that recovered at least one full copy.
    pub success_rate: f64,
    /// Mean bytes of memory disclosed per attack.
    pub avg_disclosed_bytes: f64,
}

/// How many connections stay concurrently open while a total connection
/// count is driven through a server (the paper scripts batched theirs).
const SWEEP_CONCURRENCY: usize = 16;

/// Fraction of the free lists remixed by background system activity between
/// the workload and the attack. A perfectly LIFO free list would put every
/// dirty page right at the allocator's fingertips; real machines intersperse
/// them with pages freed by unrelated activity, which is why the paper's
/// Figure 1 recovers *more* copies as the attacker creates *more*
/// directories. 0.5 mixes the most recent half of the free lists.
const BACKGROUND_MIX: f64 = 0.5;

/// Per-cell seed for one ext2 repetition. A pure function of the root seed
/// and the cell's coordinates `(connections, directories, repetition)`:
/// nothing about execution order or grid composition can change it.
fn ext2_cell_seed(root: u64, conns: usize, dirs: usize, rep: usize) -> u64 {
    root.wrapping_add(rep as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(conns as u64 ^ (dirs as u64) << 20)
}

/// Per-cell seed for one tty repetition (coordinates: connections,
/// repetition).
fn tty_cell_seed(root: u64, conns: usize, rep: usize) -> u64 {
    root.wrapping_add(rep as u64)
        .wrapping_mul(0x85EB_CA6B)
        .wrapping_add(conns as u64)
}

/// Builds the workload state for one repetition: server started, `total`
/// connections driven through it, then (for the ext2 methodology) all
/// connections closed and the free lists remixed by background activity.
///
/// All mutable state — the kernel, the server, the background-mix RNG — is
/// owned by the calling cell and derived from `rep_seed` alone.
pub(crate) fn drive_workload<S: SecureServer>(
    kernel: &mut Kernel,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    rep_seed: u64,
    total_connections: usize,
    close_all: bool,
) -> SimResult<(S, Scanner)> {
    let server_cfg = ServerConfig::new(level)
        .with_key_bits(cfg.key_bits)
        .with_seed(rep_seed);
    let mut server = S::start(kernel, server_cfg)?;
    let scanner = Scanner::from_material(server.material());
    let standing = total_connections.min(SWEEP_CONCURRENCY);
    server.set_concurrency(kernel, standing)?;
    if total_connections > standing {
        server.pump(kernel, total_connections - standing)?;
    }
    if close_all {
        server.set_concurrency(kernel, 0)?;
        // Unrelated system activity cycles pages through the allocator
        // without touching their contents, burying the freed key pages at
        // varying depths of the free lists. The mix stream is forked off
        // the cell's own seed, never shared between cells.
        let mut mix_rng = Rng64::new(rep_seed ^ 0xB1D_F00D);
        kernel.age_memory(&mut mix_rng, BACKGROUND_MIX);
    }
    Ok((server, scanner))
}

/// Raw outcome of a single attack repetition: `(keys found, succeeded,
/// bytes disclosed)`.
type RepOutcome = (usize, bool, usize);

/// The disclosure attack a sweep's cells run once the workload is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    /// Close every connection, remix the free lists, then create the grid
    /// point's directories and search the leaked dirent bytes (Figures 1–2).
    Ext2,
    /// Dump the n_tty buffer while the connections stay open (Figures 3–4,
    /// 7, 17–18).
    Tty,
}

/// One repetition: boot, drive `connections` through the server with
/// `plan` active, then run `attack` unfaulted and search what it disclosed.
fn run_one<S: SecureServer>(
    attack: Attack,
    level: ProtectionLevel,
    cfg: &ExperimentConfig,
    rep_seed: u64,
    (connections, directories): (usize, usize),
    plan: Option<&FaultPlan>,
) -> SimResult<RepOutcome> {
    let mut rng = Rng64::new(rep_seed);
    let mut kernel = cfg.boot_machine(level, &mut rng);
    if let Some(p) = plan {
        kernel.install_fault_plan(p.clone());
    }
    let close_all = attack == Attack::Ext2;
    let (_server, scanner) =
        drive_workload::<S>(&mut kernel, level, cfg, rep_seed, connections, close_all)?;
    // The plan perturbs the *defender's* workload; the attack itself is the
    // measurement and always runs unfaulted.
    kernel.clear_fault_plan();
    let capture = match attack {
        Attack::Ext2 => Ext2DirentLeak::new(directories).run(&mut kernel)?,
        Attack::Tty => TtyMemoryDump::paper().run(&kernel, &mut rng),
    };
    Ok((
        capture.keys_found_sharded(&scanner, cfg.scan_threads),
        capture.succeeded(&scanner),
        capture.disclosed_bytes(),
    ))
}

/// The grid loop of both attack sweeps: `cfg.repetitions` executor cells
/// per `(connections, directories)` grid point, each seeded from its own
/// coordinates, folded back into one [`SweepPoint`] per grid point.
fn sweep(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    attack: Attack,
    grid: Vec<(usize, usize)>,
    cfg: &ExperimentConfig,
    plan: Option<&FaultPlan>,
) -> SimResult<(Vec<SweepPoint>, ExecReport)> {
    let mut cells = Vec::with_capacity(grid.len() * cfg.repetitions);
    for &point in &grid {
        for rep in 0..cfg.repetitions {
            cells.push((point, rep));
        }
    }
    let (raw, report) = exec.run_timed(cells, |_, (point, rep)| {
        let (conns, dirs) = point;
        let rep_seed = match attack {
            Attack::Ext2 => ext2_cell_seed(cfg.seed, conns, dirs, rep),
            Attack::Tty => tty_cell_seed(cfg.seed, conns, rep),
        };
        match kind {
            ServerKind::Ssh => run_one::<SshServer>(attack, level, cfg, rep_seed, point, plan),
            ServerKind::Apache => {
                run_one::<ApacheServer>(attack, level, cfg, rep_seed, point, plan)
            }
        }
    });
    Ok((fold_points(&grid, cfg.repetitions, raw)?, report))
}

/// Folds per-repetition outcomes — already in deterministic cell order —
/// into one [`SweepPoint`] per grid point. This is the exact Welford fold
/// the serial loop always ran, so aggregates are bit-identical too.
fn fold_points(
    grid: &[(usize, usize)],
    repetitions: usize,
    raw: Vec<SimResult<RepOutcome>>,
) -> SimResult<Vec<SweepPoint>> {
    debug_assert_eq!(raw.len(), grid.len() * repetitions);
    let mut out = Vec::with_capacity(grid.len());
    let mut cells = raw.into_iter();
    for &(conns, dirs) in grid {
        let mut keys = Stats::new();
        let mut disclosed = Stats::new();
        let mut successes = 0usize;
        for _ in 0..repetitions {
            let (found, ok, bytes) = cells.next().expect("cell count mismatch")?;
            keys.push(found as f64);
            disclosed.push(bytes as f64);
            successes += usize::from(ok);
        }
        out.push(SweepPoint {
            connections: conns,
            directories: dirs,
            avg_keys_found: keys.mean(),
            success_rate: successes as f64 / repetitions as f64,
            avg_disclosed_bytes: disclosed.mean(),
        });
    }
    Ok(out)
}

/// The ext2 dirent-leak sweep (Figures 1 and 2; Section 5.2/6.2 re-runs)
/// on an explicit executor.
///
/// For every `(connections, directories)` grid point: boot an aged machine,
/// drive `connections` total connections through the server, close them all,
/// create `directories` directories, and search the leaked bytes — averaged
/// over `cfg.repetitions` attacks. Each repetition is one executor cell.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn ext2_sweep_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    connections: &[usize],
    directories: &[usize],
    cfg: &ExperimentConfig,
) -> SimResult<Vec<SweepPoint>> {
    ext2_sweep_with_plan_on(exec, kind, level, connections, directories, cfg, None)
        .map(|(points, _)| points)
}

/// [`ext2_sweep_on`] with an optional [`FaultPlan`] active during each
/// cell's *workload* (the ROADMAP's "faults during attacks" wiring), and the
/// batch's [`ExecReport`] returned alongside. Every cell installs its own
/// copy of the plan on its own kernel, and the plan is cleared before the
/// attack runs — faults stress the defender's error paths, then the
/// unfaulted attacker measures what leaked.
///
/// # Errors
///
/// Propagates simulator errors, including injected faults the server's
/// shedding machinery could not absorb.
pub fn ext2_sweep_with_plan_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    connections: &[usize],
    directories: &[usize],
    cfg: &ExperimentConfig,
    plan: Option<&FaultPlan>,
) -> SimResult<(Vec<SweepPoint>, ExecReport)> {
    let mut grid = Vec::with_capacity(connections.len() * directories.len());
    for &conns in connections {
        for &dirs in directories {
            grid.push((conns, dirs));
        }
    }
    sweep(exec, kind, level, Attack::Ext2, grid, cfg, plan)
}

/// The n_tty memory-dump sweep (Figures 3, 4, 7, 17, 18) on an explicit
/// executor, with the batch's [`ExecReport`] returned alongside.
///
/// For every connection count: boot, drive the workload (connections stay
/// open — the dump races the live server), then dump and search. Each of the
/// `cfg.repetitions` dumps is an independent executor cell with its own
/// machine, server, and RNG.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn tty_sweep_on(
    exec: &Executor,
    kind: ServerKind,
    level: ProtectionLevel,
    connections: &[usize],
    cfg: &ExperimentConfig,
) -> SimResult<(Vec<SweepPoint>, ExecReport)> {
    let grid = connections.iter().map(|&c| (c, 0)).collect();
    sweep(exec, kind, level, Attack::Tty, grid, cfg, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_the_paper() {
        assert_eq!(paper_connection_grid().first(), Some(&50));
        assert_eq!(paper_connection_grid().last(), Some(&500));
        assert_eq!(paper_directory_grid().len(), 10);
        assert_eq!(paper_tty_connection_grid(), vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120]);
    }

    #[test]
    fn ext2_point_unprotected_vs_kernel_level() {
        let cfg = ExperimentConfig::test();
        let hits = ext2_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &[30],
            &[400],
            &cfg,
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].success_rate > 0.5, "unprotected: {hits:?}");

        let none = ext2_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            &[30],
            &[400],
            &cfg,
        )
        .unwrap();
        assert_eq!(none[0].success_rate, 0.0, "kernel level: {none:?}");
        assert_eq!(none[0].avg_keys_found, 0.0);
    }

    #[test]
    fn tty_point_shows_protection_gap() {
        let cfg = ExperimentConfig::test().with_repetitions(10);
        let exec = Executor::from_env();
        let (unprotected, _) =
            tty_sweep_on(&exec, ServerKind::Ssh, ProtectionLevel::None, &[20], &cfg).unwrap();
        let (integrated, _) =
            tty_sweep_on(&exec, ServerKind::Ssh, ProtectionLevel::Integrated, &[20], &cfg)
                .unwrap();
        assert!(
            unprotected[0].avg_keys_found > integrated[0].avg_keys_found,
            "unprotected {unprotected:?} vs integrated {integrated:?}"
        );
        // Integrated still succeeds sometimes (the ~50% ceiling).
        assert!(integrated[0].success_rate < 1.0);
    }

    #[test]
    fn cell_seeds_depend_only_on_coordinates() {
        assert_eq!(ext2_cell_seed(1, 50, 1000, 0), ext2_cell_seed(1, 50, 1000, 0));
        assert_ne!(ext2_cell_seed(1, 50, 1000, 0), ext2_cell_seed(1, 50, 1000, 1));
        assert_ne!(ext2_cell_seed(1, 50, 1000, 0), ext2_cell_seed(2, 50, 1000, 0));
        assert_eq!(tty_cell_seed(7, 20, 3), tty_cell_seed(7, 20, 3));
        assert_ne!(tty_cell_seed(7, 20, 3), tty_cell_seed(7, 40, 3));
    }

    #[test]
    fn faulted_workload_does_not_weaken_kernel_level() {
        // A sparse fault plan stresses the server's error paths during the
        // workload; the hardened level's guarantee must hold regardless, and
        // the faulted sweep must be exactly reproducible.
        let cfg = ExperimentConfig::test();
        let plan = FaultPlan::new().seeded(0x5EED_F417, 89);
        let run = || {
            ext2_sweep_with_plan_on(
                &Executor::serial(),
                ServerKind::Ssh,
                ProtectionLevel::Kernel,
                &[30],
                &[400],
                &cfg,
                Some(&plan),
            )
            .unwrap()
            .0
        };
        let a = run();
        assert_eq!(a, run(), "faulted sweep must be bit-identical");
        assert_eq!(a[0].success_rate, 0.0, "kernel level under faults: {a:?}");

        // And the unfaulted entry point is the plan=None special case.
        let plain = ext2_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            &[30],
            &[400],
            &cfg,
        )
        .unwrap();
        let (none, _) = ext2_sweep_with_plan_on(
            &Executor::serial(),
            ServerKind::Ssh,
            ProtectionLevel::Kernel,
            &[30],
            &[400],
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(plain, none);
    }

    #[test]
    fn subgrid_reproduces_full_grid_points() {
        // Because cells seed from coordinates, dropping grid points (or
        // reordering them) cannot change any shared point's result.
        let cfg = ExperimentConfig::test();
        let full = ext2_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &[20, 40],
            &[200, 400],
            &cfg,
        )
        .unwrap();
        let single = ext2_sweep_on(
            &Executor::from_env(),
            ServerKind::Ssh,
            ProtectionLevel::None,
            &[40],
            &[200],
            &cfg,
        )
        .unwrap();
        let shared = full
            .iter()
            .find(|p| p.connections == 40 && p.directories == 200)
            .unwrap();
        assert_eq!(*shared, single[0]);
    }
}
