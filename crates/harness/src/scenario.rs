//! A scriptable scenario interpreter — the analogue of the paper's appendix
//! `runsimulation.pl`, which drove servers, traffic, and the scanner from a
//! declarative schedule.
//!
//! A scenario is a line-oriented text script:
//!
//! ```text
//! # figure-5-like run
//! machine mem-mb 64
//! server ssh level none key-bits 512
//! at 2 start
//! at 6 concurrency 8
//! at 10 concurrency 16
//! at 14 concurrency 8
//! at 18 concurrency 0
//! at 22 stop
//! at 24 attack ext2 1000
//! at 26 attack tty
//! end 29
//! ```
//!
//! Directives:
//!
//! * `machine mem-mb <N>` — simulated RAM size (default 64).
//! * `server <ssh|apache> [level <L>] [key-bits <B>] [seed <S>]`
//! * `secret <word>` — an additional secret (≥ 8 chars) tracked by every
//!   scan and attack, e.g. a passphrase (see `tty-input`).
//! * `at <tick> start | stop | restart | rotate | concurrency <N> |`
//!   `pump <N> | tty-input | swap <pages> | merge | writeback <pages> |`
//!   `file-plant | attack ext2 <dirs> | attack tty |`
//!   `attack slab <size> <probes> | attack swap | attack disk`
//! * `end <tick>` — run length (required).
//!
//! `rotate` rekeys the live server through the crash-consistent lifecycle
//! (`keyguard::rotation`): new handshakes move to the successor key at
//! once, in-flight connections drain on the predecessor, and the scanner
//! tracks *every* epoch's key so retired-key debris is never invisible;
//! `restart` is Apache's graceful reload (SSH restarts as stop + start);
//! `tty-input` types the configured `secret` through the kernel's tty
//! buffers, planting it in slab memory; `file-plant` appends the secret to
//! a log file through the write-back page cache (dirty in RAM until a
//! `writeback` flushes it to the disk image); `merge` runs the page
//! deduplicator; `attack swap` / `attack disk` scan the persistent images
//! ([`memsim::Kernel::swap_bytes`] / [`memsim::Kernel::disk_bytes`]) —
//! what a stolen disk reveals.
//!
//! Memory is scanned for the server's key at the end of every tick (the
//! swap device alongside physical RAM); attack results are logged as they
//! fire.

use crate::timeline::{Timeline, TimelinePoint};
use crate::ServerKind;
use exploits::{Ext2DirentLeak, SlabProbe, TtyMemoryDump};
use keyguard::ProtectionLevel;
use memsim::{Kernel, MachineConfig, SimError};
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;
use std::collections::BTreeMap;

/// A parsed scenario action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Start the configured server.
    Start,
    /// Stop the server.
    Stop,
    /// Set standing concurrency.
    Concurrency(usize),
    /// Complete N transfer cycles this tick.
    Pump(usize),
    /// Run the ext2 dirent leak with N directories.
    AttackExt2(usize),
    /// Run the n_tty memory dump.
    AttackTty,
    /// Run a slab infoleak probe: `(object size, probes)`.
    AttackSlab(usize, usize),
    /// Apply swap pressure for N pages.
    Swap(usize),
    /// Run the page deduplicator (KSM pass) over anonymous memory.
    Merge,
    /// Flush up to N dirty page-cache pages to their backing files.
    Writeback(usize),
    /// Append the configured secret to a log file through the write-back
    /// page cache (dirty in RAM until a `writeback` flushes it).
    FilePlant,
    /// Scan the swap device for key copies.
    AttackSwap,
    /// Scan the world-readable disk files for key copies (the mode-0600
    /// key file itself is out of reach; page-cache leakage is not).
    AttackDisk,
    /// Type the configured secret through the tty (plants it in slab
    /// buffers).
    TtyInput,
    /// Graceful restart (Apache only).
    Restart,
    /// Rekey the live server through the crash-consistent rotation
    /// lifecycle; the per-tick scanner tracks every epoch's key.
    Rotate,
}

/// One attack fired by a scenario, with its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackEvent {
    /// Tick at which the attack ran.
    pub t: usize,
    /// `"ext2"` or `"tty"`.
    pub kind: &'static str,
    /// Full key copies recovered.
    pub keys_found: usize,
    /// Whether at least one full copy was recovered.
    pub succeeded: bool,
    /// Bytes disclosed.
    pub disclosed_bytes: usize,
}

/// A parsed, runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    mem_bytes: usize,
    server: ServerKind,
    level: ProtectionLevel,
    key_bits: usize,
    seed: u64,
    end: usize,
    secret: Option<Vec<u8>>,
    actions: BTreeMap<usize, Vec<Action>>,
    /// Intra-kernel scan-shard threads for the per-tick scans (1 = serial;
    /// a runtime knob via [`Self::with_scan_threads`], not script syntax —
    /// scripts describe the machine, not the host running the simulation).
    scan_threads: usize,
}

/// What a scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Per-tick scan results, as a reusable [`Timeline`].
    pub timeline: Timeline,
    /// Attacks that fired, in order.
    pub attacks: Vec<AttackEvent>,
}

/// Scenario parse errors, with the offending line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "scenario line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Scenario {
    /// Parses a scenario script.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] pointing at the first malformed line, or at
    /// a missing `end` directive.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut mem_bytes = 64 * 1024 * 1024;
        let mut server = ServerKind::Ssh;
        let mut level = ProtectionLevel::None;
        let mut key_bits = 512;
        let mut seed = 0x5CE7_A210u64;
        let mut end = None;
        let mut secret = None;
        let mut actions: BTreeMap<usize, Vec<Action>> = BTreeMap::new();

        let err = |line: usize, message: &str| ParseError {
            line,
            message: message.to_string(),
        };

        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[0] {
                "machine" => {
                    // key/value pairs after the keyword.
                    let mut it = words[1..].chunks(2);
                    for kv in &mut it {
                        match kv {
                            ["mem-mb", v] => {
                                mem_bytes = v
                                    .parse::<usize>()
                                    .map_err(|_| err(line_no, "mem-mb expects a number"))?
                                    * 1024
                                    * 1024;
                            }
                            _ => return Err(err(line_no, "unknown machine option")),
                        }
                    }
                }
                "server" => {
                    if words.len() < 2 {
                        return Err(err(line_no, "server needs a kind (ssh|apache)"));
                    }
                    server = ServerKind::from_label(words[1])
                        .ok_or_else(|| err(line_no, "unknown server kind"))?;
                    let mut it = words[2..].chunks(2);
                    for kv in &mut it {
                        match kv {
                            ["level", v] => {
                                level = ProtectionLevel::from_label(v)
                                    .ok_or_else(|| err(line_no, "unknown level"))?;
                            }
                            ["key-bits", v] => {
                                key_bits = v
                                    .parse()
                                    .map_err(|_| err(line_no, "key-bits expects a number"))?;
                            }
                            ["seed", v] => {
                                seed = v
                                    .parse()
                                    .map_err(|_| err(line_no, "seed expects a number"))?;
                            }
                            _ => return Err(err(line_no, "unknown server option")),
                        }
                    }
                }
                "at" => {
                    if words.len() < 3 {
                        return Err(err(line_no, "at needs a tick and an action"));
                    }
                    let t: usize = words[1]
                        .parse()
                        .map_err(|_| err(line_no, "tick must be a number"))?;
                    let action = match (words[2], words.get(3)) {
                        ("start", None) => Action::Start,
                        ("stop", None) => Action::Stop,
                        ("restart", None) => Action::Restart,
                        ("rotate", None) => Action::Rotate,
                        ("tty-input", None) => Action::TtyInput,
                        ("concurrency", Some(v)) => Action::Concurrency(
                            v.parse()
                                .map_err(|_| err(line_no, "concurrency expects a number"))?,
                        ),
                        ("pump", Some(v)) => Action::Pump(
                            v.parse().map_err(|_| err(line_no, "pump expects a number"))?,
                        ),
                        ("swap", Some(v)) => Action::Swap(
                            v.parse().map_err(|_| err(line_no, "swap expects a number"))?,
                        ),
                        ("merge", None) => Action::Merge,
                        ("writeback", Some(v)) => Action::Writeback(
                            v.parse()
                                .map_err(|_| err(line_no, "writeback expects a number"))?,
                        ),
                        ("file-plant", None) => Action::FilePlant,
                        ("attack", Some(&"swap")) => Action::AttackSwap,
                        ("attack", Some(&"disk")) => Action::AttackDisk,
                        ("attack", Some(&"tty")) => Action::AttackTty,
                        ("attack", Some(&"ext2")) => {
                            let dirs = words
                                .get(4)
                                .ok_or_else(|| err(line_no, "attack ext2 needs a count"))?;
                            Action::AttackExt2(dirs.parse().map_err(|_| {
                                err(line_no, "attack ext2 count must be a number")
                            })?)
                        }
                        ("attack", Some(&"slab")) => {
                            let size: usize = words
                                .get(4)
                                .ok_or_else(|| err(line_no, "attack slab needs a size"))?
                                .parse()
                                .map_err(|_| err(line_no, "slab size must be a number"))?;
                            let probes: usize = words
                                .get(5)
                                .ok_or_else(|| err(line_no, "attack slab needs a probe count"))?
                                .parse()
                                .map_err(|_| err(line_no, "slab probes must be a number"))?;
                            Action::AttackSlab(size, probes)
                        }
                        _ => return Err(err(line_no, "unknown action")),
                    };
                    actions.entry(t).or_default().push(action);
                }
                "secret" => {
                    let word = words
                        .get(1)
                        .ok_or_else(|| err(line_no, "secret needs a word"))?;
                    if word.len() < 8 {
                        return Err(err(line_no, "secret must be at least 8 characters"));
                    }
                    secret = Some(word.as_bytes().to_vec());
                }
                "end" => {
                    let t: usize = words
                        .get(1)
                        .ok_or_else(|| err(line_no, "end needs a tick"))?
                        .parse()
                        .map_err(|_| err(line_no, "end tick must be a number"))?;
                    end = Some(t);
                }
                _ => return Err(err(line_no, "unknown directive")),
            }
        }

        let end = end.ok_or_else(|| err(text.lines().count().max(1), "missing end directive"))?;
        if let Some((&t, _)) = actions.iter().next_back() {
            if t >= end {
                return Err(err(1, "actions scheduled at or after end tick"));
            }
        }
        // tty-input, file-plant and slab attacks require a secret to
        // plant/search for.
        let uses_secret = actions.values().flatten().any(|a| {
            matches!(
                a,
                Action::TtyInput | Action::FilePlant | Action::AttackSlab(_, _)
            )
        });
        if uses_secret && secret.is_none() {
            return Err(ParseError {
                line: 1,
                message:
                    "tty-input / file-plant / attack slab require a `secret <word>` directive"
                        .into(),
            });
        }
        Ok(Self {
            mem_bytes,
            server,
            level,
            key_bits,
            seed,
            end,
            secret,
            actions,
            scan_threads: 1,
        })
    }

    /// The configured run length in ticks.
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.end
    }

    /// Overrides the intra-kernel scan-shard thread count used by the
    /// per-tick scans (clamped to at least 1). A host-side runtime knob:
    /// results are bit-identical at any value, so two otherwise-equal
    /// scenarios differing only here still produce identical outcomes.
    #[must_use]
    pub fn with_scan_threads(mut self, threads: usize) -> Self {
        self.scan_threads = threads.max(1);
        self
    }

    /// Runs a batch of scenarios on the given executor — one cell per
    /// scenario — returning outcomes in input order.
    ///
    /// Every scenario owns its machine and seed, so the batch is
    /// bit-identical to calling [`Self::run`] in a loop at any thread
    /// count.
    pub fn run_batch(
        exec: &crate::exec::Executor,
        scenarios: &[Self],
    ) -> Vec<Result<ScenarioOutcome, SimError>> {
        exec.run(scenarios.iter().collect(), |_, s: &Self| s.run())
    }

    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. an action targeting a stopped
    /// server surfaces as [`SimError::NoSuchProcess`]).
    pub fn run(&self) -> Result<ScenarioOutcome, SimError> {
        match self.server {
            ServerKind::Ssh => self.run_with::<SshServer>("openssh"),
            ServerKind::Apache => self.run_with::<ApacheServer>("apache"),
        }
    }

    fn run_with<S: SecureServer>(
        &self,
        kind_label: &'static str,
    ) -> Result<ScenarioOutcome, SimError> {
        let mut rng = Rng64::new(self.seed);
        let mut kernel = Kernel::new(
            MachineConfig::paper()
                .with_mem_bytes(self.mem_bytes)
                .with_policy(self.level.kernel_policy()),
        );
        kernel.age_memory(&mut rng, 1.0);

        let server_cfg = ServerConfig::new(self.level)
            .with_key_bits(self.key_bits)
            .with_seed(self.seed);
        // The scanner watches every epoch the script can reach, so a
        // retired epoch's stray bytes stay visible. Attack captures scan
        // their own dumped bytes through the plain scanner; the per-tick
        // kernel scan rides the incremental cache.
        let rotations = self
            .actions
            .values()
            .flatten()
            .filter(|a| **a == Action::Rotate)
            .count();
        let secret = self.secret.as_ref().map(|secret| {
            // keylint: allow(S005) -- the scenario's planted session secret is copied into its search pattern by design
            rsa_repro::material::Pattern::new("secret", secret.clone())
        });
        let mut inc = crate::epoch_scanner(
            server_cfg,
            kind_label,
            rotations as u64,
            secret,
            self.scan_threads,
        );
        let dump = TtyMemoryDump::paper();

        let mut server: Option<S> = None;
        let mut attacks = Vec::new();
        let mut points = Vec::with_capacity(self.end);
        // The file-plant target, created on first use.
        let mut plant_file: Option<memsim::FileId> = None;

        for t in 0..self.end {
            if let Some(todo) = self.actions.get(&t) {
                for action in todo {
                    match *action {
                        Action::Start => {
                            server = Some(S::start(&mut kernel, server_cfg)?);
                        }
                        Action::Stop => {
                            if let Some(s) = server.as_mut() {
                                s.stop(&mut kernel)?;
                            }
                        }
                        Action::Concurrency(n) => {
                            if let Some(s) = server.as_mut() {
                                s.set_concurrency(&mut kernel, n)?;
                            }
                        }
                        Action::Pump(n) => {
                            if let Some(s) = server.as_mut() {
                                s.pump(&mut kernel, n)?;
                            }
                        }
                        Action::Swap(pages) => {
                            kernel.swap_out_pressure(pages)?;
                        }
                        Action::Merge => {
                            kernel.merge_identical_pages();
                        }
                        Action::Writeback(pages) => {
                            kernel.writeback(pages)?;
                        }
                        Action::FilePlant => {
                            let secret = self.secret.as_ref().expect("validated at parse");
                            let fid = *plant_file
                                .get_or_insert_with(|| kernel.create_file("scenario.log", b""));
                            let at = kernel.file_len(fid)?;
                            kernel.write_file(fid, at, secret)?;
                        }
                        Action::AttackSwap => {
                            let image = kernel.swap_bytes();
                            let keys_found = inc.scanner().count_matches(image);
                            attacks.push(AttackEvent {
                                t,
                                kind: "swap",
                                keys_found,
                                succeeded: keys_found > 0,
                                disclosed_bytes: image.len(),
                            });
                        }
                        Action::AttackDisk => {
                            // Unprivileged reader: world-readable files only.
                            // The mode-0600 key file is not part of this
                            // channel — what leaks here leaked through the
                            // page cache.
                            let image = kernel.public_disk_bytes();
                            let keys_found = inc.scanner().count_matches(&image);
                            attacks.push(AttackEvent {
                                t,
                                kind: "disk",
                                keys_found,
                                succeeded: keys_found > 0,
                                disclosed_bytes: image.len(),
                            });
                        }
                        Action::TtyInput => {
                            let secret = self.secret.as_ref().expect("validated at parse");
                            kernel.tty_input(secret)?;
                        }
                        Action::Restart => {
                            // Apache: graceful reload; SSH: full stop/start.
                            if let Some(s) = server.as_mut() {
                                s.restart(&mut kernel)?;
                            }
                        }
                        Action::Rotate => {
                            if let Some(s) = server.as_mut() {
                                s.rotate_key(&mut kernel)?;
                            }
                        }
                        Action::AttackSlab(size, probes) => {
                            let capture = SlabProbe::new(size, probes).run(&mut kernel)?;
                            attacks.push(AttackEvent {
                                t,
                                kind: "slab",
                                keys_found: capture.keys_found(inc.scanner()),
                                succeeded: capture.succeeded(inc.scanner()),
                                disclosed_bytes: capture.disclosed_bytes(),
                            });
                        }
                        Action::AttackExt2(dirs) => {
                            let capture = Ext2DirentLeak::new(dirs).run(&mut kernel)?;
                            attacks.push(AttackEvent {
                                t,
                                kind: "ext2",
                                keys_found: capture.keys_found(inc.scanner()),
                                succeeded: capture.succeeded(inc.scanner()),
                                disclosed_bytes: capture.disclosed_bytes(),
                            });
                        }
                        Action::AttackTty => {
                            let capture = dump.run(&kernel, &mut rng);
                            attacks.push(AttackEvent {
                                t,
                                kind: "tty",
                                keys_found: capture.keys_found(inc.scanner()),
                                succeeded: capture.succeeded(inc.scanner()),
                                disclosed_bytes: capture.disclosed_bytes(),
                            });
                        }
                    }
                }
            }
            let report = inc.scan(&kernel);
            let swap_hits = inc.scanner().count_matches(kernel.swap_bytes());
            points.push(TimelinePoint {
                t,
                allocated: report.allocated(),
                unallocated: report.unallocated(),
                locations: report.locations(),
                swap_hits,
            });
        }
        Ok(ScenarioOutcome {
            timeline: Timeline {
                kind_label,
                level: self.level,
                points,
                shed: server.as_ref().map(SecureServer::shedding).unwrap_or_default(),
                scan: inc.stats(),
            },
            attacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG5_SCRIPT: &str = "
# figure-5-like unprotected run on a small machine
machine mem-mb 16
server ssh level none key-bits 256
at 2 start
at 4 concurrency 6
at 6 pump 12
at 8 concurrency 0
at 10 stop
at 12 attack ext2 500
at 13 attack tty
end 15
";

    #[test]
    fn parse_extracts_everything() {
        let s = Scenario::parse(FIG5_SCRIPT).unwrap();
        assert_eq!(s.mem_bytes, 16 * 1024 * 1024);
        assert_eq!(s.server, ServerKind::Ssh);
        assert_eq!(s.level, ProtectionLevel::None);
        assert_eq!(s.key_bits, 256);
        assert_eq!(s.ticks(), 15);
        assert_eq!(s.actions[&2], vec![Action::Start]);
        assert_eq!(s.actions[&12], vec![Action::AttackExt2(500)]);
        assert_eq!(s.actions[&13], vec![Action::AttackTty]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "machine mem-mb donkey\nend 5\n";
        let e = Scenario::parse(bad).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("mem-mb"));

        let e = Scenario::parse("at 3 frobnicate\nend 5\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("unknown action"));

        let e = Scenario::parse("at 3 start\n").unwrap_err();
        assert!(e.message.contains("missing end"));

        let e = Scenario::parse("at 9 start\nend 5\n").unwrap_err();
        assert!(e.message.contains("at or after end"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let s = Scenario::parse("# all comments\n\nend 3 # trailing\n").unwrap();
        assert_eq!(s.ticks(), 3);
        assert!(s.actions.is_empty());
    }

    #[test]
    fn run_produces_timeline_and_attacks() {
        let outcome = Scenario::parse(FIG5_SCRIPT).unwrap().run().unwrap();
        assert_eq!(outcome.timeline.points.len(), 15);
        // Nothing before the server starts; copies appear afterwards.
        assert_eq!(outcome.timeline.at(1).unwrap().total(), 0);
        assert!(outcome.timeline.at(6).unwrap().total() > 3);
        // Both attacks fired; the unprotected machine falls to the ext2 leak.
        assert_eq!(outcome.attacks.len(), 2);
        assert_eq!(outcome.attacks[0].kind, "ext2");
        assert!(outcome.attacks[0].succeeded);
        assert_eq!(outcome.attacks[1].kind, "tty");
    }

    #[test]
    fn protected_scenario_resists() {
        let script = "
machine mem-mb 16
server apache level integrated key-bits 256
at 1 start
at 2 concurrency 8
at 3 pump 16
at 4 attack ext2 500
end 6
";
        let outcome = Scenario::parse(script).unwrap().run().unwrap();
        assert_eq!(outcome.attacks.len(), 1);
        assert!(!outcome.attacks[0].succeeded);
        assert_eq!(outcome.attacks[0].keys_found, 0);
        // Constant three copies while running.
        assert_eq!(outcome.timeline.at(5).unwrap().total(), 3);
    }

    #[test]
    fn swap_action_runs() {
        let script = "server ssh key-bits 256\nat 1 start\nat 2 swap 100\nend 4\n";
        let outcome = Scenario::parse(script).unwrap().run().unwrap();
        assert_eq!(outcome.timeline.points.len(), 4);
    }

    #[test]
    fn swap_theft_scenario_respects_the_mlock_line() {
        for (level, expect) in [("none", true), ("integrated", false)] {
            let script = format!(
                "machine mem-mb 16\nserver ssh level {level} key-bits 256\n\
                 at 1 start\nat 2 concurrency 4\nat 3 pump 8\nat 4 swap 4000\n\
                 at 5 attack swap\nend 7\n"
            );
            let outcome = Scenario::parse(&script).unwrap().run().unwrap();
            assert_eq!(outcome.attacks.len(), 1);
            assert_eq!(outcome.attacks[0].kind, "swap");
            assert_eq!(outcome.attacks[0].succeeded, expect, "{level}");
            // The per-tick swap column tells the same story as the attack.
            assert_eq!(
                outcome.timeline.at(4).unwrap().swap_hits > 0,
                expect,
                "{level}"
            );
            // Ticks before the pressure show a clean device.
            assert_eq!(outcome.timeline.at(3).unwrap().swap_hits, 0, "{level}");
        }
    }

    #[test]
    fn file_plant_leaks_to_disk_only_after_writeback() {
        let script = "
server ssh level integrated key-bits 256
secret disk-resident-passphrase
at 1 start
at 2 file-plant
at 3 attack disk
at 4 writeback 64
at 5 attack disk
end 7
";
        let outcome = Scenario::parse(script).unwrap().run().unwrap();
        assert_eq!(outcome.attacks.len(), 2);
        let (before, after) = (&outcome.attacks[0], &outcome.attacks[1]);
        assert_eq!(before.kind, "disk");
        assert!(!before.succeeded, "dirty cache only — disk still clean");
        assert!(after.succeeded, "writeback persisted the secret");
        assert!(after.disclosed_bytes >= b"disk-resident-passphrase".len());
    }

    #[test]
    fn merge_action_runs_and_two_runs_are_identical() {
        let script = "machine mem-mb 16\nserver ssh level app key-bits 256\n\
                      at 1 start\nat 2 pump 4\nat 3 merge\nat 4 swap 200\nend 6\n";
        let a = Scenario::parse(script).unwrap().run().unwrap();
        let b = Scenario::parse(script).unwrap().run().unwrap();
        assert_eq!(a, b, "scenario runs must be bit-identical");
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn slab_gap_scenario_demonstrates_the_hole() {
        let script = "
machine mem-mb 16
server ssh level integrated key-bits 256
secret hunter2-passphrase
at 1 start
at 2 tty-input
at 3 attack ext2 400
at 4 attack slab 32 64
end 6
";
        let outcome = Scenario::parse(script).unwrap().run().unwrap();
        assert_eq!(outcome.attacks.len(), 2);
        let ext2 = &outcome.attacks[0];
        let slab = &outcome.attacks[1];
        assert_eq!(ext2.kind, "ext2");
        assert!(!ext2.succeeded, "page zeroing stops the page-level leak");
        assert_eq!(slab.kind, "slab");
        assert!(slab.succeeded, "the slab probe recovers the passphrase");
    }

    #[test]
    fn rotate_action_rekeys_and_the_scanner_tracks_both_epochs() {
        // Integrated: the epoch-0 key retires completely once its last
        // connection drains, and the successor takes its place — the
        // multi-epoch scanner proves the swap left no debris.
        let script = "
machine mem-mb 16
server ssh level integrated key-bits 256
at 1 start
at 2 concurrency 4
at 3 pump 8
at 4 rotate
at 5 pump 8
at 6 concurrency 0
end 8
";
        let outcome = Scenario::parse(script).unwrap().run().unwrap();
        // Mid-life (before the rotation): exactly the boot epoch's 3 copies.
        assert_eq!(outcome.timeline.at(3).unwrap().total(), 3);
        // After the drain completes: still exactly 3 — the successor's.
        assert_eq!(outcome.timeline.at(7).unwrap().total(), 3);
        assert_eq!(outcome.timeline.peak_unallocated(), 0);

        // Unprotected, the same script leaves both epochs' debris visible.
        let leaky = script.replace("level integrated", "level none");
        let outcome = Scenario::parse(&leaky).unwrap().run().unwrap();
        assert!(
            outcome.timeline.at(7).unwrap().total() > 3,
            "rotation debris visible: {:?}",
            outcome.timeline.at(7)
        );
    }

    #[test]
    fn restart_action_works_for_both_servers() {
        for kind in ["ssh", "apache"] {
            let script = format!(
                "server {kind} level integrated key-bits 256\nmachine mem-mb 16\n\
                 at 1 start\nat 2 concurrency 6\nat 3 restart\nat 4 pump 6\nend 6\n"
            );
            let outcome = Scenario::parse(&script).unwrap().run().unwrap();
            // Aligned copies intact after the restart, nothing leaked.
            let last = outcome.timeline.at(5).unwrap();
            assert_eq!(last.unallocated, 0, "{kind}");
            assert!(last.allocated >= 3, "{kind}");
        }
    }

    #[test]
    fn secret_directive_is_required_for_slab_actions() {
        let script = "server ssh\nat 1 start\nat 2 tty-input\nend 4\n";
        let e = Scenario::parse(script).unwrap_err();
        assert!(e.message.contains("secret"), "{e}");
        let script = "server ssh\nat 1 attack slab 32 8\nend 4\n";
        assert!(Scenario::parse(script).is_err());
        let script = "server ssh\nsecret short\nend 4\n";
        assert!(Scenario::parse(script).unwrap_err().message.contains("8 characters"));
    }
}
