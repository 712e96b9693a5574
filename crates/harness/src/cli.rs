//! A tiny flag parser shared by the experiment binaries (no external
//! dependencies; only `--flag value` and bare `--switch` forms).
//!
//! `Args` records every flag name a binary asks for, so a binary can
//! reject, before it starts work, a flag it never reads
//! ([`Args::reject_unread`]): a misspelt or retired flag fails instead of
//! silently changing what runs.

use crate::faultsweep::FaultMode;
use crate::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    asked: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses `std::env::args` (skipping the program name).
    ///
    /// # Panics
    ///
    /// Panics (with a usage-style message) when a non-flag token appears.
    #[must_use]
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (used in tests).
    #[must_use]
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut out = Self::default();
        let mut iter = iter.into_iter().peekable();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                panic!("unexpected argument {tok:?}: flags look like --name [value]");
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    out.values.insert(name.to_string(), v);
                }
                _ => out.switches.push(name.to_string()),
            }
        }
        out
    }

    /// The value of `--name value`, if given.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.asked.borrow_mut().insert(name.to_string());
        self.values.get(name).map(String::as_str)
    }

    /// Whether the bare switch `--name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.asked.borrow_mut().insert(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Call once every flag the binary uses has been read, before any
    /// work starts.
    ///
    /// # Panics
    ///
    /// Panics when a given flag was never asked for: unknown, misspelt, or
    /// overridden by another flag (a second scale preset, or a scale next
    /// to `--smoke`).
    pub fn reject_unread(&self) {
        let asked = self.asked.borrow();
        let unread: Vec<String> = (self.values.keys().chain(&self.switches))
            .filter(|name| !asked.contains(*name))
            .map(|name| format!("--{name}"))
            .collect();
        assert!(
            unread.is_empty(),
            "unused flag(s) {}: unknown, misspelt, or overridden by another flag",
            unread.join(" ")
        );
    }

    /// A numeric flag with a default.
    ///
    /// # Panics
    ///
    /// Panics when the value does not parse.
    #[must_use]
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}")))
            .unwrap_or(default)
    }

    /// Resolves the standard `--paper` / `--quick` / `--test` scale flags
    /// (default: quick), honouring `--reps`, `--mem-mb`, and `--key-bits`
    /// overrides. Only the first scale flag found is asked for, so a
    /// second one fails [`Self::reject_unread`].
    #[must_use]
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = if self.has("paper") {
            ExperimentConfig::paper()
        } else if self.has("test") {
            ExperimentConfig::test()
        } else {
            // `--quick` names the default scale.
            let _ = self.has("quick");
            ExperimentConfig::quick()
        };
        if let Some(reps) = self.get("reps") {
            cfg.repetitions = reps.parse().expect("--reps expects a number");
        }
        if let Some(mb) = self.get("mem-mb") {
            cfg.mem_bytes = mb.parse::<usize>().expect("--mem-mb expects a number") * 1024 * 1024;
        }
        if let Some(bits) = self.get("key-bits") {
            cfg.key_bits = bits.parse().expect("--key-bits expects a number");
        }
        if let Some(t) = self.get("scan-threads") {
            cfg.scan_threads = t
                .parse::<usize>()
                .expect("--scan-threads expects a number")
                .max(1);
        }
        cfg
    }

    /// The output directory (`--out`, default `results`).
    #[must_use]
    pub fn out_dir(&self) -> std::path::PathBuf {
        std::path::PathBuf::from(self.get("out").unwrap_or("results"))
    }

    /// The experiment executor: `--threads N` if given, else
    /// `HARNESS_THREADS`, else the machine's available parallelism.
    /// `--threads 1` is the serial reference oracle.
    ///
    /// # Panics
    ///
    /// Panics when `--threads` does not parse as a number.
    #[must_use]
    pub fn executor(&self) -> crate::exec::Executor {
        match self.get("threads") {
            Some(v) => crate::exec::Executor::new(
                v.parse()
                    .unwrap_or_else(|_| panic!("--threads expects a number, got {v:?}")),
            ),
            None => crate::exec::Executor::from_env(),
        }
    }

    /// The servers named by `--server ssh|apache|both` (default: both).
    ///
    /// # Panics
    ///
    /// Panics on an unknown server label.
    #[must_use]
    pub fn servers(&self) -> Vec<ServerKind> {
        match self.get("server").unwrap_or("both") {
            "both" => ServerKind::ALL.to_vec(),
            s => vec![one_server(s)],
        }
    }

    /// The one server named by `--server ssh|apache`, `default` when
    /// absent: the single-value form of [`Self::servers`], for a binary
    /// that runs one server.
    ///
    /// # Panics
    ///
    /// Panics on an unknown server label and on `both`.
    #[must_use]
    pub fn server(&self, default: &str) -> ServerKind {
        match self.get("server").unwrap_or(default) {
            "both" => panic!("--server both: this binary runs one server, ssh or apache"),
            s => one_server(s),
        }
    }

    /// The levels named by `--level LABEL|all`, `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics on an unknown level label.
    #[must_use]
    pub fn levels(&self, default: &str) -> Vec<ProtectionLevel> {
        // `all` must match first: `ProtectionLevel::from_label("all")` is
        // the integrated level.
        match self.get("level").unwrap_or(default) {
            "all" => ProtectionLevel::ALL.to_vec(),
            s => vec![one_level(s)],
        }
    }

    /// The one level named by `--level LABEL`, `default` when absent: the
    /// single-value form of [`Self::levels`], for a binary that runs one
    /// level.
    ///
    /// # Panics
    ///
    /// Panics on an unknown level label and on `all`, which here would
    /// otherwise parse as the integrated level.
    #[must_use]
    pub fn level(&self, default: &str) -> ProtectionLevel {
        match self.get("level").unwrap_or(default) {
            "all" => panic!("--level all: this binary runs one level"),
            s => one_level(s),
        }
    }

    /// The fault modes named by `--mode fail|kill|both` (default: both).
    ///
    /// # Panics
    ///
    /// Panics on an unknown mode.
    #[must_use]
    pub fn modes(&self) -> Vec<FaultMode> {
        match self.get("mode").unwrap_or("both") {
            "fail" => vec![FaultMode::Fail],
            "kill" => vec![FaultMode::Kill],
            "both" => vec![FaultMode::Fail, FaultMode::Kill],
            s => panic!("unknown --mode {s:?}: expected fail, kill, or both"),
        }
    }
}

fn one_server(label: &str) -> ServerKind {
    ServerKind::from_label(label).unwrap_or_else(|| panic!("unknown --server {label:?}"))
}

fn one_level(label: &str) -> ProtectionLevel {
    ProtectionLevel::from_label(label).unwrap_or_else(|| panic!("unknown --level {label:?}"))
}

/// The verdict tail of the gate binaries (`faultsweep`, `rotsweep`,
/// `attacker_matrix`): prints every violation to stderr and exits 1 if
/// there is any, else prints `{tool}: {held}`.
pub fn exit_on_violations(tool: &str, what: &str, violations: &[String], held: &str) {
    for v in violations {
        eprintln!("VIOLATION: {v}");
    }
    if !violations.is_empty() {
        eprintln!("{tool}: {} {what} violations", violations.len());
        std::process::exit(1);
    }
    println!("{tool}: {held}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_tokens(s.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args(&["--server", "ssh", "--paper", "--reps", "7"]);
        assert_eq!(a.get("server"), Some("ssh"));
        assert!(a.has("paper"));
        assert!(!a.has("quick"));
        assert_eq!(a.get_usize("reps", 1), 7);
        assert_eq!(a.get_usize("missing", 3), 3);
    }

    #[test]
    fn experiment_config_scales() {
        assert_eq!(args(&["--paper"]).experiment_config().key_bits, 1024);
        assert_eq!(args(&["--test"]).experiment_config().key_bits, 256);
        assert_eq!(args(&[]).experiment_config().key_bits, 512);
        let a = args(&["--reps", "9", "--mem-mb", "32", "--key-bits", "512"]);
        let cfg = a.experiment_config();
        assert_eq!(cfg.repetitions, 9);
        assert_eq!(cfg.mem_bytes, 32 * 1024 * 1024);
        assert_eq!(cfg.key_bits, 512);
    }

    #[test]
    fn scan_threads_flag_wires_into_config() {
        assert_eq!(args(&[]).experiment_config().scan_threads, 1);
        assert_eq!(args(&["--scan-threads", "4"]).experiment_config().scan_threads, 4);
        // Zero clamps to the serial oracle rather than panicking.
        assert_eq!(args(&["--scan-threads", "0"]).experiment_config().scan_threads, 1);
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn rejects_positional_arguments() {
        let _ = args(&["positional"]);
    }

    #[test]
    fn threads_flag_builds_executor() {
        assert_eq!(args(&["--threads", "3"]).executor().threads(), 3);
        assert_eq!(args(&["--threads", "0"]).executor().threads(), 1);
        // Without the flag the executor resolves from the environment;
        // whatever it picks must be at least one worker.
        assert!(args(&[]).executor().threads() >= 1);
    }

    #[test]
    fn servers_flag() {
        assert_eq!(args(&[]).servers(), ServerKind::ALL.to_vec());
        assert_eq!(args(&["--server", "both"]).servers(), ServerKind::ALL.to_vec());
        assert_eq!(args(&["--server", "apache"]).servers(), vec![ServerKind::Apache]);
        assert_eq!(args(&["--server", "openssh"]).servers(), vec![ServerKind::Ssh]);
    }

    #[test]
    #[should_panic(expected = "unknown --server \"nginx\"")]
    fn servers_flag_rejects_unknown_labels() {
        let _ = args(&["--server", "nginx"]).servers();
    }

    #[test]
    fn levels_flag() {
        assert_eq!(args(&[]).levels("none"), vec![ProtectionLevel::None]);
        assert_eq!(args(&[]).levels("all"), ProtectionLevel::ALL.to_vec());
        // `all` is every level, not the integrated level `from_label("all")`
        // would give.
        assert_eq!(args(&["--level", "all"]).levels("none"), ProtectionLevel::ALL.to_vec());
        assert_eq!(
            args(&["--level", "kernel"]).levels("all"),
            vec![ProtectionLevel::Kernel]
        );
    }

    #[test]
    #[should_panic(expected = "unknown --level \"paranoid\"")]
    fn levels_flag_rejects_unknown_labels() {
        let _ = args(&["--level", "paranoid"]).levels("all");
    }

    #[test]
    fn single_server_and_level_flags() {
        assert_eq!(args(&[]).server("ssh"), ServerKind::Ssh);
        assert_eq!(
            args(&["--server", "httpd"]).server("ssh"),
            ServerKind::Apache
        );
        assert_eq!(args(&[]).level("none"), ProtectionLevel::None);
        assert_eq!(
            args(&["--level", "kernel"]).level("none"),
            ProtectionLevel::Kernel
        );
        assert_eq!(
            args(&["--level", "integrated"]).level("none"),
            ProtectionLevel::Integrated
        );
    }

    #[test]
    #[should_panic(expected = "unknown --server \"nginx\"")]
    fn single_server_flag_rejects_unknown_labels() {
        let _ = args(&["--server", "nginx"]).server("ssh");
    }

    #[test]
    #[should_panic(expected = "--server both: this binary runs one server")]
    fn single_server_flag_rejects_both() {
        let _ = args(&["--server", "both"]).server("ssh");
    }

    #[test]
    #[should_panic(expected = "unknown --level \"paranoid\"")]
    fn single_level_flag_rejects_unknown_labels() {
        let _ = args(&["--level", "paranoid"]).level("none");
    }

    #[test]
    #[should_panic(expected = "--level all: this binary runs one level")]
    fn single_level_flag_rejects_all() {
        let _ = args(&["--level", "all"]).level("none");
    }

    #[test]
    fn modes_flag() {
        let both = vec![FaultMode::Fail, FaultMode::Kill];
        assert_eq!(args(&[]).modes(), both);
        assert_eq!(args(&["--mode", "both"]).modes(), both);
        assert_eq!(args(&["--mode", "kill"]).modes(), vec![FaultMode::Kill]);
        assert_eq!(args(&["--mode", "fail"]).modes(), vec![FaultMode::Fail]);
    }

    #[test]
    #[should_panic(expected = "unknown --mode \"crash\"")]
    fn modes_flag_rejects_unknown_labels() {
        let _ = args(&["--mode", "crash"]).modes();
    }

    #[test]
    fn quick_counts_as_read() {
        let a = args(&["--quick"]);
        assert_eq!(a.experiment_config(), ExperimentConfig::quick());
        a.reject_unread();
    }

    #[test]
    fn read_flags_pass_the_unread_check() {
        let a = args(&["--test", "--server", "ssh", "--threads", "2"]);
        let _ = (a.experiment_config(), a.servers(), a.executor());
        a.reject_unread();
        // Asking for a flag that was not given is fine too.
        let a = args(&[]);
        let _ = (a.experiment_config(), a.get("out"), a.has("smoke"));
        a.reject_unread();
    }

    #[test]
    #[should_panic(expected = "unused flag(s) --frobnicate")]
    fn unknown_flags_fail_the_unread_check() {
        let a = args(&["--test", "--frobnicate"]);
        let _ = a.experiment_config();
        a.reject_unread();
    }

    #[test]
    #[should_panic(expected = "unused flag(s) --levle")]
    fn misspelt_flags_fail_the_unread_check() {
        let a = args(&["--test", "--levle", "kernel"]);
        let _ = (a.experiment_config(), a.levels("all"));
        a.reject_unread();
    }

    #[test]
    #[should_panic(expected = "unused flag(s) --test")]
    fn a_second_scale_fails_the_unread_check() {
        let a = args(&["--paper", "--test"]);
        let _ = a.experiment_config();
        a.reject_unread();
    }

    #[test]
    fn out_dir_default() {
        assert_eq!(args(&[]).out_dir(), std::path::PathBuf::from("results"));
        assert_eq!(
            args(&["--out", "/tmp/x"]).out_dir(),
            std::path::PathBuf::from("/tmp/x")
        );
    }
}
