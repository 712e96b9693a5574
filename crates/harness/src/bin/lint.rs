//! `cargo run -p harness --bin lint` — the key-hygiene gate.
//!
//! Runs the `keylint` static analysis over the whole workspace with the
//! committed `keylint.toml` and `keylint-baseline.json`, exactly as
//! `scripts/ci.sh` does, and exits non-zero on any unsuppressed finding.
//! Pass `--json` for machine-readable output.

use harness::cli::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse();
    let json = args.has("json");
    args.reject_unread();
    let cwd = std::env::current_dir().expect("harness lint needs a working directory");
    let root = keylint::find_workspace_root(&cwd);
    match keylint::lint_workspace(&root) {
        Ok(report) => {
            let format = if json {
                keylint::Format::Json
            } else {
                keylint::Format::Text
            };
            print!("{}", report.render(format));
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("harness lint: {e}");
            ExitCode::from(2)
        }
    }
}
