//! `figures` — regenerate the paper's tables, figures and sections.
//!
//! ```text
//! figures <id>... | all [--obs <path>] [--store <path>] [--from-store <path>]
//! ```
//!
//! Each id is one row of DESIGN.md § 5 ([`fluctrace_bench::figures`]
//! lists them); `all` runs every one in-process. Each report is printed
//! and written, with its JSON documents, under `FLUCTRACE_ARTIFACTS`
//! (default `artifacts/`). Exit code 0 on success, 1 when a check failed
//! or an output could not be written, 2 on a usage error.

use fluctrace_bench::{artifact_dir, figures, obs_support, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = obs_support::init();
    let code = figures::run(figures::REGISTRY, &args, &artifact_dir(), Scale::from_env());
    ExitCode::from(code)
}
