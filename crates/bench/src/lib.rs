//! # fluctrace-bench
//!
//! The reproduction harness. One binary, `figures`, regenerates every
//! paper table, figure and section (`cargo run -p fluctrace-bench
//! --release --bin figures -- fig9`, or `-- all`) from the registry in
//! [`figures`], built on the shared experiment runners in this library;
//! beside it is `obs_overhead`, the obs budget gate. Speed is measured
//! only by the repository's benchmark (`benchmark/README.md`).
//!
//! Scale: the paper averages Fig. 9 over 10 000 packets per type and
//! sends 300 K requests at NGINX; `figures` defaults to a scale that
//! finishes in seconds and accepts `FLUCTRACE_SCALE=paper` for the full
//! workload. Every entry prints its report and writes it, with its JSON
//! documents, under `artifacts/` (override with `FLUCTRACE_ARTIFACTS`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acl_experiment;
pub mod depgraph_experiment;
pub mod figures;
pub mod obs_support;
pub mod overload_experiment;
pub mod sampling_experiment;
pub mod store_support;

use std::path::PathBuf;

/// Where figure artifacts are written.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("FLUCTRACE_ARTIFACTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("artifacts"))
}

/// Experiment scale selected via `FLUCTRACE_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast default: seconds per figure.
    Quick,
    /// The paper's workload sizes (minutes).
    Paper,
}

impl Scale {
    /// Read the scale from the environment (`FLUCTRACE_SCALE=paper`).
    pub fn from_env() -> Scale {
        match std::env::var("FLUCTRACE_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Packets per type for the ACL experiments (paper: 10 000).
    pub fn packets_per_type(self) -> usize {
        match self {
            Scale::Quick => 500,
            Scale::Paper => 10_000,
        }
    }

    /// Rule-set parameters `(sports, dports, tail)` for Table III.
    ///
    /// The paper's caption says "666 × 750 + 500 = 50 000 rules", which
    /// is arithmetically inconsistent (666·750+500 = 500 000); we honour
    /// the *claimed totals* — 50 000 rules stored in 247 tries — by
    /// keeping the 666(+1) distinct source ports and using 75
    /// destination ports: 666 × 75 + 50 = 50 000. See EXPERIMENTS.md.
    pub fn table3_params(self) -> (u16, u16, u16) {
        // The 50 000-rule build takes < 0.5 s, so both scales use the
        // full 247-trie set; scales differ only in packet/request counts.
        let _ = self;
        (666, 75, 50)
    }

    /// Requests for the web-server profile (paper: 300 000).
    pub fn webserver_requests(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Paper => 300_000,
        }
    }

    /// µops per kernel run for the sampling experiment.
    pub fn kernel_uops(self) -> u64 {
        match self {
            Scale::Quick => 20_000_000,
            Scale::Paper => 400_000_000,
        }
    }
}

/// Run a sweep of independent experiment configurations over the shared
/// worker pool and return the results **in input order**.
///
/// Each figure sweep (reset values × samplers × kernels, …) seeds its
/// own simulator, so configurations share no state and fan out freely.
/// Results are collected by index, making the output — and therefore
/// every table and JSON artifact downstream — bit-identical to running
/// the same loop sequentially. Pool size comes from `FLUCTRACE_THREADS`
/// (default: available parallelism; `1` = the old sequential behaviour).
pub fn run_sweep<T, R, F>(configs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if fluctrace_obs::recording() {
        fluctrace_obs::counter!("bench.sweep.runs").inc();
        fluctrace_obs::counter!("bench.sweep.configs").add(configs.len() as u64);
    }
    fluctrace_core::run_indexed(configs, fluctrace_core::configured_threads(), |_, c| f(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_sane() {
        assert!(Scale::Quick.packets_per_type() < Scale::Paper.packets_per_type());
        let (s, d, t) = Scale::Paper.table3_params();
        let _ = Scale::Quick.table3_params();
        assert_eq!(s as u64 * d as u64 + t as u64, 50_000);
        assert_eq!(50_000usize.div_ceil(203), 247, "rules land in 247 tries");
        assert_eq!(Scale::Paper.webserver_requests(), 300_000);
    }

    #[test]
    fn default_scale_is_quick() {
        // Unless the env var is set in this test environment.
        if std::env::var("FLUCTRACE_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
    }
}
