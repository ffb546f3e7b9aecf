//! Shared `--obs` plumbing for the binaries.
//!
//! Every bin calls [`init`] first: it installs the wall clock so the
//! span journal carries real nanoseconds, and parses the flags every
//! bin shares ([`SharedArgs`]). When `--obs <path>` is on the command
//! line, `figures` runs the deterministic [`obs_probe`] last and writes
//! the canonical JSON snapshot of the process-wide registry to that
//! path ([`write_snapshot`]).
//!
//! The snapshot is byte-identical across runs and `FLUCTRACE_THREADS`
//! settings: the registry records only deterministic quantities (event
//! counts, sim-TSC cycle widths, sizes — never wall-clock durations),
//! and the probe drives every subsystem with fixed seeds. The
//! `obs_snapshot` integration test and the conformance golden pin this.

use crate::acl_experiment::{run_acl, AclRunConfig};
use crate::overload_experiment::{run_degradation, run_overload, OverloadConfig};
use fluctrace_core::AdaptiveConfig;
use fluctrace_sim::FaultPlan;
use std::path::{Path, PathBuf};

/// Seed for the probe's fault schedule.
const PROBE_SEED: u64 = 0x0b5e_0b5e;

/// The flags every bin shares. Bin-specific arguments are the bin's own
/// to parse; they are kept, in order, in [`SharedArgs::rest`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedArgs {
    /// `--obs <path>` / `--obs=<path>`: write the registry snapshot.
    pub obs: Option<PathBuf>,
    /// `--store <path>`: spill the run's raw bundles.
    pub store: Option<PathBuf>,
    /// `--from-store <path>`: replay a store instead of running.
    pub from_store: Option<PathBuf>,
    /// Every argument that is neither a shared flag nor its path.
    pub rest: Vec<String>,
}

/// Parse the shared flags out of `args` (program name excluded). A
/// flag whose path is missing, empty, or itself looks like a flag is an
/// error.
pub(crate) fn parse_shared(args: &[String]) -> Result<SharedArgs, String> {
    let mut out = SharedArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some(("--obs", v)) => ("--obs", Some(v)),
            _ => (a.as_str(), None),
        };
        let slot = match flag {
            "--obs" => &mut out.obs,
            "--store" => &mut out.store,
            "--from-store" => &mut out.from_store,
            _ => {
                out.rest.push(a.clone());
                continue;
            }
        };
        match inline.or_else(|| it.next().map(String::as_str)) {
            Some(v) if !v.is_empty() && !v.starts_with("--") => *slot = Some(PathBuf::from(v)),
            _ => return Err(format!("{flag} requires a path argument")),
        }
    }
    Ok(out)
}

/// Install the wall clock for the span journal and parse the shared
/// flags, exiting 2 on a malformed one before any work runs. Call first
/// in `main`; library and test code must never call this (ticks stay
/// sim-domain there so flight-recorder output is reproducible).
pub fn init() -> SharedArgs {
    fluctrace_obs::install_wall_clock();
    let argv: Vec<String> = std::env::args().collect();
    parse_shared(argv.get(1..).unwrap_or_default()).unwrap_or_else(|e| {
        let bin = argv.first().map(Path::new).and_then(Path::file_name);
        eprintln!("{}: {e}", bin.unwrap_or_default().to_string_lossy());
        std::process::exit(2)
    })
}

/// Exercise every instrumented subsystem with fixed inputs so an
/// `--obs` snapshot has a nonzero, reproducible value for each catalog
/// section regardless of which entries the run computed.
pub fn obs_probe() {
    // ACL pipeline: integrate / estimate / parallel plus rt stages and
    // Pipeline::run, all in the sim-clock domain.
    let _ = run_acl(AclRunConfig::new(Some(8_000), 40, (200, 100, 0)));

    // Online tracer over a faulted replay: the whole loss ledger. The
    // single worker drains batches in submission order (blocking
    // submit), so its report — and the bulk-added totals — are exact.
    let plan = FaultPlan {
        drop_open_per_mille: 100,
        corrupt_close_per_mille: 100,
        burst_per_mille: 100,
        burst_len: 40,
    };
    let cfg = OverloadConfig {
        items: 200,
        schedule: plan.schedule(200, PROBE_SEED),
        max_pending: 16,
        keep_bundle: false,
    };
    let r = run_overload(&cfg);
    assert!(r.accounting_exact(), "probe replay must account exactly");

    // Adaptive effective-reset policy over a scripted occupancy wave.
    let _ = run_degradation(60, 20, 1.0, AdaptiveConfig::new());

    // A batched stage (the firewall path in `run_acl` uses per-item
    // stages only): a backlog of 6 items bursts through in groups of 4.
    let mut b = fluctrace_cpu::SymbolTableBuilder::new();
    let poll = b.add("probe_poll", 512);
    let work = b.add("probe_work", 2048);
    let mut core = fluctrace_cpu::Core::new(
        fluctrace_cpu::CoreId(0),
        fluctrace_cpu::CoreConfig::bare(),
        b.build().into_shared(),
        fluctrace_sim::Rng::new(PROBE_SEED),
    );
    let input = fluctrace_rt::timed::arrival_schedule(
        fluctrace_sim::SimTime::ZERO,
        fluctrace_sim::SimDuration::ZERO,
        6,
        |i| i as u64,
    );
    let out = fluctrace_rt::stage::run_stage_batched(
        &mut core,
        input,
        fluctrace_rt::StageOpts::new(poll),
        4,
        |core, batch| {
            core.exec(fluctrace_cpu::Exec::new(work, 1_000 * batch.len() as u64));
            batch
        },
    );
    assert_eq!(out.len(), 6);

    // The lock-free ring, single-threaded so stall counts are exact:
    // the 9th push stalls on the full ring, the final pop observes it
    // empty. The stall run and the empty pop each open a typed wait
    // edge that the handle Drop closes, so `rt.wait.*` is nonzero.
    let (mut tx, mut rx) = fluctrace_rt::spsc_ring::<u64>(8);
    for i in 0..9 {
        let _ = tx.push(i);
    }
    while rx.pop().is_some() {}
    drop((tx, rx));

    // A bounded three-stage pipeline with a slow middle stage: the DP
    // offers deterministic stage-handoff / ring-full / ring-empty wait
    // edges (the DepGraph diagnosis substrate).
    let run = fluctrace_rt::run_bounded(&fluctrace_rt::BoundedSpec {
        ring_capacity: 2,
        arrivals: (0..12).map(|i| i * 40).collect(),
        stages: (0..3)
            .map(|s| fluctrace_rt::BoundedStage {
                core: s,
                service: vec![if s == 1 { 90 } else { 30 }; 12],
            })
            .collect(),
    });
    assert_eq!(run.items(), 12);
}

/// Write the registry snapshot as canonical JSON, creating parent
/// directories as needed.
pub fn write_snapshot(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, fluctrace_obs::snapshot_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<SharedArgs, String> {
        parse_shared(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn obs_path_accepts_both_flag_forms() {
        let want = Some(PathBuf::from("/tmp/o.json"));
        assert_eq!(parse("--obs /tmp/o.json").unwrap().obs, want);
        assert_eq!(parse("--obs=/tmp/o.json").unwrap().obs, want);
        assert_eq!(parse("").unwrap(), SharedArgs::default());
    }

    #[test]
    fn shared_flags_parse_beside_bin_flags() {
        let a = parse("fig9 --label x --store a.flt --obs o.json --from-store b.flt").unwrap();
        let path = |p: &str| Some(PathBuf::from(p));
        assert_eq!(a.store, path("a.flt"));
        assert_eq!(a.obs, path("o.json"));
        assert_eq!(a.from_store, path("b.flt"));
        assert_eq!(a.rest, ["fig9", "--label", "x"]);
    }

    #[test]
    fn a_missing_path_is_an_error() {
        // Last on the line, empty, or the next flag in place of a path.
        for line in [
            "--obs",
            "--obs=",
            "--obs=--store",
            "--store",
            "--from-store",
            "--store --obs /tmp/o.json",
            "--obs --store a.flt",
        ] {
            assert!(parse(line).is_err(), "{line:?} accepted");
        }
    }
}
