//! `perf-hunt` — run the hot-path regression hunt from the command
//! line.
//!
//! ```text
//! perf-hunt                      # measure, print the report
//! perf-hunt --gate               # exit 1 unless speedup CI >= floor
//! perf-hunt --gate --floor 1.5   # custom floor
//! perf-hunt --gate --mutant-slow # teeth check: MUST exit 1
//! perf-hunt --record [--label L] # append to artifacts/BENCH_hotpath.json
//! perf-hunt --bisect [--baseline PATH] [--slack 0.15]
//! ```
//!
//! `--bisect` compares HEAD's new-path throughput against the latest
//! recorded trajectory entry and exits 1 on a significant regression —
//! wired for `git bisect run perf-hunt --bisect`.
//!
//! Workload size honours `FLUCTRACE_PERF_SAMPLES` / `FLUCTRACE_PERF_REPS`;
//! threads honour `FLUCTRACE_THREADS`.

use fluctrace_bench::obs_support;
use fluctrace_bench::perf_hunt::{
    compare_to_baseline, default_trajectory_path, evaluate_gate, measure_depgraph, run_hunt,
    HuntConfig, Mutant, Trajectory,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    gate: bool,
    floor: f64,
    record: bool,
    label: String,
    bisect: bool,
    baseline: Option<PathBuf>,
    slack: f64,
    mutant_slow: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gate: false,
        floor: 2.0,
        record: false,
        label: "HEAD".to_string(),
        bisect: false,
        baseline: None,
        slack: 0.15,
        mutant_slow: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => args.gate = true,
            "--record" => args.record = true,
            "--bisect" => args.bisect = true,
            "--mutant-slow" => args.mutant_slow = true,
            "--floor" => args.floor = num(&mut it, "--floor")?,
            "--slack" => args.slack = num(&mut it, "--slack")?,
            "--label" => args.label = val(&mut it, "--label")?,
            "--baseline" => args.baseline = Some(PathBuf::from(val(&mut it, "--baseline")?)),
            "--obs" => {
                let _ = it.next(); // handled by obs_support::obs_path
            }
            other if other.starts_with("--obs=") => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn val(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn num(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    val(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    obs_support::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf-hunt: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = HuntConfig::from_env();
    if args.mutant_slow {
        cfg.mutant = Mutant::SlowNew(8);
        println!("[perf-hunt] MUTANT: new path deliberately slowed ~9x (teeth check)");
    }

    println!(
        "[perf-hunt] {} samples/rep, {} reps, {} thread(s), mode {:?}",
        cfg.approx_samples(),
        cfg.reps,
        cfg.threads,
        cfg.mode,
    );
    let mut report = run_hunt(&cfg);
    report.label = args.label.clone();

    println!(
        "[perf-hunt] old {:>8.3} ms (CI [{:.3}, {:.3}])  {:>7.2} Msamples/s",
        report.old_mean.slope / 1e6,
        report.old_mean.lo / 1e6,
        report.old_mean.hi / 1e6,
        report.old_samples_per_sec() / 1e6,
    );
    println!(
        "[perf-hunt] new {:>8.3} ms (CI [{:.3}, {:.3}])  {:>7.2} Msamples/s",
        report.new_mean.slope / 1e6,
        report.new_mean.lo / 1e6,
        report.new_mean.hi / 1e6,
        report.new_samples_per_sec() / 1e6,
    );
    println!(
        "[perf-hunt] old-path stages: integrate {:.2} Msamples/s, estimate {:.2} Msamples/s",
        report.old_integrate_samples_per_sec() / 1e6,
        report.old_estimate_samples_per_sec() / 1e6,
    );
    println!(
        "[perf-hunt] new-path stages: integrate {:.2} Msamples/s, estimate {:.2} Msamples/s",
        report.new_integrate_samples_per_sec() / 1e6,
        report.new_estimate_samples_per_sec() / 1e6,
    );
    println!(
        "[perf-hunt] speedup {:.2}x (95% CI [{:.2}, {:.2}]), tables byte-identical: {}",
        report.speedup.slope, report.speedup.lo, report.speedup.hi, report.verified,
    );

    let mut ok = true;

    if args.bisect {
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(default_trajectory_path);
        match Trajectory::load(&path).map(|t| t.latest().cloned()) {
            Ok(Some(base)) => {
                let out = compare_to_baseline(&report, &base, args.slack);
                println!("[perf-hunt] bisect: {}", out.detail);
                ok &= out.pass;
            }
            Ok(None) => {
                eprintln!(
                    "[perf-hunt] bisect: no baseline entries in {}",
                    path.display()
                );
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("[perf-hunt] bisect: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if args.gate {
        let out = evaluate_gate(&report, args.floor);
        println!("[perf-hunt] gate: {}", out.detail);
        ok &= out.pass;
    }

    if args.record {
        let path = default_trajectory_path();
        let entry = report.to_entry();
        match Trajectory::load(&path).and_then(|t| t.append_and_save(entry, &path)) {
            Ok(()) => println!("[perf-hunt] recorded -> {}", path.display()),
            Err(e) => {
                eprintln!("[perf-hunt] record: {e}");
                ok = false;
            }
        }

        // Diagnosis-pass overhead rides along with every recording.
        let bench = measure_depgraph(&args.label, 3);
        println!(
            "[perf-hunt] depgraph: {} cases / {} items, DP {:.2} ms, \
             diagnose {:.2} ms ({:.0} ns/item)",
            bench.cases,
            bench.items_total,
            bench.run_ns_min as f64 / 1e6,
            bench.diagnose_ns_min as f64 / 1e6,
            bench.ns_per_item,
        );
        let path = fluctrace_bench::artifact_dir().join("BENCH_depgraph.json");
        match bench.save(&path) {
            Ok(()) => println!("[perf-hunt] depgraph bench -> {}", path.display()),
            Err(e) => {
                eprintln!("[perf-hunt] depgraph bench: {e}");
                ok = false;
            }
        }
    }

    if let Some(path) = obs_support::obs_path() {
        // Snapshot of the pinned catalog incl. the wall-derived
        // bench.hotpath.* gauges perf-hunt just recorded.
        match std::fs::write(&path, fluctrace_obs::snapshot_json()) {
            Ok(()) => println!("[obs] snapshot -> {}", path.display()),
            Err(e) => eprintln!("[obs] write failed: {e}"),
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
