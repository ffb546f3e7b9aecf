//! `perf-hunt` — record and bisect the integrate→estimate hot path.
//!
//! ```text
//! perf-hunt                      # measure, print the report
//! perf-hunt --record [--label L] # append to artifacts/BENCH_hotpath.json
//! perf-hunt --bisect [--baseline PATH] [--slack 0.15]
//! perf-hunt --bisect --mutant-slow # teeth check: MUST exit 1
//! ```
//!
//! `--bisect` compares HEAD's throughput against the latest recorded
//! trajectory entry and exits 1 on a significant regression — wired for
//! `git bisect run perf-hunt --bisect` — and 2 when there is no
//! comparable baseline (none recorded, or one recorded at another
//! workload size or thread count). Whether the hot path regressed at
//! all is the benchmark's call (`benchmark/`, `--compare` on
//! `analyze_wide`); this tool finds the commit.
//!
//! Workload size honours `FLUCTRACE_PERF_SAMPLES` / `FLUCTRACE_PERF_REPS`;
//! threads honour `FLUCTRACE_THREADS`.

use fluctrace_bench::obs_support;
use fluctrace_bench::perf_hunt::{
    compare_to_baseline, default_trajectory_path, run_hunt, HuntConfig, Mutant, Trajectory,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    record: bool,
    label: String,
    bisect: bool,
    baseline: Option<PathBuf>,
    slack: f64,
    mutant_slow: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
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
            "--record" => args.record = true,
            "--bisect" => args.bisect = true,
            "--mutant-slow" => args.mutant_slow = true,
            "--slack" => {
                args.slack = val(&mut it, "--slack")?
                    .parse()
                    .map_err(|e| format!("--slack: {e}"))?
            }
            "--label" => args.label = val(&mut it, "--label")?,
            "--baseline" => args.baseline = Some(PathBuf::from(val(&mut it, "--baseline")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn val(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
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
        cfg.mutant = Mutant::Slow(8);
        println!("[perf-hunt] MUTANT: hot path deliberately slowed ~9x (teeth check)");
    }

    let mut report = run_hunt(&cfg);
    report.label = args.label.clone();

    println!(
        "[perf-hunt] {} samples/rep, {} reps, {} thread(s), mode {:?}",
        report.samples, cfg.reps, cfg.threads, cfg.mode,
    );
    let mean = report.mean_ns();
    println!(
        "[perf-hunt] {:>8.3} ms (CI [{:.3}, {:.3}])  {:>7.2} Msamples/s",
        mean.slope / 1e6,
        mean.lo / 1e6,
        mean.hi / 1e6,
        report.samples_per_sec() / 1e6,
    );
    println!(
        "[perf-hunt] stages: integrate {:.2} Msamples/s, estimate {:.2} Msamples/s",
        report.integrate_samples_per_sec() / 1e6,
        report.estimate_samples_per_sec() / 1e6,
    );

    let mut ok = true;

    if args.bisect {
        let path = args
            .baseline
            .clone()
            .unwrap_or_else(default_trajectory_path);
        let verdict = Trajectory::load(&path).and_then(|t| match t.latest() {
            Some(base) => compare_to_baseline(&report, base, args.slack),
            None => Err(format!("no baseline entries in {}", path.display())),
        });
        match verdict {
            Ok(out) => {
                println!("[perf-hunt] bisect: {}", out.detail);
                ok &= out.pass;
            }
            Err(e) => {
                eprintln!("[perf-hunt] bisect: {e}");
                return ExitCode::from(2);
            }
        }
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
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
