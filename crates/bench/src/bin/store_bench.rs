//! `store-bench` — compression ratio of the columnar trace store,
//! recorded to `artifacts/BENCH_store.json`.
//!
//! ```text
//! store-bench                 # measure, print, write BENCH_store.json
//! store-bench --gate          # exit 1 unless compression >= floor
//! store-bench --gate --floor 5
//! store-bench --label <rev>   # entry label (default HEAD)
//! ```
//!
//! Workload size honours `FLUCTRACE_PERF_SAMPLES`; chunking honours
//! `FLUCTRACE_STORE_CHUNK`. Store throughput is not measured here: see
//! `store.write.*` / `store.read.*` in `benchmark/README.md`.

use fluctrace_bench::obs_support;
use fluctrace_bench::store_experiment::measure_store;
use std::process::ExitCode;

struct Args {
    gate: bool,
    floor: f64,
    label: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gate: false,
        floor: 3.0,
        label: "HEAD".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => args.gate = true,
            "--floor" => {
                args.floor = it
                    .next()
                    .ok_or("--floor requires a value")?
                    .parse()
                    .map_err(|e| format!("--floor: {e}"))?;
            }
            "--label" => args.label = it.next().ok_or("--label requires a value")?,
            "--obs" => {
                let _ = it.next(); // handled by obs_support::obs_path
            }
            other if other.starts_with("--obs=") => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    obs_support::init();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("store-bench: {e}");
            return ExitCode::from(2);
        }
    };

    let bench = measure_store(&args.label);
    println!(
        "[store-bench] workload: {} samples + {} marks",
        bench.samples, bench.marks
    );
    println!(
        "[store-bench] JSON baseline {:.1} MB, columnar store {:.2} MB -> {:.1}x",
        bench.json_bytes as f64 / 1e6,
        bench.store_bytes as f64 / 1e6,
        bench.ratio_json_over_store,
    );
    println!(
        "[store-bench] suppression (locality twin): {:.2} MB -> {:.2} MB ({:.2}x, {} rows elided)",
        bench.locality_bytes as f64 / 1e6,
        bench.locality_suppressed_bytes as f64 / 1e6,
        bench.suppression_ratio,
        bench.elided,
    );
    println!("[store-bench] round-trips bit-exact: {}", bench.verified);

    let mut ok = bench.verified;
    let path = fluctrace_bench::artifact_dir().join("BENCH_store.json");
    match bench.save(&path) {
        Ok(()) => println!("[store-bench] -> {}", path.display()),
        Err(e) => {
            eprintln!("[store-bench] save: {e}");
            ok = false;
        }
    }

    if args.gate {
        let (pass, detail) = bench.gate(args.floor);
        println!("[store-bench] gate: {detail}");
        ok &= pass;
    }

    if let Some(path) = obs_support::obs_path() {
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
