//! `serve-bench` — the daemon's steady-state contract over ≥ 64 closed
//! windows, recorded to `artifacts/BENCH_serve.json`.
//!
//! ```text
//! serve-bench                 # run, print, write BENCH_serve.json
//! serve-bench --gate          # exit 1 unless the run passes the gate
//! serve-bench --label <rev>   # entry label (default HEAD)
//! serve-bench --seed <n>      # traffic seed (default 7)
//! ```
//!
//! Daemon throughput is not measured here: see `samples_per_s` @
//! `serve_steady` in `benchmark/README.md`.

use fluctrace_bench::obs_support;
use fluctrace_bench::serve_experiment::measure_serve;
use std::process::ExitCode;

struct Args {
    gate: bool,
    label: String,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gate: false,
        label: "HEAD".to_string(),
        seed: 7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => args.gate = true,
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed requires a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
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
            eprintln!("serve-bench: {e}");
            return ExitCode::from(2);
        }
    };

    let bench = match measure_serve(&args.label, args.seed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "[serve-bench] {} shards x {} cores, {}-item windows, ring of {}",
        bench.shards, bench.cores, bench.window_items, bench.max_windows
    );
    println!(
        "[serve-bench] {} items / {} samples",
        bench.items, bench.samples
    );
    println!(
        "[serve-bench] {} windows closed, {} evicted ({} bytes reclaimed)",
        bench.windows_closed, bench.windows_evicted, bench.evicted_bytes,
    );
    println!(
        "[serve-bench] drain==batch: {}, snapshot stable: {}, lossless: {}",
        bench.drain_matches_batch, bench.snapshot_stable, bench.verified,
    );

    let mut ok = bench.verified && bench.drain_matches_batch && bench.snapshot_stable;
    let path = fluctrace_bench::artifact_dir().join("BENCH_serve.json");
    match bench.save(&path) {
        Ok(()) => println!("[serve-bench] -> {}", path.display()),
        Err(e) => {
            eprintln!("[serve-bench] save: {e}");
            ok = false;
        }
    }

    if args.gate {
        let (pass, detail) = bench.gate();
        println!("[serve-bench] gate: {detail}");
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
