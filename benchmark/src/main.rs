//! Command line of the fluctrace benchmark.
//!
//! ```text
//! fluctrace-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick]
//!                     [--runs K] [--save SET.json] [--out DIR]
//! fluctrace-benchmark --compare A.json B.json [--bench-json BENCHMARK.json]
//! fluctrace-benchmark --summary SET.json...
//! ```
//!
//! With `--workload` it runs that workload in this process and ends its
//! standard output with the one-line result the driver reads. Without,
//! it runs all four, one child process each (so peak memory is per
//! workload), `--runs` times with consecutive seeds, and prints the
//! summary table.

use fluctrace_benchmark::compare::{compare, load_bounds};
use fluctrace_benchmark::report::{load_set, set_to_json, summary, RunDoc};
use fluctrace_benchmark::run::{run_workload, RunArgs};
use fluctrace_benchmark::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_180_521;
/// Measured seconds when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    runs: usize,
    save: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bench_json: Option<PathBuf>,
    summary: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        runs: 1,
        ..Cli::default()
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.seed = Some(
                    value(&mut i, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                cli.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.traced = false;
                    i += 1;
                }
                Some("1") => {
                    cli.traced = true;
                    i += 1;
                }
                _ => cli.traced = true,
            },
            "--quick" => cli.quick = true,
            "--runs" => {
                cli.runs = value(&mut i, flag)?
                    .parse::<usize>()
                    .map_err(|e| format!("--runs: {e}"))?
                    .max(1)
            }
            "--save" => cli.save = Some(PathBuf::from(value(&mut i, flag)?)),
            "--out" => cli.out = Some(PathBuf::from(value(&mut i, flag)?)),
            "--bench-json" => cli.bench_json = Some(PathBuf::from(value(&mut i, flag)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut i, flag)?);
                let b = PathBuf::from(value(&mut i, flag)?);
                cli.compare = Some((a, b));
            }
            "--summary" => {
                while let Some(p) = args.get(i + 1).filter(|p| !p.starts_with("--")) {
                    cli.summary.push(PathBuf::from(p));
                    i += 1;
                }
                if cli.summary.is_empty() {
                    return Err("--summary needs at least one file".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// `benchmark/out` from the root of a checkout, `out` from inside
/// `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn find_bench_json() -> Result<PathBuf, String> {
    ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.is_file())
        .ok_or_else(|| "BENCHMARK.json not found here or one level up; pass --bench-json".into())
}

fn run_one(cli: &Cli, workload: &str, out_dir: &Path) -> Result<ExitCode, String> {
    let quick_seconds = 0.2;
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(if cli.quick {
            quick_seconds
        } else {
            DEFAULT_SECONDS
        }),
        traced: cli.traced,
        quick: cli.quick,
        out_dir: out_dir.to_path_buf(),
    };
    let doc = run_workload(&args)?;
    doc.save(out_dir)?;
    print!("{}", doc.human());
    println!("{}", doc.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Run every workload in a child process each, `cli.runs` times.
fn run_all(cli: &Cli, out_dir: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut docs: Vec<RunDoc> = Vec::new();
    for run in 0..cli.runs as u64 {
        for workload in NAMES {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--out"])
                .arg(out_dir)
                .arg("--seed")
                .arg((cli.seed.unwrap_or(DEFAULT_SEED) + run).to_string())
                .args(["--trace", if cli.traced { "1" } else { "0" }]);
            if let Some(s) = cli.seconds {
                cmd.arg("--seconds").arg(s.to_string());
            }
            if cli.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end.
            let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let human: Vec<&str> = stdout.lines().collect();
            // All but the one-line result is for people.
            for line in human.iter().take(human.len().saturating_sub(1)) {
                println!("{line}");
            }
            if !output.status.success() {
                return Err(format!(
                    "{workload} exited with {}: {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let kind = if cli.traced { "traced" } else { "untraced" };
            let mut set = load_set(&out_dir.join(format!("{workload}_{kind}.json")))?;
            docs.append(&mut set);
        }
    }
    let kind = if cli.traced { "traced" } else { "untraced" };
    let save = cli
        .save
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("set_{kind}.json")));
    if let Some(dir) = save.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(&save, set_to_json(&docs))
        .map_err(|e| format!("write {}: {e}", save.display()))?;
    println!("\n{}", summary(&docs));
    let failed: u64 = docs.iter().map(|d| d.failed).sum();
    println!(
        "{{\"set\":\"{}\",\"runs\":{},\"failed\":{failed},\"claim\":null}}",
        save.display(),
        docs.len()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args)?;
    if let Some((a, b)) = &cli.compare {
        let bench_json = match &cli.bench_json {
            Some(p) => p.clone(),
            None => find_bench_json()?,
        };
        let bounds = load_bounds(&bench_json)?;
        let result = compare(&load_set(a)?, &load_set(b)?, &bounds);
        print!("{}", result.table);
        return Ok(if result.input_mismatches > 0 {
            ExitCode::from(2)
        } else if result.regressions > 0 {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        });
    }
    if !cli.summary.is_empty() {
        let mut docs = Vec::new();
        for p in &cli.summary {
            docs.append(&mut load_set(p)?);
        }
        println!("{}", summary(&docs));
        println!("{{\"runs\":{},\"claim\":null}}", docs.len());
        return Ok(ExitCode::SUCCESS);
    }
    let out_dir = cli.out.clone().unwrap_or_else(default_out_dir);
    match &cli.workload {
        Some(w) => run_one(&cli, w, &out_dir),
        None => run_all(&cli, &out_dir),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fluctrace-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
