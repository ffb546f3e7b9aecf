//! What a run reports: the document written to `out/`, the one-line
//! result the driver reads, the human-readable listing and the summary
//! table over several runs.

use crate::run::RunArgs;
use crate::workloads::{Metric, Metrics};
use serde_json::{Num, Value};
use std::path::Path;
use std::process::Command;

/// Schema tag of a run document.
pub const SCHEMA: &str = "fluctrace.benchmark.run.v1";
/// Schema tag of a set of run documents.
pub const SET_SCHEMA: &str = "fluctrace.benchmark.set.v1";
/// How load is offered, recorded in every document.
pub const LOOP: &str =
    "closed: each caller waits for its reply; back-pressure is lossless; one client connection";

/// End-to-end metrics the driver's contract carries (`BENCHMARK.json`).
/// `failed_frac` travels as `failed`/`attempted` there, because a
/// metric that is 0 on every healthy run has no relative bound.
pub const CONTRACT_END_TO_END: [&str; 6] = [
    "setup_s",
    "samples_per_s",
    "cpu_ns_per_sample",
    "peak_rss_mb",
    "bytes_per_sample",
    "query_p50_us",
];

/// Where and how a run was made.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Logical processors available.
    pub nproc: u64,
    /// Busy threads given to the program.
    pub threads: u64,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// Input seed.
    pub seed: u64,
    /// `--quick` sizes.
    pub quick: bool,
    /// Seconds of measured repetitions asked for.
    pub seconds: f64,
    /// Wall time of the whole run, set-up and verification included.
    pub total_wall_s: f64,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Env {
    /// Record the environment of the run described by `args`.
    pub fn capture(args: &RunArgs, threads: usize, nproc: usize, total_wall_s: f64) -> Env {
        Env {
            nproc: nproc as u64,
            threads: threads as u64,
            rustc: tool_line("rustc", &["--version"]),
            // The driver's checkout is not a repository; asking git there
            // would make it look through the directories above.
            git_rev: if Path::new(".git").exists() || Path::new("../.git").exists() {
                tool_line("git", &["rev-parse", "--short", "HEAD"])
            } else {
                "unknown".to_string()
            },
            seed: args.seed,
            quick: args.quick,
            seconds: args.seconds,
            total_wall_s,
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct RunDoc {
    /// Workload name.
    pub workload: String,
    /// Traced run (per-layer metrics present).
    pub traced: bool,
    /// Environment.
    pub env: Env,
    /// Digest of the generated input, hex.
    pub input_digest: String,
    /// Input samples one repetition carries.
    pub samples_per_rep: u64,
    /// Timed repetitions.
    pub reps: u64,
    /// Median repetition, ms.
    pub rep_p50_ms: f64,
    /// Tail repetition, ms.
    pub rep_tail_ms: f64,
    /// Which percentile the tail is.
    pub rep_tail_pct: f64,
    /// The discarded first repetition, ms.
    pub cold_rep_ms: f64,
    /// Every timed repetition in run order, ms.
    pub reps_ms: Vec<f64>,
    /// Read queries answered.
    pub queries: u64,
    /// End-to-end metrics (with `failed_frac`).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced runs).
    pub per_layer: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failures, one line each.
    pub failures: Vec<String>,
    /// The spans of a traced run, as JSON (written to its own file).
    pub spans_json: Option<String>,
}

fn num(x: f64) -> Value {
    Value::Number(Num::Float(x))
}

fn int(x: u64) -> Value {
    Value::Number(Num::PosInt(x))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_value(metrics: &Metrics, with_exact: bool) -> Value {
    Value::Object(
        metrics
            .0
            .iter()
            .map(|(name, m)| {
                let mut members = vec![("value", num(m.value)), ("unit", text(&m.unit))];
                if with_exact && m.exact {
                    members.push(("exact", Value::Bool(true)));
                }
                (name.clone(), object(members))
            })
            .collect(),
    )
}

fn render(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    v.render(&mut out, pretty.then_some(0));
    out
}

impl RunDoc {
    /// The document as a JSON value; ends with `"claim": null` — the
    /// benchmark measures, it claims no gain.
    pub fn to_value(&self) -> Value {
        let e = &self.env;
        object(vec![
            ("schema", text(SCHEMA)),
            ("workload", text(&self.workload)),
            ("traced", Value::Bool(self.traced)),
            (
                "env",
                object(vec![
                    ("nproc", int(e.nproc)),
                    ("threads", int(e.threads)),
                    ("rustc", text(&e.rustc)),
                    ("git_rev", text(&e.git_rev)),
                    ("seed", int(e.seed)),
                    ("quick", Value::Bool(e.quick)),
                    ("seconds", num(e.seconds)),
                    ("loop", text(LOOP)),
                    ("total_wall_s", num(e.total_wall_s)),
                ]),
            ),
            ("input_digest", text(&self.input_digest)),
            ("samples_per_rep", int(self.samples_per_rep)),
            (
                "timing",
                object(vec![
                    ("reps", int(self.reps)),
                    ("rep_p50_ms", num(self.rep_p50_ms)),
                    ("rep_tail_ms", num(self.rep_tail_ms)),
                    ("rep_tail_pct", num(self.rep_tail_pct)),
                    ("cold_rep_ms", num(self.cold_rep_ms)),
                    (
                        "reps_ms",
                        Value::Array(self.reps_ms.iter().map(|&x| num(x)).collect()),
                    ),
                    ("queries", int(self.queries)),
                ]),
            ),
            ("end_to_end", metrics_value(&self.end_to_end, true)),
            ("per_layer", metrics_value(&self.per_layer, true)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            (
                "failures",
                Value::Array(self.failures.iter().map(|f| text(f)).collect()),
            ),
            ("claim", Value::Null),
        ])
    }

    /// Read a document back.
    pub fn from_value(v: &Value) -> Result<RunDoc, String> {
        let s = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run document: missing string {k:?}"))
        };
        let f = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run document: missing number {k:?}"))
        };
        let b = |v: &Value, k: &str| matches!(v.get(k), Some(Value::Bool(true)));
        if s(v, "schema")? != SCHEMA {
            return Err(format!("run document: schema is not {SCHEMA}"));
        }
        let env = v.get("env").ok_or("run document: missing env")?;
        let timing = v.get("timing").ok_or("run document: missing timing")?;
        let metrics = |k: &str| -> Result<Metrics, String> {
            let mut out = Metrics::default();
            let Some(Value::Object(members)) = v.get(k) else {
                return Err(format!("run document: missing {k}"));
            };
            for (name, m) in members {
                out.0.insert(
                    name.clone(),
                    Metric {
                        value: f(m, "value")?,
                        unit: s(m, "unit")?,
                        exact: b(m, "exact"),
                    },
                );
            }
            Ok(out)
        };
        Ok(RunDoc {
            workload: s(v, "workload")?,
            traced: b(v, "traced"),
            env: Env {
                nproc: f(env, "nproc")? as u64,
                threads: f(env, "threads")? as u64,
                rustc: s(env, "rustc")?,
                git_rev: s(env, "git_rev")?,
                seed: env.get("seed").and_then(Value::as_u64).unwrap_or(0),
                quick: b(env, "quick"),
                seconds: f(env, "seconds")?,
                total_wall_s: f(env, "total_wall_s")?,
            },
            input_digest: s(v, "input_digest")?,
            samples_per_rep: f(v, "samples_per_rep")? as u64,
            reps: f(timing, "reps")? as u64,
            rep_p50_ms: f(timing, "rep_p50_ms")?,
            rep_tail_ms: f(timing, "rep_tail_ms")?,
            rep_tail_pct: f(timing, "rep_tail_pct")?,
            cold_rep_ms: f(timing, "cold_rep_ms")?,
            reps_ms: timing
                .get("reps_ms")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default(),
            queries: f(timing, "queries")? as u64,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            attempted: f(v, "attempted")? as u64,
            failed: f(v, "failed")? as u64,
            failures: v
                .get("failures")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            spans_json: None,
        })
    }

    /// The metrics the driver's contract asks of this kind of run:
    /// every end-to-end metric untraced, every per-layer metric traced.
    pub fn contract_metrics(&self) -> Metrics {
        if self.traced {
            return self.per_layer.clone();
        }
        let mut out = Metrics::default();
        for name in CONTRACT_END_TO_END {
            if let Some(m) = self.end_to_end.0.get(name) {
                out.0.insert(name.to_string(), m.clone());
            }
        }
        out
    }

    /// The last line of standard output: one JSON object with exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        render(
            &object(vec![
                ("correct", Value::Bool(self.failed == 0)),
                ("attempted", int(self.attempted.max(1))),
                ("failed", int(self.failed)),
                ("metrics", metrics_value(&self.contract_metrics(), false)),
            ]),
            false,
        )
    }

    /// Every metric by name, with its unit, for a person to read.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {} ({}) seed {} digest {} threads {}/{} — {} samples/rep, {} reps, p50 {:.2} ms, p{:.0} {:.2} ms, cold {:.2} ms, {} queries, {:.1} s total\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.env.seed,
            self.input_digest,
            self.env.threads,
            self.env.nproc,
            self.samples_per_rep,
            self.reps,
            self.rep_p50_ms,
            self.rep_tail_pct,
            self.rep_tail_ms,
            self.cold_rep_ms,
            self.queries,
            self.env.total_wall_s,
        );
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.0.is_empty() {
                continue;
            }
            out.push_str(&format!("  {title}:\n"));
            for (name, m) in &metrics.0 {
                out.push_str(&format!("    {name:<44} {:>16.4} {}\n", m.value, m.unit));
            }
        }
        out.push_str(&format!(
            "  operations: {} attempted, {} failed\n",
            self.attempted, self.failed
        ));
        for line in &self.failures {
            out.push_str(&format!("    FAILED {line}\n"));
        }
        out
    }

    /// Write the document (and the spans of a traced run) under `dir`.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let kind = if self.traced { "traced" } else { "untraced" };
        let path = dir.join(format!("{}_{kind}.json", self.workload));
        std::fs::write(&path, render(&self.to_value(), true) + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        if let Some(spans) = &self.spans_json {
            let path = dir.join(format!("trace_{}.json", self.workload));
            let doc = format!(
                "{{\"schema\":\"fluctrace.benchmark.trace.v1\",\"workload\":\"{}\",\"seed\":{},\"input_digest\":\"{}\",\"threads\":{},\"unit\":\"ns since the tracer started\",\"trace\":{spans}}}\n",
                self.workload, self.env.seed, self.input_digest, self.env.threads
            );
            std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// A set of run documents as one JSON text, ending with `"claim": null`.
pub fn set_to_json(runs: &[RunDoc]) -> String {
    render(
        &object(vec![
            ("schema", text(SET_SCHEMA)),
            (
                "runs",
                Value::Array(runs.iter().map(RunDoc::to_value).collect()),
            ),
            ("claim", Value::Null),
        ]),
        true,
    ) + "\n"
}

/// Read a set file, or a single run document as a set of one.
pub fn load_set(path: &Path) -> Result<Vec<RunDoc>, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    match v.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().map(RunDoc::from_value).collect(),
        None => Ok(vec![RunDoc::from_value(&v)?]),
    }
}

/// The one summary table: end-to-end metrics per workload (median over
/// the runs of each), then the per-layer ledger.
pub fn summary(runs: &[RunDoc]) -> String {
    use crate::harness::median;
    use std::collections::BTreeMap;
    let mut out = String::new();
    let mut e2e: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut layers: BTreeMap<String, (BTreeMap<String, Vec<f64>>, String)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for r in runs {
        if !order.contains(&r.workload) {
            order.push(r.workload.clone());
        }
        if !r.traced {
            for (name, m) in &r.end_to_end.0 {
                e2e.entry((r.workload.clone(), name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
        for (name, m) in &r.per_layer.0 {
            let e = layers
                .entry(name.clone())
                .or_insert((BTreeMap::new(), m.unit.clone()));
            e.0.entry(r.workload.clone()).or_default().push(m.value);
        }
    }
    if !e2e.is_empty() {
        out.push_str(&format!("{:<18}", "end-to-end"));
        let names: Vec<&str> = CONTRACT_END_TO_END
            .iter()
            .copied()
            .chain(["failed_frac"])
            .collect();
        for n in &names {
            out.push_str(&format!(" {n:>18}"));
        }
        out.push('\n');
        for w in &order {
            out.push_str(&format!("{w:<18}"));
            for n in &names {
                match e2e.get(&(w.clone(), n.to_string())) {
                    Some(vals) => out.push_str(&format!(" {:>18.4}", median(vals))),
                    None => out.push_str(&format!(" {:>18}", "-")),
                }
            }
            out.push('\n');
        }
    }
    if !layers.is_empty() {
        out.push_str(&format!(
            "\n{:<44} {:>10}",
            "per-layer (traced run of →)", "unit"
        ));
        for w in &order {
            out.push_str(&format!(" {w:>16}"));
        }
        out.push('\n');
        for (name, (by_workload, unit)) in &layers {
            out.push_str(&format!("{name:<44} {unit:>10}"));
            for w in &order {
                match by_workload.get(w) {
                    Some(vals) => out.push_str(&format!(" {:>16.4}", median(vals))),
                    None => out.push_str(&format!(" {:>16}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}
