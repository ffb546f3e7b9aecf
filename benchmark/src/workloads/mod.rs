//! The four workloads. Names are fixed; later issues cite them.

pub mod analyze_wide;
pub mod capture_spill;
pub mod replay_acl;
pub mod serve_steady;
pub mod store_query;

use crate::harness::{median, Ops};
use crate::inputs::Scale;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Workload names, in the order they run.
pub const NAMES: [&str; 4] = [
    "analyze_wide",
    "replay_acl",
    "capture_spill",
    "serve_steady",
];

/// What every workload is set up from.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// Full size or `--quick`.
    pub scale: Scale,
    /// Busy threads the program may use: `min(nproc, 4)`, passed
    /// explicitly, never through `FLUCTRACE_THREADS`.
    pub threads: usize,
    /// Directory for files a workload writes (inside the checkout).
    pub out_dir: PathBuf,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// True for a count that must repeat exactly for the same seed.
    pub exact: bool,
}

/// Metrics by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Record a measured value.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.insert(name, value, unit, false);
    }

    /// Record a count that repeats exactly for the same seed.
    pub fn put_exact(&mut self, name: &str, value: f64, unit: &str) {
        self.insert(name, value, unit, true);
    }

    fn insert(&mut self, name: &str, value: f64, unit: &str, exact: bool) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                exact,
            },
        );
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// What a workload hands back after its timed repetitions: the read
/// queries it answered and the bytes of output it produced.
#[derive(Debug, Clone, Default)]
pub struct Finish {
    /// `(kind, latency in ns)` of each read query against the result.
    /// Queries of one kind ask the same question (one protocol verb,
    /// one tsc window) and cost about the same.
    pub queries: Vec<(u32, u64)>,
    /// Bytes of the workload's output (stored file, rendered table,
    /// protocol replies).
    pub output_bytes: u64,
    /// True when the seed fixes `output_bytes` (protocol replies carry
    /// wall-clock readings, so theirs move by a few digits).
    pub output_bytes_exact: bool,
}

/// One workload: inputs made in set-up, a repetition that carries them
/// through the program, verifiers, and the isolated legs that give the
/// per-layer costs.
pub trait Workload {
    /// The fixed workload name.
    fn name(&self) -> &'static str;

    /// Timed repetitions the workload needs at least.
    fn min_reps(&self) -> usize {
        12
    }

    /// Input samples one repetition carries to a verified result.
    fn samples_per_rep(&self) -> u64;

    /// Digest of the generated input.
    fn input_digest(&self) -> u64;

    /// One end-to-end repetition through the layers' public functions;
    /// returns the nanoseconds of its timed region. The result is kept
    /// for [`Workload::check_rep`] and [`Workload::verify`].
    fn rep(&mut self, tracer: &mut Tracer) -> Result<u64, String>;

    /// Cheap invariants on the repetition just run (untimed).
    fn check_rep(&mut self, ops: &mut Ops);

    /// After the timed repetitions: read queries against the result.
    fn finish(&mut self, ops: &mut Ops) -> Finish;

    /// Full verification of the kept result against an independent
    /// reference (untimed, after memory has been read).
    fn verify(&mut self, ops: &mut Ops);

    /// Run the workload's layers in isolation, `reps` times each, and
    /// record the per-layer metrics it owns. Serial workloads are
    /// spanned in place; threaded ones run isolated legs on the same
    /// inputs and return the median nanoseconds of the leg on the
    /// repetition's critical path: end-to-end time minus that leg is
    /// the workload's unaccounted time.
    fn legs(
        &mut self,
        tracer: &mut Tracer,
        reps: usize,
        ops: &mut Ops,
        out: &mut Metrics,
    ) -> Option<f64>;
}

/// Set a workload up from `ctx`.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    match name {
        "analyze_wide" => Ok(Box::new(analyze_wide::AnalyzeWide::setup(ctx))),
        "replay_acl" => Ok(Box::new(replay_acl::ReplayAcl::setup(ctx)?)),
        "capture_spill" => Ok(Box::new(capture_spill::CaptureSpill::setup(ctx))),
        "serve_steady" => Ok(Box::new(serve_steady::ServeSteady::setup(ctx)?)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

impl Finish {
    /// The run's query latency in µs: the median latency of each query
    /// kind, averaged over the kinds. (The plain median of a mix of
    /// cheap and dear kinds sits on the boundary between two of them
    /// and jumps with the slightest noise.)
    pub fn query_p50_us(&self) -> f64 {
        let mut by_kind: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(kind, ns) in &self.queries {
            by_kind.entry(kind).or_default().push(ns as f64 / 1e3);
        }
        let medians: Vec<f64> = by_kind.values().map(|v| median(v)).collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }
}

/// Median self time of span `name` per repetition, in ns per `per`
/// (samples, rows, …); 0 when the span never ran.
pub(crate) fn span_cost(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str, per: u64) -> f64 {
    by_name
        .get(name)
        .map_or(0.0, |ns| median(ns) / per.max(1) as f64)
}
