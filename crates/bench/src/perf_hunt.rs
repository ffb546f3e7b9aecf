//! perf-hunt — a statistical regression gate around the
//! integrate→estimate hot path.
//!
//! The paper's thesis is that performance fluctuations hide in the
//! tails; the reproduction's own analysis pipeline must therefore not
//! regress silently either. This module runs the **old** AoS pipeline
//! (`integrate_with_threads` → `EstimateTable::from_integrated_timed`)
//! and the **new** SoA pipeline (`integrate_soa_with_threads` →
//! `EstimateTable::from_soa_timed`) over the same synthetic trace in
//! interleaved repetitions, verifies the tables are identical, and fits
//! the paired timings with the through-origin machinery from
//! `fluctrace_core::overhead`:
//!
//! > `old_ns = speedup × new_ns + ε`
//!
//! The fitted slope *is* the speedup and [`SlopeCi::lo`] is the
//! statistically conservative claim. The gate passes only when the
//! whole confidence interval clears the floor, so run-to-run noise
//! cannot produce a flaky pass — a genuinely slowed kernel (see
//! [`Mutant`]) shifts every pair and fails deterministically.
//!
//! Results persist as `artifacts/BENCH_hotpath.json` (schema
//! [`SCHEMA`]), a trajectory of entries that doubles as the baseline
//! store for `perf-hunt --bisect` (designed for `git bisect run`).
//!
//! Wall-clock readings use `std::time::Instant` directly: this crate is
//! outside the clock-hygiene fence, and wall time here feeds only
//! `BENCH_*.json` / stdout, never figure artifacts. The two
//! `bench.hotpath.*` gauges are the one sanctioned wall-derived metric
//! carve-out (see the catalog in `fluctrace-obs`).

use fluctrace_core::{
    fit_instrumentation_ci, integrate_soa_with_threads, integrate_with_threads, EstimateTable,
    MappingMode, SlopeCi,
};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, VirtAddr,
};
use fluctrace_sim::{Freq, Rng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Schema tag of `BENCH_hotpath.json`.
pub const SCHEMA: &str = "fluctrace.bench.hotpath.v1";

/// Deliberate defect injected into the *new* path, for proving the gate
/// has teeth: CI runs the mutant and must see the gate fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Honest measurement.
    None,
    /// Re-run the new kernels `k` extra times inside the timed region,
    /// inflating its cost ≈ `(k + 1)×` — far past any floor the honest
    /// path clears, so the failure is robust, not borderline.
    SlowNew(u32),
}

/// One hunt's knobs.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Interleaved old/new repetitions (after one warm-up pair).
    pub reps: usize,
    /// Cores in the synthetic trace.
    pub cores: u32,
    /// Data-items per core.
    pub items_per_core: usize,
    /// PEBS samples inside each item's interval.
    pub samples_per_item: usize,
    /// Functions in the symbol table (binary-search depth ≈ log₂ n).
    pub funcs: usize,
    /// Worker threads for both pipelines.
    pub threads: usize,
    /// Sample→item mapping mode under test.
    pub mode: MappingMode,
    /// Injected defect (CI teeth check).
    pub mutant: Mutant,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HuntConfig {
    /// The default workload is ~1 M samples — deliberately far past
    /// last-level cache. Production traces stream millions of PEBS
    /// records (the paper's case study writes hundreds of MB/s), and the
    /// columnar layout's bandwidth advantage only shows at that volume;
    /// a cache-resident workload understates it badly. Smoke-level runs
    /// can shrink via `FLUCTRACE_PERF_SAMPLES`.
    fn default() -> Self {
        HuntConfig {
            reps: 10,
            cores: 4,
            items_per_core: 10_000,
            samples_per_item: 24,
            funcs: 384,
            threads: fluctrace_core::configured_threads(),
            mode: MappingMode::Intervals,
            mutant: Mutant::None,
            seed: 0x0507_14A7,
        }
    }
}

impl HuntConfig {
    /// Default config with env overrides: `FLUCTRACE_PERF_REPS` and
    /// `FLUCTRACE_PERF_SAMPLES` (approximate total sample count; the
    /// per-core item count is derived from it).
    pub fn from_env() -> Self {
        let mut cfg = HuntConfig::default();
        if let Some(reps) = env_usize("FLUCTRACE_PERF_REPS") {
            cfg.reps = reps.max(2);
        }
        if let Some(total) = env_usize("FLUCTRACE_PERF_SAMPLES") {
            let per_core = total / cfg.cores as usize;
            cfg.items_per_core = (per_core / cfg.samples_per_item).max(1);
        }
        cfg
    }

    /// Approximate samples per repetition.
    pub fn approx_samples(&self) -> u64 {
        self.cores as u64 * self.items_per_core as u64 * (self.samples_per_item as u64 + 1)
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Build a synthetic multi-core trace shaped like the paper's workloads:
/// per-core streams of bracketed items, strong temporal IP locality
/// (tight classify loops), occasional unresolvable IPs and stray
/// samples between items (exercising the unknown-function and
/// missing-span paths).
pub fn synth_workload(cfg: &HuntConfig) -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let mut ranges = Vec::with_capacity(cfg.funcs);
    for f in 0..cfg.funcs {
        let id = b.add(&format!("fn_{f:04}"), 48 + (f as u64 % 7) * 16);
        ranges.push(id);
    }
    let symtab = b.build();
    let spans: Vec<_> = ranges.iter().map(|&f| symtab.range(f)).collect();

    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(cfg.seed);
    for core in 0..cfg.cores {
        let mut core_rng = rng.fork();
        let mut tsc: u64 = 1_000 + core as u64 * 13;
        let mut cur_fn = core_rng.gen_below(spans.len() as u64) as usize;
        for i in 0..cfg.items_per_core {
            let item = core as u64 * cfg.items_per_core as u64 + i as u64;
            tsc += core_rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::Start,
            });
            for s in 0..cfg.samples_per_item {
                tsc += core_rng.gen_range(40, 160);
                // ~1 in 8 samples hops to a new function; the rest stay
                // put (temporal IP locality of a hot loop).
                if core_rng.gen_bool(0.125) {
                    cur_fn = core_rng.gen_below(spans.len() as u64) as usize;
                }
                // ~1 in 64 samples lands outside any known symbol.
                let ip = if core_rng.gen_bool(1.0 / 64.0) {
                    VirtAddr(2)
                } else {
                    let r = &spans[cur_fn];
                    VirtAddr(r.start.as_u64() + core_rng.gen_below(r.size()))
                };
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip,
                    r13: item + 1,
                    event: HwEvent::UopsRetired,
                });
                let _ = s;
            }
            tsc += core_rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::End,
            });
            // One stray sample in the gap after every 16th item: no
            // interval contains it (missing-span path), no tag either.
            if i % 16 == 5 {
                tsc += core_rng.gen_range(10, 40);
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip: VirtAddr(spans[cur_fn].start.as_u64()),
                    r13: fluctrace_cpu::NO_TAG,
                    event: HwEvent::UopsRetired,
                });
            }
        }
    }
    bundle.sort();
    (bundle, symtab)
}

/// Per-repetition stage timings, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepTiming {
    /// Old path: integrate (AoS).
    pub old_integrate_ns: u64,
    /// Old path: estimate (AoS scan).
    pub old_estimate_ns: u64,
    /// New path: integrate (SoA columns).
    pub new_integrate_ns: u64,
    /// New path: estimate (columnar scan).
    pub new_estimate_ns: u64,
}

impl RepTiming {
    /// Old-path total.
    pub fn old_ns(&self) -> u64 {
        self.old_integrate_ns + self.old_estimate_ns
    }

    /// New-path total.
    pub fn new_ns(&self) -> u64 {
        self.new_integrate_ns + self.new_estimate_ns
    }
}

/// The outcome of one hunt.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Label stored in the trajectory (e.g. a commit id).
    pub label: String,
    /// Samples per repetition.
    pub samples: u64,
    /// Repetitions measured (excluding warm-up).
    pub reps: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Per-rep timings.
    pub timings: Vec<RepTiming>,
    /// Through-origin fit of `old = speedup × new`.
    pub speedup: SlopeCi,
    /// Mean old-path total with 95% CI, ns.
    pub old_mean: SlopeCi,
    /// Mean new-path total with 95% CI, ns.
    pub new_mean: SlopeCi,
    /// Tables compared equal on the verification repetition.
    pub verified: bool,
}

impl HuntReport {
    /// Median new-path throughput, samples/s, for the given stage
    /// extractor.
    fn median_per_sec(&self, f: impl Fn(&RepTiming) -> u64) -> f64 {
        let mut ns: Vec<u64> = self.timings.iter().map(f).collect();
        ns.sort_unstable();
        match ns.get(ns.len() / 2) {
            Some(&m) if m > 0 => self.samples as f64 / (m as f64 / 1e9),
            _ => 0.0,
        }
    }

    /// Median new-path end-to-end throughput, samples/s.
    pub fn new_samples_per_sec(&self) -> f64 {
        self.median_per_sec(RepTiming::new_ns)
    }

    /// Median old-path end-to-end throughput, samples/s.
    pub fn old_samples_per_sec(&self) -> f64 {
        self.median_per_sec(RepTiming::old_ns)
    }

    /// Median new-path integrate throughput, samples/s.
    pub fn new_integrate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.new_integrate_ns)
    }

    /// Median new-path estimate throughput, samples/s.
    pub fn new_estimate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.new_estimate_ns)
    }

    /// Median old-path integrate throughput, samples/s.
    pub fn old_integrate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.old_integrate_ns)
    }

    /// Median old-path estimate throughput, samples/s.
    pub fn old_estimate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.old_estimate_ns)
    }

    /// The trajectory entry this report condenses to.
    pub fn to_entry(&self) -> TrajectoryEntry {
        TrajectoryEntry {
            label: self.label.clone(),
            samples: self.samples,
            reps: self.reps as u64,
            threads: self.threads as u64,
            old_ns_mean: self.old_mean.slope,
            new_ns_mean: self.new_mean.slope,
            old_samples_per_sec: self.old_samples_per_sec(),
            new_samples_per_sec: self.new_samples_per_sec(),
            speedup: self.speedup.slope,
            speedup_lo: self.speedup.lo,
            speedup_hi: self.speedup.hi,
        }
    }
}

/// Mean of `xs` with a 95% CI, via the through-origin fitter: the slope
/// of `(1, x)` pairs is exactly the sample mean, and its interval is
/// the classic `t · s/√n`.
pub fn mean_ci(xs: &[f64]) -> SlopeCi {
    let pairs: Vec<(f64, f64)> = xs.iter().map(|&x| (1.0, x)).collect();
    fit_instrumentation_ci(&pairs)
}

/// Run one hunt: warm-up pair, then `cfg.reps` interleaved repetitions
/// alternating which path goes first, verifying table equality on the
/// warm-up.
///
/// Obs recording is suspended inside the timed region: the hunt compares
/// kernel against kernel, while instrumentation cost is owned and
/// budgeted by the obs overhead harness — leaving it on would add a
/// near-constant term to both paths that compresses the measured ratio
/// and inflates its variance. Recording is restored afterwards for the
/// `bench.hotpath.*` gauge writes.
pub fn run_hunt(cfg: &HuntConfig) -> HuntReport {
    let (bundle, symtab) = synth_workload(cfg);
    let freq = Freq::ghz(3);
    let was_recording = fluctrace_obs::recording();
    fluctrace_obs::set_recording(false);

    // Warm-up + correctness anchor: the two pipelines must agree to the
    // byte before any timing is believed.
    let it = integrate_with_threads(&bundle, &symtab, freq, cfg.mode, cfg.threads);
    let (old_table, _) = EstimateTable::from_integrated_timed(&it);
    let soa = integrate_soa_with_threads(&bundle, &symtab, freq, cfg.mode, cfg.threads);
    let (new_table, _) = EstimateTable::from_soa_timed(&soa);
    let verified = old_table == new_table;
    assert!(verified, "fast path diverged from reference estimates");
    drop((it, soa, old_table, new_table));

    let extra_new_runs = match cfg.mutant {
        Mutant::None => 0,
        Mutant::SlowNew(k) => k,
    };
    // Each per-rep stage time is the minimum over `INNER` back-to-back
    // runs: timer noise on a shared machine (interrupts, scheduling,
    // frequency excursions) is strictly additive, so the minimum is a
    // robust estimator of the kernel's cost and keeps the gate's CI
    // from being widened by one unlucky run.
    const INNER: usize = 3;
    let mut timings = Vec::with_capacity(cfg.reps);
    for rep in 0..cfg.reps {
        let mut t = RepTiming::default();
        let old = |t: &mut RepTiming| {
            let t0 = Instant::now();
            let it = integrate_with_threads(&bundle, &symtab, freq, cfg.mode, cfg.threads);
            let mut best = t0.elapsed().as_nanos() as u64;
            for _ in 1..INNER {
                let t0 = Instant::now();
                std::hint::black_box(integrate_with_threads(
                    &bundle,
                    &symtab,
                    freq,
                    cfg.mode,
                    cfg.threads,
                ));
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            t.old_integrate_ns = best;
            let t1 = Instant::now();
            let (table, _) = EstimateTable::from_integrated_timed(&it);
            let mut best = t1.elapsed().as_nanos() as u64;
            for _ in 1..INNER {
                let t1 = Instant::now();
                std::hint::black_box(EstimateTable::from_integrated_timed(&it));
                best = best.min(t1.elapsed().as_nanos() as u64);
            }
            t.old_estimate_ns = best;
            std::hint::black_box(table);
        };
        let new = |t: &mut RepTiming| {
            let time_integrate = || {
                let t0 = Instant::now();
                let soa = integrate_soa_with_threads(&bundle, &symtab, freq, cfg.mode, cfg.threads);
                for _ in 0..extra_new_runs {
                    std::hint::black_box(integrate_soa_with_threads(
                        &bundle,
                        &symtab,
                        freq,
                        cfg.mode,
                        cfg.threads,
                    ));
                }
                (t0.elapsed().as_nanos() as u64, soa)
            };
            let (mut best, soa) = time_integrate();
            for _ in 1..INNER {
                let (ns, again) = time_integrate();
                std::hint::black_box(again);
                best = best.min(ns);
            }
            t.new_integrate_ns = best;
            let time_estimate = || {
                let t1 = Instant::now();
                let (table, _) = EstimateTable::from_soa_timed(&soa);
                for _ in 0..extra_new_runs {
                    std::hint::black_box(EstimateTable::from_soa_timed(&soa));
                }
                (t1.elapsed().as_nanos() as u64, table)
            };
            let (mut best, table) = time_estimate();
            for _ in 1..INNER {
                let (ns, again) = time_estimate();
                std::hint::black_box(again);
                best = best.min(ns);
            }
            t.new_estimate_ns = best;
            std::hint::black_box(table);
        };
        // Alternate order so cache-warming bias cancels across pairs.
        if rep % 2 == 0 {
            old(&mut t);
            new(&mut t);
        } else {
            new(&mut t);
            old(&mut t);
        }
        timings.push(t);
    }

    fluctrace_obs::set_recording(was_recording);

    let report = report_from_timings(
        "HEAD".to_string(),
        cfg.approx_samples(),
        cfg.threads,
        timings,
        verified,
    );
    if fluctrace_obs::recording() {
        fluctrace_obs::gauge!("bench.hotpath.integrate_samples_per_sec")
            .record(report.new_integrate_samples_per_sec() as u64);
        fluctrace_obs::gauge!("bench.hotpath.estimate_samples_per_sec")
            .record(report.new_estimate_samples_per_sec() as u64);
    }
    report
}

/// Condense raw per-rep timings into a report (separated from
/// [`run_hunt`] so the gate's statistics are testable on synthetic,
/// deterministic timings).
pub fn report_from_timings(
    label: String,
    samples: u64,
    threads: usize,
    timings: Vec<RepTiming>,
    verified: bool,
) -> HuntReport {
    let pairs: Vec<(f64, f64)> = timings
        .iter()
        .map(|t| (t.new_ns() as f64, t.old_ns() as f64))
        .collect();
    let speedup = fit_instrumentation_ci(&pairs);
    let old_mean = mean_ci(
        &timings
            .iter()
            .map(|t| t.old_ns() as f64)
            .collect::<Vec<_>>(),
    );
    let new_mean = mean_ci(
        &timings
            .iter()
            .map(|t| t.new_ns() as f64)
            .collect::<Vec<_>>(),
    );
    HuntReport {
        label,
        samples,
        reps: timings.len(),
        threads,
        timings,
        speedup,
        old_mean,
        new_mean,
        verified,
    }
}

/// A gate decision with its evidence.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Whether the gate passed.
    pub pass: bool,
    /// Human-readable verdict.
    pub detail: String,
}

/// The CI gate: pass iff the *entire* 95% CI of the speedup clears
/// `floor` (i.e. the new path is significantly ≥ `floor`× faster).
pub fn evaluate_gate(report: &HuntReport, floor: f64) -> GateOutcome {
    let ci = report.speedup;
    let pass = ci.lo >= floor;
    let detail = format!(
        "speedup {:.2}x (95% CI [{:.2}, {:.2}]) vs floor {:.2}x -> {}",
        ci.slope,
        ci.lo,
        ci.hi,
        floor,
        if pass { "PASS" } else { "FAIL" }
    );
    GateOutcome { pass, detail }
}

/// Bisect-mode comparison against a recorded baseline entry: regression
/// iff the current new-path throughput CI sits *entirely* below
/// `(1 − slack)` of the baseline's recorded throughput.
pub fn compare_to_baseline(report: &HuntReport, base: &TrajectoryEntry, slack: f64) -> GateOutcome {
    let per_rep: Vec<f64> = report
        .timings
        .iter()
        .map(|t| {
            let ns = t.new_ns().max(1);
            report.samples as f64 / (ns as f64 / 1e9)
        })
        .collect();
    let ci = mean_ci(&per_rep);
    let bar = base.new_samples_per_sec * (1.0 - slack);
    let pass = ci.hi >= bar;
    let detail = format!(
        "new-path {:.2} Msamples/s (95% CI [{:.2}, {:.2}]) vs baseline '{}' {:.2} (-{:.0}% bar {:.2}) -> {}",
        ci.slope / 1e6,
        ci.lo / 1e6,
        ci.hi / 1e6,
        base.label,
        base.new_samples_per_sec / 1e6,
        slack * 100.0,
        bar / 1e6,
        if pass { "OK" } else { "REGRESSION" }
    );
    GateOutcome { pass, detail }
}

/// One recorded point of the hot-path trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Free-form label (commit id, PR number, "seed", …).
    pub label: String,
    /// Samples per repetition at recording time.
    pub samples: u64,
    /// Repetitions measured.
    pub reps: u64,
    /// Worker threads.
    pub threads: u64,
    /// Mean old-path total, ns.
    pub old_ns_mean: f64,
    /// Mean new-path total, ns.
    pub new_ns_mean: f64,
    /// Median old-path throughput, samples/s.
    pub old_samples_per_sec: f64,
    /// Median new-path throughput, samples/s.
    pub new_samples_per_sec: f64,
    /// Fitted speedup (old/new).
    pub speedup: f64,
    /// 95% CI lower bound of the speedup.
    pub speedup_lo: f64,
    /// 95% CI upper bound of the speedup.
    pub speedup_hi: f64,
}

/// The persisted `BENCH_hotpath.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trajectory {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Recorded entries, oldest first.
    pub entries: Vec<TrajectoryEntry>,
}

impl Trajectory {
    /// Empty trajectory with the current schema tag.
    pub fn new() -> Self {
        Trajectory {
            schema: SCHEMA.to_string(),
            entries: Vec::new(),
        }
    }

    /// Load from `path`; a missing file is an empty trajectory.
    pub fn load(path: &Path) -> Result<Trajectory, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Trajectory::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let t: Trajectory =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        if t.schema != SCHEMA {
            return Err(format!(
                "{}: schema {} (expected {SCHEMA})",
                path.display(),
                t.schema
            ));
        }
        Ok(t)
    }

    /// Append `entry` and write back to `path` (pretty JSON).
    pub fn append_and_save(mut self, entry: TrajectoryEntry, path: &Path) -> Result<(), String> {
        self.entries.push(entry);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&self).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// The most recent entry, if any.
    pub fn latest(&self) -> Option<&TrajectoryEntry> {
        self.entries.last()
    }
}

impl Default for Trajectory {
    fn default() -> Self {
        Trajectory::new()
    }
}

/// Default on-disk location of the trajectory.
pub fn default_trajectory_path() -> std::path::PathBuf {
    crate::artifact_dir().join("BENCH_hotpath.json")
}

/// Schema tag of `BENCH_depgraph.json`.
pub const DEPGRAPH_SCHEMA: &str = "fluctrace.bench.depgraph.v1";

/// Wall-clock cost of the DepGraph diagnosis pass over the ground-truth
/// sweep (`BENCH_depgraph.json`). All timings are min-of-`reps` —
/// the usual noise floor estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepgraphBench {
    /// Schema tag ([`DEPGRAPH_SCHEMA`]).
    pub schema: String,
    /// Entry label (usually the git rev or "HEAD").
    pub label: String,
    /// Repetitions measured.
    pub reps: u64,
    /// Sweep cases diagnosed per repetition.
    pub cases: u64,
    /// Items across all cases (denominator of `ns_per_item`).
    pub items_total: u64,
    /// Min wall time to materialize + run the bounded DPs, ns.
    pub run_ns_min: u64,
    /// Min wall time for the diagnosis walk over every run, ns.
    pub diagnose_ns_min: u64,
    /// `diagnose_ns_min / items_total` — the per-item overhead of the
    /// diagnosis pass itself.
    pub ns_per_item: f64,
}

/// Measure the diagnosis-pass overhead over the quick ground-truth
/// sweep: how long the bounded DPs take to run, and how long the walker
/// takes on top. Pure wall-clock measurement — results go to
/// `BENCH_depgraph.json`, never into figure artifacts.
pub fn measure_depgraph(label: &str, reps: u64) -> DepgraphBench {
    use crate::depgraph_experiment::{depgraph_cases, run_case, spec_of};
    use fluctrace_core::depgraph::{diagnose, DepgraphConfig};
    use fluctrace_rt::run_bounded;

    let cases = depgraph_cases(crate::Scale::Quick);
    let reps = reps.max(1);

    // Materialize once so the timed loops see identical inputs.
    let schedules: Vec<_> = cases
        .iter()
        .map(|c| (c.plan.schedule(c.seed), c.plan.ring_capacity))
        .collect();
    let items_total: u64 = schedules.iter().map(|(s, _)| s.arrivals.len() as u64).sum();

    let mut run_ns_min = u64::MAX;
    let mut diagnose_ns_min = u64::MAX;
    let mut runs = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        runs = schedules
            .iter()
            .map(|(s, cap)| run_bounded(&spec_of(s, *cap)))
            .collect();
        run_ns_min = run_ns_min.min(t0.elapsed().as_nanos() as u64);

        let t1 = Instant::now();
        let diagnoses: Vec<_> = runs
            .iter()
            .map(|r| diagnose(r, &DepgraphConfig::new()))
            .collect();
        diagnose_ns_min = diagnose_ns_min.min(t1.elapsed().as_nanos() as u64);
        assert_eq!(diagnoses.len(), cases.len());
    }
    // Keep the last runs alive through both timed loops (no dead-code
    // elision of the DP) and sanity-check the walker agrees with the
    // sweep's own recovery test.
    if let Some(case) = cases.first() {
        let _ = run_case(case);
    }
    drop(runs);

    DepgraphBench {
        schema: DEPGRAPH_SCHEMA.to_string(),
        label: label.to_string(),
        reps,
        cases: cases.len() as u64,
        items_total,
        run_ns_min,
        diagnose_ns_min,
        ns_per_item: diagnose_ns_min as f64 / items_total.max(1) as f64,
    }
}

impl DepgraphBench {
    /// Write pretty JSON to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            }
        }
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HuntConfig {
        HuntConfig {
            reps: 4,
            cores: 2,
            items_per_core: 120,
            samples_per_item: 12,
            funcs: 64,
            threads: 1,
            ..HuntConfig::default()
        }
    }

    fn synthetic_timings(old_ns: &[u64], new_ns: &[u64]) -> Vec<RepTiming> {
        old_ns
            .iter()
            .zip(new_ns)
            .map(|(&o, &n)| RepTiming {
                old_integrate_ns: o / 2,
                old_estimate_ns: o - o / 2,
                new_integrate_ns: n / 2,
                new_estimate_ns: n - n / 2,
            })
            .collect()
    }

    #[test]
    fn gate_passes_fast_and_fails_slow_deterministically() {
        // Clean 2.5x speedup with small jitter: the CI is tight around
        // 2.5 and clears a 2.0 floor.
        let old = [1000, 1010, 990, 1005, 995, 1000];
        let fast: Vec<u64> = old.iter().map(|&o| o * 2 / 5).collect();
        let fast_report =
            report_from_timings("t".into(), 1_000, 1, synthetic_timings(&old, &fast), true);
        assert!(evaluate_gate(&fast_report, 2.0).pass, "honest run passes");

        // A mutant that halves the advantage (1.25x) must fail the same
        // floor, and fail it *significantly* (whole CI below 2.0).
        let slow: Vec<u64> = old.iter().map(|&o| o * 4 / 5).collect();
        let slow_report =
            report_from_timings("t".into(), 1_000, 1, synthetic_timings(&old, &slow), true);
        let out = evaluate_gate(&slow_report, 2.0);
        assert!(!out.pass, "mutant fails: {}", out.detail);
        assert!(slow_report.speedup.significantly_below(2.0));
    }

    #[test]
    fn mutant_slows_a_real_hunt_past_the_gate() {
        // An 8-extra-runs mutant makes the "new" path ~9x its honest
        // cost; even a wildly optimistic honest speedup cannot keep the
        // gate green, so this cannot flake.
        let mut cfg = quick_cfg();
        cfg.mutant = Mutant::SlowNew(8);
        let report = run_hunt(&cfg);
        assert!(report.verified, "mutant must not corrupt results");
        let out = evaluate_gate(&report, 2.0);
        assert!(!out.pass, "mutant escaped the gate: {}", out.detail);
    }

    #[test]
    fn hunt_verifies_and_reports_consistent_statistics() {
        let report = run_hunt(&quick_cfg());
        assert!(report.verified);
        assert_eq!(report.reps, 4);
        assert!(report.speedup.lo <= report.speedup.slope);
        assert!(report.speedup.slope <= report.speedup.hi);
        assert!(report.new_samples_per_sec() > 0.0);
        assert!(report.new_integrate_samples_per_sec() > 0.0);
        assert!(report.new_estimate_samples_per_sec() > 0.0);
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let cfg = quick_cfg();
        let (a, _) = synth_workload(&cfg);
        let (b, _) = synth_workload(&cfg);
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.marks.len(), b.marks.len());
        assert!(a
            .samples
            .iter()
            .zip(&b.samples)
            .all(|(x, y)| x.tsc == y.tsc && x.ip == y.ip && x.core == y.core));
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        // xs = [10, 12, 14]: mean 12, s = 2, t(df=2) = 4.303,
        // half-width = 4.303 * 2/sqrt(3) ≈ 4.969.
        let ci = mean_ci(&[10.0, 12.0, 14.0]);
        assert!((ci.slope - 12.0).abs() < 1e-9);
        assert!((ci.hi - ci.slope - 4.969).abs() < 0.01, "hi {}", ci.hi);
    }

    #[test]
    fn trajectory_roundtrips_and_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join(format!("fluctrace-hunt-{}", std::process::id()));
        let path = dir.join("BENCH_hotpath.json");
        let _ = std::fs::remove_file(&path);

        // Missing file loads as empty.
        let t = Trajectory::load(&path).unwrap();
        assert!(t.entries.is_empty());

        let entry = TrajectoryEntry {
            label: "seed".into(),
            samples: 1_000,
            reps: 8,
            threads: 4,
            old_ns_mean: 2e6,
            new_ns_mean: 0.8e6,
            old_samples_per_sec: 5e8,
            new_samples_per_sec: 1.25e9,
            speedup: 2.5,
            speedup_lo: 2.3,
            speedup_hi: 2.7,
        };
        t.append_and_save(entry, &path).unwrap();
        let t2 = Trajectory::load(&path).unwrap();
        assert_eq!(t2.entries.len(), 1);
        let e = t2.latest().unwrap();
        assert_eq!(e.label, "seed");
        assert!((e.speedup - 2.5).abs() < 1e-12);

        std::fs::write(&path, "{\"schema\": \"bogus.v9\", \"entries\": []}").unwrap();
        assert!(Trajectory::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_comparison_flags_large_regressions_only() {
        let base = TrajectoryEntry {
            label: "base".into(),
            samples: 1_000,
            reps: 6,
            threads: 1,
            old_ns_mean: 0.0,
            new_ns_mean: 0.0,
            old_samples_per_sec: 0.0,
            new_samples_per_sec: 1e9, // 1000 samples / 1000 ns
            speedup: 2.0,
            speedup_lo: 1.9,
            speedup_hi: 2.1,
        };
        let old = [2000u64; 6];
        // Matching throughput: ~1e9 samples/s -> OK.
        let same = report_from_timings(
            "h".into(),
            1_000,
            1,
            synthetic_timings(&old, &[1000, 1001, 999, 1000, 1002, 998]),
            true,
        );
        assert!(compare_to_baseline(&same, &base, 0.15).pass);
        // Halved throughput: far below the -15% bar -> regression.
        let halved = report_from_timings(
            "h".into(),
            1_000,
            1,
            synthetic_timings(&old, &[2000, 2004, 1996, 2000, 2008, 1992]),
            true,
        );
        assert!(!compare_to_baseline(&halved, &base, 0.15).pass);
    }
}
