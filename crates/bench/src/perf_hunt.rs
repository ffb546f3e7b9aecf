//! perf-hunt — record and bisect the integrate→estimate hot path.
//!
//! Whether the analysis pipeline got slower is the benchmark's question
//! (`benchmark/`, `--compare` on `analyze_wide`). This module answers
//! the follow-up — *which commit* — and nothing else: it times HEAD's
//! production path (`integrate_soa_with_threads` →
//! `EstimateTable::from_soa`) over one seeded synthetic trace,
//! `--record` appends the result to `artifacts/BENCH_hotpath.json`
//! (schema [`SCHEMA`]), and `--bisect` compares HEAD with the latest
//! recorded entry, for `git bisect run`. The comparison uses the
//! through-origin machinery from `fluctrace_core::overhead`: HEAD is a
//! regression only when the whole 95% CI of its per-repetition
//! throughput sits below the baseline's bar, so run-to-run noise cannot
//! flip the verdict while a genuinely slowed kernel (see [`Mutant`])
//! shifts every repetition and fails deterministically.
//!
//! This file holds one of the two wall-clock reads outside `benchmark/`
//! and the `obs` clock (the other is the `obs_overhead` budget gate); the
//! numbers go to `BENCH_hotpath.json` and stdout, never into a figure
//! artifact or the obs registry.

use fluctrace_core::{
    fit_instrumentation_ci, integrate_soa_with_threads, EstimateTable, MappingMode, SlopeCi,
};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, VirtAddr,
};
use fluctrace_sim::{Freq, Rng};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant; // lint:allow(clock-hygiene): the regression tool's stopwatch; its readings reach BENCH_hotpath.json and stdout only

/// Schema tag of `BENCH_hotpath.json`.
pub const SCHEMA: &str = "fluctrace.bench.hotpath.v2";

/// Deliberate defect injected into the timed path, for proving
/// `--bisect` has teeth: CI runs the mutant and must see it fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Honest measurement.
    None,
    /// Re-run the kernels `k` extra times inside the timed region,
    /// inflating their cost ≈ `(k + 1)×` — far past any slack, so the
    /// failure is robust, not borderline.
    Slow(u32),
}

/// One hunt's knobs.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Timed repetitions (after one warm-up).
    pub reps: usize,
    /// Cores in the synthetic trace.
    pub cores: u32,
    /// Data-items per core.
    pub items_per_core: usize,
    /// PEBS samples inside each item's interval.
    pub samples_per_item: usize,
    /// Functions in the symbol table (binary-search depth ≈ log₂ n).
    pub funcs: usize,
    /// Worker threads for the pipeline.
    pub threads: usize,
    /// Sample→item mapping mode under test.
    pub mode: MappingMode,
    /// Injected defect (CI teeth check).
    pub mutant: Mutant,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HuntConfig {
    /// The default workload is 962 500 samples — deliberately far past
    /// last-level cache. Production traces stream millions of PEBS
    /// records (the paper's case study writes hundreds of MB/s), and a
    /// cache-resident workload is faster per sample, so it says little
    /// about them. Smoke-level runs can shrink via
    /// `FLUCTRACE_PERF_SAMPLES`.
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
    /// Integrate (SoA columns).
    pub integrate_ns: u64,
    /// Estimate (columnar scan).
    pub estimate_ns: u64,
}

impl RepTiming {
    /// Both stages.
    pub fn total_ns(&self) -> u64 {
        self.integrate_ns + self.estimate_ns
    }
}

/// The outcome of one hunt.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Label stored in the trajectory (e.g. a commit id).
    pub label: String,
    /// Samples in the bundle every repetition processed.
    pub samples: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Per-rep timings.
    pub timings: Vec<RepTiming>,
}

impl HuntReport {
    /// Median throughput, samples/s, for the given stage extractor.
    fn median_per_sec(&self, f: impl Fn(&RepTiming) -> u64) -> f64 {
        let mut ns: Vec<u64> = self.timings.iter().map(f).collect();
        ns.sort_unstable();
        match ns.get(ns.len() / 2) {
            Some(&m) if m > 0 => self.samples as f64 / (m as f64 / 1e9),
            _ => 0.0,
        }
    }

    /// Mean per-rep total with 95% CI, ns.
    pub fn mean_ns(&self) -> SlopeCi {
        let totals: Vec<f64> = self.timings.iter().map(|t| t.total_ns() as f64).collect();
        mean_ci(&totals)
    }

    /// Median end-to-end throughput, samples/s.
    pub fn samples_per_sec(&self) -> f64 {
        self.median_per_sec(RepTiming::total_ns)
    }

    /// Median integrate throughput, samples/s.
    pub fn integrate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.integrate_ns)
    }

    /// Median estimate throughput, samples/s.
    pub fn estimate_samples_per_sec(&self) -> f64 {
        self.median_per_sec(|t| t.estimate_ns)
    }

    /// The trajectory entry this report condenses to.
    pub fn to_entry(&self) -> TrajectoryEntry {
        TrajectoryEntry {
            label: self.label.clone(),
            samples: self.samples,
            reps: self.timings.len() as u64,
            threads: self.threads as u64,
            ns_mean: self.mean_ns().slope,
            samples_per_sec: self.samples_per_sec(),
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

/// Back-to-back runs behind each stage time.
const INNER: usize = 3;

/// Minimum wall time, ns, over [`INNER`] back-to-back runs of `f` (each
/// followed by `extra_runs` more inside the timed region — the mutant),
/// and the last run's result. Timer noise on a shared machine
/// (interrupts, scheduling, frequency excursions) is strictly additive,
/// so the minimum is a robust estimator of the kernel's cost and one
/// unlucky run does not widen the CI.
fn min_ns_of<T>(extra_runs: u32, f: impl Fn() -> T) -> (u64, T) {
    let timed = || {
        let t0 = Instant::now(); // lint:allow(clock-hygiene): the regression tool's stopwatch; its readings reach BENCH_hotpath.json and stdout only
        let out = f();
        for _ in 0..extra_runs {
            std::hint::black_box(f());
        }
        (t0.elapsed().as_nanos() as u64, out)
    };
    let (mut best, mut out) = timed();
    for _ in 1..INNER {
        let (ns, again) = timed();
        best = best.min(ns);
        out = again;
    }
    (best, out)
}

/// Run one hunt: a warm-up, then `cfg.reps` timed repetitions of
/// integrate → estimate over the seeded bundle.
///
/// Obs recording is suspended inside the timed region: instrumentation
/// cost is owned and budgeted by the obs overhead harness, and leaving
/// it on would add a term that varies with what else the process
/// registered.
pub fn run_hunt(cfg: &HuntConfig) -> HuntReport {
    let (bundle, symtab) = synth_workload(cfg);
    let freq = Freq::ghz(3);
    let was_recording = fluctrace_obs::recording();
    fluctrace_obs::set_recording(false);

    let extra_runs = match cfg.mutant {
        Mutant::None => 0,
        Mutant::Slow(k) => k,
    };
    let integrate = || integrate_soa_with_threads(&bundle, &symtab, freq, cfg.mode, cfg.threads);
    std::hint::black_box(EstimateTable::from_soa(&integrate()));

    let mut timings = Vec::with_capacity(cfg.reps);
    for _ in 0..cfg.reps {
        let (integrate_ns, soa) = min_ns_of(extra_runs, integrate);
        let (estimate_ns, table) = min_ns_of(extra_runs, || EstimateTable::from_soa(&soa));
        std::hint::black_box(table);
        timings.push(RepTiming {
            integrate_ns,
            estimate_ns,
        });
    }

    fluctrace_obs::set_recording(was_recording);
    HuntReport {
        label: "HEAD".to_string(),
        samples: bundle.samples.len() as u64,
        threads: cfg.threads,
        timings,
    }
}

/// A bisect verdict with its evidence.
#[derive(Debug, Clone)]
pub struct BisectOutcome {
    /// Whether HEAD holds the baseline's throughput.
    pub pass: bool,
    /// Human-readable verdict.
    pub detail: String,
}

/// Bisect-mode comparison against a recorded baseline entry: regression
/// iff the current throughput CI sits *entirely* below `(1 − slack)` of
/// the baseline's recorded throughput.
///
/// `Err` when the baseline was recorded on a different workload size or
/// thread count: a smaller bundle is cache-resident and faster per
/// sample, so such a comparison would always "pass".
pub fn compare_to_baseline(
    report: &HuntReport,
    base: &TrajectoryEntry,
    slack: f64,
) -> Result<BisectOutcome, String> {
    if (base.samples, base.threads) != (report.samples, report.threads as u64) {
        return Err(format!(
            "baseline '{}' ran {} samples on {} thread(s), HEAD ran {} samples on {} thread(s): \
             not comparable (check FLUCTRACE_PERF_SAMPLES / FLUCTRACE_THREADS)",
            base.label, base.samples, base.threads, report.samples, report.threads
        ));
    }
    let per_rep: Vec<f64> = report
        .timings
        .iter()
        .map(|t| {
            let ns = t.total_ns().max(1);
            report.samples as f64 / (ns as f64 / 1e9)
        })
        .collect();
    let ci = mean_ci(&per_rep);
    let bar = base.samples_per_sec * (1.0 - slack);
    let pass = !ci.significantly_below(bar);
    let detail = format!(
        "{:.2} Msamples/s (95% CI [{:.2}, {:.2}]) vs baseline '{}' {:.2} (-{:.0}% bar {:.2}) -> {}",
        ci.slope / 1e6,
        ci.lo / 1e6,
        ci.hi / 1e6,
        base.label,
        base.samples_per_sec / 1e6,
        slack * 100.0,
        bar / 1e6,
        if pass { "OK" } else { "REGRESSION" }
    );
    Ok(BisectOutcome { pass, detail })
}

/// One recorded point of the hot-path trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryEntry {
    /// Free-form label (commit id, PR number, "seed", …).
    pub label: String,
    /// Samples in the bundle at recording time.
    pub samples: u64,
    /// Repetitions measured.
    pub reps: u64,
    /// Worker threads.
    pub threads: u64,
    /// Mean integrate + estimate time per repetition, ns.
    pub ns_mean: f64,
    /// Median throughput, samples/s.
    pub samples_per_sec: f64,
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

    fn synthetic_timings(ns: &[u64]) -> Vec<RepTiming> {
        ns.iter()
            .map(|&n| RepTiming {
                integrate_ns: n / 2,
                estimate_ns: n - n / 2,
            })
            .collect()
    }

    fn entry(samples: u64, threads: u64, samples_per_sec: f64) -> TrajectoryEntry {
        TrajectoryEntry {
            label: "base".into(),
            samples,
            reps: 6,
            threads,
            ns_mean: 0.0,
            samples_per_sec,
        }
    }

    #[test]
    fn mutant_slows_a_real_hunt_past_the_bisect_bar() {
        // An 8-extra-runs mutant makes the path ~9x its honest cost;
        // no slack a caller would pick keeps that green against the
        // same machine's honest run, so this cannot flake.
        let honest = run_hunt(&quick_cfg());
        let mut cfg = quick_cfg();
        cfg.mutant = Mutant::Slow(8);
        let slowed = run_hunt(&cfg);
        let out = compare_to_baseline(&slowed, &honest.to_entry(), 0.15).unwrap();
        assert!(!out.pass, "mutant escaped the bisect: {}", out.detail);
    }

    #[test]
    fn hunt_records_the_bundle_it_ran() {
        let cfg = quick_cfg();
        let report = run_hunt(&cfg);
        let (bundle, _) = synth_workload(&cfg);
        assert_eq!(report.samples, bundle.samples.len() as u64);
        assert_eq!(report.to_entry().samples, bundle.samples.len() as u64);
        assert_eq!(report.timings.len(), 4);
        let mean = report.mean_ns();
        assert!(mean.lo <= mean.slope && mean.slope <= mean.hi);
        assert!(report.samples_per_sec() > 0.0);
        assert!(report.integrate_samples_per_sec() > 0.0);
        assert!(report.estimate_samples_per_sec() > 0.0);
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

        t.append_and_save(entry(1_000, 4, 1.25e9), &path).unwrap();
        let t2 = Trajectory::load(&path).unwrap();
        assert_eq!(t2.entries.len(), 1);
        let e = t2.latest().unwrap();
        assert_eq!(e.label, "base");
        assert!((e.samples_per_sec - 1.25e9).abs() < 1e-3);

        std::fs::write(&path, "{\"schema\": \"bogus.v9\", \"entries\": []}").unwrap();
        assert!(Trajectory::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_comparison_flags_large_regressions_only() {
        let base = entry(1_000, 1, 1e9); // 1000 samples / 1000 ns
        let hunt = |ns: &[u64]| HuntReport {
            label: "h".into(),
            samples: 1_000,
            threads: 1,
            timings: synthetic_timings(ns),
        };
        // Matching throughput: ~1e9 samples/s -> OK.
        let same = hunt(&[1000, 1001, 999, 1000, 1002, 998]);
        assert!(compare_to_baseline(&same, &base, 0.15).unwrap().pass);
        // Halved throughput: far below the -15% bar -> regression.
        let halved = hunt(&[2000, 2004, 1996, 2000, 2008, 1992]);
        assert!(!compare_to_baseline(&halved, &base, 0.15).unwrap().pass);
        // A baseline from another workload size or thread count is not
        // a baseline: refused, naming both values, not "passed".
        let err = compare_to_baseline(&same, &entry(250, 1, 1e9), 0.15).unwrap_err();
        assert!(err.contains("250") && err.contains("1000"), "{err}");
        let err = compare_to_baseline(&same, &entry(1_000, 4, 1e9), 0.15).unwrap_err();
        assert!(
            err.contains("4 thread") && err.contains("1 thread"),
            "{err}"
        );
    }
}
