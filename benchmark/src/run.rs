//! One run of one workload: set-up, the repetition loop, the queries,
//! memory, verification and — in a traced run — the per-layer ledger.

use crate::harness::{
    dist, median, peak_rss_mb, run_reps, timed, Dist, Ops, Rep, RepPlan, RepTimes,
};
use crate::inputs::Scale;
use crate::report::{Env, RunDoc};
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, Metrics, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured repetitions.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// `--quick` sizes.
    pub quick: bool,
    /// Where files are written.
    pub out_dir: PathBuf,
}

/// Busy threads the program under test may use.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Make the process independent of its environment: every
/// `FLUCTRACE_*` variable is cleared so only explicit configuration
/// reaches the program, and the obs wall clock is installed as the
/// shipped binaries do (obs recording stays at its default, on).
pub fn isolate_process() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FLUCTRACE_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
    fluctrace_obs::install_wall_clock();
}

/// Drives a workload through the repetition loop. In a traced run the
/// odd repetitions record spans and the even ones do not, so one
/// process yields both medians and their difference is the tracing
/// overhead.
struct Driver<'a> {
    workload: &'a mut dyn Workload,
    tracer: &'a mut Tracer,
    traced: bool,
    with_spans: Vec<bool>,
}

impl Rep for Driver<'_> {
    fn rep(&mut self, id: u32) -> Result<u64, String> {
        self.tracer.set_rep(id);
        self.tracer.set_enabled(self.traced && id % 2 == 1);
        self.workload.rep(self.tracer)
    }

    fn after(&mut self, ops: &mut Ops) {
        self.with_spans.push(self.tracer.enabled());
        self.workload.check_rep(ops);
    }
}

/// Run `args.workload` once and report it.
pub fn run_workload(args: &RunArgs) -> Result<RunDoc, String> {
    let wall = Instant::now();
    isolate_process();
    let scale = Scale { quick: args.quick };
    let ctx = Ctx {
        seed: args.seed,
        scale,
        threads: bench_threads(),
        out_dir: args.out_dir.clone(),
    };

    // Set-up, several times: its median is `setup_s`.
    let setups = if args.quick { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..setups {
        // Free the previous set-up first, as a fresh process would.
        drop(workload.take());
        let (w, ns) = timed(|| workloads::setup(&args.workload, &ctx));
        workload = Some(w?);
        setup_s.push(ns as f64 / 1e9);
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let samples = workload.samples_per_rep().max(1);

    let mut ops = Ops::default();
    let mut tracer = Tracer::new(false);
    let plan = RepPlan {
        min_reps: if args.quick { 3 } else { workload.min_reps() },
        // A traced run spends the other half of its time on the legs.
        min_seconds: if args.traced {
            args.seconds / 2.0
        } else {
            args.seconds
        },
    };
    let mut driver = Driver {
        workload: workload.as_mut(),
        tracer: &mut tracer,
        traced: args.traced,
        with_spans: vec![false],
    };
    let times = run_reps(plan, &mut ops, &mut driver);
    // The warm-up pushed the first entry; the rest align with `reps_ns`.
    let with_spans: Vec<bool> = driver.with_spans.into_iter().skip(1).collect();

    // Memory is read before the oracles are built, so a reference
    // implementation's footprint cannot mask the program's.
    let peak_rss = peak_rss_mb();
    let fin = workload.finish(&mut ops);
    workload.verify(&mut ops);

    let reps_ms: Vec<f64> = times.reps_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let d = dist(&reps_ms);
    let cpu_total = (times.cpu_ns.0 + times.cpu_ns.1) as f64;

    let mut end_to_end = Metrics::default();
    end_to_end.put("setup_s", median(&setup_s), "s");
    end_to_end.put(
        "samples_per_s",
        samples as f64 / (d.p50 / 1e3).max(f64::MIN_POSITIVE),
        "1/s",
    );
    end_to_end.put(
        "cpu_ns_per_sample",
        cpu_total / (times.reps_ns.len().max(1) as u64 * samples) as f64,
        "ns/sample",
    );
    end_to_end.put("peak_rss_mb", peak_rss, "MB");
    let bytes_per_sample = fin.output_bytes as f64 / samples as f64;
    if fin.output_bytes_exact {
        end_to_end.put_exact("bytes_per_sample", bytes_per_sample, "B/sample");
    } else {
        end_to_end.put("bytes_per_sample", bytes_per_sample, "B/sample");
    }
    end_to_end.put("query_p50_us", fin.query_p50_us(), "us");

    let mut per_layer = Metrics::default();
    let mut spans_json = None;
    if args.traced {
        let (leg_spans, critical_ns) = run_legs(&ctx, workload.as_mut(), &mut ops, &mut per_layer)?;
        bench_metrics(&tracer, &times, d, &with_spans, critical_ns, &mut per_layer);
        spans_json = Some(format!(
            "{{\"spans\":{},\"legs\":{{{}}}}}",
            tracer.to_json(),
            leg_spans.join(",")
        ));
    }
    // `failed_frac` is final only now: the legs verify too.
    end_to_end.put_exact("failed_frac", ops.failed_frac(), "frac");

    Ok(RunDoc {
        workload: args.workload.clone(),
        traced: args.traced,
        env: Env::capture(args, ctx.threads, nproc(), wall.elapsed().as_secs_f64()),
        input_digest: format!("{:016x}", workload.input_digest()),
        samples_per_rep: samples,
        reps: d.n as u64,
        rep_p50_ms: d.p50,
        rep_tail_ms: d.tail,
        rep_tail_pct: d.tail_pct,
        cold_rep_ms: times.cold_ns as f64 / 1e6,
        reps_ms,
        queries: fin.queries.len() as u64,
        end_to_end,
        per_layer,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        spans_json,
    })
}

/// The per-layer ledger of a traced run: the legs of every workload,
/// the measured one on its own inputs and the others set up afresh from
/// the same seed. Returns the leg spans, one JSON member per workload,
/// and the critical-path leg of the measured workload.
fn run_legs(
    ctx: &Ctx,
    workload: &mut dyn Workload,
    ops: &mut Ops,
    out: &mut Metrics,
) -> Result<(Vec<String>, Option<f64>), String> {
    let leg_reps = if ctx.scale.quick { 2 } else { 3 };
    let mut leg_spans = Vec::new();
    let mut critical_ns = None;
    for name in workloads::NAMES {
        let mut leg_tracer = Tracer::new(true);
        if name == workload.name() {
            critical_ns = workload.legs(&mut leg_tracer, leg_reps, ops, out);
        } else {
            let mut other = workloads::setup(name, ctx)?;
            other.legs(&mut leg_tracer, leg_reps, ops, out);
        }
        leg_spans.push(format!("\"{name}\":{}", leg_tracer.to_json()));
    }
    Ok((leg_spans, critical_ns))
}

/// The harness's own `bench.*` figures of a traced run.
fn bench_metrics(
    tracer: &Tracer,
    times: &RepTimes,
    d: Dist,
    with_spans: &[bool],
    critical_ns: Option<f64>,
    out: &mut Metrics,
) {
    out.put("bench.reps", d.n as f64, "count");
    out.put("bench.rep_p50_ms", d.p50, "ms");
    out.put("bench.rep_tail_ms", d.tail, "ms");
    out.put("bench.rep_tail_pct", d.tail_pct, "%");
    out.put("bench.cold_rep_ms", times.cold_ns as f64 / 1e6, "ms");
    let cpu = (times.cpu_ns.0 + times.cpu_ns.1).max(1) as f64;
    out.put("bench.sys_cpu_frac", times.cpu_ns.1 as f64 / cpu, "frac");

    // Spanned and plain repetitions alternate; the median ratio of
    // adjacent pairs cancels drift that a ratio of medians would keep.
    let mut pair_ratio = Vec::new();
    for (pair, spans) in times.reps_ns.chunks(2).zip(with_spans.chunks(2)) {
        if let ([a, b], [sa, sb]) = (pair, spans) {
            if sa != sb {
                let (with, without) = if *sa { (a, b) } else { (b, a) };
                pair_ratio.push(*with as f64 / (*without).max(1) as f64);
            }
        }
    }
    out.put(
        "bench.tracing_overhead_frac",
        if pair_ratio.is_empty() {
            0.0
        } else {
            median(&pair_ratio) - 1.0
        },
        "frac",
    );

    // A serial workload is spanned in place: what its root span does
    // not hand to a layer is unaccounted. A threaded one has its
    // end-to-end time and the critical-path leg.
    let spanned: Vec<f64> = times
        .reps_ns
        .iter()
        .zip(with_spans)
        .filter(|(_, &s)| s)
        .map(|(&ns, _)| ns as f64)
        .collect();
    let by_name = tracer.self_ns_by_name();
    let unaccounted = match (by_name.get("rep"), critical_ns) {
        (Some(root_self), _) => median(root_self) / median(&spanned).max(f64::MIN_POSITIVE),
        (None, Some(critical)) => 1.0 - critical / (d.p50 * 1e6).max(f64::MIN_POSITIVE),
        (None, None) => 0.0,
    };
    out.put("bench.unaccounted_frac", unaccounted, "frac");
}
