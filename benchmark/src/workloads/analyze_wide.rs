//! `analyze_wide`: in-memory batch analysis of a ~2 M-sample synthetic
//! trace in the perf-hunt shape (4 cores, 384 functions, 24 samples per
//! item, stray and unresolvable samples). `core::soa` and
//! `core::estimate` do all the work; store, channels and serve do none,
//! so a kernel or pairing change shows here and a store change must not.

use super::{span_cost, Ctx, Finish, Metrics, Workload};
use crate::harness::{median, timed, Digest, Ops};
use crate::inputs::{
    digest_bundle, freq, wide_group, wide_trace, WIDE_CORES, WIDE_FUNCS, WIDE_SAMPLES_PER_ITEM,
};
use crate::trace::Tracer;
use fluctrace_core::{
    detect, integrate_soa_with_threads, integrate_with_threads, EstimateTable, FluctuationReport,
    MappingMode,
};
use fluctrace_cpu::{FuncId, SymbolTable, TraceBundle};
use fluctrace_sim::SimDuration;
use std::time::Instant;

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Share of the samples attributed to an item.
    pub attributed_frac: f64,
    /// The estimate table.
    pub table: EstimateTable,
    /// The fluctuation report over it.
    pub report: FluctuationReport,
}

/// Attributed samples and `(item, function)` rows of a table.
pub fn table_counts(table: &EstimateTable) -> (u64, u64) {
    let mut samples = 0u64;
    let mut rows = 0u64;
    for ie in table.items() {
        rows += ie.funcs.len() as u64;
        samples += u64::from(ie.unknown_func_samples);
        samples += ie.funcs.iter().map(|f| u64::from(f.samples)).sum::<u64>();
    }
    (samples, rows)
}

/// integrate → estimate → detect over `bundle`, spanned.
pub fn analyze(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    threads: usize,
    group: &dyn Fn(fluctrace_cpu::ItemId) -> String,
    tracer: &mut Tracer,
) -> Analysis {
    let soa = tracer.span("core.soa.integrate", |_| {
        integrate_soa_with_threads(bundle, symtab, freq(), MappingMode::Intervals, threads)
    });
    let table = tracer.span("core.estimate.from_soa", |_| EstimateTable::from_soa(&soa));
    let report = tracer.span("core.fluct.detect", |_| {
        detect(
            &table,
            |item| Some(group(item)),
            4.0,
            SimDuration::from_ns(20),
        )
    });
    Analysis {
        attributed_frac: soa.attribution_ratio(),
        table,
        report,
    }
}

/// The table every repetition must reproduce: the AoS
/// `integrate → from_integrated` path, single-threaded.
pub fn reference_table(bundle: &TraceBundle, symtab: &SymbolTable) -> EstimateTable {
    let it = integrate_with_threads(bundle, symtab, freq(), MappingMode::Intervals, 1);
    EstimateTable::from_integrated(&it)
}

/// Compare a repetition's table with the reference.
pub fn verify_table(name: &str, got: &EstimateTable, reference: &EstimateTable, ops: &mut Ops) {
    ops.check(
        &format!("{name}: table equals the AoS reference table"),
        got == reference,
    );
}

/// The workload.
pub struct AnalyzeWide {
    bundle: TraceBundle,
    symtab: SymbolTable,
    items_per_core: usize,
    threads: usize,
    digest: u64,
    last: Option<Analysis>,
}

impl AnalyzeWide {
    /// Generate the trace from the seed.
    pub fn setup(ctx: &Ctx) -> Self {
        let items_per_core = ctx.scale.wide_items_per_core();
        let (bundle, symtab) = wide_trace(ctx.seed, items_per_core);
        let mut d = Digest::default();
        digest_bundle(&mut d, &bundle);
        AnalyzeWide {
            bundle,
            symtab,
            items_per_core,
            threads: ctx.threads,
            digest: d.value(),
            last: None,
        }
    }

    fn items(&self) -> u64 {
        u64::from(WIDE_CORES) * self.items_per_core as u64
    }

    /// The generated trace (for the verifier tests).
    pub fn input(&self) -> (&TraceBundle, &SymbolTable) {
        (&self.bundle, &self.symtab)
    }
}

impl Workload for AnalyzeWide {
    fn name(&self) -> &'static str {
        "analyze_wide"
    }

    fn samples_per_rep(&self) -> u64 {
        self.bundle.samples.len() as u64
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn rep(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let ipc = self.items_per_core;
        let t0 = Instant::now();
        let analysis = tracer.span("rep", |t| {
            analyze(
                &self.bundle,
                &self.symtab,
                self.threads,
                &|item| wide_group(item, ipc),
                t,
            )
        });
        let ns = t0.elapsed().as_nanos() as u64;
        self.last = Some(analysis);
        Ok(ns)
    }

    fn check_rep(&mut self, ops: &mut Ops) {
        let Some(last) = &self.last else {
            ops.check("analyze_wide: repetition left a result", false);
            return;
        };
        let (samples, _) = table_counts(&last.table);
        ops.check(
            "analyze_wide: one table entry per item",
            last.table.len() as u64 == self.items(),
        );
        ops.check(
            "analyze_wide: every in-item sample attributed",
            samples == self.items() * WIDE_SAMPLES_PER_ITEM as u64,
        );
    }

    fn finish(&mut self, ops: &mut Ops) -> Finish {
        let mut out = Finish::default();
        let Some(last) = &self.last else {
            return out;
        };
        // The read query of an in-memory analysis: one function's
        // series across all items (what the figure code plots).
        for q in 0..300u32 {
            let func = FuncId(q % WIDE_FUNCS as u32);
            let (series, ns) = timed(|| last.table.series_for_func(func));
            ops.check(
                "analyze_wide: series query",
                series.len() as u64 <= self.items(),
            );
            out.queries.push((0, ns));
        }
        let json = ops.check_ok(
            "analyze_wide: render table",
            serde_json::to_string(&last.table).map_err(|e| e.to_string()),
        );
        out.output_bytes = json.map_or(0, |j| j.len() as u64);
        out.output_bytes_exact = true;
        out
    }

    fn verify(&mut self, ops: &mut Ops) {
        let reference = reference_table(&self.bundle, &self.symtab);
        match &self.last {
            Some(last) => verify_table("analyze_wide", &last.table, &reference, ops),
            None => ops.check("analyze_wide: a result to verify", false),
        }
    }

    fn legs(
        &mut self,
        tracer: &mut Tracer,
        reps: usize,
        ops: &mut Ops,
        out: &mut Metrics,
    ) -> Option<f64> {
        let samples = self.samples_per_rep();
        let mut t1_ns = Vec::new();
        for rep in 1..=reps as u32 {
            tracer.set_rep(rep);
            ops.check_ok("analyze_wide: leg repetition", self.rep(tracer));
            let (soa, ns) = timed(|| {
                integrate_soa_with_threads(
                    &self.bundle,
                    &self.symtab,
                    freq(),
                    MappingMode::Intervals,
                    1,
                )
            });
            std::hint::black_box(soa);
            t1_ns.push(ns as f64);
        }
        let by_name = tracer.self_ns_by_name();
        let integrate = span_cost(&by_name, "core.soa.integrate", samples);
        let integrate_t1 = median(&t1_ns) / samples.max(1) as f64;
        out.put("core.soa.integrate_ns_per_sample", integrate, "ns/sample");
        out.put(
            "core.soa.integrate_t1_ns_per_sample",
            integrate_t1,
            "ns/sample",
        );
        out.put(
            "core.soa.thread_speedup",
            integrate_t1 / integrate.max(f64::MIN_POSITIVE),
            "x",
        );
        out.put(
            "core.estimate.from_soa_ns_per_sample",
            span_cost(&by_name, "core.estimate.from_soa", samples),
            "ns/sample",
        );
        out.put(
            "core.fluct.detect_ns_per_sample",
            span_cost(&by_name, "core.fluct.detect", samples),
            "ns/sample",
        );

        let Some(analysis) = &self.last else {
            return None;
        };
        let (_, rows) = table_counts(&analysis.table);
        let (json, json_ns) = timed(|| serde_json::to_string(&analysis.table));
        ops.check("analyze_wide: render table (leg)", json.is_ok());
        out.put_exact("core.soa.attributed_frac", analysis.attributed_frac, "frac");
        out.put_exact("core.estimate.rows", rows as f64, "count");
        out.put(
            "core.estimate.json_ns_per_row",
            json_ns as f64 / rows.max(1) as f64,
            "ns/row",
        );
        out.put_exact(
            "core.fluct.outliers",
            (analysis.report.outliers.len() + analysis.report.total_outliers.len()) as f64,
            "count",
        );
        None
    }
}
