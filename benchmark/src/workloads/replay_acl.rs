//! `replay_acl`: the paper's own case study read back from disk. Set-up
//! runs the firewall over Table III rules on the simulated machine
//! (PEBS R = 8000, ~110 samples per item, fewer than 20 functions) and
//! writes the trace with `TraceWriter`; each repetition opens the file,
//! decodes it and analyses it. `store::reader` dominates and the trace
//! shape is the opposite of `analyze_wide` (long items, few functions).

use super::analyze_wide::{analyze, reference_table, verify_table, Analysis};
use super::store_query::{expected_rows, run_queries, tsc_bounds, window, WINDOWS};
use super::{span_cost, Ctx, Finish, Metrics, Workload};
use crate::harness::{median, timed, Digest, Ops};
use crate::inputs::{acl_group, acl_run, digest_bundle, AclRun};
use crate::trace::Tracer;
use fluctrace_cpu::{MarkKind, TraceBundle};
use fluctrace_store::{StoreConfig, TraceReader, TraceWriter, WriteStats};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Write `bundle` as a one-segment store file at `path`.
pub fn write_store(path: &Path, bundle: &TraceBundle) -> Result<WriteStats, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = TraceWriter::new(BufWriter::new(file), StoreConfig::default())
        .map_err(|e| e.to_string())?;
    w.append(bundle).map_err(|e| e.to_string())?;
    let (mut sink, stats) = w.finish().map_err(|e| e.to_string())?;
    sink.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(stats)
}

/// Open the store at `path` and decode everything.
pub fn read_store(path: &Path, tracer: &mut Tracer) -> Result<TraceBundle, String> {
    let mut reader = tracer.span("store.read.open", |_| {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        TraceReader::open(file).map_err(|e| e.to_string())
    })?;
    tracer.span("store.read.bundle", |_| {
        reader.read_bundle().map_err(|e| e.to_string())
    })
}

/// The decoded bundle must be bit-equal to the written one.
pub fn verify_decoded(name: &str, decoded: &TraceBundle, written: &TraceBundle, ops: &mut Ops) {
    ops.check(
        &format!("{name}: decoded samples bit-equal to the written ones"),
        decoded.samples == written.samples,
    );
    ops.check(
        &format!("{name}: decoded marks bit-equal to the written ones"),
        decoded.marks == written.marks,
    );
}

/// Unique scratch file under `dir/tmp`.
pub(crate) fn scratch_file(dir: &Path, stem: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join("tmp")
        .join(format!("{stem}_{}_{n}.flt", std::process::id()))
}

/// The workload.
pub struct ReplayAcl {
    run: AclRun,
    path: PathBuf,
    written: WriteStats,
    expected_items: u64,
    threads: usize,
    digest: u64,
    last: Option<(TraceBundle, Analysis)>,
    window_rows: Vec<u64>,
}

impl ReplayAcl {
    /// Run the case study and write its trace to disk.
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let run = acl_run(ctx.seed, ctx.scale.acl_per_type());
        let path = scratch_file(&ctx.out_dir, "replay_acl");
        let written = write_store(&path, &run.bundle)?;
        let mut d = Digest::default();
        digest_bundle(&mut d, &run.bundle);
        let items: BTreeSet<u64> = run
            .bundle
            .marks
            .iter()
            .filter(|m| m.kind == MarkKind::Start)
            .map(|m| m.item.0)
            .collect();
        Ok(ReplayAcl {
            expected_items: items.len() as u64,
            run,
            path,
            written,
            threads: ctx.threads,
            digest: d.value(),
            last: None,
            window_rows: Vec::new(),
        })
    }

    /// The store file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn one_rep(&self, tracer: &mut Tracer) -> Result<(TraceBundle, Analysis), String> {
        let decoded = read_store(&self.path, tracer)?;
        let analysis = analyze(&decoded, &self.run.symtab, self.threads, &acl_group, tracer);
        Ok((decoded, analysis))
    }

    fn tsc_bounds(&self) -> (u64, u64) {
        tsc_bounds(self.run.bundle.samples.iter())
    }
}

impl Drop for ReplayAcl {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for ReplayAcl {
    fn name(&self) -> &'static str {
        "replay_acl"
    }

    fn samples_per_rep(&self) -> u64 {
        self.run.bundle.samples.len() as u64
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn rep(&mut self, tracer: &mut Tracer) -> Result<u64, String> {
        let t0 = Instant::now();
        let result = tracer.span("rep", |t| self.one_rep(t))?;
        let ns = t0.elapsed().as_nanos() as u64;
        self.last = Some(result);
        Ok(ns)
    }

    fn check_rep(&mut self, ops: &mut Ops) {
        let Some((decoded, analysis)) = &self.last else {
            ops.check("replay_acl: repetition left a result", false);
            return;
        };
        ops.check(
            "replay_acl: decoded row counts equal the written ones",
            decoded.samples.len() as u64 == self.written.samples
                && decoded.marks.len() as u64 == self.written.marks,
        );
        ops.check(
            "replay_acl: one table entry per packet",
            analysis.table.len() as u64 == self.expected_items,
        );
    }

    fn finish(&mut self, ops: &mut Ops) -> Finish {
        let mut out = Finish {
            output_bytes: self.written.bytes,
            output_bytes_exact: true,
            ..Finish::default()
        };
        // The read query of a stored trace: the samples of one tsc
        // window, decoded from the chunks the footer says overlap it.
        let opened = File::open(&self.path)
            .map_err(|e| e.to_string())
            .and_then(|f| TraceReader::open(f).map_err(|e| e.to_string()));
        if let Some(mut reader) = ops.check_ok("replay_acl: open for window queries", opened) {
            (out.queries, self.window_rows) =
                run_queries("replay_acl", &mut reader, self.tsc_bounds(), ops);
        }
        out
    }

    fn verify(&mut self, ops: &mut Ops) {
        let Some((decoded, analysis)) = &self.last else {
            ops.check("replay_acl: a result to verify", false);
            return;
        };
        verify_decoded("replay_acl", decoded, &self.run.bundle, ops);
        let reference = reference_table(&self.run.bundle, &self.run.symtab);
        verify_table("replay_acl", &analysis.table, &reference, ops);
        ops.check(
            "replay_acl: window queries return exactly the samples in each window",
            self.window_rows == expected_rows(self.run.bundle.samples.iter(), self.tsc_bounds()),
        );
    }

    fn legs(
        &mut self,
        tracer: &mut Tracer,
        reps: usize,
        ops: &mut Ops,
        out: &mut Metrics,
    ) -> Option<f64> {
        let samples = self.samples_per_rep();
        for rep in 1..=reps as u32 {
            tracer.set_rep(rep);
            let result = tracer.span("rep", |t| self.one_rep(t));
            ops.check_ok("replay_acl: leg repetition", result);
        }
        let by_name = tracer.self_ns_by_name();
        let bundle_ns = span_cost(&by_name, "store.read.bundle", 1);
        out.put(
            "store.read.open_us",
            span_cost(&by_name, "store.read.open", 1) / 1e3,
            "us",
        );
        out.put(
            "store.read.bundle_ns_per_sample",
            bundle_ns / samples.max(1) as f64,
            "ns/sample",
        );
        out.put(
            "store.read.mb_per_s",
            self.written.bytes as f64 / 1e6 / (bundle_ns / 1e9).max(f64::MIN_POSITIVE),
            "MB/s",
        );

        // Window reads: rows of the chunks that overlap each window
        // (from the footers) against the rows the query returns.
        let (lo, hi) = self.tsc_bounds();
        let opened = File::open(&self.path)
            .map_err(|e| e.to_string())
            .and_then(|f| TraceReader::open(f).map_err(|e| e.to_string()));
        if let Some(mut reader) = ops.check_ok("replay_acl: open for window leg", opened) {
            let mut decoded_rows = 0u64;
            for i in 0..WINDOWS {
                let (a, b) = window(lo, hi, i);
                for seg in reader.segment_meta() {
                    for c in &seg.footer.chunks {
                        let is_samples = c.stream == fluctrace_store::format::STREAM_SAMPLES;
                        if is_samples && c.rows > 0 && c.tsc_max >= a && c.tsc_min <= b {
                            decoded_rows += c.rows;
                        }
                    }
                }
            }
            let mut returned = 0u64;
            let mut per_pass = Vec::new();
            for _ in 0..reps {
                returned = 0;
                let (_, ns) = timed(|| {
                    for i in 0..WINDOWS {
                        let (a, b) = window(lo, hi, i);
                        if let Ok(rows) = reader.read_samples_in(a, b) {
                            returned += rows.len() as u64;
                        }
                    }
                });
                per_pass.push(ns as f64);
            }
            ops.check(
                "replay_acl: disjoint windows return every sample once",
                returned == samples,
            );
            out.put(
                "store.read.window_ns_per_sample",
                median(&per_pass) / returned.max(1) as f64,
                "ns/sample",
            );
            out.put_exact(
                "store.read.window_overread",
                decoded_rows as f64 / returned.max(1) as f64,
                "x",
            );
        }

        out.put(
            "cpu.machine.run_ns_per_sample",
            self.run.run_ns as f64 / samples.max(1) as f64,
            "ns/sample",
        );
        out.put_exact("cpu.machine.samples", samples as f64, "count");
        out.put_exact("cpu.machine.marks", self.run.marks as f64, "count");
        out.put("acl.build_ms", self.run.build_ns as f64 / 1e6, "ms");
        None
    }
}
