//! `capture_spill`: streaming capture. Pre-generated `TrafficGen`
//! batches (4 cores × 64 items × 24 samples, 384 functions) are
//! submitted with blocking `submit` to `OnlineTracer::spawn_with_spill`
//! over an in-memory sink, then `finish`. The store *write* side beside
//! `replay_acl`'s reads: `store::writer` and `core::online` pairing
//! share the worker thread, the channel hand-off is the rest.

use super::store_query::{expected_rows, run_queries, tsc_bounds};
use super::{Ctx, Finish, Metrics, Workload};
use crate::harness::{median, timed, Digest, Ops};
use crate::inputs::{digest_bundle, freq, serve_config, stream_batches, STREAM_ITEMS_PER_BATCH};
use crate::trace::Tracer;
use fluctrace_core::{OnlineConfig, OnlineReport, OnlineTracer};
use fluctrace_cpu::{SymbolTable, TraceBundle};
use fluctrace_serve::{ServeConfig, TrafficGen};
use fluctrace_store::{SharedBuf, StoreConfig, TraceReader, TraceWriter};
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one repetition produced.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The tracer's final report.
    pub report: OnlineReport,
    /// The spilled store.
    pub spilled: Vec<u8>,
}

/// Submit `batches` to an online tracer spilling into memory; returns
/// the capture and the time spent inside `submit`.
pub fn capture(
    batches: Vec<TraceBundle>,
    symtab: &Arc<SymbolTable>,
    spill: bool,
) -> Result<(Capture, Duration), String> {
    let buf = SharedBuf::new();
    let config = OnlineConfig::new(freq());
    let tracer = if spill {
        let writer =
            TraceWriter::new(buf.clone(), StoreConfig::default()).map_err(|e| e.to_string())?;
        OnlineTracer::spawn_with_spill(Arc::clone(symtab), config, writer)
    } else {
        OnlineTracer::spawn(Arc::clone(symtab), config)
    };
    let mut in_submit = Duration::ZERO;
    for batch in batches {
        let t0 = Instant::now();
        tracer.submit(batch).map_err(|e| e.to_string())?;
        in_submit += t0.elapsed();
    }
    let report = tracer.finish().map_err(|e| e.to_string())?;
    Ok((
        Capture {
            report,
            spilled: buf.contents(),
        },
        in_submit,
    ))
}

/// Lossless capture: every sample conserved, nothing shed, every item
/// completed, every sample spilled.
pub fn check_capture(c: &Capture, items: u64, samples: u64, ops: &mut Ops) {
    ops.check(
        "capture_spill: samples conserved",
        c.report.conserves_samples() && c.report.samples_seen == samples,
    );
    ops.check("capture_spill: clean loss ledger", c.report.loss.is_clean());
    ops.check(
        "capture_spill: every item completed",
        c.report.items_processed == items,
    );
    ops.check(
        "capture_spill: every sample spilled without error",
        c.report.spill.errors == 0
            && c.report.spill.samples == samples
            && c.report.spill.bytes == c.spilled.len() as u64,
    );
}

/// The spilled store must read back bit-equal to the concatenated batches.
pub fn verify_spill(spilled: &[u8], batches: &[TraceBundle], ops: &mut Ops) {
    let decoded = TraceReader::open(Cursor::new(spilled))
        .and_then(|mut r| r.read_bundle())
        .map_err(|e| e.to_string());
    let Some(decoded) = ops.check_ok("capture_spill: spilled store decodes", decoded) else {
        return;
    };
    ops.check(
        "capture_spill: spilled samples bit-equal to the submitted batches",
        decoded
            .samples
            .iter()
            .eq(batches.iter().flat_map(|b| b.samples.iter())),
    );
    ops.check(
        "capture_spill: spilled marks bit-equal to the submitted batches",
        decoded
            .marks
            .iter()
            .eq(batches.iter().flat_map(|b| b.marks.iter())),
    );
}

/// The workload.
pub struct CaptureSpill {
    config: ServeConfig,
    batches: Vec<TraceBundle>,
    symtab: Arc<SymbolTable>,
    samples: u64,
    digest: u64,
    first_spill_digest: Option<u64>,
    last: Option<Capture>,
    window_rows: Vec<u64>,
}

impl CaptureSpill {
    /// Generate the batches from the seed.
    pub fn setup(ctx: &Ctx) -> Self {
        let n = ctx.scale.stream_batches();
        let config = serve_config(ctx.seed, n);
        let (batches, symtab) = stream_batches(&config, n);
        let mut d = Digest::default();
        for b in &batches {
            digest_bundle(&mut d, b);
        }
        CaptureSpill {
            config,
            samples: batches.iter().map(|b| b.samples.len() as u64).sum(),
            batches,
            symtab,
            digest: d.value(),
            first_spill_digest: None,
            last: None,
            window_rows: Vec::new(),
        }
    }

    fn items(&self) -> u64 {
        self.batches.len() as u64 * u64::from(self.config.cores) * STREAM_ITEMS_PER_BATCH
    }

    /// The generated batches and their symbol table (for the verifier tests).
    pub fn input(&self) -> (&[TraceBundle], &Arc<SymbolTable>) {
        (&self.batches, &self.symtab)
    }

    fn bounds(&self) -> (u64, u64) {
        tsc_bounds(self.batches.iter().flat_map(|b| b.samples.iter()))
    }
}

impl Workload for CaptureSpill {
    fn name(&self) -> &'static str {
        "capture_spill"
    }

    fn samples_per_rep(&self) -> u64 {
        self.samples
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn rep(&mut self, _tracer: &mut Tracer) -> Result<u64, String> {
        // `submit` takes the batch; the copy a collector would have
        // built is made before the clock starts.
        let owned = self.batches.clone();
        let t0 = Instant::now();
        let (capture, _) = capture(owned, &self.symtab, true)?;
        let ns = t0.elapsed().as_nanos() as u64;
        self.last = Some(capture);
        Ok(ns)
    }

    fn check_rep(&mut self, ops: &mut Ops) {
        let Some(last) = &self.last else {
            ops.check("capture_spill: repetition left a result", false);
            return;
        };
        check_capture(last, self.items(), self.samples, ops);
        let mut d = Digest::default();
        d.bytes(&last.spilled);
        let first = *self.first_spill_digest.get_or_insert(d.value());
        ops.check(
            "capture_spill: spilled bytes identical across repetitions",
            first == d.value(),
        );
    }

    fn finish(&mut self, ops: &mut Ops) -> Finish {
        let mut out = Finish::default();
        let Some(last) = &self.last else {
            return out;
        };
        out.output_bytes = last.spilled.len() as u64;
        out.output_bytes_exact = true;
        let opened =
            TraceReader::open(Cursor::new(last.spilled.as_slice())).map_err(|e| e.to_string());
        if let Some(mut reader) = ops.check_ok("capture_spill: open for window queries", opened) {
            (out.queries, self.window_rows) =
                run_queries("capture_spill", &mut reader, self.bounds(), ops);
        }
        out
    }

    fn verify(&mut self, ops: &mut Ops) {
        let Some(last) = &self.last else {
            ops.check("capture_spill: a result to verify", false);
            return;
        };
        verify_spill(&last.spilled, &self.batches, ops);
        ops.check(
            "capture_spill: window queries return exactly the samples in each window",
            self.window_rows
                == expected_rows(
                    self.batches.iter().flat_map(|b| b.samples.iter()),
                    self.bounds(),
                ),
        );
    }

    fn legs(
        &mut self,
        _tracer: &mut Tracer,
        reps: usize,
        ops: &mut Ops,
        out: &mut Metrics,
    ) -> Option<f64> {
        let samples = self.samples.max(1) as f64;
        let n = self.batches.len() as u64;

        // Leg: the traffic generator alone.
        let gen_ns: Vec<f64> = (0..reps)
            .map(|_| {
                let mut traffic = TrafficGen::new(&self.config, 0, Arc::clone(&self.symtab));
                let (_, ns) = timed(|| {
                    for _ in 0..n {
                        std::hint::black_box(traffic.next_batch());
                    }
                });
                ns as f64
            })
            .collect();
        out.put(
            "serve.traffic.next_batch_ns_per_sample",
            median(&gen_ns) / samples,
            "ns/sample",
        );

        // Leg: the online tracer without spill.
        let mut online_ns = Vec::new();
        let mut wait_frac = Vec::new();
        let mut report = None;
        for _ in 0..reps {
            let owned = self.batches.clone();
            let (result, ns) = timed(|| capture(owned, &self.symtab, false));
            if let Some((c, in_submit)) = ops.check_ok("capture_spill: online leg", result) {
                online_ns.push(ns as f64);
                wait_frac.push(in_submit.as_nanos() as f64 / ns.max(1) as f64);
                report = Some(c.report);
            }
        }
        out.put(
            "core.online.ns_per_sample",
            median(&online_ns) / samples,
            "ns/sample",
        );
        out.put("core.online.submit_wait_frac", median(&wait_frac), "frac");
        let report = report.unwrap_or_default();
        out.put_exact("core.online.items", report.items_processed as f64, "count");
        out.put_exact(
            "core.online.anomalies",
            report.anomalies.len() as f64,
            "count",
        );
        out.put_exact(
            "core.online.samples_lost",
            report.loss.samples_lost() as f64,
            "count",
        );

        // Leg: the store writer alone, on the same batches.
        let mut write_ns = Vec::new();
        let mut stats = None;
        for _ in 0..reps {
            let (result, ns) = timed(|| {
                let mut w = TraceWriter::new(Vec::new(), StoreConfig::default())?;
                for b in &self.batches {
                    w.append(b)?;
                }
                w.finish()
            });
            let result = result.map_err(|e| e.to_string());
            if let Some((_, s)) = ops.check_ok("capture_spill: writer leg", result) {
                write_ns.push(ns as f64);
                stats = Some(s);
            }
        }
        let stats = stats.unwrap_or_default();
        let write_p50 = median(&write_ns);
        out.put(
            "store.write.ns_per_sample",
            write_p50 / samples,
            "ns/sample",
        );
        out.put(
            "store.write.mb_per_s",
            stats.bytes as f64 / 1e6 / (write_p50 / 1e9).max(f64::MIN_POSITIVE),
            "MB/s",
        );
        out.put_exact(
            "store.write.bytes_per_sample",
            stats.bytes as f64 / samples,
            "B/sample",
        );
        out.put_exact("store.write.chunks", stats.chunks as f64, "count");

        // Legs: two threads handing the same bundles over the lock-free
        // ring and over the channel shim the tracer and the daemon use.
        let capacity = OnlineConfig::new(freq()).channel_capacity;
        let ring_ns: Vec<f64> = (0..reps)
            .map(|_| handoff_ring(self.batches.clone(), capacity) as f64)
            .collect();
        let chan_ns: Vec<f64> = (0..reps)
            .map(|_| handoff_channel(self.batches.clone(), capacity) as f64)
            .collect();
        out.put(
            "rt.spsc.handoff_ns_per_batch",
            median(&ring_ns) / n.max(1) as f64,
            "ns/batch",
        );
        out.put(
            "shim.channel.handoff_ns_per_batch",
            median(&chan_ns) / n.max(1) as f64,
            "ns/batch",
        );

        // Pairing and writing share the worker thread, so together they
        // are the critical path of a repetition.
        Some(median(&online_ns) + write_p50)
    }
}

/// Pass `batches` from this thread to a consumer thread through
/// `rt::spsc_ring`; returns the nanoseconds until the last one arrived.
fn handoff_ring(batches: Vec<TraceBundle>, capacity: usize) -> u64 {
    let n = batches.len();
    let (mut tx, mut rx) = fluctrace_rt::spsc::spsc_ring::<TraceBundle>(capacity);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut got = 0usize;
            while got < n {
                match rx.pop() {
                    Some(b) => {
                        std::hint::black_box(b);
                        got += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        for mut batch in batches {
            while let Err(back) = tx.push(batch) {
                batch = back;
                std::thread::yield_now();
            }
        }
    });
    t0.elapsed().as_nanos() as u64
}

/// The same hand-off through `crossbeam::channel::bounded`.
fn handoff_channel(batches: Vec<TraceBundle>, capacity: usize) -> u64 {
    let (tx, rx) = crossbeam::channel::bounded::<TraceBundle>(capacity);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(b) = rx.recv() {
                std::hint::black_box(b);
            }
        });
        for batch in batches {
            if tx.send(batch).is_err() {
                break;
            }
        }
        drop(tx);
    });
    t0.elapsed().as_nanos() as u64
}
