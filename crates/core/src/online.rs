//! Online processing of sample streams (§IV.C.3's mitigation for the
//! PEBS data volume).
//!
//! Dumping every PEBS buffer to storage costs hundreds of MB/s per core.
//! The paper suggests: "one can estimate the elapsed time of each
//! function online and dump raw samples only when the estimation
//! diverges from the average by a threshold in order to analyze the
//! phenomenon later offline."
//!
//! [`OnlineTracer`] implements that: a real worker thread receives trace
//! batches over a bounded channel and drives the `pairing` state machine
//! (shared with [`crate::window`]), which pairs marks into items as End
//! marks arrive, estimates per-function elapsed times incrementally and
//! keeps a running per-function baseline; the worker **retains raw samples
//! only for items that diverge**. Everything else is counted and discarded.
//!
//! # Overload robustness
//!
//! A production tracer must survive the very overload scenarios it is
//! deployed to diagnose, and — following the accounting discipline of
//! online-filtering instrumentation systems — whatever it sheds must be
//! *counted*, never silently lost:
//!
//! * [`OnlineTracer::submit`] blocks for back-pressure but never
//!   panics; a dead worker surfaces as a [`SubmitError`] carrying the
//!   batch back. [`OnlineTracer::try_submit`] is the lossy alternative
//!   for collection threads that must not stall: a full channel drops
//!   the batch and counts it in [`LossStats`].
//! * Both go through an [`Intake`], the stream front end every
//!   `fluctrace-serve` shard uses too: one definition of thinning,
//!   back-pressure or counted drop, and the producer-side
//!   [`ShedLedger`] folded into [`LossStats`].
//! * Per-core `pending` buffers are bounded by
//!   [`OnlineConfig::max_pending`]; overflow evicts the oldest samples
//!   and counts them (`samples_evicted`) instead of growing without
//!   bound when End marks are lost.
//! * Malformed mark streams (orphan or mismatched `End`, a `Start`
//!   while an item is open) discard only the affected item and are
//!   tallied in [`LossStats`] rather than vanishing.
//! * A worker panic is contained: [`OnlineTracer::finish`] returns
//!   [`OnlineError::WorkerPanicked`] and dropping the tracer never
//!   propagates the panic.
//!
//! # Adaptive reset value (graceful degradation)
//!
//! §IV.C.3's knob for data volume is the PEBS reset value *R*: a larger
//! *R* means fewer samples per second at coarser resolution (§V.C). When
//! the channel occupancy crosses [`AdaptiveConfig::high_water`], the
//! tracer doubles an *effective* reset multiplier by keeping only every
//! k-th sample of each submitted batch — exactly the degradation a
//! kernel driver would apply by reprogramming the PEBS reset value —
//! and halves it again once occupancy falls below
//! [`AdaptiveConfig::low_water`]. Episodes and the peak factor are
//! reported in [`DegradeStats`]; thinned samples are counted in
//! [`LossStats::samples_thinned`], so the volume accounting stays exact
//! while resolution, not correctness, degrades under pressure.

pub use crate::pairing::LossStats;
use crate::pairing::{Pairing, PairingConfig};
use crossbeam::channel::{bounded, Receiver, SendError, Sender, TrySendError};
use fluctrace_cpu::{FuncId, ItemId, PebsRecord, SymbolTable, TraceBundle, PEBS_RECORD_BYTES};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use fluctrace_store::{StoreError, TraceWriter, WriteStats};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of the adaptive effective-reset-value policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Master switch; disabled keeps every sample regardless of load.
    pub enabled: bool,
    /// Channel occupancy (fraction of capacity) at which the thinning
    /// factor doubles.
    pub high_water: f64,
    /// Occupancy at or below which the factor halves again.
    pub low_water: f64,
    /// Upper bound on the thinning factor (effective reset multiplier).
    pub max_factor: u32,
}

impl AdaptiveConfig {
    /// Degradation off: never thin, only block or (with `try_submit`)
    /// drop whole batches.
    pub fn disabled() -> Self {
        AdaptiveConfig {
            enabled: false,
            ..AdaptiveConfig::new()
        }
    }

    /// Degradation on with the default 75%/25% watermarks and a 64×
    /// factor cap.
    pub fn new() -> Self {
        AdaptiveConfig {
            enabled: true,
            high_water: 0.75,
            low_water: 0.25,
            max_factor: 64,
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::new()
    }
}

/// The adaptive effective-reset state machine (pure: occupancy in,
/// thinning factor out), exposed so experiments can drive it with a
/// scripted occupancy waveform and get deterministic episode traces.
///
/// The factor is tracked as a float: capping at a non-power-of-two
/// [`AdaptiveConfig::max_factor`] and then halving produces fractional
/// values (7 → 3.5 → 1.75), and those must survive into the stats and
/// the obs gauge — which is why both are in milli-units (1750 = 1.75x)
/// rather than a truncating `as u64` cast.
#[derive(Debug, Clone)]
pub struct AdaptiveR {
    config: AdaptiveConfig,
    factor: f64,
    episodes: u64,
    peak_factor: f64,
}

/// Render a factor in milli-units (1750 = 1.75x), the fixed-point form
/// used by [`DegradeStats`] and the `core.online.degrade_factor_peak_milli`
/// gauge.
fn factor_milli(factor: f64) -> u64 {
    (factor * 1000.0).round() as u64
}

impl AdaptiveR {
    /// Fresh policy at factor 1 (full sampling rate).
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptiveR {
            config,
            factor: 1.0,
            episodes: 0,
            peak_factor: 1.0,
        }
    }

    /// Feed one occupancy observation (fraction of channel capacity in
    /// `[0, 1]`) and return the thinning factor to apply: keep every
    /// `factor`-th sample (the fractional factor rounds to the nearest
    /// whole stride; milli-precision lives in [`AdaptiveR::stats`]).
    pub fn observe(&mut self, occupancy: f64) -> u32 {
        if !self.config.enabled {
            return 1;
        }
        let max = f64::from(self.config.max_factor.max(1));
        if occupancy >= self.config.high_water {
            if self.factor <= 1.0 && max > 1.0 {
                self.episodes += 1;
                obs::counter!("core.online.degrade_episodes").inc();
            }
            self.factor = (self.factor * 2.0).min(max);
        } else if occupancy <= self.config.low_water && self.factor > 1.0 {
            self.factor = (self.factor / 2.0).max(1.0);
        }
        if self.factor > self.peak_factor {
            self.peak_factor = self.factor;
        }
        let milli = factor_milli(self.factor);
        obs::gauge!("core.online.degrade_factor_peak_milli").record(milli);
        if self.factor > 1.0 {
            // Degraded-worker wait: while the factor is above 1x the
            // worker is effectively waiting on its own shed capacity.
            // The counted length is the excess milli-factor.
            fluctrace_rt::wait::count_offered(milli.saturating_sub(1000));
        }
        self.factor.round().max(1.0) as u32
    }

    /// Feed one occupancy observation and thin `batch` to every
    /// `factor`-th sample — what reprogramming the PEBS reset value to
    /// `factor × R` would have recorded. Returns the number of samples
    /// shed, for the caller's loss ledger.
    pub fn thin(&mut self, occupancy: f64, batch: &mut TraceBundle) -> u64 {
        let factor = self.observe(occupancy) as usize;
        let before = batch.samples.len();
        if factor > 1 {
            let mut i = 0usize;
            batch.samples.retain(|_| {
                let keep = i.is_multiple_of(factor);
                i += 1;
                keep
            });
        }
        (before - batch.samples.len()) as u64
    }

    /// Current thinning stride (1 = full rate), rounded from the
    /// fractional factor.
    pub fn factor(&self) -> u32 {
        self.factor.round().max(1.0) as u32
    }

    /// Current factor in milli-units (1750 = 1.75x).
    pub fn factor_milli(&self) -> u64 {
        factor_milli(self.factor)
    }

    /// Snapshot of the degradation counters.
    pub fn stats(&self) -> DegradeStats {
        DegradeStats {
            episodes: self.episodes,
            peak_factor_milli: factor_milli(self.peak_factor),
            final_factor_milli: factor_milli(self.factor),
        }
    }
}

/// Configuration of the online tracer.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// TSC frequency of the traced machine.
    pub freq: Freq,
    /// Flag an item when some function's elapsed time exceeds
    /// `divergence_factor ×` the running mean for that function.
    pub divergence_factor: f64,
    /// Observations of a function required before divergence checks
    /// start (baseline warm-up).
    pub warmup: u64,
    /// Channel capacity in batches (producer blocks when full, which is
    /// the natural back-pressure a collection thread needs).
    pub channel_capacity: usize,
    /// Per-core cap on samples awaiting their End mark. When a mark
    /// stream loses End marks, `pending` would otherwise grow without
    /// bound; beyond the cap the oldest samples are evicted and counted
    /// in [`LossStats::samples_evicted`].
    pub max_pending: usize,
    /// Graceful-degradation policy (see the module docs).
    pub adaptive: AdaptiveConfig,
}

impl OnlineConfig {
    /// 2× divergence, 16-observation warm-up, 64-batch channel, 64 Ki
    /// pending samples per core, adaptive degradation off.
    pub fn new(freq: Freq) -> Self {
        OnlineConfig {
            freq,
            divergence_factor: 2.0,
            warmup: 16,
            channel_capacity: 64,
            max_pending: 1 << 16,
            adaptive: AdaptiveConfig::disabled(),
        }
    }
}

/// One flagged (diverging) item.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineAnomaly {
    /// The diverging item.
    pub item: ItemId,
    /// Function whose time diverged.
    pub func: FuncId,
    /// Estimated elapsed time for this item.
    pub elapsed: SimDuration,
    /// Running mean it was compared against.
    pub baseline_mean: SimDuration,
    /// Raw samples of the item, retained for offline analysis.
    pub raw_samples: Vec<PebsRecord>,
}

/// Degradation episodes recorded by the adaptive effective-reset policy.
///
/// Factors are fixed-point milli-units (1750 = 1.75x): fractional
/// factors arise whenever a non-power-of-two cap is halved, and a
/// truncating integer field would collapse them to the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradeStats {
    /// Times the policy left factor 1 (a new overload episode).
    pub episodes: u64,
    /// Highest thinning factor reached, in milli-units.
    pub peak_factor_milli: u64,
    /// Factor at the end of the run in milli-units (1000 = fully
    /// recovered).
    pub final_factor_milli: u64,
}

impl Default for DegradeStats {
    /// No episodes and the factor at its floor of 1x (full sampling rate).
    fn default() -> Self {
        DegradeStats {
            episodes: 0,
            peak_factor_milli: 1000,
            final_factor_milli: 1000,
        }
    }
}

/// What the spill-on-flush store writer persisted (zero when the tracer
/// was spawned without a spill sink).
///
/// Spilling is best-effort by contract: an I/O error disables the sink
/// and is counted in `errors` — the worker keeps processing, because
/// the tracer must survive the overloads it diagnoses. A disabled sink
/// still says what it took: the row counts are the rows appended up to
/// the failing write and `bytes` what the sink accepted before it (the
/// segment has no footer, so those bytes need salvage to be read).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpillStats {
    /// Batches appended to the store.
    pub batches: u64,
    /// Logical sample rows spilled.
    pub samples: u64,
    /// Mark rows spilled.
    pub marks: u64,
    /// Sample rows the store's redundancy suppression elided (ledgered,
    /// replayable — see `fluctrace-store`).
    pub elided: u64,
    /// Store bytes written (magic/footer/tail included).
    pub bytes: u64,
    /// Spill I/O or finish errors; the first one disables the sink.
    pub errors: u64,
}

impl SpillStats {
    /// Take the row and byte totals from the store writer's.
    fn record(&mut self, stats: WriteStats) {
        self.samples = stats.samples;
        self.marks = stats.marks;
        self.elided = stats.elided;
        self.bytes = stats.bytes;
    }
}

/// Final report of an online-tracing session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Items whose End mark was seen and that were fully processed.
    pub items_processed: u64,
    /// Total samples received.
    pub samples_seen: u64,
    /// Samples attributed to a completed item (including its boundary
    /// samples). Together with the worker-side [`LossStats`] buckets this
    /// makes sample accounting exact — see [`OnlineReport::conserves_samples`].
    pub samples_attributed: u64,
    /// Bytes of PEBS data received.
    pub bytes_seen: u64,
    /// Bytes retained (anomalous items' raw samples only).
    pub bytes_dumped: u64,
    /// The flagged items.
    pub anomalies: Vec<OnlineAnomaly>,
    /// Exact loss accounting (overload, faults, boundary attribution).
    pub loss: LossStats,
    /// Adaptive-degradation episode counters.
    pub degrade: DegradeStats,
    /// Spill-on-flush store writer accounting.
    pub spill: SpillStats,
}

impl OnlineReport {
    /// Exact sample conservation ([`LossStats::conserves`]).
    pub fn conserves_samples(&self) -> bool {
        self.loss
            .conserves(self.samples_seen, self.samples_attributed)
    }

    /// Volume reduction factor achieved by online filtering.
    pub fn reduction_factor(&self) -> f64 {
        if self.bytes_dumped == 0 {
            f64::INFINITY
        } else {
            self.bytes_seen as f64 / self.bytes_dumped as f64
        }
    }
}

/// Live counters readable while the tracer runs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LiveStats {
    /// Items processed so far.
    pub items: u64,
    /// Anomalies flagged so far.
    pub anomalies: u64,
    /// Loss accounting so far (worker- and producer-side combined).
    pub loss: LossStats,
}

/// The online worker is gone; the undelivered batch is handed back so
/// the collection thread can spill it to storage or drop it knowingly.
#[derive(Debug)]
pub struct SubmitError {
    /// The batch that could not be delivered.
    pub batch: TraceBundle,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "online worker is gone; batch of {} samples returned",
            self.batch.samples.len()
        )
    }
}

impl std::error::Error for SubmitError {}

/// What [`OnlineTracer::try_submit`] did with the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Enqueued for the worker.
    Sent,
    /// Channel full: the batch was dropped and counted in [`LossStats`].
    Dropped,
}

/// Failure collecting the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// The worker thread panicked; the payload message is attached.
    WorkerPanicked(String),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::WorkerPanicked(msg) => {
                write!(f, "online worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Per-batch hook run inside the worker thread before integration — the
/// fault-injection seam the overload experiments use to stall or crash
/// the consumer on cue.
pub type BatchInspector = Box<dyn FnMut(&TraceBundle) + Send>;

/// Object-safe wrapper over a generic [`TraceWriter`] so the (non-
/// generic) worker can own any `Write` sink: spill-on-flush appends
/// each received batch, and stream end finishes the segment.
trait SpillSink: Send {
    fn append(&mut self, batch: &TraceBundle) -> Result<(), StoreError>;
    /// Running totals (zero once finished).
    fn stats(&self) -> WriteStats;
    fn finish(&mut self) -> Result<WriteStats, StoreError>;
}

/// [`TraceWriter::finish`] consumes the writer, so the boxed sink holds
/// it in an `Option` and takes it out on finish.
struct SpillWriter<W: std::io::Write + Send> {
    writer: Option<TraceWriter<W>>,
}

impl<W: std::io::Write + Send> SpillSink for SpillWriter<W> {
    fn append(&mut self, batch: &TraceBundle) -> Result<(), StoreError> {
        match self.writer.as_mut() {
            Some(w) => w.append(batch),
            None => Err(StoreError::Io("spill writer already finished".into())),
        }
    }

    fn stats(&self) -> WriteStats {
        self.writer
            .as_ref()
            .map(TraceWriter::stats)
            .unwrap_or_default()
    }

    fn finish(&mut self) -> Result<WriteStats, StoreError> {
        match self.writer.take() {
            Some(w) => w.finish().map(|(_, stats)| stats),
            None => Err(StoreError::Io("spill writer already finished".into())),
        }
    }
}

/// Producer-side shed ledger: what an [`Intake`] dropped or thinned
/// before its worker saw the batch. Shared (`Arc`) so a reader — a
/// serve shard's protocol handlers — can fold it while the producer
/// runs.
#[derive(Debug, Default)]
pub struct ShedLedger {
    batches_dropped: AtomicU64,
    samples_dropped: AtomicU64,
    samples_thinned: AtomicU64,
}

impl ShedLedger {
    /// `loss` (a worker-side ledger) with the producer-side shed added:
    /// the one place the two halves of the 11-counter ledger meet.
    pub fn fold(&self, mut loss: LossStats) -> LossStats {
        loss.batches_dropped += self.batches_dropped.load(Ordering::Acquire);
        loss.samples_dropped += self.samples_dropped.load(Ordering::Acquire);
        loss.samples_thinned += self.samples_thinned.load(Ordering::Acquire);
        loss
    }
}

/// What [`Intake::submit`] did with one batch, for the caller's own
/// metrics (the intake records none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Sent, or dropped on a full channel (non-blocking submission only).
    pub outcome: SubmitOutcome,
    /// Samples in the batch after thinning.
    pub samples: u64,
    /// Samples adaptive thinning shed from the batch.
    pub thinned: u64,
    /// Channel occupancy the policy saw, in milli-units of capacity.
    pub occupancy_milli: u64,
}

/// One stream front end: a bounded channel, the overload policy in front
/// of it and the named worker thread behind it. [`OnlineTracer`] and
/// every `fluctrace-serve` shard submit through one.
///
/// [`Intake::submit`] applies the policy in order: [`AdaptiveR::thin`]
/// by channel occupancy, then a blocking send (back-pressure) or a
/// non-blocking one whose full channel drops the batch. Whatever it
/// sheds is counted in its [`ShedLedger`].
pub struct Intake<R> {
    tx: Option<Sender<TraceBundle>>,
    worker: Option<JoinHandle<R>>,
    adaptive: Mutex<AdaptiveR>,
    shed: Arc<ShedLedger>,
}

impl<R: Send + 'static> Intake<R> {
    /// Open a channel of `capacity` batches and spawn thread `name`
    /// running `worker` over its receiving end; shed lands in `shed`.
    pub fn spawn(
        name: &str,
        capacity: usize,
        adaptive: AdaptiveConfig,
        shed: Arc<ShedLedger>,
        worker: impl FnOnce(Receiver<TraceBundle>) -> R + Send + 'static,
    ) -> Self {
        let (tx, rx) = bounded(capacity);
        let worker = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || worker(rx))
            // lint:allow(panic-safety): spawn fails only when the OS is out
            // of threads at startup, before any item is in flight.
            .expect("spawn stream worker");
        Intake {
            tx: Some(tx),
            worker: Some(worker),
            adaptive: Mutex::new(AdaptiveR::new(adaptive)),
            shed,
        }
    }
}

impl<R> Intake<R> {
    /// Thin `batch` by channel occupancy, then send it: blocking, or
    /// dropping (and counting) it on a full channel. Never panics: a
    /// dead worker hands the batch back in the [`SubmitError`].
    pub fn submit(&self, mut batch: TraceBundle, blocking: bool) -> Result<Submitted, SubmitError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError { batch });
        };
        let occupancy = tx.len() as f64 / tx.capacity().max(1) as f64;
        let thinned = self.adaptive.lock().thin(occupancy, &mut batch);
        self.shed
            .samples_thinned
            .fetch_add(thinned, Ordering::AcqRel);
        let mut submitted = Submitted {
            outcome: SubmitOutcome::Sent,
            samples: batch.samples.len() as u64,
            thinned,
            occupancy_milli: (occupancy * 1000.0) as u64,
        };
        if blocking {
            tx.send(batch)
                .map_err(|SendError(batch)| SubmitError { batch })?;
        } else {
            match tx.try_send(batch) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.shed.batches_dropped.fetch_add(1, Ordering::AcqRel);
                    self.shed
                        .samples_dropped
                        .fetch_add(submitted.samples, Ordering::AcqRel);
                    submitted.outcome = SubmitOutcome::Dropped;
                }
                Err(TrySendError::Disconnected(batch)) => return Err(SubmitError { batch }),
            }
        }
        Ok(submitted)
    }

    /// Batches currently queued for the worker.
    pub fn backlog(&self) -> usize {
        self.tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// The producer-side shed ledger.
    pub fn shed(&self) -> &Arc<ShedLedger> {
        &self.shed
    }

    /// The adaptive policy's degradation counters so far.
    pub fn degrade(&self) -> DegradeStats {
        self.adaptive.lock().stats()
    }

    /// Close the channel and join the worker, returning what it returned.
    ///
    /// A panic on the worker thread is contained here and surfaced as
    /// [`OnlineError::WorkerPanicked`] instead of propagating.
    pub fn finish(mut self) -> Result<R, OnlineError> {
        drop(self.tx.take());
        let Some(worker) = self.worker.take() else {
            // Unreachable: `finish` consumes self and is the only taker.
            return Err(OnlineError::WorkerPanicked("no worker handle".into()));
        };
        worker.join().map_err(|payload| {
            // Post-mortem: the flight recorder holds the spans and events
            // leading up to the crash — surface them before reporting the
            // contained panic.
            eprintln!("{}", obs::flight().dump_text());
            OnlineError::WorkerPanicked(panic_message(&*payload))
        })
    }
}

impl<R> Drop for Intake<R> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.worker.take() {
            // A worker panic must not propagate out of Drop.
            let _ = h.join();
        }
    }
}

/// Handle to the online tracing worker: an [`Intake`] whose worker
/// retains divergent items.
pub struct OnlineTracer {
    intake: Intake<OnlineReport>,
    live: Arc<Mutex<LiveStats>>,
}

struct Worker {
    /// The streaming pairing core: per-core state, ledger, baselines.
    pairing: Pairing,
    report: OnlineReport,
    live: Arc<Mutex<LiveStats>>,
    inspector: Option<BatchInspector>,
    /// Spill-on-flush store sink; `None` when not spilling (or after an
    /// I/O error disabled it).
    spill: Option<Box<dyn SpillSink>>,
}

impl Worker {
    fn run(mut self, rx: Receiver<TraceBundle>) -> OnlineReport {
        while let Ok(batch) = rx.recv() {
            if let Some(inspect) = self.inspector.as_mut() {
                inspect(&batch);
            }
            self.spill_append(&batch);
            self.process(batch);
        }
        self.finalize();
        self.report
    }

    /// Spill the batch as received (pre-sort: the store replays exactly
    /// what was submitted). An error counts, disables the sink, and
    /// never takes the worker down.
    fn spill_append(&mut self, batch: &TraceBundle) {
        if let Some(sink) = self.spill.as_mut() {
            match sink.append(batch) {
                Ok(()) => self.report.spill.batches += 1,
                Err(_) => {
                    self.report.spill.errors += 1;
                    self.report.spill.record(sink.stats());
                    self.spill = None;
                }
            }
        }
    }

    /// Close the spill segment (footer + tail) and fold its totals into
    /// the report. Called once from [`Worker::finalize`].
    fn spill_finish(&mut self) {
        if let Some(mut sink) = self.spill.take() {
            let running = sink.stats();
            match sink.finish() {
                Ok(stats) => self.report.spill.record(stats),
                Err(_) => {
                    self.report.spill.errors += 1;
                    self.report.spill.record(running);
                }
            }
        }
    }

    /// Pair one batch; of each completed item keep only what the report
    /// needs — the raw samples of a divergent item move into its
    /// anomaly, everything else is dropped on the spot. A kept buffer
    /// is shrunk to its length (a no-op unless the item outgrew the
    /// buffer it was handed), so it holds exactly the records
    /// `bytes_dumped` counts.
    fn process(&mut self, batch: TraceBundle) {
        obs::span!("online.batch", batch.samples.len());
        let report = &mut self.report;
        self.pairing.ingest(batch, |done| {
            if let Some((func, elapsed, baseline_mean)) = done.divergence {
                obs::event("online.anomaly", done.interval.item.0);
                report.bytes_dumped += done.samples.len() as u64 * PEBS_RECORD_BYTES;
                let mut raw_samples = done.samples;
                raw_samples.shrink_to_fit();
                report.anomalies.push(OnlineAnomaly {
                    item: done.interval.item,
                    func,
                    elapsed,
                    baseline_mean,
                    raw_samples,
                });
            }
        });
        self.publish_live();
    }

    fn publish_live(&self) {
        let counts = self.pairing.counts();
        let mut live = self.live.lock();
        live.items = counts.items_processed;
        live.anomalies = self.report.anomalies.len() as u64;
        live.loss = counts.loss;
    }

    /// Stream end: close the spill segment, let the pairing core account
    /// for everything still buffered, and take its totals into the
    /// report.
    fn finalize(&mut self) {
        obs::span!("online.flush", self.pairing.cores());
        self.spill_finish();
        self.pairing.finish_stream();
        let counts = *self.pairing.counts();
        self.report.items_processed = counts.items_processed;
        self.report.samples_seen = counts.samples_seen;
        self.report.samples_attributed = counts.samples_attributed;
        self.report.bytes_seen = counts.samples_seen * PEBS_RECORD_BYTES;
        self.report.loss = counts.loss;
        // The worker-side counts go to the registry in one bulk add here
        // rather than per event: the per-sample loop stays untouched and
        // the registry still ends up with the exact totals. (Producer-side
        // shed counters are recorded live on the submit path — they are
        // zero in this report and cannot double-count.)
        if obs::recording() {
            let r = &self.report;
            obs::counter!("core.online.flushes").inc();
            obs::counter!("core.online.items_processed").add(r.items_processed);
            obs::counter!("core.online.samples_seen").add(r.samples_seen);
            obs::counter!("core.online.samples_attributed").add(r.samples_attributed);
            obs::counter!("core.online.bytes_seen").add(r.bytes_seen);
            obs::counter!("core.online.bytes_dumped").add(r.bytes_dumped);
            obs::counter!("core.online.anomalies").add(r.anomalies.len() as u64);
            obs::counter!("core.online.samples_evicted").add(r.loss.samples_evicted);
            obs::counter!("core.online.samples_discarded").add(r.loss.samples_discarded);
            obs::counter!("core.online.samples_spin").add(r.loss.samples_spin);
            obs::counter!("core.online.boundary_samples").add(r.loss.boundary_samples);
            obs::counter!("core.online.marks_orphaned").add(r.loss.marks_orphaned);
            obs::counter!("core.online.marks_mismatched").add(r.loss.marks_mismatched);
            obs::counter!("core.online.starts_abandoned").add(r.loss.starts_abandoned);
            obs::counter!("core.online.starts_truncated").add(r.loss.starts_truncated);
            obs::gauge!("core.online.pending_peak").record(counts.pending_peak);
        }
        self.publish_live();
    }
}

impl OnlineTracer {
    /// Spawn the worker thread.
    pub fn spawn(symtab: Arc<SymbolTable>, config: OnlineConfig) -> Self {
        Self::spawn_inner(symtab, config, None, None)
    }

    /// Spawn with a per-batch [`BatchInspector`] run inside the worker —
    /// the fault-injection seam: tests and overload experiments use it
    /// to stall the consumer (blocking in the hook) or to crash it
    /// (panicking in the hook) at a chosen batch.
    pub fn spawn_with_inspector(
        symtab: Arc<SymbolTable>,
        config: OnlineConfig,
        inspector: impl FnMut(&TraceBundle) + Send + 'static,
    ) -> Self {
        Self::spawn_inner(symtab, config, Some(Box::new(inspector)), None)
    }

    /// Spawn with spill-on-flush: every submitted batch (post-shed,
    /// pre-sort) is appended to `writer` inside the worker, and the
    /// segment is finished when the stream closes. Write accounting —
    /// including suppression elisions and I/O errors — lands in
    /// [`OnlineReport::spill`]; spill failures degrade to not spilling,
    /// never to a dead worker.
    pub fn spawn_with_spill<W: std::io::Write + Send + 'static>(
        symtab: Arc<SymbolTable>,
        config: OnlineConfig,
        writer: TraceWriter<W>,
    ) -> Self {
        Self::spawn_inner(
            symtab,
            config,
            None,
            Some(Box::new(SpillWriter {
                writer: Some(writer),
            })),
        )
    }

    fn spawn_inner(
        symtab: Arc<SymbolTable>,
        config: OnlineConfig,
        inspector: Option<BatchInspector>,
        spill: Option<Box<dyn SpillSink>>,
    ) -> Self {
        let live = Arc::new(Mutex::new(LiveStats::default()));
        let worker = Worker {
            pairing: Pairing::new(
                symtab,
                PairingConfig {
                    freq: config.freq,
                    divergence_factor: config.divergence_factor,
                    warmup: config.warmup,
                    max_pending: config.max_pending,
                },
            ),
            report: OnlineReport::default(),
            live: Arc::clone(&live),
            inspector,
            spill,
        };
        OnlineTracer {
            intake: Intake::spawn(
                "fluctrace-online",
                config.channel_capacity,
                config.adaptive,
                Arc::default(),
                move |rx| worker.run(rx),
            ),
            live,
        }
    }

    /// The tracer's `core.online.*` series for one submission.
    fn record(submitted: Submitted) -> SubmitOutcome {
        if submitted.thinned > 0 {
            obs::counter!("core.online.samples_thinned").add(submitted.thinned);
        }
        match submitted.outcome {
            SubmitOutcome::Sent => {
                if obs::recording() {
                    obs::counter!("core.online.batches_submitted").inc();
                    obs::counter!("core.online.samples_submitted").add(submitted.samples);
                    obs::histogram!("core.online.batch_samples").record(submitted.samples);
                }
            }
            SubmitOutcome::Dropped => {
                obs::counter!("core.online.batches_dropped").inc();
                obs::counter!("core.online.samples_dropped").add(submitted.samples);
            }
        }
        submitted.outcome
    }

    /// Submit a batch, blocking when the channel is full (back-pressure).
    ///
    /// Never panics: if the worker is gone the undelivered batch comes
    /// back in the [`SubmitError`].
    pub fn submit(&self, batch: TraceBundle) -> Result<(), SubmitError> {
        self.intake.submit(batch, true).map(|s| {
            Self::record(s);
        })
    }

    /// Submit without blocking: a full channel **drops the batch** and
    /// counts it in [`LossStats`] — the mode for collection threads that
    /// must never stall the traced program.
    pub fn try_submit(&self, batch: TraceBundle) -> Result<SubmitOutcome, SubmitError> {
        self.intake.submit(batch, false).map(Self::record)
    }

    /// Batches currently queued for the worker.
    pub fn backlog(&self) -> usize {
        self.intake.backlog()
    }

    /// Snapshot of live counters (worker progress plus producer-side
    /// shed accounting).
    pub fn live(&self) -> LiveStats {
        let mut stats = *self.live.lock();
        stats.loss = self.intake.shed().fold(stats.loss);
        stats
    }

    /// Close the stream and collect the final report.
    ///
    /// A panic on the worker thread is contained here and surfaced as
    /// [`OnlineError::WorkerPanicked`] instead of propagating.
    pub fn finish(self) -> Result<OnlineReport, OnlineError> {
        let shed = Arc::clone(self.intake.shed());
        let degrade = self.intake.degrade();
        let mut report = self.intake.finish()?;
        report.loss = shed.fold(report.loss);
        report.degrade = degrade;
        Ok(report)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluctrace_cpu::{CoreId, HwEvent, MarkKind, MarkRecord, SymbolTableBuilder, NO_TAG};

    fn symtab() -> (Arc<SymbolTable>, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        (b.build().into_shared(), f)
    }

    /// Build a batch with one item whose f-span is `cycles` long.
    fn item_batch(
        symtab: &SymbolTable,
        f: FuncId,
        item: u64,
        base: u64,
        cycles: u64,
    ) -> TraceBundle {
        let mut bundle = TraceBundle::default();
        bundle.marks.push(MarkRecord {
            core: CoreId(0),
            tsc: base,
            item: ItemId(item),
            kind: MarkKind::Start,
        });
        for tsc in [base + 10, base + 10 + cycles] {
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc,
                ip: symtab.range(f).start,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
        }
        bundle.marks.push(MarkRecord {
            core: CoreId(0),
            tsc: base + cycles + 100,
            item: ItemId(item),
            kind: MarkKind::End,
        });
        bundle
    }

    fn sample(symtab: &SymbolTable, f: FuncId, tsc: u64) -> PebsRecord {
        PebsRecord {
            core: CoreId(0),
            tsc,
            ip: symtab.range(f).start,
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        }
    }

    fn mark(tsc: u64, item: u64, kind: MarkKind) -> MarkRecord {
        MarkRecord {
            core: CoreId(0),
            tsc,
            item: ItemId(item),
            kind,
        }
    }

    fn config() -> OnlineConfig {
        let mut c = OnlineConfig::new(Freq::ghz(3));
        c.warmup = 8;
        c
    }

    #[test]
    fn steady_stream_dumps_nothing() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        for i in 0..50u64 {
            tracer
                .submit(item_batch(&symtab, f, i, i * 100_000, 3_000))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 50);
        assert!(report.anomalies.is_empty());
        assert_eq!(report.bytes_dumped, 0);
        assert_eq!(report.reduction_factor(), f64::INFINITY);
        assert_eq!(report.samples_seen, 100);
        assert!(report.loss.is_clean());
        assert_eq!(report.degrade, DegradeStats::default());
    }

    #[test]
    fn diverging_item_is_flagged_with_raw_samples() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        for i in 0..30u64 {
            let cycles = if i == 20 { 30_000 } else { 3_000 };
            tracer
                .submit(item_batch(&symtab, f, i, i * 100_000, cycles))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.anomalies.len(), 1);
        let a = &report.anomalies[0];
        assert_eq!(a.item, ItemId(20));
        assert_eq!(a.func, f);
        assert_eq!(a.elapsed, SimDuration::from_us(10));
        assert_eq!(a.raw_samples.len(), 2);
        // Only the anomalous item's bytes were kept.
        assert_eq!(report.bytes_dumped, 2 * PEBS_RECORD_BYTES);
        assert!(report.reduction_factor() > 10.0);
    }

    #[test]
    fn warmup_suppresses_early_flags() {
        let (symtab, f) = symtab();
        let mut cfg = config();
        cfg.warmup = 10;
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), cfg);
        // The very first items are wildly different but within warm-up.
        for i in 0..5u64 {
            tracer
                .submit(item_batch(&symtab, f, i, i * 1_000_000, 3_000 * (i + 1)))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        assert!(report.anomalies.is_empty());
    }

    #[test]
    fn anomalies_do_not_poison_the_baseline() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        // Warm up with 3000-cycle items, then alternate normal/huge.
        let mut base = 0u64;
        for i in 0..40u64 {
            let cycles = if i >= 10 && i % 2 == 0 { 30_000 } else { 3_000 };
            tracer
                .submit(item_batch(&symtab, f, i, base, cycles))
                .unwrap();
            base += 1_000_000;
        }
        let report = tracer.finish().unwrap();
        // All 15 huge items after warm-up are flagged (the baseline does
        // not creep toward them).
        assert_eq!(report.anomalies.len(), 15, "{:?}", report.anomalies.len());
    }

    #[test]
    fn live_stats_progress() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        for i in 0..10u64 {
            tracer
                .submit(item_batch(&symtab, f, i, i * 100_000, 3_000))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 10);
    }

    #[test]
    fn filter_keeps_only_the_slow_items_of_a_long_stream() {
        // The online-filtering ablation: 2 000 items, every 100th one
        // 10× longer. Divergence-triggered dumping keeps exactly the slow
        // items past warm-up, a > 20× volume cut vs dump-everything.
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), OnlineConfig::new(Freq::ghz(3)));
        for i in 0..2_000u64 {
            let cycles = if i % 100 == 7 { 30_000 } else { 3_000 };
            tracer
                .submit(item_batch(&symtab, f, i, i * 1_000_000, cycles))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        let flagged: Vec<u64> = report.anomalies.iter().map(|a| a.item.0).collect();
        let slow: Vec<u64> = (1..20).map(|k| k * 100 + 7).collect();
        assert_eq!(flagged, slow);
        assert!(
            report.reduction_factor() > 20.0,
            "reduction only {}x",
            report.reduction_factor()
        );
    }

    #[test]
    fn split_batches_across_item_boundary() {
        // Marks and samples of one item arriving in separate batches.
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        let full = item_batch(&symtab, f, 0, 0, 3_000);
        let mut first = TraceBundle::default();
        first.marks.push(full.marks[0]);
        first.samples.push(full.samples[0]);
        let mut second = TraceBundle::default();
        second.samples.push(full.samples[1]);
        second.marks.push(full.marks[1]);
        tracer.submit(first).unwrap();
        tracer.submit(second).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 1);
        assert_eq!(report.samples_seen, 2);
    }

    #[test]
    fn boundary_samples_attribute_to_the_item() {
        // Regression: a sample at `tsc == end_tsc` (and one at
        // `tsc == start_tsc`) must be attributed to the item, matching
        // the inclusive bounds of the offline `ItemInterval::contains`.
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        let mut bundle = TraceBundle::default();
        bundle.marks.push(mark(1_000, 7, MarkKind::Start));
        bundle.samples.push(sample(&symtab, f, 1_000)); // at start_tsc
        bundle.samples.push(sample(&symtab, f, 4_000)); // at end_tsc
        bundle.marks.push(mark(4_000, 7, MarkKind::End));
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 1);
        assert_eq!(report.loss.boundary_samples, 2);
        assert!(report.loss.samples_lost() == 0);
        // Both boundary samples span the full item: a second identical
        // item would produce the same baseline, so feed enough to verify
        // the span was 3000 cycles (1 us at 3 GHz) via an anomaly probe.
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        for i in 0..20u64 {
            let base = 10_000 + i * 100_000;
            let mut b = TraceBundle::default();
            b.marks.push(mark(base, i, MarkKind::Start));
            b.samples.push(sample(&symtab, f, base));
            b.samples.push(sample(&symtab, f, base + 3_000));
            b.marks.push(mark(base + 3_000, i, MarkKind::End));
            tracer.submit(b).unwrap();
        }
        // Diverging item measured purely by boundary samples.
        let mut b = TraceBundle::default();
        b.marks.push(mark(10_000_000, 99, MarkKind::Start));
        b.samples.push(sample(&symtab, f, 10_000_000));
        b.samples.push(sample(&symtab, f, 10_030_000));
        b.marks.push(mark(10_030_000, 99, MarkKind::End));
        tracer.submit(b).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].item, ItemId(99));
        assert_eq!(report.anomalies[0].elapsed, SimDuration::from_us(10));
    }

    #[test]
    fn mismatched_end_is_counted_not_silent() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        let mut bundle = TraceBundle::default();
        bundle.marks.push(mark(100, 1, MarkKind::Start));
        bundle.samples.push(sample(&symtab, f, 200));
        bundle.samples.push(sample(&symtab, f, 300));
        bundle.marks.push(mark(400, 9, MarkKind::End)); // wrong item
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 0);
        assert_eq!(report.loss.marks_mismatched, 1);
        assert_eq!(report.loss.samples_discarded, 2);
        assert!(!report.loss.is_clean());
    }

    #[test]
    fn orphan_end_and_abandoned_start_are_counted() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        let mut bundle = TraceBundle::default();
        bundle.marks.push(mark(100, 1, MarkKind::End)); // orphan
        bundle.marks.push(mark(200, 2, MarkKind::Start));
        bundle.samples.push(sample(&symtab, f, 250));
        bundle.marks.push(mark(300, 3, MarkKind::Start)); // abandons 2
        bundle.samples.push(sample(&symtab, f, 350));
        bundle.marks.push(mark(400, 3, MarkKind::End));
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.loss.marks_orphaned, 1);
        assert_eq!(report.loss.starts_abandoned, 1);
        assert_eq!(report.loss.samples_discarded, 1);
        assert_eq!(report.items_processed, 1);
    }

    #[test]
    fn pending_is_bounded_with_eviction_accounting() {
        let (symtab, f) = symtab();
        let mut cfg = config();
        cfg.max_pending = 8;
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), cfg);
        // A Start whose End never arrives, followed by a long burst.
        let mut bundle = TraceBundle::default();
        bundle.marks.push(mark(100, 1, MarkKind::Start));
        for i in 0..100u64 {
            bundle.samples.push(sample(&symtab, f, 200 + i));
        }
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.loss.samples_evicted, 100 - 8);
        assert_eq!(report.samples_seen, 100);
        // Stream ended with the item still open: the 8 surviving pending
        // samples are discarded with the truncated Start, not lost
        // silently — conservation stays exact.
        assert_eq!(report.loss.starts_truncated, 1);
        assert_eq!(report.loss.samples_discarded, 8);
        assert!(report.conserves_samples());
        assert!(!report.loss.is_clean());
    }

    #[test]
    fn orphan_end_clears_pending_as_spin_not_eviction() {
        // Regression (conformance harness): with *consecutive* lost
        // Starts there is no next Start to clear `pending`, so orphan-End
        // samples used to linger until they crossed `max_pending` and
        // were misreported as `samples_evicted`. An orphan End must clear
        // its core's pending as spin.
        let (symtab, f) = symtab();
        let mut cfg = config();
        cfg.max_pending = 4;
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), cfg);
        let mut bundle = TraceBundle::default();
        // Ten items whose Start marks were all dropped: samples + End only.
        for i in 0..10u64 {
            let base = 1_000 + i * 10_000;
            bundle.samples.push(sample(&symtab, f, base));
            bundle.samples.push(sample(&symtab, f, base + 100));
            bundle.marks.push(mark(base + 200, i, MarkKind::End));
        }
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.loss.marks_orphaned, 10);
        assert_eq!(report.loss.samples_spin, 20);
        assert_eq!(report.loss.samples_evicted, 0, "no phantom evictions");
        assert_eq!(report.items_processed, 0);
        assert!(report.conserves_samples());
    }

    #[test]
    fn trailing_spin_samples_are_counted_at_stream_end() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        let mut bundle = item_batch(&symtab, f, 0, 0, 3_000);
        // Spin samples after the item's End, with no further Start.
        bundle.samples.push(sample(&symtab, f, 50_000));
        bundle.samples.push(sample(&symtab, f, 50_001));
        tracer.submit(bundle).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 1);
        assert_eq!(report.samples_attributed, 2);
        assert_eq!(report.loss.samples_spin, 2);
        assert_eq!(report.loss.starts_truncated, 0);
        assert!(report.conserves_samples());
        assert!(report.loss.is_clean(), "spin is accounting, not loss");
    }

    #[test]
    fn adaptive_watermark_transitions_across_episodes() {
        // Two full degradation episodes: the factor must double on every
        // high-water crossing, halve only at/below low water, and the
        // episode counter must tick exactly when factor 1 is left.
        let mut policy = AdaptiveR::new(AdaptiveConfig::new());
        // Episode 1: ramp 1→2→4→8, hold between watermarks, decay 8→1.
        assert_eq!(policy.observe(0.75), 2, "exact high water doubles");
        assert_eq!(policy.observe(0.76), 4);
        assert_eq!(policy.observe(1.0), 8);
        assert_eq!(policy.observe(0.26), 8, "just above low water: hold");
        assert_eq!(policy.observe(0.25), 4, "exact low water halves");
        assert_eq!(policy.observe(0.0), 2);
        assert_eq!(policy.observe(0.0), 1);
        assert_eq!(policy.stats().episodes, 1);
        // Episode 2: leaving factor 1 again is a new episode; a peak of 2
        // does not disturb the recorded peak of 8.
        assert_eq!(policy.observe(0.9), 2);
        assert_eq!(policy.observe(0.1), 1);
        let stats = policy.stats();
        assert_eq!(stats.episodes, 2);
        assert_eq!(stats.peak_factor_milli, 8000);
        assert_eq!(stats.final_factor_milli, 1000);
        // Re-crossing high water while already degraded is NOT a new
        // episode — only the 1→2 transition counts.
        assert_eq!(policy.observe(0.9), 2);
        assert_eq!(policy.observe(0.9), 4);
        assert_eq!(policy.stats().episodes, 3);
    }

    #[test]
    fn try_submit_drops_exactly_at_channel_capacity() {
        let (symtab, f) = symtab();
        let mut cfg = config();
        cfg.channel_capacity = 4;
        // Handshake gate: the worker signals once it has pulled the first
        // batch off the channel, then blocks until released — so exactly
        // `channel_capacity` further batches fit deterministically.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let tracer = OnlineTracer::spawn_with_inspector(Arc::clone(&symtab), cfg, move |_batch| {
            let _ = ready_tx.send(());
            let _ = gate_rx.recv();
        });
        tracer
            .try_submit(item_batch(&symtab, f, 0, 0, 3_000))
            .unwrap();
        ready_rx.recv().unwrap();
        // The worker holds batch 0; fill the channel to the brim.
        for i in 1..=4u64 {
            assert_eq!(
                tracer
                    .try_submit(item_batch(&symtab, f, i, i * 100_000, 3_000))
                    .unwrap(),
                SubmitOutcome::Sent
            );
        }
        // Capacity + in-flight batch exhausted: the next two drop, and
        // each drop counts the batch and its samples exactly once.
        for i in 5..=6u64 {
            assert_eq!(
                tracer
                    .try_submit(item_batch(&symtab, f, i, i * 100_000, 3_000))
                    .unwrap(),
                SubmitOutcome::Dropped
            );
        }
        let live = tracer.live();
        assert_eq!(live.loss.batches_dropped, 2);
        assert_eq!(live.loss.samples_dropped, 4, "2 samples per batch");
        for _ in 0..5 {
            gate_tx.send(()).unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 5);
        assert_eq!(report.loss.batches_dropped, 2);
        assert_eq!(report.loss.samples_dropped, 4);
        assert!(report.conserves_samples());
    }

    #[test]
    fn finish_after_worker_panic_reports_the_message() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn_with_inspector(Arc::clone(&symtab), config(), |_batch| {
            panic!("unit-injected fault");
        });
        let _ = tracer.submit(item_batch(&symtab, f, 0, 0, 3_000));
        // finish() immediately after the crash — without waiting for a
        // SubmitError first — must still join, contain the unwind, and
        // surface the payload.
        match tracer.finish() {
            Err(OnlineError::WorkerPanicked(msg)) => {
                assert!(msg.contains("unit-injected fault"), "{msg}")
            }
            Ok(_) => panic!("finish must report the worker panic"),
        }
    }

    #[test]
    fn anomaly_func_tie_breaks_deterministically() {
        // Two functions with identical diverging spans: the serialized
        // anomaly must always name the lowest FuncId.
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let g = b.add("g", 100);
        let symtab = b.build().into_shared();
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), config());
        for i in 0..20u64 {
            let base = i * 1_000_000;
            let cycles = if i == 15 { 30_000 } else { 3_000 };
            let mut bundle = TraceBundle::default();
            bundle.marks.push(mark(base, i, MarkKind::Start));
            for func in [f, g] {
                bundle.samples.push(sample(&symtab, func, base + 10));
                bundle
                    .samples
                    .push(sample(&symtab, func, base + 10 + cycles));
            }
            bundle
                .marks
                .push(mark(base + cycles + 100, i, MarkKind::End));
            tracer.submit(bundle).unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].func, f.min(g));
    }

    #[test]
    fn adaptive_policy_doubles_and_recovers() {
        let mut policy = AdaptiveR::new(AdaptiveConfig::new());
        assert_eq!(policy.observe(0.5), 1, "between watermarks: hold");
        assert_eq!(policy.observe(0.8), 2, "high water: double");
        assert_eq!(policy.observe(0.9), 4);
        assert_eq!(policy.observe(0.5), 4, "between watermarks: hold");
        assert_eq!(policy.observe(0.1), 2, "low water: halve");
        assert_eq!(policy.observe(0.0), 1);
        assert_eq!(policy.observe(0.0), 1, "floor at full rate");
        let stats = policy.stats();
        assert_eq!(stats.episodes, 1);
        assert_eq!(stats.peak_factor_milli, 4000);
        assert_eq!(stats.final_factor_milli, 1000);
        // Factor is capped.
        let mut policy = AdaptiveR::new(AdaptiveConfig {
            max_factor: 8,
            ..AdaptiveConfig::new()
        });
        for _ in 0..10 {
            policy.observe(1.0);
        }
        assert_eq!(policy.factor(), 8);
        // Disabled: always 1.
        let mut off = AdaptiveR::new(AdaptiveConfig::disabled());
        for _ in 0..10 {
            assert_eq!(off.observe(1.0), 1);
        }
        assert_eq!(off.stats().episodes, 0);
    }

    #[test]
    fn fractional_peak_factor_survives_stats() {
        // Regression: the old gauge recorded `factor as u64`, so a
        // fractional factor (cap at 7, then halve: 7 -> 3.5 -> 1.75)
        // truncated (1.75 -> 1). Milli-units must preserve it through
        // the stats.
        let mut policy = AdaptiveR::new(AdaptiveConfig {
            max_factor: 7,
            ..AdaptiveConfig::new()
        });
        policy.observe(1.0); // 2
        policy.observe(1.0); // 4
        policy.observe(1.0); // 7 (capped at a non-power-of-two)
        assert_eq!(policy.observe(0.0), 4, "3.5 rounds to stride 4");
        assert_eq!(policy.factor_milli(), 3500);
        assert_eq!(policy.observe(0.0), 2, "1.75 rounds to stride 2");
        let stats = policy.stats();
        assert_eq!(stats.peak_factor_milli, 7000);
        assert_eq!(
            stats.final_factor_milli, 1750,
            "fractional factor must not truncate"
        );
    }

    #[test]
    fn submit_after_worker_death_returns_the_batch() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn_with_inspector(Arc::clone(&symtab), config(), |_batch| {
            panic!("injected worker fault");
        });
        // The worker dies on the first batch; subsequent submits must
        // fail cleanly and hand the batch back.
        let _ = tracer.submit(item_batch(&symtab, f, 0, 0, 3_000));
        let mut returned = None;
        for i in 1..100u64 {
            let batch = item_batch(&symtab, f, i, i * 100_000, 3_000);
            match tracer.submit(batch) {
                Ok(()) => {}
                Err(SubmitError { batch }) => {
                    returned = Some(batch);
                    break;
                }
            }
        }
        let returned = returned.expect("worker death must surface");
        assert_eq!(returned.samples.len(), 2);
        match tracer.finish() {
            Err(OnlineError::WorkerPanicked(msg)) => {
                assert!(msg.contains("injected worker fault"), "{msg}");
            }
            Ok(_) => panic!("finish must report the worker panic"),
        }
    }

    #[test]
    fn drop_contains_worker_panic() {
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn_with_inspector(Arc::clone(&symtab), config(), |_batch| {
            panic!("injected worker fault");
        });
        let _ = tracer.submit(item_batch(&symtab, f, 0, 0, 3_000));
        // Dropping the tracer while the worker is panicking must not
        // propagate the panic into this thread.
        drop(tracer);
    }

    #[test]
    fn backlog_reports_channel_state() {
        let (symtab, f) = symtab();
        // Gate the worker so batches stay queued deterministically.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let tracer =
            OnlineTracer::spawn_with_inspector(Arc::clone(&symtab), config(), move |_batch| {
                let _ = gate_rx.recv();
            });
        assert_eq!(tracer.backlog(), 0);
        tracer.submit(item_batch(&symtab, f, 0, 0, 3_000)).unwrap();
        tracer
            .submit(item_batch(&symtab, f, 1, 100_000, 3_000))
            .unwrap();
        // At least one batch is still queued until the gate opens twice.
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 2);
    }

    /// Spill-on-flush: every submitted batch lands in the store, the
    /// read-back equals the concatenated batches bit-exactly, and the
    /// report's spill accounting matches.
    #[test]
    fn spill_on_flush_roundtrips_batches() {
        let (symtab, f) = symtab();
        let buf = fluctrace_store::SharedBuf::new();
        let writer = TraceWriter::new(
            buf.clone(),
            fluctrace_store::StoreConfig::suppressed(1 << 20),
        )
        .unwrap();
        let tracer = OnlineTracer::spawn_with_spill(Arc::clone(&symtab), config(), writer);
        let mut expect = TraceBundle::default();
        for i in 0..20u64 {
            let batch = item_batch(&symtab, f, i, i * 100_000, 3_000);
            let mut copy = TraceBundle::default();
            copy.merge(batch.clone());
            expect.merge(copy);
            tracer.submit(batch).unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.spill.batches, 20);
        assert_eq!(report.spill.errors, 0);
        assert_eq!(report.spill.samples, expect.samples.len() as u64);
        assert_eq!(report.spill.marks, expect.marks.len() as u64);
        assert!(report.spill.bytes > 0);
        let mut reader =
            fluctrace_store::TraceReader::open(std::io::Cursor::new(buf.contents())).unwrap();
        let got = reader.read_bundle().unwrap();
        assert_eq!(got.samples, expect.samples);
        assert_eq!(got.marks, expect.marks);
    }

    /// A failing spill sink degrades to not spilling: the error is
    /// counted once, the worker survives, and the report says exactly
    /// what the sink took before it failed.
    #[test]
    fn spill_io_error_degrades_not_dies() {
        struct FailingSink;
        impl std::io::Write for FailingSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // TraceWriter::new writes the magic eagerly, so construction
        // itself fails on a sink that never works.
        assert!(TraceWriter::new(FailingSink, fluctrace_store::StoreConfig::default()).is_err());

        /// Takes `left` writes whole, then fails every later one.
        struct FillsUp {
            left: usize,
            accepted: Arc<AtomicU64>,
        }
        impl std::io::Write for FillsUp {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.left == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.left -= 1;
                self.accepted.fetch_add(buf.len() as u64, Ordering::Relaxed);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Room for the magic and two chunks. With 3-row chunks and 2
        // samples + 2 marks a batch, batch 1 completes the first sample
        // chunk and the first mark chunk; the third chunk write — batch
        // 2's samples filling the second sample chunk — fails.
        let accepted = Arc::new(AtomicU64::new(0));
        let writer = TraceWriter::new(
            FillsUp {
                left: 3,
                accepted: Arc::clone(&accepted),
            },
            fluctrace_store::StoreConfig {
                chunk_rows: 3,
                ..fluctrace_store::StoreConfig::default()
            },
        )
        .unwrap();
        let (symtab, f) = symtab();
        let tracer = OnlineTracer::spawn_with_spill(Arc::clone(&symtab), config(), writer);
        for i in 0..10u64 {
            tracer
                .submit(item_batch(&symtab, f, i, i * 100_000, 3_000))
                .unwrap();
        }
        let report = tracer.finish().unwrap();
        assert_eq!(report.items_processed, 10, "worker must keep processing");
        assert_eq!(report.spill.errors, 1, "the first error disables the sink");
        assert_eq!(report.spill.batches, 2, "batches wholly appended");
        assert_eq!(
            report.spill.samples, 6,
            "rows appended before the failing write"
        );
        assert_eq!(report.spill.marks, 4);
        assert_eq!(report.spill.elided, 0);
        let on_sink = accepted.load(Ordering::Relaxed);
        assert!(on_sink > 8, "two chunks reached the sink");
        assert_eq!(report.spill.bytes, on_sink);
    }
}
