//! One shard: a seeded generator thread submitting into an
//! [`Intake`] — the online tracer's stream front end — whose worker
//! runs the windowed integrator.
//!
//! The intake applies the online tracer's two overload policies:
//!
//! * **Back-pressure** — `blocking: true` blocks the generator on a
//!   full channel (lossless); `false` drops whole batches and counts
//!   them (`batches_dropped` / `samples_dropped`), exactly like
//!   `OnlineTracer::try_submit`.
//! * **Adaptive effective-reset** — every submission feeds channel
//!   occupancy to the intake's [`AdaptiveR`](fluctrace_core::AdaptiveR);
//!   a factor above 1× thins the batch to every factor-th sample,
//!   counted in `samples_thinned`.
//!
//! Both land in the intake's [`ShedLedger`], which the shard's counters
//! share. The worker folds `ring_empty` idle time into the shard's
//! [`WaitLog`] — one [`WaitCause::RingEmpty`] edge per empty-poll,
//! measured in obs clock ticks — and the idle/busy tick split becomes
//! the `serve.worker.utilization_milli` gauge surfaced in snapshots
//! and `/metrics`.

use crate::daemon::ShardView;
use crate::{ServeConfig, TrafficGen};
use crossbeam::channel::Receiver;
use fluctrace_core::online::{Intake, ShedLedger};
use fluctrace_core::{WindowReport, WindowedIntegrator};
use fluctrace_cpu::{SymbolTable, TraceBundle};
use fluctrace_obs as obs;
use fluctrace_rt::{WaitCause, WaitEdge, WaitLog};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Counters of one shard that the integrator does not keep, written by
/// its two threads and read by the protocol handlers without locking
/// the integrator. The integrator's own counts (items, samples,
/// windows, episodes) are read from its `report()`.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Batches the generator produced (including dropped ones).
    pub batches_produced: AtomicU64,
    /// Batches the worker ingested.
    pub batches_ingested: AtomicU64,
    /// Producer-side shed (dropped batches and samples, thinned
    /// samples): the shard intake's own ledger.
    pub shed: Arc<ShedLedger>,
    /// Worker ticks spent inside `ingest` (obs clock).
    pub busy_ticks: AtomicU64,
    /// Worker ticks spent blocked on an empty ring (obs clock). Each
    /// such wait is also offered to the shard's [`WaitLog`] as a
    /// `ring_empty` edge, so this equals the sum of the log's
    /// `ring_empty` cycles while the log has dropped no edge; once a
    /// full log drops edges, their ticks are counted here only, and
    /// this exceeds that sum.
    pub idle_ticks: AtomicU64,
    /// Channel occupancy at the last submission, in milli-units.
    pub occupancy_milli: AtomicU64,
    /// Set once the worker has finished the stream (channel closed and
    /// final window flushed).
    pub drained: AtomicBool,
}

impl ShardCounters {
    /// Worker utilization in milli-units: `busy / (busy + idle)`.
    /// 1000 = never waited; 0 before the worker has done anything.
    pub fn utilization_milli(&self) -> u64 {
        let busy = self.busy_ticks.load(Ordering::Acquire);
        let idle = self.idle_ticks.load(Ordering::Acquire);
        let total = busy.saturating_add(idle);
        busy.saturating_mul(1000).checked_div(total).unwrap_or(0)
    }
}

/// One running shard: the generator thread (which owns the intake and
/// with it the worker) plus the shared state the protocol layer reads.
pub struct ShardHandle {
    /// What the protocol layer reads.
    pub view: ShardView,
    producer: Option<JoinHandle<()>>,
}

impl ShardHandle {
    /// Join the generator, which finishes the intake and so joins the
    /// worker (the generator must already be finite or stopped via the
    /// daemon's stop flag, or this blocks forever).
    pub fn join(&mut self) {
        if let Some(h) = self.producer.take() {
            let _ = h.join();
        }
    }
}

/// Add the integrator's progress since `last` to the global `serve.*`
/// obs metrics and record the worker's utilization.
fn publish(counters: &ShardCounters, report: &WindowReport, last: &WindowReport) {
    if obs::recording() {
        obs::counter!("serve.traffic.items")
            .add(report.items_processed.saturating_sub(last.items_processed));
        obs::counter!("serve.windows.closed")
            .add(report.windows_closed.saturating_sub(last.windows_closed));
        obs::counter!("serve.windows.evicted")
            .add(report.windows_evicted.saturating_sub(last.windows_evicted));
        obs::counter!("serve.windows.evicted_bytes")
            .add(report.evicted_bytes.saturating_sub(last.evicted_bytes));
        obs::counter!("serve.anomaly.episodes").add(report.episodes.saturating_sub(last.episodes));
        obs::gauge!("serve.worker.utilization_milli").record(counters.utilization_milli());
    }
}

/// The generator loop: every batch goes through the intake, which
/// thins, sends or drops it; the shard stores what the intake saw.
fn run_producer(
    config: ServeConfig,
    id: u32,
    symtab: Arc<SymbolTable>,
    intake: Intake<()>,
    counters: Arc<ShardCounters>,
    stop: Arc<AtomicBool>,
) {
    let mut traffic = TrafficGen::new(&config, id, symtab);
    let mut produced = 0u64;
    while !stop.load(Ordering::Acquire) && config.max_batches.is_none_or(|max| produced < max) {
        let batch = traffic.next_batch();
        produced += 1;
        counters.batches_produced.store(produced, Ordering::Release);
        let Ok(submitted) = intake.submit(batch, config.blocking) else {
            break;
        };
        counters
            .occupancy_milli
            .store(submitted.occupancy_milli, Ordering::Release);
        if obs::recording() {
            obs::gauge!("serve.queue.occupancy_milli").record(submitted.occupancy_milli);
            obs::counter!("serve.traffic.batches").inc();
        }
    }
    // Closing the channel lets the worker drain what is queued, finish
    // the stream and raise `drained`; a worker panic is contained here.
    let _ = intake.finish();
}

/// The window loop: ingest each batch under the integrator lock and
/// publish, recording every wait on an empty ring as a `ring_empty`
/// edge.
fn run_window_loop(
    id: u32,
    rx: Receiver<TraceBundle>,
    integrator: &Mutex<WindowedIntegrator>,
    wait: &Mutex<WaitLog>,
    counters: &ShardCounters,
) {
    let mut last = WindowReport::default();
    let mut ingested = 0u64;
    loop {
        // Idle accounting: an empty poll means the worker is about to
        // block on its ring — the `ring_empty` wait of the staged
        // pipelines, measured here in obs clock ticks.
        let waited = rx.is_empty().then(obs::now_ticks);
        let received = rx.recv();
        if let Some(t0) = waited {
            let cycles = obs::now_ticks().wrapping_sub(t0);
            counters.idle_ticks.fetch_add(cycles, Ordering::AcqRel);
            wait.lock().record(WaitEdge {
                core: id,
                tsc: t0,
                cycles,
                cause: WaitCause::RingEmpty,
                peer: id,
            });
        }
        let Ok(batch) = received else {
            break;
        };
        let t0 = obs::now_ticks();
        let report = {
            let mut wi = integrator.lock();
            wi.ingest(batch);
            wi.report()
        };
        counters
            .busy_ticks
            .fetch_add(obs::now_ticks().wrapping_sub(t0), Ordering::AcqRel);
        ingested += 1;
        counters.batches_ingested.store(ingested, Ordering::Release);
        publish(counters, &report, &last);
        last = report;
    }
    // Channel closed: account for truncated items and flush the final
    // partial window, then publish the frozen totals.
    let report = {
        let mut wi = integrator.lock();
        wi.finish_stream();
        wi.report()
    };
    publish(counters, &report, &last);
    counters.drained.store(true, Ordering::Release);
}

/// Spawn one shard: the intake with its window-loop worker, and the
/// generator thread that owns the intake.
pub fn spawn_shard(
    config: &ServeConfig,
    id: u32,
    symtab: Arc<SymbolTable>,
    stop: Arc<AtomicBool>,
) -> ShardHandle {
    let integrator = Arc::new(Mutex::new(WindowedIntegrator::new(
        Arc::clone(&symtab),
        config.window,
    )));
    let wait = Arc::new(Mutex::new(WaitLog::new(config.wait_capacity)));
    let counters = Arc::new(ShardCounters::default());
    let intake = {
        let integrator = Arc::clone(&integrator);
        let wait = Arc::clone(&wait);
        let counters = Arc::clone(&counters);
        Intake::spawn(
            &format!("fluctrace-shard-{id}"),
            config.channel_capacity.max(1),
            config.adaptive,
            Arc::clone(&counters.shed),
            move |rx| run_window_loop(id, rx, &integrator, &wait, &counters),
        )
    };
    let producer = {
        let config = *config;
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || run_producer(config, id, symtab, intake, counters, stop))
    };

    ShardHandle {
        view: ShardView {
            id,
            integrator,
            wait,
            counters,
        },
        producer: Some(producer),
    }
}
