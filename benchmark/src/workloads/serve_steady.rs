//! `serve_steady`: a real `Daemon` (1 shard, 4 simulated cores,
//! 1024-item windows, ring of 8, folded cumulative state, lossless
//! blocking channel) run to drain, three lifetimes, while a 4 Hz poller
//! keeps the read path live; after drain, 3000 closed-loop queries
//! rotate over `snapshot`, `windows 4`, `episodes`, `loss` and
//! `GET /metrics`. `core::window` dominates ingest; the channel, the
//! protocol rendering and the socket path are the rest. Query latency
//! is taken on the drained daemon so it measures rendering and the
//! accept path, not the scheduler of a small machine.

use super::{Ctx, Finish, Metrics, Workload};
use crate::harness::{median, percentile, timed, Digest, Ops};
use crate::inputs::{
    digest_bundle, digest_serve_config, serve_config, STREAM_ITEMS_PER_BATCH,
    STREAM_SAMPLES_PER_ITEM,
};
use crate::trace::Tracer;
use fluctrace_core::{
    integrate, CumulativeMode, EstimateTable, FoldedTotals, MappingMode, WindowReport,
    WindowedIntegrator,
};
use fluctrace_cpu::TraceBundle;
use fluctrace_rt::WaitLog;
use fluctrace_serve::daemon::ShardView;
use fluctrace_serve::{build_symtab, proto, query, Daemon, ServeConfig, ShardCounters, TrafficGen};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The requests the drained-daemon queries rotate over.
pub const VERBS: [&str; 5] = ["snapshot", "windows 4", "episodes", "loss", "GET /metrics"];
/// Closed-loop queries against the drained daemon that are timed.
pub const QUERIES: usize = 3_000;
/// Untimed queries before them: after a quiet spell the first few
/// hundred wake-ups of the accept thread cost twice the steady ones.
const WARM_UP_QUERIES: usize = 500;
/// Period of the poller that keeps the read path live during ingest.
const POLL: Duration = Duration::from_millis(250);

/// A reply is well-formed when a protocol verb answers one JSON
/// document that is not the error document, and `/metrics` answers a
/// complete HTTP 200 whose body is as long as it declares.
pub fn check_reply(verb: &str, reply: &str) -> Result<(), String> {
    if verb.starts_with("GET ") {
        let (head, body) = reply
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{verb}: no header/body separator"))?;
        if !head.starts_with("HTTP/1.1 200 OK") {
            return Err(format!("{verb}: not a 200 reply"));
        }
        let declared = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| format!("{verb}: no Content-Length"))?;
        if declared != body.len() || body.is_empty() {
            return Err(format!(
                "{verb}: body is {} bytes, header declares {declared}",
                body.len()
            ));
        }
        return Ok(());
    }
    let doc: serde_json::Value =
        serde_json::from_str(reply.trim_end()).map_err(|e| format!("{verb}: not JSON: {e}"))?;
    if !reply.ends_with('\n') {
        return Err(format!("{verb}: reply not newline-terminated"));
    }
    match doc.get("error") {
        Some(e) => Err(format!("{verb}: error document {e:?}")),
        None => Ok(()),
    }
}

/// Samples `batches` traffic batches of `cfg` carry: every item has
/// `samples_per_item` samples and every 16th item per core one stray.
pub fn stream_samples(cfg: &ServeConfig, batches: u64) -> u64 {
    let per_core = cfg.items_per_batch * cfg.samples_per_item + cfg.items_per_batch / 16;
    batches * u64::from(cfg.cores) * per_core
}

/// What a drained shard holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Drained {
    /// The integrator's counters.
    pub report: WindowReport,
    /// The per-function cumulative totals.
    pub folded: FoldedTotals,
    /// The `loss` document.
    pub loss_doc: String,
}

/// One daemon lifetime, start to drain.
pub struct Lifetime {
    /// The drained daemon, still answering queries.
    pub daemon: Daemon,
    /// `Daemon::start`, ns.
    pub start_ns: u64,
    /// What the poller saw until the shard drained.
    pub run: DrainedRun,
}

/// What the poller saw of one lifetime.
pub struct DrainedRun {
    /// Start to the shard raising `drained`, ns.
    pub wall_ns: u64,
    /// Latency of the poller's live `snapshot` queries, ns.
    pub live_query_ns: Vec<u64>,
    /// Channel occupancy the poller saw, milli-units.
    pub occupancy_milli: Vec<f64>,
    /// Worker utilization at drain, milli-units.
    pub utilization_milli: u64,
    /// State of the drained shard.
    pub drained: Drained,
    /// Two reads of the drained `snapshot` were byte-equal.
    pub snapshot_stable: bool,
}

/// Start a daemon on `cfg`, poll it to drain and read its drained state.
pub fn run_lifetime(cfg: ServeConfig) -> Result<Lifetime, String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(cfg, "127.0.0.1:0")?;
    let start_ns = t0.elapsed().as_nanos() as u64;
    match poll_to_drain(&daemon, t0) {
        Ok(run) => Ok(Lifetime {
            daemon,
            start_ns,
            run,
        }),
        Err(e) => {
            // Leave no thread behind: stop the generator and the listener.
            daemon.quiesce();
            daemon.join();
            Err(e)
        }
    }
}

fn poll_to_drain(daemon: &Daemon, t0: Instant) -> Result<DrainedRun, String> {
    let addr = daemon.addr().to_string();
    let view = daemon.shards().first().ok_or("daemon has no shard")?;
    let mut live_query_ns = Vec::new();
    let mut occupancy_milli = Vec::new();
    let mut next_poll = POLL;
    // Sleep-poll the drained flag: `wait_drained` spins, which would
    // take a core from the two threads being measured.
    while !view.counters.drained.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
        if t0.elapsed() >= next_poll {
            next_poll += POLL;
            let (reply, ns) = timed(|| query(&addr, "snapshot"));
            check_reply("snapshot", &reply?)?;
            live_query_ns.push(ns);
            occupancy_milli.push(view.counters.occupancy_milli.load(Ordering::Acquire) as f64);
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let drained = drained_state(view);
    let snapshot_stable = query(&addr, "snapshot")? == query(&addr, "snapshot")?;
    Ok(DrainedRun {
        wall_ns,
        live_query_ns,
        occupancy_milli,
        utilization_milli: view.counters.utilization_milli(),
        drained,
        snapshot_stable,
    })
}

fn drained_state(view: &ShardView) -> Drained {
    let (report, folded) = {
        let wi = view.integrator.lock();
        (wi.report(), wi.folded_totals())
    };
    Drained {
        report,
        folded,
        loss_doc: proto::loss_doc(std::slice::from_ref(view)),
    }
}

/// `n` timed closed-loop queries against a drained daemon, rotating
/// over [`VERBS`], after [`WARM_UP_QUERIES`] untimed ones; returns
/// `(verb index, latency in ns, reply bytes)` of each well-formed reply.
pub fn drained_queries(daemon: &Daemon, n: usize, ops: &mut Ops) -> Vec<(u32, u64, u64)> {
    let addr = daemon.addr().to_string();
    let mut out = Vec::with_capacity(n);
    for q in 0..WARM_UP_QUERIES + n {
        let kind = q % VERBS.len();
        let verb = VERBS[kind];
        let (reply, ns) = timed(|| query(&addr, verb));
        if q < WARM_UP_QUERIES {
            continue;
        }
        let reply = reply.and_then(|r| check_reply(verb, &r).map(|()| r));
        if let Some(reply) = ops.check_ok("serve_steady: drained query", reply) {
            out.push((kind as u32, ns, reply.len() as u64));
        }
    }
    out
}

/// Quiesce a drained daemon and join its threads; returns the ns it took.
pub fn shut_down(daemon: Daemon) -> u64 {
    let t0 = Instant::now();
    daemon.wait_drained();
    daemon.quiesce();
    daemon.join();
    t0.elapsed().as_nanos() as u64
}

/// Single-threaded offline replay of the daemon's traffic through a
/// `WindowedIntegrator`, timing every `ingest`.
pub struct Replay {
    /// What the replayed integrator holds, rendered like a shard.
    pub drained: Drained,
    /// Total time inside `ingest`, ns.
    pub ingest_ns: u64,
    /// Duration of the ingest calls during which a window closed, ns.
    pub close_ns: Vec<f64>,
    /// `finish_stream`, ns.
    pub finish_ns: u64,
}

/// Replay `batches` batches of shard 0 of `cfg` offline.
pub fn replay(cfg: &ServeConfig, batches: u64) -> Replay {
    let symtab = build_symtab(cfg.funcs);
    let mut traffic = TrafficGen::new(cfg, 0, Arc::clone(&symtab));
    let mut wi = WindowedIntegrator::new(symtab, cfg.window);
    let mut ingest_ns = 0u64;
    let mut close_ns = Vec::new();
    for _ in 0..batches {
        let batch = traffic.next_batch();
        let closed = wi.windows_closed();
        let (_, ns) = timed(|| wi.ingest(batch));
        ingest_ns += ns;
        if wi.windows_closed() > closed {
            close_ns.push(ns as f64);
        }
    }
    let (_, finish_ns) = timed(|| wi.finish_stream());
    let view = ShardView {
        id: 0,
        integrator: Arc::new(Mutex::new(wi)),
        wait: Arc::new(Mutex::new(WaitLog::new(1))),
        counters: Arc::new(ShardCounters::default()),
    };
    Replay {
        drained: drained_state(&view),
        ingest_ns,
        close_ns,
        finish_ns,
    }
}

/// A lossless lifetime: samples conserved, nothing shed on either side
/// of the channel, every item completed, drained snapshot byte-stable.
pub fn check_lifetime(
    drained: &Drained,
    snapshot_stable: bool,
    items: u64,
    samples: u64,
    ops: &mut Ops,
) {
    let r = &drained.report;
    ops.check(
        "serve_steady: samples conserved",
        r.conserves_samples() && r.samples_seen == samples,
    );
    ops.check(
        "serve_steady: zero loss in lossless mode",
        r.loss.is_clean() && drained.loss_doc.contains("\"conserves_samples\":true"),
    );
    ops.check(
        "serve_steady: every item completed",
        r.items_processed == items,
    );
    ops.check(
        "serve_steady: drained snapshot byte-stable across two reads",
        snapshot_stable,
    );
}

/// The drained shard must equal the single-threaded offline replay.
pub fn verify_drained(got: &Drained, replayed: &Drained, ops: &mut Ops) {
    ops.check(
        "serve_steady: drained loss document equals the offline replay",
        got.loss_doc == replayed.loss_doc,
    );
    ops.check(
        "serve_steady: drained folded totals equal the offline replay",
        got.folded == replayed.folded,
    );
    ops.check(
        "serve_steady: drained counters equal the offline replay",
        got.report == replayed.report,
    );
}

/// The set-up daemon: a short `CumulativeMode::Exact` lifetime whose
/// `table` reply must contain the batch pipeline's table over the same
/// traffic (the drain == batch invariant).
struct ExactProbe {
    matches_batch: bool,
    table_ns_per_row: f64,
}

fn exact_probe(cfg: &ServeConfig, batches: u64) -> Result<ExactProbe, String> {
    let mut exact = *cfg;
    exact.window.cumulative = CumulativeMode::Exact;
    exact.max_batches = Some(batches);
    let life = run_lifetime(exact)?;
    let addr = life.daemon.addr().to_string();
    let reply = query(&addr, "table")?;
    let (doc, render_ns) = timed(|| proto::tables_doc(life.daemon.shards()));
    shut_down(life.daemon);

    let symtab = build_symtab(exact.funcs);
    let mut traffic = TrafficGen::new(&exact, 0, Arc::clone(&symtab));
    let mut all = TraceBundle::default();
    for _ in 0..batches {
        all.merge(traffic.next_batch());
    }
    all.sort();
    let it = integrate(&all, &symtab, exact.window.freq, MappingMode::Intervals);
    let table = EstimateTable::from_integrated(&it);
    let rows: usize = table.items().map(|ie| ie.funcs.len()).sum();
    let json = serde_json::to_string(&table).map_err(|e| e.to_string())?;
    Ok(ExactProbe {
        matches_batch: reply.contains(&json) && doc.contains(&json),
        table_ns_per_row: render_ns as f64 / rows.max(1) as f64,
    })
}

/// The workload.
pub struct ServeSteady {
    config: ServeConfig,
    batches: u64,
    digest: u64,
    probe: ExactProbe,
    /// The drained daemon of the last lifetime, kept for the queries.
    live: Option<Daemon>,
    lifetimes: Vec<Drained>,
    last_stable: bool,
    /// Poller readings over all lifetimes.
    live_query_ns: Vec<u64>,
    start_ns: Vec<f64>,
    shutdown_ns: Vec<f64>,
}

impl ServeSteady {
    /// Configure the daemon from the seed and run the set-up daemon.
    pub fn setup(ctx: &Ctx) -> Result<Self, String> {
        let batches = ctx.scale.serve_batches();
        let config = serve_config(ctx.seed, batches);
        let probe = exact_probe(&config, if ctx.scale.quick { 4 } else { 24 })?;
        // The daemon makes its own traffic from the configuration, so
        // the configuration is the input; the first batch pins the
        // generator as well.
        let mut d = Digest::default();
        digest_serve_config(&mut d, &config);
        let symtab = build_symtab(config.funcs);
        digest_bundle(&mut d, &TrafficGen::new(&config, 0, symtab).next_batch());
        Ok(ServeSteady {
            config,
            batches,
            digest: d.value(),
            probe,
            live: None,
            lifetimes: Vec::new(),
            last_stable: false,
            live_query_ns: Vec::new(),
            start_ns: Vec::new(),
            shutdown_ns: Vec::new(),
        })
    }

    fn items(&self) -> u64 {
        self.batches * u64::from(self.config.cores) * STREAM_ITEMS_PER_BATCH
    }

    fn retire_live(&mut self) {
        if let Some(daemon) = self.live.take() {
            self.shutdown_ns.push(shut_down(daemon) as f64);
        }
    }

    /// The daemon configuration (for the verifier tests).
    pub fn config(&self) -> (&ServeConfig, u64) {
        (&self.config, self.batches)
    }
}

impl Drop for ServeSteady {
    fn drop(&mut self) {
        self.retire_live();
    }
}

impl Workload for ServeSteady {
    fn name(&self) -> &'static str {
        "serve_steady"
    }

    fn min_reps(&self) -> usize {
        3
    }

    fn samples_per_rep(&self) -> u64 {
        debug_assert_eq!(self.config.samples_per_item, STREAM_SAMPLES_PER_ITEM);
        stream_samples(&self.config, self.batches)
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn rep(&mut self, _tracer: &mut Tracer) -> Result<u64, String> {
        self.retire_live();
        let life = run_lifetime(self.config)?;
        self.live = Some(life.daemon);
        self.lifetimes.push(life.run.drained);
        self.last_stable = life.run.snapshot_stable;
        self.live_query_ns.extend(life.run.live_query_ns);
        self.start_ns.push(life.start_ns as f64);
        Ok(life.run.wall_ns)
    }

    fn check_rep(&mut self, ops: &mut Ops) {
        match self.lifetimes.last() {
            Some(drained) => check_lifetime(
                drained,
                self.last_stable,
                self.items(),
                self.samples_per_rep(),
                ops,
            ),
            None => ops.check("serve_steady: lifetime left a drained shard", false),
        }
    }

    fn finish(&mut self, ops: &mut Ops) -> Finish {
        let mut out = Finish::default();
        if let Some(daemon) = &self.live {
            for (kind, ns, bytes) in drained_queries(daemon, QUERIES, ops) {
                out.queries.push((kind, ns));
                out.output_bytes += bytes;
            }
        }
        out
    }

    fn verify(&mut self, ops: &mut Ops) {
        ops.check(
            "serve_steady: exact-mode set-up daemon's table equals the batch table",
            self.probe.matches_batch,
        );
        let replayed = replay(&self.config, self.batches).drained;
        ops.check(
            "serve_steady: a drained lifetime to verify",
            !self.lifetimes.is_empty(),
        );
        for drained in &self.lifetimes {
            verify_drained(drained, &replayed, ops);
        }
    }

    fn legs(
        &mut self,
        _tracer: &mut Tracer,
        reps: usize,
        ops: &mut Ops,
        out: &mut Metrics,
    ) -> Option<f64> {
        // The legs run a shorter stream than a full lifetime; costs are
        // per sample, so they scale back.
        let batches = (self.batches / 5).max(self.batches.min(8));
        let mut cfg = self.config;
        cfg.max_batches = Some(batches);
        let samples = stream_samples(&cfg, batches).max(1) as f64;

        // Leg: the windowed integrator alone, single thread.
        let mut ingest = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            let r = replay(&cfg, batches);
            ingest.push(r.ingest_ns as f64 / samples);
            last = Some(r);
        }
        let ingest_ns_per_sample = median(&ingest);
        out.put(
            "core.window.ingest_ns_per_sample",
            ingest_ns_per_sample,
            "ns/sample",
        );
        if let Some(r) = &last {
            out.put("core.window.close_p50_us", median(&r.close_ns) / 1e3, "us");
            out.put(
                "core.window.close_p95_us",
                percentile(&r.close_ns, 95) / 1e3,
                "us",
            );
            out.put(
                "core.window.finish_stream_us",
                r.finish_ns as f64 / 1e3,
                "us",
            );
            out.put_exact(
                "core.window.windows_closed",
                r.drained.report.windows_closed as f64,
                "count",
            );
            out.put_exact(
                "core.window.windows_evicted",
                r.drained.report.windows_evicted as f64,
                "count",
            );
        }

        // Leg: one daemon lifetime on the same stream, then the
        // protocol renderers and the socket path on its drained shard.
        let life = ops.check_ok("serve_steady: leg lifetime", run_lifetime(cfg))?;
        if let Some(r) = &last {
            verify_drained(&life.run.drained, &r.drained, ops);
        }
        let daemon_ns_per_sample = life.run.wall_ns as f64 / samples;
        out.put(
            "serve.shard.utilization_milli",
            life.run.utilization_milli as f64,
            "milli",
        );
        out.put(
            "serve.shard.occupancy_milli_p50",
            median(&life.run.occupancy_milli),
            "milli",
        );
        out.put(
            "serve.shard.unaccounted_ns_per_sample",
            daemon_ns_per_sample - ingest_ns_per_sample,
            "ns/sample",
        );
        let live: Vec<f64> = self
            .live_query_ns
            .iter()
            .chain(&life.run.live_query_ns)
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        out.put("serve.daemon.query_live_p50_us", median(&live), "us");
        out.put(
            "serve.daemon.start_ms",
            median(&[self.start_ns.as_slice(), &[life.start_ns as f64]].concat()) / 1e6,
            "ms",
        );

        let shards = life.daemon.shards();
        let renders = 20;
        let mut render_p50 = Vec::new();
        let renderers: [(&str, &dyn Fn() -> String); 4] = [
            ("snapshot", &|| proto::snapshot_doc(shards).to_json()),
            ("windows", &|| proto::windows_doc(shards, 4)),
            ("episodes", &|| proto::episodes_doc(shards)),
            ("loss", &|| proto::loss_doc(shards)),
        ];
        for (name, render) in renderers {
            let mut ns = Vec::new();
            let mut bytes = 0usize;
            for _ in 0..renders {
                let (doc, t) = timed(render);
                bytes = doc.len();
                ns.push(t as f64 / 1e3);
            }
            render_p50.push(median(&ns));
            out.put(&format!("serve.proto.{name}_us"), median(&ns), "us");
            out.put(&format!("serve.proto.{name}_bytes"), bytes as f64, "B");
        }
        let metrics_render: Vec<f64> = (0..renders)
            .map(|_| timed(fluctrace_obs::snapshot_prometheus).1 as f64 / 1e3)
            .collect();
        render_p50.push(median(&metrics_render));
        out.put(
            "serve.proto.table_ns_per_row",
            self.probe.table_ns_per_row,
            "ns/row",
        );

        let metrics_kind = (VERBS.len() - 1) as u32;
        let replies = drained_queries(&life.daemon, 500, ops);
        let all_us: Vec<f64> = replies.iter().map(|r| r.1 as f64 / 1e3).collect();
        let metrics_us: Vec<f64> = replies
            .iter()
            .filter(|r| r.0 == metrics_kind)
            .map(|r| r.1 as f64 / 1e3)
            .collect();
        let metrics_bytes = replies
            .iter()
            .rev()
            .find(|r| r.0 == metrics_kind)
            .map_or(0, |r| r.2);
        // Per verb: what the socket path adds to rendering the reply.
        let overhead: Vec<f64> = render_p50
            .iter()
            .enumerate()
            .map(|(kind, render_us)| {
                let us: Vec<f64> = replies
                    .iter()
                    .filter(|r| r.0 == kind as u32)
                    .map(|r| r.1 as f64 / 1e3)
                    .collect();
                median(&us) - render_us
            })
            .collect();
        out.put(
            "serve.daemon.socket_overhead_us",
            overhead.iter().sum::<f64>() / overhead.len().max(1) as f64,
            "us",
        );
        out.put("serve.daemon.query_p95_us", percentile(&all_us, 95), "us");
        out.put("serve.daemon.metrics_us", median(&metrics_us), "us");
        out.put("serve.daemon.metrics_bytes", metrics_bytes as f64, "B");
        self.shutdown_ns.push(shut_down(life.daemon) as f64);
        out.put(
            "serve.daemon.drain_join_ms",
            median(&self.shutdown_ns) / 1e6,
            "ms",
        );

        // The worker thread spends its time in `ingest`: that leg is the
        // critical path of a lifetime.
        Some(ingest_ns_per_sample * self.samples_per_rep() as f64)
    }
}
