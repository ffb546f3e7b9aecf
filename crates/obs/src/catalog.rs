//! The pinned metric catalog: every metric the workspace records, with
//! its kind, unit and help text.
//!
//! Pre-registering the catalog into the global registry (done by
//! [`crate::registry()`]) guarantees that every snapshot carries the
//! full name set — a stage that never ran exports zeros instead of
//! silently vanishing, and snapshot bytes cannot depend on which code
//! paths happened to execute first. `OBSERVABILITY.md` at the repo root
//! renders this catalog for humans; this module is the source of truth.

/// Metric kind, deciding both the handle type and the aggregation rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count; shards aggregate by sum.
    Counter,
    /// High-watermark; shards aggregate by max.
    Gauge,
    /// Log-bucketed distribution; shards aggregate by exact merge.
    Histogram,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted metric name, `<layer>.<component>.<quantity>`.
    pub name: &'static str,
    /// Kind (counter / gauge / histogram).
    pub kind: MetricKind,
    /// Unit of the recorded value.
    pub unit: &'static str,
    /// One-line description (also the Prometheus HELP text).
    pub help: &'static str,
}

const fn counter(name: &'static str, unit: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        unit,
        help,
    }
}

const fn gauge(name: &'static str, unit: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Gauge,
        unit,
        help,
    }
}

const fn histogram(name: &'static str, unit: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Histogram,
        unit,
        help,
    }
}

/// Every metric the workspace records. Only deterministic quantities
/// (event counts, sim-TSC cycle values, data sizes) are allowed here —
/// never clock-derived durations, which would break snapshot
/// byte-determinism. Wall time is measured by the `benchmark/` harness,
/// not recorded in metrics.
pub const CATALOG: &[MetricDef] = &[
    // --- core::integrate -------------------------------------------------
    counter(
        "core.integrate.runs",
        "runs",
        "Integration passes over a trace bundle",
    ),
    counter(
        "core.integrate.samples",
        "samples",
        "PEBS samples fed into interval attribution",
    ),
    counter(
        "core.integrate.intervals",
        "intervals",
        "Item intervals built from mark pairs",
    ),
    counter(
        "core.integrate.shards",
        "shards",
        "Per-core shards processed by the parallel integrator",
    ),
    counter(
        "core.integrate.errors",
        "errors",
        "Malformed mark sequences surfaced during interval building",
    ),
    histogram(
        "core.integrate.interval_cycles",
        "cycles",
        "Item interval length in simulated TSC cycles",
    ),
    histogram(
        "core.integrate.shard_samples",
        "samples",
        "Samples per per-core shard",
    ),
    // --- core::estimate --------------------------------------------------
    counter(
        "core.estimate.runs",
        "runs",
        "Estimator passes over an integrated trace",
    ),
    counter(
        "core.estimate.spans",
        "spans",
        "(item, func) spans flushed into the estimate table",
    ),
    counter(
        "core.estimate.samples_missing_span",
        "samples",
        "Samples skipped because no interval contained them",
    ),
    histogram(
        "core.estimate.span_cycles",
        "cycles",
        "Per-span elapsed estimate in simulated TSC cycles",
    ),
    // --- core::soa -------------------------------------------------------
    counter(
        "core.soa.runs",
        "runs",
        "SoA (columnar) integration passes over a trace bundle",
    ),
    counter(
        "core.soa.samples",
        "samples",
        "Samples ingested into SoA sample columns",
    ),
    // --- core::parallel --------------------------------------------------
    counter(
        "core.parallel.runs",
        "runs",
        "run_indexed invocations (work-claiming fan-outs)",
    ),
    counter(
        "core.parallel.tasks",
        "tasks",
        "Tasks claimed across all run_indexed invocations",
    ),
    // --- core::online ----------------------------------------------------
    counter(
        "core.online.batches_submitted",
        "batches",
        "Batches accepted by submit/try_submit",
    ),
    counter(
        "core.online.batches_dropped",
        "batches",
        "Batches dropped by the lossy try_submit path",
    ),
    counter(
        "core.online.samples_submitted",
        "samples",
        "Samples contained in accepted batches",
    ),
    counter(
        "core.online.samples_seen",
        "samples",
        "Samples received by the online worker",
    ),
    counter(
        "core.online.samples_attributed",
        "samples",
        "Samples attributed to a completed item",
    ),
    counter(
        "core.online.samples_dropped",
        "samples",
        "Samples inside batches dropped by try_submit",
    ),
    counter(
        "core.online.samples_evicted",
        "samples",
        "Oldest-first pending evictions under the max_pending bound",
    ),
    counter(
        "core.online.samples_thinned",
        "samples",
        "Samples shed by adaptive effective-reset degradation",
    ),
    counter(
        "core.online.samples_discarded",
        "samples",
        "Pending samples discarded with an item that could not complete",
    ),
    counter(
        "core.online.samples_spin",
        "samples",
        "Samples that arrived outside any item (inter-item spin)",
    ),
    counter(
        "core.online.boundary_samples",
        "samples",
        "Samples attributed exactly at an interval bound",
    ),
    counter(
        "core.online.bytes_seen",
        "bytes",
        "Bytes of PEBS data received by the worker",
    ),
    counter(
        "core.online.bytes_dumped",
        "bytes",
        "Bytes retained for offline analysis (anomalous items only)",
    ),
    counter(
        "core.online.marks_orphaned",
        "marks",
        "End marks that arrived with no open item",
    ),
    counter(
        "core.online.marks_mismatched",
        "marks",
        "End marks whose item id did not match the open item",
    ),
    counter(
        "core.online.starts_abandoned",
        "marks",
        "Start marks that abandoned a still-open item",
    ),
    counter(
        "core.online.starts_truncated",
        "marks",
        "Start marks still open at stream end",
    ),
    counter(
        "core.online.items_processed",
        "items",
        "Items closed and estimated by the online worker",
    ),
    counter(
        "core.online.anomalies",
        "anomalies",
        "Items flagged as divergent from their baseline",
    ),
    counter(
        "core.online.flushes",
        "flushes",
        "End-of-stream finalizations (truncated starts + trailing spin)",
    ),
    counter(
        "core.online.degrade_episodes",
        "episodes",
        "Adaptive degradation episodes (high-water crossings)",
    ),
    gauge(
        "core.online.pending_peak",
        "samples",
        "Peak pending-sample backlog per core",
    ),
    gauge(
        "core.online.degrade_factor_peak_milli",
        "milli_factor",
        "Peak adaptive effective-reset factor in milli-units (1750 = 1.75x)",
    ),
    histogram(
        "core.online.batch_samples",
        "samples",
        "Samples per submitted batch",
    ),
    // --- rt::spsc ---------------------------------------------------------
    counter("rt.spsc.pushes", "items", "Successful SPSC ring pushes"),
    counter(
        "rt.spsc.push_stalls",
        "stalls",
        "Pushes rejected because the ring was full",
    ),
    counter("rt.spsc.pops", "items", "Successful SPSC ring pops"),
    counter(
        "rt.spsc.pop_stalls",
        "stalls",
        "Pops that found the ring empty",
    ),
    gauge(
        "rt.spsc.depth_peak",
        "items",
        "Peak SPSC ring occupancy observed at push",
    ),
    // --- rt::stage / rt::pipeline ----------------------------------------
    counter("rt.stage.runs", "runs", "Stage executions"),
    counter("rt.stage.items", "items", "Items emitted by stages"),
    counter(
        "rt.stage.batches",
        "batches",
        "Batches formed by batched stages",
    ),
    histogram(
        "rt.stage.batch_len",
        "items",
        "Items per batch in batched stages",
    ),
    counter("rt.pipeline.runs", "runs", "Pipeline executions"),
    counter(
        "rt.pipeline.stages",
        "stages",
        "Stages executed across all pipeline runs",
    ),
    // --- rt::wait ---------------------------------------------------------
    counter(
        "rt.wait.edges",
        "edges",
        "Typed wait edges offered to wait logs (DepGraph diagnosis)",
    ),
    counter(
        "rt.wait.dropped",
        "edges",
        "Wait edges dropped by a full bounded per-core log",
    ),
    histogram(
        "rt.wait.cycles",
        "cycles",
        "Length of each offered wait edge (recording site's clock domain)",
    ),
    // --- sim::fault -------------------------------------------------------
    counter(
        "sim.fault.schedules",
        "schedules",
        "Fault schedules materialized",
    ),
    counter(
        "sim.fault.drop_open",
        "faults",
        "DropOpen faults scheduled (lost Start marks)",
    ),
    counter(
        "sim.fault.corrupt_close",
        "faults",
        "CorruptClose faults scheduled (corrupted End marks)",
    ),
    counter(
        "sim.fault.bursts",
        "faults",
        "Burst faults scheduled (sample floods)",
    ),
    histogram(
        "sim.fault.burst_len",
        "samples",
        "Extra samples per scheduled burst",
    ),
    counter(
        "sim.fault.dep_schedules",
        "schedules",
        "Depgraph ground-truth scenarios materialized",
    ),
    // --- bench ------------------------------------------------------------
    counter("bench.sweep.runs", "runs", "run_sweep invocations"),
    counter(
        "bench.sweep.configs",
        "configs",
        "Sweep configurations executed",
    ),
    // --- store ------------------------------------------------------------
    counter(
        "store.writer.segments",
        "segments",
        "Store segments finished (footer + tail written)",
    ),
    counter(
        "store.writer.samples",
        "samples",
        "Logical sample rows appended to trace stores",
    ),
    counter(
        "store.writer.marks",
        "marks",
        "Mark rows appended to trace stores",
    ),
    counter(
        "store.writer.elided",
        "samples",
        "Sample rows elided by redundancy suppression (ledgered)",
    ),
    counter(
        "store.writer.chunks",
        "chunks",
        "Column chunks written across both streams",
    ),
    counter(
        "store.writer.bytes",
        "bytes",
        "Store bytes written, magic/footer/tail included",
    ),
    counter("store.reader.segments", "segments", "Store segments opened"),
    counter(
        "store.reader.samples",
        "samples",
        "Sample rows materialized by store reads",
    ),
    counter(
        "store.reader.marks",
        "marks",
        "Mark rows materialized by store reads",
    ),
    counter(
        "store.reader.bytes",
        "bytes",
        "Chunk bytes fetched by store reads",
    ),
    // --- serve ------------------------------------------------------------
    counter(
        "serve.traffic.batches",
        "batches",
        "Traffic batches submitted to shard pipelines",
    ),
    counter(
        "serve.traffic.items",
        "items",
        "Work items completed by shard integrators",
    ),
    counter(
        "serve.windows.closed",
        "windows",
        "Integration windows closed across all shards",
    ),
    counter(
        "serve.windows.evicted",
        "windows",
        "Closed windows evicted by the retention ring",
    ),
    counter(
        "serve.windows.evicted_bytes",
        "bytes",
        "Approximate bytes reclaimed by window eviction",
    ),
    counter(
        "serve.anomaly.episodes",
        "episodes",
        "Divergence episodes recorded by shard integrators",
    ),
    // Utilization/occupancy gauges derive from consumer busy/idle tick
    // counts; under the daemon binary ticks come from the wall clock,
    // so like the bench throughput gauges above these are exempt from
    // the "no clock-derived values" rule. Library tests leave the tick
    // clock deterministic, keeping snapshots stable.
    gauge(
        "serve.queue.occupancy_milli",
        "milli",
        "Producer-observed shard channel occupancy (0-1000)",
    ),
    gauge(
        "serve.worker.utilization_milli",
        "milli",
        "Consumer busy-tick share incl. ring_empty idle (0-1000)",
    ),
];

/// Look up a catalog entry by name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_sorted_friendly_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in CATALOG {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad metric name {}",
                def.name
            );
            assert!(
                def.name.split('.').count() >= 3,
                "name {} lacks layer.component.quantity structure",
                def.name
            );
            assert!(!def.help.is_empty());
            assert!(!def.unit.is_empty());
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for def in CATALOG {
            assert!(lookup(def.name).is_some());
        }
        assert!(lookup("no.such.metric").is_none());
    }
}
