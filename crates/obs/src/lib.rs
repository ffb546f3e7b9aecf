//! # fluctrace-obs
//!
//! The tracer traces itself. This crate is the self-observability
//! substrate for the whole workspace: a lock-free, per-core-sharded
//! metrics registry (monotonic counters, high-watermark gauges and
//! log-bucketed HDR-style histograms with exact merge), a span/event
//! journal backed by a fixed-capacity ring-buffer *flight recorder*,
//! and canonical snapshot exporters (JSON and Prometheus text
//! exposition).
//!
//! The paper's whole argument is an overhead/visibility trade-off
//! (§IV.C, §V.C: the `a + b/R` overhead law); a tracer that cannot
//! answer "what is tracing costing right now, and where?" cannot hold
//! that line. fluctrace-obs answers it continuously:
//!
//! * **Hot-path recording is cheap.** A counter increment is a single
//!   `Relaxed` atomic add into a cache-line-padded per-thread shard; a
//!   histogram record is two (bucket + sum). There are no locks on any
//!   record path.
//! * **Aggregation is deterministic.** Metric names live in `BTreeMap`s,
//!   shards are summed (or max'd, for watermark gauges) into
//!   thread-count-independent totals, and the exporters emit byte-stable
//!   text: the same recorded multiset of events yields the same snapshot
//!   bytes regardless of `FLUCTRACE_THREADS` or the shard count.
//! * **Time is ticks, never wall-clock.** Durations come from the
//!   [`Clock`] abstraction and are differenced TSC-style with
//!   `wrapping_sub`. Library code always sees a deterministic-by-default
//!   logical tick clock; the one sanctioned wall-clock implementation
//!   ([`WallClock`]) is installed only by bench binaries. The
//!   `clock-hygiene` lint rule enforces this split.
//!
//! The metric catalog (names, kinds, units) is pinned in [`catalog`] and
//! pre-registered into the global [`registry()`], so every snapshot
//! carries the full name set even for stages that did not run — another
//! ingredient of byte-stability. See `OBSERVABILITY.md` at the repo root
//! for the catalog, the span taxonomy and the 3% self-overhead budget
//! CI enforces with `core::overhead::fit_instrumentation`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod clock;
pub mod export;
pub mod flight;
pub mod hist;
pub mod registry;

pub use catalog::{lookup, MetricDef, MetricKind, CATALOG};
pub use clock::{
    install_wall_clock, now_ticks, wall_clock_installed, Clock, ManualClock, TickClock, WallClock,
};
pub use flight::{event, flight, span, FlightRecorder, SpanGuard, SpanRecord};
pub use hist::{bucket_index, bucket_upper_bound, HistogramSnapshot, BUCKETS};
pub use registry::{
    recording, registry, set_recording, snapshot, snapshot_json, snapshot_prometheus, Counter,
    Gauge, Histogram, Registry, Snapshot,
};

/// Record a scoped span into the flight recorder: the span covers the
/// rest of the enclosing block and is journaled (with its start/end
/// ticks) when the block exits, including on unwind.
///
/// ```
/// fluctrace_obs::span!("integrate.shard");
/// fluctrace_obs::span!("integrate.shard", 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _fluctrace_obs_span_guard = $crate::span($name, 0);
    };
    ($name:expr, $arg:expr) => {
        let _fluctrace_obs_span_guard = $crate::span($name, $arg as u64);
    };
}

/// Cached handle to a counter in the global registry. Expands to a
/// one-time registration behind a `OnceLock`, so the steady-state cost
/// of `counter!("name").add(n)` is one relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Cached handle to a high-watermark gauge in the global registry.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Cached handle to a histogram in the global registry.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}
