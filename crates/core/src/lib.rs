//! # fluctrace-core
//!
//! The paper's contribution: a **hybrid tracer** that combines
//! coarse-grained instrumentation with hardware-based sampling to
//! estimate, *per data-item and per function*, how long each function
//! took — cheaply enough for software whose functions run for single
//! microseconds.
//!
//! The pipeline mirrors §III.D of the paper:
//!
//! 1. the target runs with **marks** at every data-item switch and
//!    **PEBS samples** `(TSC, IP)` every `R` event occurrences
//!    (produced by `fluctrace-cpu` in this reproduction);
//! 2. [`interval`] rebuilds, per core, the `[start, end]` interval each
//!    item occupied from the marks;
//! 3. [`integrate()`](fn@integrate) assigns every sample to the item whose interval
//!    contains its timestamp (`t0 < ta < t1`) and to the function whose
//!    symbol-table range contains its IP;
//! 4. [`estimate`] computes the elapsed time of function `f` for item
//!    `M` as the difference between the first and last sample timestamp
//!    attributed to `{f, M}`;
//! 5. [`fluct`] groups items that *should* behave identically (same
//!    query `n`, same packet type) and flags the ones that don't — the
//!    actual diagnosis step.
//!
//! Extensions from §V are first-class:
//!
//! * [`integrate::MappingMode::RegisterTag`] maps samples via the `r13`
//!   item tag instead of mark intervals, covering timer-switching
//!   architectures (§V.A);
//! * [`profile`] implements the `T·n/N` averaged-profile fallback for
//!   functions shorter than the sample interval (§V.B.1);
//! * [`metrics`] turns sample *counts* of a non-time event (cache
//!   misses, branch mispredicts) into per-item per-function event
//!   estimates (§V.D);
//! * [`overhead`] models the reset-value ↔ overhead/interval trade-off
//!   (§V.C) so a reset value can be chosen for an overhead budget;
//! * [`online`] processes sample batches on a separate real thread and
//!   dumps raw data only when an estimate diverges from its running
//!   baseline — the data-volume mitigation sketched in §IV.C.3.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod depgraph;
pub mod estimate;
pub mod export;
pub mod fluct;
pub mod integrate;
pub mod interval;
pub mod metrics;
pub mod online;
pub mod overhead;
pub(crate) mod pairing;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod soa;
pub mod window;

pub use batch::{split_batches, BatchMap};
pub use depgraph::{diagnose, ChainLink, DepgraphConfig, Diagnosis, EpisodeDiagnosis};
pub use estimate::{EstimateTable, FuncEstimate, ItemEstimate};
pub use export::{anomaly_trace, chrome_trace, chrome_trace_string, ExportOptions};
pub use fluct::{detect, FluctuationReport, GroupFuncStats, Outlier, TotalOutlier};
pub use integrate::{
    integrate, integrate_with_threads, AttributedSample, IntegratedTrace, MappingMode,
};
pub use interval::{build_intervals, IntervalError, ItemInterval};
pub use metrics::{effective_reset, metric_counts, MetricTable};
pub use online::{
    AdaptiveConfig, AdaptiveR, DegradeStats, LiveStats, LossStats, OnlineAnomaly, OnlineConfig,
    OnlineError, OnlineReport, OnlineTracer, SpillStats, SubmitError, SubmitOutcome,
};
pub use overhead::{fit_instrumentation, fit_inverse_reset, InstrumentationFit, OverheadModel};
pub use parallel::{configured_threads, run_indexed, run_parts};
pub use profile::{FlatProfile, ProfileEntry};
pub use report::{diagnosis, item_breakdown};
pub use soa::{integrate_soa, integrate_soa_with_threads, SampleColumns, SoaTrace};
pub use window::{
    CumulativeMode, Episode, FoldedTotals, WindowConfig, WindowReport, WindowSummary,
    WindowedIntegrator,
};
