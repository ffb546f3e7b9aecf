//! # fluctrace-conformance
//!
//! Differential conformance harness for the attribution pipeline. The
//! paper's whole claim rests on attribution being *exact* — every PEBS
//! sample lands in the one mark interval and function range containing
//! it, and every sample the tracer sheds is explicitly counted. This
//! crate pins those invariants with five independent pieces:
//!
//! * [`oracle`] — a deliberately naive, obviously-correct reference:
//!   an `O(items × samples)` brute-force attribution plus a dumb
//!   per-core replay of the online tracer's documented semantics. Zero
//!   cleverness by design; panic-free and lint-clean like the hot path
//!   it judges.
//! * [`gen`] — a seeded workload generator producing randomized
//!   multi-core mark/sample streams: overlapping cores,
//!   boundary-coincident timestamps, TSC wraparound, orphan/duplicate
//!   marks, and fault schedules from `fluctrace_sim::FaultPlan`.
//! * [`naive_codec`] — the store's original four-way trial encoder
//!   (encode under every codec, keep the first smallest), kept as the
//!   byte-level reference for the writer's one-pass codec choice.
//! * [`naive_detect`](mod@naive_detect) — the fluctuation detector's original
//!   `BTreeMap`-of-populations, sort-twice body, kept as the reference
//!   `core::fluct::detect` must match byte for byte.
//! * [`driver`] — runs each workload through the sharded offline
//!   pipeline (`core::integrate`/`estimate`), the online tracer
//!   (`core::online`), and the oracle, and asserts byte-level agreement
//!   of estimates and exact agreement of loss accounting.
//!
//! The metamorphic invariants (sample conservation, interleaving
//! invariance, thinning monotonicity, core-relabeling symmetry) live in
//! `tests/metamorphic.rs`; the golden artifact snapshots for the paper
//! figures live in `tests/golden.rs`. See `TESTING.md` at the repo root
//! for the invariant catalog and how to reproduce a failing seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod gen;
pub mod naive_codec;
pub mod naive_detect;
pub mod oracle;
pub mod windowed;

pub use driver::{check_workload, CanonicalTable, DiffSummary, Disagreement};
pub use gen::{generate, spec_from_seed, Workload, WorkloadSpec};
pub use naive_codec::{check_store_columns, naive_encode_column};
pub use naive_detect::naive_detect;
pub use oracle::{OracleLoss, OracleOffline, OracleOnline};
pub use windowed::{check_windowed, WindowedSummary};
