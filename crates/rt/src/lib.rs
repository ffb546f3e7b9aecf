//! # fluctrace-rt
//!
//! The high-throughput software architecture the paper targets (§III.C,
//! Fig. 5): *one pinned thread per core*, stages connected by software
//! queues, at most one data-item in flight per core at a time.
//!
//! Two variants are modelled:
//!
//! * **Self-switching** ([`stage`], [`pipeline`]) — data-item switches
//!   happen only at explicit code points (top of the worker busy loop).
//!   This is DPDK's and MariaDB's model and the one the paper's main
//!   procedure (§III.D) assumes. Stages run to completion in topological
//!   order, which is exact for feed-forward pipelines with unbounded
//!   rings (the paper sends packets one by one precisely to stay in this
//!   regime).
//! * **Timer-switching** ([`ult`]) — a user-level-thread scheduler
//!   preempts items on a quantum, so multiple items interleave on one
//!   core. Interval-based sample mapping breaks here; the §V.A
//!   register-tagging extension (`r13` carries the item id across
//!   context switches) is what makes samples attributable again.
//!
//! The crate also ships a **real** lock-free single-producer
//! single-consumer ring ([`spsc`]) — the same data structure a
//! DPDK-style pipeline uses between its pinned threads, implemented with
//! acquire/release atomics. The online tracer and the serve shards do
//! not use it: their `fluctrace_core::online::Intake` streams batches
//! over the bounded channel of the `crossbeam` shim (a `Mutex` +
//! `Condvar` queue). The benchmark's hand-off leg times the two against
//! each other.
//!
//! For *why a core waited* (not just where time went), every blocking
//! structure records typed wait/wakeup edges ([`wait`]) and the
//! bounded-ring executor ([`bounded`]) produces an exact, deterministic
//! wait decomposition that `core::depgraph` walks to the root-cause
//! stage of a tail-latency anomaly (see DIAGNOSIS.md).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bounded;
pub mod pipeline;
pub mod spsc;
pub mod stage;
pub mod timed;
pub mod ult;
pub mod wait;

pub use bounded::{run_bounded, BoundedRun, BoundedSpec, BoundedStage, StageTiming};
pub use pipeline::{Pipeline, PipelineReport};
pub use spsc::{spsc_ring, RingConsumer, RingProducer};
pub use stage::{run_stage, spin_until, StageOpts};
pub use timed::Timed;
pub use ult::{UltJob, UltScheduler, UltSchedulerConfig};
pub use wait::{begin_global, record_global, OpenWait, WaitCause, WaitEdge, WaitLog};
