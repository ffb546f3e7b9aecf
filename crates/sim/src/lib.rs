//! # fluctrace-sim
//!
//! Deterministic simulation substrate used by every other `fluctrace`
//! crate.
//!
//! The crate deliberately contains **no domain knowledge** (no CPUs, no
//! packets): it provides the primitives that the CPU model, the pipeline
//! runtime, and the benchmark harness are built from. There is no global
//! event queue: each simulated core advances its own clock.
//!
//!
//! * [`time`] — integer picosecond simulated time ([`SimTime`],
//!   [`SimDuration`]) and frequency/cycle conversions ([`Freq`]). Using
//!   integer picoseconds keeps cycle arithmetic at multi-GHz clock rates
//!   exact, so simulations are bit-for-bit reproducible.
//! * [`rng`] — a self-contained xoshiro256++ PRNG ([`Rng`]) with
//!   splitmix64 seeding and stream forking. The simulation path does not
//!   depend on external RNG crates, so a single seed pins every run.
//! * [`stats`] — Welford running statistics and percentile summaries
//!   used throughout the evaluation harness.
//! * [`fault`] — deterministic fault schedules (dropped/corrupted item
//!   delimiters, event bursts) and scripted pressure waveforms for
//!   overload-robustness experiments.
//!
//! ## Example
//!
//! ```
//! use fluctrace_sim::{Rng, SimDuration, SimTime};
//!
//! // The same seed draws the same delays, so the clock lands on the same
//! // picosecond on every run.
//! let advance = |seed| {
//!     let mut rng = Rng::new(seed);
//!     (0..4).fold(SimTime::ZERO, |t, _| t + SimDuration::from_ns(rng.gen_range(1, 100)))
//! };
//! assert_eq!(advance(7), advance(7));
//! assert!(advance(7) > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use fault::{
    occupancy_wave, DeclaredCause, DeclaredRootCause, DepPlan, DepScenario, DepSchedule, Fault,
    FaultCounts, FaultPlan, FaultSchedule,
};
pub use rng::Rng;
pub use stats::{RunningStats, Summary};
pub use time::{Freq, SimDuration, SimTime};
