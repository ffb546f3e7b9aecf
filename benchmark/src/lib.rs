//! The end-to-end benchmark of fluctrace: four workloads that carry
//! seeded inputs through the layers' public functions, seven end-to-end
//! metrics with regression bounds, and a per-layer cost ledger from a
//! separate traced run. See `README.md` in this directory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod harness;
pub mod inputs;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
