//! # fluctrace-analysis
//!
//! Presentation and validation utilities for the reproduction harness:
//!
//! * [`table`] — fixed-width ASCII tables (every `fig*`/`table*` binary
//!   prints through this, so EXPERIMENTS.md rows match tool output);
//! * [`series`] — named data series and figures with JSON export
//!   (machine-readable artifacts the experiment records are built from);
//! * [`regression`] — ordinary least squares on transformed axes;
//! * [`shape`] — the "does the reproduction have the paper's shape?"
//!   assertions: orderings, monotonicity, ratio windows, crossovers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod loss;
pub mod regression;
pub mod series;
pub mod shape;
pub mod table;
pub mod tail;

pub use chart::{DotRows, StackedBars};
pub use loss::{accounting_exact, loss_table, LossRow};
pub use regression::{linear_fit, LinearFit};
pub use series::{Figure, Series};
pub use shape::{
    assert_decreasing, assert_flattens, assert_increasing, assert_ordering, ratio_in, ShapeError,
};
pub use table::Table;
pub use tail::{ccdf, tail_report, TailReport};
