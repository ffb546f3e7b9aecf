//! The read query of a stored trace, shared by the two store
//! workloads: the samples of one tsc window, decoded from the chunks
//! whose footer range overlaps it.

use crate::harness::{timed, Ops};
use fluctrace_cpu::PebsRecord;
use fluctrace_store::TraceReader;
use std::io::{Read, Seek};

/// Disjoint tsc windows the queries rotate over.
pub const WINDOWS: u64 = 16;
/// Window queries one run answers.
pub const QUERIES: u64 = 304;

/// Smallest and largest sample tsc.
pub fn tsc_bounds<'a>(samples: impl Iterator<Item = &'a PebsRecord>) -> (u64, u64) {
    samples.fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s.tsc), hi.max(s.tsc)))
}

/// The `i`-th of [`WINDOWS`] disjoint windows over `[lo, hi]`.
pub fn window(lo: u64, hi: u64, i: u64) -> (u64, u64) {
    let width = hi.saturating_sub(lo) / WINDOWS + 1;
    let start = lo + i * width;
    (start, (start + width - 1).min(hi))
}

/// Answer [`QUERIES`] window queries; returns `(window, latency in
/// ns)` of each and the rows the first round over the windows returned.
pub fn run_queries<R: Read + Seek>(
    label: &str,
    reader: &mut TraceReader<R>,
    (lo, hi): (u64, u64),
    ops: &mut Ops,
) -> (Vec<(u32, u64)>, Vec<u64>) {
    let mut latencies = Vec::new();
    let mut rows_per_window = Vec::new();
    for q in 0..QUERIES {
        let (a, b) = window(lo, hi, q % WINDOWS);
        let (rows, ns) = timed(|| reader.read_samples_in(a, b).map_err(|e| e.to_string()));
        if let Some(rows) = ops.check_ok(&format!("{label}: window query"), rows) {
            latencies.push(((q % WINDOWS) as u32, ns));
            if q < WINDOWS {
                rows_per_window.push(rows.len() as u64);
            }
        }
    }
    (latencies, rows_per_window)
}

/// Samples of `samples` inside each window, counted directly.
pub fn expected_rows<'a>(
    samples: impl Iterator<Item = &'a PebsRecord> + Clone,
    (lo, hi): (u64, u64),
) -> Vec<u64> {
    (0..WINDOWS)
        .map(|i| {
            let (a, b) = window(lo, hi, i);
            samples.clone().filter(|s| s.tsc >= a && s.tsc <= b).count() as u64
        })
        .collect()
}
