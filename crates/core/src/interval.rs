//! Reconstructing per-core data-item intervals from instrumentation
//! marks.
//!
//! In the self-switching architecture a core processes exactly one item
//! at a time, so its marks form a sequence
//! `Start(a) End(a) Start(b) End(b) …` and each `Start/End` pair is one
//! [`ItemInterval`]. An item preempted by a timer-switching scheduler
//! that logs slice boundaries produces *several* intervals for the same
//! item; downstream estimation handles that by summing per-interval
//! contributions.

use fluctrace_cpu::{CoreId, ItemId, MarkKind, MarkRecord};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One contiguous span during which `item` was being processed on
/// `core`, in TSC cycles of that core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemInterval {
    /// The core.
    pub core: CoreId,
    /// The data-item.
    pub item: ItemId,
    /// TSC at the start mark.
    pub start_tsc: u64,
    /// TSC at the end mark.
    pub end_tsc: u64,
}

impl ItemInterval {
    /// True if `tsc` falls inside the interval (inclusive bounds; the
    /// marks themselves bracket the processing).
    #[inline]
    pub fn contains(&self, tsc: u64) -> bool {
        self.start_tsc <= tsc && tsc <= self.end_tsc
    }

    /// Interval length in TSC cycles, correct across a counter wrap.
    pub fn cycles(&self) -> u64 {
        self.end_tsc.wrapping_sub(self.start_tsc)
    }

    /// True if `tsc` coincides with the start or end mark. Boundary
    /// samples are inside the interval (the bounds are inclusive) but
    /// are worth counting separately: losing them is the classic
    /// online/offline attribution drift.
    #[inline]
    pub fn is_boundary(&self, tsc: u64) -> bool {
        tsc == self.start_tsc || tsc == self.end_tsc
    }
}

/// A malformed mark sequence encountered while pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalError {
    /// An `End` with no preceding `Start` (the mark is dropped).
    OrphanEnd {
        /// Core the mark was on.
        core: CoreId,
        /// The item of the orphan end mark.
        item: ItemId,
        /// Its timestamp.
        tsc: u64,
    },
    /// A `Start` while another item was still open on the same core;
    /// the open interval is discarded (cannot happen in a correct
    /// self-switching program, but a tracer must survive bad input).
    UnclosedStart {
        /// Core the mark was on.
        core: CoreId,
        /// The item whose interval was left open.
        item: ItemId,
        /// Timestamp of the abandoned start mark.
        tsc: u64,
    },
    /// `End` item id does not match the open `Start` (both dropped).
    Mismatched {
        /// Core the marks were on.
        core: CoreId,
        /// Item of the open start mark.
        started: ItemId,
        /// Item of the non-matching end mark.
        ended: ItemId,
    },
    /// A `Start` left open at the end of the trace (dropped).
    TruncatedStart {
        /// Core the mark was on.
        core: CoreId,
        /// The item left open.
        item: ItemId,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::OrphanEnd { core, item, tsc } => {
                write!(f, "{core}: End({item}) at tsc {tsc} without a Start")
            }
            IntervalError::UnclosedStart { core, item, tsc } => {
                write!(f, "{core}: Start({item}) at tsc {tsc} was never closed")
            }
            IntervalError::Mismatched {
                core,
                started,
                ended,
            } => {
                write!(f, "{core}: Start({started}) closed by End({ended})")
            }
            IntervalError::TruncatedStart { core, item } => {
                write!(f, "{core}: Start({item}) open at end of trace")
            }
        }
    }
}

/// Pair marks into intervals. `marks` must be sorted by `(core, tsc)`
/// (as [`fluctrace_cpu::TraceBundle::sort`] leaves them). Returns the
/// intervals sorted by `(core, start_tsc)` plus any pairing errors.
pub fn build_intervals(marks: &[MarkRecord]) -> (Vec<ItemInterval>, Vec<IntervalError>) {
    let mut intervals = Vec::with_capacity(marks.len() / 2);
    let mut errors = Vec::new();
    // (core, item, start_tsc) of the currently open interval per core.
    let mut open: Option<(CoreId, ItemId, u64)> = None;
    let mut current_core: Option<CoreId> = None;

    for mark in marks {
        if current_core != Some(mark.core) {
            // Core boundary: an open interval on the previous core is
            // truncated.
            if let Some((core, item, _)) = open.take() {
                errors.push(IntervalError::TruncatedStart { core, item });
            }
            current_core = Some(mark.core);
        }
        match (mark.kind, open) {
            (MarkKind::Start, None) => {
                open = Some((mark.core, mark.item, mark.tsc));
            }
            (MarkKind::Start, Some((core, item, tsc))) => {
                errors.push(IntervalError::UnclosedStart { core, item, tsc });
                open = Some((mark.core, mark.item, mark.tsc));
            }
            (MarkKind::End, Some((core, item, start_tsc))) => {
                if item == mark.item {
                    intervals.push(ItemInterval {
                        core,
                        item,
                        start_tsc,
                        end_tsc: mark.tsc,
                    });
                } else {
                    errors.push(IntervalError::Mismatched {
                        core,
                        started: item,
                        ended: mark.item,
                    });
                }
                open = None;
            }
            (MarkKind::End, None) => {
                errors.push(IntervalError::OrphanEnd {
                    core: mark.core,
                    item: mark.item,
                    tsc: mark.tsc,
                });
            }
        }
    }
    if let Some((core, item, _)) = open {
        errors.push(IntervalError::TruncatedStart { core, item });
    }
    (intervals, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(core: u32, tsc: u64, item: u64, kind: MarkKind) -> MarkRecord {
        MarkRecord {
            core: CoreId(core),
            tsc,
            item: ItemId(item),
            kind,
        }
    }

    #[test]
    fn well_formed_marks_pair_up() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(0, 20, 1, MarkKind::End),
            mark(0, 30, 2, MarkKind::Start),
            mark(0, 45, 2, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert!(errs.is_empty());
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].item, ItemId(1));
        assert_eq!(ivs[0].cycles(), 10);
        assert_eq!(ivs[1].start_tsc, 30);
    }

    #[test]
    fn multiple_cores_are_independent() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(0, 20, 1, MarkKind::End),
            mark(1, 5, 2, MarkKind::Start),
            mark(1, 15, 2, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert!(errs.is_empty());
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[1].core, CoreId(1));
    }

    #[test]
    fn same_item_multiple_intervals() {
        // A preempted item logged by the ULT scheduler.
        let marks = vec![
            mark(0, 10, 7, MarkKind::Start),
            mark(0, 20, 7, MarkKind::End),
            mark(0, 30, 8, MarkKind::Start),
            mark(0, 40, 8, MarkKind::End),
            mark(0, 50, 7, MarkKind::Start),
            mark(0, 60, 7, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert!(errs.is_empty());
        let item7: Vec<_> = ivs.iter().filter(|iv| iv.item == ItemId(7)).collect();
        assert_eq!(item7.len(), 2);
    }

    #[test]
    fn orphan_end_reported() {
        let marks = vec![mark(0, 10, 1, MarkKind::End)];
        let (ivs, errs) = build_intervals(&marks);
        assert!(ivs.is_empty());
        assert_eq!(
            errs,
            vec![IntervalError::OrphanEnd {
                core: CoreId(0),
                item: ItemId(1),
                tsc: 10
            }]
        );
    }

    #[test]
    fn unclosed_start_reported_and_recovered() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(0, 20, 2, MarkKind::Start),
            mark(0, 30, 2, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].item, ItemId(2));
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], IntervalError::UnclosedStart { .. }));
    }

    #[test]
    fn mismatched_end_reported() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(0, 20, 9, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert!(ivs.is_empty());
        assert!(matches!(errs[0], IntervalError::Mismatched { .. }));
    }

    #[test]
    fn truncated_trace_reported() {
        let marks = vec![mark(0, 10, 1, MarkKind::Start)];
        let (ivs, errs) = build_intervals(&marks);
        assert!(ivs.is_empty());
        assert_eq!(
            errs,
            vec![IntervalError::TruncatedStart {
                core: CoreId(0),
                item: ItemId(1)
            }]
        );
    }

    #[test]
    fn open_interval_at_core_boundary_is_truncated() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(1, 5, 2, MarkKind::Start),
            mark(1, 15, 2, MarkKind::End),
        ];
        let (ivs, errs) = build_intervals(&marks);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].item, ItemId(2));
        assert!(matches!(errs[0], IntervalError::TruncatedStart { .. }));
    }

    #[test]
    fn contains_is_inclusive_per_core_and_misses_gaps() {
        let marks = vec![
            mark(0, 10, 1, MarkKind::Start),
            mark(0, 20, 1, MarkKind::End),
            mark(0, 30, 2, MarkKind::Start),
            mark(0, 40, 2, MarkKind::End),
            mark(1, 12, 3, MarkKind::Start),
            mark(1, 22, 3, MarkKind::End),
        ];
        let (ivs, _) = build_intervals(&marks);
        let items_at = |core: u32, tsc: u64| -> Vec<ItemId> {
            ivs.iter()
                .filter(|iv| iv.core == CoreId(core) && iv.contains(tsc))
                .map(|iv| iv.item)
                .collect()
        };
        // Both ends are inclusive.
        assert_eq!(items_at(0, 10), [ItemId(1)]);
        assert_eq!(items_at(0, 15), [ItemId(1)]);
        assert_eq!(items_at(0, 20), [ItemId(1)]);
        assert_eq!(items_at(0, 35), [ItemId(2)]);
        // A gap between two intervals is in none.
        assert!(items_at(0, 25).is_empty());
        assert_eq!(items_at(1, 13), [ItemId(3)]);
        assert!(items_at(1, 9).is_empty());
        // Another core's intervals never match, even at a covered tsc.
        assert!(items_at(2, 15).is_empty());
        assert!(items_at(1, 35).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_every_sample_in_exactly_one_interval(
            // Generate well-formed alternating marks with gaps.
            spans in proptest::collection::vec((1u64..50, 1u64..50), 1..30),
            probe_frac in 0u64..100,
        ) {
            let mut marks = Vec::new();
            let mut tsc = 0u64;
            for (i, (gap, len)) in spans.iter().enumerate() {
                tsc += gap;
                marks.push(mark(0, tsc, i as u64, MarkKind::Start));
                tsc += len;
                marks.push(mark(0, tsc, i as u64, MarkKind::End));
            }
            let (ivs, errs) = build_intervals(&marks);
            proptest::prop_assert!(errs.is_empty());
            proptest::prop_assert_eq!(ivs.len(), spans.len());
            // A probe inside interval i is in exactly one built
            // interval, and that interval is item i.
            for (i, iv) in ivs.iter().enumerate() {
                let probe = iv.start_tsc + (iv.cycles() * probe_frac) / 100;
                let mut found = ivs
                    .iter()
                    .filter(|cand| cand.core == CoreId(0) && cand.contains(probe));
                proptest::prop_assert_eq!(found.next().map(|c| c.item), Some(ItemId(i as u64)));
                proptest::prop_assert!(found.next().is_none());
            }
        }
    }
}
