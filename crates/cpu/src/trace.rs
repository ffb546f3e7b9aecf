//! Trace record types produced by the simulated machine and consumed by
//! the hybrid tracer (`fluctrace-core`).
//!
//! Two independent streams exist, exactly as in the paper's Figure 3:
//!
//! * [`MarkRecord`]s come from the **instrumentation** side: the marking
//!   function invoked at every *data-item switch* records the timestamp
//!   and the data-item id (white circles in Fig. 3).
//! * [`PebsRecord`]s come from the **sampling** side: PEBS periodically
//!   records the timestamp and the instruction pointer (black circles in
//!   Fig. 3), plus the general-purpose registers — including the `r13`
//!   tag slot that the §V.A extension uses.

use crate::addr::VirtAddr;
use crate::pmu::HwEvent;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub u32);

impl CoreId {
    /// Index into per-core arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of one data-item (query, packet, request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ItemId(pub u64);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The value stored in the simulated `r13` register when no data-item
/// tag is loaded (§V.A requires r13 to be reserved for the tag).
pub const NO_TAG: u64 = 0;

/// Encode a data-item id into the `r13` tag register (§V.A).
///
/// Zero is reserved for "no tag", so ids are stored off-by-one.
#[inline]
pub fn encode_tag(item: ItemId) -> u64 {
    item.0 + 1
}

/// Decode an `r13` register value back into a data-item id, if a tag was
/// loaded.
#[inline]
pub fn decode_tag(r13: u64) -> Option<ItemId> {
    (r13 != NO_TAG).then(|| ItemId(r13 - 1))
}

/// Size of one PEBS record in bytes.
///
/// On Skylake a PEBS record carries the GP registers, IP, TSC, and
/// auxiliary fields; we account 96 bytes per record for the data-volume
/// experiment (§IV.C.3).
pub const PEBS_RECORD_BYTES: u64 = 96;

/// One PEBS sample: what the hardware deposits in the PEBS buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PebsRecord {
    /// Core the sample was taken on.
    pub core: CoreId,
    /// Hardware timestamp (TSC cycles of this core's clock).
    pub tsc: u64,
    /// Instruction pointer at the sampled instruction.
    pub ip: VirtAddr,
    /// Value of the simulated `r13` general-purpose register
    /// ([`NO_TAG`] unless the register-tagging extension is active).
    pub r13: u64,
    /// The hardware event whose overflow triggered this sample.
    pub event: HwEvent,
}

/// Whether a mark denotes the start or the end of processing an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MarkKind {
    /// The core started processing the item (item entered the core).
    Start,
    /// The core finished processing the item (item left the core).
    End,
}

/// One instrumentation record emitted by the marking function at a
/// data-item switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkRecord {
    /// Core the mark was recorded on.
    pub core: CoreId,
    /// Timestamp (TSC cycles).
    pub tsc: u64,
    /// The data-item entering/leaving the core.
    pub item: ItemId,
    /// Start or end of processing.
    pub kind: MarkKind,
}

/// Everything one run of the machine produced for the tracer: the two
/// streams of Figure 3 plus bookkeeping needed by the evaluation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceBundle {
    /// PEBS samples from all cores, in per-core chronological order.
    pub samples: Vec<PebsRecord>,
    /// Instrumentation marks from all cores.
    pub marks: Vec<MarkRecord>,
}

impl TraceBundle {
    /// Merge another bundle (e.g. from another core) into this one.
    pub fn merge(&mut self, mut other: TraceBundle) {
        self.samples.append(&mut other.samples);
        self.marks.append(&mut other.marks);
    }

    /// Sort both streams by `(core, tsc)`; integration requires per-core
    /// chronological order. A stream that is already in order is left as
    /// it is without the stable sort's scratch allocation (the result is
    /// the same either way).
    pub fn sort(&mut self) {
        let sample_key = |s: &PebsRecord| (s.core, s.tsc);
        let mark_key = |m: &MarkRecord| (m.core, m.tsc, matches!(m.kind, MarkKind::Start) as u8);
        if !self.samples.is_sorted_by_key(sample_key) {
            self.samples.sort_by_key(sample_key);
        }
        if !self.marks.is_sorted_by_key(mark_key) {
            self.marks.sort_by_key(mark_key);
        }
    }

    /// Total bytes of PEBS data, for the data-volume accounting.
    pub fn pebs_bytes(&self) -> u64 {
        self.samples.len() as u64 * PEBS_RECORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_merge_and_sort() {
        let mut a = TraceBundle::default();
        a.samples.push(PebsRecord {
            core: CoreId(1),
            tsc: 20,
            ip: VirtAddr(1),
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        });
        let mut b = TraceBundle::default();
        b.samples.push(PebsRecord {
            core: CoreId(0),
            tsc: 10,
            ip: VirtAddr(2),
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        });
        b.marks.push(MarkRecord {
            core: CoreId(0),
            tsc: 5,
            item: ItemId(7),
            kind: MarkKind::Start,
        });
        a.merge(b);
        a.sort();
        assert_eq!(a.samples[0].core, CoreId(0));
        assert_eq!(a.samples[1].core, CoreId(1));
        assert_eq!(a.marks.len(), 1);
        assert_eq!(a.pebs_bytes(), 2 * PEBS_RECORD_BYTES);
    }

    #[test]
    fn end_mark_sorts_before_start_at_same_tsc() {
        // An End at tsc t and the next Start at the same t must order
        // End-first so that interval reconstruction sees no overlap.
        let mut b = TraceBundle::default();
        b.marks.push(MarkRecord {
            core: CoreId(0),
            tsc: 100,
            item: ItemId(2),
            kind: MarkKind::Start,
        });
        b.marks.push(MarkRecord {
            core: CoreId(0),
            tsc: 100,
            item: ItemId(1),
            kind: MarkKind::End,
        });
        b.sort();
        assert_eq!(b.marks[0].kind, MarkKind::End);
        assert_eq!(b.marks[1].kind, MarkKind::Start);
    }

    #[test]
    fn display_impls() {
        assert_eq!(CoreId(2).to_string(), "core2");
        assert_eq!(ItemId(9).to_string(), "#9");
    }
}
