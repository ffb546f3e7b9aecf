//! Typed wait/wakeup edges for waiting-dependency diagnosis.
//!
//! The tracer can say *where* cycles went (functions within items) but
//! not *why a core waited*. Following DepGraph (Ezzati-Jivan et al.
//! 2021), a blocking structure records typed `(core, tsc, cycles,
//! cause, peer)` edges into a bounded per-core [`WaitLog`] it owns. An
//! instance log is kept where a reader walks its edges in one clock
//! domain: a [`crate::bounded`] run (sim cycles, fully deterministic,
//! the input to `core::depgraph`) and each serve shard (obs clock
//! ticks).
//!
//! The other wait sites — `spsc` stall runs, [`crate::stage`] poll gaps
//! and the online tracer's degraded observations — keep no edges: each
//! measures in its own clock, so no walker could read them together.
//! They only offer their lengths to the `rt.wait.*` metrics through
//! [`count_offered`], which [`WaitLog::record`] calls too.

use std::collections::BTreeMap;

/// Why a core was waiting. Ordered so per-cause maps iterate
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// A producer stalled because the downstream ring was full.
    RingFull,
    /// A consumer polled an empty ring.
    RingEmpty,
    /// An item sat in a ring waiting for the next stage's worker.
    StageHandoff,
    /// A worker ran in degraded mode (adaptive effective-reset > 1x).
    Degraded,
}

impl WaitCause {
    /// Stable lowercase label used as the per-cause key in diagnosis
    /// reports and canonical JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            WaitCause::RingFull => "ring_full",
            WaitCause::RingEmpty => "ring_empty",
            WaitCause::StageHandoff => "stage_handoff",
            WaitCause::Degraded => "degraded",
        }
    }
}

/// One wait interval observed on a core.
///
/// `tsc` is the begin timestamp in the clock domain of the log that
/// holds the edge: sim cycles in a [`crate::bounded`] run, obs clock
/// ticks in a serve shard's log. `cycles` is the length of the wait in
/// the same domain. `peer` is the core (or
/// stage) the waiter depended on; self-edges (`peer == core`) mean the
/// wait was caused by the external source, not another core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// Core that waited.
    pub core: u32,
    /// Begin timestamp of the wait (recording site's clock domain).
    pub tsc: u64,
    /// Length of the wait (same domain as `tsc`).
    pub cycles: u64,
    /// Typed cause of the wait.
    pub cause: WaitCause,
    /// Core/stage the waiter depended on.
    pub peer: u32,
}

/// Bounded per-core edge log.
///
/// Each core's edge vector is capped at `per_core_capacity`; edges
/// past the cap are counted in `dropped` instead of growing without
/// bound, so recording stays safe under pathological wait storms.
/// Iteration order is deterministic (BTreeMap by core, insertion
/// order within a core).
#[derive(Debug)]
pub struct WaitLog {
    per_core_capacity: usize,
    cores: BTreeMap<u32, Vec<WaitEdge>>,
    dropped: u64,
}

impl WaitLog {
    /// New log holding at most `per_core_capacity` edges per core.
    pub fn new(per_core_capacity: usize) -> Self {
        WaitLog {
            per_core_capacity: per_core_capacity.max(1),
            cores: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Record an edge; returns `false` (and bumps the dropped counter)
    /// when the core's log is full.
    ///
    /// The `rt.wait.*` metrics count every *offered* edge, before the
    /// capacity check: which edges survive truncation depends on
    /// cross-thread arrival order, but the offered multiset is
    /// workload-deterministic, so the exported metric totals stay
    /// byte-identical across `FLUCTRACE_THREADS`.
    pub fn record(&mut self, edge: WaitEdge) -> bool {
        count_offered(edge.cycles);
        let slot = self.cores.entry(edge.core).or_default();
        if slot.len() >= self.per_core_capacity {
            self.dropped += 1;
            if fluctrace_obs::recording() {
                fluctrace_obs::counter!("rt.wait.dropped").inc();
            }
            return false;
        }
        slot.push(edge);
        true
    }

    /// Total edges held.
    pub fn len(&self) -> usize {
        self.cores.values().map(Vec::len).sum()
    }

    /// True when no edges are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Edges dropped because a per-core log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All edges flattened core-major (deterministic order).
    pub fn edges(&self) -> Vec<WaitEdge> {
        self.cores.values().flatten().copied().collect()
    }

    /// Total wait cycles summed per cause label (deterministic order).
    pub fn cycles_by_cause(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for edge in self.cores.values().flatten() {
            *out.entry(edge.cause.as_str()).or_insert(0) += edge.cycles;
        }
        out
    }
}

/// Count one wait of `cycles` offered at any wait site in the
/// `rt.wait.edges` / `rt.wait.cycles` metrics. No-op when the obs
/// recording gate is closed, so the disabled cost is one atomic load.
pub fn count_offered(cycles: u64) {
    if fluctrace_obs::recording() {
        fluctrace_obs::counter!("rt.wait.edges").inc();
        fluctrace_obs::histogram!("rt.wait.cycles").record(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(core: u32, tsc: u64, cycles: u64, cause: WaitCause, peer: u32) -> WaitEdge {
        WaitEdge {
            core,
            tsc,
            cycles,
            cause,
            peer,
        }
    }

    #[test]
    fn bounded_log_drops_past_capacity() {
        let mut log = WaitLog::new(2);
        assert!(log.record(edge(1, 0, 5, WaitCause::RingFull, 2)));
        assert!(log.record(edge(1, 5, 5, WaitCause::RingFull, 2)));
        assert!(!log.record(edge(1, 10, 5, WaitCause::RingFull, 2)));
        // A different core has its own budget.
        assert!(log.record(edge(2, 0, 1, WaitCause::RingEmpty, 1)));
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn cycles_by_cause_sums_deterministically() {
        let mut log = WaitLog::new(16);
        log.record(edge(0, 0, 3, WaitCause::StageHandoff, 0));
        log.record(edge(1, 0, 4, WaitCause::RingFull, 2));
        log.record(edge(1, 9, 6, WaitCause::RingFull, 2));
        let by_cause = log.cycles_by_cause();
        assert_eq!(by_cause.get("ring_full"), Some(&10));
        assert_eq!(by_cause.get("stage_handoff"), Some(&3));
        assert_eq!(by_cause.get("ring_empty"), None);
    }
}
