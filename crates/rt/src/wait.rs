//! Typed wait/wakeup edges for waiting-dependency diagnosis.
//!
//! The tracer can say *where* cycles went (functions within items) but
//! not *why a core waited*. Following DepGraph (Ezzati-Jivan et al.
//! 2021), every blocking structure in the rt layer — full SPSC rings,
//! empty polls, stage handoffs, gated or degraded workers — records a
//! typed `(core, tsc, cycles, cause, peer)` edge into a bounded
//! per-core [`WaitLog`]. `core::depgraph` assembles these edges into a
//! per-anomaly waiting-dependency graph and walks it to the root-cause
//! stage.
//!
//! Two logs exist: instance logs (owned by a [`crate::bounded`] run,
//! fully deterministic, the input to diagnosis) and one process-global
//! log fed by the real-threaded primitives (`spsc`, the online
//! tracer's gate/degrade paths) behind the `fluctrace_obs` recording
//! gate. Global recording is poison-tolerant: a panicking thread that
//! held the log lock never prevents later edges from landing, and the
//! RAII [`OpenWait`] guard closes its edge from `Drop` so a worker
//! that panics mid-wait leaves no dangling edge in the graph.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

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
    /// A worker was parked behind a gate (e.g. a blocking inspector).
    Gated,
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
            WaitCause::Gated => "gated",
            WaitCause::Degraded => "degraded",
        }
    }
}

/// One wait interval observed on a core.
///
/// `tsc` is the begin timestamp in whatever clock domain the recording
/// site lives in: sim cycles for staged pipelines, attempt counters
/// for the real-threaded SPSC ring (which has no sim clock), batch
/// sequence numbers for the online worker's gate. `cycles` is the
/// length of the wait in the same domain. `peer` is the core (or
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
        if fluctrace_obs::recording() {
            fluctrace_obs::counter!("rt.wait.edges").inc();
            fluctrace_obs::histogram!("rt.wait.cycles").record(edge.cycles);
        }
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

    /// Per-core edge vectors, keyed by core id (deterministic order).
    pub fn per_core(&self) -> &BTreeMap<u32, Vec<WaitEdge>> {
        &self.cores
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

/// Per-core capacity of the process-global log. Generous enough for
/// every bench workload; bounded so a wait storm cannot OOM.
const GLOBAL_PER_CORE_CAPACITY: usize = 4096;

fn global() -> &'static Mutex<WaitLog> {
    static GLOBAL: OnceLock<Mutex<WaitLog>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(WaitLog::new(GLOBAL_PER_CORE_CAPACITY)))
}

/// Poison-tolerant lock: a thread that panicked while recording must
/// not stop later edges from landing — the log is plain data and every
/// mutation (push / counter bump) is atomic with respect to panics.
fn lock_global() -> MutexGuard<'static, WaitLog> {
    match global().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Record an edge into the process-global log. No-op when the obs
/// recording gate is closed, so the disabled cost is one atomic load.
pub fn record_global(edge: WaitEdge) {
    if !fluctrace_obs::recording() {
        return;
    }
    lock_global().record(edge);
}

/// Snapshot of every edge currently in the global log (deterministic
/// core-major order).
pub fn global_edges() -> Vec<WaitEdge> {
    lock_global().edges()
}

/// RAII guard for an open wait on the global log.
///
/// Created by [`begin_global`] when a worker starts waiting; the edge
/// is recorded when the guard is closed **or dropped**, so a panic
/// mid-wait (worker unwinding through the guard) still closes the edge
/// — the graph never contains a dangling open wait. The recorded
/// length is `latest - begin`, where `latest` advances via
/// [`OpenWait::touch`]; an untouched guard records a zero-length edge
/// marking that the wait happened even when no clock was available.
#[derive(Debug)]
pub struct OpenWait {
    core: u32,
    begin: u64,
    latest: u64,
    cause: WaitCause,
    peer: u32,
    armed: bool,
}

/// Open a wait edge on the global log; close it via
/// [`OpenWait::close`] or by dropping the guard.
pub fn begin_global(core: u32, tsc: u64, cause: WaitCause, peer: u32) -> OpenWait {
    OpenWait {
        core,
        begin: tsc,
        latest: tsc,
        cause,
        peer,
        armed: true,
    }
}

impl OpenWait {
    /// Advance the wait's end timestamp while still waiting.
    pub fn touch(&mut self, tsc: u64) {
        if tsc > self.latest {
            self.latest = tsc;
        }
    }

    /// Close the wait at `tsc`, recording the edge now.
    pub fn close(mut self, tsc: u64) {
        self.touch(tsc);
        self.finish();
        self.armed = false;
    }

    fn finish(&self) {
        record_global(WaitEdge {
            core: self.core,
            tsc: self.begin,
            cycles: self.latest.saturating_sub(self.begin),
            cause: self.cause,
            peer: self.peer,
        });
    }
}

impl Drop for OpenWait {
    fn drop(&mut self) {
        if self.armed {
            self.finish();
        }
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

    #[test]
    fn open_wait_closes_on_explicit_close() {
        // Sentinel core so this test is immune to edges recorded by
        // other tests sharing the process-global log.
        const CORE: u32 = 9001;
        let guard = begin_global(CORE, 100, WaitCause::Gated, 0);
        guard.close(140);
        let mine: Vec<WaitEdge> = global_edges()
            .into_iter()
            .filter(|e| e.core == CORE)
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine.first().map(|e| e.cycles), Some(40));
    }

    #[test]
    fn open_wait_closes_when_worker_panics_mid_wait() {
        // S4: a worker panicking mid-wait must not leave a dangling
        // open edge — Drop during unwind records it.
        const CORE: u32 = 9002;
        let result = std::panic::catch_unwind(|| {
            let mut guard = begin_global(CORE, 50, WaitCause::Gated, 3);
            guard.touch(80);
            panic!("worker died mid-wait");
        });
        assert!(result.is_err());
        let mine: Vec<WaitEdge> = global_edges()
            .into_iter()
            .filter(|e| e.core == CORE)
            .collect();
        assert_eq!(mine.len(), 1, "panic left a dangling open edge");
        let closed = mine.first().copied();
        assert_eq!(closed.map(|e| e.cycles), Some(30));
        assert_eq!(closed.map(|e| e.cause), Some(WaitCause::Gated));
        assert_eq!(closed.map(|e| e.peer), Some(3));
    }

    #[test]
    fn poisoned_global_lock_still_records() {
        // S4: poison-tolerant lock path. Poison the global mutex by
        // panicking while holding it, then prove recording still works.
        const CORE: u32 = 9003;
        let _ = std::panic::catch_unwind(|| {
            let _guard = super::global().lock();
            panic!("poison the wait-log lock");
        });
        record_global(edge(CORE, 7, 11, WaitCause::RingEmpty, 1));
        let mine: Vec<WaitEdge> = global_edges()
            .into_iter()
            .filter(|e| e.core == CORE)
            .collect();
        assert_eq!(mine.len(), 1, "poisoned lock blocked edge recording");
    }
}
