//! serve-bench — the `fluctrace-serve` daemon's steady-state contract
//! (`BENCH_serve.json`).
//!
//! The daemon's claim is steady-state: N shard pipelines under
//! continuous traffic, windows closing and evicting indefinitely, with
//! a drained shutdown whose cumulative table is byte-identical to the
//! equivalent one-shot batch run. This harness spins up a real daemon
//! (real socket, real shard threads), drives a bounded run long enough
//! to close ≥ 64 windows at a bounded retention ring, and records:
//!
//! * **drain equality** — each shard's `table` response compared
//!   byte-for-byte against `EstimateTable::from_integrated` over an
//!   offline replay of that shard's exact traffic;
//! * **snapshot stability** — the drained `snapshot` document fetched
//!   twice and compared byte-for-byte;
//! * **losslessness** and the item / sample / window counts.
//!
//! It reads no clock, so the document is byte-stable for a given seed.
//! Daemon throughput is `samples_per_s` @ `serve_steady` in the
//! benchmark (`benchmark/README.md`).

use fluctrace_core::{integrate, EstimateTable, MappingMode};
use fluctrace_cpu::TraceBundle;
use fluctrace_serve::{build_symtab, query, Daemon, ServeConfig, TrafficGen};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Schema tag of `BENCH_serve.json`.
pub const SCHEMA: &str = "fluctrace.bench.serve.v2";

/// The persisted `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBench {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Entry label (usually the git rev or "HEAD").
    pub label: String,
    /// Shard pipelines the daemon ran.
    pub shards: u64,
    /// Producer cores per shard.
    pub cores: u64,
    /// Items per integration window.
    pub window_items: u64,
    /// Retained-window ring size (eviction bound).
    pub max_windows: u64,
    /// Traffic batches each producer core submitted.
    pub batches: u64,
    /// Items completed across all shards.
    pub items: u64,
    /// Samples attributed across all shards.
    pub samples: u64,
    /// Windows closed across all shards.
    pub windows_closed: u64,
    /// Windows evicted by the retention rings.
    pub windows_evicted: u64,
    /// Bytes reclaimed by eviction (approximation the ring tracks).
    pub evicted_bytes: u64,
    /// Every shard's drained cumulative table was byte-identical to the
    /// offline batch replay of its traffic.
    pub drain_matches_batch: bool,
    /// The drained snapshot document was byte-stable across two reads.
    pub snapshot_stable: bool,
    /// Every shard conserved samples and shed nothing (lossless mode).
    pub verified: bool,
}

/// The benchmark daemon shape: lossless (blocking submission, adaptive
/// degradation off) so drain equality is a hard invariant, sized so the
/// run closes at least 64 windows against an 8-window retention ring.
pub fn bench_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed);
    cfg.shards = 2;
    cfg.cores = 4;
    cfg.window.window_items = 32;
    cfg.window.max_windows = 8;
    cfg.max_batches = Some(128);
    cfg
}

/// Offline replay of one shard's exact traffic through the batch
/// pipeline — the golden its drained `table` response must reproduce.
fn batch_table_json(cfg: &ServeConfig, shard: u32) -> String {
    let symtab = build_symtab(cfg.funcs);
    let mut traffic = TrafficGen::new(cfg, shard, Arc::clone(&symtab));
    let mut all = TraceBundle::default();
    for _ in 0..cfg.max_batches.unwrap_or(0) {
        all.merge(traffic.next_batch());
    }
    all.sort();
    let it = integrate(&all, &symtab, cfg.window.freq, MappingMode::Intervals);
    serde_json::to_string(&EstimateTable::from_integrated(&it)).unwrap_or_default()
}

/// Run the serve benchmark: daemon up, bounded traffic to drain,
/// equality checks, daemon down.
pub fn measure_serve(label: &str, seed: u64) -> Result<ServeBench, String> {
    let cfg = bench_config(seed);
    let daemon = Daemon::start(cfg, "127.0.0.1:0")?;
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let tables = query(&addr, "table")?;
    let mut drain_matches_batch = true;
    for shard in 0..cfg.shards as u32 {
        if !tables.contains(&batch_table_json(&cfg, shard)) {
            drain_matches_batch = false;
        }
    }
    let snapshot_stable = query(&addr, "snapshot")? == query(&addr, "snapshot")?;

    let mut items = 0u64;
    let mut samples = 0u64;
    let mut windows_closed = 0u64;
    let mut windows_evicted = 0u64;
    let mut evicted_bytes = 0u64;
    let mut verified = true;
    for view in daemon.shards() {
        let report = view.integrator.lock().report();
        items += report.items_processed;
        samples += report.samples_attributed;
        windows_closed += report.windows_closed;
        windows_evicted += report.windows_evicted;
        evicted_bytes += report.evicted_bytes;
        verified &= report.conserves_samples()
            && report.loss.batches_dropped == 0
            && report.loss.samples_dropped == 0
            && report.loss.samples_thinned == 0;
    }
    daemon.quiesce();
    daemon.join();

    Ok(ServeBench {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        shards: cfg.shards as u64,
        cores: u64::from(cfg.cores),
        window_items: cfg.window.window_items,
        max_windows: cfg.window.max_windows as u64,
        batches: cfg.max_batches.unwrap_or(0),
        items,
        samples,
        windows_closed,
        windows_evicted,
        evicted_bytes,
        drain_matches_batch,
        snapshot_stable,
        verified,
    })
}

impl ServeBench {
    /// Write pretty JSON to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            }
        }
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Gate verdict: the run must be lossless, drain-equal, byte-stable,
    /// and sustain ≥ 64 closed windows under the bounded ring.
    pub fn gate(&self) -> (bool, String) {
        let pass = self.verified
            && self.drain_matches_batch
            && self.snapshot_stable
            && self.windows_closed >= 64;
        let detail = format!(
            "{} windows closed / {} evicted, \
             drain==batch: {}, snapshot stable: {}, lossless: {} -> {}",
            self.windows_closed,
            self.windows_evicted,
            self.drain_matches_batch,
            self.snapshot_stable,
            self.verified,
            if pass { "PASS" } else { "FAIL" }
        );
        (pass, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_closes_enough_windows_and_drains_equal() {
        let bench = measure_serve("test", 7).expect("daemon runs");
        assert!(bench.windows_closed >= 64, "{}", bench.windows_closed);
        assert!(bench.windows_evicted > 0);
        assert!(bench.drain_matches_batch);
        assert!(bench.snapshot_stable);
        assert!(bench.verified);
    }

    #[test]
    fn gate_fails_on_any_broken_invariant() {
        let mut b = ServeBench {
            schema: SCHEMA.into(),
            label: "t".into(),
            shards: 2,
            cores: 4,
            window_items: 32,
            max_windows: 8,
            batches: 128,
            items: 4096,
            samples: 32768,
            windows_closed: 128,
            windows_evicted: 112,
            evicted_bytes: 1,
            drain_matches_batch: true,
            snapshot_stable: true,
            verified: true,
        };
        assert!(b.gate().0);
        b.drain_matches_batch = false;
        assert!(!b.gate().0);
        b.drain_matches_batch = true;
        b.windows_closed = 63;
        assert!(!b.gate().0);
    }
}
