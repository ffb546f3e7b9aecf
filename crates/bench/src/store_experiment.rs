//! store-bench — compression ratio of the columnar on-disk trace store
//! (`BENCH_store.json`).
//!
//! The paper's case study writes hundreds of MB/s of raw PEBS data
//! (§IV.C); the store's job is to make persisting that stream cheap.
//! This harness quantifies the volume side of the claim on the
//! ~1 M-sample perf-hunt workload:
//!
//! * **compression ratio** — columnar store bytes vs the
//!   `export::anomaly_trace` JSON document of a flag-everything online
//!   run over the same trace (the dump format the online tracer would
//!   otherwise emit per divergence);
//! * **redundancy suppression** — the Arafa-style elision pass on a
//!   locality-quantized twin of the workload (every sample IP snapped
//!   to its function entry, the hot-loop shape suppression targets),
//!   with the exactness ledger replayed and verified.
//!
//! Every run re-verifies bit-exact round-trips before any number is
//! recorded. Nothing here reads a clock: how fast the store writes and
//! reads is `store.write.*` / `store.read.*` in the repository's
//! benchmark (`benchmark/README.md`), the one place time is measured.

use crate::perf_hunt::{synth_workload, HuntConfig};
use fluctrace_core::anomaly_trace;
use fluctrace_core::online::{OnlineConfig, OnlineTracer};
use fluctrace_cpu::{SymbolTable, TraceBundle};
use fluctrace_sim::Freq;
use fluctrace_store::{StoreConfig, TraceReader, TraceWriter};
use serde::{Deserialize, Serialize};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;

/// Schema tag of `BENCH_store.json`.
pub const SCHEMA: &str = "fluctrace.bench.store.v2";

/// The persisted `BENCH_store.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreBench {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Entry label (usually the git rev or "HEAD").
    pub label: String,
    /// Sample rows in the workload.
    pub samples: u64,
    /// Mark rows in the workload.
    pub marks: u64,
    /// Bytes of the `anomaly_trace` JSON baseline.
    pub json_bytes: u64,
    /// Bytes of the unsuppressed columnar store.
    pub store_bytes: u64,
    /// `json_bytes / store_bytes` — the headline compression ratio.
    pub ratio_json_over_store: f64,
    /// Unsuppressed store bytes of the locality-quantized twin.
    pub locality_bytes: u64,
    /// Suppressed store bytes of the same twin.
    pub locality_suppressed_bytes: u64,
    /// Sample rows elided by suppression on the twin.
    pub elided: u64,
    /// `locality_bytes / locality_suppressed_bytes`.
    pub suppression_ratio: f64,
    /// All round-trips (plain and ledger-replayed) compared bit-exact.
    pub verified: bool,
}

/// Snap every sample IP to its function's entry address — the shape a
/// tight instrumented loop produces, and the redundancy the
/// suppression pass exists to elide.
pub fn quantize_ips(bundle: &TraceBundle, symtab: &SymbolTable) -> TraceBundle {
    let mut out = bundle.clone();
    for s in &mut out.samples {
        if let Some(f) = symtab.resolve(s.ip) {
            s.ip = symtab.range(f).start;
        }
    }
    out
}

fn write_to_vec(bundle: &TraceBundle, config: StoreConfig) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), config).expect("vec write cannot fail");
    w.append(bundle).expect("vec write cannot fail");
    let (bytes, _) = w.finish().expect("vec write cannot fail");
    bytes
}

fn read_back(bytes: &[u8]) -> TraceBundle {
    TraceReader::open(Cursor::new(bytes))
        .and_then(|mut r| r.read_bundle())
        .expect("just-written store must read back")
}

/// JSON-baseline bytes: the `anomaly_trace` document of a
/// flag-everything online run (divergence factor 0, no warmup), i.e.
/// every item dumps its raw samples — the volume the store replaces.
pub fn json_baseline_bytes(bundle: &TraceBundle, symtab: &Arc<SymbolTable>, freq: Freq) -> u64 {
    let mut cfg = OnlineConfig::new(freq);
    cfg.divergence_factor = 0.0;
    cfg.warmup = 0;
    let tracer = OnlineTracer::spawn(Arc::clone(symtab), cfg);
    tracer.submit(bundle.clone()).expect("worker alive");
    let report = tracer.finish().expect("no worker panic");
    let doc = anomaly_trace(&report, symtab, freq);
    let text = serde_json::to_string(&doc).expect("json serialization");
    text.len() as u64
}

/// Run the store benchmark on the (env-scaled) perf-hunt workload.
pub fn measure_store(label: &str) -> StoreBench {
    let hunt = HuntConfig::from_env();
    let (bundle, symtab) = synth_workload(&hunt);
    let symtab = Arc::new(symtab);
    let freq = Freq::ghz(3);

    let json_bytes = json_baseline_bytes(&bundle, &symtab, freq);

    // The unsuppressed store, read back bit-exact.
    let config = StoreConfig::from_env();
    let bytes = write_to_vec(&bundle, config);
    let store_bytes = bytes.len() as u64;
    let back = read_back(&bytes);
    let mut verified = back.samples == bundle.samples && back.marks == bundle.marks;

    // Suppression on the locality-quantized twin, ledger verified.
    let twin = quantize_ips(&bundle, &symtab);
    let locality_bytes = write_to_vec(&twin, config).len() as u64;
    let mut sup = StoreConfig::suppressed(1 << 20);
    sup.chunk_rows = config.chunk_rows;
    let mut w = TraceWriter::new(Vec::new(), sup).expect("vec write cannot fail");
    w.append(&twin).expect("vec write cannot fail");
    let (sup_bytes, stats) = w.finish().expect("vec write cannot fail");
    let elided = stats.elided;
    verified &= read_back(&sup_bytes).samples == twin.samples;

    StoreBench {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        samples: bundle.samples.len() as u64,
        marks: bundle.marks.len() as u64,
        json_bytes,
        store_bytes,
        ratio_json_over_store: json_bytes as f64 / store_bytes.max(1) as f64,
        locality_bytes,
        locality_suppressed_bytes: sup_bytes.len() as u64,
        elided,
        suppression_ratio: locality_bytes as f64 / sup_bytes.len().max(1) as f64,
        verified,
    }
}

impl StoreBench {
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

    /// Gate verdict: the whole point of the store is beating the JSON
    /// dump format by a wide margin; fail below `floor`.
    pub fn gate(&self, floor: f64) -> (bool, String) {
        let pass = self.verified && self.ratio_json_over_store >= floor;
        let detail = format!(
            "compression {:.1}x vs JSON (floor {floor:.1}x), suppression {:.2}x \
             ({} rows elided), verified={} -> {}",
            self.ratio_json_over_store,
            self.suppression_ratio,
            self.elided,
            self.verified,
            if pass { "PASS" } else { "FAIL" }
        );
        (pass, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HuntConfig {
        HuntConfig {
            cores: 2,
            items_per_core: 60,
            samples_per_item: 12,
            funcs: 32,
            threads: 1,
            ..HuntConfig::default()
        }
    }

    #[test]
    fn quantized_twin_is_heavily_suppressible() {
        let (bundle, symtab) = synth_workload(&tiny());
        let twin = quantize_ips(&bundle, &symtab);
        let mut w = TraceWriter::new(Vec::new(), StoreConfig::suppressed(1 << 20)).unwrap();
        w.append(&twin).unwrap();
        let (bytes, stats) = w.finish().unwrap();
        assert!(
            stats.elided as f64 > twin.samples.len() as f64 * 0.5,
            "only {} of {} elided",
            stats.elided,
            twin.samples.len()
        );
        // Ledger replay still reconstructs every row bit-exact.
        let back = read_back(&bytes);
        assert_eq!(back.samples, twin.samples);
    }

    #[test]
    fn store_beats_json_baseline_on_a_small_workload() {
        let (bundle, symtab) = synth_workload(&tiny());
        let symtab = Arc::new(symtab);
        let json = json_baseline_bytes(&bundle, &symtab, Freq::ghz(3));
        let store = write_to_vec(&bundle, StoreConfig::default()).len() as u64;
        assert!(
            json as f64 / store as f64 >= 3.0,
            "json {json} vs store {store}"
        );
    }

    #[test]
    fn gate_fails_below_floor_and_on_unverified_runs() {
        let mut b = StoreBench {
            schema: SCHEMA.into(),
            label: "t".into(),
            samples: 1,
            marks: 0,
            json_bytes: 100,
            store_bytes: 10,
            ratio_json_over_store: 10.0,
            locality_bytes: 10,
            locality_suppressed_bytes: 5,
            elided: 1,
            suppression_ratio: 2.0,
            verified: true,
        };
        assert!(b.gate(3.0).0);
        assert!(!b.gate(20.0).0);
        b.verified = false;
        assert!(!b.gate(3.0).0);
    }
}
