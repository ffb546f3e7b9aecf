//! `--store` / `--from-store` plumbing of the `figures` binary.
//!
//! Any entry that produces raw trace bundles can spill them to the
//! columnar on-disk store (`--store <path>`, one segment per run) and
//! later replay a store instead of re-running the experiment
//! (`--from-store <path>`). The store layer is transparent by
//! construction — the conformance suite pins write→read bit-exact — so
//! a replayed bundle feeds the same pipeline the live run would. Both
//! flags are parsed with `--obs` by [`crate::obs_support::init`].
//!
//! Knobs: `FLUCTRACE_STORE_CHUNK` re-chunks files (decoded rows are
//! pinned unchanged by the metamorphic suite) and
//! `FLUCTRACE_STORE_SUPPRESS=<tolerance>` turns on redundancy
//! suppression with the given TSC tolerance.

use fluctrace_cpu::TraceBundle;
use fluctrace_store::{StoreConfig, TraceReader, WriteStats};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// Environment knob enabling redundancy suppression in spills.
pub const SUPPRESS_ENV: &str = "FLUCTRACE_STORE_SUPPRESS";

/// The spill configuration: chunking from `FLUCTRACE_STORE_CHUNK`,
/// suppression from [`SUPPRESS_ENV`].
pub fn spill_config() -> StoreConfig {
    let mut cfg = StoreConfig::from_env();
    if let Some(tol) = std::env::var(SUPPRESS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg.suppress = true;
        cfg.tolerance = tol;
    }
    cfg
}

/// Write `bundles` to `path` as consecutive segments under `config`,
/// returning the summed stats.
pub fn write_segments(
    path: &Path,
    bundles: &[&TraceBundle],
    config: StoreConfig,
) -> Result<WriteStats, String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let (mut sink, total) = fluctrace_store::write_bundles(BufWriter::new(file), bundles, config)
        .map_err(|e| e.to_string())?;
    use std::io::Write as _;
    sink.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(total)
}

/// Open `path` and read everything back: the per-segment table, the
/// merged totals, and the elision ledger. Returns the merged bundle so
/// an entry can feed it back into its pipeline.
pub fn replay(path: &Path) -> Result<TraceBundle, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut reader = TraceReader::open(file).map_err(|e| e.to_string())?;
    println!(
        "[store] {}: {} segment(s)",
        path.display(),
        reader.segments()
    );
    for (i, seg) in reader.segment_meta().iter().enumerate() {
        let f = &seg.footer;
        let (samples, marks) = f.logical_rows();
        println!(
            "  segment {i}: {} samples, {} marks, {} chunk(s), suppress={}",
            samples,
            marks,
            f.chunks.len(),
            f.suppress
        );
    }
    let (samples, marks) = reader.logical_rows();
    if let Some((lo, hi)) = reader.sample_tsc_bounds() {
        println!("  tsc span: [{lo}, {hi}]");
    }
    let (_, elision) = reader.read_retained().map_err(|e| e.to_string())?;
    let bundle = reader.read_bundle().map_err(|e| e.to_string())?;
    println!(
        "  replayed {} samples ({} reconstructed from ledgers) + {} marks",
        samples, elision.elided, marks
    );
    debug_assert_eq!(bundle.samples.len() as u64, samples);
    debug_assert_eq!(bundle.marks.len() as u64, marks);
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluctrace_cpu::{CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, VirtAddr};

    fn bundle(seed: u64) -> TraceBundle {
        let mut b = TraceBundle::default();
        for i in 0..200u64 {
            b.samples.push(PebsRecord {
                core: CoreId((i % 2) as u32),
                tsc: seed + i * 50,
                ip: VirtAddr(4096 + (i % 7) * 16),
                r13: i / 3,
                event: HwEvent::UopsRetired,
            });
            if i % 20 == 0 {
                b.marks.push(MarkRecord {
                    core: CoreId(0),
                    tsc: seed + i * 50,
                    item: ItemId(i),
                    kind: MarkKind::Start,
                });
            }
        }
        b
    }

    #[test]
    fn spill_and_replay_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("fluctrace-store-{}", std::process::id()));
        let path = dir.join("spill.flt");
        let (a, b) = (bundle(1_000), bundle(900_000));
        let stats = write_segments(&path, &[&a, &b], StoreConfig::default()).unwrap();
        assert_eq!(stats.samples, 400);
        let replayed = replay(&path).unwrap();
        let mut expect = a;
        expect.merge(b);
        assert_eq!(replayed.samples, expect.samples);
        assert_eq!(replayed.marks, expect.marks);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
