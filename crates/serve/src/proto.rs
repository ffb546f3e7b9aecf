//! The line-delimited request protocol and its JSON renderings.
//!
//! One request per connection: the client sends a single line, the
//! daemon answers with one JSON document (newline-terminated) and
//! closes. Grammar (see `SERVE.md`):
//!
//! ```text
//! request  = "snapshot" | "windows" SP count | "episodes" | "loss"
//!          | "table" | "drained" | "quiesce"
//! count    = 1*DIGIT
//! ```
//!
//! `snapshot` renders through the obs exporter ([`Snapshot::to_json`])
//! so its bytes are canonical: ordered keys, stable formatting — two
//! queries against a drained daemon compare byte-equal. An HTTP `GET`
//! on the same listener is answered with the Prometheus rendering of
//! the **global** obs registry (`/metrics`), full pinned catalog plus
//! the live `serve.*` series.

use crate::daemon::ShardView;
use fluctrace_core::{Episode, EstimateTable, FoldedTotals, LossStats};
use fluctrace_obs::Snapshot;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// A parsed protocol request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Full counter/gauge snapshot, canonical JSON.
    Snapshot,
    /// Metadata of the most recent `k` retained windows per shard.
    Windows(usize),
    /// Retained anomaly episodes per shard.
    Episodes,
    /// The composed 11-counter loss ledger, per shard and total.
    Loss,
    /// Cumulative tables (exact) or folded totals per shard.
    Table,
    /// Whether every shard has drained (bounded runs).
    Drained,
    /// Stop traffic, drain all shards, answer with the final state,
    /// and shut the daemon down.
    Quiesce,
}

/// Parse one request line.
pub fn parse(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let cmd = words.next().unwrap_or("");
    let arg = words.next();
    if words.next().is_some() {
        return Err(format!("trailing arguments after {cmd:?}"));
    }
    match (cmd, arg) {
        ("snapshot", None) => Ok(Request::Snapshot),
        ("windows", Some(k)) => k
            .parse::<usize>()
            .map(Request::Windows)
            .map_err(|_| format!("windows: bad count {k:?}")),
        ("windows", None) => Err("windows: missing count".to_string()),
        ("episodes", None) => Ok(Request::Episodes),
        ("loss", None) => Ok(Request::Loss),
        ("table", None) => Ok(Request::Table),
        ("drained", None) => Ok(Request::Drained),
        ("quiesce", None) => Ok(Request::Quiesce),
        _ => Err(format!(
            "unknown request {line:?} (expected snapshot | windows <k> | episodes | loss | table | drained | quiesce)"
        )),
    }
}

/// Render a protocol error as the error document. The detail may
/// quote client input; it is rendered as a JSON string.
pub fn error_doc(detail: &str) -> String {
    let detail = serde_json::to_string(detail).unwrap_or_else(|_| String::from("\"\""));
    format!("{{\"error\":{detail}}}")
}

fn shard_prefix(id: u32) -> String {
    format!("serve.shard{id:03}")
}

/// Build the local snapshot document: `serve.total.*` aggregates plus
/// per-shard `serve.shardNNN.*` entries, rendered through the obs
/// exporter. Local — not the global registry — so the bytes depend
/// only on this daemon's state and freeze once the shards drain.
pub fn snapshot_doc(shards: &[ShardView]) -> Snapshot {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();

    let mut total_loss = LossStats::default();
    let mut busy_total = 0u64;
    let mut idle_total = 0u64;
    let mut occ_max = 0u64;
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for view in shards {
        let c = &view.counters;
        let (report, loss) = {
            let wi = view.integrator.lock();
            (wi.report(), c.shed.fold(wi.loss()))
        };
        let prefix = shard_prefix(view.id);
        let fields: [(&'static str, u64); 8] = [
            (
                "batches_ingested",
                c.batches_ingested.load(Ordering::Acquire),
            ),
            (
                "batches_produced",
                c.batches_produced.load(Ordering::Acquire),
            ),
            ("items", report.items_processed),
            ("samples_attributed", report.samples_attributed),
            ("samples_seen", report.samples_seen),
            ("episodes", report.episodes),
            ("windows_closed", report.windows_closed),
            ("windows_evicted", report.windows_evicted),
        ];
        for (name, value) in fields {
            counters.insert(format!("{prefix}.{name}"), value);
            *totals.entry(name).or_insert(0) += value;
        }
        for (name, value) in loss.named() {
            counters.insert(format!("{prefix}.loss.{name}"), value);
        }
        total_loss += loss;

        // Satellite: the `ring_empty` WaitLog folded into utilization.
        let (edges, ring_cycles, dropped) = {
            let log = view.wait.lock();
            let cycles = log
                .cycles_by_cause()
                .get("ring_empty")
                .copied()
                .unwrap_or(0);
            (log.len() as u64, cycles, log.dropped())
        };
        counters.insert(format!("{prefix}.wait.ring_empty_edges"), edges);
        counters.insert(format!("{prefix}.wait.ring_empty_cycles"), ring_cycles);
        counters.insert(format!("{prefix}.wait.dropped"), dropped);

        let busy = c.busy_ticks.load(Ordering::Acquire);
        let idle = c.idle_ticks.load(Ordering::Acquire);
        busy_total += busy;
        idle_total += idle;
        gauges.insert(
            format!("{prefix}.worker.utilization_milli"),
            c.utilization_milli(),
        );
        let occ = c.occupancy_milli.load(Ordering::Acquire);
        occ_max = occ_max.max(occ);
        gauges.insert(format!("{prefix}.queue.occupancy_milli"), occ);
    }

    for (name, value) in totals {
        counters.insert(format!("serve.total.{name}"), value);
    }
    for (name, value) in total_loss.named() {
        counters.insert(format!("serve.total.loss.{name}"), value);
    }
    counters.insert("serve.total.shards".to_string(), shards.len() as u64);

    let total_ticks = busy_total.saturating_add(idle_total);
    gauges.insert(
        "serve.total.worker.utilization_milli".to_string(),
        busy_total
            .saturating_mul(1000)
            .checked_div(total_ticks)
            .unwrap_or(0),
    );
    gauges.insert("serve.total.queue.occupancy_milli".to_string(), occ_max);

    Snapshot {
        counters,
        gauges,
        histograms: BTreeMap::new(),
    }
}

#[derive(Serialize)]
struct WindowMeta {
    index: u64,
    items: u64,
    samples: u64,
    anomalies: u64,
}

#[derive(Serialize)]
struct ShardWindows {
    shard: u32,
    windows_closed: u64,
    windows_evicted: u64,
    retained: Vec<WindowMeta>,
}

#[derive(Serialize)]
struct WindowsDoc {
    shards: Vec<ShardWindows>,
}

/// Render the `windows <k>` document: the newest `k` retained window
/// summaries of every shard, metadata only (the raw per-window tables
/// stay inside the daemon; `table` serves the cumulative artifact).
pub fn windows_doc(shards: &[ShardView], k: usize) -> String {
    let doc = WindowsDoc {
        shards: shards
            .iter()
            .map(|view| {
                let wi = view.integrator.lock();
                let skip = wi.windows().count().saturating_sub(k);
                ShardWindows {
                    shard: view.id,
                    windows_closed: wi.windows_closed(),
                    windows_evicted: wi.report().windows_evicted,
                    retained: wi
                        .windows()
                        .skip(skip)
                        .map(|w| WindowMeta {
                            index: w.index,
                            items: w.items,
                            samples: w.samples,
                            anomalies: w.anomalies,
                        })
                        .collect(),
                }
            })
            .collect(),
    };
    let windows: usize = doc.shards.iter().map(|s| s.retained.len()).sum();
    render(
        &doc,
        doc.shards.len() * SHARD_BYTES + windows * WINDOW_BYTES,
    )
}

#[derive(Serialize)]
struct ShardEpisodes {
    shard: u32,
    total: u64,
    retained: Vec<Episode>,
}

#[derive(Serialize)]
struct EpisodesDoc {
    shards: Vec<ShardEpisodes>,
}

/// Render the `episodes` document.
pub fn episodes_doc(shards: &[ShardView]) -> String {
    let doc = EpisodesDoc {
        shards: shards
            .iter()
            .map(|view| {
                let wi = view.integrator.lock();
                ShardEpisodes {
                    shard: view.id,
                    total: wi.report().episodes,
                    retained: wi.episodes().copied().collect(),
                }
            })
            .collect(),
    };
    let episodes: usize = doc.shards.iter().map(|s| s.retained.len()).sum();
    render(
        &doc,
        doc.shards.len() * SHARD_BYTES + episodes * EPISODE_BYTES,
    )
}

#[derive(Serialize)]
struct ShardLoss {
    shard: u32,
    loss: LossStats,
    conserves_samples: bool,
}

#[derive(Serialize)]
struct LossDoc {
    total: LossStats,
    shards: Vec<ShardLoss>,
}

/// Render the `loss` document: the integrator ledger composed with the
/// producer-side shed counters, per shard and summed.
pub fn loss_doc(shards: &[ShardView]) -> String {
    let mut total = LossStats::default();
    let rows: Vec<ShardLoss> = shards
        .iter()
        .map(|view| {
            let (loss, conserves) = {
                let wi = view.integrator.lock();
                (
                    view.counters.shed.fold(wi.loss()),
                    wi.report().conserves_samples(),
                )
            };
            total += loss;
            ShardLoss {
                shard: view.id,
                loss,
                conserves_samples: conserves,
            }
        })
        .collect();
    let capacity = (rows.len() + 1) * (SHARD_BYTES + LOSS_BYTES);
    render(
        &LossDoc {
            total,
            shards: rows,
        },
        capacity,
    )
}

#[derive(Serialize)]
struct ShardTable {
    shard: u32,
    mode: &'static str,
    table: Option<EstimateTable>,
    folded: FoldedTotals,
}

#[derive(Serialize)]
struct TablesDoc {
    shards: Vec<ShardTable>,
}

/// Render the `table` document: per shard, the exact cumulative
/// [`EstimateTable`] (the drain-equality surface — byte-identical to
/// the batch pipeline on the same stream) or, in folded mode, `null`
/// plus the per-function totals. `folded` is present in both modes so
/// the two can be cross-checked.
pub fn tables_doc(shards: &[ShardView]) -> String {
    let doc = TablesDoc {
        shards: shards
            .iter()
            .map(|view| {
                let wi = view.integrator.lock();
                let table = wi.cumulative_table();
                ShardTable {
                    shard: view.id,
                    mode: if table.is_some() { "exact" } else { "folded" },
                    table,
                    folded: wi.folded_totals(),
                }
            })
            .collect(),
    };
    // `EstimateTable::write_json` reserves for its own rows.
    render(&doc, doc.shards.len() * SHARD_BYTES)
}

/// Render the `drained` document.
pub fn drained_doc(shards: &[ShardView]) -> String {
    let drained = shards
        .iter()
        .all(|v| v.counters.drained.load(Ordering::Acquire));
    format!("{{\"drained\":{drained}}}")
}

/// Bytes a reply reserves per part, a little over what each takes with
/// the numbers of a typical run (a shard's own fields about 70, a
/// retained window 55, an episode 92, a loss ledger 260), so that the
/// reply is written without growing its buffer.
const SHARD_BYTES: usize = 96;
/// See [`SHARD_BYTES`].
const WINDOW_BYTES: usize = 80;
/// See [`SHARD_BYTES`].
const EPISODE_BYTES: usize = 128;
/// See [`SHARD_BYTES`].
const LOSS_BYTES: usize = 320;

/// `doc`'s JSON, written into a buffer of `capacity` bytes.
fn render<T: Serialize>(doc: &T, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    doc.write_json(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar() {
        assert_eq!(parse("snapshot"), Ok(Request::Snapshot));
        assert_eq!(parse("  windows 5 "), Ok(Request::Windows(5)));
        assert_eq!(parse("episodes"), Ok(Request::Episodes));
        assert_eq!(parse("loss"), Ok(Request::Loss));
        assert_eq!(parse("table"), Ok(Request::Table));
        assert_eq!(parse("drained"), Ok(Request::Drained));
        assert_eq!(parse("quiesce"), Ok(Request::Quiesce));
    }

    #[test]
    fn error_doc_escapes_client_bytes() {
        // A request with a quote, a backslash, a tab and a U+0001: the
        // parse error quotes it (`{:?}`), and the document escapes that.
        let request = "x\"\\\t\u{1}";
        let detail = parse(request).err().unwrap_or_default();
        assert_eq!(
            error_doc(&detail),
            r#"{"error":"unknown request \"x\\\"\\\\\\t\\u{1}\" (expected snapshot | windows <k> | episodes | loss | table | drained | quiesce)"}"#
        );
        // The same characters raw in a detail.
        assert_eq!(error_doc(request), r#"{"error":"x\"\\\t\u0001"}"#);
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(parse("").is_err());
        assert!(parse("windows").is_err());
        assert!(parse("windows x").is_err());
        assert!(parse("snapshot extra").is_err());
        assert!(parse("nonsense").is_err());
    }
}
