//! Export integrated traces to the Chrome trace-event format, viewable
//! in `chrome://tracing` / Perfetto — the visualization a downstream
//! user actually loads Fig. 3-style data into.
//!
//! Mapping:
//! * each core becomes a thread track (`tid` = core id);
//! * each data-item interval becomes a complete event (`ph:"X"`) named
//!   `item #N` on its core's track;
//! * per-item per-function estimates become nested complete events laid
//!   end-to-end inside the item (start offsets from each function's
//!   first sample);
//! * individual samples can optionally be included as instant events
//!   (`ph:"i"`), which Perfetto renders as the black dots of Fig. 3.

use crate::estimate::EstimateTable;
use crate::integrate::{IntegratedTrace, NO_FUNC};
use crate::online::OnlineReport;
use fluctrace_cpu::{FuncId, SymbolTable};
use fluctrace_sim::Freq;
use serde_json::{json, Value};

/// Options for the export.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExportOptions {
    /// Include one instant event per sample (large traces get big fast:
    /// ~100 B of JSON per sample).
    pub include_samples: bool,
}

/// Build the trace-event JSON document.
pub fn chrome_trace(
    it: &IntegratedTrace,
    table: &EstimateTable,
    symtab: &SymbolTable,
    options: ExportOptions,
) -> Value {
    let freq = it.freq;
    let us = |tsc: u64| freq.cycles_to_dur(tsc).as_us_f64();
    let mut events: Vec<Value> = Vec::new();
    // Track names.
    let cols = &it.cols;
    let mut cores: Vec<u32> = it.intervals.iter().map(|iv| iv.core.0).collect();
    cores.extend(&cols.core);
    cores.sort_unstable();
    cores.dedup();
    for &core in &cores {
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": core,
            "args": {"name": format!("core{core}")},
        }));
    }
    // Item intervals.
    for iv in &it.intervals {
        events.push(json!({
            "name": format!("item {}", iv.item),
            "cat": "item",
            "ph": "X",
            "pid": 1,
            "tid": iv.core.0,
            "ts": us(iv.start_tsc),
            "dur": us(iv.cycles()),
            "args": {"item": iv.item.0},
        }));
    }
    // Function estimates nested inside each item: anchor each function
    // at its first attributed sample.
    for ie in table.items() {
        for fe in ie.funcs {
            if !fe.is_estimable() {
                continue;
            }
            // First row of {item, func} — the per-item index hands back
            // just this item's rows in trace order, instead of rescanning
            // every row per function.
            let first = it
                .rows_of_item(ie.item)
                .find(|&row| cols.func.get(row) == Some(&fe.func.0));
            let Some(row) = first else { continue };
            let (Some(&core), Some(&tsc)) = (cols.core.get(row), cols.tsc.get(row)) else {
                continue;
            };
            events.push(json!({
                "name": symtab.name(fe.func),
                "cat": "function",
                "ph": "X",
                "pid": 1,
                "tid": core,
                "ts": us(tsc),
                "dur": fe.elapsed.as_us_f64(),
                "args": {"item": ie.item.0, "samples": fe.samples},
            }));
        }
    }
    if options.include_samples {
        for ((&core, &tsc), &func) in cols.core.iter().zip(&cols.tsc).zip(&cols.func) {
            let name = if func == NO_FUNC {
                "?"
            } else {
                symtab.name(FuncId(func))
            };
            events.push(json!({
                "name": name,
                "cat": "sample",
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": core,
                "ts": us(tsc),
            }));
        }
    }
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": "fluctrace"},
    })
}

/// Export an online-tracing session as a trace-event document: one
/// complete event per flagged item (spanning its retained raw samples)
/// plus instant events for the raw samples themselves — what an
/// operator loads into Perfetto to inspect *only* the anomalies the
/// §IV.C.3 filter kept, without ever materializing the full trace.
pub fn anomaly_trace(report: &OnlineReport, symtab: &SymbolTable, freq: Freq) -> Value {
    let us = |tsc: u64| freq.cycles_to_dur(tsc).as_us_f64();
    let mut events: Vec<Value> = Vec::new();
    for a in &report.anomalies {
        let (Some(first), Some(last)) = (a.raw_samples.first(), a.raw_samples.last()) else {
            continue;
        };
        events.push(json!({
            "name": format!("anomaly {} ({})", a.item, symtab.name(a.func)),
            "cat": "anomaly",
            "ph": "X",
            "pid": 1,
            "tid": first.core.0,
            "ts": us(first.tsc),
            "dur": us(last.tsc.wrapping_sub(first.tsc)),
            "args": {
                "item": a.item.0,
                "elapsed_us": a.elapsed.as_us_f64(),
                "baseline_us": a.baseline_mean.as_us_f64(),
            },
        }));
        for s in &a.raw_samples {
            events.push(json!({
                "name": symtab.resolve(s.ip).map(|f| symtab.name(f).to_string())
                    .unwrap_or_else(|| "?".into()),
                "cat": "sample",
                "ph": "i",
                "s": "t",
                "pid": 1,
                "tid": s.core.0,
                "ts": us(s.tsc),
            }));
        }
    }
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "generator": "fluctrace-online",
            "items_processed": report.items_processed,
            "samples_lost": report.loss.samples_lost(),
        },
    })
}

/// Serialize the trace-event document to a JSON string.
pub fn chrome_trace_string(
    it: &IntegratedTrace,
    table: &EstimateTable,
    symtab: &SymbolTable,
    options: ExportOptions,
) -> String {
    serde_json::to_string(&chrome_trace(it, table, symtab, options)).expect("trace serializes")
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{
        CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, TraceBundle,
        NO_TAG,
    };
    use fluctrace_sim::Freq;

    fn setup() -> (IntegratedTrace, EstimateTable, SymbolTable) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("handle", 100);
        let symtab = b.build();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            MarkRecord {
                core: CoreId(0),
                tsc: 3_000,
                item: ItemId(1),
                kind: MarkKind::Start,
            },
            MarkRecord {
                core: CoreId(0),
                tsc: 33_000,
                item: ItemId(1),
                kind: MarkKind::End,
            },
        ];
        bundle.samples = vec![
            PebsRecord {
                core: CoreId(0),
                tsc: 6_000,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            },
            PebsRecord {
                core: CoreId(0),
                tsc: 30_000,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            },
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        (it, table, symtab)
    }

    #[test]
    fn emits_item_and_function_events() {
        let (it, table, symtab) = setup();
        let doc = chrome_trace(&it, &table, &symtab, ExportOptions::default());
        let events = doc["traceEvents"].as_array().unwrap();
        // thread_name + item + function.
        assert_eq!(events.len(), 3);
        let item = events.iter().find(|e| e["cat"] == "item").unwrap();
        assert_eq!(item["ph"], "X");
        assert_eq!(item["tid"], 0);
        assert!(
            (item["ts"].as_f64().unwrap() - 1.0).abs() < 1e-9,
            "3000 cycles = 1 us"
        );
        assert!((item["dur"].as_f64().unwrap() - 10.0).abs() < 1e-9);
        let func = events.iter().find(|e| e["cat"] == "function").unwrap();
        assert_eq!(func["name"], "handle");
        assert!((func["ts"].as_f64().unwrap() - 2.0).abs() < 1e-9);
        assert!((func["dur"].as_f64().unwrap() - 8.0).abs() < 1e-9);
        assert_eq!(func["args"]["item"], 1);
    }

    #[test]
    fn samples_included_on_request() {
        let (it, table, symtab) = setup();
        let doc = chrome_trace(
            &it,
            &table,
            &symtab,
            ExportOptions {
                include_samples: true,
            },
        );
        let events = doc["traceEvents"].as_array().unwrap();
        let samples: Vec<_> = events.iter().filter(|e| e["cat"] == "sample").collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0]["ph"], "i");
    }

    #[test]
    fn anomaly_trace_exports_flagged_items_only() {
        use crate::online::{OnlineAnomaly, OnlineReport};
        use fluctrace_sim::SimDuration;
        let mut b = SymbolTableBuilder::new();
        let f = b.add("handle", 100);
        let symtab = b.build();
        let ip = symtab.range(f).start;
        let sample = |tsc| PebsRecord {
            core: CoreId(0),
            tsc,
            ip,
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        };
        let mut report = OnlineReport {
            items_processed: 100,
            ..OnlineReport::default()
        };
        report.anomalies.push(OnlineAnomaly {
            item: ItemId(42),
            func: f,
            elapsed: SimDuration::from_us(10),
            baseline_mean: SimDuration::from_us(1),
            raw_samples: vec![sample(3_000), sample(33_000)],
        });
        let doc = anomaly_trace(&report, &symtab, Freq::ghz(3));
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3, "one span + two sample dots");
        let span = events.iter().find(|e| e["cat"] == "anomaly").unwrap();
        assert_eq!(span["name"], "anomaly #42 (handle)");
        assert!((span["dur"].as_f64().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(doc["otherData"]["items_processed"], 100);
    }

    #[test]
    fn string_form_parses_back() {
        let (it, table, symtab) = setup();
        let s = chrome_trace_string(&it, &table, &symtab, ExportOptions::default());
        let parsed: Value = serde_json::from_str(&s).unwrap();
        assert!(parsed["traceEvents"].is_array());
        assert_eq!(parsed["otherData"]["generator"], "fluctrace");
    }
}
