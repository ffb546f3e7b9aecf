//! Human-readable diagnosis reports: turn an [`EstimateTable`] and a
//! [`FluctuationReport`] into the text a performance engineer actually
//! reads, with function names resolved through the symbol table.

use crate::estimate::EstimateTable;
use crate::fluct::FluctuationReport;
use fluctrace_cpu::{ItemId, SymbolTable};
use std::fmt::Write as _;

/// Render one item's per-function breakdown.
pub fn item_breakdown(table: &EstimateTable, symtab: &SymbolTable, item: ItemId) -> String {
    let mut out = String::new();
    let Some(ie) = table.item(item) else {
        let _ = writeln!(out, "{item}: no data");
        return out;
    };
    match ie.marked_total {
        Some(total) => {
            let _ = writeln!(out, "{item}: total {total} (from marks)");
        }
        None => {
            let _ = writeln!(out, "{item}: (no marks; register-tag trace)");
        }
    }
    let mut funcs = ie.funcs.to_vec();
    funcs.sort_by_key(|fe| std::cmp::Reverse(fe.elapsed));
    for fe in &funcs {
        if fe.is_estimable() {
            let _ = writeln!(
                out,
                "  {:<24} {:>12}   ({} samples)",
                symtab.name(fe.func),
                fe.elapsed.to_string(),
                fe.samples
            );
        } else {
            let _ = writeln!(
                out,
                "  {:<24} {:>12}   ({} sample: below resolution)",
                symtab.name(fe.func),
                "<interval",
                fe.samples
            );
        }
    }
    if ie.unknown_func_samples > 0 {
        let _ = writeln!(
            out,
            "  {:<24} {:>12}   ({} samples outside the symbol table)",
            "<unknown>", "-", ie.unknown_func_samples
        );
    }
    out
}

/// Render a fluctuation report as diagnosis text, most severe first.
pub fn diagnosis(report: &FluctuationReport, symtab: &SymbolTable) -> String {
    let mut out = String::new();
    if !report.any() {
        let _ = writeln!(
            out,
            "no fluctuations above {}σ detected across {} group/function populations",
            report.threshold_sigmas,
            report.groups.len()
        );
        return out;
    }
    if !report.total_outliers.is_empty() {
        let _ = writeln!(
            out,
            "{} item(s) with anomalous total latency:",
            report.total_outliers.len()
        );
        for o in &report.total_outliers {
            let _ = writeln!(
                out,
                "  item {} (group {}): total {} vs group median {}",
                o.item, o.group, o.total, o.median
            );
        }
    }
    let _ = writeln!(
        out,
        "{} function-level fluctuation(s) (threshold {}σ):",
        report.outliers.len(),
        report.threshold_sigmas
    );
    for o in &report.outliers {
        let factor = if o.median.as_ps() > 0 {
            o.elapsed.as_ps() as f64 / o.median.as_ps() as f64
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "  item {} (group {}): {} took {} vs group median {} ({:.1}x)",
            o.item,
            o.group,
            symtab.name(o.func),
            o.elapsed,
            o.median,
            factor
        );
    }
    // Per-group context.
    let _ = writeln!(out, "group statistics:");
    for g in &report.groups {
        let _ = writeln!(
            out,
            "  {} / {:<20} n={:<4} median {} (min {}, max {})",
            g.group,
            symtab.name(g.func),
            g.count,
            g.median,
            g.min,
            g.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluct::detect;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{
        CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, TraceBundle, NO_TAG,
    };
    use fluctrace_sim::{Freq, SimDuration};

    fn setup() -> (EstimateTable, SymbolTable) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("fetch_rows", 100);
        let symtab = b.build();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        let mut t = 0u64;
        for (i, cycles) in [3_000u64, 3_000, 60_000, 3_000, 3_000].iter().enumerate() {
            bundle.marks.push(MarkRecord {
                core: CoreId(0),
                tsc: t,
                item: ItemId(i as u64),
                kind: MarkKind::Start,
            });
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc: t + 5,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc: t + 5 + cycles,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
            t += cycles + 500;
            bundle.marks.push(MarkRecord {
                core: CoreId(0),
                tsc: t,
                item: ItemId(i as u64),
                kind: MarkKind::End,
            });
            t += 100;
        }
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        (EstimateTable::from_integrated(&it), symtab)
    }

    #[test]
    fn breakdown_mentions_function_and_total() {
        let (table, symtab) = setup();
        let text = item_breakdown(&table, &symtab, ItemId(2));
        assert!(text.contains("#2"));
        assert!(text.contains("fetch_rows"));
        assert!(text.contains("total"));
        // Missing item handled gracefully.
        assert!(item_breakdown(&table, &symtab, ItemId(99)).contains("no data"));
    }

    #[test]
    fn diagnosis_names_the_culprit() {
        let (table, symtab) = setup();
        let report = detect(&table, |_| Some("q"), 3.0, SimDuration::from_us(1));
        let text = diagnosis(&report, &symtab);
        assert!(text.contains("1 function-level fluctuation(s)"));
        assert!(text.contains("anomalous total latency"));
        assert!(text.contains("item #2"));
        assert!(text.contains("fetch_rows"));
        assert!(text.contains("group statistics"));
    }

    #[test]
    fn clean_run_reports_no_fluctuations() {
        let (table, symtab) = setup();
        // Absurd absolute guard: nothing flagged (the group's MAD is 0,
        // so the sigma threshold alone would still fire on any item —
        // the min_abs guard is what turns detection off).
        let report = detect(&table, |_| Some("q"), 3.0, SimDuration::from_ms(1));
        let text = diagnosis(&report, &symtab);
        assert!(text.contains("no fluctuations"));
    }
}
