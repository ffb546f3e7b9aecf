//! Flat profiles: the "averaged" view a trace is *not* (Fig. 1), plus
//! the §V.B.1 fallback formula.
//!
//! A profile cannot reveal per-item fluctuations, but it estimates the
//! average elapsed time of functions even shorter than the sample
//! interval: `T × n / N`, where `T` is the total observed time, `n` the
//! samples in the function and `N` all samples.

use crate::integrate::{IntegratedTrace, NO_FUNC};
use fluctrace_cpu::FuncId;
use fluctrace_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One function's profile line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// The function.
    pub func: FuncId,
    /// Samples whose IP resolved to the function.
    pub samples: u64,
    /// Estimated total time: `T·n/N`.
    pub total_time: SimDuration,
    /// Fraction of all samples (`n/N`).
    pub share: f64,
}

/// A flat (per-function, whole-run) profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlatProfile {
    entries: BTreeMap<FuncId, ProfileEntry>,
    /// Total observed time `T` used for scaling.
    pub window: SimDuration,
    /// Total number of samples `N` (including unresolvable IPs).
    pub total_samples: u64,
}

impl FlatProfile {
    /// Build a profile over the whole integrated trace.
    ///
    /// `T` is taken as the span between the first and last sample
    /// timestamps across the trace (per the §V.B.1 formula, any
    /// sufficiently long observation window works).
    pub fn from_integrated(it: &IntegratedTrace) -> FlatProfile {
        // Samples are sorted by (core, tsc); find the global span.
        let tsc = &it.cols.tsc;
        let window = match (tsc.iter().min(), tsc.iter().max()) {
            (Some(&min), Some(&max)) => it.freq.cycles_to_dur(max.wrapping_sub(min)),
            _ => SimDuration::ZERO,
        };
        Self::from_integrated_with_window(it, window)
    }

    /// Build a profile using an explicit observation window `T`.
    pub fn from_integrated_with_window(it: &IntegratedTrace, window: SimDuration) -> FlatProfile {
        let total = it.cols.len() as u64;
        let mut counts: BTreeMap<FuncId, u64> = BTreeMap::new();
        for &f in it.cols.func.iter().filter(|&&f| f != NO_FUNC) {
            *counts.entry(FuncId(f)).or_insert(0) += 1;
        }
        let entries = counts
            .into_iter()
            .map(|(func, n)| {
                let share = if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                };
                (
                    func,
                    ProfileEntry {
                        func,
                        samples: n,
                        total_time: window.mul_frac(n, total.max(1)),
                        share,
                    },
                )
            })
            .collect();
        FlatProfile {
            entries,
            window,
            total_samples: total,
        }
    }

    /// Profile line for `func`.
    pub fn get(&self, func: FuncId) -> Option<&ProfileEntry> {
        self.entries.get(&func)
    }

    /// Iterate entries ordered by function id.
    pub fn iter(&self) -> impl Iterator<Item = &ProfileEntry> {
        self.entries.values()
    }

    /// Entries sorted by total time, hottest first.
    pub fn hottest(&self) -> Vec<&ProfileEntry> {
        let mut v: Vec<&ProfileEntry> = self.entries.values().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.total_time));
        v
    }

    /// Number of functions observed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no functions were observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{CoreId, HwEvent, PebsRecord, SymbolTableBuilder, TraceBundle, NO_TAG};
    use fluctrace_sim::Freq;

    #[test]
    fn shares_follow_sample_counts() {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let g = b.add("g", 100);
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        // 3 samples in f, 1 in g, spanning 30000 cycles (10 µs at 3 GHz).
        let mk = |tsc, func: FuncId| PebsRecord {
            core: CoreId(0),
            tsc,
            ip: symtab.range(func).start,
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        };
        bundle.samples = vec![mk(0, f), mk(10_000, f), mk(20_000, g), mk(30_000, f)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let profile = FlatProfile::from_integrated(&it);
        assert_eq!(profile.total_samples, 4);
        assert_eq!(profile.window, fluctrace_sim::SimDuration::from_us(10));
        let pf = profile.get(f).unwrap();
        let pg = profile.get(g).unwrap();
        assert_eq!(pf.samples, 3);
        assert!((pf.share - 0.75).abs() < 1e-12);
        // T·n/N = 10us * 3/4 = 7.5us.
        assert_eq!(pf.total_time, fluctrace_sim::SimDuration::from_ns(7_500));
        assert_eq!(pg.total_time, fluctrace_sim::SimDuration::from_ns(2_500));
        assert_eq!(profile.hottest()[0].func, f);
    }

    #[test]
    fn empty_trace_profile() {
        let b = SymbolTableBuilder::new().build();
        let bundle = TraceBundle::default();
        let it = integrate(&bundle, &b, Freq::ghz(3), MappingMode::Intervals);
        let p = FlatProfile::from_integrated(&it);
        assert!(p.is_empty());
        assert_eq!(p.total_samples, 0);
    }

    #[test]
    fn profile_estimates_functions_shorter_than_interval() {
        // §V.B.1: a function shorter than the sample interval gets at
        // most one sample per execution, but across many executions the
        // share converges to its true time fraction.
        let mut b = SymbolTableBuilder::new();
        let short = b.add("short", 100);
        let long = b.add("long", 100);
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        // Simulate: "short" occupies 10% of time, sampled 10 times out
        // of 100 across the run.
        for i in 0..100u64 {
            let func = if i % 10 == 0 { short } else { long };
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc: i * 1000,
                ip: symtab.range(func).start,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
        }
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let p = FlatProfile::from_integrated(&it);
        assert!((p.get(short).unwrap().share - 0.10).abs() < 1e-12);
        assert!((p.get(long).unwrap().share - 0.90).abs() < 1e-12);
    }

    #[test]
    fn explicit_window_overrides() {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        bundle.samples = vec![PebsRecord {
            core: CoreId(0),
            tsc: 5,
            ip: symtab.range(f).start,
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        }];
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let p =
            FlatProfile::from_integrated_with_window(&it, fluctrace_sim::SimDuration::from_us(44));
        assert_eq!(
            p.get(f).unwrap().total_time,
            fluctrace_sim::SimDuration::from_us(44)
        );
    }
}
