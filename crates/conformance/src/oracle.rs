//! The naive reference implementations ("oracles").
//!
//! Everything here favours obviousness over speed: attribution is a
//! brute-force scan over all intervals per sample (or, in register-tag
//! mode, a reading of each sample's tag), estimates are built with one
//! `BTreeMap` insert per observation, and the online replay is a
//! literal transcription of the documented per-core state machine.
//! The oracles share **no code** with `fluctrace-core` beyond the plain
//! data types (`MarkRecord`, `PebsRecord`, `SymbolTable`, `Freq`), so a
//! bug in the real pipeline's sharding, merge cursors, span folding or
//! channel plumbing cannot cancel out here.
//!
//! ## Canonical event order
//!
//! Both pipelines process records in the order `TraceBundle::sort`
//! establishes: samples by `(core, tsc)`, marks by `(core, tsc)` with
//! `End` before `Start` on ties, and — when marks and samples collide on
//! one `(core, tsc)` — samples before a coincident `End` (the sample
//! still belongs to the closing item) but after a lone coincident
//! `Start` (the sample belongs to the opening item). Where an `End` and
//! a `Start` share the sample's tick, the `End` comes first and the
//! sample still goes before it: the closing item owns it (no item does
//! when that `End` is malformed). The oracles
//! re-derive that order with plain stable sorts and a two-cursor walk,
//! then apply the dumbest data structures that can express the
//! semantics.

use fluctrace_cpu::{CoreId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, NO_TAG};
use fluctrace_sim::Freq;
use std::collections::{BTreeMap, BTreeSet};

/// One mark interval reconstructed by the oracle's dumb pairing walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleInterval {
    /// Core the interval was on.
    pub core: CoreId,
    /// The item that occupied it.
    pub item: ItemId,
    /// Start mark timestamp (inclusive bound).
    pub start: u64,
    /// End mark timestamp (inclusive bound).
    pub end: u64,
}

/// Mark-pairing error counts, by kind. The oracle only *counts* errors
/// (the differential driver compares totals, not payloads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleErrors {
    /// `End` marks with no open interval.
    pub orphan_ends: u64,
    /// `Start` marks that abandoned a still-open interval.
    pub unclosed_starts: u64,
    /// `End` marks whose item did not match the open interval.
    pub mismatched: u64,
    /// Intervals still open when their core's stream ended.
    pub truncated: u64,
}

/// Brute-force offline attribution of a whole bundle.
#[derive(Debug, Clone, Default)]
pub struct OracleOffline {
    /// Canonical per-item estimate rows (see [`OracleItemRow`]).
    pub items: Vec<OracleItemRow>,
    /// Samples attributed to some interval.
    pub attributed: u64,
    /// Samples inside no interval (inter-item spin).
    pub unattributed: u64,
    /// Mark-pairing error tallies.
    pub errors: OracleErrors,
    /// Intervals reconstructed, in pairing order.
    pub intervals: Vec<OracleInterval>,
}

/// The oracle's estimate for one item, mirroring the information content
/// of `fluctrace_core::ItemEstimate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleItemRow {
    /// The item.
    pub item: u64,
    /// Exact marked total over the item's intervals, in picoseconds.
    pub marked_total_ps: Option<u64>,
    /// Per-function `(func, samples, elapsed_ps)`, ascending by func.
    pub funcs: Vec<(u32, u32, u64)>,
    /// Attributed samples whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

/// Sort marks/samples into the canonical order documented on
/// `TraceBundle::sort`, without calling it.
fn canonical_sort(marks: &mut [MarkRecord], samples: &mut [PebsRecord]) {
    samples.sort_by_key(|a| (a.core, a.tsc));
    marks.sort_by(|a, b| {
        let ka = (a.core, a.tsc, matches!(a.kind, MarkKind::Start) as u8);
        let kb = (b.core, b.tsc, matches!(b.kind, MarkKind::Start) as u8);
        ka.cmp(&kb)
    });
}

/// Pair marks into intervals with the dumbest possible per-core walk:
/// one open slot per core, every malformed transition counted.
fn pair_marks(marks: &[MarkRecord]) -> (Vec<OracleInterval>, OracleErrors) {
    let mut intervals = Vec::new();
    let mut errors = OracleErrors::default();
    let mut open: Option<(CoreId, ItemId, u64)> = None;
    let mut current_core: Option<CoreId> = None;
    for m in marks {
        if current_core != Some(m.core) {
            if open.take().is_some() {
                errors.truncated += 1;
            }
            current_core = Some(m.core);
        }
        match m.kind {
            MarkKind::Start => {
                if open.is_some() {
                    errors.unclosed_starts += 1;
                }
                open = Some((m.core, m.item, m.tsc));
            }
            MarkKind::End => match open.take() {
                Some((core, item, start)) if item == m.item => {
                    intervals.push(OracleInterval {
                        core,
                        item,
                        start,
                        end: m.tsc,
                    });
                }
                Some(_) => errors.mismatched += 1,
                None => errors.orphan_ends += 1,
            },
        }
    }
    if open.is_some() {
        errors.truncated += 1;
    }
    (intervals, errors)
}

/// Attribute one sample by brute force: scan the intervals in pairing
/// order and take the first one on the sample's core whose inclusive
/// `[start, end]` bounds contain the timestamp — unless it *starts* at a
/// tick where an `End` mark sits on that core (`end_ticks`). That is the
/// tie rule of the canonical order: at such a tick the sample comes
/// before every mark, so the `End` takes it. At a coincident
/// `end == next start` tick the first interval, the closing one, owns
/// it; after a malformed `End` nothing does. The online replay below
/// applies the same rule by walking that order.
fn locate(
    intervals: &[OracleInterval],
    end_ticks: &BTreeSet<(CoreId, u64)>,
    s: &PebsRecord,
) -> Option<usize> {
    intervals.iter().position(|iv| {
        iv.core == s.core
            && iv.start <= s.tsc
            && s.tsc <= iv.end
            && !(iv.start == s.tsc && end_ticks.contains(&(s.core, s.tsc)))
    })
}

/// Run the brute-force offline oracle in interval mode: pair marks,
/// attribute every sample by linear scan, and fold `(item, func)`
/// estimates exactly as the paper specifies — per occupancy span,
/// first→last timestamp difference, summed in cycles, converted to time
/// once. A sample's span is the interval it lies in, so preempted or
/// duplicate items never bridge timestamps across intervals.
pub fn offline_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
) -> OracleOffline {
    let (intervals, errors, samples) = pair_and_sort(marks, samples);
    let owners = interval_owners(&intervals, marks, &samples);
    fold_offline(&samples, &owners, intervals, errors, symtab, freq)
}

/// Run the offline oracle in register-tag mode (§V.A). A sample's item
/// is `r13 − 1` when `r13 ≠ NO_TAG`; its span is its tag run, a maximal
/// stretch of consecutive samples in canonical order with one `(core,
/// tag)` — so a run ends where the core changes, the tag changes or an
/// untagged sample sits in between. Marks still give the marked totals,
/// the interval-only items and the error tallies, paired exactly as in
/// [`offline_oracle`].
pub fn register_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
) -> OracleOffline {
    let (intervals, errors, samples) = pair_and_sort(marks, samples);
    // A run is named by the position of its first sample.
    let mut owners: Vec<Option<(u64, usize)>> = Vec::with_capacity(samples.len());
    let mut run: Option<(CoreId, u64, usize)> = None;
    for (i, s) in samples.iter().enumerate() {
        if s.r13 == NO_TAG {
            run = None;
            owners.push(None);
            continue;
        }
        let first = match run {
            Some((core, tag, first)) if core == s.core && tag == s.r13 => first,
            _ => i,
        };
        run = Some((s.core, s.r13, first));
        owners.push(Some((s.r13 - 1, first)));
    }
    fold_offline(&samples, &owners, intervals, errors, symtab, freq)
}

/// The canonically sorted samples of a bundle, each with the item the
/// interval oracle attributes it to (`None` outside every interval).
pub fn interval_items(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
) -> Vec<(PebsRecord, Option<ItemId>)> {
    let (intervals, _, samples) = pair_and_sort(marks, samples);
    let owners = interval_owners(&intervals, marks, &samples);
    samples
        .into_iter()
        .zip(owners)
        .map(|(s, owner)| (s, owner.map(|(item, _)| ItemId(item))))
        .collect()
}

/// Each sample's `(item, interval index)` by [`locate`], `None` outside
/// every interval.
fn interval_owners(
    intervals: &[OracleInterval],
    marks: &[MarkRecord],
    samples: &[PebsRecord],
) -> Vec<Option<(u64, usize)>> {
    let end_ticks: BTreeSet<(CoreId, u64)> = marks
        .iter()
        .filter(|m| m.kind == MarkKind::End)
        .map(|m| (m.core, m.tsc))
        .collect();
    samples
        .iter()
        .map(|s| {
            let idx = locate(intervals, &end_ticks, s)?;
            intervals.get(idx).map(|iv| (iv.item.0, idx))
        })
        .collect()
}

/// Sort copies of both streams canonically and pair the marks.
fn pair_and_sort(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
) -> (Vec<OracleInterval>, OracleErrors, Vec<PebsRecord>) {
    let mut marks = marks.to_vec();
    let mut samples = samples.to_vec();
    canonical_sort(&mut marks, &mut samples);
    let (intervals, errors) = pair_marks(&marks);
    (intervals, errors, samples)
}

/// The estimate fold both mapping modes share. `owners[i]` is the
/// `(item, span)` sample `i` belongs to, `None` when it belongs to no
/// item; spans are only compared for equality, never across modes.
fn fold_offline(
    samples: &[PebsRecord],
    owners: &[Option<(u64, usize)>],
    intervals: Vec<OracleInterval>,
    errors: OracleErrors,
    symtab: &SymbolTable,
    freq: Freq,
) -> OracleOffline {
    // (item, span, func) -> (first, last, count).
    let mut spans: BTreeMap<(u64, usize, u32), (u64, u64, u32)> = BTreeMap::new();
    let mut unknown: BTreeMap<u64, u32> = BTreeMap::new();
    let mut attributed = 0u64;
    let mut unattributed = 0u64;
    for (s, owner) in samples.iter().zip(owners) {
        let Some((item, span)) = *owner else {
            unattributed += 1;
            continue;
        };
        attributed += 1;
        match symtab.resolve(s.ip) {
            Some(func) => {
                let e = spans
                    .entry((item, span, func.0))
                    .or_insert((s.tsc, s.tsc, 0));
                e.0 = e.0.min(s.tsc);
                e.1 = e.1.max(s.tsc);
                e.2 += 1;
            }
            None => *unknown.entry(item).or_insert(0) += 1,
        }
    }

    // Exact totals from the marks.
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    for iv in &intervals {
        *totals.entry(iv.item.0).or_insert(0) += iv.end.wrapping_sub(iv.start);
    }

    // Sum spans per (item, func) in cycles; convert once.
    let mut cycle_sums: BTreeMap<(u64, u32), (u32, u64)> = BTreeMap::new();
    for (&(item, _span, func), &(first, last, count)) in &spans {
        let e = cycle_sums.entry((item, func)).or_insert((0, 0));
        e.0 += count;
        e.1 += last.wrapping_sub(first);
    }

    let mut items: BTreeMap<u64, OracleItemRow> = BTreeMap::new();
    for (&(item, func), &(count, cycles)) in &cycle_sums {
        items
            .entry(item)
            .or_insert_with(|| OracleItemRow {
                item,
                marked_total_ps: totals.get(&item).map(|&c| freq.cycles_to_dur(c).as_ps()),
                funcs: Vec::new(),
                unknown_func_samples: 0,
            })
            .funcs
            .push((func, count, freq.cycles_to_dur(cycles).as_ps()));
    }
    // Items with intervals but no attributable samples still appear.
    for (&item, &cycles) in &totals {
        items.entry(item).or_insert_with(|| OracleItemRow {
            item,
            marked_total_ps: Some(freq.cycles_to_dur(cycles).as_ps()),
            funcs: Vec::new(),
            unknown_func_samples: 0,
        });
    }
    for (&item, &n) in &unknown {
        if let Some(row) = items.get_mut(&item) {
            row.unknown_func_samples = n;
        }
    }

    OracleOffline {
        items: items.into_values().collect(),
        attributed,
        unattributed,
        errors,
        intervals,
    }
}

/// Loss tallies predicted for the online tracer, one field per
/// `fluctrace_core::LossStats` bucket the blocking-submit path can hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleLoss {
    /// Oldest pending samples evicted by the `max_pending` bound.
    pub samples_evicted: u64,
    /// Pending samples discarded with an item that could not complete.
    pub samples_discarded: u64,
    /// Samples cleared as inter-item spin.
    pub samples_spin: u64,
    /// `End` marks with no open item.
    pub marks_orphaned: u64,
    /// `End` marks whose item did not match the open one.
    pub marks_mismatched: u64,
    /// `Start` marks that abandoned an open item.
    pub starts_abandoned: u64,
    /// Items still open at stream end.
    pub starts_truncated: u64,
    /// Attributed samples lying exactly on an interval bound.
    pub boundary_samples: u64,
}

/// One predicted anomaly under the driver's flag-everything online
/// config (`divergence_factor = 0`, `warmup = 0`): every completed item
/// with a nonzero per-function span is flagged with its worst function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OracleAnomaly {
    /// The flagged item.
    pub item: u64,
    /// Worst function (max elapsed; ties to the lowest id).
    pub func: u32,
    /// Its first→last span, in picoseconds.
    pub elapsed_ps: u64,
    /// Raw samples retained with the item.
    pub raw_samples: usize,
}

/// Replay of the online tracer's documented per-core semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleOnline {
    /// Items whose End completed.
    pub items_processed: u64,
    /// Samples in the stream.
    pub samples_seen: u64,
    /// Samples attributed to completed items.
    pub samples_attributed: u64,
    /// Per-bucket loss tallies.
    pub loss: OracleLoss,
    /// Predicted anomalies, ascending by `(item, func)`.
    pub anomalies: Vec<OracleAnomaly>,
    /// Every completed item, per core in completion order, cores
    /// ascending.
    pub completed: Vec<OracleCompleted>,
}

/// One item the online replay completed, with what it folded from the
/// samples its interval contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCompleted {
    /// The item.
    pub item: u64,
    /// Its Start mark's tsc.
    pub start_tsc: u64,
    /// Its End mark's tsc.
    pub end_tsc: u64,
    /// Per function, `(first tsc, last tsc, samples)`.
    pub funcs: BTreeMap<u32, (u64, u64, u32)>,
    /// Contained samples whose IP resolved to no function.
    pub unknown: u32,
}

/// Per-core state of the replay: the open item and its buffered samples.
#[derive(Default)]
struct ReplayCore {
    pending: Vec<PebsRecord>,
    open: Option<(ItemId, u64)>,
}

/// Replay the online tracer naively: canonical-sort the whole stream,
/// then walk each core's marks and samples with two cursors, applying
/// the documented semantics event by event. `max_pending` bounds the
/// per-core sample buffer exactly like `OnlineConfig::max_pending`.
pub fn online_oracle(
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    symtab: &SymbolTable,
    freq: Freq,
    max_pending: usize,
) -> OracleOnline {
    let mut marks = marks.to_vec();
    let mut samples = samples.to_vec();
    canonical_sort(&mut marks, &mut samples);

    let mut out = OracleOnline {
        samples_seen: samples.len() as u64,
        ..OracleOnline::default()
    };
    let cap = max_pending.max(1);

    // Group per core (both streams are core-sorted).
    let mut cores: BTreeMap<CoreId, (Vec<MarkRecord>, Vec<PebsRecord>)> = BTreeMap::new();
    for m in marks {
        cores.entry(m.core).or_default().0.push(m);
    }
    for s in samples {
        cores.entry(s.core).or_default().1.push(s);
    }

    for (_core, (marks, samples)) in cores {
        let mut state = ReplayCore::default();
        let mut si = 0usize;
        let mut mi = 0usize;
        loop {
            let sample = samples.get(si).copied();
            let mark = marks.get(mi).copied();
            let take_sample = match (sample, mark) {
                // A sample goes first when strictly earlier, or on a tie
                // against an End (the sample closes with the item); a
                // coincident Start opens before the sample.
                (Some(s), Some(m)) => s.tsc < m.tsc || (s.tsc == m.tsc && m.kind == MarkKind::End),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_sample {
                if let Some(s) = sample {
                    state.pending.push(s);
                    if state.pending.len() > cap {
                        let excess = state.pending.len() - cap;
                        state.pending.drain(..excess);
                        out.loss.samples_evicted += excess as u64;
                    }
                }
                si += 1;
            } else {
                if let Some(m) = mark {
                    replay_mark(&mut state, m, symtab, freq, &mut out);
                }
                mi += 1;
            }
        }
        // Stream end for this core.
        if state.open.take().is_some() {
            out.loss.starts_truncated += 1;
            out.loss.samples_discarded += state.pending.len() as u64;
        } else {
            out.loss.samples_spin += state.pending.len() as u64;
        }
    }
    out.anomalies.sort();
    out
}

fn replay_mark(
    state: &mut ReplayCore,
    m: MarkRecord,
    symtab: &SymbolTable,
    freq: Freq,
    out: &mut OracleOnline,
) {
    match m.kind {
        MarkKind::Start => {
            if state.open.take().is_some() {
                out.loss.starts_abandoned += 1;
                out.loss.samples_discarded += state.pending.len() as u64;
            } else {
                out.loss.samples_spin += state.pending.len() as u64;
            }
            state.pending.clear();
            state.open = Some((m.item, m.tsc));
        }
        MarkKind::End => match state.open.take() {
            Some((item, start)) if item == m.item => {
                let samples = std::mem::take(&mut state.pending);
                out.items_processed += 1;
                out.samples_attributed += samples.len() as u64;
                // Per-function first/last/count over contained samples.
                let mut done = OracleCompleted {
                    item: item.0,
                    start_tsc: start,
                    end_tsc: m.tsc,
                    funcs: BTreeMap::new(),
                    unknown: 0,
                };
                for s in &samples {
                    if !(start <= s.tsc && s.tsc <= m.tsc) {
                        continue;
                    }
                    if s.tsc == start || s.tsc == m.tsc {
                        out.loss.boundary_samples += 1;
                    }
                    match symtab.resolve(s.ip) {
                        Some(func) => {
                            let e = done.funcs.entry(func.0).or_insert((s.tsc, s.tsc, 0));
                            e.0 = e.0.min(s.tsc);
                            e.1 = e.1.max(s.tsc);
                            e.2 += 1;
                        }
                        None => done.unknown += 1,
                    }
                }
                // Worst function: max elapsed, first (lowest id) wins
                // ties — under the flag-everything config every nonzero
                // span diverges.
                let mut worst: Option<(u32, u64)> = None;
                for (&func, &(first, last, _)) in &done.funcs {
                    let elapsed_ps = freq.cycles_to_dur(last.wrapping_sub(first)).as_ps();
                    if elapsed_ps == 0 {
                        continue;
                    }
                    match worst {
                        Some((_, best)) if best >= elapsed_ps => {}
                        _ => worst = Some((func, elapsed_ps)),
                    }
                }
                if let Some((func, elapsed_ps)) = worst {
                    out.anomalies.push(OracleAnomaly {
                        item: item.0,
                        func,
                        elapsed_ps,
                        raw_samples: samples.len(),
                    });
                }
                out.completed.push(done);
            }
            Some(_) => {
                out.loss.marks_mismatched += 1;
                out.loss.samples_discarded += state.pending.len() as u64;
                state.pending.clear();
            }
            None => {
                out.loss.marks_orphaned += 1;
                out.loss.samples_spin += state.pending.len() as u64;
                state.pending.clear();
            }
        },
    }
}
