//! `core::fluct::detect` against the naive oracle: same report, byte
//! for byte.
//!
//! `detect` labels each item once, groups rows by interned integer keys
//! and takes medians by selection; `naive_detect` is the original
//! `BTreeMap`-of-populations body that sorts every population twice.
//! The tables come from two places: the seeded generator through
//! `integrate_soa` → `from_soa` (both mapping modes), and hand-written
//! JSON round-tripped through serde for the shapes a trace rarely makes
//! — extreme elapsed times, `FuncId`s up to `u32::MAX`, sparse item ids,
//! items without a marked total, constant populations whose outliers tie
//! at infinite sigma. Groupings mix labels whose byte order differs from
//! their first-seen order with items left out (`None`).
//!
//! Two in-test mutants prove the comparison has teeth: one takes the
//! upper middle of an even population as its median, the other reverses
//! item order inside a population. Each must be caught.
//!
//! The same tables pin `EstimateTable::series_for_func`, which answers
//! from a lazily built by-function index, against a plain scan of
//! `items()`: for every function present and for absent ids below,
//! between and above them. Equality, `Debug` and JSON must not depend on
//! which copies of a table have built their index, and a clone or a
//! table rebuilt from its JSON must answer the same. The hand tables
//! name `FuncId(u32::MAX)`, so an index sized by the largest id could
//! not be built here.

use fluctrace_conformance::{generate, naive_detect, spec_from_seed};
use fluctrace_core::{
    detect, integrate_soa, EstimateTable, FluctuationReport, GroupFuncStats, MappingMode, Outlier,
};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_sim::SimDuration;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Labels whose byte order (`""`, `"10"`, `"9"`, `"B"`, `"a"`, `"b"`)
/// differs from the order items first see them.
const LABELS: [&str; 6] = ["b", "a", "B", "10", "9", ""];

/// (threshold in sigmas, absolute guard) pairs every table is run at.
const THRESHOLDS: [(f64, u64); 3] = [(3.0, 0), (0.5, 0), (4.0, 20_000)];

type Grouping = Box<dyn Fn(ItemId) -> Option<String>>;

/// Every grouping a table is run under: one group, none at all, and
/// two spreads over [`LABELS`] with some items left out.
fn groupings() -> Vec<(&'static str, Grouping)> {
    vec![
        ("one group", Box::new(|_| Some("g".to_string()))),
        ("no groups", Box::new(|_| None)),
        (
            "labels by id",
            Box::new(|item: ItemId| {
                let k = (item.0 % 7) as usize;
                LABELS.get(k).map(|l| l.to_string())
            }),
        ),
        (
            "labels by hash",
            Box::new(|item: ItemId| {
                let h = item.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
                LABELS.get(h as usize).map(|l| l.to_string())
            }),
        ),
    ]
}

/// A content grouping, as every detector here takes it.
type GroupOf<'a> = &'a dyn Fn(ItemId) -> Option<String>;

type Detector = fn(&EstimateTable, GroupOf<'_>, f64, SimDuration) -> FluctuationReport;

fn fast(t: &EstimateTable, g: GroupOf<'_>, th: f64, m: SimDuration) -> FluctuationReport {
    detect(t, g, th, m)
}

fn naive(t: &EstimateTable, g: GroupOf<'_>, th: f64, m: SimDuration) -> FluctuationReport {
    naive_detect(t, g, th, m)
}

/// Where `candidate` and the oracle first disagree on `table`, if they
/// do: JSON bytes and `Debug` text (which, unlike JSON, tells an
/// infinite sigma from a NaN) of both reports, under every grouping
/// and threshold.
fn disagreement(table: &EstimateTable, candidate: Detector) -> Option<String> {
    for (name, group_of) in groupings() {
        for (threshold, min_abs) in THRESHOLDS {
            let min_abs = SimDuration::from_ps(min_abs);
            let got = candidate(table, &*group_of, threshold, min_abs);
            let want = naive(table, &*group_of, threshold, min_abs);
            let (got_json, want_json) = (
                serde_json::to_string(&got).unwrap_or_default(),
                serde_json::to_string(&want).unwrap_or_default(),
            );
            if got_json != want_json || format!("{got:?}") != format!("{want:?}") {
                return Some(format!(
                    "{name} @ {threshold}σ / {min_abs:?}:\n got  {got_json}\n want {want_json}"
                ));
            }
        }
    }
    None
}

fn assert_agrees(table: &EstimateTable, what: &str) {
    if let Some(d) = disagreement(table, fast) {
        panic!("detect differs from naive_detect on {what}: {d}");
    }
}

/// One hand-written item: id, marked total (ps), `(func, samples,
/// elapsed ps)` rows (sorted and de-duplicated by func on the way in).
type HandItem = (u64, Option<u64>, Vec<(u32, u32, u64)>);

/// A table from hand-written items, through the serde round trip
/// `EstimateTable` supports (its fields are private).
fn table_from(items: &[HandItem]) -> EstimateTable {
    let mut by_id: BTreeMap<u64, String> = BTreeMap::new();
    for (item, total, funcs) in items {
        let mut funcs = funcs.clone();
        funcs.sort_by_key(|&(func, ..)| func);
        funcs.dedup_by_key(|&mut (func, ..)| func);
        let funcs: Vec<String> = funcs
            .iter()
            .map(|(func, samples, elapsed)| {
                format!(
                    r#"{{"item":{item},"func":{func},"samples":{samples},"elapsed":{elapsed}}}"#
                )
            })
            .collect();
        let total = total.map_or("null".to_string(), |t| t.to_string());
        by_id.insert(
            *item,
            format!(
                r#""{item}":{{"item":{item},"marked_total":{total},"funcs":[{}],"unknown_func_samples":0}}"#,
                funcs.join(",")
            ),
        );
    }
    let body: Vec<String> = by_id.into_values().collect();
    let json = format!(
        r#"{{"items":{{{}}},"freq":3000000000,"samples_missing_span":0}}"#,
        body.join(",")
    );
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("hand table {json}: {e:?}"))
}

/// xorshift, so a table is a pure function of its seed.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random hand-written table: sparse ids (some near `u64::MAX`),
/// funcs from an alphabet that includes `0` and `u32::MAX`, one-sample
/// rows that are not estimable, and elapsed times from a small alphabet
/// (ties, constant populations) or from the top of the range.
fn random_table(seed: u64) -> EstimateTable {
    let mut next = rng(seed);
    let funcs = [0u32, 1, 7, 384, u32::MAX - 1, u32::MAX];
    let small = [0u64, 1_000, 1_000, 1_000, 2_000, 3_000, 90_000];
    let n = (next() % 40) as usize;
    let extreme = next().is_multiple_of(4);
    let items: Vec<HandItem> = (0..n)
        .map(|_| {
            let id = match next() % 4 {
                0 => u64::MAX - next() % 16,
                1 => next() % 64,
                _ => next(),
            };
            let value = |r: u64| {
                if extreme {
                    u64::MAX - r % 8
                } else {
                    small
                        .get((r % small.len() as u64) as usize)
                        .copied()
                        .unwrap_or(0)
                }
            };
            let total = (!next().is_multiple_of(3)).then(|| value(next()));
            let rows = (0..next() % 4)
                .map(|_| {
                    let func = funcs.get((next() % 6) as usize).copied().unwrap_or(0);
                    (func, 1 + (next() % 3) as u32, value(next()))
                })
                .collect();
            (id, total, rows)
        })
        .collect();
    table_from(&items)
}

/// The hand-written corner cases, one table each.
fn corner_tables() -> Vec<(&'static str, EstimateTable)> {
    let max = u64::MAX;
    let one_func = |values: &[u64]| -> Vec<HandItem> {
        (0u64..)
            .zip(values)
            .map(|(i, &v)| (i, Some(v), vec![(3, 2, v)]))
            .collect()
    };
    vec![
        ("empty table", table_from(&[])),
        ("population of 1", table_from(&one_func(&[5_000]))),
        ("population of 2", table_from(&one_func(&[5_000, 9_000]))),
        (
            "odd population",
            table_from(&one_func(&[5_000, 9_000, 1_000, 7_000, 60_000])),
        ),
        (
            "even population",
            table_from(&one_func(&[5_000, 9_000, 1_000, 7_000, 60_000, 2_000])),
        ),
        (
            // MAD 0: both 50 000s sit at infinite sigma and tie on their
            // deviation too, so only item order separates them.
            "constant population with tied outliers",
            table_from(&one_func(&[
                10_000, 10_000, 50_000, 10_000, 50_000, 10_000, 10_000,
            ])),
        ),
        (
            "sigma ties at finite MAD",
            table_from(&one_func(&[100, 200, 300, 400, 500, 9_000, 9_000, 300])),
        ),
        (
            "middle pair summing past u64::MAX",
            table_from(&one_func(&[1, max - 2, max - 1, max])),
        ),
        (
            "values at the top of the range",
            table_from(&one_func(&[max, max - 1, max, 0, max, max - 7])),
        ),
        (
            "sparse ids and FuncId extremes, no marked totals",
            table_from(&[
                (0, None, vec![(u32::MAX, 2, 4_000), (0, 5, 1_000)]),
                (1 << 40, None, vec![(u32::MAX, 3, 4_100), (0, 2, 1_000)]),
                (
                    max - 3,
                    Some(9_000),
                    vec![(u32::MAX, 2, 90_000), (0, 2, 1_000)],
                ),
                (max - 1, None, vec![(u32::MAX, 2, 4_050), (0, 1, 7)]),
                (max, Some(9_100), vec![(u32::MAX, 4, 3_900), (0, 9, 1_000)]),
            ]),
        ),
    ]
}

/// The generated tables of one seed: `integrate_soa` → `from_soa` in
/// both mapping modes (register mode has no marked totals). The seed's
/// item count is raised eightfold so populations are large enough to
/// hold outliers. Heavy-fault seeds outside the differential sweep's
/// range can draw fault rates past 1000 per mille, which the schedule
/// refuses; the burst rate is capped to fit.
fn generated_tables(seed: u64) -> Vec<EstimateTable> {
    let mut spec = spec_from_seed(seed);
    spec.items_per_core *= 8;
    let plan = &mut spec.plan;
    plan.burst_per_mille = plan
        .burst_per_mille
        .min(1000u32.saturating_sub(plan.drop_open_per_mille + plan.corrupt_close_per_mille));
    let w = generate(&spec);
    [MappingMode::Intervals, MappingMode::RegisterTag]
        .into_iter()
        .map(|mode| EstimateTable::from_soa(&integrate_soa(&w.bundle, &w.symtab, w.freq, mode)))
        .collect()
}

/// The by-function read as a scan of every item: the oracle for
/// `series_for_func`.
fn naive_series(table: &EstimateTable, func: FuncId) -> Vec<(ItemId, SimDuration)> {
    let mut out = Vec::new();
    for ie in table.items() {
        if let Some(fe) = ie.func(func).filter(|fe| fe.is_estimable()) {
            out.push((ie.item, fe.elapsed));
        }
    }
    out
}

/// Every function `table` names, and absent ids around them: the ends
/// of the id range, each present id ± 1 and the midpoint of each pair
/// of neighbours.
fn probe_funcs(table: &EstimateTable) -> Vec<FuncId> {
    let present: BTreeSet<u32> = table
        .items()
        .flat_map(|ie| ie.funcs.iter().map(|fe| fe.func.0))
        .collect();
    let mut probes: BTreeSet<u32> = [0, 1, u32::MAX / 2, u32::MAX - 1, u32::MAX].into();
    let mut prev: Option<u32> = None;
    for &f in &present {
        probes.insert(f);
        probes.extend(f.checked_sub(1));
        probes.extend(f.checked_add(1));
        probes.extend(prev.map(|p| p.midpoint(f)));
        prev = Some(f);
    }
    probes.into_iter().map(FuncId).collect()
}

/// Where `table`'s indexed series first differs from the scan, if it
/// does. Building the index is a side effect.
fn series_disagreement(table: &EstimateTable) -> Option<String> {
    probe_funcs(table).into_iter().find_map(|func| {
        let got = table.series_for_func(func);
        let want = naive_series(table, func);
        (got != want.as_slice()).then(|| format!("{func:?}:\n got  {got:?}\n want {want:?}"))
    })
}

/// `series_for_func` equals the scan on `table`, on its clones and on
/// its JSON round trip, and no comparison or rendering of two copies
/// depends on which of them has built its index.
fn assert_series_agree(table: &EstimateTable, what: &str) {
    let json = serde_json::to_string(table).unwrap_or_default();
    let debug_len = format!("{table:?}").len();
    let (a, b) = (table.clone(), table.clone());
    let same = |step: &str, x: &EstimateTable, y: &EstimateTable| {
        assert!(x == y, "{what}: copies differ {step}");
        assert_eq!(x, table, "{what}: a copy differs from the table {step}");
        for t in [x, y] {
            assert_eq!(
                serde_json::to_string(t).unwrap_or_default(),
                json,
                "{what}: JSON moved {step}"
            );
            assert_eq!(
                format!("{t:?}").len(),
                debug_len,
                "{what}: Debug moved {step}"
            );
        }
    };
    same("with neither index built", &a, &b);
    if let Some(d) = series_disagreement(&a) {
        panic!("series_for_func differs from the scan on {what}: {d}");
    }
    same("with one index built", &a, &b);
    same("with one index built", &b, &a);
    if let Some(d) = series_disagreement(&b) {
        panic!("series_for_func differs from the scan on {what} (second copy): {d}");
    }
    same("with both indexes built", &a, &b);
    let clone = a.clone();
    if let Some(d) = series_disagreement(&clone) {
        panic!("series_for_func differs from the scan on a clone of {what}: {d}");
    }
    let back: EstimateTable =
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("{what}: JSON round trip: {e:?}"));
    same("after a JSON round trip", &back, &clone);
    if let Some(d) = series_disagreement(&back) {
        panic!("series_for_func differs from the scan on {what} read back from JSON: {d}");
    }
}

/// Item rows no builder makes but deserialization accepts: functions
/// out of order, and one function listed twice, where only the first
/// entry counts (as `ItemEstimate::func` answers) even when it is the
/// one-sample entry.
fn unsorted_and_repeated_table() -> EstimateTable {
    let row = |item: u64, func: u32, samples: u32, elapsed: u64| {
        format!(r#"{{"item":{item},"func":{func},"samples":{samples},"elapsed":{elapsed}}}"#)
    };
    let item = |id: u64, rows: &[String]| {
        format!(
            r#""{id}":{{"item":{id},"marked_total":null,"funcs":[{}],"unknown_func_samples":0}}"#,
            rows.join(",")
        )
    };
    let items = [
        item(1, &[row(1, 5, 1, 10), row(1, 5, 3, 20)]),
        item(
            2,
            &[row(2, 9, 2, 30), row(2, 2, 2, 40), row(2, u32::MAX, 2, 45)],
        ),
        item(3, &[row(3, 5, 2, 50), row(3, 5, 2, 60), row(3, 0, 1, 70)]),
        item(
            u64::MAX,
            &[row(u64::MAX, 5, 2, 80), row(u64::MAX, 2, 9, 90)],
        ),
    ];
    let json = format!(
        r#"{{"items":{{{}}},"freq":3000000000,"samples_missing_span":0}}"#,
        items.join(",")
    );
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("hand table {json}: {e:?}"))
}

#[test]
fn series_index_matches_the_scan() {
    let unsorted = unsorted_and_repeated_table();
    assert_eq!(
        unsorted.series_for_func(FuncId(5)),
        [
            (ItemId(3), SimDuration::from_ps(50)),
            (ItemId(u64::MAX), SimDuration::from_ps(80))
        ]
    );
    assert_series_agree(&unsorted, "unsorted and repeated rows");
    for (what, table) in corner_tables() {
        assert_series_agree(&table, what);
    }
    for seed in 0..16 {
        assert_series_agree(&random_table(seed), &format!("random table {seed}"));
        for table in generated_tables(seed) {
            assert_series_agree(&table, &format!("generated seed {seed}"));
        }
    }
}

#[test]
fn corner_tables_agree() {
    for (what, table) in corner_tables() {
        assert_agrees(&table, what);
    }
}

#[test]
fn generated_tables_agree_over_a_seed_sweep() {
    let mut items = 0usize;
    for seed in 0..48 {
        for table in generated_tables(seed) {
            items += table.len();
            assert_agrees(&table, &format!("generated seed {seed}"));
        }
    }
    assert!(items > 2_000, "the sweep shrank to {items} items");
}

/// Each mutant differs from the oracle somewhere on the corpus: the
/// comparison above would catch it.
#[test]
fn mutants_are_caught() {
    let mut corpus: Vec<(String, EstimateTable)> = corner_tables()
        .into_iter()
        .map(|(what, t)| (what.to_string(), t))
        .collect();
    for seed in 0..8 {
        for table in generated_tables(seed) {
            corpus.push((format!("generated seed {seed}"), table));
        }
    }
    for (name, mutant) in [
        (
            "upper middle of an even population",
            upper_middle as Detector,
        ),
        (
            "reversed item order in a population",
            reversed_items as Detector,
        ),
    ] {
        let caught = corpus
            .iter()
            .find_map(|(what, table)| disagreement(table, mutant).map(|_| what.clone()));
        assert!(
            caught.is_some(),
            "mutant `{name}` survives the whole corpus"
        );
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    UpperMiddle,
    ReversedItems,
}

fn upper_middle(t: &EstimateTable, g: GroupOf<'_>, th: f64, m: SimDuration) -> FluctuationReport {
    mutant(t, g, th, m, Mutation::UpperMiddle)
}

fn reversed_items(t: &EstimateTable, g: GroupOf<'_>, th: f64, m: SimDuration) -> FluctuationReport {
    mutant(t, g, th, m, Mutation::ReversedItems)
}

/// `detect` with its function populations recomputed under one fault;
/// the total-latency part is left as `detect` made it.
fn mutant(
    table: &EstimateTable,
    group_of: GroupOf<'_>,
    threshold: f64,
    min_abs: SimDuration,
    mutation: Mutation,
) -> FluctuationReport {
    let median = |sorted: &[u64]| {
        let n = sorted.len();
        if n % 2 == 1 || mutation == Mutation::UpperMiddle {
            sorted[n / 2]
        } else {
            sorted[n / 2 - 1].midpoint(sorted[n / 2])
        }
    };
    let mut pops: BTreeMap<(String, FuncId), Vec<(ItemId, u64)>> = BTreeMap::new();
    for ie in table.items() {
        let Some(group) = group_of(ie.item) else {
            continue;
        };
        for fe in ie.funcs.iter().filter(|fe| fe.is_estimable()) {
            pops.entry((group.clone(), fe.func))
                .or_default()
                .push((ie.item, fe.elapsed.as_ps()));
        }
    }
    let mut report = detect(table, group_of, threshold, min_abs);
    report.groups.clear();
    report.outliers.clear();
    for ((group, func), mut pop) in pops {
        if mutation == Mutation::ReversedItems {
            pop.reverse();
        }
        let mut sorted: Vec<u64> = pop.iter().map(|&(_, e)| e).collect();
        sorted.sort_unstable();
        let med = median(&sorted);
        let mut devs: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(med)).collect();
        devs.sort_unstable();
        let mad = (median(&devs) as f64 * 1.4826) as u64;
        report.groups.push(GroupFuncStats {
            group: group.clone(),
            func,
            count: pop.len(),
            median: SimDuration::from_ps(med),
            mad: SimDuration::from_ps(mad),
            min: SimDuration::from_ps(sorted[0]),
            max: SimDuration::from_ps(sorted[sorted.len() - 1]),
        });
        if pop.len() < 3 {
            continue;
        }
        for (item, elapsed) in pop {
            let dev = elapsed.abs_diff(med);
            let sigmas = if mad == 0 {
                f64::INFINITY
            } else {
                dev as f64 / mad as f64
            };
            if dev > min_abs.as_ps() && sigmas > threshold {
                report.outliers.push(Outlier {
                    group: group.clone(),
                    func,
                    item,
                    elapsed: SimDuration::from_ps(elapsed),
                    median: SimDuration::from_ps(med),
                    sigmas,
                });
            }
        }
    }
    report.outliers.sort_by(|a, b| {
        b.sigmas
            .partial_cmp(&a.sigmas)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let da = a.elapsed.as_ps().abs_diff(a.median.as_ps());
                let db = b.elapsed.as_ps().abs_diff(b.median.as_ps());
                db.cmp(&da)
            })
    });
    report
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(48))]

    #[test]
    fn random_hand_tables_agree(seed in any::<u64>()) {
        let table = random_table(seed);
        assert_agrees(&table, &format!("random table {seed}"));
        assert_series_agree(&table, &format!("random table {seed}"));
    }

    #[test]
    fn generated_tables_agree(seed in any::<u64>()) {
        for table in generated_tables(seed) {
            assert_agrees(&table, &format!("generated seed {seed}"));
            assert_series_agree(&table, &format!("generated seed {seed}"));
        }
    }
}
