//! End-to-end reproduction check for the §IV.B proof-of-concept
//! (Figs. 7–8): the hybrid tracer, run over the full two-thread query
//! app, shows the cache-warmth fluctuation and attributes it to f3.

use fluctrace::apps::{Query, QueryApp};
use fluctrace::core::{detect, integrate, EstimateTable, MappingMode};
use fluctrace::cpu::{CoreConfig, ItemId, Machine, MachineConfig, PebsConfig};
use fluctrace::sim::{Freq, SimDuration, SimTime};

fn run_fig8() -> (Machine, EstimateTable, Vec<Query>) {
    let (symtab, funcs) = QueryApp::symtab();
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(8_000));
    let mut machine = Machine::new(MachineConfig::new(2, core_cfg), symtab);
    let queries = QueryApp::fig8_queries();
    QueryApp::run(
        &mut machine,
        funcs,
        &queries,
        SimTime::from_us(5),
        SimDuration::from_us(200),
    );
    let (bundle, _) = machine.collect();
    let it = integrate(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let table = EstimateTable::from_integrated(&it);
    (machine, table, queries)
}

#[test]
fn fig8_first_and_fifth_queries_fluctuate() {
    let (_machine, table, _) = run_fig8();
    let total = |id: u64| {
        table
            .item(ItemId(id))
            .unwrap()
            .marked_total
            .unwrap()
            .as_us_f64()
    };
    // Same n, different time: the 1st query dominates its n=3 peers.
    for warm in [2, 4, 8] {
        assert!(
            total(1) > 2.5 * total(warm),
            "q1 {} vs q{} {}",
            total(1),
            warm,
            total(warm)
        );
    }
    // The 5th dominates its n=5 peers.
    for warm in [7, 9] {
        assert!(
            total(5) > 1.8 * total(warm),
            "q5 {} vs q{} {}",
            total(5),
            warm,
            total(warm)
        );
    }
}

#[test]
fn fig8_f3_is_the_root_cause() {
    let (machine, table, queries) = run_fig8();
    let (_, funcs) = QueryApp::symtab();
    // f3 for the cold query dwarfs f1 and f2 ("richer information than
    // service level logging").
    let q1 = table.item(ItemId(1)).unwrap();
    let f3 = q1.func(funcs.f3).expect("f3 sampled").elapsed;
    if let Some(f1) = q1.func(funcs.f1) {
        assert!(f3 > f1.elapsed * 3);
    }
    if let Some(f2) = q1.func(funcs.f2) {
        assert!(f3 > f2.elapsed * 3);
    }
    // The detector, grouping by n, flags exactly queries 1 and 5 on f3.
    let by_n: std::collections::HashMap<u64, u64> = queries.iter().map(|q| (q.id, q.n)).collect();
    let report = detect(
        &table,
        |item| by_n.get(&item.0).map(|n| format!("n={n}")),
        3.0,
        SimDuration::from_us(2),
    );
    let flagged: std::collections::BTreeSet<u64> =
        report.outliers.iter().map(|o| o.item.0).collect();
    assert_eq!(flagged, [1u64, 5].into_iter().collect());
    for o in &report.outliers {
        assert_eq!(o.func, funcs.f3, "the flagged function is f3");
    }
    let _ = machine;
}

#[test]
fn fig8_estimates_respect_marked_totals() {
    // A function's estimated time can never exceed the instrumented
    // total of its item (samples live inside the mark interval).
    let (_machine, table, _) = run_fig8();
    for ie in table.items() {
        let total = ie.marked_total.unwrap();
        for fe in ie.funcs {
            assert!(
                fe.elapsed <= total,
                "item {} func {} estimate {} > total {}",
                ie.item,
                fe.func,
                fe.elapsed,
                total
            );
        }
        assert!(ie.estimated_total() <= total);
    }
}

#[test]
fn fig8_is_deterministic() {
    let (_m1, t1, _) = run_fig8();
    let (_m2, t2, _) = run_fig8();
    for (a, b) in t1.items().zip(t2.items()) {
        assert_eq!(a.item, b.item);
        assert_eq!(a.marked_total, b.marked_total);
        assert_eq!(a.funcs.len(), b.funcs.len());
        for (fa, fb) in a.funcs.iter().zip(b.funcs) {
            assert_eq!(fa.elapsed, fb.elapsed);
            assert_eq!(fa.samples, fb.samples);
        }
    }
}
