//! The paper's proof-of-concept (§IV.B, Figs. 7–8): a two-thread query
//! app whose in-memory cache makes identical queries take different
//! times. The hybrid tracer shows the fluctuation per query and
//! pinpoints `f3` as the function responsible.
//!
//! ```text
//! cargo run --release --example query_cache
//! ```

use fluctrace::apps::{Query, QueryApp};
use fluctrace::core::{detect, integrate_soa, EstimateTable, MappingMode};
use fluctrace::cpu::{CoreConfig, ItemId, Machine, MachineConfig, PebsConfig};
use fluctrace::sim::{Freq, SimDuration, SimTime};

fn main() {
    let (symtab, funcs) = QueryApp::symtab();
    // The paper's setting: UOPS_RETIRED.ALL, reset value 8000.
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
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let table = EstimateTable::from_integrated(&it);

    println!("query  n  f1        f2        f3        total(marks)");
    for q in &queries {
        let ie = table.item(ItemId(q.id)).unwrap();
        let cell = |f| {
            ie.func(f)
                .filter(|fe| fe.is_estimable())
                .map(|fe| format!("{:>7.2}us", fe.elapsed.as_us_f64()))
                .unwrap_or_else(|| "      - ".into())
        };
        println!(
            "#{:<4} {}  {}  {}  {}  {:>7.2}us",
            q.id,
            q.n,
            cell(funcs.f1),
            cell(funcs.f2),
            cell(funcs.f3),
            ie.marked_total.unwrap().as_us_f64()
        );
    }

    // Group queries by n (identical content) and let the detector find
    // the cache-warmth fluctuation.
    let by_n: std::collections::HashMap<u64, u64> =
        queries.iter().map(|q: &Query| (q.id, q.n)).collect();
    let report = detect(
        &table,
        |item| by_n.get(&item.0).map(|n| format!("n={n}")),
        3.0,
        SimDuration::from_us(2),
    );
    println!("\ndiagnosis:");
    for o in &report.outliers {
        println!(
            "  {} fluctuates for query {} (group {}): {:.1}us vs median {:.1}us — cold cache",
            machine.symtab().name(o.func),
            o.item,
            o.group,
            o.elapsed.as_us_f64(),
            o.median.as_us_f64()
        );
    }
}
