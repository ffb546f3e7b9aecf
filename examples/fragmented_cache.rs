//! The paper's §I motivating scenario, end to end: a database engine
//! whose performance fluctuates "only when its on-memory cache is
//! fragmented and the fragmentation is fixed after processing few
//! queries" — unreproducible offline, diagnosable online with the
//! hybrid tracer.
//!
//! ```text
//! cargo run --release --example fragmented_cache
//! ```

use fluctrace::apps::{DbQuery, FragDb};
use fluctrace::core::{
    detect, diagnosis, integrate_soa, item_breakdown, EstimateTable, MappingMode,
};
use fluctrace::cpu::{CoreConfig, ItemId, Machine, MachineConfig, PebsConfig};
use fluctrace::sim::{Freq, Rng, SimDuration};

fn main() {
    let (symtab, funcs) = FragDb::symtab();
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(2_000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), symtab);
    let core = machine.core_mut(0);

    // A churny workload: inserts, lookups and deletes; deletes fragment
    // the allocator, and every so often one *ordinary-looking insert*
    // pays for compaction.
    let mut db = FragDb::new(funcs, 24);
    let mut rng = Rng::new(404);
    let n_queries = 1_200u64;
    let mut kinds = Vec::new();
    let mut live_keys: Vec<u64> = Vec::new();
    let mut next_key = 0u64;
    for id in 0..n_queries {
        let q = match rng.gen_below(10) {
            0..=4 => {
                next_key += 1;
                live_keys.push(next_key);
                DbQuery::Insert {
                    key: next_key,
                    size: 128 + rng.gen_below(256) as u32,
                }
            }
            5..=7 => DbQuery::Lookup {
                key: if live_keys.is_empty() {
                    0
                } else {
                    *rng.choose(&live_keys)
                },
            },
            _ if !live_keys.is_empty() => {
                let idx = rng.gen_below(live_keys.len() as u64) as usize;
                DbQuery::Delete {
                    key: live_keys.swap_remove(idx),
                }
            }
            _ => DbQuery::Lookup { key: 0 },
        };
        kinds.push(match q {
            DbQuery::Insert { .. } => "insert",
            DbQuery::Lookup { .. } => "lookup",
            DbQuery::Delete { .. } => "delete",
        });
        core.mark_item_start(ItemId(id));
        db.process(core, q);
        core.mark_item_end(ItemId(id));
        core.idle(SimDuration::from_us(3));
    }
    println!(
        "{} queries processed; the allocator compacted {} time(s)",
        n_queries,
        db.compactions()
    );

    let (bundle, _) = machine.collect();
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let table = EstimateTable::from_integrated(&it);

    // Group queries by kind — identical-looking inserts should behave
    // identically, but the compaction victims will not.
    let report = detect(
        &table,
        |item| Some(kinds[item.0 as usize]),
        4.0,
        SimDuration::from_us(5),
    );
    println!("\n{}", diagnosis(&report, machine.symtab()));

    if let Some(victim) = report.total_outliers.first() {
        println!("breakdown of the worst victim:");
        println!("{}", item_breakdown(&table, machine.symtab(), victim.item));
        println!("…and the next query of the same kind (fragmentation already fixed):");
        let kind = kinds[victim.item.0 as usize];
        if let Some(next) = (victim.item.0 + 1..n_queries).find(|&i| kinds[i as usize] == kind) {
            println!("{}", item_breakdown(&table, machine.symtab(), ItemId(next)));
        }
        println!(
            "the single occurrence was caught online — no need to reproduce the \
             exact hole structure offline."
        );
    }
}
