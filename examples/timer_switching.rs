//! §V.A extension: tracing a timer-switching architecture with
//! register tagging.
//!
//! A user-level-thread scheduler preempts data-items every 20 µs, so a
//! core interleaves several items and the "two marks per item" interval
//! mapping no longer applies. The scheduler keeps the current item's id
//! in the (reserved) `r13` register; every PEBS sample carries it, and
//! the tracer maps samples to items by tag instead.
//!
//! ```text
//! cargo run --release --example timer_switching
//! ```

use fluctrace::core::{integrate_soa, EstimateTable, MappingMode};
use fluctrace::cpu::{
    CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig, SymbolTableBuilder,
};
use fluctrace::rt::{UltJob, UltScheduler, UltSchedulerConfig};
use fluctrace::sim::{Freq, SimTime};

fn main() {
    let mut b = SymbolTableBuilder::new();
    let sched = b.add("ult_scheduler", 1024);
    let handler = b.add("request_handler", 4096);
    let render = b.add("render_response", 4096);
    let core_cfg = CoreConfig::bare()
        .with_pebs(PebsConfig::new(2_000))
        .with_reg_tagging();
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let mut core = machine.take_core(0);

    // Three requests; request 0 is heavy (120 µs of work), requests 1-2
    // are light (16 µs). Timer switching lets the light ones finish
    // first.
    // Each request runs a handler phase followed by a render phase (two
    // functions interleaving at µs granularity would hit the paper's
    // §V.B.2 "call graph" limitation — first-to-last spans of tightly
    // interleaved functions overlap).
    let job = |item: u64, arrival_us: u64, chunks: usize| {
        let mut work = Vec::new();
        for i in 0..chunks {
            let f = if i < chunks / 2 { handler } else { render };
            work.push(Exec::new(f, 12_000).ipc_milli(1500));
        }
        UltJob::new(ItemId(item), SimTime::from_us(arrival_us), work)
    };
    let scheduler = UltScheduler::new(UltSchedulerConfig::new(sched));
    let completions = scheduler.run(&mut core, vec![job(0, 0, 45), job(1, 5, 6), job(2, 10, 6)]);

    println!("completion order (timer switching lets light items overtake):");
    for c in &completions {
        println!(
            "  item {} arrived {} completed {} (latency {})",
            c.item,
            c.arrival,
            c.completed,
            c.latency()
        );
    }
    assert_ne!(completions[0].item, ItemId(0), "a light job finishes first");

    core.finish();
    machine.return_core(core);
    let (bundle, _) = machine.collect();
    println!(
        "\nno marks were recorded ({} marks) — interval mapping has nothing to work with;",
        bundle.marks.len()
    );

    // Integrate via register tags instead.
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::RegisterTag,
    );
    let table = EstimateTable::from_integrated(&it);
    println!("register-tag mapping still attributes every sample:\n");
    println!("item  function          samples  elapsed");
    for ie in table.items() {
        for fe in ie.funcs {
            println!(
                "{:>4}  {:<16}  {:>7}  {}",
                ie.item,
                machine.symtab().name(fe.func),
                fe.samples,
                fe.elapsed
            );
        }
    }
    println!(
        "\nitem 0's handler/render dwarf items 1-2, even though all three interleaved on one core."
    );
}
