//! Quickstart: trace a tiny two-stage pipeline with the hybrid tracer
//! and print per-item, per-function elapsed times. The Chrome trace of
//! the run is written to `fluctrace_quickstart.json` in the working
//! directory.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fluctrace::core::{integrate_soa, EstimateTable, MappingMode};
use fluctrace::cpu::{
    CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig, SymbolTableBuilder,
};
use fluctrace::rt::pipeline::StageDef;
use fluctrace::rt::stage::StageOpts;
use fluctrace::rt::timed::arrival_schedule;
use fluctrace::rt::Pipeline;
use fluctrace::sim::{Freq, SimDuration, SimTime};

fn main() {
    // 1. Describe the target program: its functions and their sizes in
    //    the text segment (the symbol table the tracer resolves IPs
    //    against).
    let mut symtab = SymbolTableBuilder::new();
    let rx_loop = symtab.add("rx_loop", 512);
    let parse = symtab.add("parse", 2048);
    let work = symtab.add("work", 4096);

    // 2. Build a machine with PEBS enabled: one sample per 2000 retired
    //    µops, everything else default (3 GHz cores, 250 ns assist).
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(2_000));
    let mut machine = Machine::new(MachineConfig::new(2, core_cfg), symtab.build());

    // 3. Run a two-stage pipeline. Only the worker stage is
    //    instrumented — two marks per item, nothing per function.
    let input = arrival_schedule(SimTime::from_us(1), SimDuration::from_us(40), 8, |i| {
        i as u64
    });
    Pipeline::run(
        &mut machine,
        input,
        vec![
            StageDef::new(0, StageOpts::new(rx_loop), |_, v| Some(v)),
            StageDef::new(1, StageOpts::new(rx_loop), move |core, v: u64| {
                core.mark_item_start(ItemId(v));
                core.exec(Exec::new(parse, 6_000));
                // Item 3 hits a slow path: 4x the work.
                let uops = if v == 3 { 48_000 } else { 12_000 };
                core.exec(Exec::new(work, uops));
                core.mark_item_end(ItemId(v));
                Some(v)
            }),
        ],
    );

    // 4. Collect the trace (marks + samples) and integrate.
    let (bundle, _) = machine.collect();
    println!(
        "collected {} samples and {} marks",
        bundle.samples.len(),
        bundle.marks.len()
    );
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let estimates = EstimateTable::from_integrated(&it);

    // 5. Per-item, per-function elapsed times — the paper's output.
    println!("\nitem  function  samples  elapsed");
    for ie in estimates.items() {
        for fe in ie.funcs {
            println!(
                "{:>4}  {:<8}  {:>7}  {}",
                ie.item,
                machine.symtab().name(fe.func),
                fe.samples,
                fe.elapsed
            );
        }
    }
    println!("\nitem 3's `work` should stand out ~4x above the others.");

    // 6. Export for chrome://tracing / Perfetto.
    let json = fluctrace::core::chrome_trace_string(
        &it,
        &estimates,
        machine.symtab(),
        fluctrace::core::ExportOptions {
            include_samples: true,
        },
    );
    let path = "fluctrace_quickstart.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("trace written to {path} (load it in chrome://tracing)"),
        Err(e) => eprintln!("could not write trace: {e}"),
    }
}
