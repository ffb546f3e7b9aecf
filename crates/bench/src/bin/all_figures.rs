//! Run every table/figure reproduction in sequence (the one-shot
//! EXPERIMENTS.md generator). Equivalent to running each `fig*` /
//! `table*` / `data_volume` / `tradeoff` binary.

use std::process::Command;

fn main() {
    fluctrace_bench::obs_support::init();
    let bins = [
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig4",
        "fig8",
        "fig9",
        "fig10",
        "data_volume",
        "tradeoff",
        "motivation",
        "tail_latency",
    ];
    // When invoked via cargo, re-running through cargo keeps the build
    // profile consistent; direct sibling invocation covers `cargo run`.
    let self_path = std::env::current_exe().expect("current exe");
    let dir = self_path.parent().expect("bin dir").to_path_buf();
    let mut failures = Vec::new();
    for bin in bins {
        println!("\n================ {bin} ================\n");
        let path = dir.join(bin);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", path.display()));
        if !status.success() {
            failures.push(bin);
        }
    }

    fluctrace_bench::obs_support::finish();

    if failures.is_empty() {
        println!("\nall reproductions completed");
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
