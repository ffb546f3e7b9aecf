//! Fig. 10 — overhead of the method vs reset value.
//!
//! Overhead for reset value `R` is `L_R − L*`: the mean packet latency
//! with profiling at `R` minus the mean latency with no profiling,
//! measured by the (simulated) hardware tester. Expected shape:
//! monotonically decreasing in `R`, small relative to the 6–14 µs
//! packet latencies at the paper's "proper" value (16 K).
//!
//! Figure assembly lives in [`fluctrace_bench::figures::fig10_data`]
//! (shared with the golden tests); this bin adds the table and the
//! shape check.

use fluctrace_analysis::{assert_decreasing, Table};
use fluctrace_bench::acl_experiment::PAPER_RESETS;
use fluctrace_bench::figures::fig10_data;
use fluctrace_bench::{emit, Scale};

fn main() {
    fluctrace_bench::obs_support::init();
    let scale = Scale::from_env();
    let per_type = scale.packets_per_type();

    println!("Fig. 10 — latency overhead vs reset value ({per_type} packets/type)\n");
    let data = fig10_data(scale);
    let l_star = data.l_star;

    let mut tbl = Table::new(vec![
        "reset",
        "L_R (us)",
        "overhead L_R - L* (us)",
        "model prediction (us)",
    ]);
    let measured = data
        .figure
        .series("measured")
        .expect("figure has the measured series");
    let predicted = data
        .figure
        .series("model")
        .expect("figure has the model series");
    for (i, (r, &reset)) in data.results.iter().zip(&PAPER_RESETS).enumerate() {
        let overhead = measured.points[i].y;
        let pred = predicted.points[i].y;
        tbl.row(vec![
            reset.to_string(),
            format!("{:.2}", r.mean_latency_us),
            format!("{overhead:.2}"),
            format!("{pred:.2}"),
        ]);
    }
    println!("baseline L* = {l_star:.2} us\n{tbl}");

    match assert_decreasing("overhead vs reset", &measured.ys()) {
        Ok(()) => println!("shape: overhead strictly decreases with the reset value ✓"),
        Err(e) => println!("shape: {e}"),
    }
    emit(&data.figure);
    fluctrace_bench::obs_support::finish();
}
