//! Same seed, same input and same exact counts; another seed, another
//! input; and no `FLUCTRACE_*` variable changes a workload.

mod common;

use common::{out_dir, quick_run};
use fluctrace_benchmark::report::{load_set, RunDoc};
use fluctrace_benchmark::workloads::{Metrics, NAMES};
use std::process::Command;

fn exact(metrics: &Metrics) -> Vec<(String, f64)> {
    metrics
        .0
        .iter()
        .filter(|(_, m)| m.exact)
        .map(|(n, m)| (n.clone(), m.value))
        .collect()
}

#[test]
fn the_seed_fixes_the_input_and_the_exact_counts() {
    for workload in NAMES {
        let a = quick_run(workload, 7, false, "determinism");
        let b = quick_run(workload, 7, false, "determinism");
        let c = quick_run(workload, 8, false, "determinism");
        assert_eq!(a.input_digest, b.input_digest, "{workload}");
        assert_ne!(a.input_digest, c.input_digest, "{workload}");
        assert_eq!(exact(&a.end_to_end), exact(&b.end_to_end), "{workload}");
        // Stored bytes and the rendered table are exact counts; protocol
        // replies carry wall-clock readings and are not.
        let has_exact_bytes = exact(&a.end_to_end)
            .iter()
            .any(|(n, _)| n == "bytes_per_sample");
        assert_eq!(has_exact_bytes, workload != "serve_steady", "{workload}");
    }
}

#[test]
fn exact_per_layer_counts_repeat() {
    let a = quick_run("replay_acl", 7, true, "determinism_traced");
    let b = quick_run("replay_acl", 7, true, "determinism_traced");
    let counts = exact(&a.per_layer);
    assert_eq!(counts, exact(&b.per_layer));
    for name in [
        "core.soa.attributed_frac",
        "store.read.window_overread",
        "store.write.bytes_per_sample",
        "core.online.items",
        "core.estimate.rows",
        "store.write.chunks",
    ] {
        assert!(
            counts.iter().any(|(n, _)| n == name),
            "{name} is an exact count"
        );
    }
}

fn spawn(workload: &str, traced: bool, dir: &str, env: &[(&str, &str)]) -> RunDoc {
    let out = out_dir(dir);
    let status = Command::new(env!("CARGO_BIN_EXE_fluctrace-benchmark"))
        .args([
            "--workload",
            workload,
            "--quick",
            "--seed",
            "7",
            "--seconds",
            "0.05",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .envs(env.iter().copied())
        .output()
        .expect("spawn benchmark");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let kind = if traced { "traced" } else { "untraced" };
    load_set(&out.join(format!("{workload}_{kind}.json")))
        .expect("run document")
        .remove(0)
}

#[test]
fn fluctrace_variables_do_not_change_a_workload() {
    let hostile = [
        ("FLUCTRACE_THREADS", "1"),
        ("FLUCTRACE_STORE_CHUNK", "64"),
        ("FLUCTRACE_PERF_SAMPLES", "1000"),
    ];
    for workload in NAMES {
        // The traced run of one workload carries every exact count.
        let traced = workload == "capture_spill";
        let plain = spawn(workload, traced, "env_plain", &[]);
        let set = spawn(workload, traced, "env_set", &hostile);
        assert_eq!(plain.input_digest, set.input_digest, "{workload}");
        assert_eq!(plain.env.threads, set.env.threads, "{workload}");
        assert_eq!(plain.samples_per_rep, set.samples_per_rep, "{workload}");
        assert_eq!(
            exact(&plain.end_to_end),
            exact(&set.end_to_end),
            "{workload}"
        );
        assert_eq!(exact(&plain.per_layer), exact(&set.per_layer), "{workload}");
        assert_eq!(set.failed, 0, "{workload}: {:?}", set.failures);
    }
}
