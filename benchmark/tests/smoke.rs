//! `--quick` smoke coverage: every workload, untraced and traced, runs
//! clean and reports exactly what `BENCHMARK.json` promises.

mod common;

use common::quick_run;
use fluctrace_benchmark::workloads::NAMES;
use serde_json::Value;

fn bench_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&body).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    assert_eq!(names(&bench_json(), "workloads"), NAMES);
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_no_failure() {
    let wanted = names(&bench_json(), "end_to_end");
    for workload in NAMES {
        let doc = quick_run(workload, 11, false, "smoke");
        assert_eq!(doc.failed, 0, "{workload}: {:?}", doc.failures);
        assert_eq!(doc.end_to_end.get("failed_frac"), Some(0.0));
        let reported = doc.contract_metrics();
        let mut got: Vec<&String> = reported.0.keys().collect();
        let mut want: Vec<&String> = wanted.iter().collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{workload}");
        for (name, m) in &reported.0 {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload}: {name} = {} must never be 0",
                m.value
            );
        }
        let line: Value = serde_json::from_str(&doc.contract_line()).expect("result line");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let wanted = names(&bench_json(), "per_layer");
    for workload in NAMES {
        let doc = quick_run(workload, 11, true, "smoke");
        assert_eq!(doc.failed, 0, "{workload}: {:?}", doc.failures);
        let reported = doc.contract_metrics();
        let mut got: Vec<&String> = reported.0.keys().collect();
        let mut want: Vec<&String> = wanted.iter().collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{workload}");
        assert!(reported.0.values().all(|m| m.value.is_finite()));
        assert!(
            doc.spans_json.is_some(),
            "{workload}: spans kept for the trace file"
        );
    }
}
