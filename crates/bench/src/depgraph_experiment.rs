//! Ground-truth recovery sweep for the DepGraph diagnosis pass.
//!
//! Every case injects a *declared* root cause into an otherwise-clean
//! bounded pipeline via [`DepPlan`] — a degraded stage or an arrival
//! burst, with the anomaly window shifted by the seed — runs the exact
//! bounded-ring DP ([`run_bounded`]) and the walker
//! ([`fluctrace_core::depgraph::diagnose`]), and checks that the walker
//! names the declared cause back, the way the overload experiment
//! proves `LossStats` exact against injected fault counts.
//!
//! Recovery is strict: a case counts as recovered only if the run
//! produced at least one anomaly episode, *every* episode's root
//! matches the declared `(stage, cause)`, and the per-cause wait
//! accounting sums exactly to the observed wait
//! ([`Diagnosis::accounting_exact`]).
//!
//! Everything here is a pure function of the case list, so the emitted
//! figure and canonical report are byte-identical across
//! `FLUCTRACE_THREADS` settings — CI diffs the report across thread
//! counts.

use crate::{run_sweep, Scale};
use fluctrace_analysis::{Figure, Series};
use fluctrace_core::depgraph::{diagnose, DepgraphConfig, Diagnosis};
use fluctrace_rt::bounded::{run_bounded, BoundedRun, BoundedSpec, BoundedStage};
use fluctrace_sim::{DeclaredRootCause, DepPlan, DepScenario, DepSchedule};
use serde::Serialize;

/// Schema tag of the exported recovery report.
pub const REPORT_SCHEMA: &str = "fluctrace.depgraph_report.v1";

/// One labeled sweep case.
#[derive(Debug, Clone)]
pub struct DepCase {
    /// Stable label used in the figure and report.
    pub label: String,
    /// The scenario to inject.
    pub plan: DepPlan,
    /// Window-shift seed.
    pub seed: u64,
}

/// Outcome of one case.
#[derive(Debug, Clone, Serialize)]
pub struct CaseResult {
    /// Case label.
    pub label: String,
    /// Declared root stage.
    pub declared_stage: u32,
    /// Declared root cause label.
    pub declared_cause: String,
    /// Anomaly episodes the walker found.
    pub episodes: u64,
    /// True when every episode recovered the declared root.
    pub recovered: bool,
    /// True when per-cause wait cycles summed exactly to observed wait.
    pub accounting_exact: bool,
    /// The full diagnosis.
    pub diagnosis: Diagnosis,
}

/// The canonical machine-checkable report of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DepgraphReport {
    /// Schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Per-case outcomes, in case order.
    pub cases: Vec<CaseResult>,
}

impl DepgraphReport {
    /// Canonical JSON (declaration-ordered fields, `BTreeMap` maps).
    pub fn to_canonical_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).unwrap_or_default();
        out.push('\n');
        out
    }
}

/// Everything the `figures depgraph` entry reports.
#[derive(Debug, Clone)]
pub struct DepgraphData {
    /// Recovery figure (one point per case).
    pub figure: Figure,
    /// Canonical per-case report.
    pub report: DepgraphReport,
    /// Every case recovered its declared root.
    pub all_recovered: bool,
    /// Every case's accounting was exact.
    pub all_exact: bool,
}

/// Build the bounded-pipeline spec a schedule describes (stage `s`
/// runs on core `s`).
pub fn spec_of(schedule: &DepSchedule, ring_capacity: usize) -> BoundedSpec {
    BoundedSpec {
        ring_capacity,
        arrivals: schedule.arrivals.clone(),
        stages: schedule
            .services
            .iter()
            .enumerate()
            .map(|(s, service)| BoundedStage {
                core: s as u32,
                service: service.clone(),
            })
            .collect(),
    }
}

/// Materialize, run and diagnose one case.
pub fn run_case(case: &DepCase) -> (BoundedRun, Diagnosis) {
    let schedule = case.plan.schedule(case.seed);
    let run = run_bounded(&spec_of(&schedule, case.plan.ring_capacity));
    let diagnosis = diagnose(&run, &DepgraphConfig::new());
    (run, diagnosis)
}

/// True when the diagnosis names the declared root back: at least one
/// episode, and every episode's `(root_stage, root_cause)` matches.
pub fn recovered(diagnosis: &Diagnosis, declared: &DeclaredRootCause) -> bool {
    !diagnosis.episodes.is_empty()
        && diagnosis
            .episodes
            .iter()
            .all(|ep| ep.root_cause == declared.cause.as_str() && ep.root_stage == declared.stage)
}

/// The labeled sweep: degraded stages at several depths and ring
/// capacities (small capacities force the walker through a ring-full
/// backpressure chain) plus arrival bursts, each at a couple of
/// window-shift seeds.
pub fn depgraph_cases(scale: Scale) -> Vec<DepCase> {
    let items = match scale {
        Scale::Quick => 240,
        Scale::Paper => 2_400,
    };
    let win = |from: usize, to: usize| match scale {
        Scale::Quick => (from, to),
        Scale::Paper => (from * 10, to * 10),
    };
    let mut cases = Vec::new();
    let mut push = |label: &str, seed: u64, plan: DepPlan| {
        cases.push(DepCase {
            label: format!("{label}/seed{seed}"),
            plan,
            seed,
        });
    };

    // Degraded source stage: queueing shows up directly at stage 0.
    let (from, to) = win(60, 100);
    for seed in [1, 6] {
        push(
            "degraded-s0-c64",
            seed,
            DepPlan {
                stages: 3,
                items,
                base_service: 100,
                arrival_gap: 150,
                ring_capacity: 64,
                scenario: DepScenario::DegradedStage {
                    stage: 0,
                    factor_milli: 5_000,
                    from,
                    to,
                },
            },
        );
    }

    // Degraded middle stage behind a roomy ring: handoff queueing
    // concentrates at the degraded stage itself.
    let (from, to) = win(80, 130);
    for seed in [2, 5] {
        push(
            "degraded-s1-c64",
            seed,
            DepPlan {
                stages: 3,
                items,
                base_service: 100,
                arrival_gap: 150,
                ring_capacity: 64,
                scenario: DepScenario::DegradedStage {
                    stage: 1,
                    factor_milli: 6_000,
                    from,
                    to,
                },
            },
        );
    }

    // Degraded last stage behind tiny rings: backpressure chains
    // upstream and the walker must hop ring-full links to the root.
    let (from, to) = win(50, 90);
    for seed in [3, 7] {
        push(
            "degraded-s2-c4",
            seed,
            DepPlan {
                stages: 3,
                items,
                base_service: 100,
                arrival_gap: 150,
                ring_capacity: 4,
                scenario: DepScenario::DegradedStage {
                    stage: 2,
                    factor_milli: 6_000,
                    from,
                    to,
                },
            },
        );
    }

    // Deep pipeline, capacity-2 rings, degraded stage 3 of 4.
    let (from, to) = win(70, 110);
    push(
        "degraded-s3-c2",
        4,
        DepPlan {
            stages: 4,
            items,
            base_service: 100,
            arrival_gap: 160,
            ring_capacity: 2,
            scenario: DepScenario::DegradedStage {
                stage: 3,
                factor_milli: 5_000,
                from,
                to,
            },
        },
    );

    // Arrival bursts: equal service, roomy rings — no ring-full edge
    // exists, so the walk must stop at the source stage.
    let (from, to) = win(100, 130);
    for seed in [0, 5] {
        push(
            "burst-c64",
            seed,
            DepPlan {
                stages: 3,
                items,
                base_service: 100,
                arrival_gap: 200,
                ring_capacity: 64,
                scenario: DepScenario::ArrivalBurst { from, to },
            },
        );
    }

    cases
}

/// Run the full sweep (fanned out over the shared pool, results in
/// case order) and assemble figure + canonical report.
pub fn depgraph_data(scale: Scale) -> DepgraphData {
    let cases = depgraph_cases(scale);
    let results: Vec<CaseResult> = run_sweep(cases, |case| {
        let declared = case.plan.declared();
        let (run, diagnosis) = run_case(&case);
        CaseResult {
            label: case.label,
            declared_stage: declared.stage,
            declared_cause: declared.cause.as_str().to_string(),
            episodes: diagnosis.episodes.len() as u64,
            recovered: recovered(&diagnosis, &declared),
            accounting_exact: diagnosis.accounting_exact(&run),
            diagnosis,
        }
    });

    let mut fig = Figure::new(
        "depgraph",
        "DepGraph root-cause recovery over the seeded fault sweep",
        "case index",
        "recovered (1) / episodes",
    );
    let mut rec = Series::new("recovered");
    let mut exact = Series::new("accounting_exact");
    let mut episodes = Series::new("episodes");
    for (i, r) in results.iter().enumerate() {
        rec.push(i as f64, if r.recovered { 1.0 } else { 0.0 });
        exact.push(i as f64, if r.accounting_exact { 1.0 } else { 0.0 });
        episodes.push(i as f64, r.episodes as f64);
    }
    fig.add(rec).add(exact).add(episodes);

    let all_recovered = results.iter().all(|r| r.recovered);
    let all_exact = results.iter().all(|r| r.accounting_exact);
    DepgraphData {
        figure: fig,
        report: DepgraphReport {
            schema: REPORT_SCHEMA.to_string(),
            cases: results,
        },
        all_recovered,
        all_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_every_declared_root_exactly() {
        let data = depgraph_data(Scale::Quick);
        for case in &data.report.cases {
            assert!(
                case.recovered,
                "{}: declared {} at stage {} not recovered: {:?}",
                case.label,
                case.declared_cause,
                case.declared_stage,
                case.diagnosis
                    .episodes
                    .iter()
                    .map(|e| &e.explanation)
                    .collect::<Vec<_>>()
            );
            assert!(case.accounting_exact, "{}: accounting drift", case.label);
            assert!(case.episodes >= 1);
        }
        assert!(data.all_recovered && data.all_exact);
    }

    #[test]
    fn chain_cases_actually_walk_a_ring_full_chain() {
        let data = depgraph_data(Scale::Quick);
        let chained = data
            .report
            .cases
            .iter()
            .filter(|c| c.label.starts_with("degraded-s2-c4") || c.label.starts_with("degraded-s3"))
            .flat_map(|c| c.diagnosis.episodes.iter())
            .any(|ep| ep.chain.iter().any(|l| l.cause == "ring_full"));
        assert!(chained, "small-ring cases never exercised the chain walk");
    }

    #[test]
    fn report_is_reproducible() {
        let a = depgraph_data(Scale::Quick);
        let b = depgraph_data(Scale::Quick);
        assert_eq!(a.report.to_canonical_json(), b.report.to_canonical_json());
        assert_eq!(a.figure.to_json(), b.figure.to_json());
        assert!(a.report.to_canonical_json().contains(REPORT_SCHEMA));
    }
}
