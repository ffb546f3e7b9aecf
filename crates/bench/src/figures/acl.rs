//! Entries over the ACL firewall case study (§ IV.C): Table III, Fig. 9,
//! Fig. 10, the § IV.C.3 data volume and the § II.C motivation.

use super::Report;
use crate::acl_experiment::{run_acl, AclRunConfig, AclRunResult, PAPER_RESETS};
use crate::{run_sweep, Scale};
use fluctrace_acl::{table3_rules, AclBuildConfig, MultiTrieAcl};
use fluctrace_analysis::{assert_decreasing, DotRows, Figure, Series, Table};
use fluctrace_apps::{AclCostModel, Firewall, PacketType, Tester};
use fluctrace_core::overhead::{fit_inverse_reset, r_squared_inverse_reset};
use fluctrace_core::OverheadModel;
use fluctrace_cpu::{CoreConfig, Machine, MachineConfig, PebsConfig};
use fluctrace_sim::{SimDuration, SimTime};

/// Table III — the installed ACL rule set: structure, count, and the
/// number of tries it builds (vanilla vs patched limit).
pub(super) fn table3(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let (sports, dports, tail) = scale.table3_params();
    let rules = table3_rules(sports, dports, tail);
    say!(r, "Table III — installed ACL rules\n");
    let mut t = Table::new(vec![
        "src addr", "dst addr", "src port", "dst port", "action",
    ]);
    t.row(vec!["192.168.10.0/24", "192.168.11.0/24", "1", "1", "Drop"]);
    t.row(vec!["...", "...", "...", "...", "..."]);
    t.row(vec![
        "192.168.10.0/24",
        "192.168.11.0/24",
        &sports.to_string(),
        &dports.to_string(),
        "Drop",
    ]);
    t.row(vec![
        "192.168.10.0/24",
        "192.168.11.0/24",
        &(sports + 1).to_string(),
        &format!("1..{tail}"),
        "Drop",
    ]);
    say!(r, "{t}");
    say!(
        r,
        "{sports} x {dports} + {tail} = {} rules (paper claims 50 000; its caption's \
         arithmetic, 666x750+500, is inconsistent — we honour the claimed totals)",
        rules.len()
    );

    let patched = MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
    let vanilla = MultiTrieAcl::build(&rules, AclBuildConfig::vanilla());
    let mut t2 = Table::new(vec!["build", "tries", "total trie nodes"]);
    t2.row(vec![
        "patched limit (paper)".to_string(),
        patched.num_tries().to_string(),
        patched.total_nodes().to_string(),
    ]);
    t2.row(vec![
        "vanilla DPDK (max 8)".to_string(),
        vanilla.num_tries().to_string(),
        vanilla.total_nodes().to_string(),
    ]);
    say!(r, "\n{t2}");
    say!(
        r,
        "(paper: the 50 000-rule set is stored in 247 trie structures)"
    );
    r
}

/// The instrumented baseline run (no profiling) and one run per
/// [`PAPER_RESETS`] value. The runs are independent — each owns a
/// freshly seeded simulator — so they fan out over the worker pool and
/// come back in input order.
fn reset_sweep(scale: Scale, keep_bundles: bool) -> (AclRunResult, Vec<AclRunResult>) {
    let (per_type, table3) = (scale.packets_per_type(), scale.table3_params());
    let configs = std::iter::once(None)
        .chain(PAPER_RESETS.map(Some))
        .map(|reset| AclRunConfig {
            keep_bundle: keep_bundles,
            ..AclRunConfig::new(reset, per_type, table3)
        })
        .collect();
    let mut results = run_sweep(configs, run_acl);
    let baseline = results.remove(0);
    (baseline, results)
}

/// Fig. 9 — estimated per-packet elapsed time of `rte_acl_classify`
/// vs reset value, compared against the instrumented baseline.
///
/// Expected shape (paper): type A ≈ 12–14 µs, type C ≈ 6 µs (a >100%
/// fluctuation); hybrid estimates track the baseline, degrading (fewer
/// samples per packet → underestimation + growing error bars) as the
/// reset value rises. `keep_bundles` keeps one raw bundle per run,
/// baseline first; it enters no computation.
pub(super) fn fig9(scale: Scale, keep_bundles: bool) -> Report {
    let mut r = Report::default();
    let per_type = scale.packets_per_type();
    say!(
        r,
        "Fig. 9 — per-packet rte_acl_classify elapsed time ({} packets/type)\n",
        per_type
    );
    let (mut baseline, mut results) = reset_sweep(scale, keep_bundles);

    let mut fig = Figure::new(
        "fig9",
        "Estimated per-packet elapsed time of rte_acl_classify",
        "reset value (baseline = instrumented)",
        "elapsed time (us)",
    );
    let mut baseline_series = Series::new("baseline");
    for t in PacketType::ALL {
        let s = &baseline.for_type(t).classify_us;
        baseline_series.push_err(0.0, s.mean(), s.std_dev());
    }
    fig.add(baseline_series);
    for t in PacketType::ALL {
        let mut series = Series::new(format!("type {}", t.label()));
        for (run, &reset) in results.iter().zip(&PAPER_RESETS) {
            let s = &run.for_type(t).classify_us;
            series.push_err(reset as f64, s.mean(), s.std_dev());
        }
        fig.add(series);
    }

    say!(
        r,
        "rule set: {} rules in {} tries",
        baseline.rules,
        baseline.tries
    );
    let mut tbl = Table::new(vec![
        "reset",
        "type",
        "mean (us)",
        "std (us)",
        "estimable/total",
    ]);
    let labels = std::iter::once("baseline".to_string()).chain(PAPER_RESETS.map(|x| x.to_string()));
    for (label, run) in labels.zip(std::iter::once(&baseline).chain(&results)) {
        for t in PacketType::ALL {
            let s = run.for_type(t);
            tbl.row(vec![
                label.clone(),
                t.label().to_string(),
                format!("{:.2}", s.classify_us.mean()),
                format!("{:.2}", s.classify_us.std_dev()),
                format!("{}/{}", s.estimable, per_type),
            ]);
        }
    }
    say!(r, "{tbl}");

    // Dot-plot view: estimates per type across reset values, with the
    // baseline at the left-most label row.
    let mut chart = DotRows::new(60, vec![("type A", 'A'), ("type B", 'B'), ("type C", 'C')]);
    let means = |run: &AclRunResult| {
        let types = PacketType::ALL.iter();
        types.map(|&t| run.for_type(t).classify_us.mean()).collect()
    };
    chart.row("baseline", means(&baseline));
    for (run, &reset) in results.iter().zip(&PAPER_RESETS) {
        chart.row(format!("R={reset}"), means(run));
    }
    say!(r, "{chart}");

    // Shape summary.
    let a = baseline.for_type(PacketType::A).classify_us.mean();
    let c = baseline.for_type(PacketType::C).classify_us.mean();
    say!(
        r,
        "baseline fluctuation: type A {:.1} us vs type C {:.1} us — {:.0}% \
         (paper: ~12-14 us vs ~6 us, \"more than 100%\")",
        a,
        c,
        (a / c - 1.0) * 100.0
    );
    r.figure(&fig);
    let runs = std::iter::once(&mut baseline).chain(&mut results);
    r.bundles = runs.filter_map(|run| run.bundle.take()).collect();
    r
}

/// Fig. 10 — overhead of the method vs reset value.
///
/// Overhead for reset value `R` is `L_R − L*`: the mean packet latency
/// with profiling at `R` minus the mean latency with no profiling,
/// measured by the (simulated) hardware tester. Expected shape:
/// monotonically decreasing in `R`, small relative to the 6–14 µs
/// packet latencies at the paper's "proper" value (16 K). The § V.C
/// analytic model prediction is plotted alongside.
pub(super) fn fig10(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let per_type = scale.packets_per_type();
    say!(
        r,
        "Fig. 10 — latency overhead vs reset value ({per_type} packets/type)\n"
    );
    let (baseline, results) = reset_sweep(scale, false);
    let l_star = baseline.mean_latency_us;
    let mut fig = Figure::new(
        "fig10",
        "Overhead (latency increase) vs reset value",
        "reset value",
        "latency increase (us)",
    );
    let mut tbl = Table::new(vec![
        "reset",
        "L_R (us)",
        "overhead L_R - L* (us)",
        "model prediction (us)",
    ]);
    let mut measured = Series::new("measured");
    let mut predicted = Series::new("model");
    // Analytic prediction from the §V.C model: the ACL thread retires
    // ~1.5 µops/cycle while classifying; overhead ≈ samples-in-packet ×
    // assist.
    let model = OverheadModel::new(1.5 * 3.0e9);
    for (run, &reset) in results.iter().zip(&PAPER_RESETS) {
        let overhead = run.mean_latency_us - l_star;
        let pred = model
            .added_latency(reset, SimDuration::from_ns_f64(l_star * 1000.0))
            .as_us_f64();
        measured.push(reset as f64, overhead);
        predicted.push(reset as f64, pred);
        tbl.row(vec![
            reset.to_string(),
            format!("{:.2}", run.mean_latency_us),
            format!("{overhead:.2}"),
            format!("{pred:.2}"),
        ]);
    }
    say!(r, "baseline L* = {l_star:.2} us\n{tbl}");
    match assert_decreasing("overhead vs reset", &measured.ys()) {
        Ok(()) => say!(
            r,
            "shape: overhead strictly decreases with the reset value ✓"
        ),
        Err(e) => say!(r, "shape: {e}"),
    }
    fig.add(measured);
    fig.add(predicted);
    r.figure(&fig);
    r
}

/// § IV.C.3 — PEBS data volume per reset value.
///
/// Paper: 270 / 194 / 153 / 125 / 106 MB/s for reset values 8 K…24 K on
/// the ACL core; ×16 cores = 4.3…1.7 GB/s per CPU, under 4% of a
/// Xeon Platinum 8153 socket's 127.8 GB/s memory bandwidth. The
/// absolute MB/s depends on the µop rate of the authors' core; the
/// shape is `a + b/R`, which we verify by fitting.
pub(super) fn data_volume(scale: Scale, _: bool) -> Report {
    const PAPER_MB_S: [f64; 5] = [270.0, 194.0, 153.0, 125.0, 106.0];
    const SOCKET_BW_GB_S: f64 = 127.8; // Xeon Platinum 8153, DDR4-2666 x6
    let mut r = Report::default();
    let (per_type, table3) = (scale.packets_per_type(), scale.table3_params());
    say!(
        r,
        "§IV.C.3 — PEBS sample data volume ({per_type} packets/type)\n"
    );
    let mut tbl = Table::new(vec![
        "reset",
        "measured (MB/s/core)",
        "x16 cores (GB/s)",
        "% of socket BW",
        "paper (MB/s/core)",
    ]);
    let mut fig = Figure::new(
        "data_volume",
        "PEBS data volume vs reset value",
        "reset value",
        "MB/s per core",
    );
    let mut measured = Series::new("measured");
    let mut paper = Series::new("paper");
    let mut points = Vec::new();
    let configs = PAPER_RESETS.map(|reset| AclRunConfig::new(Some(reset), per_type, table3));
    let runs = run_sweep(configs.into(), run_acl);
    for ((run, &reset), &paper_mb_s) in runs.iter().zip(&PAPER_RESETS).zip(&PAPER_MB_S) {
        let mb_s = run.pebs_mb_per_s();
        let cpu_gb_s = mb_s * 16.0 / 1000.0;
        tbl.row(vec![
            reset.to_string(),
            format!("{mb_s:.0}"),
            format!("{cpu_gb_s:.2}"),
            format!("{:.1}%", cpu_gb_s / SOCKET_BW_GB_S * 100.0),
            format!("{paper_mb_s:.0}"),
        ]);
        measured.push(reset as f64, mb_s);
        paper.push(reset as f64, paper_mb_s);
        points.push((reset, mb_s));
    }
    say!(r, "{tbl}");

    let (a, b) = fit_inverse_reset(&points);
    let r2 = r_squared_inverse_reset(&points, a, b);
    say!(
        r,
        "volume(R) fits {a:.1} + {b:.3e}/R with R^2 = {r2:.4} (paper's own numbers \
         fit the same 1/R law; absolute level scales with the core's uop rate)"
    );
    fig.add(measured);
    fig.add(paper);
    r.figure(&fig);
    r
}

/// One firewall run for [`motivation`]: the mean packet latency and the
/// marking calls paid on the ACL core.
fn firewall_run(core_cfg: CoreConfig, per_type: usize, table3: (u16, u16, u16)) -> (f64, u64) {
    let (symtab, funcs) = Firewall::symtab();
    let mut machine = Machine::new(MachineConfig::new(3, core_cfg), symtab);
    let rules = table3_rules(table3.0, table3.1, table3.2);
    let fw = Firewall::new(
        &rules,
        AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    let (tester, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), per_type);
    let fwrun = fw.run(&mut machine, ingress);
    let report = tester.receive(&fwrun.egress);
    let (_, reports) = machine.collect();
    (report.overall_mean_us(), reports[1].func_instr_events)
}

/// § II.C motivation, quantified: what would it cost to get per-item,
/// per-function times with *instrumentation alone* (gprof/Vampir-style
/// marks at every function boundary), compared to the hybrid approach?
///
/// The paper's argument: functions take single microseconds and hot
/// functions are invoked many times per item (rte_acl_classify walks
/// 247 tries), so marking every call is "too heavy", while selecting
/// which functions to instrument cannot be done before the fluctuation
/// is understood. Here both tracers run on the same ACL workload.
pub(super) fn motivation(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let per_type = scale.packets_per_type().min(2_000);
    let table3 = scale.table3_params();

    say!(
        r,
        "§II.C — cost of per-function instrumentation vs the hybrid approach\n"
    );
    let (baseline, _) = firewall_run(CoreConfig::bare(), per_type, table3);
    let (hybrid, _) = firewall_run(
        CoreConfig::bare().with_pebs(PebsConfig::new(16_000)),
        per_type,
        table3,
    );
    // A cheap, memory-buffered marking call: 100 ns. rte_acl_classify
    // represents one call per trie, so a packet pays ~2x247 marks in the
    // classifier alone.
    let (full, events) = firewall_run(
        CoreConfig::bare().with_func_instrumentation(SimDuration::from_ns(100)),
        per_type,
        table3,
    );

    let mut t = Table::new(vec![
        "tracer",
        "mean latency (us)",
        "overhead (us)",
        "overhead %",
    ]);
    let mut row = |name: &str, lat: f64| {
        t.row(vec![
            name.to_string(),
            format!("{lat:.2}"),
            format!("{:.2}", lat - baseline),
            format!("{:.0}%", (lat / baseline - 1.0) * 100.0),
        ]);
    };
    row("none (baseline)", baseline);
    row("hybrid (2 marks/item + PEBS R=16K)", hybrid);
    row("full instrumentation (100 ns/boundary)", full);
    say!(r, "{t}");
    say!(
        r,
        "full instrumentation paid {events} marking calls on the ACL core alone; \
         the hybrid tracer pays exactly 2 marks per packet and gets the same \
         per-item per-function visibility from sampling."
    );
    r
}
