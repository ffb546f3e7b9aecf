//! Entries over one traced application run — Fig. 1 (toy server),
//! Fig. 2 (web server), Fig. 8 and § II.A (query app) — and the two
//! tables read off the implementation: Table I and Table II.

use super::Report;
use crate::Scale;
use fluctrace_analysis::{tail_report, Figure, Series, StackedBars, Table};
use fluctrace_apps::{Query, QueryApp, WebServer};
use fluctrace_core::{
    detect, integrate_soa, EstimateTable, FlatProfile, IntegratedTrace, MappingMode,
};
use fluctrace_cpu::{
    CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig, SwSamplerConfig,
    SymbolTableBuilder,
};
use fluctrace_sim::{Freq, Rng, SimDuration, SimTime};

/// Collect the machine's trace and integrate it (3 GHz, interval mapping).
fn traced(machine: &mut Machine) -> IntegratedTrace {
    let (bundle, _) = machine.collect();
    integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    )
}

/// Fig. 1 — a trace (left) vs a profile (right).
///
/// The paper's illustrative example: a server invoking functions per
/// request. The profile shows only accumulated time per function; the
/// trace shows that function A took 90 µs for request #1 but 10 µs for
/// request #2 — the fluctuation a profile can never show.
pub(super) fn fig1(_: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let mut b = SymbolTableBuilder::new();
    let funcs = [b.add("A", 1024), b.add("B", 1024), b.add("C", 1024)];
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(2000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let core = machine.core_mut(0);

    // 50 requests; request #1 hits function A cold, later ones are
    // warm. B and C are constant.
    for req in 1..=50u64 {
        core.mark_item_start(ItemId(req));
        let a_uops = if req == 1 { 270_000 } else { 30_000 };
        core.exec(Exec::new(funcs[0], a_uops).ipc_milli(1000)); // A
        core.exec(Exec::new(funcs[1], 24_000).ipc_milli(1000)); // B
        core.exec(Exec::new(funcs[2], 12_000).ipc_milli(1000)); // C
        core.mark_item_end(ItemId(req));
    }
    let it = traced(&mut machine);
    let estimates = EstimateTable::from_integrated(&it);
    let profile = FlatProfile::from_integrated(&it);

    say!(r, "Fig. 1 — trace vs profile (imaginary web server)\n");
    say!(
        r,
        "TRACE (per-request, per-function elapsed time, first 3 requests):"
    );
    let mut trace_tbl = Table::new(vec!["request", "function", "elapsed (us)"]);
    for req in 1..=3u64 {
        if let Some(ie) = estimates.item(ItemId(req)) {
            for fe in ie.funcs {
                trace_tbl.row(vec![
                    format!("#{req}"),
                    machine.symtab().name(fe.func).to_string(),
                    format!("{:.1}", fe.elapsed.as_us_f64()),
                ]);
            }
        }
    }
    say!(r, "{trace_tbl}");
    let a = |req| {
        estimates
            .item(ItemId(req))
            .and_then(|ie| ie.func(funcs[0]))
            .map(|fe| fe.elapsed.as_us_f64())
            .unwrap_or(0.0)
    };
    say!(
        r,
        "=> the trace shows A fluctuating: {:.0} us for request #1, {:.0} us afterwards.\n",
        a(1),
        a(2)
    );

    say!(r, "PROFILE (accumulated over the whole run):");
    let mut prof_tbl = Table::new(vec!["function", "total time (us)"]);
    for entry in profile.hottest() {
        prof_tbl.row(vec![
            machine.symtab().name(entry.func).to_string(),
            format!("{:.0}", entry.total_time.as_us_f64()),
        ]);
    }
    say!(r, "{prof_tbl}");
    say!(
        r,
        "=> the profile only shows averages; the request-#1 fluctuation is invisible."
    );
    r
}

/// Fig. 2 — per-request elapsed time of each function of NGINX.
///
/// Paper methodology: NGINX serves the 612-byte default index page,
/// 300 K requests, one worker on one core; the run takes 44.8 s, i.e.
/// 149 µs per request. perf measures cycles per function and the
/// per-request elapsed time of function `f` is `149 µs × c_f / c_a`.
/// The punchline: **many functions take less than 4 µs per request**,
/// so instrumenting every function is far too heavy.
///
/// We reproduce exactly that computation on the web-server model: a
/// PEBS profile gives per-function cycle shares, scaled by the measured
/// mean request time.
pub(super) fn fig2(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let n_requests = scale.webserver_requests();
    // The paper takes the 149 µs/request figure from the plain
    // benchmark run and the per-function cycle shares from a separate
    // profiled run; we do the same so sampling dilation does not inflate
    // the quoted request time. 1 K simultaneous connections keep the
    // worker saturated, so run-time ÷ requests = mean service time.
    let (symtab, funcs) = WebServer::symtab();
    let mean_request_us = {
        let mut machine = Machine::new(MachineConfig::new(1, CoreConfig::bare()), symtab.clone());
        WebServer::run(
            &mut machine,
            funcs.clone(),
            n_requests,
            SimDuration::from_us(100),
            42,
        );
        machine.horizon().since(SimTime::ZERO).as_us_f64() / n_requests as f64
    };

    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(8_000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), symtab);
    let out = WebServer::run(
        &mut machine,
        funcs.clone(),
        n_requests,
        SimDuration::from_us(100),
        42,
    );
    let profile = FlatProfile::from_integrated(&traced(&mut machine));

    say!(
        r,
        "Fig. 2 — per-request elapsed time of web-server functions \
         ({n_requests} requests, mean {mean_request_us:.1} us/request; paper: 149 us)\n"
    );
    let mut tbl = Table::new(vec!["function", "share %", "per-request (us)"]);
    let mut series = Series::new("per_request_us");
    let mut under_4us = 0usize;
    let mut entries: Vec<_> = profile.hottest();
    entries.retain(|e| e.func != funcs.worker_loop);
    for (i, e) in entries.iter().enumerate() {
        // The paper's estimator: mean-request-time × cycle share.
        let per_request_us = mean_request_us * e.share;
        if per_request_us < 4.0 {
            under_4us += 1;
        }
        tbl.row(vec![
            machine.symtab().name(e.func).to_string(),
            format!("{:.2}", e.share * 100.0),
            format!("{per_request_us:.2}"),
        ]);
        series.push(i as f64, per_request_us);
    }
    say!(r, "{tbl}");
    say!(
        r,
        "{}/{} functions take less than 4 us per request (paper: \"many functions \
         take less than 4 us\") — instrumenting each one is too heavy.",
        under_4us,
        entries.len()
    );
    say!(r, "{} egress records checked.", out.len());

    let mut fig = Figure::new(
        "fig2",
        "Per-request elapsed time of each function of the web server",
        "function rank (hottest first)",
        "per-request elapsed time (us)",
    );
    fig.add(series);
    r.figure(&fig);
    r
}

/// Table I — characteristics of the two tracing mechanisms, emitted
/// from the *actual configuration constants* of the implementation so
/// the table cannot drift from the code.
pub(super) fn table1(_: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let pebs = PebsConfig::new(8_000);
    let sw = SwSamplerConfig::new(8_000);
    say!(r, "Table I — characteristics by each tracing mechanism\n");
    let mut t = Table::new(vec!["", "Sampling (PEBS)", "Instrumentation (marks)"]);
    t.row(vec!["implemented by", "hardware", "software"]);
    t.row(vec![
        "overhead",
        &format!("low ({} per sample)", pebs.assist),
        "high (per invocation, software)",
    ]);
    t.row(vec!["timing", "periodic", "per each data-item"]);
    t.row(vec!["adjustable", "yes (reset value)", "no"]);
    t.row(vec![
        "what to trace",
        "pre-defined (event, IP, regs, TSC)",
        "software-controlled",
    ]);
    t.row(vec![
        "traced data includes",
        "timestamp, instruction pointer",
        "timestamp, data-item ID",
    ]);
    say!(r, "{t}");
    say!(
        r,
        "(for contrast, software sampling pays {} of handler per sample — Fig. 4)",
        sw.handler
    );
    r
}

/// Table II — evaluation environment: the paper's physical testbed vs
/// this reproduction's simulated substrate.
pub(super) fn table2(_: Scale, _: bool) -> Report {
    let mut r = Report::default();
    say!(r, "Table II — evaluation environment\n");
    let mut t = Table::new(vec!["component", "paper", "this reproduction"]);
    t.row(vec![
        "CPU",
        "Intel Skylake (PEBS timestamps need >= Skylake)",
        "simulated 3.0 GHz Skylake-class cores (fluctrace-cpu)",
    ]);
    t.row(vec![
        "PEBS",
        "hardware, ~250 ns/sample, kernel module (simple-pebs)",
        "modelled: 250 ns assist, 1024-record buffer, 4 us handler",
    ]);
    t.row(vec![
        "NICs",
        "2 x 10 Gbps, packets looped through the firewall",
        "simulated ingress/egress schedules (fluctrace-apps::packets)",
    ]);
    t.row(vec![
        "tester",
        "GNET hardware network tester",
        "Tester actor with exact simulated timestamps",
    ]);
    t.row(vec![
        "storage",
        "SSD for PEBS dumps and instrumentation logs",
        "bandwidth-accounted sink (500 MB/s SSD model)",
    ]);
    t.row(vec![
        "DPDK",
        "real DPDK ACL sample app, patched trie limit",
        "fluctrace-acl multi-trie classifier + fluctrace-rt pipeline",
    ]);
    t.row(vec![
        "workloads",
        "SPEC CPU 2006 (astar, bzip2, gcc), NGINX + ab",
        "IPC-profiled kernel analogues; NGINX-like server model",
    ]);
    say!(r, "{t}");
    r
}

/// Fig. 8 — per-data-item elapsed time of each function of the sample
/// query application, obtained by the hybrid approach.
///
/// Setup per the paper: event `UOPS_RETIRED.ALL`, reset value 8000,
/// the Fig. 7 two-thread app. Expected shape: the 1st and 5th queries
/// take much longer than other queries with the same `n`, and the extra
/// time is in `f3` (the transform-and-cache function) — information
/// service-level logging cannot give.
pub(super) fn fig8(_: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let (symtab, funcs) = QueryApp::symtab();
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
    let table = EstimateTable::from_integrated(&traced(&mut machine));

    say!(
        r,
        "Fig. 8 — per-query elapsed time broken down by function (R = 8000)\n"
    );
    let mut tbl = Table::new(vec![
        "query",
        "n",
        "f1 (us)",
        "f2 (us)",
        "f3 (us)",
        "total-marks (us)",
    ]);
    let mut fig = Figure::new(
        "fig8",
        "Per-data-item elapsed time of each function (query app)",
        "query index",
        "elapsed time (us)",
    );
    let mut s1 = Series::new("f1");
    let mut s2 = Series::new("f2");
    let mut s3 = Series::new("f3");
    let mut stot = Series::new("total");
    let fmt = |v: Option<f64>| {
        v.map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "<2 samples".into())
    };
    let total = |id: u64| {
        table
            .item(ItemId(id))
            .and_then(|ie| ie.marked_total)
            .map(|d| d.as_us_f64())
    };
    for q in &queries {
        let ie = table.item(ItemId(q.id));
        let of = |f| {
            ie.and_then(|ie| ie.func(f))
                .filter(|fe| fe.is_estimable())
                .map(|fe| fe.elapsed.as_us_f64())
        };
        let (e1, e2, e3) = (of(funcs.f1), of(funcs.f2), of(funcs.f3));
        let t = total(q.id);
        tbl.row(vec![
            format!("#{}", q.id),
            q.n.to_string(),
            fmt(e1),
            fmt(e2),
            fmt(e3),
            fmt(t),
        ]);
        let x = q.id as f64;
        s1.push(x, e1.unwrap_or(0.0));
        s2.push(x, e2.unwrap_or(0.0));
        s3.push(x, e3.unwrap_or(0.0));
        stot.push(x, t.unwrap_or(0.0));
    }
    say!(r, "{tbl}");

    // The stacked-bar view of the same data (the paper's actual figure).
    let mut chart = StackedBars::new(60, vec![("f1", '.'), ("f2", 'o'), ("f3", '#')]);
    for q in &queries {
        let ie = table.item(ItemId(q.id));
        let val = |f| {
            ie.and_then(|ie| ie.func(f))
                .map(|fe| fe.elapsed.as_us_f64())
                .unwrap_or(0.0)
        };
        chart.row(
            format!("#{} (n={})", q.id, q.n),
            vec![val(funcs.f1), val(funcs.f2), val(funcs.f3)],
        );
    }
    say!(r, "{chart}");

    // The paper's reading of the figure.
    let cold_and_warm: Option<Vec<f64>> = [1, 2, 4, 8, 5, 7, 9].into_iter().map(total).collect();
    match cold_and_warm.as_deref() {
        Some(&[q1, q2, q4, q8, q5, q7, q9]) => {
            say!(
                r,
                "query #1 (n=3): {q1:.1} us vs warm #2/#4/#8 (n=3): {q2:.1}/{q4:.1}/{q8:.1} us"
            );
            say!(
                r,
                "query #5 (n=5): {q5:.1} us vs warm #7/#9 (n=5): {q7:.1}/{q9:.1} us"
            );
        }
        _ => r.fail("queries #1, #2, #4, #5, #7, #8 and #9 need a marked total"),
    }

    // Run the detector with the content grouping "same n".
    let by_n: std::collections::BTreeMap<u64, u64> =
        queries.iter().map(|q: &Query| (q.id, q.n)).collect();
    let report = detect(
        &table,
        |item| by_n.get(&item.0).map(|n| format!("n={n}")),
        3.0,
        SimDuration::from_us(2),
    );
    say!(
        r,
        "\nfluctuation detector: {} outlier(s) flagged:",
        report.outliers.len()
    );
    for o in &report.outliers {
        say!(
            r,
            "  query {} in group {} — {} took {:.1} us (group median {:.1} us)",
            o.item,
            o.group,
            machine.symtab().name(o.func),
            o.elapsed.as_us_f64(),
            o.median.as_us_f64()
        );
    }

    fig.add(s1);
    fig.add(s2);
    fig.add(s3);
    fig.add(stot);
    r.figure(&fig);
    r
}

/// § I / § II.A background, reproduced: tail latency of a query-serving
/// system under cache-warmth fluctuations.
///
/// Huang et al. (the paper's motivating citation \[1\]) measured TPC-C on
/// MySQL/Postgres/VoltDB and found "the standard deviation was twice the
/// mean" and "the 99th percentile was an order of magnitude greater than
/// the mean". This drives the query-cache app with a realistic mixture —
/// mostly-warm queries plus rare cache-invalidation events — and shows
/// (a) the same headline tail statistics and (b) that the hybrid tracer
/// pins the tail on `f3` (the recompute function).
pub(super) fn tail_latency(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let n_queries: u64 = match scale {
        Scale::Quick => 3_000,
        Scale::Paper => 50_000,
    };
    let (symtab, funcs) = QueryApp::symtab();
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(8_000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), symtab);
    let core = machine.core_mut(0);

    let mut app = QueryApp::new(funcs);
    let mut rng = Rng::new(0xDB);
    let mut latencies_us = Vec::with_capacity(n_queries as usize);
    // BTreeMap, not HashMap: this feeds a figure artifact and every
    // collection on that path must iterate deterministically.
    let mut sizes = std::collections::BTreeMap::new();
    for id in 0..n_queries {
        // Occasional invalidation events (evictions, fragmentation
        // fixes); the cache then re-warms over the following queries.
        if rng.gen_bool(0.02) {
            app.flush_cache();
        }
        // Mostly small queries, occasionally large ones (skewed low).
        let n = 1 + rng.gen_below(10).min(rng.gen_below(10));
        sizes.insert(id, n);
        let t0 = core.now();
        core.mark_item_start(ItemId(id));
        app.process(core, Query { id, n });
        core.mark_item_end(ItemId(id));
        latencies_us.push(core.now().since(t0).as_us_f64());
        core.idle(SimDuration::from_us(5));
    }

    let Some(report) = tail_report(&latencies_us) else {
        r.fail("no query latencies");
        return r;
    };
    say!(
        r,
        "tail latency of {} queries (cache-warmth fluctuations):\n",
        report.count
    );
    let mut t = Table::new(vec!["metric", "value", "Huang et al. (TPC-C on real DBs)"]);
    t.row(vec![
        "mean".to_string(),
        format!("{:.1} us", report.mean),
        "-".into(),
    ]);
    t.row(vec![
        "std/mean".to_string(),
        format!("{:.2}", report.std_over_mean),
        "\"the standard deviation was twice the mean\"".into(),
    ]);
    t.row(vec![
        "p99/mean".to_string(),
        format!("{:.1}", report.p99_over_mean),
        "\"the 99th percentile was an order of magnitude greater\"".into(),
    ]);
    t.row(vec![
        "p50 / p99 / p999".to_string(),
        format!(
            "{:.1} / {:.1} / {:.1} us",
            report.p50, report.p99, report.p999
        ),
        "-".into(),
    ]);
    say!(r, "{t}");

    // Diagnose: integrate and group by query size.
    let table = EstimateTable::from_integrated(&traced(&mut machine));
    let fluct = detect(
        &table,
        |item| sizes.get(&item.0).map(|n| format!("n={n}")),
        4.0,
        SimDuration::from_us(5),
    );
    let f3_outliers = fluct.outliers_for(funcs.f3).count();
    say!(
        r,
        "detector: {} outliers flagged, {} of them on f3 (the recompute path) — \
         the tail is cache-warmth, not query size.",
        fluct.outliers.len(),
        f3_outliers
    );
    say!(
        r,
        "(direction matches Huang et al.; their magnitudes are larger because real \
         DB engines stack many fluctuation sources — locks, I/O, GC — on top of \
         cache warmth, while this app has exactly one.)"
    );
    r
}
