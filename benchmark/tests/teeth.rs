//! Verifiers with teeth: each workload's verifier is handed a
//! deliberately wrong result and must count failed operations.

mod common;

use common::{exercise, quick_ctx};
use fluctrace_benchmark::harness::Ops;
use fluctrace_benchmark::trace::Tracer;
use fluctrace_benchmark::workloads::analyze_wide::{
    analyze, reference_table, verify_table, AnalyzeWide,
};
use fluctrace_benchmark::workloads::capture_spill::{
    capture, check_capture, verify_spill, CaptureSpill,
};
use fluctrace_benchmark::workloads::replay_acl::ReplayAcl;
use fluctrace_benchmark::workloads::serve_steady::{
    check_reply, replay, run_lifetime, shut_down, verify_drained, ServeSteady, VERBS,
};
use fluctrace_benchmark::workloads::Workload;
use fluctrace_serve::query;

#[test]
fn a_clean_run_of_every_workload_has_no_failure() {
    let ctx = quick_ctx(3, "teeth_clean");
    for name in fluctrace_benchmark::workloads::NAMES {
        let mut w = fluctrace_benchmark::workloads::setup(name, &ctx).expect("set-up");
        let ops = exercise(w.as_mut());
        assert_eq!(ops.failed, 0, "{name}: {:?}", ops.failures);
        assert!(ops.attempted > 0);
    }
}

#[test]
fn one_flipped_byte_in_the_store_file_fails_replay_acl() {
    let mut w = ReplayAcl::setup(&quick_ctx(3, "teeth_flip")).expect("set-up");
    let clean = std::fs::read(w.path()).expect("store file");
    for at in [clean.len() / 3, clean.len() / 2, clean.len() * 2 / 3] {
        let mut bad = clean.clone();
        bad[at] ^= 0x40;
        std::fs::write(w.path(), &bad).expect("rewrite store file");
        let ops = exercise(&mut w);
        assert!(
            ops.failed_frac() > 0.0,
            "a flipped byte at offset {at} went unnoticed"
        );
    }
}

#[test]
fn a_truncated_store_file_is_a_failed_operation_not_a_crash() {
    let mut w = ReplayAcl::setup(&quick_ctx(3, "teeth_truncate")).expect("set-up");
    let clean = std::fs::read(w.path()).expect("store file");
    std::fs::write(w.path(), &clean[..clean.len() - 9]).expect("truncate store file");
    let ops = exercise(&mut w);
    assert!(ops.failed_frac() > 0.0);
    assert!(ops.failures[0].contains("repetition"), "{:?}", ops.failures);
}

#[test]
fn one_dropped_batch_fails_capture_spill() {
    let w = CaptureSpill::setup(&quick_ctx(3, "teeth_drop"));
    let (batches, symtab) = w.input();
    let items = batches.len() as u64 * 4 * 64;
    let mut short = batches.to_vec();
    short.remove(short.len() / 2);
    let (got, _) = capture(short, symtab, true).expect("capture");

    let mut ops = Ops::default();
    check_capture(&got, items, w.samples_per_rep(), &mut ops);
    assert!(
        ops.failed_frac() > 0.0,
        "the lost batch passed the invariants"
    );
    let mut ops = Ops::default();
    verify_spill(&got.spilled, batches, &mut ops);
    assert!(
        ops.failed_frac() > 0.0,
        "the lost batch passed the read-back"
    );
}

#[test]
fn one_altered_table_row_fails_analyze_wide() {
    let w = AnalyzeWide::setup(&quick_ctx(3, "teeth_row"));
    let (bundle, symtab) = w.input();
    let reference = reference_table(bundle, symtab);
    // One sample fewer moves exactly one (item, function) row.
    let mut altered = bundle.clone();
    altered.samples.remove(altered.samples.len() / 2);
    let got = analyze(
        &altered,
        symtab,
        2,
        &|_| "g".to_string(),
        &mut Tracer::new(false),
    );
    let mut ops = Ops::default();
    verify_table("analyze_wide", &got.table, &reference, &mut ops);
    assert!(ops.failed_frac() > 0.0);
}

#[test]
fn a_truncated_protocol_reply_fails_serve_steady() {
    let w = ServeSteady::setup(&quick_ctx(3, "teeth_reply")).expect("set-up");
    let (cfg, _) = w.config();
    let life = run_lifetime(*cfg).expect("lifetime");
    let addr = life.daemon.addr().to_string();
    for verb in VERBS {
        let reply = query(&addr, verb).expect("reply");
        assert_eq!(check_reply(verb, &reply), Ok(()), "{verb}");
        let cut = &reply[..reply.len() - reply.len() / 4 - 2];
        let mut ops = Ops::default();
        ops.check_ok("query", check_reply(verb, cut));
        assert!(ops.failed_frac() > 0.0, "{verb}: truncated reply accepted");
    }
    let mut ops = Ops::default();
    ops.check_ok(
        "query",
        check_reply("nonsense", &query(&addr, "nonsense").expect("reply")),
    );
    assert!(
        ops.failed_frac() > 0.0,
        "the error document counts as a failed query"
    );
    shut_down(life.daemon);
}

#[test]
fn a_daemon_that_lost_a_batch_differs_from_the_offline_replay() {
    let w = ServeSteady::setup(&quick_ctx(3, "teeth_drain")).expect("set-up");
    let (cfg, batches) = w.config();
    let full = replay(cfg, batches).drained;
    let short = replay(cfg, batches - 1).drained;
    let mut ops = Ops::default();
    verify_drained(&short, &full, &mut ops);
    assert!(ops.failed_frac() > 0.0);
}
