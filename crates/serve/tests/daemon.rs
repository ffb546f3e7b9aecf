//! End-to-end daemon tests: drained-shutdown equality with the batch
//! pipeline, snapshot byte-stability, the protocol surface, and the
//! Prometheus endpoint.

use fluctrace_core::{integrate, AdaptiveConfig, CumulativeMode, EstimateTable, MappingMode};
use fluctrace_cpu::TraceBundle;
use fluctrace_serve::{build_symtab, query, Daemon, ServeConfig, TrafficGen};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Lossless bounded config: blocking submission, thinning off — the
/// mode whose drained cumulative table must equal the batch run.
fn lossless(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed);
    cfg.shards = 2;
    cfg.cores = 2;
    cfg.max_batches = Some(24);
    cfg.window.window_items = 16;
    cfg.window.max_windows = 4;
    cfg
}

/// The steady-state shape: lossless, and long enough to close at least
/// 64 windows against an 8-window retention ring.
fn steady(seed: u64) -> ServeConfig {
    let mut cfg = lossless(seed);
    cfg.cores = 4;
    cfg.max_batches = Some(128);
    cfg.window.window_items = 32;
    cfg.window.max_windows = 8;
    cfg
}

/// Replay one shard's full stream offline and return the batch-pipeline
/// estimate table — the golden the drained daemon must reproduce.
fn batch_table(cfg: &ServeConfig, shard: u32) -> EstimateTable {
    let symtab = build_symtab(cfg.funcs);
    let mut traffic = TrafficGen::new(cfg, shard, Arc::clone(&symtab));
    let mut all = TraceBundle::default();
    for _ in 0..cfg.max_batches.expect("bounded config") {
        all.merge(traffic.next_batch());
    }
    all.sort();
    let it = integrate(&all, &symtab, cfg.window.freq, MappingMode::Intervals);
    EstimateTable::from_integrated(&it)
}

#[test]
fn drained_cumulative_tables_equal_the_batch_run() {
    // (shape, windows the shards must close between them)
    for (cfg, min_closed) in [(lossless(1234), 24), (steady(7), 64)] {
        let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
        let addr = daemon.addr().to_string();
        daemon.wait_drained();

        let response = query(&addr, "table").unwrap();
        for shard in 0..cfg.shards as u32 {
            let expected = serde_json::to_string(&batch_table(&cfg, shard)).unwrap();
            assert!(
                response.contains(&expected),
                "shard {shard} cumulative table != batch pipeline table\n\
                 response: {response}\nexpected fragment: {expected}"
            );
        }
        // Byte-stable across repeated queries once drained.
        assert_eq!(response, query(&addr, "table").unwrap());
        assert_eq!(
            query(&addr, "snapshot").unwrap(),
            query(&addr, "snapshot").unwrap()
        );

        let loss = query(&addr, "loss").unwrap();
        assert!(loss.contains("\"conserves_samples\":true"), "{loss}");
        // Lossless mode: nothing dropped, evicted, thinned, or discarded.
        for counter in [
            "\"batches_dropped\":0",
            "\"samples_dropped\":0",
            "\"samples_thinned\":0",
            "\"samples_evicted\":0",
            "\"samples_discarded\":0",
        ] {
            assert!(loss.contains(counter), "missing {counter} in {loss}");
        }

        // Every shard sheds nothing while its bounded ring keeps evicting.
        let (mut closed, mut evicted) = (0, 0);
        for view in daemon.shards() {
            let report = view.integrator.lock().report();
            assert!(report.conserves_samples(), "{report:?}");
            assert_eq!(report.loss.batches_dropped, 0, "{report:?}");
            assert_eq!(report.loss.samples_dropped, 0, "{report:?}");
            assert_eq!(report.loss.samples_thinned, 0, "{report:?}");
            closed += report.windows_closed;
            evicted += report.windows_evicted;
        }
        assert!(closed >= min_closed, "{closed} windows closed");
        assert!(evicted > 0, "no window evicted");

        daemon.quiesce();
        daemon.join();
    }
}

#[test]
fn snapshot_double_query_is_byte_identical_after_drain() {
    let cfg = lossless(77);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let a = query(&addr, "snapshot").unwrap();
    let b = query(&addr, "snapshot").unwrap();
    assert_eq!(a, b, "drained snapshot must be frozen");
    assert!(a.contains("serve.total.items"));
    assert!(a.contains("serve.shard000.windows_closed"));
    assert!(a.contains("serve.shard001.worker.utilization_milli"));
    assert!(a.contains("serve.shard000.wait.ring_empty_cycles"));
    assert!(a.contains("serve.total.loss.samples_spin"));

    let drained = query(&addr, "drained").unwrap();
    assert_eq!(drained.trim(), "{\"drained\":true}");

    // Windows: bounded run of 24 batches × 4 items × 2 cores = 192
    // items per shard at 16-item windows -> 12 closed, 4 retained.
    let windows = query(&addr, "windows 2").unwrap();
    assert!(windows.contains("\"windows_closed\":12"), "{windows}");
    assert!(windows.contains("\"windows_evicted\":8"), "{windows}");

    let episodes = query(&addr, "episodes").unwrap();
    assert!(episodes.contains("\"shards\":["), "{episodes}");

    daemon.quiesce();
    daemon.join();
}

#[test]
fn metrics_endpoint_serves_prometheus_on_the_same_listener() {
    let cfg = lossless(9);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    daemon.wait_drained();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("text/plain"));
    // The pinned catalog is pre-registered, so core metrics appear even
    // when this test process never ran the batch pipeline...
    assert!(response.contains("# TYPE fluctrace_core_online_items_processed counter"));
    // ...and the serve.* series are present and live.
    assert!(response.contains("# TYPE fluctrace_serve_windows_closed counter"));
    assert!(response.contains("# TYPE fluctrace_serve_worker_utilization_milli gauge"));

    // Unknown paths 404 without killing the listener.
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    daemon.quiesce();
    daemon.join();
}

#[test]
fn malformed_requests_get_error_documents() {
    let cfg = lossless(5);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    assert!(query(&addr, "bogus").unwrap().contains("\"error\""));
    assert!(query(&addr, "windows").unwrap().contains("\"error\""));
    assert!(query(&addr, "windows -3").unwrap().contains("\"error\""));
    // The daemon survives malformed input.
    assert!(query(&addr, "drained").unwrap().contains("true"));

    daemon.quiesce();
    daemon.join();
}

#[test]
fn quiesce_drains_an_unbounded_run_and_answers_with_final_state() {
    let mut cfg = lossless(31);
    cfg.max_batches = None; // unbounded: only quiesce ends it
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();

    // Let it work until every shard has closed a few windows.
    for view in daemon.shards() {
        while view
            .counters
            .windows_closed
            .load(std::sync::atomic::Ordering::Acquire)
            < 3
        {
            std::thread::yield_now();
        }
    }

    let finale = query(&addr, "quiesce").unwrap();
    assert!(finale.contains("\"quiesced\":true"), "{finale}");
    assert!(finale.contains("\"snapshot\":"), "{finale}");
    assert!(finale.contains("\"tables\":"), "{finale}");

    // After quiesce every shard is drained and the ledger conserves.
    let shards = daemon.shards().to_vec();
    daemon.join();
    for view in shards {
        assert!(view
            .counters
            .drained
            .load(std::sync::atomic::Ordering::Acquire));
        assert!(view.integrator.lock().report().conserves_samples());
    }
}

#[test]
fn folded_mode_serves_totals_instead_of_tables() {
    let mut cfg = lossless(64);
    cfg.window.cumulative = CumulativeMode::Folded;
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let tables = query(&addr, "table").unwrap();
    assert!(tables.contains("\"mode\":\"folded\""), "{tables}");
    assert!(tables.contains("\"table\":null"), "{tables}");
    assert!(tables.contains("\"marked_cycles\":"), "{tables}");

    daemon.quiesce();
    daemon.join();
}

/// Every lossy mode says exactly what it lost: what the producer shed
/// before the channel (dropped batches, thinned samples) plus what the
/// integrator received is what the generator offered. How the total
/// splits between the three depends on thread timing; the total does
/// not, so only the sum is asserted.
#[test]
fn lossy_modes_account_for_every_offered_sample() {
    for (blocking, adaptive) in [
        (false, AdaptiveConfig::disabled()),
        (true, AdaptiveConfig::new()),
        (false, AdaptiveConfig::new()),
    ] {
        let mut cfg = lossless(4242);
        cfg.shards = 1;
        let batches = 400;
        cfg.max_batches = Some(batches);
        cfg.channel_capacity = 1;
        cfg.blocking = blocking;
        cfg.adaptive = adaptive;
        let mode = format!("blocking={blocking} adaptive={}", adaptive.enabled);

        let mut traffic = TrafficGen::new(&cfg, 0, build_symtab(cfg.funcs));
        let offered: u64 = (0..batches)
            .map(|_| traffic.next_batch().samples.len() as u64)
            .sum();

        let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
        let addr = daemon.addr().to_string();
        daemon.wait_drained();

        let view = &daemon.shards()[0];
        let report = view.integrator.lock().report();
        let loss = view.counters.shed.fold(report.loss);
        assert_eq!(
            offered,
            report.samples_seen + loss.samples_dropped + loss.samples_thinned,
            "{mode}: {report:?}"
        );
        assert!(report.conserves_samples(), "{mode}: {report:?}");
        let doc = query(&addr, "loss").unwrap();
        assert!(doc.contains("\"conserves_samples\":true"), "{mode}: {doc}");

        daemon.quiesce();
        daemon.join();
    }
}

/// A client that never sends a newline cannot grow a buffer on the
/// accept thread: the daemon stops reading at its request-line bound
/// and answers with the error document (or the reply is lost to the
/// reset that closing on unread input causes — either way the
/// connection ends), and the next client is served.
#[test]
fn an_overlong_request_line_is_refused() {
    let cfg = lossless(11);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    // The daemon may hang up part-way through the megabyte.
    let _ = stream.write_all(&vec![b'a'; 1 << 20]);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    if stream.read_to_string(&mut response).is_ok() && !response.is_empty() {
        let head: String = response.chars().take(200).collect();
        assert!(response.contains("request line too long"), "{head}");
    }

    let snapshot = query(&addr, "snapshot").unwrap();
    assert!(snapshot.contains("serve.total.items"), "{snapshot}");

    daemon.quiesce();
    daemon.join();
}

/// Send `bytes` as the whole request and read the reply to EOF.
fn raw_request(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// A request line that is not UTF-8 gets an error document, and so does
/// one whose 4 096-byte cut falls inside a multi-byte character; either
/// way the next client is served. Each request is read in full, so no
/// unread input can reset the connection before the reply arrives.
#[test]
fn a_non_utf8_request_line_gets_an_error_document() {
    let cfg = lossless(13);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
    let addr = daemon.addr().to_string();
    daemon.wait_drained();

    let response = raw_request(daemon.addr(), b"\xff\xfe snapshot\n");
    assert!(response.contains("\"error\""), "{response:?}");
    assert!(query(&addr, "drained").unwrap().contains("true"));

    let mut cut = vec![b'a'; 4095];
    cut.push("é".as_bytes()[0]);
    let response = raw_request(daemon.addr(), &cut);
    assert!(response.contains("request line too long"), "{response:?}");
    assert!(query(&addr, "drained").unwrap().contains("true"));

    daemon.quiesce();
    daemon.join();
}

/// `idle_ticks` counts every `ring_empty` wait, the wait log only the
/// edges it had room for. A default 4 096-edge log cannot fill in 64
/// batches (at most one edge per batch plus the closing one), so the
/// two agree exactly; a one-edge log may drop edges, and then
/// `idle_ticks` is at least the logged sum. How often the worker finds
/// its ring empty depends on thread timing, so only these conditional
/// forms are asserted, never a drop count.
#[test]
fn idle_ticks_match_ring_empty_cycles_until_the_wait_log_drops() {
    for wait_capacity in [ServeConfig::new(0).wait_capacity, 1] {
        let mut cfg = lossless(2024);
        cfg.max_batches = Some(64);
        cfg.wait_capacity = wait_capacity;
        let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
        daemon.wait_drained();

        for view in daemon.shards() {
            let idle = view
                .counters
                .idle_ticks
                .load(std::sync::atomic::Ordering::Acquire);
            let wait = view.wait.lock();
            let logged = wait
                .cycles_by_cause()
                .get("ring_empty")
                .copied()
                .unwrap_or(0);
            let dropped = wait.dropped();
            if wait_capacity == 1 {
                assert!(idle >= logged, "idle {idle} < logged {logged}");
            } else {
                assert_eq!(dropped, 0, "a {wait_capacity}-edge log dropped edges");
            }
            if dropped == 0 {
                assert_eq!(idle, logged, "capacity {wait_capacity}");
            }
        }

        daemon.quiesce();
        daemon.join();
    }
}
