//! Store-level metamorphic suite: bit-exact round-trips (suppressed
//! and not), byte-concatenation of stores == row-concatenation of
//! reads, chunk-size invariance of decoded rows, ledger row-count
//! identity, footer-pruned window reads, and writer determinism.

use std::io::Cursor;

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
use fluctrace_store::{
    split_suppressed, write_bundle_to_vec, ElisionReport, SharedBuf, StoreConfig, StoreError,
    TraceReader, TraceWriter, DEFAULT_CHUNK_ROWS,
};
use proptest::prelude::*;

/// Deterministic synthetic bundle: several cores, bursty repeated-IP
/// stretches (suppressible), function hops, occasional TSC wraparound.
fn synth_bundle(seed: u64, n: usize) -> TraceBundle {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = TraceBundle::default();
    let wrap = seed.is_multiple_of(3);
    let mut tscs = [0u64; 4];
    for (c, t) in tscs.iter_mut().enumerate() {
        *t = if wrap {
            u64::MAX - 500 - (c as u64) * 17
        } else {
            1_000_000 + (c as u64) * 911
        };
    }
    for i in 0..n {
        let core = (step() % 4) as usize;
        let t = &mut tscs[core];
        *t = t.wrapping_add(1 + step() % 40);
        let burst = step() % 4 != 0;
        let ip = if burst {
            0x40_0000 + (step() % 3) * 0x1000
        } else {
            0x40_0000 + step() % 0x4000
        };
        b.samples.push(PebsRecord {
            core: CoreId(core as u32),
            tsc: *t,
            ip: VirtAddr(ip),
            r13: (i as u64) / 7,
            event: HwEvent::ALL[(step() % 4) as usize],
        });
        if i % 5 == 0 {
            b.marks.push(MarkRecord {
                core: CoreId(core as u32),
                tsc: *t,
                item: ItemId(i as u64 / 5),
                kind: if step() % 2 == 0 {
                    MarkKind::Start
                } else {
                    MarkKind::End
                },
            });
        }
    }
    b
}

/// Samples in short bursts on one of three far-apart IPs (a dictionary
/// column), on long runs of one core and one event (run-length
/// columns), a few TSC cycles apart, so suppression elides most
/// repeats. TSCs start at `base`.
fn burst_bundle(seed: u64, n: usize, base: u64) -> TraceBundle {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = TraceBundle::default();
    let (mut tsc, mut ip) = (base, 0u64);
    for i in 0..n as u64 {
        if step() % 4 == 0 {
            ip = (step() % 3) << 40;
        }
        tsc += 1 + step() % 60;
        b.samples.push(PebsRecord {
            core: CoreId((i / 50 % 3) as u32),
            tsc,
            ip: VirtAddr(ip),
            r13: i / 25,
            event: HwEvent::ALL[(i / 90 % 4) as usize],
        });
        if i % 6 == 0 {
            b.marks.push(MarkRecord {
                core: CoreId((i / 50 % 3) as u32),
                tsc,
                item: ItemId(i),
                kind: MarkKind::Start,
            });
        }
    }
    b
}

/// What one read returned: samples, marks and (for `read_retained`)
/// the elision report.
type Got = Result<(Vec<PebsRecord>, Vec<MarkRecord>, ElisionReport), StoreError>;

/// Read `op` of a sequence: `read_bundle`, `read_samples_in` over a
/// window picked by `a` and `b`, `read_retained`, or `read_segment`
/// (index 2 is out of range).
fn read_op(reader: &mut TraceReader<Cursor<Vec<u8>>>, (op, a, b): (u8, u64, u64)) -> Got {
    match op {
        0 => reader
            .read_bundle()
            .map(|r| (r.samples, r.marks, ElisionReport::default())),
        1 => {
            let lo = 1_000_000 + a % 60_000;
            reader
                .read_samples_in(lo, lo + b % 20_000)
                .map(|s| (s, Vec::new(), ElisionReport::default()))
        }
        2 => reader.read_retained().map(|(r, e)| (r.samples, r.marks, e)),
        _ => reader
            .read_segment((a % 3) as usize)
            .map(|r| (r.samples, r.marks, ElisionReport::default())),
    }
}

fn read_bytes(bytes: Vec<u8>) -> TraceBundle {
    TraceReader::open(Cursor::new(bytes))
        .expect("open")
        .read_bundle()
        .expect("read")
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(24))]

    /// Unsuppressed and suppressed stores both replay bit-exact rows.
    #[test]
    fn roundtrip_is_bit_exact(seed in 0u64..100_000, n in 0usize..3000) {
        let bundle = synth_bundle(seed, n);
        for config in [
            StoreConfig { chunk_rows: 256, ..StoreConfig::default() },
            StoreConfig { chunk_rows: 256, ..StoreConfig::suppressed(1 << 16) },
        ] {
            let (bytes, stats) = write_bundle_to_vec(&bundle, config).expect("write");
            let got = read_bytes(bytes);
            prop_assert_eq!(&got.samples, &bundle.samples);
            prop_assert_eq!(&got.marks, &bundle.marks);
            prop_assert_eq!(stats.samples, bundle.samples.len() as u64);
            prop_assert_eq!(stats.marks, bundle.marks.len() as u64);
        }
    }

    /// Retained + elided == logical rows, and the retained bundle equals
    /// running the suppression split directly.
    #[test]
    fn ledger_row_count_identity(seed in 0u64..100_000, n in 0usize..2000) {
        let bundle = synth_bundle(seed, n);
        let config = StoreConfig { chunk_rows: 128, ..StoreConfig::suppressed(1 << 16) };
        let (bytes, stats) = write_bundle_to_vec(&bundle, config).expect("write");
        let mut reader = TraceReader::open(Cursor::new(bytes)).expect("open");
        let (retained, report) = reader.read_retained().expect("read_retained");
        prop_assert_eq!(
            retained.samples.len() as u64 + report.elided,
            bundle.samples.len() as u64,
            "retained + elided != logical rows"
        );
        prop_assert_eq!(report.elided, stats.elided);
        prop_assert_eq!(retained.marks.len(), bundle.marks.len());
        // Site count and per-site deltas match a direct split over each chunk.
        let total_site_rows: u64 = report.sites.iter().map(|(_, _, d)| d.len() as u64).sum();
        prop_assert_eq!(total_site_rows, report.elided);
    }

    /// Byte-concatenating two stores == row-concatenating their reads,
    /// in both segment structure and decoded rows.
    #[test]
    fn concat_of_stores_is_concat_of_rows(sa in 0u64..50_000, sb in 0u64..50_000, n in 1usize..1500) {
        let (ba, bb) = (synth_bundle(sa, n), synth_bundle(sb.wrapping_add(7), n / 2));
        let config = StoreConfig { chunk_rows: 200, ..StoreConfig::suppressed(4096) };
        let (bytes_a, _) = write_bundle_to_vec(&ba, config).expect("write a");
        let (bytes_b, _) = write_bundle_to_vec(&bb, config).expect("write b");
        let mut cat = bytes_a.clone();
        cat.extend_from_slice(&bytes_b);
        let mut reader = TraceReader::open(Cursor::new(cat)).expect("open concat");
        prop_assert_eq!(reader.segments(), 2);
        let got = reader.read_bundle().expect("read concat");
        let mut expect = ba.clone();
        expect.merge(bb.clone());
        prop_assert_eq!(&got.samples, &expect.samples);
        prop_assert_eq!(&got.marks, &expect.marks);
        // Per-segment reads see each store alone.
        prop_assert_eq!(&reader.read_segment(0).expect("seg 0").samples, &ba.samples);
        prop_assert_eq!(&reader.read_segment(1).expect("seg 1").samples, &bb.samples);
    }

    /// The chunk-size knob re-chunks the file but never changes the
    /// decoded rows — at 64, 4096, and the default.
    #[test]
    fn chunk_size_does_not_change_decoded_rows(seed in 0u64..50_000, n in 0usize..2500) {
        let bundle = synth_bundle(seed, n);
        for suppress in [false, true] {
            let mut decoded: Vec<TraceBundle> = Vec::new();
            for chunk_rows in [64usize, 4096, DEFAULT_CHUNK_ROWS] {
                let config = StoreConfig {
                    suppress,
                    tolerance: if suppress { 1 << 16 } else { 0 },
                    chunk_rows,
                };
                let (bytes, _) = write_bundle_to_vec(&bundle, config).expect("write");
                decoded.push(read_bytes(bytes));
            }
            let first = &decoded[0];
            for d in &decoded[1..] {
                prop_assert_eq!(&d.samples, &first.samples);
                prop_assert_eq!(&d.marks, &first.marks);
            }
            prop_assert_eq!(&first.samples, &bundle.samples);
        }
    }

    /// One reader driven through any sequence of reads returns, call
    /// for call, what a freshly opened reader returns: nothing the chunk
    /// decoder keeps across chunks and calls leaks into a result. The
    /// store is a suppressed segment then a plain one, chunked at 7
    /// rows and at the default, so columns of every length follow each
    /// other through the same buffers.
    #[test]
    fn reused_scratch_never_leaks(
        seed in 0u64..50_000,
        n in 1usize..800,
        small_first in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..10),
    ) {
        let (rows_a, rows_b) = if small_first { (7, DEFAULT_CHUNK_ROWS) } else { (DEFAULT_CHUNK_ROWS, 7) };
        let a = StoreConfig { chunk_rows: rows_a, ..StoreConfig::suppressed(40) };
        let b = StoreConfig { chunk_rows: rows_b, ..StoreConfig::default() };
        let (mut bytes, stats) = write_bundle_to_vec(&burst_bundle(seed, n, 1_000_000), a).expect("write a");
        prop_assert!(n < 100 || stats.elided > 0, "the ledger is exercised");
        let (tail, _) = write_bundle_to_vec(&burst_bundle(!seed, n / 2 + 1, 1_010_000), b).expect("write b");
        bytes.extend_from_slice(&tail);
        let mut reused = TraceReader::open(Cursor::new(bytes.clone())).expect("open");
        for op in ops {
            let mut fresh = TraceReader::open(Cursor::new(bytes.clone())).expect("open fresh");
            prop_assert_eq!(read_op(&mut reused, op), read_op(&mut fresh, op), "{:?}", op);
        }
    }

    /// Writing the same bundle twice yields byte-identical files.
    #[test]
    fn writes_are_deterministic(seed in 0u64..50_000, n in 0usize..1500) {
        let bundle = synth_bundle(seed, n);
        for config in [StoreConfig::default(), StoreConfig::suppressed(1 << 12)] {
            let (a, _) = write_bundle_to_vec(&bundle, config).expect("write a");
            let (b, _) = write_bundle_to_vec(&bundle, config).expect("write b");
            prop_assert_eq!(a, b);
        }
    }
}

/// The suppression split itself: elides only equal-key rows within
/// tolerance, chains predecessors, and partitions the input.
#[test]
fn suppression_split_semantics() {
    let mk = |tsc: u64, ip: u64| PebsRecord {
        core: CoreId(0),
        tsc,
        ip: VirtAddr(ip),
        r13: 7,
        event: HwEvent::UopsRetired,
    };
    let rows = vec![
        mk(100, 0x10), // retained (first)
        mk(105, 0x10), // elided (delta 5)
        mk(109, 0x10), // elided (delta 4, chained off previous elided row)
        mk(500, 0x10), // retained (delta 391 > tolerance 50)
        mk(505, 0x20), // retained (ip changed)
        mk(505, 0x20), // elided (delta 0)
    ];
    let (retained, ledger) = split_suppressed(&rows, Some(50));
    assert_eq!(retained.len(), 3);
    assert_eq!(ledger.len(), 2);
    assert_eq!(ledger[0].index, 0);
    assert_eq!(ledger[0].deltas, vec![5, 4]);
    assert_eq!(ledger[1].index, 2);
    assert_eq!(ledger[1].deltas, vec![0]);
    // Disabled: identity.
    let (all, none) = split_suppressed(&rows, None);
    assert_eq!(all, rows);
    assert!(none.is_empty());
}

/// Suppression across a TSC wraparound: the wrapping delta is small and
/// the replayed rows still match bit-exactly.
#[test]
fn suppression_survives_tsc_wraparound() {
    let mk = |tsc: u64| PebsRecord {
        core: CoreId(1),
        tsc,
        ip: VirtAddr(0x999),
        r13: 3,
        event: HwEvent::CacheMisses,
    };
    let mut b = TraceBundle::default();
    let mut t = u64::MAX - 10;
    for _ in 0..8 {
        b.samples.push(mk(t));
        t = t.wrapping_add(3); // crosses u64::MAX mid-run
    }
    let (bytes, stats) = write_bundle_to_vec(&b, StoreConfig::suppressed(16)).expect("write");
    assert_eq!(stats.elided, 7, "whole run after the first row elides");
    let got = read_bytes(bytes);
    assert_eq!(got.samples, b.samples);
}

/// Footer-stat pruning: a narrow TSC window decodes only overlapping
/// chunks and returns exactly the in-window rows.
#[test]
fn window_read_prunes_and_filters() {
    let mut b = TraceBundle::default();
    for i in 0..10_000u64 {
        b.samples.push(PebsRecord {
            core: CoreId(0),
            tsc: i * 10,
            ip: VirtAddr(0x1000 + i % 5),
            r13: 0,
            event: HwEvent::UopsRetired,
        });
    }
    let config = StoreConfig {
        chunk_rows: 512,
        ..StoreConfig::default()
    };
    let (bytes, _) = write_bundle_to_vec(&b, config).expect("write");
    let mut reader = TraceReader::open(Cursor::new(bytes)).expect("open");
    let (lo, hi) = (40_000u64, 41_000u64);
    let got = reader.read_samples_in(lo, hi).expect("window read");
    let expect: Vec<_> = b
        .samples
        .iter()
        .copied()
        .filter(|r| r.tsc >= lo && r.tsc <= hi)
        .collect();
    assert_eq!(got, expect);
    assert!(!got.is_empty());
    // Footer-only row counts and bounds agree with the data.
    assert_eq!(reader.logical_rows(), (10_000, 0));
    assert_eq!(reader.sample_tsc_bounds(), Some((0, 99_990)));
}

/// Streaming through a SharedBuf sink (the online spill seam) matches
/// the one-shot vector write byte for byte.
#[test]
fn shared_buf_sink_matches_vec_write() {
    let bundle = synth_bundle(42, 1000);
    let config = StoreConfig {
        chunk_rows: 100,
        ..StoreConfig::suppressed(1 << 10)
    };
    let (direct, _) = write_bundle_to_vec(&bundle, config).expect("vec write");
    let buf = SharedBuf::new();
    let mut w = TraceWriter::new(buf.clone(), config).expect("writer");
    // Stream in several slices — chunking is row-driven, not call-driven.
    let (a, rest) = bundle.samples.split_at(bundle.samples.len() / 3);
    let (b2, c) = rest.split_at(rest.len() / 2);
    for part in [a, b2, c] {
        for &s in part {
            w.push_sample(s).expect("push");
        }
    }
    for &m in &bundle.marks {
        w.push_mark(m).expect("mark");
    }
    w.finish().expect("finish");
    assert_eq!(buf.contents(), direct);
}

/// An empty bundle still round-trips (single segment, zero chunks).
#[test]
fn empty_bundle_roundtrips() {
    let (bytes, stats) =
        write_bundle_to_vec(&TraceBundle::default(), StoreConfig::default()).expect("write empty");
    let mut reader = TraceReader::open(Cursor::new(bytes)).expect("open");
    assert_eq!(reader.segments(), 1);
    assert_eq!(reader.logical_rows(), (0, 0));
    assert_eq!(reader.sample_tsc_bounds(), None);
    let got = reader.read_bundle().expect("read");
    assert!(got.samples.is_empty() && got.marks.is_empty());
    assert_eq!(stats.elided, 0);
}

/// `stats()` is a running total: rows appended so far (buffered ones
/// included) and exactly the bytes the sink has been handed.
#[test]
fn stats_track_the_sink_while_writing() {
    let bundle = synth_bundle(5, 900);
    let config = StoreConfig {
        chunk_rows: 64,
        ..StoreConfig::suppressed(1 << 10)
    };
    let buf = SharedBuf::new();
    let mut w = TraceWriter::new(buf.clone(), config).expect("writer");
    assert_eq!(w.stats().bytes, 8, "the head magic is already out");
    let mut appended = 0u64;
    for part in bundle.samples.chunks(37) {
        let slice = TraceBundle {
            samples: part.to_vec(),
            marks: Vec::new(),
        };
        w.append(&slice).expect("append");
        appended += part.len() as u64;
        let stats = w.stats();
        assert_eq!(stats.samples, appended);
        assert_eq!(stats.bytes, buf.contents().len() as u64);
        assert_eq!(stats.chunks, appended / 64);
    }
    let running = w.stats();
    let (_, done) = w.finish().expect("finish");
    assert_eq!(done.samples, running.samples);
    assert_eq!(done.elided, running.elided);
    assert!(done.elided > 0);
    assert_eq!(done.bytes, buf.contents().len() as u64);
}

/// `finish` tells the obs registry which codec each column got: one
/// count per column of every chunk. The registry is process-wide and
/// other tests write stores too, so this reads growth, not totals.
#[test]
fn finish_records_each_columns_codec() {
    let names = [
        "store.writer.columns_raw",
        "store.writer.columns_delta",
        "store.writer.columns_dict",
        "store.writer.columns_rle",
    ];
    let total = || -> u64 {
        names
            .iter()
            .map(|n| fluctrace_obs::registry().counter(n).total())
            .sum()
    };
    let before = total();
    let bundle = synth_bundle(11, 700);
    let config = StoreConfig {
        chunk_rows: 128,
        ..StoreConfig::default()
    };
    let (_, stats) = write_bundle_to_vec(&bundle, config).expect("write");
    let sample_chunks = bundle.samples.len().div_ceil(128) as u64;
    let mark_chunks = stats.chunks - sample_chunks;
    assert!(total() - before >= sample_chunks * 5 + mark_chunks * 4);
    assert!(fluctrace_obs::snapshot_json().contains("store.writer.dict_priced"));
}
