//! Window reads carry the chunks they cut to the next window read. A
//! reader driven through any sequence of window reads (adjacent,
//! overlapping, repeated, empty and full-axis, with whole-file reads in
//! between) must answer each one exactly as a freshly opened reader
//! does, rows and errors alike, and never fetch more chunk bytes; and
//! a window read returns the written rows inside the window.
//!
//! This binary holds one test on purpose: it reads the process-wide
//! `store.reader.bytes` counter around each read.

use std::io::Cursor;

use fluctrace_cpu::{CoreId, HwEvent, PebsRecord, TraceBundle, VirtAddr};
use fluctrace_store::{write_bundle_to_vec, ElisionReport, StoreConfig, StoreError, TraceReader};
use proptest::prelude::*;

/// `cores` cores of `per_core` samples each, sorted by `(core, tsc)`:
/// TSCs 1–40 cycles apart from about the same start on every core, so
/// a chunk that holds the end of one core and the start of the next
/// spans nearly the whole trace. IPs repeat in short stretches, so that
/// suppression elides rows; `tagged` gives every 7 samples their own
/// `r13`, otherwise each core has one, so that `core`, `r13` and `event`
/// are one run in most chunks.
fn sorted_bundle(seed: u64, cores: u32, per_core: usize, tagged: bool) -> TraceBundle {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = TraceBundle::default();
    for core in 0..cores {
        let mut tsc = 1_000_000 + u64::from(core) * 7;
        let mut ip = 0x4000;
        for i in 0..per_core as u64 {
            tsc += 1 + step() % 40;
            if step() % 4 == 0 {
                ip = 0x4000 + (step() % 5) * 64;
            }
            b.samples.push(PebsRecord {
                core: CoreId(core),
                tsc,
                ip: VirtAddr(ip),
                r13: if tagged {
                    1 + i / 7
                } else {
                    2 + u64::from(core)
                },
                event: HwEvent::ALL[(u64::from(core) % 2) as usize],
            });
        }
    }
    b.sort();
    b
}

/// What one read returned: samples, marks and (for `read_retained`)
/// the elision report.
type Got = Result<(Vec<PebsRecord>, usize, ElisionReport), StoreError>;

/// One read of a sequence.
#[derive(Clone, Copy, Debug)]
enum Read {
    Window(u64, u64),
    Bundle,
    Retained,
    Segment,
}

fn read(reader: &mut TraceReader<Cursor<Vec<u8>>>, op: Read) -> Got {
    match op {
        Read::Window(lo, hi) => reader
            .read_samples_in(lo, hi)
            .map(|s| (s, 0, ElisionReport::default())),
        Read::Bundle => reader
            .read_bundle()
            .map(|b| (b.samples, b.marks.len(), ElisionReport::default())),
        Read::Retained => reader
            .read_retained()
            .map(|(b, e)| (b.samples, b.marks.len(), e)),
        Read::Segment => reader
            .read_segment(0)
            .map(|b| (b.samples, b.marks.len(), ElisionReport::default())),
    }
}

/// The `(kind, a, b)` of a generated step as a read, given the last
/// window and the trace's TSC span: 0 the window right after the last,
/// 1 one overlapping it, 2 the same again, 3 an empty one (inverted, or
/// past the last sample), 4 the full axis, 5 anywhere in the span, 6 a
/// whole-file read.
fn next_read((kind, a, b): (u8, u64, u64), last: (u64, u64), span: (u64, u64)) -> Read {
    let width = 1 + b % ((span.1 - span.0) / 3 + 1);
    match kind {
        0 => {
            let lo = last.1.saturating_add(1);
            Read::Window(lo, lo.saturating_add(width))
        }
        1 => {
            let lo = last.0 + a % last.1.saturating_sub(last.0).saturating_add(1);
            Read::Window(lo, lo.saturating_add(width))
        }
        2 => Read::Window(last.0, last.1),
        3 if a % 2 == 0 => Read::Window(last.1, last.0.saturating_sub(1)),
        3 => Read::Window(span.1 + 1 + a % 100, span.1 + 1 + a % 100 + width),
        4 => Read::Window(0, u64::MAX),
        5 => {
            let lo = span.0 + a % (span.1 - span.0 + 1);
            Read::Window(lo, lo.saturating_add(width))
        }
        _ => [Read::Bundle, Read::Retained, Read::Segment][(a % 3) as usize],
    }
}

/// Chunk bytes fetched while `f` ran.
fn fetched<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let counter = fluctrace_obs::registry().counter("store.reader.bytes");
    let before = counter.total();
    let out = f();
    (out, counter.total() - before)
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(64))]

    /// One reader against a fresh reader per read, over plain and
    /// suppressed stores of 2–4 cores in chunks of 3–39 rows (so chunks
    /// straddle cores), optionally followed by a second segment.
    #[test]
    fn a_carrying_reader_answers_like_a_fresh_one(
        seed in 0u64..1_000_000,
        cores in 2u32..5,
        per_core in 1usize..300,
        chunk_rows in 3usize..40,
        suppress in any::<bool>(),
        tagged in any::<bool>(),
        two_segments in any::<bool>(),
        steps in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..24),
    ) {
        let config = if suppress {
            StoreConfig { chunk_rows, ..StoreConfig::suppressed(40) }
        } else {
            StoreConfig { chunk_rows, ..StoreConfig::default() }
        };
        let bundle = sorted_bundle(seed, cores, per_core, tagged);
        let (mut bytes, stats) = write_bundle_to_vec(&bundle, config).expect("write");
        prop_assert!(!suppress || per_core < 100 || stats.elided > 0, "the ledger is exercised");
        let mut written = bundle.samples.clone();
        if two_segments {
            let tail = sorted_bundle(!seed, cores, per_core / 2 + 1, !tagged);
            bytes.extend_from_slice(&write_bundle_to_vec(&tail, config).expect("write tail").0);
            written.extend_from_slice(&tail.samples);
        }
        let span = bundle
            .samples
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s.tsc), hi.max(s.tsc)));
        let mut reused = TraceReader::open(Cursor::new(bytes.clone())).expect("open");
        let mut last = (span.0, span.0);
        for step in steps {
            let op = next_read(step, last, span);
            if let Read::Window(lo, hi) = op {
                last = (lo, hi);
            }
            let mut fresh = TraceReader::open(Cursor::new(bytes.clone())).expect("open fresh");
            let (want, fresh_bytes) = fetched(|| read(&mut fresh, op));
            let (got, reused_bytes) = fetched(|| read(&mut reused, op));
            prop_assert_eq!(&got, &want, "{:?}", op);
            if let (Read::Window(lo, hi), Ok((rows, ..))) = (op, &got) {
                let inside = written.iter().filter(|r| r.tsc >= lo && r.tsc <= hi);
                prop_assert!(rows.iter().eq(inside), "{:?} returned other rows than were written", op);
            }
            prop_assert!(reused_bytes <= fresh_bytes, "{:?}: fetched {} > {}", op, reused_bytes, fresh_bytes);
        }
    }
}
