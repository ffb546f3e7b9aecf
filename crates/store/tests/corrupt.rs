//! Malformed-input fixture suite: every truncation of a valid store,
//! and a sweep of single-byte corruptions, must surface as a
//! [`StoreError`] or decode to different rows — never a panic and
//! never a silent short read that passes for the original — through
//! every read entry point. What each entry point returns for each of
//! those inputs (row counts or the exact error) is pinned in
//! `tests/golden/corrupt_outcomes.txt`.

use std::io::Cursor;

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
use fluctrace_store::codec::{decode_column, TAG_RLE};
use fluctrace_store::format::TAIL_MAGIC;
use fluctrace_store::{write_bundle_to_vec, StoreConfig, StoreError, TraceReader};

fn sample(core: u32, tsc: u64, ip: u64, r13: u64, event: HwEvent) -> PebsRecord {
    PebsRecord {
        core: CoreId(core),
        tsc,
        ip: VirtAddr(ip),
        r13,
        event,
    }
}

/// Samples in [`fixture_bundle`]: 200 round-robin over three cores,
/// 64 on core 0 alone, then 56 whose TSCs are shuffled.
const FIXTURE_SAMPLES: usize = 320;

/// At 32 rows per chunk: chunks 0–6 round-robin three cores (sorted
/// TSCs, a core column of many runs, an event column of one run),
/// chunk 7 is core 0 only (its `core` and `event` columns are each one
/// RLE run), chunk 8 starts the shuffled stretch (unsorted TSCs that
/// straddle [`NARROW`], four events).
fn fixture_bundle() -> TraceBundle {
    let mut b = TraceBundle::default();
    for i in 0..FIXTURE_SAMPLES as u64 {
        let (core, tsc, event) = match i {
            0..200 => ((i % 3) as u32, 1000 + i * 3, HwEvent::UopsRetired),
            200..264 => (0, 1000 + i * 3, HwEvent::UopsRetired),
            _ => (1, 1150 + ((i * 5) % 56) * 3, HwEvent::ALL[(i % 4) as usize]),
        };
        // Repeated (ip, r13, event) stretches; on core 0 alone, pairs,
        // so that suppression elides half of them and still keeps
        // enough rows in a chunk for its one-run columns to be RLE.
        let stretch = if core == 0 && i >= 200 { i / 2 } else { i / 16 };
        let ip = 0x4000 + stretch * 8;
        b.samples.push(sample(core, tsc, ip, i / 16, event));
        if i >= 200 {
            continue;
        }
        b.marks.push(MarkRecord {
            core: CoreId(core),
            tsc,
            item: ItemId(i / 2),
            kind: if i % 2 == 0 {
                MarkKind::Start
            } else {
                MarkKind::End
            },
        });
    }
    b
}

fn fixture_bytes(config: StoreConfig) -> Vec<u8> {
    write_bundle_to_vec(&fixture_bundle(), config)
        .expect("write fixture")
        .0
}

fn read_all(bytes: &[u8]) -> Result<TraceBundle, StoreError> {
    TraceReader::open(Cursor::new(bytes.to_vec()))?.read_bundle()
}

/// A window over a few dozen of the fixture's samples.
const NARROW: (u64, u64) = (1_200, 1_260);

fn in_window(r: &PebsRecord, (lo, hi): (u64, u64)) -> bool {
    r.tsc >= lo && r.tsc <= hi
}

/// Drive every read entry point over `bytes`: `read_bundle`,
/// `read_retained`, and `read_samples_in` over the whole axis and over
/// [`NARROW`]. Each must return an error or a result consistent with
/// the footers and with the full read. Returns `(full read failed,
/// entry points that failed)`.
fn read_every_way(bytes: &[u8]) -> (bool, usize) {
    let Ok(mut reader) = TraceReader::open(Cursor::new(bytes.to_vec())) else {
        return (true, 4);
    };
    let (samples, marks) = reader.logical_rows();
    let bundle = reader.read_bundle();
    let mut failed = usize::from(bundle.is_err());
    if let Ok(b) = &bundle {
        assert_eq!(b.samples.len() as u64, samples, "read_bundle vs footer");
        assert_eq!(b.marks.len() as u64, marks, "read_bundle vs footer");
    }
    match reader.read_retained() {
        Ok((retained, report)) => {
            assert_eq!(retained.samples.len() as u64 + report.elided, samples);
            assert_eq!(retained.marks.len() as u64, marks);
            let sites: u64 = report.sites.iter().map(|(_, _, d)| d.len() as u64).sum();
            assert_eq!(sites, report.elided);
        }
        Err(_) => failed += 1,
    }
    for window in [(0, u64::MAX), NARROW] {
        let Ok(rows) = reader.read_samples_in(window.0, window.1) else {
            failed += 1;
            continue;
        };
        assert!(rows.iter().all(|r| in_window(r, window)));
        let Ok(b) = &bundle else { continue };
        let expect: Vec<PebsRecord> = b
            .samples
            .iter()
            .copied()
            .filter(|r| in_window(r, window))
            .collect();
        if window == NARROW {
            // A corrupt footer TSC bound may prune a chunk that holds
            // window rows; what is returned is still in order and real.
            let mut rest = expect.iter();
            assert!(
                rows.iter().all(|r| rest.any(|e| e == r)),
                "not a subsequence"
            );
        } else {
            assert_eq!(rows, expect, "the full-axis window is the full read");
        }
    }
    (bundle.is_err(), failed)
}

/// Every strict prefix of a valid store must fail loudly.
#[test]
fn every_truncation_errors() {
    for config in [
        StoreConfig {
            chunk_rows: 32,
            ..StoreConfig::default()
        },
        StoreConfig {
            chunk_rows: 32,
            ..StoreConfig::suppressed(1 << 20)
        },
    ] {
        let bytes = fixture_bytes(config);
        let original = read_all(&bytes).expect("fixture reads back");
        assert_eq!(original.samples.len(), FIXTURE_SAMPLES);
        assert_eq!(read_every_way(&bytes), (false, 0));
        for cut in 0..bytes.len() {
            assert_eq!(
                read_every_way(&bytes[..cut]),
                (true, 4),
                "a prefix of {cut}/{} bytes read back 'successfully'",
                bytes.len()
            );
        }
    }
}

/// Flipping any single byte must never panic, and must never produce a
/// bundle that silently *claims* to be the original while differing in
/// row count bookkeeping (a read that succeeds must be internally
/// consistent; a read that can't be is an error).
#[test]
fn single_byte_corruption_never_panics() {
    let config = StoreConfig {
        chunk_rows: 32,
        ..StoreConfig::suppressed(1 << 20)
    };
    let bytes = fixture_bytes(config);
    let mut errors = 0usize;
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 0xA5;
        // Must return — any panic fails the test harness.
        if read_every_way(&mutated).0 {
            errors += 1;
        }
    }
    // The bulk of positions are load-bearing; a format where corruption
    // mostly goes unnoticed would make the exactness ledger worthless.
    assert!(
        errors * 2 > bytes.len(),
        "only {errors}/{} corrupted positions were detected",
        bytes.len()
    );
}

/// Where the outcome golden lives.
fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corrupt_outcomes.txt")
}

/// What each read entry point returns on `bytes`, in one line: the rows
/// of an `Ok` (samples/marks, plus `+elided` for `read_retained`) or
/// the exact [`StoreError`]. One reader serves every read, in order.
fn outcomes(bytes: &[u8]) -> String {
    fn show<T, S: std::fmt::Display>(r: Result<T, StoreError>, rows: impl Fn(&T) -> S) -> String {
        match r {
            Ok(v) => format!("Ok({})", rows(&v)),
            Err(e) => format!("{e:?}"),
        }
    }
    let mut reader = match TraceReader::open(Cursor::new(bytes.to_vec())) {
        Ok(r) => r,
        Err(e) => return format!("open {e:?}"),
    };
    let bundle_rows = |b: &TraceBundle| format!("{}/{}", b.samples.len(), b.marks.len());
    let [all, narrow] = [(0, u64::MAX), NARROW];
    let reads = [
        ("bundle", show(reader.read_bundle(), bundle_rows)),
        ("segment", show(reader.read_segment(0), bundle_rows)),
        (
            "retained",
            show(reader.read_retained(), |(b, report)| {
                format!("{}+{}", bundle_rows(b), report.elided)
            }),
        ),
        ("all", show(reader.read_samples_in(all.0, all.1), Vec::len)),
        (
            "narrow",
            show(reader.read_samples_in(narrow.0, narrow.1), Vec::len),
        ),
    ];
    // Neighbouring reads with the same outcome share it:
    // `bundle,segment=Corrupt(..) retained=Ok(..)`.
    let mut line = String::new();
    for (i, (name, outcome)) in reads.iter().enumerate() {
        line += name;
        match reads.get(i + 1) {
            Some((_, next)) if next == outcome => line.push(','),
            next => {
                line += &format!("={outcome}");
                if next.is_some() {
                    line.push(' ');
                }
            }
        }
    }
    line
}

/// The sweep's fixture holds, in the plain and the suppressed file, a
/// sample chunk whose `core` and `event` columns are one RLE run each
/// and a sample chunk whose `tsc` column is unsorted.
#[test]
fn fixture_has_a_single_run_chunk_and_an_unsorted_chunk() {
    for config in [StoreConfig::default(), StoreConfig::suppressed(1 << 20)] {
        let bytes = fixture_bytes(StoreConfig {
            chunk_rows: 32,
            ..config
        });
        let reader = TraceReader::open(Cursor::new(bytes.clone())).expect("open fixture");
        let meta = &reader.segment_meta()[0];
        let (mut single_run, mut unsorted) = (false, false);
        for c in meta.footer.chunks.iter().filter(|c| c.stream == 0) {
            let start = (meta.start + c.offset) as usize;
            let chunk = &bytes[start..start + c.byte_len as usize];
            let mut pos = 0;
            // tsc, ip, core, r13, event: (tag, values) of each.
            let columns: Vec<(u8, Vec<u64>)> = (0..5)
                .map(|_| {
                    let tag = chunk[pos];
                    let values = decode_column(chunk, &mut pos, c.retained as usize)
                        .expect("fixture column decodes");
                    (tag, values)
                })
                .collect();
            let one_run = |(tag, values): &(u8, Vec<u64>)| {
                *tag == TAG_RLE && values.windows(2).all(|w| w[0] == w[1])
            };
            single_run |= one_run(&columns[2]) && one_run(&columns[4]);
            unsorted |= !columns[0].1.is_sorted();
        }
        assert!(single_run && unsorted, "suppress={}", config.suppress);
    }
}

/// Every truncation and two single-byte corruptions at every position
/// (`^ 0xA5`, which also changes a varint's width, and `^ 0x01`, which
/// mostly keeps the varint layout and changes a value) of
/// the plain and the suppressed fixture, through every read entry
/// point, return exactly what `tests/golden/corrupt_outcomes.txt` says:
/// the row counts of each `Ok` and the exact error of each `Err`. Runs
/// of consecutive positions with the same outcome share one line. A
/// reader rewrite must leave this file unchanged; after a deliberate
/// change to what a malformed input returns:
///
/// ```text
/// FLUCTRACE_BLESS=1 cargo test -p fluctrace-store --test corrupt
/// ```
#[test]
fn every_malformed_input_returns_its_pinned_outcome() {
    let mut actual = String::new();
    for (name, config) in [
        (
            "plain",
            StoreConfig {
                chunk_rows: 32,
                ..StoreConfig::default()
            },
        ),
        (
            "suppressed",
            StoreConfig {
                chunk_rows: 32,
                ..StoreConfig::suppressed(1 << 20)
            },
        ),
    ] {
        let bytes = fixture_bytes(config);
        actual += &format!("{name} intact: {}\n", outcomes(&bytes));
        let mut sweeps = vec![(
            "cut".to_string(),
            (0..bytes.len())
                .map(|cut| outcomes(&bytes[..cut]))
                .collect::<Vec<_>>(),
        )];
        for mask in [0xA5u8, 0x01] {
            let flips = (0..bytes.len()).map(|i| {
                let mut mutated = bytes.clone();
                mutated[i] ^= mask;
                outcomes(&mutated)
            });
            sweeps.push((format!("^{mask:02x}"), flips.collect()));
        }
        for (kind, lines) in sweeps {
            let mut start = 0;
            for end in 1..=lines.len() {
                if end == lines.len() || lines[end] != lines[start] {
                    let last = end - 1;
                    actual += &format!("{name} {kind} {start}..={last}: {}\n", lines[start]);
                    start = end;
                }
            }
        }
    }
    let path = golden_path();
    if std::env::var_os("FLUCTRACE_BLESS").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless it with FLUCTRACE_BLESS=1",
            path.display()
        )
    });
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "outcome line {} moved", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden and reader disagree on the number of outcome lines"
    );
}

/// Window reads carry the chunks they cut to the next window read. On
/// every `^ 0xA5` and `^ 0x01` flip of the plain and the suppressed
/// fixture, one reader driven through a fixed sequence of windows
/// (adjacent, repeated, overlapping, empty, the full axis, [`NARROW`])
/// answers each exactly as a freshly opened reader does: the same rows,
/// or the same error.
#[test]
fn a_carrying_reader_answers_every_flip_like_a_fresh_one() {
    const WINDOWS: [(u64, u64); 9] = [
        (1_000, 1_150),
        (1_151, 1_300),
        (1_151, 1_300),
        (1_200, 1_450),
        (1_451, 1_800),
        (1_300, 1_200),
        (0, u64::MAX),
        NARROW,
        (1_240, 1_700),
    ];
    for config in [StoreConfig::default(), StoreConfig::suppressed(1 << 20)] {
        let bytes = fixture_bytes(StoreConfig {
            chunk_rows: 32,
            ..config
        });
        for mask in [0xA5u8, 0x01] {
            for i in 0..bytes.len() {
                let mut mutated = bytes.clone();
                mutated[i] ^= mask;
                let Ok(mut reused) = TraceReader::open(Cursor::new(mutated.clone())) else {
                    continue;
                };
                for (lo, hi) in WINDOWS {
                    let fresh = TraceReader::open(Cursor::new(mutated.clone()))
                        .expect("opened once")
                        .read_samples_in(lo, hi);
                    assert_eq!(
                        reused.read_samples_in(lo, hi),
                        fresh,
                        "suppress={} ^{mask:02x} at {i}, window {lo}..={hi}",
                        config.suppress
                    );
                }
            }
        }
    }
}

/// A footer that names one chunk's bytes twice, the second time with
/// one row fewer and a TSC range of its own: a window over that range
/// must fail as on a fresh reader even after a window read carried the
/// chunk under its first entry. The carry is keyed by the whole footer
/// entry, not the extent alone.
#[test]
fn a_footer_naming_one_extent_twice_shares_no_carried_decode() {
    let bytes = fixture_bytes(StoreConfig {
        chunk_rows: 32,
        ..StoreConfig::default()
    });
    let mut footer = TraceReader::open(Cursor::new(bytes.clone()))
        .expect("open fixture")
        .segment_meta()[0]
        .footer
        .clone();
    // Chunk 2 holds samples 64..96, TSCs 1 192..=1 285.
    let mut twin = footer.chunks[2];
    assert_eq!((twin.stream, twin.tsc_min, twin.tsc_max), (0, 1_192, 1_285));
    twin.rows -= 1;
    twin.retained -= 1;
    (twin.tsc_min, twin.tsc_max) = (5_000, 5_000);
    footer.chunks.push(twin);
    let encoded = footer.encode();
    let mut twinned = bytes[..footer.body_len as usize].to_vec();
    twinned.extend_from_slice(&encoded);
    twinned.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    twinned.extend_from_slice(TAIL_MAGIC);

    let mut reused = TraceReader::open(Cursor::new(twinned.clone())).expect("open twinned");
    let cut = reused.read_samples_in(1_000, 1_250).expect("cuts chunk 2");
    assert!(cut.iter().any(|r| r.tsc > 1_192) && cut.iter().all(|r| r.tsc <= 1_250));
    let fresh = TraceReader::open(Cursor::new(twinned))
        .expect("open twinned")
        .read_samples_in(5_000, 5_000);
    assert!(fresh.is_err(), "the twin entry is corrupt: {fresh:?}");
    assert_eq!(reused.read_samples_in(5_000, 5_000), fresh);
}

#[test]
fn empty_input_is_truncated() {
    assert!(matches!(
        TraceReader::open(Cursor::new(Vec::<u8>::new())).err(),
        Some(StoreError::Truncated(_))
    ));
}

#[test]
fn garbage_tail_is_bad_magic() {
    let junk = vec![0x5Au8; 64];
    assert_eq!(
        TraceReader::open(Cursor::new(junk)).err(),
        Some(StoreError::BadMagic)
    );
}

#[test]
fn wrong_version_is_rejected() {
    let bytes = fixture_bytes(StoreConfig::default());
    // The footer starts with varint version 1; find it via the recorded
    // footer length at end-16.
    let len = bytes.len();
    let footer_len = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let footer_start = len - 16 - footer_len;
    let mut mutated = bytes.clone();
    mutated[footer_start] = 9; // varint version 9
    assert_eq!(read_all(&mutated).err(), Some(StoreError::BadVersion(9)));
}

/// A reader over a file that ends mid-chunk (valid footer spliced onto
/// a shorter body) errors instead of short-reading.
#[test]
fn body_shorter_than_footer_claims_errors() {
    let bytes = fixture_bytes(StoreConfig::default());
    let len = bytes.len();
    let footer_len = u64::from_le_bytes(bytes[len - 16..len - 8].try_into().unwrap()) as usize;
    let footer_start = len - 16 - footer_len;
    // Drop 32 bytes out of the middle of the body, keep footer + tail.
    let mut spliced = Vec::new();
    spliced.extend_from_slice(&bytes[..footer_start - 32]);
    spliced.extend_from_slice(&bytes[footer_start..]);
    assert!(read_all(&spliced).is_err(), "spliced short body must error");
}
