//! Malformed-input fixture suite: every truncation of a valid store,
//! and a sweep of single-byte corruptions, must surface as a
//! [`StoreError`] or decode to different rows — never a panic and
//! never a silent short read that passes for the original — through
//! every read entry point.

use std::io::Cursor;

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
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

fn fixture_bundle() -> TraceBundle {
    let mut b = TraceBundle::default();
    for i in 0..200u64 {
        let core = (i % 3) as u32;
        // Repeated (ip, r13, event) stretches so suppression has teeth.
        let ip = 0x4000 + (i / 16) * 8;
        b.samples
            .push(sample(core, 1000 + i * 3, ip, i / 16, HwEvent::UopsRetired));
        b.marks.push(MarkRecord {
            core: CoreId(core),
            tsc: 1000 + i * 3,
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
        assert_eq!(original.samples.len(), 200);
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
