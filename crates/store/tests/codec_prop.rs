//! Codec-level property tests: encode→decode == identity for each
//! codec in isolation, over adversarial inputs — wraparound TSC
//! sequences, single-row chunks, all-equal columns, empty columns.

use fluctrace_store::codec::{
    decode_column, decode_column_into, decode_delta, decode_delta_into, decode_dict,
    decode_dict_into, decode_raw, decode_raw_into, decode_rle, decode_rle_into, encode_column,
    encode_delta, encode_dict, encode_raw, encode_rle, read_varint, unzigzag, write_varint, zigzag,
    TAG_DELTA, TAG_DICT, TAG_RAW, TAG_RLE,
};
use fluctrace_store::StoreError;
use proptest::prelude::*;

/// Deterministic pseudo-random column from a seed: mixes wraparound
/// ramps, small-delta ramps, constant runs, and raw noise.
fn column_from_seed(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(len);
    let mut cur = match seed % 4 {
        // Start near u64::MAX so ramps wrap.
        0 => u64::MAX - (seed % 97),
        1 => 0,
        _ => step(),
    };
    for i in 0..len {
        match (seed.wrapping_add(i as u64)) % 5 {
            0 => cur = cur.wrapping_add(1 + step() % 29), // small ramp (wrapping)
            1 => {}                                       // repeat (runs)
            2 => cur = step(),                            // noise
            3 => cur = cur.wrapping_sub(step() % 1000),   // backwards delta
            _ => cur = seed % 7,                          // tiny dictionary
        }
        out.push(cur);
    }
    out
}

type Decode = fn(&[u8], &mut usize, usize) -> Result<Vec<u64>, StoreError>;

/// `len` values that are nobody's decoded column.
fn garbage(len: usize) -> Vec<u64> {
    (1..=len as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// The `_into` form, writing into buffers pre-filled with garbage of
/// other lengths, returns what the allocating form returns and leaves
/// `pos` at the same place — on the payload, on a wrong row count and
/// on the payload cut short by a byte.
fn assert_into_agrees(
    name: &str,
    bytes: &[u8],
    n: usize,
    alloc: Decode,
    into: impl Fn(&[u8], &mut usize, usize, &mut Vec<u64>, &mut Vec<u64>) -> Result<(), StoreError>,
) {
    let short = &bytes[..bytes.len().saturating_sub(1)];
    for (input, expect) in [(bytes, n), (bytes, n + 1), (short, n)] {
        let mut want_pos = 0;
        let want = alloc(input, &mut want_pos, expect);
        let (mut out, mut dict) = (garbage(n + 3), garbage(5));
        let mut got_pos = 0;
        let got = into(input, &mut got_pos, expect, &mut out, &mut dict).map(|()| out);
        assert_eq!(
            got,
            want,
            "{name}_into, {} bytes, expect {expect}",
            input.len()
        );
        assert_eq!(got_pos, want_pos, "{name}_into pos");
    }
}

fn roundtrip_each(values: &[u64]) {
    let n = values.len();

    let raw = encode_raw(values);
    let mut pos = 0;
    assert_eq!(decode_raw(&raw, &mut pos, n).unwrap(), values, "raw");
    assert_eq!(pos, raw.len(), "raw consumed exactly");

    let delta = encode_delta(values);
    let mut pos = 0;
    assert_eq!(decode_delta(&delta, &mut pos, n).unwrap(), values, "delta");
    assert_eq!(pos, delta.len(), "delta consumed exactly");

    let dict = encode_dict(values);
    let mut pos = 0;
    assert_eq!(decode_dict(&dict, &mut pos, n).unwrap(), values, "dict");
    assert_eq!(pos, dict.len(), "dict consumed exactly");

    let rle = encode_rle(values);
    let mut pos = 0;
    assert_eq!(decode_rle(&rle, &mut pos, n).unwrap(), values, "rle");
    assert_eq!(pos, rle.len(), "rle consumed exactly");

    let col = encode_column(values);
    let mut pos = 0;
    assert_eq!(decode_column(&col, &mut pos, n).unwrap(), values, "column");
    assert_eq!(pos, col.len(), "column consumed exactly");

    assert_into_agrees("raw", &raw, n, decode_raw, |b, p, e, o, _| {
        decode_raw_into(b, p, e, o)
    });
    assert_into_agrees("delta", &delta, n, decode_delta, |b, p, e, o, _| {
        decode_delta_into(b, p, e, o)
    });
    assert_into_agrees("dict", &dict, n, decode_dict, decode_dict_into);
    assert_into_agrees("rle", &rle, n, decode_rle, |b, p, e, o, _| {
        decode_rle_into(b, p, e, o)
    });
    assert_into_agrees("column", &col, n, decode_column, decode_column_into);
    for (tag, payload) in [
        (TAG_RAW, &raw),
        (TAG_DELTA, &delta),
        (TAG_DICT, &dict),
        (TAG_RLE, &rle),
    ] {
        let tagged: Vec<u8> = std::iter::once(tag)
            .chain(payload.iter().copied())
            .collect();
        assert_into_agrees("column", &tagged, n, decode_column, decode_column_into);
    }

    // The adaptive pick never loses to any single codec (plus its tag).
    for (name, enc) in [
        ("raw", &raw),
        ("delta", &delta),
        ("dict", &dict),
        ("rle", &rle),
    ] {
        assert!(
            col.len() <= enc.len() + 1,
            "column pick ({} bytes) worse than {name} ({} bytes)",
            col.len(),
            enc.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(64))]

    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
        prop_assert!(buf.len() <= 10);
    }

    #[test]
    fn zigzag_roundtrips(v in any::<u64>()) {
        prop_assert_eq!(unzigzag(zigzag(v as i64)) as u64, v);
    }

    #[test]
    fn codecs_roundtrip_random_columns(seed in 0u64..1_000_000, len in 0usize..300) {
        roundtrip_each(&column_from_seed(seed, len));
    }

    #[test]
    fn codecs_roundtrip_wraparound_ramps(start_back in 0u64..64, step in 1u64..50, len in 1usize..200) {
        // A TSC column that crosses u64::MAX mid-chunk.
        let mut cur = u64::MAX - start_back;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(cur);
            cur = cur.wrapping_add(step);
        }
        roundtrip_each(&values);
    }

    #[test]
    fn codecs_roundtrip_all_equal(v in any::<u64>(), len in 1usize..200) {
        roundtrip_each(&vec![v; len]);
    }

    #[test]
    fn codecs_roundtrip_single_row(v in any::<u64>()) {
        roundtrip_each(&[v]);
    }
}

#[test]
fn codecs_roundtrip_empty_column() {
    roundtrip_each(&[]);
}

#[test]
fn codecs_roundtrip_extremes() {
    roundtrip_each(&[0]);
    roundtrip_each(&[u64::MAX]);
    roundtrip_each(&[u64::MAX, 0, u64::MAX, 0]);
    roundtrip_each(&[0, u64::MAX]);
    roundtrip_each(&[u64::MAX - 1, u64::MAX, 0, 1]); // wrap boundary walk
}

#[test]
fn constant_column_is_tiny() {
    // RLE (or dict) must collapse a constant column to a handful of bytes.
    let col = encode_column(&vec![42u64; 10_000]);
    assert!(col.len() < 16, "constant column took {} bytes", col.len());
}

#[test]
fn small_delta_ramp_beats_raw() {
    let values: Vec<u64> = (0..10_000u64).map(|i| (1 << 40) | (i * 3)).collect();
    let col = encode_column(&values);
    let raw = encode_raw(&values);
    assert!(
        col.len() * 2 < raw.len(),
        "delta pick {} not < half of raw {}",
        col.len(),
        raw.len()
    );
}
