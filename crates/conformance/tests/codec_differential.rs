//! The store's one-pass codec choice against the naive four-way trial
//! encoder, column by column: same tag, same bytes.
//!
//! The writer picks a codec from sizes it computes without encoding
//! (`crates/store/src/encode.rs`); `naive_encode_column` encodes under
//! every codec and keeps the first smallest. The shapes below are the
//! ones that decide the choice — each codec's home ground, the wrap of
//! the TSC, and the small columns where two codecs tie and only the
//! candidate order separates them.

use fluctrace_conformance::naive_encode_column;
use fluctrace_store::codec::{encode_column, TAG_DELTA, TAG_DICT, TAG_RAW, TAG_RLE};
use proptest::prelude::*;

fn assert_same(values: &[u64]) {
    let fast = encode_column(values);
    let naive = naive_encode_column(values);
    assert_eq!(
        fast.first(),
        naive.first(),
        "codec tag differs on {} values: {:?}...",
        values.len(),
        values.get(..values.len().min(12))
    );
    assert_eq!(fast, naive, "same tag, different bytes on {values:?}");
}

/// xorshift, so a shape is a pure function of its seed.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

#[test]
fn empty_and_single_value_columns() {
    assert_same(&[]);
    for v in [0, 1, 127, 128, 1 << 14, 1 << 35, u64::MAX - 1, u64::MAX] {
        assert_same(&[v]);
    }
}

/// Every column of up to four values over an alphabet that spans the
/// varint widths: the whole small-`n` tie region, exhaustively.
#[test]
fn every_tiny_column_ties_the_same_way() {
    let alphabet = [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX];
    let mut tags = [0u32; 4];
    for len in 1..=4u32 {
        for code in 0..alphabet.len().pow(len) {
            let mut values = Vec::new();
            let mut c = code;
            for _ in 0..len {
                values.push(alphabet[c % alphabet.len()]);
                c /= alphabet.len();
            }
            assert_same(&values);
            tags[usize::from(naive_encode_column(&values)[0])] += 1;
        }
    }
    // The region really is contested: every codec wins somewhere in it
    // except the dictionary, which two header varints keep out.
    assert!(tags[usize::from(TAG_DELTA)] > 0);
    assert!(tags[usize::from(TAG_RLE)] > 0);
    assert!(tags[usize::from(TAG_RAW)] > 0);
}

/// One column per codec's home ground, checked to land there.
#[test]
fn each_codec_wins_its_home_ground() {
    let ascending: Vec<u64> = (0..5000u64).map(|i| 1_000_000 + i * 41).collect();
    let mut next = rng(11);
    let far_apart: Vec<u64> = (0..5000).map(|_| (next() % 6) << 37).collect();
    let constant = vec![42u64; 5000];
    // Exactly four varint bytes each; a zigzag delta needs a 29th bit.
    let noise: Vec<u64> = (0..5000).map(|_| next() >> 36).collect();
    for (values, tag) in [
        (&ascending, TAG_DELTA),
        (&far_apart, TAG_DICT),
        (&constant, TAG_RLE),
        (&noise, TAG_RAW),
    ] {
        assert_same(values);
        assert_eq!(encode_column(values)[0], tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::cases_from_env(96))]

    #[test]
    fn constant_columns(v in any::<u64>(), len in 1usize..600) {
        assert_same(&vec![v; len]);
    }

    #[test]
    fn strictly_ascending_columns(start in any::<u64>(), step in 1u64..5000, len in 1usize..600) {
        // Saturating: stays strictly ascending until it pins at the top.
        let values: Vec<u64> = (0..len as u64)
            .map(|i| start.saturating_add(i.saturating_mul(step)))
            .collect();
        assert_same(&values);
    }

    #[test]
    fn tsc_columns_wrapping_past_u64_max(back in 0u64..5000, seed in any::<u64>(), len in 2usize..600) {
        let mut next = rng(seed);
        let mut tsc = u64::MAX - back;
        let values: Vec<u64> = (0..len)
            .map(|_| {
                tsc = tsc.wrapping_add(20 + next() % 50);
                tsc
            })
            .collect();
        assert_same(&values);
    }

    #[test]
    fn few_far_apart_values(distinct in 1usize..400, spread in 20u32..60, seed in any::<u64>(), len in 1usize..3000) {
        // Dictionary territory, on both sides of the 128-entry line
        // where indices grow a second byte.
        let mut next = rng(seed);
        let alphabet: Vec<u64> = (0..distinct).map(|_| next() >> (64 - spread)).collect();
        let values: Vec<u64> = (0..len)
            .map(|_| alphabet[(next() % distinct as u64) as usize])
            .collect();
        assert_same(&values);
    }

    #[test]
    fn long_runs_with_rare_breaks(seed in any::<u64>(), every in 2u64..400, len in 1usize..3000) {
        let mut next = rng(seed);
        let mut cur = next() % 1000;
        let values: Vec<u64> = (0..len)
            .map(|_| {
                if next().is_multiple_of(every) {
                    cur = next() >> (next() % 64);
                }
                cur
            })
            .collect();
        assert_same(&values);
    }

    #[test]
    fn random_64_bit_columns(seed in any::<u64>(), len in 0usize..600) {
        let mut next = rng(seed);
        let values: Vec<u64> = (0..len).map(|_| next()).collect();
        assert_same(&values);
    }

    #[test]
    fn small_columns_of_small_values(seed in any::<u64>(), len in 0usize..12, bits in 1u32..16) {
        // Where payloads are a handful of bytes and ties are the rule.
        let mut next = rng(seed);
        let values: Vec<u64> = (0..len).map(|_| next() >> (64 - bits)).collect();
        assert_same(&values);
    }

    #[test]
    fn interleaved_streams(seed in any::<u64>(), cores in 1u64..6, len in 1usize..2000) {
        // The sample columns of a multi-core capture: per-core ramps and
        // hot functions interleaved in stream order.
        let mut next = rng(seed);
        let mut tsc = vec![next() >> 20; cores as usize];
        let mut hot = vec![0x40_0000u64; cores as usize];
        let mut tscs = Vec::new();
        let mut ips = Vec::new();
        let mut ids = Vec::new();
        for _ in 0..len {
            let c = (next() % cores) as usize;
            tsc[c] += 20 + next() % 30;
            if next().is_multiple_of(8) {
                hot[c] = 0x40_0000 + (next() % 384) * 160;
            }
            tscs.push(tsc[c]);
            ips.push(hot[c] + next() % 96);
            ids.push(c as u64);
        }
        assert_same(&tscs);
        assert_same(&ips);
        assert_same(&ids);
    }
}
