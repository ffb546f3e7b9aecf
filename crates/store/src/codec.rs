//! Per-column integer codecs: LEB128 varints, zigzag, and four
//! self-delimiting column encodings (raw, delta, dictionary, RLE).
//!
//! Every encoding starts with a varint row count and is decodable
//! without knowing its byte length; [`encode_column`] keeps the
//! smallest of the four (ties broken by a fixed candidate order, so the
//! chosen bytes depend only on the column's contents). The encoding
//! loops and the size arithmetic that picks among them live in
//! `encode.rs`; the functions here are their allocating, one-column
//! front ends. Each decoder has an `_into` form that fills a caller's
//! buffer (the reader keeps one per column across chunks) and an
//! allocating front end over it; `decode_single_run` lets the reader
//! keep a column that is one RLE run as its value instead. Decoders
//! take the row count the footer promised and fail with a
//! [`StoreError`] on any disagreement — a corrupt count can never
//! cause a silent short read or an unbounded allocation.

use crate::encode::{delta_into, raw_into, rle_into, ColumnEncoder};
use crate::error::StoreError;

/// Codec tag byte: varints, one per value.
pub const TAG_RAW: u8 = 0;
/// Codec tag byte: first value + zigzag varint deltas (wrapping).
pub const TAG_DELTA: u8 = 1;
/// Codec tag byte: sorted distinct dictionary + varint indices.
pub const TAG_DICT: u8 = 2;
/// Codec tag byte: (value, run-length) pairs.
pub const TAG_RLE: u8 = 3;

/// Append `v` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint at `*pos`, advancing it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    // Most column values, deltas, indices and run lengths fit one or
    // two bytes.
    if let Some(&b0) = buf.get(*pos) {
        if b0 & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = buf.get(*pos + 1) {
            if b1 & 0x80 == 0 {
                *pos += 2;
                return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    read_varint_wide(buf, pos)
}

/// [`read_varint`] past the one- and two-byte cases (and every error).
fn read_varint_wide(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let byte = *buf.get(*pos).ok_or(StoreError::Truncated("varint"))?;
        *pos = pos.saturating_add(1);
        let low = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(StoreError::Corrupt("varint wider than 64 bits"));
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta into a small unsigned varint.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read the leading row count and check it against the footer's.
fn read_count(buf: &[u8], pos: &mut usize, expect: usize) -> Result<usize, StoreError> {
    let n = read_varint(buf, pos)?;
    if n != expect as u64 {
        return Err(StoreError::Corrupt("column row count != footer row count"));
    }
    Ok(expect)
}

/// Pre-allocation bound: each encoded value costs at least one byte, so
/// a column can never decode to more rows than it has bytes left.
fn capacity_hint(buf: &[u8], pos: usize, expect: usize) -> usize {
    expect.min(buf.len().saturating_sub(pos))
}

/// Encode as plain varints, one per value.
pub fn encode_raw(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    raw_into(values, &mut out);
    out
}

/// Decode a [`TAG_RAW`] payload of exactly `expect` rows.
pub fn decode_raw(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    decode_raw_into(buf, pos, expect, &mut out).map(|()| out)
}

/// [`decode_raw`] into `out`, replacing its contents (undefined after
/// an error).
pub fn decode_raw_into(
    buf: &[u8],
    pos: &mut usize,
    expect: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let n = read_count(buf, pos, expect)?;
    out.clear();
    out.reserve(capacity_hint(buf, *pos, n));
    for _ in 0..n {
        out.push(read_varint(buf, pos)?);
    }
    Ok(())
}

/// Encode as first value + zigzag deltas. Deltas use `wrapping_sub`, so
/// a TSC column that wraps past `u64::MAX` still yields small deltas
/// and round-trips exactly.
pub fn encode_delta(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    delta_into(values, &mut out);
    out
}

/// Decode a [`TAG_DELTA`] payload of exactly `expect` rows.
pub fn decode_delta(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    decode_delta_into(buf, pos, expect, &mut out).map(|()| out)
}

/// [`decode_delta`] into `out`, replacing its contents (undefined after
/// an error).
pub fn decode_delta_into(
    buf: &[u8],
    pos: &mut usize,
    expect: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let n = read_count(buf, pos, expect)?;
    out.clear();
    out.reserve(capacity_hint(buf, *pos, n));
    if n == 0 {
        return Ok(());
    }
    let mut prev = read_varint(buf, pos)?;
    out.push(prev);
    for _ in 1..n {
        prev = prev.wrapping_add(unzigzag(read_varint(buf, pos)?) as u64);
        out.push(prev);
    }
    Ok(())
}

/// Encode as a sorted distinct-value dictionary (delta-coded, strictly
/// ascending) followed by varint indices. Wins on low-cardinality
/// columns with values too far apart for delta coding (instruction
/// pointers hopping between a few functions).
pub fn encode_dict(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    ColumnEncoder::default().encode_dict(values, &mut out);
    out
}

/// Decode a [`TAG_DICT`] payload of exactly `expect` rows.
pub fn decode_dict(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    decode_dict_into(buf, pos, expect, &mut out, &mut Vec::new()).map(|()| out)
}

/// [`decode_dict`] into `out`, replacing its contents; `dict` is scratch
/// for the dictionary entries. Both are undefined after an error.
pub fn decode_dict_into(
    buf: &[u8],
    pos: &mut usize,
    expect: usize,
    out: &mut Vec<u64>,
    dict: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let n = read_count(buf, pos, expect)?;
    let dict_len = read_varint(buf, pos)?;
    if n > 0 && dict_len == 0 {
        return Err(StoreError::Corrupt("dictionary empty for non-empty column"));
    }
    let dict_cap = usize::try_from(dict_len)
        .ok()
        .map(|l| capacity_hint(buf, *pos, l))
        .ok_or(StoreError::Corrupt("dictionary longer than addressable"))?;
    dict.clear();
    dict.reserve(dict_cap);
    let mut prev: u64 = 0;
    for i in 0..dict_len {
        let d = if i == 0 {
            read_varint(buf, pos)?
        } else {
            let step = read_varint(buf, pos)?;
            if step == 0 {
                return Err(StoreError::Corrupt("dictionary not strictly ascending"));
            }
            let next = prev.wrapping_add(step);
            if next <= prev {
                return Err(StoreError::Corrupt("dictionary wrapped past u64::MAX"));
            }
            next
        };
        dict.push(d);
        prev = d;
    }
    out.clear();
    out.reserve(capacity_hint(buf, *pos, n));
    for _ in 0..n {
        let idx = read_varint(buf, pos)?;
        let v = usize::try_from(idx)
            .ok()
            .and_then(|i| dict.get(i))
            .copied()
            .ok_or(StoreError::Corrupt("dictionary index out of range"))?;
        out.push(v);
    }
    Ok(())
}

/// Encode as (value, run-length) pairs. Wins on constant and
/// near-constant columns (core ids, event kinds, mark kinds).
pub fn encode_rle(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    rle_into(values, &mut out);
    out
}

/// Decode a [`TAG_RLE`] payload of exactly `expect` rows. Runs are read
/// until exactly `expect` rows are produced; a run overshooting the
/// count is corruption, never an over-allocation.
pub fn decode_rle(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    decode_rle_into(buf, pos, expect, &mut out).map(|()| out)
}

/// [`decode_rle`] into `out`, replacing its contents (undefined after
/// an error).
pub fn decode_rle_into(
    buf: &[u8],
    pos: &mut usize,
    expect: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let n = read_count(buf, pos, expect)?;
    out.clear();
    out.reserve(n.min(crate::format::MAX_CHUNK_ROWS as usize));
    while out.len() < n {
        let value = read_varint(buf, pos)?;
        let len = read_varint(buf, pos)?;
        if len == 0 {
            return Err(StoreError::Corrupt("zero-length RLE run"));
        }
        let remaining = (n - out.len()) as u64;
        if len > remaining {
            return Err(StoreError::Corrupt("RLE run overshoots row count"));
        }
        out.resize(out.len() + len as usize, value);
    }
    Ok(())
}

/// The value of a tagged column at `*pos` that is one [`TAG_RLE`] run
/// of all `expect` (> 0) rows, advancing `*pos` past it. Any other
/// column, a malformed one included, leaves `*pos` where it was and
/// returns `None`: [`decode_column_into`] then decodes it, and reports
/// its error exactly as it always does.
pub(crate) fn decode_single_run(buf: &[u8], pos: &mut usize, expect: usize) -> Option<u64> {
    if expect == 0 || buf.get(*pos) != Some(&TAG_RLE) {
        return None;
    }
    let mut at = *pos + 1;
    let n = read_varint(buf, &mut at).ok()?;
    let value = read_varint(buf, &mut at).ok()?;
    let len = read_varint(buf, &mut at).ok()?;
    if n != expect as u64 || len != n {
        return None;
    }
    *pos = at;
    Some(value)
}

/// Encode a column under the smallest of the four codecs, prefixed by
/// its tag byte. The candidate order is fixed (delta, dictionary, RLE,
/// raw) and ties keep the earliest, so the output is a pure function of
/// `values`.
pub fn encode_column(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    ColumnEncoder::default().encode_column(values, &mut out);
    out
}

/// Decode one tagged column of exactly `expect` rows at `*pos`.
pub fn decode_column(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    decode_column_into(buf, pos, expect, &mut out, &mut Vec::new()).map(|()| out)
}

/// [`decode_column`] into `out`, replacing its contents; `dict` is
/// scratch for a dictionary column's entries. Both are undefined after
/// an error.
pub fn decode_column_into(
    buf: &[u8],
    pos: &mut usize,
    expect: usize,
    out: &mut Vec<u64>,
    dict: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let tag = *buf.get(*pos).ok_or(StoreError::Truncated("column tag"))?;
    *pos = pos.saturating_add(1);
    match tag {
        TAG_RAW => decode_raw_into(buf, pos, expect, out),
        TAG_DELTA => decode_delta_into(buf, pos, expect, out),
        TAG_DICT => decode_dict_into(buf, pos, expect, out, dict),
        TAG_RLE => decode_rle_into(buf, pos, expect, out),
        _ => Err(StoreError::Corrupt("unknown codec tag")),
    }
}
