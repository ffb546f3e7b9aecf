//! The naive reference for the store's codec choice: encode the column
//! under all four codecs, each into its own buffer, and keep the first
//! smallest.
//!
//! This is the chooser the store shipped with, moved here unchanged
//! when the writer learned to pick a codec from the column's statistics
//! and encode once. It is slow on purpose — four encodings, a full sort
//! and a `BTreeMap` per column — and obviously right, which is what
//! makes it the oracle: [`check_store_columns`] re-encodes every column
//! of a store file with it and demands the file's exact bytes.

use fluctrace_store::codec::{
    decode_column, write_varint, zigzag, TAG_DELTA, TAG_DICT, TAG_RAW, TAG_RLE,
};
use fluctrace_store::format::{STREAM_MARKS, STREAM_SAMPLES};
use fluctrace_store::TraceReader;
use std::collections::BTreeMap;
use std::io::Cursor;

fn naive_raw(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, values.len() as u64);
    for &v in values {
        write_varint(&mut out, v);
    }
    out
}

fn naive_delta(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, values.len() as u64);
    let mut prev: u64 = 0;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            write_varint(&mut out, v);
        } else {
            write_varint(&mut out, zigzag(v.wrapping_sub(prev) as i64));
        }
        prev = v;
    }
    out
}

fn naive_dict(values: &[u64]) -> Vec<u8> {
    let mut distinct: Vec<u64> = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let index: BTreeMap<u64, u64> = distinct
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, i as u64))
        .collect();
    let mut out = Vec::new();
    write_varint(&mut out, values.len() as u64);
    write_varint(&mut out, distinct.len() as u64);
    let mut prev: u64 = 0;
    for (i, &d) in distinct.iter().enumerate() {
        if i == 0 {
            write_varint(&mut out, d);
        } else {
            write_varint(&mut out, d.wrapping_sub(prev));
        }
        prev = d;
    }
    for v in values {
        // Present by construction; 0 is unreachable dead fallback.
        write_varint(&mut out, index.get(v).copied().unwrap_or(0));
    }
    out
}

fn naive_rle(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, values.len() as u64);
    let mut iter = values.iter().copied();
    let Some(mut run_value) = iter.next() else {
        return out;
    };
    let mut run_len: u64 = 1;
    for v in iter {
        if v == run_value {
            run_len += 1;
        } else {
            write_varint(&mut out, run_value);
            write_varint(&mut out, run_len);
            run_value = v;
            run_len = 1;
        }
    }
    write_varint(&mut out, run_value);
    write_varint(&mut out, run_len);
    out
}

/// Encode a column under all four codecs and keep the first smallest,
/// in the candidate order delta, dictionary, RLE, raw; prefixed by the
/// winner's tag byte.
pub fn naive_encode_column(values: &[u64]) -> Vec<u8> {
    let candidates = [
        (TAG_DELTA, naive_delta(values)),
        (TAG_DICT, naive_dict(values)),
        (TAG_RLE, naive_rle(values)),
        (TAG_RAW, naive_raw(values)),
    ];
    let mut out = Vec::new();
    if let Some((tag, payload)) = candidates.into_iter().min_by_key(|(_, p)| p.len()) {
        out.push(tag);
        out.extend_from_slice(&payload);
    }
    out
}

/// Walk every chunk of every segment of a store file and require each
/// column's bytes to be exactly what [`naive_encode_column`] produces
/// for the decoded values (the ledger after a sample chunk's columns is
/// the reader's to validate). Returns the number of columns compared,
/// or a description of the first one that differs.
pub fn check_store_columns(file: &[u8]) -> Result<u64, String> {
    let reader = TraceReader::open(Cursor::new(file)).map_err(|e| format!("open: {e}"))?;
    let mut compared = 0u64;
    for (si, seg) in reader.segment_meta().iter().enumerate() {
        for (ci, c) in seg.footer.chunks.iter().enumerate() {
            let at = |what: &str| format!("segment {si} chunk {ci}: {what}");
            let start = usize::try_from(seg.start.saturating_add(c.offset))
                .map_err(|_| at("offset exceeds usize"))?;
            let len = usize::try_from(c.byte_len).map_err(|_| at("length exceeds usize"))?;
            let chunk = start
                .checked_add(len)
                .and_then(|end| file.get(start..end))
                .ok_or_else(|| at("extent outside the file"))?;
            let (columns, rows) = match c.stream {
                STREAM_SAMPLES => (5, c.retained),
                STREAM_MARKS => (4, c.rows),
                _ => return Err(at("unknown stream")),
            };
            let rows = usize::try_from(rows).map_err(|_| at("row count exceeds usize"))?;
            let mut pos = 0usize;
            for col in 0..columns {
                let from = pos;
                let values = decode_column(chunk, &mut pos, rows)
                    .map_err(|e| at(&format!("column {col} does not decode: {e}")))?;
                let written = chunk.get(from..pos).unwrap_or_default();
                let naive = naive_encode_column(&values);
                if written != naive.as_slice() {
                    return Err(at(&format!(
                        "column {col} ({rows} rows): writer tag {:?} / {} bytes, naive tag {:?} / {} bytes",
                        written.first(),
                        written.len(),
                        naive.first(),
                        naive.len()
                    )));
                }
                compared += 1;
            }
        }
    }
    Ok(compared)
}
