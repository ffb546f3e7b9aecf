//! The write path's per-row kernel: the columnar chunk builders the
//! writer fills as rows arrive, and the column encoder that prices a
//! column under every codec from one pass of statistics, picks the
//! winner and encodes it once, straight into the chunk's byte buffer.
//!
//! Choosing needs sizes, not bytes. The exact payload size of raw,
//! delta and RLE falls out of one pass of [`varint_len`] sums. The
//! dictionary is the expensive one (distinct values, sorted), so it is
//! first bounded from below — every row costs at least one index byte,
//! every distinct value at least one entry byte, and every distinct
//! value past rank 127 at least one more index byte — and priced
//! exactly only when that bound could still win. The bound grows with
//! the distinct count, so the distinct counter stops the moment the
//! dictionary is out of the race. The winner is the first minimum in
//! the order DELTA, DICT, RLE, RAW: the same bytes the four-way trial
//! encoder produced (`fluctrace-conformance` keeps that one as the
//! oracle and compares every column of every sweep file against it).
//!
//! Everything here works in buffers that are kept across chunks: after
//! the first chunk the steady state allocates nothing. This file is a
//! `hot-path-alloc` root in `lint.toml`.

use fluctrace_cpu::{MarkKind, MarkRecord, PebsRecord};

use crate::codec::{write_varint, zigzag, TAG_DELTA, TAG_DICT, TAG_RAW, TAG_RLE};

/// Bytes [`write_varint`] emits for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    let log2 = 63 - (v | 1).leading_zeros();
    ((log2 * 9 + 73) >> 6) as usize
}

/// Plain varints, one per value.
pub(crate) fn raw_into(values: &[u64], out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    for &v in values {
        write_varint(out, v);
    }
}

/// First value, then zigzag varints of the wrapping deltas.
pub(crate) fn delta_into(values: &[u64], out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    let mut iter = values.iter().copied();
    let Some(first) = iter.next() else {
        return;
    };
    write_varint(out, first);
    let mut prev = first;
    for v in iter {
        write_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// `(value, run length)` pairs.
pub(crate) fn rle_into(values: &[u64], out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    let mut iter = values.iter().copied();
    let Some(mut run_value) = iter.next() else {
        return;
    };
    let mut run_len: u64 = 1;
    for v in iter {
        if v == run_value {
            run_len += 1;
        } else {
            write_varint(out, run_value);
            write_varint(out, run_len);
            run_value = v;
            run_len = 1;
        }
    }
    write_varint(out, run_value);
    write_varint(out, run_len);
}

/// Exact payload sizes (leading row count included) of the three codecs
/// one pass can price.
struct Sizes {
    raw: usize,
    delta: usize,
    rle: usize,
}

fn price(values: &[u64]) -> Sizes {
    let head = varint_len(values.len() as u64);
    let mut iter = values.iter().copied();
    let Some(first) = iter.next() else {
        return Sizes {
            raw: head,
            delta: head,
            rle: head,
        };
    };
    let mut prev = first;
    let mut prev_len = varint_len(first);
    let mut run_len: u64 = 1;
    let mut raw = prev_len;
    let mut delta = prev_len;
    let mut rle = 0usize;
    for v in iter {
        if v == prev {
            // A repeat: the same raw width, a zero delta, a longer run.
            raw += prev_len;
            delta += 1;
            run_len += 1;
        } else {
            rle += prev_len + varint_len(run_len);
            run_len = 1;
            delta += varint_len(zigzag(v.wrapping_sub(prev) as i64));
            prev = v;
            prev_len = varint_len(v);
            raw += prev_len;
        }
    }
    rle += prev_len + varint_len(run_len);
    Sizes {
        raw: head + raw,
        delta: head + delta,
        rle: head + rle,
    }
}

/// Lower bound on the dictionary payload of `n` rows over `d` distinct
/// values. Non-decreasing in `d`.
fn dict_floor(n: usize, d: usize) -> usize {
    varint_len(n as u64) + varint_len(d as u64) + n + d + d.saturating_sub(128)
}

/// The largest distinct count at which the dictionary could still cost
/// at most `limit`; `None` when not even one distinct value fits.
fn max_distinct_in_play(n: usize, limit: usize) -> Option<usize> {
    if n == 0 || dict_floor(n, 1) > limit {
        return None;
    }
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if dict_floor(n, mid) <= limit {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// One slot of the distinct-value probe. `stamp` names the column that
/// wrote it, so the table is never cleared between columns.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    stamp: u32,
    rank: u32,
}

const EMPTY: Slot = Slot {
    key: 0,
    stamp: 0,
    rank: 0,
};

/// Open-addressed, linearly probed set of a column's distinct values.
/// Private to the encoder and never iterated: the distinct values reach
/// the output through `ColumnEncoder::distinct`, sorted.
#[derive(Default)]
struct Probe {
    slots: Vec<Slot>,
    stamp: u32,
    shift: u32,
    mask: usize,
}

impl Probe {
    /// Start a new column holding at most `max_keys` distinct values
    /// (load factor at most one half).
    fn begin(&mut self, max_keys: usize) {
        let want = max_keys
            .saturating_mul(2)
            .saturating_add(2)
            .next_power_of_two()
            .max(16);
        if self.slots.len() < want {
            // Grows to the largest column ever seen, then stays.
            self.slots.resize(want, EMPTY);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(EMPTY);
            self.stamp = 1;
        }
        self.shift = 64 - want.trailing_zeros();
        self.mask = want - 1;
    }

    /// The slot holding `key`, or the vacant slot where it belongs.
    fn slot(&mut self, key: u64) -> Option<&mut Slot> {
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let s = self.slots.get(i)?;
            if s.stamp != self.stamp || s.key == key {
                return self.slots.get_mut(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `key`; true when it was not present.
    fn insert(&mut self, key: u64) -> bool {
        let stamp = self.stamp;
        match self.slot(key) {
            Some(s) if s.stamp != stamp => {
                *s = Slot {
                    key,
                    stamp,
                    rank: 0,
                };
                true
            }
            _ => false,
        }
    }
}

/// How many columns went to each codec, and how many needed the exact
/// dictionary price (`store.writer.columns_*`, `store.writer.dict_priced`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EncodeTally {
    pub raw: u64,
    pub delta: u64,
    pub dict: u64,
    pub rle: u64,
    pub dict_priced: u64,
}

/// Chooses a column's codec and encodes it once. Holds the scratch the
/// dictionary needs — the distinct-value probe and the sorted distinct
/// values, both O(rows per chunk) — across columns and chunks.
#[derive(Default)]
pub(crate) struct ColumnEncoder {
    probe: Probe,
    distinct: Vec<u64>,
    tally: EncodeTally,
}

impl ColumnEncoder {
    pub(crate) fn tally(&self) -> EncodeTally {
        self.tally
    }

    /// Collect the distinct values of `values` into `self.distinct`
    /// (first-seen order) unless there are more than `d_max` of them.
    fn count_distinct(&mut self, values: &[u64], d_max: usize) -> bool {
        self.probe.begin(d_max);
        self.distinct.clear();
        for &v in values {
            if self.probe.insert(v) {
                if self.distinct.len() >= d_max {
                    return false;
                }
                self.distinct.push(v);
            }
        }
        true
    }

    /// Sort the distinct values and return the exact dictionary payload
    /// size: both counts, the ascending entries, and one index per row
    /// whose width is the width of its value's rank.
    fn price_dict(&mut self, values: &[u64]) -> usize {
        self.distinct.sort_unstable();
        let mut entries = 0usize;
        let mut prev = 0u64;
        for &d in &self.distinct {
            // The first entry is absolute (`prev` starts at 0).
            entries += varint_len(d.wrapping_sub(prev));
            prev = d;
        }
        let mut indices = values.len();
        for first_wider_rank in [1usize << 7, 1 << 14, 1 << 21] {
            if let Some(&t) = self.distinct.get(first_wider_rank) {
                indices += values.iter().filter(|&&v| v >= t).count();
            }
        }
        varint_len(values.len() as u64) + varint_len(self.distinct.len() as u64) + entries + indices
    }

    /// Dictionary payload; `self.distinct` holds the sorted distinct
    /// values of `values` and the probe still holds the same set.
    fn dict_into(&mut self, values: &[u64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        write_varint(out, self.distinct.len() as u64);
        let mut prev = 0u64;
        for (rank, &d) in self.distinct.iter().enumerate() {
            // Strictly ascending, so the plain difference is exact.
            write_varint(out, d.wrapping_sub(prev));
            prev = d;
            if let Some(s) = self.probe.slot(d) {
                s.rank = rank as u32;
            }
        }
        for &v in values {
            // Present by construction; 0 is unreachable dead fallback.
            let rank = self.probe.slot(v).map_or(0, |s| s.rank);
            write_varint(out, u64::from(rank));
        }
    }

    /// Dictionary-encode `values` whatever it costs (the public
    /// [`crate::codec::encode_dict`]).
    pub(crate) fn encode_dict(&mut self, values: &[u64], out: &mut Vec<u8>) {
        self.count_distinct(values, values.len());
        self.distinct.sort_unstable();
        self.dict_into(values, out);
    }

    /// Append `values` to `out` as tag byte + payload under the smallest
    /// codec (first minimum of DELTA, DICT, RLE, RAW). Returns the tag.
    pub(crate) fn encode_column(&mut self, values: &[u64], out: &mut Vec<u8>) -> u8 {
        let n = values.len();
        let sizes = price(values);
        // The dictionary wins only strictly below delta (which precedes
        // it) and at or below the two that follow it.
        let limit = sizes.delta.saturating_sub(1).min(sizes.rle).min(sizes.raw);
        let mut dict = None;
        if let Some(d_max) = max_distinct_in_play(n, limit) {
            if self.count_distinct(values, d_max) {
                self.tally.dict_priced += 1;
                dict = Some(self.price_dict(values));
            }
        }
        let (tag, size) = match dict {
            Some(size) if size <= limit => (TAG_DICT, size),
            _ if sizes.delta <= sizes.rle && sizes.delta <= sizes.raw => (TAG_DELTA, sizes.delta),
            _ if sizes.rle <= sizes.raw => (TAG_RLE, sizes.rle),
            _ => (TAG_RAW, sizes.raw),
        };
        out.reserve(1 + size);
        out.push(tag);
        match tag {
            TAG_DICT => {
                self.tally.dict += 1;
                self.dict_into(values, out);
            }
            TAG_DELTA => {
                self.tally.delta += 1;
                delta_into(values, out);
            }
            TAG_RLE => {
                self.tally.rle += 1;
                rle_into(values, out);
            }
            _ => {
                self.tally.raw += 1;
                raw_into(values, out);
            }
        }
        tag
    }
}

/// `(min, max)` of a TSC column; `(0, 0)` when empty.
fn column_bounds(tsc: &[u64]) -> (u64, u64) {
    let min = tsc.iter().copied().min();
    let max = tsc.iter().copied().max();
    (min.unwrap_or(0), max.unwrap_or(0))
}

/// A run of elided rows: `len` samples dropped right after retained row
/// `index` of the chunk. Their TSC deltas sit, in order, in
/// `SampleChunk::deltas`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LedgerRun {
    index: u64,
    len: u64,
}

/// The sample chunk under construction: the retained rows as columns,
/// and the elision ledger, both grown as rows arrive.
#[derive(Default)]
pub(crate) struct SampleChunk {
    tsc: Vec<u64>,
    ip: Vec<u64>,
    core: Vec<u64>,
    r13: Vec<u64>,
    event: Vec<u64>,
    /// The previous stream row of this chunk, elided or not. `None` at
    /// the chunk's first row: suppression never reaches across chunks,
    /// so every chunk decodes on its own.
    prev: Option<PebsRecord>,
    runs: Vec<LedgerRun>,
    /// TSC deltas of the elided rows, all runs back to back.
    deltas: Vec<u64>,
    /// `(min, max)` TSC over the elided rows.
    elided_bounds: Option<(u64, u64)>,
}

impl SampleChunk {
    /// Logical rows (retained + elided).
    pub(crate) fn rows(&self) -> usize {
        self.tsc.len() + self.deltas.len()
    }

    pub(crate) fn retained(&self) -> usize {
        self.tsc.len()
    }

    /// `(min, max)` TSC over the logical rows; `(0, 0)` when empty.
    pub(crate) fn tsc_bounds(&self) -> (u64, u64) {
        let (lo, hi) = column_bounds(&self.tsc);
        match self.elided_bounds {
            Some((elo, ehi)) => (lo.min(elo), hi.max(ehi)),
            None => (lo, hi),
        }
    }

    /// Append rows nothing may be elided from, a column at a time.
    pub(crate) fn extend(&mut self, rows: &[PebsRecord]) {
        self.tsc.extend(rows.iter().map(|r| r.tsc));
        self.ip.extend(rows.iter().map(|r| r.ip.0));
        self.core.extend(rows.iter().map(|r| u64::from(r.core.0)));
        self.r13.extend(rows.iter().map(|r| r.r13));
        self.event
            .extend(rows.iter().map(|r| r.event.index() as u64));
    }

    /// Append rows under redundancy suppression: a row whose `(core, ip,
    /// r13, event)` equal its stream predecessor's and whose TSC
    /// advanced by at most `tolerance` goes to the ledger instead of the
    /// columns (the rule [`crate::split_suppressed`] states on whole
    /// chunks). Returns how many rows were elided.
    pub(crate) fn extend_suppressed(&mut self, rows: &[PebsRecord], tolerance: u64) -> u64 {
        let before = self.deltas.len();
        for &r in rows {
            let repeat = self.prev.filter(|p| {
                p.core == r.core
                    && p.ip == r.ip
                    && p.r13 == r.r13
                    && p.event == r.event
                    && r.tsc.wrapping_sub(p.tsc) <= tolerance
            });
            if let Some(p) = repeat {
                // Non-empty: an elision always follows a retained row.
                let index = self.tsc.len().saturating_sub(1) as u64;
                match self.runs.last_mut() {
                    Some(run) if run.index == index => run.len += 1,
                    _ => self.runs.push(LedgerRun { index, len: 1 }),
                }
                self.deltas.push(r.tsc.wrapping_sub(p.tsc));
                let (lo, hi) = self.elided_bounds.unwrap_or((r.tsc, r.tsc));
                self.elided_bounds = Some((lo.min(r.tsc), hi.max(r.tsc)));
            } else {
                self.tsc.push(r.tsc);
                self.ip.push(r.ip.0);
                self.core.push(u64::from(r.core.0));
                self.r13.push(r.r13);
                self.event.push(r.event.index() as u64);
            }
            self.prev = Some(r);
        }
        (self.deltas.len() - before) as u64
    }

    /// Append the encoded chunk — five columns, then the ledger — to `out`.
    pub(crate) fn encode_into(&self, encoder: &mut ColumnEncoder, out: &mut Vec<u8>) {
        for column in [&self.tsc, &self.ip, &self.core, &self.r13, &self.event] {
            encoder.encode_column(column, out);
        }
        // Ledger: run count, then per run the gap from the previous
        // run's retained index (absolute for the first), the elided
        // count, and the successive TSC deltas.
        write_varint(out, self.runs.len() as u64);
        let mut deltas = self.deltas.iter();
        let mut prev_index = 0u64;
        for run in &self.runs {
            write_varint(out, run.index.wrapping_sub(prev_index));
            write_varint(out, run.len);
            for &d in deltas.by_ref().take(run.len as usize) {
                write_varint(out, d);
            }
            prev_index = run.index;
        }
    }

    /// Empty the chunk, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.tsc.clear();
        self.ip.clear();
        self.core.clear();
        self.r13.clear();
        self.event.clear();
        self.prev = None;
        self.runs.clear();
        self.deltas.clear();
        self.elided_bounds = None;
    }
}

/// The mark chunk under construction, as columns.
#[derive(Default)]
pub(crate) struct MarkChunk {
    tsc: Vec<u64>,
    core: Vec<u64>,
    item: Vec<u64>,
    kind: Vec<u64>,
}

impl MarkChunk {
    pub(crate) fn rows(&self) -> usize {
        self.tsc.len()
    }

    /// `(min, max)` TSC over the rows; `(0, 0)` when empty.
    pub(crate) fn tsc_bounds(&self) -> (u64, u64) {
        column_bounds(&self.tsc)
    }

    /// Append rows, a column at a time.
    pub(crate) fn extend(&mut self, rows: &[MarkRecord]) {
        self.tsc.extend(rows.iter().map(|r| r.tsc));
        self.core.extend(rows.iter().map(|r| u64::from(r.core.0)));
        self.item.extend(rows.iter().map(|r| r.item.0));
        self.kind.extend(rows.iter().map(|r| match r.kind {
            MarkKind::Start => 0u64,
            MarkKind::End => 1u64,
        }));
    }

    /// Append the encoded chunk — four columns — to `out`.
    pub(crate) fn encode_into(&self, encoder: &mut ColumnEncoder, out: &mut Vec<u8>) {
        for column in [&self.tsc, &self.core, &self.item, &self.kind] {
            encoder.encode_column(column, out);
        }
    }

    /// Empty the chunk, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.tsc.clear();
        self.core.clear();
        self.item.clear();
        self.kind.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::split_suppressed;
    use fluctrace_cpu::{CoreId, HwEvent, VirtAddr};

    fn written(v: u64) -> usize {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out.len()
    }

    #[test]
    fn varint_len_matches_write_varint_at_every_width() {
        for bits in 0..64u32 {
            let edge = 1u64 << bits;
            for v in [edge - 1, edge, edge + 1, edge | (edge >> 1)] {
                assert_eq!(varint_len(v), written(v), "v = {v:#x}");
            }
        }
        assert_eq!(varint_len(u64::MAX), 10);
        assert_eq!(varint_len(0), 1);
    }

    #[test]
    fn priced_sizes_are_the_encoded_sizes() {
        let columns: [&[u64]; 5] = [
            &[],
            &[7],
            &[5, 5, 5, 5, 9, 9, 1 << 40],
            &[u64::MAX - 1, u64::MAX, 0, 1],
            &[300, 200, 100, 100, 100, 1 << 63],
        ];
        for values in columns {
            let sizes = price(values);
            let (mut raw, mut delta, mut rle) = (Vec::new(), Vec::new(), Vec::new());
            raw_into(values, &mut raw);
            delta_into(values, &mut delta);
            rle_into(values, &mut rle);
            assert_eq!(sizes.raw, raw.len(), "{values:?}");
            assert_eq!(sizes.delta, delta.len(), "{values:?}");
            assert_eq!(sizes.rle, rle.len(), "{values:?}");

            let mut enc = ColumnEncoder::default();
            assert!(enc.count_distinct(values, values.len().max(1)));
            let priced = enc.price_dict(values);
            let mut dict = Vec::new();
            enc.dict_into(values, &mut dict);
            assert_eq!(priced, dict.len(), "{values:?}");
            assert!(dict_floor(values.len(), enc.distinct.len()) <= priced);
        }
    }

    #[test]
    fn dict_price_counts_wide_ranks() {
        // 300 distinct far-apart values: ranks 128.. take two index bytes.
        let values: Vec<u64> = (0..900u64).map(|i| (i % 300) << 33).collect();
        let mut enc = ColumnEncoder::default();
        assert!(enc.count_distinct(&values, values.len()));
        let priced = enc.price_dict(&values);
        let mut dict = Vec::new();
        enc.dict_into(&values, &mut dict);
        assert_eq!(priced, dict.len());
        let mut out = Vec::new();
        assert_eq!(enc.encode_column(&values, &mut out), TAG_DICT);
        assert_eq!(out.len(), 1 + priced);
        assert_eq!(enc.tally().dict, 1);
        assert_eq!(enc.tally().dict_priced, 1);
    }

    #[test]
    fn distinct_counter_stops_when_the_dictionary_cannot_win() {
        // Ascending TSCs: delta costs ~1 byte a row, every value is
        // distinct, and the bound rules the dictionary out early.
        let values: Vec<u64> = (0..4096u64).map(|i| 1_000_000 + i * 37).collect();
        let mut enc = ColumnEncoder::default();
        let mut out = Vec::new();
        assert_eq!(enc.encode_column(&values, &mut out), TAG_DELTA);
        assert_eq!(enc.tally().dict_priced, 0);
        assert!(
            enc.distinct.len() < values.len() / 2,
            "counted {} distinct values of {}",
            enc.distinct.len(),
            values.len()
        );
        // A constant column never starts the counter at all.
        enc.distinct.clear();
        assert_eq!(enc.encode_column(&[3; 500], &mut out), TAG_RLE);
        assert!(enc.distinct.is_empty());
    }

    #[test]
    fn max_distinct_is_the_last_count_under_the_limit() {
        for n in [1usize, 2, 100, 129, 5000] {
            for limit in 0..(3 * n + 16) {
                match max_distinct_in_play(n, limit) {
                    None => assert!(dict_floor(n, 1) > limit),
                    Some(d) => {
                        assert!(d >= 1 && d <= n);
                        assert!(dict_floor(n, d) <= limit);
                        assert!(d == n || dict_floor(n, d + 1) > limit);
                    }
                }
            }
        }
        assert_eq!(max_distinct_in_play(0, 100), None);
    }

    #[test]
    fn probe_survives_stamp_wraparound() {
        let mut probe = Probe::default();
        probe.begin(4);
        assert!(probe.insert(9));
        probe.stamp = u32::MAX;
        probe.begin(4);
        assert_eq!(probe.stamp, 1);
        assert!(probe.insert(9), "stale entries must not survive the wrap");
        assert!(!probe.insert(9));
    }

    fn row(core: u32, tsc: u64, ip: u64) -> PebsRecord {
        PebsRecord {
            core: CoreId(core),
            tsc,
            ip: VirtAddr(ip),
            r13: 0,
            event: HwEvent::UopsRetired,
        }
    }

    /// The incremental rule agrees with `split_suppressed` row for row,
    /// however the rows are sliced on the way in.
    #[test]
    fn incremental_suppression_agrees_with_split_suppressed() {
        let mut rows = Vec::new();
        let mut tsc = u64::MAX - 400;
        for i in 0..200u64 {
            tsc = tsc.wrapping_add(1 + (i * 7) % 23);
            rows.push(row((i / 50) as u32, tsc, 0x1000 + (i / 6) % 5));
        }
        for tolerance in [0u64, 5, 12, 1 << 30] {
            let (retained, ledger) = split_suppressed(&rows, Some(tolerance));
            for slice in [1usize, 3, 200] {
                let mut chunk = SampleChunk::default();
                let mut elided = 0;
                for part in rows.chunks(slice) {
                    elided += chunk.extend_suppressed(part, tolerance);
                }
                assert_eq!(chunk.rows(), rows.len());
                assert_eq!(chunk.retained(), retained.len());
                assert_eq!(elided as usize, rows.len() - retained.len());
                let tscs: Vec<u64> = retained.iter().map(|r| r.tsc).collect();
                let ips: Vec<u64> = retained.iter().map(|r| r.ip.0).collect();
                assert_eq!(chunk.tsc, tscs);
                assert_eq!(chunk.ip, ips);
                let runs: Vec<LedgerRun> = ledger
                    .iter()
                    .map(|g| LedgerRun {
                        index: g.index,
                        len: g.deltas.len() as u64,
                    })
                    .collect();
                let deltas: Vec<u64> = ledger.iter().flat_map(|g| g.deltas.clone()).collect();
                assert_eq!(chunk.runs, runs);
                assert_eq!(chunk.deltas, deltas);
            }
        }
        // Unsuppressed: everything retained, bounds over all rows.
        let mut chunk = SampleChunk::default();
        chunk.extend(&rows);
        assert_eq!(chunk.retained(), rows.len());
        let (all, none) = split_suppressed(&rows, None);
        assert_eq!(all.len(), chunk.rows());
        assert!(none.is_empty() && chunk.runs.is_empty());
        assert_eq!(
            chunk.tsc_bounds(),
            (
                rows.iter().map(|r| r.tsc).min().unwrap(),
                rows.iter().map(|r| r.tsc).max().unwrap()
            )
        );
        chunk.clear();
        assert_eq!(chunk.tsc_bounds(), (0, 0));
    }
}
