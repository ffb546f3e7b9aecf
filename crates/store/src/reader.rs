//! Store reader: parses segment footers back-to-front at open (no
//! chunk bytes touched), then decodes chunks on demand. Suppressed
//! segments replay their ledgers into bit-exact logical rows by
//! default; [`TraceReader::read_retained`] instead keeps the physical
//! rows and reports precisely what was dropped.
//!
//! Every read goes through one chunk decoder: it decodes a chunk's
//! columns into buffers kept across chunks, checks every row and the
//! ledger, then appends the rows straight into the caller's output in
//! one zipped pass, replaying the ledger as it goes. Once the buffers
//! fit the largest chunk, a read allocates only what it returns. This
//! file is a `hot-path-alloc` root in `lint.toml`.

use std::io::{Read, Seek, SeekFrom};

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
use fluctrace_obs as obs;

use crate::codec::{decode_column_into, read_varint};
use crate::error::StoreError;
use crate::format::{ChunkDesc, Footer, MAGIC, STREAM_SAMPLES, TAIL_BYTES, TAIL_MAGIC};

/// One parsed segment: its footer plus the absolute offset of its head.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Decoded footer.
    pub footer: Footer,
    /// Absolute byte offset of the segment's head magic.
    pub start: u64,
}

/// What a ledger-aware retained read dropped, per elision site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionReport {
    /// Total sample rows elided across all segments.
    pub elided: u64,
    /// `(segment, global retained sample index, TSC deltas)` for every
    /// elision site, in stream order — exactly the rows suppression
    /// dropped and where they belong.
    pub sites: Vec<(usize, u64, Vec<u64>)>,
}

/// Columnar reader over any [`Read`]`+`[`Seek`] source.
pub struct TraceReader<R: Read + Seek> {
    segments: Vec<SegmentMeta>,
    decoder: ChunkDecoder<R>,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Open a store: locate and validate every segment footer, newest
    /// last. No chunk data is read or decoded here.
    pub fn open(mut src: R) -> Result<Self, StoreError> {
        let len = src.seek(SeekFrom::End(0))?;
        let mut decoder = ChunkDecoder::new(src);
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut end = len;
        if end == 0 {
            return Err(StoreError::Truncated("empty store"));
        }
        while end > 0 {
            if end < MAGIC.len() as u64 + TAIL_BYTES {
                return Err(StoreError::Truncated("segment tail"));
            }
            let tail = decoder.read_at(end - TAIL_BYTES, TAIL_BYTES as usize)?;
            let (len_bytes, magic_bytes) = tail.split_at(8);
            if magic_bytes != TAIL_MAGIC {
                return Err(StoreError::BadMagic);
            }
            let footer_len = u64::from_le_bytes(
                len_bytes
                    .try_into()
                    .map_err(|_| StoreError::Truncated("footer length"))?,
            );
            let footer_start = end
                .checked_sub(TAIL_BYTES)
                .and_then(|p| p.checked_sub(footer_len))
                .ok_or(StoreError::Truncated("footer"))?;
            let footer = Footer::decode(decoder.read_at(footer_start, footer_len as usize)?)?;
            let start = footer_start
                .checked_sub(footer.body_len)
                .ok_or(StoreError::Corrupt("body length exceeds file"))?;
            if decoder.read_at(start, MAGIC.len())? != MAGIC {
                return Err(StoreError::BadMagic);
            }
            segments.push(SegmentMeta { footer, start });
            end = start;
        }
        segments.reverse();
        if obs::recording() {
            obs::counter!("store.reader.segments").add(segments.len() as u64);
        }
        Ok(TraceReader { segments, decoder })
    }

    /// Number of segments in the store.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Per-segment metadata, in file order.
    pub fn segment_meta(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Logical `(samples, marks)` row totals, from footers alone.
    pub fn logical_rows(&self) -> (u64, u64) {
        let mut samples = 0u64;
        let mut marks = 0u64;
        for s in &self.segments {
            let (sm, mk) = s.footer.logical_rows();
            samples = samples.saturating_add(sm);
            marks = marks.saturating_add(mk);
        }
        (samples, marks)
    }

    /// Min/max TSC over all sample chunks, from footers alone. `None`
    /// when the store holds no samples.
    pub fn sample_tsc_bounds(&self) -> Option<(u64, u64)> {
        let mut bounds: Option<(u64, u64)> = None;
        for s in &self.segments {
            for c in &s.footer.chunks {
                if c.stream == STREAM_SAMPLES && c.rows > 0 {
                    bounds = Some(match bounds {
                        None => (c.tsc_min, c.tsc_max),
                        Some((lo, hi)) => (lo.min(c.tsc_min), hi.max(c.tsc_max)),
                    });
                }
            }
        }
        bounds
    }

    /// Read every segment and replay ledgers: the returned bundle is
    /// bit-exact equal to what was appended, elided rows included.
    pub fn read_bundle(&mut self) -> Result<TraceBundle, StoreError> {
        let mut out = TraceBundle::default();
        for meta in &self.segments {
            self.decoder.logical(meta, &mut out)?;
        }
        Ok(out)
    }

    /// Read one segment (ledger replayed), by index in file order.
    pub fn read_segment(&mut self, index: usize) -> Result<TraceBundle, StoreError> {
        let meta = self
            .segments
            .get(index)
            .ok_or(StoreError::Corrupt("segment index out of range"))?;
        let mut out = TraceBundle::default();
        self.decoder.logical(meta, &mut out)?;
        Ok(out)
    }

    /// Read every segment but keep only the physically retained rows,
    /// reporting exactly which rows suppression dropped and where.
    pub fn read_retained(&mut self) -> Result<(TraceBundle, ElisionReport), StoreError> {
        let mut out = TraceBundle::default();
        let mut report = ElisionReport::default();
        for (i, meta) in self.segments.iter().enumerate() {
            let mut seg_retained_base = 0u64;
            for c in &meta.footer.chunks {
                if c.stream == STREAM_SAMPLES {
                    let site = (i, seg_retained_base);
                    self.decoder
                        .retained(meta.start, c, &mut out.samples, &mut report, site)?;
                    seg_retained_base += c.retained;
                } else {
                    self.decoder.marks(meta.start, c, &mut out.marks)?;
                }
            }
        }
        Ok((out, report))
    }

    /// Chunk-pruned sample scan: decode only chunks whose footer
    /// `[tsc_min, tsc_max]` overlaps `[lo, hi]`, and keep the rows inside
    /// it as they are decoded. This
    /// is the "read without deserializing the whole file" path — on a
    /// narrow window most chunks are skipped from the footer alone.
    /// Bounds are plain u64 comparisons (a wrapping trace spans the
    /// whole axis and defeats pruning, never correctness).
    pub fn read_samples_in(&mut self, lo: u64, hi: u64) -> Result<Vec<PebsRecord>, StoreError> {
        let mut out = Vec::new();
        for meta in &self.segments {
            for c in &meta.footer.chunks {
                if c.stream != STREAM_SAMPLES || c.rows == 0 {
                    continue;
                }
                if c.tsc_max < lo || c.tsc_min > hi {
                    continue;
                }
                self.decoder
                    .samples(meta.start, c, &mut out, |tsc| tsc >= lo && tsc <= hi)?;
            }
        }
        Ok(out)
    }
}

/// The one chunk decoder, and every buffer it decodes into: the chunk's
/// bytes, one column per field (samples use all five, marks the first
/// four) and a dictionary column's entries. They are kept across chunks
/// and calls, so once they fit the largest chunk a read allocates only
/// what it returns.
struct ChunkDecoder<R> {
    src: R,
    bytes: Vec<u8>,
    columns: [Vec<u64>; 5],
    dict: Vec<u64>,
}

impl<R: Read + Seek> ChunkDecoder<R> {
    fn new(src: R) -> Self {
        ChunkDecoder {
            src,
            bytes: Vec::new(),
            columns: Default::default(),
            dict: Vec::new(),
        }
    }

    /// Seek + exact read of `len` bytes at absolute `offset` into
    /// `self.bytes`.
    fn read_at(&mut self, offset: u64, len: usize) -> Result<&[u8], StoreError> {
        self.src.seek(SeekFrom::Start(offset))?;
        // Every byte is overwritten by `read_exact` or the read fails.
        self.bytes.resize(len, 0);
        self.src
            .read_exact(&mut self.bytes)
            .map_err(|_| StoreError::Truncated("chunk or footer bytes"))?;
        Ok(&self.bytes)
    }

    /// Append every logical row of one segment to `out`, ledgers
    /// replayed.
    fn logical(&mut self, meta: &SegmentMeta, out: &mut TraceBundle) -> Result<(), StoreError> {
        for c in &meta.footer.chunks {
            if c.stream == STREAM_SAMPLES {
                out.samples.reserve(c.rows as usize);
                self.samples(meta.start, c, &mut out.samples, |_| true)?;
            } else {
                self.marks(meta.start, c, &mut out.marks)?;
            }
        }
        Ok(())
    }

    /// Fetch chunk `c` of the segment at `seg_start` and decode its first
    /// `columns` columns, `rows` rows each. Returns the position after
    /// the last column.
    fn load(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        columns: usize,
        rows: u64,
    ) -> Result<usize, StoreError> {
        let offset = seg_start
            .checked_add(c.offset)
            .ok_or(StoreError::Corrupt("chunk offset overflows"))?;
        self.read_at(offset, c.byte_len as usize)?;
        if obs::recording() {
            obs::counter!("store.reader.bytes").add(c.byte_len);
        }
        let mut pos = 0usize;
        for column in self.columns.iter_mut().take(columns) {
            decode_column_into(&self.bytes, &mut pos, rows as usize, column, &mut self.dict)?;
        }
        Ok(pos)
    }

    /// Load sample chunk `c` and check its ledger and that nothing
    /// trails it. Returns where the ledger starts. The rows themselves
    /// are checked as they are appended, except when the ledger fails:
    /// a bad row is still the error reported first.
    fn load_samples(&mut self, seg_start: u64, c: &ChunkDesc) -> Result<usize, StoreError> {
        let ledger = self.load(seg_start, c, 5, c.retained)?;
        let checked = Ledger::new(&self.bytes, ledger, c)
            .and_then(Ledger::check)
            .and_then(|end| {
                if end == self.bytes.len() {
                    Ok(())
                } else {
                    Err(StoreError::Corrupt("trailing bytes after sample chunk"))
                }
            });
        if let Err(e) = checked {
            for row in self.retained_rows() {
                row?;
            }
            return Err(e);
        }
        Ok(ledger)
    }

    /// The loaded sample chunk's retained rows, in stream order.
    fn retained_rows(&self) -> impl Iterator<Item = Result<PebsRecord, StoreError>> + '_ {
        let [tsc, ip, core, r13, event] = &self.columns;
        tsc.iter().zip(ip).zip(core).zip(r13).zip(event).map(
            |((((&tsc, &ip), &core), &r13), &event)| {
                Ok(PebsRecord {
                    core: core_id(core)?,
                    tsc,
                    ip: VirtAddr(ip),
                    r13,
                    event: hw_event(event)?,
                })
            },
        )
    }

    /// Decode sample chunk `c` and append its logical rows whose TSC
    /// passes `keep` to `out`, re-inserting each elided row after its
    /// retained anchor (TSCs chained through the wrapping deltas) as the
    /// rows go by.
    fn samples(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<PebsRecord>,
        keep: impl Fn(u64) -> bool,
    ) -> Result<(), StoreError> {
        let ledger_at = self.load_samples(seg_start, c)?;
        let mut ledger = Ledger::new(&self.bytes, ledger_at, c)?;
        let mut next = ledger.next_group()?;
        let before = out.len();
        let mut replayed = 0u64;
        for (i, row) in self.retained_rows().enumerate() {
            let row = row?;
            if keep(row.tsc) {
                out.push(row);
            }
            replayed += 1;
            if let Some((_, elided)) = next.filter(|&(anchor, _)| anchor == i as u64) {
                let mut last = row;
                for _ in 0..elided {
                    last.tsc = last.tsc.wrapping_add(ledger.delta()?);
                    if keep(last.tsc) {
                        out.push(last);
                    }
                }
                replayed += elided;
                next = ledger.next_group()?;
            }
        }
        if next.is_some() {
            return Err(StoreError::Corrupt("ledger anchor past retained rows"));
        }
        if replayed != c.rows {
            return Err(StoreError::Corrupt("replayed rows != footer rows"));
        }
        if obs::recording() {
            obs::counter!("store.reader.samples").add((out.len() - before) as u64);
        }
        Ok(())
    }

    /// Decode sample chunk `c`, append its retained rows to `out`, and
    /// report each ledger group as the site `(segment, base + anchor,
    /// deltas)`.
    fn retained(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<PebsRecord>,
        report: &mut ElisionReport,
        (segment, base): (usize, u64),
    ) -> Result<(), StoreError> {
        let ledger_at = self.load_samples(seg_start, c)?;
        out.reserve(c.retained as usize);
        for row in self.retained_rows() {
            out.push(row?);
        }
        let mut ledger = Ledger::new(&self.bytes, ledger_at, c)?;
        while let Some((index, elided)) = ledger.next_group()? {
            let mut deltas = Vec::with_capacity(elided as usize);
            for _ in 0..elided {
                deltas.push(ledger.delta()?);
            }
            report.elided += elided;
            report.sites.push((segment, base + index, deltas));
        }
        if obs::recording() {
            obs::counter!("store.reader.samples").add(c.retained);
        }
        Ok(())
    }

    /// Decode mark chunk `c` and append its rows to `out`.
    fn marks(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<MarkRecord>,
    ) -> Result<(), StoreError> {
        let pos = self.load(seg_start, c, 4, c.rows)?;
        if pos != self.bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after mark chunk"));
        }
        let [tsc, core, item, kind, _] = &self.columns;
        out.reserve(tsc.len());
        for (((&tsc, &core), &item), &kind) in tsc.iter().zip(core).zip(item).zip(kind) {
            out.push(MarkRecord {
                core: core_id(core)?,
                tsc,
                item: ItemId(item),
                kind: match kind {
                    0 => MarkKind::Start,
                    1 => MarkKind::End,
                    _ => return Err(StoreError::Corrupt("unknown mark kind")),
                },
            });
        }
        if obs::recording() {
            obs::counter!("store.reader.marks").add(tsc.len() as u64);
        }
        Ok(())
    }
}

fn core_id(raw: u64) -> Result<CoreId, StoreError> {
    u32::try_from(raw)
        .map(CoreId)
        .map_err(|_| StoreError::Corrupt("core id exceeds u32"))
}

fn hw_event(raw: u64) -> Result<HwEvent, StoreError> {
    usize::try_from(raw)
        .ok()
        .and_then(|i| HwEvent::ALL.get(i))
        .copied()
        .ok_or(StoreError::Corrupt("hw event index out of range"))
}

/// A sample chunk's elision ledger, read a group at a time and checked
/// against the footer's row accounting as it is read: the group count,
/// then per group the gap from the previous anchor (absolute for the
/// first), the elided count and that many TSC deltas.
struct Ledger<'a> {
    buf: &'a [u8],
    pos: usize,
    groups: u64,
    read: u64,
    anchor: u64,
    retained: u64,
    /// Rows the footer says were elided (`rows - retained`).
    elidable: u64,
    elided: u64,
}

impl<'a> Ledger<'a> {
    /// The ledger of chunk `c` at `buf[pos..]`.
    fn new(buf: &'a [u8], mut pos: usize, c: &ChunkDesc) -> Result<Self, StoreError> {
        let groups = read_varint(buf, &mut pos)?;
        if groups > c.rows {
            return Err(StoreError::Corrupt("more ledger groups than rows"));
        }
        Ok(Ledger {
            buf,
            pos,
            groups,
            read: 0,
            anchor: 0,
            retained: c.retained,
            elidable: c.rows.wrapping_sub(c.retained),
            elided: 0,
        })
    }

    /// The next group's `(retained anchor index, elided rows)`; read its
    /// deltas with [`Ledger::delta`] before asking for the group after.
    fn next_group(&mut self) -> Result<Option<(u64, u64)>, StoreError> {
        if self.read == self.groups {
            return Ok(None);
        }
        let gap = read_varint(self.buf, &mut self.pos)?;
        if self.read > 0 && gap == 0 {
            return Err(StoreError::Corrupt("ledger indices not increasing"));
        }
        self.anchor = self.anchor.wrapping_add(gap);
        if self.anchor >= self.retained {
            return Err(StoreError::Corrupt("ledger index past retained rows"));
        }
        let count = read_varint(self.buf, &mut self.pos)?;
        if count == 0 {
            return Err(StoreError::Corrupt("empty ledger group"));
        }
        self.elided = self.elided.saturating_add(count);
        if self.elided > self.elidable {
            return Err(StoreError::Corrupt(
                "ledger elides more than rows - retained",
            ));
        }
        self.read += 1;
        Ok(Some((self.anchor, count)))
    }

    fn delta(&mut self) -> Result<u64, StoreError> {
        read_varint(self.buf, &mut self.pos)
    }

    /// Read the whole ledger; returns the position just past it.
    fn check(mut self) -> Result<usize, StoreError> {
        while let Some((_, count)) = self.next_group()? {
            for _ in 0..count {
                self.delta()?;
            }
        }
        if self.elided != self.elidable {
            return Err(StoreError::Corrupt("ledger total != rows - retained"));
        }
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_bundles_to_vec, StoreConfig};
    use std::io::Cursor;

    /// 300 samples 10 cycles apart in runs of 20 equal rows (so the
    /// suppressed store elides most of them), a mark every 10th.
    fn bundle(base: u64) -> TraceBundle {
        let mut b = TraceBundle::default();
        for i in 0..300u64 {
            b.samples.push(PebsRecord {
                core: CoreId((i / 100) as u32),
                tsc: base + i * 10,
                ip: VirtAddr(0x4000 + (i / 20) * 8),
                r13: 0,
                event: HwEvent::UopsRetired,
            });
            if i % 10 == 0 {
                b.marks.push(MarkRecord {
                    core: CoreId(0),
                    tsc: base + i * 10,
                    item: ItemId(i),
                    kind: MarkKind::Start,
                });
            }
        }
        b
    }

    /// `store.reader.*` count what each read returned: segments once at
    /// open, rows and chunk bytes where the decoder produces them. Only
    /// this test reads stores in this binary, so the deltas are exact.
    #[test]
    fn reader_counters_add_exactly_what_each_read_returned() {
        obs::set_recording(true);
        let counts = || {
            [
                "store.reader.segments",
                "store.reader.samples",
                "store.reader.marks",
                "store.reader.bytes",
            ]
            .map(|name| obs::registry().counter(name).total())
        };
        let grown = |before: [u64; 4]| {
            let now = counts();
            std::array::from_fn::<u64, 4, _>(|i| now[i] - before[i])
        };
        let config = StoreConfig {
            chunk_rows: 64,
            ..StoreConfig::suppressed(10)
        };
        let (bytes, stats) = write_bundles_to_vec(&[bundle(1_000), bundle(9_000)], config).unwrap();
        assert!(stats.elided > 400, "the ledger replay is exercised");

        let before = counts();
        let mut reader = TraceReader::open(Cursor::new(bytes)).unwrap();
        assert_eq!(grown(before), [2, 0, 0, 0]);
        let chunk_bytes = |reader: &TraceReader<_>, lo: u64, hi: u64, marks: bool| -> u64 {
            reader
                .segment_meta()
                .iter()
                .flat_map(|s| &s.footer.chunks)
                .filter(|c| match c.stream {
                    STREAM_SAMPLES => c.tsc_max >= lo && c.tsc_min <= hi,
                    _ => marks,
                })
                .map(|c| c.byte_len)
                .sum()
        };

        let before = counts();
        let window = reader.read_samples_in(2_000, 3_500).unwrap();
        assert_eq!(window.len(), 151);
        let window_bytes = chunk_bytes(&reader, 2_000, 3_500, false);
        assert_eq!(grown(before), [0, 151, 0, window_bytes]);

        let before = counts();
        let all = reader.read_bundle().unwrap();
        assert_eq!((all.samples.len(), all.marks.len()), (600, 60));
        let all_bytes = chunk_bytes(&reader, 0, u64::MAX, true);
        assert_eq!(grown(before), [0, 600, 60, all_bytes]);
    }
}
