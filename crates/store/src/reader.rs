//! Store reader: parses segment footers back-to-front at open (no
//! chunk bytes touched), then decodes chunks on demand. Suppressed
//! segments replay their ledgers into bit-exact logical rows by
//! default; [`TraceReader::read_retained`] instead keeps the physical
//! rows and reports precisely what was dropped.
//!
//! Every read goes through one chunk decoder. It decodes a chunk's
//! columns into buffers kept across chunks; a column that is one RLE
//! run covering the chunk stays a single value. It then checks the rows
//! a column at a time (core ids, event indices, mark kinds, every row
//! in or out of a read's window) and the ledger. Only then are rows
//! built, and only the rows the read returns: a window read narrows a
//! sorted TSC column by binary search, and tests each row of an
//! unsorted one only when the window cuts it. One loop appends them
//! straight into the caller's output, reserved once per chunk by the
//! exact count, with the retained rows between two ledger anchors as
//! one range and each elided row replayed (or reported) after its
//! anchor. Once the buffers fit the largest chunk, a read allocates
//! only what it returns. This file is a `hot-path-alloc` root in
//! `lint.toml`.

use std::io::{Read, Seek, SeekFrom};

use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, TraceBundle, VirtAddr,
};
use fluctrace_obs as obs;

use crate::codec::{decode_column_into, decode_single_run, read_varint};
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
                    let elided = Elided::Report(&mut report, i, seg_retained_base);
                    self.decoder
                        .samples(meta.start, c, &mut out.samples, Keep::All, elided)?;
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
                let keep = Keep::Window(lo, hi);
                self.decoder
                    .samples(meta.start, c, &mut out, keep, Elided::Replay)?;
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
    /// Per column, the value of the one RLE run it is, if it is one:
    /// such a column is not filled out to a value per row.
    runs: [Option<u64>; 5],
    dict: Vec<u64>,
}

/// Which of a chunk's rows a read keeps, by TSC.
#[derive(Clone, Copy)]
enum Keep {
    /// Every row.
    All,
    /// The rows with `lo <= tsc <= hi`.
    Window(u64, u64),
}

impl Keep {
    fn tsc(self, tsc: u64) -> bool {
        match self {
            Keep::All => true,
            Keep::Window(lo, hi) => tsc >= lo && tsc <= hi,
        }
    }
}

/// What becomes of a sample chunk's elided rows.
enum Elided<'a> {
    /// Replayed right after their anchor, where the read keeps them.
    Replay,
    /// Left out, and reported as the site `(segment, base + anchor,
    /// deltas)`.
    Report(&'a mut ElisionReport, usize, u64),
}

/// One decoded column of a chunk.
#[derive(Clone, Copy)]
enum Column<'a> {
    /// A single RLE run covering the chunk: every row's value.
    Run(u64),
    /// One value per row.
    Values(&'a [u64]),
}

impl Column<'_> {
    #[inline]
    fn at(self, row: usize) -> u64 {
        match self {
            Column::Run(v) => v,
            // Every row a read asks for is in the chunk.
            Column::Values(v) => v.get(row).copied().unwrap_or_default(),
        }
    }

    /// The largest value (0 for an empty column).
    fn max(self) -> u64 {
        match self {
            Column::Run(v) => v,
            Column::Values(v) => v.iter().fold(0, |m, &x| m.max(x)),
        }
    }
}

impl<R: Read + Seek> ChunkDecoder<R> {
    fn new(src: R) -> Self {
        ChunkDecoder {
            src,
            bytes: Vec::new(),
            columns: Default::default(),
            runs: [None; 5],
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
                self.samples(meta.start, c, &mut out.samples, Keep::All, Elided::Replay)?;
            } else {
                self.marks(meta.start, c, &mut out.marks)?;
            }
        }
        Ok(())
    }

    /// Fetch chunk `c` of the segment at `seg_start` and decode its first
    /// `columns` columns, `rows` rows each; a column that is one RLE run
    /// keeps only its value. Returns the position after the last column.
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
        for (column, run) in self.columns.iter_mut().zip(&mut self.runs).take(columns) {
            *run = decode_single_run(&self.bytes, &mut pos, rows as usize);
            if run.is_none() {
                decode_column_into(&self.bytes, &mut pos, rows as usize, column, &mut self.dict)?;
            }
        }
        Ok(pos)
    }

    /// The loaded chunk's columns, in file order.
    fn columns(&self) -> [Column<'_>; 5] {
        let mut out = [Column::Run(0); 5];
        for ((column, run), values) in out.iter_mut().zip(&self.runs).zip(&self.columns) {
            *column = match *run {
                Some(v) => Column::Run(v),
                None => Column::Values(values),
            };
        }
        out
    }

    /// Load sample chunk `c`, check its rows, its ledger and that
    /// nothing trails it. Returns where the ledger starts and how many
    /// elided rows `keep` keeps.
    fn load_samples(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        keep: Keep,
    ) -> Result<(usize, usize), StoreError> {
        let ledger = self.load(seg_start, c, 5, c.retained)?;
        let [tsc, _, core, _, event] = self.columns();
        check_rows(
            c.retained as usize,
            [
                (core, u64::from(u32::MAX), "core id exceeds u32"),
                (
                    event,
                    HwEvent::ALL.len() as u64 - 1,
                    "hw event index out of range",
                ),
            ],
        )?;
        let (end, kept) = Ledger::new(&self.bytes, ledger, c)?.check(tsc, keep)?;
        if end != self.bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after sample chunk"));
        }
        Ok((ledger, kept))
    }

    /// Decode sample chunk `c` and append the rows `keep` keeps to
    /// `out`: its retained rows and, when `elided` says replay, each
    /// elided row right after its retained anchor (TSCs chained through
    /// the wrapping deltas). The retained rows between two anchors are
    /// one range, appended by one `extend`; under a window, a sorted TSC
    /// column narrows the ranges by binary search, and an unsorted one
    /// that the window cuts is tested row by row. Only the rows appended
    /// are built, and `out` grows once, by their exact count.
    fn samples(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<PebsRecord>,
        keep: Keep,
        mut elided: Elided<'_>,
    ) -> Result<(), StoreError> {
        let (ledger_at, elided_kept) = self.load_samples(seg_start, c, keep)?;
        let rows = c.retained as usize;
        let [tsc, ip, core, r13, event] = self.columns();
        // The retained rows in `first..last` hold all `retained_kept`
        // rows the read keeps; `test` says whether each must still be
        // tested: only in an unsorted chunk that the window cuts.
        let (first, last, test, retained_kept) = match (keep, tsc) {
            (Keep::All, _) => (0, rows, false, rows),
            (Keep::Window(..), Column::Run(t)) => {
                let last = if keep.tsc(t) { rows } else { 0 };
                (0, last, false, last)
            }
            (Keep::Window(lo, hi), Column::Values(v)) if v.is_sorted() => {
                let first = v.partition_point(|&t| t < lo);
                let last = v.partition_point(|&t| t <= hi).max(first);
                (first, last, false, last - first)
            }
            (Keep::Window(..), Column::Values(v)) => {
                match v.iter().filter(|&&t| keep.tsc(t)).count() {
                    0 => (0, 0, false, 0),
                    kept => (0, rows, kept != rows, kept),
                }
            }
        };
        let replay = matches!(elided, Elided::Replay);
        out.reserve(retained_kept + if replay { elided_kept } else { 0 });
        // Every core id and event index was checked above.
        let row = |i: usize| PebsRecord {
            core: CoreId(core.at(i) as u32),
            tsc: tsc.at(i),
            ip: VirtAddr(ip.at(i)),
            r13: r13.at(i),
            event: HwEvent::ALL
                .get(event.at(i) as usize)
                .copied()
                .unwrap_or(HwEvent::UopsRetired),
        };
        let before = out.len();
        let mut ledger = Ledger::new(&self.bytes, ledger_at, c)?;
        let mut replayed = c.retained;
        let mut from = 0usize;
        loop {
            let group = ledger.next_group()?;
            let to = group.map_or(rows, |(anchor, _)| anchor as usize + 1);
            let range = from.max(first)..to.min(last);
            if test {
                out.extend(range.filter(|&i| keep.tsc(tsc.at(i))).map(row));
            } else {
                out.extend(range.map(row));
            }
            let Some((anchor, count)) = group else {
                break;
            };
            match &mut elided {
                Elided::Replay => {
                    let mut elided_row = row(anchor as usize);
                    for _ in 0..count {
                        elided_row.tsc = elided_row.tsc.wrapping_add(ledger.delta()?);
                        if keep.tsc(elided_row.tsc) {
                            out.push(elided_row);
                        }
                    }
                }
                Elided::Report(report, segment, base) => {
                    let mut deltas = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        deltas.push(ledger.delta()?);
                    }
                    report.elided += count;
                    report.sites.push((*segment, *base + anchor, deltas));
                }
            }
            replayed += count;
            from = to;
        }
        if replayed != c.rows {
            return Err(StoreError::Corrupt("replayed rows != footer rows"));
        }
        if obs::recording() {
            obs::counter!("store.reader.samples").add((out.len() - before) as u64);
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
        let rows = c.rows as usize;
        let [tsc, core, item, kind, _] = self.columns();
        check_rows(
            rows,
            [
                (core, u64::from(u32::MAX), "core id exceeds u32"),
                (kind, 1, "unknown mark kind"),
            ],
        )?;
        out.reserve(rows);
        // Every core id and mark kind was checked above.
        out.extend((0..rows).map(|i| MarkRecord {
            core: CoreId(core.at(i) as u32),
            tsc: tsc.at(i),
            item: ItemId(item.at(i)),
            kind: if kind.at(i) == 0 {
                MarkKind::Start
            } else {
                MarkKind::End
            },
        }));
        if obs::recording() {
            obs::counter!("store.reader.marks").add(rows as u64);
        }
        Ok(())
    }
}

/// Check a loaded chunk's `rows` rows a column at a time, every row in
/// or out of a read's window: each `(column, max, error)` fails when a
/// value exceeds `max`, and the checks are listed in the order a row is
/// checked. When one fails, the rows are scanned in order, so the error
/// is the first bad row's, as if each row were checked on its own.
fn check_rows(rows: usize, checks: [(Column<'_>, u64, &'static str); 2]) -> Result<(), StoreError> {
    if checks.iter().all(|&(column, max, _)| column.max() <= max) {
        return Ok(());
    }
    for row in 0..rows {
        for &(column, max, error) in &checks {
            if column.at(row) > max {
                return Err(StoreError::Corrupt(error));
            }
        }
    }
    Ok(())
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

    /// Read the whole ledger; returns the position just past it and how
    /// many elided rows `keep` keeps, each elided row's TSC chained
    /// from its anchor's in the retained `tsc` column.
    fn check(mut self, tsc: Column<'_>, keep: Keep) -> Result<(usize, usize), StoreError> {
        let mut kept = 0usize;
        while let Some((anchor, count)) = self.next_group()? {
            let mut t = tsc.at(anchor as usize);
            for _ in 0..count {
                t = t.wrapping_add(self.delta()?);
                kept += usize::from(keep.tsc(t));
            }
        }
        if self.elided != self.elidable {
            return Err(StoreError::Corrupt("ledger total != rows - retained"));
        }
        Ok((self.pos, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_bundle_to_vec, write_bundles, StoreConfig, WriteStats};
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
        let (bytes, stats) =
            write_bundles(Vec::new(), &[bundle(1_000), bundle(9_000)], config).unwrap();
        assert!(stats.elided > 400, "the ledger replay is exercised");
        // The two-segment totals are the field-wise sum of two
        // one-segment writes (every field is nonzero in each).
        let (_, a) = write_bundle_to_vec(&bundle(1_000), config).unwrap();
        let (_, b) = write_bundle_to_vec(&bundle(9_000), config).unwrap();
        let fields = |s: WriteStats| [s.samples, s.marks, s.elided, s.chunks, s.bytes];
        assert!(fields(a).into_iter().chain(fields(b)).all(|v| v > 0));
        assert_eq!(
            fields(stats),
            std::array::from_fn(|i| fields(a)[i] + fields(b)[i])
        );
        assert_eq!(stats.bytes, bytes.len() as u64);

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
