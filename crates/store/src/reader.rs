//! Store reader: parses segment footers back-to-front at open (no
//! chunk bytes touched), then decodes chunks on demand. Suppressed
//! segments replay their ledgers into bit-exact logical rows by
//! default; [`TraceReader::read_retained`] instead keeps the physical
//! rows and reports precisely what was dropped.
//!
//! Every read goes through one chunk decoder. It fetches a chunk's bytes
//! and decodes its columns into a slot, one buffer per column kept
//! across chunks and calls; a column that is one RLE run covering the
//! chunk stays a single value. It then checks the rows a column at a
//! time (core ids, event indices, mark kinds, every row in or out of a
//! read's window) and the ledger. Only then are rows built, and only the
//! rows the read returns: a window read narrows a sorted TSC column by
//! binary search, and tests each row of an unsorted one only when the
//! window cuts it. Rows go straight into the caller's output, reserved
//! once per chunk by the exact count: the retained rows between two
//! ledger anchors are one range, and each elided row is replayed (or
//! reported) after its anchor. A sample chunk whose `core`, `r13` and
//! `event` columns are one run each has its ranges built by one loop
//! over its `tsc` and `ip` values; any other layout, a field at a time.
//!
//! Window reads hand work on to the next window read. A chunk that a
//! window read cut (it returned only some of the chunk's rows) keeps its
//! slot, decoded and checked, and the next window read that overlaps it
//! builds its rows from that slot instead of fetching and decoding it
//! again. The carry is what one read cut, never more decoded bytes than
//! that read returned, and is keyed by the chunk's absolute offset and
//! footer entry; `read_bundle`, `read_segment` and `read_retained`
//! neither use nor change it. Slots leaving the carry are reused, so
//! once the buffers fit, a read allocates only what it returns. STORE.md
//! ("Window reads") states the rule. This file is a `hot-path-alloc`
//! root in `lint.toml`.

use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;

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
    /// whole axis and defeats pruning, never correctness). A chunk the
    /// previous window read cut is taken from the carry, not decoded
    /// again; the rows and errors are those of a freshly opened reader.
    pub fn read_samples_in(&mut self, lo: u64, hi: u64) -> Result<Vec<PebsRecord>, StoreError> {
        let mut out = Vec::new();
        let decoder = &mut self.decoder;
        let read = self.segments.iter().try_for_each(|meta| {
            meta.footer
                .chunks
                .iter()
                .filter(|c| c.stream == STREAM_SAMPLES && c.rows > 0)
                .filter(|c| c.tsc_max >= lo && c.tsc_min <= hi)
                .try_for_each(|c| decoder.window(meta.start, c, (lo, hi), &mut out))
        });
        decoder.end_window(read.is_ok());
        read.map(|()| out)
    }
}

/// The one chunk decoder: the source, the slot it decodes each chunk
/// into, a dictionary column's entries, and the window reads' carry.
/// Every buffer is kept across chunks and calls, so once they fit the
/// largest chunk a read allocates only what it returns.
struct ChunkDecoder<R> {
    src: R,
    /// The chunk being read.
    slot: Slot,
    dict: Vec<u64>,
    /// The chunks the last window read cut, decoded and checked.
    carry: Vec<Slot>,
    /// The chunks the running window read has cut and keeps, and the
    /// bytes they hold ([`Slot::held`]).
    cut: Vec<Slot>,
    cut_bytes: usize,
    /// Slots whose buffers wait to be reused.
    spare: Vec<Slot>,
}

/// One chunk's bytes and decoded columns: samples use all five, marks
/// the first four.
#[derive(Default)]
struct Slot {
    /// The chunk a carried slot holds: its absolute offset and footer
    /// entry. A corrupt footer can name one extent twice with different
    /// row counts, so the whole entry is the key.
    key: Option<(u64, ChunkDesc)>,
    bytes: Vec<u8>,
    columns: [Vec<u64>; 5],
    /// Per column, the value of the one RLE run it is, if it is one:
    /// such a column is not filled out to a value per row.
    runs: [Option<u64>; 5],
    /// Where a sample chunk's ledger starts in `bytes`.
    ledger: usize,
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

/// The event of a checked event index.
fn hw_event(index: u64) -> HwEvent {
    HwEvent::ALL
        .get(index as usize)
        .copied()
        .unwrap_or(HwEvent::UopsRetired)
}

/// How a sample chunk's rows are built from its checked columns.
#[derive(Clone, Copy)]
struct Rows<'a> {
    columns: [Column<'a>; 5],
    /// When `tsc` and `ip` hold a value per row and `core`, `r13` and
    /// `event` are one run each: the two slices and a row carrying the
    /// three runs.
    runs: Option<(&'a [u64], &'a [u64], PebsRecord)>,
}

impl<'a> Rows<'a> {
    fn new(columns: [Column<'a>; 5]) -> Self {
        use Column::{Run, Values};
        let runs = match columns {
            [Values(tsc), Values(ip), Run(core), Run(r13), Run(event)] => Some((
                tsc,
                ip,
                PebsRecord {
                    core: CoreId(core as u32),
                    tsc: 0,
                    ip: VirtAddr(0),
                    r13,
                    event: hw_event(event),
                },
            )),
            _ => None,
        };
        Rows { columns, runs }
    }

    /// Row `i`, a field at a time.
    fn row(self, i: usize) -> PebsRecord {
        let [tsc, ip, core, r13, event] = self.columns;
        PebsRecord {
            core: CoreId(core.at(i) as u32),
            tsc: tsc.at(i),
            ip: VirtAddr(ip.at(i)),
            r13: r13.at(i),
            event: hw_event(event.at(i)),
        }
    }

    /// Append rows `range` to `out`.
    fn extend(self, out: &mut Vec<PebsRecord>, range: Range<usize>) {
        match self.runs {
            Some((tsc, ip, run)) => {
                // An empty range may start past its end: no rows.
                if let (Some(tsc), Some(ip)) = (tsc.get(range.clone()), ip.get(range)) {
                    out.extend(tsc.iter().zip(ip).map(|(&tsc, &ip)| PebsRecord {
                        tsc,
                        ip: VirtAddr(ip),
                        ..run
                    }));
                }
            }
            None => out.extend(range.map(|i| self.row(i))),
        }
    }
}

/// Absolute offset of chunk `c` of the segment at `seg_start`.
fn chunk_at(seg_start: u64, c: &ChunkDesc) -> Result<u64, StoreError> {
    seg_start
        .checked_add(c.offset)
        .ok_or(StoreError::Corrupt("chunk offset overflows"))
}

impl<R: Read + Seek> ChunkDecoder<R> {
    fn new(src: R) -> Self {
        ChunkDecoder {
            src,
            slot: Slot::default(),
            dict: Vec::new(),
            carry: Vec::new(),
            cut: Vec::new(),
            cut_bytes: 0,
            spare: Vec::new(),
        }
    }

    /// Seek + exact read of `len` bytes at absolute `offset` into the
    /// slot's bytes.
    fn read_at(&mut self, offset: u64, len: usize) -> Result<&[u8], StoreError> {
        self.src.seek(SeekFrom::Start(offset))?;
        let bytes = &mut self.slot.bytes;
        // Every byte is overwritten by `read_exact` or the read fails.
        bytes.resize(len, 0);
        self.src
            .read_exact(bytes)
            .map_err(|_| StoreError::Truncated("chunk or footer bytes"))?;
        Ok(bytes)
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

    /// Fetch chunk `c` at absolute offset `at` into the slot and decode
    /// its first `columns` columns, `rows` rows each; a column that is
    /// one RLE run keeps only its value. Returns the position after the
    /// last column.
    fn load(
        &mut self,
        at: u64,
        c: &ChunkDesc,
        columns: usize,
        rows: u64,
    ) -> Result<usize, StoreError> {
        self.read_at(at, c.byte_len as usize)?;
        if obs::recording() {
            obs::counter!("store.reader.bytes").add(c.byte_len);
        }
        let slot = &mut self.slot;
        let mut pos = 0usize;
        for (column, run) in slot.columns.iter_mut().zip(&mut slot.runs).take(columns) {
            *run = decode_single_run(&slot.bytes, &mut pos, rows as usize);
            if run.is_none() {
                decode_column_into(&slot.bytes, &mut pos, rows as usize, column, &mut self.dict)?;
            }
        }
        Ok(pos)
    }

    /// Load sample chunk `c` at absolute offset `at` into the slot and
    /// check its rows; its ledger is checked as its rows are built.
    fn load_samples(&mut self, at: u64, c: &ChunkDesc) -> Result<(), StoreError> {
        self.slot.ledger = self.load(at, c, 5, c.retained)?;
        let [_, _, core, _, event] = self.slot.columns();
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
        )
    }

    /// Decode sample chunk `c` and append the rows `keep` keeps to `out`
    /// ([`Slot::samples`]).
    fn samples(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<PebsRecord>,
        keep: Keep,
        elided: Elided<'_>,
    ) -> Result<(), StoreError> {
        self.load_samples(chunk_at(seg_start, c)?, c)?;
        self.slot.samples(c, out, keep, elided)
    }

    /// Append the rows of sample chunk `c` in `[lo, hi]` to `out`, ledger
    /// replayed. The chunk comes from the carry when the last window
    /// read cut it, and is fetched and decoded otherwise. When this read
    /// cuts it, it is kept for the next one while everything kept so far
    /// holds no more bytes than this read has returned.
    fn window(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        (lo, hi): (u64, u64),
        out: &mut Vec<PebsRecord>,
    ) -> Result<(), StoreError> {
        let at = chunk_at(seg_start, c)?;
        let key = Some((at, *c));
        match self.carry.iter().position(|s| s.key == key) {
            Some(i) => {
                let carried = self.carry.swap_remove(i);
                self.spare.push(std::mem::replace(&mut self.slot, carried));
            }
            None => self.load_samples(at, c)?,
        }
        let before = out.len();
        self.slot
            .samples(c, out, Keep::Window(lo, hi), Elided::Replay)?;
        let cut = ((out.len() - before) as u64) < c.rows;
        let held = self.cut_bytes + self.slot.held();
        if cut && held <= out.len() * std::mem::size_of::<PebsRecord>() {
            self.cut_bytes = held;
            self.slot.key = key;
            let spare = self.spare.pop().unwrap_or_default();
            self.cut.push(std::mem::replace(&mut self.slot, spare));
        }
        Ok(())
    }

    /// End a window read: what it cut and kept is the next read's carry,
    /// unless it failed, and the last carry's slots are free again.
    fn end_window(&mut self, ok: bool) {
        self.spare.append(&mut self.carry);
        if ok {
            std::mem::swap(&mut self.carry, &mut self.cut);
        } else {
            self.spare.append(&mut self.cut);
        }
        self.cut_bytes = 0;
    }

    /// Decode mark chunk `c` and append its rows to `out`.
    fn marks(
        &mut self,
        seg_start: u64,
        c: &ChunkDesc,
        out: &mut Vec<MarkRecord>,
    ) -> Result<(), StoreError> {
        let pos = self.load(chunk_at(seg_start, c)?, c, 4, c.rows)?;
        if pos != self.slot.bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after mark chunk"));
        }
        let rows = c.rows as usize;
        let [tsc, core, item, kind, _] = self.slot.columns();
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

impl Slot {
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

    /// Bytes the loaded sample chunk holds: its encoded bytes and every
    /// column not kept as one run.
    fn held(&self) -> usize {
        let values = self.columns.iter().zip(&self.runs);
        self.bytes.len()
            + values
                .filter(|(_, run)| run.is_none())
                .map(|(column, _)| column.len() * std::mem::size_of::<u64>())
                .sum::<usize>()
    }

    /// Check the ledger of the loaded sample chunk `c` and that nothing
    /// trails it, then append the rows `keep` keeps to `out`: its
    /// retained rows and, when `elided` says replay, each elided row
    /// right after its retained anchor (TSCs chained through the
    /// wrapping deltas). The retained rows between two anchors are one
    /// range, appended by one `extend`; under a window, a sorted TSC
    /// column narrows the ranges by binary search, and an unsorted one
    /// that the window cuts is tested row by row. Only the rows appended
    /// are built, and `out` grows once, by their exact count.
    fn samples(
        &self,
        c: &ChunkDesc,
        out: &mut Vec<PebsRecord>,
        keep: Keep,
        mut elided: Elided<'_>,
    ) -> Result<(), StoreError> {
        let rows = c.retained as usize;
        let [tsc, ip, core, r13, event] = self.columns();
        let (end, elided_kept) = Ledger::new(&self.bytes, self.ledger, c)?.check(tsc, keep)?;
        if end != self.bytes.len() {
            return Err(StoreError::Corrupt("trailing bytes after sample chunk"));
        }
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
        let build = Rows::new([tsc, ip, core, r13, event]);
        let before = out.len();
        let mut ledger = Ledger::new(&self.bytes, self.ledger, c)?;
        let mut replayed = c.retained;
        let mut from = 0usize;
        loop {
            let group = ledger.next_group()?;
            let to = group.map_or(rows, |(anchor, _)| anchor as usize + 1);
            let range = from.max(first)..to.min(last);
            if test {
                out.extend(range.filter(|&i| keep.tsc(tsc.at(i))).map(|i| build.row(i)));
            } else {
                build.extend(out, range);
            }
            let Some((anchor, count)) = group else {
                break;
            };
            match &mut elided {
                Elided::Replay => {
                    let mut elided_row = build.row(anchor as usize);
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
        let mut reader = TraceReader::open(Cursor::new(bytes.clone())).unwrap();
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

        // The next window read takes the chunks the first one cut from
        // the carry, which `read_bundle` left as it was: it fetches only
        // the chunks that the first window did not overlap.
        let mut fresh = TraceReader::open(Cursor::new(bytes)).unwrap();
        let expect = fresh.read_samples_in(3_501, 4_200).unwrap();
        let before = counts();
        let next = reader.read_samples_in(3_501, 4_200).unwrap();
        assert_eq!(next, expect);
        let carried = reader
            .segment_meta()
            .iter()
            .flat_map(|s| &s.footer.chunks)
            .filter(|c| c.stream == STREAM_SAMPLES && c.tsc_min <= 3_500 && c.tsc_max >= 3_501)
            .map(|c| c.byte_len)
            .sum::<u64>();
        assert!(carried > 0, "a chunk holds rows of both windows");
        let next_bytes = chunk_bytes(&reader, 3_501, 4_200, false) - carried;
        assert_eq!(grown(before), [0, next.len() as u64, 0, next_bytes]);
    }
}
