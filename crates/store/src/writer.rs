//! Streaming store writer: rows go straight into the columnar chunk
//! under construction (`encode.rs`), a full chunk — every
//! [`StoreConfig::chunk_rows`] logical rows — is encoded once into a
//! reused byte buffer and written with one `write_all`, and
//! [`TraceWriter::finish`] closes the segment with footer + tail.
//! Redundancy suppression (when enabled) elides a sample whose `(core,
//! ip, r13, event)` equal the immediately preceding stream sample and
//! whose TSC advanced by at most the declared tolerance — every elision
//! lands in the chunk's ledger, so the reader replays bit-exact rows.

use std::borrow::Borrow;
use std::io::Write;
use std::sync::{Arc, Mutex};

use fluctrace_cpu::{MarkRecord, PebsRecord, TraceBundle};
use fluctrace_obs as obs;

use crate::encode::{ColumnEncoder, MarkChunk, SampleChunk};
use crate::error::StoreError;
use crate::format::{
    ChunkDesc, Footer, MAGIC, MAX_CHUNK_ROWS, STREAM_MARKS, STREAM_SAMPLES, TAIL_BYTES, TAIL_MAGIC,
    VERSION,
};

/// Default logical rows per chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 16_384;

/// Environment knob overriding [`StoreConfig::chunk_rows`]. Changing it
/// re-chunks the file but never changes the decoded rows (pinned by the
/// metamorphic suite).
pub const CHUNK_ENV: &str = "FLUCTRACE_STORE_CHUNK";

/// Writer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Enable redundancy suppression.
    pub suppress: bool,
    /// Max TSC advance an elided sample may sit from its predecessor.
    pub tolerance: u64,
    /// Logical rows per chunk (clamped to `1..=MAX_CHUNK_ROWS`).
    pub chunk_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            suppress: false,
            tolerance: 0,
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }
}

impl StoreConfig {
    /// Suppressing configuration with the given TSC tolerance.
    pub fn suppressed(tolerance: u64) -> Self {
        StoreConfig {
            suppress: true,
            tolerance,
            ..StoreConfig::default()
        }
    }

    /// Default configuration with [`CHUNK_ENV`] applied.
    pub fn from_env() -> Self {
        let mut cfg = StoreConfig::default();
        if let Some(rows) = std::env::var(CHUNK_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.chunk_rows = rows;
        }
        cfg
    }

    fn effective_chunk_rows(&self) -> usize {
        self.chunk_rows.clamp(1, MAX_CHUNK_ROWS as usize)
    }
}

/// Running totals of a [`TraceWriter`]; after [`TraceWriter::finish`],
/// what the whole segment wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Logical sample rows appended.
    pub samples: u64,
    /// Mark rows appended.
    pub marks: u64,
    /// Sample rows elided by suppression (still represented in ledgers).
    pub elided: u64,
    /// Column chunks written (both streams).
    pub chunks: u64,
    /// Bytes handed to the sink so far: the head magic and every chunk
    /// written, plus footer and tail once the segment is finished.
    pub bytes: u64,
}

impl std::ops::AddAssign for WriteStats {
    /// Field-wise sum (the segments of one file into one total).
    fn add_assign(&mut self, other: WriteStats) {
        self.samples += other.samples;
        self.marks += other.marks;
        self.elided += other.elided;
        self.chunks += other.chunks;
        self.bytes += other.bytes;
    }
}

/// Streaming columnar writer over any [`Write`] sink.
///
/// [`TraceWriter::finish`] closes the segment and hands the sink back;
/// constructing a new writer over the returned sink appends another
/// segment — the concatenation is itself a valid store.
///
/// After an `Err` from any method the sink may hold part of a chunk:
/// drop the writer. [`TraceWriter::stats`] still says what reached the
/// sink before the failure.
pub struct TraceWriter<W: Write> {
    out: W,
    config: StoreConfig,
    samples: SampleChunk,
    marks: MarkChunk,
    encoder: ColumnEncoder,
    /// The encoded chunk on its way to the sink; reused.
    chunk_bytes: Vec<u8>,
    chunks: Vec<ChunkDesc>,
    stats: WriteStats,
}

impl<W: Write> TraceWriter<W> {
    /// Open a segment on `out` (writes the head magic immediately).
    pub fn new(mut out: W, config: StoreConfig) -> Result<Self, StoreError> {
        out.write_all(MAGIC)?;
        Ok(TraceWriter {
            out,
            config,
            samples: SampleChunk::default(),
            marks: MarkChunk::default(),
            encoder: ColumnEncoder::default(),
            chunk_bytes: Vec::new(),
            chunks: Vec::new(),
            stats: WriteStats {
                bytes: MAGIC.len() as u64,
                ..WriteStats::default()
            },
        })
    }

    /// Running totals: rows appended so far (buffered ones included)
    /// and the chunks and bytes already handed to the sink.
    pub fn stats(&self) -> WriteStats {
        self.stats
    }

    /// Append one PEBS sample.
    pub fn push_sample(&mut self, r: PebsRecord) -> Result<(), StoreError> {
        self.extend_samples(std::slice::from_ref(&r))
    }

    /// Append one mark.
    pub fn push_mark(&mut self, r: MarkRecord) -> Result<(), StoreError> {
        self.extend_marks(std::slice::from_ref(&r))
    }

    /// Append a whole bundle (samples, then marks, stream order kept).
    pub fn append(&mut self, bundle: &TraceBundle) -> Result<(), StoreError> {
        self.extend_samples(&bundle.samples)?;
        self.extend_marks(&bundle.marks)
    }

    /// Fill the sample chunk slice-wise, flushing at each chunk boundary.
    fn extend_samples(&mut self, mut rows: &[PebsRecord]) -> Result<(), StoreError> {
        let chunk_rows = self.config.effective_chunk_rows();
        while !rows.is_empty() {
            let room = chunk_rows.saturating_sub(self.samples.rows());
            let (head, rest) = rows.split_at(room.min(rows.len()));
            if self.config.suppress {
                self.stats.elided += self.samples.extend_suppressed(head, self.config.tolerance);
            } else {
                self.samples.extend(head);
            }
            self.stats.samples += head.len() as u64;
            if self.samples.rows() >= chunk_rows {
                self.flush_samples()?;
            }
            rows = rest;
        }
        Ok(())
    }

    /// Fill the mark chunk slice-wise, flushing at each chunk boundary.
    fn extend_marks(&mut self, mut rows: &[MarkRecord]) -> Result<(), StoreError> {
        let chunk_rows = self.config.effective_chunk_rows();
        while !rows.is_empty() {
            let room = chunk_rows.saturating_sub(self.marks.rows());
            let (head, rest) = rows.split_at(room.min(rows.len()));
            self.marks.extend(head);
            self.stats.marks += head.len() as u64;
            if self.marks.rows() >= chunk_rows {
                self.flush_marks()?;
            }
            rows = rest;
        }
        Ok(())
    }

    /// Hand `self.chunk_bytes` to the sink and enter it in the footer's
    /// chunk directory.
    fn write_chunk(
        &mut self,
        stream: u64,
        (rows, retained): (usize, usize),
        (tsc_min, tsc_max): (u64, u64),
    ) -> Result<(), StoreError> {
        self.out.write_all(&self.chunk_bytes)?;
        let byte_len = self.chunk_bytes.len() as u64;
        self.chunks.push(ChunkDesc {
            stream,
            offset: self.stats.bytes,
            byte_len,
            rows: rows as u64,
            retained: retained as u64,
            tsc_min,
            tsc_max,
        });
        self.stats.bytes += byte_len;
        self.stats.chunks += 1;
        Ok(())
    }

    fn flush_samples(&mut self) -> Result<(), StoreError> {
        if self.samples.rows() == 0 {
            return Ok(());
        }
        self.chunk_bytes.clear();
        self.samples
            .encode_into(&mut self.encoder, &mut self.chunk_bytes);
        let rows = (self.samples.rows(), self.samples.retained());
        let bounds = self.samples.tsc_bounds();
        self.samples.clear();
        self.write_chunk(STREAM_SAMPLES, rows, bounds)
    }

    fn flush_marks(&mut self) -> Result<(), StoreError> {
        if self.marks.rows() == 0 {
            return Ok(());
        }
        self.chunk_bytes.clear();
        self.marks
            .encode_into(&mut self.encoder, &mut self.chunk_bytes);
        let rows = (self.marks.rows(), self.marks.rows());
        let bounds = self.marks.tsc_bounds();
        self.marks.clear();
        self.write_chunk(STREAM_MARKS, rows, bounds)
    }

    /// Close the segment: flush buffered rows, write footer + tail, and
    /// return the sink together with this segment's totals.
    pub fn finish(mut self) -> Result<(W, WriteStats), StoreError> {
        self.flush_samples()?;
        self.flush_marks()?;
        let footer = Footer {
            version: VERSION,
            suppress: u64::from(self.config.suppress),
            tolerance: self.config.tolerance,
            chunk_rows: self.config.effective_chunk_rows() as u64,
            body_len: self.stats.bytes,
            chunks: std::mem::take(&mut self.chunks),
        };
        let footer_bytes = footer.encode();
        self.out.write_all(&footer_bytes)?;
        self.out
            .write_all(&(footer_bytes.len() as u64).to_le_bytes())?;
        self.out.write_all(TAIL_MAGIC)?;
        self.out.flush()?;
        self.stats.bytes += footer_bytes.len() as u64 + TAIL_BYTES;
        if obs::recording() {
            let columns = self.encoder.tally();
            obs::counter!("store.writer.segments").inc();
            obs::counter!("store.writer.samples").add(self.stats.samples);
            obs::counter!("store.writer.marks").add(self.stats.marks);
            obs::counter!("store.writer.elided").add(self.stats.elided);
            obs::counter!("store.writer.chunks").add(self.stats.chunks);
            obs::counter!("store.writer.bytes").add(self.stats.bytes);
            obs::counter!("store.writer.columns_raw").add(columns.raw);
            obs::counter!("store.writer.columns_delta").add(columns.delta);
            obs::counter!("store.writer.columns_dict").add(columns.dict);
            obs::counter!("store.writer.columns_rle").add(columns.rle);
            obs::counter!("store.writer.dict_priced").add(columns.dict_priced);
        }
        Ok((self.out, self.stats))
    }
}

/// One suppression ledger entry: the samples elided immediately after
/// retained row `index`, as successive wrapping TSC deltas (each within
/// the declared tolerance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerGroup {
    /// Retained-row index (within the chunk) the elided rows follow.
    pub index: u64,
    /// Successive `tsc.wrapping_sub(predecessor.tsc)` values, one per
    /// elided row, in stream order.
    pub deltas: Vec<u64>,
}

/// Split a chunk's logical rows into retained rows and the elision
/// ledger. `tolerance == None` disables suppression (everything is
/// retained). The predecessor is always the immediately preceding
/// *stream* row — elided or not — so chained elisions replay exactly.
///
/// This is the suppression rule stated on a whole chunk. The writer
/// applies the same rule a row at a time as rows arrive and is tested
/// to agree with this function row for row.
pub fn split_suppressed(
    rows: &[PebsRecord],
    tolerance: Option<u64>,
) -> (Vec<PebsRecord>, Vec<LedgerGroup>) {
    let Some(tolerance) = tolerance else {
        return (rows.to_vec(), Vec::new());
    };
    let mut retained: Vec<PebsRecord> = Vec::with_capacity(rows.len());
    let mut ledger: Vec<LedgerGroup> = Vec::new();
    let mut prev: Option<PebsRecord> = None;
    for &r in rows {
        let elide = prev.is_some_and(|p| {
            p.core == r.core
                && p.ip == r.ip
                && p.r13 == r.r13
                && p.event == r.event
                && r.tsc.wrapping_sub(p.tsc) <= tolerance
        });
        if elide {
            // Non-empty: an elision always follows a retained row (the
            // first row of a chunk has no predecessor).
            let index = retained.len().saturating_sub(1) as u64;
            let delta = prev.map_or(0, |p| r.tsc.wrapping_sub(p.tsc));
            match ledger.last_mut() {
                Some(g) if g.index == index => g.deltas.push(delta),
                _ => ledger.push(LedgerGroup {
                    index,
                    deltas: vec![delta],
                }),
            }
        } else {
            retained.push(r);
        }
        prev = Some(r);
    }
    (retained, ledger)
}

/// Write each bundle as its own segment into `sink`, returning the sink
/// and the summed stats.
pub fn write_bundles<W: Write, B: Borrow<TraceBundle>>(
    mut sink: W,
    bundles: &[B],
    config: StoreConfig,
) -> Result<(W, WriteStats), StoreError> {
    let mut total = WriteStats::default();
    for b in bundles {
        let mut w = TraceWriter::new(sink, config)?;
        w.append(b.borrow())?;
        let (back, stats) = w.finish()?;
        sink = back;
        total += stats;
    }
    Ok((sink, total))
}

/// Write one bundle as a single-segment store into a byte vector.
pub fn write_bundle_to_vec(
    bundle: &TraceBundle,
    config: StoreConfig,
) -> Result<(Vec<u8>, WriteStats), StoreError> {
    write_bundles(Vec::new(), std::slice::from_ref(bundle), config)
}

/// A cloneable in-memory [`Write`] sink: lets callers hand a writer to
/// another owner (the online tracer's spill seam) and still read the
/// bytes back afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf {
    inner: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuf {
    /// New empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// Snapshot of the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        // Poison-tolerant: a panicking writer thread must not take the
        // reader down with it; the bytes are still well-defined.
        match self.inner.lock() {
            Ok(g) => g.clone(),
            Err(e) => e.into_inner().clone(),
        }
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.inner.lock() {
            Ok(mut g) => g.extend_from_slice(buf),
            Err(e) => e.into_inner().extend_from_slice(buf),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
