//! Columnar on-disk trace store with ledgered redundancy suppression.
//!
//! The paper's §IV names trace data volume as the limiting factor for
//! always-on fluctuation diagnosis. This crate makes volume a
//! first-class axis: [`TraceWriter`] streams [`fluctrace_cpu::TraceBundle`]
//! rows into per-column chunks (TSC / instruction pointer / core /
//! item-register / event for samples; TSC / core / item / kind for
//! marks), each column under the smallest of four integer codecs
//! (raw varint, wrapping delta, sorted dictionary, run-length — see
//! [`codec`]; the writer prices all four from one pass of column
//! statistics and encodes only the winner), with a back-parseable footer carrying chunk offsets, row
//! counts, and TSC min/max so [`TraceReader`] opens and prunes without
//! deserializing chunk data (see [`format`](mod@format)).
//!
//! Redundancy suppression (à la Arafa et al., "Redundancy Suppression
//! In Time-Aware Dynamic Binary Instrumentation") optionally elides a
//! sample whose `(core, ip, r13, event)` equal the immediately
//! preceding sample's and whose TSC advanced by at most a declared
//! tolerance. Every elision is recorded in a per-chunk **exactness
//! ledger**; the reader either replays the ledger into bit-exact
//! logical rows ([`TraceReader::read_bundle`]) or keeps the physical
//! rows and reports precisely what was dropped
//! ([`TraceReader::read_retained`]). The differential conformance
//! sweep (`crates/conformance`) proves the round-trip byte-identical
//! over every seeded workload, suppressed and not; STORE.md documents
//! the layout and the exactness contract.
//!
//! Errors never panic and never silently short-read: every malformed
//! input is a [`StoreError`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod encode;
mod error;
pub mod format;
mod reader;
mod writer;

pub use error::StoreError;
pub use format::{ChunkDesc, Footer, MAX_CHUNK_ROWS, VERSION};
pub use reader::{ElisionReport, SegmentMeta, TraceReader};
pub use writer::{
    split_suppressed, write_bundle_to_vec, write_bundles, LedgerGroup, SharedBuf, StoreConfig,
    TraceWriter, WriteStats, CHUNK_ENV, DEFAULT_CHUNK_ROWS,
};
