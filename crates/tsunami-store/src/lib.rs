//! In-memory column store substrate.
//!
//! The paper evaluates every index "on data stored in a custom column store
//! with one scan-time optimization: if the range of data being scanned is
//! exact, i.e. we are guaranteed ahead of time that all elements within the
//! range match the query filter, we skip checking each value against the
//! query filter" (§6.1). This crate provides that substrate:
//!
//! * [`Column`] — a single `u64` attribute vector with min/max metadata,
//!   stored as per-block lightweight encodings (frame-of-reference
//!   bit-packing, dictionary codes) followed by an unencoded tail: the rows
//!   appended since the last encode and the trailing partial block.
//! * [`ColumnStore`] — the clustered physical table: all indexes produce a
//!   row permutation at build time and the store is reordered once, so query
//!   execution scans contiguous ranges. Once it has placed its rows (build,
//!   graft, compaction, an append that is final) the owning index calls
//!   [`ColumnStore::encode_blocks`], which packs every full block of the
//!   tail. There is no plain-store mode.
//! * [`Wal`] — the write-ahead log the engine's durability layer appends
//!   mutation records to, with strict checksummed replay (see [`wal`]).
//! * [`codec`] — the one encoder and decoder of every composite value
//!   (strings, predicates, queries, rows, ...) the WAL, the checkpoint, the
//!   engine's index spec and the wire protocol write.
//!
//! Scanning itself — the vectorized kernels, the exact-range fast path, and
//! the per-query [`tsunami_core::ScanCounters`] — lives in [`tsunami_core::exec`]; the
//! store only implements [`tsunami_core::ScanSource`], so
//! `exec::execute_plan(&store, query, plan)` is how it is scanned.

pub mod codec;
pub mod column;
pub mod table;
pub mod wal;

pub use column::Column;
pub use table::ColumnStore;
pub use wal::{CrashPoint, Wal, WalRecord};
