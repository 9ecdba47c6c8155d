//! The engine's durability layer: a write-ahead log plus atomic checkpoints.
//!
//! A database opened with [`crate::Database::open`] keeps two files inside
//! its data directory:
//!
//! * `wal.log` — a [`Wal`] of logical mutation records ([`WalRecord`]):
//!   every `create_table`, `insert_batch`, and `delete` is appended and
//!   fsync'd *before* it is applied in memory, so a committed mutation
//!   survives any crash.
//! * `checkpoint.db` — a full snapshot in the same frame format: one
//!   `CreateTable` record per table (current data, spec, and reference
//!   workload) followed by a `Checkpoint` marker carrying the checkpoint
//!   generation. [`crate::Database::checkpoint`] writes it to a temporary
//!   file, fsyncs, atomically renames it into place, then truncates the WAL.
//!
//! # Recovery
//!
//! `Durability::open` replays the checkpoint first, then the WAL's valid
//! prefix (torn or corrupt tails are amputated by the strict
//! [`wal::replay`] decoder). The generation marker resolves the one
//! ambiguous crash window: after a fresh checkpoint is renamed into place
//! but before the old WAL is truncated, the WAL's records are *already
//! inside* the checkpoint. A WAL belongs to the current checkpoint only if
//! its first record is the matching-generation `Checkpoint` marker;
//! otherwise the WAL is stale and is discarded rather than double-applied.
//!
//! Index *layout* is not logged: replaying a `CreateTable` record rebuilds
//! the index from its encoded [`IndexSpec`], so post-recovery layouts are
//! re-derived (bit-identical query results, not bit-identical grids).
//! The layout-only operation (`reindex`) is therefore absorbed by the next
//! checkpoint instead of the WAL.
//!
//! Both files carry [`wal::WAL_VERSION`] in every record, and the spec
//! encoding below is part of that format: files written by a build with
//! another version are refused on open, never truncated or mis-decoded.

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use tsunami_core::codec::{put_u64, Reader};
use tsunami_core::{Result, TsunamiError};
use tsunami_index::FloodConfig;
use tsunami_index::{OptimizerKind, TsunamiConfig};
use tsunami_store::codec::{self, need, CodecError};
use tsunami_store::wal::{self, CrashPoint, Wal, WalRecord};

use crate::spec::{IndexSpec, PageSize};

const WAL_FILE: &str = "wal.log";
const CHECKPOINT_FILE: &str = "checkpoint.db";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

fn io_err(ctx: &str, e: std::io::Error) -> TsunamiError {
    TsunamiError::Durability(format!("{ctx}: {e}"))
}

fn crash_err(point: &str) -> TsunamiError {
    TsunamiError::Durability(format!("injected crash: {point}"))
}

/// The durable state behind a [`crate::Database`] opened from a directory.
#[derive(Debug)]
pub(crate) struct Durability {
    dir: PathBuf,
    wal: Wal,
    /// Generation of the checkpoint currently on disk (0 = none yet).
    generation: u64,
    crash: CrashPoint,
}

impl Durability {
    /// Opens (or initializes) the durable state under `dir` and returns the
    /// mutation records to replay, in order: the checkpoint's snapshot
    /// records followed by the WAL records the checkpoint has not absorbed.
    /// The WAL is truncated to its valid prefix and left open for append.
    pub(crate) fn open(dir: &Path) -> Result<(Self, Vec<WalRecord>)> {
        fs::create_dir_all(dir).map_err(|e| io_err("create data directory", e))?;
        let ckpt_path = dir.join(CHECKPOINT_FILE);
        let wal_path = dir.join(WAL_FILE);
        // A partial checkpoint.tmp from a crashed checkpoint is garbage.
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));

        let (ckpt_records, _) = wal::replay(&ckpt_path)?;
        let generation = ckpt_records
            .iter()
            .rev()
            .find_map(|r| match r {
                WalRecord::Checkpoint { generation, .. } => Some(*generation),
                _ => None,
            })
            .unwrap_or(0);
        let has_checkpoint = !ckpt_records.is_empty();

        let (wal_records, valid_len) = wal::replay(&wal_path)?;
        let wal_is_current = match wal_records.first() {
            Some(WalRecord::Checkpoint { generation: g, .. }) => *g == generation,
            // Only a WAL from before the first checkpoint starts unmarked.
            Some(_) | None => !has_checkpoint,
        };

        let mut replayable = ckpt_records;
        let wal = if wal_is_current {
            replayable.extend(wal_records);
            Wal::open_append(&wal_path, valid_len)?
        } else {
            // The checkpoint already absorbed this WAL (crash between the
            // checkpoint rename and the WAL truncate): start it over with a
            // fresh marker instead of double-applying.
            let mut wal = Wal::create(&wal_path)?;
            wal.append_commit(&WalRecord::Checkpoint {
                generation,
                tables: marker_tables(&replayable),
            })?;
            wal
        };

        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                generation,
                crash: CrashPoint::None,
            },
            replayable,
        ))
    }

    /// Appends and fsyncs one mutation record (log-before-apply).
    pub(crate) fn log(&mut self, record: &WalRecord) -> Result<()> {
        self.wal.append_commit(record)
    }

    /// Writes a checkpoint: `snapshot` (one `CreateTable` per table) plus a
    /// generation marker go to a temporary file, which is fsync'd and
    /// atomically renamed over `checkpoint.db`; then the WAL is reset to
    /// just the new generation's marker.
    pub(crate) fn checkpoint(&mut self, snapshot: &[WalRecord], tables: Vec<String>) -> Result<()> {
        let generation = self.generation + 1;
        let marker = WalRecord::Checkpoint { generation, tables };
        let mut buf = Vec::new();
        for record in snapshot.iter().chain([&marker]) {
            buf.extend_from_slice(&wal::encode_record(record)?);
        }

        let tmp = self.dir.join(CHECKPOINT_TMP);
        let mut file = File::create(&tmp).map_err(|e| io_err("create checkpoint.tmp", e))?;
        if self.crash == CrashPoint::MidCheckpoint {
            let half = buf.len() / 2;
            file.write_all(&buf[..half])
                .map_err(|e| io_err("write checkpoint.tmp", e))?;
            let _ = file.sync_all();
            return Err(crash_err("mid-checkpoint"));
        }
        file.write_all(&buf)
            .map_err(|e| io_err("write checkpoint.tmp", e))?;
        file.sync_all()
            .map_err(|e| io_err("fsync checkpoint.tmp", e))?;
        drop(file);

        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))
            .map_err(|e| io_err("rename checkpoint into place", e))?;
        // Make the rename itself durable before touching the WAL.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        if self.crash == CrashPoint::AfterCheckpointRename {
            return Err(crash_err("after-checkpoint-rename"));
        }

        self.wal = Wal::create(&self.dir.join(WAL_FILE))?;
        self.wal.append_commit(&WalRecord::Checkpoint {
            generation,
            tables: Vec::new(),
        })?;
        self.generation = generation;
        Ok(())
    }

    /// Forwards the fault-injection point to both the engine-level
    /// checkpoint steps and the underlying [`Wal`].
    pub(crate) fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
        self.wal.set_crash_point(crash);
    }
}

fn marker_tables(snapshot: &[WalRecord]) -> Vec<String> {
    snapshot
        .iter()
        .filter_map(|r| match r {
            WalRecord::CreateTable { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

// --- IndexSpec codec ------------------------------------------------------
//
// The `spec` bytes inside a `CreateTable` record are opaque to the store
// crate; this is their format: a leading tag byte per enum, build settings as
// `u64`s, the ingest bars as `f64`s and a candidate list through the shared
// `tsunami_store::codec`. Only what a caller can set is persisted — the
// paper's fixed heuristics are constants of the build, not of the spec.

const SPEC_TSUNAMI: u8 = 0x01;
const SPEC_FLOOD: u8 = 0x02;
const SPEC_FULL_SCAN: u8 = 0x03;
const SPEC_SINGLE_DIM: u8 = 0x04;
const SPEC_Z_ORDER: u8 = 0x05;
const SPEC_OCTREE: u8 = 0x06;
const SPEC_KD_TREE: u8 = 0x07;

const PAGE_FIXED: u8 = 0x01;
const PAGE_TUNED: u8 = 0x02;
const PAGE_TUNED_OVER: u8 = 0x03;

/// Encodes an [`IndexSpec`] — every field of every variant — for storage
/// inside a [`WalRecord::CreateTable`].
pub fn encode_spec(spec: &IndexSpec) -> Vec<u8> {
    let mut out = Vec::new();
    // The only length in a spec is a page-size candidate list, and no caller
    // can hold `u32::MAX` of them.
    put_spec(&mut out, spec).expect("page-size candidate count fits a u32");
    out
}

fn put_spec(out: &mut Vec<u8>, spec: &IndexSpec) -> std::result::Result<(), CodecError> {
    match spec {
        IndexSpec::Tsunami(c) => {
            out.push(SPEC_TSUNAMI);
            out.push(match c.optimizer {
                OptimizerKind::Adaptive => 0,
                OptimizerKind::GradientOnly => 1,
                OptimizerKind::AdaptiveNaiveInit => 2,
                OptimizerKind::BlackBox => 3,
                OptimizerKind::Independent => 4,
            });
            for n in [
                c.skew_bins,
                c.max_tree_depth,
                c.max_cells_per_grid,
                c.optimizer_sample_size,
                c.optimizer_max_iters,
                c.blackbox_iters,
            ] {
                put_u64(out, n as u64);
            }
            codec::put_f64(out, c.ingest_region_staleness);
            codec::put_f64(out, c.ingest_rebuild_staleness);
        }
        IndexSpec::Flood(c) => {
            out.push(SPEC_FLOOD);
            for n in [c.max_cells, c.sample_size, c.max_iters] {
                put_u64(out, n as u64);
            }
        }
        IndexSpec::FullScan => out.push(SPEC_FULL_SCAN),
        IndexSpec::SingleDim => out.push(SPEC_SINGLE_DIM),
        IndexSpec::ZOrder(ps) => {
            out.push(SPEC_Z_ORDER);
            put_page_size(out, ps)?;
        }
        IndexSpec::Octree(ps) => {
            out.push(SPEC_OCTREE);
            put_page_size(out, ps)?;
        }
        IndexSpec::KdTree(ps) => {
            out.push(SPEC_KD_TREE);
            put_page_size(out, ps)?;
        }
    }
    Ok(())
}

/// Decodes bytes produced by [`encode_spec`]. Trailing bytes, unknown tags,
/// and short payloads are all [`TsunamiError::Durability`] errors.
pub fn decode_spec(bytes: &[u8]) -> Result<IndexSpec> {
    let mut r = Reader::new(bytes);
    let spec = get_spec(&mut r).and_then(|spec| match r.finish() {
        Ok(()) => Ok(spec),
        Err(_) => Err(CodecError::Invalid("trailing bytes")),
    });
    spec.map_err(|e| TsunamiError::Durability(format!("corrupt index spec in WAL record: {e}")))
}

fn get_spec(r: &mut Reader) -> std::result::Result<IndexSpec, CodecError> {
    Ok(match need(r.u8())? {
        SPEC_TSUNAMI => {
            let optimizer = match need(r.u8())? {
                0 => OptimizerKind::Adaptive,
                1 => OptimizerKind::GradientOnly,
                2 => OptimizerKind::AdaptiveNaiveInit,
                3 => OptimizerKind::BlackBox,
                4 => OptimizerKind::Independent,
                _ => return Err(CodecError::Invalid("optimizer kind")),
            };
            IndexSpec::Tsunami(TsunamiConfig {
                optimizer,
                skew_bins: need(r.u64())? as usize,
                max_tree_depth: need(r.u64())? as usize,
                max_cells_per_grid: need(r.u64())? as usize,
                optimizer_sample_size: need(r.u64())? as usize,
                optimizer_max_iters: need(r.u64())? as usize,
                blackbox_iters: need(r.u64())? as usize,
                ingest_region_staleness: codec::get_f64(r)?,
                ingest_rebuild_staleness: codec::get_f64(r)?,
            })
        }
        SPEC_FLOOD => IndexSpec::Flood(FloodConfig {
            max_cells: need(r.u64())? as usize,
            sample_size: need(r.u64())? as usize,
            max_iters: need(r.u64())? as usize,
        }),
        SPEC_FULL_SCAN => IndexSpec::FullScan,
        SPEC_SINGLE_DIM => IndexSpec::SingleDim,
        SPEC_Z_ORDER => IndexSpec::ZOrder(get_page_size(r)?),
        SPEC_OCTREE => IndexSpec::Octree(get_page_size(r)?),
        SPEC_KD_TREE => IndexSpec::KdTree(get_page_size(r)?),
        _ => return Err(CodecError::Invalid("index spec tag")),
    })
}

fn put_page_size(out: &mut Vec<u8>, ps: &PageSize) -> std::result::Result<(), CodecError> {
    match ps {
        PageSize::Fixed(n) => {
            out.push(PAGE_FIXED);
            put_u64(out, *n as u64);
        }
        PageSize::Tuned => out.push(PAGE_TUNED),
        PageSize::TunedOver(candidates) => {
            out.push(PAGE_TUNED_OVER);
            codec::put_list(out, candidates, |out, &c| {
                put_u64(out, c as u64);
                Ok(())
            })?;
        }
    }
    Ok(())
}

fn get_page_size(r: &mut Reader) -> std::result::Result<PageSize, CodecError> {
    Ok(match need(r.u8())? {
        PAGE_FIXED => PageSize::Fixed(need(r.u64())? as usize),
        PAGE_TUNED => PageSize::Tuned,
        PAGE_TUNED_OVER => {
            PageSize::TunedOver(codec::get_list(r, |r| need(r.u64()).map(|c| c as usize))?)
        }
        _ => return Err(CodecError::Invalid("page size tag")),
    })
}
