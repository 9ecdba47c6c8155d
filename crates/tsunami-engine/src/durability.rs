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
use tsunami_flood::FloodConfig;
use tsunami_index::{IndexVariant, OptimizerKind, TsunamiConfig};
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
        for record in snapshot {
            buf.extend_from_slice(&wal::encode_record(record));
        }
        buf.extend_from_slice(&wal::encode_record(&marker));

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
// crate; this is their format. Same conventions as the WAL body codec:
// big-endian fixed-width integers, `f64` as IEEE-754 bits, a leading tag
// byte per enum.

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
    match spec {
        IndexSpec::Tsunami(c) => {
            out.push(SPEC_TSUNAMI);
            out.push(match c.variant {
                IndexVariant::Full => 0,
                IndexVariant::GridTreeOnly => 1,
                IndexVariant::AugmentedGridOnly => 2,
            });
            out.push(match c.optimizer {
                OptimizerKind::Adaptive => 0,
                OptimizerKind::GradientOnly => 1,
                OptimizerKind::AdaptiveNaiveInit => 2,
                OptimizerKind::BlackBox => 3,
            });
            put_u64(&mut out, c.skew_bins as u64);
            put_f64(&mut out, c.dbscan_eps);
            put_u64(&mut out, c.dbscan_min_pts as u64);
            put_f64(&mut out, c.min_skew_reduction_fraction);
            put_f64(&mut out, c.min_region_point_fraction);
            put_f64(&mut out, c.min_region_query_fraction);
            put_f64(&mut out, c.merge_tolerance);
            put_u64(&mut out, c.max_tree_depth as u64);
            put_f64(&mut out, c.fm_error_fraction);
            put_f64(&mut out, c.ccdf_empty_fraction);
            put_u64(&mut out, c.max_cells_per_grid as u64);
            put_u64(&mut out, c.optimizer_sample_size as u64);
            put_u64(&mut out, c.optimizer_max_iters as u64);
            put_u64(&mut out, c.blackbox_iters as u64);
            put_u64(&mut out, c.seed);
            put_u64(&mut out, c.observation_window as u64);
            put_f64(&mut out, c.ingest_region_staleness);
            put_f64(&mut out, c.ingest_rebuild_staleness);
        }
        IndexSpec::Flood(c) => {
            out.push(SPEC_FLOOD);
            put_u64(&mut out, c.max_cells as u64);
            put_u64(&mut out, c.sample_size as u64);
            put_u64(&mut out, c.max_iters as u64);
            put_u64(&mut out, c.seed);
        }
        IndexSpec::FullScan => out.push(SPEC_FULL_SCAN),
        IndexSpec::SingleDim => out.push(SPEC_SINGLE_DIM),
        IndexSpec::ZOrder(ps) => {
            out.push(SPEC_Z_ORDER);
            put_page_size(&mut out, ps);
        }
        IndexSpec::Octree(ps) => {
            out.push(SPEC_OCTREE);
            put_page_size(&mut out, ps);
        }
        IndexSpec::KdTree(ps) => {
            out.push(SPEC_KD_TREE);
            put_page_size(&mut out, ps);
        }
    }
    out
}

/// Decodes bytes produced by [`encode_spec`]. Trailing bytes, unknown tags,
/// and short payloads are all [`TsunamiError::Durability`] errors.
pub fn decode_spec(bytes: &[u8]) -> Result<IndexSpec> {
    let mut r = Reader::new(bytes);
    let spec = (|| -> Option<IndexSpec> {
        let spec = match r.u8()? {
            SPEC_TSUNAMI => {
                let variant = match r.u8()? {
                    0 => IndexVariant::Full,
                    1 => IndexVariant::GridTreeOnly,
                    2 => IndexVariant::AugmentedGridOnly,
                    _ => return None,
                };
                let optimizer = match r.u8()? {
                    0 => OptimizerKind::Adaptive,
                    1 => OptimizerKind::GradientOnly,
                    2 => OptimizerKind::AdaptiveNaiveInit,
                    3 => OptimizerKind::BlackBox,
                    _ => return None,
                };
                IndexSpec::Tsunami(TsunamiConfig {
                    variant,
                    optimizer,
                    skew_bins: r.u64()? as usize,
                    dbscan_eps: get_f64(&mut r)?,
                    dbscan_min_pts: r.u64()? as usize,
                    min_skew_reduction_fraction: get_f64(&mut r)?,
                    min_region_point_fraction: get_f64(&mut r)?,
                    min_region_query_fraction: get_f64(&mut r)?,
                    merge_tolerance: get_f64(&mut r)?,
                    max_tree_depth: r.u64()? as usize,
                    fm_error_fraction: get_f64(&mut r)?,
                    ccdf_empty_fraction: get_f64(&mut r)?,
                    max_cells_per_grid: r.u64()? as usize,
                    optimizer_sample_size: r.u64()? as usize,
                    optimizer_max_iters: r.u64()? as usize,
                    blackbox_iters: r.u64()? as usize,
                    seed: r.u64()?,
                    observation_window: r.u64()? as usize,
                    ingest_region_staleness: get_f64(&mut r)?,
                    ingest_rebuild_staleness: get_f64(&mut r)?,
                })
            }
            SPEC_FLOOD => IndexSpec::Flood(FloodConfig {
                max_cells: r.u64()? as usize,
                sample_size: r.u64()? as usize,
                max_iters: r.u64()? as usize,
                seed: r.u64()?,
            }),
            SPEC_FULL_SCAN => IndexSpec::FullScan,
            SPEC_SINGLE_DIM => IndexSpec::SingleDim,
            SPEC_Z_ORDER => IndexSpec::ZOrder(get_page_size(&mut r)?),
            SPEC_OCTREE => IndexSpec::Octree(get_page_size(&mut r)?),
            SPEC_KD_TREE => IndexSpec::KdTree(get_page_size(&mut r)?),
            _ => return None,
        };
        // Strict: trailing bytes mean the record is not what we encoded.
        r.finish().ok()?;
        Some(spec)
    })();
    spec.ok_or_else(|| TsunamiError::Durability("corrupt index spec in WAL record".into()))
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_page_size(out: &mut Vec<u8>, ps: &PageSize) {
    match ps {
        PageSize::Fixed(n) => {
            out.push(PAGE_FIXED);
            put_u64(out, *n as u64);
        }
        PageSize::Tuned => out.push(PAGE_TUNED),
        PageSize::TunedOver(candidates) => {
            out.push(PAGE_TUNED_OVER);
            put_u64(out, candidates.len() as u64);
            for c in candidates {
                put_u64(out, *c as u64);
            }
        }
    }
}

fn get_f64(r: &mut Reader) -> Option<f64> {
    Some(f64::from_bits(r.u64()?))
}

fn get_page_size(r: &mut Reader) -> Option<PageSize> {
    Some(match r.u8()? {
        PAGE_FIXED => PageSize::Fixed(r.u64()? as usize),
        PAGE_TUNED => PageSize::Tuned,
        PAGE_TUNED_OVER => {
            let n = r.u64()? as usize;
            // Each candidate takes 8 bytes: reject counts the remaining
            // buffer cannot hold before allocating.
            if n > r.remaining() / 8 {
                return None;
            }
            let mut candidates = Vec::with_capacity(n);
            for _ in 0..n {
                candidates.push(r.u64()? as usize);
            }
            PageSize::TunedOver(candidates)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(spec: &IndexSpec) {
        let bytes = encode_spec(spec);
        let decoded = decode_spec(&bytes).unwrap();
        // IndexSpec is not PartialEq (it holds f64-bearing configs); compare
        // through a second encode, which is exact for every field.
        assert_eq!(encode_spec(&decoded), bytes, "{}", spec.label());
        assert_eq!(decoded.label(), spec.label());
    }

    #[test]
    fn every_spec_variant_round_trips() {
        let mut specs = IndexSpec::all();
        specs.extend(IndexSpec::all_fast());
        specs.push(IndexSpec::ZOrder(PageSize::TunedOver(vec![64, 256, 4096])));
        specs.push(IndexSpec::Tsunami(
            TsunamiConfig::fast()
                .with_variant(IndexVariant::AugmentedGridOnly)
                .with_optimizer(OptimizerKind::BlackBox)
                .with_ingest_staleness(0.1, 0.9),
        ));
        for spec in &specs {
            round_trip(spec);
        }
    }

    #[test]
    fn corrupt_specs_are_rejected() {
        // Unknown tag.
        assert!(decode_spec(&[0x7f]).is_err());
        // Empty.
        assert!(decode_spec(&[]).is_err());
        // Truncated Tsunami payload.
        let good = encode_spec(&IndexSpec::tsunami());
        assert!(decode_spec(&good[..good.len() - 3]).is_err());
        // Trailing bytes.
        let mut padded = encode_spec(&IndexSpec::FullScan);
        padded.push(0);
        assert!(decode_spec(&padded).is_err());
        // Bad enum payloads.
        assert!(decode_spec(&[SPEC_Z_ORDER, 0x44]).is_err());
        let mut bad_variant = encode_spec(&IndexSpec::tsunami());
        bad_variant[1] = 9;
        assert!(decode_spec(&bad_variant).is_err());
    }
}
