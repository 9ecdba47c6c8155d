//! Write-ahead log: length-prefixed, checksummed, versioned mutation records.
//!
//! The durability layer logs every mutation before applying it in memory, so
//! a crash at any instant loses at most the suffix of the log that was never
//! fsync'd. The engine replays the log on open and rebuilds the exact
//! in-memory state of the durably committed prefix.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+----------------+---------+--------+------------------+
//! | payload length | FNV-1a of      | version | opcode | body             |
//! |  u32 BE        | payload, u32 BE|  u8 = 3 |  u8    | opcode-specific  |
//! +----------------+----------------+---------+--------+------------------+
//! |<------- 8-byte header -------->|<-------- `length` bytes ----------->|
//! ```
//!
//! Bodies are built from [`crate::codec`]'s composites, the same the wire
//! protocol in `tsunami-server` uses: big-endian, `u32` for every length,
//! count and dimension. The length prefix counts the payload (version +
//! opcode + body); [`Wal::append`] refuses, before writing anything, a
//! payload the `u32` cannot describe. Replay reads the file whole and only
//! slices it, so a corrupt length allocates nothing: one that runs past the
//! end of the file ends the valid prefix like any torn tail. The checksum
//! covers the whole payload; it is FNV-1a (32-bit), chosen because it is
//! dependency-free, byte-order-stable, and catches the torn-write and
//! bit-rot cases a WAL tail actually sees.
//!
//! # Recovery semantics
//!
//! [`replay`] is strict-prefix: it decodes records from the front and stops
//! at the first frame that is truncated, fails its checksum, or does not
//! decode exactly (unknown opcode, trailing bytes in a body). It returns the
//! well-formed records plus the byte length of the valid prefix; the engine
//! truncates the log to that length before appending again, so a torn tail
//! is amputated exactly once and never resurfaces. The one stop that is not
//! a torn tail is an intact frame of another format version — a file written
//! by a different build: [`replay`] refuses it with a
//! [`TsunamiError::Durability`] error instead of letting it be truncated.
//!
//! # Crash injection
//!
//! [`CrashPoint`] is a deterministic fault hook for tests: it makes the log
//! stop mid-record, or "lose" everything after the last fsync, modelling the
//! two ways a real kernel crash shears a log file. Engine-level checkpoint
//! crash points ride on the same enum.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use tsunami_core::codec::{put_u32, put_u64, Reader};
use tsunami_core::{Dataset, Predicate, Query, Result, TsunamiError};

use crate::codec::{self, CodecError};

/// WAL format version carried in every record. Version 3 moved every body
/// onto the shared [`crate::codec`] (`u32` row counts; an aggregation's
/// dimension absent for COUNT) and dropped nine build constants and the
/// observation window from the Tsunami index spec inside `CreateTable`.
/// Version 4 dropped the Tsunami spec's variant byte and the Flood spec's
/// seed.
pub const WAL_VERSION: u8 = 4;

const HEADER_BYTES: usize = 8;

const OP_CREATE_TABLE: u8 = 0x01;
const OP_INSERT_BATCH: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_CHECKPOINT: u8 = 0x04;
const OP_REGISTER_VIEW: u8 = 0x05;

/// FNV-1a, 32-bit. Offset basis and prime per the reference parameters.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A single durable mutation. Everything the engine needs to rebuild a
/// table's logical content is expressible as a sequence of these.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was created: its schema, its index specification (encoded by
    /// the engine — the store treats it as opaque bytes), the workload the
    /// index was optimized for, and the initial data.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names, in dimension order.
        columns: Vec<String>,
        /// Engine-encoded index specification.
        spec: Vec<u8>,
        /// Workload queries the index was optimized against.
        workload: Vec<Query>,
        /// Initial rows.
        data: Dataset,
    },
    /// Rows were appended to a table.
    InsertBatch {
        /// Target table.
        table: String,
        /// Appended rows.
        rows: Dataset,
    },
    /// Rows matching a predicate conjunction were tombstoned.
    Delete {
        /// Target table.
        table: String,
        /// Conjunctive range predicates selecting the rows to delete.
        predicates: Vec<Predicate>,
    },
    /// A materialized view was registered over a table: a named aggregate
    /// query whose pre-folded state the engine maintains incrementally.
    /// Only the *spec* is durable — view state is recomputed from the
    /// recovered table, so it can never diverge from the data.
    RegisterView {
        /// Table the view aggregates over.
        table: String,
        /// Unique view name (per database).
        name: String,
        /// The aggregate query the view materializes.
        query: Query,
    },
    /// A checkpoint completed covering the named tables; records before this
    /// one are reflected in the checkpoint file.
    Checkpoint {
        /// Monotonic checkpoint epoch. The marker at the head of a fresh WAL
        /// carries the same generation as the checkpoint file it follows, so
        /// recovery can tell a WAL that belongs to the current checkpoint
        /// from one the checkpoint already absorbed (crash between rename
        /// and truncate).
        generation: u64,
        /// Tables captured by the checkpoint.
        tables: Vec<String>,
    },
}

/// Deterministic fault-injection points for crash testing.
///
/// The engine and the [`Wal`] consult the configured crash point at the
/// matching step and abort there, leaving the on-disk state exactly as a
/// kernel crash at that instant would (given the no-reordering model: bytes
/// written before the last fsync are durable, later bytes may be lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No fault injected.
    #[default]
    None,
    /// Crash after writing roughly half of a record's frame: the log ends in
    /// a torn record.
    MidRecord,
    /// Crash after the record is fully written but before fsync: everything
    /// past the last sync is lost (the file is truncated back to the synced
    /// length, modelling dropped page cache).
    BeforeSync,
    /// Crash while writing the temporary checkpoint file (engine-level): the
    /// tmp file is left partial, the real checkpoint and WAL untouched.
    MidCheckpoint,
    /// Crash after the checkpoint file is atomically renamed into place but
    /// before the WAL is truncated (engine-level): replay sees both.
    AfterCheckpointRename,
}

fn io_err(ctx: &str, e: std::io::Error) -> TsunamiError {
    TsunamiError::Durability(format!("{ctx}: {e}"))
}

/// An append-only, checksummed log file.
///
/// Writes go through [`Wal::append`]; nothing is durable until
/// [`Wal::commit`] fsyncs. The struct tracks the last synced length so the
/// [`CrashPoint::BeforeSync`] fault can model losing unsynced bytes.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
    synced_len: u64,
    crash: CrashPoint,
}

impl Wal {
    /// Creates (or truncates) a log at `path`.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create wal", e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len: 0,
            synced_len: 0,
            crash: CrashPoint::None,
        })
    }

    /// Opens an existing log for appending, first truncating it to
    /// `valid_len` — the well-formed prefix reported by [`replay`] — so a
    /// torn tail from a previous crash is amputated before new records land.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open wal", e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err("truncate wal tail", e))?;
        file.sync_all().map_err(|e| io_err("sync wal", e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len: valid_len,
            synced_len: valid_len,
            crash: CrashPoint::None,
        })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written so far (committed or not).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes made durable by the last [`Wal::commit`].
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Arms a fault-injection point. Test hook; [`CrashPoint::None`] (the
    /// default) is a no-op in every path.
    pub fn set_crash_point(&mut self, crash: CrashPoint) {
        self.crash = crash;
    }

    /// Appends one record to the log. Not durable until [`Wal::commit`]. A
    /// record that does not encode (see [`encode_record`]) writes nothing.
    ///
    /// With [`CrashPoint::MidRecord`] armed, writes only the first half of
    /// the frame and fails, leaving a torn record at the tail.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let frame = encode_record(record)?;
        if self.crash == CrashPoint::MidRecord {
            let half = &frame[..frame.len() / 2];
            self.write_at_end(half)?;
            return Err(TsunamiError::Durability(
                "crash injected mid-record".to_string(),
            ));
        }
        self.write_at_end(&frame)
    }

    /// Makes every appended record durable (fsync).
    ///
    /// With [`CrashPoint::BeforeSync`] armed, instead truncates the file
    /// back to the last synced length — the deterministic model of a crash
    /// that drops everything the page cache had not flushed — and fails.
    pub fn commit(&mut self) -> Result<()> {
        if self.crash == CrashPoint::BeforeSync {
            self.file
                .set_len(self.synced_len)
                .map_err(|e| io_err("truncate wal (injected crash)", e))?;
            self.len = self.synced_len;
            return Err(TsunamiError::Durability(
                "crash injected before fsync".to_string(),
            ));
        }
        self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
        self.synced_len = self.len;
        Ok(())
    }

    /// [`Wal::append`] followed by [`Wal::commit`].
    pub fn append_commit(&mut self, record: &WalRecord) -> Result<()> {
        self.append(record)?;
        self.commit()
    }

    /// Truncates the log to `len` bytes and fsyncs. Used after a checkpoint
    /// absorbs a prefix of the log.
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate wal", e))?;
        self.file.sync_all().map_err(|e| io_err("fsync wal", e))?;
        self.len = len;
        self.synced_len = len;
        Ok(())
    }

    fn write_at_end(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| io_err("seek wal", e))?;
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("append wal", e))?;
        self.len += bytes.len() as u64;
        Ok(())
    }
}

/// Replays a log file: returns every well-formed record plus the byte
/// length of the valid prefix (see the module docs for the strict-prefix
/// rule). A missing file is an empty log, not an error; a file whose valid
/// prefix ends at an intact frame of another [`WAL_VERSION`] is one — the
/// caller must not truncate what a different build wrote.
pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, u64)> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_err("open wal for replay", e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read wal", e))?;
    let (records, valid_len) = decode_frames(&bytes);
    let stopped_at = intact_payload(&bytes, valid_len).and_then(|payload| payload.first());
    if let Some(&version) = stopped_at.filter(|&&version| version != WAL_VERSION) {
        return Err(TsunamiError::Durability(format!(
            "{} holds format version {version} records; this build reads version {WAL_VERSION}",
            path.display()
        )));
    }
    Ok((records, valid_len as u64))
}

/// Encodes one record as a complete frame (header + payload). A record the
/// codec cannot write — a length or count past its `u32` field, or a payload
/// past the length prefix's — is a [`TsunamiError::Durability`] error.
pub fn encode_record(record: &WalRecord) -> Result<Vec<u8>> {
    let mut frame = vec![0; HEADER_BYTES];
    frame.push(WAL_VERSION);
    seal(&mut frame, record)
        .map_err(|e| TsunamiError::Durability(format!("cannot log record: {e}")))?;
    Ok(frame)
}

/// Appends `record`'s opcode and body to `frame` (header slot + version
/// byte), then fills the header in.
fn seal(frame: &mut Vec<u8>, record: &WalRecord) -> std::result::Result<(), CodecError> {
    encode_body(frame, record)?;
    let mut header = Vec::with_capacity(HEADER_BYTES);
    codec::put_len(&mut header, frame.len() - HEADER_BYTES, "record payload")?;
    put_u32(&mut header, checksum(&frame[HEADER_BYTES..]));
    frame[..HEADER_BYTES].copy_from_slice(&header);
    Ok(())
}

fn encode_body(out: &mut Vec<u8>, record: &WalRecord) -> std::result::Result<(), CodecError> {
    match record {
        WalRecord::CreateTable {
            name,
            columns,
            spec,
            workload,
            data,
        } => {
            out.push(OP_CREATE_TABLE);
            codec::put_string(out, name)?;
            codec::put_list(out, columns, |out, c| codec::put_string(out, c))?;
            codec::put_bytes(out, spec)?;
            codec::put_list(out, workload, codec::put_query)?;
            codec::put_rows(out, (data.num_dims(), data.len()), |d| data.column(d))
        }
        WalRecord::InsertBatch { table, rows } => {
            out.push(OP_INSERT_BATCH);
            codec::put_string(out, table)?;
            codec::put_rows(out, (rows.num_dims(), rows.len()), |d| rows.column(d))
        }
        WalRecord::Delete { table, predicates } => {
            out.push(OP_DELETE);
            codec::put_string(out, table)?;
            codec::put_list(out, predicates, codec::put_predicate)
        }
        WalRecord::RegisterView { table, name, query } => {
            out.push(OP_REGISTER_VIEW);
            codec::put_string(out, table)?;
            codec::put_string(out, name)?;
            codec::put_query(out, query)
        }
        WalRecord::Checkpoint { generation, tables } => {
            out.push(OP_CHECKPOINT);
            put_u64(out, *generation);
            codec::put_list(out, tables, |out, t| codec::put_string(out, t))
        }
    }
}

/// Decodes frames from the front of `bytes`, stopping at the first torn or
/// corrupt one. Returns the records plus the byte length of the valid
/// prefix.
pub fn decode_frames(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(payload) = intact_payload(bytes, pos) {
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos += HEADER_BYTES + payload.len();
    }
    (records, pos)
}

/// The payload of the frame starting at `pos`, if the frame is whole: header
/// present, payload within `bytes`, checksum matching.
fn intact_payload(bytes: &[u8], pos: usize) -> Option<&[u8]> {
    let mut frame = Reader::new(bytes.get(pos..)?);
    let len = frame.u32()? as usize;
    let sum = frame.u32()?;
    let payload = frame.bytes(len)?;
    (checksum(payload) == sum).then_some(payload)
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    if r.u8()? != WAL_VERSION {
        return None;
    }
    let record = decode_body(&mut r).ok()?;
    // Strict: a payload with trailing bytes after a complete body is corrupt.
    r.finish().ok()?;
    Some(record)
}

fn decode_body(r: &mut Reader) -> std::result::Result<WalRecord, CodecError> {
    Ok(match codec::need(r.u8())? {
        OP_CREATE_TABLE => WalRecord::CreateTable {
            name: codec::get_string(r)?,
            columns: codec::get_list(r, codec::get_string)?,
            spec: codec::get_bytes(r)?.to_vec(),
            workload: codec::get_list(r, codec::get_query)?,
            data: codec::get_rows(r)?.dataset(),
        },
        OP_INSERT_BATCH => WalRecord::InsertBatch {
            table: codec::get_string(r)?,
            rows: codec::get_rows(r)?.dataset(),
        },
        OP_DELETE => {
            let table = codec::get_string(r)?;
            let predicates = codec::get_list(r, codec::get_predicate)?;
            // Only validated deletes are ever logged.
            if predicates.iter().any(|p| p.lo > p.hi) {
                return Err(CodecError::Invalid("delete range"));
            }
            WalRecord::Delete { table, predicates }
        }
        OP_REGISTER_VIEW => WalRecord::RegisterView {
            table: codec::get_string(r)?,
            name: codec::get_string(r)?,
            query: codec::get_query(r)?,
        },
        OP_CHECKPOINT => WalRecord::Checkpoint {
            generation: codec::need(r.u64())?,
            tables: codec::get_list(r, codec::get_string)?,
        },
        _ => return Err(CodecError::Invalid("opcode")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::Aggregation;

    /// Deterministic splitmix64 so the loops are seeded and reproducible
    /// without any external RNG dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_dataset(rng: &mut Rng, dims: usize, rows: usize) -> Dataset {
        let cols = (0..dims)
            .map(|_| (0..rows).map(|_| rng.below(1_000_000)).collect())
            .collect();
        Dataset::from_columns(cols).unwrap()
    }

    fn random_query(rng: &mut Rng, dims: usize) -> Query {
        let np = rng.below(dims as u64) as usize + 1;
        let preds = (0..np)
            .map(|i| {
                let lo = rng.below(1000);
                Predicate::range(i, lo, lo + rng.below(1000)).unwrap()
            })
            .collect();
        let d = rng.below(dims as u64) as usize;
        let agg = match rng.below(5) {
            0 => Aggregation::Count,
            1 => Aggregation::Sum(d),
            2 => Aggregation::Min(d),
            3 => Aggregation::Max(d),
            _ => Aggregation::Avg(d),
        };
        Query::new(preds, agg).unwrap()
    }

    fn random_record(rng: &mut Rng) -> WalRecord {
        match rng.below(5) {
            0 => {
                let dims = rng.below(4) as usize + 1;
                let nspec = rng.below(40);
                let nq = rng.below(5);
                let rows = rng.below(50) as usize;
                WalRecord::CreateTable {
                    name: format!("t{}", rng.below(100)),
                    columns: (0..dims).map(|d| format!("c{d}")).collect(),
                    spec: (0..nspec).map(|_| rng.next() as u8).collect(),
                    workload: (0..nq).map(|_| random_query(rng, dims)).collect(),
                    data: random_dataset(rng, dims, rows),
                }
            }
            1 => {
                let dims = rng.below(4) as usize + 1;
                let rows = rng.below(30) as usize + 1;
                WalRecord::InsertBatch {
                    table: format!("t{}", rng.below(100)),
                    rows: random_dataset(rng, dims, rows),
                }
            }
            2 => WalRecord::Delete {
                table: format!("t{}", rng.below(100)),
                predicates: (0..rng.below(4) + 1)
                    .map(|i| {
                        let lo = rng.below(1000);
                        Predicate::range(i as usize, lo, lo + rng.below(1000)).unwrap()
                    })
                    .collect(),
            },
            3 => {
                let preds = rng.below(4) as usize + 1;
                WalRecord::RegisterView {
                    table: format!("t{}", rng.below(100)),
                    name: format!("v{}", rng.below(100)),
                    query: random_query(rng, preds),
                }
            }
            _ => WalRecord::Checkpoint {
                generation: rng.next(),
                tables: (0..rng.below(5)).map(|i| format!("t{i}")).collect(),
            },
        }
    }

    fn encode(record: &WalRecord) -> Vec<u8> {
        encode_record(record).unwrap()
    }

    #[test]
    fn truncation_at_every_cut_point_keeps_exact_prefix() {
        let mut rng = Rng(7);
        let records: Vec<WalRecord> = (0..4).map(|_| random_record(&mut rng)).collect();
        let frames: Vec<Vec<u8>> = records.iter().map(encode).collect();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for f in &frames {
            log.extend_from_slice(f);
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let (decoded, valid) = decode_frames(&log[..cut]);
            // The valid prefix is the last record boundary at or before the
            // cut; every record before it decodes bit-identically.
            let expect_n = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(valid, boundaries[expect_n], "cut at {cut}");
            assert_eq!(decoded.len(), expect_n, "cut at {cut}");
            assert_eq!(decoded[..], records[..expect_n], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_rejected_everywhere() {
        let mut rng = Rng(99);
        let rec = random_record(&mut rng);
        let good = encode(&rec);
        let follow = encode(&WalRecord::Checkpoint {
            generation: 0,
            tables: vec![],
        });
        for byte in 0..good.len() {
            for bit in [0u8, 3, 7] {
                let mut log = good.clone();
                log[byte] ^= 1 << bit;
                log.extend_from_slice(&follow);
                let (decoded, valid) = decode_frames(&log);
                // Flipping any bit of the first frame must not yield the
                // original record; the log is truncated at the corruption
                // (a flipped length prefix may at most resynchronize to
                // garbage that fails the checksum anyway).
                assert_ne!(decoded.first(), Some(&rec), "byte {byte} bit {bit}");
                assert!(
                    valid == 0 || decoded.first() != Some(&rec),
                    "byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn a_length_past_the_end_of_the_log_is_a_torn_tail() {
        let mut frame = vec![0u8; 16];
        frame[..4].copy_from_slice(&(u32::MAX).to_be_bytes());
        let (decoded, valid) = decode_frames(&frame);
        assert!(decoded.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn unknown_version_and_opcode_truncate() {
        let rec = WalRecord::Checkpoint {
            generation: 1,
            tables: vec!["t".into()],
        };
        let mut frame = encode(&rec);
        frame[HEADER_BYTES] = WAL_VERSION - 1; // version byte
        let sum = checksum(&frame[HEADER_BYTES..]);
        frame[4..8].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(decode_frames(&frame), (vec![], 0));
        // On disk that is another build's file, not a torn tail: replay
        // refuses it — also behind a valid prefix — so nobody truncates it.
        let path = temp_wal("old_version");
        let previous = format!("format version {}", WAL_VERSION - 1);
        for prefix in [Vec::new(), encode(&rec)] {
            let file = [prefix, frame.clone()].concat();
            std::fs::write(&path, &file).unwrap();
            let err = replay(&path).unwrap_err();
            assert!(
                matches!(&err, TsunamiError::Durability(m) if m.contains(&previous)),
                "{err:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), file);
        }
        std::fs::remove_file(&path).unwrap();

        let mut frame = encode(&rec);
        frame[HEADER_BYTES + 1] = 0x7f; // opcode byte
        let sum = checksum(&frame[HEADER_BYTES..]);
        frame[4..8].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(decode_frames(&frame), (vec![], 0));
    }

    #[test]
    fn trailing_bytes_in_body_are_corrupt() {
        let rec = WalRecord::Checkpoint {
            generation: 0,
            tables: vec![],
        };
        let mut payload = encode(&rec)[HEADER_BYTES..].to_vec();
        payload.push(0);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&checksum(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(decode_frames(&frame), (vec![], 0));
    }

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tsunami_wal_unit_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.log", std::process::id()))
    }

    #[test]
    fn wal_file_append_commit_replay() {
        let path = temp_wal("roundtrip");
        let mut rng = Rng(42);
        let records: Vec<WalRecord> = (0..6).map(|_| random_record(&mut rng)).collect();
        {
            let mut wal = Wal::create(&path).unwrap();
            for r in &records {
                wal.append_commit(r).unwrap();
            }
            assert_eq!(wal.synced_len(), wal.len());
        }
        let (replayed, valid) = replay(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).unwrap();
    }

    /// A committed record is never too large to replay: one just over
    /// 64 MiB — the size a replay-side cap once dropped as a torn tail, with
    /// everything committed after it — comes back, and so does its follower.
    #[test]
    fn a_record_over_64_mib_and_the_one_after_it_survive_replay() {
        let path = temp_wal("big_record");
        let big = WalRecord::CreateTable {
            name: "big".into(),
            columns: vec!["c0".into()],
            spec: vec![0x5a; (64 << 20) + 1],
            workload: Vec::new(),
            data: Dataset::from_columns(vec![vec![1, 2, 3]]).unwrap(),
        };
        let small = WalRecord::Checkpoint {
            generation: 9,
            tables: vec!["big".into()],
        };
        {
            let mut wal = Wal::create(&path).unwrap();
            wal.append_commit(&big).unwrap();
            wal.append_commit(&small).unwrap();
        }
        let (replayed, valid) = replay(&path).unwrap();
        assert_eq!(valid, std::fs::metadata(&path).unwrap().len());
        assert_eq!(replayed.len(), 2);
        assert!(replayed[0] == big, "the large record did not round-trip");
        assert_eq!(replayed[1], small);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let path = temp_wal("missing_never_created");
        let _ = std::fs::remove_file(&path);
        assert_eq!(replay(&path).unwrap(), (vec![], 0));
    }

    #[test]
    fn mid_record_crash_leaves_recoverable_prefix() {
        let path = temp_wal("mid_record");
        let rec = WalRecord::Delete {
            table: "t".into(),
            predicates: vec![Predicate::eq(0, 5)],
        };
        let mut wal = Wal::create(&path).unwrap();
        wal.append_commit(&rec).unwrap();
        let committed = wal.len();
        wal.set_crash_point(CrashPoint::MidRecord);
        assert!(matches!(wal.append(&rec), Err(TsunamiError::Durability(_))));
        drop(wal);
        // The file ends in a torn record; replay amputates it.
        assert!(std::fs::metadata(&path).unwrap().len() > committed);
        let (replayed, valid) = replay(&path).unwrap();
        assert_eq!(replayed, vec![rec.clone()]);
        assert_eq!(valid, committed);
        // Reopening truncates the tail and appending works again.
        let mut wal = Wal::open_append(&path, valid).unwrap();
        wal.append_commit(&rec).unwrap();
        let (replayed, _) = replay(&path).unwrap();
        assert_eq!(replayed, vec![rec.clone(), rec]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn before_sync_crash_loses_exactly_the_unsynced_suffix() {
        let path = temp_wal("before_sync");
        let rec = WalRecord::Checkpoint {
            generation: 2,
            tables: vec!["a".into()],
        };
        let mut wal = Wal::create(&path).unwrap();
        wal.append_commit(&rec).unwrap();
        let committed = wal.len();
        wal.set_crash_point(CrashPoint::BeforeSync);
        wal.append(&rec).unwrap();
        assert!(matches!(wal.commit(), Err(TsunamiError::Durability(_))));
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let (replayed, valid) = replay(&path).unwrap();
        assert_eq!(replayed, vec![rec]);
        assert_eq!(valid, committed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_to_drops_absorbed_prefix() {
        let path = temp_wal("truncate");
        let rec = WalRecord::Checkpoint {
            generation: 0,
            tables: vec![],
        };
        let mut wal = Wal::create(&path).unwrap();
        wal.append_commit(&rec).unwrap();
        wal.truncate_to(0).unwrap();
        assert!(wal.is_empty());
        assert_eq!(replay(&path).unwrap(), (vec![], 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_matches_reference_vectors() {
        // Reference FNV-1a 32-bit values.
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_eq!(checksum(b"a"), 0xe40c_292c);
        assert_eq!(checksum(b"foobar"), 0xbf9c_f968);
    }
}
