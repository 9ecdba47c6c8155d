//! The wire protocol: a length-prefixed binary framing with hand-rolled
//! encode/decode (no serialization framework — the workspace is offline and
//! the protocol is small enough that explicit bytes are clearer).
//!
//! # Frame layout
//!
//! ```text
//! +----------------+---------+--------+------------------+
//! | payload length | version | opcode | body             |
//! |  u32 BE        |  u8 = 2 |  u8    | opcode-specific  |
//! +----------------+---------+--------+------------------+
//! |<-- 4 bytes --->|<-------- `length` bytes ----------->|
//! ```
//!
//! All integers are big-endian. The length prefix counts the payload
//! (version + opcode + body), not itself, and is checked against a maximum
//! frame size ([`DEFAULT_MAX_FRAME`], overridable per endpoint) *before*
//! the payload is read, so a hostile or corrupt length cannot balloon
//! allocation.
//!
//! # Body encodings
//!
//! Bodies are built from `tsunami_store::codec`'s composites — the same the
//! write-ahead log uses, `u32` for every length, count and dimension:
//!
//! | Message | Body |
//! |---------|------|
//! | `Query` | table string, predicate list, aggregation |
//! | `Insert` | table string, rows (`u32` width, `u32` count, values column by column) |
//! | `Ping`, `Pong` | empty |
//! | `Result` | `u8` tag (0=COUNT 1=SUM 2=MIN 3=MAX 4=AVG), then a `u64` count, a `u128` sum, or an optional `u64` (AVG: the `f64`'s bits) |
//! | `Error` | `u16` code, message string |
//! | `Inserted` | `u64` rows |
//!
//! Decoding is strict: trailing bytes after a well-formed body, unknown
//! version/opcode/tag bytes, and truncated bodies are all [`WireError`]s,
//! never silent acceptance. A predicate's range is carried raw, so the
//! server rejects an inverted one with a typed error of its own. New
//! opcodes are additive — an unknown one is already a typed error — and need
//! no [`VERSION`] bump.

use std::io::{Read, Write};

use tsunami_core::codec::{put_u16, put_u64, Reader};
use tsunami_core::{Point, Predicate, TsunamiError};
use tsunami_store::codec::{self, need, CodecError};

/// Protocol version carried in every frame. Version 2 moved every body onto
/// the shared codec's `u32` widths.
pub const VERSION: u8 = 2;

/// Default maximum payload size accepted per frame (1 MiB). Override per
/// server/client configuration.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

const OP_QUERY: u8 = 0x01;
const OP_INSERT: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_RESULT: u8 = 0x81;
const OP_ERROR: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_INSERTED: u8 = 0x84;

/// Error codes carried by [`Response::Error`]. Stable across releases so
/// clients can dispatch without parsing messages.
pub mod code {
    /// The frame decoded but the request was malformed (bad tag, trailing
    /// bytes, invalid UTF-8, ...).
    pub const BAD_REQUEST: u16 = 1;
    /// The named table does not exist.
    pub const UNKNOWN_TABLE: u16 = 2;
    /// The request referenced an out-of-bounds dimension, an inverted
    /// range, or a mismatched row arity.
    pub const INVALID_QUERY: u16 = 3;
    /// The server is shutting down; the query was not executed.
    pub const SHUTDOWN: u16 = 4;
    /// The scheduler queue was full (backpressure); retry later.
    pub const QUEUE_FULL: u16 = 5;
    /// The query panicked on a worker.
    pub const PANIC: u16 = 6;
    /// Any other engine error.
    pub const INTERNAL: u16 = 7;
}

/// Maps an engine error onto a stable wire error code.
pub fn error_code(e: &TsunamiError) -> u16 {
    match e {
        TsunamiError::UnknownTable(_) => code::UNKNOWN_TABLE,
        TsunamiError::InvalidPredicate { .. }
        | TsunamiError::DimensionOutOfBounds { .. }
        | TsunamiError::DimensionMismatch { .. }
        | TsunamiError::UnknownColumn(_) => code::INVALID_QUERY,
        TsunamiError::SchedulerShutdown => code::SHUTDOWN,
        TsunamiError::SchedulerQueueFull => code::QUEUE_FULL,
        TsunamiError::QueryPanicked(_) => code::PANIC,
        _ => code::INTERNAL,
    }
}

/// Everything that can go wrong turning bytes into messages (and back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the message did.
    Truncated,
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A body field held a value no encoder writes — an unknown tag,
    /// invalid UTF-8, rows without columns (`what` names the field).
    Invalid(&'static str),
    /// A field exceeded its encodable range (`what` names the field).
    TooLarge(&'static str),
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::Invalid(what) => WireError::Invalid(what),
            CodecError::TooLarge(what) => WireError::TooLarge(what),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame body"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Invalid(what) => write!(f, "invalid {what}"),
            WireError::TooLarge(what) => write!(f, "{what} exceeds its wire limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeded the endpoint's max frame size. The
    /// payload was *not* consumed, so the stream cannot be resynchronized —
    /// close the connection after reporting.
    Oversized { len: usize, max: usize },
    /// The underlying transport failed (including EOF mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// What [`read_frame`] produced: one payload, or a clean end of stream
/// (EOF on the frame boundary — EOF *inside* a frame is an error).
#[derive(Debug)]
pub enum FrameRead {
    /// One frame's payload (version + opcode + body).
    Frame(Vec<u8>),
    /// The peer closed the connection between frames.
    Eof,
}

/// Reads one length-prefixed frame. Enforces `max_frame` against the length
/// prefix before allocating or reading the payload.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<FrameRead, FrameError> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up politely.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(FrameRead::Eof),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => r.read_exact(&mut len_buf)?,
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Frame(payload))
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Aggregation over a dimension, as carried on the wire — the engine type;
/// its wire tags are pinned by `tsunami_store::codec`, not by the enum's
/// source order.
pub type Aggregation = tsunami_core::Aggregation;
/// Aggregate results reuse the engine type directly.
pub type AggResult = tsunami_core::AggResult;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute `aggregation` over the rows of `table` matching every
    /// predicate (empty list = whole table).
    Query {
        /// Target table name.
        table: String,
        /// Conjunctive range predicates.
        predicates: Vec<Predicate>,
        /// The aggregation to compute.
        aggregation: Aggregation,
    },
    /// Append rows to `table`.
    Insert {
        /// Target table name.
        table: String,
        /// Row-major values; every row must match the table's arity.
        rows: Vec<Point>,
    },
    /// Liveness probe.
    Ping,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query's aggregate result.
    Result(AggResult),
    /// The request failed; `code` is one of [`code`]'s constants.
    Error {
        /// Stable error category.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Insert`]: rows appended.
    Inserted(u64),
}

impl Request {
    /// Encodes into a frame payload (version + opcode + body).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = vec![VERSION];
        match self {
            Request::Query {
                table,
                predicates,
                aggregation,
            } => {
                out.push(OP_QUERY);
                codec::put_string(&mut out, table)?;
                codec::put_list(&mut out, predicates, codec::put_predicate)?;
                codec::put_aggregation(&mut out, *aggregation)?;
            }
            Request::Insert { table, rows } => {
                out.push(OP_INSERT);
                codec::put_string(&mut out, table)?;
                // A request without rows has no width.
                let width = rows.first().map_or(0, Vec::len);
                if rows.iter().any(|row| row.len() != width) {
                    return Err(WireError::Invalid("ragged rows"));
                }
                codec::put_rows(&mut out, (width, rows.len()), |d| {
                    rows.iter().map(move |row| &row[d])
                })?;
            }
            Request::Ping => out.push(OP_PING),
        }
        Ok(out)
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let msg = match opcode(&mut r)? {
            OP_QUERY => Request::Query {
                table: codec::get_string(&mut r)?,
                predicates: codec::get_list(&mut r, codec::get_predicate)?,
                aggregation: codec::get_aggregation(&mut r)?,
            },
            OP_INSERT => Request::Insert {
                table: codec::get_string(&mut r)?,
                rows: codec::get_rows(&mut r)?.points(),
            },
            OP_PING => Request::Ping,
            op => return Err(WireError::BadOpcode(op)),
        };
        r.finish().map_err(WireError::TrailingBytes)?;
        Ok(msg)
    }
}

impl Response {
    /// Encodes into a frame payload (version + opcode + body).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = vec![VERSION];
        match self {
            Response::Result(r) => {
                let tag = match r {
                    AggResult::Count(_) => 0,
                    AggResult::Sum(_) => 1,
                    AggResult::Min(_) => 2,
                    AggResult::Max(_) => 3,
                    AggResult::Avg(_) => 4,
                };
                out.extend([OP_RESULT, tag]);
                match *r {
                    AggResult::Count(n) => put_u64(&mut out, n),
                    AggResult::Sum(s) => out.extend(s.to_be_bytes()),
                    AggResult::Min(v) | AggResult::Max(v) => codec::put_opt_u64(&mut out, v),
                    // f64 travels as its raw IEEE-754 bits: exact, no text
                    // round-trip loss.
                    AggResult::Avg(v) => codec::put_opt_u64(&mut out, v.map(f64::to_bits)),
                }
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                put_u16(&mut out, *code);
                codec::put_string(&mut out, message)?;
            }
            Response::Pong => out.push(OP_PONG),
            Response::Inserted(n) => {
                out.push(OP_INSERTED);
                put_u64(&mut out, *n);
            }
        }
        Ok(out)
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let msg = match opcode(&mut r)? {
            OP_RESULT => Response::Result(match need(r.u8())? {
                0 => AggResult::Count(need(r.u64())?),
                1 => AggResult::Sum(need(r.u128())?),
                2 => AggResult::Min(codec::get_opt_u64(&mut r)?),
                3 => AggResult::Max(codec::get_opt_u64(&mut r)?),
                4 => AggResult::Avg(codec::get_opt_u64(&mut r)?.map(f64::from_bits)),
                _ => return Err(WireError::Invalid("agg result tag")),
            }),
            OP_ERROR => Response::Error {
                code: need(r.u16())?,
                message: codec::get_string(&mut r)?,
            },
            OP_PONG => Response::Pong,
            OP_INSERTED => Response::Inserted(need(r.u64())?),
            op => return Err(WireError::BadOpcode(op)),
        };
        r.finish().map_err(WireError::TrailingBytes)?;
        Ok(msg)
    }
}

/// Reads a payload's version byte — refusing any but [`VERSION`] — and
/// returns its opcode.
fn opcode(r: &mut Reader) -> Result<u8, WireError> {
    let version = need(r.u8())?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    Ok(need(r.u8())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::Ping.encode().unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, payload),
            FrameRead::Eof => panic!("expected a frame"),
        }
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend(1_000_000u32.to_be_bytes());
        buf.extend([0u8; 8]);
        match read_frame(&mut &buf[..], 64) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!((len, max), (1_000_000, 64));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn eof_inside_a_frame_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        buf.extend(100u32.to_be_bytes());
        buf.extend([1u8, 2, 3]);
        assert!(matches!(
            read_frame(&mut &buf[..], DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn bad_version_opcode_and_trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode().unwrap();
        payload[0] = 9;
        assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(9)));
        // The previous version's frames are refused, requests and responses.
        payload[0] = VERSION - 1;
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadVersion(VERSION - 1))
        );
        let mut payload = Response::Pong.encode().unwrap();
        payload[0] = VERSION - 1;
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::BadVersion(VERSION - 1))
        );

        let payload = vec![VERSION, 0x7f];
        assert_eq!(Request::decode(&payload), Err(WireError::BadOpcode(0x7f)));

        let mut payload = Request::Ping.encode().unwrap();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));

        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
    }
}
