//! The wire protocol: a length-prefixed binary framing with hand-rolled
//! encode/decode (no serialization framework — the workspace is offline and
//! the protocol is small enough that explicit bytes are clearer).
//!
//! # Frame layout
//!
//! ```text
//! +----------------+---------+--------+------------------+
//! | payload length | version | opcode | body             |
//! |  u32 BE        |  u8 = 1 |  u8    | opcode-specific  |
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
//! | Type | Encoding |
//! |------|----------|
//! | string | `u16` length + UTF-8 bytes |
//! | predicate | `u16` dim, `u64` lo, `u64` hi |
//! | predicate list | `u16` count + predicates |
//! | aggregation | `u8` tag (0=COUNT 1=SUM 2=MIN 3=MAX 4=AVG) + `u16` dim (absent for COUNT) |
//! | rows | `u16` columns, `u32` rows, then row-major `u64` values |
//! | agg result | `u8` tag + tag-specific payload (see [`Response::Result`]) |
//!
//! Decoding is strict: trailing bytes after a well-formed body, unknown
//! version/opcode/tag bytes, and truncated bodies are all [`WireError`]s,
//! never silent acceptance.

use std::io::{Read, Write};

use tsunami_core::codec::{put_u16, put_u32, put_u64, Reader};
use tsunami_core::{Point, Predicate, TsunamiError, Value};

/// Protocol version carried in every frame.
pub const VERSION: u8 = 1;

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
    /// Unknown tag byte inside a body (`what` names the field).
    BadTag { what: &'static str, tag: u8 },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A field exceeded its encodable range (`what` names the field).
    TooLarge(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame body"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
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

/// Aggregation over a dimension, as carried on the wire. Mirrors
/// [`tsunami_core::Aggregation`] exactly; redefined here only to pin the
/// wire tags independently of the engine enum's source order.
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
                put_str(&mut out, table)?;
                if predicates.len() > u16::MAX as usize {
                    return Err(WireError::TooLarge("predicate list"));
                }
                put_u16(&mut out, predicates.len() as u16);
                for p in predicates {
                    if p.dim > u16::MAX as usize {
                        return Err(WireError::TooLarge("predicate dimension"));
                    }
                    put_u16(&mut out, p.dim as u16);
                    put_u64(&mut out, p.lo);
                    put_u64(&mut out, p.hi);
                }
                put_aggregation(&mut out, *aggregation)?;
            }
            Request::Insert { table, rows } => {
                out.push(OP_INSERT);
                put_str(&mut out, table)?;
                let cols = rows.first().map_or(0, Vec::len);
                if cols > u16::MAX as usize {
                    return Err(WireError::TooLarge("row width"));
                }
                if rows.len() > u32::MAX as usize {
                    return Err(WireError::TooLarge("row count"));
                }
                put_u16(&mut out, cols as u16);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    if row.len() != cols {
                        return Err(WireError::TooLarge("ragged row"));
                    }
                    for &v in row {
                        put_u64(&mut out, v);
                    }
                }
            }
            Request::Ping => out.push(OP_PING),
        }
        Ok(out)
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let version = need(r.u8())?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let opcode = need(r.u8())?;
        let msg = match opcode {
            OP_QUERY => {
                let table = get_string(&mut r)?;
                let n = need(r.u16())? as usize;
                let mut predicates = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let dim = need(r.u16())? as usize;
                    let lo = need(r.u64())?;
                    let hi = need(r.u64())?;
                    predicates.push(raw_predicate(dim, lo, hi));
                }
                let aggregation = get_aggregation(&mut r)?;
                Request::Query {
                    table,
                    predicates,
                    aggregation,
                }
            }
            OP_INSERT => {
                let table = get_string(&mut r)?;
                let cols = need(r.u16())? as usize;
                let n = need(r.u32())? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let mut row = Vec::with_capacity(cols);
                    for _ in 0..cols {
                        row.push(need(r.u64())?);
                    }
                    rows.push(row);
                }
                Request::Insert { table, rows }
            }
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
                out.push(OP_RESULT);
                match r {
                    AggResult::Count(n) => {
                        out.push(0);
                        put_u64(&mut out, *n);
                    }
                    AggResult::Sum(s) => {
                        out.push(1);
                        out.extend(s.to_be_bytes());
                    }
                    AggResult::Min(v) => {
                        out.push(2);
                        put_opt_u64(&mut out, *v);
                    }
                    AggResult::Max(v) => {
                        out.push(3);
                        put_opt_u64(&mut out, *v);
                    }
                    AggResult::Avg(v) => {
                        out.push(4);
                        // f64 travels as its raw IEEE-754 bits: exact, no
                        // text round-trip loss.
                        put_opt_u64(&mut out, v.map(f64::to_bits));
                    }
                }
            }
            Response::Error { code, message } => {
                out.push(OP_ERROR);
                put_u16(&mut out, *code);
                put_str(&mut out, message)?;
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
        let version = need(r.u8())?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let opcode = need(r.u8())?;
        let msg = match opcode {
            OP_RESULT => {
                let tag = need(r.u8())?;
                let result = match tag {
                    0 => AggResult::Count(need(r.u64())?),
                    1 => AggResult::Sum(need(r.u128())?),
                    2 => AggResult::Min(get_opt_u64(&mut r)?),
                    3 => AggResult::Max(get_opt_u64(&mut r)?),
                    4 => AggResult::Avg(get_opt_u64(&mut r)?.map(f64::from_bits)),
                    tag => {
                        return Err(WireError::BadTag {
                            what: "agg result",
                            tag,
                        })
                    }
                };
                Response::Result(result)
            }
            OP_ERROR => Response::Error {
                code: need(r.u16())?,
                message: get_string(&mut r)?,
            },
            OP_PONG => Response::Pong,
            OP_INSERTED => Response::Inserted(need(r.u64())?),
            op => return Err(WireError::BadOpcode(op)),
        };
        r.finish().map_err(WireError::TrailingBytes)?;
        Ok(msg)
    }
}

/// Builds a `Predicate` from raw wire values without the lo<=hi validation —
/// the server validates semantically and answers with a typed error instead
/// of a wire-level rejection, so inverted ranges must survive decoding.
fn raw_predicate(dim: usize, lo: Value, hi: Value) -> Predicate {
    Predicate { dim, lo, hi }
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    if s.len() > u16::MAX as usize {
        return Err(WireError::TooLarge("string"));
    }
    put_u16(out, s.len() as u16);
    out.extend(s.as_bytes());
    Ok(())
}

fn put_aggregation(out: &mut Vec<u8>, agg: Aggregation) -> Result<(), WireError> {
    let (tag, dim) = match agg {
        Aggregation::Count => (0u8, None),
        Aggregation::Sum(d) => (1, Some(d)),
        Aggregation::Min(d) => (2, Some(d)),
        Aggregation::Max(d) => (3, Some(d)),
        Aggregation::Avg(d) => (4, Some(d)),
    };
    out.push(tag);
    if let Some(d) = dim {
        if d > u16::MAX as usize {
            return Err(WireError::TooLarge("aggregation dimension"));
        }
        put_u16(out, d as u16);
    }
    Ok(())
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

/// A primitive read only ever fails by running out of bytes.
fn need<T>(read: Option<T>) -> Result<T, WireError> {
    read.ok_or(WireError::Truncated)
}

fn get_opt_u64(r: &mut Reader) -> Result<Option<u64>, WireError> {
    match need(r.u8())? {
        0 => Ok(None),
        1 => Ok(Some(need(r.u64())?)),
        tag => Err(WireError::BadTag {
            what: "optional value",
            tag,
        }),
    }
}

fn get_string(r: &mut Reader) -> Result<String, WireError> {
    let len = need(r.u16())? as usize;
    let bytes = need(r.bytes(len))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
}

fn get_aggregation(r: &mut Reader) -> Result<Aggregation, WireError> {
    let tag = need(r.u8())?;
    Ok(match tag {
        0 => Aggregation::Count,
        1 => Aggregation::Sum(need(r.u16())? as usize),
        2 => Aggregation::Min(need(r.u16())? as usize),
        3 => Aggregation::Max(need(r.u16())? as usize),
        4 => Aggregation::Avg(need(r.u16())? as usize),
        tag => {
            return Err(WireError::BadTag {
                what: "aggregation",
                tag,
            })
        }
    })
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

        let payload = vec![VERSION, 0x7f];
        assert_eq!(Request::decode(&payload), Err(WireError::BadOpcode(0x7f)));

        let mut payload = Request::Ping.encode().unwrap();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));

        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
    }
}
