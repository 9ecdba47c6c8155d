//! One encoder and one decoder for every composite value the workspace
//! writes down: the write-ahead log's records and the checkpoint
//! ([`crate::wal`]), the engine's index-spec codec and the wire protocol's
//! frames all build their bodies out of these.
//!
//! | Composite | Encoding |
//! |-----------|----------|
//! | bytes | `u32` length + the bytes |
//! | string | bytes, valid UTF-8 |
//! | list | `u32` count + each item |
//! | predicate | `u32` dim, `u64` lo, `u64` hi — decoded raw, `lo > hi` survives |
//! | aggregation | `u8` tag (0=COUNT 1=SUM 2=MIN 3=MAX 4=AVG) + `u32` dim (absent for COUNT) |
//! | query | predicate list + aggregation |
//! | rows | `u32` width, `u32` count, then the `u64` values column by column |
//! | `f64` | its IEEE-754 bits as a `u64` |
//! | optional `u64` | `u8` 0 (none), or 1 + the `u64` |
//!
//! Integers are big-endian ([`tsunami_core::codec`]'s primitives). Every
//! length, count and dimension is a `u32`, narrowed in one place,
//! [`put_len`]: a value its field cannot hold is a
//! [`CodecError::TooLarge`], never a silent truncation. Decoding is strict
//! and never panics: a short read, or a count whose values the remaining
//! bytes cannot hold, is [`CodecError::Truncated`] before anything is
//! allocated for it.

use tsunami_core::codec::{put_u32, put_u64, Reader};
use tsunami_core::{Aggregation, Dataset, Point, Predicate, Query};

/// Why a value could not be encoded or decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the value did — or a count promised more
    /// values than the remaining bytes hold.
    Truncated,
    /// A field held a value no encoder writes (`what` names the field).
    Invalid(&'static str),
    /// A length, count or dimension does not fit its `u32` field (`what`
    /// names the field).
    TooLarge(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated body"),
            CodecError::Invalid(what) => write!(f, "invalid {what}"),
            CodecError::TooLarge(what) => write!(f, "{what} exceeds its u32 field"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

/// A primitive read only ever fails by running out of bytes.
pub fn need<T>(read: Option<T>) -> Result<T> {
    read.ok_or(CodecError::Truncated)
}

/// Writes a length, count or dimension as its `u32` field.
pub fn put_len(out: &mut Vec<u8>, n: usize, what: &'static str) -> Result<()> {
    let n = u32::try_from(n).map_err(|_| CodecError::TooLarge(what))?;
    put_u32(out, n);
    Ok(())
}

/// Reads a length, count or dimension.
pub fn get_len(r: &mut Reader) -> Result<usize> {
    need(r.u32()).map(|n| n as usize)
}

/// Writes a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<()> {
    put_len(out, bytes.len(), "byte length")?;
    out.extend_from_slice(bytes);
    Ok(())
}

/// Reads a length-prefixed byte string.
pub fn get_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8]> {
    let len = get_len(r)?;
    need(r.bytes(len))
}

/// Writes a string.
pub fn put_string(out: &mut Vec<u8>, s: &str) -> Result<()> {
    put_bytes(out, s.as_bytes())
}

/// Reads a string.
pub fn get_string(r: &mut Reader) -> Result<String> {
    String::from_utf8(get_bytes(r)?.to_vec()).map_err(|_| CodecError::Invalid("UTF-8 string"))
}

/// Writes a count followed by each item.
pub fn put_list<T>(
    out: &mut Vec<u8>,
    items: &[T],
    put: impl Fn(&mut Vec<u8>, &T) -> Result<()>,
) -> Result<()> {
    put_len(out, items.len(), "list count")?;
    items.iter().try_for_each(|item| put(out, item))
}

/// Reads a list. Nothing is pre-sized for the count, and every item takes at
/// least one byte, so a lying count runs out of bytes, not memory.
pub fn get_list<T>(r: &mut Reader, get: impl Fn(&mut Reader) -> Result<T>) -> Result<Vec<T>> {
    let n = get_len(r)?;
    (0..n).map(|_| get(r)).collect()
}

/// Writes a predicate.
pub fn put_predicate(out: &mut Vec<u8>, p: &Predicate) -> Result<()> {
    put_len(out, p.dim, "predicate dimension")?;
    put_u64(out, p.lo);
    put_u64(out, p.hi);
    Ok(())
}

/// Reads a predicate as written, without the `lo <= hi` check: the wire
/// carries an inverted range to the server, which answers it with a typed
/// error, and the WAL refuses a delete that holds one.
pub fn get_predicate(r: &mut Reader) -> Result<Predicate> {
    Ok(Predicate {
        dim: get_len(r)?,
        lo: need(r.u64())?,
        hi: need(r.u64())?,
    })
}

/// Writes an aggregation.
pub fn put_aggregation(out: &mut Vec<u8>, agg: Aggregation) -> Result<()> {
    let (tag, dim) = match agg {
        Aggregation::Count => (0, None),
        Aggregation::Sum(d) => (1, Some(d)),
        Aggregation::Min(d) => (2, Some(d)),
        Aggregation::Max(d) => (3, Some(d)),
        Aggregation::Avg(d) => (4, Some(d)),
    };
    out.push(tag);
    dim.map_or(Ok(()), |d| put_len(out, d, "aggregation dimension"))
}

/// Reads an aggregation.
pub fn get_aggregation(r: &mut Reader) -> Result<Aggregation> {
    Ok(match need(r.u8())? {
        0 => Aggregation::Count,
        1 => Aggregation::Sum(get_len(r)?),
        2 => Aggregation::Min(get_len(r)?),
        3 => Aggregation::Max(get_len(r)?),
        4 => Aggregation::Avg(get_len(r)?),
        _ => return Err(CodecError::Invalid("aggregation tag")),
    })
}

/// Writes a query: its predicate list, then its aggregation.
pub fn put_query(out: &mut Vec<u8>, q: &Query) -> Result<()> {
    put_list(out, q.predicates(), put_predicate)?;
    put_aggregation(out, q.aggregation())
}

/// Reads a query. Unlike a bare predicate, a query is validated: one that
/// [`Query::new`] rejects (an inverted range) is invalid.
pub fn get_query(r: &mut Reader) -> Result<Query> {
    let predicates = get_list(r, get_predicate)?;
    let aggregation = get_aggregation(r)?;
    Query::new(predicates, aggregation).map_err(|_| CodecError::Invalid("query"))
}

/// The widest *zero* rows the codec writes or reads. A column costs memory
/// even when it holds no value, so the width of zero rows cannot be checked
/// against the bytes that follow it; it is bounded here instead. The width
/// of one or more rows is bounded by their values' bytes alone.
pub const MAX_ROW_WIDTH: usize = u16::MAX as usize;

/// Rows without columns have no values to write, so only an empty set of
/// them is representable.
fn check_rows(width: usize, count: usize) -> Result<()> {
    match (width, count) {
        (0, 1..) => Err(CodecError::Invalid("rows without columns")),
        (w, 0) if w > MAX_ROW_WIDTH => Err(CodecError::Invalid("zero rows over MAX_ROW_WIDTH")),
        _ => Ok(()),
    }
}

/// Writes `count` rows of `width` values, column by column: `column(d)`
/// yields dimension `d`'s values, a [`Dataset`]'s column or a slice of
/// points read across.
pub fn put_rows<'v, I: IntoIterator<Item = &'v u64>>(
    out: &mut Vec<u8>,
    (width, count): (usize, usize),
    column: impl Fn(usize) -> I,
) -> Result<()> {
    check_rows(width, count)?;
    put_len(out, width, "row width")?;
    put_len(out, count, "row count")?;
    out.reserve(width * count * 8);
    (0..width).flat_map(column).for_each(|&v| put_u64(out, v));
    Ok(())
}

/// Rows read by [`get_rows`]: a width and count whose values the bytes were
/// checked to hold, decoded into whichever shape the caller needs.
#[derive(Debug)]
pub struct Rows<'a> {
    width: usize,
    count: usize,
    values: &'a [u8],
}

impl Rows<'_> {
    fn value(&self, dim: usize, row: usize) -> u64 {
        let at = (dim * self.count + row) * 8;
        u64::from_be_bytes(self.values[at..at + 8].try_into().expect("8 bytes"))
    }

    /// The rows as a column-major [`Dataset`].
    pub fn dataset(&self) -> Dataset {
        if self.width == 0 {
            return Dataset::empty(0);
        }
        let column = |d| (0..self.count).map(|i| self.value(d, i)).collect();
        Dataset::from_columns((0..self.width).map(column).collect()).expect("equal columns")
    }

    /// The rows as row-major points.
    pub fn points(&self) -> Vec<Point> {
        let point = |i| (0..self.width).map(|d| self.value(d, i)).collect();
        (0..self.count).map(point).collect()
    }
}

/// Reads rows written by [`put_rows`]. The values are checked against the
/// remaining bytes — the width of zero rows against [`MAX_ROW_WIDTH`] —
/// before anything is allocated for them.
pub fn get_rows<'a>(r: &mut Reader<'a>) -> Result<Rows<'a>> {
    let (width, count) = (get_len(r)?, get_len(r)?);
    check_rows(width, count)?;
    let bytes = width.checked_mul(count).and_then(|n| n.checked_mul(8));
    let values = need(bytes.and_then(|n| r.bytes(n)))?;
    Ok(Rows {
        width,
        count,
        values,
    })
}

/// Writes an `f64` as its bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Reads an `f64`.
pub fn get_f64(r: &mut Reader) -> Result<f64> {
    need(r.u64()).map(f64::from_bits)
}

/// Writes an optional `u64`.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(v.is_some() as u8);
    out.extend(v.iter().flat_map(|v| v.to_be_bytes()));
}

/// Reads an optional `u64`.
pub fn get_opt_u64(r: &mut Reader) -> Result<Option<u64>> {
    match need(r.u8())? {
        0 => Ok(None),
        1 => need(r.u64()).map(Some),
        _ => Err(CodecError::Invalid("optional value tag")),
    }
}
