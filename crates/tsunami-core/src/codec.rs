//! Big-endian byte primitives shared by every hand-rolled binary format in
//! the workspace: the write-ahead log (`tsunami-store`), the wire protocol
//! (`tsunami-server`) and the index-spec codec (`tsunami-engine`).
//!
//! Only the primitives live here. The composites every format writes
//! (strings, predicates, queries, rows, ...) have one encoder and one
//! decoder, `tsunami_store::codec`, which all three formats share.

/// Appends `v` big-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` big-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Strict bounds-checked cursor over a byte slice. Every read returns `None`
/// — and consumes nothing — when fewer bytes remain than it needs; a read
/// never panics and never allocates.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed. Decoders check an untrusted element count
    /// against this *before* allocating for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.bytes(N)?.try_into().ok()
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// The next big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// The next big-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        self.array().map(u128::from_be_bytes)
    }

    /// Ends decoding: `Err(n)` if `n > 0` bytes were left unread. Every
    /// format here is strict — a complete message followed by anything is
    /// corrupt, not "a message plus padding".
    pub fn finish(self) -> Result<(), usize> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(left),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_big_endian_and_rejects_short_reads_without_consuming() {
        let mut out = vec![0xab];
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x0304_0506);
        put_u64(&mut out, 0x0708_090a_0b0c_0d0e);
        out.extend_from_slice(&7u128.to_be_bytes());
        assert_eq!(&out[..7], &[0xab, 1, 2, 3, 4, 5, 6]);

        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(0xab));
        assert_eq!(r.u16(), Some(0x0102));
        assert_eq!(r.u32(), Some(0x0304_0506));
        assert_eq!(r.u64(), Some(0x0708_090a_0b0c_0d0e));
        assert_eq!(r.bytes(usize::MAX), None);
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.u128(), Some(7));
        assert_eq!(r.u8(), None);
        assert_eq!(r.finish(), Ok(()));

        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u16(), Some(0x0102));
        assert_eq!(r.finish(), Err(1));
    }
}
