//! Per-block lightweight column encodings: frame-of-reference + bit-packing
//! and dictionary codes, with per-block min/max metadata.
//!
//! # Format
//!
//! A column's encoded region is a sequence of [`EncodedBlock`]s, each
//! covering exactly [`crate::exec::BLOCK_ROWS`] rows aligned to
//! the executor's absolute block grid (block `b` holds physical rows
//! `b * BLOCK_ROWS .. (b + 1) * BLOCK_ROWS`). Three payloads exist:
//!
//! * **FOR** — frame-of-reference + bit-packing: each value is stored as
//!   `value - block_min` in a fixed-width field. The natural fit for numeric
//!   dimensions whose per-block spread is far smaller than the `u64` domain.
//! * **Dict** — dictionary codes: the block's distinct values, sorted
//!   ascending, with each row storing its value's rank. Sorted codes preserve
//!   range-predicate semantics (a value range maps to a contiguous code
//!   range), so packed kernels work on dictionary blocks unchanged. Wins over
//!   FOR on low-cardinality dimensions whose values are spread wide.
//! * **Plain** — the raw values, kept when neither encoding saves space.
//!   Plain blocks still carry the min/max metadata, so they participate in
//!   block skipping.
//!
//! # Field layout
//!
//! Packed fields live in `width + 1`-bit slots: `width` payload bits plus one
//! spare **delimiter bit** (always 0 in storage) that the SWAR kernels in
//! [`exec::kernels`](crate::exec::kernels) borrow for word-parallel range
//! compares. Widths are quantized to [`PackClass`]es whose slot sizes divide
//! 64 (8/16/32 bits), so fields never straddle word boundaries and the
//! row-to-slot mapping is a shift and a mask — no division anywhere on the
//! scan path. The quantization costs a little density versus exact-width
//! packing, but buys branch-free constant-shift kernels.
//!
//! # Two bound pairs per block
//!
//! * `min`/`max` — **physical** bounds over every stored row, dead or alive.
//!   `min` is the FOR reference; packing must cover dead rows too because
//!   permutes and compactions decode them.
//! * `live_bounds` — bounds over the rows **live at encode time** (`None`
//!   when the whole block was dead). These drive skip-before-decode: after
//!   encoding, tombstone sets only grow (any mutation that revives or moves
//!   rows decodes the block first), so the true live set only shrinks and
//!   encode-time live bounds remain a sound over-approximation forever.

use crate::dataset::Value;
use crate::exec::BLOCK_ROWS;

/// The quantized packing widths. Slot = width + 1 bits (one spare delimiter
/// bit for the SWAR kernels); every slot size divides 64, so a word holds a
/// whole number of fields and extraction is shift-and-mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackClass {
    /// 7-bit fields in 8-bit slots: 8 fields per word (8× vs plain).
    W7,
    /// 15-bit fields in 16-bit slots: 4 fields per word (4× vs plain).
    W15,
    /// 31-bit fields in 32-bit slots: 2 fields per word (2× vs plain).
    W31,
}

impl PackClass {
    /// Payload bits per field.
    #[inline(always)]
    pub fn width(self) -> u32 {
        match self {
            PackClass::W7 => 7,
            PackClass::W15 => 15,
            PackClass::W31 => 31,
        }
    }

    /// Slot bits per field (width + delimiter).
    #[inline(always)]
    pub fn slot(self) -> u32 {
        self.width() + 1
    }

    /// Fields per 64-bit word.
    #[inline(always)]
    pub fn per_word(self) -> usize {
        (64 / self.slot()) as usize
    }

    /// `log2(per_word)`, so `row / per_word` is a shift.
    #[inline(always)]
    pub fn log_per_word(self) -> u32 {
        match self {
            PackClass::W7 => 3,
            PackClass::W15 => 2,
            PackClass::W31 => 1,
        }
    }

    /// Mask of one field's payload bits.
    #[inline(always)]
    pub fn value_mask(self) -> u64 {
        (1u64 << self.width()) - 1
    }

    /// Mask of every delimiter bit in a word.
    #[inline(always)]
    pub fn delim_mask(self) -> u64 {
        match self {
            PackClass::W7 => 0x8080_8080_8080_8080,
            PackClass::W15 => 0x8000_8000_8000_8000,
            PackClass::W31 => 0x8000_0000_8000_0000,
        }
    }

    /// A word with 1 in the lowest bit of every slot (the SWAR replication
    /// constant: `c * low_ones()` broadcasts `c` to every field).
    #[inline(always)]
    pub fn low_ones(self) -> u64 {
        match self {
            PackClass::W7 => 0x0101_0101_0101_0101,
            PackClass::W15 => 0x0001_0001_0001_0001,
            PackClass::W31 => 0x0000_0001_0000_0001,
        }
    }

    /// The smallest class whose payload width holds `bits` bits, if any.
    pub fn for_bits(bits: u32) -> Option<PackClass> {
        match bits {
            0..=7 => Some(PackClass::W7),
            8..=15 => Some(PackClass::W15),
            16..=31 => Some(PackClass::W31),
            _ => None,
        }
    }

    /// Packed words needed for `len` fields.
    pub fn words_for(self, len: usize) -> usize {
        len.div_ceil(self.per_word())
    }
}

/// Extracts field `i` of a packed array (raw code, no FOR/dict mapping).
#[inline(always)]
pub fn extract(packed: &[u64], class: PackClass, i: usize) -> u64 {
    let w = i >> class.log_per_word();
    let s = ((i & (class.per_word() - 1)) as u32) * class.slot();
    (packed[w] >> s) & class.value_mask()
}

/// Packs `codes` (each `< 2^width` of `class`) into delimiter-slot layout.
/// Unused tail slots of the final word are zero.
pub fn pack(codes: impl ExactSizeIterator<Item = u64>, class: PackClass) -> Box<[u64]> {
    let len = codes.len();
    let f = class.per_word();
    let slot = class.slot();
    let mut out = vec![0u64; class.words_for(len)];
    for (i, code) in codes.enumerate() {
        debug_assert!(code <= class.value_mask());
        out[i >> class.log_per_word()] |= code << (((i & (f - 1)) as u32) * slot);
    }
    out.into_boxed_slice()
}

/// One encoded block's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockData {
    /// Raw values (incompressible fallback; still carries block metadata).
    Plain(Box<[Value]>),
    /// Frame-of-reference: field `i` stores `value_i - block_min`.
    For {
        class: PackClass,
        packed: Box<[u64]>,
    },
    /// Dictionary: field `i` stores the rank of `value_i` in `uniques`
    /// (sorted ascending, so code order preserves value order).
    Dict {
        class: PackClass,
        uniques: Box<[Value]>,
        packed: Box<[u64]>,
    },
}

/// A range predicate translated into one block's representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockTest {
    /// No live row of the block can match: skip without decoding.
    Skip,
    /// Every live row matches: drop this predicate for the block.
    AllLive,
    /// Test packed codes against `lo <= code` and (when `hi` is `Some`)
    /// `code <= hi`. `hi = None` means every stored code passes the upper
    /// bound, which also guarantees `hi + 1` never overflows the field width
    /// in the SWAR kernels.
    Packed { lo: u64, hi: Option<u64> },
    /// Plain payload: evaluate the predicate on the raw values.
    Plain,
}

/// Dictionary encoding is considered only up to this many distinct values
/// per block.
const DICT_MAX: usize = 256;

/// One grid-aligned encoded block with its scan metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlock {
    len: u32,
    /// Physical minimum over every stored row (the FOR reference).
    min: Value,
    /// Physical maximum over every stored row.
    max: Value,
    /// Bounds over the rows live at encode time; `None` = block fully dead.
    live: Option<(Value, Value)>,
    data: BlockData,
}

impl EncodedBlock {
    /// Encodes one block, choosing the cheapest eligible payload.
    ///
    /// `is_live(i)` reports whether local row `i` is live; live bounds are
    /// computed from live rows only, while the payload (and physical
    /// min/max) covers every row — dead rows must survive decode/permute.
    pub fn encode(values: &[Value], is_live: impl Fn(usize) -> bool) -> Self {
        assert!(!values.is_empty() && values.len() <= BLOCK_ROWS);
        let mut min = Value::MAX;
        let mut max = Value::MIN;
        let mut live_lo = Value::MAX;
        let mut live_hi = Value::MIN;
        let mut any_live = false;
        for (i, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            if is_live(i) {
                any_live = true;
                live_lo = live_lo.min(v);
                live_hi = live_hi.max(v);
            }
        }
        let live = any_live.then_some((live_lo, live_hi));
        let plain_bytes = values.len() * 8;

        let delta = max - min;
        let delta_bits = 64 - delta.leading_zeros();
        // A delta wider than the widest class (31 bits) has no FOR payload.
        let for_class = PackClass::for_bits(delta_bits);
        let for_bytes = for_class.map(|c| c.words_for(values.len()) * 8);

        let mut uniques: Vec<Value> = values.to_vec();
        uniques.sort_unstable();
        uniques.dedup();
        let dict_class = if uniques.len() <= DICT_MAX {
            PackClass::for_bits(64 - (uniques.len() as u64 - 1).leading_zeros())
        } else {
            None
        };
        let dict_bytes = dict_class.map(|c| c.words_for(values.len()) * 8 + uniques.len() * 8);

        let data = match (for_class, for_bytes, dict_class, dict_bytes) {
            // FOR wins ties: no indirection on decode.
            (Some(fc), Some(fb), _, db) if fb < plain_bytes && db.is_none_or(|d| fb <= d) => {
                BlockData::For {
                    class: fc,
                    packed: pack(values.iter().map(|&v| v - min), fc),
                }
            }
            (_, _, Some(dc), Some(db)) if db < plain_bytes => {
                let codes = values
                    .iter()
                    .map(|v| uniques.partition_point(|u| u < v) as u64);
                BlockData::Dict {
                    class: dc,
                    packed: pack(codes, dc),
                    uniques: uniques.into_boxed_slice(),
                }
            }
            _ => BlockData::Plain(values.to_vec().into_boxed_slice()),
        };
        Self {
            len: values.len() as u32,
            min,
            max,
            live,
            data,
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Never empty (asserted at encode).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Physical bounds over every stored row.
    pub fn bounds(&self) -> (Value, Value) {
        (self.min, self.max)
    }

    /// Bounds over the rows live at encode time (`None` = fully dead).
    /// Sound to prune on forever: the live set only shrinks after encoding.
    pub fn live_bounds(&self) -> Option<(Value, Value)> {
        self.live
    }

    /// The payload.
    pub fn data(&self) -> &BlockData {
        &self.data
    }

    /// Short payload label for stats and bench tables.
    pub fn kind_label(&self) -> &'static str {
        match self.data {
            BlockData::Plain(_) => "plain",
            BlockData::For { .. } => "for",
            BlockData::Dict { .. } => "dict",
        }
    }

    /// Value of local row `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        debug_assert!(i < self.len());
        match &self.data {
            BlockData::Plain(vals) => vals[i],
            BlockData::For { class, packed } => self.min + extract(packed, *class, i),
            BlockData::Dict {
                class,
                uniques,
                packed,
            } => uniques[extract(packed, *class, i) as usize],
        }
    }

    /// Decodes local rows `offset .. offset + out.len()` into `out`.
    pub fn decode_into(&self, offset: usize, out: &mut [Value]) {
        debug_assert!(offset + out.len() <= self.len());
        match &self.data {
            BlockData::Plain(vals) => out.copy_from_slice(&vals[offset..offset + out.len()]),
            BlockData::For { class, packed } => {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = self.min + extract(packed, *class, offset + k);
                }
            }
            BlockData::Dict {
                class,
                uniques,
                packed,
            } => {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = uniques[extract(packed, *class, offset + k) as usize];
                }
            }
        }
    }

    /// Translates the value range `[lo, hi]` into this block's
    /// representation, using the live bounds for skip / all-match decisions.
    pub fn classify(&self, lo: Value, hi: Value) -> BlockTest {
        let Some((live_lo, live_hi)) = self.live else {
            return BlockTest::Skip;
        };
        if hi < live_lo || lo > live_hi {
            return BlockTest::Skip;
        }
        if lo <= live_lo && live_hi <= hi {
            return BlockTest::AllLive;
        }
        match &self.data {
            BlockData::Plain(_) => BlockTest::Plain,
            BlockData::For { .. } => {
                // Not Skip, so [lo, hi] overlaps the live bounds, which sit
                // inside the physical bounds: hi >= min and lo <= max.
                let delta = self.max - self.min;
                let lo_code = lo.saturating_sub(self.min);
                let hi_code = hi - self.min;
                debug_assert!(lo_code <= delta);
                if lo_code == 0 && hi_code >= delta {
                    // Every physical row matches (even stronger than the
                    // live-bounds check above, which may be narrower).
                    return BlockTest::AllLive;
                }
                BlockTest::Packed {
                    lo: lo_code,
                    hi: (hi_code < delta).then_some(hi_code),
                }
            }
            BlockData::Dict { uniques, .. } => {
                let lo_c = uniques.partition_point(|&u| u < lo);
                let hi_c = uniques.partition_point(|&u| u <= hi);
                if lo_c >= hi_c {
                    return BlockTest::Skip;
                }
                if lo_c == 0 && hi_c == uniques.len() {
                    return BlockTest::AllLive;
                }
                BlockTest::Packed {
                    lo: lo_c as u64,
                    hi: (hi_c < uniques.len()).then_some(hi_c as u64 - 1),
                }
            }
        }
    }

    /// Approximate heap bytes of the payload.
    pub fn size_bytes(&self) -> usize {
        match &self.data {
            BlockData::Plain(vals) => vals.len() * 8,
            BlockData::For { packed, .. } => packed.len() * 8,
            BlockData::Dict {
                uniques, packed, ..
            } => uniques.len() * 8 + packed.len() * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_live(_: usize) -> bool {
        true
    }

    #[test]
    fn pack_and_extract_round_trip_every_class() {
        for class in [PackClass::W7, PackClass::W15, PackClass::W31] {
            let m = class.value_mask();
            let codes: Vec<u64> = (0..317u64).map(|i| (i * 2654435761) & m).collect();
            let packed = pack(codes.iter().copied(), class);
            assert_eq!(packed.len(), class.words_for(codes.len()));
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(extract(&packed, class, i), c, "{class:?} field {i}");
            }
            // Delimiter bits are never set in storage.
            for w in packed.iter() {
                assert_eq!(w & class.delim_mask(), 0);
            }
        }
    }

    #[test]
    fn encode_picks_for_on_narrow_numeric_blocks() {
        let vals: Vec<Value> = (0..1024u64).map(|i| 5_000 + (i * 37) % 4096).collect();
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.kind_label(), "for");
        assert!(b.size_bytes() < vals.len() * 8 / 3);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.value_at(i), v);
        }
        let mut out = vec![0; 100];
        b.decode_into(500, &mut out);
        assert_eq!(&out[..], &vals[500..600]);
    }

    #[test]
    fn encode_picks_dict_on_low_cardinality_wide_values() {
        // 16 distinct values spread over the whole u64 domain: FOR is
        // ineligible (delta needs > 31 bits), Dict packs 8 codes per word.
        let uniques: Vec<Value> = (0..16u64).map(|i| i * 0x0100_0000_0000_0001).collect();
        let vals: Vec<Value> = (0..1024usize).map(|i| uniques[(i * 7) % 16]).collect();
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.kind_label(), "dict");
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.value_at(i), v);
        }
    }

    #[test]
    fn encode_falls_back_to_plain_on_incompressible_blocks() {
        let vals: Vec<Value> = (0..1024u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.kind_label(), "plain");
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.value_at(i), v);
        }
    }

    #[test]
    fn classify_uses_live_bounds_and_translates_codes() {
        let vals: Vec<Value> = (0..1024u64).map(|i| 1000 + i).collect();
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.bounds(), (1000, 2023));
        assert_eq!(b.classify(0, 999), BlockTest::Skip);
        assert_eq!(b.classify(2024, u64::MAX), BlockTest::Skip);
        assert_eq!(b.classify(0, u64::MAX), BlockTest::AllLive);
        assert_eq!(b.classify(1000, 2023), BlockTest::AllLive);
        match b.classify(1500, 1600) {
            BlockTest::Packed { lo, hi } => {
                assert_eq!(lo, 500);
                assert_eq!(hi, Some(600));
            }
            other => panic!("expected packed test, got {other:?}"),
        }
        // Upper bound covering the whole block needs no hi test.
        match b.classify(1500, 5000) {
            BlockTest::Packed { lo: 500, hi: None } => {}
            other => panic!("expected open-topped packed test, got {other:?}"),
        }
    }

    #[test]
    fn dead_rows_shape_physical_but_not_live_bounds() {
        // Rows 0 and 1 hold the extremes but are dead.
        let mut vals: Vec<Value> = (0..256u64).map(|i| 100 + i).collect();
        vals[0] = 1;
        vals[1] = 1_000_000;
        let b = EncodedBlock::encode(&vals, |i| i >= 2);
        assert_eq!(b.bounds(), (1, 1_000_000));
        assert_eq!(b.live_bounds(), Some((102, 355)));
        // A predicate touching only the dead extremes must skip...
        assert_eq!(b.classify(0, 50), BlockTest::Skip);
        assert_eq!(b.classify(500_000, u64::MAX), BlockTest::Skip);
        // ...while one covering the live span is all-match, and dead rows
        // still decode exactly (they are masked elsewhere, not here).
        assert_eq!(b.classify(102, 355), BlockTest::AllLive);
        assert_eq!(b.value_at(0), 1);
        assert_eq!(b.value_at(1), 1_000_000);
    }

    #[test]
    fn fully_dead_block_always_skips() {
        let vals: Vec<Value> = (0..64u64).collect();
        let b = EncodedBlock::encode(&vals, |_| false);
        assert_eq!(b.live_bounds(), None);
        assert_eq!(b.classify(0, u64::MAX), BlockTest::Skip);
    }

    #[test]
    fn dict_classify_maps_value_ranges_to_code_ranges() {
        let uniques: Vec<Value> = vec![10, 20, 30, 40, u64::MAX / 2];
        let vals: Vec<Value> = (0..512usize).map(|i| uniques[i % 5]).collect();
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.kind_label(), "dict");
        // [15, 35] covers uniques 20 and 30 -> codes 1..=2.
        match b.classify(15, 35) {
            BlockTest::Packed { lo: 1, hi: Some(2) } => {}
            other => panic!("unexpected {other:?}"),
        }
        // A gap between uniques matches nothing.
        assert_eq!(b.classify(21, 29), BlockTest::Skip);
        // Covering the top unique leaves the upper test open.
        match b.classify(25, u64::MAX) {
            BlockTest::Packed { lo: 2, hi: None } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_block_packs_tight() {
        let vals = vec![42u64; 1024];
        let b = EncodedBlock::encode(&vals, all_live);
        assert_eq!(b.kind_label(), "for");
        assert_eq!(b.size_bytes(), 1024 / 8 * 8);
        assert_eq!(b.value_at(1023), 42);
        assert_eq!(b.classify(42, 42), BlockTest::AllLive);
        assert_eq!(b.classify(0, 41), BlockTest::Skip);
    }
}
