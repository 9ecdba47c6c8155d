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
//! Payloads sit behind [`Arc`]s and never change after encoding, so cloning
//! a block copies its header (bounds, class, two pointers) and shares the
//! bytes: a column that extends its encoded prefix while an older snapshot
//! still holds it copies headers, not payloads.
//!
//! # Choosing a payload
//!
//! A block takes the smallest payload, by bytes, under one rule: FOR if it
//! is smaller than plain, and FOR wins ties; Dict only if it is strictly
//! smaller than that incumbent (FOR when eligible, else plain); else plain.
//! [`EncodedBlock::encode`] reaches that decision in one pass plus a
//! bounded count, never sorting the block:
//!
//! 1. One pass over the rows computes the physical and live bounds. The
//!    spread `max - min` fixes the FOR class and so its bytes, and with
//!    them the incumbent.
//! 2. A dictionary of `u` values costs `8u` bytes of values plus its codes,
//!    in the class that holds `u - 1`. That grows with `u`, so there is a
//!    largest `u` (the *cap*) whose dictionary still undercuts the
//!    incumbent; none at all when it is already the cheapest class. For a
//!    full block of 1,024 rows: no dictionary beats W7 FOR (128 code words
//!    alone tie it), fewer than 128 values beat W15 FOR, fewer than 256 beat
//!    W31 FOR, and up to the 256-value dictionary limit beat plain.
//! 3. Distinct values are counted only up to the cap, in a fixed 512-slot
//!    open-addressing table on the stack, stopping at the first value past
//!    it. Dict wins exactly when the count stays within the cap, and only
//!    then are its at most 256 values sorted.
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

use std::sync::Arc;

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

/// Packs `codes` (each `< 2^width` of `class`) into delimiter-slot layout,
/// one word at a time. Unused tail slots of the final word are zero.
pub fn pack(mut codes: impl ExactSizeIterator<Item = u64>, class: PackClass) -> Arc<[u64]> {
    let words = class.words_for(codes.len());
    let slot = class.slot();
    (0..words)
        .map(|_| {
            let mut word = 0;
            for (k, code) in codes.by_ref().take(class.per_word()).enumerate() {
                debug_assert!(code <= class.value_mask());
                word |= code << (k as u32 * slot);
            }
            word
        })
        .collect()
}

/// Decodes fields `offset .. offset + out.len()` of a packed array through
/// `map`, in one loop per class (the class is matched once per call).
#[inline(always)]
fn unpack_into(
    packed: &[u64],
    class: PackClass,
    offset: usize,
    out: &mut [Value],
    map: impl Fn(u64) -> Value,
) {
    match class {
        PackClass::W7 => unpack_slots::<8>(packed, offset, out, map),
        PackClass::W15 => unpack_slots::<16>(packed, offset, out, map),
        PackClass::W31 => unpack_slots::<32>(packed, offset, out, map),
    }
}

/// [`unpack_into`] for one slot width: the word and shift of each field are
/// constant-divisor arithmetic, so the loop is shifts and masks.
#[inline(always)]
fn unpack_slots<const SLOT: usize>(
    packed: &[u64],
    offset: usize,
    out: &mut [Value],
    map: impl Fn(u64) -> Value,
) {
    let per_word = 64 / SLOT;
    let mask = (1u64 << (SLOT - 1)) - 1;
    for (k, value) in out.iter_mut().enumerate() {
        let i = offset + k;
        *value = map((packed[i / per_word] >> ((i % per_word) * SLOT)) & mask);
    }
}

/// One encoded block's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockData {
    /// Raw values (incompressible fallback; still carries block metadata).
    Plain(Arc<[Value]>),
    /// Frame-of-reference: field `i` stores `value_i - block_min`.
    For {
        class: PackClass,
        packed: Arc<[u64]>,
    },
    /// Dictionary: field `i` stores the rank of `value_i` in `uniques`
    /// (sorted ascending, so code order preserves value order).
    Dict {
        class: PackClass,
        uniques: Arc<[Value]>,
        packed: Arc<[u64]>,
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

/// Slots of the distinct-value table: twice [`DICT_MAX`], so the table is
/// at most half full before the count passes any cap.
const DISTINCT_SLOTS: usize = 2 * DICT_MAX;

/// The dictionary's code class for `distinct` values (`1..=DICT_MAX`).
fn dict_class(distinct: usize) -> PackClass {
    PackClass::for_bits(64 - (distinct as u64 - 1).leading_zeros())
        .expect("a dictionary of at most DICT_MAX values has a class")
}

/// The largest dictionary, in distinct values, whose payload over `len`
/// rows is strictly smaller than `incumbent` bytes; 0 when none is. A
/// dictionary's bytes grow with its count, and within one code class they
/// are `codes + 8 * distinct`, so each class's largest count is a division.
fn dict_cap(len: usize, incumbent: usize) -> usize {
    let mut cap = 0;
    for (lo, hi) in [(1, 128), (129, DICT_MAX)] {
        let codes = dict_class(hi).words_for(len) * 8;
        if let Some(room) = incumbent.checked_sub(codes + 1) {
            let fits = (room / 8).min(hi);
            if fits >= lo {
                cap = fits;
            }
        }
    }
    cap
}

/// The distinct values of `values` (unordered) if there are at most `cap`
/// of them; `None` as soon as one more turns up. Counts in a fixed
/// open-addressing table on the stack whose empty marker is `values[0]`,
/// which is counted up front.
fn distinct_up_to(values: &[Value], cap: usize) -> Option<Vec<Value>> {
    debug_assert!(cap <= DICT_MAX);
    let (&empty, rest) = values.split_first()?;
    if cap == 0 {
        return None;
    }
    let mut table = [empty; DISTINCT_SLOTS];
    let mut count = 1;
    for &v in rest {
        if v == empty {
            continue;
        }
        // Fibonacci hashing: the top bits of `v * 2^64 / phi`.
        let mut slot = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55) as usize;
        loop {
            let held = table[slot];
            if held == v {
                break;
            }
            if held == empty {
                count += 1;
                if count > cap {
                    return None;
                }
                table[slot] = v;
                break;
            }
            slot = (slot + 1) & (DISTINCT_SLOTS - 1);
        }
    }
    let mut uniques = Vec::with_capacity(count);
    uniques.push(empty);
    uniques.extend(table.iter().copied().filter(|&v| v != empty));
    Some(uniques)
}

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
    /// Encodes one block, choosing the cheapest eligible payload (module
    /// docs, "Choosing a payload").
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

        // A delta wider than the widest class (31 bits) has no FOR payload,
        // and one no smaller than plain is not eligible either.
        let for_class = PackClass::for_bits(64 - (max - min).leading_zeros())
            .filter(|c| c.words_for(values.len()) * 8 < plain_bytes);
        let incumbent = for_class.map_or(plain_bytes, |c| c.words_for(values.len()) * 8);
        let cap = dict_cap(values.len(), incumbent);

        let data = if let Some(mut uniques) = distinct_up_to(values, cap) {
            uniques.sort_unstable();
            let class = dict_class(uniques.len());
            let codes = values
                .iter()
                .map(|v| uniques.partition_point(|u| u < v) as u64);
            BlockData::Dict {
                class,
                packed: pack(codes, class),
                uniques: uniques.into(),
            }
        } else if let Some(class) = for_class {
            BlockData::For {
                class,
                packed: pack(values.iter().map(|&v| v - min), class),
            }
        } else {
            BlockData::Plain(values.into())
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
                let min = self.min;
                unpack_into(packed, *class, offset, out, |code| min + code);
            }
            BlockData::Dict {
                class,
                uniques,
                packed,
            } => unpack_into(packed, *class, offset, out, |code| uniques[code as usize]),
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
    use crate::sample::SplitMix;

    fn all_live(_: usize) -> bool {
        true
    }

    /// The sort-based chooser `EncodedBlock::encode` replaced, kept as the
    /// reference it must match bit for bit: count every distinct value by
    /// sorting a copy of the block, price all three payloads, pick by the
    /// same rule.
    fn encode_reference(values: &[Value], is_live: impl Fn(usize) -> bool) -> EncodedBlock {
        assert!(!values.is_empty() && values.len() <= BLOCK_ROWS);
        let mut min = Value::MAX;
        let mut max = Value::MIN;
        let mut live: Option<(Value, Value)> = None;
        for (i, &v) in values.iter().enumerate() {
            min = min.min(v);
            max = max.max(v);
            if is_live(i) {
                live = Some(live.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
            }
        }
        let plain_bytes = values.len() * 8;
        let for_class = PackClass::for_bits(64 - (max - min).leading_zeros());
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
                    uniques: uniques.into(),
                }
            }
            _ => BlockData::Plain(values.into()),
        };
        EncodedBlock {
            len: values.len() as u32,
            min,
            max,
            live,
            data,
        }
    }

    /// A seeded block of `len` rows holding `min(distinct, len)` distinct
    /// values whose spread is exactly `bits` bits wide (both ends present
    /// once there are two values), in shuffled order.
    fn sweep_block(rng: &mut SplitMix, len: usize, distinct: usize, bits: u32) -> Vec<Value> {
        let span = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let distinct = distinct
            .min(len)
            .min(span.saturating_add(1) as usize)
            .max(1);
        let base = rng.next_u64() & !span & (u64::MAX >> 1);
        let mut pool = vec![base];
        if distinct >= 2 {
            pool.push(base + span);
        }
        while pool.len() < distinct {
            let v = base + rng.next_u64() % span.max(1);
            if !pool.contains(&v) {
                pool.push(v);
            }
        }
        let mut values: Vec<Value> = (0..len)
            .map(|i| {
                if i < pool.len() {
                    pool[i]
                } else {
                    pool[rng.next_below(pool.len() as u64) as usize]
                }
            })
            .collect();
        for i in (1..len).rev() {
            values.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        values
    }

    /// Which local rows are live, by pattern: every row, none, every other,
    /// a seeded half, and every row but the ones holding the extremes.
    fn live_rows(pattern: usize, values: &[Value], rng: &mut SplitMix) -> Vec<bool> {
        let (lo, hi) = (values.iter().min().unwrap(), values.iter().max().unwrap());
        values
            .iter()
            .enumerate()
            .map(|(i, v)| match pattern {
                0 => true,
                1 => false,
                2 => i % 2 == 1,
                3 => rng.next_below(2) == 0,
                _ => v != lo && v != hi,
            })
            .collect()
    }

    /// Encodes one block both ways, asserts they are identical, checks that
    /// every row decodes back through `value_at` and `decode_into`, and
    /// names the payload and its class.
    fn check_against_reference(
        values: &[Value],
        live: &[bool],
        rng: &mut SplitMix,
    ) -> (&'static str, &'static str) {
        let fast = EncodedBlock::encode(values, |i| live[i]);
        let reference = encode_reference(values, |i| live[i]);
        assert_eq!(fast, reference, "{} rows: {values:?}", values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(fast.value_at(i), v);
        }
        let offset = rng.next_below(values.len() as u64) as usize;
        let n = rng.next_below((values.len() - offset) as u64 + 1) as usize;
        let mut out = vec![0; n];
        fast.decode_into(offset, &mut out);
        let expected: Vec<Value> = (offset..offset + n).map(|i| fast.value_at(i)).collect();
        assert_eq!(out, expected, "{} at {offset}+{n}", fast.kind_label());
        let mut all = vec![0; values.len()];
        fast.decode_into(0, &mut all);
        assert_eq!(all, values);
        let class = match fast.data() {
            BlockData::Plain(_) => "plain",
            BlockData::For { class, .. } | BlockData::Dict { class, .. } => match class {
                PackClass::W7 => "w7",
                PackClass::W15 => "w15",
                PackClass::W31 => "w31",
            },
        };
        (fast.kind_label(), class)
    }

    #[test]
    fn the_one_pass_chooser_matches_the_sorting_reference() {
        const BITS: [u32; 14] = [0, 1, 6, 7, 8, 14, 15, 16, 30, 31, 32, 40, 63, 64];
        const DISTINCT: [usize; 9] = [1, 2, 127, 128, 129, 255, 256, 257, 300];
        let mut rng = SplitMix::new(41);
        let mut seen = std::collections::BTreeMap::<(&str, &str), usize>::new();
        // Every length, with a seeded spread, distinct count and dead rows.
        for len in 1..=BLOCK_ROWS {
            let bits = BITS[rng.next_below(BITS.len() as u64) as usize];
            let distinct = match rng.next_below(3) {
                0 => DISTINCT[rng.next_below(DISTINCT.len() as u64) as usize],
                _ => 1 + rng.next_below(len as u64) as usize,
            };
            let values = sweep_block(&mut rng, len, distinct, bits);
            let live = live_rows(rng.next_below(5) as usize, &values, &mut rng);
            *seen
                .entry(check_against_reference(&values, &live, &mut rng))
                .or_default() += 1;
        }
        // Full and near-full blocks at every class edge and dictionary cap.
        for len in [BLOCK_ROWS, BLOCK_ROWS - 1, 1000, 513, 512, 257, 256, 129] {
            for bits in BITS {
                for distinct in DISTINCT {
                    let values = sweep_block(&mut rng, len, distinct, bits);
                    let live = live_rows(rng.next_below(5) as usize, &values, &mut rng);
                    *seen
                        .entry(check_against_reference(&values, &live, &mut rng))
                        .or_default() += 1;
                }
            }
        }
        // The sweep reached every payload in every class it can take.
        let kinds = [
            ("for", "w7"),
            ("for", "w15"),
            ("for", "w31"),
            ("dict", "w7"),
            ("dict", "w15"),
            ("plain", "plain"),
        ];
        for kind in kinds {
            assert!(seen.contains_key(&kind), "{kind:?} never chosen: {seen:?}");
        }
    }

    #[test]
    fn the_dictionary_cap_follows_the_for_class() {
        // A full block: W7 FOR is never undercut; W15 FOR by < 128 values,
        // W31 FOR by < 256; plain by any dictionary up to the limit.
        assert_eq!(dict_cap(BLOCK_ROWS, 1024), 0);
        assert_eq!(dict_cap(BLOCK_ROWS, 2048), 127);
        assert_eq!(dict_cap(BLOCK_ROWS, 4096), 255);
        assert_eq!(dict_cap(BLOCK_ROWS, 8192), DICT_MAX);
        // One row: nothing beats its 8 plain bytes.
        assert_eq!(dict_cap(1, 8), 0);
        for len in [1, 7, 8, 100, 513, BLOCK_ROWS] {
            for incumbent in (8..=len * 8).step_by(8) {
                let fits = |d: usize| dict_class(d).words_for(len) * 8 + d * 8 < incumbent;
                let cap = dict_cap(len, incumbent);
                assert!(cap == 0 || fits(cap), "{len} rows, {incumbent} B: {cap}");
                assert!(
                    cap == DICT_MAX || !fits(cap + 1),
                    "{len} rows, {incumbent} B: {cap}"
                );
            }
        }
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
