//! Branchless block kernels for predicate evaluation and aggregation.
//!
//! Everything in this module operates on one *block* of at most
//! [`BLOCK_ROWS`] contiguous rows of a single column. A block's selection is
//! a **bitmap** — one bit per row, packed into `u64` words:
//!
//! * on plain rows, the first predicate builds the bitmap from 8-lane mask
//!   groups (`u64x8`-style manual unrolling, no data-dependent branch),
//!   and each further predicate `AND`s into it. A refine whose bitmap
//!   already selects fewer than one row in `SPARSE_REFINE` tests only the
//!   selected rows instead of the whole block — the same bits, decided per
//!   block from the bitmap itself;
//! * on packed rows (frame-of-reference or dictionary codes, see
//!   [`crate::encode`]), range tests run as SWAR compares directly on the
//!   packed words, 8/4/2 rows per ALU op, over windows that start on a
//!   packed word (`PACK_GRID`).
//!
//! Aggregation is mask-native: `COUNT` is a popcount, `SUM`/`MIN`/`MAX` on
//! plain rows are masked folds with a whole-word fast path for fully set
//! words. A packed aggregation input folds its codes straight off the
//! bitmap, with no per-row decode: each packed slot (8, 16 or 32 bits, its
//! delimiter bit clear in storage) is read as a native `u8`/`u16`/`u32`,
//! each bitmap bit widens to an all-ones-or-zero mask, `MIN`/`MAX` fold
//! the masked codes (FOR or Dict: both keep value order) into 64 running
//! extremes, one per row position of a bitmap word, and `SUM` adds each
//! bitmap word's masked FOR codes in one reduction.
//!
//! The packed kernels' hot loops keep one shape, so that LLVM vectorizes
//! them in both builds of the packed path (below):
//!
//! * they walk slices (`chunks_exact`, `zip`), never a running index: an
//!   index into `packed[w + j]` keeps a bounds check on every word and
//!   leaves the group scalar;
//! * a fold keeps independent accumulators and combines them once per
//!   window, so no row waits on the one before it: the packed `MIN`/`MAX`
//!   keep 64 lanes of a native integer type, whose `min`/`max` over arrays
//!   vectorize. An add reduction (`COUNT`, `SUM`) keeps one running value,
//!   as LLVM splits those into vector accumulators itself;
//! * a row's selection is a mask ANDed or ORed in, never a branch;
//! * the class `match` stays outside the loop, so each arm is a
//!   monomorphic body;
//! * per-word bit moves prefer shifts, ORs and ANDs to 64-bit multiplies,
//!   which AVX2 has no vector form of (W7's `densify` keeps its one
//!   gathering multiply: three shift-ORs read slower there).
//!
//! All kernels are deliberately total functions of their inputs — given the
//! same block and predicates they produce the same selection whatever the
//! encoding or density, which is what makes the executor's kernel tiers
//! bit-identical (see the [`exec`](super) module docs).
//!
//! Every kernel the executor calls, and every closure handed to one, is
//! `#[inline(always)]`: the executor compiles the packed path a second time
//! with x86-64-v3's features (AVX2 compares for the 8-lane groups,
//! hardware popcount for `COUNT` and the packed folds) and picks a build
//! once per scan participant, so a kernel left out of line would run its
//! portable code in both. No kernel detects CPU features itself.

use super::BLOCK_ROWS;
use crate::dataset::Value;
use crate::encode::PackClass;
use crate::query::Predicate;

/// Bits per bitmap word.
pub(crate) const WORD_BITS: usize = 64;
/// Bitmap words per block.
pub(crate) const BLOCK_WORDS: usize = BLOCK_ROWS / WORD_BITS;
/// Manual unroll width of the mask kernels.
const LANES: usize = 8;
/// Rows per packed word of the narrowest pack class (W7's 8). Every
/// class's fields per word divide it, and blocks start on multiples of it,
/// so a window starting on this grid starts on a packed word in every
/// class and never leaves its block. The executor starts every
/// packed-tier window on it, which the packed mask and fold kernels
/// require.
pub(crate) const PACK_GRID: usize = 8;

/// Reusable per-thread scratch space for the block kernels: a full-block
/// selection vector (the scalar oracle's) and a full-block selection bitmap.
/// Executors allocate one per call (or per worker thread) and reuse it
/// across every block they scan.
#[derive(Debug, Clone)]
pub struct BlockScratch {
    /// Selection-vector buffer of the scalar oracle; always `BLOCK_ROWS`
    /// long, the scan keeps the live prefix length.
    pub(crate) sel: Vec<u32>,
    /// Selection-bitmap buffer; always `BLOCK_WORDS` words.
    pub(crate) words: Vec<u64>,
}

impl BlockScratch {
    /// Allocates scratch space for one scanning thread.
    pub fn new() -> Self {
        Self {
            sel: vec![0; BLOCK_ROWS],
            words: vec![0; BLOCK_WORDS],
        }
    }
}

impl Default for BlockScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Match mask of 8 consecutive values as the low 8 bits of a `u64`.
#[inline(always)]
fn lane_mask8(v: &[Value], p: Predicate) -> u64 {
    debug_assert_eq!(v.len(), LANES);
    (p.matches(v[0]) as u64)
        | (p.matches(v[1]) as u64) << 1
        | (p.matches(v[2]) as u64) << 2
        | (p.matches(v[3]) as u64) << 3
        | (p.matches(v[4]) as u64) << 4
        | (p.matches(v[5]) as u64) << 5
        | (p.matches(v[6]) as u64) << 6
        | (p.matches(v[7]) as u64) << 7
}

/// Match mask of up to 64 values as one bitmap word (bit `i` = value `i`
/// matches). Built from 8-lane groups; the partial tail is handled scalar.
#[inline(always)]
fn word_mask(chunk: &[Value], p: Predicate) -> u64 {
    debug_assert!(chunk.len() <= WORD_BITS);
    let mut word = 0u64;
    let mut shift = 0u32;
    let mut lanes = chunk.chunks_exact(LANES);
    for group in &mut lanes {
        word |= lane_mask8(group, p) << shift;
        shift += LANES as u32;
    }
    for (i, &v) in lanes.remainder().iter().enumerate() {
        word |= (p.matches(v) as u64) << (shift + i as u32);
    }
    word
}

/// Evaluates the first predicate of a block into a selection bitmap.
/// Returns the OR of all words, so callers can skip further refinement and
/// aggregation when the selection is already empty.
#[inline(always)]
pub(crate) fn mask_first(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    mask_words(block, p, MaskMode::Set, words)
}

/// Sets or ANDs the match mask of every word of `block` into `words`;
/// returns the OR of the resulting words. Baseline x86-64 has no 64-bit
/// vector compare, so the 8-lane groups vectorize only in the executor's
/// x86-64-v3 build of the packed path (see the [`exec`](super) module docs).
#[inline(always)]
fn mask_words(block: &[Value], p: Predicate, mode: MaskMode, words: &mut [u64]) -> u64 {
    let mut any = 0u64;
    for (w, chunk) in block.chunks(WORD_BITS).enumerate() {
        any |= apply_mask_word(mode, words, w, word_mask(chunk, p));
    }
    any
}

/// A refine tests only the selected rows once fewer than one row in this
/// many is still selected: below that, walking the set bits touches fewer
/// values than recomputing every word of the block.
pub(crate) const SPARSE_REFINE: usize = 16;

/// Refines an existing selection bitmap by another predicate (`AND`).
/// Returns the OR of all words after refinement (see [`mask_first`]).
/// Sparse selections (popcount × [`SPARSE_REFINE`] < block length) visit
/// only their set bits; both ways produce the same bitmap.
#[inline(always)]
pub(crate) fn mask_refine(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    if mask_count(words) * SPARSE_REFINE < block.len() {
        mask_refine_sparse(block, p, words)
    } else {
        mask_refine_dense(block, p, words)
    }
}

/// [`mask_refine`] recomputing every word of the block.
#[inline(always)]
fn mask_refine_dense(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    mask_words(block, p, MaskMode::And, words)
}

/// [`mask_refine`] testing only the rows whose bit is set: each survivor's
/// bit is rebuilt from its compare result, with no branch on the value.
#[inline(always)]
fn mask_refine_sparse(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    let mut any = 0u64;
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * WORD_BITS;
        let mut m = *word;
        let mut kept = 0u64;
        while m != 0 {
            let i = m.trailing_zeros();
            kept |= (p.matches(block[base + i as usize]) as u64) << i;
            m &= m - 1;
        }
        *word = kept;
        any |= kept;
    }
    any
}

/// Number of selected rows in a bitmap (popcount).
#[inline(always)]
pub(crate) fn mask_count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Masked fold for `SUM`/`AVG`: `(selected rows, sum of their values)`.
/// Fully set words take a straight-line whole-word reduction.
#[inline(always)]
pub(crate) fn mask_sum(vals: &[Value], words: &[u64]) -> (u64, u128) {
    let mut n = 0u64;
    let mut sum = 0u128;
    // Each word indexes its own chunk: inlined into the executor's
    // participant loop, a walk indexing `vals` from a running base kept
    // the slice in stack slots and reloaded it on every set bit.
    for (&word, chunk) in words.iter().zip(vals.chunks(WORD_BITS)) {
        if word == 0 {
            continue;
        }
        if word == u64::MAX {
            sum += chunk.iter().map(|&v| v as u128).sum::<u128>();
            n += WORD_BITS as u64;
        } else {
            let mut m = word;
            while m != 0 {
                sum += chunk[m.trailing_zeros() as usize] as u128;
                m &= m - 1;
            }
            n += word.count_ones() as u64;
        }
    }
    (n, sum)
}

/// Masked fold for `MIN`: `(selected rows, minimum of their values)`.
#[inline(always)]
pub(crate) fn mask_min(vals: &[Value], words: &[u64]) -> (u64, Option<Value>) {
    mask_extreme(vals, words, Value::MAX, Value::min)
}

/// Masked fold for `MAX`: `(selected rows, maximum of their values)`.
#[inline(always)]
pub(crate) fn mask_max(vals: &[Value], words: &[u64]) -> (u64, Option<Value>) {
    mask_extreme(vals, words, Value::MIN, Value::max)
}

#[inline(always)]
fn mask_extreme(
    vals: &[Value],
    words: &[u64],
    identity: Value,
    fold: fn(Value, Value) -> Value,
) -> (u64, Option<Value>) {
    let mut n = 0u64;
    let mut best = identity;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = w * WORD_BITS;
        if word == u64::MAX {
            best = vals[base..base + WORD_BITS]
                .iter()
                .fold(best, |acc, &v| fold(acc, v));
            n += WORD_BITS as u64;
        } else {
            let mut m = word;
            while m != 0 {
                best = fold(best, vals[base + m.trailing_zeros() as usize]);
                m &= m - 1;
            }
            n += word.count_ones() as u64;
        }
    }
    (n, (n > 0).then_some(best))
}

// ---------------------------------------------------------------------------
// Packed (SWAR) kernels: predicate evaluation directly on bit-packed blocks.
//
// Packed fields sit in `width + 1`-bit slots whose top (delimiter) bit is 0
// in storage — see `encode`. With `H` = the word's delimiter bits and `L` =
// ones in each slot's lowest bit, `((x | H) - c*L) & H` sets field k's
// delimiter bit iff `field_k >= c`: the borrow of the per-slot subtraction
// cannot cross slots because every minuend slot is at least `2^width > c`.
// A range test is `ge(lo) & !ge(hi + 1)`; callers guarantee `hi + 1` still
// fits the field width (`hi = None` stands for "every code passes"). One
// word evaluates 8/4/2 rows in a handful of ALU ops — the compute-reduction
// that lets encoded scans beat plain ones even when both are cache-resident.
// ---------------------------------------------------------------------------

/// Scattered match mask of one packed word: delimiter bit of field `k` is
/// set iff `lo <= field_k` and (`hi` absent or `field_k <= hi`).
#[inline(always)]
fn swar_match_word(x: u64, class: PackClass, lo: u64, hi: Option<u64>) -> u64 {
    let h = class.delim_mask();
    let l = class.low_ones();
    let ge_lo = ((x | h) - lo.wrapping_mul(l)) & h;
    match hi {
        None => ge_lo,
        Some(hi) => ge_lo & !((x | h) - (hi + 1).wrapping_mul(l)),
    }
}

/// Delimiter bits of fields `k0..k1` of one word: the edge words of the
/// no-bitmap fast paths ([`packed_count`], [`packed_sum_same_layout`]),
/// whose windows start at any row, and the partial last word of a
/// [`packed_mask`] window.
#[inline(always)]
fn delim_range_mask(class: PackClass, k0: usize, k1: usize) -> u64 {
    let slot = class.slot() as usize;
    let below = if k1 == class.per_word() {
        u64::MAX
    } else {
        !(u64::MAX << (k1 * slot))
    };
    class.delim_mask() & (u64::MAX << (k0 * slot)) & below
}

/// Compacts a scattered delimiter-bit mask into dense low bits (bit `k` =
/// field `k`), via carry-free multiply gathers.
#[inline(always)]
fn densify(scattered: u64, class: PackClass) -> u64 {
    let m = scattered >> class.width();
    match class {
        // Bits at 8k gather to 56+k; all cross terms land at distinct
        // positions below the window, so no carries corrupt it.
        PackClass::W7 => m.wrapping_mul(0x0102_0408_1020_4080) >> 56,
        // Bits at 16k fold down to k in two shift-ORs; every stray copy
        // lands above bit 3. (A gathering multiply, as W7 uses, has no
        // 64-bit vector form in AVX2 and read 1.8x the count kernel.)
        PackClass::W15 => {
            let m = m | (m >> 15);
            (m | (m >> 30)) & 0xF
        }
        PackClass::W31 => (m | (m >> 31)) & 0b11,
    }
}

/// Lane-wise field-sum accumulator: adds delimiter-clear masked words with
/// one cheap pair-fold per word instead of a full horizontal sum, keeping
/// lanes far from overflow for scan windows up to one block (`BLOCK_ROWS`
/// fields): W7 pair-folds 8x7-bit to 16-bit lanes (<= 128 adds of <= 254),
/// W15 pair-folds 4x15-bit to 32-bit lanes (<= 256 adds of <= 65534), W31
/// folds both 32-bit halves into a u64 on every add (<= 512 adds of
/// < 2^32).
struct FieldSum {
    class: PackClass,
    acc: u64,
}

impl FieldSum {
    #[inline(always)]
    fn new(class: PackClass) -> Self {
        Self { class, acc: 0 }
    }

    #[inline(always)]
    fn add(&mut self, masked: u64) {
        self.acc += match self.class {
            PackClass::W7 => {
                (masked & 0x00FF_00FF_00FF_00FF) + ((masked >> 8) & 0x00FF_00FF_00FF_00FF)
            }
            PackClass::W15 => {
                (masked & 0x0000_FFFF_0000_FFFF) + ((masked >> 16) & 0x0000_FFFF_0000_FFFF)
            }
            PackClass::W31 => (masked & 0xFFFF_FFFF) + (masked >> 32),
        };
    }

    /// Adds the fields of `agg_word` whose delimiter bit is set in the
    /// scattered match mask `scattered`; returns how many there are.
    #[inline(always)]
    fn add_matched(&mut self, scattered: u64, agg_word: u64) -> u64 {
        // Broadcast each matched delimiter bit over its field's payload.
        let field_mask = (scattered >> self.class.width()).wrapping_mul(self.class.value_mask());
        self.add(agg_word & field_mask);
        scattered.count_ones() as u64
    }

    #[inline(always)]
    fn finish(self) -> u128 {
        let a = self.acc;
        (match self.class {
            PackClass::W7 => {
                let s = (a & 0x0000_FFFF_0000_FFFF) + ((a >> 16) & 0x0000_FFFF_0000_FFFF);
                (s & 0xFFFF_FFFF) + (s >> 32)
            }
            PackClass::W15 => (a & 0xFFFF_FFFF) + (a >> 32),
            PackClass::W31 => a,
        }) as u128
    }
}

/// A pack class's slot as a native unsigned integer: W7's 8-bit slots are
/// `u8`, W15's `u16`, W31's `u32`. A stored slot's delimiter bit is 0, so
/// the slot read as an integer is the field's code, and a lane-wise
/// integer `min`, `max` or add over an array of slots is a fold over their
/// codes — a loop shape LLVM vectorizes in both builds of the packed path.
trait Slot: Copy {
    const BITS: usize;
    const ZERO: Self;
    const ONES: Self;
    /// The sum of one bitmap word's 64 codes: `u16` for W7's, `u32` for
    /// W15's, `u64` for W31's.
    type Sum: Copy;
    const SUM_ZERO: Self::Sum;
    /// The low `BITS` bits of `x`.
    fn low(x: u64) -> Self;
    /// A byte mask (all ones or zero) widened to the slot.
    fn from_byte_mask(mask: u8) -> Self;
    /// The running `MIN` (`MAX`) folded with `code` where `mask` is set.
    fn fold<const MAX: bool>(self, code: Self, mask: Self) -> Self;
    /// `sum` plus `code` where `mask` is set.
    fn add_to(sum: Self::Sum, code: Self, mask: Self) -> Self::Sum;
    fn widen(self) -> u64;
    fn widen_sum(sum: Self::Sum) -> u64;
}

macro_rules! slot {
    ($($t:ty: $signed:ty, $sum:ty),*) => {$(
        impl Slot for $t {
            const BITS: usize = <$t>::BITS as usize;
            const ZERO: Self = 0;
            const ONES: Self = <$t>::MAX;
            type Sum = $sum;
            const SUM_ZERO: $sum = 0;
            #[inline(always)]
            fn low(x: u64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn from_byte_mask(mask: u8) -> Self {
                mask as i8 as $signed as $t
            }
            #[inline(always)]
            fn fold<const MAX: bool>(self, code: Self, mask: Self) -> Self {
                if MAX {
                    let c = code & mask;
                    if c > self { c } else { self }
                } else {
                    let c = code | !mask;
                    if c < self { c } else { self }
                }
            }
            #[inline(always)]
            fn add_to(sum: $sum, code: Self, mask: Self) -> $sum {
                sum + (code & mask) as $sum
            }
            #[inline(always)]
            fn widen(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn widen_sum(sum: $sum) -> u64 {
                sum as u64
            }
        }
    )*};
}
slot!(u8: i8, u16, u16: i16, u32, u32: i32, u64);

/// Byte `k` of entry `b` is all ones iff bit `k` of `b` is set: a bitmap
/// word's eight bytes expand to the 64 byte masks of its rows.
static BYTE_MASKS: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            if b >> k & 1 == 1 {
                table[b] |= 0xFF << (8 * k);
            }
            k += 1;
        }
        b += 1;
    }
    table
};

/// Masked SUM over a FOR-packed aggregation column, bit `i` of the dense
/// selection bitmap selecting field `offset + i`: each bitmap word's
/// masked codes summed at once (see [`lane_sum`]), with no per-row decode
/// and no per-row branch. Requires `offset` aligned to the word's field
/// count so bitmap groups coincide with packed words, which the executor
/// guarantees by starting every packed-tier window on the [`PACK_GRID`].
/// Returns `(matching rows, sum of matching codes)`; the caller adds
/// `rows * reference`.
#[inline(always)]
pub(crate) fn mask_sum_packed(
    words: &[u64],
    agg_packed: &[u64],
    class: PackClass,
    offset: usize,
) -> (u64, u128) {
    debug_assert_eq!(
        offset & (class.per_word() - 1),
        0,
        "bitmap groups must align to packed words"
    );
    let n = mask_count(words);
    let base = offset >> class.log_per_word();
    let sum = match class {
        PackClass::W7 => lane_sum::<u8>(words, agg_packed, base),
        PackClass::W15 => lane_sum::<u16>(words, agg_packed, base),
        PackClass::W31 => lane_sum::<u32>(words, agg_packed, base),
    };
    (n as u64, sum as u128)
}

/// [`mask_sum_packed`] for one class, its slots read as `T`: the walk of
/// [`lane_extreme`], but each bitmap word's masked codes add up at once in
/// [`Slot::Sum`] (one reduction, which LLVM splits into vector
/// accumulators itself) instead of in 64 running sums, whose set-up and
/// final combine cost more than the fold on windows of a word or two.
#[inline(always)]
fn lane_sum<T: Slot>(words: &[u64], packed: &[u64], base: usize) -> u64 {
    let f = WORD_BITS / T::BITS; // fields per packed word
    let mut total = 0;
    let mut groups = packed[base..].chunks_exact(WORD_BITS / f);
    let mut full = 0;
    for (&bits, group) in words.iter().zip(&mut groups) {
        full += 1;
        if bits == 0 {
            continue;
        }
        let mut codes = [T::ZERO; WORD_BITS];
        for (j, &x) in group.iter().enumerate() {
            for k in 0..f {
                codes[j * f + k] = T::low(x >> (T::BITS * k));
            }
        }
        let mut masks = [0u8; WORD_BITS];
        for (m, byte) in masks.chunks_exact_mut(8).zip(bits.to_le_bytes()) {
            m.copy_from_slice(&BYTE_MASKS[byte as usize].to_le_bytes());
        }
        let mut word = T::SUM_ZERO;
        for (&code, &m) in codes.iter().zip(&masks) {
            word = T::add_to(word, code, T::from_byte_mask(m));
        }
        total += T::widen_sum(word);
    }
    if let Some(&bits) = words.get(full) {
        for (j, &x) in groups.remainder().iter().enumerate() {
            for k in 0..f {
                let mask = (bits >> (j * f + k) & 1).wrapping_neg();
                total += (x >> (T::BITS * k)) & T::ONES.widen() & mask;
            }
        }
    }
    debug_assert!(
        words.iter().skip(full + 1).all(|&w| w == 0),
        "selected rows past the payload"
    );
    total
}

/// Which running extreme a masked fold keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extreme {
    Min,
    Max,
}

/// Masked `MIN`/`MAX` over a packed aggregation column (FOR or Dict: both
/// keep value order in code order), under the alignment precondition of
/// [`mask_sum_packed`], which the executor guarantees the same way.
/// Returns `(selected rows, extreme selected code)`; the caller maps the
/// code back to a value.
#[inline(always)]
pub(crate) fn mask_extreme_packed(
    words: &[u64],
    packed: &[u64],
    class: PackClass,
    offset: usize,
    extreme: Extreme,
) -> (u64, Option<u64>) {
    debug_assert_eq!(
        offset & (class.per_word() - 1),
        0,
        "bitmap groups must align to packed words"
    );
    let n = mask_count(words);
    if n == 0 {
        return (0, None);
    }
    let base = offset >> class.log_per_word();
    let best = match (class, extreme) {
        (PackClass::W7, Extreme::Min) => lane_extreme::<u8, false>(words, packed, base),
        (PackClass::W7, Extreme::Max) => lane_extreme::<u8, true>(words, packed, base),
        (PackClass::W15, Extreme::Min) => lane_extreme::<u16, false>(words, packed, base),
        (PackClass::W15, Extreme::Max) => lane_extreme::<u16, true>(words, packed, base),
        (PackClass::W31, Extreme::Min) => lane_extreme::<u32, false>(words, packed, base),
        (PackClass::W31, Extreme::Max) => lane_extreme::<u32, true>(words, packed, base),
    };
    (n as u64, Some(best))
}

/// [`mask_extreme_packed`] for one class, its slots read as `T`: a running
/// extreme per row position of a bitmap word (64 of them), each folding
/// the codes it sees with unselected ones replaced by the fold's identity
/// (all ones for `MIN`, zero for `MAX`), so the fold has no per-row
/// branch; the 64 are combined once per window. A bitmap word with no bit
/// set is skipped whole. The walk ends at the payload's last word: a
/// window whose bitmap words reach past the payload (a partial last word,
/// or an offset that is not a multiple of 64) has its bits clear there,
/// and those words are never read; the partial last group folds field by
/// field into position 0.
#[inline(always)]
fn lane_extreme<T: Slot, const MAX: bool>(words: &[u64], packed: &[u64], base: usize) -> u64 {
    let f = WORD_BITS / T::BITS; // fields per packed word
    let identity = if MAX { T::ZERO } else { T::ONES };
    let mut best = [identity; WORD_BITS];
    let mut groups = packed[base..].chunks_exact(WORD_BITS / f);
    let mut full = 0;
    for (&bits, group) in words.iter().zip(&mut groups) {
        full += 1;
        if bits == 0 {
            continue;
        }
        let mut codes = [T::ZERO; WORD_BITS];
        for (j, &x) in group.iter().enumerate() {
            for k in 0..f {
                codes[j * f + k] = T::low(x >> (T::BITS * k));
            }
        }
        let mut masks = [0u8; WORD_BITS];
        for (m, byte) in masks.chunks_exact_mut(8).zip(bits.to_le_bytes()) {
            m.copy_from_slice(&BYTE_MASKS[byte as usize].to_le_bytes());
        }
        for ((lane, &code), &m) in best.iter_mut().zip(&codes).zip(&masks) {
            *lane = lane.fold::<MAX>(code, T::from_byte_mask(m));
        }
    }
    if let Some(&bits) = words.get(full) {
        for (j, &x) in groups.remainder().iter().enumerate() {
            for k in 0..f {
                let mask = T::low((bits >> (j * f + k) & 1).wrapping_neg());
                best[0] = best[0].fold::<MAX>(T::low(x >> (T::BITS * k)), mask);
            }
        }
    }
    debug_assert!(
        words.iter().skip(full + 1).all(|&w| w == 0),
        "selected rows past the payload"
    );
    // A plain loop: an iterator `min`/`max` here was left out of line, a
    // portable call per chunk in the x86-64-v3 build.
    let mut out = identity;
    for lane in best {
        out = out.fold::<MAX>(lane, T::ONES);
    }
    out.widen()
}

/// How [`packed_mask`] combines into the selection bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MaskMode {
    /// First predicate: overwrite the bitmap.
    Set,
    /// Later predicate: AND into the existing bitmap.
    And,
}

/// Evaluates a code-range test over packed fields `offset .. offset + n`
/// into the dense selection bitmap `out` (bit `i` = field `offset + i`),
/// either setting or ANDing. Returns the OR of the touched words.
///
/// The window starts on a packed word (`offset` a multiple of the class's
/// fields per word; the executor starts every window on the
/// [`PACK_GRID`]), so output word `ow` gathers exactly `64 / per_word`
/// packed words and the inner loop carries no spill state. The class
/// match sits outside the loops so each arm is a monomorphic, unrollable
/// body.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn packed_mask(
    packed: &[u64],
    class: PackClass,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
    mode: MaskMode,
    out: &mut [u64],
) -> u64 {
    debug_assert!(n > 0);
    debug_assert_eq!(
        offset & (class.per_word() - 1),
        0,
        "mask windows start on a packed word"
    );
    let mut any = 0u64;
    let first = offset >> class.log_per_word();
    let full = n / WORD_BITS;
    macro_rules! run {
        ($f:expr, $cl:expr) => {{
            let g = WORD_BITS / $f;
            let mut groups = packed[first..].chunks_exact(g);
            for (o, group) in out[..full].iter_mut().zip(&mut groups) {
                let mut cur = 0u64;
                for (j, &x) in group.iter().enumerate() {
                    cur |= densify(swar_match_word(x, $cl, lo, hi), $cl) << (j * $f);
                }
                *o = match mode {
                    MaskMode::Set => cur,
                    MaskMode::And => *o & cur,
                };
                any |= *o;
            }
            let rem = n % WORD_BITS;
            if rem > 0 {
                let mut cur = 0u64;
                let mut filled = 0usize;
                for &x in &packed[first + full * g..] {
                    if filled >= rem {
                        break;
                    }
                    let take = (rem - filled).min($f);
                    let m = swar_match_word(x, $cl, lo, hi) & delim_range_mask($cl, 0, take);
                    cur |= densify(m, $cl) << filled;
                    filled += take;
                }
                any |= apply_mask_word(mode, out, full, cur);
            }
        }};
    }
    match class {
        PackClass::W7 => run!(8, PackClass::W7),
        PackClass::W15 => run!(4, PackClass::W15),
        PackClass::W31 => run!(2, PackClass::W31),
    }
    any
}

#[inline(always)]
fn apply_mask_word(mode: MaskMode, out: &mut [u64], w: usize, bits: u64) -> u64 {
    match mode {
        MaskMode::Set => {
            out[w] = bits;
            bits
        }
        MaskMode::And => {
            out[w] &= bits;
            out[w]
        }
    }
}

/// COUNT fast path: number of packed fields in `offset .. offset + n`
/// passing the code-range test, with no bitmap materialization — popcounts
/// of the scattered masks directly.
#[inline(always)]
pub(crate) fn packed_count(
    packed: &[u64],
    class: PackClass,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
) -> usize {
    debug_assert!(n > 0);
    let f = class.per_word();
    let first = offset >> class.log_per_word();
    let last = (offset + n - 1) >> class.log_per_word();
    let k0 = offset & (f - 1);
    let k1 = ((offset + n - 1) & (f - 1)) + 1;
    if first == last {
        let m = swar_match_word(packed[first], class, lo, hi) & delim_range_mask(class, k0, k1);
        return m.count_ones() as usize;
    }
    let mut count = (swar_match_word(packed[first], class, lo, hi) & delim_range_mask(class, k0, f))
        .count_ones() as usize;
    // Interior words are whole: pure SWAR + popcount, no edge masks.
    for &x in &packed[first + 1..last] {
        count += swar_match_word(x, class, lo, hi).count_ones() as usize;
    }
    count += (swar_match_word(packed[last], class, lo, hi) & delim_range_mask(class, 0, k1))
        .count_ones() as usize;
    count
}

/// Class-specialized whole-word masked-sum loop: the `match` sits outside
/// the loop so each arm is a monomorphic, vectorizable body (a class match
/// or `Option` test inside the hot loop defeats LLVM's vectorizer). Lanes
/// cannot overflow within one block window (see [`FieldSum`]).
macro_rules! sum_interior_loop {
    ($pred:expr, $agg:expr, $h:expr, $lo_m:expr, $hi_m:expr, $wbits:expr, $vm:expr,
     $m0:expr, $sh:expr, $count:ident, $acc:ident) => {
        match $hi_m {
            None => {
                for (&x, &a) in $pred.iter().zip($agg) {
                    let m = ((x | $h).wrapping_sub($lo_m)) & $h;
                    $count += m.count_ones() as u64;
                    let v = a & (m >> $wbits).wrapping_mul($vm);
                    $acc += (v & $m0) + ((v >> $sh) & $m0);
                }
            }
            Some(hi_m) => {
                for (&x, &a) in $pred.iter().zip($agg) {
                    let xh = x | $h;
                    let m = (xh.wrapping_sub($lo_m)) & $h & !(xh.wrapping_sub(hi_m));
                    $count += m.count_ones() as u64;
                    let v = a & (m >> $wbits).wrapping_mul($vm);
                    $acc += (v & $m0) + ((v >> $sh) & $m0);
                }
            }
        }
    };
}

/// Whole-word masked sum over parallel pred/agg slices (no edge masks);
/// returns `(matching rows, sum of matching codes)`.
#[inline(always)]
fn sum_interior(
    pred: &[u64],
    agg: &[u64],
    class: PackClass,
    lo: u64,
    hi: Option<u64>,
) -> (u64, u128) {
    let h = class.delim_mask();
    let l = class.low_ones();
    let lo_m = lo.wrapping_mul(l);
    let hi_m = hi.map(|hi| (hi + 1).wrapping_mul(l));
    let wbits = class.width();
    let vm = class.value_mask();
    let mut count = 0u64;
    let mut acc = 0u64;
    match class {
        PackClass::W7 => {
            sum_interior_loop!(
                pred,
                agg,
                h,
                lo_m,
                hi_m,
                wbits,
                vm,
                0x00FF_00FF_00FF_00FFu64,
                8,
                count,
                acc
            );
            let s = (acc & 0x0000_FFFF_0000_FFFF) + ((acc >> 16) & 0x0000_FFFF_0000_FFFF);
            (count, (((s & 0xFFFF_FFFF) + (s >> 32)) as u128))
        }
        PackClass::W15 => {
            sum_interior_loop!(
                pred,
                agg,
                h,
                lo_m,
                hi_m,
                wbits,
                vm,
                0x0000_FFFF_0000_FFFFu64,
                16,
                count,
                acc
            );
            (count, ((acc & 0xFFFF_FFFF) + (acc >> 32)) as u128)
        }
        PackClass::W31 => {
            sum_interior_loop!(
                pred,
                agg,
                h,
                lo_m,
                hi_m,
                wbits,
                vm,
                0xFFFF_FFFFu64,
                32,
                count,
                acc
            );
            (count, acc as u128)
        }
    }
}

/// SUM fast path for a predicate column and a FOR aggregation column packed
/// in the **same class**: their field layouts coincide word-for-word, so the
/// predicate's scattered match mask expands to a field mask applied straight
/// to the aggregation words — no bitmap, no decode, no per-row loop.
/// Returns `(matching rows, sum of matching aggregation codes)`; the caller
/// adds `rows * reference` to undo the frame of reference.
#[inline(always)]
pub(crate) fn packed_sum_same_layout(
    pred_packed: &[u64],
    agg_packed: &[u64],
    class: PackClass,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
) -> (u64, u128) {
    debug_assert!(n > 0);
    let f = class.per_word();
    let first = offset >> class.log_per_word();
    let last = (offset + n - 1) >> class.log_per_word();
    let k0 = offset & (f - 1);
    let k1 = ((offset + n - 1) & (f - 1)) + 1;
    let mut fs = FieldSum::new(class);
    if first == last {
        let m =
            swar_match_word(pred_packed[first], class, lo, hi) & delim_range_mask(class, k0, k1);
        let count = fs.add_matched(m, agg_packed[first]);
        return (count, fs.finish());
    }
    let m = swar_match_word(pred_packed[first], class, lo, hi) & delim_range_mask(class, k0, f);
    let mut count = fs.add_matched(m, agg_packed[first]);
    let m = swar_match_word(pred_packed[last], class, lo, hi) & delim_range_mask(class, 0, k1);
    count += fs.add_matched(m, agg_packed[last]);
    // Interior words are whole: one monomorphic SWAR loop, no edge masks.
    let (c, sum) = sum_interior(
        &pred_packed[first + 1..last],
        &agg_packed[first + 1..last],
        class,
        lo,
        hi,
    );
    (count + c, fs.finish() + sum)
}

/// Masked fold for `SUM` with an arbitrary value fetcher: like
/// [`mask_sum`], but rows are materialized through `fetch`. The packed tier
/// calls it only for Dict aggregation blocks, which it still sums through
/// the dictionary; the scalar oracle calls it for every encoded block.
#[inline(always)]
pub(crate) fn mask_sum_fetch(words: &[u64], fetch: impl Fn(usize) -> Value) -> (u64, u128) {
    let mut n = 0u64;
    let mut sum = 0u128;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = w * WORD_BITS;
        let mut m = word;
        while m != 0 {
            sum += fetch(base + m.trailing_zeros() as usize) as u128;
            m &= m - 1;
        }
        n += word.count_ones() as u64;
    }
    (n, sum)
}

/// Masked `MIN`/`MAX` fold with an arbitrary value fetcher: the scalar
/// oracle's fold over encoded blocks (the packed tier folds packed codes,
/// [`mask_extreme_packed`]).
#[inline(always)]
pub(crate) fn mask_extreme_fetch(
    words: &[u64],
    identity: Value,
    fold: fn(Value, Value) -> Value,
    fetch: impl Fn(usize) -> Value,
) -> (u64, Option<Value>) {
    let mut n = 0u64;
    let mut best = identity;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = w * WORD_BITS;
        let mut m = word;
        while m != 0 {
            best = fold(best, fetch(base + m.trailing_zeros() as usize));
            m &= m - 1;
        }
        n += word.count_ones() as u64;
    }
    (n, (n > 0).then_some(best))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred(lo: Value, hi: Value) -> Predicate {
        Predicate::range(0, lo, hi).unwrap()
    }

    /// Reference selection: the plainly branchy filter.
    fn oracle(block: &[Value], p: Predicate) -> Vec<u32> {
        block
            .iter()
            .enumerate()
            .filter(|&(_, &v)| p.matches(v))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn blocks() -> Vec<Vec<Value>> {
        // Full block, one word, partial word, partial lanes, empty.
        vec![
            (0..BLOCK_ROWS as u64).map(|v| v * 7 % 1000).collect(),
            (0..64u64).collect(),
            (0..100u64).map(|v| v * 3 % 37).collect(),
            (0..5u64).collect(),
            Vec::new(),
        ]
    }

    #[test]
    fn mask_agrees_with_oracle_on_odd_block_sizes() {
        for block in blocks() {
            for p in [
                pred(0, 10),
                pred(3, 500),
                pred(2000, 3000),
                pred(0, u64::MAX),
            ] {
                let expected = oracle(&block, p);
                let nw = block.len().div_ceil(WORD_BITS);
                let selected = |words: &[u64]| -> Vec<u32> {
                    (0..block.len() as u32)
                        .filter(|&i| {
                            words[i as usize / WORD_BITS] >> (i as usize % WORD_BITS) & 1 == 1
                        })
                        .collect()
                };
                let mut words = vec![0u64; nw];
                mask_first(&block, p, &mut words);
                assert_eq!(selected(&words), expected, "mask_first {p:?}");
            }
        }
    }

    #[test]
    fn refine_matches_sequential_filters() {
        let block: Vec<Value> = (0..777u64).map(|v| v * 13 % 101).collect();
        let p1 = pred(10, 80);
        let p2 = pred(20, 60);
        let expected = block
            .iter()
            .filter(|&&v| p1.matches(v) && p2.matches(v))
            .count();
        let nw = block.len().div_ceil(WORD_BITS);
        let mut words = vec![0u64; nw];
        mask_first(&block, p1, &mut words);
        mask_refine(&block, p2, &mut words);
        assert_eq!(mask_count(&words), expected);
    }

    #[test]
    fn sparse_refine_equals_dense_refine_bit_for_bit() {
        use crate::sample::SplitMix;
        let mut rng = SplitMix::new(42);
        for len in [1usize, 63, 64, 1000, 1024] {
            let block: Vec<Value> = (0..len).map(|_| rng.next_below(1000)).collect();
            // The smallest popcount `mask_refine` refines densely.
            let bar = len.div_ceil(SPARSE_REFINE);
            for set in [0, len / 64, bar.saturating_sub(1), bar, bar + 1, len] {
                let set = set.min(len);
                // `set` distinct seeded rows selected before the refine.
                let mut words = vec![0u64; len.div_ceil(WORD_BITS)];
                while mask_count(&words) < set {
                    let i = rng.next_below(len as u64) as usize;
                    words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
                }
                for p in [
                    pred(0, 499),
                    pred(100, 110),
                    pred(0, u64::MAX),
                    pred(5000, 6000),
                ] {
                    let mut sparse = words.clone();
                    let mut dense = words.clone();
                    let mut chosen = words.clone();
                    let any_sparse = mask_refine_sparse(&block, p, &mut sparse);
                    let any_dense = mask_refine_dense(&block, p, &mut dense);
                    let any_chosen = mask_refine(&block, p, &mut chosen);
                    assert_eq!(sparse, dense, "len={len} set={set} {p:?}");
                    assert_eq!(chosen, dense, "len={len} set={set} {p:?}");
                    assert_eq!(any_sparse, any_dense);
                    assert_eq!(any_chosen, any_dense);
                }
            }
        }
    }

    #[test]
    fn mask_aggregates_match_selected_folds() {
        let vals: Vec<Value> = (0..300u64).map(|v| v * 17 % 999).collect();
        for p in [pred(0, 0), pred(100, 700), pred(0, u64::MAX)] {
            let nw = vals.len().div_ceil(WORD_BITS);
            let mut words = vec![0u64; nw];
            mask_first(&vals, p, &mut words);
            let selected: Vec<Value> = vals.iter().copied().filter(|&v| p.matches(v)).collect();

            assert_eq!(mask_count(&words), selected.len());
            let (n, sum) = mask_sum(&vals, &words);
            assert_eq!(n as usize, selected.len());
            assert_eq!(sum, selected.iter().map(|&v| v as u128).sum::<u128>());
            let (_, lo) = mask_min(&vals, &words);
            assert_eq!(lo, selected.iter().copied().min());
            let (_, hi) = mask_max(&vals, &words);
            assert_eq!(hi, selected.iter().copied().max());
        }
    }

    #[test]
    fn dense_word_fast_path_is_exercised() {
        // 128 values all matching: both words fully set.
        let vals: Vec<Value> = (0..128u64).collect();
        let p = pred(0, u64::MAX);
        let mut words = vec![0u64; 2];
        mask_first(&vals, p, &mut words);
        assert_eq!(words, vec![u64::MAX, u64::MAX]);
        let (n, sum) = mask_sum(&vals, &words);
        assert_eq!((n, sum), (128, (0..128u128).sum()));
        assert_eq!(mask_min(&vals, &words), (128, Some(0)));
        assert_eq!(mask_max(&vals, &words), (128, Some(127)));
    }

    #[test]
    fn scratch_buffers_are_block_sized() {
        let s = BlockScratch::new();
        assert_eq!(s.sel.len(), BLOCK_ROWS);
        assert_eq!(s.words.len(), BLOCK_WORDS);
    }

    // ---- packed (SWAR) kernels ----

    use crate::encode::pack;

    const CLASSES: [PackClass; 3] = [PackClass::W7, PackClass::W15, PackClass::W31];

    fn codes_for(class: PackClass, n: usize) -> Vec<u64> {
        let m = class.value_mask();
        (0..n as u64)
            .map(|i| (i.wrapping_mul(2654435761)) & m)
            .collect()
    }

    fn dense_bits(words: &[u64], n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
            .collect()
    }

    #[test]
    fn packed_mask_matches_per_row_oracle_across_classes_and_offsets() {
        for class in CLASSES {
            let codes = codes_for(class, 500);
            let packed = pack(codes.iter().copied(), class);
            let m = class.value_mask();
            // The mask kernel's windows start on the pack grid (misaligned
            // starts are the executor's to widen, see its alignment sweep);
            // the count fast path takes windows starting anywhere.
            for (offset, n) in [
                (0usize, 500usize),
                (0, 64),
                (8, 90),
                (128, 333),
                (496, 1),
                (3, 90),
                (129, 333),
                (7, 1),
                (499, 1),
            ] {
                for (lo, hi) in [
                    (0, None),
                    (m / 4, Some(3 * m / 4)),
                    (m / 2, None),
                    (1, Some(1)),
                ] {
                    let window = &codes[offset..offset + n];
                    let expect: Vec<bool> = window
                        .iter()
                        .map(|&c| lo <= c && hi.is_none_or(|h| c <= h))
                        .collect();
                    // Count fast path agrees.
                    assert_eq!(
                        packed_count(&packed, class, offset, n, lo, hi),
                        expect.iter().filter(|&&b| b).count()
                    );
                    if offset % PACK_GRID != 0 {
                        continue;
                    }
                    let mut out = vec![0u64; n.div_ceil(WORD_BITS)];
                    let any =
                        packed_mask(&packed, class, offset, n, lo, hi, MaskMode::Set, &mut out);
                    assert_eq!(
                        dense_bits(&out, n),
                        expect,
                        "{class:?} offset={offset} n={n} lo={lo} hi={hi:?}"
                    );
                    assert_eq!(any != 0, expect.iter().any(|&b| b));
                    // AND mode against all-ones gives the same selection.
                    let mut ones = vec![u64::MAX; out.len()];
                    packed_mask(&packed, class, offset, n, lo, hi, MaskMode::And, &mut ones);
                    // Trim tail bits the Set path leaves clear.
                    assert_eq!(dense_bits(&ones, n), expect);
                }
            }
        }
    }

    #[test]
    fn packed_mask_and_mode_intersects_two_predicates() {
        let class = PackClass::W15;
        let codes = codes_for(class, 300);
        let packed = pack(codes.iter().copied(), class);
        let (lo1, hi1) = (2000u64, Some(30000u64));
        let (lo2, hi2) = (8000u64, Some(20000u64));
        let mut out = vec![0u64; 300usize.div_ceil(WORD_BITS)];
        packed_mask(&packed, class, 0, 300, lo1, hi1, MaskMode::Set, &mut out);
        packed_mask(&packed, class, 0, 300, lo2, hi2, MaskMode::And, &mut out);
        let expect: Vec<bool> = codes
            .iter()
            .map(|&c| c >= lo1 && c <= hi1.unwrap() && c >= lo2 && c <= hi2.unwrap())
            .collect();
        assert_eq!(dense_bits(&out, 300), expect);
    }

    #[test]
    fn packed_sum_same_layout_matches_filtered_fold() {
        for class in CLASSES {
            let pred_codes = codes_for(class, 450);
            let agg_codes: Vec<u64> = codes_for(class, 450)
                .iter()
                .map(|c| c.rotate_left(5) & class.value_mask())
                .collect();
            let pp = pack(pred_codes.iter().copied(), class);
            let ap = pack(agg_codes.iter().copied(), class);
            let m = class.value_mask();
            for (offset, n) in [(0usize, 450usize), (5, 200), (63, 65)] {
                for (lo, hi) in [(0u64, None), (m / 3, Some(2 * m / 3))] {
                    let (cnt, sum) = packed_sum_same_layout(&pp, &ap, class, offset, n, lo, hi);
                    let mut ecnt = 0u64;
                    let mut esum = 0u128;
                    for i in offset..offset + n {
                        let c = pred_codes[i];
                        if lo <= c && hi.is_none_or(|h| c <= h) {
                            ecnt += 1;
                            esum += agg_codes[i] as u128;
                        }
                    }
                    assert_eq!(
                        (cnt, sum),
                        (ecnt, esum),
                        "{class:?} {offset} {n} {lo} {hi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fetch_folds_match_slice_folds() {
        let vals: Vec<Value> = (0..200u64).map(|v| v * 31 % 1009).collect();
        let p = pred(100, 800);
        let nw = vals.len().div_ceil(WORD_BITS);
        let mut words = vec![0u64; nw];
        mask_first(&vals, p, &mut words);
        let (n_ref, sum_ref) = mask_sum(&vals, &words);
        let (n, sum) = mask_sum_fetch(&words, |i| vals[i]);
        assert_eq!((n, sum), (n_ref, sum_ref));
        let (_, lo) = mask_min(&vals, &words);
        let (_, lo2) = mask_extreme_fetch(&words, Value::MAX, Value::min, |i| vals[i]);
        assert_eq!(lo, lo2);
        let (_, hi) = mask_max(&vals, &words);
        let (_, hi2) = mask_extreme_fetch(&words, Value::MIN, Value::max, |i| vals[i]);
        assert_eq!(hi, hi2);
    }

    // ---- packed aggregation kernels over real encoded blocks ----

    use crate::encode::{BlockData, EncodedBlock};
    use crate::sample::SplitMix;

    /// Blocks of every packed payload an aggregation column can hold: FOR
    /// in each class and Dict in each class a dictionary reaches, each as a
    /// full block and as a 1000-row block, whose last bitmap word is
    /// partial.
    fn packed_blocks(rng: &mut SplitMix) -> Vec<(&'static str, EncodedBlock)> {
        let wide: Vec<Value> = (0..200u64).map(|i| i * 0x0100_0000_0000_0001).collect();
        let mut out = Vec::new();
        for len in [BLOCK_ROWS, 1000] {
            let kinds: [(&str, Vec<Value>); 5] = [
                (
                    "for w7",
                    (0..len).map(|_| 900 + rng.next_below(128)).collect(),
                ),
                (
                    "for w15",
                    (0..len).map(|_| 7 + rng.next_below(1 << 15)).collect(),
                ),
                (
                    "for w31",
                    (0..len)
                        .map(|_| 1 << 40 | rng.next_below(1 << 31))
                        .collect(),
                ),
                (
                    "dict w7",
                    (0..len)
                        .map(|_| wide[rng.next_below(16) as usize])
                        .collect(),
                ),
                (
                    "dict w15",
                    (0..len).map(|i| wide[(i * 7 + 3) % 200]).collect(),
                ),
            ];
            for (label, values) in kinds {
                let eb = EncodedBlock::encode(&values, |_| true);
                let class = match eb.data() {
                    BlockData::For { class, .. } | BlockData::Dict { class, .. } => *class,
                    BlockData::Plain(_) => panic!("{label} stored plain"),
                };
                let class_label = format!("{} w{}", eb.kind_label(), class.width());
                assert_eq!(class_label, label, "{len} rows");
                out.push((label, eb));
            }
        }
        out
    }

    /// The packed payload and class of a FOR or Dict block.
    fn payload(eb: &EncodedBlock) -> (&[u64], PackClass) {
        match eb.data() {
            BlockData::For { class, packed } | BlockData::Dict { class, packed, .. } => {
                (packed, *class)
            }
            BlockData::Plain(_) => unreachable!("packed blocks only"),
        }
    }

    /// Selection bitmaps over an `n`-row window: empty, full, one row, and
    /// seeded random at a sparse and a dense rate.
    fn window_masks(n: usize, rng: &mut SplitMix) -> Vec<Vec<u64>> {
        let nw = n.div_ceil(WORD_BITS);
        let from = |keep: &dyn Fn(usize) -> bool| {
            let mut words = vec![0u64; nw];
            for i in (0..n).filter(|&i| keep(i)) {
                words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            }
            words
        };
        let one = rng.next_below(n as u64) as usize;
        let sparse: Vec<bool> = (0..n).map(|_| rng.next_below(50) == 0).collect();
        let dense: Vec<bool> = (0..n).map(|_| rng.next_below(4) != 0).collect();
        vec![
            from(&|_| false),
            from(&|_| true),
            from(&|i| i == one),
            from(&|i| sparse[i]),
            from(&|i| dense[i]),
        ]
    }

    /// Every word-aligned window of `eb` the sweeps visit: at each aligned
    /// offset, the window running to the block's last row, plus a one-row
    /// and a 64-row window where they fit.
    fn aligned_windows(eb: &EncodedBlock, class: PackClass) -> Vec<(usize, usize)> {
        let mut windows = Vec::new();
        for offset in (0..eb.len()).step_by(class.per_word()) {
            windows.push((offset, eb.len() - offset));
            windows.push((offset, 1));
            if offset + WORD_BITS <= eb.len() {
                windows.push((offset, WORD_BITS));
            }
        }
        windows
    }

    #[test]
    fn mask_extreme_packed_matches_the_per_row_reference() {
        let mut rng = SplitMix::new(44);
        for (label, eb) in packed_blocks(&mut rng) {
            let (packed, class) = payload(&eb);
            let value_of = |code: u64| match eb.data() {
                BlockData::Dict { uniques, .. } => uniques[code as usize],
                _ => eb.bounds().0 + code,
            };
            for (offset, n) in aligned_windows(&eb, class) {
                for words in window_masks(n, &mut rng) {
                    let selected: Vec<Value> = (0..n)
                        .filter(|&i| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
                        .map(|i| eb.value_at(offset + i))
                        .collect();
                    let rows = selected.len() as u64;
                    for (extreme, expect) in [
                        (Extreme::Min, selected.iter().copied().min()),
                        (Extreme::Max, selected.iter().copied().max()),
                    ] {
                        let (got_rows, code) =
                            mask_extreme_packed(&words, packed, class, offset, extreme);
                        assert_eq!(
                            (got_rows, code.map(value_of)),
                            (rows, expect),
                            "{label} {} rows, window {offset}+{n}, {extreme:?}",
                            eb.len()
                        );
                    }
                }
            }
        }
    }

    /// The packed folds keep one accumulator per row position of a bitmap
    /// word and fold a partial last group into position 0: a winner in any
    /// one of them must reach the result. Each case plants one winning code
    /// — at each row position of the window's second bitmap word, then in
    /// the window's last row, which ends a partial last group on 1000-row
    /// blocks — among unselected decoys that would beat it.
    #[test]
    fn packed_folds_combine_every_lane_and_the_partial_last_group() {
        let mut rng = SplitMix::new(46);
        for class in CLASSES {
            let (f, m) = (class.per_word(), class.value_mask());
            for (len, offset) in [(BLOCK_ROWS, 0), (1000, 0), (1000, 3 * f)] {
                let n = len - offset;
                let spots = (WORD_BITS..2 * WORD_BITS).chain([n - 1]);
                for spot in spots {
                    for extreme in [Extreme::Min, Extreme::Max] {
                        // (background codes, winner, decoy)
                        let ((lo, hi), win, decoy) = match extreme {
                            Extreme::Min => ((m / 2, m), 1, 0),
                            Extreme::Max => ((0, m / 2), m - 1, m),
                        };
                        let mut codes: Vec<u64> =
                            (0..len).map(|_| lo + rng.next_below(hi - lo + 1)).collect();
                        let mut words = vec![0u64; n.div_ceil(WORD_BITS)];
                        for i in 0..n {
                            if i != spot && rng.next_below(5) == 0 {
                                codes[offset + i] = decoy;
                            } else {
                                words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
                            }
                        }
                        codes[offset + spot] = win;
                        let packed = pack(codes.iter().copied(), class);
                        let selected: Vec<u64> = (0..n)
                            .filter(|&i| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
                            .map(|i| codes[offset + i])
                            .collect();
                        let rows = selected.len() as u64;
                        let at = format!("{class:?} {len} rows, offset {offset}, row {spot}");
                        assert_eq!(
                            mask_extreme_packed(&words, &packed, class, offset, extreme),
                            (rows, Some(win)),
                            "{extreme:?} {at}"
                        );
                        assert_eq!(
                            mask_sum_packed(&words, &packed, class, offset),
                            (rows, selected.iter().map(|&c| c as u128).sum()),
                            "SUM {at}"
                        );
                    }
                }
            }
        }
    }

    /// A window of one block whose every row holds the largest code its
    /// class packs: a bitmap word's sum of 64 of them must not overflow
    /// [`Slot::Sum`], and a partial last group must add up too.
    #[test]
    fn packed_sums_hold_a_block_of_largest_codes() {
        for class in CLASSES {
            let m = class.value_mask();
            for len in [BLOCK_ROWS, 1000, 1023] {
                let packed = pack((0..len).map(|_| m), class);
                let mut words = vec![u64::MAX; len.div_ceil(WORD_BITS)];
                if len % WORD_BITS != 0 {
                    *words.last_mut().unwrap() = (1 << (len % WORD_BITS)) - 1;
                }
                assert_eq!(
                    mask_sum_packed(&words, &packed, class, 0),
                    (len as u64, len as u128 * m as u128),
                    "{class:?} {len} rows"
                );
            }
        }
    }

    #[test]
    fn mask_sum_packed_matches_the_per_row_reference() {
        let mut rng = SplitMix::new(45);
        for (label, eb) in packed_blocks(&mut rng) {
            let BlockData::For { class, packed } = eb.data() else {
                continue;
            };
            let reference = eb.bounds().0;
            for (offset, n) in aligned_windows(&eb, *class) {
                for words in window_masks(n, &mut rng) {
                    let (rows, codes) = (0..n)
                        .filter(|&i| words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
                        .fold((0u64, 0u128), |(rows, sum), i| {
                            (
                                rows + 1,
                                sum + (eb.value_at(offset + i) - reference) as u128,
                            )
                        });
                    assert_eq!(
                        mask_sum_packed(&words, packed, *class, offset),
                        (rows, codes),
                        "{label} {} rows, window {offset}+{n}",
                        eb.len()
                    );
                }
            }
        }
    }
}
