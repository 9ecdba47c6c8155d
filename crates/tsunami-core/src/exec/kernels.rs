//! Branchless block kernels for predicate evaluation and aggregation.
//!
//! Everything in this module operates on one *block* of at most
//! [`BLOCK_ROWS`] contiguous rows of a single column. A block's selection is
//! a **bitmap** — one bit per row, packed into `u64` words:
//!
//! * on plain rows, the first predicate builds the bitmap from 8-lane mask
//!   groups (`u64x8`-style manual unrolling, no data-dependent branch;
//!   64-bit vector compares where the CPU has AVX2), and each further
//!   predicate `AND`s into it. A refine whose bitmap already selects fewer
//!   than one row in [`SPARSE_REFINE`] tests only the selected rows instead
//!   of the whole block — the same bits, decided per block from the bitmap
//!   itself;
//! * on packed rows (frame-of-reference or dictionary codes, see
//!   [`crate::encode`]), range tests run as SWAR compares directly on the
//!   packed words, 8/4/2 rows per ALU op.
//!
//! Aggregation is mask-native: `COUNT` is a popcount, `SUM`/`MIN`/`MAX` are
//! masked folds with a whole-word fast path for fully set words, and a
//! FOR-packed `SUM` input lane-sums its codes straight off the bitmap.
//!
//! All kernels are deliberately total functions of their inputs — given the
//! same block and predicates they produce the same selection whatever the
//! encoding or density, which is what makes the executor's kernel tiers
//! bit-identical (see the [`exec`](super) module docs).

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
pub(crate) fn mask_first(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    mask_words(block, p, MaskMode::Set, words)
}

/// Sets or ANDs the match mask of every word of `block` into `words`;
/// returns the OR of the resulting words. Runs the AVX2 build where the CPU
/// has it: baseline x86-64 has no 64-bit vector compare, so there the 8-lane
/// groups compile to scalar compares, slower per row than the branchy
/// scalar loop on a block where nothing matches (`fig12kern`, 0 %).
fn mask_words(block: &[Value], p: Predicate, mode: MaskMode, words: &mut [u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { mask_words_avx2(block, p, mode, words) };
    }
    mask_words_body(block, p, mode, words)
}

/// [`mask_words_body`] compiled for AVX2, whose 64-bit compares let the
/// 8-lane groups vectorize.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_words_avx2(block: &[Value], p: Predicate, mode: MaskMode, words: &mut [u64]) -> u64 {
    mask_words_body(block, p, mode, words)
}

/// The portable body of [`mask_words`].
#[inline(always)]
fn mask_words_body(block: &[Value], p: Predicate, mode: MaskMode, words: &mut [u64]) -> u64 {
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
pub(crate) fn mask_refine(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    if mask_count(words) * SPARSE_REFINE < block.len() {
        mask_refine_sparse(block, p, words)
    } else {
        mask_refine_dense(block, p, words)
    }
}

/// [`mask_refine`] recomputing every word of the block.
fn mask_refine_dense(block: &[Value], p: Predicate, words: &mut [u64]) -> u64 {
    mask_words(block, p, MaskMode::And, words)
}

/// [`mask_refine`] testing only the rows whose bit is set: each survivor's
/// bit is rebuilt from its compare result, with no branch on the value.
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
pub(crate) fn mask_count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Masked fold for `SUM`/`AVG`: `(selected rows, sum of their values)`.
/// Fully set words take a straight-line whole-word reduction.
pub(crate) fn mask_sum(vals: &[Value], words: &[u64]) -> (u64, u128) {
    let mut n = 0u64;
    let mut sum = 0u128;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let base = w * WORD_BITS;
        if word == u64::MAX {
            sum += vals[base..base + WORD_BITS]
                .iter()
                .map(|&v| v as u128)
                .sum::<u128>();
            n += WORD_BITS as u64;
        } else {
            let mut m = word;
            while m != 0 {
                sum += vals[base + m.trailing_zeros() as usize] as u128;
                m &= m - 1;
            }
            n += word.count_ones() as u64;
        }
    }
    (n, sum)
}

/// Masked fold for `MIN`: `(selected rows, minimum of their values)`.
pub(crate) fn mask_min(vals: &[Value], words: &[u64]) -> (u64, Option<Value>) {
    mask_extreme(vals, words, Value::MAX, Value::min)
}

/// Masked fold for `MAX`: `(selected rows, maximum of their values)`.
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

/// Delimiter bits of fields `k0..k1` of one word (for partial first/last
/// words of an unaligned scan window).
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
        // Bits at 16k gather to 60+k.
        PackClass::W15 => m.wrapping_mul((1 << 60) | (1 << 45) | (1 << 30) | (1 << 15)) >> 60,
        PackClass::W31 => (m | (m >> 31)) & 0b11,
    }
}

/// Inverse of [`densify`]: expands the low `per_word` dense bits back to
/// scattered delimiter-bit positions, via carry-free multiply spreads (the
/// copies of each spread land in disjoint bit windows, so no carries).
#[inline(always)]
fn undensify(dense: u64, class: PackClass) -> u64 {
    let spread = match class {
        PackClass::W7 => {
            // Bit k -> position 8k+7. Two nibble spreads: copy k shifts by
            // 7k+7 (low nibble) / 7k+11 (high), each copy spanning 4 bits
            // in its own disjoint window.
            let m0 = (1u64 << 7) | (1 << 14) | (1 << 21) | (1 << 28);
            let m1 = (1u64 << 39) | (1 << 46) | (1 << 53) | (1 << 60);
            (dense & 0xF).wrapping_mul(m0) | (dense >> 4).wrapping_mul(m1)
        }
        // Bit k -> position 16k+15; copies span 15+k..18+k etc., disjoint.
        PackClass::W15 => dense.wrapping_mul((1 << 15) | (1 << 30) | (1 << 45) | (1 << 60)),
        PackClass::W31 => ((dense & 0b01) << 31) | ((dense & 0b10) << 62),
    };
    spread & class.delim_mask()
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

/// Masked SUM over a FOR-packed aggregation column: walks the dense
/// selection bitmap (bit `i` = field `offset + i`), expands each group of
/// `per_word` bits back to a scattered field mask, and lane-sums the
/// surviving payloads — no per-row decode. Requires `offset` aligned to the
/// word's field count so bitmap groups coincide with packed words. Returns
/// `(matching rows, sum of matching codes)`; the caller adds
/// `rows * reference`.
pub(crate) fn mask_sum_packed(
    words: &[u64],
    agg_packed: &[u64],
    class: PackClass,
    offset: usize,
) -> (u64, u128) {
    let f = class.per_word();
    debug_assert_eq!(
        offset & (f - 1),
        0,
        "bitmap groups must align to packed words"
    );
    let base = offset >> class.log_per_word();
    let mut count = 0u64;
    let mut acc = 0u64;
    // The class match sits outside the loops so each arm is monomorphic
    // (see `sum_interior_loop!`); lane capacities as in [`FieldSum`].
    macro_rules! walk {
        ($undense:expr, $wbits:expr, $vm:expr, $m0:expr, $sh:expr) => {
            for (bw, &bits) in words.iter().enumerate() {
                if bits == 0 {
                    continue;
                }
                count += bits.count_ones() as u64;
                let mut w = base + bw * (WORD_BITS / f);
                let mut b = bits;
                for _ in 0..(WORD_BITS / f) {
                    let dense = b & ((1u64 << f) - 1);
                    b >>= f;
                    if dense != 0 {
                        let scattered = $undense(dense);
                        let v = agg_packed[w] & (scattered >> $wbits).wrapping_mul($vm);
                        acc += (v & $m0) + ((v >> $sh) & $m0);
                    }
                    w += 1;
                }
            }
        };
    }
    let sum: u128 = match class {
        PackClass::W7 => {
            walk!(
                |d: u64| undensify(d, PackClass::W7),
                7,
                class.value_mask(),
                0x00FF_00FF_00FF_00FFu64,
                8
            );
            let s = (acc & 0x0000_FFFF_0000_FFFF) + ((acc >> 16) & 0x0000_FFFF_0000_FFFF);
            ((s & 0xFFFF_FFFF) + (s >> 32)) as u128
        }
        PackClass::W15 => {
            walk!(
                |d: u64| undensify(d, PackClass::W15),
                15,
                class.value_mask(),
                0x0000_FFFF_0000_FFFFu64,
                16
            );
            ((acc & 0xFFFF_FFFF) + (acc >> 32)) as u128
        }
        PackClass::W31 => {
            walk!(
                |d: u64| undensify(d, PackClass::W31),
                31,
                class.value_mask(),
                0xFFFF_FFFFu64,
                32
            );
            acc as u128
        }
    };
    (count, sum)
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
#[allow(clippy::too_many_arguments)]
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
    let f = class.per_word();
    let slot = class.slot();
    let first = offset >> class.log_per_word();
    let last = (offset + n - 1) >> class.log_per_word();
    let k0 = offset & (f - 1);
    let k1 = ((offset + n - 1) & (f - 1)) + 1;
    if k0 == 0 {
        // Word-aligned windows (every grid-aligned chunk): each output word
        // is composed from a fixed group of packed words with no carry
        // state between iterations.
        return packed_mask_aligned(packed, class, offset, n, lo, hi, mode, out);
    }
    let mut sink = DenseSink {
        any: 0,
        cur: 0,
        cur_w: 0,
        filled: 0,
    };
    if first == last {
        let scattered =
            swar_match_word(packed[first], class, lo, hi) & delim_range_mask(class, k0, k1);
        sink.push(
            mode,
            out,
            densify(scattered >> (k0 as u32 * slot), class),
            k1 - k0,
        );
    } else {
        let scattered =
            swar_match_word(packed[first], class, lo, hi) & delim_range_mask(class, k0, f);
        sink.push(
            mode,
            out,
            densify(scattered >> (k0 as u32 * slot), class),
            f - k0,
        );
        // Interior words are whole: no edge masks, no per-word branches.
        for &x in &packed[first + 1..last] {
            sink.push(
                mode,
                out,
                densify(swar_match_word(x, class, lo, hi), class),
                f,
            );
        }
        let scattered =
            swar_match_word(packed[last], class, lo, hi) & delim_range_mask(class, 0, k1);
        sink.push(mode, out, densify(scattered, class), k1);
    }
    sink.flush(mode, out)
}

/// [`packed_mask`] for windows starting on a packed-word boundary: output
/// word `ow` gathers exactly `64 / per_word` packed words, so the inner loop
/// carries no spill state. The class match sits outside the loops so each
/// arm is a monomorphic, unrollable body.
#[allow(clippy::too_many_arguments)]
fn packed_mask_aligned(
    packed: &[u64],
    class: PackClass,
    offset: usize,
    n: usize,
    lo: u64,
    hi: Option<u64>,
    mode: MaskMode,
    out: &mut [u64],
) -> u64 {
    let mut any = 0u64;
    let mut w = offset >> class.log_per_word();
    macro_rules! run {
        ($f:expr, $cl:expr) => {{
            let g = WORD_BITS / $f;
            for ow in 0..n / WORD_BITS {
                let mut cur = 0u64;
                for j in 0..g {
                    cur |= densify(swar_match_word(packed[w + j], $cl, lo, hi), $cl) << (j * $f);
                }
                w += g;
                any |= apply_mask_word(mode, out, ow, cur);
            }
            let rem = n % WORD_BITS;
            if rem > 0 {
                let mut cur = 0u64;
                let mut filled = 0usize;
                while filled < rem {
                    let take = (rem - filled).min($f);
                    let m =
                        swar_match_word(packed[w], $cl, lo, hi) & delim_range_mask($cl, 0, take);
                    cur |= densify(m, $cl) << filled;
                    filled += take;
                    w += 1;
                }
                any |= apply_mask_word(mode, out, n / WORD_BITS, cur);
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

/// Accumulates dense per-word match bits (`nb` low bits at a time) into the
/// selection bitmap, spilling each completed 64-bit output word.
struct DenseSink {
    any: u64,
    cur: u64,
    cur_w: usize,
    filled: usize,
}

impl DenseSink {
    #[inline(always)]
    fn push(&mut self, mode: MaskMode, out: &mut [u64], dense: u64, nb: usize) {
        self.cur |= dense << self.filled;
        if self.filled + nb >= 64 {
            self.any |= apply_mask_word(mode, out, self.cur_w, self.cur);
            // nb <= 8, so filled >= 56 here and the shift stays in range;
            // when the word filled exactly, the remainder shifts to zero.
            self.cur = dense >> (64 - self.filled).min(63);
            if 64 - self.filled == nb {
                self.cur = 0;
            }
            self.filled = self.filled + nb - 64;
            self.cur_w += 1;
        } else {
            self.filled += nb;
        }
    }

    #[inline(always)]
    fn flush(self, mode: MaskMode, out: &mut [u64]) -> u64 {
        if self.filled > 0 {
            self.any | apply_mask_word(mode, out, self.cur_w, self.cur)
        } else {
            self.any
        }
    }
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
    let mut count = 0u64;
    let mut fs = FieldSum::new(class);
    let mut fold = |fs: &mut FieldSum, scattered: u64, agg_word: u64| {
        count += scattered.count_ones() as u64;
        // Broadcast each matched delimiter bit over its field's payload.
        let field_mask = (scattered >> class.width()).wrapping_mul(class.value_mask());
        fs.add(agg_word & field_mask);
    };
    if first == last {
        let m =
            swar_match_word(pred_packed[first], class, lo, hi) & delim_range_mask(class, k0, k1);
        fold(&mut fs, m, agg_packed[first]);
        return (count, fs.finish());
    }
    let m = swar_match_word(pred_packed[first], class, lo, hi) & delim_range_mask(class, k0, f);
    fold(&mut fs, m, agg_packed[first]);
    let m = swar_match_word(pred_packed[last], class, lo, hi) & delim_range_mask(class, 0, k1);
    fold(&mut fs, m, agg_packed[last]);
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

/// Masked fold for `SUM` with an arbitrary value fetcher (packed aggregation
/// columns): like [`mask_sum`], but rows are materialized through `fetch`.
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

/// Masked `MIN`/`MAX` fold with an arbitrary value fetcher.
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
                // The portable body too, wherever `mask_first` vectorizes.
                let mut words = vec![0u64; nw];
                mask_words_body(&block, p, MaskMode::Set, &mut words);
                assert_eq!(selected(&words), expected, "mask_words_body {p:?}");
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
            for (offset, n) in [
                (0usize, 500usize),
                (0, 64),
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
                    // Count fast path agrees.
                    assert_eq!(
                        packed_count(&packed, class, offset, n, lo, hi),
                        expect.iter().filter(|&&b| b).count()
                    );
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
}
