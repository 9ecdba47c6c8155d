//! Word-packed deletion bitmaps (tombstones).
//!
//! Deletes never rewrite the clustered store eagerly: a deleted row keeps
//! its physical slot and gets one bit here. The scan kernels AND the
//! *liveness* view of this bitmap into every selection (the packed path a
//! word at a time, the scalar oracle per row, dense exact ranges
//! blockwise), so a
//! tombstoned row can never reach an aggregate. Physical removal is
//! compaction's job — a region past the tombstone bar is re-gridded over its
//! live rows only, which is when bits actually disappear.
//!
//! The layout matches the kernel bitmap convention: bit `i % 64` of word
//! `i / 64`, one bit per physical row, set = deleted.

use std::ops::Range;

const WORD_BITS: usize = 64;

/// A deletion bitmap over a table's physical rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TombstoneSet {
    words: Vec<u64>,
    len: usize,
    deleted: usize,
}

impl TombstoneSet {
    /// An all-live set covering `len` rows.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
            deleted: 0,
        }
    }

    /// Number of physical rows covered (live + deleted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of tombstoned rows.
    pub fn deleted(&self) -> usize {
        self.deleted
    }

    /// Number of live rows.
    pub fn live(&self) -> usize {
        self.len - self.deleted
    }

    /// Whether any row is tombstoned. The executors skip all liveness work
    /// when this is false, so tables without deletes pay nothing.
    pub fn any(&self) -> bool {
        self.deleted > 0
    }

    /// Whether physical row `row` is tombstoned.
    #[inline(always)]
    pub fn is_deleted(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        self.words[row / WORD_BITS] >> (row % WORD_BITS) & 1 == 1
    }

    /// Tombstones `row`. Returns `true` if the row was live (newly marked).
    pub fn mark(&mut self, row: usize) -> bool {
        assert!(row < self.len, "tombstone row {row} out of {}", self.len);
        let bit = 1u64 << (row % WORD_BITS);
        let word = &mut self.words[row / WORD_BITS];
        let newly = *word & bit == 0;
        *word |= bit;
        self.deleted += newly as usize;
        newly
    }

    /// Appends `n` live rows.
    pub fn extend_live(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(WORD_BITS), 0);
    }

    /// 64 *liveness* bits starting at physical row `base` (bit `i` set = row
    /// `base + i` is live). Rows past the end read as live; the scan kernels
    /// never consume bits beyond the block they masked.
    #[inline(always)]
    pub fn live_word(&self, base: usize) -> u64 {
        let w = base / WORD_BITS;
        let sh = base % WORD_BITS;
        let lo = self.words.get(w).copied().unwrap_or(0);
        let dead = if sh == 0 {
            lo
        } else {
            let hi = self.words.get(w + 1).copied().unwrap_or(0);
            (lo >> sh) | (hi << (WORD_BITS - sh))
        };
        !dead
    }

    /// Number of tombstoned rows inside a physical range.
    pub fn count_deleted_in(&self, range: Range<usize>) -> usize {
        let mut n = 0usize;
        let mut base = range.start;
        while base < range.end {
            let take = (range.end - base).min(WORD_BITS);
            let mut dead = !self.live_word(base);
            if take < WORD_BITS {
                dead &= (1u64 << take) - 1;
            }
            n += dead.count_ones() as usize;
            base += take;
        }
        n
    }

    /// Reorders the bits of `base..base + perm.len()` in place: new local bit
    /// `i` is the old local bit `perm[i]` (same contract as
    /// `ColumnStore::permute_range`).
    pub fn permute_range(&mut self, base: usize, perm: &[usize]) {
        let old: Vec<bool> = (0..perm.len()).map(|i| self.is_deleted(base + i)).collect();
        for (i, &src) in perm.iter().enumerate() {
            let row = base + i;
            let bit = 1u64 << (row % WORD_BITS);
            if old[src] {
                self.words[row / WORD_BITS] |= bit;
            } else {
                self.words[row / WORD_BITS] &= !bit;
            }
        }
    }

    /// Physical rows that are live, in order — the logical view rebuilds and
    /// checkpoints use.
    pub fn live_rows(&self) -> Vec<usize> {
        (0..self.len).filter(|&r| !self.is_deleted(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_counts() {
        let mut t = TombstoneSet::new(100);
        assert!(!t.any());
        assert!(t.mark(3));
        assert!(!t.mark(3));
        assert!(t.mark(64));
        assert_eq!((t.len(), t.deleted(), t.live()), (100, 2, 98));
        assert!(t.is_deleted(3) && t.is_deleted(64) && !t.is_deleted(4));
        assert_eq!(t.count_deleted_in(0..100), 2);
        assert_eq!(t.count_deleted_in(4..64), 0);
        assert_eq!(t.count_deleted_in(60..65), 1);
    }

    #[test]
    fn live_word_crosses_word_boundaries() {
        let mut t = TombstoneSet::new(200);
        for row in [0, 63, 64, 70, 130] {
            t.mark(row);
        }
        for base in [0usize, 1, 32, 63, 64, 100, 136, 190] {
            let w = t.live_word(base);
            for i in 0..WORD_BITS {
                let row = base + i;
                let expect_live = row >= t.len() || !t.is_deleted(row);
                assert_eq!(w >> i & 1 == 1, expect_live, "base={base} bit={i}");
            }
        }
    }

    #[test]
    fn permutations_carry_bits() {
        let mut t = TombstoneSet::new(6);
        t.mark(1);
        t.mark(4);
        // Rotate the middle range 1..5 left by one.
        t.permute_range(1, &[1, 2, 3, 0]);
        // Old local bits [1,0,0,1] -> new local order [0,0,1,1].
        assert_eq!(t.live_rows(), vec![0, 1, 2, 5]);
        assert_eq!(t.deleted(), 2);
    }

    #[test]
    fn extend_live_grows_cleanly() {
        let mut t = TombstoneSet::new(3);
        t.mark(1);
        t.extend_live(70);
        assert_eq!((t.len(), t.deleted()), (73, 1));
        assert!(!t.is_deleted(72));
        assert_eq!(t.live_rows().len(), 72);
    }
}
