//! A single column of 64-bit integer values with lightweight metadata,
//! stored block-encoded.
//!
//! Physically a column is an **encoded prefix** plus a **plain tail**: every
//! block of [`BLOCK_ROWS`] rows aligned to the absolute grid is stored as an
//! [`EncodedBlock`] (frame-of-reference bit-packing, dictionary codes, or a
//! plain fallback — see [`tsunami_core::encode`]) once its owner calls
//! [`Column::encode_blocks`], and everything after the prefix stays a raw
//! `Vec<u64>`. The tail holds the rows appended since the last encode and
//! the trailing partial block. Appends go to the tail, so an append never
//! pays encode cost itself; once the owning index has placed its rows
//! (build, graft, compaction, an append that is final) it calls
//! `encode_blocks`, which packs the tail's full blocks. A build skips the
//! plain stage: `Column::gathered` encodes each block as it gathers it from
//! the input.
//! Any mutation that moves rows ([`Column::select`],
//! [`Column::permute_range`]) first decodes the affected suffix, which also
//! keeps block metadata trivially consistent: an encoded block's contents
//! never change after encoding.
//!
//! That immutability is what lets the encoded prefix sit behind an [`Arc`]:
//! cloning a column shares every encoded block and copies only the plain
//! tail, so a snapshot-swapped successor that appends to (or reorders) the
//! tail costs O(tail), not O(column). A mutation that does reach into the
//! prefix decodes from the shared blocks and leaves them untouched for the
//! other owners.
//!
//! Each block's payload is shared as well (it sits behind its own `Arc`,
//! see [`tsunami_core::encode`]). So when a successor extends a prefix that
//! an older snapshot still holds, [`Column::encode_blocks`] copies the
//! blocks' headers — bounds, class and payload pointers, under 100 bytes a
//! block — and never their packed words.

use std::sync::Arc;

use tsunami_core::exec::{ColumnData, BLOCK_ROWS};
use tsunami_core::{EncodedBlock, Value};

/// A dense, in-memory column of `u64` values.
///
/// The column tracks its physical min/max so scans over a whole column (or
/// index structures that need per-page metadata) can cheaply prune. Bounds
/// are `None` for an empty column — never a `(0, 0)` sentinel, which would
/// be indistinguishable from a real all-zero column and poison block
/// skipping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Encoded blocks covering rows `0 .. packed.len() * BLOCK_ROWS`, shared
    /// with every clone of the column (see the module docs).
    packed: Arc<Vec<EncodedBlock>>,
    /// Plain values for every row after the encoded prefix.
    values: Vec<Value>,
    /// Physical min/max over every stored row; `None` when empty.
    bounds: Option<(Value, Value)>,
}

impl Column {
    /// Creates a plain column from raw values.
    pub fn new(values: Vec<Value>) -> Self {
        let bounds = min_max(&values);
        Self {
            packed: Arc::default(),
            values,
            bounds,
        }
    }

    /// A column whose row `i` holds `values[order[i]]`, every full block
    /// encoded with all its rows live: what [`Column::new`], a
    /// [`Column::select`] of `order` and [`Column::encode_blocks`] build,
    /// without the plain copy in between. Each block is gathered into a
    /// buffer and encoded straight away; the trailing partial block is the
    /// plain tail.
    pub(crate) fn gathered(values: &[Value], order: &[usize]) -> Self {
        let (head, tail) = order.split_at(order.len() - order.len() % BLOCK_ROWS);
        let mut block = [0; BLOCK_ROWS];
        let packed = (head.chunks_exact(BLOCK_ROWS))
            .map(|rows| {
                for (v, &row) in block.iter_mut().zip(rows) {
                    *v = values[row];
                }
                EncodedBlock::encode(&block, |_| true)
            })
            .collect();
        let mut column = Self {
            packed: Arc::new(packed),
            values: tail.iter().map(|&row| values[row]).collect(),
            bounds: None,
        };
        column.recompute_bounds();
        column
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.packed.len() * BLOCK_ROWS + self.values.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty() && self.values.is_empty()
    }

    /// The column as the executor sees it.
    pub fn data(&self) -> ColumnData<'_> {
        ColumnData {
            blocks: &self.packed,
            tail: &self.values,
        }
    }

    /// The encoded prefix blocks.
    pub fn encoded_blocks(&self) -> &[EncodedBlock] {
        &self.packed
    }

    /// Number of plain rows after the encoded prefix.
    pub fn tail_rows(&self) -> usize {
        self.values.len()
    }

    /// Value at row `i`, whatever its representation.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        let covered = self.packed.len() * BLOCK_ROWS;
        if i < covered {
            self.packed[i / BLOCK_ROWS].value_at(i % BLOCK_ROWS)
        } else {
            self.values[i - covered]
        }
    }

    /// Whether some row of block `block` (rows `block * BLOCK_ROWS ..`) may
    /// hold a live value in `lo..=hi`. An encoded block answers from its
    /// live bounds — rows dead at encode time stay dead — and a plain one
    /// cannot tell, so it may.
    pub fn block_may_match(&self, block: usize, lo: Value, hi: Value) -> bool {
        self.packed.get(block).is_none_or(|eb| {
            eb.live_bounds()
                .is_some_and(|(min, max)| lo <= max && min <= hi)
        })
    }

    /// Decodes rows `range` into a fresh vector (store order).
    pub fn decode_range(&self, range: std::ops::Range<usize>) -> Vec<Value> {
        self.data().decode_range(range)
    }

    /// Physical minimum value; `None` when empty. Bounds cover every stored
    /// row including tombstoned ones (per-block *live* bounds live in the
    /// encoded blocks); physical removal re-tightens them.
    pub fn min(&self) -> Option<Value> {
        self.bounds.map(|(lo, _)| lo)
    }

    /// Physical maximum value; `None` when empty.
    pub fn max(&self) -> Option<Value> {
        self.bounds.map(|(_, hi)| hi)
    }

    /// Appends values at the end of the column, extending min/max to cover
    /// them. This is the storage half of incremental ingestion: appended rows
    /// land in the **plain tail** — never encoded on the hot insert path —
    /// and the owning index then orders the tail with
    /// [`Column::permute_range`] or grafts them into place with
    /// [`Column::select`] (or leaves them, and a later
    /// [`Column::encode_blocks`] packs them).
    pub fn append(&mut self, values: &[Value]) {
        let Some((lo, hi)) = min_max(values) else {
            return;
        };
        self.bounds = Some(match self.bounds {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
        self.values.extend_from_slice(values);
    }

    /// Encodes every full [`BLOCK_ROWS`] block of the plain tail, extending
    /// the encoded prefix; a trailing partial block stays plain. `is_live`
    /// reports whether an **absolute** row is live at encode time, feeding
    /// the per-block tombstone-aware live bounds that block skipping prunes
    /// on.
    pub fn encode_blocks(&mut self, is_live: impl Fn(usize) -> bool) {
        let full = self.values.len() / BLOCK_ROWS;
        if full == 0 {
            return;
        }
        let base = self.packed.len() * BLOCK_ROWS;
        let packed = Arc::make_mut(&mut self.packed);
        packed.reserve(full);
        for b in 0..full {
            let start = b * BLOCK_ROWS;
            let abs = base + start;
            packed.push(EncodedBlock::encode(
                &self.values[start..start + BLOCK_ROWS],
                |i| is_live(abs + i),
            ));
        }
        self.values.drain(..full * BLOCK_ROWS);
    }

    /// Decodes every encoded block back into the plain tail.
    fn make_plain(&mut self) {
        self.decode_from(0);
    }

    /// Decodes blocks `k0..` of the encoded prefix into the plain tail
    /// (the prefix must stay contiguous from row 0, so mutating any row of
    /// block `k` requires decoding `k` and everything after it).
    fn decode_from(&mut self, k0: usize) {
        if k0 >= self.packed.len() {
            return;
        }
        let decoded_rows: usize = self.packed[k0..].iter().map(|eb| eb.len()).sum();
        let mut plain = Vec::with_capacity(decoded_rows + self.values.len());
        for eb in &self.packed[k0..] {
            let off = plain.len();
            plain.resize(off + eb.len(), 0);
            eb.decode_into(0, &mut plain[off..]);
        }
        plain.append(&mut self.values);
        self.values = plain;
        // Keep blocks `..k0`: in place when this column is their only owner,
        // as a copy of just those blocks when they are shared.
        match Arc::get_mut(&mut self.packed) {
            Some(packed) => packed.truncate(k0),
            None => self.packed = Arc::new(self.packed[..k0].to_vec()),
        }
    }

    /// Rebuilds the column from the listed rows, in the listed order: new
    /// row `i` holds the value previously at row `rows[i]`, and every row not
    /// listed is dropped (a permutation drops none). Decodes the whole
    /// column first; the owner re-encodes after restructuring. Min/max are
    /// recomputed when rows were dropped, since removal can tighten them.
    pub fn select(&mut self, rows: &[usize]) {
        self.make_plain();
        let dropped = rows.len() != self.values.len();
        self.values = rows.iter().map(|&src| self.values[src]).collect();
        if dropped {
            self.recompute_bounds();
        }
    }

    /// Permutes only the rows `base..base + perm.len()`: new row `base + i`
    /// holds the value previously at row `base + perm[i]` (`perm` uses local,
    /// 0-based indices). Min/max are unchanged by any reordering. Encoded
    /// blocks from the first touched one on are decoded first.
    pub fn permute_range(&mut self, base: usize, perm: &[usize]) {
        debug_assert!(base + perm.len() <= self.len());
        self.decode_from(base / BLOCK_ROWS);
        let covered = self.packed.len() * BLOCK_ROWS;
        let slice = &mut self.values[base - covered..base - covered + perm.len()];
        let reordered: Vec<Value> = perm.iter().map(|&src| slice[src]).collect();
        slice.copy_from_slice(&reordered);
    }

    fn recompute_bounds(&mut self) {
        let mut bounds = min_max(&self.values);
        for eb in self.packed.iter() {
            let (lo, hi) = eb.bounds();
            bounds = Some(match bounds {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
        self.bounds = bounds;
    }

    /// Approximate heap size in bytes (packed payloads plus the plain tail).
    pub fn size_bytes(&self) -> usize {
        self.packed
            .iter()
            .map(EncodedBlock::size_bytes)
            .sum::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
    }
}

/// Min/max of a slice; `None` when empty (no `(0, 0)` sentinel — see the
/// regression test below).
fn min_max(values: &[Value]) -> Option<(Value, Value)> {
    let mut min = Value::MAX;
    let mut max = Value::MIN;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (!values.is_empty()).then_some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::BlockData;

    #[test]
    fn tracks_min_max() {
        let c = Column::new(vec![5, 1, 9, 3]);
        assert_eq!(c.min(), Some(1));
        assert_eq!(c.max(), Some(9));
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn empty_column_has_no_bounds() {
        // Regression: an empty column used to report the `(0, 0)` sentinel,
        // indistinguishable from a real all-zero column — block skipping on
        // those bounds would wrongly prune (or wrongly keep) rows.
        let c = Column::new(vec![]);
        assert_eq!((c.min(), c.max()), (None, None));
        assert!(c.is_empty());
        let zeros = Column::new(vec![0, 0]);
        assert_eq!((zeros.min(), zeros.max()), (Some(0), Some(0)));
        assert_ne!((c.min(), c.max()), (zeros.min(), zeros.max()));
    }

    #[test]
    fn append_extends_values_and_bounds() {
        let mut c = Column::new(vec![5, 9]);
        c.append(&[]);
        assert_eq!((c.len(), c.min(), c.max()), (2, Some(5), Some(9)));
        c.append(&[1, 20]);
        assert_eq!(c.decode_range(0..4), [5, 9, 1, 20]);
        assert_eq!((c.min(), c.max()), (Some(1), Some(20)));

        let mut empty = Column::new(vec![]);
        empty.append(&[7, 3]);
        assert_eq!((empty.min(), empty.max()), (Some(3), Some(7)));
    }

    #[test]
    fn select_of_a_permutation_reorders_values() {
        let mut c = Column::new(vec![10, 20, 30, 40]);
        c.select(&[3, 1, 0, 2]);
        assert_eq!(c.decode_range(0..4), [40, 20, 10, 30]);
        assert_eq!(c.get(0), 40);
    }

    fn encoded_column(n: usize) -> Column {
        let mut c = Column::new((0..n as u64).map(|v| v * 3 % 2048).collect());
        c.encode_blocks(|_| true);
        c
    }

    #[test]
    fn encode_blocks_packs_full_blocks_and_leaves_tail_plain() {
        let n = 2 * BLOCK_ROWS + 100;
        let c = encoded_column(n);
        assert_eq!(c.encoded_blocks().len(), 2);
        assert_eq!(c.tail_rows(), 100);
        assert_eq!(c.len(), n);
        // Every row reads back identically.
        for i in (0..n).step_by(37) {
            assert_eq!(c.get(i), (i as u64) * 3 % 2048);
        }
        // And compressed blocks actually shrink the footprint.
        assert!(c.size_bytes() < n * 8);
    }

    #[test]
    fn decode_range_spans_blocks_and_tail() {
        let n = 2 * BLOCK_ROWS + 50;
        let c = encoded_column(n);
        let plain: Vec<Value> = (0..n as u64).map(|v| v * 3 % 2048).collect();
        for range in [0..n, 10..BLOCK_ROWS + 5, BLOCK_ROWS - 1..n - 3, n - 20..n] {
            assert_eq!(c.decode_range(range.clone()), &plain[range]);
        }
    }

    #[test]
    fn mutations_decode_the_touched_suffix() {
        let n = 3 * BLOCK_ROWS;
        let mut c = encoded_column(n);
        assert_eq!(c.encoded_blocks().len(), 3);
        // Permuting a range inside block 1 decodes blocks 1.. but keeps 0.
        let perm: Vec<usize> = (0..10).rev().collect();
        c.permute_range(BLOCK_ROWS + 5, &perm);
        assert_eq!(c.encoded_blocks().len(), 1);
        assert_eq!(c.get(BLOCK_ROWS + 5), ((BLOCK_ROWS + 14) as u64) * 3 % 2048);
        // Unaffected prefix block still reads correctly.
        assert_eq!(c.get(7), 21);
        // Re-encoding packs the plain region again.
        c.encode_blocks(|_| true);
        assert_eq!(c.encoded_blocks().len(), 3);
    }

    #[test]
    fn select_reorders_drops_and_retightens_bounds() {
        let mut c = encoded_column(BLOCK_ROWS + 10);
        // Keep three rows, out of order, from the block and from the tail.
        c.select(&[BLOCK_ROWS + 3, 2, 700]);
        let value = |i: usize| (i as u64) * 3 % 2048;
        assert_eq!(c.decode_range(0..3), [value(BLOCK_ROWS + 3), 6, value(700)]);
        assert_eq!((c.min(), c.max()), (Some(6), Some(value(BLOCK_ROWS + 3))));
    }

    #[test]
    fn a_clone_shares_the_encoded_prefix_until_it_reaches_into_it() {
        let n = 3 * BLOCK_ROWS + 20;
        let original = encoded_column(n);
        let mut clone = original.clone();
        assert!(std::ptr::eq(
            original.encoded_blocks().as_ptr(),
            clone.encoded_blocks().as_ptr()
        ));
        // Tail-only mutations keep sharing it.
        clone.append(&[7, 8, 9]);
        clone.permute_range(3 * BLOCK_ROWS, &[2, 1, 0]);
        assert!(std::ptr::eq(
            original.encoded_blocks().as_ptr(),
            clone.encoded_blocks().as_ptr()
        ));
        // Reaching into block 1 decodes the clone's blocks 1.. and copies
        // block 0; the original keeps all three, untouched.
        clone.permute_range(BLOCK_ROWS + 5, &[1, 0]);
        assert_eq!(clone.encoded_blocks().len(), 1);
        assert_eq!(original.encoded_blocks().len(), 3);
        assert_eq!(original.len(), n);
        for i in (0..n).step_by(41) {
            assert_eq!(original.get(i), (i as u64) * 3 % 2048);
        }
        assert_eq!(clone.get(BLOCK_ROWS + 5), original.get(BLOCK_ROWS + 6));
        assert_eq!(clone.get(7), original.get(7));
    }

    #[test]
    fn encoding_on_a_clone_shares_every_earlier_payload() {
        let original = encoded_column(2 * BLOCK_ROWS + 20);
        let mut clone = original.clone();
        clone.append(&vec![5; BLOCK_ROWS]);
        clone.encode_blocks(|_| true);
        // The clone copied the prefix to extend it, not the payloads.
        assert_eq!(clone.encoded_blocks().len(), 3);
        assert_eq!(original.encoded_blocks().len(), 2);
        assert!(!std::ptr::eq(
            original.encoded_blocks().as_ptr(),
            clone.encoded_blocks().as_ptr()
        ));
        for (a, b) in original.encoded_blocks().iter().zip(clone.encoded_blocks()) {
            let shared = match (a.data(), b.data()) {
                (BlockData::For { packed: a, .. }, BlockData::For { packed: b, .. }) => {
                    Arc::ptr_eq(a, b)
                }
                other => panic!("expected FOR payloads, got {other:?}"),
            };
            assert!(shared, "an earlier block's payload was copied");
        }
    }

    #[test]
    fn size_bytes_counts_values() {
        let c = Column::new(vec![0; 100]);
        assert_eq!(c.size_bytes(), 800);
    }
}
