//! Flat struct-of-arrays storage for the bit-parallel fixpoint kernels.
//!
//! The FDS and relational solvers used to keep one heap-allocated
//! [`BitSet`] per node (or per valuation), so every transfer paid an
//! allocation and every join walked a `Vec<u64>` behind a pointer chase.
//! This module packs all per-node valuations into one contiguous `u64`
//! arena, node-major, so the hot loops become word-wise `OR`/`AND` sweeps
//! over adjacent cache lines:
//!
//! * [`WordArena`] — the per-node may-be-1 rows of the FDS kernel. Rows of
//!   eight or more words are padded to a whole number of cache lines
//!   (eight `u64`s) so no row straddles a line boundary; narrower rows
//!   stay dense, where padding would only waste bandwidth.
//! * [`ValPool`] — an interner for full relational valuations: each
//!   distinct valuation is stored once and identified by a dense `u32`
//!   id, so per-node state sets shrink from `HashSet<BitSet>` (one heap
//!   allocation per member per node) to a sorted [`SmallIdVec`] of ids.
//! * [`SmallIdVec`] — a small-vector of ids that stays inline for the
//!   common case (most nodes hold a handful of valuations) and spills to
//!   the heap only when a node's state set genuinely grows.

use std::collections::HashMap;

use crate::bitset::BitSet;

/// Words per cache line (64 bytes).
const LINE_WORDS: usize = 8;

/// Tests bit `bit` of a word row.
#[inline]
pub fn word_get(row: &[u64], bit: usize) -> bool {
    row[bit / 64] >> (bit % 64) & 1 == 1
}

/// Sets bit `bit` of a word row to `v`.
#[inline]
pub fn word_set(row: &mut [u64], bit: usize, v: bool) {
    if v {
        row[bit / 64] |= 1 << (bit % 64);
    } else {
        row[bit / 64] &= !(1 << (bit % 64));
    }
}

/// `dst |= src` word-wise; returns whether `dst` changed. Stores are
/// conditional: near a fixpoint most joins change nothing, and skipping
/// the store keeps the target's cache lines clean instead of re-dirtying
/// a full row per edge visit.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut grew = false;
    for (a, b) in dst.iter_mut().zip(src) {
        let next = *a | *b;
        if next != *a {
            *a = next;
            grew = true;
        }
    }
    grew
}

/// Whether `sub ⊆ sup`, word-wise.
#[inline]
pub fn is_subset(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(a, b)| a & !b == 0)
}

/// The row stride (in words) for `width` bits: dense for narrow rows,
/// padded to whole cache lines once a row spans one or more lines.
pub fn stride_for(width: usize) -> usize {
    let raw = width.div_ceil(64).max(1);
    if raw >= LINE_WORDS {
        raw.div_ceil(LINE_WORDS) * LINE_WORDS
    } else {
        raw
    }
}

/// One contiguous node-major `u64` arena: row `r` holds the `width`-bit
/// valuation of node `r` in `stride` consecutive words.
///
/// Equality compares whole rows word-for-word; padding words are never
/// written (no bit index ≥ `width` is ever set), so two arenas with the
/// same shape and the same valuations always compare equal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WordArena {
    words: Vec<u64>,
    stride: usize,
    width: usize,
    rows: usize,
}

impl WordArena {
    /// A zeroed arena of `rows` rows of `width` bits each.
    pub fn new(rows: usize, width: usize) -> WordArena {
        let stride = stride_for(width);
        WordArena { words: vec![0; rows * stride], stride, width, rows }
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `r` as a word slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r` as a mutable word slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Tests bit `bit` of row `r`.
    #[inline]
    pub fn get(&self, r: usize, bit: usize) -> bool {
        debug_assert!(bit < self.width);
        word_get(self.row(r), bit)
    }

    /// Sets bit `bit` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, bit: usize, v: bool) {
        assert!(bit < self.width, "bit index {bit} out of range {}", self.width);
        word_set(self.row_mut(r), bit, v);
    }

    /// `row[r] |= src` word-wise; returns whether the row changed.
    #[inline]
    pub fn union_row(&mut self, r: usize, src: &[u64]) -> bool {
        or_into(self.row_mut(r), src)
    }

    /// Rows `from` (shared) and `to` (mutable) at once — the split borrow
    /// an edge transfer needs to `OR` source words into the target.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` (a self-loop has only one row; handle it
    /// separately).
    #[inline]
    pub fn rows_pair(&mut self, from: usize, to: usize) -> (&[u64], &mut [u64]) {
        assert_ne!(from, to, "a self-loop has only one row");
        let stride = self.stride;
        let (fb, tb) = (from * stride, to * stride);
        if from < to {
            let (a, b) = self.words.split_at_mut(tb);
            (&a[fb..fb + stride], &mut b[..stride])
        } else {
            let (a, b) = self.words.split_at_mut(fb);
            (&b[..stride], &mut a[tb..tb + stride])
        }
    }

    /// Sets the given bit indices of row `r` (a certificate solution row).
    pub fn load_bits(&mut self, r: usize, bits: &[u32]) {
        for &b in bits {
            self.set(r, b as usize, true);
        }
    }

    /// Row `r` as a standalone [`BitSet`] (padding words dropped).
    pub fn to_bitset(&self, r: usize) -> BitSet {
        BitSet::from_row(self.row(r), self.width)
    }
}

/// A small-vector of `u32` ids: inline up to eight entries, heap beyond.
#[derive(Clone, Debug, Default)]
pub struct SmallIdVec {
    inline: [u32; 8],
    len: usize,
    spill: Vec<u32>,
}

impl SmallIdVec {
    /// An empty vector.
    pub fn new() -> SmallIdVec {
        SmallIdVec::default()
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        if self.len <= self.inline.len() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Appends `id` (no ordering maintained).
    pub fn push(&mut self, id: u32) {
        if self.len < self.inline.len() {
            self.inline[self.len] = id;
        } else {
            if self.len == self.inline.len() {
                self.spill = self.inline.to_vec();
            }
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// Inserts `id` keeping the vector sorted; returns whether it was new.
    pub fn insert_sorted(&mut self, id: u32) -> bool {
        match self.as_slice().binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                if self.len < self.inline.len() {
                    self.inline.copy_within(pos..self.len, pos + 1);
                    self.inline[pos] = id;
                } else {
                    if self.len == self.inline.len() {
                        self.spill = self.inline.to_vec();
                    }
                    self.spill.insert(pos, id);
                }
                self.len += 1;
                true
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_words(row: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in row {
        for shift in [0, 16, 32, 48] {
            h ^= (w >> shift) & 0xffff;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// An interner for fixed-width valuations: each distinct word row is
/// stored once in a flat arena and named by a dense `u32` id. Interning a
/// row costs one hash probe plus (on a collision chain) word compares;
/// no allocation happens unless the row is genuinely new.
#[derive(Clone, Debug)]
pub struct ValPool {
    width: usize,
    stride: usize,
    words: Vec<u64>,
    index: HashMap<u64, SmallIdVec>,
}

impl ValPool {
    /// An empty pool over `width`-bit valuations.
    pub fn new(width: usize) -> ValPool {
        // dense stride: pool rows are compared and hashed whole, padding
        // would only lengthen both
        let stride = width.div_ceil(64).max(1);
        ValPool { width, stride, words: Vec::new(), index: HashMap::new() }
    }

    /// Bits per valuation.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per valuation row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct valuations interned.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The interned row for `id`.
    #[inline]
    pub fn row(&self, id: u32) -> &[u64] {
        let at = id as usize * self.stride;
        &self.words[at..at + self.stride]
    }

    /// Interns `row` (must be `stride()` words) and returns its id.
    pub fn intern(&mut self, row: &[u64]) -> u32 {
        debug_assert_eq!(row.len(), self.stride);
        let hash = fnv_words(row);
        if let Some(ids) = self.index.get(&hash) {
            for &id in ids.as_slice() {
                if self.row(id) == row {
                    return id;
                }
            }
        }
        let id = self.len() as u32;
        self.words.extend_from_slice(row);
        self.index.entry(hash).or_default().push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_rows_are_independent() {
        let mut a = WordArena::new(3, 130);
        a.set(0, 0, true);
        a.set(1, 129, true);
        assert!(a.get(0, 0) && a.get(1, 129));
        assert!(!a.get(2, 0) && !a.get(0, 129));
        let row1 = a.row(1).to_vec();
        assert!(a.union_row(2, &row1));
        assert!(!a.union_row(2, &row1));
        assert!(a.get(2, 129));
        assert_eq!(a.to_bitset(2).iter_ones().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn wide_rows_are_cache_line_padded() {
        assert_eq!(stride_for(1), 1);
        assert_eq!(stride_for(64), 1);
        assert_eq!(stride_for(65), 2);
        assert_eq!(stride_for(448), 7);
        assert_eq!(stride_for(449), 8);
        assert_eq!(stride_for(513), 16);
    }

    #[test]
    fn small_id_vec_spills_and_stays_sorted() {
        let mut v = SmallIdVec::new();
        for id in (0..20u32).rev() {
            assert!(v.insert_sorted(id));
            assert!(!v.insert_sorted(id));
        }
        assert_eq!(v.len(), 20);
        assert_eq!(v.as_slice(), (0..20u32).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn pool_interns_by_value() {
        let mut pool = ValPool::new(70);
        let a = [3u64, 1];
        let b = [3u64, 2];
        let ia = pool.intern(&a);
        let ib = pool.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(pool.intern(&a), ia);
        assert_eq!(pool.len(), 2);
        assert_eq!(
            BitSet::from_row(pool.row(ib), 70).iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 65]
        );
    }
}
