//! A compact fixed-width bit set.

/// A fixed-width bit set backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        if v {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// `self |= other`; returns whether `self` changed.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        static BITSET_UNIONS: canvas_telemetry::Counter =
            canvas_telemetry::Counter::new("dataflow.bitset_unions");
        BITSET_UNIONS.incr();
        assert_eq!(self.len, other.len, "bit set width mismatch");
        crate::soa::or_into(&mut self.words, &other.words)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        crate::soa::is_subset(&self.words, &other.words)
    }

    /// Iterates over set bit indices.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words, least-significant bit first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably (bits past `len` must stay clear).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Builds a `len`-bit set from a word row (e.g. a [`crate::soa`]
    /// arena row). Extra words beyond `len` bits are ignored and the top
    /// word is masked, so padded rows convert cleanly.
    ///
    /// # Panics
    ///
    /// Panics if `row` holds fewer than `len` bits.
    pub fn from_row(row: &[u64], len: usize) -> BitSet {
        let need = len.div_ceil(64);
        assert!(row.len() >= need, "row of {} words cannot hold {len} bits", row.len());
        let mut words = row[..need].to_vec();
        if !len.is_multiple_of(64) {
            if let Some(top) = words.last_mut() {
                *top &= (1u64 << (len % 64)) - 1;
            }
        }
        BitSet { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get() {
        let mut b = BitSet::new(130);
        assert!(b.is_empty());
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.set(3, true);
        b.set(99, true);
        assert!(!a.is_subset(&b));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b)); // no change second time
        assert!(b.is_subset(&a));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = BitSet::new(10);
        b.get(10);
    }
}
