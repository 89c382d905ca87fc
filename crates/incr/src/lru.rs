//! A size-budgeted LRU map — the hot tier of the certificate cache.
//!
//! The map is generic over its value type so the policy is testable in
//! isolation; the certificate store instantiates it with decoded
//! certificates and charges each entry its byte-accurate
//! `canvas-cert-cache/2` store-line cost, so "occupancy" means exactly
//! "bytes this cache would write to disk".
//!
//! Design constraints, in order:
//!
//! * **Bounded**: occupancy never exceeds the configured budget, and an
//!   entry costlier than the whole budget is refused rather than admitted
//!   over budget. The budget is one global bound: no insert evicts while
//!   the resident entries plus the new one fit it.
//! * **Deterministic**: eviction order is strict recency, so a fixed
//!   sequential workload always evicts the same entries in the same order.
//!
//! The map is single-threaded (`&mut self`); the store keeps it under its
//! one lock. Eviction is the *caller's* policy decision: [`Lru::insert`]
//! returns the evicted `(key, value)` pairs (least-recent first) and the
//! store decides whether they spill to the disk tier or are simply
//! forgotten.

use std::collections::HashMap;

/// The null link. Indexing the slab with it finds no node, so a missing
/// neighbour and an end of the list are the same case.
const NIL: usize = usize::MAX;

struct Node<V> {
    key: u64,
    value: V,
    cost: usize,
    prev: usize,
    next: usize,
}

/// An LRU map with a byte budget: O(1) lookup, promotion and eviction over
/// a slab of nodes threaded on an intrusive recency list.
///
/// `None` budget means unbounded: nothing is ever evicted and the map
/// behaves like a plain hash map with recency tracking.
pub struct Lru<V> {
    map: HashMap<u64, usize>,
    slab: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    /// Most-recently-used slot (`NIL` when empty).
    head: usize,
    /// Least-recently-used slot (`NIL` when empty).
    tail: usize,
    bytes: usize,
    budget: Option<u64>,
}

impl<V> Lru<V> {
    /// An empty map with a byte budget (`None` = unbounded).
    #[must_use]
    pub fn new(budget: Option<u64>) -> Self {
        Lru {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            budget,
        }
    }

    fn node(&self, idx: usize) -> Option<&Node<V>> {
        self.slab.get(idx).and_then(Option::as_ref)
    }

    fn node_mut(&mut self, idx: usize) -> Option<&mut Node<V>> {
        self.slab.get_mut(idx).and_then(Option::as_mut)
    }

    fn unlink(&mut self, idx: usize) {
        let Some(&Node { prev, next, .. }) = self.node(idx) else { return };
        match self.node_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.node_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        if let Some(n) = self.node_mut(idx) {
            n.prev = NIL;
            n.next = head;
        }
        match self.node_mut(head) {
            Some(h) => h.prev = idx,
            None => self.tail = idx,
        }
        self.head = idx;
    }

    /// Unlinks and frees slot `idx`, returning its node.
    fn take(&mut self, idx: usize) -> Option<Node<V>> {
        self.unlink(idx);
        let node = self.slab.get_mut(idx)?.take()?;
        self.free.push(idx);
        self.map.remove(&node.key);
        self.bytes -= node.cost;
        Some(node)
    }

    /// Looks `key` up and promotes it to most-recently-used.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let idx = *self.map.get(&key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.node(idx).map(|n| &n.value)
    }

    /// Looks `key` up without touching recency (for stale-seed reads).
    #[must_use]
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.node(*self.map.get(&key)?).map(|n| &n.value)
    }

    /// Inserts `value` under `key` at `cost` bytes, evicting
    /// least-recently-used entries until the map fits its budget again.
    ///
    /// Returns the evicted `(key, value)` pairs, least-recent first. An
    /// entry costlier than the whole budget cannot fit and comes straight
    /// back in the eviction list (after evicting nothing else);
    /// re-inserting an existing key replaces it in place (a replacement is
    /// not an eviction).
    pub fn insert(&mut self, key: u64, value: V, cost: usize) -> Vec<(u64, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.take(idx);
        }
        let mut evicted = Vec::new();
        if let Some(budget) = self.budget {
            if cost as u64 > budget {
                // too big even when empty: refuse admission rather than
                // blow the budget (the caller spills it)
                evicted.push((key, value));
                return evicted;
            }
            while (self.bytes + cost) as u64 > budget {
                match self.take(self.tail) {
                    Some(n) => evicted.push((n.key, n.value)),
                    None => break,
                }
            }
        }
        let node = Node { key, value, cost, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.bytes += cost;
        self.push_front(idx);
        evicted
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current occupancy in (store-line) bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes as u64
    }

    /// The configured budget (`None` = unbounded).
    #[must_use]
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget
    }

    /// Every resident entry (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slab.iter().flatten().map(|n| (n.key, &n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_map_never_evicts() {
        let mut lru: Lru<String> = Lru::new(None);
        for k in 0..100u64 {
            assert!(lru.insert(k, format!("v{k}"), 1000).is_empty());
        }
        assert_eq!(lru.len(), 100);
        assert_eq!(lru.bytes(), 100_000);
        assert_eq!(lru.get(7).map(String::as_str), Some("v7"));
    }

    #[test]
    fn evicts_in_recency_order() {
        let mut lru: Lru<u64> = Lru::new(Some(4096));
        // three entries of 1500 bytes: the third insert overflows 4096
        assert!(lru.insert(1, 10, 1500).is_empty());
        assert!(lru.insert(2, 20, 1500).is_empty());
        let evicted = lru.insert(3, 30, 1500);
        assert_eq!(evicted, vec![(1, 10)], "least-recently-used goes first");
        // touching 2 makes 3 the LRU
        assert_eq!(lru.get(2), Some(&20));
        let evicted = lru.insert(4, 40, 1500);
        assert_eq!(evicted, vec![(3, 30)]);
        assert!(lru.bytes() <= 4096);
    }

    #[test]
    fn oversized_entries_are_refused_not_admitted() {
        let mut lru: Lru<u64> = Lru::new(Some(4096));
        lru.insert(1, 10, 100);
        let evicted = lru.insert(2, 20, 5000);
        assert_eq!(evicted, vec![(2, 20)], "the oversized entry itself bounces");
        assert_eq!(lru.len(), 1, "resident entries are untouched");
        assert_eq!(lru.get(1), Some(&10));
    }

    #[test]
    fn replacement_is_not_an_eviction() {
        let mut lru: Lru<u64> = Lru::new(Some(4096));
        lru.insert(1, 10, 2000);
        let evicted = lru.insert(1, 11, 3000);
        assert!(evicted.is_empty());
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 3000);
        assert_eq!(lru.get(1), Some(&11));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut lru: Lru<u64> = Lru::new(Some(4096));
        lru.insert(1, 10, 1500);
        lru.insert(2, 20, 1500);
        assert_eq!(lru.peek(1), Some(&10));
        // 1 is still the LRU despite the peek
        let evicted = lru.insert(3, 30, 1500);
        assert_eq!(evicted, vec![(1, 10)]);
    }
}
