//! Property-based soundness of the size-budgeted certificate cache: the
//! byte budget is a hard and exact global occupancy bound, eviction
//! follows recency exactly, and evicting a certificate can cost latency
//! but never change an answer — the disk tier (or a cold re-run) always
//! restores it byte-identically.

use std::sync::atomic::{AtomicUsize, Ordering};

use canvas_conformance::incr::lru::Lru;
use canvas_conformance::incr::store::CertCache;
use canvas_conformance::incr::{report_digest, IncrementalCertifier};
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

fn certifier() -> Certifier {
    Certifier::from_spec(canvas_conformance::easl::builtin::cmp()).expect("cmp derives")
}

/// Parses a client against the cmp spec.
fn parse(src: &str) -> canvas_conformance::minijava::Program {
    let spec = canvas_conformance::easl::builtin::cmp();
    canvas_conformance::minijava::Program::parse(src, &spec).expect("client parses")
}

/// A family of structurally distinct single-method clients: cache keys
/// fingerprint the canonical IR, so distinctness must come from statement
/// counts, not literals.
fn client(id: usize) -> String {
    format!(
        "class Main {{ static void main() {{ Set s = new Set(); s.add(\"x\"); \
         Iterator i = s.iterator(); {}}} }}",
        "i.next(); ".repeat(1 + id)
    )
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "canvas-prop-lru-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Occupancy never exceeds the byte budget, whatever the op mix,
    /// and the byte counter always equals the sum of resident entry costs.
    /// The budget is one global bound: no insert evicts while the resident
    /// bytes plus the new cost fit it, and an entry costlier than the whole
    /// budget is the only thing it refuses. Costs are drawn as a share of
    /// the budget (up to 110%) so every budget sees evictions and refusals.
    #[test]
    fn occupancy_never_exceeds_budget(
        budget in 32 * 1024u64..(1 << 20) + 1,
        ops in prop::collection::vec((0u8..3, 0u64..48, 1u64..1_101), 1..120),
    ) {
        let mut lru: Lru<usize> = Lru::new(Some(budget));
        for (op, key, permille) in ops {
            let cost = (budget * permille / 1_000) as usize;
            match op {
                0 | 1 => {
                    // the value records the cost so iter() can audit it
                    let replaced = lru.peek(key).map_or(0, |&c| c as u64);
                    let fits = lru.bytes() - replaced + cost as u64 <= budget;
                    let evicted = lru.insert(key, cost, cost);
                    if fits {
                        prop_assert!(evicted.is_empty(), "evicted {evicted:?} with room to spare");
                    } else if cost as u64 > budget {
                        prop_assert_eq!(evicted, vec![(key, cost)], "only the oversized entry bounces");
                    } else {
                        prop_assert!(!evicted.is_empty(), "over budget without an eviction");
                    }
                }
                _ => {
                    lru.get(key);
                }
            }
            prop_assert!(
                lru.bytes() <= budget,
                "occupancy {} over budget {budget}",
                lru.bytes()
            );
            let audited: u64 = lru.iter().map(|(_, cost)| *cost as u64).sum();
            prop_assert_eq!(lru.bytes(), audited, "byte counter out of sync with entries");
            prop_assert_eq!(lru.len(), lru.iter().count());
        }
    }

    /// (b) Eviction order is exactly least-recently-used: a reference
    /// recency list predicts every evicted key, for arbitrary
    /// insert/get/peek interleavings under a budget above 32 KiB.
    #[test]
    fn evictions_follow_recency_exactly(
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..150),
    ) {
        const COST: usize = 5_000;
        const CAP: usize = 8;
        let mut lru: Lru<u64> = Lru::new(Some((COST * CAP) as u64));
        let mut model: Vec<u64> = Vec::new(); // most-recently-used first
        for (op, key) in ops {
            match op {
                0 | 1 => {
                    let evicted: Vec<u64> = lru.insert(key, key, COST)
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    if let Some(pos) = model.iter().position(|&k| k == key) {
                        model.remove(pos);
                    }
                    let mut expect = Vec::new();
                    while model.len() >= CAP {
                        expect.push(model.pop().expect("nonempty"));
                    }
                    model.insert(0, key);
                    prop_assert_eq!(evicted, expect, "wrong eviction victim(s)");
                }
                2 => {
                    let got = lru.get(key).copied();
                    let pos = model.iter().position(|&k| k == key);
                    prop_assert_eq!(got, pos.map(|_| key));
                    if let Some(pos) = pos {
                        let k = model.remove(pos);
                        model.insert(0, k); // a hit promotes to MRU
                    }
                }
                _ => {
                    // a peek answers like a get but leaves recency alone
                    let got = lru.peek(key).copied();
                    prop_assert_eq!(got, model.contains(&key).then_some(key));
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
    }

    /// (c) Eviction never loses a disk-backed certificate: a tiny-budget
    /// store and an unbounded store fed the same work persist
    /// byte-identical files, and a re-fetch of an evicted certificate
    /// through the reopened budgeted store matches the unbounded answer.
    #[test]
    fn eviction_never_changes_the_persisted_store(count in 3usize..7) {
        let tight_dir = fresh_dir("tight");
        let roomy_dir = fresh_dir("roomy");
        let engine = Engine::ScmpFds;

        let tight = IncrementalCertifier::new(
            certifier(),
            CertCache::open_budgeted(&tight_dir, Some(512)),
        );
        let roomy = IncrementalCertifier::new(certifier(), CertCache::open(&roomy_dir));
        let mut roomy_digests = Vec::new();
        for id in 0..count {
            let src = client(id);
            tight.certify_program_cached(&parse(&src), engine).expect("tight cold");
            let (r, _) = roomy.certify_program_cached(&parse(&src), engine).expect("roomy cold");
            roomy_digests.push(report_digest(&r));
        }
        prop_assert!(
            tight.cache().memory_bytes() <= 512,
            "hot tier over budget: {}",
            tight.cache().memory_bytes()
        );
        prop_assert!(tight.cache().stats().evictions > 0, "512 bytes must force evictions");
        tight.persist().expect("tight persists");
        roomy.persist().expect("roomy persists");

        let tight_file = std::fs::read(tight_dir.join("certs.v2")).expect("tight file");
        let roomy_file = std::fs::read(roomy_dir.join("certs.v2")).expect("roomy file");
        prop_assert_eq!(tight_file, roomy_file, "eviction altered the disk tier");

        // the first client's certificate was evicted from the hot tier
        // long ago; the reopened budgeted store still answers it warm
        // (from spill/disk) with the exact unbounded answer
        let reopened = IncrementalCertifier::new(
            certifier(),
            CertCache::open_budgeted(&tight_dir, Some(512)),
        );
        let (again, stats) = reopened.certify_program_cached(&parse(&client(0)), engine).expect("warm");
        prop_assert_eq!(stats.misses, 0, "the disk tier must answer an evicted key");
        prop_assert_eq!(report_digest(&again), roomy_digests[0].clone());

        std::fs::remove_dir_all(&tight_dir).ok();
        std::fs::remove_dir_all(&roomy_dir).ok();
    }

    /// (d) Counters balance: the store's global hit/miss counters are the
    /// sum of the per-run counters, evictions never exceed stores, and an
    /// in-memory eviction degrades to a cold re-run with an identical
    /// answer (never an error, never a different verdict).
    #[test]
    fn counters_balance_and_inmemory_eviction_recomputes(
        count in 2usize..6,
        budget in 256u64..2_048,
    ) {
        let engine = Engine::ScmpFds;
        let inc = IncrementalCertifier::new(
            certifier(),
            CertCache::in_memory_budgeted(Some(budget)),
        );
        let mut cold_digests = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for id in 0..count {
            let (r, stats) = inc.certify_program_cached(&parse(&client(id)), engine).expect("cold");
            cold_digests.push(report_digest(&r));
            hits += stats.hits;
            misses += stats.misses;
            prop_assert!(inc.cache().memory_bytes() <= budget);
        }
        let stats = inc.cache().stats();
        prop_assert_eq!(stats.hits, hits, "global hits drifted from per-run hits");
        prop_assert_eq!(stats.misses, misses, "global misses drifted from per-run misses");
        prop_assert!(stats.evictions <= stats.stores, "evicted more than was ever stored");
        prop_assert!(
            inc.cache().memory_entries() as u64 + stats.evictions <= stats.stores,
            "entries + evictions exceed stores"
        );
        // whether client(0) survived the budget or not, re-certifying it
        // yields the cold answer (an in-memory evictee is recomputed)
        let (again, _) = inc.certify_program_cached(&parse(&client(0)), engine).expect("again");
        prop_assert_eq!(report_digest(&again), cold_digests[0].clone());
    }
}
