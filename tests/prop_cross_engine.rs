//! Property-based cross-engine tests on generated clients: the generators
//! know the ground truth by construction, so the precision and agreement
//! claims can be checked on thousands of programs nobody hand-wrote.

use std::collections::BTreeSet;

use canvas_conformance::suite::generators;
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

fn certifier() -> Certifier {
    Certifier::from_spec(canvas_conformance::easl::builtin::cmp()).expect("cmp derives")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FDS reports exactly the generated ground truth (precision + soundness).
    #[test]
    fn fds_exact_on_generated(blocks in 1usize..8, iters in 1usize..4, seed in 0u64..1000) {
        let g = generators::scmp_blocks(blocks, iters, 0.5, seed);
        let c = certifier();
        let r = c.certify_source(&g.source, Engine::ScmpFds).expect("fds runs");
        prop_assert_eq!(r.lines(), g.error_lines.clone(), "\n{}", g.source);
    }

    /// The relational engine agrees with FDS on generated clients (§4.6).
    #[test]
    fn relational_agrees_with_fds(blocks in 1usize..5, seed in 0u64..1000) {
        let g = generators::scmp_blocks(blocks, 2, 0.5, seed);
        let c = certifier();
        let fds: BTreeSet<u32> =
            c.certify_source(&g.source, Engine::ScmpFds).expect("fds").lines().into_iter().collect();
        let rel: BTreeSet<u32> = c
            .certify_source(&g.source, Engine::ScmpRelational)
            .expect("relational")
            .lines()
            .into_iter()
            .collect();
        prop_assert_eq!(fds, rel);
    }

    /// The interprocedural engine agrees with FDS on single-procedure
    /// clients (no calls to havoc over), under the exact abstraction and
    /// under the conservative one with no families, where every check is a
    /// constant 1. The conservative run also gets a stale use after a
    /// `return`, which neither engine may report.
    #[test]
    fn interproc_agrees_on_call_free(blocks in 1usize..5, seed in 0u64..1000) {
        let g = generators::scmp_blocks(blocks, 2, 0.5, seed);
        let dead_end = g.source.replace(
            "    }\n}\n",
            "        return;\n        s0.add(\"dead\");\n        i0_0.next();\n    }\n}\n",
        );
        let conservative =
            Certifier::from_spec_conservative(canvas_conformance::easl::builtin::cmp(), 0)
                .expect("conservative derivation");
        for (c, source) in [(certifier(), &g.source), (conservative, &dead_end)] {
            let lines = |engine| -> BTreeSet<u32> {
                c.certify_source(source, engine).expect("certifies").lines().into_iter().collect()
            };
            prop_assert_eq!(lines(Engine::ScmpFds), lines(Engine::ScmpInterproc), "\n{}", source);
        }
    }

    /// Interprocedural chains: the callee's effect is seen through any depth.
    #[test]
    fn interproc_chains(depth in 1usize..7, mutate in any::<bool>()) {
        let g = generators::interproc_chain(depth, mutate);
        let c = certifier();
        let r = c.certify_source(&g.source, Engine::ScmpInterproc).expect("interproc");
        prop_assert_eq!(r.lines(), g.error_lines.clone(), "\n{}", g.source);
    }

    /// TVLA (specialized) is sound on generated clients and both modes agree.
    #[test]
    fn tvla_sound_on_generated(blocks in 1usize..4, seed in 0u64..200) {
        let g = generators::scmp_blocks(blocks, 2, 0.5, seed);
        let c = certifier();
        let rel: BTreeSet<u32> = c
            .certify_source(&g.source, Engine::TvlaRelational)
            .expect("tvla")
            .lines()
            .into_iter()
            .collect();
        let ind: BTreeSet<u32> = c
            .certify_source(&g.source, Engine::TvlaIndependent)
            .expect("tvla")
            .lines()
            .into_iter()
            .collect();
        for t in &g.error_lines {
            prop_assert!(rel.contains(t), "tvla missed line {t}\n{}", g.source);
        }
        prop_assert_eq!(rel, ind);
    }

    /// The iterator-ring sweep: every alias of a staled iterator is flagged,
    /// none of a fresh one.
    #[test]
    fn ring_exactness(n in 1usize..10, stale in any::<bool>()) {
        let g = generators::iterator_ring(n, stale);
        let c = certifier();
        let r = c.certify_source(&g.source, Engine::ScmpFds).expect("fds");
        prop_assert_eq!(r.lines(), g.error_lines.clone(), "\n{}", g.source);
    }
}
