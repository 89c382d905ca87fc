//! Differential pinning of the bit-parallel FDS kernels (DESIGN.md §10):
//! the word-arena solver must agree bit-for-bit with the historical
//! per-bit scalar solver on random boolean programs, and the within-method
//! delta re-solve must be indistinguishable from a cold solve — same
//! fixpoint, same violations, same certificate solution rows — across
//! random one-method edits.

use canvas_conformance::abstraction::{transform_method, BoolProgram, EntryAssumption};
use canvas_conformance::dataflow::delta::{self, DeltaPayload};
use canvas_conformance::dataflow::{fds, DeltaSeed};
use canvas_conformance::faults::Meter;
use canvas_conformance::suite::generators::{random_client, scmp_loop_blocks, RandomCfg};
use proptest::prelude::*;

/// Transforms every method of `src` under the cmp spec, `main` with a
/// clean entry and helpers with an unknown one — the same shapes the
/// engine feeds the solver.
fn boolprogs(src: &str) -> Vec<BoolProgram> {
    let spec = canvas_conformance::easl::builtin::cmp();
    let derived = canvas_conformance::wp::derive_abstraction(&spec).expect("cmp derives");
    let program = canvas_conformance::minijava::Program::parse(src, &spec).expect("client parses");
    program
        .methods()
        .iter()
        .map(|m| {
            let entry =
                if m.name == "main" { EntryAssumption::Clean } else { EntryAssumption::Unknown };
            transform_method(&program, m, &spec, &derived, entry)
        })
        .collect()
}

/// Asserts the word kernel and the scalar reference agree on everything
/// observable: fixpoint, violations, and the work counters (the kernels
/// share one worklist discipline, so even the visit tallies must match).
fn assert_kernels_agree(bp: &BoolProgram, ctx: &str) -> Result<(), TestCaseError> {
    let word = fds::analyze(bp);
    let scalar = fds::analyze_reference(bp);
    prop_assert_eq!(word.to_bitsets(), scalar.may_one, "fixpoint diverged: {}", ctx);
    prop_assert_eq!(word.edge_visits, scalar.edge_visits, "visit tally diverged: {}", ctx);
    prop_assert_eq!(word.worklist_pops, scalar.worklist_pops, "pop tally diverged: {}", ctx);
    Ok(())
}

/// A two-method client whose helper body is a function of the parameters,
/// so a case models "the user edited one method" precisely.
fn two_method_client(adds: usize, late_use: bool, refresh: bool) -> String {
    let mut out = String::from(
        "class Main {\n    static void main() {\n        Set s = new Set();\n        s.add(\"seed\");\n        Iterator i = s.iterator();\n        Main.touch(s);\n        i.next();\n    }\n    static void touch(Set x) {\n",
    );
    for k in 0..adds {
        out.push_str(&format!("        x.add(\"k{k}\");\n"));
    }
    if refresh {
        out.push_str("        Iterator r = x.iterator();\n        r.next();\n");
    }
    if late_use {
        out.push_str(
            "        Iterator j = x.iterator();\n        x.add(\"late\");\n        j.next();\n",
        );
    }
    out.push_str("    }\n}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) Bit-parallel ≡ per-bit scalar on random loop-free clients of
    /// varying shape (branches, helpers, havoc-ing calls).
    #[test]
    fn word_kernel_matches_scalar_reference_on_random_clients(
        helpers in 0usize..3,
        stmts in 4usize..16,
        seed in 0u64..500,
    ) {
        let cfg = RandomCfg { helpers, stmts, ..RandomCfg::default() };
        let src = random_client(cfg, seed);
        for bp in boolprogs(&src) {
            assert_kernels_agree(&bp, &src)?;
        }
    }

    /// (b) Bit-parallel ≡ per-bit scalar on loopy clients, where the
    /// solvers genuinely iterate (facts grow around back edges until the
    /// fixpoint, re-visiting every loop edge many times).
    #[test]
    fn word_kernel_matches_scalar_reference_on_loopy_clients(
        blocks in 1usize..6,
        iters in 1usize..4,
    ) {
        let g = scmp_loop_blocks(blocks, iters);
        for bp in boolprogs(&g.source) {
            assert_kernels_agree(&bp, &g.source)?;
        }
    }

    /// (c) Delta re-solve ≡ cold solve across random one-method edits:
    /// for every method of the edited program, seeding from the base
    /// program's solution must reach the cold fixpoint, report the same
    /// violations, encode the same certificate solution rows, and never
    /// do more worklist pops than the cold solve.
    #[test]
    fn delta_resolve_matches_cold_solve_across_one_method_edits(
        adds_before in 0usize..3,
        adds_after in 0usize..3,
        late_use in any::<bool>(),
        refresh in any::<bool>(),
    ) {
        let before = two_method_client(adds_before, late_use, refresh);
        let after = two_method_client(adds_after, late_use, !refresh);
        let gov = Meter::disarmed();
        for (old_bp, new_bp) in boolprogs(&before).into_iter().zip(boolprogs(&after)) {
            let old_res = fds::analyze(&old_bp);
            let seed = DeltaSeed {
                payload: DeltaPayload::of(&old_bp),
                preds: old_bp.preds.len() as u32,
                solution: (0..old_bp.node_count).map(|r| old_res.row_ones(r)).collect(),
            };
            let cold = fds::analyze(&new_bp);
            let Some(warm) = delta::analyze_delta(&new_bp, &seed, &gov).expect("disarmed meter")
            else {
                // a rejected seed falls back to the cold kernel — sound by
                // construction, nothing further to compare
                continue;
            };
            prop_assert!(
                warm.same_solution(&cold),
                "delta diverged from cold on:\n{}",
                after
            );
            prop_assert_eq!(
                fds::violations(&new_bp, |n, p| warm.get(n, p), None),
                fds::violations(&new_bp, |n, p| cold.get(n, p), None),
                "violations diverged on:\n{}",
                after
            );
            // the certificate's MayOne cell is exactly these rows, so row
            // equality is certificate byte-identity
            let warm_rows: Vec<Vec<u32>> =
                (0..new_bp.node_count).map(|r| warm.row_ones(r)).collect();
            let cold_rows: Vec<Vec<u32>> =
                (0..new_bp.node_count).map(|r| cold.row_ones(r)).collect();
            prop_assert_eq!(warm_rows, cold_rows, "certificate rows diverged on:\n{}", after);
            prop_assert!(
                warm.worklist_pops <= cold.worklist_pops,
                "delta did more work than cold ({} > {}) on:\n{}",
                warm.worklist_pops,
                cold.worklist_pops,
                after
            );
        }
    }
}
