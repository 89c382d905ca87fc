//! Property-based tests for witness provenance: every violation the traced
//! solver reports must carry a justification chain that *replays* — each
//! link is legal under the boolean-program edge semantics and the links
//! connect from a base establishment (or entry fact) to the violating
//! culprit at the check node (see `canvas_dataflow::provenance::replay`).

use canvas_conformance::abstraction::{transform_method, EntryAssumption, Operand};
use canvas_conformance::dataflow::fds;
use canvas_conformance::dataflow::provenance::replay;
use canvas_conformance::faults::Meter;
use canvas_conformance::suite::generators;
use canvas_conformance::{easl, minijava, wp};
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every culprit of every firing check has a chain that replays to the
    /// violating state, on generated clients of varying shape.
    #[test]
    fn witness_chains_replay(blocks in 1usize..8, iters in 1usize..4, seed in 0u64..1000) {
        let spec = easl::builtin::cmp();
        let g = generators::scmp_blocks(blocks, iters, 0.5, seed);
        let program = minijava::Program::parse(&g.source, &spec).expect("generated source parses");
        let derived = wp::derive_abstraction(&spec).expect("cmp derives");
        let main = program.main_method().expect("main");
        let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
        let (res, prov) = fds::solve(&bp, &Meter::disarmed(), true).expect("disarmed meter");
        let prov = prov.expect("a traced solve records provenance");
        for c in &bp.checks {
            for op in &c.preds {
                if let Operand::Var(p) = op {
                    if res.get(c.node, *p) {
                        let links = prov.chain(&bp, c.node, *p);
                        prop_assert!(
                            replay(&bp, &links, c.node, *p),
                            "chain for culprit {p} at node {} does not replay\n{}",
                            c.node,
                            g.source
                        );
                    }
                }
            }
        }
    }

    /// At the certifier level, `--explain` attaches a witness trace to every
    /// violation of each provenance-recording engine (FDS, relational,
    /// interprocedural), and explaining never changes the verdict. Every
    /// case runs all three engines, so each sees every generated client.
    #[test]
    fn explain_preserves_verdict_and_attaches_witnesses(
        blocks in 1usize..6, seed in 0u64..500
    ) {
        let g = generators::scmp_blocks(blocks, 2, 0.5, seed);
        let plain = Certifier::from_spec(easl::builtin::cmp()).expect("cmp derives");
        let explained = Certifier::from_spec(easl::builtin::cmp())
            .expect("cmp derives")
            .with_explain(true);
        for engine in [Engine::ScmpFds, Engine::ScmpRelational, Engine::ScmpInterproc] {
            let r0 = plain.certify_source(&g.source, engine).expect("engine runs");
            let r1 = explained.certify_source(&g.source, engine).expect("engine runs");
            prop_assert_eq!(r0.lines(), r1.lines(), "{}\n{}", engine, g.source);
            prop_assert_eq!(r1.lines(), g.error_lines.clone(), "{}\n{}", engine, g.source);
            for v in &r1.violations {
                prop_assert!(
                    matches!(v.witness, Some(canvas_conformance::core::Witness::Trace(_))),
                    "{} violation at line {} lacks a witness trace",
                    engine,
                    v.line
                );
            }
        }
    }
}
