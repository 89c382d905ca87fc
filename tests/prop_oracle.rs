//! Differential testing of every certifier against the concrete-execution
//! oracle, on randomly generated clients.
//!
//! For each generated client the oracle explores *all* branch choices
//! concretely under the EASL semantics, so its violation set is exact
//! ground truth (the generated clients are loop-free, so exploration is
//! exhaustive). One semantic subtlety: the oracle models JCF faithfully —
//! a failed `requires` throws and *ends the path* — while the certifiers
//! deliberately keep analysing past a violating call (conservatively), so
//! sites downstream of a first violation may be reported without being
//! concretely reachable. The properties checked are therefore:
//!
//! * **soundness** — every engine's report ⊇ oracle violations;
//! * **no false alarms on safe clients (§4.3/§8)** — when the oracle finds
//!   *no* violation, the precise engines (FDS, relational, interprocedural)
//!   report exactly nothing; this is the paper's precision claim in its
//!   strongest observable form (any report on a violation-free client would
//!   be a false alarm);
//! * **agreement** — FDS = relational everywhere (§4.6); the
//!   independent-attribute TVLA mode is never *finer* than the relational
//!   one (the paper's mode-equality observation is empirical and is checked
//!   exactly on the corpus, in `tests/pipeline.rs`).

use std::collections::BTreeSet;

use canvas_conformance::suite::generators::{random_client, RandomCfg};
use canvas_conformance::suite::oracle::{explore, OracleConfig};
use canvas_conformance::{Certifier, Engine};
use proptest::prelude::*;

fn certifier() -> Certifier {
    Certifier::from_spec(canvas_conformance::easl::builtin::cmp()).expect("cmp derives")
}

fn oracle_lines(src: &str) -> BTreeSet<u32> {
    let spec = canvas_conformance::easl::builtin::cmp();
    let program = canvas_conformance::minijava::Program::parse(src, &spec).expect("parses");
    let r = explore(&program, &spec, OracleConfig::default()).expect("oracle runs");
    assert!(!r.truncated, "generated clients are loop-free\n{src}");
    r.violation_lines
}

fn engine_lines(c: &Certifier, src: &str, engine: Engine) -> Option<BTreeSet<u32>> {
    let program = canvas_conformance::minijava::Program::parse(src, c.spec()).expect("parses");
    match c.certify_program(&program, engine) {
        Ok(r) => Some(r.lines().into_iter().collect()),
        Err(canvas_conformance::CertifyError::StateBudget { .. }) => None,
        Err(e) => panic!("unexpected error: {e}\n{src}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Call-free clients: every engine is sound; the precise engines report
    /// nothing on violation-free clients; FDS = relational; TVLA modes agree.
    #[test]
    fn call_free_differential(seed in 0u64..10_000) {
        let cfg = RandomCfg { sets: 2, iters: 3, stmts: 14, branch_depth: 2, helpers: 0 };
        let src = random_client(cfg, seed);
        let truth = oracle_lines(&src);
        let c = certifier();

        let fds = engine_lines(&c, &src, Engine::ScmpFds).expect("fds");
        let rel = engine_lines(&c, &src, Engine::ScmpRelational).expect("relational");
        let inter = engine_lines(&c, &src, Engine::ScmpInterproc).expect("interproc");
        prop_assert_eq!(&fds, &rel, "fds and relational differ\n{}", src);
        prop_assert_eq!(&fds, &inter, "fds and interproc differ on call-free\n{}", src);
        if truth.is_empty() {
            prop_assert!(fds.is_empty(), "false alarms on a safe client: {:?}\n{}", fds, src);
        }

        for engine in Engine::all() {
            let Some(lines) = engine_lines(&c, &src, engine) else { continue };
            prop_assert!(
                lines.is_superset(&truth),
                "{} unsound: truth {:?} reported {:?}\n{}",
                engine, truth, lines, src
            );
        }

        // The paper's §7 observation — identical precision of the two TVLA
        // modes — is *empirical* ("for the benchmark clients we studied"),
        // and random search does find adversarial clients where the joined
        // single-structure mode is strictly coarser. The invariant that
        // always holds is containment: joining only loses precision.
        let tr = engine_lines(&c, &src, Engine::TvlaRelational).expect("tvla");
        let ti = engine_lines(&c, &src, Engine::TvlaIndependent).expect("tvla");
        prop_assert!(
            ti.is_superset(&tr),
            "independent-attribute mode must only be coarser\ntr {:?} ti {:?}\n{}",
            tr, ti, src
        );
    }

    /// Clients with helper calls: the §8 certifier is sound and reports
    /// nothing on violation-free clients; the intraprocedural engines
    /// remain sound.
    #[test]
    fn interprocedural_differential(seed in 0u64..10_000) {
        let cfg = RandomCfg { sets: 2, iters: 2, stmts: 10, branch_depth: 1, helpers: 2 };
        let src = random_client(cfg, seed);
        let truth = oracle_lines(&src);
        let c = certifier();

        let inter = engine_lines(&c, &src, Engine::ScmpInterproc).expect("interproc");
        prop_assert!(inter.is_superset(&truth), "interproc unsound\n{}", src);
        if truth.is_empty() {
            prop_assert!(
                inter.is_empty(),
                "interproc false alarms on a safe client: {:?}\n{}",
                inter, src
            );
        }

        let fds = engine_lines(&c, &src, Engine::ScmpFds).expect("fds");
        prop_assert!(fds.is_superset(&truth), "fds unsound\n{}", src);

        // two independent whole-program mechanisms must agree: inlining
        // (syntactic) and the §8 tabulation (semantic)
        let program =
            canvas_conformance::minijava::Program::parse(&src, c.spec()).expect("parses");
        let inlined = canvas_conformance::minijava::inline::inline_main(&program, 100_000)
            .expect("generated clients are non-recursive");
        let inlined: BTreeSet<u32> = c
            .certify(&inlined, Engine::ScmpFds)
            .expect("inlined client certifies")
            .lines()
            .into_iter()
            .collect();
        prop_assert_eq!(&inlined, &inter, "inline vs interproc disagree\n{}", src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GRP: the derived certifier is exact against the oracle on safe
    /// clients and sound everywhere (same statement as for CMP).
    #[test]
    fn grp_differential(seed in 0u64..10_000) {
        let spec = canvas_conformance::easl::builtin::grp();
        let src = canvas_conformance::suite::generators::random_grp_client(2, 3, 10, seed);
        let program =
            canvas_conformance::minijava::Program::parse(&src, &spec).expect("parses");
        let r = explore(&program, &spec, OracleConfig::default()).expect("oracle runs");
        prop_assert!(!r.truncated);
        let truth = r.violation_lines;
        let c = Certifier::from_spec(spec).expect("grp derives");
        let fds: BTreeSet<u32> = c
            .certify_source(&src, Engine::ScmpFds)
            .expect("fds")
            .lines()
            .into_iter()
            .collect();
        prop_assert!(fds.is_superset(&truth), "unsound\n{}", src);
        if truth.is_empty() {
            prop_assert!(fds.is_empty(), "false alarms on safe GRP client: {:?}\n{}", fds, src);
        }
    }

    /// IMP: likewise.
    #[test]
    fn imp_differential(seed in 0u64..10_000) {
        let spec = canvas_conformance::easl::builtin::imp();
        let src = canvas_conformance::suite::generators::random_imp_client(2, 3, 8, seed);
        let program =
            canvas_conformance::minijava::Program::parse(&src, &spec).expect("parses");
        let r = explore(&program, &spec, OracleConfig::default()).expect("oracle runs");
        prop_assert!(!r.truncated);
        let truth = r.violation_lines;
        let c = Certifier::from_spec(spec).expect("imp derives");
        let fds: BTreeSet<u32> = c
            .certify_source(&src, Engine::ScmpFds)
            .expect("fds")
            .lines()
            .into_iter()
            .collect();
        prop_assert!(fds.is_superset(&truth), "unsound\n{}", src);
        if truth.is_empty() {
            prop_assert!(fds.is_empty(), "false alarms on safe IMP client: {:?}\n{}", fds, src);
        }
    }
}
