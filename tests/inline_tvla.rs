//! Inlining + intraprocedural engines: on non-recursive whole programs,
//! inlining gives the TVLA engines (which have no interprocedural story of
//! their own, §5) exact results on the interprocedural benchmarks.

use std::collections::BTreeSet;

use canvas_conformance::minijava::Program;
use canvas_conformance::suite::corpus;
use canvas_conformance::{Certifier, CertifyError, Engine, Report};

/// Inlines every client call into `main` (non-recursive programs only) and
/// certifies the resulting single-procedure program.
fn certify_inlined(
    c: &Certifier,
    program: &Program,
    engine: Engine,
) -> Result<Report, CertifyError> {
    let inlined = canvas_conformance::minijava::inline::inline_main(program, 100_000)?;
    c.certify(&inlined, engine)
}

#[test]
fn inlined_tvla_is_exact_on_interproc_benchmarks() {
    for b in corpus() {
        if !b.interprocedural {
            continue;
        }
        let c = Certifier::from_spec(b.spec.spec()).expect("derives");
        let program = Program::parse(b.source, c.spec()).expect("parses");
        let truth: BTreeSet<u32> = b.truth().into_iter().collect();
        let r = certify_inlined(&c, &program, Engine::TvlaRelational)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let lines: BTreeSet<u32> = r.lines().into_iter().collect();
        assert_eq!(lines, truth, "inlined TVLA not exact on {}", b.name);
    }
}

#[test]
fn inlined_fds_is_exact_on_interproc_benchmarks() {
    for b in corpus() {
        if !b.interprocedural || !b.scmp {
            continue;
        }
        let c = Certifier::from_spec(b.spec.spec()).expect("derives");
        let program = Program::parse(b.source, c.spec()).expect("parses");
        let truth: BTreeSet<u32> = b.truth().into_iter().collect();
        let r = certify_inlined(&c, &program, Engine::ScmpFds)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let lines: BTreeSet<u32> = r.lines().into_iter().collect();
        assert_eq!(lines, truth, "inlined FDS not exact on {}", b.name);
    }
}

#[test]
fn inlining_agrees_with_interproc_engine() {
    // two independent roads to whole-program precision must coincide
    for b in corpus() {
        if !b.scmp {
            continue;
        }
        let c = Certifier::from_spec(b.spec.spec()).expect("derives");
        let program = Program::parse(b.source, c.spec()).expect("parses");
        let Ok(inlined) = certify_inlined(&c, &program, Engine::ScmpFds) else {
            continue; // recursive benchmark: inlining refuses
        };
        let interproc = c.certify_program(&program, Engine::ScmpInterproc).expect("interproc");
        let a: BTreeSet<u32> = inlined.lines().into_iter().collect();
        let b2: BTreeSet<u32> = interproc.lines().into_iter().collect();
        assert_eq!(a, b2, "inline vs interproc disagree on {}", b.name);
    }
}
