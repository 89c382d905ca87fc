//! Proof-carrying certificates, end to end: the engine-free checker must
//! accept exactly the certificates the engines genuinely produced —
//! `checker accepts ⇔ engine certified` over the whole corpus — and must
//! reject every mutated, truncated, or inconsistent certificate.

use canvas_conformance::abstraction::EntryAssumption;
use canvas_conformance::check::{self, CheckError};
use canvas_conformance::core::{CellSolution, CertViolation, Certificate};
use canvas_conformance::faults::Budget;
use canvas_conformance::suite::corpus;
use canvas_conformance::{Certifier, CertifyError, Engine};
use proptest::prelude::*;

/// The corpus, certified with certificates, over both replayable engines.
/// Relational runs that blow the state budget hard are skipped (no
/// certificate exists to check).
fn corpus_certificates() -> Vec<(String, String, Engine, canvas_conformance::Report, Certificate)> {
    let mut out = Vec::new();
    for b in corpus() {
        let spec = b.spec.spec();
        let certifier = Certifier::from_spec(spec.clone()).expect("builtin spec derives");
        let program =
            canvas_conformance::minijava::Program::parse(b.source, &spec).expect("corpus parses");
        for engine in [Engine::ScmpFds, Engine::ScmpRelational] {
            match certifier.certify_with_certificate(b.source, &program, engine) {
                Ok((report, cert)) => {
                    out.push((b.name.to_string(), b.source.to_string(), engine, report, cert))
                }
                Err(CertifyError::StateBudget { .. }) => continue,
                Err(e) => panic!("{} under {engine}: {e}", b.name),
            }
        }
    }
    out
}

/// Fig. 3's certificates that carry no replayable solution: one from a run
/// whose deadline expired before a post-fixpoint, one from TVLA, which
/// emits no solutions at all.
fn uncheckable_certificates(
) -> Vec<(String, String, Engine, canvas_conformance::Report, Certificate)> {
    let b = corpus().into_iter().find(|b| b.name == "fig3").expect("fig3 exists");
    let spec = b.spec.spec();
    let program = canvas_conformance::minijava::Program::parse(b.source, &spec).expect("parses");
    let expired = Budget::unlimited().with_deadline_ms(0);
    let runs = [(Engine::ScmpFds, expired), (Engine::TvlaRelational, Budget::unlimited())];
    runs.into_iter()
        .map(|(engine, budget)| {
            let certifier =
                Certifier::from_spec(spec.clone()).expect("derives").with_budget(budget);
            let (report, cert) = certifier
                .certify_with_certificate(b.source, &program, engine)
                .expect("an uncheckable certificate is still emitted");
            (b.name.to_string(), b.source.to_string(), engine, report, cert)
        })
        .collect()
}

/// Checker accepts ⇔ the engine certified: over the whole corpus, a
/// replayable certificate round-trips through the byte format and passes
/// the checker with exactly the engine's verdict and violation lines;
/// an inconclusive run yields an uncheckable certificate the checker
/// rejects.
#[test]
fn checker_accepts_iff_engine_certified() {
    let mut checked = 0;
    let mut uncheckable = 0;
    for (name, source, engine, report, cert) in
        corpus_certificates().into_iter().chain(uncheckable_certificates())
    {
        let spec = cert.spec.clone();
        let specs: &[fn() -> canvas_conformance::easl::Spec] = &[
            canvas_conformance::easl::builtin::cmp,
            canvas_conformance::easl::builtin::grp,
            canvas_conformance::easl::builtin::imp,
            canvas_conformance::easl::builtin::aop,
        ];
        let spec = specs
            .iter()
            .map(|f| f())
            .find(|s| s.name() == spec)
            .expect("certificate names a builtin spec");
        let certifier = Certifier::from_spec(spec.clone()).expect("derives");

        // byte-stable round trip
        let text = cert.to_text();
        let parsed = Certificate::parse(&text).expect("genuine certificate parses");
        assert_eq!(parsed, cert, "{name}: parse must invert to_text");
        assert_eq!(parsed.to_text(), text, "{name}: serialization must be byte-stable");

        let outcome = check::check_text(&source, &spec, certifier.derived(), &text);
        if cert.checkable() {
            let outcome = outcome.unwrap_or_else(|e| {
                panic!("{name} under {engine}: genuine certificate rejected: {e}")
            });
            assert_eq!(
                outcome.certified,
                report.certified(),
                "{name} under {engine}: checker and engine verdicts must agree"
            );
            let mut engine_lines: Vec<u32> = report.lines();
            engine_lines.sort_unstable();
            engine_lines.dedup();
            let mut checker_lines: Vec<u32> = outcome.violations.iter().map(|v| v.line).collect();
            checker_lines.sort_unstable();
            checker_lines.dedup();
            assert_eq!(checker_lines, engine_lines, "{name} under {engine}: violation lines");
            checked += 1;
        } else {
            assert!(
                report.is_inconclusive() || engine.certificate_unsupported().is_some(),
                "{name} under {engine}: only inconclusive runs may emit uncheckable cells"
            );
            assert!(
                matches!(outcome, Err(CheckError::Uncheckable { .. })),
                "{name} under {engine}: uncheckable certificate must be rejected as such"
            );
            uncheckable += 1;
        }
    }
    assert!(checked >= 25, "expected a substantial checkable corpus, got {checked}");
    assert!(uncheckable >= 2, "both uncheckable certificates reach the checker");
}

/// A certificate with an `unavailable` cell is rejected as uncheckable,
/// naming the cell, before any binding or shape check can misname it.
#[test]
fn unavailable_cells_are_rejected_as_uncheckable() {
    let spec = canvas_conformance::easl::builtin::cmp();
    let certifier = Certifier::from_spec(spec.clone()).expect("derives");
    let methods: Vec<String> = uncheckable_certificates()
        .into_iter()
        .map(|(name, source, engine, _report, cert)| {
            match check::check_text(&source, &spec, certifier.derived(), &cert.to_text()) {
                Err(CheckError::Uncheckable { method, reason }) => {
                    assert!(!reason.is_empty(), "{name} under {engine}: the reason is kept");
                    method
                }
                other => panic!("{name} under {engine}: want Uncheckable, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(methods, ["Main.main", "<whole-program>"]);
}

/// A certificate whose violation claim was doctored (a violation silently
/// dropped) re-serializes with a valid digest — replay itself must catch
/// the lie.
#[test]
fn dropping_a_violation_is_caught_by_replay() {
    let mut tested = 0;
    for (name, source, _engine, _report, mut cert) in corpus_certificates() {
        if !cert.checkable() || cert.violations.is_empty() {
            continue;
        }
        let spec = builtin_spec(&cert.spec);
        let certifier = Certifier::from_spec(spec.clone()).expect("derives");
        cert.violations.pop();
        let err = check::check_text(&source, &spec, certifier.derived(), &cert.to_text())
            .expect_err("doctored claim must be rejected");
        assert!(
            matches!(err, CheckError::ViolationMismatch { .. }),
            "{name}: expected ViolationMismatch, got {err}"
        );
        tested += 1;
    }
    assert!(tested > 0, "corpus must contain buggy checkable benchmarks");
}

/// A check no path from the entry reaches never fires, in any engine or in
/// the checker. With no predicate families, the conservative abstraction
/// guards `i.next()` by the constant 1, so only reachability decides.
#[test]
fn unreachable_checks_never_fire() {
    use canvas_conformance::minijava::{Instr, Program};
    let source = "class Main { static void main() { Set v = new Set(); \
                  Iterator i = v.iterator(); return; i.next(); } }";
    let spec = canvas_conformance::easl::builtin::cmp();
    let certifier = Certifier::from_spec_conservative(spec.clone(), 0).expect("derives");
    let program = Program::parse(source, &spec).expect("parses");
    for engine in [Engine::ScmpFds, Engine::ScmpRelational, Engine::ScmpInterproc] {
        let report = certifier.certify_program(&program, engine).expect("certifies");
        assert_eq!(report.lines(), Vec::<u32>::new(), "{engine}: {report}");
    }
    let dead = program
        .main_method()
        .expect("has main")
        .cfg
        .edges()
        .iter()
        .find_map(|e| match &e.instr {
            Instr::CallComponent { at, .. } if at.what == "i.next()" => Some(at.clone()),
            _ => None,
        })
        .expect("the dead call is lowered");
    for engine in [Engine::ScmpFds, Engine::ScmpRelational] {
        let (_, mut cert) =
            certifier.certify_with_certificate(source, &program, engine).expect("certifies");
        let outcome = check::check(source, &spec, certifier.derived(), &cert)
            .unwrap_or_else(|e| panic!("{engine}: genuine certificate rejected: {e}"));
        assert!(outcome.certified, "{engine}: {outcome:?}");
        cert.violations.push(CertViolation {
            method: "Main.main".to_string(),
            line: dead.span.line,
            col: dead.span.col,
            what: dead.what.clone(),
        });
        let err = check::check_text(source, &spec, certifier.derived(), &cert.to_text())
            .expect_err("a claimed dead-code violation must be rejected");
        assert!(
            matches!(err, CheckError::ViolationMismatch { claimed: 1, implied: 0 }),
            "{engine}: expected ViolationMismatch, got {err}"
        );
    }
}

/// Doctoring the solution itself to hide the bit that feeds a violation
/// breaks the post-fixpoint property (or entry coverage) — replay rejects.
#[test]
fn clearing_solution_bits_is_caught_by_replay() {
    let mut tested = 0;
    for (name, source, _engine, _report, mut cert) in corpus_certificates() {
        if !cert.checkable() || cert.violations.is_empty() {
            continue;
        }
        let spec = builtin_spec(&cert.spec);
        let certifier = Certifier::from_spec(spec.clone()).expect("derives");
        // clear every claimed bit everywhere: with the violations claim kept,
        // either the empty solution no longer covers the entry / is no
        // post-fixpoint, or it implies fewer violations than claimed
        for cell in &mut cert.cells {
            match &mut cell.solution {
                CellSolution::MayOne { nodes } => nodes.iter_mut().for_each(|n| n.clear()),
                CellSolution::Relational { nodes } => nodes.iter_mut().for_each(|n| n.clear()),
                CellSolution::Unavailable { .. } => {}
            }
        }
        let err = check::check_text(&source, &spec, certifier.derived(), &cert.to_text())
            .expect_err("hollowed-out solution must be rejected");
        assert!(
            matches!(
                err,
                CheckError::EntryNotCovered { .. }
                    | CheckError::NotPostFixpoint { .. }
                    | CheckError::ViolationMismatch { .. }
            ),
            "{name}: unexpected rejection {err}"
        );
        tested += 1;
    }
    assert!(tested > 0);
}

/// A certificate for one client must not validate another, and a cell may
/// not be silently dropped.
#[test]
fn binding_and_coverage_are_enforced() {
    let spec = canvas_conformance::easl::builtin::cmp();
    let certifier = Certifier::from_spec(spec.clone()).expect("derives");
    let src = "class Main { static void main() {\n  Set s = new Set();\n  Iterator i = s.iterator();\n  s.add(\"x\");\n  i.next();\n} static void other() { Set t = new Set(); t.add(\"y\"); } }";
    let program = canvas_conformance::minijava::Program::parse(src, &spec).expect("parses");
    let (_report, cert) =
        certifier.certify_with_certificate(src, &program, Engine::ScmpFds).expect("certifies");
    assert!(cert.checkable());

    // wrong source
    let other_src = src.replace("i.next()", "s.add(\"z\")");
    let err = check::check_text(&other_src, &spec, certifier.derived(), &cert.to_text())
        .expect_err("wrong source");
    assert!(matches!(err, CheckError::WrongSource));

    // wrong spec
    let grp = canvas_conformance::easl::builtin::grp();
    let grp_certifier = Certifier::from_spec(grp.clone()).expect("derives");
    let err = check::check_text(src, &grp, grp_certifier.derived(), &cert.to_text())
        .expect_err("wrong spec");
    assert!(matches!(err, CheckError::WrongSpec { .. }));

    // dropped cell
    let mut truncated = cert.clone();
    truncated.cells.pop();
    let err = check::check_text(src, &spec, certifier.derived(), &truncated.to_text())
        .expect_err("missing cell");
    assert!(matches!(err, CheckError::MissingCell { .. }));

    // cells may come in any order, but each exactly once
    let check = |cert: &Certificate| check::check(src, &spec, certifier.derived(), cert);
    let mut swapped = cert.clone();
    swapped.cells.swap(0, 1);
    assert!(check(&swapped).is_ok());
    let mut duplicated = cert.clone();
    duplicated.cells.push(cert.cells[1].clone());
    let extra = CheckError::ExtraCell { method: "Main.other".to_string() };
    assert_eq!(check(&duplicated), Err(extra));

    // a missing cell is reported before an extra one, main's first
    let mut renamed = cert.clone();
    renamed.cells[1].method = "Main.other.".to_string();
    assert_eq!(
        check(&renamed),
        Err(CheckError::MissingCell {
            method: "Main.other".to_string(),
            entry: EntryAssumption::Unknown
        })
    );
    renamed.cells[0].entry = EntryAssumption::Unknown;
    assert_eq!(
        check(&renamed),
        Err(CheckError::MissingCell {
            method: "Main.main".to_string(),
            entry: EntryAssumption::Clean
        })
    );
}

fn builtin_spec(name: &str) -> canvas_conformance::easl::Spec {
    match name {
        "cmp" => canvas_conformance::easl::builtin::cmp(),
        "grp" => canvas_conformance::easl::builtin::grp(),
        "imp" => canvas_conformance::easl::builtin::imp(),
        "aop" => canvas_conformance::easl::builtin::aop(),
        other => panic!("unknown builtin spec {other}"),
    }
}

fn fig3_fixture() -> (String, canvas_conformance::easl::Spec, Certifier, String) {
    let b = corpus().into_iter().find(|b| b.name == "fig3").expect("fig3 exists");
    let spec = b.spec.spec();
    let certifier = Certifier::from_spec(spec.clone()).expect("derives");
    let program = canvas_conformance::minijava::Program::parse(b.source, &spec).expect("parses");
    let (_r, cert) =
        certifier.certify_with_certificate(b.source, &program, Engine::ScmpFds).expect("certifies");
    let text = cert.to_text();
    (b.source.to_string(), spec, certifier, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single bit of any byte of a serialized certificate
    /// makes the checker reject it: either the trailing digest no longer
    /// matches, the line fails to parse, or the replay finds the
    /// inconsistency. No single-bit corruption can survive.
    #[test]
    fn single_bit_flips_are_rejected(byte in 0usize..4096, bit in 0u32..8) {
        let (source, spec, certifier, text) = fig3_fixture();
        let byte = byte % text.len();
        let mut bytes = text.clone().into_bytes();
        bytes[byte] ^= 1u8 << bit;
        if bytes == text.as_bytes() {
            return Ok(()); // no-op flip cannot occur (xor), but keep proptest happy
        }
        match String::from_utf8(bytes) {
            Err(_) => {} // non-UTF-8 cannot even reach the parser
            Ok(mutated) => {
                let r = check::check_text(&source, &spec, certifier.derived(), &mutated);
                prop_assert!(
                    r.is_err(),
                    "flip of bit {bit} at byte {byte} must be rejected"
                );
            }
        }
    }

    /// Truncating a serialized certificate anywhere makes it unparseable.
    #[test]
    fn truncations_are_rejected(cut in 1usize..4096) {
        let (_source, _spec, _certifier, text) = fig3_fixture();
        let cut = cut % (text.len() - 1) + 1;
        prop_assert!(Certificate::parse(&text[..cut]).is_err(), "cut at {cut}");
    }
}
