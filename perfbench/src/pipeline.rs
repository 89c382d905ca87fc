//! The public calls one certify-and-check operation makes, each inside a
//! span named after the layer it enters.

use canvas_abstraction::{transform_method, Certificate, EntryAssumption};
use canvas_check::CheckOutcome;
use canvas_core::{Certifier, Engine, Report};
use canvas_minijava::Program;

use crate::trace::Tracer;

/// `Program::parse` → `Certifier::certify_with_certificate` →
/// `Certificate::to_text`: the verdict and its serialized certificate.
///
/// # Errors
///
/// A frontend or certification error (the operation failed).
pub fn certify_emit(
    tr: &mut Tracer,
    certifier: &Certifier,
    source: &str,
    engine: Engine,
) -> Result<(Program, Report, String), String> {
    let program = tr
        .time("minijava.parse", || Program::parse(source, certifier.spec()))
        .map_err(|e| e.to_string())?;
    let (report, cert) = tr
        .time("core.certify", || certifier.certify_with_certificate(source, &program, engine))
        .map_err(|e| e.to_string())?;
    let text = tr.time("abstraction.cert_emit", || cert.to_text());
    Ok((program, report, text))
}

/// `Certificate::parse` → `canvas_check::check` (together what
/// `canvas_check::check_text` does), in two spans.
///
/// # Errors
///
/// The checker's rejection: a rejected certificate fails the run.
pub fn check(
    tr: &mut Tracer,
    certifier: &Certifier,
    source: &str,
    text: &str,
) -> Result<CheckOutcome, String> {
    let cert = tr
        .time("check.cert_parse", || Certificate::parse(text))
        .map_err(|e| format!("certificate rejected: {e}"))?;
    tr.time("check.replay", || {
        canvas_check::check(source, certifier.spec(), certifier.derived(), &cert)
    })
    .map_err(|e| format!("certificate rejected: {e}"))
}

/// The lowering and solving that `scmp-fds` certification does, replayed
/// cell by cell through `transform_method` and `fds::analyze` so the
/// traced run can time the two layers apart.
pub fn replay_fds_cells(tr: &mut Tracer, certifier: &Certifier, program: &Program) {
    let main = program.main_method().map(|m| m.id);
    for m in program.methods() {
        let entry =
            if Some(m.id) == main { EntryAssumption::Clean } else { EntryAssumption::Unknown };
        let bp = tr.time("abstraction.lower", || {
            transform_method(program, m, certifier.spec(), certifier.derived(), entry)
        });
        let solved = tr.time("dataflow.solve", || canvas_dataflow::fds::analyze(&bp));
        std::hint::black_box(solved);
    }
}

/// Checks a verdict and its replayed certificate against ground truth:
/// both must name exactly the `expected` lines.
///
/// # Errors
///
/// A description of the mismatch (a wrong verdict fails the run).
pub fn matches_truth(
    name: &str,
    report: &Report,
    checked: &CheckOutcome,
    expected: &[u32],
) -> Result<(), String> {
    let got = crate::util::sorted(report.lines());
    let replayed = crate::util::sorted(checked.violations.iter().map(|v| v.line).collect());
    if got != expected || replayed != expected || checked.certified != expected.is_empty() {
        return Err(format!(
            "{name}: wrong verdict: lines {got:?}, checker {replayed:?}, expected {expected:?}"
        ));
    }
    Ok(())
}
