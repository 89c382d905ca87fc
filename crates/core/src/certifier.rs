//! The certifier: derived abstraction + analysis engine.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use canvas_abstraction::{
    bp_digest, derived_digest, digest_str, CellSolution, CertCell, CertViolation, Certificate,
    EntryAssumption,
};
use canvas_easl::Spec;
use canvas_faults::Budget;
use canvas_minijava::{MethodIr, Program};
use canvas_wp::{derive_abstraction, DeriveError, Derived};

use crate::engine::{Engine, MethodContext, PreparedProgram, SharedTransforms};
use crate::error::panic_message;
use crate::report::Report;

/// Certification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertifyError {
    /// Abstraction derivation failed (budget exceeded).
    Derive(DeriveError),
    /// The client failed to parse or lower.
    Source(canvas_minijava::SourceError),
    /// The client has no static `main` entry point.
    NoMain,
    /// The relational engine exceeded its state budget.
    StateBudget {
        /// Engine that blew up.
        engine: Engine,
    },
    /// An engine panicked; the panic was contained by the isolation layer
    /// and converted into this structured error.
    Panicked {
        /// Engine whose solve panicked.
        engine: Engine,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Derive(e) => write!(f, "derivation failed: {e}"),
            CertifyError::Source(e) => write!(f, "client error: {e}"),
            CertifyError::NoMain => f.write_str("client has no static main method"),
            CertifyError::StateBudget { engine } => {
                write!(f, "{engine} exceeded its state budget")
            }
            CertifyError::Panicked { engine, message } => {
                write!(f, "{engine} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<DeriveError> for CertifyError {
    fn from(e: DeriveError) -> Self {
        CertifyError::Derive(e)
    }
}

impl From<canvas_minijava::SourceError> for CertifyError {
    fn from(e: canvas_minijava::SourceError) -> Self {
        CertifyError::Source(e)
    }
}

/// A certifier for one component specification: the derived abstraction
/// paired with the analysis engines (stage 3 of the paper's §1.3 pipeline).
#[derive(Clone, Debug)]
pub struct Certifier {
    spec: Spec,
    derived: Derived,
    relational_budget: usize,
    tvla_budget: usize,
    budget: Budget,
    explain: bool,
}

impl Certifier {
    /// Derives the specialized abstraction for `spec` (certifier-generation
    /// time; possibly expensive, done once).
    ///
    /// # Errors
    ///
    /// Returns [`CertifyError::Derive`] if the derivation budget is
    /// exceeded (the spec is probably not mutation-restricted, §6).
    pub fn from_spec(spec: Spec) -> Result<Certifier, CertifyError> {
        let _derive_phase = canvas_telemetry::phase::DERIVE.span();
        let derived = derive_abstraction(&spec)?;
        Ok(Certifier {
            spec,
            derived,
            relational_budget: 1 << 14,
            tvla_budget: 50_000,
            budget: canvas_faults::process_budget(),
            explain: false,
        })
    }

    /// Like [`Certifier::from_spec`], but falls back to the *conservative*
    /// abstraction (§4.5) instead of failing when the derivation does not
    /// converge within `max_families`: update disjuncts that would need new
    /// predicate families degrade to havoc, so the certifier stays sound at
    /// the price of possible extra false alarms.
    ///
    /// # Errors
    ///
    /// Only source-independent internal errors (none currently).
    pub fn from_spec_conservative(
        spec: Spec,
        max_families: usize,
    ) -> Result<Certifier, CertifyError> {
        let derived = canvas_wp::derive_conservative(&spec, max_families)?;
        Ok(Certifier {
            spec,
            derived,
            relational_budget: 1 << 14,
            tvla_budget: 50_000,
            budget: canvas_faults::process_budget(),
            explain: false,
        })
    }

    /// The component specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The derived abstraction (families + method abstractions).
    pub fn derived(&self) -> &Derived {
        &self.derived
    }

    /// The state budgets for the exponential engines, `(relational, tvla)`.
    pub fn budgets(&self) -> (usize, usize) {
        (self.relational_budget, self.tvla_budget)
    }

    /// The shared resource-governor budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Whether witness recording is on.
    pub fn explain(&self) -> bool {
        self.explain
    }

    /// Sets the state budgets for the exponential engines.
    pub fn with_budgets(mut self, relational: usize, tvla: usize) -> Certifier {
        self.relational_budget = relational;
        self.tvla_budget = tvla;
        self
    }

    /// Sets the shared resource-governor budget (steps, deadline, states).
    /// Defaults to the process-wide budget (unlimited unless a binary
    /// installed one via `canvas_faults::set_process_budget`). Exhaustion
    /// degrades reports to [`crate::report::Verdict::Inconclusive`].
    pub fn with_budget(mut self, budget: Budget) -> Certifier {
        self.budget = budget;
        self
    }

    /// Turns witness recording on: the solver engines take their
    /// provenance-recording paths and every violation carries a
    /// [`crate::report::Witness`]. Off by default (the plain paths stay
    /// within the telemetry-overhead budget).
    pub fn with_explain(mut self, on: bool) -> Certifier {
        self.explain = on;
        self
    }

    /// Parses a client and certifies it from `main`.
    ///
    /// # Errors
    ///
    /// See [`Certifier::certify`], plus source errors.
    pub fn certify_source(&self, src: &str, engine: Engine) -> Result<Report, CertifyError> {
        // fault-injection point: under CANVAS_FAULT=truncate-input the
        // front end sees half the source, which must surface as Err
        let program = Program::parse(canvas_faults::truncate_input(src), &self.spec)?;
        self.certify(&program, engine)
    }

    /// Certifies a parsed client from its `main` method.
    ///
    /// Intraprocedural engines (everything except
    /// [`Engine::ScmpInterproc`]) analyse `main` with clean entry state and
    /// treat client calls conservatively.
    ///
    /// # Errors
    ///
    /// [`CertifyError::NoMain`] without an entry point;
    /// [`CertifyError::StateBudget`] when a relational engine blows up.
    pub fn certify(&self, program: &Program, engine: Engine) -> Result<Report, CertifyError> {
        let main = program.main_method().ok_or(CertifyError::NoMain)?;
        let shared = SharedTransforms::new();
        Ok(self
            .certify_method_shared(program, main, engine, EntryAssumption::Clean, &shared, None)?
            .0)
    }

    /// Whole-program certification: the interprocedural engine analyses the
    /// call graph from `main`; intraprocedural engines analyse `main` with
    /// clean entry plus every other method out of context (unknown entry),
    /// so `requires` sites in helper methods are covered too.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_program(
        &self,
        program: &Program,
        engine: Engine,
    ) -> Result<Report, CertifyError> {
        self.certify_program_prepared(program, &PreparedProgram::new(program), engine)
    }

    /// Like [`Certifier::certify_program`], but reuses `prepared`'s transform
    /// caches, so running several engines over one program computes each
    /// boolean-program / TVP translation only once.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_program_prepared(
        &self,
        program: &Program,
        prepared: &PreparedProgram,
        engine: Engine,
    ) -> Result<Report, CertifyError> {
        walk_program(program, engine, |method, entry| {
            let shared = prepared.shared(method, entry);
            Ok(self.certify_method_shared(program, method, engine, entry, shared, None)?.0)
        })
    }

    /// Certifies one method under `entry`, reusing `shared`'s transform
    /// caches (engines analysing the same `(method, entry)` pair compute
    /// the boolean program and the TVP translations only once). Returns the
    /// report and the engine's fixpoint solution, when it emitted one (the
    /// boolean SCMP engines on conclusive runs).
    ///
    /// `fds_seed` optionally seeds the FDS engine's fixpoint from a cached
    /// solution of an earlier version of the method (within-method delta
    /// re-solve — see [`canvas_dataflow::delta`]). Engines other than FDS
    /// ignore the seed; a seed that fails validation falls back to a cold
    /// solve, so the result is always the same fixpoint a cold run
    /// computes.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_method_shared(
        &self,
        program: &Program,
        method: &MethodIr,
        engine: Engine,
        entry: EntryAssumption,
        shared: &SharedTransforms,
        fds_seed: Option<&canvas_dataflow::DeltaSeed>,
    ) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let start = Instant::now();
        // the guard (not the format!) is what must be cheap when tracing is off
        let _trace = canvas_telemetry::trace::tracing().then(|| {
            canvas_telemetry::trace::span(
                &format!("certify {} [{engine}]", method.qualified_name()),
                "certify",
            )
        });
        let cx = MethodContext { certifier: self, program, method, entry, shared, fds_seed };
        // Isolation layer: a panicking engine must not take down the caller
        // (one method of one suite case, or one request of a service). The
        // panic surfaces as a structured `CertifyError::Panicked` instead.
        // Every engine run passes here, so this is where the `solver-abort`
        // fault exercises the layer.
        let _solve_phase = canvas_telemetry::phase::SOLVE.span();
        let run = catch_unwind(AssertUnwindSafe(|| {
            canvas_faults::solver_abort();
            crate::engine::run(engine, &cx)
        }));
        let (mut report, solution) = match run {
            Ok(result) => result?,
            Err(payload) => {
                return Err(CertifyError::Panicked {
                    engine,
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        report.stats.duration = start.elapsed();
        report.normalize();
        Ok((report, solution))
    }

    /// Whole-program certification that also emits a replayable
    /// [`Certificate`]: one solution cell per `(method, entry)` pair plus
    /// the normalized violation list, bound to this exact `source` text,
    /// spec, and derived abstraction by digest.
    ///
    /// Engines that cannot express a replayable solution (the TVLA/heap
    /// family and the interprocedural engine), and inconclusive runs,
    /// produce `unavailable` cells: the certificate still records the
    /// verdict but `canvas-check` will reject it as uncheckable — the
    /// trusted checker never takes an engine's word for anything.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_with_certificate(
        &self,
        source: &str,
        program: &Program,
        engine: Engine,
    ) -> Result<(Report, Certificate), CertifyError> {
        let prepared = PreparedProgram::new(program);
        self.certify_with_cells(source, program, engine, |method, entry| {
            let shared = prepared.shared(method, entry);
            let (report, solution) =
                self.certify_method_shared(program, method, engine, entry, shared, None)?;
            Ok((report, solved_cell(method, entry, shared, solution)))
        })
    }

    /// The [`walk_program`] behind every certificate-emitting entry point,
    /// cached or not, and the one place a [`Certificate`] is assembled.
    /// `cell` certifies one `(method, entry)` cell and returns its solution
    /// cell, if any; a cell without one is recorded as `unavailable`, and
    /// an engine that never emits solutions gets one whole-program
    /// `unavailable` cell instead.
    ///
    /// # Errors
    ///
    /// As [`walk_program`].
    pub fn certify_with_cells<F>(
        &self,
        source: &str,
        program: &Program,
        engine: Engine,
        mut cell: F,
    ) -> Result<(Report, Certificate), CertifyError>
    where
        F: FnMut(&MethodIr, EntryAssumption) -> Result<(Report, Option<CertCell>), CertifyError>,
    {
        let unsupported = engine.certificate_unsupported();
        let mut cells = Vec::new();
        let report = walk_program(program, engine, |method, entry| {
            let (report, solved) = cell(method, entry)?;
            if unsupported.is_none() {
                cells.push(solved.unwrap_or_else(|| {
                    let reason = format!(
                        "inconclusive run ({}): no post-fixpoint reached",
                        report.verdict.reason().unwrap_or("budget exhausted")
                    );
                    unavailable_cell(method.qualified_name(), entry, reason)
                }));
            }
            Ok(report)
        })?;
        if let Some(reason) = unsupported {
            let whole = "<whole-program>".to_string();
            cells.push(unavailable_cell(whole, EntryAssumption::Clean, reason.to_string()));
        }
        let certificate = Certificate {
            engine: engine.to_string(),
            spec: self.spec.name().to_string(),
            derived: derived_digest(&self.derived),
            source: digest_str(source),
            cells,
            violations: report
                .violations
                .iter()
                .map(|v| CertViolation {
                    method: v.method.clone(),
                    line: v.line,
                    col: v.col,
                    what: v.what.clone(),
                })
                .collect(),
        };
        Ok((report, certificate))
    }
}

/// The whole-program walk behind every `certify_program*` entry point,
/// cached or not, plain or certificate-emitting. The interprocedural engine
/// analyses the call graph from `main`, so it is one `(main, clean)` cell;
/// every other engine analyses `main` with clean entry, then every other
/// method out of context, and the reports are merged. `cell` certifies one
/// `(method, entry)` cell.
///
/// # Errors
///
/// [`CertifyError::NoMain`] without an entry point, or the first error
/// `cell` returns.
pub fn walk_program<F>(
    program: &Program,
    engine: Engine,
    mut cell: F,
) -> Result<Report, CertifyError>
where
    F: FnMut(&MethodIr, EntryAssumption) -> Result<Report, CertifyError>,
{
    let main = program.main_method().ok_or(CertifyError::NoMain)?;
    if engine == Engine::ScmpInterproc {
        return cell(main, EntryAssumption::Clean);
    }
    let mut report = cell(main, EntryAssumption::Clean)?;
    for m in program.methods() {
        if m.id != main.id {
            // any inconclusive method makes the whole program inconclusive
            // (first reason wins; the others are duplicates in practice)
            report.merge(cell(m, EntryAssumption::Unknown)?);
        }
    }
    report.normalize();
    Ok(report)
}

/// The certificate cell of one run's fixpoint `solution`, bound to the
/// boolean program it solves; `None` when the run emitted no solution.
pub fn solved_cell(
    method: &MethodIr,
    entry: EntryAssumption,
    shared: &SharedTransforms,
    solution: Option<CellSolution>,
) -> Option<CertCell> {
    let solution = solution?;
    // the engine solved the shared boolean program, so it is cached
    let bp = shared.cached_boolprog()?;
    Some(CertCell {
        method: method.qualified_name(),
        entry,
        preds: bp.preds.len() as u32,
        bp_digest: bp_digest(bp),
        solution,
    })
}

/// A cell `canvas-check` rejects as uncheckable, saying why.
fn unavailable_cell(method: String, entry: EntryAssumption, reason: String) -> CertCell {
    CertCell {
        method,
        entry,
        preds: 0,
        bp_digest: 0,
        solution: CellSolution::Unavailable { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = r#"
class Main {
    static void main() {
        Set v = new Set();
        Iterator i1 = v.iterator();
        Iterator i2 = v.iterator();
        Iterator i3 = i1;
        i1.next();
        i1.remove();
        if (true) { i2.next(); }
        if (true) { i3.next(); }
        v.add("x");
        if (true) { i1.next(); }
    }
}
"#;

    #[test]
    fn specialized_engines_agree_on_fig3() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        for engine in [
            Engine::ScmpFds,
            Engine::ScmpRelational,
            Engine::ScmpInterproc,
            Engine::TvlaRelational,
            Engine::TvlaIndependent,
        ] {
            let r = c.certify_source(FIG3, engine).unwrap();
            assert_eq!(r.lines(), vec![10, 13], "{engine}: {r}");
        }
    }

    #[test]
    fn generic_ssg_false_alarms_on_fig3() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let r = c.certify_source(FIG3, Engine::GenericSsgRelational).unwrap();
        assert!(r.lines().contains(&11), "{r}");
    }

    #[test]
    fn alloc_site_false_alarms_on_version_loop() {
        let loop_src = r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); }
        }
    }
}
"#;
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let generic = c.certify_source(loop_src, Engine::GenericAllocSite).unwrap();
        assert!(!generic.certified());
        let specialized = c.certify_source(loop_src, Engine::ScmpFds).unwrap();
        assert!(specialized.certified(), "{specialized}");
    }

    #[test]
    fn no_main_is_an_error() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let err = c.certify_source("class A { void m() { } }", Engine::ScmpFds).unwrap_err();
        assert!(matches!(err, CertifyError::NoMain));
    }

    #[test]
    fn source_errors_propagate() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let err = c.certify_source("class {", Engine::ScmpFds).unwrap_err();
        assert!(matches!(err, CertifyError::Source(_)));
        assert!(err.to_string().contains("client error"));
    }

    #[test]
    fn report_display_and_helpers() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let r = c
            .certify_source(
                "class Main { static void main() { Set s = new Set(); Iterator i = s.iterator(); s.add(\"x\"); i.next(); } }",
                Engine::ScmpFds,
            )
            .unwrap();
        assert!(!r.certified());
        let text = r.to_string();
        assert!(text.contains("i.next()"), "{text}");
        assert!(r.stats.predicates > 0);
    }

    #[test]
    fn budget_error_for_relational() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap().with_budgets(1, 50_000);
        // entry-unknown forking blows a budget of 1
        let program = Program::parse(
            "class A { void m(Iterator a, Iterator b, Set s) { a.next(); } }",
            c.spec(),
        )
        .unwrap();
        let m = program.method_named("A.m").unwrap();
        let shared = SharedTransforms::new();
        let err = c
            .certify_method_shared(
                &program,
                m,
                Engine::ScmpRelational,
                EntryAssumption::Unknown,
                &shared,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CertifyError::StateBudget { .. }));
    }

    #[test]
    fn all_engines_listed() {
        assert_eq!(Engine::all().len(), 8);
        assert!(Engine::ScmpFds.specialized());
        assert!(!Engine::GenericAllocSite.specialized());
        assert_eq!(Engine::ScmpFds.to_string(), "scmp-fds");
    }
}

#[cfg(test)]
mod conservative_tests {
    use super::*;

    #[test]
    fn conservative_certifier_is_usable_and_sound() {
        // the adversarial spec does not converge; the conservative certifier
        // still runs and flags the (real) misuse below
        let spec = canvas_easl::builtin::unbounded();
        let c = Certifier::from_spec_conservative(spec, 4).unwrap();
        let r = c
            .certify_source(
                r#"
class Main {
    static void main() {
        Cell a = new Cell();
        Cell b = new Cell();
        a.push(b);
        a.use(b);
    }
}
"#,
                Engine::ScmpFds,
            )
            .unwrap();
        // requires (prev == c.prev) compares a.prev (= b) to b.prev (= null):
        // genuinely violated, and the conservative certifier reports it
        assert_eq!(r.violations.len(), 1);
    }
}
