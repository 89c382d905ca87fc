//! The engine abstraction: every certification engine implements
//! [`AnalysisEngine`], and the static [`registry`] is the single source of
//! truth for the engine list — the CLI's `canvas engines`, the evaluation
//! tables, and the benches all iterate it, so adding an engine means adding
//! one impl and one registry entry.
//!
//! Engines that analyse the same method share the expensive front-end
//! transforms (boolean program, specialized TVP, generic TVP) through
//! [`SharedTransforms`]: the first engine that needs a transform computes it,
//! later engines reuse it. The caches are [`OnceLock`]s so a prepared method
//! can be handed to several worker threads at once.

use std::sync::OnceLock;

use canvas_abstraction::{transform_method, BoolProgram, CellSolution, EntryAssumption};
use canvas_dataflow::fds;
use canvas_easl::Spec;
use canvas_faults::{Budget, Meter};
use canvas_minijava::{MethodIr, Program};
use canvas_tvla::TvpProgram;
use canvas_wp::Derived;

use crate::certifier::{CertifyError, Engine};
use crate::report::{Report, Stats, Violation, Witness, WitnessStep};

// Which engine wins the `OnceLock` init race depends on worker scheduling,
// so these are recorded but never baseline-gated.
static PREPARED_CACHE_HITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("core.prepared_cache_hits");
static PREPARED_CACHE_MISSES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("core.prepared_cache_misses");

/// Lazily computed front-end transforms for one `(method, entry)` pair,
/// shared by every engine that analyses that method.
#[derive(Default, Debug)]
pub struct SharedTransforms {
    boolprog: OnceLock<BoolProgram>,
    tvp_specialized: OnceLock<TvpProgram>,
    tvp_generic: OnceLock<TvpProgram>,
}

impl SharedTransforms {
    /// An empty cache; transforms are computed on first use.
    pub fn new() -> SharedTransforms {
        SharedTransforms::default()
    }

    /// The boolean program, if an engine already computed it. The
    /// incremental layer uses this to capture the program's delta-diff
    /// shape (see [`canvas_dataflow::delta`]) next to the solution it
    /// caches, without forcing a transform of its own.
    pub fn cached_boolprog(&self) -> Option<&BoolProgram> {
        self.boolprog.get()
    }
}

/// Per-program transform cache: one [`SharedTransforms`] per
/// `(method, entry-assumption)` cell, so a suite driver can run all engines
/// over one parsed program without recomputing any transform. All interior
/// state is [`OnceLock`]-based, so a `&PreparedProgram` can be shared across
/// threads.
#[derive(Debug)]
pub struct PreparedProgram {
    // indexed by MethodId.0, then entry (Clean = 0, Unknown = 1)
    cells: Vec<[SharedTransforms; 2]>,
}

impl PreparedProgram {
    /// Empty caches for every method of `program`.
    pub fn new(program: &Program) -> PreparedProgram {
        PreparedProgram { cells: program.methods().iter().map(|_| Default::default()).collect() }
    }

    /// The transform cache for `(method, entry)`.
    pub fn shared(&self, method: &MethodIr, entry: EntryAssumption) -> &SharedTransforms {
        let slot = match entry {
            EntryAssumption::Clean => 0,
            EntryAssumption::Unknown => 1,
        };
        &self.cells[method.id.0][slot]
    }
}

/// Everything an engine needs to analyse one method: the client, the spec
/// and its derived abstraction, the entry assumption, the state budgets, and
/// the shared transform cache.
pub struct MethodContext<'a> {
    /// The parsed client.
    pub program: &'a Program,
    /// The method under analysis.
    pub method: &'a MethodIr,
    /// The component specification.
    pub spec: &'a Spec,
    /// The derived abstraction for the spec.
    pub derived: &'a Derived,
    /// Entry-state assumption (clean `main` vs out-of-context method).
    pub entry: EntryAssumption,
    /// State budget for the relational boolean engine.
    pub relational_budget: usize,
    /// Structure budget for the TVLA engines.
    pub tvla_budget: usize,
    /// Shared resource governor budget (steps, deadline, states). Unlimited
    /// by default; exhaustion degrades the report to an inconclusive
    /// verdict.
    pub budget: Budget,
    /// Whether to record provenance and attach witness traces to the
    /// violations (slower solve paths; off for plain certification).
    pub explain: bool,
    /// Shared transform cache for this `(method, entry)` pair.
    pub shared: &'a SharedTransforms,
    /// A cached FDS solution of an earlier version of this method, for
    /// within-method delta re-solve ([`canvas_dataflow::delta`]). Only the
    /// FDS engine consumes it; `None` means cold solve.
    pub fds_seed: Option<&'a canvas_dataflow::DeltaSeed>,
}

impl MethodContext<'_> {
    /// The boolean program for this method (computed once, shared by the
    /// FDS and relational SCMP engines).
    pub fn boolprog(&self) -> &BoolProgram {
        if self.shared.boolprog.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.boolprog.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            transform_method(self.program, self.method, self.spec, self.derived, self.entry)
        })
    }

    /// The specialized TVP translation (shared by both TVLA modes).
    pub fn tvp_specialized(&self) -> &TvpProgram {
        if self.shared.tvp_specialized.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.tvp_specialized.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            canvas_tvla::translate_specialized(self.program, self.method, self.spec, self.derived)
        })
    }

    /// The generic shape-graph TVP translation (shared by both SSG modes).
    pub fn tvp_generic(&self) -> &TvpProgram {
        if self.shared.tvp_generic.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.tvp_generic.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            canvas_tvla::translate_generic(self.program, self.method, self.spec)
        })
    }

    fn violation(&self, site: &canvas_minijava::Site) -> Violation {
        Violation {
            method: self.program.method(site.method).qualified_name(),
            line: site.span.line,
            col: site.span.col,
            what: site.what.clone(),
            witness: None,
        }
    }

    /// A violation of an engine that records no provenance (TVLA and the
    /// alloc-site baseline): explained runs mark it with a conservative "no
    /// witness" `reason`.
    fn violation_unavailable(
        &self,
        site: &canvas_minijava::Site,
        reason: &'static str,
    ) -> Violation {
        let witness = self.explain.then_some(Witness::Unavailable(reason));
        Violation { witness, ..self.violation(site) }
    }

    /// A violation with its solver witness resolved to source terms. The
    /// boolean program's edges are index-aligned with the method's IR edges,
    /// so each trace step maps back to one source instruction.
    fn violation_witnessed(&self, v: &canvas_dataflow::Violation) -> Violation {
        let witness = v
            .witness
            .as_ref()
            .map(|steps| Witness::Trace(steps.iter().map(|s| self.witness_step(s)).collect()));
        Violation { witness, ..self.violation(&v.site) }
    }

    fn witness_step(&self, step: &canvas_dataflow::TraceStep) -> WitnessStep {
        use canvas_minijava::Instr;
        let m = self.program.method(step.method);
        let e = &m.cfg.edges()[step.edge];
        let name = |v: canvas_minijava::VarId| self.program.var(v).name.clone();
        let (line, col, what) = match &e.instr {
            Instr::New { at, .. }
            | Instr::CallComponent { at, .. }
            | Instr::CallClient { at, .. } => (at.span.line, at.span.col, at.what.clone()),
            Instr::Copy { dst, src } => (0, 0, format!("{} = {}", name(*dst), name(*src))),
            Instr::Load { dst, base, field } => {
                (0, 0, format!("{} = {}.{}", name(*dst), name(*base), field))
            }
            Instr::Store { base, field, src } => {
                (0, 0, format!("{}.{} = {}", name(*base), field, name(*src)))
            }
            Instr::Nullify { dst } => (0, 0, format!("{} = null", name(*dst))),
            Instr::Nop => (0, 0, "(no-op)".to_string()),
        };
        WitnessStep { line, col, what, fact: step.fact.clone() }
    }
}

/// One certification engine: an id for tables and reports, display strings,
/// and the analysis itself.
pub trait AnalysisEngine: Sync {
    /// The engine's id (the [`Engine`] enum variant).
    fn id(&self) -> Engine;
    /// Full name, e.g. `scmp-fds` (used by the CLI and reports).
    fn name(&self) -> &'static str;
    /// Short column label for the wide evaluation tables, e.g. `fds`.
    fn abbrev(&self) -> &'static str;
    /// Whether the engine uses the derived specialized abstraction.
    fn specialized(&self) -> bool {
        true
    }
    /// Analyses one method and reports the potential violations, plus the
    /// fixpoint solution as a certificate payload when the engine can
    /// express one.
    ///
    /// Only the boolean SCMP engines (FDS, relational) return a solution.
    /// `None` also covers inconclusive runs: a budget-tripped fixpoint is
    /// not a post-fixpoint and must not be shipped as one. When the shared
    /// resource governor (`cx.budget`) trips, engines return `Ok` with an
    /// inconclusive report rather than an error: degraded, not broken.
    ///
    /// # Errors
    ///
    /// [`CertifyError::StateBudget`] when a relational engine exceeds its
    /// own state budget; engines must not fail otherwise.
    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError>;

    /// When [`AnalysisEngine::run`] never produces a solution, the
    /// human-readable reason (recorded in the certificate as an
    /// `unavailable` cell, which the checker rejects as uncheckable).
    fn certificate_unsupported(&self) -> Option<&'static str> {
        Some("engine does not emit a replayable fixpoint solution")
    }
}

/// The set bits of a boolean-program state, as the certificate's sorted
/// index list.
fn solution_bits(bs: &canvas_dataflow::BitSet, width: usize) -> Vec<u32> {
    (0..width).filter(|&k| bs.get(k)).map(|k| k as u32).collect()
}

/// All engines, in evaluation-table order.
pub fn registry() -> &'static [&'static dyn AnalysisEngine] {
    REGISTRY
}

static REGISTRY: &[&dyn AnalysisEngine] = &[
    &ScmpFdsEngine,
    &ScmpRelationalEngine,
    &ScmpInterprocEngine,
    &TvlaRelationalEngine,
    &TvlaIndependentEngine,
    &GenericSsgRelationalEngine,
    &GenericSsgIndependentEngine,
    &GenericAllocSiteEngine,
];

/// Specialized nullary abstraction + polynomial may-be-1 dataflow (§4.3).
struct ScmpFdsEngine;

impl AnalysisEngine for ScmpFdsEngine {
    fn id(&self) -> Engine {
        Engine::ScmpFds
    }

    fn name(&self) -> &'static str {
        "scmp-fds"
    }

    fn abbrev(&self) -> &'static str {
        "fds"
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let bp = cx.boolprog();
        let gov = Meter::new(cx.budget);
        let inconclusive = |ex: canvas_faults::Exhaustion| {
            Report::inconclusive(
                self.id(),
                ex.reason(),
                Stats { predicates: bp.preds.len(), exhausted: true, ..Stats::default() },
            )
        };
        // within-method delta re-solve: seed from the cached solution when
        // one is available and nothing can perturb the outcome. A
        // constrained governor could trip at a different point than a cold
        // solve, changing the exhaustion verdict; and a carried seed has no
        // provenance, so explained runs always solve cold (witness traces
        // must match the uncached path).
        let seeded = match cx.fds_seed {
            Some(seed) if cx.budget.is_unlimited() && !cx.explain => {
                canvas_dataflow::delta::analyze_delta(bp, seed, &gov)
            }
            Some(_) => {
                canvas_dataflow::delta::note_fallback();
                Ok(None)
            }
            None => Ok(None),
        };
        let solved = seeded.and_then(|res| match res {
            Some(res) => Ok((res, None)),
            None => fds::solve(bp, &gov, cx.explain),
        });
        let (res, prov) = match solved {
            Ok(pair) => pair,
            Err(ex) => return Ok((inconclusive(ex), None)),
        };
        let violations = fds::violations(
            bp,
            |n, p| res.get(n, p),
            prov.as_ref().map(|p| (p, cx.program, cx.derived)),
        );
        let solution =
            CellSolution::MayOne { nodes: (0..bp.node_count).map(|r| res.row_ones(r)).collect() };
        let report = Report {
            engine: self.id(),
            violations: violations.iter().map(|v| cx.violation_witnessed(v)).collect(),
            stats: Stats {
                predicates: bp.preds.len(),
                work: res.edge_visits,
                max_states: 1,
                ..Stats::default()
            },
            verdict: Default::default(),
        };
        Ok((report, Some(solution)))
    }

    fn certificate_unsupported(&self) -> Option<&'static str> {
        None
    }
}

/// Specialized nullary abstraction + exponential relational dataflow.
struct ScmpRelationalEngine;

impl AnalysisEngine for ScmpRelationalEngine {
    fn id(&self) -> Engine {
        Engine::ScmpRelational
    }

    fn name(&self) -> &'static str {
        "scmp-relational"
    }

    fn abbrev(&self) -> &'static str {
        "rel"
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        use canvas_dataflow::relational::{self, RelStop};
        let bp = cx.boolprog();
        let gov = Meter::new(cx.budget);
        // The engine's own per-node valuation budget stays a hard error; only
        // the shared governor degrades to an inconclusive verdict.
        let (res, prov) = match relational::solve(bp, cx.relational_budget, &gov, cx.explain) {
            Ok(pair) => pair,
            Err(RelStop::States(_)) => return Err(CertifyError::StateBudget { engine: self.id() }),
            Err(RelStop::Budget(ex)) => {
                let stats =
                    Stats { predicates: bp.preds.len(), exhausted: true, ..Stats::default() };
                return Ok((Report::inconclusive(self.id(), ex.reason(), stats), None));
            }
        };
        let violations = fds::violations(
            bp,
            |n, p| res.may_one(n, p),
            prov.as_ref().map(|p| (p, cx.program, cx.derived)),
        );
        let max_states = res.states.iter().map(|s| s.len()).max().unwrap_or(0);
        let solution = CellSolution::Relational {
            nodes: res
                .states
                .iter()
                .map(|set| {
                    let mut vals: Vec<Vec<u32>> =
                        set.iter().map(|bs| solution_bits(bs, bp.preds.len())).collect();
                    vals.sort();
                    vals
                })
                .collect(),
        };
        let report = Report {
            engine: self.id(),
            violations: violations.iter().map(|v| cx.violation_witnessed(v)).collect(),
            stats: Stats {
                predicates: bp.preds.len(),
                work: res.transfers,
                max_states,
                ..Stats::default()
            },
            verdict: Default::default(),
        };
        Ok((report, Some(solution)))
    }

    fn certificate_unsupported(&self) -> Option<&'static str> {
        None
    }
}

/// Context-sensitive interprocedural SCMP certification (§8).
struct ScmpInterprocEngine;

impl AnalysisEngine for ScmpInterprocEngine {
    fn id(&self) -> Engine {
        Engine::ScmpInterproc
    }

    fn name(&self) -> &'static str {
        "scmp-interproc"
    }

    fn abbrev(&self) -> &'static str {
        "inter"
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let gov = Meter::new(cx.budget);
        let res = match canvas_dataflow::interproc::solve(
            cx.program, cx.spec, cx.derived, &gov, cx.explain,
        ) {
            Ok(res) => res,
            Err(ex) => {
                let stats = Stats { exhausted: true, ..Stats::default() };
                return Ok((Report::inconclusive(self.id(), ex.reason(), stats), None));
            }
        };
        let report = Report {
            engine: self.id(),
            violations: res.violations.iter().map(|v| cx.violation_witnessed(v)).collect(),
            stats: Stats {
                predicates: res.max_instances,
                work: res.summary_iterations,
                max_states: 1,
                ..Stats::default()
            },
            verdict: Default::default(),
        };
        Ok((report, None))
    }
}

/// First-order predicate abstraction + TVLA engine, set of structures per
/// point (§5, relational mode).
struct TvlaRelationalEngine;

impl AnalysisEngine for TvlaRelationalEngine {
    fn id(&self) -> Engine {
        Engine::TvlaRelational
    }

    fn name(&self) -> &'static str {
        "tvla-relational"
    }

    fn abbrev(&self) -> &'static str {
        "tvla-r"
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let report =
            run_tvla(cx, self.id(), cx.tvp_specialized(), canvas_tvla::EngineMode::Relational);
        Ok((report, None))
    }
}

/// First-order predicate abstraction + TVLA engine, one structure per point
/// (§5, independent-attribute mode).
struct TvlaIndependentEngine;

impl AnalysisEngine for TvlaIndependentEngine {
    fn id(&self) -> Engine {
        Engine::TvlaIndependent
    }

    fn name(&self) -> &'static str {
        "tvla-independent"
    }

    fn abbrev(&self) -> &'static str {
        "tvla-i"
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let mode = canvas_tvla::EngineMode::IndependentAttribute;
        Ok((run_tvla(cx, self.id(), cx.tvp_specialized(), mode), None))
    }
}

/// Generic composite-program translation + shape-graph analysis (§3/§4.4
/// baseline), relational mode.
struct GenericSsgRelationalEngine;

impl AnalysisEngine for GenericSsgRelationalEngine {
    fn id(&self) -> Engine {
        Engine::GenericSsgRelational
    }

    fn name(&self) -> &'static str {
        "generic-ssg-relational"
    }

    fn abbrev(&self) -> &'static str {
        "ssg-r"
    }

    fn specialized(&self) -> bool {
        false
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        Ok((run_tvla(cx, self.id(), cx.tvp_generic(), canvas_tvla::EngineMode::Relational), None))
    }
}

/// The shape-graph baseline in independent-attribute mode.
struct GenericSsgIndependentEngine;

impl AnalysisEngine for GenericSsgIndependentEngine {
    fn id(&self) -> Engine {
        Engine::GenericSsgIndependent
    }

    fn name(&self) -> &'static str {
        "generic-ssg-independent"
    }

    fn abbrev(&self) -> &'static str {
        "ssg-i"
    }

    fn specialized(&self) -> bool {
        false
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        let mode = canvas_tvla::EngineMode::IndependentAttribute;
        Ok((run_tvla(cx, self.id(), cx.tvp_generic(), mode), None))
    }
}

/// Generic allocation-site must-alias baseline (§3).
struct GenericAllocSiteEngine;

impl AnalysisEngine for GenericAllocSiteEngine {
    fn id(&self) -> Engine {
        Engine::GenericAllocSite
    }

    fn name(&self) -> &'static str {
        "generic-allocsite"
    }

    fn abbrev(&self) -> &'static str {
        "alloc"
    }

    fn specialized(&self) -> bool {
        false
    }

    fn run(&self, cx: &MethodContext<'_>) -> Result<(Report, Option<CellSolution>), CertifyError> {
        // The alloc-site baseline is a single linear pass, so account its
        // whole cost up front: one step per CFG edge (plus one so an empty
        // method still checks the deadline / injected trip).
        let gov = Meter::new(cx.budget);
        for _ in 0..=cx.method.cfg.edges().len() {
            if let Err(ex) = gov.tick() {
                let stats = Stats { exhausted: true, ..Stats::default() };
                return Ok((Report::inconclusive(self.id(), ex.reason(), stats), None));
            }
        }
        let res = canvas_heap::allocsite_analyze(
            cx.program,
            cx.method,
            cx.spec,
            cx.entry == EntryAssumption::Unknown,
        );
        let why = "the allocation-site baseline does not record provenance";
        let report = Report {
            engine: self.id(),
            violations: res.violations.iter().map(|s| cx.violation_unavailable(s, why)).collect(),
            stats: Stats { work: res.edge_visits, max_states: 1, ..Stats::default() },
            verdict: Default::default(),
        };
        Ok((report, None))
    }
}

fn run_tvla(
    cx: &MethodContext<'_>,
    engine: Engine,
    tvp: &TvpProgram,
    mode: canvas_tvla::EngineMode,
) -> Report {
    let entry_structs = match cx.entry {
        EntryAssumption::Clean => vec![canvas_tvla::Structure::empty(&tvp.preds)],
        EntryAssumption::Unknown => {
            // one summary individual with every predicate value 1/2
            // conservatively stands for the unknown entry heap
            let mut s = canvas_tvla::Structure::empty(&tvp.preds);
            let u = s.add_individual();
            s.set_summary(u, true);
            for k in 0..tvp.preds.len() {
                match tvp.preds[k].arity {
                    0 => s.set(k, &[], canvas_logic::Kleene::Unknown),
                    1 => s.set(k, &[u], canvas_logic::Kleene::Unknown),
                    2 => s.set(k, &[u, u], canvas_logic::Kleene::Unknown),
                    _ => {}
                }
            }
            vec![s]
        }
    };
    let gov = Meter::new(cx.budget);
    let res = match canvas_tvla::run(tvp, mode, cx.tvla_budget, entry_structs, &gov) {
        Ok(res) => res,
        Err(ex) => {
            return Report::inconclusive(
                engine,
                ex.reason(),
                Stats { predicates: tvp.preds.len(), exhausted: true, ..Stats::default() },
            )
        }
    };
    let why = "the TVLA engines do not record provenance";
    Report {
        engine,
        violations: res.violations.iter().map(|v| cx.violation_unavailable(&v.site, why)).collect(),
        stats: Stats {
            predicates: tvp.preds.len(),
            work: res.applications,
            max_states: res.max_states,
            exhausted: res.exhausted,
            ..Stats::default()
        },
        verdict: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_match_order_and_are_unique() {
        let ids: Vec<Engine> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids, Engine::all());
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn names_and_abbrevs_are_distinct() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let abbrevs: Vec<&str> = registry().iter().map(|e| e.abbrev()).collect();
        for list in [&names, &abbrevs] {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "{list:?}");
        }
    }

    #[test]
    fn shared_transforms_compute_once() {
        let spec = canvas_easl::builtin::cmp();
        let derived = canvas_wp::derive_abstraction(&spec).unwrap();
        let program = Program::parse(
            "class Main { static void main() { Set s = new Set(); Iterator i = s.iterator(); i.next(); } }",
            &spec,
        )
        .unwrap();
        let method = program.main_method().unwrap();
        let shared = SharedTransforms::new();
        let cx = MethodContext {
            program: &program,
            method,
            spec: &spec,
            derived: &derived,
            entry: EntryAssumption::Clean,
            relational_budget: 1 << 14,
            tvla_budget: 50_000,
            budget: Budget::unlimited(),
            explain: false,
            shared: &shared,
            fds_seed: None,
        };
        let a = cx.boolprog() as *const BoolProgram;
        let b = cx.boolprog() as *const BoolProgram;
        assert_eq!(a, b, "second call must hit the cache");
        let t1 = cx.tvp_specialized() as *const TvpProgram;
        let t2 = cx.tvp_specialized() as *const TvpProgram;
        assert_eq!(t1, t2);
    }
}
