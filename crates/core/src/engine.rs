//! The engine table: [`Engine`] names every certification engine, and each
//! of its properties — name, column label, abstraction, certificate support,
//! the analysis itself — is one exhaustive `match` over it, so adding an
//! engine means adding one variant and letting the compiler list the arms
//! still to write. The CLI's `canvas engines`, the evaluation tables, and the
//! benches all iterate [`Engine::all`].
//!
//! Engines that analyse the same method share the expensive front-end
//! transforms (boolean program, specialized TVP, generic TVP) through
//! [`SharedTransforms`]: the first engine that needs a transform computes it,
//! later engines reuse it. The caches are [`OnceLock`]s so a prepared method
//! can be handed to several worker threads at once.

use std::fmt;
use std::sync::OnceLock;

use canvas_abstraction::{transform_method, BoolProgram, CellSolution, EntryAssumption};
use canvas_dataflow::fds;
use canvas_faults::{Exhaustion, Meter};
use canvas_minijava::{MethodIr, Program};
use canvas_tvla::TvpProgram;

use crate::certifier::{Certifier, CertifyError};
use crate::report::{Report, Stats, Violation, Witness, WitnessStep};

// Which engine wins the `OnceLock` init race depends on worker scheduling,
// so these are recorded but never baseline-gated.
static PREPARED_CACHE_HITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("core.prepared_cache_hits");
static PREPARED_CACHE_MISSES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("core.prepared_cache_misses");

/// The available certification engines (paper §3–§8) with their
/// time/space/precision tradeoffs. The default is the paper's specialized
/// certifier, [`Engine::ScmpFds`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// Specialized nullary abstraction + polynomial may-be-1 dataflow (§4.3).
    #[default]
    ScmpFds,
    /// Specialized nullary abstraction + exponential relational dataflow.
    ScmpRelational,
    /// Context-sensitive interprocedural SCMP certification (§8).
    ScmpInterproc,
    /// First-order predicate abstraction + TVLA engine, set of structures
    /// per point (§5, relational mode).
    TvlaRelational,
    /// First-order predicate abstraction + TVLA engine, one structure per
    /// point (§5, independent-attribute mode).
    TvlaIndependent,
    /// Generic composite-program translation + shape-graph analysis
    /// (§3/§4.4 baseline), relational mode.
    GenericSsgRelational,
    /// The shape-graph baseline in independent-attribute mode.
    GenericSsgIndependent,
    /// Generic allocation-site must-alias baseline (§3).
    GenericAllocSite,
}

/// Every engine, in evaluation-table order.
const ALL: [Engine; 8] = [
    Engine::ScmpFds,
    Engine::ScmpRelational,
    Engine::ScmpInterproc,
    Engine::TvlaRelational,
    Engine::TvlaIndependent,
    Engine::GenericSsgRelational,
    Engine::GenericSsgIndependent,
    Engine::GenericAllocSite,
];

impl Engine {
    /// All engines, in evaluation-table order.
    pub fn all() -> Vec<Engine> {
        ALL.to_vec()
    }

    /// Looks an engine up by its full name (e.g. `scmp-fds`).
    pub fn by_name(name: &str) -> Option<Engine> {
        ALL.into_iter().find(|e| e.name() == name)
    }

    /// Full name, e.g. `scmp-fds` (used by the CLI, reports and
    /// certificates).
    pub fn name(self) -> &'static str {
        match self {
            Engine::ScmpFds => "scmp-fds",
            Engine::ScmpRelational => "scmp-relational",
            Engine::ScmpInterproc => "scmp-interproc",
            Engine::TvlaRelational => "tvla-relational",
            Engine::TvlaIndependent => "tvla-independent",
            Engine::GenericSsgRelational => "generic-ssg-relational",
            Engine::GenericSsgIndependent => "generic-ssg-independent",
            Engine::GenericAllocSite => "generic-allocsite",
        }
    }

    /// Short column label for the wide evaluation tables, e.g. `fds`.
    pub fn abbrev(self) -> &'static str {
        match self {
            Engine::ScmpFds => "fds",
            Engine::ScmpRelational => "rel",
            Engine::ScmpInterproc => "inter",
            Engine::TvlaRelational => "tvla-r",
            Engine::TvlaIndependent => "tvla-i",
            Engine::GenericSsgRelational => "ssg-r",
            Engine::GenericSsgIndependent => "ssg-i",
            Engine::GenericAllocSite => "alloc",
        }
    }

    /// Whether the engine uses the derived specialized abstraction.
    pub fn specialized(self) -> bool {
        match self {
            Engine::ScmpFds
            | Engine::ScmpRelational
            | Engine::ScmpInterproc
            | Engine::TvlaRelational
            | Engine::TvlaIndependent => true,
            Engine::GenericSsgRelational
            | Engine::GenericSsgIndependent
            | Engine::GenericAllocSite => false,
        }
    }

    /// Why this engine cannot emit a replayable certificate, or `None` for
    /// the engines whose fixpoint solutions `canvas-check` can replay (the
    /// boolean SCMP engines). The reason is recorded in the certificate as
    /// an `unavailable` cell, which the checker rejects as uncheckable.
    pub fn certificate_unsupported(self) -> Option<&'static str> {
        match self {
            Engine::ScmpFds | Engine::ScmpRelational => None,
            Engine::ScmpInterproc
            | Engine::TvlaRelational
            | Engine::TvlaIndependent
            | Engine::GenericSsgRelational
            | Engine::GenericSsgIndependent
            | Engine::GenericAllocSite => {
                Some("engine does not emit a replayable fixpoint solution")
            }
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

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

/// Everything an engine needs to analyse one method: the certifier (spec,
/// derived abstraction, budgets, explain mode), the client and method, the
/// entry assumption, and the shared transform cache.
pub(crate) struct MethodContext<'a> {
    pub(crate) certifier: &'a Certifier,
    pub(crate) program: &'a Program,
    pub(crate) method: &'a MethodIr,
    pub(crate) entry: EntryAssumption,
    pub(crate) shared: &'a SharedTransforms,
    /// A cached FDS solution of an earlier version of this method, for
    /// within-method delta re-solve ([`canvas_dataflow::delta`]). Only the
    /// FDS engine consumes it; `None` means cold solve.
    pub(crate) fds_seed: Option<&'a canvas_dataflow::DeltaSeed>,
}

impl MethodContext<'_> {
    /// The boolean program for this method (computed once, shared by the
    /// FDS and relational SCMP engines).
    fn boolprog(&self) -> &BoolProgram {
        if self.shared.boolprog.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.boolprog.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            let c = self.certifier;
            transform_method(self.program, self.method, c.spec(), c.derived(), self.entry)
        })
    }

    /// The specialized TVP translation (shared by both TVLA modes).
    fn tvp_specialized(&self) -> &TvpProgram {
        if self.shared.tvp_specialized.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.tvp_specialized.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            let c = self.certifier;
            canvas_tvla::translate_specialized(self.program, self.method, c.spec(), c.derived())
        })
    }

    /// The generic shape-graph TVP translation (shared by both SSG modes).
    fn tvp_generic(&self) -> &TvpProgram {
        if self.shared.tvp_generic.get().is_some() {
            PREPARED_CACHE_HITS.incr();
        }
        self.shared.tvp_generic.get_or_init(|| {
            PREPARED_CACHE_MISSES.incr();
            canvas_tvla::translate_generic(self.program, self.method, self.certifier.spec())
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
        let witness = self.certifier.explain().then_some(Witness::Unavailable(reason));
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

/// One engine's analysis of one method: the report, plus the fixpoint
/// solution as a certificate payload when the engine can express one.
type EngineRun = Result<(Report, Option<CellSolution>), CertifyError>;

/// Analyses one method with `engine` under the shared resource governor.
///
/// Only the boolean SCMP engines (FDS, relational) return a solution.
/// `None` also covers inconclusive runs: a budget-tripped fixpoint is not a
/// post-fixpoint and must not be shipped as one. When the governor trips,
/// an engine returns `Ok` with an inconclusive report rather than an error:
/// degraded, not broken.
///
/// # Errors
///
/// [`CertifyError::StateBudget`] when the relational engine exceeds its own
/// state budget; engines fail in no other way.
pub(crate) fn run(engine: Engine, cx: &MethodContext<'_>) -> EngineRun {
    use canvas_tvla::EngineMode::{IndependentAttribute, Relational};
    let gov = Meter::new(cx.certifier.budget());
    match engine {
        Engine::ScmpFds => run_fds(cx, &gov),
        Engine::ScmpRelational => run_relational(cx, &gov),
        Engine::ScmpInterproc => run_interproc(cx, &gov),
        Engine::TvlaRelational => run_tvla(cx, &gov, engine, cx.tvp_specialized(), Relational),
        Engine::TvlaIndependent => {
            run_tvla(cx, &gov, engine, cx.tvp_specialized(), IndependentAttribute)
        }
        Engine::GenericSsgRelational => run_tvla(cx, &gov, engine, cx.tvp_generic(), Relational),
        Engine::GenericSsgIndependent => {
            run_tvla(cx, &gov, engine, cx.tvp_generic(), IndependentAttribute)
        }
        Engine::GenericAllocSite => run_allocsite(cx, &gov),
    }
}

/// The inconclusive run of an engine whose governor tripped.
fn exhausted(engine: Engine, ex: Exhaustion, predicates: usize) -> EngineRun {
    let stats = Stats { predicates, exhausted: true, ..Stats::default() };
    Ok((Report::inconclusive(engine, ex.reason(), stats), None))
}

/// The set bits of a boolean-program state, as the certificate's sorted
/// index list.
fn solution_bits(bs: &canvas_dataflow::BitSet, width: usize) -> Vec<u32> {
    (0..width).filter(|&k| bs.get(k)).map(|k| k as u32).collect()
}

/// Specialized nullary abstraction + polynomial may-be-1 dataflow (§4.3).
fn run_fds(cx: &MethodContext<'_>, gov: &Meter) -> EngineRun {
    let bp = cx.boolprog();
    let explain = cx.certifier.explain();
    // within-method delta re-solve: seed from the cached solution when one
    // is available and nothing can perturb the outcome. A constrained
    // governor could trip at a different point than a cold solve, changing
    // the exhaustion verdict; and a carried seed has no provenance, so
    // explained runs always solve cold (witness traces must match the
    // uncached path).
    let seeded = match cx.fds_seed {
        Some(seed) if cx.certifier.budget().is_unlimited() && !explain => {
            canvas_dataflow::delta::analyze_delta(bp, seed, gov)
        }
        Some(_) => {
            canvas_dataflow::delta::note_fallback();
            Ok(None)
        }
        None => Ok(None),
    };
    let solved = seeded.and_then(|res| match res {
        Some(res) => Ok((res, None)),
        None => fds::solve(bp, gov, explain),
    });
    let (res, prov) = match solved {
        Ok(pair) => pair,
        Err(ex) => return exhausted(Engine::ScmpFds, ex, bp.preds.len()),
    };
    let violations = fds::violations(
        bp,
        |n, p| res.get(n, p),
        prov.as_ref().map(|p| (p, cx.program, cx.certifier.derived())),
    );
    let solution =
        CellSolution::MayOne { nodes: (0..bp.node_count).map(|r| res.row_ones(r)).collect() };
    let report = Report {
        engine: Engine::ScmpFds,
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

/// Specialized nullary abstraction + exponential relational dataflow.
fn run_relational(cx: &MethodContext<'_>, gov: &Meter) -> EngineRun {
    use canvas_dataflow::relational::{self, RelStop};
    let engine = Engine::ScmpRelational;
    let bp = cx.boolprog();
    let (rel_budget, _) = cx.certifier.budgets();
    // The engine's own per-node valuation budget stays a hard error; only
    // the shared governor degrades to an inconclusive verdict.
    let (res, prov) = match relational::solve(bp, rel_budget, gov, cx.certifier.explain()) {
        Ok(pair) => pair,
        Err(RelStop::States(_)) => return Err(CertifyError::StateBudget { engine }),
        Err(RelStop::Budget(ex)) => return exhausted(engine, ex, bp.preds.len()),
    };
    let violations = fds::violations(
        bp,
        |n, p| res.may_one(n, p),
        prov.as_ref().map(|p| (p, cx.program, cx.certifier.derived())),
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
        engine,
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

/// Context-sensitive interprocedural SCMP certification (§8).
fn run_interproc(cx: &MethodContext<'_>, gov: &Meter) -> EngineRun {
    let engine = Engine::ScmpInterproc;
    let c = cx.certifier;
    let solved =
        canvas_dataflow::interproc::solve(cx.program, c.spec(), c.derived(), gov, c.explain());
    let res = match solved {
        Ok(res) => res,
        Err(ex) => return exhausted(engine, ex, 0),
    };
    let report = Report {
        engine,
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

/// The TVLA engine over `tvp`: the first-order predicate abstraction (§5)
/// or the generic shape-graph baseline (§3/§4.4), in either mode.
fn run_tvla(
    cx: &MethodContext<'_>,
    gov: &Meter,
    engine: Engine,
    tvp: &TvpProgram,
    mode: canvas_tvla::EngineMode,
) -> EngineRun {
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
    let (_, tvla_budget) = cx.certifier.budgets();
    let res = match canvas_tvla::run(tvp, mode, tvla_budget, entry_structs, gov) {
        Ok(res) => res,
        Err(ex) => return exhausted(engine, ex, tvp.preds.len()),
    };
    let why = "the TVLA engines do not record provenance";
    let report = Report {
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
    };
    Ok((report, None))
}

/// Generic allocation-site must-alias baseline (§3).
fn run_allocsite(cx: &MethodContext<'_>, gov: &Meter) -> EngineRun {
    let engine = Engine::GenericAllocSite;
    // The alloc-site baseline is a single linear pass, so account its whole
    // cost up front: one step per CFG edge (plus one so an empty method
    // still checks the deadline / injected trip).
    for _ in 0..=cx.method.cfg.edges().len() {
        if let Err(ex) = gov.tick() {
            return exhausted(engine, ex, 0);
        }
    }
    let res = canvas_heap::allocsite_analyze(
        cx.program,
        cx.method,
        cx.certifier.spec(),
        cx.entry == EntryAssumption::Unknown,
    );
    let why = "the allocation-site baseline does not record provenance";
    let report = Report {
        engine,
        violations: res.violations.iter().map(|s| cx.violation_unavailable(s, why)).collect(),
        stats: Stats { work: res.edge_visits, max_states: 1, ..Stats::default() },
        verdict: Default::default(),
    };
    Ok((report, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_are_in_table_order_and_unique() {
        let all = Engine::all();
        let abbrevs: Vec<&str> = all.iter().map(|e| e.abbrev()).collect();
        let table = ["fds", "rel", "inter", "tvla-r", "tvla-i", "ssg-r", "ssg-i", "alloc"];
        assert_eq!(abbrevs, table);
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn names_and_abbrevs_are_distinct() {
        let names: Vec<&str> = Engine::all().iter().map(|e| e.name()).collect();
        let abbrevs: Vec<&str> = Engine::all().iter().map(|e| e.abbrev()).collect();
        for list in [&names, &abbrevs] {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "{list:?}");
        }
    }

    #[test]
    fn by_name_inverts_display() {
        for e in Engine::all() {
            assert_eq!(Engine::by_name(&e.to_string()), Some(e));
        }
        assert_eq!(Engine::by_name("no-such-engine"), None);
    }

    #[test]
    fn shared_transforms_compute_once() {
        let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).unwrap();
        let program = Program::parse(
            "class Main { static void main() { Set s = new Set(); Iterator i = s.iterator(); i.next(); } }",
            certifier.spec(),
        )
        .unwrap();
        let method = program.main_method().unwrap();
        let shared = SharedTransforms::new();
        let cx = MethodContext {
            certifier: &certifier,
            program: &program,
            method,
            entry: EntryAssumption::Clean,
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
