//! The TVLA-style fixpoint engines (§5.5, §7).

use std::collections::HashSet;

use canvas_faults::{Exhaustion, Meter};
use canvas_minijava::Site;

use crate::canon::{canonicalize, join};
use crate::structure::Structure;
use crate::transfer::apply;
use crate::tvp::TvpProgram;

static TVLA_WORKLIST_POPS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("tvla.worklist_pops");
static TVLA_APPLICATIONS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("tvla.applications");
static TVLA_STRUCTURES_CREATED: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("tvla.structures_created");
static TVLA_DEDUP_HITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("tvla.dedup_hits");
static TVLA_JOINS: canvas_telemetry::Counter = canvas_telemetry::Counter::new("tvla.joins");
static TVLA_SOLVE_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("tvla.solve");

/// Which abstract-state representation to use per CFG node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// A set of canonical structures per node (exponential worst case,
    /// maximally precise).
    Relational,
    /// A single joined structure per node (the paper's faster mode; §7
    /// reports it loses no precision on the benchmarks).
    IndependentAttribute,
}

/// A potential `requires` violation found by the engine.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TvlaViolation {
    /// Where.
    pub site: Site,
}

/// Result of a TVLA run.
#[derive(Clone, Debug)]
pub struct TvlaResult {
    /// Potential violations (deduplicated, ordered by site).
    pub violations: Vec<TvlaViolation>,
    /// Total structure-transformer applications (work measure).
    pub applications: usize,
    /// Largest per-node structure-set size encountered.
    pub max_states: usize,
    /// Whether the structure budget was exhausted (result still sound: the
    /// engine reports every check site reachable at bail-out time as a
    /// potential violation).
    pub exhausted: bool,
    /// The final structure set of every node (the shape-graph renderings
    /// of the evaluation read these).
    pub states: Vec<Vec<Structure>>,
}

/// Runs the abstract interpreter over a TVP program from explicit entry
/// structures (the empty heap for `main`; unknown parameter state to
/// certify a method out of context), governed: one meter tick per
/// structure-transformer application, plus governor state checks on every
/// target set.
///
/// The engine's own `max_structs_per_node` budget keeps its legacy meaning
/// (conservative bail-out with `exhausted = true`); only the shared governor
/// produces an [`Exhaustion`], which the caller degrades to an inconclusive
/// verdict.
///
/// # Errors
///
/// Returns the [`Exhaustion`] when the governor budget trips.
pub fn run(
    p: &TvpProgram,
    mode: EngineMode,
    max_structs_per_node: usize,
    entry: Vec<Structure>,
    gov: &Meter,
) -> Result<TvlaResult, Exhaustion> {
    let _span = TVLA_SOLVE_TIME.span();
    // Publishes on drop so governor-tripped early exits are counted too.
    struct Tally {
        pops: u64,
        applications: u64,
        structs_created: u64,
        dedup_hits: u64,
        joins: u64,
    }
    impl Drop for Tally {
        fn drop(&mut self) {
            TVLA_WORKLIST_POPS.add(self.pops);
            TVLA_APPLICATIONS.add(self.applications);
            TVLA_STRUCTURES_CREATED.add(self.structs_created);
            TVLA_DEDUP_HITS.add(self.dedup_hits);
            TVLA_JOINS.add(self.joins);
        }
    }
    let mut tally = Tally { pops: 0, applications: 0, structs_created: 0, dedup_hits: 0, joins: 0 };
    let mut states: Vec<Vec<Structure>> = vec![Vec::new(); p.nodes];
    // Hash-set mirror of `states` for O(1) membership in relational mode
    // (structures are canonicalized, so hashing sees the isomorphism-
    // canonical form); the Vec keeps deterministic insertion order.
    let mut seen: Vec<HashSet<Structure>> = vec![HashSet::new(); p.nodes];
    for s in entry {
        let s = canonicalize(&s, &p.preds);
        match mode {
            EngineMode::Relational => {
                if seen[p.entry].insert(s.clone()) {
                    tally.structs_created += 1;
                    states[p.entry].push(s);
                } else {
                    tally.dedup_hits += 1;
                }
            }
            EngineMode::IndependentAttribute => {
                let acc = match states[p.entry].pop() {
                    None => s,
                    Some(t) => {
                        tally.joins += 1;
                        crate::canon::join(&t, &s, &p.preds)
                    }
                };
                states[p.entry] = vec![acc];
            }
        }
    }

    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); p.nodes];
    for (k, (from, _, _)) in p.edges.iter().enumerate() {
        out_edges[*from].push(k);
    }

    let mut work = vec![p.entry];
    let mut on_work = vec![false; p.nodes];
    on_work[p.entry] = true;
    let mut violations: HashSet<Site> = HashSet::new();
    let mut max_states = 1;
    let mut exhausted = false;

    while let Some(node) = work.pop() {
        tally.pops += 1;
        on_work[node] = false;
        let cur = states[node].clone();
        for &ek in &out_edges[node] {
            let (_, action, to) = &p.edges[ek];
            let mut new_structs = Vec::new();
            for s in &cur {
                tally.applications += 1;
                gov.tick()?;
                let r = apply(action, s, &p.preds);
                if r.check_fired {
                    if let Some((_, site)) = &action.check {
                        violations.insert(site.clone());
                    }
                }
                new_structs.extend(r.posts);
            }
            let target = &mut states[*to];
            let mut changed = false;
            match mode {
                EngineMode::Relational => {
                    for s in new_structs {
                        if seen[*to].insert(s.clone()) {
                            tally.structs_created += 1;
                            target.push(s);
                            changed = true;
                        } else {
                            tally.dedup_hits += 1;
                        }
                    }
                }
                EngineMode::IndependentAttribute => {
                    let mut acc = target.first().cloned();
                    for s in new_structs {
                        acc = Some(match acc {
                            None => s,
                            Some(t) => {
                                tally.joins += 1;
                                join(&t, &s, &p.preds)
                            }
                        });
                    }
                    if let Some(s) = acc {
                        if target.first() != Some(&s) {
                            *target = vec![s];
                            changed = true;
                        }
                    }
                }
            }
            max_states = max_states.max(target.len());
            gov.check_states(target.len())?;
            if target.len() > max_structs_per_node {
                exhausted = true;
            }
            if changed && !on_work[*to] {
                on_work[*to] = true;
                work.push(*to);
            }
        }
        if exhausted {
            break;
        }
    }

    if exhausted {
        // bail out conservatively: flag every check site
        for (_, action, _) in &p.edges {
            if let Some((_, site)) = &action.check {
                violations.insert(site.clone());
            }
        }
    }

    let mut violations: Vec<TvlaViolation> =
        violations.into_iter().map(|site| TvlaViolation { site }).collect();
    violations.sort_by_key(|v| (v.site.method, v.site.span, v.site.what.clone()));
    let applications = tally.applications as usize;
    Ok(TvlaResult { violations, applications, max_states, exhausted, states })
}

/// Renders a structure as a Graphviz DOT digraph (for visual inspection of
/// the paper's Fig. 7-style shape graphs): individuals become nodes (doubly
/// circled when summary), unary properties become labels, binary predicates
/// become edges (dashed for 1/2 values).
pub fn to_dot(s: &Structure, preds: &[crate::tvp::PredDecl]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph shape {\n  rankdir=LR;\n");
    for u in 0..s.universe_len() {
        let mut props = Vec::new();
        for (k, p) in preds.iter().enumerate() {
            if p.arity == 1 {
                match s.get1(k, u) {
                    canvas_logic::Kleene::True => props.push(p.name.clone()),
                    canvas_logic::Kleene::Unknown => props.push(format!("{}?", p.name)),
                    canvas_logic::Kleene::False => {}
                }
            }
        }
        let _ = writeln!(
            out,
            "  o{u} [label=\"o{u}\\n{}\"{}];",
            props.join("\\n"),
            if s.is_summary(u) { " peripheries=2" } else { "" }
        );
    }
    for (k, p) in preds.iter().enumerate() {
        if p.arity != 2 {
            continue;
        }
        for a in 0..s.universe_len() {
            for b in 0..s.universe_len() {
                match s.get2(k, a, b) {
                    canvas_logic::Kleene::True => {
                        let _ = writeln!(out, "  o{a} -> o{b} [label=\"{}\"];", p.name);
                    }
                    canvas_logic::Kleene::Unknown => {
                        let _ =
                            writeln!(out, "  o{a} -> o{b} [label=\"{}\" style=dashed];", p.name);
                    }
                    canvas_logic::Kleene::False => {}
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a structure as a textual shape graph (the paper's Fig. 7):
/// individuals with their unary properties, then the binary edges.
pub fn render_structure(s: &Structure, preds: &[crate::tvp::PredDecl]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for u in 0..s.universe_len() {
        let mut props = Vec::new();
        for (k, p) in preds.iter().enumerate() {
            if p.arity == 1 {
                let v = s.get1(k, u);
                if v != canvas_logic::Kleene::False {
                    props.push(if v == canvas_logic::Kleene::True {
                        p.name.clone()
                    } else {
                        format!("{}?", p.name)
                    });
                }
            }
        }
        let _ = writeln!(
            out,
            "  o{u}{}: {}",
            if s.is_summary(u) { "*" } else { "" },
            if props.is_empty() { "(unlabelled)".to_string() } else { props.join(", ") }
        );
    }
    for (k, p) in preds.iter().enumerate() {
        if p.arity != 2 {
            continue;
        }
        for a in 0..s.universe_len() {
            for b in 0..s.universe_len() {
                let v = s.get2(k, a, b);
                if v != canvas_logic::Kleene::False {
                    let _ = writeln!(
                        out,
                        "  {}: o{a} -> o{b}{}",
                        p.name,
                        if v == canvas_logic::Kleene::Unknown { "  (maybe)" } else { "" }
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvp::{Action, Formula3, PredDecl, Update};
    use canvas_minijava::MethodId;

    /// An ungoverned run from the empty heap.
    fn solve(p: &TvpProgram, mode: EngineMode) -> TvlaResult {
        run(p, mode, 1000, vec![Structure::empty(&p.preds)], &Meter::disarmed()).unwrap()
    }

    fn site(line: u32) -> Site {
        Site {
            method: MethodId(0),
            span: canvas_minijava::Span::new(line, 1),
            what: format!("check@{line}"),
        }
    }

    /// x = new; maybe (x = new); check x-pointed-thing is p1
    fn tiny_program() -> TvpProgram {
        let preds = vec![PredDecl::pt("pt_x"), PredDecl::type_tag("mark")];
        let alloc = |name: &str| Action {
            name: name.into(),
            focus: vec![],
            check: None,
            allocs: vec!["n".into()],
            summary_allocs: vec![],
            updates: vec![Update {
                pred: 0,
                formals: vec!["o".into()],
                rhs: Formula3::Eq("o".into(), "n".into()),
            }],
        };
        let mark = Action {
            name: "mark x".into(),
            focus: vec![0],
            check: None,
            allocs: vec![],
            summary_allocs: vec![],
            updates: vec![Update {
                pred: 1,
                formals: vec!["o".into()],
                rhs: Formula3::or([
                    Formula3::App(1, vec!["o".into()]),
                    Formula3::App(0, vec!["o".into()]),
                ]),
            }],
        };
        let check = Action {
            name: "check".into(),
            focus: vec![0],
            check: Some((
                Formula3::exists(
                    "o",
                    Formula3::and([
                        Formula3::App(0, vec!["o".into()]),
                        Formula3::not(Formula3::App(1, vec!["o".into()])),
                    ]),
                ),
                site(9),
            )),
            allocs: vec![],
            summary_allocs: vec![],
            updates: vec![],
        };
        TvpProgram {
            preds,
            nodes: 4,
            entry: 0,
            edges: vec![(0, alloc("x=new"), 1), (1, mark, 2), (2, check, 3)],
        }
    }

    #[test]
    fn straightline_no_alarm_both_modes() {
        let p = tiny_program();
        for mode in [EngineMode::Relational, EngineMode::IndependentAttribute] {
            let r = solve(&p, mode);
            assert!(r.violations.is_empty(), "{mode:?}: {:?}", r.violations);
            assert!(!r.exhausted);
        }
    }

    #[test]
    fn unmarked_path_raises_alarm() {
        // entry -> alloc -> (skip mark or mark) -> check
        let base = tiny_program();
        let (_, mark, _) = base.edges[1].clone();
        let (_, check, _) = base.edges[2].clone();
        let (_, alloc, _) = base.edges[0].clone();
        let p = TvpProgram {
            preds: base.preds,
            nodes: 4,
            entry: 0,
            edges: vec![
                (0, alloc, 1),
                (1, mark, 2),
                (1, Action::nop(), 2), // skip marking
                (2, check, 3),
            ],
        };
        for mode in [EngineMode::Relational, EngineMode::IndependentAttribute] {
            let r = solve(&p, mode);
            assert_eq!(r.violations.len(), 1, "{mode:?}");
        }
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::tvp::PredDecl;
    use canvas_logic::Kleene;

    #[test]
    fn dot_output_shape() {
        let preds = vec![PredDecl::pt("pt_x"), PredDecl::field("rv_f")];
        let mut s = Structure::empty(&preds);
        let a = s.add_individual();
        let b = s.add_individual();
        s.set_summary(b, true);
        s.set1(0, a, Kleene::True);
        s.set2(1, a, b, Kleene::Unknown);
        let dot = to_dot(&s, &preds);
        assert!(dot.starts_with("digraph shape {"), "{dot}");
        assert!(dot.contains("peripheries=2"), "summary node double-circled: {dot}");
        assert!(dot.contains("style=dashed"), "maybe edge dashed: {dot}");
        assert!(dot.contains("pt_x"), "{dot}");
    }
}
