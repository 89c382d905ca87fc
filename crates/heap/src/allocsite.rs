//! Allocation-site-based must-alias certification (the §3 baseline).
//!
//! Objects are abstracted by their allocation site. The analysis is
//! flow-sensitive and keeps, per program point:
//!
//! * for every reference variable, the set of sites it may point to;
//! * for every (site, field) pair, the set of sites the field may hold;
//! * the set of *non-linear* sites — sites that may have been executed more
//!   than once on some path, whose abstract object therefore conflates
//!   several runtime objects.
//!
//! EASL bodies are interpreted directly over this abstract heap (the
//! "composite program" of §3). A `requires α == β` is certified at a call
//! when both sides evaluate to the same singleton, *linear* site — a
//! must-alias; otherwise a potential violation is reported.
//!
//! The paper's §3 example shows the fundamental weakness: every `Version`
//! allocated by `add` inside a loop shares one site, which immediately
//! becomes non-linear, so the analysis cannot certify the (safe)
//! fresh-iterator-per-iteration pattern.

use std::collections::{BTreeMap, BTreeSet};

use canvas_easl::{ClassSpec, MethodSpec, Spec, SpecExpr, SpecStmt, SpecVar};
use canvas_logic::{Formula, Kleene, Term};
use canvas_minijava::{Instr, MethodIr, Program, Site, VarId};
use canvas_telemetry::{Counter, Timer};

static ALLOCSITE_WORKLIST_POPS: Counter = Counter::new("allocsite.worklist_pops");
static ALLOCSITE_EDGE_VISITS: Counter = Counter::new("allocsite.edge_visits");
static ALLOCSITE_SOLVE_TIME: Timer = Timer::new("allocsite.solve");

/// An abstract object: an allocation site id.
type Obj = u32;

/// A set of abstract objects, possibly including unknown ones.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct ObjSet {
    objs: BTreeSet<Obj>,
    unknown: bool,
}

impl ObjSet {
    fn bottom() -> Self {
        ObjSet::default()
    }

    fn single(o: Obj) -> Self {
        ObjSet { objs: BTreeSet::from([o]), unknown: false }
    }

    fn top() -> Self {
        ObjSet { objs: BTreeSet::new(), unknown: true }
    }

    fn join(&mut self, other: &ObjSet) -> bool {
        let before = (self.objs.len(), self.unknown);
        self.objs.extend(other.objs.iter().copied());
        self.unknown |= other.unknown;
        before != (self.objs.len(), self.unknown)
    }

    fn is_empty(&self) -> bool {
        self.objs.is_empty() && !self.unknown
    }
}

/// The abstract state at one program point.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct State {
    vars: BTreeMap<VarId, ObjSet>,
    heap: BTreeMap<(Obj, String), ObjSet>,
    /// sites that may abstract several runtime objects
    multi: BTreeSet<Obj>,
    /// sites allocated so far on some path
    seen: BTreeSet<Obj>,
}

impl State {
    fn join(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (k, v) in &other.vars {
            changed |= self.vars.entry(*k).or_default().join(v);
        }
        for (k, v) in &other.heap {
            changed |= self.heap.entry(k.clone()).or_default().join(v);
        }
        let n = self.multi.len();
        self.multi.extend(other.multi.iter().copied());
        changed |= self.multi.len() != n;
        let n = self.seen.len();
        self.seen.extend(other.seen.iter().copied());
        changed |= self.seen.len() != n;
        changed
    }

    fn var(&self, v: VarId) -> ObjSet {
        self.vars.get(&v).cloned().unwrap_or_default()
    }

    fn read_field(&self, base: &ObjSet, field: &str) -> ObjSet {
        if base.unknown {
            return ObjSet::top();
        }
        let mut out = ObjSet::bottom();
        for &o in &base.objs {
            if let Some(v) = self.heap.get(&(o, field.to_string())) {
                let mut v = v.clone();
                out.join(&v);
                let _ = &mut v;
            }
        }
        out
    }

    fn write_field(&mut self, base: &ObjSet, field: &str, value: ObjSet) {
        if base.unknown {
            // writing through an unknown base may affect any object
            for (_, v) in self.heap.iter_mut().filter(|((_, f), _)| f == field) {
                v.join(&value);
            }
            return;
        }
        let strong = base.objs.len() == 1 && !base.objs.iter().any(|o| self.multi.contains(o));
        for &o in &base.objs {
            let slot = self.heap.entry((o, field.to_string())).or_default();
            if strong {
                *slot = value.clone();
            } else {
                slot.join(&value);
            }
        }
    }

    fn alloc(&mut self, site: Obj) -> ObjSet {
        if !self.seen.insert(site) {
            self.multi.insert(site);
        }
        // a re-executed site invalidates strong facts about the previous
        // incarnation: keep heap entries (they describe *some* object) but
        // must-alias on this site is now impossible via `multi`
        ObjSet::single(site)
    }

    /// Three-valued equality of two value sets.
    fn eq_kleene(&self, a: &ObjSet, b: &ObjSet) -> Kleene {
        if a.is_empty() || b.is_empty() {
            // null values: comparisons against null are outside the
            // conformance property (NPE, not CME)
            return Kleene::Unknown;
        }
        if !a.unknown
            && !b.unknown
            && a.objs.len() == 1
            && a == b
            && !a.objs.iter().any(|o| self.multi.contains(o))
        {
            return Kleene::True;
        }
        let may_overlap = a.unknown || b.unknown || a.objs.intersection(&b.objs).next().is_some();
        if may_overlap {
            Kleene::Unknown
        } else {
            Kleene::False
        }
    }
}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct AllocSiteResult {
    /// Potential violations (site, ordered).
    pub violations: Vec<Site>,
    /// Edge transfer evaluations performed.
    pub edge_visits: usize,
}

/// Runs the allocation-site baseline over one method, from a clean entry
/// or from an *unknown* one: parameters and statics point to unknown
/// objects (for out-of-context certification).
pub fn analyze(
    program: &Program,
    method: &MethodIr,
    spec: &Spec,
    unknown_entry: bool,
) -> AllocSiteResult {
    let _span = ALLOCSITE_SOLVE_TIME.span();
    let n = method.cfg.node_count();
    let mut states: Vec<Option<State>> = vec![None; n];
    let mut init = State::default();
    if unknown_entry {
        for &pvar in &method.params {
            init.vars.insert(pvar, ObjSet::top());
        }
        for v in program.vars().iter().filter(|v| v.owner.is_none()) {
            init.vars.insert(v.id, ObjSet::top());
        }
    }
    states[method.cfg.entry().0] = Some(init);

    let edges = method.cfg.edges();
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, e) in edges.iter().enumerate() {
        out_edges[e.from.0].push(k);
    }

    let mut work = vec![method.cfg.entry().0];
    let mut on_work = vec![false; n];
    on_work[method.cfg.entry().0] = true;
    let mut violations: BTreeSet<Site> = BTreeSet::new();
    let mut edge_visits = 0;
    let mut pops = 0u64;

    while let Some(node) = work.pop() {
        on_work[node] = false;
        pops += 1;
        let Some(cur) = states[node].clone() else { continue };
        for &ek in &out_edges[node] {
            let e = &edges[ek];
            edge_visits += 1;
            let mut next = cur.clone();
            transfer(program, spec, &e.instr, ek as u32, &mut next, &mut violations);
            let changed = match &mut states[e.to.0] {
                t @ None => {
                    *t = Some(next);
                    true
                }
                Some(t) => t.join(&next),
            };
            if changed && !on_work[e.to.0] {
                on_work[e.to.0] = true;
                work.push(e.to.0);
            }
        }
    }

    ALLOCSITE_WORKLIST_POPS.add(pops);
    ALLOCSITE_EDGE_VISITS.add(edge_visits as u64);
    AllocSiteResult { violations: violations.into_iter().collect(), edge_visits }
}

/// Site id for the `ordinal`-th specification-internal allocation performed
/// while interpreting edge `edge`.
fn spec_site(edge: u32, ordinal: u32) -> Obj {
    1_000_000 + edge * 64 + ordinal
}

fn transfer(
    program: &Program,
    spec: &Spec,
    instr: &Instr,
    edge: u32,
    s: &mut State,
    violations: &mut BTreeSet<Site>,
) {
    match instr {
        Instr::Nop => {}
        Instr::Copy { dst, src } => {
            let v = s.var(*src);
            s.vars.insert(*dst, v);
        }
        Instr::Nullify { dst } => {
            s.vars.insert(*dst, ObjSet::bottom());
        }
        Instr::Load { dst, base, field } => {
            let b = s.var(*base);
            let v = s.read_field(&b, field);
            s.vars.insert(*dst, v);
        }
        Instr::Store { base, field, src } => {
            let b = s.var(*base);
            let v = s.var(*src);
            s.write_field(&b, field, v);
        }
        Instr::New { dst, ty, site, args, .. } => {
            let o = s.alloc(site.0);
            s.vars.insert(*dst, o.clone());
            if let Some(class) = spec.class(ty.as_str()) {
                if let Some(ctor) = class.ctor() {
                    let env = SpecEnv {
                        this: o.clone(),
                        params: args.iter().map(|&a| s.var(a)).collect(),
                    };
                    let mut ordinal = 0;
                    run_spec_body(spec, class, ctor, &env, edge, &mut ordinal, s);
                }
            }
        }
        Instr::CallComponent { dst, recv, method, args, known, at } => {
            if !*known {
                return;
            }
            let rty = program.var(*recv).ty;
            let Some(class) = spec.class(rty.as_str()) else { return };
            let Some(m) = class.method(method) else { return };
            let env =
                SpecEnv { this: s.var(*recv), params: args.iter().map(|&a| s.var(a)).collect() };
            // requires check
            if let Some(req) = m.requires() {
                if eval_formula(spec, class, m, req, &env, s).may_be_false() {
                    violations.insert(at.clone());
                }
            }
            let mut ordinal = 0;
            run_spec_body(spec, class, m, &env, edge, &mut ordinal, s);
            // bind the result
            if let Some(d) = dst {
                let v = match m.ret() {
                    Some(e) => eval_spec_expr(spec, class, m, e, &env, edge, &mut ordinal, s),
                    None => ObjSet::bottom(),
                };
                s.vars.insert(*d, v);
            }
        }
        Instr::CallClient { dst, .. } => {
            // conservative: everything reachable may change
            for (_, v) in s.heap.iter_mut() {
                v.join(&ObjSet::top());
            }
            // statics may be reassigned
            let statics: Vec<VarId> =
                program.vars().iter().filter(|v| v.owner.is_none()).map(|v| v.id).collect();
            for g in statics {
                s.vars.insert(g, ObjSet::top());
            }
            if let Some(d) = dst {
                s.vars.insert(*d, ObjSet::top());
            }
        }
    }
}

struct SpecEnv {
    this: ObjSet,
    params: Vec<ObjSet>,
}

fn eval_spec_path(
    s: &State,
    class: &ClassSpec,
    m: &MethodSpec,
    p: &canvas_easl::SpecPath,
    env: &SpecEnv,
) -> ObjSet {
    let _ = (class, m);
    let mut cur = match p.base() {
        SpecVar::This => env.this.clone(),
        SpecVar::Param(k) => env.params.get(k).cloned().unwrap_or_default(),
    };
    for f in p.fields() {
        cur = s.read_field(&cur, f);
    }
    cur
}

#[allow(clippy::too_many_arguments)]
fn eval_spec_expr(
    spec: &Spec,
    class: &ClassSpec,
    m: &MethodSpec,
    e: &SpecExpr,
    env: &SpecEnv,
    edge: u32,
    ordinal: &mut u32,
    s: &mut State,
) -> ObjSet {
    match e {
        SpecExpr::Path(p) => eval_spec_path(s, class, m, p, env),
        SpecExpr::New { ty, args } => {
            let site = spec_site(edge, *ordinal);
            *ordinal += 1;
            let vals: Vec<ObjSet> = args
                .iter()
                .map(|a| eval_spec_expr(spec, class, m, a, env, edge, ordinal, s))
                .collect();
            let o = s.alloc(site);
            if let Some(c2) = spec.class(ty.as_str()) {
                if let Some(ctor) = c2.ctor() {
                    let env2 = SpecEnv { this: o.clone(), params: vals };
                    run_spec_body(spec, c2, ctor, &env2, edge, ordinal, s);
                }
            }
            o
        }
    }
}

fn run_spec_body(
    spec: &Spec,
    class: &ClassSpec,
    m: &MethodSpec,
    env: &SpecEnv,
    edge: u32,
    ordinal: &mut u32,
    s: &mut State,
) {
    for stmt in m.body() {
        let SpecStmt::Assign { lhs, rhs } = stmt;
        let value = eval_spec_expr(spec, class, m, rhs, env, edge, ordinal, s);
        // target object = parent of lhs path (the parser only accepts
        // assignments to fields, so there is always a last field)
        let Some((field, parent)) = lhs.fields().split_last() else { continue };
        let parent = canvas_easl::SpecPath::new(lhs.base(), parent.to_vec());
        let base = eval_spec_path(s, class, m, &parent, env);
        s.write_field(&base, field, value);
    }
}

fn eval_formula(
    spec: &Spec,
    class: &ClassSpec,
    m: &MethodSpec,
    f: &Formula,
    env: &SpecEnv,
    s: &State,
) -> Kleene {
    match f {
        Formula::True => Kleene::True,
        Formula::False => Kleene::False,
        Formula::Eq(a, b) => eval_atom(spec, class, m, a, b, env, s),
        Formula::Ne(a, b) => eval_atom(spec, class, m, a, b, env, s).not(),
        Formula::Not(g) => eval_formula(spec, class, m, g, env, s).not(),
        Formula::And(gs) => gs
            .iter()
            .map(|g| eval_formula(spec, class, m, g, env, s))
            .fold(Kleene::True, Kleene::and),
        Formula::Or(gs) => gs
            .iter()
            .map(|g| eval_formula(spec, class, m, g, env, s))
            .fold(Kleene::False, Kleene::or),
    }
}

fn eval_atom(
    spec: &Spec,
    class: &ClassSpec,
    m: &MethodSpec,
    a: &Term,
    b: &Term,
    env: &SpecEnv,
    s: &State,
) -> Kleene {
    let _ = spec;
    let to_set = |t: &Term| -> Option<ObjSet> {
        let Term::Path(p) = t else { return None };
        // resolve the logic path back to a spec path in the method frame
        let base = if p.base().name() == "this" {
            SpecVar::This
        } else {
            SpecVar::Param(m.params().iter().position(|(n, _)| n == p.base().name())?)
        };
        let sp = canvas_easl::SpecPath::new(base, p.fields().to_vec());
        Some(eval_spec_path(s, class, m, &sp, env))
    };
    match (to_set(a), to_set(b)) {
        (Some(x), Some(y)) => s.eq_kleene(&x, &y),
        _ => Kleene::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_minijava::Program;

    fn certify(src: &str) -> Vec<u32> {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let main = program.main_method().expect("main required");
        analyze(&program, main, &spec, false).violations.iter().map(|s| s.line()).collect()
    }

    #[test]
    fn fig3_alloc_site_is_exact_on_straightline() {
        // allocation sites are all distinct and linear here, so the
        // baseline gets Fig. 3 right (its weakness is loops, not
        // straight-line code — that one is the shape-graph baseline's)
        let lines = certify(
            r#"
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
"#,
        );
        assert_eq!(lines, vec![10, 13], "{lines:?}");
    }

    #[test]
    fn version_loop_false_alarm() {
        // §3: the versions allocated by add() in the loop share one site,
        // which becomes non-linear; the safe pattern cannot be certified
        let lines = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) {
                i.next();
            }
        }
    }
}
"#,
        );
        assert!(!lines.is_empty(), "the alloc-site baseline must false-alarm here");
    }

    #[test]
    fn simple_straightline_certified() {
        let lines = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        s.add("a");
        Iterator i = s.iterator();
        i.next();
        i.remove();
        i.next();
    }
}
"#,
        );
        assert!(lines.is_empty(), "{lines:?}");
    }

    #[test]
    fn real_error_found() {
        let lines = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        s.add("x");
        i.next();
    }
}
"#,
        );
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn client_call_is_conservative() {
        let lines = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        mystery();
        i.next();
    }
    static void mystery() { }
}
"#,
        );
        assert_eq!(lines.len(), 1);
    }
}
