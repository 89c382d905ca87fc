//! A concrete-execution oracle for differential testing.
//!
//! The oracle runs a mini-Java client *concretely* against the EASL
//! semantics of the component, exploring every nondeterministic branch
//! choice up to a path/step budget, and records every `requires` violation
//! it actually reaches. Certifier soundness then has a machine-checkable
//! form: on every explored program,
//!
//! > oracle violations ⊆ certifier violations (for every engine),
//!
//! and on loop-free clients the *precise* engines must match the oracle
//! exactly. `tests/prop_oracle.rs` runs this over thousands of generated
//! clients.

use std::collections::{BTreeSet, HashMap};

use canvas_easl::{ClassSpec, MethodSpec, Spec, SpecExpr, SpecStmt, SpecVar};
use canvas_logic::{Formula, Term};
use canvas_minijava::{Instr, MethodIr, NodeId, Program, VarId};

/// A concrete runtime value: null or an object id.
type Value = Option<usize>;

/// One concrete object (component or client): its fields.
#[derive(Clone, Debug, Default)]
struct Object {
    fields: HashMap<String, Value>,
}

/// The exploration result.
#[derive(Clone, Debug)]
pub struct OracleResult {
    /// Source lines where a `requires` concretely failed on some path.
    pub violation_lines: BTreeSet<u32>,
    /// Paths fully explored (to exit or to a path-ending event).
    pub paths: usize,
    /// Whether exploration hit a budget (the violation set is then a lower
    /// bound).
    pub truncated: bool,
}

/// Why the oracle could not produce a result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleError {
    /// The program has no static `main` entry point.
    NoMain,
    /// The dedicated interpreter thread could not be spawned.
    Spawn(String),
    /// The interpreter thread panicked; the panic was contained and its
    /// payload (when it was a string) is carried here.
    Panicked(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::NoMain => f.write_str("oracle needs a static main method"),
            OracleError::Spawn(e) => write!(f, "cannot spawn oracle thread: {e}"),
            OracleError::Panicked(m) => write!(f, "oracle thread panicked: {m}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Concrete interpreter budgets.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Maximum edges executed along one path.
    pub max_steps: usize,
    /// Maximum paths explored in total.
    pub max_paths: usize,
    /// Maximum client-call depth.
    pub max_depth: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { max_steps: 2_000, max_paths: 4_096, max_depth: 32 }
    }
}

/// Explores all branch choices of `main` and returns every line whose
/// `requires` concretely fails on some path.
///
/// The interpreter runs on a dedicated thread; a panic there (including the
/// injected `oracle-death` fault) is contained and surfaced as
/// [`OracleError::Panicked`] rather than tearing down the caller.
pub fn explore(
    program: &Program,
    spec: &Spec,
    config: OracleConfig,
) -> Result<OracleResult, OracleError> {
    // the exhaustive DFS can recurse up to `max_steps` frames; run it on a
    // dedicated thread with a generous stack so callers need no special
    // configuration
    let program = program.clone();
    let spec = spec.clone();
    std::thread::Builder::new()
        .name("oracle".to_string())
        .stack_size(256 << 20)
        .spawn(move || explore_on_this_stack(&program, &spec, config))
        .map_err(|e| OracleError::Spawn(e.to_string()))?
        .join()
        .map_err(|payload| OracleError::Panicked(canvas_core::panic_message(payload.as_ref())))?
}

fn explore_on_this_stack(
    program: &Program,
    spec: &Spec,
    config: OracleConfig,
) -> Result<OracleResult, OracleError> {
    static ORACLE_PATHS: canvas_telemetry::Counter =
        canvas_telemetry::Counter::new("oracle.paths_explored");
    canvas_faults::oracle_death();
    let main = program.main_method().ok_or(OracleError::NoMain)?;
    let mut o =
        Oracle { program, spec, config, violations: BTreeSet::new(), paths: 0, truncated: false };
    let entry = State { objects: Vec::new(), vars: HashMap::new() };
    let exits = o.run_paths(main, main.cfg.entry(), entry, 0, 0);
    o.paths += exits.len();
    ORACLE_PATHS.add(o.paths as u64);
    Ok(OracleResult { violation_lines: o.violations, paths: o.paths, truncated: o.truncated })
}

#[derive(Clone, Debug)]
struct State {
    objects: Vec<Object>,
    /// program-wide variable environment (VarIds are globally unique, so
    /// statics and all methods' locals coexist; recursion is bounded by
    /// `max_depth`, and recursive frames sharing locals is conservative
    /// enough for the generated test programs, which are non-recursive)
    vars: HashMap<VarId, Value>,
}

impl State {
    fn get(&self, v: VarId) -> Value {
        self.vars.get(&v).copied().flatten()
    }

    fn alloc(&mut self) -> usize {
        self.objects.push(Object::default());
        self.objects.len() - 1
    }
}

struct Oracle<'a> {
    program: &'a Program,
    spec: &'a Spec,
    config: OracleConfig,
    violations: BTreeSet<u32>,
    paths: usize,
    truncated: bool,
}

impl Oracle<'_> {
    /// Runs from `node` to the method exit, forking at branch points;
    /// returns the (return value, state) of every completed path.
    fn run_paths(
        &mut self,
        method: &MethodIr,
        node: NodeId,
        state: State,
        depth: usize,
        steps: usize,
    ) -> Vec<(Value, State)> {
        if self.paths >= self.config.max_paths {
            self.truncated = true;
            return Vec::new();
        }
        if steps >= self.config.max_steps {
            self.truncated = true;
            self.paths += 1;
            return Vec::new();
        }
        if node == method.cfg.exit() {
            let ret = method.ret_var.map(|r| state.get(r)).unwrap_or(None);
            return vec![(ret, state)];
        }
        let edges: Vec<_> = method.cfg.succs(node).cloned().collect();
        if edges.is_empty() {
            // disconnected continuation after a return
            return Vec::new();
        }
        let mut out = Vec::new();
        for e in &edges {
            let posts = self.step(&e.instr, state.clone(), depth, steps);
            for post in posts {
                out.extend(self.run_paths(method, e.to, post, depth, steps + 1));
                if self.paths >= self.config.max_paths {
                    self.truncated = true;
                    return out;
                }
            }
        }
        out
    }

    /// Executes one instruction; returns the possible post-states (empty =
    /// the path ends here: NPE, violation, or budget).
    fn step(&mut self, instr: &Instr, mut state: State, depth: usize, steps: usize) -> Vec<State> {
        match instr {
            Instr::Nop => vec![state],
            Instr::Copy { dst, src } => {
                let v = state.get(*src);
                state.vars.insert(*dst, v);
                vec![state]
            }
            Instr::Nullify { dst } => {
                state.vars.insert(*dst, None);
                vec![state]
            }
            Instr::Load { dst, base, field } => match state.get(*base) {
                Some(o) => {
                    let v = state.objects[o].fields.get(field).copied().flatten();
                    state.vars.insert(*dst, v);
                    vec![state]
                }
                None => {
                    self.end_path();
                    vec![]
                }
            },
            Instr::Store { base, field, src } => match state.get(*base) {
                Some(o) => {
                    let v = state.get(*src);
                    state.objects[o].fields.insert(field.clone(), v);
                    vec![state]
                }
                None => {
                    self.end_path();
                    vec![]
                }
            },
            Instr::New { dst, ty, args, .. } => {
                let o = state.alloc();
                state.vars.insert(*dst, Some(o));
                if let Some(class) = self.spec.class(ty.as_str()) {
                    let class = class.clone();
                    let argv: Vec<Value> = args.iter().map(|a| state.get(*a)).collect();
                    if let Some(ctor) = class.ctor() {
                        if self.exec_spec_body(&class, ctor, o, &argv, &mut state).is_err() {
                            self.end_path();
                            return vec![];
                        }
                    }
                }
                vec![state]
            }
            Instr::CallComponent { dst, recv, method: m, args, known, at } => {
                let Some(robj) = state.get(*recv) else {
                    self.end_path();
                    return vec![];
                };
                if !known {
                    return vec![state];
                }
                let rty = self.program.var(*recv).ty;
                // a known call resolved against this spec when it was parsed
                let Some((class, mspec)) = self
                    .spec
                    .class(rty.as_str())
                    .and_then(|c| Some((c.clone(), c.method(m)?.clone())))
                else {
                    return vec![state];
                };
                let argv: Vec<Value> = args.iter().map(|a| state.get(*a)).collect();
                if let Some(req) = mspec.requires() {
                    match self.eval_formula(&class, &mspec, req, robj, &argv, &state) {
                        Ok(true) => {}
                        Ok(false) => {
                            self.violations.insert(at.line());
                            self.end_path(); // the thrown exception ends it
                            return vec![];
                        }
                        Err(()) => {
                            self.end_path();
                            return vec![];
                        }
                    }
                }
                if self.exec_spec_body(&class, &mspec, robj, &argv, &mut state).is_err() {
                    self.end_path();
                    return vec![];
                }
                if let Some(d) = dst {
                    match mspec.ret() {
                        Some(e) => {
                            match self.eval_spec_expr(&class, &mspec, e, robj, &argv, &mut state) {
                                Ok(v) => {
                                    state.vars.insert(*d, v);
                                }
                                Err(()) => {
                                    self.end_path();
                                    return vec![];
                                }
                            }
                        }
                        None => {
                            state.vars.insert(*d, None);
                        }
                    }
                }
                vec![state]
            }
            Instr::CallClient { dst, callee, args, .. } => {
                if depth >= self.config.max_depth {
                    self.truncated = true;
                    self.end_path();
                    return vec![];
                }
                let callee_ir = self.program.method(*callee).clone();
                let argv: Vec<Value> = args.iter().map(|a| state.get(*a)).collect();
                let mut entry = state;
                for (k, p) in callee_ir.params.iter().enumerate() {
                    entry.vars.insert(*p, argv.get(k).copied().flatten());
                }
                let exits =
                    self.run_paths(&callee_ir, callee_ir.cfg.entry(), entry, depth + 1, steps + 1);
                exits
                    .into_iter()
                    .map(|(ret, mut s)| {
                        if let Some(d) = dst {
                            s.vars.insert(*d, ret);
                        }
                        s
                    })
                    .collect()
            }
        }
    }

    fn end_path(&mut self) {
        self.paths += 1;
    }

    /// Executes an EASL body concretely; `Err` = NPE inside the spec.
    fn exec_spec_body(
        &mut self,
        class: &ClassSpec,
        m: &MethodSpec,
        this: usize,
        args: &[Value],
        state: &mut State,
    ) -> Result<(), ()> {
        for stmt in m.body() {
            let SpecStmt::Assign { lhs, rhs } = stmt;
            let value = self.eval_spec_expr(class, m, rhs, this, args, state)?;
            // target object: evaluate the parent path (an assignment always
            // targets a field, so the split never fails on parsed specs)
            let (field, parent_fields) = lhs.fields().split_last().ok_or(())?;
            let parent = canvas_easl::SpecPath::new(lhs.base(), parent_fields.to_vec());
            let target = self.eval_spec_path(&parent, this, args, state)?.ok_or(())?;
            state.objects[target].fields.insert(field.clone(), value);
        }
        Ok(())
    }

    /// Evaluates an EASL path; `Err` = NPE while dereferencing.
    fn eval_spec_path(
        &self,
        p: &canvas_easl::SpecPath,
        this: usize,
        args: &[Value],
        state: &State,
    ) -> Result<Value, ()> {
        let mut cur: Value = match p.base() {
            SpecVar::This => Some(this),
            SpecVar::Param(k) => args.get(k).copied().flatten(),
        };
        for f in p.fields() {
            let o = cur.ok_or(())?;
            cur = state.objects[o].fields.get(f).copied().flatten();
        }
        Ok(cur)
    }

    #[allow(clippy::only_used_in_recursion)] // threaded for the recursive cases
    fn eval_spec_expr(
        &mut self,
        class: &ClassSpec,
        m: &MethodSpec,
        e: &SpecExpr,
        this: usize,
        args: &[Value],
        state: &mut State,
    ) -> Result<Value, ()> {
        match e {
            SpecExpr::Path(p) => self.eval_spec_path(p, this, args, state),
            SpecExpr::New { ty, args: ctor_args } => {
                let argv = ctor_args
                    .iter()
                    .map(|a| self.eval_spec_expr(class, m, a, this, args, state))
                    .collect::<Result<Vec<_>, _>>()?;
                let o = state.alloc();
                if let Some(c2) = self.spec.class(ty.as_str()) {
                    let c2 = c2.clone();
                    if let Some(ctor) = c2.ctor() {
                        self.exec_spec_body(&c2, ctor, o, &argv, state)?;
                    }
                }
                Ok(Some(o))
            }
        }
    }

    /// Evaluates a requires formula concretely; `Err` = NPE.
    fn eval_formula(
        &self,
        class: &ClassSpec,
        m: &MethodSpec,
        f: &Formula,
        this: usize,
        args: &[Value],
        state: &State,
    ) -> Result<bool, ()> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Eq(a, b) => {
                let (x, y) = (
                    self.eval_term(class, m, a, this, args, state)?,
                    self.eval_term(class, m, b, this, args, state)?,
                );
                Ok(x == y)
            }
            Formula::Ne(a, b) => {
                let (x, y) = (
                    self.eval_term(class, m, a, this, args, state)?,
                    self.eval_term(class, m, b, this, args, state)?,
                );
                Ok(x != y)
            }
            Formula::Not(g) => Ok(!self.eval_formula(class, m, g, this, args, state)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.eval_formula(class, m, g, this, args, state)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.eval_formula(class, m, g, this, args, state)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    fn eval_term(
        &self,
        class: &ClassSpec,
        m: &MethodSpec,
        t: &Term,
        this: usize,
        args: &[Value],
        state: &State,
    ) -> Result<Value, ()> {
        let Term::Path(p) = t else { return Err(()) };
        let base = if p.base().name() == "this" && p.base().ty() == class.name() {
            SpecVar::This
        } else {
            let k = m.params().iter().position(|(n, _)| n == p.base().name()).ok_or(())?;
            SpecVar::Param(k)
        };
        let sp = canvas_easl::SpecPath::new(base, p.fields().to_vec());
        self.eval_spec_path(&sp, this, args, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explore_src(src: &str) -> OracleResult {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        explore(&program, &spec, OracleConfig::default()).expect("oracle runs")
    }

    #[test]
    fn concrete_cme_found() {
        let r = explore_src(
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
        assert_eq!(r.violation_lines, BTreeSet::from([7]));
        assert!(!r.truncated);
    }

    #[test]
    fn safe_program_clean() {
        let r = explore_src(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        s.add("x");
        Iterator i = s.iterator();
        i.next();
        i.remove();
        i.next();
    }
}
"#,
        );
        assert!(r.violation_lines.is_empty());
        assert_eq!(r.paths, 1);
    }

    #[test]
    fn branches_are_both_explored() {
        let r = explore_src(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (true) { s.add("x"); }
        i.next();
    }
}
"#,
        );
        // the mutating branch violates, the other does not
        assert_eq!(r.violation_lines, BTreeSet::from([7]));
        assert!(r.paths >= 2);
    }

    #[test]
    fn fig3_concrete_lines() {
        let r = explore_src(
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
        assert_eq!(r.violation_lines, BTreeSet::from([10, 13]));
    }

    #[test]
    fn interprocedural_concrete() {
        let r = explore_src(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        grow(s);
        i.next();
    }
    static void grow(Set x) { x.add("y"); }
}
"#,
        );
        assert_eq!(r.violation_lines, BTreeSet::from([7]));
    }

    #[test]
    fn loops_truncate_but_find_violations() {
        let r = explore_src(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        for (Iterator i = s.iterator(); i.hasNext(); ) {
            i.next();
            s.add("x");
        }
    }
}
"#,
        );
        assert!(r.violation_lines.contains(&6));
        // every path here terminates (the violation ends the second
        // iteration), so no truncation is needed
        assert!(!r.truncated);
    }

    #[test]
    fn unbounded_safe_loop_truncates_cleanly() {
        let r = explore_src(
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
        assert!(r.violation_lines.is_empty(), "{:?}", r.violation_lines);
        assert!(r.truncated, "the outer loop is unbounded");
    }

    #[test]
    fn grp_oracle() {
        let spec = canvas_easl::builtin::grp();
        let program = Program::parse(
            r#"
class Main {
    static void main() {
        Graph g = new Graph();
        Traversal t1 = g.startTraversal();
        t1.next();
        Traversal t2 = g.startTraversal();
        t1.next();
    }
}
"#,
            &spec,
        )
        .unwrap();
        let r = explore(&program, &spec, OracleConfig::default()).expect("oracle runs");
        assert_eq!(r.violation_lines, BTreeSet::from([8]));
    }
}
