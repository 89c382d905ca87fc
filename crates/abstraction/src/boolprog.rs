//! The boolean-program transform for SCMP-style certification (Fig. 6).

use crate::derived::{Derived, FamilyId, RuleRhs, RuleVar, StmtAbstraction, UpdateRule};
use canvas_easl::Spec;
use canvas_logic::TypeName;
use canvas_minijava::{Instr, MethodId, MethodIr, Program, Site, VarId};

/// One nullary instrumentation-predicate instance: a family applied to a
/// tuple of client variables (e.g. `mutx_{i1,i2}`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PredInstance {
    /// The family.
    pub family: FamilyId,
    /// The client variables the family parameters are bound to.
    pub args: Vec<VarId>,
}

/// An operand of a boolean assignment or check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// A constant.
    Const(bool),
    /// The pre-state value of a predicate instance (index into
    /// [`BoolProgram::preds`]).
    Var(usize),
}

/// The right-hand side of one parallel assignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rhs {
    /// Disjunction of operands (empty = constant 0).
    Disj(Vec<Operand>),
    /// Unknown value (both 0 and 1 possible) — used for effects the nullary
    /// abstraction cannot track (heap loads, unknown callees).
    Havoc,
}

/// An edge of the boolean program: all assignments read the pre-state
/// (parallel assignment), mirroring the simultaneous update semantics of the
/// derived method abstractions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoolEdge {
    /// Source node (same numbering as the method CFG).
    pub from: usize,
    /// Target node.
    pub to: usize,
    /// Parallel assignments `pred := rhs`.
    pub assigns: Vec<(usize, Rhs)>,
}

/// A `requires` check site: evaluated in the state at `node`; the call may
/// violate its precondition iff some operand may be 1.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckSite {
    /// The node whose dataflow state the check reads (the call's pre-state).
    pub node: usize,
    /// The source location, for reporting.
    pub site: Site,
    /// Violation disjuncts.
    pub preds: Vec<Operand>,
}

/// The transformed client method (paper Fig. 6): a boolean program over
/// predicate instances.
#[derive(Clone, PartialEq, Debug)]
pub struct BoolProgram {
    /// The method this program was built from.
    pub method: MethodId,
    /// Predicate instances; indices are the boolean variable ids.
    pub preds: Vec<PredInstance>,
    /// Number of nodes (same ids as the source CFG).
    pub node_count: usize,
    /// Entry node.
    pub entry: usize,
    /// Edges with parallel assignments.
    pub edges: Vec<BoolEdge>,
    /// `requires` check sites at the nodes a path from [`BoolProgram::entry`]
    /// reaches. A check no path reaches never fires, so the transform drops
    /// it: every engine and the checker read this one list.
    pub checks: Vec<CheckSite>,
    /// Predicates unknown at entry (instances over parameters and statics
    /// when the method is analysed out of context).
    pub entry_unknown: Vec<usize>,
    /// Every enumerated instance, tracked or folded to a constant.
    instances: InstanceTable,
}

impl BoolProgram {
    /// An instance of this program as an operand: [`Operand::Var`] when it
    /// is tracked, [`Operand::Const`] when it folds to a constant (e.g.
    /// `mutx(x,x) ≡ 0`, `same(v,v) ≡ 1`), and `None` when it is no instance
    /// of this program (an argument out of scope or of the wrong type).
    ///
    /// O(arity) and allocation-free (the interprocedural engine calls this
    /// per summary fact per call edge, so it must not scan).
    pub fn instance(&self, family: FamilyId, args: &[VarId]) -> Option<Operand> {
        self.instances.get(family, args.iter().map(|&v| Some(v)))
    }

    /// Which nodes some path from [`BoolProgram::entry`] reaches, indexed by
    /// node id.
    pub fn reachable(&self) -> Vec<bool> {
        let n = self.node_count;
        // out-edges in CSR form: node k's successors are
        // `succ[start[k]..start[k + 1]]`
        let mut start = vec![0usize; n + 1];
        for e in &self.edges {
            start[e.from + 1] += 1;
        }
        for k in 0..n {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut succ = vec![0usize; self.edges.len()];
        for e in &self.edges {
            succ[next[e.from]] = e.to;
            next[e.from] += 1;
        }
        let mut reached = vec![false; n];
        reached[self.entry] = true;
        let mut work = vec![self.entry];
        while let Some(k) = work.pop() {
            for &s in &succ[start[k]..start[k + 1]] {
                if !reached[s] {
                    reached[s] = true;
                    work.push(s);
                }
            }
        }
        reached
    }

    /// A human-readable name for predicate `i`, e.g. `stale{i1}`.
    pub fn pred_name(&self, i: usize, program: &Program, derived: &Derived) -> String {
        let p = &self.preds[i];
        let args: Vec<String> = p.args.iter().map(|v| program.var(*v).name.clone()).collect();
        format!("{}{{{}}}", derived.family(p.family).name(), args.join(","))
    }
}

/// Context options for the transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryAssumption {
    /// Parameters and statics hold unknown component states (sound when a
    /// method is certified out of context).
    Unknown,
    /// Everything starts definite-0 (suitable for `main`: statics are null,
    /// there are no parameters).
    Clean,
}

/// How client-to-client calls are reflected in the boolean program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientCallPolicy {
    /// Conservative intraprocedural treatment: havoc every instance the
    /// callee could affect (mutable-dependent ones, statics, the result).
    Havoc,
    /// Emit no assignments for client calls; the interprocedural engine
    /// applies callee summaries itself (the boolean edges stay aligned 1:1
    /// with the method's IR edges, so the engine can intercept them).
    Defer,
}

/// Builds the boolean program for one client method.
///
/// Instances are enumerated over the method's in-scope component variables
/// (locals, params, temps, statics, return slot). Instances whose defining
/// formula is constant under repeated arguments (`mutx(x,x) ≡ 0`,
/// `same(v,v) ≡ 1`) are folded away.
pub fn transform_method(
    program: &Program,
    method: &MethodIr,
    spec: &Spec,
    derived: &Derived,
    entry: EntryAssumption,
) -> BoolProgram {
    transform_method_with(program, method, spec, derived, entry, ClientCallPolicy::Havoc)
}

/// [`transform_method`] with an explicit client-call policy.
pub fn transform_method_with(
    program: &Program,
    method: &MethodIr,
    spec: &Spec,
    derived: &Derived,
    entry: EntryAssumption,
    policy: ClientCallPolicy,
) -> BoolProgram {
    static TRANSFORMS: canvas_telemetry::Counter =
        canvas_telemetry::Counter::new("abstraction.transforms");
    static PRED_INSTANCES: canvas_telemetry::Counter =
        canvas_telemetry::Counter::new("abstraction.pred_instances");
    static TRANSFORM_TIME: canvas_telemetry::Timer =
        canvas_telemetry::Timer::new("abstraction.transform");
    let _span = TRANSFORM_TIME.span();
    let _lower_phase = canvas_telemetry::phase::LOWER.span();
    let b = Builder::new(program, method, spec, derived, entry, policy);
    let bp = b.run();
    TRANSFORMS.incr();
    PRED_INSTANCES.add(bp.preds.len() as u64);
    bp
}

/// Instance → operand, with no hashing and no key to allocate.
///
/// The in-scope variables fall into one class per type. A family's
/// instances are all tuples of variables whose k-th member is of parameter
/// k's type, so they fill one dense row, in which the tuple `(v₀, …, vₙ)`
/// sits at the mixed-radix number whose k-th digit is `vₖ`'s position in its
/// class. That is also the transform's enumeration order.
#[derive(Clone, PartialEq, Debug)]
struct InstanceTable {
    /// Per program variable (indexed by [`VarId`]): its class and its
    /// position there, or `None` when it is not in scope.
    slots: Vec<Option<(usize, usize)>>,
    /// The type of each class.
    types: Vec<TypeName>,
    /// The variables of each class, in scope order.
    members: Vec<Vec<VarId>>,
    /// Per family: the class of each parameter, or `None` when some
    /// parameter's type has no variable in scope (no instances at all).
    params: Vec<Option<Vec<usize>>>,
    /// Per family: the operand of each instance, in row order.
    rows: Vec<Vec<Operand>>,
}

impl InstanceTable {
    fn new(program: &Program, vars: &[VarId]) -> InstanceTable {
        let mut table = InstanceTable {
            slots: vec![None; vars.iter().map(|v| v.0 + 1).max().unwrap_or(0)],
            types: Vec::new(),
            members: Vec::new(),
            params: Vec::new(),
            rows: Vec::new(),
        };
        for &v in vars {
            let ty = program.var(v).ty;
            let c = match table.class(&ty) {
                Some(c) => c,
                None => {
                    table.types.push(ty);
                    table.members.push(Vec::new());
                    table.types.len() - 1
                }
            };
            table.slots[v.0] = Some((c, table.members[c].len()));
            table.members[c].push(v);
        }
        table
    }

    /// The class of the in-scope variables of type `ty`.
    fn class(&self, ty: &TypeName) -> Option<usize> {
        self.types.iter().position(|t| t == ty)
    }

    /// The in-scope variables of type `ty`, in scope order.
    fn vars_of(&self, ty: &TypeName) -> &[VarId] {
        self.class(ty).map_or(&[], |c| &self.members[c])
    }

    /// The operand of `family`'s instance over `args`; `None` when an
    /// argument is missing (`None`), out of scope or of the wrong type.
    fn get(
        &self,
        family: FamilyId,
        args: impl ExactSizeIterator<Item = Option<VarId>>,
    ) -> Option<Operand> {
        let classes = self.params.get(family.index())?.as_ref()?;
        if classes.len() != args.len() {
            return None;
        }
        let mut at = 0;
        for (&want, v) in classes.iter().zip(args) {
            let (c, pos) = (*self.slots.get(v?.0)?)?;
            if c != want {
                return None;
            }
            at = at * self.members[c].len() + pos;
        }
        self.rows[family.index()].get(at).copied()
    }
}

struct Builder<'a> {
    program: &'a Program,
    method: &'a MethodIr,
    spec: &'a Spec,
    derived: &'a Derived,
    entry: EntryAssumption,
    policy: ClientCallPolicy,
    preds: Vec<PredInstance>,
    instances: InstanceTable,
}

impl<'a> Builder<'a> {
    fn new(
        program: &'a Program,
        method: &'a MethodIr,
        spec: &'a Spec,
        derived: &'a Derived,
        entry: EntryAssumption,
        policy: ClientCallPolicy,
    ) -> Self {
        let vars = program.component_vars_in_scope(method.id, spec);
        Builder {
            program,
            method,
            spec,
            derived,
            entry,
            policy,
            preds: Vec::new(),
            instances: InstanceTable::new(program, &vars),
        }
    }

    fn run(mut self) -> BoolProgram {
        // enumerate all type-correct instances
        for fam in self.derived.families() {
            self.enumerate(fam.id());
        }

        let mut edges = Vec::new();
        let mut checks = Vec::new();
        for e in self.method.cfg.edges() {
            let (assigns, check) = self.translate(&e.instr);
            if let Some(c) = check {
                checks.push(CheckSite { node: e.from.0, site: c.0, preds: c.1 });
            }
            edges.push(BoolEdge { from: e.from.0, to: e.to.0, assigns });
        }

        // entry assumptions
        let mut entry_unknown = Vec::new();
        if self.entry == EntryAssumption::Unknown {
            for (k, p) in self.preds.iter().enumerate() {
                let exposed = p.args.iter().any(|v| {
                    let var = self.program.var(*v);
                    var.owner.is_none() || matches!(var.kind, canvas_minijava::VarKind::Param(_))
                });
                if exposed {
                    entry_unknown.push(k);
                }
            }
        }

        let mut bp = BoolProgram {
            method: self.method.id,
            preds: self.preds,
            node_count: self.method.cfg.node_count(),
            entry: self.method.cfg.entry().0,
            edges,
            checks,
            entry_unknown,
            instances: self.instances,
        };
        if !bp.checks.is_empty() {
            let reached = bp.reachable();
            bp.checks.retain(|c| reached[c.node]);
        }
        bp
    }

    /// Fills `fid`'s row: every type-correct tuple in row order (the last
    /// parameter varies fastest), folded to its constant when the derived
    /// abstraction says its repeat pattern is constant, tracked otherwise.
    fn enumerate(&mut self, fid: FamilyId) {
        let derived = self.derived;
        let params = derived.family(fid).params();
        let classes: Option<Vec<usize>> =
            params.iter().map(|p| self.instances.class(p.ty())).collect();
        let mut row = Vec::new();
        if let Some(classes) = &classes {
            let members = &self.instances.members;
            let count: usize = classes.iter().map(|&c| members[c].len()).product();
            row.reserve(count);
            let mut tuple = vec![VarId(0); classes.len()];
            for n in 0..count {
                let mut rest = n;
                for (slot, &c) in tuple.iter_mut().zip(classes).rev() {
                    *slot = members[c][rest % members[c].len()];
                    rest /= members[c].len();
                }
                row.push(match derived.constant_instance(fid, &tuple) {
                    Some(c) => Operand::Const(c),
                    None => {
                        self.preds.push(PredInstance { family: fid, args: tuple.clone() });
                        Operand::Var(self.preds.len() - 1)
                    }
                });
            }
        }
        self.instances.params.push(classes);
        self.instances.rows.push(row);
    }

    /// Resolves an instance to an operand: untracked instances and rule
    /// variables that do not resolve (out of scope, type-mismatched, no
    /// such argument) read as "no tracked object", i.e. 0.
    fn operand(
        &self,
        fid: FamilyId,
        args: impl ExactSizeIterator<Item = Option<VarId>>,
    ) -> Operand {
        self.instances.get(fid, args).unwrap_or(Operand::Const(false))
    }

    /// Resolves a rule variable against a concrete statement instance.
    #[allow(clippy::too_many_arguments)]
    fn resolve_rule_var(
        rv: RuleVar,
        recv: Option<VarId>,
        args: &[VarId],
        lhs: Option<VarId>,
        univ: &[Option<VarId>],
    ) -> Option<VarId> {
        match rv {
            RuleVar::Recv => recv,
            RuleVar::Arg(k) => args.get(k).copied(),
            RuleVar::Lhs => lhs,
            RuleVar::Univ(k) => univ.get(k).copied().flatten(),
        }
    }

    /// Expands a statement abstraction at a concrete statement.
    fn expand(
        &self,
        sa: &StmtAbstraction,
        recv: Option<VarId>,
        args: &[VarId],
        lhs: Option<VarId>,
    ) -> Vec<(usize, Rhs)> {
        let mut out = Vec::new();
        for rule in &sa.rules {
            self.expand_rule(rule, recv, args, lhs, &mut out);
        }
        out
    }

    fn expand_rule(
        &self,
        rule: &UpdateRule,
        recv: Option<VarId>,
        args: &[VarId],
        lhs: Option<VarId>,
        out: &mut Vec<(usize, Rhs)>,
    ) {
        let fam = self.derived.family(rule.family);
        // does the rule involve Lhs? then a concrete lhs must exist
        let needs_lhs = rule.target_args.iter().any(|a| matches!(a, RuleVar::Lhs));
        if needs_lhs && lhs.is_none() {
            return;
        }
        // enumerate universal slots (skipping the statement's own lhs: those
        // tuples are served by the Lhs-bound rules)
        let arity = fam.params().len();
        let mut univ: Vec<Option<VarId>> = vec![None; arity];
        self.expand_univ(rule, 0, recv, args, lhs, &mut univ, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn expand_univ(
        &self,
        rule: &UpdateRule,
        k: usize,
        recv: Option<VarId>,
        args: &[VarId],
        lhs: Option<VarId>,
        univ: &mut Vec<Option<VarId>>,
        out: &mut Vec<(usize, Rhs)>,
    ) {
        let fam = self.derived.family(rule.family);
        if k == rule.target_args.len() {
            let resolve = |rv: &RuleVar| Self::resolve_rule_var(*rv, recv, args, lhs, univ);
            let target = self.instances.get(rule.family, rule.target_args.iter().map(resolve));
            let Some(Operand::Var(idx)) = target else {
                return; // constant or untracked instance: no assignment
            };
            // resolve rhs
            let mut ops = Vec::new();
            let mut havoc = false;
            for r in &rule.rhs {
                match r {
                    RuleRhs::Const(true) => ops.push(Operand::Const(true)),
                    RuleRhs::Const(false) => {}
                    RuleRhs::Unknown => havoc = true,
                    RuleRhs::Inst(g, rvs) => match self.operand(*g, rvs.iter().map(resolve)) {
                        Operand::Const(false) => {}
                        op => ops.push(op),
                    },
                }
            }
            out.push((idx, if havoc { Rhs::Havoc } else { Rhs::Disj(ops) }));
            return;
        }
        match rule.target_args[k] {
            RuleVar::Univ(slot) => {
                for &v in self.instances.vars_of(fam.params()[k].ty()) {
                    if Some(v) == lhs {
                        continue; // served by the Lhs-bound rule
                    }
                    univ[slot] = Some(v);
                    self.expand_univ(rule, k + 1, recv, args, lhs, univ, out);
                }
                univ[slot] = None;
            }
            _ => self.expand_univ(rule, k + 1, recv, args, lhs, univ, out),
        }
    }

    /// Sets every instance involving `v` to the given rhs.
    fn smash_var(&self, v: VarId, rhs: &Rhs, out: &mut Vec<(usize, Rhs)>) {
        for (k, p) in self.preds.iter().enumerate() {
            if p.args.contains(&v) {
                out.push((k, rhs.clone()));
            }
        }
    }

    /// Translates one IR instruction to assignments and an optional check.
    #[allow(clippy::type_complexity)]
    fn translate(&self, instr: &Instr) -> (Vec<(usize, Rhs)>, Option<(Site, Vec<Operand>)>) {
        let mut assigns = Vec::new();
        let mut check = None;
        match instr {
            Instr::Nop => {}
            Instr::Copy { dst, src } => {
                let dty = &self.program.var(*dst).ty;
                if self.spec.is_component_type(dty) {
                    if self.program.var(*src).ty == *dty {
                        if let Some(sa) = self.derived.for_copy(dty) {
                            assigns = self.expand(sa, None, &[*src], Some(*dst));
                        }
                    } else {
                        self.smash_var(*dst, &Rhs::Havoc, &mut assigns);
                    }
                }
            }
            Instr::Nullify { dst } => {
                if self.spec.is_component_type(&self.program.var(*dst).ty) {
                    self.smash_var(*dst, &Rhs::Disj(vec![]), &mut assigns);
                }
            }
            Instr::New { dst, ty, args, .. } => {
                if self.spec.is_component_type(ty) {
                    if let Some(sa) = self.derived.for_new(ty) {
                        assigns = self.expand(sa, None, args, Some(*dst));
                        if !sa.checks.is_empty() {
                            // constructors with requires: check in pre-state
                            let ops = self.resolve_checks(&sa.checks, None, args, Some(*dst));
                            if let Instr::New { at, .. } = instr {
                                check = Some((at.clone(), ops));
                            }
                        }
                    }
                }
            }
            Instr::CallComponent { dst, recv, method, args, known, at } => {
                if !known {
                    return (assigns, None);
                }
                let rty = self.program.var(*recv).ty;
                if let Some(sa) = self.derived.for_call(&rty, method) {
                    assigns = self.expand(sa, Some(*recv), args, *dst);
                    if !sa.checks.is_empty() {
                        let ops = self.resolve_checks(&sa.checks, Some(*recv), args, *dst);
                        check = Some((at.clone(), ops));
                    }
                }
            }
            Instr::CallClient { dst, .. } => {
                if self.policy == ClientCallPolicy::Defer {
                    return (assigns, None);
                }
                // intraprocedural conservatism: the callee may mutate any
                // component state it can reach (through statics or passed
                // references) — havoc every mutable-dependent instance, every
                // instance involving a static, and everything involving the
                // returned value.
                for (k, p) in self.preds.iter().enumerate() {
                    let fam = self.derived.family(p.family);
                    let involves_static =
                        p.args.iter().any(|v| self.program.var(*v).owner.is_none());
                    let involves_ret = dst.is_some_and(|d| p.args.contains(&d));
                    if fam.mutable_dep() || involves_static || involves_ret {
                        assigns.push((k, Rhs::Havoc));
                    }
                }
            }
            Instr::Load { dst, .. } => {
                // a component reference read from the heap: untracked by the
                // nullary abstraction
                if self.spec.is_component_type(&self.program.var(*dst).ty) {
                    self.smash_var(*dst, &Rhs::Havoc, &mut assigns);
                }
            }
            Instr::Store { .. } => {
                // storing a reference does not change any instance over
                // variables; heap-held aliases are handled by HCMP
            }
        }
        (assigns, check)
    }

    fn resolve_checks(
        &self,
        checks: &[RuleRhs],
        recv: Option<VarId>,
        args: &[VarId],
        lhs: Option<VarId>,
    ) -> Vec<Operand> {
        let mut ops = Vec::new();
        for c in checks {
            match c {
                RuleRhs::Const(true) | RuleRhs::Unknown => ops.push(Operand::Const(true)),
                RuleRhs::Const(false) => {}
                RuleRhs::Inst(g, rvs) => {
                    let resolve = |rv: &RuleVar| Self::resolve_rule_var(*rv, recv, args, lhs, &[]);
                    match self.operand(*g, rvs.iter().map(resolve)) {
                        Operand::Const(false) => {}
                        op => ops.push(op),
                    }
                }
            }
        }
        ops
    }
}

// Tests that drive the transform with real derived abstractions live in
// `tests/boolprog.rs`: they need `canvas_wp::derive_abstraction`, and the
// dev-dep cycle (wp depends on this crate) would link a second copy of the
// library into a unit-test build, making its `Derived` a distinct type.

impl BoolProgram {
    /// Renders the transformed client (the paper's Fig. 6) as text: every
    /// edge's parallel assignments plus the `requires` check sites.
    pub fn dump(&self, program: &Program, derived: &Derived) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name = |k: usize| self.pred_name(k, program, derived);
        let _ = writeln!(
            out,
            "boolean program for {} ({} predicate instances)",
            program.method(self.method).qualified_name(),
            self.preds.len()
        );
        for c in &self.checks {
            let ops: Vec<String> = c
                .preds
                .iter()
                .map(|op| match op {
                    Operand::Const(b) => b.to_string(),
                    Operand::Var(v) => name(*v),
                })
                .collect();
            let _ = writeln!(
                out,
                "  check @ node {} ({}): requires !({})",
                c.node,
                c.site,
                ops.join(" || ")
            );
        }
        for e in &self.edges {
            if e.assigns.is_empty() {
                continue;
            }
            let stmts: Vec<String> = e
                .assigns
                .iter()
                .map(|(dst, rhs)| {
                    let rhs = match rhs {
                        Rhs::Havoc => "havoc".to_string(),
                        Rhs::Disj(ops) if ops.is_empty() => "0".to_string(),
                        Rhs::Disj(ops) => ops
                            .iter()
                            .map(|op| match op {
                                Operand::Const(b) => if *b { "1" } else { "0" }.to_string(),
                                Operand::Var(v) => name(*v),
                            })
                            .collect::<Vec<_>>()
                            .join(" | "),
                    };
                    format!("{} := {}", name(*dst), rhs)
                })
                .collect();
            let _ = writeln!(out, "  {:>3} -> {:<3} {}", e.from, e.to, stmts.join("; "));
        }
        out
    }
}
