//! Client translation into TVP.
//!
//! * [`translate_specialized`] — the paper's specialized translation
//!   (§5.3/§5.4, Figs. 10–11): component internals are *not* modelled;
//!   instead the derived instrumentation-predicate families become unary /
//!   binary predicates over component individuals, and component calls
//!   update them using the derived method abstractions. Families whose
//!   defining formula mentions only bare variables (`same(v,w) ≡ v == w`)
//!   are *equality-definable* and compile to individual equality rather
//!   than stored predicates.
//! * [`translate_generic`] — the composite-program translation of §3
//!   (Fig. 9): EASL method bodies are inlined as ordinary heap mutations
//!   over core `rv` field predicates (version objects become individuals).
//!   Run with only the `pt_x` abstraction predicates this is the
//!   storage-shape-graph baseline the paper compares against in §4.4.
//!
//! A multi-statement EASL body becomes a *sequence* of TVP actions (the
//! updates of one action are simultaneous); allocation results referenced by
//! later actions in the sequence are carried in transient unary *register*
//! predicates, cleared at the end of the sequence.
//!
//! Both translations are intraprocedural. Client-to-client calls are
//! translated conservatively: every mutable-dependent instrumentation value
//! (resp. every component-internal field value in the generic mode) is set
//! to `1/2`, statics are havocked, and a bound result points to a fresh
//! *summary* individual with unknown properties.

use std::collections::HashMap;

use canvas_easl::{ClassSpec, MethodSpec, Spec, SpecExpr, SpecStmt, SpecVar};
use canvas_logic::{Formula as LFormula, Symbol, Term, TypeName};
use canvas_minijava::{Instr, MethodIr, Program, VarId};
use canvas_wp::{Derived, FamilyId, RuleRhs, RuleVar, StmtAbstraction};

use crate::tvp::{Action, Formula3, Functional, PredDecl, PredId, PredKind, TvpProgram, Update};

/// Translates a client method using the derived first-order predicate
/// abstraction (HCMP-style certification).
pub fn translate_specialized(
    program: &Program,
    method: &MethodIr,
    spec: &Spec,
    derived: &Derived,
) -> TvpProgram {
    Tx::new(program, method, spec, Some(derived)).run()
}

/// Translates a client method *together with the inlined EASL bodies* into
/// core-predicate TVP (the generic certification baseline of §3).
pub fn translate_generic(program: &Program, method: &MethodIr, spec: &Spec) -> TvpProgram {
    Tx::new(program, method, spec, None).run()
}

/// How a family instance compiles.
#[derive(Clone, Copy, Debug)]
enum FamilyRepr {
    /// A stored predicate.
    Stored(PredId),
    /// Definable as individual (in)equality of its two arguments.
    Equality { positive: bool },
}

/// A reference to an object an EASL `this` or value is bound to.
#[derive(Clone, Copy, Debug)]
enum Root {
    /// The object pointed to by a client variable.
    Var(VarId),
    /// The object held in a transient register predicate.
    Reg(PredId),
}

struct Tx<'a> {
    program: &'a Program,
    method: &'a MethodIr,
    spec: &'a Spec,
    derived: Option<&'a Derived>,
    preds: Vec<PredDecl>,
    pt: HashMap<VarId, PredId>,
    rv_client: HashMap<(Symbol, Symbol), PredId>,
    rv_comp: HashMap<(Symbol, Symbol), PredId>,
    tags: HashMap<Symbol, PredId>,
    fam_repr: Vec<FamilyRepr>,
    nodes: usize,
    edges: Vec<(usize, Action, usize)>,
    fresh_counter: usize,
}

impl<'a> Tx<'a> {
    fn new(
        program: &'a Program,
        method: &'a MethodIr,
        spec: &'a Spec,
        derived: Option<&'a Derived>,
    ) -> Self {
        let mut tx = Tx {
            program,
            method,
            spec,
            derived,
            preds: Vec::new(),
            pt: HashMap::new(),
            rv_client: HashMap::new(),
            rv_comp: HashMap::new(),
            tags: HashMap::new(),
            fam_repr: Vec::new(),
            nodes: method.cfg.node_count(),
            edges: Vec::new(),
            fresh_counter: 0,
        };
        tx.declare_preds();
        tx
    }

    fn is_tracked_ty(&self, ty: &TypeName) -> bool {
        self.spec.is_component_type(ty) || self.program.classes().iter().any(|c| c.name == *ty)
    }

    fn declare_preds(&mut self) {
        for v in self.program.vars() {
            let in_scope = v.owner == Some(self.method.id) || v.owner.is_none();
            if in_scope && self.is_tracked_ty(&v.ty) {
                let id = self.preds.len();
                self.preds.push(PredDecl::pt(format!("pt_{}", v.name)));
                self.pt.insert(v.id, id);
            }
        }
        let declare_tag =
            |name: &str, preds: &mut Vec<PredDecl>, tags: &mut HashMap<Symbol, PredId>| {
                let id = preds.len();
                preds.push(PredDecl::type_tag(format!("is_{name}")));
                tags.insert(Symbol::from(name), id);
            };
        for c in self.spec.classes() {
            declare_tag(c.name().as_str(), &mut self.preds, &mut self.tags);
        }
        for c in self.program.classes() {
            declare_tag(c.name.as_str(), &mut self.preds, &mut self.tags);
        }
        for c in self.program.classes() {
            for f in &c.fields {
                if self.is_tracked_ty(&f.ty) {
                    let id = self.preds.len();
                    self.preds.push(PredDecl::field(format!("rv_{}_{}", c.name, f.name)));
                    self.rv_client.insert((c.name.symbol(), Symbol::from(f.name.as_str())), id);
                }
            }
        }
        match self.derived {
            Some(derived) => {
                for fam in derived.families() {
                    if let Some(positive) = family_equality_definable(fam) {
                        self.fam_repr.push(FamilyRepr::Equality { positive });
                        continue;
                    }
                    let arity = fam.params().len().min(2);
                    let functional =
                        if arity == 2 { family_functional(fam) } else { Functional::No };
                    let id = self.preds.len();
                    self.preds.push(PredDecl {
                        name: fam.name().to_string(),
                        arity,
                        kind: PredKind::Instrumentation,
                        abstraction: arity == 1,
                        unique: false,
                        functional,
                    });
                    self.fam_repr.push(FamilyRepr::Stored(id));
                }
            }
            None => {
                for c in self.spec.classes() {
                    for f in c.fields() {
                        let id = self.preds.len();
                        self.preds.push(PredDecl::field(format!("rv_{}_{}", c.name(), f.name())));
                        self.rv_comp.insert((c.name().symbol(), Symbol::from(f.name())), id);
                    }
                }
            }
        }
    }

    fn fresh(&mut self, base: &str) -> String {
        let k = self.fresh_counter;
        self.fresh_counter += 1;
        format!("${base}{k}")
    }

    fn fresh_node(&mut self) -> usize {
        let n = self.nodes;
        self.nodes += 1;
        n
    }

    /// Declares a transient register predicate.
    fn fresh_reg(&mut self) -> PredId {
        let id = self.preds.len();
        self.preds.push(PredDecl {
            name: format!("$reg{id}"),
            arity: 1,
            kind: PredKind::Core,
            abstraction: true,
            unique: true,
            functional: Functional::No,
        });
        id
    }

    fn run(mut self) -> TvpProgram {
        let cfg_edges: Vec<_> = self.method.cfg.edges().to_vec();
        for e in &cfg_edges {
            let actions = self.translate_instr(&e.instr);
            self.chain(e.from.0, e.to.0, actions);
        }
        TvpProgram {
            preds: self.preds,
            nodes: self.nodes,
            entry: self.method.cfg.entry().0,
            edges: self.edges,
        }
    }

    fn chain(&mut self, from: usize, to: usize, mut actions: Vec<Action>) {
        if actions.is_empty() {
            actions.push(Action::nop());
        }
        let mut cur = from;
        let last = actions.len() - 1;
        for (k, a) in actions.into_iter().enumerate() {
            let next = if k == last { to } else { self.fresh_node() };
            self.edges.push((cur, a, next));
            cur = next;
        }
    }

    fn act(&self, name: impl Into<String>) -> Action {
        Action {
            name: name.into(),
            focus: vec![],
            check: None,
            allocs: vec![],
            summary_allocs: vec![],
            updates: vec![],
        }
    }

    fn pt_of(&self, v: VarId) -> Option<PredId> {
        self.pt.get(&v).copied()
    }

    /// Clears a set of registers (appended as the final action of a chain).
    fn clear_regs(&self, regs: &[PredId]) -> Option<Action> {
        if regs.is_empty() {
            return None;
        }
        let mut a = self.act("clear registers");
        for &r in regs {
            a.updates.push(Update { pred: r, formals: vec!["o".into()], rhs: Formula3::False });
        }
        Some(a)
    }

    // -- instruction dispatch ----------------------------------------------

    fn translate_instr(&mut self, instr: &Instr) -> Vec<Action> {
        match instr {
            Instr::Nop => vec![],
            Instr::Copy { dst, src } => {
                let (Some(pd), Some(ps)) = (self.pt_of(*dst), self.pt_of(*src)) else {
                    return vec![];
                };
                let mut a = self.act("copy");
                a.updates.push(Update {
                    pred: pd,
                    formals: vec!["o".into()],
                    rhs: Formula3::App(ps, vec!["o".into()]),
                });
                vec![a]
            }
            Instr::Nullify { dst } => {
                let Some(pd) = self.pt_of(*dst) else { return vec![] };
                let mut a = self.act("nullify");
                a.updates.push(Update {
                    pred: pd,
                    formals: vec!["o".into()],
                    rhs: Formula3::False,
                });
                vec![a]
            }
            Instr::Load { dst, base, field } => {
                let (Some(pd), Some(pb)) = (self.pt_of(*dst), self.pt_of(*base)) else {
                    return vec![];
                };
                let bty = self.program.var(*base).ty.symbol();
                let rhs = match self.rv_client.get(&(bty, Symbol::from(field.as_str()))) {
                    Some(&rv) => Formula3::exists(
                        "b",
                        Formula3::and([
                            Formula3::App(pb, vec!["b".into()]),
                            Formula3::App(rv, vec!["b".into(), "o".into()]),
                        ]),
                    ),
                    None => Formula3::False, // untracked field
                };
                let mut a = self.act("load");
                a.focus.push(pb);
                a.updates.push(Update { pred: pd, formals: vec!["o".into()], rhs });
                vec![a]
            }
            Instr::Store { base, field, src } => {
                let Some(pb) = self.pt_of(*base) else { return vec![] };
                let bty = self.program.var(*base).ty.symbol();
                let Some(&rv) = self.rv_client.get(&(bty, Symbol::from(field.as_str()))) else {
                    return vec![];
                };
                let src_f = match self.pt_of(*src) {
                    Some(ps) => Formula3::App(ps, vec!["o2".into()]),
                    None => Formula3::False,
                };
                let mut a = self.act("store");
                a.focus.push(pb);
                a.updates.push(Update {
                    pred: rv,
                    formals: vec!["o1".into(), "o2".into()],
                    rhs: Formula3::or([
                        Formula3::and([Formula3::App(pb, vec!["o1".into()]), src_f]),
                        Formula3::and([
                            Formula3::not(Formula3::App(pb, vec!["o1".into()])),
                            Formula3::App(rv, vec!["o1".into(), "o2".into()]),
                        ]),
                    ]),
                });
                vec![a]
            }
            Instr::New { dst, ty, args, at, .. } => self.translate_new(*dst, ty, args, at),
            Instr::CallComponent { dst, recv, method, args, known, at } => {
                if !*known {
                    return vec![];
                }
                self.translate_component_call(*dst, *recv, method, args, at)
            }
            Instr::CallClient { dst, .. } => vec![self.translate_client_call(*dst)],
        }
    }

    /// Emits `alloc n; pt_dst(o) := o == n; tag(o) |= o == n` into `a`.
    fn alloc_updates(&mut self, dst: Option<VarId>, ty: &TypeName, n: &str, a: &mut Action) {
        a.allocs.push(n.to_string());
        if let Some(&tag) = self.tags.get(&ty.symbol()) {
            a.updates.push(Update {
                pred: tag,
                formals: vec!["o".into()],
                rhs: Formula3::or([
                    Formula3::App(tag, vec!["o".into()]),
                    Formula3::Eq("o".into(), n.to_string()),
                ]),
            });
        }
        if let Some(pd) = dst.and_then(|d| self.pt_of(d)) {
            a.updates.push(Update {
                pred: pd,
                formals: vec!["o".into()],
                rhs: Formula3::Eq("o".into(), n.to_string()),
            });
        }
    }

    fn translate_new(
        &mut self,
        dst: VarId,
        ty: &TypeName,
        args: &[VarId],
        at: &canvas_minijava::Site,
    ) -> Vec<Action> {
        let n = self.fresh("new");
        let mut a = self.act(format!("new {ty}"));
        self.alloc_updates(Some(dst), &ty.clone(), &n, &mut a);
        if !self.spec.is_component_type(ty) {
            return vec![a];
        }
        match self.derived {
            Some(derived) => {
                if let Some(sa) = derived.for_new(ty) {
                    let sa = sa.clone();
                    self.compile_rules(derived, &sa, None, args, Some(&n), &mut a);
                    if !sa.checks.is_empty() {
                        a.check = Some((self.compile_checks(&sa.checks, None, args), at.clone()));
                    }
                }
                vec![a]
            }
            None => {
                // generic: inline the constructor body, carrying the fresh
                // object in a register across the action sequence
                let Some(class) = self.spec.class(ty.as_str()) else { return vec![a] };
                let class = class.clone();
                let Some(ctor) = class.ctor().filter(|c| !c.body().is_empty()).cloned() else {
                    return vec![a];
                };
                let reg = self.fresh_reg();
                a.updates.push(Update {
                    pred: reg,
                    formals: vec!["o".into()],
                    rhs: Formula3::Eq("o".into(), n.clone()),
                });
                let mut actions = vec![a];
                let arg_roots: Vec<Option<Root>> =
                    args.iter().map(|&v| Some(Root::Var(v))).collect();
                self.compile_spec_body(&class, &ctor, Root::Reg(reg), &arg_roots, &mut actions);
                if let Some(c) = self.clear_regs(&[reg]) {
                    actions.push(c);
                }
                actions
            }
        }
    }

    fn translate_component_call(
        &mut self,
        dst: Option<VarId>,
        recv: VarId,
        method: &str,
        args: &[VarId],
        at: &canvas_minijava::Site,
    ) -> Vec<Action> {
        let rty = self.program.var(recv).ty;
        let Some(class) = self.spec.class(rty.as_str()) else { return vec![] };
        let Some(m) = class.method(method) else { return vec![] };
        let m = m.clone();
        let class = class.clone();

        let mut focus = Vec::new();
        if let Some(p) = self.pt_of(recv) {
            focus.push(p);
        }
        for &av in args {
            if self.spec.is_component_type(&self.program.var(av).ty) {
                if let Some(p) = self.pt_of(av) {
                    focus.push(p);
                }
            }
        }

        match self.derived {
            Some(derived) => {
                let Some(sa) = derived.for_call(&rty, method) else { return vec![] };
                let sa = sa.clone();
                let mut a = self.act(format!("{rty}.{method}"));
                a.focus = focus;
                if !sa.checks.is_empty() {
                    a.check = Some((self.compile_checks(&sa.checks, Some(recv), args), at.clone()));
                }
                let alloc_name = match (dst, m.ret()) {
                    (Some(d), Some(SpecExpr::New { ty: rt, .. })) => {
                        let rt = *rt;
                        let n = self.fresh("ret");
                        self.alloc_updates(Some(d), &rt, &n, &mut a);
                        Some(n)
                    }
                    (Some(d), _) => {
                        if let Some(pd) = self.pt_of(d) {
                            a.updates.push(Update {
                                pred: pd,
                                formals: vec!["o".into()],
                                rhs: Formula3::Unknown,
                            });
                        }
                        None
                    }
                    (None, _) => None,
                };
                let alloc = alloc_name.as_deref();
                self.compile_rules(derived, &sa, Some(recv), args, alloc, &mut a);
                vec![a]
            }
            None => self.translate_generic_call(dst, recv, &class, &m, args, focus, at),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn translate_generic_call(
        &mut self,
        dst: Option<VarId>,
        recv: VarId,
        class: &ClassSpec,
        m: &MethodSpec,
        args: &[VarId],
        focus: Vec<PredId>,
        at: &canvas_minijava::Site,
    ) -> Vec<Action> {
        let mut head = self.act(format!("{}.{} requires", class.name(), m.name()));
        head.focus = focus;
        if let Some(req) = m.requires() {
            let neg = LFormula::not(req.clone());
            let f = self.logic_formula_to_tvp(&neg, class, m, Root::Var(recv), args);
            head.check = Some((f, at.clone()));
        }
        let mut actions = vec![head];
        let mut regs = Vec::new();
        let arg_roots: Vec<Option<Root>> = args.iter().map(|&v| Some(Root::Var(v))).collect();
        self.compile_spec_body(class, m, Root::Var(recv), &arg_roots, &mut actions);
        if let Some(d) = dst {
            match m.ret().cloned() {
                Some(SpecExpr::New { ty: rt, args: ctor_args }) => {
                    let n = self.fresh("ret");
                    let mut a = self.act("bind fresh result");
                    self.alloc_updates(Some(d), &rt, &n, &mut a);
                    // register for the ctor body
                    let reg = self.fresh_reg();
                    regs.push(reg);
                    a.updates.push(Update {
                        pred: reg,
                        formals: vec!["o".into()],
                        rhs: Formula3::Eq("o".into(), n),
                    });
                    actions.push(a);
                    if let Some(rc) = self.spec.class(rt.as_str()) {
                        let rc = rc.clone();
                        if let Some(ctor) = rc.ctor().cloned() {
                            // resolve ctor args (paths in the outer frame)
                            let mut roots = Vec::new();
                            for ca in &ctor_args {
                                roots.push(self.eval_spec_expr_to_root(
                                    ca,
                                    class,
                                    m,
                                    Root::Var(recv),
                                    args,
                                    &mut actions,
                                    &mut regs,
                                ));
                            }
                            self.compile_spec_body(
                                &rc,
                                &ctor,
                                Root::Reg(reg),
                                &roots,
                                &mut actions,
                            );
                        }
                    }
                }
                Some(SpecExpr::Path(p)) => {
                    let mut a = self.act("bind result path");
                    if let Some(pd) = self.pt_of(d) {
                        let f = self.spec_path_formula(&p, class, m, Root::Var(recv), args, "o");
                        a.updates.push(Update { pred: pd, formals: vec!["o".into()], rhs: f });
                    }
                    actions.push(a);
                }
                None => {}
            }
        }
        if let Some(c) = self.clear_regs(&regs) {
            actions.push(c);
        }
        actions
    }

    /// Evaluates a spec expression used as a constructor argument into a
    /// register-backed root (snapshotting the value at this point).
    #[allow(clippy::too_many_arguments)]
    fn eval_spec_expr_to_root(
        &mut self,
        e: &SpecExpr,
        class: &ClassSpec,
        m: &MethodSpec,
        this_root: Root,
        args: &[VarId],
        actions: &mut Vec<Action>,
        regs: &mut Vec<PredId>,
    ) -> Option<Root> {
        match e {
            SpecExpr::Path(p) => {
                if p.fields().is_empty() {
                    // a bare this/param: resolvable directly
                    match p.base() {
                        SpecVar::This => Some(this_root),
                        SpecVar::Param(k) => args.get(k).map(|&v| Root::Var(v)),
                    }
                } else {
                    // snapshot the path value into a register
                    let reg = self.fresh_reg();
                    regs.push(reg);
                    let f = self.spec_path_formula(p, class, m, this_root, args, "o");
                    let mut a = self.act("snapshot ctor arg");
                    a.updates.push(Update { pred: reg, formals: vec!["o".into()], rhs: f });
                    actions.push(a);
                    Some(Root::Reg(reg))
                }
            }
            SpecExpr::New { .. } => None, // not used by the built-in specs
        }
    }

    fn translate_client_call(&mut self, dst: Option<VarId>) -> Action {
        let mut a = self.act("client call (conservative)");
        match self.derived {
            Some(derived) => {
                for (fid, fam) in derived.families().iter().enumerate() {
                    if !fam.mutable_dep() {
                        continue;
                    }
                    if let FamilyRepr::Stored(pred) = self.fam_repr[fid] {
                        let formals: Vec<String> =
                            (0..self.preds[pred].arity).map(|k| format!("w{k}")).collect();
                        a.updates.push(Update { pred, formals, rhs: Formula3::Unknown });
                    }
                }
            }
            None => {
                let rvs: Vec<PredId> = self.rv_comp.values().copied().collect();
                for rv in rvs {
                    a.updates.push(Update {
                        pred: rv,
                        formals: vec!["o1".into(), "o2".into()],
                        rhs: Formula3::Unknown,
                    });
                }
            }
        }
        let statics: Vec<PredId> = self
            .program
            .vars()
            .iter()
            .filter(|v| v.owner.is_none())
            .filter_map(|v| self.pt_of(v.id))
            .collect();
        for p in statics {
            a.updates.push(Update { pred: p, formals: vec!["o".into()], rhs: Formula3::Unknown });
        }
        if let Some(pd) = dst.and_then(|d| self.pt_of(d)) {
            let n = self.fresh("unk");
            a.summary_allocs.push(n);
            a.updates.push(Update { pred: pd, formals: vec!["o".into()], rhs: Formula3::Unknown });
        }
        a
    }

    // -- specialized-mode rule compilation ---------------------------------

    fn rule_var_binding(
        &self,
        rv: RuleVar,
        recv: Option<VarId>,
        args: &[VarId],
        alloc: Option<&str>,
        binds: &mut Vec<(String, PredId)>,
        counter: &mut usize,
    ) -> Option<String> {
        match rv {
            RuleVar::Univ(k) => Some(format!("w{k}")),
            RuleVar::Lhs => alloc.map(str::to_string),
            RuleVar::Recv => {
                let p = self.pt_of(recv?)?;
                Some(bind_individual(p, binds, counter))
            }
            RuleVar::Arg(i) => {
                let p = self.pt_of(*args.get(i)?)?;
                Some(bind_individual(p, binds, counter))
            }
        }
    }

    fn wrap_binds(&self, binds: Vec<(String, PredId)>, body: Formula3) -> Formula3 {
        let mut f = body;
        for (v, p) in binds.into_iter().rev() {
            f = Formula3::exists(v.clone(), Formula3::and([Formula3::App(p, vec![v]), f]));
        }
        f
    }

    /// Application of a family instance to bound individual variables.
    fn family_app(&self, fid: FamilyId, vars: Vec<String>) -> Formula3 {
        match self.fam_repr[fid.index()] {
            FamilyRepr::Stored(pred) => Formula3::App(pred, vars),
            FamilyRepr::Equality { positive } => {
                let eq = Formula3::Eq(vars[0].clone(), vars[1].clone());
                if positive {
                    eq
                } else {
                    Formula3::not(eq)
                }
            }
        }
    }

    fn compile_rules(
        &mut self,
        derived: &Derived,
        sa: &StmtAbstraction,
        recv: Option<VarId>,
        args: &[VarId],
        alloc: Option<&str>,
        a: &mut Action,
    ) {
        for fam in derived.families() {
            let fid = fam.id();
            let FamilyRepr::Stored(pred) = self.fam_repr[fid.index()] else {
                continue; // equality-definable families need no updates
            };
            let rules: Vec<_> = sa.rules.iter().filter(|r| r.family == fid).collect();
            if rules.is_empty() {
                continue;
            }
            let arity = self.preds[pred].arity;
            let formals: Vec<String> = (0..arity).map(|k| format!("w{k}")).collect();
            let mut terms = Vec::new();
            let mut neg_conds = Vec::new();
            for rule in &rules {
                let mut cond_parts = Vec::new();
                let mut applicable = true;
                for (k, ta) in rule.target_args.iter().enumerate() {
                    match ta {
                        RuleVar::Lhs => match alloc {
                            Some(n) => {
                                cond_parts.push(Formula3::Eq(format!("w{k}"), n.to_string()))
                            }
                            None => applicable = false,
                        },
                        RuleVar::Univ(_) => {
                            if let Some(n) = alloc {
                                cond_parts.push(Formula3::not(Formula3::Eq(
                                    format!("w{k}"),
                                    n.to_string(),
                                )));
                            }
                        }
                        other => unreachable!("target args are Lhs/Univ, got {other:?}"),
                    }
                }
                if !applicable {
                    continue;
                }
                let cond = Formula3::and(cond_parts.clone());
                let mut rhs_terms = Vec::new();
                for r in &rule.rhs {
                    match r {
                        RuleRhs::Const(true) => rhs_terms.push(Formula3::True),
                        RuleRhs::Const(false) => {}
                        RuleRhs::Unknown => rhs_terms.push(Formula3::Unknown),
                        RuleRhs::Inst(g, rvs) => {
                            let mut binds = Vec::new();
                            let mut counter = 0;
                            let mut vars = Vec::new();
                            let mut ok = true;
                            for &rv in rvs {
                                match self.rule_var_binding(
                                    rv,
                                    recv,
                                    args,
                                    alloc,
                                    &mut binds,
                                    &mut counter,
                                ) {
                                    Some(v) => vars.push(v),
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            if ok {
                                let app = self.family_app(*g, vars);
                                rhs_terms.push(self.wrap_binds(binds, app));
                            }
                        }
                    }
                }
                let rhs = Formula3::or(rhs_terms);
                terms.push(Formula3::and([cond.clone(), rhs]));
                neg_conds.push(Formula3::not(cond));
            }
            let old = Formula3::App(pred, formals.clone());
            neg_conds.push(old);
            terms.push(Formula3::and(neg_conds));
            a.updates.push(Update { pred, formals, rhs: Formula3::or(terms) });
        }
    }

    fn compile_checks(&self, checks: &[RuleRhs], recv: Option<VarId>, args: &[VarId]) -> Formula3 {
        let mut terms = Vec::new();
        for c in checks {
            match c {
                RuleRhs::Const(true) | RuleRhs::Unknown => terms.push(Formula3::True),
                RuleRhs::Const(false) => {}
                RuleRhs::Inst(g, rvs) => {
                    let mut binds = Vec::new();
                    let mut counter = 0;
                    let mut vars = Vec::new();
                    let mut ok = true;
                    for &rv in rvs {
                        match self.rule_var_binding(rv, recv, args, None, &mut binds, &mut counter)
                        {
                            Some(v) => vars.push(v),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        let app = self.family_app(*g, vars);
                        terms.push(self.wrap_binds(binds, app));
                    }
                }
            }
        }
        Formula3::or(terms)
    }

    // -- generic-mode spec-body compilation --------------------------------

    /// Compiles an EASL method body as a sequence of heap-mutation actions.
    /// `arg_roots[k]` is the binding of parameter `k` (None = untracked).
    fn compile_spec_body(
        &mut self,
        class: &ClassSpec,
        m: &MethodSpec,
        this: Root,
        arg_roots: &[Option<Root>],
        actions: &mut Vec<Action>,
    ) {
        for stmt in m.body().to_vec() {
            let SpecStmt::Assign { lhs, rhs } = stmt;
            // the parser only accepts assignments to fields
            let Some(field) = lhs.fields().last() else { continue };
            let field = Symbol::from(field.as_str());
            let mut a = self.act(format!("{}.{} body", class.name(), m.name()));
            let owner_ty = self.spec_path_owner_ty(&lhs, class, m);
            let Some(&rv) = self.rv_comp.get(&(owner_ty, field)) else {
                continue;
            };
            let parent = parent_spec_path(&lhs);
            let target_f = self.spec_path_formula_roots(&parent, class, m, this, arg_roots, "o1");
            let value_f = match &rhs {
                SpecExpr::Path(p) => {
                    self.spec_path_formula_roots(p, class, m, this, arg_roots, "o2")
                }
                SpecExpr::New { ty, .. } => {
                    // allocate within this very action (token classes have
                    // empty constructors)
                    let ty = *ty;
                    let n = self.fresh("v");
                    self.alloc_updates(None, &ty, &n, &mut a);
                    Formula3::Eq("o2".into(), n)
                }
            };
            a.updates.push(Update {
                pred: rv,
                formals: vec!["o1".into(), "o2".into()],
                rhs: Formula3::or([
                    Formula3::and([target_f.clone(), value_f]),
                    Formula3::and([
                        Formula3::not(target_f),
                        Formula3::App(rv, vec!["o1".into(), "o2".into()]),
                    ]),
                ]),
            });
            actions.push(a);
        }
    }

    fn spec_path_owner_ty(
        &self,
        p: &canvas_easl::SpecPath,
        class: &ClassSpec,
        m: &MethodSpec,
    ) -> Symbol {
        let mut ty = match p.base() {
            SpecVar::This => *class.name(),
            SpecVar::Param(k) => m.params()[k].1,
        };
        for f in &p.fields()[..p.fields().len() - 1] {
            if let Some(next) = self.spec.field_type(&ty, f) {
                ty = next;
            }
        }
        ty.symbol()
    }

    /// `spec_path_formula_roots` with client-var parameter bindings.
    fn spec_path_formula(
        &mut self,
        p: &canvas_easl::SpecPath,
        class: &ClassSpec,
        m: &MethodSpec,
        this_root: Root,
        args: &[VarId],
        out: &str,
    ) -> Formula3 {
        let roots: Vec<Option<Root>> = args.iter().map(|&v| Some(Root::Var(v))).collect();
        self.spec_path_formula_roots(p, class, m, this_root, &roots, out)
    }

    /// Builds the formula binding `out` to the value of a spec path.
    fn spec_path_formula_roots(
        &mut self,
        p: &canvas_easl::SpecPath,
        class: &ClassSpec,
        m: &MethodSpec,
        this_root: Root,
        arg_roots: &[Option<Root>],
        out: &str,
    ) -> Formula3 {
        let root = match p.base() {
            SpecVar::This => Some(this_root),
            SpecVar::Param(k) => arg_roots.get(k).copied().flatten(),
        };
        let Some(root) = root else { return Formula3::Unknown };
        let root_pred = match root {
            Root::Var(v) => match self.pt_of(v) {
                Some(pt) => pt,
                None => return Formula3::Unknown,
            },
            Root::Reg(r) => r,
        };
        let mut ty = match p.base() {
            SpecVar::This => *class.name(),
            SpecVar::Param(k) => m.params()[k].1,
        };
        // ∃b0: root(b0) ∧ rv_f1(b0,b1) ∧ … ∧ rv_fk(b_{k-1}, out)
        let b0 = self.fresh("b");
        let mut conj = vec![Formula3::App(root_pred, vec![b0.clone()])];
        let mut quantified = vec![b0.clone()];
        let mut cur = b0;
        let fields = p.fields().to_vec();
        for (i, f) in fields.iter().enumerate() {
            let Some(&rv) = self.rv_comp.get(&(ty.symbol(), Symbol::from(f.as_str()))) else {
                return Formula3::Unknown;
            };
            let next = if i + 1 == fields.len() { out.to_string() } else { self.fresh("b") };
            conj.push(Formula3::App(rv, vec![cur.clone(), next.clone()]));
            if i + 1 != fields.len() {
                quantified.push(next.clone());
            }
            cur = next;
            if let Some(t) = self.spec.field_type(&ty, f) {
                ty = t;
            }
        }
        if fields.is_empty() {
            conj.push(Formula3::Eq(out.to_string(), cur));
        }
        let mut f = Formula3::and(conj);
        for q in quantified.into_iter().rev() {
            f = Formula3::Exists(q, Box::new(f));
        }
        f
    }

    /// Translates a requires-violation formula into TVP (generic mode).
    fn logic_formula_to_tvp(
        &mut self,
        f: &LFormula,
        class: &ClassSpec,
        m: &MethodSpec,
        this_root: Root,
        args: &[VarId],
    ) -> Formula3 {
        match f {
            LFormula::True => Formula3::True,
            LFormula::False => Formula3::False,
            LFormula::Eq(a, b) => self.atom_to_tvp(a, b, true, class, m, this_root, args),
            LFormula::Ne(a, b) => self.atom_to_tvp(a, b, false, class, m, this_root, args),
            LFormula::Not(g) => {
                Formula3::not(self.logic_formula_to_tvp(g, class, m, this_root, args))
            }
            LFormula::And(gs) => Formula3::and(
                gs.iter()
                    .map(|g| self.logic_formula_to_tvp(g, class, m, this_root, args))
                    .collect::<Vec<_>>(),
            ),
            LFormula::Or(gs) => Formula3::or(
                gs.iter()
                    .map(|g| self.logic_formula_to_tvp(g, class, m, this_root, args))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn atom_to_tvp(
        &mut self,
        a: &Term,
        b: &Term,
        positive: bool,
        class: &ClassSpec,
        m: &MethodSpec,
        this_root: Root,
        args: &[VarId],
    ) -> Formula3 {
        let (Term::Path(pa), Term::Path(pb)) = (a, b) else {
            return Formula3::Unknown;
        };
        let (Some(spa), Some(spb)) =
            (access_to_spec_path(pa, class, m), access_to_spec_path(pb, class, m))
        else {
            return Formula3::Unknown;
        };
        let fa = self.spec_path_formula(&spa, class, m, this_root, args, "oa");
        let fb = self.spec_path_formula(&spb, class, m, this_root, args, "ob");
        let eq = Formula3::Eq("oa".into(), "ob".into());
        let cmp = if positive { eq } else { Formula3::not(eq) };
        Formula3::exists("oa", Formula3::exists("ob", Formula3::and([fa, fb, cmp])))
    }
}

fn bind_individual(p: PredId, binds: &mut Vec<(String, PredId)>, counter: &mut usize) -> String {
    if let Some((v, _)) = binds.iter().find(|(_, q)| *q == p) {
        return v.clone();
    }
    let v = format!("b{}", *counter);
    *counter += 1;
    binds.push((v.clone(), p));
    v
}

/// `Some(positive)` when the family formula is a boolean combination of bare
/// variable (in)equalities only — then instances are definable as individual
/// equality. Only the single-literal shapes occur in practice.
fn family_equality_definable(fam: &canvas_wp::Family) -> Option<bool> {
    if fam.params().len() != 2 {
        return None;
    }
    match fam.formula() {
        LFormula::Eq(Term::Path(a), Term::Path(b)) if a.is_var() && b.is_var() => Some(true),
        LFormula::Ne(Term::Path(a), Term::Path(b)) if a.is_var() && b.is_var() => Some(false),
        _ => None,
    }
}

/// The functional direction of a binary family: the shape `x0.path == x1`
/// determines the bare side from the path side (CMP's `iterof(i, v)` maps
/// each iterator to one set; GRP's flipped `iterof(g, t)` maps each
/// traversal to one graph).
fn family_functional(fam: &canvas_wp::Family) -> Functional {
    let params = fam.params();
    match fam.formula() {
        LFormula::Eq(Term::Path(a), Term::Path(b)) => {
            let bare_pos = |p: &canvas_logic::AccessPath| {
                p.is_var().then(|| params.iter().position(|q| q == p.base())).flatten()
            };
            match (bare_pos(a), bare_pos(b)) {
                // exactly one side is a bare parameter: that side is the
                // determined value
                (Some(1), None) | (None, Some(1)) => Functional::SecondByFirst,
                (Some(0), None) | (None, Some(0)) => Functional::FirstBySecond,
                _ => Functional::No,
            }
        }
        _ => Functional::No,
    }
}

/// Converts a logic access path (rooted at `this` or a parameter) back into
/// a spec path relative to the method frame.
fn access_to_spec_path(
    p: &canvas_logic::AccessPath,
    class: &ClassSpec,
    m: &MethodSpec,
) -> Option<canvas_easl::SpecPath> {
    let base = if p.base().name() == "this" && p.base().ty() == class.name() {
        SpecVar::This
    } else {
        let k = m.params().iter().position(|(n, _)| n == p.base().name())?;
        SpecVar::Param(k)
    };
    Some(canvas_easl::SpecPath::new(base, p.fields().to_vec()))
}

/// The parent path (written object) of an assignment target.
fn parent_spec_path(p: &canvas_easl::SpecPath) -> canvas_easl::SpecPath {
    canvas_easl::SpecPath::new(p.base(), p.fields()[..p.fields().len() - 1].to_vec())
}
