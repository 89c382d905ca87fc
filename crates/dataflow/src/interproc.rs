//! Context-sensitive interprocedural SCMP certification (paper §8).
//!
//! The paper extends the intraprocedural SCMP certifier to a precise,
//! polynomial-time, context-sensitive (meet-over-all-*valid*-paths)
//! interprocedural analysis. The provided paper text truncates before §8's
//! details; this implementation reconstructs it as an IFDS-style two-phase
//! tabulation, which gives exactly the claimed properties for the
//! distributive may-be-1 domain:
//!
//! **Phase 1 — summaries (bottom-up).** Each method is analysed over an
//! *extended* predicate-instance space that adds, per component-typed
//! formal `f`, a ghost entry-snapshot variable `$in_f` (never reassigned),
//! and per component type a pair of *phantom* variables standing for
//! arbitrary caller-held references not passed into the method. The
//! abstract value of an instance is the **set of entry facts** (instances
//! over ghosts/statics/phantoms, plus the constant 1) whose truth at entry
//! may make the instance 1 here; transfer is plain set union because every
//! assignment is a disjunction. The method's summary is this relation at
//! its exit node. Nested calls apply callee summaries; recursion is handled
//! by iterating the (monotone, finite) summary map to fixpoint.
//!
//! **Phase 2 — tabulation (top-down).** Starting from `main` with the
//! all-zero entry state, concrete may-be-1 states are propagated through
//! each reachable method, applying callee summaries at call edges and
//! translating callee entry states per call site (formals ↦ actuals).
//! Entry states of the same method merge across call sites — exact for the
//! existential check question, by the standard IFDS argument. `requires`
//! checks are evaluated inside the per-method fixpoints.
//!
//! Phantom translation is what lets a callee's heap effects flow back to
//! caller-local iterators precisely: a caller-local `i` not passed to the
//! callee is mapped to the phantom `$ph`, the callee's exit summary for
//! `stale($ph)` is, say, `{stale($ph), iterof($ph, $in_s)}`, and
//! translating back yields `stale(i) := stale(i) ∨ iterof(i, a)` where `a`
//! is the actual bound to `s` — the correct, context-sensitive effect.

use std::collections::HashMap;

use canvas_abstraction::{
    transform_method_with, BoolProgram, ClientCallPolicy, EntryAssumption, Operand, Rhs,
};
use canvas_easl::Spec;
use canvas_logic::{Symbol, TypeName};
use canvas_minijava::{Instr, MethodId, Program, VarId};
use canvas_wp::Derived;

use canvas_faults::{Exhaustion, Meter};

use crate::bitset::BitSet;
use crate::fds::{csr_out_edges, edge_image, out_of, Violation};
use crate::provenance::{justify, Provenance};

static INTERPROC_ANALYSES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("interproc.analyses");
static INTERPROC_SUMMARY_ITERATIONS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("interproc.summary_iterations");
static INTERPROC_ANALYZE_TIME: canvas_telemetry::Timer =
    canvas_telemetry::Timer::new("interproc.analyze");

/// Phantom variables per component type; bounds the representable family
/// arity (all families derived from the paper's specs have arity ≤ 2).
const PHANTOMS_PER_TYPE: usize = 2;

/// Result of the interprocedural analysis.
#[derive(Clone, Debug)]
pub struct InterprocResult {
    /// All potential `requires` violations in methods reachable from `main`.
    pub violations: Vec<Violation>,
    /// Methods reachable from the entry point.
    pub reachable: Vec<MethodId>,
    /// Summary-phase iterations until the summary map stabilised.
    pub summary_iterations: usize,
    /// Largest per-method instance count (including ghosts and phantoms).
    pub max_instances: usize,
}

/// A caller-side fact produced by summary translation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Back {
    /// Unconditionally 1.
    Const1,
    /// The caller instance with this index.
    Pred(usize),
}

/// The entry value of an instance in the summary domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Seed {
    /// Constant 1 at entry (ghostified form folded to true, e.g.
    /// `same(x, $in_x)` — a formal always equals its own snapshot).
    One,
    /// The entry fact with this instance id.
    Fact(usize),
}

struct MethodTables {
    bp: BoolProgram,
    /// seed entry value per instance (`None` = 0 at entry)
    seeds: Vec<Option<Seed>>,
    /// exit node id
    exit: usize,
}

struct Ctx<'a> {
    program: Program, // extended clone with ghosts/phantoms
    #[allow(dead_code)] // retained for future spec-driven refinements
    spec: &'a Spec,
    methods: Vec<MethodTables>,
    /// ghost var per (method, formal var)
    ghost_of: HashMap<(MethodId, VarId), VarId>,
    /// formal var per ghost var
    formal_of: HashMap<VarId, VarId>,
    /// phantom slots per (method, type name)
    phantoms: HashMap<(MethodId, Symbol), Vec<VarId>>,
}

/// Runs the context-sensitive interprocedural certifier from `main`,
/// governed: one meter tick per worklist pop in the summary, tabulation,
/// and concrete fixpoints. With `trace` it also records per-fact
/// provenance during tabulation and attaches a witness trace to every
/// violation; witness chains stop at a method's entry when the justifying
/// fact flowed in from a caller.
///
/// A program without a static `main` reaches no method, so its result is
/// empty: callers that certify must reject it first (`canvas-core` does).
///
/// # Errors
///
/// Returns the [`Exhaustion`] when the governor budget trips; the caller
/// degrades to an inconclusive verdict.
pub fn solve(
    program: &Program,
    spec: &Spec,
    derived: &Derived,
    gov: &Meter,
    trace: bool,
) -> Result<InterprocResult, Exhaustion> {
    let _span = INTERPROC_ANALYZE_TIME.span();
    INTERPROC_ANALYSES.incr();
    let Some(main) = program.main_method() else {
        return Ok(InterprocResult {
            violations: Vec::new(),
            reachable: Vec::new(),
            summary_iterations: 0,
            max_instances: 0,
        });
    };
    let main_id = main.id;
    let mut ext = program.clone();

    let mut ghost_of = HashMap::new();
    let mut formal_of = HashMap::new();
    let mut phantoms: HashMap<(MethodId, Symbol), Vec<VarId>> = HashMap::new();
    let mut types: Vec<TypeName> = spec.client_facing_types();
    for fam in derived.families() {
        for p in fam.params() {
            if !types.contains(p.ty()) {
                types.push(*p.ty());
            }
        }
    }
    let method_ids: Vec<MethodId> = program.methods().iter().map(|m| m.id).collect();
    for &mid in &method_ids {
        let params = program.method(mid).params.clone();
        for f in params {
            if spec.is_component_type(&program.var(f).ty) {
                let name = format!("$in_{}", program.var(f).name);
                let g = ext.add_ghost_var(mid, &name, program.var(f).ty);
                ghost_of.insert((mid, f), g);
                formal_of.insert(g, f);
            }
        }
        for t in &types {
            let slots: Vec<VarId> = (0..PHANTOMS_PER_TYPE)
                .map(|k| ext.add_ghost_var(mid, &format!("$ph_{t}_{k}"), *t))
                .collect();
            phantoms.insert((mid, t.symbol()), slots);
        }
    }

    let mut methods = Vec::new();
    for &mid in &method_ids {
        let m = ext.method(mid).clone();
        let bp = transform_method_with(
            &ext,
            &m,
            spec,
            derived,
            EntryAssumption::Clean,
            ClientCallPolicy::Defer,
        );
        let exit = m.cfg.exit().0;
        methods.push(MethodTables { bp, seeds: Vec::new(), exit });
    }

    let mut ctx = Ctx { program: ext, spec, methods, ghost_of, formal_of, phantoms };
    ctx.compute_seeds();
    let (summaries, summary_iterations) = ctx.summary_fixpoint(gov)?;
    let (violations, reachable) = ctx.tabulate(main_id, &summaries, derived, trace, gov)?;
    let max_instances = ctx.methods.iter().map(|m| m.bp.preds.len()).max().unwrap_or(0);
    INTERPROC_SUMMARY_ITERATIONS.add(summary_iterations as u64);
    canvas_telemetry::trace::instant(
        "interproc.fixpoint",
        "solver",
        &[
            ("summary_iterations", summary_iterations as u64),
            ("reachable_methods", reachable.len() as u64),
        ],
    );
    Ok(InterprocResult { violations, reachable, summary_iterations, max_instances })
}

impl Ctx<'_> {
    fn is_ghost_or_phantom(&self, v: VarId) -> bool {
        let var = self.program.var(v);
        var.name.starts_with("$in_") || var.name.starts_with("$ph_")
    }

    fn is_static(&self, v: VarId) -> bool {
        self.program.var(v).owner.is_none()
    }

    /// Seeds: at entry, an instance over formals/statics/ghosts/phantoms has
    /// the value of its ghostified counterpart (formals ↦ ghosts).
    fn compute_seeds(&mut self) {
        for mi in 0..self.methods.len() {
            let mid = self.methods[mi].bp.method;
            let mut seeds = Vec::with_capacity(self.methods[mi].bp.preds.len());
            for p in self.methods[mi].bp.preds.clone() {
                let mut ok = true;
                let mut gargs = Vec::with_capacity(p.args.len());
                for &a in &p.args {
                    if let Some(&g) = self.ghost_of.get(&(mid, a)) {
                        gargs.push(g);
                    } else if self.is_static(a) || self.is_ghost_or_phantom(a) {
                        gargs.push(a);
                    } else {
                        ok = false; // locals/temps/$ret are null at entry
                        break;
                    }
                }
                seeds.push(if ok {
                    match self.methods[mi].bp.instance(p.family, &gargs) {
                        Some(Operand::Var(idx)) => Some(Seed::Fact(idx)),
                        Some(Operand::Const(true)) => Some(Seed::One),
                        _ => None,
                    }
                } else {
                    None
                });
            }
            self.methods[mi].seeds = seeds;
        }
    }

    /// Fact-domain width: one bit per instance plus bit 0 = Const1.
    fn width(&self, m: usize) -> usize {
        self.methods[m].bp.preds.len() + 1
    }

    /// Phase 1: exit summaries (sets of entry facts per instance).
    fn summary_fixpoint(&self, gov: &Meter) -> Result<(Vec<Vec<BitSet>>, usize), Exhaustion> {
        let n = self.methods.len();
        let mut summaries: Vec<Vec<BitSet>> = (0..n)
            .map(|m| vec![BitSet::new(self.width(m)); self.methods[m].bp.preds.len()])
            .collect();
        let mut iterations = 0;
        loop {
            iterations += 1;
            let mut changed = false;
            for m in 0..n {
                let new = self.run_summary(m, &summaries, gov)?;
                if new != summaries[m] {
                    summaries[m] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok((summaries, iterations))
    }

    /// One set-domain pass over method `m` with the current summary map.
    fn run_summary(
        &self,
        m: usize,
        summaries: &[Vec<BitSet>],
        gov: &Meter,
    ) -> Result<Vec<BitSet>, Exhaustion> {
        let mt = &self.methods[m];
        let bp = &mt.bp;
        let width = self.width(m);
        let npreds = bp.preds.len();
        let nodes = bp.node_count;
        let mut state: Vec<Option<Vec<BitSet>>> = vec![None; nodes];
        let mut entry_state = vec![BitSet::new(width); npreds];
        for (k, seed) in mt.seeds.iter().enumerate() {
            match seed {
                Some(Seed::Fact(s)) => entry_state[k].set(s + 1, true),
                Some(Seed::One) => entry_state[k].set(0, true),
                None => {}
            }
        }
        state[bp.entry] = Some(entry_state);

        let out_edges = csr_out_edges(nodes, &bp.edges, |_| true);
        let mut work = vec![bp.entry];
        let mut on_work = vec![false; nodes];
        on_work[bp.entry] = true;
        while let Some(node) = work.pop() {
            gov.tick()?;
            on_work[node] = false;
            let Some(cur) = state[node].clone() else { continue };
            for ek in out_of(&out_edges, node) {
                let e = &bp.edges[ek];
                let out = self.transfer_sets(m, ek, &cur, summaries);
                let changed = match &mut state[e.to] {
                    t @ None => {
                        *t = Some(out);
                        true
                    }
                    Some(t) => {
                        let mut ch = false;
                        for (a, b) in t.iter_mut().zip(&out) {
                            ch |= a.union_with(b);
                        }
                        ch
                    }
                };
                if changed && !on_work[e.to] {
                    on_work[e.to] = true;
                    work.push(e.to);
                }
            }
        }
        Ok(match state[mt.exit].take() {
            Some(s) => s,
            None => vec![BitSet::new(width); npreds], // exit unreachable
        })
    }

    /// Set-domain transfer across edge `ek` of method `m`.
    fn transfer_sets(
        &self,
        m: usize,
        ek: usize,
        cur: &[BitSet],
        summaries: &[Vec<BitSet>],
    ) -> Vec<BitSet> {
        let bp = &self.methods[m].bp;
        let ir_edge = &self.program.method(bp.method).cfg.edges()[ek];
        if let Instr::CallClient { dst, callee, args, .. } = &ir_edge.instr {
            let mut out = Vec::with_capacity(cur.len());
            for k in 0..bp.preds.len() {
                let mut set = BitSet::new(self.width(m));
                match self.translate_effect(m, callee.0, args, *dst, k, summaries) {
                    Some(backs) => {
                        for b in backs {
                            match b {
                                Back::Const1 => set.set(0, true),
                                Back::Pred(j) => {
                                    set.union_with(&cur[j]);
                                }
                            }
                        }
                    }
                    None => set.set(0, true), // untranslatable: conservative
                }
                out.push(set);
            }
            return out;
        }
        let mut out = cur.to_vec();
        let e = &bp.edges[ek];
        for (dst, rhs) in &e.assigns {
            let mut set = BitSet::new(self.width(m));
            match rhs {
                Rhs::Havoc => set.set(0, true),
                Rhs::Disj(ops) => {
                    for op in ops {
                        match op {
                            Operand::Const(true) => set.set(0, true),
                            Operand::Const(false) => {}
                            Operand::Var(v) => {
                                set.union_with(&cur[*v]);
                            }
                        }
                    }
                }
            }
            out[*dst] = set;
        }
        out
    }

    /// Picks (or reuses) a phantom slot in `callee` for caller var `a`.
    fn assign_phantom(
        &self,
        a: VarId,
        callee: MethodId,
        assign: &mut HashMap<VarId, VarId>,
        used: &mut HashMap<Symbol, usize>,
    ) -> Option<VarId> {
        if let Some(&ph) = assign.get(&a) {
            return Some(ph);
        }
        let ty = self.program.var(a).ty.symbol();
        let slots = self.phantoms.get(&(callee, ty))?;
        let k = used.entry(ty).or_insert(0);
        let slot = *slots.get(*k)?;
        *k += 1;
        assign.insert(a, slot);
        Some(slot)
    }

    /// Computes, for caller instance `k` across a call, the caller facts its
    /// post-call value is the union of. `None` = untranslatable.
    fn translate_effect(
        &self,
        m: usize,
        callee: usize,
        args: &[VarId],
        dst: Option<VarId>,
        k: usize,
        summaries: &[Vec<BitSet>],
    ) -> Option<Vec<Back>> {
        let caller_bp = &self.methods[m].bp;
        let callee_bp = &self.methods[callee].bp;
        let callee_mid = callee_bp.method;
        let callee_params = &self.program.method(callee_mid).params;
        let callee_ret = self.program.method(callee_mid).ret_var;
        let p = &caller_bp.preds[k];

        // forward mapping caller var -> callee var
        let mut phantom_assign: HashMap<VarId, VarId> = HashMap::new();
        let mut phantom_used: HashMap<Symbol, usize> = HashMap::new();
        let mut mapped = Vec::with_capacity(p.args.len());
        for &a in &p.args {
            let ma = if Some(a) == dst {
                callee_ret?
            } else if self.is_static(a) {
                a
            } else if let Some(g) = args
                .iter()
                .position(|&x| x == a)
                .and_then(|pos| callee_params.get(pos))
                .and_then(|f| self.ghost_of.get(&(callee_mid, *f)))
            {
                // the ghost of the formal this actual binds to
                *g
            } else {
                // unpassed caller local (or passed only into a non-component
                // slot): a phantom stands for it inside the callee
                self.assign_phantom(a, callee_mid, &mut phantom_assign, &mut phantom_used)?
            };
            mapped.push(ma);
        }

        // the callee instance whose exit value we need
        let facts = match callee_bp.instance(p.family, &mapped) {
            Some(Operand::Var(q)) => &summaries[callee][q],
            Some(Operand::Const(true)) => return Some(vec![Back::Const1]),
            Some(Operand::Const(false)) => return Some(Vec::new()),
            None => return None,
        };

        // reverse phantom map
        let phantom_back: HashMap<VarId, VarId> =
            phantom_assign.iter().map(|(a, ph)| (*ph, *a)).collect();

        let mut backs = Vec::new();
        for bit in facts.iter_ones() {
            if bit == 0 {
                backs.push(Back::Const1);
                continue;
            }
            let fact = &callee_bp.preds[bit - 1];
            let mut cargs = Vec::with_capacity(fact.args.len());
            let mut ok = true;
            for &g in &fact.args {
                let back = if let Some(&f) = self.formal_of.get(&g) {
                    // ghost of formal f: the actual bound to it
                    match callee_params.iter().position(|&x| x == f) {
                        Some(pos) => args.get(pos).copied(),
                        None => None,
                    }
                } else if self.is_static(g) {
                    Some(g)
                } else if let Some(&a) = phantom_back.get(&g) {
                    Some(a)
                } else {
                    None
                };
                match back {
                    Some(v) => cargs.push(v),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                return None;
            }
            match caller_bp.instance(fact.family, &cargs) {
                Some(Operand::Var(j)) => backs.push(Back::Pred(j)),
                Some(Operand::Const(true)) => backs.push(Back::Const1),
                Some(Operand::Const(false)) => {}
                None => return None,
            }
        }
        Some(backs)
    }

    /// Phase 2: top-down tabulation and violation collection.
    fn tabulate(
        &self,
        main: MethodId,
        summaries: &[Vec<BitSet>],
        derived: &Derived,
        explain: bool,
        gov: &Meter,
    ) -> Result<(Vec<Violation>, Vec<MethodId>), Exhaustion> {
        let n = self.methods.len();
        let mut entry_in: Vec<Option<BitSet>> = vec![None; n];
        entry_in[main.0] = Some(BitSet::new(self.methods[main.0].bp.preds.len()));
        let mut work = vec![main.0];
        let mut per_method_violations: Vec<Vec<Violation>> = vec![Vec::new(); n];

        while let Some(m) = work.pop() {
            gov.tick()?;
            let Some(entry) = entry_in[m].clone() else {
                continue; // unreachable: a method is queued with its entry
            };
            let (state, viols) = self.run_concrete(m, &entry, summaries, derived, explain, gov)?;
            per_method_violations[m] = viols;
            // propagate callee entries
            let bp = &self.methods[m].bp;
            let ir = &self.program.method(bp.method).cfg;
            for (ek, e) in ir.edges().iter().enumerate() {
                if let Instr::CallClient { callee, args, .. } = &e.instr {
                    let Some(cur) = &state[bp.edges[ek].from] else { continue };
                    let centry = self.callee_entry(m, callee.0, args, cur);
                    let changed = match &mut entry_in[callee.0] {
                        t @ None => {
                            *t = Some(centry);
                            true
                        }
                        Some(t) => t.union_with(&centry),
                    };
                    if changed && !work.contains(&callee.0) {
                        work.push(callee.0);
                    }
                }
            }
        }

        let mut violations = Vec::new();
        let mut reachable = Vec::new();
        for m in 0..n {
            if entry_in[m].is_some() {
                reachable.push(MethodId(m));
                violations.extend(per_method_violations[m].clone());
            }
        }
        violations.sort_by_key(|v| (v.site.method, v.site.span, v.site.what.clone()));
        violations.dedup_by(|a, b| a.site == b.site);
        Ok((violations, reachable))
    }

    /// Concrete may-be-1 pass over method `m` (summaries applied at calls).
    #[allow(clippy::type_complexity)]
    fn run_concrete(
        &self,
        m: usize,
        entry: &BitSet,
        summaries: &[Vec<BitSet>],
        derived: &Derived,
        explain: bool,
        gov: &Meter,
    ) -> Result<(Vec<Option<BitSet>>, Vec<Violation>), Exhaustion> {
        let bp = &self.methods[m].bp;
        let nodes = bp.node_count;
        let mut prov =
            if explain { Provenance::new(nodes, bp.preds.len()) } else { Provenance::empty() };
        let mut state: Vec<Option<BitSet>> = vec![None; nodes];
        state[bp.entry] = Some(entry.clone());
        let out_edges = csr_out_edges(nodes, &bp.edges, |_| true);
        let mut work = vec![bp.entry];
        let mut on_work = vec![false; nodes];
        on_work[bp.entry] = true;
        while let Some(node) = work.pop() {
            gov.tick()?;
            on_work[node] = false;
            let Some(cur) = state[node].clone() else { continue };
            for ek in out_of(&out_edges, node) {
                let e = &bp.edges[ek];
                let out = self.transfer_concrete(m, ek, &cur, summaries);
                if explain {
                    for p in out.iter_ones() {
                        if !state[e.to].as_ref().is_some_and(|t| t.get(p)) {
                            let src = self.justify_concrete(m, ek, p, &cur, summaries);
                            prov.record(e.to, p, ek, src);
                        }
                    }
                }
                let changed = match &mut state[e.to] {
                    t @ None => {
                        *t = Some(out);
                        true
                    }
                    Some(t) => t.union_with(&out),
                };
                if changed && !on_work[e.to] {
                    on_work[e.to] = true;
                    work.push(e.to);
                }
            }
        }
        let viols = crate::fds::violations(
            bp,
            |node, p| state[node].as_ref().is_some_and(|s| s.get(p)),
            explain.then_some((&prov, &self.program, derived)),
        );
        Ok((state, viols))
    }

    /// Which pre-state fact justifies `p` being true after edge `ek`
    /// (provenance recording; explain mode only). Call edges attribute facts
    /// set by the callee's summary to the call itself (`None`) unless they
    /// are pure propagations of a caller fact.
    fn justify_concrete(
        &self,
        m: usize,
        ek: usize,
        p: usize,
        cur: &BitSet,
        summaries: &[Vec<BitSet>],
    ) -> Option<usize> {
        let bp = &self.methods[m].bp;
        let ir_edge = &self.program.method(bp.method).cfg.edges()[ek];
        if let Instr::CallClient { dst, callee, args, .. } = &ir_edge.instr {
            return match self.translate_effect(m, callee.0, args, *dst, p, summaries) {
                Some(backs) => {
                    if backs.contains(&Back::Const1) {
                        None
                    } else {
                        backs.iter().find_map(|b| match b {
                            Back::Pred(j) if cur.get(*j) => Some(*j),
                            _ => None,
                        })
                    }
                }
                // untranslatable: conservatively set by the call
                None => None,
            };
        }
        justify(&bp.edges[ek], p, |q| cur.get(q))
    }

    fn transfer_concrete(
        &self,
        m: usize,
        ek: usize,
        cur: &BitSet,
        summaries: &[Vec<BitSet>],
    ) -> BitSet {
        let bp = &self.methods[m].bp;
        let ir_edge = &self.program.method(bp.method).cfg.edges()[ek];
        if let Instr::CallClient { dst, callee, args, .. } = &ir_edge.instr {
            let mut out = BitSet::new(bp.preds.len());
            for k in 0..bp.preds.len() {
                let bit = match self.translate_effect(m, callee.0, args, *dst, k, summaries) {
                    Some(backs) => backs.iter().any(|b| match b {
                        Back::Const1 => true,
                        Back::Pred(j) => cur.get(*j),
                    }),
                    None => true,
                };
                out.set(k, bit);
            }
            return out;
        }
        let mut out = BitSet::new(cur.len());
        edge_image(&bp.edges[ek], cur.words(), out.words_mut());
        out
    }

    /// Translates the caller state at a call into the callee's entry state.
    fn callee_entry(&self, m: usize, callee: usize, args: &[VarId], cur: &BitSet) -> BitSet {
        let caller_bp = &self.methods[m].bp;
        let callee_bp = &self.methods[callee].bp;
        let callee_mid = callee_bp.method;
        let callee_params = &self.program.method(callee_mid).params;
        let mut out = BitSet::new(callee_bp.preds.len());
        for (q, p) in callee_bp.preds.iter().enumerate() {
            let mut cargs = Vec::with_capacity(p.args.len());
            let mut ok = true;
            for &g in &p.args {
                let back = if let Some(&f) = self.formal_of.get(&g) {
                    callee_params
                        .iter()
                        .position(|&x| x == f)
                        .and_then(|pos| args.get(pos))
                        .copied()
                } else if callee_params.contains(&g) {
                    callee_params
                        .iter()
                        .position(|&x| x == g)
                        .and_then(|pos| args.get(pos))
                        .copied()
                } else if self.is_static(g) {
                    Some(g)
                } else {
                    None // locals, temps, $ret, phantoms: 0 at entry
                };
                match back {
                    Some(v) => cargs.push(v),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let bit = match caller_bp.instance(p.family, &cargs) {
                Some(Operand::Var(j)) => cur.get(j),
                Some(Operand::Const(c)) => c,
                None => false,
            };
            if bit {
                out.set(q, true);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_wp::derive_abstraction;

    fn certify(src: &str) -> Vec<Violation> {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        solve(&program, &spec, &derived, &Meter::disarmed(), false).unwrap().violations
    }

    #[test]
    fn pure_callee_is_transparent() {
        // intraprocedurally this is flagged (unknown callee); the
        // interprocedural engine sees that help() touches nothing
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        help();
        i.next();
    }
    static void help() { }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn callee_mutating_passed_set_stales_caller_iterator() {
        let v = certify(
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
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].site.what, "i.next()");
    }

    #[test]
    fn callee_mutating_other_set_is_harmless() {
        // context sensitivity: grow() is called on a *different* set
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Set t = new Set();
        Iterator i = s.iterator();
        grow(t);
        i.next();
    }
    static void grow(Set x) { x.add("y"); }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn polymorphic_contexts_do_not_pollute() {
        // grow is called on s in one context and on t in another; only the
        // iterator over s is staled by the first call
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Set t = new Set();
        Iterator is = s.iterator();
        Iterator it = t.iterator();
        grow(s);
        it.next();
        is.next();
    }
    static void grow(Set x) { x.add("y"); }
}
"#,
        );
        let whats: Vec<&str> = v.iter().map(|x| x.site.what.as_str()).collect();
        assert_eq!(whats, vec!["is.next()"], "{v:#?}");
    }

    #[test]
    fn mutation_through_static() {
        let v = certify(
            r#"
class Main {
    static Set shared;
    static void main() {
        shared = new Set();
        Iterator i = shared.iterator();
        poke();
        i.next();
    }
    static void poke() { shared.add("z"); }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
    }

    #[test]
    fn returned_iterator_staleness_flows_back() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = fresh(s);
        s.add("x");
        i.next();
    }
    static Iterator fresh(Set x) { return x.iterator(); }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        // and without the add, no alarm
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = fresh(s);
        i.next();
    }
    static Iterator fresh(Set x) { return x.iterator(); }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn checks_inside_callee_respect_context() {
        // use(it) is safe from the first call site but not the second
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator a = s.iterator();
        use(a);
        s.add("x");
        Iterator b = s.iterator();
        s.add("y");
        use(b);
    }
    static void use(Iterator it) { it.next(); }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].site.what, "it.next()");
    }

    #[test]
    fn fig1_worklist_make_is_flagged() {
        // the paper's Fig. 1 Make program, SCMP-shaped (worklist set in a
        // static): processing the worklist while adding to it throws CME
        let v = certify(
            r#"
class Make {
    static Set worklist;
    static void main() {
        worklist = new Set();
        processWorklist();
    }
    static void processWorklist() {
        for (Iterator i = worklist.iterator(); i.hasNext(); ) {
            i.next();
            if (true) { processItem(); }
        }
    }
    static void processItem() { doSubproblem(); }
    static void doSubproblem() { worklist.add("newitem"); }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].site.what.contains("next"));
    }

    #[test]
    fn recursion_terminates_and_is_sound() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        rec(s, 0);
        i.next();
    }
    static void rec(Set x, int d) {
        if (true) { rec(x, d); }
        if (true) { x.add("r"); }
    }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
    }

    #[test]
    fn reachable_only() {
        let v = certify(
            r#"
class Main {
    static void main() { }
    static void dead(Set s) {
        Iterator i = s.iterator();
        s.add("x");
        i.next();
    }
}
"#,
        );
        // dead() is never called; no violations reported
        assert!(v.is_empty(), "{v:#?}");
    }
}
