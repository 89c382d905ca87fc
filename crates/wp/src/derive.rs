//! The staged abstraction-derivation procedure (paper §4.1–§4.2, §4.5).
//!
//! Starting from the negated `requires` clauses, the procedure repeatedly
//! computes weakest preconditions of candidate instrumentation predicates
//! through every client-visible statement form, splits the (precondition-
//! simplified) results into disjuncts, and interns each disjunct as an
//! instrumentation-predicate *family* — recognising previously seen families
//! up to variable renaming with the small-model equivalence check. The
//! by-product of each WP computation is recorded as an update rule,
//! assembling the component *method abstractions* (the paper's Fig. 5).

use std::collections::{HashMap, VecDeque};
use std::fmt;

use canvas_abstraction::{
    DerivationStats, Derived, Family, FamilyId, RuleRhs, RuleVar, StmtAbstraction, StmtForm,
    UpdateRule,
};
use canvas_easl::{ClassSpec, MethodSpec, Spec};
use canvas_logic::{models, FieldId, Formula, PredId, Term, TypeName, TypeOracle, Var};

use crate::simplify::Simplifier;
use crate::sym::{bind_requires, client_stmt_actions, wp_through_actions, OperandBinding};

static WP_COMPUTATIONS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("wp.computations");
static WP_DISJUNCT_SPLITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("wp.disjunct_splits");
static WP_EQUIV_CHECKS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("wp.equiv_checks");
static WP_FAMILIES: canvas_telemetry::Counter = canvas_telemetry::Counter::new("wp.families");
static WP_EQUIV_MEMO_HITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("wp.equiv_memo_hits");
static WP_EQUIV_MEMO_MISSES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("wp.equiv_memo_misses");
static WP_DERIVE_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("wp.derive");

// The derived-abstraction data model (Family/StmtAbstraction/Derived and
// friends) lives in `canvas_abstraction::derived` so the trusted certificate
// checker can consume abstractions without depending on this crate; it is
// re-exported from the crate root for compatibility. This module keeps only
// the derivation *procedure*.

/// Derivation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeriveError {
    /// The family budget was exceeded — the specification is (probably) not
    /// mutation-restricted and the WP iteration does not converge (§4.5).
    Budget {
        /// The budget that was exceeded.
        max_families: usize,
    },
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::Budget { max_families } => write!(
                f,
                "derivation exceeded the budget of {max_families} predicate families \
                 (specification is likely not mutation-restricted)"
            ),
        }
    }
}

impl std::error::Error for DeriveError {}

/// Derives the specialized abstraction for `spec` with the default budget.
///
/// # Errors
///
/// Returns [`DeriveError::Budget`] if the WP iteration generates more than
/// 64 families (it provably converges for mutation-restricted specs, §6).
pub fn derive_abstraction(spec: &Spec) -> Result<Derived, DeriveError> {
    derive_with_budget(spec, 64)
}

/// [`derive_abstraction`] with an explicit family budget.
///
/// # Errors
///
/// Returns [`DeriveError::Budget`] when more than `max_families` families
/// are generated.
pub fn derive_with_budget(spec: &Spec, max_families: usize) -> Result<Derived, DeriveError> {
    derive_impl(spec, max_families, false)
}

/// The §4.5 fallback: like [`derive_with_budget`], but instead of failing
/// when the family budget is exhausted, the derivation stops generating new
/// families and emits *conservative* update rules ([`RuleRhs::Unknown`]) for
/// the weakest-precondition disjuncts it can no longer express. The
/// resulting certifier is sound but may raise extra false alarms.
///
/// # Errors
///
/// Never fails; the `Result` is kept for signature symmetry.
pub fn derive_conservative(spec: &Spec, max_families: usize) -> Result<Derived, DeriveError> {
    derive_impl(spec, max_families, true)
}

fn derive_impl(
    spec: &Spec,
    max_families: usize,
    conservative: bool,
) -> Result<Derived, DeriveError> {
    let _span = WP_DERIVE_TIME.span();
    let oracle = spec.oracle();
    let mut d = Deriver {
        spec,
        oracle: &oracle,
        families: Vec::new(),
        pending: VecDeque::new(),
        stats: DerivationStats::default(),
        max_families,
        conservative,
        equiv_memo: HashMap::new(),
    };
    let forms = enumerate_forms(spec);
    let mut stmts: Vec<StmtAbstraction> = Vec::new();

    // Phase A (rule 1): seed families from negated requires clauses, and
    // record the per-form precondition checks.
    for (form, class, method) in &forms {
        let binding = operand_binding(spec, class.as_ref(), method.as_ref());
        let mut checks = Vec::new();
        if let (Some(c), Some(m)) = (class.as_ref(), method.as_ref()) {
            if let Some(req) = bind_requires(c, m, &binding) {
                let neg = Formula::not(req);
                let simp = Simplifier::new(d.oracle);
                for disj in simp.minimized_disjuncts(&neg, &Formula::True) {
                    checks.push(d.intern(&disj, &binding, &[], "requires"));
                }
            }
        }
        stmts.push(StmtAbstraction { form: form.clone(), checks, rules: Vec::new() });
    }
    d.stats.families_discovered.push(d.families.len());

    // Phase B (rules 2+3): WP of every family through every statement form.
    while let Some(fid) = d.pending.pop_front() {
        if d.families.len() > d.max_families {
            return Err(DeriveError::Budget { max_families: d.max_families });
        }
        for (idx, (_, class, method)) in forms.iter().enumerate() {
            let rules = d.rules_for(fid, class.as_ref(), method.as_ref())?;
            stmts[idx].rules.extend(rules);
        }
        d.stats.families_discovered.push(d.families.len());
    }

    WP_COMPUTATIONS.add(d.stats.wp_count as u64);
    WP_DISJUNCT_SPLITS.add(d.stats.candidates as u64);
    WP_EQUIV_CHECKS.add(d.stats.equiv_checks as u64);
    WP_FAMILIES.add(d.families.len() as u64);
    Ok(Derived::new(spec, d.families, stmts, d.stats))
}

type FormEntry = (StmtForm, Option<ClassSpec>, Option<MethodSpec>);

fn enumerate_forms(spec: &Spec) -> Vec<FormEntry> {
    let mut out = Vec::new();
    for c in spec.classes() {
        out.push((StmtForm::New { class: *c.name() }, Some(c.clone()), None));
        for m in c.methods() {
            if !m.is_ctor() {
                out.push((
                    StmtForm::Call { class: *c.name(), method: m.name().to_string() },
                    Some(c.clone()),
                    Some(m.clone()),
                ));
            }
        }
    }
    for ty in spec.client_facing_types() {
        out.push((StmtForm::Copy { ty }, None, None));
    }
    out
}

/// Builds the operand variables for a statement form (`rcv`, `a0…`, `lhs`).
fn operand_binding(
    spec: &Spec,
    class: Option<&ClassSpec>,
    method: Option<&MethodSpec>,
) -> OperandBinding {
    match (class, method) {
        (Some(c), Some(m)) => OperandBinding {
            recv: Some(Var::new("rcv", *c.name())),
            args: m
                .params()
                .iter()
                .enumerate()
                .map(|(k, (_, t))| Var::new(format!("a{k}"), *t))
                .collect(),
            lhs: m.ret_ty().map(|rt| Var::new("lhs", *rt)),
        },
        (Some(c), None) => {
            let ctor_params = c.ctor().map(|m| m.params().to_vec()).unwrap_or_default();
            OperandBinding {
                recv: None,
                args: ctor_params
                    .iter()
                    .enumerate()
                    .map(|(k, (_, t))| Var::new(format!("a{k}"), *t))
                    .collect(),
                lhs: Some(Var::new("lhs", *c.name())),
            }
        }
        (None, _) => {
            // Copy form: type filled in by the caller via rules_for
            let _ = spec;
            OperandBinding::default()
        }
    }
}

struct Deriver<'a> {
    spec: &'a Spec,
    oracle: &'a dyn TypeOracle,
    families: Vec<Family>,
    pending: VecDeque<FamilyId>,
    stats: DerivationStats,
    max_families: usize,
    conservative: bool,
    /// Memo of small-model equivalence verdicts, keyed by
    /// `(assumption, lhs, rhs)`. The oracle is fixed for the Deriver's
    /// lifetime, so verdicts never go stale. Statistics count *checks
    /// requested*, not models enumerated, and are incremented at the call
    /// sites — cache hits leave them unchanged.
    equiv_memo: HashMap<(Formula, Formula, Formula), bool>,
}

impl Deriver<'_> {
    /// [`models::equivalent`] through the per-derivation memo.
    fn equivalent_memo(&mut self, assumption: &Formula, f: &Formula, g: &Formula) -> bool {
        let key = (assumption.clone(), f.clone(), g.clone());
        if let Some(&v) = self.equiv_memo.get(&key) {
            WP_EQUIV_MEMO_HITS.incr();
            return v;
        }
        WP_EQUIV_MEMO_MISSES.incr();
        let v = models::equivalent(self.oracle, assumption, f, g);
        self.equiv_memo.insert(key, v);
        v
    }

    /// Derives the update rules for family `fid` through one statement form.
    // the expects encode form invariants established case-by-case in this
    // function (copy forms carry a parameter type, bound subsets bind an
    // lhs); they cannot be reached from malformed external input, which is
    // rejected during spec resolution
    #[allow(clippy::expect_used)]
    fn rules_for(
        &mut self,
        fid: FamilyId,
        class: Option<&ClassSpec>,
        method: Option<&MethodSpec>,
    ) -> Result<Vec<UpdateRule>, DeriveError> {
        let fam = self.families[fid.index()].clone();
        let mut out = Vec::new();

        // determine the copy type for Copy forms from the context
        let (form_is_copy, copy_ty) = match (class, method) {
            (None, None) => (true, None::<TypeName>),
            _ => (false, None),
        };
        let _ = copy_ty;

        // lhs type of this form, if results can be bound
        let lhs_ty: Option<TypeName> = match (class, method) {
            (Some(c), None) => Some(*c.name()),
            (Some(_), Some(m)) => m.ret_ty().cloned(),
            (None, None) => None, // determined per family param type below
            (None, Some(_)) => unreachable!(),
        };

        // enumerate binding subsets: positions of fam params assignable by lhs
        let candidate_positions: Vec<usize> = match (&lhs_ty, form_is_copy) {
            (_, true) => (0..fam.params().len()).collect(),
            (Some(t), _) => fam
                .params()
                .iter()
                .enumerate()
                .filter(|(_, p)| p.ty() == t)
                .map(|(k, _)| k)
                .collect(),
            (None, _) => Vec::new(),
        };

        for subset in subsets(&candidate_positions) {
            // for Copy forms, all bound positions must share one type
            let copy_param_ty: Option<TypeName> = if form_is_copy {
                match subset.first() {
                    None => continue, // a copy with no bound position is the identity
                    Some(&k0) => {
                        let t = *fam.params()[k0].ty();
                        if subset.iter().any(|&k| fam.params()[k].ty() != &t) {
                            continue;
                        }
                        Some(t)
                    }
                }
            } else {
                None
            };

            let lhs_var = if form_is_copy {
                Some(Var::new("lhs", copy_param_ty.expect("non-empty subset")))
            } else if subset.is_empty() {
                None
            } else {
                lhs_ty.map(|t| Var::new("lhs", t))
            };

            // instance vars for the family params
            let inst_vars: Vec<Var> = fam
                .params()
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    if subset.contains(&k) {
                        lhs_var.expect("bound subset implies lhs")
                    } else {
                        Var::new(format!("p{k}"), *p.ty())
                    }
                })
                .collect();
            let phi = fam.instantiate(&inst_vars);

            // operand binding for the statement
            let mut binding = if form_is_copy {
                let t = copy_param_ty.expect("copy has a type");
                OperandBinding { recv: None, args: vec![Var::new("a0", t)], lhs: lhs_var }
            } else {
                operand_binding(self.spec, class, method)
            };
            if !form_is_copy {
                binding.lhs = match (&lhs_var, class, method) {
                    // allocations always produce a value; method results are
                    // only relevant when a family slot binds to them
                    (_, Some(_), None) => Some(
                        lhs_var
                            .unwrap_or_else(|| Var::new("lhs", lhs_ty.expect("new has lhs type"))),
                    ),
                    (Some(x), _, _) => Some(*x),
                    (None, _, _) => None,
                };
            }

            let actions = if form_is_copy {
                client_stmt_actions(self.spec, None, None, &binding)
            } else {
                client_stmt_actions(self.spec, class, method, &binding)
            };
            self.stats.wp_count += 1;
            let wp = wp_through_actions(&phi, &actions);
            let assumption = match (class, method) {
                (Some(c), Some(m)) => bind_requires(c, m, &binding).unwrap_or(Formula::True),
                _ => Formula::True,
            };

            // identity → no rule (instances unchanged)
            if self.equivalent_memo(&assumption, &wp, &phi) {
                continue;
            }

            let simp = Simplifier::new(self.oracle);
            let disjuncts = simp.minimized_disjuncts(&wp, &assumption);
            let mut rhs = Vec::new();
            let mut is_true = false;
            for dj in &disjuncts {
                if *dj == Formula::True {
                    is_true = true;
                    break;
                }
            }
            if is_true {
                rhs.push(RuleRhs::Const(true));
            } else {
                for dj in &disjuncts {
                    self.stats.candidates += 1;
                    rhs.push(self.intern(dj, &binding, &inst_vars, fam.name()));
                }
            }
            if self.families.len() > self.max_families {
                return Err(DeriveError::Budget { max_families: self.max_families });
            }

            let target_args: Vec<RuleVar> = (0..fam.params().len())
                .map(|k| if subset.contains(&k) { RuleVar::Lhs } else { RuleVar::Univ(k) })
                .collect();
            out.push(UpdateRule { family: fid, target_args, rhs });
        }
        Ok(out)
    }

    /// Finds or creates the family a candidate disjunct belongs to, and
    /// returns the instance over rule variables.
    fn intern(
        &mut self,
        candidate: &Formula,
        binding: &OperandBinding,
        inst_vars: &[Var],
        origin: &str,
    ) -> RuleRhs {
        // constants
        if self.equivalent_memo(&Formula::True, candidate, &Formula::True) {
            return RuleRhs::Const(true);
        }
        if self.equivalent_memo(&Formula::True, candidate, &Formula::False) {
            return RuleRhs::Const(false);
        }

        let mut fv: Vec<Var> = candidate.free_vars().into_iter().collect();
        fv.sort_by(|a, b| (a.ty(), a.name()).cmp(&(b.ty(), b.name())));

        // try existing families
        for g in 0..self.families.len() {
            if self.families[g].params().len() != fv.len() {
                continue;
            }
            for perm in permutations(fv.len()) {
                // type check the bijection: fam.param[k] ↦ fv[perm[k]]
                if !(0..fv.len()).all(|k| self.families[g].params()[k].ty() == fv[perm[k]].ty()) {
                    continue;
                }
                self.stats.equiv_checks += 1;
                let args: Vec<Var> = perm.iter().map(|&j| fv[j]).collect();
                let inst = self.families[g].instantiate(&args);
                if self.equivalent_memo(&Formula::True, &inst, candidate) {
                    let rule_args =
                        args.iter().map(|v| self.to_rule_var(v, binding, inst_vars)).collect();
                    return RuleRhs::Inst(self.families[g].id(), rule_args);
                }
            }
        }

        // new family, unless the budget is spent (conservative mode) or the
        // ids are (2^32 families, past any budget a process can hold)
        let spent = self.conservative && self.families.len() >= self.max_families;
        let Some(id) = PredId::from_index(self.families.len()).filter(|_| !spent) else {
            self.stats.unknown_rhs += 1;
            return RuleRhs::Unknown;
        };
        let params: Vec<Var> =
            fv.iter().enumerate().map(|(k, v)| Var::new(format!("x{k}"), *v.ty())).collect();
        let formula = candidate.rename_vars(&|v| match fv.iter().position(|w| w == v) {
            Some(k) => params[k],
            None => *v,
        });
        let name = self.pick_name(&formula, &params);
        let mutable_dep = formula_reads_mutable(self.spec, &formula);
        self.families.push(Family::new(
            id,
            name,
            params,
            formula,
            mutable_dep,
            format!("from {origin}"),
        ));
        self.pending.push_back(id);
        let rule_args = fv.iter().map(|v| self.to_rule_var(v, binding, inst_vars)).collect();
        RuleRhs::Inst(id, rule_args)
    }

    fn to_rule_var(&self, v: &Var, binding: &OperandBinding, inst_vars: &[Var]) -> RuleVar {
        if binding.lhs.as_ref() == Some(v) {
            return RuleVar::Lhs;
        }
        if binding.recv.as_ref() == Some(v) {
            return RuleVar::Recv;
        }
        if let Some(k) = binding.args.iter().position(|a| a == v) {
            return RuleVar::Arg(k);
        }
        if let Some(k) = inst_vars.iter().position(|p| p == v) {
            return RuleVar::Univ(k);
        }
        unreachable!("free variable {v} not among statement operands or family params")
    }

    /// Names a family after the classic shapes when recognisable.
    fn pick_name(&self, formula: &Formula, params: &[Var]) -> String {
        let base = nickname(formula, params).unwrap_or_else(|| format!("q{}", self.families.len()));
        let mut name = base.clone();
        let mut k = 2;
        while self.families.iter().any(|f| f.name() == name) {
            name = format!("{base}{k}");
            k += 1;
        }
        name
    }
}

/// All subsets of `positions` (including the empty one), deterministic order.
fn subsets(positions: &[usize]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for &p in positions {
        let mut more: Vec<Vec<usize>> = out
            .iter()
            .map(|s| {
                let mut t = s.clone();
                t.push(p);
                t
            })
            .collect();
        out.append(&mut more);
    }
    out
}

/// All permutations of `0..n` (n ≤ 4 in practice).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for k in 0..n {
            let mut p = rest.clone();
            p.insert(k, n - 1);
            out.push(p);
        }
    }
    out
}

/// Whether a formula reads a field that the specification mutates after
/// construction.
fn formula_reads_mutable(spec: &Spec, formula: &Formula) -> bool {
    let mutable = mutable_fields(spec);
    let mut found = false;
    formula.visit_terms(&mut |t| {
        if let Term::Path(p) = t {
            let mut ty = *p.base().ty();
            for f in p.fields() {
                if mutable.contains(&(ty, FieldId(*f))) {
                    found = true;
                }
                match spec.field_type(&ty, f) {
                    Some(next) => ty = next,
                    None => break,
                }
            }
        }
    });
    found
}

/// The set of `(owner type, field)` pairs assigned outside construction.
// assignment paths always end in a field: enforced by the EASL parser
#[allow(clippy::expect_used)]
pub(crate) fn mutable_fields(spec: &Spec) -> std::collections::HashSet<(TypeName, FieldId)> {
    let mut out = std::collections::HashSet::new();
    for class in spec.classes() {
        for m in class.methods() {
            for stmt in m.body() {
                let canvas_easl::SpecStmt::Assign { lhs, .. } = stmt;
                let construction = m.is_ctor()
                    && lhs.fields().len() == 1
                    && lhs.base() == canvas_easl::SpecVar::This;
                if construction {
                    continue;
                }
                // type of the parent of the written path
                let path = lhs.to_access_path(m, class);
                let mut ty = *path.base().ty();
                for f in &path.fields()[..path.fields().len() - 1] {
                    match spec.field_type(&ty, f) {
                        Some(next) => ty = next,
                        None => break,
                    }
                }
                let field = FieldId(*path.fields().last().expect("assignments target fields"));
                out.insert((ty, field));
            }
        }
    }
    out
}

/// Recognises the classic family shapes for readable names.
fn nickname(formula: &Formula, params: &[Var]) -> Option<String> {
    let dnf = formula.to_dnf_cached();
    if dnf.conjuncts().len() != 1 {
        return None;
    }
    let lits: Vec<_> = dnf.conjuncts()[0].iter().collect();
    let path_depths = |l: &canvas_logic::Literal| -> Option<(usize, usize)> {
        match (l.lhs(), l.rhs()) {
            (Term::Path(a), Term::Path(b)) => Some((a.depth(), b.depth())),
            _ => None,
        }
    };
    match (params.len(), lits.len()) {
        (1, 1) => {
            let l = lits[0];
            let (da, db) = path_depths(l)?;
            if !l.is_positive() && da >= 1 && db >= 1 {
                return Some("stale".to_string());
            }
            None
        }
        (2, 1) => {
            let l = lits[0];
            let (da, db) = path_depths(l)?;
            match (l.is_positive(), da.min(db), da.max(db)) {
                (true, 0, 0) => Some("same".to_string()),
                (false, 0, 0) => Some("diff".to_string()),
                (true, 0, _) => Some("iterof".to_string()),
                (false, 0, _) => Some("mismatch".to_string()),
                _ => None,
            }
        }
        (2, 2) => {
            // x0.f == x1.f && x0 != x1
            let mut has_field_eq = false;
            let mut has_var_ne = false;
            for l in &lits {
                let (da, db) = path_depths(l)?;
                if l.is_positive() && da >= 1 && db >= 1 {
                    has_field_eq = true;
                }
                if !l.is_positive() && da == 0 && db == 0 {
                    has_var_ne = true;
                }
            }
            (has_field_eq && has_var_ne).then(|| "mutx".to_string())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_easl::builtin;

    #[test]
    fn cmp_derives_the_four_families() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let names: Vec<&str> = d.families().iter().map(|f| f.name()).collect();
        assert_eq!(names, ["stale", "iterof", "mutx", "same"], "{:#?}", d.families());
        // arities match Fig. 4
        assert_eq!(d.family(FamilyId::new(0)).params().len(), 1);
        assert_eq!(d.family(FamilyId::new(1)).params().len(), 2);
        assert_eq!(d.family(FamilyId::new(2)).params().len(), 2);
        assert_eq!(d.family(FamilyId::new(3)).params().len(), 2);
        // stale depends on the mutable version fields, the others do not
        assert!(d.family(FamilyId::new(0)).mutable_dep());
        assert!(!d.family(FamilyId::new(1)).mutable_dep());
        assert!(!d.family(FamilyId::new(2)).mutable_dep());
        assert!(!d.family(FamilyId::new(3)).mutable_dep());
    }

    #[test]
    fn cmp_add_rule_matches_fig5() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let add = d.for_call(&TypeName::new("Set"), "add").unwrap();
        // stalek := stalek ∨ iterof(k, v)   ∀k
        let stale = FamilyId::new(0);
        let rule = add.rule_for(stale, &[]).expect("add updates stale");
        assert_eq!(rule.target_args, vec![RuleVar::Univ(0)]);
        assert_eq!(rule.rhs.len(), 2);
        assert!(rule.rhs.contains(&RuleRhs::Inst(stale, vec![RuleVar::Univ(0)])));
        // the other disjunct is iterof(k, rcv) (argument order per family)
        assert!(rule
            .rhs
            .iter()
            .any(|r| matches!(r, RuleRhs::Inst(f, args) if f.index() == 1 && args.contains(&RuleVar::Recv))));
        // add has no requires
        assert!(add.checks.is_empty());
    }

    #[test]
    fn cmp_next_checks_stale_receiver() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let next = d.for_call(&TypeName::new("Iterator"), "next").unwrap();
        assert_eq!(next.checks, vec![RuleRhs::Inst(FamilyId::new(0), vec![RuleVar::Recv])]);
        // next has no updates at all
        assert!(next.rules.is_empty());
    }

    #[test]
    fn cmp_iterator_rules() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let it = d.for_call(&TypeName::new("Set"), "iterator").unwrap();
        // bound case: stale(lhs) := 0
        let r = it.rule_for(FamilyId::new(0), &[0]).expect("iterator resets stale of its result");
        assert_eq!(r.rhs, Vec::new());
        // bound case: iterof(lhs, z) := same(rcv, z)
        let r = it.rule_for(FamilyId::new(1), &[0]).expect("iterator sets iterof of its result");
        assert_eq!(r.rhs.len(), 1);
        assert!(matches!(&r.rhs[0], RuleRhs::Inst(f, _) if f.index() == 3));
        // unbound stale is untouched by iterator()
        assert!(it.rule_for(FamilyId::new(0), &[]).is_none());
    }

    #[test]
    fn cmp_remove_updates_via_mutx() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let rm = d.for_call(&TypeName::new("Iterator"), "remove").unwrap();
        assert_eq!(rm.checks, vec![RuleRhs::Inst(FamilyId::new(0), vec![RuleVar::Recv])]);
        let r =
            rm.rule_for(FamilyId::new(0), &[]).expect("remove stales mutually-excluded iterators");
        assert!(r.rhs.contains(&RuleRhs::Inst(FamilyId::new(0), vec![RuleVar::Univ(0)])));
        assert!(r
            .rhs
            .iter()
            .any(|x| matches!(x, RuleRhs::Inst(f, args) if f.index() == 2 && args.contains(&RuleVar::Recv))));
    }

    #[test]
    fn cmp_copy_rules() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let cp = d.for_copy(&TypeName::new("Iterator")).unwrap();
        // stale(lhs) := stale(src)
        let r = cp.rule_for(FamilyId::new(0), &[0]).unwrap();
        assert_eq!(r.rhs, vec![RuleRhs::Inst(FamilyId::new(0), vec![RuleVar::Arg(0)])]);
        // mutx(lhs, z) := mutx(src, z)
        let r = cp.rule_for(FamilyId::new(2), &[0]).unwrap();
        assert_eq!(r.rhs.len(), 1);
    }

    #[test]
    fn grp_imp_aop_derive_finitely() {
        for spec in builtin::all() {
            let d = derive_abstraction(&spec).unwrap_or_else(|e| {
                panic!("{} failed to derive: {e}", spec.name());
            });
            assert!(
                d.families().len() <= 6,
                "{} derived too many families: {:#?}",
                spec.name(),
                d.families()
            );
            assert!(!d.families().is_empty(), "{}", spec.name());
        }
    }

    #[test]
    fn unbounded_spec_exhausts_budget() {
        let spec = builtin::unbounded();
        let err = derive_with_budget(&spec, 8).unwrap_err();
        assert!(matches!(err, DeriveError::Budget { max_families: 8 }));
    }

    #[test]
    fn stats_recorded() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        assert!(d.stats().wp_count > 0);
        assert!(d.stats().equiv_checks > 0);
        assert_eq!(*d.stats().families_discovered.last().unwrap(), 4);
    }

    #[test]
    fn family_display_and_instantiate() {
        let spec = builtin::cmp();
        let d = derive_abstraction(&spec).unwrap();
        let stale = d.family(FamilyId::new(0));
        assert!(stale.to_string().starts_with("stale(x0: Iterator)"));
        let i1 = Var::new("i1", TypeName::new("Iterator"));
        let inst = stale.instantiate(&[i1]);
        assert_eq!(inst.to_string(), "i1.defVer != i1.set.ver");
    }
}

#[cfg(test)]
mod conservative_tests {
    use super::*;
    use canvas_easl::builtin;

    #[test]
    fn conservative_derivation_never_fails() {
        let spec = builtin::unbounded();
        let d = derive_conservative(&spec, 4).expect("conservative derivation succeeds");
        assert!(d.stats().unknown_rhs > 0, "budget pressure must show up");
        assert!(d.families().len() <= 5);
        // the requires check itself is still expressible
        let push = d.for_call(&TypeName::new("Cell"), "use").expect("use abstraction");
        assert!(!push.checks.is_empty());
    }

    #[test]
    fn conservative_equals_strict_when_budget_suffices() {
        let spec = builtin::cmp();
        let strict = derive_abstraction(&spec).unwrap();
        let cons = derive_conservative(&spec, 64).unwrap();
        assert_eq!(strict, cons);
        assert_eq!(cons.stats().unknown_rhs, 0);
    }
}
