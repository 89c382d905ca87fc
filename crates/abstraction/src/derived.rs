//! The data model of a derived abstraction (paper Fig. 4 and Fig. 5).
//!
//! These types describe *what* a derivation produced — instrumentation
//! predicate families and per-statement-form update rules — without any of
//! the machinery that produces them. The weakest-precondition derivation
//! procedure lives in `canvas-wp` and constructs [`Derived`] values; this
//! crate (and the trusted certificate checker built on it) only consumes
//! them. Keeping the data model here means the checker's trusted base
//! includes the *meaning* of an abstraction but not the (much larger,
//! unproven-in-code) derivation engine.

use std::collections::HashMap;
use std::fmt;

use canvas_easl::Spec;
use canvas_logic::{Formula, ModelEnv, PredId, TypeName, Var};

use crate::certificate::Digest;

/// Identifier of a [`Family`] in [`Derived::families`].
///
/// Family ids are dense [`PredId`]s: `id.index()` is the family's position
/// in discovery order, which downstream crates exploit for `Vec`-indexed
/// tables instead of hash maps.
pub type FamilyId = PredId;

/// An instrumentation-predicate family (paper Fig. 4): a named formula with
/// typed canonical parameters. Client analysis instantiates a family once
/// per type-correct tuple of client variables (or fields, for HCMP).
#[derive(Clone, PartialEq, Debug)]
pub struct Family {
    id: FamilyId,
    name: String,
    params: Vec<Var>,
    formula: Formula,
    mutable_dep: bool,
    origin: String,
}

impl Family {
    /// Assembles a family. Called by the derivation procedure; client-side
    /// code only reads families back out of a [`Derived`].
    pub fn new(
        id: FamilyId,
        name: String,
        params: Vec<Var>,
        formula: Formula,
        mutable_dep: bool,
        origin: String,
    ) -> Family {
        Family { id, name, params, formula, mutable_dep, origin }
    }

    /// The family's id.
    pub fn id(&self) -> FamilyId {
        self.id
    }

    /// A readable name (`stale`, `iterof`, … for the classic shapes,
    /// `q<N>` otherwise).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical typed parameters.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// The defining formula over [`Family::params`].
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// Whether the defining formula reads any *mutable* component field.
    ///
    /// Instances of families with `mutable_dep() == false` cannot be changed
    /// by component calls on unrelated receivers or by unknown client code
    /// (their value depends only on construction-time structure), which the
    /// interprocedural analysis exploits.
    pub fn mutable_dep(&self) -> bool {
        self.mutable_dep
    }

    /// Where the family came from (diagnostics).
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// The formula with parameters renamed to `args` (parallel to params).
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != params.len()`.
    pub fn instantiate(&self, args: &[Var]) -> Formula {
        assert_eq!(args.len(), self.params.len(), "family arity mismatch");
        self.formula.rename_vars(&|v| match self.params.iter().position(|p| p == v) {
            Some(k) => args[k],
            None => *v,
        })
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (k, p) in self.params.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", p.name(), p.ty())?;
        }
        write!(f, ") ≡ {}", self.formula)
    }
}

/// A client-visible statement form the abstraction provides rules for.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StmtForm {
    /// `x = new C(args)`.
    New {
        /// The allocated component class.
        class: TypeName,
    },
    /// `[x =] y.m(args)`.
    Call {
        /// The receiver's component class.
        class: TypeName,
        /// The method name.
        method: String,
    },
    /// `x = y` between two component references of the same type.
    Copy {
        /// The copied reference type.
        ty: TypeName,
    },
}

impl fmt::Display for StmtForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StmtForm::New { class } => write!(f, "x = new {class}(...)"),
            StmtForm::Call { class, method } => write!(f, "[x =] y<{class}>.{method}(...)"),
            StmtForm::Copy { ty } => write!(f, "x = y  ({ty})"),
        }
    }
}

/// A variable slot in an update rule, resolved against a concrete client
/// statement at instantiation time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleVar {
    /// The call receiver.
    Recv,
    /// The k-th argument.
    Arg(usize),
    /// The client variable the result is assigned to.
    Lhs,
    /// The k-th parameter of the *target* family, universally quantified
    /// over client variables of its type (the paper's `∀z ∈ V` macros).
    Univ(usize),
}

/// One disjunct of an update rule's right-hand side.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuleRhs {
    /// A constant.
    Const(bool),
    /// An instance of a family over rule variables.
    Inst(FamilyId, Vec<RuleVar>),
    /// Unknown value — emitted only by *conservative* derivation (§4.5)
    /// when the family budget is exhausted: the target may become anything.
    Unknown,
}

/// An update rule `target := rhs₁ ∨ … ∨ rhsₖ` (empty rhs means `:= 0`),
/// applying to instances of the target family whose `Lhs` positions hold the
/// statement's assigned variable. Families/positions without a rule are
/// unchanged by the statement.
#[derive(Clone, PartialEq, Debug)]
pub struct UpdateRule {
    /// Target family.
    pub family: FamilyId,
    /// Target argument slots (`Lhs` and `Univ` only).
    pub target_args: Vec<RuleVar>,
    /// Right-hand-side disjuncts (values read in the pre-state).
    pub rhs: Vec<RuleRhs>,
}

/// A precondition check at a statement form: the call may violate its
/// `requires` iff some disjunct may be true.
pub type CheckInst = RuleRhs;

/// The abstraction of one statement form: its precondition checks and its
/// predicate update rules (the machine form of the paper's Fig. 5 rows).
#[derive(Clone, PartialEq, Debug)]
pub struct StmtAbstraction {
    /// The statement form.
    pub form: StmtForm,
    /// Disjuncts of the negated `requires` (empty = no precondition).
    pub checks: Vec<CheckInst>,
    /// Update rules.
    pub rules: Vec<UpdateRule>,
}

impl StmtAbstraction {
    /// The rule whose target binds exactly `bound` parameter positions to
    /// the statement's assigned variable.
    pub fn rule_for(&self, family: FamilyId, bound: &[usize]) -> Option<&UpdateRule> {
        self.rules.iter().find(|r| {
            r.family == family
                && r.target_args.iter().enumerate().all(|(k, a)| match a {
                    RuleVar::Lhs => bound.contains(&k),
                    _ => !bound.contains(&k),
                })
        })
    }
}

/// Convergence statistics of the derivation (experiment E1/E8).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DerivationStats {
    /// Number of WP computations performed.
    pub wp_count: usize,
    /// Number of candidate disjuncts examined.
    pub candidates: usize,
    /// Number of family-equivalence checks.
    pub equiv_checks: usize,
    /// `families_discovered[r]` = number of families known after processing
    /// the r-th worklist item (round 0 = after seeding from `requires`).
    pub families_discovered: Vec<usize>,
    /// Number of update disjuncts degraded to [`RuleRhs::Unknown`] because
    /// the family budget was exhausted (0 for converging derivations).
    pub unknown_rhs: usize,
}

/// The result of abstraction derivation for one specification.
#[derive(Clone, PartialEq, Debug)]
pub struct Derived {
    spec_name: String,
    families: Vec<Family>,
    stmts: Vec<StmtAbstraction>,
    stats: DerivationStats,
    // computed once here from the private fields above, which never change:
    // the digest, the constant repeat patterns of each family, and the
    // statement abstractions by form
    digest: u64,
    constancy: Vec<Vec<(Vec<usize>, bool)>>,
    forms: HashMap<TypeName, ClassForms>,
}

/// Indices into [`Derived::stmt_abstractions`] of one class's forms.
#[derive(Clone, PartialEq, Debug, Default)]
struct ClassForms {
    new: Option<usize>,
    copy: Option<usize>,
    calls: HashMap<String, usize>,
}

impl Derived {
    /// Assembles a derived abstraction for `spec`. Called by the derivation
    /// procedure.
    ///
    /// Decides here, once, which repeat patterns make each family's
    /// instances constant (see [`Derived::constant_instance`]); `spec`
    /// supplies the field types for those decisions.
    pub fn new(
        spec: &Spec,
        families: Vec<Family>,
        stmts: Vec<StmtAbstraction>,
        stats: DerivationStats,
    ) -> Derived {
        let spec_name = spec.name().to_string();
        // the `Debug` forms are deterministic
        let mut h = Digest::new();
        h.write_str(&spec_name);
        h.write_str(&format!("{families:?}"));
        h.write_str(&format!("{stmts:?}"));
        let constancy = families.iter().map(|f| constant_patterns(f, spec)).collect();
        let mut forms: HashMap<TypeName, ClassForms> = HashMap::new();
        for (k, s) in stmts.iter().enumerate() {
            // the first abstraction of a form wins, as a scan would find it
            match &s.form {
                StmtForm::New { class } => {
                    forms.entry(*class).or_default().new.get_or_insert(k);
                }
                StmtForm::Copy { ty } => {
                    forms.entry(*ty).or_default().copy.get_or_insert(k);
                }
                StmtForm::Call { class, method } => {
                    forms.entry(*class).or_default().calls.entry(method.clone()).or_insert(k);
                }
            }
        }
        Derived { spec_name, families, stmts, stats, digest: h.finish(), constancy, forms }
    }

    /// The digest behind [`crate::certificate::derived_digest`].
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// The specification this abstraction was derived from.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// All derived families, in discovery order.
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// A family by id.
    pub fn family(&self, id: FamilyId) -> &Family {
        &self.families[id.index()]
    }

    /// All statement abstractions.
    pub fn stmt_abstractions(&self) -> &[StmtAbstraction] {
        &self.stmts
    }

    /// The abstraction for `[x =] y.m(args)`.
    pub fn for_call(&self, class: &TypeName, method: &str) -> Option<&StmtAbstraction> {
        Some(&self.stmts[*self.forms.get(class)?.calls.get(method)?])
    }

    /// The abstraction for `x = new C(args)`.
    pub fn for_new(&self, class: &TypeName) -> Option<&StmtAbstraction> {
        Some(&self.stmts[self.forms.get(class)?.new?])
    }

    /// The abstraction for `x = y` at type `ty`.
    pub fn for_copy(&self, ty: &TypeName) -> Option<&StmtAbstraction> {
        Some(&self.stmts[self.forms.get(ty)?.copy?])
    }

    /// The constant value of `family`'s instances whose arguments repeat as
    /// `args` do (`mutx(x,x) ≡ 0`, `same(v,v) ≡ 1`), or `None` when such
    /// instances are not constant.
    ///
    /// Only the repeat pattern of `args` matters: `args` may be client
    /// variables, or a pattern itself such as `[0, 0, 1]`. Patterns that
    /// repeat parameters of different types match no instance and answer
    /// `None`.
    pub fn constant_instance<T: PartialEq>(&self, family: FamilyId, args: &[T]) -> Option<bool> {
        self.constancy[family.index()]
            .iter()
            .find(|(pattern, _)| same_repeats(pattern, args))
            .map(|&(_, c)| c)
    }

    /// Derivation statistics.
    pub fn stats(&self) -> &DerivationStats {
        &self.stats
    }
}

/// Every repeat pattern of `family`'s parameters whose instances are
/// constant, with that constant. A pattern is a restricted-growth string
/// (`(a,a,b)` → `[0,0,1]`) and only repeats parameters of one type, since
/// an instance binds each parameter to a variable of its type.
fn constant_patterns(family: &Family, spec: &Spec) -> Vec<(Vec<usize>, bool)> {
    let oracle = spec.oracle();
    let params = family.params();
    let mut out = Vec::new();
    for pattern in repeat_patterns(params) {
        // instantiate with one canonical variable per class
        let args: Vec<Var> =
            params.iter().zip(&pattern).map(|(p, k)| Var::new(format!("c{k}"), *p.ty())).collect();
        let inst = family.instantiate(&args);
        // one model set serves both questions: `models::equivalent(.., inst,
        // True)` and `(.., inst, False)` enumerate over exactly these paths
        let env = ModelEnv::new([&inst], &oracle);
        if env.equivalent_under(&Formula::True, &inst, &Formula::True) {
            out.push((pattern, true));
        } else if env.equivalent_under(&Formula::True, &inst, &Formula::False) {
            out.push((pattern, false));
        }
    }
    out
}

/// The type-compatible repeat patterns of `params`, in lexicographic order.
fn repeat_patterns(params: &[Var]) -> Vec<Vec<usize>> {
    fn extend(params: &[Var], pattern: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let k = pattern.len();
        if k == params.len() {
            out.push(pattern.clone());
            return;
        }
        let classes = pattern.iter().max().map_or(0, |m| m + 1);
        for c in 0..=classes {
            // a class is named by its first member's position
            let first = pattern.iter().position(|&q| q == c);
            if first.is_none_or(|f| params[f].ty() == params[k].ty()) {
                pattern.push(c);
                extend(params, pattern, out);
                pattern.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(params, &mut Vec::with_capacity(params.len()), &mut out);
    out
}

/// Whether `args` repeats exactly where `pattern` does.
fn same_repeats<T: PartialEq>(pattern: &[usize], args: &[T]) -> bool {
    pattern.len() == args.len()
        && (0..args.len())
            .all(|j| (0..j).all(|i| (pattern[i] == pattern[j]) == (args[i] == args[j])))
}
