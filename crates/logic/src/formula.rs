//! Quantifier-free formulas over term equalities, with DNF normalization.

use std::collections::BTreeSet;
use std::fmt;

use crate::{Term, Var};

/// A quantifier-free formula over equalities of [`Term`]s.
///
/// This is the assertion language of EASL `requires` clauses and the working
/// representation of the weakest-precondition engine. Conjunction and
/// disjunction are n-ary to keep normalization cheap and displays readable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// Term equality `t1 == t2`.
    Eq(Term, Term),
    /// Term disequality `t1 != t2`.
    Ne(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction; `And(vec![])` is `true`.
    And(Vec<Formula>),
    /// N-ary disjunction; `Or(vec![])` is `false`.
    Or(Vec<Formula>),
}

impl Formula {
    /// Builds `lhs == rhs`.
    pub fn eq(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Formula {
        Formula::Eq(lhs.into(), rhs.into())
    }

    /// Builds `lhs != rhs`.
    pub fn ne(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Formula {
        Formula::Ne(lhs.into(), rhs.into())
    }

    /// Builds the conjunction of `fs`, flattening nested conjunctions and
    /// folding constants.
    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() > 1 {
            return Formula::And(out);
        }
        out.pop().unwrap_or(Formula::True)
    }

    /// Builds the disjunction of `fs`, flattening nested disjunctions and
    /// folding constants.
    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() > 1 {
            return Formula::Or(out);
        }
        out.pop().unwrap_or(Formula::False)
    }

    /// Builds the negation of `f`, folding constants and double negation.
    #[allow(clippy::should_implement_trait)] // constructor-style, like `and`/`or`
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Eq(a, b) => Formula::Ne(a, b),
            Formula::Ne(a, b) => Formula::Eq(a, b),
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// `cond ? then : els` encoded as `(cond ∧ then) ∨ (¬cond ∧ els)`.
    ///
    /// This is the shape weakest preconditions of conditional heap effects
    /// take ("if the receiver aliases the path, the value is the new one").
    pub fn ite(cond: Formula, then: Formula, els: Formula) -> Formula {
        Formula::or([Formula::and([cond.clone(), then]), Formula::and([Formula::not(cond), els])])
    }

    /// All free variables (base variables of every path occurring anywhere).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.visit_terms(&mut |t| {
            if let Term::Path(p) = t {
                out.insert(*p.base());
            }
        });
        out
    }

    /// Visits every term in the formula.
    pub fn visit_terms(&self, f: &mut impl FnMut(&Term)) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Eq(a, b) | Formula::Ne(a, b) => {
                f(a);
                f(b);
            }
            Formula::Not(inner) => inner.visit_terms(f),
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    g.visit_terms(f);
                }
            }
        }
    }

    /// Rewrites every term in the formula.
    #[must_use]
    pub fn map_terms(&self, f: &mut impl FnMut(&Term) -> Term) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Eq(a, b) => Formula::Eq(f(a), f(b)),
            Formula::Ne(a, b) => Formula::Ne(f(a), f(b)),
            Formula::Not(inner) => Formula::not(inner.map_terms(f)),
            Formula::And(fs) => Formula::and(fs.iter().map(|g| g.map_terms(f))),
            Formula::Or(fs) => Formula::or(fs.iter().map(|g| g.map_terms(f))),
        }
    }

    /// Renames free variables according to `f` (applied to path bases).
    #[must_use]
    pub fn rename_vars(&self, f: &impl Fn(&Var) -> Var) -> Formula {
        self.map_terms(&mut |t| match t {
            Term::Path(p) => {
                let mut q = p.clone();
                let new_base = f(p.base());
                if &new_base != p.base() {
                    q = crate::AccessPath::of(new_base);
                    for fld in p.fields() {
                        q = q.field(*fld);
                    }
                }
                Term::Path(q)
            }
            Term::Alloc(a) => Term::Alloc(a.clone()),
        })
    }

    /// Evaluates the formula under an equality oracle for terms.
    ///
    /// The oracle must be an equivalence relation for the result to be
    /// meaningful; this is used by the model enumerator and by tests.
    pub fn eval(&self, eq: &impl Fn(&Term, &Term) -> bool) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Eq(a, b) => eq(a, b),
            Formula::Ne(a, b) => !eq(a, b),
            Formula::Not(inner) => !inner.eval(eq),
            Formula::And(fs) => fs.iter().all(|f| f.eval(eq)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(eq)),
        }
    }

    /// Converts to disjunctive normal form with literal-level simplification.
    pub fn to_dnf(&self) -> Dnf {
        Dnf::from_formula(self)
    }

    /// [`Formula::to_dnf`] through a thread-local memo table.
    ///
    /// The derivation fixpoint canonicalises the same weakest-precondition
    /// formulas over and over (once per candidate binding per worklist
    /// round); the distribution step is exponential in the worst case, so
    /// the repeat conversions dominate. The cache is bounded: it is cleared
    /// wholesale when it exceeds a few thousand entries, which no single
    /// derivation comes near.
    pub fn to_dnf_cached(&self) -> Dnf {
        use std::cell::RefCell;
        use std::collections::HashMap;
        const CACHE_CAP: usize = 8192;
        // thread-local cache ⇒ hit ratios depend on which thread ran which
        // job, so the counters are recorded but never baseline-gated
        static DNF_CACHE_HITS: canvas_telemetry::Counter =
            canvas_telemetry::Counter::non_deterministic("logic.dnf_cache_hits");
        static DNF_CACHE_MISSES: canvas_telemetry::Counter =
            canvas_telemetry::Counter::non_deterministic("logic.dnf_cache_misses");
        thread_local! {
            static CACHE: RefCell<HashMap<Formula, Dnf>> = RefCell::new(HashMap::new());
        }
        CACHE.with(|cache| {
            if let Some(d) = cache.borrow().get(self) {
                DNF_CACHE_HITS.incr();
                return d.clone();
            }
            DNF_CACHE_MISSES.incr();
            let d = Dnf::from_formula(self);
            let mut cache = cache.borrow_mut();
            if cache.len() >= CACHE_CAP {
                cache.clear();
            }
            cache.insert(self.clone(), d.clone());
            d
        })
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(g: &Formula) -> u8 {
            match g {
                Formula::Or(_) => 0,
                Formula::And(_) => 1,
                _ => 2,
            }
        }
        fn show(g: &Formula, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let p = prec(g);
            let paren = p < parent;
            if paren {
                f.write_str("(")?;
            }
            match g {
                Formula::True => f.write_str("true")?,
                Formula::False => f.write_str("false")?,
                Formula::Eq(a, b) => write!(f, "{a} == {b}")?,
                Formula::Ne(a, b) => write!(f, "{a} != {b}")?,
                Formula::Not(inner) => {
                    f.write_str("!")?;
                    show(inner, 2, f)?;
                }
                Formula::And(fs) => {
                    for (k, g2) in fs.iter().enumerate() {
                        if k > 0 {
                            f.write_str(" && ")?;
                        }
                        show(g2, 2, f)?;
                    }
                }
                Formula::Or(fs) => {
                    for (k, g2) in fs.iter().enumerate() {
                        if k > 0 {
                            f.write_str(" || ")?;
                        }
                        show(g2, 1, f)?;
                    }
                }
            }
            if paren {
                f.write_str(")")?;
            }
            Ok(())
        }
        show(self, 0, f)
    }
}

/// A literal: a possibly negated equality with canonically ordered operands.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Literal {
    positive: bool,
    lhs: Term,
    rhs: Term,
}

impl Literal {
    /// Creates a literal, normalizing operand order. Returns `Ok(lit)` or the
    /// constant value if the literal folds (e.g. `t == t`, freshness).
    ///
    /// Folding rules (see [`crate::AllocToken`] for the freshness semantics):
    /// `t == t → true`; `alloc(a) == alloc(b) → a == b`; an allocation token
    /// never equals a path.
    pub fn new(positive: bool, lhs: Term, rhs: Term) -> Result<Literal, bool> {
        let truth = match (&lhs, &rhs) {
            _ if lhs == rhs => Some(true),
            (Term::Alloc(a), Term::Alloc(b)) => Some(a == b),
            (Term::Alloc(_), Term::Path(_)) | (Term::Path(_), Term::Alloc(_)) => Some(false),
            _ => None,
        };
        if let Some(t) = truth {
            return Err(if positive { t } else { !t });
        }
        let (lhs, rhs) = if lhs <= rhs { (lhs, rhs) } else { (rhs, lhs) };
        Ok(Literal { positive, lhs, rhs })
    }

    /// Whether the literal is an equality (not a disequality).
    pub fn is_positive(&self) -> bool {
        self.positive
    }

    /// Left operand (canonically the smaller term).
    pub fn lhs(&self) -> &Term {
        &self.lhs
    }

    /// Right operand.
    pub fn rhs(&self) -> &Term {
        &self.rhs
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(&self) -> Literal {
        Literal { positive: !self.positive, lhs: self.lhs.clone(), rhs: self.rhs.clone() }
    }

    /// Converts back to a [`Formula`].
    pub fn to_formula(&self) -> Formula {
        if self.positive {
            Formula::Eq(self.lhs.clone(), self.rhs.clone())
        } else {
            Formula::Ne(self.lhs.clone(), self.rhs.clone())
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.positive { "==" } else { "!=" };
        write!(f, "{} {op} {}", self.lhs, self.rhs)
    }
}

/// A formula in disjunctive normal form: a set of conjunctions of literals.
///
/// The empty disjunction is `false`; an empty conjunction is `true`.
/// Syntactic simplifications applied: literal folding, duplicate and
/// complementary literal elimination within a conjunct, duplicate and
/// subsumed conjunct elimination.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Dnf {
    conjuncts: Vec<BTreeSet<Literal>>,
}

impl Dnf {
    /// The constant `false`.
    pub fn fals() -> Dnf {
        Dnf { conjuncts: Vec::new() }
    }

    /// The constant `true`.
    pub fn tru() -> Dnf {
        Dnf { conjuncts: vec![BTreeSet::new()] }
    }

    /// Converts an arbitrary formula.
    pub fn from_formula(f: &Formula) -> Dnf {
        let nnf = nnf(f, false);
        let raw = distribute(&nnf);
        let mut out = Dnf { conjuncts: Vec::new() };
        'conj: for c in raw {
            let mut set: BTreeSet<Literal> = BTreeSet::new();
            for (pos, a, b) in c {
                match Literal::new(pos, a, b) {
                    Ok(l) => {
                        if set.contains(&l.negated()) {
                            continue 'conj; // contradictory conjunct
                        }
                        set.insert(l);
                    }
                    Err(true) => {}
                    Err(false) => continue 'conj,
                }
            }
            out.push_conjunct(set);
        }
        out
    }

    /// Adds a conjunct, maintaining subsumption-freedom
    /// (a conjunct with a subset of literals implies supersets are redundant).
    pub fn push_conjunct(&mut self, c: BTreeSet<Literal>) {
        if self.conjuncts.iter().any(|existing| existing.is_subset(&c)) {
            return;
        }
        self.conjuncts.retain(|existing| !c.is_subset(existing));
        self.conjuncts.push(c);
    }

    /// The conjuncts of the DNF.
    pub fn conjuncts(&self) -> &[BTreeSet<Literal>] {
        &self.conjuncts
    }

    /// Whether the DNF is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Whether the DNF is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.conjuncts.iter().any(BTreeSet::is_empty)
    }

    /// Converts back to a formula (canonically ordered).
    pub fn to_formula(&self) -> Formula {
        let mut cs: Vec<Vec<&Literal>> =
            self.conjuncts.iter().map(|c| c.iter().collect()).collect();
        cs.sort();
        Formula::or(cs.into_iter().map(|c| Formula::and(c.into_iter().map(Literal::to_formula))))
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_formula().fmt(f)
    }
}

/// Negation normal form, with polarity pushed onto atoms.
fn nnf(f: &Formula, negate: bool) -> Formula {
    match f {
        Formula::True => {
            if negate {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if negate {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Eq(a, b) => {
            if negate {
                Formula::Ne(a.clone(), b.clone())
            } else {
                Formula::Eq(a.clone(), b.clone())
            }
        }
        Formula::Ne(a, b) => {
            if negate {
                Formula::Eq(a.clone(), b.clone())
            } else {
                Formula::Ne(a.clone(), b.clone())
            }
        }
        Formula::Not(inner) => nnf(inner, !negate),
        Formula::And(fs) => {
            let parts = fs.iter().map(|g| nnf(g, negate));
            if negate {
                Formula::or(parts)
            } else {
                Formula::and(parts)
            }
        }
        Formula::Or(fs) => {
            let parts = fs.iter().map(|g| nnf(g, negate));
            if negate {
                Formula::and(parts)
            } else {
                Formula::or(parts)
            }
        }
    }
}

type RawConj = Vec<(bool, Term, Term)>;

/// Distributes an NNF formula into a list of raw conjuncts.
fn distribute(f: &Formula) -> Vec<RawConj> {
    match f {
        Formula::True => vec![Vec::new()],
        Formula::False => Vec::new(),
        Formula::Eq(a, b) => vec![vec![(true, a.clone(), b.clone())]],
        Formula::Ne(a, b) => vec![vec![(false, a.clone(), b.clone())]],
        Formula::Not(_) => unreachable!("input is in NNF"),
        Formula::Or(fs) => fs.iter().flat_map(distribute).collect(),
        Formula::And(fs) => {
            let mut acc: Vec<RawConj> = vec![Vec::new()];
            for g in fs {
                let gs = distribute(g);
                let mut next = Vec::with_capacity(acc.len() * gs.len());
                for a in &acc {
                    for b in &gs {
                        let mut c = a.clone();
                        c.extend(b.iter().cloned());
                        next.push(c);
                    }
                }
                acc = next;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPath, AllocToken, TypeName, Var};

    fn set(n: &str) -> Term {
        AccessPath::of(Var::new(n, TypeName::new("Set"))).into()
    }

    fn ver(base: &str) -> Term {
        AccessPath::of(Var::new(base, TypeName::new("Iterator"))).field("set").field("ver").into()
    }

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Formula::and([Formula::True, Formula::True]), Formula::True);
        assert_eq!(Formula::and([Formula::False, Formula::eq(set("v"), set("w"))]), Formula::False);
        assert_eq!(Formula::or([Formula::False, Formula::False]), Formula::False);
        assert_eq!(Formula::or([Formula::True, Formula::eq(set("v"), set("w"))]), Formula::True);
        assert_eq!(
            Formula::not(Formula::not(Formula::eq(set("v"), set("w")))),
            Formula::eq(set("v"), set("w"))
        );
    }

    #[test]
    fn literal_folding() {
        assert_eq!(Literal::new(true, set("v"), set("v")), Err(true));
        assert_eq!(Literal::new(false, set("v"), set("v")), Err(false));
        let a: Term = AllocToken::new(0, TypeName::new("Version")).into();
        let b: Term = AllocToken::new(1, TypeName::new("Version")).into();
        assert_eq!(Literal::new(true, a.clone(), b.clone()), Err(false));
        assert_eq!(Literal::new(false, a.clone(), b), Err(true));
        // freshness: a token never equals a pre-existing path value
        assert_eq!(Literal::new(true, a.clone(), ver("i")), Err(false));
        assert_eq!(Literal::new(false, ver("i"), a), Err(true));
    }

    #[test]
    fn literal_orders_operands() {
        let l1 = Literal::new(true, set("w"), set("v")).unwrap();
        let l2 = Literal::new(true, set("v"), set("w")).unwrap();
        assert_eq!(l1, l2);
    }

    #[test]
    fn dnf_basic() {
        // (a == b) && (c == d || a != b)
        let f = Formula::and([
            Formula::eq(set("a"), set("b")),
            Formula::or([Formula::eq(set("c"), set("d")), Formula::ne(set("a"), set("b"))]),
        ]);
        let d = f.to_dnf();
        // the contradictory conjunct a==b && a!=b is dropped
        assert_eq!(d.conjuncts().len(), 1);
        assert_eq!(d.to_formula().to_string(), "a == b && c == d");
    }

    #[test]
    fn dnf_subsumption() {
        // (a == b) || (a == b && c == d)  →  a == b
        let f = Formula::or([
            Formula::eq(set("a"), set("b")),
            Formula::and([Formula::eq(set("a"), set("b")), Formula::eq(set("c"), set("d"))]),
        ]);
        let d = f.to_dnf();
        assert_eq!(d.conjuncts().len(), 1);
        assert_eq!(d.to_formula().to_string(), "a == b");
    }

    #[test]
    fn dnf_constants() {
        assert!(Formula::True.to_dnf().is_true());
        assert!(Formula::False.to_dnf().is_false());
        assert!(Formula::ne(set("v"), set("v")).to_dnf().is_false());
        assert!(Formula::eq(set("v"), set("v")).to_dnf().is_true());
    }

    #[test]
    fn ite_shape() {
        let c = Formula::eq(set("v"), set("w"));
        let f = Formula::ite(c, Formula::True, Formula::False);
        let d = f.to_dnf();
        assert_eq!(d.to_formula().to_string(), "v == w");
    }

    #[test]
    fn negation_through_dnf() {
        let f = Formula::not(Formula::and([
            Formula::eq(set("a"), set("b")),
            Formula::eq(set("c"), set("d")),
        ]));
        let d = f.to_dnf();
        assert_eq!(d.conjuncts().len(), 2);
    }

    #[test]
    fn free_vars_and_rename() {
        let f = Formula::ne(ver("i"), ver("j"));
        let vars: Vec<String> = f.free_vars().iter().map(|v| v.name().to_string()).collect();
        assert_eq!(vars, ["i", "j"]);
        let i = Var::new("i", TypeName::new("Iterator"));
        let k = Var::new("k", TypeName::new("Iterator"));
        let g = f.rename_vars(&|v| if *v == i { k } else { *v });
        assert_eq!(g.to_string(), "k.set.ver != j.set.ver");
    }

    #[test]
    fn display_precedence() {
        let f = Formula::or([
            Formula::and([Formula::eq(set("a"), set("b")), Formula::eq(set("c"), set("d"))]),
            Formula::eq(set("e"), set("f")),
        ]);
        assert_eq!(f.to_string(), "a == b && c == d || e == f");
        let g = Formula::and([
            Formula::or([Formula::eq(set("a"), set("b")), Formula::eq(set("c"), set("d"))]),
            Formula::eq(set("e"), set("f")),
        ]);
        assert_eq!(g.to_string(), "(a == b || c == d) && e == f");
    }
}
