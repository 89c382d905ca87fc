//! The TVP intermediate language (paper §5.1).

use std::fmt;

use canvas_minijava::Site;

/// Index of a predicate in a [`TvpProgram`]'s declaration list.
pub type PredId = usize;

/// What a predicate is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredKind {
    /// Part of the standard translation (`pt_x`, `rv_f`, type tags).
    Core,
    /// A derived instrumentation predicate (first-order predicate
    /// abstraction, §5.3).
    Instrumentation,
}

/// A predicate declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PredDecl {
    /// Display name, e.g. `pt_i1`, `rv_next`, `stale`.
    pub name: String,
    /// Arity (0, 1 or 2).
    pub arity: usize,
    /// Core or instrumentation.
    pub kind: PredKind,
    /// Whether this (unary) predicate participates in canonical abstraction.
    pub abstraction: bool,
    /// Unary predicate with at most one individual set (e.g. `pt_x`):
    /// enforced by coerce.
    pub unique: bool,
    /// Functional dependency of a binary predicate (enforced by coerce).
    pub functional: Functional,
}

/// Which argument of a binary predicate is determined by the other.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Functional {
    /// No functional dependency.
    No,
    /// Each first argument has at most one second (e.g. `rv_f`: an object's
    /// field holds one reference).
    SecondByFirst,
    /// Each second argument has at most one first (e.g. GRP's
    /// `iterof(g, t) ≡ t.g == g`).
    FirstBySecond,
}

impl PredDecl {
    /// A core unary pointed-to-by-variable predicate.
    pub fn pt(name: impl Into<String>) -> Self {
        PredDecl {
            name: name.into(),
            arity: 1,
            kind: PredKind::Core,
            abstraction: true,
            unique: true,
            functional: Functional::No,
        }
    }

    /// A core binary field predicate.
    pub fn field(name: impl Into<String>) -> Self {
        PredDecl {
            name: name.into(),
            arity: 2,
            kind: PredKind::Core,
            abstraction: false,
            unique: false,
            functional: Functional::SecondByFirst,
        }
    }

    /// A unary type-tag predicate.
    pub fn type_tag(name: impl Into<String>) -> Self {
        PredDecl {
            name: name.into(),
            arity: 1,
            kind: PredKind::Core,
            abstraction: true,
            unique: false,
            functional: Functional::No,
        }
    }
}

/// A first-order formula over predicates and individual variables,
/// evaluated with Kleene three-valued semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula3 {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Constant 1/2 (used for conservative havoc effects).
    Unknown,
    /// Predicate application `p(v…)`.
    App(PredId, Vec<String>),
    /// Individual equality `v1 == v2`.
    Eq(String, String),
    /// Negation.
    Not(Box<Formula3>),
    /// N-ary conjunction.
    And(Vec<Formula3>),
    /// N-ary disjunction.
    Or(Vec<Formula3>),
    /// `∃v. f`.
    Exists(String, Box<Formula3>),
    /// `∀v. f`.
    Forall(String, Box<Formula3>),
}

impl Formula3 {
    /// Conjunction helper (flattens, folds constants).
    pub fn and(fs: impl IntoIterator<Item = Formula3>) -> Formula3 {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula3::True => {}
                Formula3::False => return Formula3::False,
                Formula3::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() > 1 {
            return Formula3::And(out);
        }
        out.pop().unwrap_or(Formula3::True)
    }

    /// Disjunction helper (flattens, folds constants).
    pub fn or(fs: impl IntoIterator<Item = Formula3>) -> Formula3 {
        let mut out = Vec::new();
        for f in fs {
            match f {
                Formula3::False => {}
                Formula3::True => return Formula3::True,
                Formula3::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        if out.len() > 1 {
            return Formula3::Or(out);
        }
        out.pop().unwrap_or(Formula3::False)
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)] // constructor-style, like `and`/`or`
    pub fn not(f: Formula3) -> Formula3 {
        match f {
            Formula3::True => Formula3::False,
            Formula3::False => Formula3::True,
            Formula3::Not(inner) => *inner,
            other => Formula3::Not(Box::new(other)),
        }
    }

    /// `∃v. f`.
    pub fn exists(v: impl Into<String>, f: Formula3) -> Formula3 {
        Formula3::Exists(v.into(), Box::new(f))
    }
}

impl fmt::Display for Formula3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula3::True => write!(f, "1"),
            Formula3::False => write!(f, "0"),
            Formula3::Unknown => write!(f, "1/2"),
            Formula3::App(p, vs) => write!(f, "p{}({})", p, vs.join(",")),
            Formula3::Eq(a, b) => write!(f, "{a} == {b}"),
            Formula3::Not(g) => write!(f, "!({g})"),
            Formula3::And(gs) => {
                let parts: Vec<String> = gs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" && "))
            }
            Formula3::Or(gs) => {
                let parts: Vec<String> = gs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" || "))
            }
            Formula3::Exists(v, g) => write!(f, "E {v}. ({g})"),
            Formula3::Forall(v, g) => write!(f, "A {v}. ({g})"),
        }
    }
}

/// A simultaneous predicate update: `p(formals…) := rhs` for all tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Update {
    /// The updated predicate.
    pub pred: PredId,
    /// Formal individual variables of the update.
    pub formals: Vec<String>,
    /// The right-hand side (may reference allocation bindings).
    pub rhs: Formula3,
}

/// One action on a TVP edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Action {
    /// Display name (for diagnostics).
    pub name: String,
    /// Variables to focus on before evaluating anything (unary `unique`
    /// predicates, e.g. the receiver's `pt`); structures where the focused
    /// predicate has no individual are dropped (null receiver ⇒ NPE, not a
    /// conformance violation).
    pub focus: Vec<PredId>,
    /// A violation check: report `site` if the formula is possibly true in
    /// the (focused) pre-state.
    pub check: Option<(Formula3, Site)>,
    /// Fresh individuals to allocate, bound to these names in updates.
    pub allocs: Vec<String>,
    /// Fresh *summary* individuals with every predicate value `1/2`,
    /// standing for unknown objects produced by unanalysed code (used for
    /// the conservative client-call treatment).
    pub summary_allocs: Vec<String>,
    /// Simultaneous updates (evaluated in the pre-state + allocations).
    pub updates: Vec<Update>,
}

impl Action {
    /// A no-op action.
    pub fn nop() -> Self {
        Action {
            name: "nop".to_string(),
            focus: Vec::new(),
            check: None,
            allocs: Vec::new(),
            summary_allocs: Vec::new(),
            updates: Vec::new(),
        }
    }
}

/// A TVP program: predicates plus a CFG with actions on edges.
#[derive(Clone, PartialEq, Debug)]
pub struct TvpProgram {
    /// Predicate declarations.
    pub preds: Vec<PredDecl>,
    /// Number of CFG nodes.
    pub nodes: usize,
    /// Entry node.
    pub entry: usize,
    /// Edges `(from, action, to)`.
    pub edges: Vec<(usize, Action, usize)>,
}

impl TvpProgram {
    /// Looks up a predicate id by name.
    pub fn pred_named(&self, name: &str) -> Option<PredId> {
        self.preds.iter().position(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_fold() {
        assert_eq!(Formula3::and([Formula3::True, Formula3::True]), Formula3::True);
        assert_eq!(Formula3::and([Formula3::False, Formula3::Unknown]), Formula3::False);
        assert_eq!(Formula3::or([Formula3::False, Formula3::False]), Formula3::False);
        assert_eq!(Formula3::or([Formula3::True, Formula3::Unknown]), Formula3::True);
        assert_eq!(Formula3::not(Formula3::not(Formula3::Unknown)), Formula3::Unknown);
    }

    #[test]
    fn display() {
        let f = Formula3::exists(
            "o",
            Formula3::and([Formula3::App(0, vec!["o".into()]), Formula3::App(1, vec!["o".into()])]),
        );
        assert_eq!(f.to_string(), "E o. ((p0(o)) && (p1(o)))");
    }

    #[test]
    fn decl_shorthands() {
        let pt = PredDecl::pt("pt_x");
        assert!(pt.unique && pt.abstraction && pt.arity == 1);
        let fld = PredDecl::field("rv_f");
        assert!(fld.functional == Functional::SecondByFirst && fld.arity == 2);
        let tag = PredDecl::type_tag("isSet");
        assert!(tag.abstraction && !tag.unique);
    }
}
