//! Small-model enumeration for the EUF fragment.
//!
//! The derivation procedure (paper §4.5) needs to decide whether two
//! candidate instrumentation predicates are equivalent, whether one implies
//! another, and whether a conjunct is satisfiable — all modulo the component
//! method's precondition taken as an assumption. The formulas involved are
//! quantifier-free boolean combinations of equalities over finitely many
//! ground access paths, i.e. a fragment of EUF with a *small model property*:
//! validity is determined by the finitely many congruence-closed equivalence
//! relations over the paths occurring in the formulas (plus their prefixes).
//!
//! [`ModelEnv`] enumerates exactly those relations once and then answers any
//! number of queries over the same vocabulary. This plays the role of the
//! "more powerful decision procedure" the paper notes can replace plain
//! syntactic comparison.

use std::collections::BTreeSet;

use crate::intern::FieldId;
use crate::{AccessPath, Formula, Term, TypeName};

/// Resolves field types so that the enumerator never equates terms of
/// provably different types.
///
/// An oracle returning `None` everywhere (such as the blanket `()` impl) is
/// always sound for equivalence checking — it only admits *more* models, so
/// checks become stricter, never unsound.
pub trait TypeOracle {
    /// The declared type of `field` in type `owner`, if known.
    fn field_type(&self, owner: &TypeName, field: &str) -> Option<TypeName>;
}

/// The trivial oracle: all field types unknown.
impl TypeOracle for () {
    fn field_type(&self, _owner: &TypeName, _field: &str) -> Option<TypeName> {
        None
    }
}

impl<F> TypeOracle for F
where
    F: Fn(&TypeName, &str) -> Option<TypeName>,
{
    fn field_type(&self, owner: &TypeName, field: &str) -> Option<TypeName> {
        self(owner, field)
    }
}

/// The type of an access path under an oracle, walking the field chain from
/// the base variable's type. `None` as soon as a field type is unknown.
pub fn path_type(path: &AccessPath, oracle: &dyn TypeOracle) -> Option<TypeName> {
    let mut ty = *path.base().ty();
    for f in path.fields() {
        ty = oracle.field_type(&ty, f)?;
    }
    Some(ty)
}

/// A set of candidate models (congruence-closed equivalence relations) over
/// the vocabulary of a fixed set of formulas.
#[derive(Debug)]
pub struct ModelEnv {
    universe: Vec<AccessPath>,
    /// For each universe index, `(field, index of extension)` pairs.
    extensions: Vec<Vec<(FieldId, usize)>>,
    /// For each model, the class id of each universe element.
    models: Vec<Vec<usize>>,
}

impl ModelEnv {
    /// Builds the model set for the vocabulary of `formulas`.
    ///
    /// Every query method must only be called with formulas whose paths all
    /// occur (or are prefixes of paths occurring) in `formulas`; this is
    /// checked with a debug assertion.
    pub fn new<'a>(
        formulas: impl IntoIterator<Item = &'a Formula>,
        oracle: &dyn TypeOracle,
    ) -> Self {
        let mut paths: BTreeSet<AccessPath> = BTreeSet::new();
        for f in formulas {
            f.visit_terms(&mut |t| {
                if let Term::Path(p) = t {
                    for q in p.prefixes() {
                        paths.insert(q);
                    }
                }
            });
        }
        let universe: Vec<AccessPath> = paths.into_iter().collect();
        let index = |p: &AccessPath| universe.binary_search(p).ok();
        let extensions: Vec<Vec<(FieldId, usize)>> = universe
            .iter()
            .map(|p| {
                universe
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.parent().as_ref() == Some(p))
                    .filter_map(|(j, q)| q.fields().last().map(|f| (FieldId(*f), j)))
                    .collect()
            })
            .collect();
        let types: Vec<Option<TypeName>> = universe.iter().map(|p| path_type(p, oracle)).collect();

        // Enumerate set partitions via restricted-growth strings, pruning on
        // type compatibility, then filter by congruence closure.
        let n = universe.len();
        let mut models = Vec::new();
        let mut assignment = vec![0usize; n];
        enumerate(0, 0, &mut assignment, &types, &mut |assign| {
            if congruent(assign, &extensions) {
                models.push(assign.to_vec());
            }
        });
        let _ = index; // used only in debug_assert path lookups below
        ModelEnv { universe, extensions, models }
    }

    /// Number of candidate models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    fn eval_in(&self, model: &[usize], f: &Formula) -> bool {
        let class_of = |p: &AccessPath| -> usize {
            match self.universe.binary_search(p) {
                Ok(i) => model[i],
                Err(_) => {
                    debug_assert!(false, "path {p} outside model vocabulary");
                    usize::MAX
                }
            }
        };
        f.eval(&|a, b| match (a, b) {
            (Term::Path(p), Term::Path(q)) => class_of(p) == class_of(q),
            (Term::Alloc(x), Term::Alloc(y)) => x == y,
            _ => false,
        })
    }

    /// Whether `f` and `g` agree in every model satisfying `assumption`.
    pub fn equivalent_under(&self, assumption: &Formula, f: &Formula, g: &Formula) -> bool {
        self.models
            .iter()
            .all(|m| !self.eval_in(m, assumption) || (self.eval_in(m, f) == self.eval_in(m, g)))
    }

    /// Whether `f` implies `g` in every model satisfying `assumption`.
    pub fn implies_under(&self, assumption: &Formula, f: &Formula, g: &Formula) -> bool {
        self.models
            .iter()
            .all(|m| !self.eval_in(m, assumption) || !self.eval_in(m, f) || self.eval_in(m, g))
    }

    /// Whether some model satisfies both `assumption` and `f`.
    pub fn satisfiable_under(&self, assumption: &Formula, f: &Formula) -> bool {
        self.models.iter().any(|m| self.eval_in(m, assumption) && self.eval_in(m, f))
    }

    /// The vocabulary (all paths and prefixes).
    pub fn universe(&self) -> &[AccessPath] {
        &self.universe
    }

    /// The field-extension table, parallel to [`Self::universe`].
    pub fn extensions(&self) -> &[Vec<(FieldId, usize)>] {
        &self.extensions
    }
}

/// Restricted-growth-string enumeration of set partitions with a type-based
/// compatibility prune.
fn enumerate(
    k: usize,
    max_class: usize,
    assignment: &mut Vec<usize>,
    types: &[Option<TypeName>],
    emit: &mut impl FnMut(&[usize]),
) {
    let n = assignment.len();
    if k == n {
        emit(assignment);
        return;
    }
    for c in 0..=max_class {
        // type prune: element k may join class c only if compatible with
        // every element already in c
        let compatible = assignment[..k].iter().enumerate().all(|(j, &cj)| {
            cj != c
                || match (&types[j], &types[k]) {
                    (Some(a), Some(b)) => a == b,
                    _ => true,
                }
        });
        if !compatible {
            continue;
        }
        assignment[k] = c;
        let next_max = if c == max_class { max_class + 1 } else { max_class };
        enumerate(k + 1, next_max, assignment, types, emit);
    }
}

/// Checks the congruence condition: equal parents force equal extensions
/// along a common field. Field comparison is one `u32` compare thanks to
/// interning — this is the innermost loop of model enumeration.
fn congruent(assign: &[usize], extensions: &[Vec<(FieldId, usize)>]) -> bool {
    let n = assign.len();
    for a in 0..n {
        for b in (a + 1)..n {
            if assign[a] != assign[b] {
                continue;
            }
            for (fa, ia) in &extensions[a] {
                for (fb, ib) in &extensions[b] {
                    if fa == fb && assign[*ia] != assign[*ib] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// One-shot equivalence check under an assumption.
pub fn equivalent(oracle: &dyn TypeOracle, assumption: &Formula, f: &Formula, g: &Formula) -> bool {
    ModelEnv::new([assumption, f, g], oracle).equivalent_under(assumption, f, g)
}

/// One-shot implication check under an assumption.
pub fn implies(oracle: &dyn TypeOracle, assumption: &Formula, f: &Formula, g: &Formula) -> bool {
    ModelEnv::new([assumption, f, g], oracle).implies_under(assumption, f, g)
}

/// One-shot satisfiability check under an assumption.
pub fn satisfiable(oracle: &dyn TypeOracle, assumption: &Formula, f: &Formula) -> bool {
    ModelEnv::new([assumption, f], oracle).satisfiable_under(assumption, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn v(n: &str, t: &str) -> Var {
        Var::new(n, TypeName::new(t))
    }

    fn p(n: &str, t: &str, fields: &[&str]) -> Term {
        let mut q = AccessPath::of(v(n, t));
        for f in fields {
            q = q.field(*f);
        }
        q.into()
    }

    /// Oracle matching the CMP spec's field types.
    fn cmp_oracle(owner: &TypeName, field: &str) -> Option<TypeName> {
        match (owner.as_str(), field) {
            ("Iterator", "set") => Some(TypeName::new("Set")),
            ("Iterator", "defVer") | ("Set", "ver") => Some(TypeName::new("Version")),
            _ => None,
        }
    }

    #[test]
    fn transitivity_detected() {
        // a == b && b == c  implies  a == c  (pure equality reasoning)
        let f = Formula::and([
            Formula::eq(p("a", "Set", &[]), p("b", "Set", &[])),
            Formula::eq(p("b", "Set", &[]), p("c", "Set", &[])),
        ]);
        let g = Formula::eq(p("a", "Set", &[]), p("c", "Set", &[]));
        assert!(implies(&(), &Formula::True, &f, &g));
        assert!(!implies(&(), &Formula::True, &g, &f));
    }

    #[test]
    fn congruence_detected() {
        // i.set == j.set  implies  i.set.ver == j.set.ver
        let f = Formula::eq(p("i", "Iterator", &["set"]), p("j", "Iterator", &["set"]));
        let g =
            Formula::eq(p("i", "Iterator", &["set", "ver"]), p("j", "Iterator", &["set", "ver"]));
        assert!(implies(&cmp_oracle, &Formula::True, &f, &g));
        assert!(!implies(&cmp_oracle, &Formula::True, &g, &f));
    }

    #[test]
    fn typing_prunes_models() {
        // with types, a Set can never equal a Version
        let f = Formula::eq(p("v", "Set", &[]), p("i", "Iterator", &["defVer"]));
        assert!(!satisfiable(&cmp_oracle, &Formula::True, &f));
        // without types it is satisfiable
        assert!(satisfiable(&(), &Formula::True, &f));
    }

    #[test]
    fn variable_identity_vs_value_equality() {
        // distinct variables may denote the same object
        let f = Formula::eq(p("v", "Set", &[]), p("w", "Set", &[]));
        assert!(satisfiable(&(), &Formula::True, &f));
        assert!(satisfiable(&(), &Formula::True, &Formula::not(f)));
    }

    #[test]
    fn assumption_restricts_models() {
        // the paper's remove() derivation step: under the precondition
        // ¬stale(j), i.e. j.defVer == j.set.ver, the exact WP
        //   (i != j && i.set == j.set) || (i != j && i.set != j.set && stale(i))
        // is equivalent to the simpler  stale(i) || mutx(i, j).
        let stale =
            |x: &str| Formula::ne(p(x, "Iterator", &["defVer"]), p(x, "Iterator", &["set", "ver"]));
        let iset = p("i", "Iterator", &["set"]);
        let jset = p("j", "Iterator", &["set"]);
        let ivar = p("i", "Iterator", &[]);
        let jvar = p("j", "Iterator", &[]);
        let mutx = Formula::and([
            Formula::eq(iset.clone(), jset.clone()),
            Formula::ne(ivar.clone(), jvar.clone()),
        ]);
        let exact_wp = Formula::or([
            Formula::and([
                Formula::ne(ivar.clone(), jvar.clone()),
                Formula::eq(iset.clone(), jset.clone()),
            ]),
            Formula::and([Formula::ne(ivar, jvar), Formula::ne(iset, jset), stale("i")]),
        ]);
        let simplified = Formula::or([stale("i"), mutx]);
        let assumption = Formula::not(stale("j"));
        assert!(equivalent(&cmp_oracle, &assumption, &exact_wp, &simplified));
        // ... but NOT equivalent unconditionally
        assert!(!equivalent(&cmp_oracle, &Formula::True, &exact_wp, &simplified));
    }

    #[test]
    fn model_env_reuse() {
        let f = Formula::eq(p("a", "Set", &[]), p("b", "Set", &[]));
        let g = Formula::eq(p("b", "Set", &[]), p("a", "Set", &[]));
        let env = ModelEnv::new([&f, &g], &());
        assert!(env.model_count() >= 2);
        assert!(env.equivalent_under(&Formula::True, &f, &g));
        assert!(env.satisfiable_under(&Formula::True, &f));
        assert!(env.implies_under(&f, &Formula::True, &g));
    }

    #[test]
    fn alloc_tokens_in_models() {
        use crate::AllocToken;
        let a: Term = AllocToken::new(0, TypeName::new("Version")).into();
        let f = Formula::Eq(a.clone(), a.clone());
        // t == t on tokens evaluates true in every model
        assert!(equivalent(&(), &Formula::True, &f, &Formula::True));
    }
}
