//! `Derived::new` decides once which repeat patterns make a family's
//! instances constant. Every entry of that table must equal a decision made
//! from scratch, and the transform must fold exactly the instances the
//! table names. An integration test for the same reason as
//! `tests/boolprog.rs`: it needs `canvas_wp`'s `Derived`.

use canvas_abstraction::{
    transform_method, Derived, EntryAssumption, Family, Operand, PredInstance,
};
use canvas_easl::{builtin, Spec};
use canvas_logic::{models, Formula, Var};
use canvas_minijava::{Program, VarId};

/// Every restricted-growth string of length `n`, type-compatible or not.
fn all_patterns(n: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|p: Vec<usize>| {
                let fresh = p.iter().max().map_or(0, |m| m + 1);
                (0..=fresh).map(move |c| [p.as_slice(), &[c]].concat())
            })
            .collect();
    }
    out
}

/// The restricted-growth string of a tuple: `(a,b,a)` → `[0,1,0]`.
fn pattern_of(tuple: &[VarId]) -> Vec<usize> {
    let mut firsts: Vec<VarId> = Vec::new();
    tuple
        .iter()
        .map(|v| {
            firsts.iter().position(|w| w == v).unwrap_or_else(|| {
                firsts.push(*v);
                firsts.len() - 1
            })
        })
        .collect()
}

/// Whether `pattern` repeats only parameters of one type.
fn type_compatible(family: &Family, pattern: &[usize]) -> bool {
    let params = family.params();
    (0..pattern.len())
        .all(|j| (0..j).all(|i| pattern[i] != pattern[j] || params[i].ty() == params[j].ty()))
}

/// The decision made from scratch: instantiate with one variable per class
/// and ask the model enumerator whether the instance is valid or
/// unsatisfiable.
fn fresh_decision(spec: &Spec, family: &Family, pattern: &[usize]) -> Option<bool> {
    let args: Vec<Var> = family
        .params()
        .iter()
        .zip(pattern)
        .map(|(p, k)| Var::new(format!("fresh{k}"), *p.ty()))
        .collect();
    let inst = family.instantiate(&args);
    let oracle = spec.oracle();
    if models::equivalent(&oracle, &Formula::True, &inst, &Formula::True) {
        Some(true)
    } else if models::equivalent(&oracle, &Formula::True, &inst, &Formula::False) {
        Some(false)
    } else {
        None
    }
}

#[test]
fn table_entries_equal_fresh_decisions() {
    let mut derivations: Vec<(Spec, Derived)> = builtin::all()
        .into_iter()
        .map(|spec| {
            let derived = canvas_wp::derive_abstraction(&spec).unwrap();
            (spec, derived)
        })
        .collect();
    let unbounded = builtin::unbounded();
    let conservative = canvas_wp::derive_conservative(&unbounded, 4).unwrap();
    assert!(conservative.stats().unknown_rhs > 0, "the budget must bind");
    derivations.push((unbounded, conservative));

    let mut constants = 0;
    for (spec, derived) in &derivations {
        for family in derived.families() {
            for pattern in all_patterns(family.params().len()) {
                let want = if type_compatible(family, &pattern) {
                    fresh_decision(spec, family, &pattern)
                } else {
                    None
                };
                assert_eq!(
                    derived.constant_instance(family.id(), &pattern),
                    want,
                    "{}: {family} under {pattern:?}",
                    spec.name()
                );
                constants += usize::from(want.is_some());
            }
        }
    }
    // cmp alone has mutx(i,i) ≡ 0 and same(v,v) ≡ 1
    assert!(constants >= 2, "only {constants} constant patterns");
}

#[test]
fn fig3_instances_fold_by_the_table() {
    let bench = canvas_suite::corpus().into_iter().find(|b| b.name == "fig3").unwrap();
    let spec = bench.spec.spec();
    let program = Program::parse(bench.source, &spec).unwrap();
    let derived = canvas_wp::derive_abstraction(&spec).unwrap();
    let (mut folded, mut tracked) = (0, 0);
    for method in program.methods() {
        let vars = program.component_vars_in_scope(method.id, &spec);
        for entry in [EntryAssumption::Clean, EntryAssumption::Unknown] {
            let bp = transform_method(&program, method, &spec, &derived, entry);
            // every type-correct tuple, family by family, the last
            // parameter varying fastest: the transform's numbering order
            let mut want_preds = Vec::new();
            for family in derived.families() {
                let mut tuples: Vec<Vec<VarId>> = vec![Vec::new()];
                for p in family.params() {
                    let of_type: Vec<VarId> =
                        vars.iter().copied().filter(|v| program.var(*v).ty == *p.ty()).collect();
                    tuples = tuples
                        .iter()
                        .flat_map(|t| of_type.iter().map(move |v| [t.as_slice(), &[*v]].concat()))
                        .collect();
                }
                for args in tuples {
                    let got = bp.instance(family.id(), &args);
                    match fresh_decision(&spec, family, &pattern_of(&args)) {
                        Some(c) => {
                            assert_eq!(got, Some(Operand::Const(c)), "{family} over {args:?}");
                            folded += 1;
                        }
                        None => {
                            let k = want_preds.len();
                            assert_eq!(got, Some(Operand::Var(k)), "{family} over {args:?}");
                            want_preds.push(PredInstance { family: family.id(), args });
                            tracked += 1;
                        }
                    }
                }
                // no instance: a variable of another type, or the wrong arity
                let arity = family.params().len();
                if let Some(p) = family.params().first() {
                    if let Some(&other) = vars.iter().find(|v| program.var(**v).ty != *p.ty()) {
                        assert_eq!(bp.instance(family.id(), &vec![other; arity]), None);
                    }
                }
                if let Some(&v) = vars.first() {
                    assert_eq!(bp.instance(family.id(), &vec![v; arity + 1]), None);
                }
            }
            assert_eq!(bp.preds, want_preds, "{}", method.qualified_name());
        }
    }
    assert!(folded > 0 && tracked > 0, "folded {folded}, tracked {tracked}");
}
