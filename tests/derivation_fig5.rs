//! Checks the derived CMP abstraction against the paper's published
//! artifacts: the predicate families of Fig. 4 and the method abstraction
//! of Fig. 5, plus the §2.2 problems' derivations.

use canvas_conformance::logic::TypeName;
use canvas_conformance::wp::{derive_abstraction, FamilyId, RuleRhs, RuleVar};

#[test]
fn fig4_families() {
    let d = derive_abstraction(&canvas_conformance::easl::builtin::cmp()).expect("derives");
    let rendered: Vec<String> = d.families().iter().map(|f| f.to_string()).collect();
    assert_eq!(
        rendered,
        [
            "stale(x0: Iterator) ≡ x0.defVer != x0.set.ver",
            "iterof(x0: Iterator, x1: Set) ≡ x0.set == x1",
            "mutx(x0: Iterator, x1: Iterator) ≡ x0 != x1 && x0.set == x1.set",
            "same(x0: Set, x1: Set) ≡ x0 == x1",
        ]
    );
}

#[test]
fn fig5_method_abstractions() {
    let d = derive_abstraction(&canvas_conformance::easl::builtin::cmp()).expect("derives");
    let set = TypeName::new("Set");
    let iterator = TypeName::new("Iterator");
    let (stale, iterof, mutx, same) =
        (FamilyId::new(0), FamilyId::new(1), FamilyId::new(2), FamilyId::new(3));

    // v = new Set(): same(v,z) := 0, same(z,v) := 0, iterof(k,v) := 0
    let new_set = d.for_new(&set).expect("abstraction for new Set");
    assert!(new_set.checks.is_empty());
    assert_eq!(new_set.rule_for(same, &[0]).expect("same(v,·)").rhs, vec![]);
    assert_eq!(new_set.rule_for(same, &[1]).expect("same(·,v)").rhs, vec![]);
    assert_eq!(new_set.rule_for(iterof, &[1]).expect("iterof(·,v)").rhs, vec![]);
    // and stale is untouched
    assert!(new_set.rule_for(stale, &[]).is_none());

    // v.add(): stale_k := stale_k ∨ iterof_{k,v}
    let add = d.for_call(&set, "add").expect("abstraction for add");
    let r = add.rule_for(stale, &[]).expect("add updates stale");
    assert!(r.rhs.contains(&RuleRhs::Inst(stale, vec![RuleVar::Univ(0)])));
    assert!(r.rhs.iter().any(
        |x| matches!(x, RuleRhs::Inst(f, args) if *f == iterof && args.contains(&RuleVar::Recv))
    ));

    // i = v.iterator(): iterof_{i,z} := same_{v,z}; mutx updated via iterof;
    // stale_i := 0
    let it = d.for_call(&set, "iterator").expect("abstraction for iterator");
    assert_eq!(it.rule_for(stale, &[0]).expect("stale(lhs) := 0").rhs, vec![]);
    let r = it.rule_for(iterof, &[0]).expect("iterof(lhs, z)");
    assert!(matches!(&r.rhs[..], [RuleRhs::Inst(f, _)] if *f == same));
    let r = it.rule_for(mutx, &[0]).expect("mutx(lhs, k)");
    assert!(matches!(&r.rhs[..], [RuleRhs::Inst(f, _)] if *f == iterof));

    // i.remove(): requires ¬stale_i; stale_j := stale_j ∨ mutx_{j,i}
    let rm = d.for_call(&iterator, "remove").expect("abstraction for remove");
    assert_eq!(rm.checks, vec![RuleRhs::Inst(stale, vec![RuleVar::Recv])]);
    let r = rm.rule_for(stale, &[]).expect("remove stales siblings");
    assert!(r.rhs.contains(&RuleRhs::Inst(stale, vec![RuleVar::Univ(0)])));
    assert!(r.rhs.iter().any(
        |x| matches!(x, RuleRhs::Inst(f, args) if *f == mutx && args.contains(&RuleVar::Recv))
    ));

    // i.next(): requires ¬stale_i, no updates
    let next = d.for_call(&iterator, "next").expect("abstraction for next");
    assert_eq!(next.checks, vec![RuleRhs::Inst(stale, vec![RuleVar::Recv])]);
    assert!(next.rules.is_empty());

    // v = w: same_{v,z} := same_{w,z}, iterof_{k,v} := iterof_{k,w}
    let cp = d.for_copy(&set).expect("abstraction for Set copy");
    assert!(cp.rule_for(same, &[0]).is_some());
    assert!(cp.rule_for(same, &[1]).is_some());
    assert!(cp.rule_for(iterof, &[1]).is_some());

    // i = j: stale_i := stale_j, iterof/mutx renamed
    let cp = d.for_copy(&iterator).expect("abstraction for Iterator copy");
    assert_eq!(
        cp.rule_for(stale, &[0]).expect("stale(lhs)").rhs,
        vec![RuleRhs::Inst(stale, vec![RuleVar::Arg(0)])]
    );
}

#[test]
fn grp_imp_aop_derivations_are_small_and_classified() {
    use canvas_conformance::easl::SpecClass;
    let expectations = [
        ("grp", 3usize, SpecClass::MutationRestricted),
        ("imp", 2, SpecClass::MutationFree),
        ("aop", 2, SpecClass::MutationFree),
    ];
    for spec in canvas_conformance::easl::builtin::all() {
        if spec.name() == "cmp" {
            continue;
        }
        let (_, fam_count, class) =
            expectations.iter().find(|(n, _, _)| *n == spec.name()).expect("expectation listed");
        assert_eq!(canvas_conformance::easl::classify(&spec), *class, "{}", spec.name());
        let d = derive_abstraction(&spec).expect("derives");
        assert_eq!(d.families().len(), *fam_count, "{}", spec.name());
    }
}

#[test]
fn derivation_is_deterministic() {
    let a = derive_abstraction(&canvas_conformance::easl::builtin::cmp()).unwrap();
    let b = derive_abstraction(&canvas_conformance::easl::builtin::cmp()).unwrap();
    assert_eq!(a, b);
}
