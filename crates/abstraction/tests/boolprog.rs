//! Transform tests that exercise real derived abstractions.
//!
//! These live as integration tests (not unit tests in `boolprog.rs`) because
//! they drive the transform with `canvas_wp::derive_abstraction`, and
//! `canvas-wp` is a dev-dependency that itself depends on this crate: in a
//! unit-test build that links a *second* copy of the library whose `Derived`
//! is a distinct type. Integration tests share the one real lib artifact
//! with the dev-dependency, so the types line up.

use canvas_abstraction::{transform_method, EntryAssumption, FamilyId, Operand, Rhs};
use canvas_easl::builtin;
use canvas_minijava::Program;
use canvas_wp::{derive_abstraction, Derived};

fn setup(src: &str) -> (Program, canvas_easl::Spec, Derived) {
    let spec = builtin::cmp();
    let program = Program::parse(src, &spec).unwrap();
    let derived = derive_abstraction(&spec).unwrap();
    (program, spec, derived)
}

#[test]
fn fig3_transform_shape() {
    let (program, spec, derived) = setup(
        r#"
        class Main {
            static void main() {
                Set v = new Set();
                Iterator i1 = v.iterator();
                Iterator i2 = v.iterator();
                Iterator i3 = i1;
                i1.next();
                i1.remove();
                if (c()) { i2.next(); }
                if (c()) { i3.next(); }
                v.add("x");
                if (c()) { i1.next(); }
            }
            static boolean c() { return true; }
        }
        "#,
    );
    let main = program.method_named("Main.main").unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    // variables: v (Set), i1,i2,i3 (Iterator)
    // stale: 3, iterof: 3, mutx: 3*3-3diag=6, same: 1 set var → same(v,v) const
    let stale_count = bp.preds.iter().filter(|p| p.family.index() == 0).count();
    let iterof_count = bp.preds.iter().filter(|p| p.family.index() == 1).count();
    let mutx_count = bp.preds.iter().filter(|p| p.family.index() == 2).count();
    let same_count = bp.preds.iter().filter(|p| p.family.index() == 3).count();
    assert_eq!(stale_count, 3);
    assert_eq!(iterof_count, 3);
    assert_eq!(mutx_count, 6);
    assert_eq!(same_count, 0); // same(v,v) folded to constant 1
                               // i1.next, i1.remove, i2.next, i3.next, i1.next = 5 checks
    assert_eq!(bp.checks.len(), 5);
    // clean entry: nothing unknown
    assert!(bp.entry_unknown.is_empty());
}

#[test]
fn unknown_entry_for_params_and_statics() {
    let (program, spec, derived) = setup(
        r#"
        class A {
            static Set shared;
            void m(Iterator it) { it.next(); }
        }
        "#,
    );
    let m = program.method_named("A.m").unwrap();
    let bp = transform_method(&program, m, &spec, &derived, EntryAssumption::Unknown);
    assert!(!bp.entry_unknown.is_empty());
    // stale(it) must be among the unknowns
    let it = program.vars().iter().find(|v| v.name == "it").unwrap().id;
    let Some(Operand::Var(stale_it)) = bp.instance(FamilyId::new(0), &[it]) else {
        panic!("stale(it) is tracked");
    };
    assert!(bp.entry_unknown.contains(&stale_it));
}

#[test]
fn client_call_havocs_mutable_only() {
    let (program, spec, derived) = setup(
        r#"
        class Main {
            static void main() {
                Set v = new Set();
                Iterator i = v.iterator();
                help();
                i.next();
            }
            static void help() { }
        }
        "#,
    );
    let main = program.method_named("Main.main").unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    let call_edge = bp
        .edges
        .iter()
        .find(|e| e.assigns.iter().any(|(_, r)| matches!(r, Rhs::Havoc)))
        .expect("client call havocs something");
    // havocked predicates must all be stale (mutable dep), not iterof/mutx
    for (p, r) in &call_edge.assigns {
        if matches!(r, Rhs::Havoc) {
            assert_eq!(bp.preds[*p].family.index(), 0, "only stale instances havoc");
        }
    }
}

#[test]
fn pred_names_render() {
    let (program, spec, derived) = setup(
        "class Main { static void main() { Set v = new Set(); Iterator i = v.iterator(); i.next(); } }",
    );
    let main = program.method_named("Main.main").unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    let names: Vec<String> =
        (0..bp.preds.len()).map(|k| bp.pred_name(k, &program, &derived)).collect();
    assert!(names.iter().any(|n| n == "stale{i}"), "{names:?}");
    assert!(names.iter().any(|n| n == "iterof{i,v}"), "{names:?}");
}

#[test]
fn diagonal_instances_fold_to_constants() {
    let (program, spec, derived) = setup(
        "class Main { static void main() { Set v = new Set(); Set w = v; Iterator i = v.iterator(); } }",
    );
    let main = program.main_method().unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    // same(v,v) and mutx over a single iterator never become variables
    for p in &bp.preds {
        let fam = derived.family(p.family);
        if fam.name() == "same" {
            assert_ne!(p.args[0], p.args[1], "diagonal same must fold");
        }
        if fam.name() == "mutx" {
            assert_ne!(p.args[0], p.args[1], "diagonal mutx must fold");
        }
    }
    // the folded constants are recorded
    let var = |name: &str| program.vars().iter().find(|v| v.name == name).unwrap().id;
    let family = |name: &str| derived.families().iter().find(|f| f.name() == name).unwrap().id();
    let (v, i) = (var("v"), var("i"));
    assert_eq!(bp.instance(family("same"), &[v, v]), Some(Operand::Const(true)), "same(v,v)=1");
    assert_eq!(bp.instance(family("mutx"), &[i, i]), Some(Operand::Const(false)), "mutx(i,i)=0");
}

#[test]
fn load_havocs_only_the_loaded_var() {
    let (program, spec, derived) = setup(
        r#"
class Box { Iterator it; Box() { } }
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        Box b = new Box();
        b.it = i;
        Iterator j = b.it;
    }
}
"#,
    );
    let main = program.main_method().unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    // find the Load edge (bool edges are index-aligned with IR edges);
    // the lowering loads into a temporary, then copies into `j`
    let (load_idx, loaded) = main
        .cfg
        .edges()
        .iter()
        .enumerate()
        .find_map(|(k, e)| match e.instr {
            canvas_minijava::Instr::Load { dst, .. } => Some((k, dst)),
            _ => None,
        })
        .expect("program loads b.it");
    let load_edge = &bp.edges[load_idx];
    assert!(!load_edge.assigns.is_empty(), "load must havoc something");
    for (dst, rhs) in &load_edge.assigns {
        assert!(matches!(rhs, Rhs::Havoc));
        assert!(
            bp.preds[*dst].args.contains(&loaded),
            "load havoc must only hit instances involving the loaded var"
        );
    }
}

#[test]
fn opaque_argument_instances_resolve_to_zero() {
    // passing a null/opaque where a component value could flow: the
    // check instance over the mismatched var resolves to constant 0
    let spec = canvas_easl::builtin::imp();
    let derived = derive_abstraction(&spec).unwrap();
    let program = Program::parse(
        r#"
class Main {
    static void main() {
        Factory f = new Factory();
        Widget a = f.makeWidget();
        f.combine(a, a);
    }
}
"#,
        &spec,
    )
    .unwrap();
    let main = program.main_method().unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    assert_eq!(bp.checks.len(), 1);
    // with both args the same valid widget, no operand can fire
    let res_ok = bp.checks[0].preds.iter().all(|op| !matches!(op, Operand::Const(true)));
    assert!(res_ok);
}

#[test]
fn dump_is_readable() {
    let (program, spec, derived) = setup(
        "class Main { static void main() { Set s = new Set(); Iterator i = s.iterator(); s.add(\"x\"); i.next(); } }",
    );
    let main = program.main_method().unwrap();
    let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
    let text = bp.dump(&program, &derived);
    assert!(text.contains("stale{i} := "), "{text}");
    assert!(text.contains("requires !("), "{text}");
}
