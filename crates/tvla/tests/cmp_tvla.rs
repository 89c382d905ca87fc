//! End-to-end TVLA certification tests on the paper's CMP examples:
//! the specialized first-order abstraction (§5) versus the generic
//! storage-shape-graph baseline (§3/§4.4).

use canvas_faults::Meter;
use canvas_minijava::Program;
use canvas_tvla::{
    run, translate_generic, translate_specialized, EngineMode, Structure, TvlaResult, TvpProgram,
};
use canvas_wp::derive_abstraction;

/// An ungoverned run from the empty heap.
fn solve(tvp: &TvpProgram, mode: EngineMode) -> TvlaResult {
    run(tvp, mode, 20_000, vec![Structure::empty(&tvp.preds)], &Meter::disarmed()).unwrap()
}

const FIG3: &str = r#"
class Main {
    static void main() {
        Set v = new Set();
        Iterator i1 = v.iterator();
        Iterator i2 = v.iterator();
        Iterator i3 = i1;
        i1.next();
        i1.remove();
        if (true) { i2.next(); }
        if (true) { i3.next(); }
        v.add("x");
        if (true) { i1.next(); }
    }
}
"#;

fn specialized_lines(src: &str, mode: EngineMode) -> Vec<u32> {
    let spec = canvas_easl::builtin::cmp();
    let program = Program::parse(src, &spec).unwrap();
    let derived = derive_abstraction(&spec).unwrap();
    let main = program.main_method().expect("main required");
    let tvp = translate_specialized(&program, main, &spec, &derived);
    let r = solve(&tvp, mode);
    assert!(!r.exhausted, "budget exhausted");
    r.violations.iter().map(|v| v.site.line()).collect()
}

fn generic_lines(src: &str, mode: EngineMode) -> Vec<u32> {
    let spec = canvas_easl::builtin::cmp();
    let program = Program::parse(src, &spec).unwrap();
    let main = program.main_method().expect("main required");
    let tvp = translate_generic(&program, main, &spec);
    let r = solve(&tvp, mode);
    assert!(!r.exhausted, "budget exhausted");
    r.violations.iter().map(|v| v.site.line()).collect()
}

#[test]
fn specialized_fig3_exact() {
    // errors at lines 10 (i2) and 13 (i1), and no false alarm at 11 (i3)
    let lines = specialized_lines(FIG3, EngineMode::Relational);
    assert_eq!(lines, vec![10, 13]);
}

#[test]
fn specialized_modes_agree_on_fig3() {
    // the paper's §7 observation: independent-attribute mode loses nothing
    let rel = specialized_lines(FIG3, EngineMode::Relational);
    let ind = specialized_lines(FIG3, EngineMode::IndependentAttribute);
    assert_eq!(rel, ind);
}

#[test]
fn generic_ssg_false_alarm_at_line_11() {
    // §4.4: merging the two unpointed version objects loses the validity of
    // i3, so the storage-shape-graph baseline raises a false alarm at 11
    let lines = generic_lines(FIG3, EngineMode::Relational);
    assert!(lines.contains(&10), "{lines:?}");
    assert!(lines.contains(&13), "{lines:?}");
    assert!(lines.contains(&11), "false alarm expected: {lines:?}");
}

#[test]
fn generic_ok_on_straightline_single_version() {
    // with a single version object nothing merges; the generic baseline is
    // exact here
    let src = r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        i.next();
    }
}
"#;
    assert!(generic_lines(src, EngineMode::Relational).is_empty());
    // and it correctly reports a use after add
    let src = r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        s.add("x");
        i.next();
    }
}
"#;
    let lines = generic_lines(src, EngineMode::Relational);
    assert_eq!(lines.len(), 1, "{lines:?}");
}

#[test]
fn specialized_handles_heap_stored_iterators() {
    // HCMP: the iterator lives in an object field; SCMP cannot track this,
    // the first-order abstraction can
    let src = r#"
class Box {
    Iterator it;
    Box() { }
}
class Main {
    static void main() {
        Set s = new Set();
        Box b = new Box();
        b.it = s.iterator();
        Iterator j = b.it;
        j.next();
        s.add("x");
        Iterator k = b.it;
        k.next();
    }
}
"#;
    let lines = specialized_lines(src, EngineMode::Relational);
    // only the post-add use may throw
    assert_eq!(lines.len(), 1, "{lines:?}");
}

#[test]
fn specialized_version_loop_is_precise() {
    // the §3 loop that defeats allocation-site-based analysis
    let src = r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) {
                i.next();
            }
        }
    }
}
"#;
    let lines = specialized_lines(src, EngineMode::Relational);
    assert!(lines.is_empty(), "{lines:?}");
}

#[test]
fn specialized_loop_mutation_is_flagged() {
    let src = r#"
class Main {
    static void main() {
        Set s = new Set();
        for (Iterator i = s.iterator(); i.hasNext(); ) {
            i.next();
            s.add("x");
        }
    }
}
"#;
    let lines = specialized_lines(src, EngineMode::Relational);
    assert_eq!(lines.len(), 1, "{lines:?}");
}

#[test]
fn grp_specialized_end_to_end() {
    let spec = canvas_easl::builtin::grp();
    let src = r#"
class Main {
    static void main() {
        Graph g = new Graph();
        Traversal t1 = g.startTraversal();
        t1.next();
        Traversal t2 = g.startTraversal();
        t2.next();
        t1.next();
    }
}
"#;
    let program = Program::parse(src, &spec).unwrap();
    let derived = derive_abstraction(&spec).unwrap();
    let main = program.main_method().unwrap();
    let tvp = translate_specialized(&program, main, &spec, &derived);
    let r = solve(&tvp, EngineMode::Relational);
    let lines: Vec<u32> = r.violations.iter().map(|v| v.site.line()).collect();
    // only the resumed t1 traversal (line 9) is invalid
    assert_eq!(lines, vec![9], "{:?}", r.violations);
}
