//! The built-in FOS specifications used throughout the paper.
//!
//! * [`cmp`] — the Concurrent Modification Problem (paper Fig. 2): an
//!   iterator may be used only while its underlying collection is unmodified
//!   (except through that iterator).
//! * [`grp`] — the Grabbed Resource Problem (§2.2): starting a new traversal
//!   of a graph invalidates all prior traversals of the same graph.
//! * [`imp`] — the Implementation Mismatch Problem (§2.2): values combined
//!   by a factory-style module must belong to the same factory instance.
//! * [`aop`] — the Alien Object Problem (§2.2): objects passed to a compound
//!   object's methods must belong to that compound object.

use crate::Spec;

/// EASL source of the CMP specification (paper Fig. 2).
pub const CMP_SOURCE: &str = r#"
class Version { /* represents distinct versions of a Set */ }

class Set {
    Version ver;
    Set() { ver = new Version(); }
    boolean add(Object o) { ver = new Version(); }
    boolean remove(Object o) { ver = new Version(); }
    Iterator iterator() { return new Iterator(this); }
}

class Iterator {
    Set set;
    Version defVer;
    Iterator(Set s) { defVer = s.ver; set = s; }
    void remove() {
        requires (defVer == set.ver);
        set.ver = new Version();
        defVer = set.ver;
    }
    Object next() { requires (defVer == set.ver); }
}
"#;

/// EASL source of the GRP specification.
///
/// `Graph.startTraversal()` preemptively grabs the graph: it installs a new
/// ownership token, so previously created `Traversal` objects fail the
/// `requires` of `next()`.
pub const GRP_SOURCE: &str = r#"
class Token { /* ownership epoch of a graph */ }

class Graph {
    Token owner;
    Graph() { owner = new Token(); }
    Traversal startTraversal() {
        owner = new Token();
        return new Traversal(this);
    }
}

class Traversal {
    Graph g;
    Token tok;
    Traversal(Graph g0) { g = g0; tok = g0.owner; }
    Object next() { requires (tok == g.owner); }
}
"#;

/// EASL source of the IMP specification (Factory pattern conformance).
pub const IMP_SOURCE: &str = r#"
class Factory {
    Factory() { }
    Widget makeWidget() { return new Widget(this); }
    void combine(Widget a, Widget b) {
        requires (a.fac == this && b.fac == this);
    }
}

class Widget {
    Factory fac;
    Widget(Factory f) { fac = f; }
}
"#;

/// EASL source of the AOP specification (vertices belong to their graph).
pub const AOP_SOURCE: &str = r#"
class Graph {
    Graph() { }
    Vertex addVertex() { return new Vertex(this); }
    void addEdge(Vertex x, Vertex y) {
        requires (x.owner == this && y.owner == this);
    }
}

class Vertex {
    Graph owner;
    Vertex(Graph g) { owner = g; }
}
"#;

/// An intentionally *non*-mutation-restricted specification, used to test
/// derivation budgets: a mutable field of a non-token type forms an
/// unbounded chain, so the weakest-precondition iteration keeps producing
/// deeper and deeper predicates.
pub const UNBOUNDED_SOURCE: &str = r#"
class Cell {
    Cell prev;
    Cell() { }
    void push(Cell c) { prev = c; }
    void use(Cell c) { requires (prev == c.prev); }
}
"#;

/// Parses the CMP specification.
pub fn cmp() -> Spec {
    parse_builtin("cmp", CMP_SOURCE)
}

/// Parses the GRP specification.
pub fn grp() -> Spec {
    parse_builtin("grp", GRP_SOURCE)
}

/// Parses the IMP specification.
pub fn imp() -> Spec {
    parse_builtin("imp", IMP_SOURCE)
}

/// Parses the AOP specification.
pub fn aop() -> Spec {
    parse_builtin("aop", AOP_SOURCE)
}

/// Parses the adversarial unbounded specification.
pub fn unbounded() -> Spec {
    parse_builtin("unbounded", UNBOUNDED_SOURCE)
}

fn parse_builtin(name: &str, src: &str) -> Spec {
    match Spec::parse(name, src) {
        Ok(s) => s,
        Err(e) => unreachable!("built-in spec {name} must parse: {e}"),
    }
}

/// All built-in well-behaved specs, by name.
pub fn all() -> Vec<Spec> {
    vec![cmp(), grp(), imp(), aop()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_parse() {
        for (spec, n) in [(cmp(), 3), (grp(), 3), (imp(), 2), (aop(), 2)] {
            assert_eq!(spec.classes().len(), n, "{}", spec.name());
        }
        assert_eq!(unbounded().classes().len(), 1);
        assert_eq!(all().len(), 4);
    }

    #[test]
    fn grp_shapes() {
        let spec = grp();
        let g = spec.class("Graph").unwrap();
        let start = g.method("startTraversal").unwrap();
        assert_eq!(start.body().len(), 1);
        assert!(start.ret().is_some());
        let t = spec.class("Traversal").unwrap();
        assert_eq!(
            t.method("next").unwrap().requires().unwrap().to_string(),
            "this.tok == this.g.owner"
        );
    }

    #[test]
    fn imp_requires_conjunction() {
        let spec = imp();
        let m = spec.class("Factory").unwrap().method("combine").unwrap();
        assert_eq!(m.requires().unwrap().to_string(), "a.fac == this && b.fac == this");
    }
}
