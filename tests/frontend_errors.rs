//! Golden front-end errors: the exact `Display` text (message and line) of
//! malformed EASL specifications and mini-Java clients.
//!
//! Several messages embed the `{:?}` rendering of a lexer token or of a
//! mini-Java expression, so this also pins how those types print.

use canvas_easl::Spec;
use canvas_minijava::Program;

/// Malformed EASL sources and the error each must produce.
const EASL: &[(&str, &str)] = &[
    ("", "empty specification"),
    ("class A { } /* open\n", "line 1: unterminated block comment"),
    ("class A {\n \"open }", "line 2: unterminated string literal"),
    ("class A {\n \"two\nlines\" }", "line 2: unterminated string literal"),
    ("class \u{c1} { }", "line 1: unexpected character '\u{c1}'"),
    ("class A # { }", "line 1: unexpected character '#'"),
    ("class A {\n\n 99999999999999999999 }", "line 3: integer literal out of range"),
    ("klass A { }", "line 1: expected keyword \"class\", found \"klass\""),
    ("class \"A\" { }", "line 1: expected identifier, found Some(Str(\"A\"))"),
    ("class 42 { }", "line 1: expected identifier, found Some(Int(42))"),
    ("class A { void m(", "line 1: expected identifier, found None"),
    ("class A {\n B() { } }", "line 2: constructor name \"B\" does not match class \"A\""),
    (
        "class A { A() {\n bogus = new A(); } }",
        "line 2: unknown identifier \"bogus\" (not a parameter or field)",
    ),
    (
        "class A { A(A x) { } }\nclass B { B() { } A m() {\n return new A(); } }",
        "line 3: constructor of \"A\" expects 1 argument(s), got 0",
    ),
    ("class A { }\nclass A { }", "line 2: duplicate class \"A\""),
    (
        "class A { void m() {\n requires (this); } }",
        "line 2: expected == or != in requires condition",
    ),
    (
        "class A { void m(A x) {\n x = new A(); } }",
        "line 2: cannot assign to a parameter or `this` in a specification",
    ),
    ("class A { A f;\n A f; }", "line 2: duplicate field \"f\""),
];

/// Malformed mini-Java clients (against the CMP specification) and the
/// error each must produce.
const MINIJAVA: &[(&str, &str)] = &[
    ("", "empty program"),
    ("class Main {\n /* open", "line 2: unterminated block comment"),
    ("class Main { static void main() {\n String s = \"abc; } }", "line 2: unterminated string literal"),
    ("class Main { static void main() {\n Set s = new Set(); s.add(\u{e9}); } }", "line 2: unexpected character '\u{e9}'"),
    ("class Main { static void main() {\n # } }", "line 2: unexpected character '#'"),
    ("class Main { static void main() {\n int x = 99999999999999999999; } }", "line 2: integer literal out of range"),
    ("class Main { static void main() {\n Set s = new Set();", "line 2: expected expression, found None"),
    ("class Main { static void main() {\n Set s = new Set(); s.add(", "line 2: expected expression, found None"),
    ("class Main { static void main() {\n Set s = new Set();\n new Set() = s; } }", "line 3: expected \";\", found Some(Punct(\"(\"))"),
    ("class Main { static void main() {\n 3 = x; } }", "line 2: expression Opaque is not assignable"),
    (
        "class Main { static void main() {\n Set s = new Set(); s.iterator() = s; } }",
        "line 2: expression Call { recv: Some(Var(\"s\")), method: \"iterator\", args: [], span: Span { line: 2, col: 21 } } is not assignable",
    ),
    (
        "class Main { static void main() {\n Set s = new Set();\n (new Set()) = s; } }",
        "line 3: expression New { ty: TypeName(\"Set\"), args: [], span: Span { line: 3, col: 3 } } is not assignable",
    ),
    (
        "class Main { static void main() {\n w.f.m(x, 1, \"s\") = w; } }",
        "line 2: expression Call { recv: Some(FieldGet { base: Var(\"w\"), field: \"f\" }), method: \"m\", args: [Var(\"x\"), Opaque, Opaque], span: Span { line: 2, col: 2 } } is not assignable",
    ),
    ("class Main { static void main() {\n Set s = ; } }", "line 2: expected expression, found Some(Punct(\";\"))"),
    ("class Main { static void main() {\n if x } }", "line 2: expected \"(\", found Some(Ident(\"x\"))"),
    ("class \"Main\" { }", "line 1: expected identifier, found Some(Str(\"Main\"))"),
    ("class A {\n B() { } }", "line 2: constructor name \"B\" does not match class \"A\""),
    ("class A {\n static A() { } }", "line 2: constructors cannot be static"),
    ("class A {\n Set s = new Set(); }", "line 2: field initializers are not supported; assign in a method"),
    ("class Main { static void main() {\n x.next(); } }", "line 2: unknown identifier \"x\""),
    (
        "class Main { static void main() { }\n static void main() { } }",
        "line 2: duplicate method Main.main (no overloading)",
    ),
    ("class Set { }", "line 1: client class Set shadows a component class"),
    ("class A { }\nclass A { }", "line 2: duplicate class A"),
    (
        "class Main { static void main() {\n Set s = new Set(); s.iterator(s); } }",
        "line 2: component method Set.iterator expects 0 argument(s), got 1",
    ),
    ("class Main { static void main() {\n Set s = new Set(1); } }", "line 2: constructor of Set expects 0 argument(s), got 1"),
    (
        "class Main { static void main() {\n f(1); }\n static void f() { } }",
        "line 2: method Main.f expects 0 argument(s), got 1",
    ),
    (
        "class W { W(Set s) { } }\nclass Main { static void main() {\n W w = new W(); } }",
        "line 3: constructor of W expects 1 argument(s), got 0",
    ),
    ("class Main { static void main() {\n Main.nope(); } }", "line 2: class Main has no method \"nope\""),
    (
        "class Main { static void main() {\n Set s = new Set(); Set s = new Set(); } }",
        "line 2: duplicate local variable \"s\" (shadowing unsupported)",
    ),
    ("class Main { static void m(Set a,\n Set a) { } }", "line 1: duplicate parameter \"a\""),
    ("class Main { static void main() {\n this.n(); } void n() { } }", "line 2: `this` used in a static method"),
    (
        "class Main { static void main(Iterator i) {\n Set x = i.set; } }",
        "line 2: client code may not access fields of component type Iterator",
    ),
    ("class Main { static void main() {\n Foo f = new Foo(); } }", "line 2: allocation of unknown type Foo"),
];

/// Every case whose error differs from the pinned text, as
/// `source / got / want` lines (empty when all match).
fn mismatches(cases: &[(&str, &str)], parse: impl Fn(&str) -> Option<String>) -> String {
    let mut out = String::new();
    for (src, want) in cases {
        let got = parse(src).unwrap_or_else(|| "<parsed without error>".to_string());
        if got != *want {
            out.push_str(&format!("source {src:?}\n   got {got:?}\n  want {want:?}\n"));
        }
    }
    out
}

#[test]
fn easl_errors_render_exactly() {
    let bad = mismatches(EASL, |src| Spec::parse("t", src).err().map(|e| e.to_string()));
    assert!(bad.is_empty(), "{bad}");
}

#[test]
fn minijava_errors_render_exactly() {
    let spec = canvas_easl::builtin::cmp();
    let bad = mismatches(MINIJAVA, |src| Program::parse(src, &spec).err().map(|e| e.to_string()));
    assert!(bad.is_empty(), "{bad}");
}
