//! Parser and resolver for the EASL concrete syntax.

use std::collections::HashMap;

use canvas_logic::{AccessPath, Formula, Term, TypeName, Var};

use crate::ast::{ClassSpec, FieldDecl, MethodSpec, Spec, SpecExpr, SpecPath, SpecStmt, SpecVar};
use crate::lexer::{lex, Cursor, Tok};
use crate::EaslError;

// ---------------------------------------------------------------------------
// Raw (unresolved) syntax
// ---------------------------------------------------------------------------

// Names borrow the source text; resolution copies out only what the
// resolved `Spec` keeps.

#[derive(Debug)]
struct RawClass<'src> {
    name: &'src str,
    line: u32,
    fields: Vec<(&'src str, &'src str, u32)>, // (type, name, line)
    methods: Vec<RawMethod<'src>>,
}

#[derive(Debug)]
struct RawMethod<'src> {
    name: &'src str, // ClassSpec::CTOR for constructors
    ret_ty: Option<&'src str>,
    params: Vec<(&'src str, &'src str)>, // (type, name)
    stmts: Vec<RawStmt<'src>>,
}

#[derive(Debug)]
enum RawStmt<'src> {
    Requires(RawCond<'src>, u32),
    Assign(Vec<&'src str>, RawRhs<'src>, u32),
    Return(RawRhs<'src>, u32),
}

#[derive(Debug)]
enum RawRhs<'src> {
    Chain(Vec<&'src str>),
    New(&'src str, Vec<RawRhs<'src>>, u32),
}

#[derive(Debug)]
enum RawCond<'src> {
    Cmp(bool, Vec<&'src str>, Vec<&'src str>), // positive, lhs chain, rhs chain
    And(Box<RawCond<'src>>, Box<RawCond<'src>>),
    Or(Box<RawCond<'src>>, Box<RawCond<'src>>),
    Not(Box<RawCond<'src>>),
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

pub(crate) fn parse_spec(name: String, src: &str) -> Result<Spec, EaslError> {
    let mut cur = Cursor::new(lex(src)?);
    let mut raw = Vec::new();
    while !cur.at_end() {
        raw.push(parse_class(&mut cur)?);
    }
    if raw.is_empty() {
        return Err(EaslError::new(0, "empty specification"));
    }
    resolve(name, raw)
}

fn parse_class<'src>(cur: &mut Cursor<'src>) -> Result<RawClass<'src>, EaslError> {
    let line = cur.line();
    cur.expect_kw("class")?;
    let name = cur.expect_ident()?;
    cur.expect("{")?;
    let mut fields = Vec::new();
    let mut methods = Vec::new();
    while !cur.eat("}") {
        let mline = cur.line();
        let first = cur.expect_ident()?;
        if matches!(cur.peek(), Some(Tok::Punct("("))) {
            // constructor: ClassName ( params ) { ... }
            if first != name {
                return Err(EaslError::new(
                    mline,
                    format!("constructor name {first:?} does not match class {name:?}"),
                ));
            }
            let params = parse_params(cur)?;
            let stmts = parse_block(cur)?;
            methods.push(RawMethod { name: ClassSpec::CTOR, ret_ty: None, params, stmts });
        } else {
            let second = cur.expect_ident()?;
            if matches!(cur.peek(), Some(Tok::Punct("("))) {
                // method: RetType name ( params ) { ... }
                let params = parse_params(cur)?;
                let stmts = parse_block(cur)?;
                methods.push(RawMethod { name: second, ret_ty: Some(first), params, stmts });
            } else {
                // field: Type name ;
                cur.expect(";")?;
                fields.push((first, second, mline));
            }
        }
    }
    Ok(RawClass { name, line, fields, methods })
}

fn parse_params<'src>(cur: &mut Cursor<'src>) -> Result<Vec<(&'src str, &'src str)>, EaslError> {
    cur.expect("(")?;
    let mut out = Vec::new();
    if !cur.eat(")") {
        loop {
            let ty = cur.expect_ident()?;
            let name = cur.expect_ident()?;
            out.push((ty, name));
            if cur.eat(")") {
                break;
            }
            cur.expect(",")?;
        }
    }
    Ok(out)
}

fn parse_block<'src>(cur: &mut Cursor<'src>) -> Result<Vec<RawStmt<'src>>, EaslError> {
    cur.expect("{")?;
    let mut out = Vec::new();
    while !cur.eat("}") {
        out.push(parse_stmt(cur)?);
    }
    Ok(out)
}

fn parse_stmt<'src>(cur: &mut Cursor<'src>) -> Result<RawStmt<'src>, EaslError> {
    let line = cur.line();
    if cur.eat_kw("requires") {
        cur.expect("(")?;
        let cond = parse_or(cur)?;
        cur.expect(")")?;
        cur.expect(";")?;
        return Ok(RawStmt::Requires(cond, line));
    }
    if cur.eat_kw("return") {
        let rhs = parse_rhs(cur)?;
        cur.expect(";")?;
        return Ok(RawStmt::Return(rhs, line));
    }
    let chain = parse_chain(cur)?;
    cur.expect("=")?;
    let rhs = parse_rhs(cur)?;
    cur.expect(";")?;
    Ok(RawStmt::Assign(chain, rhs, line))
}

fn parse_rhs<'src>(cur: &mut Cursor<'src>) -> Result<RawRhs<'src>, EaslError> {
    let line = cur.line();
    if cur.eat_kw("new") {
        let ty = cur.expect_ident()?;
        cur.expect("(")?;
        let mut args = Vec::new();
        if !cur.eat(")") {
            loop {
                args.push(parse_rhs(cur)?);
                if cur.eat(")") {
                    break;
                }
                cur.expect(",")?;
            }
        }
        return Ok(RawRhs::New(ty, args, line));
    }
    Ok(RawRhs::Chain(parse_chain(cur)?))
}

fn parse_chain<'src>(cur: &mut Cursor<'src>) -> Result<Vec<&'src str>, EaslError> {
    let mut out = vec![cur.expect_ident()?];
    while cur.eat(".") {
        out.push(cur.expect_ident()?);
    }
    Ok(out)
}

fn parse_or<'src>(cur: &mut Cursor<'src>) -> Result<RawCond<'src>, EaslError> {
    let mut lhs = parse_and(cur)?;
    while cur.eat("||") {
        let rhs = parse_and(cur)?;
        lhs = RawCond::Or(Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_and<'src>(cur: &mut Cursor<'src>) -> Result<RawCond<'src>, EaslError> {
    let mut lhs = parse_unary(cur)?;
    while cur.eat("&&") {
        let rhs = parse_unary(cur)?;
        lhs = RawCond::And(Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_unary<'src>(cur: &mut Cursor<'src>) -> Result<RawCond<'src>, EaslError> {
    if cur.eat("!") {
        return Ok(RawCond::Not(Box::new(parse_unary(cur)?)));
    }
    if cur.eat("(") {
        let inner = parse_or(cur)?;
        cur.expect(")")?;
        // allow a comparison of a parenthesised chain? not needed; treat as group
        return Ok(inner);
    }
    let line = cur.line();
    let lhs = parse_chain(cur)?;
    let positive = if cur.eat("==") {
        true
    } else if cur.eat("!=") {
        false
    } else {
        return Err(EaslError::new(line, "expected == or != in requires condition"));
    };
    let rhs = parse_chain(cur)?;
    Ok(RawCond::Cmp(positive, lhs, rhs))
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

struct Ctx<'a, 'src> {
    /// class name -> (field name -> field type)
    classes: &'a HashMap<&'src str, HashMap<&'src str, &'src str>>,
    class_name: &'src str,
    params: &'a [(&'src str, &'src str)], // (type, name)
}

fn resolve(name: String, raw: Vec<RawClass<'_>>) -> Result<Spec, EaslError> {
    let mut class_fields: HashMap<&str, HashMap<&str, &str>> = HashMap::new();
    for c in &raw {
        if class_fields.contains_key(c.name) {
            return Err(EaslError::new(c.line, format!("duplicate class {:?}", c.name)));
        }
        let mut fm = HashMap::new();
        for &(ty, fname, fline) in &c.fields {
            if fm.insert(fname, ty).is_some() {
                return Err(EaslError::new(fline, format!("duplicate field {fname:?}")));
            }
            if !raw.iter().any(|d| d.name == ty) {
                return Err(EaslError::new(
                    fline,
                    format!("field {fname:?} has unknown component type {ty:?}"),
                ));
            }
        }
        class_fields.insert(c.name, fm);
    }

    let ctor_arity: HashMap<&str, usize> = raw
        .iter()
        .map(|c| {
            let arity =
                c.methods.iter().find(|m| m.name == ClassSpec::CTOR).map_or(0, |m| m.params.len());
            (c.name, arity)
        })
        .collect();

    let mut classes = Vec::new();
    for c in &raw {
        let mut methods = Vec::new();
        for m in &c.methods {
            let ctx = Ctx { classes: &class_fields, class_name: c.name, params: &m.params };
            methods.push(resolve_method(m, &ctx, &ctor_arity)?);
        }
        let fields = c
            .fields
            .iter()
            .map(|&(ty, fname, _)| FieldDecl::new(fname, TypeName::new(ty)))
            .collect();
        classes.push(ClassSpec::new(TypeName::new(c.name), fields, methods));
    }
    Ok(Spec::from_classes(name, classes))
}

fn resolve_method(
    m: &RawMethod<'_>,
    ctx: &Ctx<'_, '_>,
    ctor_arity: &HashMap<&str, usize>,
) -> Result<MethodSpec, EaslError> {
    let params: Vec<(String, TypeName)> =
        m.params.iter().map(|&(ty, n)| (n.to_string(), TypeName::new(ty))).collect();
    let ret_ty = m.ret_ty.filter(|t| ctx.classes.contains_key(t)).map(TypeName::new);

    let mut requires: Option<Formula> = None;
    let mut body = Vec::new();
    let mut ret: Option<SpecExpr> = None;
    for stmt in &m.stmts {
        match stmt {
            RawStmt::Requires(cond, line) => {
                if !body.is_empty() || ret.is_some() {
                    return Err(EaslError::new(
                        *line,
                        "requires clauses must appear at method entry",
                    ));
                }
                let f = resolve_cond(cond, ctx, *line)?;
                requires = Some(match requires.take() {
                    None => f,
                    Some(g) => Formula::and([g, f]),
                });
            }
            RawStmt::Assign(chain, rhs, line) => {
                if ret.is_some() {
                    return Err(EaslError::new(*line, "statement after return"));
                }
                let lhs = resolve_chain(chain, ctx, *line)?;
                if lhs.fields().is_empty() {
                    return Err(EaslError::new(
                        *line,
                        "cannot assign to a parameter or `this` in a specification",
                    ));
                }
                let rhs = resolve_rhs(rhs, ctx, ctor_arity, *line)?;
                body.push(SpecStmt::Assign { lhs, rhs });
            }
            RawStmt::Return(rhs, line) => {
                if ret.is_some() {
                    return Err(EaslError::new(*line, "multiple return statements"));
                }
                // Returns of non-component values (e.g. booleans) are dropped
                // at parse time by the grammar (only chains/news allowed);
                // type relevance is decided by the consumer via ret_ty().
                ret = Some(resolve_rhs(rhs, ctx, ctor_arity, *line)?);
            }
        }
    }
    Ok(MethodSpec::new(m.name, params, ret_ty, requires, body, ret))
}

fn resolve_chain(chain: &[&str], ctx: &Ctx<'_, '_>, line: u32) -> Result<SpecPath, EaslError> {
    let (base, mut ty, rest): (SpecVar, &str, &[&str]) = if chain[0] == "this" {
        (SpecVar::This, ctx.class_name, &chain[1..])
    } else if let Some(k) = ctx.params.iter().position(|&(_, n)| n == chain[0]) {
        (SpecVar::Param(k), ctx.params[k].0, &chain[1..])
    } else if ctx.classes[ctx.class_name].contains_key(chain[0]) {
        (SpecVar::This, ctx.class_name, chain)
    } else {
        return Err(EaslError::new(
            line,
            format!("unknown identifier {:?} (not a parameter or field)", chain[0]),
        ));
    };
    let mut fields = Vec::with_capacity(rest.len());
    for &f in rest {
        let class = ctx.classes.get(ty).ok_or_else(|| {
            EaslError::new(
                line,
                format!("cannot select field {f:?} from non-component type {ty:?}"),
            )
        })?;
        ty = class
            .get(f)
            .ok_or_else(|| EaslError::new(line, format!("type {ty:?} has no field {f:?}")))?;
        fields.push(f);
    }
    Ok(SpecPath::new(base, fields))
}

fn resolve_rhs(
    rhs: &RawRhs<'_>,
    ctx: &Ctx<'_, '_>,
    ctor_arity: &HashMap<&str, usize>,
    line: u32,
) -> Result<SpecExpr, EaslError> {
    match rhs {
        RawRhs::Chain(chain) => Ok(SpecExpr::Path(resolve_chain(chain, ctx, line)?)),
        RawRhs::New(ty, args, nline) => {
            let arity = *ctor_arity.get(*ty).ok_or_else(|| {
                EaslError::new(*nline, format!("allocation of unknown class {ty:?}"))
            })?;
            if args.len() != arity {
                return Err(EaslError::new(
                    *nline,
                    format!(
                        "constructor of {ty:?} expects {arity} argument(s), got {}",
                        args.len()
                    ),
                ));
            }
            let args = args
                .iter()
                .map(|a| resolve_rhs(a, ctx, ctor_arity, *nline))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SpecExpr::New { ty: TypeName::new(*ty), args })
        }
    }
}

fn resolve_cond(cond: &RawCond<'_>, ctx: &Ctx<'_, '_>, line: u32) -> Result<Formula, EaslError> {
    Ok(match cond {
        RawCond::Cmp(positive, l, r) => {
            let lp = chain_term(l, ctx, line)?;
            let rp = chain_term(r, ctx, line)?;
            if *positive {
                Formula::Eq(lp, rp)
            } else {
                Formula::Ne(lp, rp)
            }
        }
        RawCond::And(a, b) => {
            Formula::and([resolve_cond(a, ctx, line)?, resolve_cond(b, ctx, line)?])
        }
        RawCond::Or(a, b) => {
            Formula::or([resolve_cond(a, ctx, line)?, resolve_cond(b, ctx, line)?])
        }
        RawCond::Not(a) => Formula::not(resolve_cond(a, ctx, line)?),
    })
}

fn chain_term(chain: &[&str], ctx: &Ctx<'_, '_>, line: u32) -> Result<Term, EaslError> {
    let sp = resolve_chain(chain, ctx, line)?;
    let base = match sp.base() {
        SpecVar::This => Var::new("this", TypeName::new(ctx.class_name)),
        SpecVar::Param(k) => {
            let (ty, n) = ctx.params[k];
            Var::new(n, TypeName::new(ty))
        }
    };
    let mut p = AccessPath::of(base);
    for f in sp.fields() {
        p = p.field(f.clone());
    }
    Ok(Term::Path(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::CMP_SOURCE;

    #[test]
    fn parse_cmp() {
        let spec = Spec::parse("cmp", CMP_SOURCE).unwrap();
        let set = spec.class("Set").unwrap();
        assert_eq!(set.fields().len(), 1);
        assert!(set.ctor().is_some());
        let add = set.method("add").unwrap();
        assert!(add.requires().is_none());
        assert_eq!(add.body().len(), 1);
        let iterator = set.method("iterator").unwrap();
        assert_eq!(iterator.ret_ty().map(|t| t.as_str()), Some("Iterator"));
        assert!(matches!(iterator.ret(), Some(SpecExpr::New { .. })));

        let it = spec.class("Iterator").unwrap();
        let next = it.method("next").unwrap();
        let req = next.requires().unwrap();
        assert_eq!(req.to_string(), "this.defVer == this.set.ver");
        let remove = it.method("remove").unwrap();
        assert_eq!(remove.body().len(), 2);
    }

    #[test]
    fn unqualified_field_resolution() {
        // `ver = new Version();` resolves `ver` to `this.ver`
        let spec = Spec::parse("cmp", CMP_SOURCE).unwrap();
        let set = spec.class("Set").unwrap();
        let SpecStmt::Assign { lhs, .. } = &set.ctor().unwrap().body()[0];
        assert_eq!(lhs.base(), SpecVar::This);
        assert_eq!(lhs.fields(), ["ver"]);
    }

    #[test]
    fn param_shadows_nothing_and_resolves() {
        let spec = Spec::parse("cmp", CMP_SOURCE).unwrap();
        let it = spec.class("Iterator").unwrap();
        let ctor = it.ctor().unwrap();
        let SpecStmt::Assign { rhs, .. } = &ctor.body()[1]; // set = s;
        match rhs {
            SpecExpr::Path(p) => assert!(matches!(p.base(), SpecVar::Param(0))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        // unknown field
        let e = Spec::parse("t", "class A { A() { bogus = new A(); } }").unwrap_err();
        assert!(e.to_string().contains("unknown identifier"), "{e}");
        // requires not at entry
        let e = Spec::parse(
            "t",
            "class A { B f; A() { } void m() { f = new A(); requires (f == f); } } class B { }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("method entry"), "{e}");
        // ctor name mismatch
        let e = Spec::parse("t", "class A { B() { } }").unwrap_err();
        assert!(e.to_string().contains("does not match"), "{e}");
        // wrong ctor arity
        let e = Spec::parse(
            "t",
            "class A { A(A x) { } } class B { B() { } A m() { return new A(); } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("expects 1 argument"), "{e}");
        // duplicate class
        let e = Spec::parse("t", "class A { } class A { }").unwrap_err();
        assert!(e.to_string().contains("duplicate class"), "{e}");
        // assignment to parameter
        let e = Spec::parse("t", "class A { void m(A x) { x = new A(); } }").unwrap_err();
        assert!(e.to_string().contains("cannot assign"), "{e}");
        // field of unknown type
        let e = Spec::parse("t", "class A { Foo f; }").unwrap_err();
        assert!(e.to_string().contains("unknown component type"), "{e}");
    }

    #[test]
    fn requires_conjunction_of_clauses() {
        let src = "class F { F() { } void use(W a, W b) { requires (a.fac == this); requires (b.fac == this); } } class W { F fac; W(F f) { fac = f; } }";
        let spec = Spec::parse("t", src).unwrap();
        let m = spec.class("F").unwrap().method("use").unwrap();
        let req = m.requires().unwrap().to_string();
        assert_eq!(req, "a.fac == this && b.fac == this");
    }
}
