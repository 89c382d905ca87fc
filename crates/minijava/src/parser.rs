//! Recursive-descent parser for mini-Java, producing the [`crate::ast`] tree.
//!
//! Conditions of `if`/`while`/`for` are parsed with a full (boolean/
//! comparison/arithmetic) grammar but only their *component-relevant*
//! subexpressions (calls, allocations) are retained, as `cond_effects`;
//! the branch itself is nondeterministic, exactly as in the paper's
//! abstraction of client control flow.

use canvas_easl::lexer::{lex, Cursor, Tok};

use crate::ast::{AllocTy, ClassAst, Expr, FieldAst, LValue, MethodDecl, Stmt};
use crate::ir::Span;
use crate::SourceError;

/// The span of the token the cursor currently points at.
fn pos(cur: &Cursor<'_>) -> Span {
    Span::new(cur.line(), cur.col())
}

const CTOR: &str = "<init>";

pub(crate) fn parse_program(src: &str) -> Result<Vec<ClassAst<'_>>, SourceError> {
    let mut cur = Cursor::new(lex(src)?);
    let mut classes = Vec::new();
    while !cur.at_end() {
        classes.push(parse_class(&mut cur)?);
    }
    if classes.is_empty() {
        return Err(SourceError::new(0, "empty program"));
    }
    Ok(classes)
}

fn parse_class<'src>(cur: &mut Cursor<'src>) -> Result<ClassAst<'src>, SourceError> {
    let span = pos(cur);
    cur.expect_kw("class")?;
    let name = cur.expect_ident()?;
    cur.expect("{")?;
    let mut fields = Vec::new();
    let mut statics = Vec::new();
    let mut methods = Vec::new();
    while !cur.eat("}") {
        let mspan = pos(cur);
        let mline = mspan.line;
        let is_static = cur.eat_kw("static");
        let first = cur.expect_ident()?;
        if matches!(cur.peek(), Some(Tok::Punct("("))) {
            // constructor
            if first != name {
                return Err(SourceError::new(
                    mline,
                    format!("constructor name {first:?} does not match class {name:?}"),
                ));
            }
            if is_static {
                return Err(SourceError::new(mline, "constructors cannot be static"));
            }
            let params = parse_params(cur)?;
            let (body, end_line) = parse_block(cur)?;
            methods.push(MethodDecl {
                name: CTOR,
                is_static: false,
                params,
                ret_ty: None,
                body,
                span: mspan,
                end_line,
            });
            continue;
        }
        let second = cur.expect_ident()?;
        if matches!(cur.peek(), Some(Tok::Punct("("))) {
            let params = parse_params(cur)?;
            let (body, end_line) = parse_block(cur)?;
            let ret_ty = (first != "void").then_some(first);
            methods.push(MethodDecl {
                name: second,
                is_static,
                params,
                ret_ty,
                body,
                span: mspan,
                end_line,
            });
        } else {
            if cur.eat("=") {
                return Err(SourceError::new(
                    mline,
                    "field initializers are not supported; assign in a method",
                ));
            }
            cur.expect(";")?;
            let decl = FieldAst { name: second, ty: first, span: mspan };
            if is_static {
                statics.push(decl);
            } else {
                fields.push(decl);
            }
        }
    }
    Ok(ClassAst { name, fields, statics, span, methods })
}

fn parse_params<'src>(cur: &mut Cursor<'src>) -> Result<Vec<(&'src str, &'src str)>, SourceError> {
    cur.expect("(")?;
    let mut out = Vec::new();
    if !cur.eat(")") {
        loop {
            let ty = cur.expect_ident()?;
            let name = cur.expect_ident()?;
            out.push((name, ty));
            if cur.eat(")") {
                break;
            }
            cur.expect(",")?;
        }
    }
    Ok(out)
}

/// Parses `{ stmts }`; also returns the line of the closing brace.
fn parse_block<'src>(cur: &mut Cursor<'src>) -> Result<(Vec<Stmt<'src>>, u32), SourceError> {
    cur.expect("{")?;
    let mut out = Vec::new();
    loop {
        let close_line = cur.line();
        if cur.eat("}") {
            return Ok((out, close_line));
        }
        out.push(parse_stmt(cur)?);
    }
}

fn parse_block_or_stmt<'src>(cur: &mut Cursor<'src>) -> Result<Vec<Stmt<'src>>, SourceError> {
    if matches!(cur.peek(), Some(Tok::Punct("{"))) {
        Ok(parse_block(cur)?.0)
    } else {
        Ok(vec![parse_stmt(cur)?])
    }
}

fn parse_stmt<'src>(cur: &mut Cursor<'src>) -> Result<Stmt<'src>, SourceError> {
    let span = pos(cur);
    if cur.eat_kw("if") {
        cur.expect("(")?;
        let cond_effects = parse_cond(cur)?;
        cur.expect(")")?;
        let then = parse_block_or_stmt(cur)?;
        let els = if cur.eat_kw("else") { parse_block_or_stmt(cur)? } else { Vec::new() };
        return Ok(Stmt::If { cond_effects, then, els, span });
    }
    if cur.eat_kw("while") {
        cur.expect("(")?;
        let cond_effects = parse_cond(cur)?;
        cur.expect(")")?;
        let body = parse_block_or_stmt(cur)?;
        return Ok(Stmt::While { cond_effects, body, span });
    }
    if cur.eat_kw("for") {
        return parse_for(cur, span);
    }
    if cur.eat_kw("return") {
        if cur.eat(";") {
            return Ok(Stmt::Return { value: None, span });
        }
        let value = parse_expr(cur)?;
        cur.expect(";")?;
        return Ok(Stmt::Return { value: Some(value), span });
    }
    // declaration? two consecutive identifiers
    if let (Some(Tok::Ident(_)), Some(Tok::Ident(_))) = (cur.peek(), cur.peek_at(1)) {
        let ty = cur.expect_ident()?;
        let name = cur.expect_ident()?;
        let init = if cur.eat("=") { Some(parse_expr(cur)?) } else { None };
        cur.expect(";")?;
        return Ok(Stmt::VarDecl { name, ty, init, span });
    }
    let s = parse_simple(cur, span)?;
    cur.expect(";")?;
    Ok(s)
}

/// `for (init; cond; update) body` desugars to
/// `{ init; while (cond) { body; update; } }` using [`Stmt::Block`] for the
/// init+loop sequence (a block introduces no branching).
fn parse_for<'src>(cur: &mut Cursor<'src>, span: Span) -> Result<Stmt<'src>, SourceError> {
    cur.expect("(")?;
    // init
    let mut pre: Vec<Stmt<'src>> = Vec::new();
    if !cur.eat(";") {
        if let (Some(Tok::Ident(_)), Some(Tok::Ident(_))) = (cur.peek(), cur.peek_at(1)) {
            let ty = cur.expect_ident()?;
            let name = cur.expect_ident()?;
            let init = if cur.eat("=") { Some(parse_expr(cur)?) } else { None };
            pre.push(Stmt::VarDecl { name, ty, init, span });
        } else {
            pre.push(parse_simple(cur, span)?);
        }
        cur.expect(";")?;
    }
    // condition
    let cond_effects =
        if matches!(cur.peek(), Some(Tok::Punct(";"))) { Vec::new() } else { parse_cond(cur)? };
    cur.expect(";")?;
    // update
    let update = if matches!(cur.peek(), Some(Tok::Punct(")"))) {
        None
    } else {
        Some(parse_simple(cur, span)?)
    };
    cur.expect(")")?;
    let mut body = parse_block_or_stmt(cur)?;
    if let Some(u) = update {
        body.push(u);
    }
    let whl = Stmt::While { cond_effects, body, span };
    if pre.is_empty() {
        Ok(whl)
    } else {
        pre.push(whl);
        Ok(Stmt::Block(pre))
    }
}

/// Assignment or expression statement (no trailing `;`).
fn parse_simple<'src>(cur: &mut Cursor<'src>, span: Span) -> Result<Stmt<'src>, SourceError> {
    let e = parse_expr(cur)?;
    if cur.eat("++") {
        return Ok(Stmt::Expr { expr: Expr::Opaque, span });
    }
    if cur.eat("=") {
        let rhs = parse_expr(cur)?;
        let lhs = match e {
            Expr::Var(n) => LValue::Var(n),
            Expr::FieldGet { base, field } => LValue::Field { base, field },
            other => {
                return Err(SourceError::new(
                    span.line,
                    format!("expression {other:?} is not assignable"),
                ))
            }
        };
        return Ok(Stmt::Assign { lhs, rhs, span });
    }
    Ok(Stmt::Expr { expr: e, span })
}

/// Parses a boolean condition, returning the tracked subexpressions it
/// evaluates (calls/allocations), in evaluation order.
fn parse_cond<'src>(cur: &mut Cursor<'src>) -> Result<Vec<Expr<'src>>, SourceError> {
    let mut effects = Vec::new();
    parse_or_cond(cur, &mut effects)?;
    Ok(effects)
}

fn parse_or_cond<'src>(
    cur: &mut Cursor<'src>,
    eff: &mut Vec<Expr<'src>>,
) -> Result<(), SourceError> {
    parse_and_cond(cur, eff)?;
    while cur.eat("||") {
        parse_and_cond(cur, eff)?;
    }
    Ok(())
}

fn parse_and_cond<'src>(
    cur: &mut Cursor<'src>,
    eff: &mut Vec<Expr<'src>>,
) -> Result<(), SourceError> {
    parse_not_cond(cur, eff)?;
    while cur.eat("&&") {
        parse_not_cond(cur, eff)?;
    }
    Ok(())
}

fn parse_not_cond<'src>(
    cur: &mut Cursor<'src>,
    eff: &mut Vec<Expr<'src>>,
) -> Result<(), SourceError> {
    if cur.eat("!") {
        return parse_not_cond(cur, eff);
    }
    if matches!(cur.peek(), Some(Tok::Punct("("))) {
        // grouped condition
        cur.expect("(")?;
        parse_or_cond(cur, eff)?;
        cur.expect(")")?;
    } else {
        let e = parse_arith(cur, eff)?;
        push_effect(e, eff);
    }
    // optional comparison tail
    for op in ["==", "!=", "<", "<=", ">", ">="] {
        if cur.eat(op) {
            let e = parse_arith(cur, eff)?;
            push_effect(e, eff);
            break;
        }
    }
    Ok(())
}

fn parse_arith<'src>(
    cur: &mut Cursor<'src>,
    eff: &mut Vec<Expr<'src>>,
) -> Result<Expr<'src>, SourceError> {
    let first = parse_expr(cur)?;
    if !matches!(cur.peek(), Some(Tok::Punct("+" | "-"))) {
        return Ok(first);
    }
    // arithmetic: the result is opaque but operand effects are kept
    push_effect(first, eff);
    while cur.eat("+") || cur.eat("-") {
        let e = parse_expr(cur)?;
        push_effect(e, eff);
    }
    Ok(Expr::Opaque)
}

fn push_effect<'src>(e: Expr<'src>, eff: &mut Vec<Expr<'src>>) {
    if contains_call(&e) {
        eff.push(e);
    }
}

fn contains_call(e: &Expr<'_>) -> bool {
    match e {
        Expr::Call { .. } | Expr::New { .. } => true,
        Expr::FieldGet { base, .. } => contains_call(base),
        Expr::Var(_) | Expr::Opaque => false,
    }
}

fn parse_expr<'src>(cur: &mut Cursor<'src>) -> Result<Expr<'src>, SourceError> {
    let span = pos(cur);
    let mut e = match cur.peek() {
        Some(Tok::Ident("new")) => {
            cur.next_tok()?;
            let ty = cur.expect_ident()?;
            let args = parse_args(cur)?;
            Expr::New { ty: AllocTy(ty), args, span }
        }
        Some(Tok::Ident("null" | "true" | "false")) => {
            cur.next_tok()?;
            Expr::Opaque
        }
        Some(Tok::Ident(_)) => {
            let name = cur.expect_ident()?;
            if matches!(cur.peek(), Some(Tok::Punct("("))) {
                let args = parse_args(cur)?;
                Expr::Call { recv: None, method: name, args, span }
            } else {
                Expr::Var(name)
            }
        }
        Some(Tok::Str(_)) | Some(Tok::Int(_)) => {
            cur.next_tok()?;
            Expr::Opaque
        }
        Some(Tok::Punct("(")) => {
            cur.next_tok()?;
            let inner = parse_expr(cur)?;
            cur.expect(")")?;
            inner
        }
        other => {
            return Err(SourceError::new(
                span.line,
                format!("expected expression, found {other:?}"),
            ))
        }
    };
    // postfix chain; calls keep the span of the whole chain's start so a
    // diagnostic underlines `i.next()` from `i`, not from `next`
    while cur.eat(".") {
        let member = cur.expect_ident()?;
        if matches!(cur.peek(), Some(Tok::Punct("("))) {
            let args = parse_args(cur)?;
            e = Expr::Call { recv: Some(Box::new(e)), method: member, args, span };
        } else {
            e = Expr::FieldGet { base: Box::new(e), field: member };
        }
    }
    Ok(e)
}

fn parse_args<'src>(cur: &mut Cursor<'src>) -> Result<Vec<Expr<'src>>, SourceError> {
    cur.expect("(")?;
    let mut out = Vec::new();
    if !cur.eat(")") {
        loop {
            out.push(parse_expr(cur)?);
            if cur.eat(")") {
                break;
            }
            cur.expect(",")?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fig3_shape() {
        let classes = parse_program(
            r#"
            class Main {
                static void main() {
                    Set v = new Set();
                    Iterator i1 = v.iterator();
                    Iterator i2 = v.iterator();
                    Iterator i3 = i1;
                    i1.next();
                    i1.remove();
                    if (unknown()) { i2.next(); }
                    if (unknown()) { i3.next(); }
                    v.add("x");
                    if (unknown()) { i1.next(); }
                }
                static boolean unknown() { return true; }
            }
            "#,
        )
        .unwrap();
        assert_eq!(classes.len(), 1);
        let main = &classes[0].methods[0];
        assert_eq!(main.body.len(), 10);
        match &main.body[0] {
            Stmt::VarDecl { name, init: Some(Expr::New { .. }), .. } => assert_eq!(*name, "v"),
            other => panic!("unexpected {other:?}"),
        }
        // `if (unknown())` keeps the call as a condition effect
        match &main.body[6] {
            Stmt::If { cond_effects, then, .. } => {
                assert_eq!(cond_effects.len(), 1);
                assert_eq!(then.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_for_desugars() {
        let classes = parse_program(
            "class A { void m(Set s) { for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); } } }",
        )
        .unwrap();
        let body = &classes[0].methods[0].body;
        assert_eq!(body.len(), 1);
        match &body[0] {
            Stmt::Block(stmts) => {
                assert_eq!(stmts.len(), 2); // decl + while
                match &stmts[1] {
                    Stmt::While { cond_effects, body, .. } => {
                        assert_eq!(cond_effects.len(), 1); // i.hasNext()
                        assert_eq!(body.len(), 1);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_field_assign_and_statics() {
        let classes = parse_program(
            "class W { Set s; static W inst; W() { s = new Set(); } void add(Object o) { s.add(o); } }",
        )
        .unwrap();
        let c = &classes[0];
        assert_eq!(c.fields.len(), 1);
        assert_eq!(c.statics.len(), 1);
        assert_eq!(c.methods[0].name, "<init>");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_program("").is_err());
        assert!(parse_program("class A { static A() {} }").is_err());
        assert!(parse_program("class A { B() {} }").is_err());
        assert!(parse_program("class A { Set s = new Set(); }").is_err());
        assert!(parse_program("class A { void m() { 3 = x; } }").is_err());
    }

    #[test]
    fn chained_calls_parse() {
        let classes =
            parse_program("class A { void m(W w) { w.list().iterator().next(); } }").unwrap();
        match &classes[0].methods[0].body[0] {
            Stmt::Expr { expr: Expr::Call { method, recv: Some(r), .. }, .. } => {
                assert_eq!(*method, "next");
                assert!(matches!(**r, Expr::Call { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
