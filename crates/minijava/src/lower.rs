//! Lowering from the mini-Java AST to the CFG-based IR.
//!
//! Lowering performs name resolution (locals ≺ instance fields ≺ statics ≺
//! class names), flattens nested expressions through typed temporaries, and
//! builds one [`Cfg`] per method with instructions on edges. Branch
//! conditions contribute only their component-relevant effects; the branch
//! itself becomes two `Nop` edges (a nondeterministic choice), mirroring the
//! paper's treatment of client control flow.
//!
//! Type names stay borrowed (`&str`, compared by content) until the whole
//! program has lowered; only an accepted program's names are interned
//! ([`parse_and_lower`]), so a rejected client leaves the process-global
//! symbol table as it was.

use std::collections::HashMap;

use canvas_easl::{ClassSpec, Spec};
use canvas_logic::TypeName;

use crate::ast::{ClassAst, ClassDecl, Expr, FieldAst, FieldDecl, LValue, MethodDecl, Stmt};
use crate::ir::{
    AllocSite, Cfg, Instr, MethodId, MethodIr, NodeId, Program, Site, Span, VarId, VarKind,
    Variable,
};
use crate::{parser, SourceError};

/// What kind of type a type name denotes for this program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TyKind {
    Component,
    Client,
    Opaque,
}

struct MethodSig<'a> {
    class: &'a str,
    name: &'a str,
    is_static: bool,
    /// Declared parameter count (without the receiver).
    arity: usize,
    ret_ty: Option<&'a str>,
}

/// Name-resolution tables. Every key borrows the source text or the
/// parsed classes, so a lookup such as `method_ids.get(&(class, name))`
/// builds its key without allocating.
struct Tables<'a> {
    /// The spec's component classes by name, each name resolved once.
    components: Vec<(&'static str, &'a ClassSpec)>,
    classes: &'a [ClassAst<'a>],
    class_idx: HashMap<&'a str, usize>,
    sigs: Vec<MethodSig<'a>>,
    method_ids: HashMap<(&'a str, &'a str), MethodId>,
    statics: HashMap<(&'a str, &'a str), VarId>,
}

/// The spec's component classes by name.
fn components(spec: &Spec) -> Vec<(&'static str, &ClassSpec)> {
    spec.classes().iter().map(|c| (c.name().as_str(), c)).collect()
}

impl<'a> Tables<'a> {
    fn component(&self, ty: &str) -> Option<&'a ClassSpec> {
        self.components.iter().find(|&&(name, _)| name == ty).map(|&(_, c)| c)
    }

    fn ty_kind(&self, ty: &str) -> TyKind {
        if self.component(ty).is_some() {
            TyKind::Component
        } else if self.class_idx.contains_key(ty) {
            TyKind::Client
        } else {
            TyKind::Opaque
        }
    }

    fn client_field_ty(&self, class: &str, field: &str) -> Option<&'a str> {
        let c = &self.classes[*self.class_idx.get(class)?];
        c.fields.iter().find(|f| f.name == field).map(|f| f.ty)
    }
}

/// A variable whose type name is not interned yet.
struct LVar<'a> {
    name: String,
    ty: &'a str,
    owner: Option<MethodId>,
    kind: VarKind,
}

/// An allocation whose instruction waits for its type to be interned: its
/// CFG edge carries a `Nop` until [`parse_and_lower`] writes the
/// [`Instr::New`] (whose type is always its destination's).
struct PendingNew {
    method: MethodId,
    edge: usize,
    dst: VarId,
    site: AllocSite,
    args: Vec<VarId>,
    at: Site,
}

/// A lowered method body, before interning.
struct LoweredBody {
    params: Vec<VarId>,
    ret_var: Option<VarId>,
    cfg: Cfg,
}

/// Interns the type names of one accepted program, remembering the first
/// few distinct ones: a fleet-sized program names about five types, so
/// most of its names are answered without the global table's lock, and
/// without allocating.
#[derive(Default)]
struct Names<'a>([Option<(&'a str, TypeName)>; 8]);

impl<'a> Names<'a> {
    fn get(&mut self, name: &'a str) -> TypeName {
        for slot in &mut self.0 {
            match slot {
                Some((seen, ty)) if *seen == name => return *ty,
                Some(_) => {}
                None => return slot.insert((name, TypeName::new(name))).1,
            }
        }
        TypeName::new(name)
    }

    fn fields(&mut self, fields: &[FieldAst<'a>]) -> Vec<FieldDecl> {
        let decl = |f: &FieldAst<'a>| FieldDecl {
            name: f.name.to_string(),
            ty: self.get(f.ty),
            span: f.span,
        };
        fields.iter().map(decl).collect()
    }
}

pub(crate) fn parse_and_lower(src: &str, spec: &Spec) -> Result<Program, SourceError> {
    let asts = parser::parse_program(src)?;
    let (mut lvars, mut news) = (Vec::new(), Vec::new());
    let bodies = lower_classes(&asts, spec, &mut lvars, &mut news)?;

    // the program is accepted: only now are its type names interned
    let mut names = Names::default();
    let vars: Vec<Variable> = lvars
        .into_iter()
        .enumerate()
        .map(|(k, v)| Variable {
            id: VarId(k),
            name: v.name,
            ty: names.get(v.ty),
            owner: v.owner,
            kind: v.kind,
        })
        .collect();
    let decls = asts.iter().flat_map(|c| c.methods.iter().map(move |m| (c.name, m)));
    let mut methods: Vec<MethodIr> = decls
        .zip(bodies)
        .enumerate()
        .map(|(k, ((class, m), body))| MethodIr {
            id: MethodId(k),
            class: names.get(class),
            name: m.name.to_string(),
            is_static: m.is_static,
            params: body.params,
            ret_var: body.ret_var,
            cfg: body.cfg,
            span: m.span,
            end_line: m.end_line,
        })
        .collect();
    for n in news {
        let new =
            Instr::New { dst: n.dst, ty: vars[n.dst.0].ty, site: n.site, args: n.args, at: n.at };
        methods[n.method.0].cfg.set_instr(n.edge, new);
    }
    let classes: Vec<ClassDecl> = asts
        .iter()
        .map(|c| ClassDecl {
            name: names.get(c.name),
            fields: names.fields(&c.fields),
            statics: names.fields(&c.statics),
            span: c.span,
        })
        .collect();

    let scmp_shaped =
        classes.iter().all(|c| c.fields.iter().all(|f| !spec.is_component_type(&f.ty)));
    let mut component_types: Vec<TypeName> = Vec::new();
    for v in &vars {
        if spec.is_component_type(&v.ty) && !component_types.contains(&v.ty) {
            component_types.push(v.ty);
        }
    }

    Ok(Program { classes, vars, methods, component_types, scmp_shaped })
}

/// Builds the resolution tables, then lowers every method in declaration
/// order (the order fixes variable and allocation-site numbering).
fn lower_classes<'a>(
    classes: &'a [ClassAst<'a>],
    spec: &'a Spec,
    vars: &mut Vec<LVar<'a>>,
    news: &mut Vec<PendingNew>,
) -> Result<Vec<LoweredBody>, SourceError> {
    let components = components(spec);
    let mut class_idx = HashMap::with_capacity(classes.len());
    for (k, c) in classes.iter().enumerate() {
        if components.iter().any(|&(name, _)| name == c.name) {
            return Err(SourceError::new(
                c.span.line,
                format!("client class {} shadows a component class", c.name),
            ));
        }
        if class_idx.insert(c.name, k).is_some() {
            return Err(SourceError::new(c.span.line, format!("duplicate class {}", c.name)));
        }
    }

    // method signatures & ids
    let mut sigs = Vec::new();
    let mut method_ids = HashMap::new();
    for c in classes {
        let class = c.name;
        for m in &c.methods {
            let id = MethodId(sigs.len());
            if method_ids.insert((class, m.name), id).is_some() {
                return Err(SourceError::new(
                    m.span.line,
                    format!("duplicate method {class}.{} (no overloading)", m.name),
                ));
            }
            sigs.push(MethodSig {
                class,
                name: m.name,
                is_static: m.is_static,
                arity: m.params.len(),
                ret_ty: m.ret_ty,
            });
        }
    }

    // statics become global variables
    let mut statics = HashMap::new();
    for c in classes {
        let class = c.name;
        for f in &c.statics {
            let id = VarId(vars.len());
            vars.push(LVar {
                name: format!("{class}.{}", f.name),
                ty: f.ty,
                owner: None,
                kind: VarKind::Static,
            });
            statics.insert((class, f.name), id);
        }
    }

    let tables = Tables { components, classes, class_idx, sigs, method_ids, statics };

    let mut methods = Vec::with_capacity(tables.sigs.len());
    let mut alloc_count: u32 = 0;
    for c in classes {
        for m in &c.methods {
            let mid = MethodId(methods.len());
            methods.push(lower_method(&tables, c, m, mid, vars, news, &mut alloc_count)?);
        }
    }
    Ok(methods)
}

struct Lower<'a, 'l> {
    t: &'l Tables<'a>,
    mid: MethodId,
    class: &'a ClassAst<'a>,
    /// `class`'s name, resolved once.
    class_name: &'a str,
    cfg: Cfg,
    cur: NodeId,
    vars: &'l mut Vec<LVar<'a>>,
    news: &'l mut Vec<PendingNew>,
    locals: HashMap<&'a str, VarId>,
    temp_count: usize,
    alloc_count: &'l mut u32,
    this_var: Option<VarId>,
    ret_var: Option<VarId>,
}

impl<'a> Lower<'a, '_> {
    fn new_var(&mut self, name: String, ty: &'a str, kind: VarKind) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(LVar { name, ty, owner: Some(self.mid), kind });
        id
    }

    fn temp(&mut self, ty: &'a str) -> VarId {
        let n = self.temp_count;
        self.temp_count += 1;
        self.new_var(format!("$t{n}"), ty, VarKind::Temp)
    }

    fn emit(&mut self, instr: Instr) {
        let next = self.cfg.fresh_node();
        self.cfg.add_edge(self.cur, instr, next);
        self.cur = next;
    }

    /// Emits `dst = new T(args)`, `T` being `dst`'s type (see
    /// [`PendingNew`]).
    fn emit_new(&mut self, dst: VarId, site: AllocSite, args: Vec<VarId>, at: Site) {
        let edge = self.cfg.edges().len();
        self.news.push(PendingNew { method: self.mid, edge, dst, site, args, at });
        self.emit(Instr::Nop);
    }

    fn site(&self, span: Span, what: impl Into<String>) -> Site {
        Site { method: self.mid, span, what: what.into() }
    }

    fn var_ty(&self, v: VarId) -> &'a str {
        self.vars[v.0].ty
    }

    fn opaque_temp(&mut self) -> VarId {
        let t = self.temp("Object");
        self.emit(Instr::Nullify { dst: t });
        t
    }

    fn fresh_alloc(&mut self) -> AllocSite {
        let s = AllocSite(*self.alloc_count);
        *self.alloc_count += 1;
        s
    }

    /// Lowers `e` to a variable holding its value, or `None` for opaque
    /// values. Side effects are emitted either way.
    fn lower_expr(&mut self, e: &Expr<'a>, span: Span) -> Result<Option<VarId>, SourceError> {
        match e {
            Expr::Opaque => Ok(None),
            Expr::Var(name) => self.lower_var_read(name, span),
            Expr::FieldGet { base, field } => self.lower_field_get(base, field, span),
            Expr::New { ty, args, span } => self.lower_new(ty.0, args, *span, None).map(Some),
            Expr::Call { recv, method, args, span } => {
                self.lower_call(recv.as_deref(), method, args, *span, None)
            }
        }
    }

    /// Lowers `e` and assigns the result to `dst` (nullifying for opaque).
    fn lower_expr_into(&mut self, e: &Expr<'a>, dst: VarId, span: Span) -> Result<(), SourceError> {
        match e {
            Expr::New { ty, args, span } => {
                self.lower_new(ty.0, args, *span, Some(dst))?;
                Ok(())
            }
            Expr::Call { recv, method, args, span } => {
                match self.lower_call(recv.as_deref(), method, args, *span, Some(dst))? {
                    Some(v) if v == dst => Ok(()),
                    Some(v) => {
                        self.emit(Instr::Copy { dst, src: v });
                        Ok(())
                    }
                    None => {
                        self.emit(Instr::Nullify { dst });
                        Ok(())
                    }
                }
            }
            other => match self.lower_expr(other, span)? {
                Some(v) => {
                    self.emit(Instr::Copy { dst, src: v });
                    Ok(())
                }
                None => {
                    self.emit(Instr::Nullify { dst });
                    Ok(())
                }
            },
        }
    }

    fn lower_var_read(&mut self, name: &str, span: Span) -> Result<Option<VarId>, SourceError> {
        if name == "this" {
            return self
                .this_var
                .map(Some)
                .ok_or_else(|| SourceError::new(span.line, "`this` used in a static method"));
        }
        if let Some(&v) = self.locals.get(name) {
            return Ok(Some(v));
        }
        // instance field of the current class
        if self.class.fields.iter().any(|f| f.name == name) {
            let this = self.this_var.ok_or_else(|| {
                SourceError::new(span.line, format!("field {name:?} used in a static method"))
            })?;
            let fty = self
                .t
                .client_field_ty(self.class_name, name)
                .ok_or_else(|| SourceError::new(span.line, format!("unknown field {name:?}")))?;
            let dst = self.temp(fty);
            self.emit(Instr::Load { dst, base: this, field: name.to_string() });
            return Ok(Some(dst));
        }
        // static of the current class
        if let Some(&v) = self.t.statics.get(&(self.class_name, name)) {
            return Ok(Some(v));
        }
        Err(SourceError::new(span.line, format!("unknown identifier {name:?}")))
    }

    fn lower_field_get(
        &mut self,
        base: &Expr<'a>,
        field: &'a str,
        span: Span,
    ) -> Result<Option<VarId>, SourceError> {
        // `ClassName.staticField`
        if let Expr::Var(n) = *base {
            if !self.is_value_name(n) {
                if let Some(&v) = self.t.statics.get(&(n, field)) {
                    return Ok(Some(v));
                }
                if self.t.class_idx.contains_key(n) {
                    return Err(SourceError::new(
                        span.line,
                        format!("class {n} has no static field {field:?}"),
                    ));
                }
            }
        }
        let Some(b) = self.lower_expr(base, span)? else {
            return Ok(None); // reading a field of an opaque value
        };
        let bty = self.var_ty(b);
        match self.t.ty_kind(bty) {
            TyKind::Client => {
                let fty = self.t.client_field_ty(bty, field).ok_or_else(|| {
                    SourceError::new(span.line, format!("type {bty} has no field {field:?}"))
                })?;
                let dst = self.temp(fty);
                self.emit(Instr::Load { dst, base: b, field: field.to_string() });
                Ok(Some(dst))
            }
            TyKind::Component => Err(SourceError::new(
                span.line,
                format!("client code may not access fields of component type {bty}"),
            )),
            TyKind::Opaque => Ok(None),
        }
    }

    /// Whether `name` resolves to a value (local/param/field/static) rather
    /// than a class reference.
    fn is_value_name(&self, name: &str) -> bool {
        name == "this"
            || self.locals.contains_key(name)
            || self.class.fields.iter().any(|f| f.name == name)
            || self.t.statics.contains_key(&(self.class_name, name))
    }

    fn lower_args(&mut self, args: &[Expr<'a>], span: Span) -> Result<Vec<VarId>, SourceError> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            match self.lower_expr(a, span)? {
                Some(v) => out.push(v),
                None => {
                    let t = self.opaque_temp();
                    out.push(t);
                }
            }
        }
        Ok(out)
    }

    fn lower_new(
        &mut self,
        ty: &'a str,
        args: &[Expr<'a>],
        span: Span,
        preferred: Option<VarId>,
    ) -> Result<VarId, SourceError> {
        let avars = self.lower_args(args, span)?;
        match self.t.ty_kind(ty) {
            TyKind::Component => {
                let class = self.t.component(ty).ok_or_else(|| {
                    SourceError::new(span.line, format!("unknown component type {ty}"))
                })?;
                let arity = class.ctor().map_or(0, |c| c.params().len());
                if avars.len() != arity {
                    return Err(SourceError::new(
                        span.line,
                        format!(
                            "constructor of {ty} expects {arity} argument(s), got {}",
                            avars.len()
                        ),
                    ));
                }
                let dst =
                    preferred.filter(|d| self.var_ty(*d) == ty).unwrap_or_else(|| self.temp(ty));
                let site = self.fresh_alloc();
                let at = self.site(span, format!("new {ty}(...)"));
                self.emit_new(dst, site, avars, at);
                Ok(dst)
            }
            TyKind::Client => {
                let ctor = self.t.method_ids.get(&(ty, ClassSpec::CTOR));
                match ctor {
                    None if !avars.is_empty() => Err(SourceError::new(
                        span.line,
                        format!("class {ty} has no constructor but arguments were supplied"),
                    )),
                    ctor => {
                        let dst = preferred
                            .filter(|d| self.var_ty(*d) == ty)
                            .unwrap_or_else(|| self.temp(ty));
                        let site = self.fresh_alloc();
                        let at = self.site(span, format!("new {ty}(...)"));
                        self.emit_new(dst, site, Vec::new(), at);
                        if let Some(&callee) = ctor {
                            let sig = &self.t.sigs[callee.0];
                            if sig.arity != avars.len() {
                                return Err(SourceError::new(
                                    span.line,
                                    format!(
                                        "constructor of {ty} expects {} argument(s), got {}",
                                        sig.arity,
                                        avars.len()
                                    ),
                                ));
                            }
                            let mut cargs = vec![dst];
                            cargs.extend(avars);
                            let at = self.site(span, format!("{ty}.<init>"));
                            self.emit(Instr::CallClient { dst: None, callee, args: cargs, at });
                        }
                        Ok(dst)
                    }
                }
            }
            TyKind::Opaque => {
                Err(SourceError::new(span.line, format!("allocation of unknown type {ty}")))
            }
        }
    }

    fn lower_call(
        &mut self,
        recv: Option<&Expr<'a>>,
        method: &str,
        args: &[Expr<'a>],
        span: Span,
        preferred: Option<VarId>,
    ) -> Result<Option<VarId>, SourceError> {
        // resolve receiver
        let resolved: ResolvedRecv<'a> = match recv {
            None => ResolvedRecv::CurrentClass,
            Some(&Expr::Var(n)) if !self.is_value_name(n) && self.t.class_idx.contains_key(n) => {
                ResolvedRecv::StaticClass(n)
            }
            Some(e) => {
                let Some(rv) = self.lower_expr(e, span)? else {
                    // call on an opaque value: evaluate args for effect
                    self.lower_args(args, span)?;
                    return Ok(None);
                };
                ResolvedRecv::Value(rv)
            }
        };

        match resolved {
            ResolvedRecv::Value(rv) => {
                let rty = self.var_ty(rv);
                match self.t.ty_kind(rty) {
                    TyKind::Component => {
                        self.lower_component_call(rv, method, args, span, preferred)
                    }
                    TyKind::Client => {
                        let callee =
                            self.t.method_ids.get(&(rty, method)).copied().ok_or_else(|| {
                                SourceError::new(
                                    span.line,
                                    format!("class {rty} has no method {method:?}"),
                                )
                            })?;
                        if self.t.sigs[callee.0].is_static {
                            return Err(SourceError::new(
                                span.line,
                                format!("static method {rty}.{method} called through an instance"),
                            ));
                        }
                        let mut cargs = vec![rv];
                        cargs.extend(self.lower_args(args, span)?);
                        self.finish_client_call(callee, cargs, span, preferred, method)
                    }
                    TyKind::Opaque => {
                        self.lower_args(args, span)?;
                        Ok(None)
                    }
                }
            }
            ResolvedRecv::StaticClass(cname) => {
                let callee = self.t.method_ids.get(&(cname, method)).copied().ok_or_else(|| {
                    SourceError::new(span.line, format!("class {cname} has no method {method:?}"))
                })?;
                if !self.t.sigs[callee.0].is_static {
                    return Err(SourceError::new(
                        span.line,
                        format!("instance method {cname}.{method} called without a receiver"),
                    ));
                }
                let cargs = self.lower_args(args, span)?;
                self.finish_client_call(callee, cargs, span, preferred, method)
            }
            ResolvedRecv::CurrentClass => {
                let cname = self.class_name;
                let callee = self.t.method_ids.get(&(cname, method)).copied().ok_or_else(|| {
                    SourceError::new(span.line, format!("class {cname} has no method {method:?}"))
                })?;
                let mut cargs = Vec::new();
                if !self.t.sigs[callee.0].is_static {
                    let this = self.this_var.ok_or_else(|| {
                        SourceError::new(
                            span.line,
                            format!("instance method {method:?} called from a static context"),
                        )
                    })?;
                    cargs.push(this);
                }
                cargs.extend(self.lower_args(args, span)?);
                self.finish_client_call(callee, cargs, span, preferred, method)
            }
        }
    }

    fn lower_component_call(
        &mut self,
        rv: VarId,
        method: &str,
        args: &[Expr<'a>],
        span: Span,
        preferred: Option<VarId>,
    ) -> Result<Option<VarId>, SourceError> {
        let rty = self.var_ty(rv);
        let class = self
            .t
            .component(rty)
            .ok_or_else(|| SourceError::new(span.line, format!("unknown component type {rty}")))?;
        let m = class.method(method);
        let known = m.is_some();
        let avars = self.lower_args(args, span)?;
        if let Some(m) = m {
            if m.params().len() != avars.len() {
                return Err(SourceError::new(
                    span.line,
                    format!(
                        "component method {rty}.{method} expects {} argument(s), got {}",
                        m.params().len(),
                        avars.len()
                    ),
                ));
            }
        }
        let dst = m.and_then(|m| m.ret_ty()).map(|rt| {
            let rt = rt.as_str();
            preferred.filter(|d| self.var_ty(*d) == rt).unwrap_or_else(|| self.temp(rt))
        });
        let what = format!("{}.{method}()", self.vars[rv.0].name);
        let at = self.site(span, what);
        self.emit(Instr::CallComponent {
            dst,
            recv: rv,
            method: method.to_string(),
            args: avars,
            known,
            at,
        });
        Ok(dst)
    }

    fn finish_client_call(
        &mut self,
        callee: MethodId,
        args: Vec<VarId>,
        span: Span,
        preferred: Option<VarId>,
        method: &str,
    ) -> Result<Option<VarId>, SourceError> {
        let sig = &self.t.sigs[callee.0];
        let expected = sig.arity + usize::from(!sig.is_static);
        if args.len() != expected {
            return Err(SourceError::new(
                span.line,
                format!(
                    "method {}.{} expects {expected} argument(s), got {}",
                    sig.class,
                    sig.name,
                    args.len()
                ),
            ));
        }
        let dst = sig
            .ret_ty
            .filter(|rt| self.t.ty_kind(rt) != TyKind::Opaque)
            .map(|rt| preferred.filter(|d| self.var_ty(*d) == rt).unwrap_or_else(|| self.temp(rt)));
        let at = self.site(span, format!("{method}(...)"));
        self.emit(Instr::CallClient { dst, callee, args, at });
        Ok(dst)
    }

    fn lower_stmt(&mut self, s: &Stmt<'a>) -> Result<(), SourceError> {
        match s {
            &Stmt::VarDecl { name, ty, ref init, span } => {
                if self.locals.contains_key(name) {
                    return Err(SourceError::new(
                        span.line,
                        format!("duplicate local variable {name:?} (shadowing unsupported)"),
                    ));
                }
                let v = self.new_var(name.to_string(), ty, VarKind::Local);
                self.locals.insert(name, v);
                match init {
                    Some(e) => self.lower_expr_into(e, v, span)?,
                    None => self.emit(Instr::Nullify { dst: v }),
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, span } => self.lower_assign(lhs, rhs, *span),
            Stmt::Expr { expr, span } => {
                self.lower_expr(expr, *span)?;
                Ok(())
            }
            Stmt::If { cond_effects, then, els, span } => {
                for e in cond_effects {
                    self.lower_expr(e, *span)?;
                }
                let branch = self.cur;
                let join = self.cfg.fresh_node();
                for arm in [then, els] {
                    let entry = self.cfg.fresh_node();
                    self.cfg.add_edge(branch, Instr::Nop, entry);
                    self.cur = entry;
                    for s in arm {
                        self.lower_stmt(s)?;
                    }
                    self.cfg.add_edge(self.cur, Instr::Nop, join);
                }
                self.cur = join;
                Ok(())
            }
            Stmt::While { cond_effects, body, span } => {
                let head = self.cfg.fresh_node();
                self.cfg.add_edge(self.cur, Instr::Nop, head);
                self.cur = head;
                for e in cond_effects {
                    self.lower_expr(e, *span)?;
                }
                let test = self.cur;
                let body_entry = self.cfg.fresh_node();
                let after = self.cfg.fresh_node();
                self.cfg.add_edge(test, Instr::Nop, body_entry);
                self.cfg.add_edge(test, Instr::Nop, after);
                self.cur = body_entry;
                for s in body {
                    self.lower_stmt(s)?;
                }
                self.cfg.add_edge(self.cur, Instr::Nop, head);
                self.cur = after;
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.lower_stmt(s)?;
                }
                Ok(())
            }
            Stmt::Return { value, span } => {
                match (value, self.ret_var) {
                    (Some(e), Some(rv)) => self.lower_expr_into(e, rv, *span)?,
                    (Some(e), None) => {
                        self.lower_expr(e, *span)?;
                    }
                    (None, _) => {}
                }
                let exit = self.cfg.exit();
                self.cfg.add_edge(self.cur, Instr::Nop, exit);
                self.cur = self.cfg.fresh_node(); // unreachable continuation
                Ok(())
            }
        }
    }

    fn lower_assign(
        &mut self,
        lhs: &LValue<'a>,
        rhs: &Expr<'a>,
        span: Span,
    ) -> Result<(), SourceError> {
        match *lhs {
            LValue::Var(name) => {
                if let Some(&v) = self.locals.get(name) {
                    return self.lower_expr_into(rhs, v, span);
                }
                // instance field of current class: this.name = rhs
                if self.class.fields.iter().any(|f| f.name == name) {
                    let this = self.this_var.ok_or_else(|| {
                        SourceError::new(
                            span.line,
                            format!("field {name:?} assigned in a static method"),
                        )
                    })?;
                    let src = self.rhs_to_var(rhs, span)?;
                    self.emit(Instr::Store { base: this, field: name.to_string(), src });
                    return Ok(());
                }
                if let Some(&v) = self.t.statics.get(&(self.class_name, name)) {
                    return self.lower_expr_into(rhs, v, span);
                }
                Err(SourceError::new(span.line, format!("unknown identifier {name:?}")))
            }
            LValue::Field { ref base, field } => {
                // `ClassName.staticField = rhs`
                if let Expr::Var(n) = **base {
                    if !self.is_value_name(n) {
                        if let Some(&v) = self.t.statics.get(&(n, field)) {
                            return self.lower_expr_into(rhs, v, span);
                        }
                    }
                }
                let Some(b) = self.lower_expr(base, span)? else {
                    return Err(SourceError::new(span.line, "assignment through an opaque value"));
                };
                let bty = self.var_ty(b);
                if self.t.ty_kind(bty) != TyKind::Client {
                    return Err(SourceError::new(
                        span.line,
                        format!("cannot assign field of non-client type {bty}"),
                    ));
                }
                if self.t.client_field_ty(bty, field).is_none() {
                    return Err(SourceError::new(
                        span.line,
                        format!("type {bty} has no field {field:?}"),
                    ));
                }
                let src = self.rhs_to_var(rhs, span)?;
                self.emit(Instr::Store { base: b, field: field.to_string(), src });
                Ok(())
            }
        }
    }

    fn rhs_to_var(&mut self, rhs: &Expr<'a>, span: Span) -> Result<VarId, SourceError> {
        match self.lower_expr(rhs, span)? {
            Some(v) => Ok(v),
            None => Ok(self.opaque_temp()),
        }
    }
}

enum ResolvedRecv<'a> {
    CurrentClass,
    StaticClass(&'a str),
    Value(VarId),
}

fn lower_method<'a>(
    tables: &Tables<'a>,
    class: &'a ClassAst<'a>,
    m: &'a MethodDecl<'a>,
    mid: MethodId,
    vars: &mut Vec<LVar<'a>>,
    news: &mut Vec<PendingNew>,
    alloc_count: &mut u32,
) -> Result<LoweredBody, SourceError> {
    let mut lw = Lower {
        t: tables,
        mid,
        class,
        class_name: class.name,
        cfg: Cfg::new(),
        cur: NodeId(0),
        vars,
        news,
        locals: HashMap::new(),
        temp_count: 0,
        alloc_count,
        this_var: None,
        ret_var: None,
    };
    lw.cur = lw.cfg.entry();

    let mut params = Vec::new();
    if !m.is_static {
        let v = lw.new_var("this".to_string(), class.name, VarKind::Param(0));
        lw.this_var = Some(v);
        params.push(v);
    }
    for (k, &(name, ty)) in m.params.iter().enumerate() {
        let idx = k + usize::from(!m.is_static);
        let v = lw.new_var(name.to_string(), ty, VarKind::Param(idx));
        if lw.locals.insert(name, v).is_some() {
            return Err(SourceError::new(m.span.line, format!("duplicate parameter {name:?}")));
        }
        params.push(v);
    }
    if let Some(rt) = m.ret_ty {
        if tables.ty_kind(rt) != TyKind::Opaque {
            lw.ret_var = Some(lw.new_var("$ret".to_string(), rt, VarKind::Ret));
        }
    }

    for s in &m.body {
        lw.lower_stmt(s)?;
    }
    let exit = lw.cfg.exit();
    lw.cfg.add_edge(lw.cur, Instr::Nop, exit);

    Ok(LoweredBody { params, ret_var: lw.ret_var, cfg: lw.cfg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn cmp() -> canvas_easl::Spec {
        canvas_easl::builtin::cmp()
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
                if (cond()) { i2.next(); }
                if (cond()) { i3.next(); }
                v.add("x");
                if (cond()) { i1.next(); }
            }
            static boolean cond() { return true; }
        }
    "#;

    #[test]
    fn lower_fig3() {
        let p = Program::parse(FIG3, &cmp()).unwrap();
        assert!(p.is_scmp_shaped());
        let main = p.method_named("Main.main").unwrap();
        let comp_calls = main
            .cfg
            .edges()
            .iter()
            .filter(|e| matches!(e.instr, Instr::CallComponent { .. }))
            .count();
        // iterator() x2, next() x4, remove(), add() = 8
        assert_eq!(comp_calls, 8);
        let news = main.cfg.edges().iter().filter(|e| matches!(e.instr, Instr::New { .. })).count();
        assert_eq!(news, 1);
    }

    #[test]
    fn heap_client_not_scmp() {
        let p = Program::parse(
            "class W { Set s; W() { s = new Set(); } void touch() { s.add(\"x\"); } }",
            &cmp(),
        )
        .unwrap();
        assert!(!p.is_scmp_shaped());
        // ctor: Store of a component value into a field
        let ctor = p.method_named("W.<init>").unwrap();
        assert!(ctor.cfg.edges().iter().any(|e| matches!(e.instr, Instr::Store { .. })));
        // touch: Load then CallComponent
        let touch = p.method_named("W.touch").unwrap();
        assert!(touch.cfg.edges().iter().any(|e| matches!(e.instr, Instr::Load { .. })));
    }

    #[test]
    fn statics_are_global_vars() {
        let p = Program::parse(
            "class G { static Set shared; static void init() { shared = new Set(); } static void poke() { shared.add(\"y\"); } }",
            &cmp(),
        )
        .unwrap();
        assert!(p.is_scmp_shaped());
        assert_eq!(p.static_vars().count(), 1);
        let v = p.static_vars().next().unwrap();
        assert_eq!(v.name, "G.shared");
        assert!(v.owner.is_none());
    }

    #[test]
    fn client_calls_and_returns() {
        let p = Program::parse(
            r#"
            class Main {
                static void main() {
                    Set s = mk();
                    Iterator i = s.iterator();
                    use(i);
                }
                static Set mk() { return new Set(); }
                static void use(Iterator it) { it.next(); }
            }
            "#,
            &cmp(),
        )
        .unwrap();
        let mk = p.method_named("Main.mk").unwrap();
        assert!(mk.ret_var.is_some());
        let main = p.method_named("Main.main").unwrap();
        let client_calls =
            main.cfg.edges().iter().filter(|e| matches!(e.instr, Instr::CallClient { .. })).count();
        assert_eq!(client_calls, 2);
        let cg = p.call_graph();
        assert_eq!(cg[&main.id].len(), 2);
    }

    #[test]
    fn unknown_component_method_is_tolerated() {
        let p = Program::parse(
            "class A { void m(Set s) { for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); } } }",
            &cmp(),
        )
        .unwrap();
        let m = p.method_named("A.m").unwrap();
        let unknown = m
            .cfg
            .edges()
            .iter()
            .filter(|e| matches!(&e.instr, Instr::CallComponent { known: false, .. }))
            .count();
        assert_eq!(unknown, 1); // hasNext
    }

    #[test]
    fn lowering_errors() {
        let s = cmp();
        // component internals are off limits
        assert!(Program::parse("class A { void m(Iterator i) { Set x = i.set; } }", &s).is_err());
        // unknown identifier
        assert!(Program::parse("class A { void m() { x.next(); } }", &s).is_err());
        // arity mismatch on component call
        assert!(Program::parse("class A { void m(Set s) { s.iterator(s); } }", &s).is_err());
        // class shadowing a component class
        assert!(Program::parse("class Set { }", &s).is_err());
        // `this` in static method
        assert!(
            Program::parse("class A { static void m() { this.n(); } void n() { } }", &s).is_err()
        );
        // duplicate local
        assert!(Program::parse(
            "class A { void m() { Set s = new Set(); Set s = new Set(); } }",
            &s
        )
        .is_err());
    }

    #[test]
    fn return_in_middle_splits_cfg() {
        let p = Program::parse(
            "class A { Set m(Set s) { if (x()) { return s; } return new Set(); } static boolean x() { return true; } }",
            &cmp(),
        )
        .unwrap();
        let m = p.method_named("A.m").unwrap();
        // two paths into the exit from the two returns + trailing nop
        let exit = m.cfg.exit();
        let into_exit = m.cfg.edges().iter().filter(|e| e.to == exit).count();
        assert!(into_exit >= 2);
    }
}
