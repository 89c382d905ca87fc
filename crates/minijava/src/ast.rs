//! The mini-Java abstract syntax tree (pre-lowering).
//!
//! Method bodies borrow every name from the source text (`'src`) and live
//! only between parsing and lowering; a lowered [`crate::Program`] keeps
//! just the class declarations ([`ClassDecl`]: name, fields, statics).

use canvas_logic::TypeName;

use crate::ir::Span;

/// A class declaration, as a lowered [`crate::Program`] keeps it.
#[derive(Clone, PartialEq, Debug)]
pub struct ClassDecl {
    /// Class name.
    pub name: TypeName,
    /// Instance fields.
    pub fields: Vec<FieldDecl>,
    /// Static fields (treated as global variables by the analyses).
    pub statics: Vec<FieldDecl>,
    /// Declaration position.
    pub span: Span,
}

/// A parsed class: its kept declaration plus the method bodies lowering
/// consumes.
#[derive(Debug)]
pub(crate) struct ClassAst<'src> {
    /// Name, fields, statics and span.
    pub decl: ClassDecl,
    /// Methods, including constructors under the name `<init>`.
    pub methods: Vec<MethodDecl<'src>>,
}

/// A field declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Declared type (component, client, or opaque like `Object`).
    pub ty: TypeName,
    /// Declaration position.
    pub span: Span,
}

/// A method declaration.
#[derive(Debug)]
pub(crate) struct MethodDecl<'src> {
    /// Method name (`<init>` for constructors).
    pub name: &'src str,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Parameters as (name, type).
    pub params: Vec<(&'src str, TypeName)>,
    /// Declared return type (`None` for `void`).
    pub ret_ty: Option<TypeName>,
    /// Body statements.
    pub body: Vec<Stmt<'src>>,
    /// Declaration position.
    pub span: Span,
    /// Line of the body's closing brace.
    pub end_line: u32,
}

/// A statement.
#[derive(Debug)]
pub(crate) enum Stmt<'src> {
    /// `T x;` or `T x = e;`
    VarDecl {
        /// Variable name.
        name: &'src str,
        /// Declared type.
        ty: TypeName,
        /// Optional initializer.
        init: Option<Expr<'src>>,
        /// Source position.
        span: Span,
    },
    /// `lhs = e;`
    Assign {
        /// Assigned location.
        lhs: LValue<'src>,
        /// Assigned value.
        rhs: Expr<'src>,
        /// Source position.
        span: Span,
    },
    /// An expression evaluated for effect, e.g. a call.
    Expr {
        /// The expression.
        expr: Expr<'src>,
        /// Source position.
        span: Span,
    },
    /// `if (cond) { … } else { … }` — the condition is kept only for the
    /// component calls it contains; the branch itself is nondeterministic.
    If {
        /// Component-relevant expressions evaluated by the condition.
        cond_effects: Vec<Expr<'src>>,
        /// Then branch.
        then: Vec<Stmt<'src>>,
        /// Else branch.
        els: Vec<Stmt<'src>>,
        /// Source position.
        span: Span,
    },
    /// `while (cond) { … }` — condition handled as in [`Stmt::If`]; its
    /// effects are evaluated before every iteration test.
    While {
        /// Component-relevant expressions evaluated by the condition.
        cond_effects: Vec<Expr<'src>>,
        /// Loop body.
        body: Vec<Stmt<'src>>,
        /// Source position.
        span: Span,
    },
    /// `return;` or `return e;`
    Return {
        /// Returned value.
        value: Option<Expr<'src>>,
        /// Source position.
        span: Span,
    },
    /// A statement sequence with no branching (used by the `for` desugar to
    /// splice the init statement before the loop).
    Block(Vec<Stmt<'src>>),
}

/// An assignable location.
#[derive(Debug)]
pub(crate) enum LValue<'src> {
    /// A local variable, parameter, or (possibly unqualified) static field.
    Var(&'src str),
    /// `base.field`; chained bases are flattened via temporaries during
    /// lowering.
    Field {
        /// The base expression (`this` allowed).
        base: Box<Expr<'src>>,
        /// The stored-to field.
        field: &'src str,
    },
}

/// An expression. Its `Debug` rendering appears in parse errors.
#[derive(Debug)]
pub(crate) enum Expr<'src> {
    /// A variable reference (`x`, `this`, or an unqualified static).
    Var(&'src str),
    /// `base.field` — reading a field.
    FieldGet {
        /// Base expression.
        base: Box<Expr<'src>>,
        /// Read field.
        field: &'src str,
    },
    /// `new T(args)`.
    New {
        /// Allocated type.
        ty: TypeName,
        /// Constructor arguments.
        args: Vec<Expr<'src>>,
        /// Source position (identifies the allocation site).
        span: Span,
    },
    /// `recv.m(args)` or `m(args)` (implicit receiver / static call).
    Call {
        /// Receiver, if any.
        recv: Option<Box<Expr<'src>>>,
        /// Method name.
        method: &'src str,
        /// Arguments.
        args: Vec<Expr<'src>>,
        /// Source position (identifies the call site).
        span: Span,
    },
    /// Anything the analyses do not track: literals, arithmetic, `null`, …
    Opaque,
}
