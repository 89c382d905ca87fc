//! The typed EASL abstract syntax tree.

use std::fmt;

use canvas_logic::{AccessPath, Formula, TypeName, Var};

use crate::{parser, EaslError};

/// A complete EASL specification: a named set of component classes.
#[derive(Clone, PartialEq, Debug)]
pub struct Spec {
    name: String,
    classes: Vec<ClassSpec>,
}

impl Spec {
    /// Parses a specification from its Java-like concrete syntax.
    ///
    /// # Errors
    ///
    /// Returns an [`EaslError`] on lexical, syntactic or resolution errors
    /// (unknown types, unknown fields, `requires` not at method entry, …).
    pub fn parse(name: impl Into<String>, src: &str) -> Result<Spec, EaslError> {
        parser::parse_spec(name.into(), src)
    }

    /// Assembles a specification from already-built classes (used by tests
    /// and by programmatic spec construction).
    pub fn from_classes(name: impl Into<String>, classes: Vec<ClassSpec>) -> Spec {
        Spec { name: name.into(), classes }
    }

    /// The specification's name (e.g. `"cmp"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All classes, in declaration order.
    pub fn classes(&self) -> &[ClassSpec] {
        &self.classes
    }

    /// The class names in declaration order.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|c| c.name().as_str()).collect()
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassSpec> {
        self.classes.iter().find(|c| c.name().as_str() == name)
    }

    /// Whether `ty` is one of the component's classes.
    pub fn is_component_type(&self, ty: &TypeName) -> bool {
        // symbol equality: one integer compare per class, no name lookup
        self.classes.iter().any(|c| c.name() == ty)
    }

    /// The declared type of `field` in component type `owner`.
    pub fn field_type(&self, owner: &TypeName, field: &str) -> Option<TypeName> {
        self.class(owner.as_str())?.fields().iter().find(|f| f.name() == field).map(|f| *f.ty())
    }

    /// A [`canvas_logic::TypeOracle`] view of the specification's field
    /// types, for use with the model enumerator.
    pub fn oracle(&self) -> impl canvas_logic::TypeOracle + '_ {
        move |owner: &TypeName, field: &str| self.field_type(owner, field)
    }

    /// The component types clients interact with directly: classes that
    /// declare a constructor or method, or occur in a method signature.
    /// (In CMP this excludes the internal `Version` token class.)
    pub fn client_facing_types(&self) -> Vec<TypeName> {
        self.classes
            .iter()
            .filter(|c| {
                !c.methods().is_empty()
                    || self.classes.iter().any(|d| {
                        d.methods().iter().any(|m| {
                            m.ret_ty() == Some(c.name())
                                || m.params().iter().any(|(_, t)| t == c.name())
                        })
                    })
            })
            .map(|c| *c.name())
            .collect()
    }

    /// All methods of all classes, paired with their class.
    pub fn all_methods(&self) -> impl Iterator<Item = (&ClassSpec, &MethodSpec)> {
        self.classes.iter().flat_map(|c| c.methods().iter().map(move |m| (c, m)))
    }
}

/// A field declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDecl {
    name: String,
    ty: TypeName,
}

impl FieldDecl {
    /// Creates a field declaration.
    pub fn new(name: impl Into<String>, ty: TypeName) -> Self {
        FieldDecl { name: name.into(), ty }
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's declared type.
    pub fn ty(&self) -> &TypeName {
        &self.ty
    }
}

/// One component class of a specification.
#[derive(Clone, PartialEq, Debug)]
pub struct ClassSpec {
    name: TypeName,
    fields: Vec<FieldDecl>,
    methods: Vec<MethodSpec>,
}

impl ClassSpec {
    /// Constructor name used for class constructors in [`MethodSpec`].
    pub const CTOR: &'static str = "<init>";

    /// Creates a class.
    pub fn new(name: TypeName, fields: Vec<FieldDecl>, methods: Vec<MethodSpec>) -> Self {
        ClassSpec { name, fields, methods }
    }

    /// The class name.
    pub fn name(&self) -> &TypeName {
        &self.name
    }

    /// The declared fields.
    pub fn fields(&self) -> &[FieldDecl] {
        &self.fields
    }

    /// The declared methods (constructors appear under the name
    /// [`ClassSpec::CTOR`]).
    pub fn methods(&self) -> &[MethodSpec] {
        &self.methods
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodSpec> {
        self.methods.iter().find(|m| m.name() == name)
    }

    /// The class constructor, if declared.
    pub fn ctor(&self) -> Option<&MethodSpec> {
        self.method(Self::CTOR)
    }
}

/// The base of a [`SpecPath`]: the receiver or a parameter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpecVar {
    /// The method receiver `this`.
    This,
    /// The parameter with the given index.
    Param(usize),
}

/// An access path inside a method body: `this.set.ver`, `s.ver`, …
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecPath {
    base: SpecVar,
    fields: Vec<String>,
}

impl SpecPath {
    /// Creates a path. Fields may be given as `String`s or interned
    /// [`canvas_logic::Symbol`]s.
    pub fn new(base: SpecVar, fields: impl IntoIterator<Item = impl Into<String>>) -> Self {
        SpecPath { base, fields: fields.into_iter().map(Into::into).collect() }
    }

    /// The path's base.
    pub fn base(&self) -> SpecVar {
        self.base
    }

    /// The field selections.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Converts to a logic [`AccessPath`], naming the receiver `this`.
    pub fn to_access_path(&self, method: &MethodSpec, class: &ClassSpec) -> AccessPath {
        let base = match self.base {
            SpecVar::This => Var::new("this", *class.name()),
            SpecVar::Param(k) => {
                let (n, t) = &method.params()[k];
                Var::new(n.clone(), *t)
            }
        };
        let mut p = AccessPath::of(base);
        for f in &self.fields {
            p = p.field(f.clone());
        }
        p
    }
}

/// An expression in a method body.
#[derive(Clone, PartialEq, Debug)]
pub enum SpecExpr {
    /// A path read.
    Path(SpecPath),
    /// An allocation, possibly with constructor arguments (`new Iterator(this)`).
    New {
        /// The allocated class.
        ty: TypeName,
        /// Constructor arguments.
        args: Vec<SpecExpr>,
    },
}

/// A statement in a method body.
#[derive(Clone, PartialEq, Debug)]
pub enum SpecStmt {
    /// `lhs = rhs;` where `lhs` is a field path.
    Assign {
        /// Assigned location (a path ending in a field, or a bare `this`
        /// never occurs — checked at resolution).
        lhs: SpecPath,
        /// Assigned value.
        rhs: SpecExpr,
    },
}

/// One method (or constructor) of a component class.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodSpec {
    name: String,
    params: Vec<(String, TypeName)>,
    ret_ty: Option<TypeName>,
    requires: Option<Formula>,
    body: Vec<SpecStmt>,
    ret: Option<SpecExpr>,
}

impl MethodSpec {
    /// Creates a method.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(String, TypeName)>,
        ret_ty: Option<TypeName>,
        requires: Option<Formula>,
        body: Vec<SpecStmt>,
        ret: Option<SpecExpr>,
    ) -> Self {
        MethodSpec { name: name.into(), params, ret_ty, requires, body, ret }
    }

    /// The method name ([`ClassSpec::CTOR`] for constructors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a constructor.
    pub fn is_ctor(&self) -> bool {
        self.name == ClassSpec::CTOR
    }

    /// Parameters, in order.
    pub fn params(&self) -> &[(String, TypeName)] {
        &self.params
    }

    /// The declared return type, if any and if it is a component type.
    pub fn ret_ty(&self) -> Option<&TypeName> {
        self.ret_ty.as_ref()
    }

    /// The precondition, a formula over paths rooted at `this` and the
    /// parameters. `None` means `true`.
    pub fn requires(&self) -> Option<&Formula> {
        self.requires.as_ref()
    }

    /// The body statements (excluding `requires` and `return`).
    pub fn body(&self) -> &[SpecStmt] {
        &self.body
    }

    /// The returned expression, if the method returns a component value.
    pub fn ret(&self) -> Option<&SpecExpr> {
        self.ret.as_ref()
    }

    /// The logic variable standing for the receiver.
    pub fn this_var(&self, class: &ClassSpec) -> Var {
        Var::new("this", *class.name())
    }

    /// Logic variables standing for the parameters.
    pub fn param_vars(&self) -> Vec<Var> {
        self.params.iter().map(|(n, t)| Var::new(n.clone(), *t)).collect()
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec {} ({} classes)", self.name, self.classes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lookup() {
        let spec = Spec::parse("cmp", crate::builtin::CMP_SOURCE).unwrap();
        assert!(spec.is_component_type(&TypeName::new("Set")));
        assert!(!spec.is_component_type(&TypeName::new("HashMap")));
        assert_eq!(spec.field_type(&TypeName::new("Iterator"), "set"), Some(TypeName::new("Set")));
        assert_eq!(spec.field_type(&TypeName::new("Iterator"), "bogus"), None);
        assert_eq!(spec.to_string(), "spec cmp (3 classes)");
    }

    #[test]
    fn client_facing_types_exclude_version() {
        let spec = Spec::parse("cmp", crate::builtin::CMP_SOURCE).unwrap();
        let cf: Vec<String> =
            spec.client_facing_types().iter().map(|t| t.as_str().to_string()).collect();
        assert_eq!(cf, ["Set", "Iterator"]);
    }

    #[test]
    fn spec_path_to_access_path() {
        let spec = Spec::parse("cmp", crate::builtin::CMP_SOURCE).unwrap();
        let it = spec.class("Iterator").unwrap();
        let ctor = it.ctor().unwrap();
        // ctor body: defVer = s.ver; set = s;
        let SpecStmt::Assign { lhs, rhs } = &ctor.body()[0];
        assert_eq!(lhs.to_access_path(ctor, it).to_string(), "this.defVer");
        match rhs {
            SpecExpr::Path(p) => {
                assert_eq!(p.to_access_path(ctor, it).to_string(), "s.ver");
            }
            other => panic!("unexpected rhs {other:?}"),
        }
    }
}
