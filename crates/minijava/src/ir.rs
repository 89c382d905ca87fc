//! The lowered intermediate representation: variables, instructions, CFGs.

use std::collections::HashMap;
use std::fmt;

use canvas_easl::Spec;
use canvas_logic::TypeName;

use crate::ast::ClassDecl;
use crate::SourceError;

/// Index of a variable in the program-wide variable table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub usize);

/// Index of a method in the program's method table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MethodId(pub usize);

/// Index of a CFG node within one method.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub usize);

/// Identifies one allocation expression in the source.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AllocSite(pub u32);

/// A source position: 1-based line and column.
///
/// Columns are byte-based (the accepted surface syntax is ASCII-only). A
/// column of 0 means "unknown" — e.g. synthetic code with no source text.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (0 = unknown).
    pub col: u32,
}

impl Span {
    /// Creates a span at `line:col`.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A program point used in reports: method plus source span.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Site {
    /// The enclosing method.
    pub method: MethodId,
    /// Source position (line and column).
    pub span: Span,
    /// Human-readable description, e.g. `i.next()`.
    pub what: String,
}

impl Site {
    /// 1-based source line (shorthand for `span.line`).
    pub fn line(&self) -> u32 {
        self.span.line
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.span.line, self.what)
    }
}

/// What kind of storage a [`Variable`] is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VarKind {
    /// A method parameter (with its index; `this` is parameter 0 of
    /// instance methods).
    Param(usize),
    /// A local variable.
    Local,
    /// A compiler-introduced temporary.
    Temp,
    /// A static field (global; `owner` is `None`).
    Static,
    /// The synthetic per-method return-value slot.
    Ret,
}

/// A variable in the program-wide table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Variable {
    /// Unique id (index into [`Program::vars`]).
    pub id: VarId,
    /// Name; statics are qualified (`Main.worklist`), temps are `$tN`.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// The owning method, or `None` for statics.
    pub owner: Option<MethodId>,
    /// Storage kind.
    pub kind: VarKind,
}

/// A three-address instruction, carried on a CFG edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `dst = src` (reference copy).
    Copy {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
    },
    /// `dst = new T(args)` — allocation. For client classes with a declared
    /// constructor the lowering emits a separate [`Instr::CallClient`] to
    /// `<init>`; for component classes the constructor effect is part of the
    /// derived method abstraction of this form.
    New {
        /// Destination variable.
        dst: VarId,
        /// Allocated type.
        ty: TypeName,
        /// Allocation site.
        site: AllocSite,
        /// Constructor arguments (component classes only).
        args: Vec<VarId>,
        /// Program point.
        at: Site,
    },
    /// `dst = base.field` (client-class field read).
    Load {
        /// Destination variable.
        dst: VarId,
        /// Base variable.
        base: VarId,
        /// Read field.
        field: String,
    },
    /// `base.field = src` (client-class field write).
    Store {
        /// Base variable.
        base: VarId,
        /// Written field.
        field: String,
        /// Source variable.
        src: VarId,
    },
    /// `[dst =] recv.m(args)` where `recv` has a component type.
    CallComponent {
        /// Destination for the returned reference, if bound.
        dst: Option<VarId>,
        /// Receiver.
        recv: VarId,
        /// Component method name.
        method: String,
        /// Arguments (only reference-typed ones are kept).
        args: Vec<VarId>,
        /// Whether the method exists in the specification (unknown methods
        /// are assumed effect- and requires-free).
        known: bool,
        /// Program point (the paper's `requires` check sites).
        at: Site,
    },
    /// `[dst =] m(args)` — a call to another client method (static
    /// dispatch; the receiver, if any, is argument 0).
    CallClient {
        /// Destination for the returned reference, if bound.
        dst: Option<VarId>,
        /// Callee.
        callee: MethodId,
        /// Arguments, aligned with the callee's params (receiver first for
        /// instance methods).
        args: Vec<VarId>,
        /// Program point.
        at: Site,
    },
    /// `dst = null` or `dst = <opaque>` — destination no longer refers to a
    /// tracked object.
    Nullify {
        /// Destination variable.
        dst: VarId,
    },
    /// No effect (control-flow glue).
    Nop,
}

impl Instr {
    /// The destination variable this instruction writes, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Instr::Copy { dst, .. } | Instr::Load { dst, .. } | Instr::Nullify { dst } => {
                Some(*dst)
            }
            Instr::New { dst, .. } => Some(*dst),
            Instr::CallComponent { dst, .. } | Instr::CallClient { dst, .. } => *dst,
            Instr::Store { .. } | Instr::Nop => None,
        }
    }
}

/// A CFG edge: `from --instr--> to`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// The instruction executed along the edge.
    pub instr: Instr,
    /// Target node.
    pub to: NodeId,
}

/// A control-flow graph; instructions live on edges (as in TVP).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cfg {
    node_count: usize,
    edges: Vec<Edge>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Creates an empty CFG with fresh entry and exit nodes.
    pub fn new() -> Self {
        Cfg { node_count: 2, edges: Vec::new(), entry: NodeId(0), exit: NodeId(1) }
    }

    /// Allocates a fresh node.
    pub fn fresh_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Adds an edge.
    pub fn add_edge(&mut self, from: NodeId, instr: Instr, to: NodeId) {
        self.edges.push(Edge { from, instr, to });
    }

    /// Replaces the instruction of the `edge`-th edge.
    pub(crate) fn set_instr(&mut self, edge: usize, instr: Instr) {
        if let Some(e) = self.edges.get_mut(edge) {
            e.instr = instr;
        }
    }

    /// Entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// Exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edges of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == n)
    }
}

/// One lowered method.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodIr {
    /// The method's id.
    pub id: MethodId,
    /// Declaring class.
    pub class: TypeName,
    /// Method name (`<init>` for constructors).
    pub name: String,
    /// Whether the method is static.
    pub is_static: bool,
    /// Parameter variables (`this` first for instance methods).
    pub params: Vec<VarId>,
    /// The synthetic return slot, if the method returns a reference.
    pub ret_var: Option<VarId>,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Position of the declaration (the return type / `static` keyword).
    pub span: Span,
    /// Line of the body's closing brace (the method covers
    /// `span.line..=end_line`).
    pub end_line: u32,
}

impl MethodIr {
    /// Fully qualified name, `Class.method`.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.class, self.name)
    }
}

/// A parsed and lowered mini-Java program.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    pub(crate) classes: Vec<ClassDecl>,
    pub(crate) vars: Vec<Variable>,
    pub(crate) methods: Vec<MethodIr>,
    pub(crate) component_types: Vec<TypeName>,
    pub(crate) scmp_shaped: bool,
}

impl Program {
    /// Parses and lowers a program against a component specification.
    ///
    /// # Errors
    ///
    /// Returns a [`SourceError`] on lexical/syntactic errors, unknown
    /// identifiers or types, arity mismatches, or unsupported constructs.
    pub fn parse(src: &str, spec: &Spec) -> Result<Program, SourceError> {
        crate::lower::parse_and_lower(src, spec)
    }

    /// The program-wide variable table.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// A variable by id.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// All lowered methods.
    pub fn methods(&self) -> &[MethodIr] {
        &self.methods
    }

    /// A method by id.
    pub fn method(&self, id: MethodId) -> &MethodIr {
        &self.methods[id.0]
    }

    /// Looks up a method by `Class.name`.
    pub fn method_named(&self, qualified: &str) -> Option<&MethodIr> {
        self.methods.iter().find(|m| {
            let name = qualified.strip_prefix(m.class.as_str()).and_then(|r| r.strip_prefix('.'));
            name == Some(m.name.as_str())
        })
    }

    /// The `main` method (entry point), if declared.
    pub fn main_method(&self) -> Option<&MethodIr> {
        self.methods.iter().find(|m| m.name == "main" && m.is_static)
    }

    /// The typed class declarations (used by the heap baselines).
    pub fn classes(&self) -> &[ClassDecl] {
        &self.classes
    }

    /// The component types referenced by the program.
    pub fn component_types(&self) -> &[TypeName] {
        &self.component_types
    }

    /// Whether references to component objects are confined to locals,
    /// parameters and statics (the paper's S- prefix restriction, §4): no
    /// client field has a component type.
    pub fn is_scmp_shaped(&self) -> bool {
        self.scmp_shaped
    }

    /// Variables visible to `method`: its own params/locals/temps plus all
    /// statics, filtered to component types.
    pub fn component_vars_in_scope(&self, method: MethodId, spec: &Spec) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|v| {
                (v.owner == Some(method) || v.owner.is_none()) && spec.is_component_type(&v.ty)
            })
            .map(|v| v.id)
            .collect()
    }

    /// Count of static variables.
    pub fn static_vars(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter().filter(|v| v.owner.is_none())
    }

    /// Total number of CFG edges (the paper's `E`).
    pub fn edge_count(&self) -> usize {
        self.methods.iter().map(|m| m.cfg.edges().len()).sum()
    }

    /// Adds a *ghost* variable owned by `method` (used by the
    /// interprocedural analysis for entry-snapshot and phantom variables).
    /// Ghost variables are never assigned by any instruction.
    pub fn add_ghost_var(&mut self, method: MethodId, name: &str, ty: TypeName) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            id,
            name: name.to_string(),
            ty,
            owner: Some(method),
            kind: VarKind::Temp,
        });
        id
    }

    /// Clones variable `v` as a new variable owned by `owner` (used by the
    /// inliner to re-home callee variables into the inlined method).
    pub fn duplicate_var_for(&mut self, owner: MethodId, v: VarId) -> VarId {
        let src = self.vars[v.0].clone();
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            id,
            name: format!("{}#{}", src.name, id.0),
            ty: src.ty,
            owner: Some(owner),
            kind: src.kind,
        });
        id
    }

    /// Replaces a method's CFG (used by the inliner).
    pub fn replace_cfg(&mut self, method: MethodId, cfg: Cfg) {
        self.methods[method.0].cfg = cfg;
    }

    /// Builds the static call graph: for each method, the client methods it
    /// calls.
    pub fn call_graph(&self) -> HashMap<MethodId, Vec<MethodId>> {
        let mut out: HashMap<MethodId, Vec<MethodId>> = HashMap::new();
        for m in &self.methods {
            let mut callees = Vec::new();
            for e in m.cfg.edges() {
                if let Instr::CallClient { callee, .. } = &e.instr {
                    if !callees.contains(callee) {
                        callees.push(*callee);
                    }
                }
            }
            out.insert(m.id, callees);
        }
        out
    }
}

impl Default for Cfg {
    fn default() -> Self {
        Cfg::new()
    }
}
