//! Mini-Java — the client language analysed by the certifiers.
//!
//! The paper analyses Java programs that use a component such as the Java
//! Collections Framework. The analyses only ever inspect the *component-
//! relevant skeleton* of a client: reference copies, field loads/stores,
//! allocations, (component and client) method calls, and control flow with
//! nondeterministic branches. Mini-Java models exactly that skeleton (see
//! DESIGN.md for the substitution rationale):
//!
//! * classes with instance fields, `static` fields, constructors, and
//!   (static or instance) methods;
//! * statements: local declarations, assignments, `if`/`else`, `while`,
//!   `for`, `return`, expression statements;
//! * expressions: variable/field paths, `new`, method calls, and *opaque*
//!   expressions (literals, arithmetic, …) which the analyses ignore;
//! * branch conditions are evaluated for their component calls and then
//!   abstracted as nondeterministic choices, as in the paper.
//!
//! Parsing produces a [`Program`]: a global variable table (statics plus
//! per-method params/locals/temps), and one control-flow graph per method
//! whose edges carry three-address [`Instr`]uctions.
//!
//! # Example
//!
//! ```
//! use canvas_minijava::Program;
//!
//! let spec = canvas_easl::builtin::cmp();
//! let program = Program::parse(
//!     r#"
//!     class Main {
//!         static void main() {
//!             Set v = new Set();
//!             Iterator i = v.iterator();
//!             i.next();
//!         }
//!     }
//!     "#,
//!     &spec,
//! )?;
//! assert!(program.is_scmp_shaped());
//! assert_eq!(program.methods().len(), 1);
//! # Ok::<(), canvas_minijava::SourceError>(())
//! ```

// the panic-free frontier: code reachable from external input must
// return typed errors, never panic (test code is exempt)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ast;
pub mod inline;
mod ir;
mod lower;
mod parser;
pub mod synth;

pub use ast::{ClassDecl, FieldDecl};
pub use ir::{
    AllocSite, Cfg, Edge, Instr, MethodId, MethodIr, NodeId, Program, Site, Span, VarId, VarKind,
    Variable,
};

/// Errors produced while parsing or lowering a mini-Java program.
///
/// This is the same source-location-plus-message shape as EASL errors; the
/// alias keeps signatures readable.
pub type SourceError = canvas_easl::EaslError;
