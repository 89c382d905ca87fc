//! TVLA-lite: the TVP intermediate language and a 3-valued-logic abstract
//! interpreter (paper §5).
//!
//! The paper analyses general (heap-storing) clients by translating them to
//! **TVP** — a CFG whose edges carry *actions*: first-order predicate-update
//! formulas with optional allocation bindings and `requires` checks — and
//! running the **TVLA** abstract interpreter over *3-valued logical
//! structures* under canonical abstraction. This crate implements:
//!
//! * [`tvp`] — the TVP IR: predicates, first-order formulas with Kleene
//!   semantics, actions, programs;
//! * [`structure`] — 3-valued structures and formula evaluation;
//! * [`canon`] — canonical abstraction (merge individuals with equal
//!   abstraction-predicate signatures), canonical ordering and hashing;
//! * [`transfer`] — the abstract transformer: focus (goal-directed
//!   materialisation on unary pointer predicates), precondition pruning,
//!   simultaneous predicate update with allocation, and coerce (integrity
//!   constraint repair: unary pointer and functional field predicates);
//! * [`engine`] — the two analysis modes the paper benchmarks: *relational*
//!   (a set of structures per CFG node) and *independent attribute* (one
//!   joined structure per node);
//! * [`translate`] — client translation: the *specialized* translation that
//!   attaches the derived first-order instrumentation predicates (Fig. 10 /
//!   Fig. 11), and the *generic* composite-program translation (§3) that
//!   inlines the EASL bodies as plain heap mutations — which, with only the
//!   `pt_x` predicates for abstraction, is exactly the storage-shape-graph
//!   baseline of §4.4.
//!
//! Transitive closure is not implemented: none of the paper's
//! specifications need it (see DESIGN.md).

pub mod canon;
pub mod engine;
pub mod structure;
pub mod transfer;
pub mod translate;
pub mod tvp;

pub use engine::{render_structure, run, to_dot, EngineMode, TvlaResult, TvlaViolation};
pub use structure::Structure;
pub use translate::{translate_generic, translate_specialized};
pub use tvp::{Action, Formula3, Functional, PredDecl, PredId, PredKind, TvpProgram, Update};
