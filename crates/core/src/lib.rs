//! The staged conformance-certification pipeline (the paper's contribution).
//!
//! ```text
//! EASL spec ──derive (§4.1/4.2)──▶ Derived abstraction ─┐
//!                                                       │ certifier generation time
//! ══════════════════════════════════════════════════════╪══════════════════════════
//!                                                       │ client analysis time
//! mini-Java client ──instantiate (§4.3/§5.4)──▶ engine ─┴─▶ Report
//! ```
//!
//! [`Certifier::from_spec`] runs the derivation once; [`Certifier::certify`]
//! then analyses any number of clients with any [`Engine`]:
//!
//! * [`Engine::ScmpFds`] — the polynomial precise certifier for clients with
//!   component references in locals/statics (§4);
//! * [`Engine::ScmpRelational`] — the exponential relational oracle (§4.6);
//! * [`Engine::ScmpInterproc`] — context-sensitive interprocedural (§8);
//! * [`Engine::TvlaRelational`] / [`Engine::TvlaIndependent`] — the
//!   first-order predicate abstraction on the TVLA-style engine (§5), for
//!   clients that store component references in the heap;
//! * [`Engine::GenericSsgRelational`] / [`Engine::GenericSsgIndependent`] —
//!   the storage-shape-graph baseline (§3/§4.4);
//! * [`Engine::GenericAllocSite`] — the allocation-site baseline (§3).
//!
//! # Example
//!
//! ```
//! use canvas_core::{Certifier, Engine};
//!
//! let certifier = Certifier::from_spec(canvas_easl::builtin::cmp())?;
//! let report = certifier.certify_source(
//!     "class Main { static void main() {
//!          Set s = new Set();
//!          Iterator i = s.iterator();
//!          s.add(\"x\");
//!          i.next();
//!      } }",
//!     Engine::ScmpFds,
//! )?;
//! assert_eq!(report.violations.len(), 1);
//! # Ok::<(), canvas_core::CertifyError>(())
//! ```

// the panic-free frontier: code reachable from external input must
// return typed errors, never panic (test code is exempt)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod certifier;
mod engine;
mod error;
mod report;

pub use canvas_abstraction::{CellSolution, CertCell, CertFormatError, CertViolation, Certificate};
pub use certifier::{solved_cell, walk_program, Certifier, CertifyError};
pub use engine::{Engine, PreparedProgram, SharedTransforms};
pub use error::{panic_message, write_stdout, CanvasError, ErrorKind, Stage};
pub use report::{Report, Stats, Verdict, Violation, Witness, WitnessStep};
