//! `canvas-conformance` — a Rust reproduction of *"Deriving Specialized
//! Program Analyses for Certifying Component-Client Conformance"*
//! (Ramalingam, Warshavsky, Field, Goyal, Sagiv — PLDI 2002).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`easl`] — the EASL specification language and built-in FOS specs;
//! * [`minijava`] — the mini-Java client language;
//! * [`logic`] — formulas, Kleene values, small-model checks;
//! * [`wp`] — weakest preconditions and abstraction derivation (§4);
//! * [`abstraction`] — the boolean-program client transform (§4.3);
//! * [`dataflow`] — FDS / relational / interprocedural engines (§4, §8);
//! * [`tvla`] — the TVP IR and 3-valued-logic engine (§5);
//! * [`heap`] — the allocation-site baseline (§3);
//! * [`faults`] — resource budgets, graceful degradation, fault injection;
//! * [`core`] — the [`Certifier`] pipeline tying everything together;
//! * [`check`] — the independent certificate checker (engine-free trusted
//!   base) that revalidates proof-carrying certificates by replay;
//! * [`suite`] — the evaluation corpus and generators (§7);
//! * [`incr`] — incremental certification: the content-addressed
//!   certificate cache and the `canvas serve` protocol;
//! * [`fleet`] — fleet-scale corpus certification: the synthetic corpus
//!   generator and the driver whose workers claim programs from one queue
//!   and share one certificate store (`canvas fleet`).
//!
//! Start with [`Certifier`]:
//!
//! ```
//! use canvas_conformance::{Certifier, Engine};
//!
//! let certifier = Certifier::from_spec(canvas_conformance::easl::builtin::cmp())?;
//! let report = certifier.certify_source(
//!     "class Main { static void main() {
//!          Set s = new Set();
//!          Iterator i = s.iterator();
//!          i.next();
//!      } }",
//!     Engine::ScmpFds,
//! )?;
//! assert!(report.certified());
//! # Ok::<(), canvas_conformance::core::CertifyError>(())
//! ```

pub use canvas_abstraction as abstraction;
pub use canvas_check as check;
pub use canvas_core as core;
pub use canvas_dataflow as dataflow;
pub use canvas_easl as easl;
pub use canvas_faults as faults;
pub use canvas_fleet as fleet;
pub use canvas_heap as heap;
pub use canvas_incr as incr;
pub use canvas_logic as logic;
pub use canvas_minijava as minijava;
pub use canvas_suite as suite;
pub use canvas_telemetry as telemetry;
pub use canvas_tvla as tvla;
pub use canvas_wp as wp;

pub use canvas_core::{Certifier, CertifyError, Engine, Report, Violation};
