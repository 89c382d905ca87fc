//! The evaluation corpus (paper §7) and workload generators.
//!
//! The paper evaluates its prototype CMP certifier on "a suite of test
//! cases, including both real-world programs that use JCF and contrived
//! test cases representing difficult instances of CMP". We cannot run
//! 2002-era Java sources (no Java frontend — see DESIGN.md); instead the
//! corpus contains:
//!
//! * the paper's own programs (Fig. 1 `Make`, Fig. 3, the §3 version loop),
//! * contrived hard instances (aliasing chains, conditional staleness,
//!   loops, heap-stored iterators, interprocedural mutation),
//! * *application-like* clients mirroring common JCF usage patterns at
//!   realistic method sizes, and
//! * clients for the other FOS problems (GRP, IMP, AOP).
//!
//! Ground truth is embedded in the sources: every line where a violation is
//! genuinely possible carries an `// ERROR` marker; [`Benchmark::truth`]
//! recovers the line numbers, and the evaluation counts reported versus
//! real errors and false alarms per engine.

mod corpus;
pub mod generators;
pub mod oracle;
pub mod threads;

pub use corpus::{corpus, Benchmark, SpecKind};
pub use threads::{claim_each, worker_count, Claimed};
