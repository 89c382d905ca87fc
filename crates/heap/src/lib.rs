//! Generic-certification baselines (paper §3).
//!
//! The paper's first take on certification composes the client with the
//! EASL specification (treating the spec as the component implementation)
//! and runs a *generic* heap analysis over the composite program. This
//! crate provides the allocation-site-based must-alias analysis baseline
//! ([`allocsite`]); the storage-shape-graph baseline is obtained by running
//! the `canvas-tvla` engine on the generic translation (see
//! `canvas_tvla::translate_generic`).
//!
//! The paper's point — reproduced by the evaluation — is that generic
//! abstractions are blind to the constraint being certified: the
//! allocation-site analysis cannot distinguish the versions allocated by
//! successive `add` calls in a loop (§3's example), and the shape-graph
//! analysis merges the unpointed version objects of Fig. 3 (§4.4), each
//! producing false alarms the derived specialized abstraction avoids.

pub mod allocsite;

pub use allocsite::{analyze as allocsite_analyze, AllocSiteResult};
