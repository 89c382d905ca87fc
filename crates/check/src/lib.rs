//! Independent certificate checker (the Abstraction-Carrying Code half of
//! the pipeline).
//!
//! The certifier ships its *fixpoint solution* inside a
//! [`Certificate`]; this crate revalidates
//! it without trusting — or even linking — any engine code. The trusted
//! base is exactly:
//!
//! * `canvas-easl` — the component specification,
//! * `canvas-minijava` — the client front-end,
//! * `canvas-abstraction` — the spec-to-boolean-program transform and the
//!   certificate format itself.
//!
//! [`check`] re-transforms every method of the client, verifies the claimed
//! solution is a **post-fixpoint** of the boolean program's transfer
//! functions in a single pass over the edges (no fixpoint iteration), and
//! verifies the claimed violation set is *exactly* the set the solution
//! implies at the `requires` check sites. Anything mutated, truncated, or
//! inconsistent is rejected with a typed [`CheckError`].
//!
//! Soundness argument (DESIGN.md §9): the replayed containment checks plus
//! the entry-seeding checks establish that the claimed solution is a
//! post-fixpoint covering the analysis' entry states, hence a superset of
//! the least fixpoint the engine computes. A superset can only *add*
//! may-be-1 bits, i.e. add potential violations — so a certificate that
//! passes the checker can never hide a violation the engine would report.
//! The violation-set equality check then pins the claim to be exactly the
//! solution's own consequences.

// the checker is the trusted base: code reachable from external input must
// return typed errors, never panic
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, HashSet};
use std::fmt;

use canvas_abstraction::{
    bp_digest, derived_digest, digest_str, transform_method, BoolProgram, CellSolution,
    CertFormatError, CertViolation, Certificate, Derived, EntryAssumption, Operand, Rhs,
};
use canvas_easl::Spec;
use canvas_minijava::{MethodId, Program};

/// Hard cap on the states materialized while replaying one relational
/// transfer (havoc forking is exponential in the havoc count). Genuine
/// certificates stay far below this — the emitting engine ran under a much
/// smaller state budget — so the cap only stops adversarial certificates
/// from turning the checker into a resource sink.
const REPLAY_STATE_CAP: usize = 1 << 20;

/// Why a certificate was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckError {
    /// The serialized form failed to parse or its digest does not match.
    Format(CertFormatError),
    /// The certificate names a different specification.
    WrongSpec {
        /// Specification named by the certificate.
        cert: String,
        /// Specification the checker was given.
        actual: String,
    },
    /// The certificate binds a different derived abstraction.
    WrongDerived,
    /// The certificate binds different client source text.
    WrongSource,
    /// The client source does not parse (with the front-end's message).
    Client(String),
    /// The client has no `main` entry point.
    NoMain,
    /// A `(method, entry)` cell the certifier must produce is absent.
    MissingCell {
        /// Qualified method name.
        method: String,
        /// Entry assumption of the missing cell.
        entry: EntryAssumption,
    },
    /// A duplicate cell, or one for a method the client does not declare.
    ExtraCell {
        /// Qualified method name.
        method: String,
    },
    /// A cell carries no replayable solution (TVLA/heap/interproc engines,
    /// or an inconclusive run) — the verdict cannot be independently
    /// revalidated.
    Uncheckable {
        /// Qualified method name (or `<whole-program>`).
        method: String,
        /// The emitter's stated reason.
        reason: String,
    },
    /// The claimed solution does not fit the re-transformed boolean program
    /// (predicate count, node count, or program digest differ).
    ShapeMismatch {
        /// Qualified method name.
        method: String,
        /// What differed.
        detail: String,
    },
    /// The claimed solution does not cover the analysis' entry states.
    EntryNotCovered {
        /// Qualified method name.
        method: String,
    },
    /// The claimed solution is not a post-fixpoint: some transfer along
    /// `from → to` produces a state the solution does not claim at `to`.
    NotPostFixpoint {
        /// Qualified method name.
        method: String,
        /// Source node of the failing edge.
        from: usize,
        /// Target node of the failing edge.
        to: usize,
    },
    /// The claimed violation list is not exactly what the solution implies.
    ViolationMismatch {
        /// Violations the certificate claims.
        claimed: usize,
        /// Violations the replay implies.
        implied: usize,
    },
    /// Replaying a transfer exceeded the checker's hard state cap.
    ReplayBudget {
        /// Qualified method name.
        method: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Format(e) => write!(f, "{e}"),
            CheckError::WrongSpec { cert, actual } => {
                write!(f, "certificate is for spec {cert:?}, not {actual:?}")
            }
            CheckError::WrongDerived => {
                f.write_str("certificate binds a different derived abstraction")
            }
            CheckError::WrongSource => f.write_str("certificate binds different client source"),
            CheckError::Client(m) => write!(f, "client does not parse: {m}"),
            CheckError::NoMain => f.write_str("client has no main method"),
            CheckError::MissingCell { method, entry } => {
                write!(f, "missing certificate cell for {method} ({entry:?} entry)")
            }
            CheckError::ExtraCell { method } => {
                write!(f, "unexpected or duplicate certificate cell for {method}")
            }
            CheckError::Uncheckable { method, reason } => {
                write!(f, "cell {method} is not replayable: {reason}")
            }
            CheckError::ShapeMismatch { method, detail } => {
                write!(f, "solution for {method} does not fit the boolean program: {detail}")
            }
            CheckError::EntryNotCovered { method } => {
                write!(f, "solution for {method} does not cover the entry states")
            }
            CheckError::NotPostFixpoint { method, from, to } => {
                write!(f, "solution for {method} is not a post-fixpoint at edge {from} -> {to}")
            }
            CheckError::ViolationMismatch { claimed, implied } => write!(
                f,
                "certificate claims {claimed} violation(s) but the solution implies {implied}"
            ),
            CheckError::ReplayBudget { method } => {
                write!(f, "replaying {method} exceeded the checker's state cap")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<CertFormatError> for CheckError {
    fn from(e: CertFormatError) -> CheckError {
        CheckError::Format(e)
    }
}

/// Work counters from one successful replay.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CheckStats {
    /// Certificate cells replayed.
    pub cells: usize,
    /// Edges whose containment was verified.
    pub edges_replayed: usize,
    /// Transfer-function applications.
    pub transfers: usize,
}

/// The verdict of a successful revalidation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckOutcome {
    /// `true` iff the replay confirms conformance (no implied violations).
    pub certified: bool,
    /// The confirmed violations (equal to the certificate's claim).
    pub violations: Vec<CertViolation>,
    /// Work counters.
    pub stats: CheckStats,
}

// ---------------------------------------------------------------------------
// Valuations: a minimal word-packed bitset. The checker must not depend on
// canvas-dataflow, so these helpers are local.
// ---------------------------------------------------------------------------

type Val = Vec<u64>;

fn val_new(width: usize) -> Val {
    vec![0; width.div_ceil(64)]
}

fn val_get(v: &[u64], i: usize) -> bool {
    v[i / 64] >> (i % 64) & 1 == 1
}

fn val_set(v: &mut [u64], i: usize, b: bool) {
    let mask = 1u64 << (i % 64);
    if b {
        v[i / 64] |= mask;
    } else {
        v[i / 64] &= !mask;
    }
}

fn val_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

fn val_from(bits: &[u32], width: usize) -> Option<Val> {
    let mut v = val_new(width);
    for &b in bits {
        if b as usize >= width {
            return None;
        }
        val_set(&mut v, b as usize, true);
    }
    Some(v)
}

/// The per-node rows of an FDS cell, decoded once into one flat word
/// arena: row `n` is `words[n * stride..(n + 1) * stride]`.
struct Rows {
    words: Vec<u64>,
    stride: usize,
}

impl Rows {
    /// Decodes index lists into bit rows of `width` bits, or `None` if an
    /// index is out of range.
    fn decode(nodes: &[Vec<u32>], width: usize) -> Option<Rows> {
        let stride = width.div_ceil(64);
        let mut words = vec![0; nodes.len() * stride];
        for (n, bits) in nodes.iter().enumerate() {
            for &b in bits {
                let b = b as usize;
                if b >= width {
                    return None;
                }
                // `b < width` keeps the word inside row `n`
                val_set(&mut words[n * stride..], b, true);
            }
        }
        Some(Rows { words, stride })
    }

    fn row(&self, n: usize) -> &[u64] {
        &self.words[n * self.stride..(n + 1) * self.stride]
    }

    fn get(&self, n: usize, i: usize) -> bool {
        val_get(self.row(n), i)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Replays an independent-attribute (FDS) solution: per-node may-be-1 sets.
///
/// The engine seeds the entry node with the entry-unknown bits and then
/// joins `transfer(S[from])` into `S[to]` along every edge reachable from
/// the entry. The replay verifies exactly that: seeding, then one
/// containment check per reachable edge. Edges whose source the graph
/// cannot reach are skipped — the FDS transfer can *create* bits from an
/// empty state (havoc, constant-true operands), so demanding containment
/// there would reject genuine certificates.
fn replay_may_one(
    bp: &BoolProgram,
    nodes: &[Vec<u32>],
    method: &str,
    stats: &mut CheckStats,
) -> Result<Rows, CheckError> {
    let width = bp.preds.len();
    let shape = |detail: String| CheckError::ShapeMismatch { method: method.to_string(), detail };
    if nodes.len() != bp.node_count {
        return Err(shape(format!("{} solution rows for {} nodes", nodes.len(), bp.node_count)));
    }
    let states = Rows::decode(nodes, width)
        .ok_or_else(|| shape("predicate index out of range".to_string()))?;

    for &k in &bp.entry_unknown {
        if !states.get(bp.entry, k) {
            return Err(CheckError::EntryNotCovered { method: method.to_string() });
        }
    }

    let reached = bp.reachable();

    let mut out = val_new(width); // reused across edges: one allocation total
    for e in &bp.edges {
        if !reached[e.from] {
            continue;
        }
        stats.edges_replayed += 1;
        stats.transfers += 1;
        // parallel assignment: operands read the pre-state, strong update
        let pre = states.row(e.from);
        out.copy_from_slice(pre);
        for (dst, rhs) in &e.assigns {
            let bit = match rhs {
                Rhs::Havoc => true,
                Rhs::Disj(ops) => ops.iter().any(|op| match op {
                    Operand::Const(c) => *c,
                    Operand::Var(v) => val_get(pre, *v),
                }),
            };
            val_set(&mut out, *dst, bit);
        }
        if !val_subset(&out, states.row(e.to)) {
            return Err(CheckError::NotPostFixpoint {
                method: method.to_string(),
                from: e.from,
                to: e.to,
            });
        }
    }
    Ok(states)
}

/// Replays a relational solution: per-node sets of full valuations.
///
/// Entry coverage means every assignment of the entry-unknown bits is
/// claimed at the entry node. The transfer forks on havoc assignments
/// exactly like the engine; since the relational transfer maps an empty
/// state set to an empty set, every edge can be checked unconditionally —
/// no reachability gating is needed, and an empty claimed set at a
/// reachable node contradicts its (non-empty) predecessor and is caught by
/// the containment check.
fn replay_relational(
    bp: &BoolProgram,
    nodes: &[Vec<Vec<u32>>],
    method: &str,
    stats: &mut CheckStats,
) -> Result<Vec<HashSet<Val>>, CheckError> {
    let width = bp.preds.len();
    let shape = |detail: String| CheckError::ShapeMismatch { method: method.to_string(), detail };
    if nodes.len() != bp.node_count {
        return Err(shape(format!("{} solution rows for {} nodes", nodes.len(), bp.node_count)));
    }
    let mut states: Vec<HashSet<Val>> = Vec::with_capacity(nodes.len());
    for vals in nodes {
        let mut set = HashSet::with_capacity(vals.len());
        for bits in vals {
            let v = val_from(bits, width)
                .ok_or_else(|| shape("predicate index out of range".to_string()))?;
            set.insert(v);
        }
        states.push(set);
    }

    let k = bp.entry_unknown.len();
    if k >= usize::BITS as usize - 1 || (1usize << k) > states[bp.entry].len() {
        return Err(CheckError::EntryNotCovered { method: method.to_string() });
    }
    for mask in 0..(1usize << k) {
        let mut v = val_new(width);
        for (j, &bit) in bp.entry_unknown.iter().enumerate() {
            if mask >> j & 1 == 1 {
                val_set(&mut v, bit, true);
            }
        }
        if !states[bp.entry].contains(&v) {
            return Err(CheckError::EntryNotCovered { method: method.to_string() });
        }
    }

    for e in &bp.edges {
        if states[e.from].is_empty() {
            continue;
        }
        stats.edges_replayed += 1;
        for s in &states[e.from] {
            stats.transfers += 1;
            let mut outs = vec![s.clone()];
            for (dst, rhs) in &e.assigns {
                match rhs {
                    Rhs::Disj(ops) => {
                        let bit = ops.iter().any(|op| match op {
                            Operand::Const(c) => *c,
                            Operand::Var(v) => val_get(s, *v),
                        });
                        for o in &mut outs {
                            val_set(o, *dst, bit);
                        }
                    }
                    Rhs::Havoc => {
                        let mut forked = Vec::with_capacity(outs.len() * 2);
                        for mut o in outs {
                            let mut one = o.clone();
                            val_set(&mut o, *dst, false);
                            val_set(&mut one, *dst, true);
                            forked.push(o);
                            forked.push(one);
                        }
                        outs = forked;
                        if outs.len() > REPLAY_STATE_CAP {
                            return Err(CheckError::ReplayBudget { method: method.to_string() });
                        }
                    }
                }
            }
            for o in &outs {
                if !states[e.to].contains(o) {
                    return Err(CheckError::NotPostFixpoint {
                        method: method.to_string(),
                        from: e.from,
                        to: e.to,
                    });
                }
            }
        }
    }
    Ok(states)
}

/// Evaluates every `requires` check site against the replayed solution,
/// mirroring the engines' violation semantics: a site fires when any of its
/// guarding operands may be 1 (constant-true fires unconditionally). The
/// transform keeps only the sites a path from the entry reaches, for the
/// engines and this replay alike.
fn implied_violations(
    program: &Program,
    bp: &BoolProgram,
    may: impl Fn(usize, usize) -> bool,
) -> Vec<CertViolation> {
    let mut out = Vec::new();
    for c in &bp.checks {
        let fires = c.preds.iter().any(|op| match op {
            Operand::Const(b) => *b,
            Operand::Var(v) => may(c.node, *v),
        });
        if fires {
            out.push(CertViolation {
                method: program.method(c.site.method).qualified_name(),
                line: c.site.span.line,
                col: c.site.span.col,
                what: c.site.what.clone(),
            });
        }
    }
    out
}

/// Parses and revalidates a serialized certificate. See [`check`].
///
/// # Errors
///
/// [`CheckError::Format`] if the text fails to parse or its digest does not
/// match, otherwise whatever [`check`] reports.
pub fn check_text(
    source: &str,
    spec: &Spec,
    derived: &Derived,
    cert_text: &str,
) -> Result<CheckOutcome, CheckError> {
    let cert = Certificate::parse(cert_text)?;
    check(source, spec, derived, &cert)
}

/// Revalidates a certificate against the exact client source, specification
/// and derived abstraction it claims to certify.
///
/// An `Ok` outcome means the claimed solution is a genuine post-fixpoint
/// and the claimed violation list is exactly what the solution implies —
/// [`CheckOutcome::certified`] then reports whether that list is empty. Any
/// inconsistency is an `Err`: a rejected certificate proves nothing.
///
/// # Errors
///
/// [`CheckError`] describing the first inconsistency found (a cell with no
/// replayable solution, binding digests, cell coverage, solution shape,
/// post-fixpoint replay, or violation set).
pub fn check(
    source: &str,
    spec: &Spec,
    derived: &Derived,
    cert: &Certificate,
) -> Result<CheckOutcome, CheckError> {
    // a cell without a solution leaves nothing to replay: name it before a
    // binding or shape check misreports its placeholder method or shape
    for cell in &cert.cells {
        if let CellSolution::Unavailable { reason } = &cell.solution {
            return Err(CheckError::Uncheckable {
                method: cell.method.clone(),
                reason: reason.clone(),
            });
        }
    }
    if cert.spec != spec.name() {
        return Err(CheckError::WrongSpec {
            cert: cert.spec.clone(),
            actual: spec.name().to_string(),
        });
    }
    if cert.derived != derived_digest(derived) {
        return Err(CheckError::WrongDerived);
    }
    if cert.source != digest_str(source) {
        return Err(CheckError::WrongSource);
    }
    let program = Program::parse(source, spec).map_err(|e| CheckError::Client(e.to_string()))?;
    let main = program.main_method().ok_or(CheckError::NoMain)?.id;

    // the certifier produces exactly one cell per method: main under the
    // clean entry, every other method under the unknown entry — demand
    // exactly that set, nothing missing, nothing extra, no duplicates
    let methods = program.methods();
    let expected_entry =
        |m: MethodId| if m == main { EntryAssumption::Clean } else { EntryAssumption::Unknown };
    // keyed by (class, method): a qualified name `Class.method` splits at
    // its one dot (identifiers hold none), so no lookup allocates a key
    let by_name: HashMap<(&str, &str), MethodId> =
        methods.iter().map(|m| ((m.class.as_str(), m.name.as_str()), m.id)).collect();
    // each cell's method, if the cell is one of the expected set
    let cell_methods: Vec<Option<MethodId>> = cert
        .cells
        .iter()
        .map(|c| {
            c.method
                .split_once('.')
                .and_then(|key| by_name.get(&key).copied())
                .filter(|&m| expected_entry(m) == c.entry)
        })
        .collect();
    let mut cells_of = vec![0usize; methods.len()];
    for m in cell_methods.iter().flatten() {
        cells_of[m.0] += 1;
    }
    // main's cell is reported missing first, then the others in order
    let mut order =
        std::iter::once(main).chain(methods.iter().map(|m| m.id).filter(|&m| m != main));
    if let Some(m) = order.find(|m| cells_of[m.0] == 0) {
        return Err(CheckError::MissingCell {
            method: program.method(m).qualified_name(),
            entry: expected_entry(m),
        });
    }
    let mut resolved = Vec::with_capacity(cert.cells.len());
    for (c, m) in cert.cells.iter().zip(&cell_methods) {
        match m {
            Some(m) if cells_of[m.0] == 1 => resolved.push((c, program.method(*m))),
            _ => return Err(CheckError::ExtraCell { method: c.method.clone() }),
        }
    }

    let mut stats = CheckStats::default();
    let mut implied: Vec<CertViolation> = Vec::new();
    for (cell, method) in resolved {
        stats.cells += 1;
        let bp = transform_method(&program, method, spec, derived, cell.entry);
        if bp.preds.len() != cell.preds as usize {
            return Err(CheckError::ShapeMismatch {
                method: cell.method.clone(),
                detail: format!(
                    "{} predicate instances claimed, transform has {}",
                    cell.preds,
                    bp.preds.len()
                ),
            });
        }
        if bp_digest(&bp) != cell.bp_digest {
            return Err(CheckError::ShapeMismatch {
                method: cell.method.clone(),
                detail: "boolean-program digest mismatch".to_string(),
            });
        }
        match &cell.solution {
            CellSolution::Unavailable { reason } => {
                return Err(CheckError::Uncheckable {
                    method: cell.method.clone(),
                    reason: reason.clone(),
                });
            }
            CellSolution::MayOne { nodes } => {
                let states = replay_may_one(&bp, nodes, &cell.method, &mut stats)?;
                implied.extend(implied_violations(&program, &bp, |n, v| states.get(n, v)));
            }
            CellSolution::Relational { nodes } => {
                let states = replay_relational(&bp, nodes, &cell.method, &mut stats)?;
                implied.extend(implied_violations(&program, &bp, |n, v| {
                    states[n].iter().any(|s| val_get(s, v))
                }));
            }
        }
    }

    // mirror Report::normalize: sort by (method, line, col, what) and drop
    // duplicates, then the claim must match exactly
    implied.sort();
    implied.dedup();
    if implied != cert.violations {
        return Err(CheckError::ViolationMismatch {
            claimed: cert.violations.len(),
            implied: implied.len(),
        });
    }
    Ok(CheckOutcome { certified: implied.is_empty(), violations: implied, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_helpers_pack_and_compare() {
        let mut v = val_new(130);
        assert_eq!(v.len(), 3);
        val_set(&mut v, 0, true);
        val_set(&mut v, 64, true);
        val_set(&mut v, 129, true);
        assert!(val_get(&v, 0) && val_get(&v, 64) && val_get(&v, 129));
        assert!(!val_get(&v, 1));
        val_set(&mut v, 64, false);
        assert!(!val_get(&v, 64));

        let a = val_from(&[1, 3], 8).unwrap();
        let b = val_from(&[1, 3, 5], 8).unwrap();
        assert!(val_subset(&a, &b));
        assert!(!val_subset(&b, &a));
        assert!(val_from(&[8], 8).is_none(), "out-of-range index must be rejected");
    }

    #[test]
    fn rows_decode_into_one_arena() {
        let rows = Rows::decode(&[vec![0, 64], vec![], vec![129]], 130).unwrap();
        assert_eq!((rows.stride, rows.words.len()), (3, 9));
        assert!(rows.get(0, 0) && rows.get(0, 64) && !rows.get(0, 1));
        assert!(!rows.get(1, 0) && rows.get(2, 129));
        assert_eq!(rows.row(1), [0, 0, 0]);
        assert!(Rows::decode(&[vec![], vec![130]], 130).is_none(), "out-of-range index");
        assert!(Rows::decode(&[vec![], vec![]], 0).is_some(), "zero-width rows");
        assert!(Rows::decode(&[vec![0]], 0).is_none(), "no index fits a zero-width row");
    }
}
