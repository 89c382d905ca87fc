//! Per-fact provenance for the boolean-program solvers.
//!
//! For every predicate instance that becomes true at a node, the solvers can
//! record *which CFG edge* first set it and *which pre-state fact* justified
//! it. Walking those justifications backwards from a `requires` check yields
//! a **witness trace**: the chain of establishment events (iterator created
//! here, set mutated there) that ends in the violating use. Recording is a
//! separate monomorphization of each solver (`solve(…, trace: true)`), so
//! the certification hot path pays nothing when explanations are off.
//!
//! Justifications are recorded only the *first* time a fact becomes true.
//! The solvers are monotone — a justification always refers to facts that
//! were already true (hence already justified) when it was recorded — so the
//! justification graph is acyclic and every back-walk terminates.

use canvas_abstraction::{BoolEdge, BoolProgram, Operand, Rhs};
use canvas_minijava::{MethodId, Program};
use canvas_wp::Derived;

use crate::soa::word_get;

/// Why a fact first became true at a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Just {
    /// The boolean-program edge (index-aligned with the method's IR edges)
    /// whose transfer set the fact.
    pub edge: u32,
    /// The pre-state fact at the edge's source that justified it:
    /// `Some(q)` when the fact was derived from (or propagated as) `q`,
    /// `None` when the edge established it outright (`Havoc`, a
    /// constant-true disjunct, or a conservative call effect).
    pub src: Option<u32>,
}

/// One link of an uncollapsed justification chain: after traversing `edge`,
/// `pred` is true, justified by `src` (same meaning as [`Just::src`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainLink {
    /// The boolean-program edge traversed.
    pub edge: usize,
    /// The fact true at the edge's target.
    pub pred: usize,
    /// The justifying pre-state fact (`None` = established on this edge).
    pub src: Option<usize>,
}

/// One step of a resolved witness trace: an *establishment* event, in source
/// terms. `edge` indexes the method's IR CFG edges (the boolean program is
/// edge-aligned by construction), so the renderer can recover the source
/// instruction and its span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceStep {
    /// The method the step executes in.
    pub method: MethodId,
    /// The CFG edge whose instruction established the fact.
    pub edge: usize,
    /// The established fact, rendered (e.g. `stale{i1}`).
    pub fact: String,
}

/// First-justification-wins provenance for one boolean program.
#[derive(Clone, Debug)]
pub struct Provenance {
    width: usize,
    just: Vec<Option<Just>>,
}

impl Provenance {
    /// An empty recorder for a program with `nodes` nodes and `width`
    /// predicate instances.
    pub fn new(nodes: usize, width: usize) -> Provenance {
        Provenance { width, just: vec![None; nodes * width] }
    }

    /// A zero-capacity recorder for the non-tracing code paths.
    pub fn empty() -> Provenance {
        Provenance { width: 0, just: Vec::new() }
    }

    /// Records that `pred` became true at `node` via `edge`, justified by
    /// pre-state fact `src`. Later recordings for the same `(node, pred)`
    /// are ignored (first justification wins).
    pub fn record(&mut self, node: usize, pred: usize, edge: usize, src: Option<usize>) {
        let slot = &mut self.just[node * self.width + pred];
        if slot.is_none() {
            *slot = Some(Just { edge: edge as u32, src: src.map(|s| s as u32) });
        }
    }

    /// Records every fact the row `image` holds and the row `known` lacks
    /// as set at edge `e`'s target by that edge (index `ek`), justified
    /// against the pre-state row `src`.
    pub(crate) fn record_new(
        &mut self,
        e: &BoolEdge,
        ek: usize,
        image: &[u64],
        known: &[u64],
        src: &[u64],
    ) {
        for (w, (&i, &k)) in image.iter().zip(known).enumerate() {
            let mut news = i & !k;
            while news != 0 {
                let p = w * 64 + news.trailing_zeros() as usize;
                news &= news - 1;
                self.record(e.to, p, ek, justify(e, p, |q| word_get(src, q)));
            }
        }
    }

    /// The recorded justification for `pred` at `node`, if any.
    pub fn get(&self, node: usize, pred: usize) -> Option<Just> {
        if self.width == 0 {
            return None;
        }
        self.just[node * self.width + pred]
    }

    /// The full justification chain for `pred` at `node`, earliest link
    /// first. The chain ends early (at an unjustified fact) only for facts
    /// that were already true at the program's entry.
    pub fn chain(&self, bp: &BoolProgram, node: usize, pred: usize) -> Vec<ChainLink> {
        let mut links = Vec::new();
        let mut cur = (node, pred);
        // first-wins recording makes the graph acyclic; the cap is a
        // defensive bound only
        for _ in 0..self.just.len().max(1) {
            let Some(j) = self.get(cur.0, cur.1) else { break };
            let src = j.src.map(|s| s as usize);
            links.push(ChainLink { edge: j.edge as usize, pred: cur.1, src });
            match src {
                Some(q) => cur = (bp.edges[j.edge as usize].from, q),
                None => break,
            }
        }
        links.reverse();
        links
    }

    /// The witness trace for `pred` at `node`: the chain collapsed to its
    /// establishment steps (links that merely propagate an already-true fact
    /// across an edge are dropped), with facts rendered.
    pub fn trace(
        &self,
        bp: &BoolProgram,
        program: &Program,
        derived: &Derived,
        node: usize,
        pred: usize,
    ) -> Vec<TraceStep> {
        self.chain(bp, node, pred)
            .into_iter()
            .filter(|l| l.src != Some(l.pred))
            .map(|l| TraceStep {
                method: bp.method,
                edge: l.edge,
                fact: bp.pred_name(l.pred, program, derived),
            })
            .collect()
    }
}

/// Which pre-state fact justifies `pred` being true after `edge`, given the
/// pre-state membership test `holds_before`. `None` = the edge establishes
/// the fact outright; `Some(q)` = derived from `q`. Assumes `pred` *is* true
/// after the edge.
pub fn justify(
    edge: &BoolEdge,
    pred: usize,
    holds_before: impl Fn(usize) -> bool,
) -> Option<usize> {
    // parallel assignment: the last write to `pred` wins
    match edge.assigns.iter().rev().find(|(dst, _)| *dst == pred) {
        Some((_, Rhs::Havoc)) => None,
        Some((_, Rhs::Disj(ops))) => {
            if ops.iter().any(|op| matches!(op, Operand::Const(true))) {
                return None;
            }
            ops.iter()
                .find_map(|op| match op {
                    Operand::Var(v) if holds_before(*v) => Some(*v),
                    _ => None,
                })
                // defensive: a true disjunction has a true operand
                .or(Some(pred))
        }
        // not assigned: the fact propagated unchanged
        None => Some(pred),
    }
}

/// Replays a justification chain against the boolean program's edge
/// semantics, checking that it derives `pred` true at `node` from the
/// program's entry. This validates a witness *without* re-running the
/// solver: every link must be a legal consequence of the previous one.
pub fn replay(bp: &BoolProgram, links: &[ChainLink], node: usize, pred: usize) -> bool {
    let Some(last) = links.last() else {
        // no chain: the fact must have been unknown-at-entry at the entry node
        return node == bp.entry && bp.entry_unknown.contains(&pred);
    };
    if last.pred != pred || bp.edges[last.edge].to != node {
        return false;
    }
    for (k, link) in links.iter().enumerate() {
        let e = &bp.edges[link.edge];
        // the claimed source must actually justify the fact on this edge
        let legal = match e.assigns.iter().rev().find(|(dst, _)| *dst == link.pred) {
            Some((_, Rhs::Havoc)) => link.src.is_none(),
            Some((_, Rhs::Disj(ops))) => match link.src {
                None => ops.iter().any(|op| matches!(op, Operand::Const(true))),
                Some(q) => ops.iter().any(|op| matches!(op, Operand::Var(v) if *v == q)),
            },
            None => link.src == Some(link.pred),
        };
        if !legal {
            return false;
        }
        match k.checked_sub(1) {
            // interior link: connected to the previous link's conclusion
            Some(prev) => {
                let p = &links[prev];
                if bp.edges[p.edge].to != e.from || link.src != Some(p.pred) {
                    return false;
                }
            }
            // first link: grounded in a base establishment or an entry fact
            None => {
                if let Some(q) = link.src {
                    if e.from != bp.entry || !bp.entry_unknown.contains(&q) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_abstraction::{transform_method, EntryAssumption};
    use canvas_wp::derive_abstraction;

    fn build(src: &str) -> (BoolProgram, Program, Derived) {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        let main = program.main_method().expect("needs a main");
        let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
        (bp, program, derived)
    }

    /// A traced, ungoverned FDS solve.
    fn traced(bp: &BoolProgram) -> (crate::fds::FdsResult, Provenance) {
        let (res, prov) = crate::fds::solve(bp, &canvas_faults::Meter::disarmed(), true).unwrap();
        (res, prov.expect("a traced solve records provenance"))
    }

    const SRC: &str = r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        s.add("x");
        i.next();
    }
}
"#;

    #[test]
    fn chain_replays_and_collapses() {
        let (bp, program, derived) = build(SRC);
        let (res, prov) = traced(&bp);
        let viols = crate::fds::violations(&bp, |n, p| res.get(n, p), None);
        assert_eq!(viols.len(), 1);
        let culprit = viols[0].culprits[0];
        let check = &bp.checks[0];
        let links = prov.chain(&bp, check.node, culprit);
        assert!(!links.is_empty());
        assert!(replay(&bp, &links, check.node, culprit), "{links:#?}");
        // the collapsed trace names the staleness fact at its establishment
        let steps = prov.trace(&bp, &program, &derived, check.node, culprit);
        assert!(!steps.is_empty());
        assert!(steps.iter().all(|s| !s.fact.is_empty()));
        assert!(steps.len() <= links.len());
    }

    #[test]
    fn tampered_chains_do_not_replay() {
        let (bp, _, _) = build(SRC);
        let (res, prov) = traced(&bp);
        let viols = crate::fds::violations(&bp, |n, p| res.get(n, p), None);
        let culprit = viols[0].culprits[0];
        let check = &bp.checks[0];
        let links = prov.chain(&bp, check.node, culprit);
        // wrong target node
        assert!(!replay(&bp, &links, bp.entry, culprit));
        // truncated chain no longer reaches the check
        if links.len() > 1 {
            assert!(!replay(&bp, &links[..links.len() - 1], check.node, culprit));
        }
        // a link rewritten to a different edge breaks the connection
        let mut bad = links.clone();
        bad[0].edge = (bad[0].edge + 1) % bp.edges.len();
        assert!(!replay(&bp, &bad, check.node, culprit) || bp.edges.len() == 1);
    }

    #[test]
    fn empty_chain_only_valid_for_entry_facts() {
        let (bp, _, _) = build(SRC);
        assert!(!replay(&bp, &[], bp.entry, 0) || bp.entry_unknown.contains(&0));
    }

    #[test]
    fn record_is_first_wins() {
        let mut p = Provenance::new(2, 3);
        p.record(1, 2, 7, Some(0));
        p.record(1, 2, 9, None);
        assert_eq!(p.get(1, 2), Some(Just { edge: 7, src: Some(0) }));
        assert_eq!(p.get(0, 0), None);
        assert_eq!(Provenance::empty().get(0, 0), None);
    }
}
