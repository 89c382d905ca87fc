//! The relational baseline: a set of full valuations per program point.
//!
//! This is the exponential-worst-case analysis the paper contrasts with the
//! independent-attribute FDS engine (§4.6): it tracks *all correlations*
//! between predicate instances. For the derived abstractions the paper
//! proves — and our tests confirm — that the cheap may-be-1 analysis loses
//! no precision on the certification question; this engine is the oracle
//! that confirms it, and the baseline timed in the evaluation.
//!
//! Representation: valuations are interned in a [`ValPool`] (each distinct
//! valuation stored once, named by a dense `u32` id) and a node's state
//! set is a sorted [`SmallIdVec`] of ids, so the inner loop hashes one
//! scratch word-row per transfer instead of allocating and re-hashing a
//! `BitSet` per valuation per insertion. The result surfaces each node's
//! states as a canonically sorted `Vec<BitSet>`, which also makes
//! downstream output (the fig. 8 state dumps) deterministic.

use canvas_abstraction::{BoolProgram, Rhs};
use canvas_faults::{Exhaustion, Meter};

use crate::bitset::BitSet;
use crate::fds::{csr_out_edges, eval_rhs, out_of};
use crate::provenance::Provenance;
use crate::soa::{or_into, word_get, word_set, SmallIdVec, ValPool};

static REL_WORKLIST_POPS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("relational.worklist_pops");
static REL_TRANSFERS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("relational.transfers");
static REL_SOLVE_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("relational.solve");

/// Analysis failure: the state set exceeded the budget.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelError {
    /// The node whose state set blew up.
    pub node: usize,
    /// The configured budget.
    pub budget: usize,
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "relational analysis exceeded {} states at node {}", self.budget, self.node)
    }
}

impl std::error::Error for RelError {}

/// Why a governed relational run stopped early: the engine-specific
/// per-node state budget, or the shared resource governor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelStop {
    /// The engine's own per-node valuation budget (a hard analysis failure).
    States(RelError),
    /// The shared governor tripped (degrades to an inconclusive verdict).
    Budget(Exhaustion),
}

impl std::fmt::Display for RelStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelStop::States(e) => e.fmt(f),
            RelStop::Budget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RelStop {}

/// The relational fixpoint: per-node sets of valuations, each node's list
/// canonically sorted (by word value, i.e. lowest-bit-pattern first).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelResult {
    /// Reachable valuations per node, sorted canonically.
    pub states: Vec<Vec<BitSet>>,
    /// Total number of valuation-transfer evaluations.
    pub transfers: usize,
}

impl RelResult {
    /// Whether predicate `p` is 1 in some valuation reachable at `node`.
    pub fn may_one(&self, node: usize, p: usize) -> bool {
        self.states[node].iter().any(|s| s.get(p))
    }
}

/// The governed relational solve: a per-node state budget of its own, one
/// meter tick per valuation transfer, and governor state checks wherever
/// the engine budget is checked. With `trace` it also records per-fact
/// provenance (over the may-union of the valuation sets) for witness
/// traces, in a separate monomorphization.
///
/// # Errors
///
/// [`RelStop::States`] when a node accumulates more than `budget`
/// valuations (the engine is exponential in the worst case),
/// [`RelStop::Budget`] when the shared governor trips.
pub fn solve(
    bp: &BoolProgram,
    budget: usize,
    gov: &Meter,
    trace: bool,
) -> Result<(RelResult, Option<Provenance>), RelStop> {
    if trace {
        analyze_inner::<true>(bp, budget, gov).map(|(res, prov)| (res, Some(prov)))
    } else {
        analyze_inner::<false>(bp, budget, gov).map(|(res, _)| (res, None))
    }
}

fn analyze_inner<const TRACE: bool>(
    bp: &BoolProgram,
    budget: usize,
    gov: &Meter,
) -> Result<(RelResult, Provenance), RelStop> {
    let _span = REL_SOLVE_TIME.span();
    // Publishes on drop so the budget-exceeded `Err` exits are counted too.
    struct Tally {
        pops: u64,
        transfers: u64,
    }
    impl Drop for Tally {
        fn drop(&mut self) {
            REL_WORKLIST_POPS.add(self.pops);
            REL_TRANSFERS.add(self.transfers);
        }
    }
    let mut tally = Tally { pops: 0, transfers: 0 };

    let n = bp.node_count;
    let width = bp.preds.len();
    let mut pool = ValPool::new(width);
    let stride = pool.stride();
    let mut states: Vec<SmallIdVec> = vec![SmallIdVec::new(); n];
    // provenance over the may-union of each node's valuation set
    let mut prov = if TRACE { Provenance::new(n, width) } else { Provenance::empty() };
    let mut may: Vec<Vec<u64>> = if TRACE { vec![vec![0; stride]; n] } else { Vec::new() };

    // entry states: all combinations of the unknown bits
    let mut entry_rows: Vec<Vec<u64>> = vec![vec![0u64; stride]];
    for &k in &bp.entry_unknown {
        let mut more = Vec::with_capacity(entry_rows.len());
        for row in &entry_rows {
            let mut t = row.clone();
            word_set(&mut t, k, true);
            more.push(t);
        }
        entry_rows.extend(more);
        if entry_rows.len() > budget {
            return Err(RelStop::States(RelError { node: bp.entry, budget }));
        }
        gov.check_states(entry_rows.len()).map_err(RelStop::Budget)?;
    }
    for row in &entry_rows {
        states[bp.entry].insert_sorted(pool.intern(row));
    }
    if TRACE {
        // entry facts carry no justification: witness chains stop there
        for &k in &bp.entry_unknown {
            word_set(&mut may[bp.entry], k, true);
        }
    }

    let out_edges = csr_out_edges(n, &bp.edges, |_| true);

    // scratch valuation rows, reused across transfers (Havoc forks append)
    let mut outs: Vec<Vec<u64>> = Vec::new();
    let mut new_ids: Vec<u32> = Vec::new();
    let mut work: Vec<usize> = vec![bp.entry];
    let mut on_work = vec![false; n];
    on_work[bp.entry] = true;
    while let Some(node) = work.pop() {
        tally.pops += 1;
        on_work[node] = false;
        for ek in out_of(&out_edges, node) {
            let e = &bp.edges[ek];
            new_ids.clear();
            for &sid in states[e.from].as_slice() {
                tally.transfers += 1;
                gov.tick().map_err(RelStop::Budget)?;
                // apply parallel assignment; Havoc forks
                outs.clear();
                outs.push(pool.row(sid).to_vec());
                for (dst, rhs) in &e.assigns {
                    match rhs {
                        Rhs::Disj(_) => {
                            let src_row = pool.row(sid);
                            let bit = eval_rhs(rhs, |v| word_get(src_row, v));
                            for o in &mut outs {
                                word_set(o, *dst, bit);
                            }
                        }
                        Rhs::Havoc => {
                            let mut forked = Vec::with_capacity(outs.len() * 2);
                            for o in std::mem::take(&mut outs) {
                                let mut one = o.clone();
                                word_set(&mut one, *dst, true);
                                let mut zero = o;
                                word_set(&mut zero, *dst, false);
                                forked.push(zero);
                                forked.push(one);
                            }
                            outs = forked;
                            if outs.len() > budget {
                                return Err(RelStop::States(RelError { node: e.to, budget }));
                            }
                            gov.check_states(outs.len()).map_err(RelStop::Budget)?;
                        }
                    }
                }
                if TRACE {
                    for o in &outs {
                        prov.record_new(e, ek, o, &may[e.to], pool.row(sid));
                        or_into(&mut may[e.to], o);
                    }
                }
                for o in &outs {
                    new_ids.push(pool.intern(o));
                }
            }
            let target = &mut states[e.to];
            let mut changed = false;
            for &id in &new_ids {
                changed |= target.insert_sorted(id);
            }
            if target.len() > budget {
                return Err(RelStop::States(RelError { node: e.to, budget }));
            }
            gov.check_states(target.len()).map_err(RelStop::Budget)?;
            if changed && !on_work[e.to] {
                on_work[e.to] = true;
                work.push(e.to);
            }
        }
    }
    let transfers = tally.transfers as usize;
    canvas_telemetry::trace::instant(
        "relational.fixpoint",
        "solver",
        &[("transfers", transfers as u64), ("worklist_pops", tally.pops)],
    );
    // surface each node's states canonically sorted by word value, so the
    // result (and everything printed from it) is deterministic
    let states = states
        .iter()
        .map(|ids| {
            let mut rows: Vec<&[u64]> = ids.as_slice().iter().map(|&id| pool.row(id)).collect();
            rows.sort_unstable();
            rows.into_iter().map(|row| BitSet::from_row(row, width)).collect()
        })
        .collect();
    Ok((RelResult { states, transfers }, prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_abstraction::{transform_method, EntryAssumption};
    use canvas_minijava::Program;
    use canvas_wp::derive_abstraction;

    /// An ungoverned, untraced solve.
    fn rel(bp: &BoolProgram, budget: usize) -> Result<RelResult, RelStop> {
        solve(bp, budget, &Meter::disarmed(), false).map(|(res, _)| res)
    }

    fn sites(bp: &BoolProgram, may_one: impl Fn(usize, usize) -> bool) -> Vec<u32> {
        crate::fds::violations(bp, may_one, None).iter().map(|v| v.site.line()).collect()
    }

    fn build(src: &str) -> BoolProgram {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        let main = program.main_method().expect("needs a main");
        transform_method(&program, main, &spec, &derived, EntryAssumption::Clean)
    }

    const FIG3: &str = r#"
class Main {
    static void main() {
        Set v = new Set();
        Iterator i1 = v.iterator();
        Iterator i2 = v.iterator();
        Iterator i3 = i1;
        i1.next();
        i1.remove();
        if (true) { i2.next(); }
        if (true) { i3.next(); }
        v.add("x");
        if (true) { i1.next(); }
    }
    static boolean c() { return true; }
}
"#;

    #[test]
    fn relational_matches_fds_on_fig3() {
        let bp = build(FIG3);
        let res = rel(&bp, 1 << 16).unwrap();
        let rel_sites = sites(&bp, |n, p| res.may_one(n, p));
        let fds = crate::fds::analyze(&bp);
        let fds_sites = sites(&bp, |n, p| fds.get(n, p));
        assert_eq!(rel_sites, fds_sites);
        assert_eq!(rel_sites, vec![10, 13]);
    }

    #[test]
    fn states_are_canonically_sorted_and_deduplicated() {
        let bp = build(FIG3);
        let res = rel(&bp, 1 << 16).unwrap();
        for states in &res.states {
            for pair in states.windows(2) {
                assert!(pair[0].words() < pair[1].words(), "states must be strictly ascending");
            }
        }
    }

    #[test]
    fn budget_enforced() {
        // entry unknowns fork the entry state set; with a tiny budget the
        // analysis must refuse rather than silently drop states
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(
            "class A { void m(Iterator a, Iterator b, Iterator c, Set s) { a.next(); } }",
            &spec,
        )
        .unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        let m = program.method_named("A.m").unwrap();
        let bp = transform_method(&program, m, &spec, &derived, EntryAssumption::Unknown);
        let err = rel(&bp, 4).unwrap_err();
        assert!(matches!(err, RelStop::States(RelError { budget: 4, .. })), "{err:?}");
        // with a generous budget it succeeds and flags the call
        let ok = rel(&bp, 1 << 20).unwrap();
        assert_eq!(sites(&bp, |n, p| ok.may_one(n, p)).len(), 1);
    }
}
