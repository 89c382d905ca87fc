//! Within-method delta re-solve: start the FDS fixpoint from a cached
//! solution instead of bottom.
//!
//! This module only *prepares a start* for the one kernel in
//! [`crate::fds`]; the re-solve is that kernel, run from the carried rows
//! and a boundary worklist over just the edges with an affected endpoint.
//!
//! When `canvas-incr` holds a completed [`crate::fds`] solution for an
//! earlier version of a method, a cold re-solve throws that work away and
//! restarts every node from ⊥. This module re-solves only the *changed
//! region* instead:
//!
//! 1. The cached payload records the old boolean program's edge list as
//!    `(from, to, assigns-digest)` triples. Diffing it against the new
//!    program's edges (as multisets) yields the changed edges; the
//!    **affected region** `A` is the forward closure, over the union of
//!    the old and new control-flow graphs, of the changed edges' targets
//!    (plus the entry node when the entry assumption's unknown set
//!    changed).
//! 2. Every node outside `A` has exactly the same multiset of entry paths
//!    in both programs — no changed edge can reach it in either graph —
//!    so its least-fixpoint value is *identical* and the cached row is
//!    carried over verbatim. Because `A` is forward-closed there are no
//!    edges from `A` back into its complement, so the carried rows can
//!    never be grown by the re-solve: solving `A` alone from the carried
//!    boundary is the exact least fixpoint of the new program.
//! 3. Before trusting a carried row the seed is **validated as a
//!    pre-fixpoint** of the new program: every new-program edge between
//!    carried (reachable, unaffected) nodes must map the carried source
//!    row inside the carried target row, and the entry row must cover the
//!    entry-unknown seed. A cached solution that fails any check — a
//!    corrupt store, a digest collision — is rejected and the caller
//!    falls back to a cold solve. Validation costs one `O(E · W)` sweep,
//!    which is also the floor for any solver, so the fallback is free.
//!
//! Reachability matters: facts must only flow out of nodes the *new*
//! program actually reaches (an unreachable carried node could otherwise
//! inject `Havoc`/constant-true facts), so the seed worklist holds only
//! entry-reachable boundary nodes, computed by one `O(E)` sweep over the
//! new graph.
//!
//! The result is byte-identical to a cold solve when the cached solution
//! is the true least fixpoint of the recorded program (the only way
//! `canvas-incr` produces one); a validated-but-imprecise seed (possible
//! only under store corruption that happens to be transfer-closed) still
//! yields a sound post-fixpoint, i.e. a conservative verdict.

use canvas_abstraction::certificate::Digest;
use canvas_abstraction::{BoolEdge, BoolProgram, Operand, Rhs};
use canvas_faults::{Exhaustion, Meter};

use crate::fds::{analyze_inner, csr_out_edges, edge_image, out_of, FdsResult, Start};
use crate::soa::{is_subset, WordArena};

/// Deterministic count of FDS solves seeded from a cached solution.
pub static DELTA_SEEDED: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.delta_seeded");
/// Deterministic count of seeds rejected (shape mismatch, failed
/// pre-fixpoint validation, or gating) that fell back to a cold solve.
pub static DELTA_FALLBACK: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.delta_fallback");

/// Records that a seed was available but the cold path ran instead.
pub fn note_fallback() {
    DELTA_FALLBACK.incr();
    canvas_telemetry::events::info(
        "incr.delta",
        "delta seed rejected; falling back to a cold solve",
    );
}

/// A content digest of an edge's parallel assignment (destination,
/// right-hand-side shape, operands), independent of the edge's endpoints.
pub fn edge_digest(e: &BoolEdge) -> u64 {
    let mut h = Digest::new();
    h.write_u64(e.assigns.len() as u64);
    for (dst, rhs) in &e.assigns {
        h.write_u64(*dst as u64);
        match rhs {
            Rhs::Havoc => h.write_u64(u64::MAX),
            Rhs::Disj(ops) => {
                h.write_u64(ops.len() as u64);
                for op in ops {
                    match op {
                        Operand::Const(c) => h.write_u64(2 + u64::from(*c)),
                        Operand::Var(v) => h.write_u64(4 + 8 * *v as u64),
                    }
                }
            }
        }
    }
    h.finish()
}

/// One edge of a cached boolean program: endpoints plus the assignment
/// digest, enough to diff against a rebuilt program edge-by-edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeltaEdge {
    /// Source node.
    pub from: u32,
    /// Target node.
    pub to: u32,
    /// [`edge_digest`] of the parallel assignment.
    pub digest: u64,
}

/// The cached shape of a method's boolean program: everything the delta
/// diff needs, stored next to the cached solution.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DeltaPayload {
    /// Node count of the recorded program.
    pub nodes: u32,
    /// Entry node of the recorded program.
    pub entry: u32,
    /// Entry-unknown predicate indices, in transform order.
    pub entry_unknown: Vec<u32>,
    /// Edge list, index-aligned with the recorded program.
    pub edges: Vec<DeltaEdge>,
}

impl DeltaPayload {
    /// Captures the delta-diff shape of `bp`.
    pub fn of(bp: &BoolProgram) -> DeltaPayload {
        DeltaPayload {
            nodes: bp.node_count as u32,
            entry: bp.entry as u32,
            entry_unknown: bp.entry_unknown.iter().map(|&k| k as u32).collect(),
            edges: bp
                .edges
                .iter()
                .map(|e| DeltaEdge { from: e.from as u32, to: e.to as u32, digest: edge_digest(e) })
                .collect(),
        }
    }
}

/// A cached solution plus the shape of the program it solved, ready to
/// seed [`analyze_delta`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeltaSeed {
    /// The recorded program shape.
    pub payload: DeltaPayload,
    /// Predicate count (bit width) of the recorded solution.
    pub preds: u32,
    /// Per-node may-be-1 solution rows, as sorted bit indices.
    pub solution: Vec<Vec<u32>>,
}

/// Solves `bp` seeded from a cached solution of an earlier version of the
/// same method. Returns `Ok(None)` when the seed is unusable (shape
/// mismatch or failed pre-fixpoint validation) — the caller then runs the
/// cold kernel. See the module docs for the soundness argument.
///
/// # Errors
///
/// Returns the [`Exhaustion`] when the shared governor trips mid-solve.
pub fn analyze_delta(
    bp: &BoolProgram,
    seed: &DeltaSeed,
    gov: &Meter,
) -> Result<Option<FdsResult>, Exhaustion> {
    let n = bp.node_count;
    let width = bp.preds.len();
    let p = &seed.payload;
    let old_n = p.nodes as usize;
    // shape gate: the predicate space must match bit-for-bit and the entry
    // node must keep its id (edits may add or remove nodes — a node id
    // beyond the old program is affected by construction, since every one
    // of its in-edges is unmatched in the diff); the solution must be
    // internally consistent with its own recorded program
    if seed.preds as usize != width
        || p.entry as usize != bp.entry
        || seed.solution.len() != old_n
        || seed.solution.iter().any(|row| row.iter().any(|&b| b as usize >= width))
    {
        DELTA_FALLBACK.incr();
        return Ok(None);
    }

    // 1. multiset edge diff: +1 per old edge, -1 per new edge; any key
    //    left unbalanced changed, and its target starts the affected set.
    //    An old edge into a node the new program no longer has marks
    //    nothing (there is no such node to solve); an old edge *out of* a
    //    dropped node is itself unmatched, so its target is marked.
    let mut counts: std::collections::HashMap<(u32, u32, u64), i64> =
        std::collections::HashMap::new();
    for e in &p.edges {
        *counts.entry((e.from, e.to, e.digest)).or_insert(0) += 1;
    }
    for e in &bp.edges {
        *counts.entry((e.from as u32, e.to as u32, edge_digest(e))).or_insert(0) -= 1;
    }
    let mut frontier: Vec<usize> = counts
        .iter()
        .filter(|&(&(_, to, _), &c)| c != 0 && (to as usize) < n)
        .map(|(&(_, to, _), _)| to as usize)
        .collect();
    if !bp.entry_unknown.iter().map(|&k| k as u32).eq(p.entry_unknown.iter().copied()) {
        frontier.push(bp.entry);
    }

    // 2. forward closure of the affected targets over the UNION graph
    //    (old edges touching dropped node ids are skipped: an old path
    //    through a dropped node re-enters the new id space only via an
    //    unmatched edge, whose target is already on the step-1 frontier)
    let mut new_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for e in &bp.edges {
        new_adj[e.from].push(e.to as u32);
    }
    let mut union_adj = new_adj.clone();
    for e in p.edges.iter().filter(|e| (e.from as usize) < n && (e.to as usize) < n) {
        union_adj[e.from as usize].push(e.to);
    }
    let mut affected = vec![false; n];
    close_forward(&union_adj, &mut affected, frontier);

    // 3. entry reachability over the NEW graph: facts may only flow out of
    //    nodes the new program reaches
    let mut reachable = vec![false; n];
    close_forward(&new_adj, &mut reachable, vec![bp.entry]);

    // 4. load the carried rows; affected rows start at ⊥. A new node id
    //    beyond the old program with no solution row is either affected
    //    (any in-edge is unmatched) or unreachable, where ⊥ is its exact
    //    fixpoint value.
    let mut arena = WordArena::new(n, width);
    for (node, row) in seed.solution.iter().enumerate().take(n) {
        if !affected[node] {
            arena.load_bits(node, row);
        }
    }
    if affected[bp.entry] {
        for &k in &bp.entry_unknown {
            arena.set(bp.entry, k, true);
        }
    }

    // 5. pre-fixpoint validation of the carried region: every new edge
    //    between carried reachable nodes must already be satisfied, and
    //    the carried entry row must cover the entry seed
    if !affected[bp.entry] && bp.entry_unknown.iter().any(|&k| !arena.get(bp.entry, k)) {
        DELTA_FALLBACK.incr();
        return Ok(None);
    }
    let mut image = vec![0u64; arena.stride()];
    for e in &bp.edges {
        if affected[e.from] || affected[e.to] || !reachable[e.from] {
            continue;
        }
        edge_image(e, arena.row(e.from), &mut image);
        if !is_subset(&image, arena.row(e.to)) {
            DELTA_FALLBACK.incr();
            return Ok(None);
        }
    }

    // 6. the kernel's start: the carried rows, every reachable carried
    //    node reached, and only the edges with an affected endpoint —
    //    carried-to-carried edges are validated closed, so visiting them
    //    would grow nothing. The worklist holds the reachable carried nodes
    //    with an edge into the affected region (their only kept edges),
    //    ascending for determinism, plus the entry when it is affected.
    let out = csr_out_edges(n, &bp.edges, |e| affected[e.from] || affected[e.to]);
    let mut work: Vec<usize> = Vec::new();
    let mut reached = vec![false; n];
    for node in 0..n {
        if !affected[node] && reachable[node] {
            reached[node] = true;
            if out_of(&out, node).next().is_some() {
                work.push(node);
            }
        }
    }
    if affected[bp.entry] {
        reached[bp.entry] = true;
        work.push(bp.entry);
    }

    // 7. the one FDS kernel, from that start
    let start = Start { arena, work, reached, out };
    let (res, _) = analyze_inner::<false>(bp, gov, start, "fds.delta_fixpoint")?;
    DELTA_SEEDED.incr();
    Ok(Some(res))
}

/// Marks the nodes on `stack` and everything reachable from them in `adj`.
fn close_forward(adj: &[Vec<u32>], marked: &mut [bool], mut stack: Vec<usize>) {
    for &u in &stack {
        marked[u] = true;
    }
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !marked[v as usize] {
                marked[v as usize] = true;
                stack.push(v as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fds;
    use canvas_abstraction::{transform_method, EntryAssumption};
    use canvas_minijava::Program;
    use canvas_wp::derive_abstraction;

    fn boolprog(src: &str) -> BoolProgram {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        let main = program.main_method().expect("needs a main");
        transform_method(&program, main, &spec, &derived, EntryAssumption::Clean)
    }

    fn seed_of(bp: &BoolProgram) -> DeltaSeed {
        let res = fds::analyze(bp);
        DeltaSeed {
            payload: DeltaPayload::of(bp),
            preds: bp.preds.len() as u32,
            solution: (0..bp.node_count).map(|r| res.row_ones(r)).collect(),
        }
    }

    const BASE: &str = r#"
class Main {
    static void main() {
        Set s = new Set();
        s.add("a");
        Iterator i = s.iterator();
        i.next();
        s.add("b");
        if (true) { i.next(); }
    }
    static boolean c() { return true; }
}
"#;

    #[test]
    fn identical_program_replays_the_cached_solution_with_zero_work() {
        let bp = boolprog(BASE);
        let seed = seed_of(&bp);
        let gov = Meter::disarmed();
        let res = analyze_delta(&bp, &seed, &gov).unwrap().expect("seed accepted");
        let cold = fds::analyze(&bp);
        assert!(res.same_solution(&cold));
        assert_eq!(res.edge_visits, 0, "nothing changed, nothing re-solved");
        assert!(res.worklist_pops < cold.worklist_pops);
    }

    #[test]
    fn edited_tail_matches_cold_with_fewer_pops() {
        let before = boolprog(BASE);
        let after = boolprog(&BASE.replace("if (true) { i.next(); }", "i.next();"));
        let seed = seed_of(&before);
        let gov = Meter::disarmed();
        let res = analyze_delta(&after, &seed, &gov).unwrap().expect("seed accepted");
        let cold = fds::analyze(&after);
        assert!(res.same_solution(&cold), "delta must reach the cold fixpoint");
        assert!(
            res.worklist_pops < cold.worklist_pops,
            "delta {} pops vs cold {}",
            res.worklist_pops,
            cold.worklist_pops
        );
    }

    #[test]
    fn corrupt_solution_is_rejected() {
        let bp = boolprog(BASE);
        let mut seed = seed_of(&bp);
        // truncate a solved row: no longer a pre-fixpoint (or, if the row
        // was already empty, the shape gate still accepts and the result
        // stays exact) — flip a mid-program row to something absurd instead
        let width = bp.preds.len() as u32;
        if width > 0 {
            for row in &mut seed.solution {
                row.clear();
            }
            // an all-bottom "solution" fails validation as soon as any
            // reachable edge establishes a fact
            let gov = Meter::disarmed();
            let out = analyze_delta(&bp, &seed, &gov).unwrap();
            let cold = fds::analyze(&bp);
            match out {
                None => {}
                // degenerate programs establish no facts at all; then the
                // bottom seed genuinely is the fixpoint
                Some(res) => assert!(res.same_solution(&cold)),
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let bp = boolprog(BASE);
        let mut seed = seed_of(&bp);
        seed.preds += 1;
        let gov = Meter::disarmed();
        assert!(analyze_delta(&bp, &seed, &gov).unwrap().is_none());
    }
}
