//! The polynomial FDS certifier core: may-be-1 reachability.
//!
//! For every `requires ¬p` check the certifier only needs to know whether
//! `p` *may* evaluate to 1 at the check's program point. Over the
//! transformed boolean program — whose assignments are all of the shape
//! `p := p₁ ∨ … ∨ pₖ`, `p := 0`, `p := 1` — the may-be-1 property is
//! distributive over path union, so the fixpoint below computes the exact
//! meet-over-all-paths solution (§4.3), in `O(E · B²)` time.
//!
//! `Havoc` right-hand sides (unknown callees, heap loads) conservatively set
//! the bit.
//!
//! The solver is bit-parallel and delta-driven: all per-node valuations
//! live in one flat [`WordArena`], edge transfers are pre-flattened into
//! a `TransferPlan` (contiguous patched-word/operand streams instead of
//! per-visit enum walks), and each node carries a dirty-word bitmap of
//! what changed since its last pop — a revisit `OR`s only those words
//! plus the edge's patched words into the target, instead of sweeping
//! two full rows. No per-edge allocation, no scratch-row copy, no
//! per-bit set/join calls; the result hands the arena out directly
//! instead of materializing per-node heap bitsets. The historical
//! one-BitSet-per-node solver is kept as [`analyze_reference`]: the
//! differential proptests pin the two kernels to the same fixpoint, and
//! the `eval fixpoint` table (E12) times the rewrite against it.

use canvas_abstraction::{BoolEdge, BoolProgram, Operand, Rhs};
use canvas_faults::{Exhaustion, Meter};
use canvas_minijava::{Program, Site};
use canvas_wp::Derived;

use crate::bitset::BitSet;
use crate::provenance::{Provenance, TraceStep};
use crate::soa::{word_get, word_set, WordArena};

static FDS_WORKLIST_POPS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("fds.worklist_pops");
static FDS_EDGE_VISITS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("fds.edge_visits");
static FDS_WORDS_TOUCHED: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("fds.words_touched");
static FDS_SOLVE_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("fds.solve");

/// The fixpoint result: for every node, which predicates may be 1.
///
/// The solution lives in the solver's own [`WordArena`] — handing it out
/// directly avoids materializing one heap [`BitSet`] per node (tens of
/// megabytes on large methods) just to read bits back out.
#[derive(Clone, Debug)]
pub struct FdsResult {
    /// The per-node may-be-1 rows, exactly as the kernel left them.
    arena: WordArena,
    /// Number of edge evaluations performed (work measure).
    pub edge_visits: usize,
    /// Number of worklist pops performed.
    pub worklist_pops: usize,
}

impl FdsResult {
    /// Whether predicate `p` may be 1 at `node`.
    #[inline]
    pub fn get(&self, node: usize, p: usize) -> bool {
        self.arena.get(node, p)
    }

    /// Number of nodes in the solved program.
    pub fn node_count(&self) -> usize {
        self.arena.rows()
    }

    /// Predicate count (bit width) of the solution.
    pub fn width(&self) -> usize {
        self.arena.width()
    }

    /// The may-be-1 predicate indices of `node`, ascending — the
    /// certificate solution-row encoding.
    pub fn row_ones(&self, node: usize) -> Vec<u32> {
        self.arena.to_bitset(node).iter_ones().map(|b| b as u32).collect()
    }

    /// The full solution as standalone per-node [`BitSet`]s (tests and
    /// cross-kernel comparisons; the hot paths read the arena in place).
    pub fn to_bitsets(&self) -> Vec<BitSet> {
        (0..self.arena.rows()).map(|r| self.arena.to_bitset(r)).collect()
    }

    /// Whether two results computed the same solution (work counters may
    /// differ — a delta re-solve reaches the same fixpoint with less work).
    pub fn same_solution(&self, other: &FdsResult) -> bool {
        self.arena == other.arena
    }
}

/// The result shape of [`analyze_reference`]: the pre-rewrite per-node
/// heap [`BitSet`] representation, kept verbatim so the yardstick pays
/// exactly the costs the old kernel paid.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScalarResult {
    /// Per-node may-be-1 sets, indexed by node id.
    pub may_one: Vec<BitSet>,
    /// Number of edge evaluations performed (work measure).
    pub edge_visits: usize,
    /// Number of worklist pops performed.
    pub worklist_pops: usize,
}

/// A potential `requires` violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Where.
    pub site: Site,
    /// The predicate instances that may be 1 (empty when the check fires on
    /// a constant-true disjunct).
    pub culprits: Vec<usize>,
    /// Witness trace for the first culprit, when the solver recorded
    /// provenance (`None` on the default fast path).
    pub witness: Option<Vec<TraceStep>>,
}

/// Runs the may-be-1 analysis to fixpoint, ungoverned and untraced (the
/// yardstick and property-test entry; engines call [`solve`]).
pub fn analyze(bp: &BoolProgram) -> FdsResult {
    match solve(bp, &Meter::disarmed(), false) {
        Ok((res, _)) => res,
        Err(ex) => unreachable!("disarmed meter tripped: {ex}"),
    }
}

/// The governed may-be-1 solve: one meter tick per edge visit. With
/// `trace` it also records per-fact provenance for witness traces, in a
/// separate monomorphization, so an untraced solve pays nothing for it.
///
/// # Errors
///
/// Returns the [`Exhaustion`] when the governor budget trips; the caller
/// degrades to an inconclusive verdict.
pub fn solve(
    bp: &BoolProgram,
    gov: &Meter,
    trace: bool,
) -> Result<(FdsResult, Option<Provenance>), Exhaustion> {
    let _span = FDS_SOLVE_TIME.span();
    let start = Start::cold(bp);
    if trace {
        analyze_inner::<true>(bp, gov, start, "fds.fixpoint").map(|(res, prov)| (res, Some(prov)))
    } else {
        analyze_inner::<false>(bp, gov, start, "fds.fixpoint").map(|(res, _)| (res, None))
    }
}

/// A word one edge's parallel assignment writes: which of its bits the
/// assignment overwrites (`clear`) and which it sets unconditionally
/// (`consts` — `Havoc` and constant-true right-hand sides, folded at
/// plan-build time so the hot loop never re-evaluates them).
#[derive(Clone, Copy)]
struct PatchWord {
    w: u32,
    clear: u64,
    consts: u64,
}

/// A data-dependent assign: where its bit lands in the image (`slot` is
/// an absolute index into [`TransferPlan::words`]) and which source bits
/// feed its disjunction (`ops[lo..hi]`).
#[derive(Clone, Copy)]
struct DynAssign {
    slot: u32,
    mask: u64,
    lo: u32,
    hi: u32,
}

/// The flattened transfer layout of a whole boolean program, built once
/// per solve: per-edge ranges over three shared flat arrays (patched
/// words, data-dependent assigns, disjunction operands). Replaces the
/// per-visit walk of `Vec<Operand>`-behind-`Rhs` enums with contiguous
/// streams — on iterative (loopy) programs every edge is visited many
/// times, so the one-pass build amortizes immediately. Five allocations
/// total, regardless of program size.
struct TransferPlan {
    word_range: Vec<(u32, u32)>,
    dyn_range: Vec<(u32, u32)>,
    words: Vec<PatchWord>,
    dyns: Vec<DynAssign>,
    ops: Vec<u32>,
}

impl TransferPlan {
    /// Builds the plan in one pass over the edges. Assumes the parallel
    /// assignment of an edge targets each predicate at most once (the
    /// transform emits true parallel assignments).
    fn build(edges: &[BoolEdge]) -> TransferPlan {
        let mut plan = TransferPlan {
            word_range: Vec::with_capacity(edges.len()),
            dyn_range: Vec::with_capacity(edges.len()),
            words: Vec::new(),
            dyns: Vec::new(),
            ops: Vec::new(),
        };
        let mut ws: Vec<u32> = Vec::new();
        for e in edges {
            let wlo = plan.words.len() as u32;
            let dlo = plan.dyns.len() as u32;
            ws.clear();
            ws.extend(e.assigns.iter().map(|(dst, _)| (*dst / 64) as u32));
            ws.sort_unstable();
            ws.dedup();
            plan.words.extend(ws.iter().map(|&w| PatchWord { w, clear: 0, consts: 0 }));
            for (dst, rhs) in &e.assigns {
                let w = (*dst / 64) as u32;
                // `w` is in `ws`, so this is its position
                let slot = wlo + ws.partition_point(|&x| x < w) as u32;
                let bit = 1u64 << (dst % 64);
                let pw = &mut plan.words[slot as usize];
                debug_assert_eq!(pw.clear & bit, 0, "duplicate assign target");
                pw.clear |= bit;
                match rhs {
                    Rhs::Havoc => pw.consts |= bit,
                    Rhs::Disj(ops) => {
                        if ops.iter().any(|op| matches!(op, Operand::Const(true))) {
                            pw.consts |= bit;
                        } else {
                            let lo = plan.ops.len() as u32;
                            plan.ops.extend(ops.iter().filter_map(|op| match op {
                                Operand::Var(v) => Some(*v as u32),
                                Operand::Const(_) => None,
                            }));
                            let hi = plan.ops.len() as u32;
                            if hi > lo {
                                plan.dyns.push(DynAssign { slot, mask: bit, lo, hi });
                            }
                            // a disjunction of nothing (or only false
                            // constants) is `:= 0`: clear, no dyn entry
                        }
                    }
                }
            }
            plan.word_range.push((wlo, plan.words.len() as u32));
            plan.dyn_range.push((dlo, plan.dyns.len() as u32));
        }
        plan
    }
}

/// One edge visit on the arena: `row[e.to] |= transfer(row[e.from])`,
/// without materializing the image row.
///
/// The visit is *delta-driven*: `src_dirty` is the per-word bitmap of
/// source words that changed since the source node was last popped, and
/// only those words — plus the edge's few patched words, whose image the
/// plan recomputes every time — are `OR`'d into the target. Words the
/// source did not change were already propagated along this edge on an
/// earlier visit (the worklist pops a node only after it grew, and a pop
/// visits every out-edge), so skipping them loses nothing. Growth in the
/// target is recorded word-by-word into `dirty`, which is what makes the
/// scheme self-sustaining. A revisit therefore costs `O(changed words +
/// assignment size)`, not `O(row)`.
#[inline]
#[allow(clippy::too_many_arguments)] // the kernel's full working set, passed split-borrowed
fn apply_edge(
    arena: &mut WordArena,
    ek: usize,
    e: &BoolEdge,
    plan: &TransferPlan,
    vals: &mut Vec<u64>,
    src_dirty: &[u64],
    dirty: &mut [u64],
    mw: usize,
) -> bool {
    let (wlo, whi) = plan.word_range[ek];
    let words = &plan.words[wlo as usize..whi as usize];
    let (dlo, dhi) = plan.dyn_range[ek];
    let dyns = &plan.dyns[dlo as usize..dhi as usize];
    // pass 1: evaluate the image's patched words against the pre-state
    vals.clear();
    {
        let src = arena.row(e.from);
        vals.extend(words.iter().map(|pw| (src[pw.w as usize] & !pw.clear) | pw.consts));
        for d in dyns {
            let hit =
                plan.ops[d.lo as usize..d.hi as usize].iter().any(|&v| word_get(src, v as usize));
            if hit {
                vals[(d.slot - wlo) as usize] |= d.mask;
            }
        }
    }
    let dmask = &mut dirty[e.to * mw..(e.to + 1) * mw];
    let mut grew = false;
    if e.from == e.to {
        // self-loop: under the OR-join only the image's 1-bits can grow
        // the row (a cleared bit stays set once joined); growth is marked
        // dirty so the *next* pop of this node re-propagates it (the
        // current pop's mask snapshot was taken before this visit)
        let row = arena.row_mut(e.from);
        for (pw, &v) in words.iter().zip(vals.iter()) {
            let w = pw.w as usize;
            let next = row[w] | v;
            if next != row[w] {
                row[w] = next;
                dmask[w / 64] |= 1 << (w % 64);
                grew = true;
            }
        }
        return grew;
    }
    let (src, dst) = arena.rows_pair(e.from, e.to);
    // pass 2: the patched words always propagate (their image depends on
    // operand bits anywhere in the row, and carries the folded constants)
    for (pw, &v) in words.iter().zip(vals.iter()) {
        let w = pw.w as usize;
        let next = dst[w] | v;
        if next != dst[w] {
            dst[w] = next;
            dmask[w / 64] |= 1 << (w % 64);
            grew = true;
        }
    }
    // pass 3: identity words that changed since the last pop, merge-
    // skipping the patched ones (both streams are ascending)
    let mut pi = 0usize;
    for (mi, &m) in src_dirty.iter().enumerate() {
        let mut m = m;
        while m != 0 {
            let w = mi * 64 + m.trailing_zeros() as usize;
            m &= m - 1;
            while pi < words.len() && (words[pi].w as usize) < w {
                pi += 1;
            }
            if pi < words.len() && words[pi].w as usize == w {
                continue;
            }
            let next = dst[w] | src[w];
            if next != dst[w] {
                dst[w] = next;
                dmask[w / 64] |= 1 << (w % 64);
                grew = true;
            }
        }
    }
    grew
}

/// The out-edge adjacency in CSR form over the edges `keep` admits:
/// `idx[start[v]..start[v + 1]]` are the indices (into `edges`) of the kept
/// edges leaving `v`, in edge-list order (stable counting sort), matching
/// the order a `Vec<Vec<_>>` push-build would yield.
pub(crate) fn csr_out_edges(
    n: usize,
    edges: &[BoolEdge],
    keep: impl Fn(&BoolEdge) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 2];
    for e in edges.iter().filter(|e| keep(e)) {
        start[e.from + 2] += 1;
    }
    for i in 2..start.len() {
        start[i] += start[i - 1];
    }
    let mut idx = vec![0u32; start[n + 1] as usize];
    for (k, e) in edges.iter().enumerate().filter(|(_, e)| keep(e)) {
        idx[start[e.from + 1] as usize] = k as u32;
        start[e.from + 1] += 1;
    }
    start.pop();
    (start, idx)
}

/// The indices of the edges leaving `node` in a [`csr_out_edges`] index.
pub(crate) fn out_of(
    (start, idx): &(Vec<u32>, Vec<u32>),
    node: usize,
) -> impl Iterator<Item = usize> + '_ {
    idx[start[node] as usize..start[node + 1] as usize].iter().map(|&k| k as usize)
}

/// The value an assignment's right-hand side gives its target, reading
/// source bits through `get`: `Havoc` may be 1, a disjunction is 1 when
/// any operand is. The dataflow solvers' one evaluator; only
/// [`analyze_reference`] and the trusted checker (`canvas-check`) keep
/// their own, on purpose: they are the differential oracle and the
/// trusted base, so a bug in a shared evaluator would pass both sides.
pub(crate) fn eval_rhs(rhs: &Rhs, get: impl Fn(usize) -> bool) -> bool {
    match rhs {
        Rhs::Havoc => true,
        Rhs::Disj(ops) => ops.iter().any(|op| match *op {
            Operand::Const(c) => c,
            Operand::Var(v) => get(v),
        }),
    }
}

/// The scalar image of edge `e` over the word row `src`, written into
/// `out`: `src` with every assigned bit overwritten by its right-hand side,
/// all read against the pre-state (a parallel assignment).
pub(crate) fn edge_image(e: &BoolEdge, src: &[u64], out: &mut [u64]) {
    out.copy_from_slice(src);
    for (dst, rhs) in &e.assigns {
        word_set(out, *dst, eval_rhs(rhs, |v| word_get(src, v)));
    }
}

/// Where the kernel starts. A cold solve ([`Start::cold`]) starts from the
/// entry seed at `{entry}` over every edge; a delta re-solve
/// ([`crate::delta`]) starts from carried rows, its boundary worklist and
/// only the edges with an affected endpoint. Everything after the start is
/// the one kernel, [`analyze_inner`].
pub(crate) struct Start {
    /// The initial per-node rows.
    pub(crate) arena: WordArena,
    /// The initial worklist, popped last first. Each entry's first pop
    /// propagates its whole row.
    pub(crate) work: Vec<usize>,
    /// Nodes already reached: a first visit to any other node enqueues it.
    pub(crate) reached: Vec<bool>,
    /// The out-edges the kernel may visit, from [`csr_out_edges`].
    pub(crate) out: (Vec<u32>, Vec<u32>),
}

impl Start {
    /// ⊥ everywhere but the entry-unknown seed, only the entry reached and
    /// on the worklist, every edge visitable.
    fn cold(bp: &BoolProgram) -> Start {
        let mut arena = WordArena::new(bp.node_count, bp.preds.len());
        for &k in &bp.entry_unknown {
            arena.set(bp.entry, k, true);
        }
        let mut reached = vec![false; bp.node_count];
        reached[bp.entry] = true;
        // index edges by source for the worklist: CSR, not Vec-of-Vecs —
        // three allocations total, and the stable counting sort keeps the
        // per-node edge order identical to the push order the reference
        // kernel uses (the differential tests pin the visit sequence)
        let out = csr_out_edges(bp.node_count, &bp.edges, |_| true);
        Start { arena, work: vec![bp.entry], reached, out }
    }
}

/// The FDS fixpoint kernel: runs the worklist from `start` to fixpoint,
/// one meter tick per edge visit, and publishes the `fds.*` work counters
/// and a `label` trace instant. `TRACE` records provenance on a
/// materialized image row instead of the delta-driven [`apply_edge`].
pub(crate) fn analyze_inner<const TRACE: bool>(
    bp: &BoolProgram,
    gov: &Meter,
    start: Start,
    label: &'static str,
) -> Result<(FdsResult, Provenance), Exhaustion> {
    let n = bp.node_count;
    let Start { mut arena, mut work, mut reached, out } = start;
    let mut prov = if TRACE { Provenance::new(n, bp.preds.len()) } else { Provenance::empty() };
    let stride = arena.stride();
    let plan = TransferPlan::build(&bp.edges);
    let mut vals: Vec<u64> = Vec::new();
    let mut scratch = vec![0u64; if TRACE { stride } else { 0 }];
    // per-node dirty-word bitmaps driving the delta propagation; before
    // its first pop a start node has every nonzero word of its row dirty
    // (zero words contribute nothing under an OR-join and stay clean)
    let mw = stride.div_ceil(64).max(1);
    let mut dirty: Vec<u64> = vec![0; if TRACE { 0 } else { n * mw }];
    let mut pop_mask: Vec<u64> = vec![0; mw];
    let mut on_work = vec![false; n];
    for &node in &work {
        on_work[node] = true;
        if !TRACE {
            for (w, &val) in arena.row(node).iter().enumerate() {
                if val != 0 {
                    dirty[node * mw + w / 64] |= 1 << (w % 64);
                }
            }
        }
    }
    let mut edge_visits = 0;
    let mut pops = 0u64;
    while let Some(node) = work.pop() {
        pops += 1;
        on_work[node] = false;
        if !TRACE {
            // snapshot and clear this node's accumulated dirt: the visits
            // below propagate exactly what changed since its last pop
            pop_mask.copy_from_slice(&dirty[node * mw..(node + 1) * mw]);
            dirty[node * mw..(node + 1) * mw].fill(0);
        }
        for ek in out_of(&out, node) {
            let e = &bp.edges[ek];
            edge_visits += 1;
            if let Err(ex) = gov.tick() {
                FDS_WORKLIST_POPS.add(pops);
                FDS_EDGE_VISITS.add(edge_visits as u64);
                FDS_WORDS_TOUCHED.add(2 * stride as u64 * edge_visits as u64);
                return Err(ex);
            }
            let grew = if TRACE {
                // the traced path materializes the image row so new facts
                // can be diffed out for provenance; explain-mode only
                edge_image(e, arena.row(e.from), &mut scratch);
                prov.record_new(e, ek, &scratch, arena.row(e.to), arena.row(e.from));
                arena.union_row(e.to, &scratch)
            } else {
                apply_edge(&mut arena, ek, e, &plan, &mut vals, &pop_mask, &mut dirty, mw)
            };
            let first_visit = !reached[e.to];
            reached[e.to] = true;
            if (grew || first_visit) && !on_work[e.to] {
                on_work[e.to] = true;
                work.push(e.to);
            }
        }
    }
    FDS_WORKLIST_POPS.add(pops);
    FDS_EDGE_VISITS.add(edge_visits as u64);
    // deterministic logical volume — one row read + one row OR'd per edge
    // visit; the delta kernel touches fewer physical words, and the E12
    // wall-clock measures that win against this fixed denominator
    FDS_WORDS_TOUCHED.add(2 * stride as u64 * edge_visits as u64);
    canvas_telemetry::trace::instant(
        label,
        "solver",
        &[("edge_visits", edge_visits as u64), ("worklist_pops", pops)],
    );
    Ok((FdsResult { arena, edge_visits, worklist_pops: pops as usize }, prov))
}

/// The pre-rewrite scalar solver: one heap-allocated [`BitSet`] per node,
/// per-bit transfer and join calls. Kept as the reference implementation —
/// the `prop_fixpoint` differential suite pins [`analyze`] to this
/// kernel's fixpoint on random boolean programs, and the `eval fixpoint`
/// table (E12) reports the bit-parallel kernel's throughput against it.
/// Ungoverned and untraced; publishes no `fds.*` telemetry (it is a
/// yardstick, not a production path). It evaluates right-hand sides
/// itself rather than through `eval_rhs`: as the differential oracle it
/// must not share a bug with the kernel it checks.
pub fn analyze_reference(bp: &BoolProgram) -> ScalarResult {
    let n = bp.node_count;
    let width = bp.preds.len();
    let mut state: Vec<BitSet> = (0..n).map(|_| BitSet::new(width)).collect();
    for &k in &bp.entry_unknown {
        state[bp.entry].set(k, true);
    }
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, e) in bp.edges.iter().enumerate() {
        out_edges[e.from].push(k);
    }
    let mut work: Vec<usize> = vec![bp.entry];
    let mut on_work = vec![false; n];
    let mut reached = vec![false; n];
    on_work[bp.entry] = true;
    reached[bp.entry] = true;
    let mut edge_visits = 0;
    let mut pops = 0usize;
    while let Some(node) = work.pop() {
        pops += 1;
        on_work[node] = false;
        for &ek in &out_edges[node] {
            let e = &bp.edges[ek];
            edge_visits += 1;
            let mut out = state[e.from].clone();
            for (dst, rhs) in &e.assigns {
                let bit = match rhs {
                    Rhs::Havoc => true,
                    Rhs::Disj(ops) => ops.iter().any(|op| match op {
                        Operand::Const(c) => *c,
                        Operand::Var(v) => state[e.from].get(*v),
                    }),
                };
                out.set(*dst, bit);
            }
            let grew = state[e.to].union_with(&out);
            let first_visit = !reached[e.to];
            reached[e.to] = true;
            if (grew || first_visit) && !on_work[e.to] {
                on_work[e.to] = true;
                work.push(e.to);
            }
        }
    }
    ScalarResult { may_one: state, edge_visits, worklist_pops: pops }
}

/// The potential violations of a fixpoint, whichever engine computed it:
/// a check fires when one of its disjuncts is the constant 1 or a predicate
/// that may be 1 at the check's node (`may_one(node, pred)`). The boolean
/// program holds only the checks a path from the entry reaches. With
/// `witnesses`, each violation carries the trace of its first culprit
/// (empty when the check fires only on a constant disjunct: the
/// precondition is violated unconditionally). `witnesses` is a traced
/// solve's provenance, with the client and derived abstraction its facts
/// are rendered in.
pub fn violations(
    bp: &BoolProgram,
    may_one: impl Fn(usize, usize) -> bool,
    witnesses: Option<(&Provenance, &Program, &Derived)>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for c in &bp.checks {
        let mut culprits = Vec::new();
        let mut fires = false;
        for op in &c.preds {
            match op {
                Operand::Const(true) => fires = true,
                Operand::Const(false) => {}
                Operand::Var(v) => {
                    if may_one(c.node, *v) {
                        fires = true;
                        culprits.push(*v);
                    }
                }
            }
        }
        if fires {
            let witness = witnesses.map(|(prov, program, derived)| match culprits.first() {
                Some(&p) => prov.trace(bp, program, derived, c.node, p),
                None => Vec::new(),
            });
            out.push(Violation { site: c.site.clone(), culprits, witness });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_abstraction::{transform_method, EntryAssumption};
    use canvas_minijava::Program;
    use canvas_wp::derive_abstraction;

    fn certify(src: &str) -> Vec<Violation> {
        let spec = canvas_easl::builtin::cmp();
        let program = Program::parse(src, &spec).unwrap();
        let derived = derive_abstraction(&spec).unwrap();
        let main = program.main_method().expect("needs a main");
        let bp = transform_method(&program, main, &spec, &derived, EntryAssumption::Clean);
        let res = analyze(&bp);
        // the scalar reference kernel must agree everywhere, always
        let reference = analyze_reference(&bp);
        assert_eq!(res.to_bitsets(), reference.may_one, "kernels diverged");
        assert_eq!(res.edge_visits, reference.edge_visits);
        assert_eq!(res.worklist_pops, reference.worklist_pops);
        violations(&bp, |n, p| res.get(n, p), None)
    }

    #[test]
    fn fig3_exact_lines() {
        // the paper's running example: errors at the i2.next() and the final
        // i1.next(), and NO false alarm at i3.next()
        let v = certify(
            r#"
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
"#,
        );
        let lines: Vec<u32> = v.iter().map(|x| x.site.line()).collect();
        assert_eq!(lines, vec![10, 13], "violations: {v:#?}");
    }

    #[test]
    fn straightline_no_error() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        s.add("a");
        Iterator i = s.iterator();
        i.next();
        i.remove();
        i.next();
    }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn loop_with_fresh_iterator_is_safe() {
        // the §3 example that defeats allocation-site-based alias analysis:
        // the set is modified, but a fresh iterator is created before each
        // inner loop, so no CME occurs
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) {
                i.next();
            }
        }
    }
    static boolean c() { return true; }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn loop_add_during_iteration_is_flagged() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        for (Iterator i = s.iterator(); i.hasNext(); ) {
            i.next();
            s.add("x");
        }
    }
}
"#,
        );
        // the second-iteration next() must be flagged
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].site.what.contains("next"));
    }

    #[test]
    fn iterator_remove_keeps_self_valid_but_stales_others() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator a = s.iterator();
        Iterator b = s.iterator();
        a.remove();
        a.next();
        b.next();
    }
}
"#,
        );
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].site.what, "b.next()");
    }

    #[test]
    fn branch_join_is_path_sensitive_enough() {
        // one branch stales i, the other does not: the later next() may fail
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (true) { s.add("x"); }
        i.next();
    }
    static boolean c() { return true; }
}
"#,
        );
        assert_eq!(v.len(), 1);
        // but if both branches refresh the iterator, no alarm:
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        if (true) { s.add("x"); i = s.iterator(); } else { i = s.iterator(); }
        i.next();
    }
    static boolean c() { return true; }
}
"#,
        );
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn unknown_callee_is_conservative() {
        let v = certify(
            r#"
class Main {
    static void main() {
        Set s = new Set();
        Iterator i = s.iterator();
        mystery();
        i.next();
    }
    static void mystery() { }
}
"#,
        );
        // intraprocedural engine must flag this (mystery could mutate s via
        // a static — it cannot here, but the intraproc abstraction cannot
        // know that; §8's interprocedural engine resolves it)
        assert_eq!(v.len(), 1);
    }
}
