//! The seeded synthetic-corpus generator.
//!
//! Generates families of mini-Java CMP clients with *known ground truth*:
//! every program records the source lines the `scmp-fds` certifier must
//! report (and no others), so a fleet run doubles as a soundness/precision
//! oracle over the whole corpus. Four families vary the dimensions the
//! paper's evaluation sweeps:
//!
//! * `straightline` — independent set/iterator blocks, optional branch,
//!   violation = mutate-then-use without a refresh;
//! * `loops` — iterate-while-mutating loops under `while` nesting up to
//!   [`GenParams::max_loop_depth`] (the staleness facts grow around the
//!   back edge); the safe variant refreshes per iteration (the paper's
//!   version-loop idiom);
//! * `callgraph` — helper chains or fans; a use across a client call is
//!   reported by the intraprocedural engine (havoc), the safe variant
//!   refreshes after the call;
//! * `wide` — up to [`GenParams::max_methods`] self-contained methods,
//!   exercising per-method cells (and cross-program cache hits: small
//!   parameter spaces repeat layouts exactly).
//!
//! Determinism: program `i` is generated from `hash(seed, i)` alone, so
//! the corpus is byte-identical across runs *and* across generator thread
//! counts — the manifest digest is reproducible anywhere.

use canvas_core::CanvasError;
use canvas_incr::fingerprint::Hasher64;
use canvas_minijava::synth::{check_synthesized, SourceBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Corpus-shape parameters. All sampling is driven by [`GenParams::seed`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GenParams {
    /// Number of programs to generate.
    pub programs: usize,
    /// Master seed; program `i` derives its own rng from `hash(seed, i)`.
    pub seed: u64,
    /// Upper bound on methods per program (`wide`/`callgraph` families).
    pub max_methods: usize,
    /// Upper bound on loop nesting (`loops` family).
    pub max_loop_depth: usize,
    /// Fraction of programs containing at least one genuine violation.
    pub violation_rate: f64,
}

impl Default for GenParams {
    fn default() -> GenParams {
        GenParams { programs: 100, seed: 1, max_methods: 4, max_loop_depth: 2, violation_rate: 0.3 }
    }
}

/// One generated client plus its ground truth.
#[derive(Clone, Debug)]
pub struct GeneratedProgram {
    /// Corpus-relative file name, e.g. `p00042.mj`.
    pub name: String,
    /// Which generator family produced it.
    pub family: &'static str,
    /// The mini-Java source.
    pub source: String,
    /// Source lines `scmp-fds` must report, ascending.
    pub expected: Vec<u32>,
}

/// Generates the corpus with the ambient worker count
/// (`CANVAS_EVAL_THREADS`-aware, see `canvas_suite::worker_count`).
///
/// # Errors
///
/// A generator bug (emitted source fails the frontend self-check).
pub fn generate(params: &GenParams) -> Result<Vec<GeneratedProgram>, CanvasError> {
    generate_with_threads(params, canvas_suite::worker_count(params.programs.max(1)))
}

/// As [`generate`] with an explicit thread count. The output is
/// byte-identical for every `threads` value: each program is a pure
/// function of `(params, index)`.
///
/// # Errors
///
/// As [`generate`].
pub fn generate_with_threads(
    params: &GenParams,
    threads: usize,
) -> Result<Vec<GeneratedProgram>, CanvasError> {
    let n = params.programs;
    let spec = canvas_easl::builtin::cmp();
    let claimed = canvas_suite::claim_each(
        n,
        threads.clamp(1, n.max(1)),
        |_| (),
        |(), i| generate_one(params, i, &spec),
    );
    let mut out = Vec::with_capacity(n);
    for (i, slot) in claimed.results.into_iter().enumerate() {
        match slot {
            Some(Ok(p)) => out.push(p),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(CanvasError::new(
                    canvas_core::Stage::ClientFrontend,
                    canvas_core::ErrorKind::EnginePanic,
                    format!("generator worker died before producing program {i}"),
                ))
            }
        }
    }
    Ok(out)
}

/// Generates program `index` of the corpus — a pure function of
/// `(params, index)`.
fn generate_one(
    params: &GenParams,
    index: usize,
    spec: &canvas_easl::Spec,
) -> Result<GeneratedProgram, CanvasError> {
    let mut h = Hasher64::new();
    h.write_u64(params.seed);
    h.write_u64(index as u64);
    let mut rng = StdRng::seed_from_u64(h.finish().0);

    let violating = rng.gen_bool(params.violation_rate);
    let mut b = SourceBuilder::new("P");
    let (family, mut expected) = match rng.gen_range(0usize..4) {
        0 => ("straightline", straightline(&mut b, &mut rng, violating)),
        1 => ("loops", loops(&mut b, &mut rng, violating, params.max_loop_depth)),
        2 => ("callgraph", callgraph(&mut b, &mut rng, violating, params.max_methods)),
        _ => ("wide", wide(&mut b, &mut rng, violating, params.max_methods)),
    };
    expected.sort_unstable();
    let source = b.finish();
    // self-check: the emitted text must survive the real frontend, and a
    // violating program must actually contain component calls to violate
    check_synthesized(&source, spec).map_err(|e| CanvasError::client(&e))?;
    Ok(GeneratedProgram { name: format!("p{index:05}.mj"), family, source, expected })
}

/// Independent set/iterator blocks; at most one violating block.
fn straightline(b: &mut SourceBuilder, rng: &mut StdRng, violating: bool) -> Vec<u32> {
    let blocks = rng.gen_range(1usize..5);
    let bad = if violating { Some(rng.gen_range(0usize..blocks)) } else { None };
    let mut expected = Vec::new();
    b.open_block("static void main()");
    for k in 0..blocks {
        b.stmt(&format!("Set s{k} = new Set();"));
        b.stmt(&format!("s{k}.add(\"seed\");"));
        b.stmt(&format!("Iterator i{k} = s{k}.iterator();"));
        b.stmt(&format!("i{k}.next();"));
        if rng.gen_bool(0.5) {
            // a nondeterministic branch adds CFG edges without changing truth
            b.open_block("if (true)");
            b.stmt(&format!("i{k}.next();"));
            b.close_block();
        }
        if bad == Some(k) {
            b.stmt(&format!("s{k}.add(\"more\");"));
            expected.push(b.stmt(&format!("i{k}.next();")));
        } else {
            b.stmt(&format!("i{k} = s{k}.iterator();"));
            b.stmt(&format!("i{k}.next();"));
        }
    }
    b.close_block();
    expected
}

/// Iterate-while-mutating loops under `while` nesting; the safe variant is
/// the paper's version-loop (mutate, then refresh per outer iteration).
fn loops(b: &mut SourceBuilder, rng: &mut StdRng, violating: bool, max_depth: usize) -> Vec<u32> {
    let depth = rng.gen_range(1usize..max_depth.max(1) + 1);
    let uses = rng.gen_range(1usize..3);
    let mut expected = Vec::new();
    b.open_block("static void main()");
    b.stmt("Set s = new Set();");
    b.stmt("s.add(\"seed\");");
    for _ in 1..depth {
        b.open_block("while (true)");
    }
    if violating {
        b.open_block("for (Iterator i = s.iterator(); i.hasNext(); )");
        for _ in 0..uses {
            // stale from the second iteration on: every use is reported
            expected.push(b.stmt("i.next();"));
        }
        b.stmt("s.add(\"x\");");
        b.close_block();
    } else {
        b.stmt("s.add(\"grow\");");
        // refresh after the mutation: safe at any nesting depth
        b.open_block("for (Iterator i = s.iterator(); i.hasNext(); )");
        for _ in 0..uses {
            b.stmt("i.next();");
        }
        b.close_block();
    }
    // finish() closes the remaining while/class blocks
    expected
}

/// Helper chain or fan; a use across a client call is reported by the
/// intraprocedural engine (calls havoc component state).
fn callgraph(
    b: &mut SourceBuilder,
    rng: &mut StdRng,
    violating: bool,
    max_methods: usize,
) -> Vec<u32> {
    let helpers = rng.gen_range(1usize..max_methods.max(2));
    let chain = rng.gen_bool(0.5);
    let mutate_deep = rng.gen_bool(0.5);
    let mut expected = Vec::new();
    b.open_block("static void main()");
    b.stmt("Set s = new Set();");
    b.stmt("s.add(\"seed\");");
    b.stmt("Iterator i = s.iterator();");
    b.stmt("i.next();");
    if chain {
        b.stmt("h0(s);");
    } else {
        for k in 0..helpers {
            b.stmt(&format!("h{k}(s);"));
        }
    }
    if violating {
        expected.push(b.stmt("i.next();"));
    } else {
        b.stmt("i = s.iterator();");
        b.stmt("i.next();");
    }
    b.close_block();
    for k in 0..helpers {
        b.open_block(&format!("static void h{k}(Set x)"));
        if chain && k + 1 < helpers {
            b.stmt(&format!("h{}(x);", k + 1));
        } else if mutate_deep {
            b.stmt("x.add(\"deep\");");
        }
        b.close_block();
    }
    expected
}

/// Many self-contained methods: exercises per-method cells; violating
/// programs poison a nonempty subset of them.
fn wide(b: &mut SourceBuilder, rng: &mut StdRng, violating: bool, max_methods: usize) -> Vec<u32> {
    let m = rng.gen_range(2usize..max_methods.max(2) + 1);
    let mut bad: Vec<bool> = (0..m).map(|_| violating && rng.gen_bool(0.5)).collect();
    if violating && !bad.iter().any(|&x| x) {
        let pick = rng.gen_range(0usize..m);
        bad[pick] = true;
    }
    let mut expected = Vec::new();
    b.open_block("static void main()");
    for k in 0..m {
        b.stmt(&format!("w{k}();"));
    }
    b.close_block();
    for (k, &is_bad) in bad.iter().enumerate() {
        b.open_block(&format!("static void w{k}()"));
        b.stmt("Set s = new Set();");
        b.stmt("s.add(\"a\");");
        b.stmt("Iterator i = s.iterator();");
        b.stmt("i.next();");
        if is_bad {
            b.stmt("s.add(\"b\");");
            expected.push(b.stmt("i.next();"));
        }
        b.close_block();
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_core::{Certifier, Engine};
    use canvas_minijava::Program;

    /// The generator's contract: for every family and seed, `scmp-fds`
    /// reports exactly the recorded ground-truth lines. This is the oracle
    /// the whole fleet report's `truth_mismatches = 0` gate rests on.
    #[test]
    fn ground_truth_matches_scmp_fds_exactly() {
        let params = GenParams { programs: 64, seed: 7, ..GenParams::default() };
        let corpus = generate_with_threads(&params, 2).expect("generation succeeds");
        let spec = canvas_easl::builtin::cmp();
        let certifier = Certifier::from_spec(spec.clone()).expect("cmp derives");
        let mut families = std::collections::BTreeSet::new();
        for p in &corpus {
            families.insert(p.family);
            let program = Program::parse(&p.source, &spec).expect("generated source parses");
            let report = certifier.certify_program(&program, Engine::ScmpFds).expect("certifies");
            let mut got = report.lines();
            got.sort_unstable();
            assert_eq!(got, p.expected, "{} ({}):\n{}", p.name, p.family, p.source);
        }
        assert_eq!(families.len(), 4, "64 programs cover all four families");
    }

    #[test]
    fn violation_rate_extremes_are_respected() {
        let none = GenParams { programs: 24, seed: 3, violation_rate: 0.0, ..Default::default() };
        for p in generate_with_threads(&none, 1).expect("generation succeeds") {
            assert!(p.expected.is_empty(), "{} should be clean", p.name);
        }
        let all = GenParams { programs: 24, seed: 3, violation_rate: 1.0, ..Default::default() };
        let generated = generate_with_threads(&all, 1).expect("generation succeeds");
        assert!(
            generated.iter().all(|p| !p.expected.is_empty()),
            "rate 1.0 means every program violates"
        );
    }
}
