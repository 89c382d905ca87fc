//! E12: bit-parallel fixpoint kernel throughput and within-method delta
//! re-solve (DESIGN.md §10).
//!
//! Two experiments share this module:
//!
//! * **Kernel sweep** — the word-parallel FDS kernel vs the per-bit
//!   reference kernel on generated CMP clients of growing size. Both
//!   kernels visit the same edges in the same order and reach the same
//!   fixpoint, so edge visits / worklist pops / words touched are
//!   deterministic and baseline-gated; the wall-clock times (median of 5)
//!   are reported but never gated.
//! * **Delta re-solve** — the E10 one-line-edit workload, method by
//!   method: each method of the edited program is solved cold and again
//!   seeded from the cached solution of the base program. The seeded run
//!   must reach the same fixpoint with strictly fewer worklist pops.
//!
//! The `eval fixpoint` subcommand renders both as text, emits the
//! `canvas-bench-eval/2` document (`BENCH_fixpoint.json`), and gates the
//! deterministic section against the committed `"fixpoint"` key of
//! `bench/baseline.json`.

use std::time::{Duration, Instant};

use canvas_dataflow::delta::{self, DeltaPayload};
use canvas_dataflow::soa::stride_for;
use canvas_dataflow::{fds, DeltaSeed};
use canvas_faults::Meter;
use canvas_suite::generators;

use crate::json::{bench_document, obj, Json};
use crate::{fmt_duration, render_header, INCR_BASE, INCR_EDIT_FROM, INCR_EDIT_TO};

/// One point of the E12 kernel sweep: a generated client solved by both
/// the bit-parallel and the per-bit reference FDS kernels.
#[derive(Clone, Debug)]
pub struct FixpointPoint {
    /// Sweep dimension: generated client size in blocks.
    pub blocks: usize,
    /// Boolean-program CFG edges.
    pub edges: usize,
    /// Predicate instances (row width in bits).
    pub preds: usize,
    /// `u64` words per arena row (cache-line padded above 8 words).
    pub stride: usize,
    /// Edge evaluations to the fixpoint (identical for both kernels).
    pub edge_visits: usize,
    /// Worklist pops to the fixpoint (identical for both kernels).
    pub worklist_pops: usize,
    /// Words read+written by the word kernel: `2 * stride * edge_visits`.
    pub words_touched: u64,
    /// Median-of-5 wall time of the bit-parallel kernel.
    pub word_time: Duration,
    /// Median-of-5 wall time of the per-bit reference kernel.
    pub scalar_time: Duration,
}

impl FixpointPoint {
    /// Throughput gain of the word kernel over the per-bit kernel on the
    /// same work (both kernels touch the same `words_touched` logical
    /// words, so the ratio of times is the ratio of words/sec).
    pub fn speedup(&self) -> f64 {
        if self.word_time.as_nanos() == 0 {
            f64::INFINITY
        } else {
            self.scalar_time.as_secs_f64() / self.word_time.as_secs_f64()
        }
    }

    /// Word-kernel throughput in words per second.
    pub fn words_per_sec(&self) -> f64 {
        if self.word_time.as_nanos() == 0 {
            f64::INFINITY
        } else {
            self.words_touched as f64 / self.word_time.as_secs_f64()
        }
    }
}

fn median_of<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Sweeps generated CMP clients — the loopy [`generators::scmp_loop_blocks`]
/// shape, whose staleness facts grow around back edges so the solvers
/// genuinely iterate instead of visiting every edge once — timing both
/// kernels (median of 5) and recording the deterministic work units.
pub fn fixpoint_sweep(points: &[usize]) -> Vec<FixpointPoint> {
    let spec = canvas_easl::builtin::cmp();
    let derived = canvas_wp::derive_abstraction(&spec).expect("cmp derives");
    points
        .iter()
        .map(|&blocks| {
            let g = generators::scmp_loop_blocks(blocks, 2);
            let program = canvas_minijava::Program::parse(&g.source, &spec).expect("generated");
            let main = program.main_method().expect("main");
            let bp = canvas_abstraction::transform_method(
                &program,
                main,
                &spec,
                &derived,
                canvas_abstraction::EntryAssumption::Clean,
            );
            let res = fds::analyze(&bp);
            let reference = fds::analyze_reference(&bp);
            assert_eq!(res.to_bitsets(), reference.may_one, "kernels disagree at {blocks} blocks");
            let stride = stride_for(bp.preds.len());
            let word_time = median_of(5, || {
                std::hint::black_box(fds::analyze(std::hint::black_box(&bp)));
            });
            let scalar_time = median_of(5, || {
                std::hint::black_box(fds::analyze_reference(std::hint::black_box(&bp)));
            });
            FixpointPoint {
                blocks,
                edges: bp.edges.len(),
                preds: bp.preds.len(),
                stride,
                edge_visits: res.edge_visits,
                worklist_pops: res.worklist_pops,
                words_touched: 2 * stride as u64 * res.edge_visits as u64,
                word_time,
                scalar_time,
            }
        })
        .collect()
}

/// One row of the E12 delta experiment: a method of the edited E10
/// workload solved cold and seeded from the base program's solution.
#[derive(Clone, Debug)]
pub struct DeltaRow {
    /// Qualified method name.
    pub method: String,
    /// Whether the method's body actually changed between the versions.
    pub edited: bool,
    /// The seed passed validation and the delta kernel ran.
    pub seeded: bool,
    /// Worklist pops of the cold solve.
    pub cold_pops: usize,
    /// Worklist pops of the seeded solve (0 affected nodes pops nothing).
    pub delta_pops: usize,
    /// Edge visits of the cold solve.
    pub cold_visits: usize,
    /// Edge visits of the seeded solve.
    pub delta_visits: usize,
    /// The seeded run reached the same fixpoint as the cold run.
    pub same_fixpoint: bool,
}

/// Runs the delta experiment on the E10 workload: every method of the
/// edited program, seeded from the base program's cached solutions.
pub fn delta_table() -> Vec<DeltaRow> {
    let spec = canvas_easl::builtin::cmp();
    let derived = canvas_wp::derive_abstraction(&spec).expect("cmp derives");
    let base = canvas_minijava::Program::parse(INCR_BASE, &spec).expect("incr base parses");
    let edited_src = INCR_BASE.replace(INCR_EDIT_FROM, INCR_EDIT_TO);
    let edited = canvas_minijava::Program::parse(&edited_src, &spec).expect("incr edited parses");
    let transform = |program: &canvas_minijava::Program, m: &canvas_minijava::MethodIr| {
        let entry = if m.name == "main" {
            canvas_abstraction::EntryAssumption::Clean
        } else {
            canvas_abstraction::EntryAssumption::Unknown
        };
        canvas_abstraction::transform_method(program, m, &spec, &derived, entry)
    };
    let gov = Meter::disarmed();
    edited
        .methods()
        .iter()
        .map(|m| {
            let name = m.qualified_name();
            let new_bp = transform(&edited, m);
            let cold = fds::analyze(&new_bp);
            let old_m = base.method_named(&name).expect("method survives the edit");
            let old_bp = transform(&base, old_m);
            let old_res = fds::analyze(&old_bp);
            let payload = DeltaPayload::of(&old_bp);
            let edited = payload != DeltaPayload::of(&new_bp);
            let seed = DeltaSeed {
                payload,
                preds: old_bp.preds.len() as u32,
                solution: (0..old_bp.node_count).map(|r| old_res.row_ones(r)).collect(),
            };
            let warm = delta::analyze_delta(&new_bp, &seed, &gov).expect("disarmed meter");
            let (seeded, delta_pops, delta_visits, same_fixpoint) = match warm {
                Some(res) => (true, res.worklist_pops, res.edge_visits, res.same_solution(&cold)),
                None => (false, cold.worklist_pops, cold.edge_visits, true),
            };
            DeltaRow {
                method: name,
                edited,
                seeded,
                cold_pops: cold.worklist_pops,
                delta_pops,
                cold_visits: cold.edge_visits,
                delta_visits,
                same_fixpoint,
            }
        })
        .collect()
}

/// The full E12 result set.
pub struct FixpointMetrics {
    /// The kernel sweep.
    pub sweep: Vec<FixpointPoint>,
    /// The delta experiment.
    pub delta: Vec<DeltaRow>,
}

/// The default E12 sweep sizes (the acceptance window is 8–128 blocks).
pub const FIXPOINT_SWEEP: &[usize] = &[8, 16, 32, 64, 128];

/// Runs both E12 experiments at the default sizes.
pub fn collect_fixpoint_metrics() -> FixpointMetrics {
    FixpointMetrics { sweep: fixpoint_sweep(FIXPOINT_SWEEP), delta: delta_table() }
}

/// Builds the stable `canvas-bench-eval/2` document for `eval fixpoint`.
/// Everything under `"deterministic"` must be byte-identical run-to-run
/// (CI gates it against the `"fixpoint"` key of `bench/baseline.json`);
/// the `"measured"` wall times are recorded but never gated.
pub fn fixpoint_to_json(m: &FixpointMetrics) -> Json {
    let det_sweep = Json::Arr(
        m.sweep
            .iter()
            .map(|p| {
                obj(vec![
                    ("blocks", Json::Int(p.blocks as u64)),
                    ("edges", Json::Int(p.edges as u64)),
                    ("preds", Json::Int(p.preds as u64)),
                    ("stride", Json::Int(p.stride as u64)),
                    ("edge_visits", Json::Int(p.edge_visits as u64)),
                    ("worklist_pops", Json::Int(p.worklist_pops as u64)),
                    ("words_touched", Json::Int(p.words_touched)),
                ])
            })
            .collect(),
    );
    let det_delta = Json::Arr(
        m.delta
            .iter()
            .map(|r| {
                obj(vec![
                    ("method", Json::Str(r.method.clone())),
                    ("seeded", Json::Bool(r.seeded)),
                    ("cold_pops", Json::Int(r.cold_pops as u64)),
                    ("delta_pops", Json::Int(r.delta_pops as u64)),
                    ("cold_visits", Json::Int(r.cold_visits as u64)),
                    ("delta_visits", Json::Int(r.delta_visits as u64)),
                    ("same_fixpoint", Json::Bool(r.same_fixpoint)),
                ])
            })
            .collect(),
    );
    // work-unit counters computed from the results themselves (not a
    // telemetry snapshot), so they are deterministic by construction
    let counters = Json::Obj(vec![
        ("fds.words_touched".to_string(), Json::Int(m.sweep.iter().map(|p| p.words_touched).sum())),
        (
            "incr.delta_seeded".to_string(),
            Json::Int(m.delta.iter().filter(|r| r.seeded).count() as u64),
        ),
        (
            "incr.delta_fallback".to_string(),
            Json::Int(m.delta.iter().filter(|r| !r.seeded).count() as u64),
        ),
    ]);
    let measured = Json::Arr(
        m.sweep
            .iter()
            .map(|p| {
                obj(vec![
                    ("blocks", Json::Int(p.blocks as u64)),
                    (
                        "word_nanos",
                        Json::Int(p.word_time.as_nanos().min(u128::from(u64::MAX)) as u64),
                    ),
                    (
                        "scalar_nanos",
                        Json::Int(p.scalar_time.as_nanos().min(u128::from(u64::MAX)) as u64),
                    ),
                ])
            })
            .collect(),
    );
    bench_document(
        obj(vec![("sweep", det_sweep), ("delta", det_delta), ("counters", counters)]),
        obj(vec![("sweep", measured)]),
    )
}

/// E12 as text, exactly as `eval fixpoint` prints it.
pub fn render_fixpoint(m: &FixpointMetrics) -> String {
    use std::fmt::Write as _;
    let mut out = render_header(
        "E12: bit-parallel FDS kernel vs per-bit reference (wall times: median of 5)",
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>7} {:>7} {:>8} {:>7} {:>10} {:>10} {:>10} {:>8} {:>12}",
        "blocks",
        "edges",
        "preds",
        "words",
        "visits",
        "pops",
        "touched",
        "word",
        "scalar",
        "speedup",
        "words/s"
    );
    for p in &m.sweep {
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>7} {:>7} {:>8} {:>7} {:>10} {:>10} {:>10} {:>7.1}x {:>12.2e}",
            p.blocks,
            p.edges,
            p.preds,
            p.stride,
            p.edge_visits,
            p.worklist_pops,
            p.words_touched,
            fmt_duration(p.word_time),
            fmt_duration(p.scalar_time),
            p.speedup(),
            p.words_per_sec(),
        );
    }
    let word_total: Duration = m.sweep.iter().map(|p| p.word_time).sum();
    let scalar_total: Duration = m.sweep.iter().map(|p| p.scalar_time).sum();
    if word_total.as_nanos() > 0 {
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>7} {:>7} {:>8} {:>7} {:>10} {:>10} {:>10} {:>7.1}x  (sweep aggregate)",
            "total",
            "",
            "",
            "",
            "",
            "",
            "",
            fmt_duration(word_total),
            fmt_duration(scalar_total),
            scalar_total.as_secs_f64() / word_total.as_secs_f64(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "delta re-solve (E10 one-line edit; seeded from the base solution):");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>10} {:>11} {:>12} {:>13} {:>9}",
        "method", "seeded", "cold-pops", "delta-pops", "cold-visits", "delta-visits", "fixpoint"
    );
    for r in &m.delta {
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>10} {:>11} {:>12} {:>13} {:>9}",
            r.method,
            if r.seeded { "yes" } else { "NO" },
            r.cold_pops,
            r.delta_pops,
            r.cold_visits,
            r.delta_visits,
            if r.same_fixpoint { "same" } else { "DIVERGED" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_work_units_match_both_kernels_and_scale() {
        let pts = fixpoint_sweep(&[4, 8]);
        assert!(pts[1].edges > pts[0].edges);
        assert!(pts[1].words_touched > pts[0].words_touched);
        for p in &pts {
            assert_eq!(p.words_touched, 2 * p.stride as u64 * p.edge_visits as u64);
        }
    }

    #[test]
    fn delta_rows_seed_and_do_strictly_less_work() {
        let rows = delta_table();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.seeded, "{}: seed rejected", r.method);
            assert!(r.same_fixpoint, "{}: delta diverged", r.method);
            assert!(
                r.delta_pops < r.cold_pops,
                "{}: delta pops {} !< cold pops {}",
                r.method,
                r.delta_pops,
                r.cold_pops
            );
        }
    }

    #[test]
    fn fixpoint_document_round_trips_and_gates_itself() {
        let m = FixpointMetrics { sweep: fixpoint_sweep(&[4]), delta: delta_table() };
        let doc = fixpoint_to_json(&m);
        crate::tests::assert_bench_envelope(&doc);
        let text = doc.render();
        let back = Json::parse(&text).expect("parses");
        // a baseline whose "fixpoint" key is this run's deterministic
        // section must gate clean
        let baseline = obj(vec![(
            "fixpoint",
            back.get("deterministic").expect("deterministic section").clone(),
        )]);
        assert!(crate::baseline_drift(&back, &baseline, "fixpoint").is_empty());
        // and a drifted counter must be caught
        let drifted = Json::parse(&text.replace("\"edge_visits\":", "\"edge_visits0\":"))
            .expect("still JSON");
        let base2 = obj(vec![(
            "fixpoint",
            drifted.get("deterministic").expect("deterministic section").clone(),
        )]);
        assert!(!crate::baseline_drift(&back, &base2, "fixpoint").is_empty());
        // and a baseline without the key is drift, not a pass
        assert!(!crate::baseline_drift(&back, &obj(vec![]), "fixpoint").is_empty());
    }
}
