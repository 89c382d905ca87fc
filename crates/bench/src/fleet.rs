//! E15: fleet-scale corpus certification (DESIGN.md §13).
//!
//! Generates a fixed synthetic corpus with [`canvas_fleet::gen`], runs the
//! driver across a worker sweep (1/2/4/8), and runs a cold→warm pair
//! through an on-disk certificate store. The sweep shows scaling and how
//! many cells the shared store lets the workers solve; the warm re-run
//! shows that a warm store recomputes nothing and reproduces the corpus
//! digest exactly. Like the E12 fixpoint benchmark, the emitted document
//! splits into a `deterministic` section (verdict counts, digests,
//! warm-run misses — gated against `bench/baseline.json`) and a `measured`
//! section (wall clock, cache traffic — recorded, never gated).

use std::time::Duration;

use crate::json::{bench_document, obj, Json};
use crate::{fmt_duration, render_header};
use canvas_core::Engine;
use canvas_fleet::{generate_with_threads, run_fleet, FleetConfig, FleetItem, GenParams, Manifest};

/// Corpus size for the benchmark (kept small: this runs inside `eval`).
pub const FLEET_BENCH_PROGRAMS: usize = 48;

/// Corpus seed — part of the deterministic contract with the baseline.
pub const FLEET_BENCH_SEED: u64 = 4242;

/// Shard counts swept by the benchmark.
pub const FLEET_SHARD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// One row of the shard sweep (all measured, none gated).
pub struct FleetSweepRow {
    /// Shard count for this row.
    pub shards: usize,
    /// End-to-end wall clock.
    pub wall: Duration,
    /// Cells answered from the store, summed over every worker.
    pub hits: u64,
    /// Cells solved fresh.
    pub misses: u64,
}

/// Everything `eval fleet` reports.
pub struct FleetBenchMetrics {
    /// Corpus size.
    pub programs: usize,
    /// Generator seed.
    pub seed: u64,
    /// Corpus manifest digest (generator determinism witness).
    pub manifest_digest: String,
    /// Programs certified conformant (same at every shard count).
    pub certified: usize,
    /// Programs with at least one potential violation.
    pub violating: usize,
    /// Total violation sites.
    pub violation_sites: usize,
    /// Inconclusive programs.
    pub inconclusive: usize,
    /// Generator ground-truth disagreements (must be 0).
    pub truth_mismatches: usize,
    /// Corpus outcome digest (identical across every shard count).
    pub corpus_digest: String,
    /// True iff every sweep row reproduced the same corpus digest.
    pub shard_digests_agree: bool,
    /// Fresh solves on the warm re-run (the tentpole: must be 0).
    pub warm_misses: u64,
    /// Cache hits on the warm re-run.
    pub warm_hits: u64,
    /// True iff the warm re-run reproduced the cold corpus digest.
    pub warm_digest_matches: bool,
    /// Cold-run wall clock (measured).
    pub cold_wall: Duration,
    /// Warm-run wall clock (measured).
    pub warm_wall: Duration,
    /// The shard sweep (measured).
    pub sweep: Vec<FleetSweepRow>,
}

fn bench_corpus() -> (Vec<FleetItem>, String) {
    let params = GenParams {
        programs: FLEET_BENCH_PROGRAMS,
        seed: FLEET_BENCH_SEED,
        ..GenParams::default()
    };
    let corpus = generate_with_threads(&params, canvas_suite::worker_count(FLEET_BENCH_PROGRAMS))
        .expect("fleet bench corpus generates");
    let manifest = Manifest::from_programs(&params, &corpus);
    let items = corpus
        .iter()
        .map(|p| FleetItem {
            name: p.name.clone(),
            source: p.source.clone(),
            expected: Some(p.expected.clone()),
        })
        .collect();
    (items, manifest.digest.to_string())
}

fn cmp_config(shards: usize) -> FleetConfig {
    FleetConfig::local(canvas_easl::builtin::cmp(), "cmp", Engine::ScmpFds, shards)
}

/// Runs the E15 benchmark: shard sweep plus a cold→warm store pair.
pub fn collect_fleet_metrics() -> FleetBenchMetrics {
    let (items, manifest_digest) = bench_corpus();

    let mut sweep = Vec::new();
    let mut first: Option<(usize, usize, usize, usize, usize, String)> = None;
    let mut shard_digests_agree = true;
    for &shards in FLEET_SHARD_SWEEP {
        let r = run_fleet(&items, &cmp_config(shards)).expect("fleet sweep runs");
        let digest = r.corpus_digest.to_string();
        match &first {
            None => {
                first = Some((
                    r.certified,
                    r.violating,
                    r.violation_sites,
                    r.inconclusive,
                    r.truth_mismatches,
                    digest,
                ));
            }
            Some((.., d)) => {
                if *d != digest {
                    shard_digests_agree = false;
                }
            }
        }
        sweep.push(FleetSweepRow {
            shards,
            wall: r.wall,
            hits: r.cache.hits,
            misses: r.cache.misses,
        });
    }
    let (certified, violating, violation_sites, inconclusive, truth_mismatches, corpus_digest) =
        first.expect("sweep is non-empty");

    // Cold→warm pair through an on-disk store: the warm run must answer
    // every cell from the store the cold run persisted.
    let dir = std::env::temp_dir().join(format!("canvas-eval-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = cmp_config(4);
    cfg.cache_dir = Some(dir.clone());
    let cold = run_fleet(&items, &cfg).expect("cold fleet run");
    let warm = run_fleet(&items, &cfg).expect("warm fleet run");
    let _ = std::fs::remove_dir_all(&dir);

    FleetBenchMetrics {
        programs: items.len(),
        seed: FLEET_BENCH_SEED,
        manifest_digest,
        certified,
        violating,
        violation_sites,
        inconclusive,
        truth_mismatches,
        corpus_digest,
        shard_digests_agree,
        warm_misses: warm.cache.misses,
        warm_hits: warm.cache.hits,
        warm_digest_matches: warm.corpus_digest == cold.corpus_digest,
        cold_wall: cold.wall,
        warm_wall: warm.wall,
        sweep,
    }
}

/// The `canvas-bench-eval/2` document for the fleet benchmark. Its
/// deterministic section is gated under the baseline's `"fleet"` key.
pub fn fleet_to_json(m: &FleetBenchMetrics) -> Json {
    let sweep = m
        .sweep
        .iter()
        .map(|r| {
            obj(vec![
                ("shards", Json::Int(r.shards as u64)),
                ("wall_ms", Json::Int(r.wall.as_millis() as u64)),
                ("hits", Json::Int(r.hits)),
                ("misses", Json::Int(r.misses)),
            ])
        })
        .collect();
    bench_document(
        obj(vec![
            ("programs", Json::Int(m.programs as u64)),
            ("seed", Json::Int(m.seed)),
            ("manifest_digest", Json::Str(m.manifest_digest.clone())),
            ("certified", Json::Int(m.certified as u64)),
            ("violating", Json::Int(m.violating as u64)),
            ("violation_sites", Json::Int(m.violation_sites as u64)),
            ("inconclusive", Json::Int(m.inconclusive as u64)),
            ("truth_mismatches", Json::Int(m.truth_mismatches as u64)),
            ("corpus_digest", Json::Str(m.corpus_digest.clone())),
            ("shard_digests_agree", Json::Bool(m.shard_digests_agree)),
            ("warm_misses", Json::Int(m.warm_misses)),
            ("warm_digest_matches", Json::Bool(m.warm_digest_matches)),
        ]),
        obj(vec![
            ("warm_hits", Json::Int(m.warm_hits)),
            ("cold_wall_ms", Json::Int(m.cold_wall.as_millis() as u64)),
            ("warm_wall_ms", Json::Int(m.warm_wall.as_millis() as u64)),
            ("sweep", Json::Arr(sweep)),
        ]),
    )
}

/// Renders the E15 table.
pub fn render_fleet(m: &FleetBenchMetrics) -> String {
    use std::fmt::Write as _;
    let mut out = render_header(&format!(
        "E15: fleet shard sweep ({} programs, seed {}, scmp-fds)",
        m.programs, m.seed
    ));
    let _ = writeln!(
        out,
        "verdicts: {} certified, {} violating ({} sites), {} inconclusive, {} truth mismatches",
        m.certified, m.violating, m.violation_sites, m.inconclusive, m.truth_mismatches
    );
    let _ = writeln!(out, "corpus digest {} (manifest {})", m.corpus_digest, m.manifest_digest);
    let _ = writeln!(
        out,
        "shard digests agree: {}",
        if m.shard_digests_agree { "yes" } else { "NO — schedule leaked into answers" }
    );
    let _ = writeln!(out, "\nshards      wall    hits  misses");
    for r in &m.sweep {
        let _ = writeln!(
            out,
            "{:>6}  {:>8}  {:>6}  {:>6}",
            r.shards,
            fmt_duration(r.wall),
            r.hits,
            r.misses
        );
    }
    let _ = writeln!(
        out,
        "\nwarm re-run: {} misses, {} hits, digest {} (cold {}, warm {})",
        m.warm_misses,
        m.warm_hits,
        if m.warm_digest_matches { "reproduced" } else { "DIVERGED" },
        fmt_duration(m.cold_wall),
        fmt_duration(m.warm_wall)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark gates itself: a baseline built from its own
    /// deterministic section must show no drift, and the tentpole
    /// invariants (zero warm misses, digest agreement) must hold.
    #[test]
    fn fleet_document_round_trips_and_gates_itself() {
        let m = collect_fleet_metrics();
        assert_eq!(m.truth_mismatches, 0, "generator ground truth holds");
        assert!(m.shard_digests_agree, "every shard count yields the same digest");
        assert_eq!(m.warm_misses, 0, "warm re-run recomputes nothing");
        assert!(m.warm_digest_matches, "warm re-run reproduces the digest");
        let doc = fleet_to_json(&m);
        crate::tests::assert_bench_envelope(&doc);
        let det = doc.get("deterministic").expect("deterministic section").clone();
        let baseline = obj(vec![("fleet", det)]);
        assert!(crate::baseline_drift(&doc, &baseline, "fleet").is_empty(), "self-baseline");
        let corrupt = obj(vec![("fleet", obj(vec![("programs", Json::Int(7))]))]);
        assert!(!crate::baseline_drift(&doc, &corrupt, "fleet").is_empty(), "corruption caught");
        let text = render_fleet(&m);
        assert!(text.contains("E15: fleet shard sweep"));
        assert!(text.contains("warm re-run: 0 misses"));
    }
}
