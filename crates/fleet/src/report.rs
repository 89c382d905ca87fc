//! The aggregated fleet report: table rendering and the
//! `canvas-bench-eval/2` JSON document.
//!
//! The document is split the same way the evaluation metrics are: a
//! `deterministic` section (verdict counts, ground-truth mismatches, the
//! corpus outcome digest — schedule-independent, baseline-gateable) and a
//! `measured` section (wall clock, cache traffic, per-worker latency — all
//! schedule- or machine-dependent, recorded but never gated). The schedule
//! decides *which* worker certifies a program, and with one shared store
//! which worker solves a cell first, never *what* a report says, which is
//! what keeps the first section deterministic.

use std::time::Duration;

use canvas_incr::fingerprint::Fingerprint;
use canvas_incr::json::{bench_document, obj, Json};
use canvas_incr::RunCacheStats;
use canvas_telemetry::HistogramStat;

/// Per-worker outcome row.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Worker index.
    pub shard: usize,
    /// Programs this worker completed.
    pub processed: u64,
    /// Programs that panicked inside this worker (contained per-program).
    pub poisoned_programs: u64,
    /// Whether the worker itself died (its in-flight program is lost, the
    /// other workers claimed the rest).
    pub dead: bool,
    /// Certificate-cache hits by this worker.
    pub hits: u64,
    /// Certificate-cache misses (fresh solves) by this worker.
    pub misses: u64,
    /// Misses seeded from a stale entry's fixpoint (delta re-solve).
    pub delta_seeded: u64,
    /// Per-program latency distribution (nanoseconds).
    pub latency: HistogramStat,
}

/// The aggregated result of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Engine name (e.g. `scmp-fds`).
    pub engine: String,
    /// Spec name (e.g. `cmp`).
    pub spec: String,
    /// `local` or `serve` (remote backends).
    pub mode: String,
    /// Worker count.
    pub shards_requested: usize,
    /// Corpus size.
    pub programs: usize,
    /// Programs certified conformant.
    pub certified: usize,
    /// Programs with at least one potential violation.
    pub violating: usize,
    /// Total violation sites.
    pub violation_sites: usize,
    /// Programs with an inconclusive verdict.
    pub inconclusive: usize,
    /// Programs whose worker panicked, errored, or died mid-flight.
    pub poisoned_programs: usize,
    /// Workers that died (shards poisoned).
    pub dead_shards: usize,
    /// Programs checked against manifest ground truth.
    pub truth_checked: usize,
    /// Ground-truth disagreements (must be 0 for `scmp-fds` corpora).
    pub truth_mismatches: usize,
    /// Index-ordered digest over per-program outcomes
    /// (schedule-independent; a warm re-run must reproduce it exactly).
    pub corpus_digest: Fingerprint,
    /// The corpus manifest digest, when the run had a manifest.
    pub manifest_digest: Option<Fingerprint>,
    /// Cache traffic summed over every worker.
    pub cache: RunCacheStats,
    /// Per-worker rows.
    pub shard_rows: Vec<ShardRow>,
    /// End-to-end wall clock.
    pub wall: Duration,
}

impl FleetReport {
    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} programs, engine {}, spec {}, {} shards ({})\n",
            self.programs, self.engine, self.spec, self.shards_requested, self.mode
        ));
        out.push_str(&format!(
            "  verdicts: {} certified, {} violating ({} sites), {} inconclusive\n",
            self.certified, self.violating, self.violation_sites, self.inconclusive
        ));
        out.push_str(&format!(
            "  failures: {} poisoned programs, {} dead shards, {} truth mismatches ({} checked)\n",
            self.poisoned_programs, self.dead_shards, self.truth_mismatches, self.truth_checked
        ));
        out.push_str(&format!("  corpus digest: {}", self.corpus_digest));
        if let Some(m) = self.manifest_digest {
            out.push_str(&format!("  (manifest {m})"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  cache: {} hits, {} misses, {} delta-seeded\n",
            self.cache.hits, self.cache.misses, self.cache.delta_seeded
        ));
        out.push_str(&format!("  wall: {} ms\n", self.wall.as_millis()));
        out.push_str("  shard  programs  poisoned  hits  misses  p50us  p99us  maxus  dead\n");
        for r in &self.shard_rows {
            out.push_str(&format!(
                "  {:>5}  {:>8}  {:>8}  {:>4}  {:>6}  {:>5}  {:>5}  {:>5}  {}\n",
                r.shard,
                r.processed,
                r.poisoned_programs,
                r.hits,
                r.misses,
                r.latency.p50 / 1_000,
                r.latency.p99 / 1_000,
                r.latency.max / 1_000,
                if r.dead { "yes" } else { "no" }
            ));
        }
        out
    }

    /// Renders the `canvas-bench-eval/2` JSON document.
    pub fn to_json(&self) -> Json {
        let manifest_digest = match self.manifest_digest {
            Some(m) => Json::Str(m.to_string()),
            None => Json::Null,
        };
        let shard_rows = self
            .shard_rows
            .iter()
            .map(|r| {
                obj(vec![
                    ("shard", Json::Int(r.shard as u64)),
                    ("processed", Json::Int(r.processed)),
                    ("poisoned_programs", Json::Int(r.poisoned_programs)),
                    ("dead", Json::Bool(r.dead)),
                    ("hits", Json::Int(r.hits)),
                    ("misses", Json::Int(r.misses)),
                    ("delta_seeded", Json::Int(r.delta_seeded)),
                    ("p50_us", Json::Int(r.latency.p50 / 1_000)),
                    ("p90_us", Json::Int(r.latency.p90 / 1_000)),
                    ("p99_us", Json::Int(r.latency.p99 / 1_000)),
                    ("max_us", Json::Int(r.latency.max / 1_000)),
                    ("mean_us", Json::Int(mean_us(&r.latency))),
                ])
            })
            .collect();
        bench_document(
            obj(vec![
                ("programs", Json::Int(self.programs as u64)),
                ("certified", Json::Int(self.certified as u64)),
                ("violating", Json::Int(self.violating as u64)),
                ("violation_sites", Json::Int(self.violation_sites as u64)),
                ("inconclusive", Json::Int(self.inconclusive as u64)),
                ("truth_checked", Json::Int(self.truth_checked as u64)),
                ("truth_mismatches", Json::Int(self.truth_mismatches as u64)),
                ("corpus_digest", Json::Str(self.corpus_digest.to_string())),
                ("manifest_digest", manifest_digest),
                ("engine", Json::Str(self.engine.clone())),
                ("spec", Json::Str(self.spec.clone())),
            ]),
            obj(vec![
                ("mode", Json::Str(self.mode.clone())),
                ("shards", Json::Int(self.shards_requested as u64)),
                ("wall_ms", Json::Int(self.wall.as_millis() as u64)),
                ("poisoned_programs", Json::Int(self.poisoned_programs as u64)),
                ("dead_shards", Json::Int(self.dead_shards as u64)),
                (
                    "cache",
                    obj(vec![
                        ("hits", Json::Int(self.cache.hits)),
                        ("misses", Json::Int(self.cache.misses)),
                        ("delta_seeded", Json::Int(self.cache.delta_seeded)),
                    ]),
                ),
                ("shard_rows", Json::Arr(shard_rows)),
            ]),
        )
    }
}

/// The mean of a nanosecond histogram, in microseconds.
fn mean_us(latency: &HistogramStat) -> u64 {
    latency.sum.checked_div(latency.count).unwrap_or(0) / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_telemetry::Histogram;

    #[test]
    fn shard_latency_quantiles_are_monotone() {
        let h = Histogram::new("fleet.shard_latency_ns");
        for ns in [100u64, 200, 400, 800, 1_600, 3_200, 640_000] {
            h.record_value(ns);
        }
        let latency = h.stat();
        assert_eq!(latency.count, 7);
        assert!(latency.p50 <= latency.p90 && latency.p90 <= latency.p99, "{latency:?}");
        assert!(latency.max >= 640_000);
        assert_eq!(mean_us(&latency), 92);
    }

    #[test]
    fn empty_shard_latency_is_all_zero() {
        let latency = Histogram::new("fleet.shard_latency_ns").stat();
        assert_eq!((latency.p50, latency.p99, latency.max, mean_us(&latency)), (0, 0, 0, 0));
    }
}
