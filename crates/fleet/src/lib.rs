//! Fleet-scale corpus certification.
//!
//! The paper certifies one client at a time; certifying a *component
//! release* means certifying every client in a corpus — thousands of
//! programs, repeatedly, as the component's spec and the clients evolve.
//! This crate provides the three pieces that turn the single-program
//! certifier into a corpus-scale tool:
//!
//! * [`gen`] — a deterministic, seed-parameterized synthetic corpus
//!   generator (families of mini-Java CMP clients with known ground
//!   truth, byte-identical across runs and thread counts);
//! * [`driver`] — a sharded, work-stealing certification driver with
//!   per-shard failure isolation (a dead worker loses only its in-flight
//!   program) and per-shard certificate caches merged losslessly at the
//!   end, optionally fanning out to `canvas serve --listen` backends;
//! * [`report`] — the aggregated fleet report: verdicts, ground-truth
//!   mismatches, cache/merge traffic, per-shard latency histograms, as a
//!   table and as the stable `canvas-bench-eval/2` JSON document.
//!
//! # Example
//!
//! ```
//! use canvas_fleet::gen::{generate_with_threads, GenParams};
//! use canvas_fleet::driver::{run_fleet, FleetConfig};
//! use canvas_fleet::manifest::FleetItem;
//!
//! let params = GenParams { programs: 8, seed: 42, ..GenParams::default() };
//! let corpus = generate_with_threads(&params, 1)?;
//! let items: Vec<FleetItem> = corpus
//!     .iter()
//!     .map(|p| FleetItem {
//!         name: p.name.clone(),
//!         source: p.source.clone(),
//!         expected: Some(p.expected.clone()),
//!     })
//!     .collect();
//! let cfg = FleetConfig::local(
//!     canvas_easl::builtin::cmp(),
//!     "cmp",
//!     canvas_core::Engine::ScmpFds,
//!     2,
//! );
//! let report = run_fleet(&items, &cfg)?;
//! assert_eq!(report.programs, 8);
//! assert_eq!(report.truth_mismatches, 0);
//! # Ok::<(), canvas_core::CanvasError>(())
//! ```

// the panic-free frontier: code reachable from external input must
// return typed errors, never panic (test code is exempt)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod driver;
pub mod gen;
pub mod manifest;
pub mod report;

pub use driver::{exit_code, run_fleet, FleetConfig};
pub use gen::{generate, generate_with_threads, GenParams, GeneratedProgram};
pub use manifest::{load_corpus, write_corpus, FleetItem, Manifest};
pub use report::{FleetCacheTraffic, FleetReport, ShardRow};

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_core::Engine;
    use canvas_incr::fingerprint::fingerprint_source;
    use canvas_incr::json::{Json, BENCH_SCHEMA};

    fn items_of(corpus: &[GeneratedProgram]) -> Vec<FleetItem> {
        corpus
            .iter()
            .map(|p| FleetItem {
                name: p.name.clone(),
                source: p.source.clone(),
                expected: Some(p.expected.clone()),
            })
            .collect()
    }

    fn cmp_config(shards: usize) -> FleetConfig {
        FleetConfig::local(canvas_easl::builtin::cmp(), "cmp", Engine::ScmpFds, shards)
    }

    /// Held by every test that runs a fleet: a forced fault is process
    /// global, so the shard-death test must not kill another test's worker.
    fn fleet_runs() -> std::sync::MutexGuard<'static, ()> {
        static FLEET_RUNS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        FLEET_RUNS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Satellite: same seed + params ⇒ byte-identical program set and the
    /// same manifest digest, regardless of run or generator thread count.
    #[test]
    fn generator_is_deterministic_across_runs_and_thread_counts() {
        let params = GenParams { programs: 40, seed: 99, ..GenParams::default() };
        let base = generate_with_threads(&params, 1).expect("generation succeeds");
        let base_manifest = Manifest::from_programs(&params, &base);
        for threads in [1usize, 2, 4, 7] {
            let again = generate_with_threads(&params, threads).expect("generation succeeds");
            assert_eq!(again.len(), base.len());
            for (a, b) in base.iter().zip(&again) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.source, b.source, "{} differs at {threads} threads", a.name);
                assert_eq!(fingerprint_source(&a.source), fingerprint_source(&b.source));
                assert_eq!(a.expected, b.expected);
            }
            let manifest = Manifest::from_programs(&params, &again);
            assert_eq!(manifest.digest, base_manifest.digest, "digest at {threads} threads");
        }
    }

    /// The driver's deterministic section is schedule-independent: every
    /// shard count yields the same verdict counts and corpus digest, and
    /// ground truth holds corpus-wide.
    #[test]
    fn fleet_run_is_deterministic_across_shard_counts() {
        let _serial = fleet_runs();
        let params = GenParams { programs: 24, seed: 5, ..GenParams::default() };
        let corpus = generate_with_threads(&params, 2).expect("generation succeeds");
        let items = items_of(&corpus);
        let baseline = run_fleet(&items, &cmp_config(1)).expect("fleet runs");
        assert_eq!(baseline.programs, 24);
        assert_eq!(baseline.poisoned_programs, 0);
        assert_eq!(baseline.truth_checked, 24);
        assert_eq!(baseline.truth_mismatches, 0);
        assert!(baseline.violating > 0, "default rate produces some violations");
        assert!(baseline.certified > 0, "and some certified programs");
        // the report is a benchmark document whose deterministic section
        // is the same at every shard count
        let doc = baseline.to_json();
        let keys: Vec<&str> = match &doc {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys, ["schema", "deterministic", "measured"]);
        assert_eq!(doc.get("schema"), Some(&Json::Str(BENCH_SCHEMA.to_string())));
        for shards in [2usize, 3, 8] {
            let report = run_fleet(&items, &cmp_config(shards)).expect("fleet runs");
            assert_eq!(
                report.to_json().get("deterministic"),
                doc.get("deterministic"),
                "{shards} shards"
            );
            assert_eq!(report.certified, baseline.certified, "{shards} shards");
            assert_eq!(report.violating, baseline.violating, "{shards} shards");
            assert_eq!(report.violation_sites, baseline.violation_sites, "{shards} shards");
            assert_eq!(report.corpus_digest, baseline.corpus_digest, "{shards} shards");
            assert_eq!(report.truth_mismatches, 0, "{shards} shards");
            let processed: u64 = report.shard_rows.iter().map(|r| r.processed).sum();
            assert_eq!(processed, 24, "every program processed exactly once");
        }
    }

    /// Tentpole acceptance: a warm store answers a re-run with zero
    /// recomputed cells, and the corpus digest matches the cold run
    /// exactly.
    #[test]
    fn warm_rerun_recomputes_nothing_and_reproduces_the_digest() {
        let _serial = fleet_runs();
        let params = GenParams { programs: 12, seed: 21, ..GenParams::default() };
        let corpus = generate_with_threads(&params, 1).expect("generation succeeds");
        let items = items_of(&corpus);
        let dir = std::env::temp_dir().join(format!(
            "canvas-fleet-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = cmp_config(3);
        cfg.cache_dir = Some(dir.clone());
        let cold = run_fleet(&items, &cfg).expect("cold run");
        assert!(cold.cache.misses > 0, "cold run solves cells");
        assert!(cold.cache.merged > 0, "cold run populates the store");
        let warm = run_fleet(&items, &cfg).expect("warm run");
        assert_eq!(warm.cache.misses, 0, "warm run recomputes nothing: {:?}", warm.cache);
        assert!(warm.cache.seeded > 0, "shard caches seeded from the store");
        assert_eq!(warm.cache.merged, 0, "nothing new to merge");
        assert_eq!(warm.corpus_digest, cold.corpus_digest, "same answers, warm or cold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: an injected worker death poisons only its shard — its
    /// in-flight program is lost, the rest of its partition is stolen and
    /// completed by the surviving shards. Exactly one worker dies, whichever
    /// claims a second program first.
    #[test]
    fn shard_death_poisons_only_the_dead_shard() {
        let _serial = fleet_runs();
        let params = GenParams { programs: 16, seed: 8, ..GenParams::default() };
        let corpus = generate_with_threads(&params, 1).expect("generation succeeds");
        let items = items_of(&corpus);
        // quiet the injected panic's backtrace noise
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        canvas_faults::force(Some(canvas_faults::Fault::ShardDeath));
        let report = run_fleet(&items, &cmp_config(4));
        canvas_faults::unforce();
        std::panic::set_hook(prev);
        let report = report.expect("fleet survives a worker death");
        assert_eq!(report.dead_shards, 1, "exactly one worker dies");
        assert_eq!(report.poisoned_programs, 1, "only its in-flight program is lost");
        assert_eq!(
            report.programs - report.poisoned_programs,
            report.certified + report.violating + report.inconclusive,
            "every other program was completed by the survivors"
        );
        assert_eq!(exit_code(&report), 3, "a poisoned fleet is inconclusive");
    }
}
