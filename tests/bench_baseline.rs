//! The committed `bench/baseline.json` gates under the root test suite, not
//! only in CI: the table run's and the E15 fleet benchmark's deterministic
//! sections must equal their baseline keys, through the same drift
//! function `eval --check-baseline` uses. The E12 `fixpoint` key is left to
//! CI's perf-trend job: its timed median-of-5 kernels are slow in debug
//! builds.
//!
//! One test, because both collectors reset the global telemetry registry.

use canvas_bench::fleet::{collect_fleet_metrics, fleet_to_json};
use canvas_bench::json::Json;
use canvas_bench::{baseline_drift, collect_eval_metrics, metrics_to_json};

/// Adds one to the first integer in `doc`, depth first; false if none.
fn perturb_first_int(doc: &mut Json) -> bool {
    match doc {
        Json::Int(n) => {
            *n += 1;
            true
        }
        Json::Arr(items) => items.iter_mut().any(perturb_first_int),
        Json::Obj(pairs) => pairs.iter_mut().any(|(_, v)| perturb_first_int(v)),
        _ => false,
    }
}

#[test]
fn eval_and_fleet_match_the_committed_baseline() {
    let baseline = Json::parse(include_str!("../bench/baseline.json")).expect("baseline parses");
    let eval = metrics_to_json(&collect_eval_metrics());
    let fleet = fleet_to_json(&collect_fleet_metrics());
    for (doc, key) in [(&eval, "deterministic"), (&fleet, "fleet")] {
        let drift = baseline_drift(doc, &baseline, key);
        assert!(drift.is_empty(), "{key} drifted from bench/baseline.json:\n{drift:#?}");

        // the gate is live: one perturbed integer under the key is caught
        let mut perturbed = baseline.clone();
        let Json::Obj(sections) = &mut perturbed else { panic!("baseline is an object") };
        let (_, section) = sections.iter_mut().find(|(k, _)| k == key).expect("key present");
        assert!(perturb_first_int(section), "{key} holds an integer");
        assert_eq!(baseline_drift(doc, &perturbed, key).len(), 1, "{key}: one difference");
    }
}
