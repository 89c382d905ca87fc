//! The committed `bench/baseline.json` gates under the root test suite, not
//! only in CI: the table run's and the E15 fleet benchmark's deterministic
//! sections, and the E12 delta re-solve rows, must equal their baseline
//! entries, through the same diff `eval --check-baseline` uses. The rest
//! of the E12 `fixpoint` key is left to CI's perf-trend job: its timed
//! median-of-5 kernel sweep is slow in debug builds.
//!
//! One test, because both collectors reset the global telemetry registry.

use canvas_bench::fixpoint::{delta_table, delta_to_json};
use canvas_bench::fleet::{collect_fleet_metrics, fleet_to_json};
use canvas_bench::json::{diff, Json};
use canvas_bench::{collect_eval_metrics, metrics_to_json};

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
    let delta = delta_to_json(&delta_table());
    let det = |doc: &Json| doc.get("deterministic").cloned().expect("deterministic section");
    let fixpoint = baseline.get("fixpoint").expect("fixpoint key");
    for (current, key, section) in [
        (det(&eval), "deterministic", baseline.get("deterministic")),
        (det(&fleet), "fleet", baseline.get("fleet")),
        (delta, "fixpoint.delta", fixpoint.get("delta")),
    ] {
        let section = section.unwrap_or_else(|| panic!("baseline has {key}"));
        let drift = diff(&current, section);
        assert!(drift.is_empty(), "{key} drifted from bench/baseline.json:\n{drift:#?}");

        // the gate is live: one perturbed integer under the key is caught
        let mut perturbed = section.clone();
        assert!(perturb_first_int(&mut perturbed), "{key} holds an integer");
        assert_eq!(diff(&current, &perturbed).len(), 1, "{key}: one difference");
    }
}
