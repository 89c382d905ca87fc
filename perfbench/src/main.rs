//! `perfbench`: the repository's benchmark of the certify pipeline.
//!
//! ```text
//! perfbench --workload corpus_cold|edit_replay|serve_tcp|engine_matrix
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload runs per process. The benchmark derives every input from
//! the seed, drives the public API from outside, checks every verdict and
//! certificate, and prints the run stamp, a metric table with sample
//! counts, the deterministic section and, as its last line, the result
//! object. With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run. A wrong
//! verdict or a rejected certificate ends the run with exit code 1 and no
//! result line. See `README.md` next to this crate.

mod cold;
mod edit;
mod host;
mod layers;
mod matrix;
mod pipeline;
mod serve;
mod stats;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use stats::Metric;
use util::{Args, Outcome};

/// The timed phases of one run: `(traced, seconds)`. A traced run spends
/// the first half untraced, as the reference its tracing overhead is
/// measured against.
pub fn phases(args: &Args) -> Vec<(bool, f64)> {
    if args.trace {
        vec![(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        vec![(false, args.seconds)]
    }
}

/// Runs the named workload at benchmark scale.
///
/// # Errors
///
/// A wrong verdict, a rejected certificate, a refused percentile, or an
/// I/O failure.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "corpus_cold" => cold::run(args, &cold::BENCH),
        "edit_replay" => edit::run(args, &edit::BENCH),
        "serve_tcp" => serve::run(args, &serve::BENCH),
        "engine_matrix" => matrix::run(args, &matrix::BENCH),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The reported metrics in `BENCHMARK.json` order: every end-to-end
/// metric (untraced) or every per-layer metric (traced, 0 for a layer the
/// workload does not cross).
///
/// # Errors
///
/// When the workload reported a metric that is not declared, or missed an
/// end-to-end one.
fn complete(args: &Args, metrics: &[Metric]) -> Result<Vec<Metric>, String> {
    let by_name: BTreeMap<&str, &Metric> = metrics.iter().map(|m| (m.name.as_str(), m)).collect();
    let declared: Vec<(String, &str)> = if args.trace {
        layers::per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        layers::END_TO_END.iter().map(|&(n, u, _)| (n.to_string(), u)).collect()
    };
    if let Some(extra) = metrics.iter().find(|m| !declared.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("metric {} is not declared", extra.name));
    }
    let mut out = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        match by_name.get(name.as_str()) {
            Some(m) if m.unit != unit => {
                return Err(format!("metric {name}: unit {} is not {unit}", m.unit))
            }
            Some(m) if !m.value.is_finite() => return Err(format!("metric {name} is not finite")),
            Some(m) => out.push((*m).clone()),
            None if args.trace => out.push(Metric::new(name, 0.0, unit, 0)),
            None => return Err(format!("end-to-end metric {name} is missing")),
        }
    }
    Ok(out)
}

fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                util::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("stamp {}", util::stamp(&args));
    let done = run_workload(&args).and_then(|outcome| {
        let metrics = complete(&args, &outcome.metrics)?;
        Ok((outcome, metrics))
    });
    let (outcome, metrics) = match done {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {}: FAILED: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for m in &metrics {
        println!("metric {:<34} {:>16.4} {:<6} samples={}", m.name, m.value, m.unit, m.samples);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let det: Vec<String> =
        outcome.deterministic.iter().map(|(k, v)| format!("\"{k}\":\"{v}\"")).collect();
    println!("deterministic {{\"workload\":\"{}\",{}}}", args.workload, det.join(","));
    if let Some(spans) = &outcome.spans {
        for (name, layer) in spans.layers() {
            let per_call = |ns: u64| ns as f64 / 1e3 / layer.count.max(1) as f64;
            println!(
                "span {name:<24} calls={:<8} total_us={:<10.3} self_us={:.3}",
                layer.count,
                per_call(layer.total_ns),
                per_call(layer.self_ns)
            );
        }
        let path = format!(".perfbench-spans/{}-seed{}.tsv", args.workload, args.seed);
        let written = std::fs::create_dir_all(".perfbench-spans")
            .and_then(|()| std::fs::write(&path, spans.render_tsv()));
        match written {
            Ok(()) => println!("spans {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traced runs: they report medians only, so a short debug-build run
    /// has enough samples, and they compute the same deterministic section.
    fn traced(workload: &str, seed: u64) -> Args {
        Args { workload: workload.to_string(), seed, seconds: 1.0, trace: true }
    }

    fn corpus_digest(o: &Outcome) -> &str {
        &o.deterministic.iter().find(|(k, _)| *k == "corpus_digest").expect("corpus digest").1
    }

    #[test]
    fn corpus_cold_deterministic_section_repeats_and_follows_the_seed() {
        let cfg = cold::Config { programs: 24, setups: 1 };
        let a = cold::run(&traced("corpus_cold", 7), &cfg).expect("run");
        let b = cold::run(&traced("corpus_cold", 7), &cfg).expect("run");
        assert_eq!(a.deterministic, b.deterministic);
        let c = cold::run(&traced("corpus_cold", 8), &cfg).expect("run");
        assert_ne!(corpus_digest(&a), corpus_digest(&c));
        let check = a.metrics.iter().find(|m| m.name == "check.share_of_certify").expect("check");
        assert!(check.value > 0.0);
    }

    #[test]
    fn edit_replay_cache_traffic_repeats_and_follows_the_seed() {
        let cfg = edit::Config {
            programs: 20,
            setups: 1,
            edit_per_mille: 200,
            persist_every: 25,
            prefix_ops: 60,
        };
        let a = edit::run(&traced("edit_replay", 7), &cfg).expect("run");
        let b = edit::run(&traced("edit_replay", 7), &cfg).expect("run");
        assert_eq!(a.deterministic, b.deterministic);
        let misses = &a.deterministic.iter().find(|(k, _)| *k == "misses").expect("misses").1;
        assert_ne!(misses, "0", "edits must miss the store");
        let c = edit::run(&traced("edit_replay", 8), &cfg).expect("run");
        assert_ne!(corpus_digest(&a), corpus_digest(&c));
    }

    #[test]
    fn untraced_runs_must_report_every_end_to_end_metric() {
        let args = Args { trace: false, ..traced("corpus_cold", 1) };
        let err = complete(&args, &[Metric::new("setup_s", 1.0, "s", 1)]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let bogus = [Metric::new("bogus", 1.0, "s", 1)];
        assert!(complete(&args, &bogus).unwrap_err().contains("not declared"));
        let filled = complete(&traced("corpus_cold", 1), &[]).expect("zeros");
        assert_eq!(filled.len(), layers::per_layer().len());
    }

    /// `BENCHMARK.json` declares exactly the metrics the code reports.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let mut declared = 0;
        for (name, unit, better) in layers::END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .chain(layers::per_layer())
        {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            declared += 1;
        }
        for w in util::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\", \"why\":")), "workload {w}");
            declared += 1;
        }
        assert_eq!(json.matches("\"name\":").count(), declared, "undeclared entries");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload serve_tcp --seed 9 --seconds 20 --trace 1").expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 20.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_tcp --trace 2").is_err());
        assert!(parse("--workload serve_tcp --seconds 0").is_err());
        assert!(parse("--workload serve_tcp --seed").is_err());
    }
}
