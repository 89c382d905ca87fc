//! Regenerates the paper's evaluation tables and figures (DESIGN.md E1–E15).
//!
//! ```text
//! eval [TABLE] [--json PATH] [--check-baseline PATH] [--explain] [--metrics]
//!      [--trace-out PATH] [--log-json PATH] [--max-steps N] [--deadline-ms N]
//! eval fixpoint [--json PATH] [--check-baseline PATH]
//! eval fleet [--json PATH] [--check-baseline PATH]
//! eval obs [--json PATH] [--gate]
//! eval overload [--json PATH] [--gate]
//! eval compare A.json B.json
//! eval trace-check PATH
//! eval log-check FILE
//! eval oracle
//! ```
//!
//! `TABLE` is one of `derive|fig3|fig3-metrics|fig6|fig7|fig8|
//! generic-vs-specialized|precision|timing|modes|scaling|specs|interproc|
//! incr|certs|all` (default `all`). `incr` is the warm-vs-cold benchmark:
//! each engine certifies the E10 workload cold, warm (identical rerun), and
//! after a one-line single-method edit, through the content-addressed
//! certificate cache, reporting hit/miss counts and the wall-clock speedup.
//! `certs` is E11: every corpus benchmark's proof-carrying certificate is
//! emitted (full fixpoint) and re-checked (one `canvas-check` replay pass),
//! reporting both times and the certificate size.
//!
//! Every experiment — the table run and the `fixpoint` (E12), `fleet`
//! (E15), `obs` (E13) and `overload` (E14) verbs — is one [`Experiment`]
//! value, parsed by one option parser and finished by one tail, so each
//! spells its options the same way. `--json PATH` writes the experiment's
//! `canvas-bench-eval/2` document: its `deterministic` section must be
//! byte-identical run to run, its `measured` section is recorded but never
//! gated. `--check-baseline PATH` compares the deterministic section against
//! the experiment's key of a committed baseline (`deterministic` for the
//! table run, `fixpoint`, `fleet`) and exits 1 on drift; `--gate` exits 1
//! on the experiment's gate failures. An option an experiment has no use
//! for is a usage error (exit 2), like an unknown one. `compare` diffs the
//! deterministic sections of two documents of one experiment (the CI
//! determinism check runs the evaluation twice and compares).
//!
//! With `--json` or `--check-baseline` the table run collects the full
//! evaluation with telemetry on, and prints `TABLE` only when one is named.
//! `--metrics` prints a telemetry summary after the run. `--explain`
//! switches the `fig3` table to the witness-trace rendering (rustc-style
//! labeled diagnostics). `--trace-out` collects structured trace events
//! while the tables print and writes them as Chrome Trace Format JSON;
//! `trace-check` validates such a file (valid JSON, >0 events) — CI runs it
//! against the bench-smoke artifact. `--log-json` streams the structured
//! `canvas-log/1` event log to a file at `info` level; `log-check`
//! validates such a file (schema fields, `(ts_ns, seq)` emit order).
//!
//! `--max-steps` / `--deadline-ms` install a process-wide resource budget:
//! every certifier the evaluation constructs inherits it, and engines whose
//! fixpoints exhaust it degrade to inconclusive verdicts instead of running
//! away. `oracle` runs the concrete-execution oracle on the Fig. 3 client
//! (exit 1 on an oracle error, e.g. a contained interpreter panic — the CI
//! fault-injection matrix drives this with `CANVAS_FAULT=oracle-death`).

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use canvas_bench::{
    baseline_drift, collect_eval_metrics, derivation_table, fmt_duration, json::Json,
    metrics_to_json, precision_table, render_derive, render_fig3, render_header, scaling_blocks,
    scaling_vars, PrecisionCell, FIG3,
};
use canvas_core::{Certifier, Engine};

const TABLES: &[&str] = &[
    "derive",
    "fig3",
    "fig3-metrics",
    "fig6",
    "fig7",
    "fig8",
    "generic-vs-specialized",
    "precision",
    "timing",
    "modes",
    "scaling",
    "specs",
    "interproc",
    "incr",
    "certs",
    "all",
];

/// Everything an experiment's command line can say.
#[derive(Debug, Default, PartialEq)]
struct Opts {
    json: Option<String>,
    baseline: Option<String>,
    gate: bool,
    // the table run's own options
    table: Option<String>,
    metrics: bool,
    explain: bool,
    trace_out: Option<String>,
    log_json: Option<String>,
    max_steps: Option<u64>,
    deadline_ms: Option<u64>,
}

/// What an experiment's run hands the shared tail.
struct Run {
    /// Its text rendering.
    text: String,
    /// Its `canvas-bench-eval/2` document.
    doc: Json,
    /// Its gate failures (read only under `--gate`).
    fails: Vec<String>,
}

/// One `eval` experiment.
struct Experiment {
    /// The verb selecting it; empty for the table run.
    verb: &'static str,
    /// The baseline key its deterministic section is gated under.
    baseline_key: Option<&'static str>,
    /// What its `--gate` holds, printed when the gate passes; `None` when
    /// it has no gate.
    gate: Option<&'static str>,
    run: fn(&Opts) -> Result<Run, String>,
}

/// The table run first, then the verbs.
const EXPERIMENTS: [Experiment; 5] = [
    Experiment { verb: "", baseline_key: Some("deterministic"), gate: None, run: tables },
    Experiment { verb: "fixpoint", baseline_key: Some("fixpoint"), gate: None, run: fixpoint },
    Experiment { verb: "fleet", baseline_key: Some("fleet"), gate: None, run: fleet },
    Experiment {
        verb: "obs",
        baseline_key: None,
        gate: Some("overheads within ceilings, quantiles within factor 2"),
        run: obs,
    },
    Experiment {
        verb: "overload",
        baseline_key: None,
        gate: Some(
            "nominal load serves clean, 16x sheds in-band with bounded p99, cache within budget",
        ),
        run: overload,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    cli(&args)
}

fn cli(args: &[String]) -> ExitCode {
    let verb = args.first().map(String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    match verb {
        Some("compare") => return compare(rest),
        Some("trace-check") => return trace_check(rest),
        Some("log-check") => return log_check(rest),
        Some("oracle") => return oracle_check(),
        _ => {}
    }
    let (exp, rest) = match EXPERIMENTS[1..].iter().find(|e| verb == Some(e.verb)) {
        Some(exp) => (exp, rest),
        None => (&EXPERIMENTS[0], args),
    };
    match parse(exp, rest) {
        Ok(opts) => drive(exp, &opts),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// The one option parser. An option the experiment has no use for is an
/// error, like an unknown one.
fn parse(exp: &Experiment, args: &[String]) -> Result<Opts, String> {
    let tables = exp.verb.is_empty();
    let name = if tables { "eval".to_string() } else { format!("eval {}", exp.verb) };
    let mut o = Opts::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut operand =
            |what: &str| args.next().cloned().ok_or_else(|| format!("{flag} needs a {what}"));
        match flag {
            "--json" => o.json = Some(operand("path")?),
            "--check-baseline" if exp.baseline_key.is_some() => o.baseline = Some(operand("path")?),
            "--gate" if exp.gate.is_some() => o.gate = true,
            "--metrics" if tables => o.metrics = true,
            "--explain" if tables => o.explain = true,
            "--trace-out" if tables => o.trace_out = Some(operand("path")?),
            "--log-json" if tables => o.log_json = Some(operand("path")?),
            "--max-steps" | "--deadline-ms" if tables => {
                let n = operand("number")?.parse().map_err(|_| format!("{flag} needs a number"))?;
                if flag == "--max-steps" {
                    o.max_steps = Some(n);
                } else {
                    o.deadline_ms = Some(n);
                }
            }
            _ if tables && TABLES.contains(&flag) => o.table = Some(flag.to_string()),
            _ if tables && !flag.starts_with("--") => {
                return Err(format!("unknown table {flag:?}"))
            }
            _ => return Err(format!("{name} does not take {flag:?}")),
        }
    }
    Ok(o)
}

/// The one tail: print the rendering, write the document, check the
/// baseline, apply the gate.
fn drive(exp: &Experiment, opts: &Opts) -> ExitCode {
    let run = match (exp.run)(opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", run.text);
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, run.doc.render()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    if let (Some(path), Some(key)) = (&opts.baseline, exp.baseline_key) {
        let base = match read_json(path) {
            Ok(base) => base,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let drift = baseline_drift(&run.doc, &base, key);
        if !drift.is_empty() {
            eprintln!("{key} baseline drift against {path}:");
            for d in &drift {
                eprintln!("  {d}");
            }
            eprintln!("({} difference(s); timings are never gated)", drift.len());
            return ExitCode::FAILURE;
        }
        println!("baseline check: {key} counters match {path}");
    }
    if let (true, Some(holds)) = (opts.gate, exp.gate) {
        if !run.fails.is_empty() {
            eprintln!("{} gate failed:", exp.verb);
            for f in &run.fails {
                eprintln!("  {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("{} gate: {holds}", exp.verb);
    }
    ExitCode::SUCCESS
}

/// Reads and parses a JSON file.
fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text).map_err(|e| format!("not a JSON document: {e}"))
}

/// The table run: `TABLE` (default `all`) printed as it runs. Under
/// `--json`/`--check-baseline` the full evaluation is collected first with
/// telemetry on, and `TABLE` prints only when named.
fn tables(o: &Opts) -> Result<Run, String> {
    if let Some(path) = &o.log_json {
        canvas_telemetry::events::log_to_file(std::path::Path::new(path))
            .map_err(|e| format!("cannot open log {path}: {e}"))?;
        canvas_telemetry::events::set_min_level(canvas_telemetry::events::Level::Info);
    }
    let mut budget = canvas_faults::Budget::unlimited();
    if let Some(n) = o.max_steps {
        budget = budget.with_max_steps(n);
    }
    if let Some(n) = o.deadline_ms {
        budget = budget.with_deadline_ms(n);
    }
    if !budget.is_unlimited() {
        canvas_faults::set_process_budget(budget);
    }
    let collect = o.json.is_some() || o.baseline.is_some();
    // without collection there is no document, and the tail never reads one
    let (doc, snapshot) = if collect {
        let m = collect_eval_metrics();
        (metrics_to_json(&m), Some(m.snapshot))
    } else {
        if o.metrics {
            canvas_telemetry::set_enabled(true);
        }
        (Json::Null, None)
    };
    canvas_telemetry::trace::set_tracing(o.trace_out.is_some());
    match (&o.table, collect) {
        (Some(table), _) => run_table(table, o.explain),
        (None, false) => run_table("all", o.explain),
        (None, true) => {}
    }
    let mut text = String::new();
    if o.metrics {
        text = snapshot.unwrap_or_else(canvas_telemetry::snapshot).to_string();
    }
    if let Some(path) = &o.trace_out {
        std::fs::write(path, canvas_telemetry::trace::export_chrome_json())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        text.push_str(&format!("wrote trace to {path}\n"));
    }
    Ok(Run { text, doc, fails: Vec::new() })
}

/// E12: the bit-parallel FDS kernel vs the per-bit reference on a scaling
/// sweep, plus the within-method delta re-solve on the E10 edit workload.
/// Wall times are measured, never gated.
fn fixpoint(_: &Opts) -> Result<Run, String> {
    use canvas_bench::fixpoint::{collect_fixpoint_metrics, fixpoint_to_json, render_fixpoint};
    let m = collect_fixpoint_metrics();
    Ok(Run { text: render_fixpoint(&m), doc: fixpoint_to_json(&m), fails: Vec::new() })
}

/// E15: the shard sweep (1/2/4/8) over a fixed synthetic corpus plus a
/// cold->warm certificate-store pair. The deterministic section holds the
/// verdicts, digests and warm-run misses.
fn fleet(_: &Opts) -> Result<Run, String> {
    use canvas_bench::fleet::{collect_fleet_metrics, fleet_to_json, render_fleet};
    let m = collect_fleet_metrics();
    Ok(Run { text: render_fleet(&m), doc: fleet_to_json(&m), fails: Vec::new() })
}

/// E13: telemetry overhead under disabled/enabled/scoped modes and
/// log₂-histogram quantile fidelity. The gate fails when an overhead
/// ceiling or the factor-2 quantile bound is broken (the CI obs-smoke gate).
fn obs(o: &Opts) -> Result<Run, String> {
    use canvas_bench::obs::{collect_obs, collect_obs_gated, obs_to_json, render_obs};
    // gating re-measures a noise-spiked overhead table up to twice before
    // believing a ceiling violation; the plain run measures once
    let (report, fails) = if o.gate { collect_obs_gated(2) } else { (collect_obs(), Vec::new()) };
    Ok(Run { text: render_obs(&report), doc: obs_to_json(&report), fails })
}

/// E14: the open-loop overload sweep against an in-process `canvas serve`
/// TCP daemon at 1x/4x/16x the calibrated capacity. The gate fails when
/// the robustness shape breaks: sheds at nominal load, nothing shed at
/// 16x, an unbounded admitted-p99, a lost response, or hot-cache occupancy
/// above its byte budget.
fn overload(_: &Opts) -> Result<Run, String> {
    use canvas_bench::overload::{
        collect_overload, gate_overload, overload_to_json, render_overload,
    };
    let report = collect_overload().map_err(|e| format!("overload harness failed: {e}"))?;
    Ok(Run {
        text: render_overload(&report),
        doc: overload_to_json(&report),
        fails: gate_overload(&report),
    })
}

/// `eval log-check FILE`: exit 1 unless `FILE` is a valid `canvas-log/1`
/// NDJSON stream in emit order (the CI obs-smoke gate for `--log-json`).
fn log_check(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: eval log-check FILE");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match canvas_bench::obs::check_log_text(&text) {
        Ok(n) => {
            println!("log check: {n} canvas-log/1 record(s), (ts_ns, seq)-ordered");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("log check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `eval oracle`: run the concrete-execution oracle on the Fig. 3 client.
/// Exit 1 on an oracle error (no main, spawn failure, or a contained
/// interpreter panic — the injected `oracle-death` fault lands here).
fn oracle_check() -> ExitCode {
    use canvas_suite::oracle::{explore, OracleConfig};
    let spec = canvas_easl::builtin::cmp();
    let program = match canvas_minijava::Program::parse(FIG3, &spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("eval oracle: fig3 does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    match explore(&program, &spec, OracleConfig::default()) {
        Ok(r) => {
            println!(
                "oracle: {} violation line(s) {:?}, {} path(s), truncated: {}",
                r.violation_lines.len(),
                r.violation_lines,
                r.paths,
                r.truncated
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eval oracle: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `eval trace-check PATH`: exit 1 unless `PATH` is a valid Chrome Trace
/// Format document with at least one event (the CI bench-smoke gate).
fn trace_check(paths: &[String]) -> ExitCode {
    let [path] = paths else {
        eprintln!("usage: eval trace-check PATH");
        return ExitCode::from(2);
    };
    let doc = match read_json(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match doc.get("traceEvents") {
        Some(Json::Arr(events)) if !events.is_empty() => {
            println!("{path}: valid Chrome Trace JSON with {} event(s)", events.len());
            ExitCode::SUCCESS
        }
        Some(Json::Arr(_)) => {
            eprintln!("{path}: traceEvents is empty");
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("{path}: missing traceEvents array");
            ExitCode::FAILURE
        }
    }
}

/// `eval compare A.json B.json`: exit 1 when the deterministic sections of
/// two documents differ.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: eval compare A.json B.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| read_json(path).map_err(|e| format!("cannot read {path}: {e}"));
    let (doc_a, doc_b) = match read(a).and_then(|x| read(b).map(|y| (x, y))) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let drift = baseline_drift(&doc_a, &doc_b, "deterministic");
    if drift.is_empty() {
        println!("deterministic metrics identical: {a} == {b}");
        ExitCode::SUCCESS
    } else {
        eprintln!("deterministic metrics differ between {a} and {b}:");
        for d in &drift {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn run_table(what: &str, explain: bool) {
    match what {
        "derive" => table_derive(),
        "fig3" if explain => print!("{}", canvas_bench::render_fig3_explained()),
        "fig3" => table_fig3(),
        "fig3-metrics" => table_fig3_metrics(),
        "fig6" => figure_fig6(),
        "fig7" => figure_fig7(),
        "fig8" => figure_fig8(),
        "generic-vs-specialized" => table_generic_vs_specialized(),
        "precision" => table_precision(),
        "timing" => table_timing(),
        "modes" => table_modes(),
        "scaling" => figure_scaling(),
        "specs" => table_specs(),
        "interproc" => table_interproc(),
        "incr" => table_incr(),
        "certs" => table_certs(),
        "all" => {
            table_derive();
            table_fig3();
            table_fig3_metrics();
            figure_fig6();
            figure_fig7();
            figure_fig8();
            table_generic_vs_specialized();
            table_precision();
            table_timing();
            table_modes();
            figure_scaling();
            table_specs();
            table_interproc();
            table_incr();
            table_certs();
        }
        other => unreachable!("table {other:?} was validated during parsing"),
    }
}

/// E1: the derived abstraction for CMP (paper Figs. 4–5).
fn table_derive() {
    print!("{}", render_derive());
}

/// E2: the Fig. 3 walkthrough.
fn table_fig3() {
    print!("{}", render_fig3());
}

/// E2 counters: deterministic work per engine on Fig. 3 (golden-tested).
fn table_fig3_metrics() {
    print!("{}", canvas_bench::render_fig3_metrics());
}

/// Fig. 3 with its `main` lowered to a boolean program under the derived
/// CMP abstraction, where Figs. 6 and 8 start.
fn fig3_boolean_program(
) -> (canvas_minijava::Program, canvas_wp::Derived, canvas_abstraction::BoolProgram) {
    let spec = canvas_easl::builtin::cmp();
    let derived = canvas_wp::derive_abstraction(&spec).expect("cmp derives");
    let program = canvas_minijava::Program::parse(FIG3, &spec).expect("fig3 parses");
    let main = program.main_method().expect("main");
    let bp = canvas_abstraction::transform_method(
        &program,
        main,
        &spec,
        &derived,
        canvas_abstraction::EntryAssumption::Clean,
    );
    (program, derived, bp)
}

/// The paper's Fig. 6: the transformed boolean client program for Fig. 3.
fn figure_fig6() {
    print!("{}", render_header("Fig. 6: the transformed (boolean) client program for Fig. 3"));
    let (program, derived, bp) = fig3_boolean_program();
    print!("{}", bp.dump(&program, &derived));
}

/// The paper's Fig. 7: storage shape graphs before/after `i1.remove()`
/// under the *generic* translation — the two version objects merge.
fn figure_fig7() {
    print!(
        "{}",
        render_header("Fig. 7: generic shape graphs around i1.remove() (version objects merge)")
    );
    let spec = canvas_easl::builtin::cmp();
    let program = canvas_minijava::Program::parse(FIG3, &spec).expect("fig3 parses");
    let main = program.main_method().expect("main");
    let tvp = canvas_tvla::translate_generic(&program, main, &spec);
    let (_, states) = canvas_tvla::run_collect(&tvp, canvas_tvla::EngineMode::Relational, 50_000);
    // locate the remove edge in the IR (same node ids as the TVP prefix)
    let (before, after) = remove_nodes(&program);
    println!("before i1.remove() ({} structure(s)):", states[before].len());
    for s in &states[before] {
        print!("{}", canvas_tvla::render_structure(s, &tvp.preds));
        println!("  --");
    }
    println!("after i1.remove() ({} structure(s)):", states[after].len());
    for s in &states[after] {
        print!("{}", canvas_tvla::render_structure(s, &tvp.preds));
        println!("  --");
    }
}

/// The paper's Fig. 8: the nullary abstract state before/after
/// `i1.remove()` under the *specialized* certifier.
fn figure_fig8() {
    print!("{}", render_header("Fig. 8: specialized abstract state around i1.remove()"));
    let (program, derived, bp) = fig3_boolean_program();
    let rel = canvas_dataflow::relational::analyze(&bp, 1 << 14).expect("fig3 is tiny");
    let (before, after) = remove_nodes(&program);
    for (label, node) in [("before", before), ("after", after)] {
        println!("{label} i1.remove():");
        for val in &rel.states[node] {
            let mut parts = Vec::new();
            for k in 0..bp.preds.len() {
                parts.push(format!(
                    "{}={}",
                    bp.pred_name(k, &program, &derived),
                    u8::from(val.get(k))
                ));
            }
            println!("  {}", parts.join("  "));
        }
    }
}

/// The CFG nodes immediately before and after the `i1.remove()` call.
fn remove_nodes(program: &canvas_minijava::Program) -> (usize, usize) {
    let main = program.main_method().expect("main");
    for e in main.cfg.edges() {
        if let canvas_minijava::Instr::CallComponent { method, at, .. } = &e.instr {
            if method == "remove" && at.what.starts_with("i1") {
                return (e.from.0, e.to.0);
            }
        }
    }
    unreachable!("fig3 contains i1.remove()")
}

/// E3: generic vs specialized on the two killer examples.
fn table_generic_vs_specialized() {
    print!("{}", render_header("E3: generic baselines vs the specialized certifier (§3, §4.4)"));
    let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    let loop_src = r#"
class Main {
    static void main() {
        Set s = new Set();
        while (true) {
            s.add("x");
            for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); }
        }
    }
}
"#;
    println!("version-loop (safe):");
    for engine in [Engine::ScmpFds, Engine::GenericAllocSite, Engine::GenericSsgRelational] {
        let r = c.certify_source(loop_src, engine).expect("runs");
        println!("  {:<26} -> {} false alarm(s)", engine.to_string(), r.violations.len());
    }
    println!("fig3 line 11 (safe use of i3):");
    for engine in [Engine::ScmpFds, Engine::GenericAllocSite, Engine::GenericSsgRelational] {
        let r = c.certify_source(FIG3, engine).expect("runs");
        let fa = r.lines().contains(&11);
        println!("  {:<26} -> {}", engine.to_string(), if fa { "FALSE ALARM" } else { "exact" });
    }
}

/// The benchmarks of the precision table, in corpus order.
fn benchmark_names(cells: &[PrecisionCell]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = cells.iter().map(|c| c.benchmark).collect();
    names.dedup();
    names
}

/// The cell of `benchmark` × `engine` (the table holds every pair).
fn cell<'a>(cells: &'a [PrecisionCell], benchmark: &str, engine: Engine) -> &'a PrecisionCell {
    cells
        .iter()
        .find(|c| c.benchmark == benchmark && c.engine == engine)
        .expect("every cell present")
}

/// Prints a benchmark × engine grid of `show(cell)`, `-` for failed cells.
fn print_grid(cells: &[PrecisionCell], show: impl Fn(&PrecisionCell) -> String) {
    print!("{:<20}", "benchmark");
    for e in Engine::all() {
        print!(" {:>10}", e.abbrev());
    }
    println!();
    for name in benchmark_names(cells) {
        print!("{name:<20}");
        for e in Engine::all() {
            let c = cell(cells, name, e);
            let s = if c.failed.is_some() { "-".to_string() } else { show(c) };
            print!(" {s:>10}");
        }
        println!();
    }
}

fn cells_by_engine(cells: &[PrecisionCell]) -> BTreeMap<String, Vec<&PrecisionCell>> {
    let mut out: BTreeMap<String, Vec<&PrecisionCell>> = BTreeMap::new();
    for c in cells {
        out.entry(c.engine.to_string()).or_default().push(c);
    }
    out
}

/// E4: the precision table.
fn table_precision() {
    print!(
        "{}",
        render_header("E4: precision per benchmark x engine (reported / real / false alarms)")
    );
    let cells = precision_table();
    // wide table: benchmarks as rows, engines as columns (abbreviated)
    let engines: Vec<Engine> = Engine::all();
    print!("{:<20} {:>5}", "benchmark", "real");
    for e in &engines {
        print!(" {:>12}", e.abbrev());
    }
    println!();
    for name in benchmark_names(&cells) {
        let real = cells.iter().find(|c| c.benchmark == name).map(|c| c.real).unwrap_or_default();
        print!("{name:<20} {real:>5}");
        for &e in &engines {
            let cell = cell(&cells, name, e);
            let s = match &cell.failed {
                Some(_) if cell.poisoned => "poisoned".to_string(),
                Some(_) => "budget".to_string(),
                None => format!("{}+{}fa", cell.reported - cell.false_alarms, cell.false_alarms),
            };
            print!(" {s:>12}");
        }
        println!();
    }
    // summary
    println!();
    for (engine, cs) in cells_by_engine(&cells) {
        let ok: Vec<_> = cs.iter().filter(|c| c.failed.is_none()).collect();
        let fa: usize = ok.iter().map(|c| c.false_alarms).sum();
        let missed: usize = ok.iter().map(|c| c.missed).sum();
        let poisoned = cs.iter().filter(|c| c.poisoned).count();
        let failed = cs.len() - ok.len() - poisoned;
        print!(
            "{engine:<26} false alarms: {fa:>3}   missed: {missed:>2}   budget failures: {failed}"
        );
        if poisoned > 0 {
            print!("   poisoned: {poisoned}");
        }
        println!();
    }
}

/// E5: the timing table, plus the deterministic work counters behind it.
fn table_timing() {
    print!("{}", render_header("E5: analysis time per benchmark x engine"));
    let cells = precision_table();
    print_grid(&cells, |c| fmt_duration(c.time));
    // the deterministic work counters the timings are made of (same layout;
    // these are what CI gates against bench/baseline.json)
    println!();
    println!("work units (deterministic) per benchmark x engine:");
    print_grid(&cells, |c| c.work.to_string());
}

/// E6: relational vs independent-attribute TVLA (the §7 observation).
fn table_modes() {
    print!(
        "{}",
        render_header("E6: TVLA relational vs independent-attribute (same precision per §7)")
    );
    let cells = precision_table();
    let mut diff = 0;
    for name in benchmark_names(&cells) {
        let rel = cell(&cells, name, Engine::TvlaRelational);
        let ind = cell(&cells, name, Engine::TvlaIndependent);
        let same = rel.reported == ind.reported && rel.false_alarms == ind.false_alarms;
        if !same {
            diff += 1;
        }
        println!(
            "{name:<20} relational {} ({}fa, {})  independent {} ({}fa, {})  {}",
            rel.reported,
            rel.false_alarms,
            fmt_duration(rel.time),
            ind.reported,
            ind.false_alarms,
            fmt_duration(ind.time),
            if same { "same" } else { "DIFFER" }
        );
    }
    println!("\nbenchmarks where the modes differ in precision: {diff}");
}

/// E7: the scaling figure (printed series).
fn figure_scaling() {
    print!("{}", render_header("E7: FDS certifier scaling (polynomial in E and B)"));
    println!("sweep client size (blocks of sets+iterators):");
    println!("{:>8} {:>8} {:>8} {:>10} {:>10}", "blocks", "edges", "preds", "work", "time");
    for p in scaling_blocks(&[2, 4, 8, 16, 32, 64, 128]) {
        println!(
            "{:>8} {:>8} {:>8} {:>10} {:>10}",
            p.param,
            p.edges,
            p.predicates,
            p.work,
            fmt_duration(p.time)
        );
    }
    println!("\nsweep component variables (iterator ring; preds grow ~B^2):");
    println!("{:>8} {:>8} {:>8} {:>10} {:>10}", "vars", "edges", "preds", "work", "time");
    for p in scaling_vars(&[2, 4, 8, 16, 32, 64]) {
        println!(
            "{:>8} {:>8} {:>8} {:>10} {:>10}",
            p.param,
            p.edges,
            p.predicates,
            p.work,
            fmt_duration(p.time)
        );
    }
}

/// E8: derivation convergence and the mutation-restricted class.
fn table_specs() {
    print!("{}", render_header("E8: spec classification and derivation convergence (§6)"));
    for row in derivation_table() {
        println!(
            "{:<4} {:?}: {} families, converged (rounds: {:?})",
            row.spec,
            row.class,
            row.families.len(),
            row.rounds
        );
    }
    let unbounded = canvas_easl::builtin::unbounded();
    println!(
        "unbounded (adversarial) {:?}: derivation -> {}",
        canvas_easl::classify(&unbounded),
        match canvas_wp::derive_with_budget(&unbounded, 8) {
            Ok(_) => "converged (unexpected!)".to_string(),
            Err(e) => format!("{e}"),
        }
    );
}

/// E10: incremental certification — cold vs warm vs edited-one-method.
fn table_incr() {
    print!("{}", canvas_bench::render_incr());
}

/// E11: proof-carrying certificates — emit cost vs replay-check cost vs size.
fn table_certs() {
    print!("{}", canvas_bench::render_certs());
}

/// E9: interprocedural certification.
fn table_interproc() {
    print!("{}", render_header("E9: context-sensitive interprocedural SCMP (§8)"));
    let cells = precision_table();
    for name in [
        "make-worklist",
        "interproc-grow",
        "interproc-other-set",
        "interproc-returned",
        "app-cache",
    ] {
        for engine in [Engine::ScmpFds, Engine::ScmpInterproc] {
            if let Some(cell) = cells.iter().find(|c| c.benchmark == name && c.engine == engine) {
                println!(
                    "{name:<22} {:<16} real {}  reported {}  false alarms {}",
                    engine.to_string(),
                    cell.real,
                    cell.reported,
                    cell.false_alarms
                );
            }
        }
    }
    println!("\n(the intraprocedural engine is sound but must havoc across calls;");
    println!(" the §8 engine removes exactly those false alarms)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit(args: &[&str]) -> ExitCode {
        cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// Every experiment rejects a missing operand, an unknown option and an
    /// option it has no use for with exit 2, before running anything.
    #[test]
    fn every_experiment_rejects_bad_options_with_exit_2() {
        for exp in &EXPERIMENTS {
            let bad = |extra: &[&str]| {
                let args: Vec<&str> = [exp.verb].into_iter().filter(|v| !v.is_empty()).collect();
                let code = exit(&[args.as_slice(), extra].concat());
                assert_eq!(code, ExitCode::from(2), "eval {} {extra:?}", exp.verb);
            };
            bad(&["--json"]);
            bad(&["--no-such-option"]);
            match exp.baseline_key {
                Some(_) => bad(&["--check-baseline"]),
                None => bad(&["--check-baseline", "bench/baseline.json"]),
            }
            if exp.gate.is_none() {
                bad(&["--gate"]);
            }
            if exp.verb.is_empty() {
                bad(&["--trace-out"]);
                bad(&["--max-steps", "many"]);
                bad(&["no-such-table"]);
            } else {
                bad(&["--explain"]);
                bad(&["--max-steps", "5"]);
                bad(&["fig3"]);
            }
        }
    }

    #[test]
    fn one_parser_reads_every_experiments_options() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts = parse(&EXPERIMENTS[0], &args(&["fig3", "--json", "a", "--max-steps", "9"]));
        assert_eq!(
            opts,
            Ok(Opts {
                table: Some("fig3".into()),
                json: Some("a".into()),
                max_steps: Some(9),
                ..Opts::default()
            })
        );
        let fleet = &EXPERIMENTS[2];
        let opts = parse(fleet, &args(&["--json", "a", "--check-baseline", "b"]));
        assert_eq!(
            opts,
            Ok(Opts { json: Some("a".into()), baseline: Some("b".into()), ..Opts::default() })
        );
        let obs = &EXPERIMENTS[3];
        assert_eq!(parse(obs, &args(&["--gate"])), Ok(Opts { gate: true, ..Opts::default() }));
        assert_eq!(
            parse(obs, &args(&["--check-baseline", "b"])),
            Err("eval obs does not take \"--check-baseline\"".to_string())
        );
    }
}
