//! Evaluation tables and figures (paper §7; experiment index in DESIGN.md).
//!
//! Each function regenerates one table/figure of the evaluation as plain
//! data; the `eval` binary renders them as text tables, and EXPERIMENTS.md
//! records the measured outcomes against the paper's claims.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use canvas_core::{Certifier, CertifyError, Engine, PreparedProgram};
use canvas_suite::{corpus, generators, Benchmark};

// the JSON support moved into `canvas-incr` (the certificate store and
// serve protocol share it); re-exported so `canvas_bench::json` callers
// keep working
pub use canvas_incr::json;

pub mod fixpoint;
pub mod fleet;
pub mod obs;
pub mod overload;

static SUITE_JOBS: canvas_telemetry::Counter = canvas_telemetry::Counter::new("suite.jobs");
// Worker count follows the machine (or CANVAS_EVAL_THREADS), so it is
// recorded but never baseline-gated.
static SUITE_WORKERS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("suite.workers");
static SUITE_DRIVER_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("suite.driver");
static SUITE_JOB_TIME: canvas_telemetry::Timer = canvas_telemetry::Timer::new("suite.job");
static SUITE_WORKER_BUSY: canvas_telemetry::Timer =
    canvas_telemetry::Timer::new("suite.worker_busy");
static SUITE_WORKER_IDLE: canvas_telemetry::Timer =
    canvas_telemetry::Timer::new("suite.worker_idle");
static SUITE_POISONED: canvas_telemetry::Counter =
    canvas_telemetry::Counter::non_deterministic("suite.poisoned_cases");

/// One row of the precision table (experiment E4): a benchmark × engine
/// cell with the usual soundness/precision accounting.
#[derive(Clone, Debug)]
pub struct PrecisionCell {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Engine.
    pub engine: Engine,
    /// Number of potential violations reported.
    pub reported: usize,
    /// Ground-truth errors in the benchmark.
    pub real: usize,
    /// Real errors *not* reported (must be 0 for a sound engine).
    pub missed: usize,
    /// Reports at non-error lines.
    pub false_alarms: usize,
    /// Predicate instances in play (engine-reported).
    pub predicates: usize,
    /// Deterministic engine work units (edge visits, valuation transfers,
    /// structure-transformer applications — engine-specific).
    pub work: usize,
    /// Peak per-node abstract-state size (1 for single-state engines).
    pub max_states: usize,
    /// Whether a state budget degraded the result to conservative.
    pub exhausted: bool,
    /// Analysis time.
    pub time: Duration,
    /// `None` when the engine errored (e.g. state budget).
    pub failed: Option<String>,
    /// The engine panicked on this case; the panic was contained by the
    /// per-case isolation layer and the rest of the suite still ran.
    pub poisoned: bool,
    /// Per-cell telemetry attribution captured by the parallel driver
    /// (`None` when telemetry is disabled or the cell ran outside the
    /// driver). A poisoned cell still carries whatever it counted before
    /// the panic — the scope rollup is additive, never lost.
    pub scope: Option<canvas_telemetry::ScopeSnapshot>,
}

/// Runs one engine on one benchmark, with whole-program coverage.
pub fn run_cell(certifier: &Certifier, b: &Benchmark, engine: Engine) -> PrecisionCell {
    match canvas_minijava::Program::parse(b.source, certifier.spec()) {
        Ok(program) => {
            let prepared = PreparedProgram::new(&program);
            run_cell_prepared(certifier, b, &program, &prepared, engine)
        }
        Err(e) => failed_cell(b, engine, CertifyError::from(e).to_string()),
    }
}

/// Runs one engine on one parsed benchmark, reusing `prepared`'s transform
/// caches — several engines (possibly on different worker threads) then
/// compute each boolean-program / TVP translation only once.
pub fn run_cell_prepared(
    certifier: &Certifier,
    b: &Benchmark,
    program: &canvas_minijava::Program,
    prepared: &PreparedProgram,
    engine: Engine,
) -> PrecisionCell {
    let truth: BTreeSet<u32> = b.truth().into_iter().collect();
    match certifier.certify_program_prepared(program, prepared, engine) {
        Ok(report) => {
            let reported: BTreeSet<u32> = report.lines().into_iter().collect();
            PrecisionCell {
                benchmark: b.name,
                engine,
                reported: reported.len(),
                real: truth.len(),
                missed: truth.difference(&reported).count(),
                false_alarms: reported.difference(&truth).count(),
                predicates: report.stats.predicates,
                work: report.stats.work,
                max_states: report.stats.max_states,
                exhausted: report.stats.exhausted,
                time: report.stats.duration,
                failed: None,
                poisoned: false,
                scope: None,
            }
        }
        // an engine panic contained by the certifier's isolation layer is a
        // poisoned case, not an ordinary budget failure
        Err(e @ CertifyError::Panicked { .. }) => {
            SUITE_POISONED.add(1);
            PrecisionCell { poisoned: true, ..failed_cell(b, engine, e.to_string()) }
        }
        Err(e) => failed_cell(b, engine, e.to_string()),
    }
}

fn failed_cell(b: &Benchmark, engine: Engine, why: String) -> PrecisionCell {
    let truth: BTreeSet<u32> = b.truth().into_iter().collect();
    PrecisionCell {
        benchmark: b.name,
        engine,
        reported: 0,
        real: truth.len(),
        missed: truth.len(),
        false_alarms: 0,
        predicates: 0,
        work: 0,
        max_states: 0,
        exhausted: false,
        time: Duration::ZERO,
        failed: Some(why),
        poisoned: false,
        scope: None,
    }
}

/// A cell for a case whose engine run panicked: reported as failed with the
/// contained panic message, and flagged so the E4 rendering can call it out.
fn poisoned_cell(b: &Benchmark, engine: Engine, message: String) -> PrecisionCell {
    SUITE_POISONED.add(1);
    PrecisionCell { poisoned: true, ..failed_cell(b, engine, format!("panicked: {message}")) }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The full precision table (E4): all benchmarks × all engines.
///
/// Cells run concurrently on scoped worker threads. Each benchmark is parsed
/// and prepared once (one [`PreparedProgram`] shared by all engines), each
/// spec's abstraction is derived once, and the returned order is
/// deterministic regardless of scheduling: corpus order × engine-registry
/// order, exactly as the sequential driver produced it.
pub fn precision_table() -> Vec<PrecisionCell> {
    let _span = SUITE_DRIVER_TIME.span();
    let benchmarks = corpus();
    let engines = Engine::all();

    // one certifier per spec kind (the derivation runs once per spec)
    let mut certifiers: Vec<(canvas_suite::SpecKind, Certifier)> = Vec::new();
    for b in &benchmarks {
        if !certifiers.iter().any(|(k, _)| *k == b.spec) {
            let c = Certifier::from_spec(b.spec.spec()).expect("built-in specs derive");
            certifiers.push((b.spec, c));
        }
    }
    let cert_idx: Vec<usize> = benchmarks
        .iter()
        .map(|b| certifiers.iter().position(|(k, _)| *k == b.spec).expect("certifier built"))
        .collect();

    // one parsed program + transform cache per benchmark, shared by engines
    let parsed: Vec<Result<(canvas_minijava::Program, PreparedProgram), String>> = benchmarks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            canvas_minijava::Program::parse(b.source, certifiers[cert_idx[bi]].1.spec())
                .map(|p| {
                    let prepared = PreparedProgram::new(&p);
                    (p, prepared)
                })
                .map_err(|e| CertifyError::from(e).to_string())
        })
        .collect();

    let jobs: Vec<(usize, Engine)> =
        (0..benchmarks.len()).flat_map(|bi| engines.iter().map(move |&e| (bi, e))).collect();
    let slots: Vec<Mutex<Option<PrecisionCell>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = canvas_suite::worker_count(jobs.len());
    SUITE_JOBS.add(jobs.len() as u64);
    SUITE_WORKERS.add(workers as u64);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let spawned = Instant::now();
                let mut busy = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(bi, engine)) = jobs.get(i) else { break };
                    let _job = SUITE_JOB_TIME.span();
                    let started = Instant::now();
                    let b = &benchmarks[bi];
                    let certifier = &certifiers[cert_idx[bi]].1;
                    // isolate the case: a panicking engine poisons this one
                    // cell, the worker survives, and every other cell is
                    // still computed and re-aggregated deterministically.
                    // The scope wraps the catch_unwind so a poisoned cell
                    // still rolls up whatever it counted before the panic.
                    let scope =
                        canvas_telemetry::Scope::new(format!("{}::{}", b.name, engine.abbrev()));
                    let mut cell = match &parsed[bi] {
                        Ok((program, prepared)) => {
                            let _in_scope = scope.enter();
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                run_cell_prepared(certifier, b, program, prepared, engine)
                            }))
                            .unwrap_or_else(|payload| {
                                poisoned_cell(b, engine, panic_message(payload.as_ref()))
                            })
                        }
                        Err(why) => failed_cell(b, engine, why.clone()),
                    };
                    if canvas_telemetry::enabled() {
                        cell.scope = Some(scope.snapshot());
                    }
                    *slots[i].lock().expect("no panics while holding the slot lock") = Some(cell);
                    busy += started.elapsed();
                }
                SUITE_WORKER_BUSY.observe(busy);
                SUITE_WORKER_IDLE.observe(spawned.elapsed().saturating_sub(busy));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("worker did not panic").expect("every cell computed"))
        .collect()
}

/// One point of the scaling figure (E7).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Sweep dimension value.
    pub param: usize,
    /// Control-flow edges of the generated client.
    pub edges: usize,
    /// Predicate instances (`B²`-ish).
    pub predicates: usize,
    /// FDS analysis time.
    pub time: Duration,
    /// FDS work units (edge visits).
    pub work: usize,
}

/// Sweeps the client size (number of blocks) at fixed variable count.
pub fn scaling_blocks(points: &[usize]) -> Vec<ScalingPoint> {
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    points
        .iter()
        .map(|&blocks| {
            let g = generators::scmp_blocks(blocks, 2, 0.0, 1);
            let program =
                canvas_minijava::Program::parse(&g.source, certifier.spec()).expect("generated");
            let report = certifier.certify(&program, Engine::ScmpFds).expect("fds");
            ScalingPoint {
                param: blocks,
                edges: program.edge_count(),
                predicates: report.stats.predicates,
                time: report.stats.duration,
                work: report.stats.work,
            }
        })
        .collect()
}

/// Sweeps the component-variable count (iterator ring) at fixed block count.
pub fn scaling_vars(points: &[usize]) -> Vec<ScalingPoint> {
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    points
        .iter()
        .map(|&n| {
            let g = generators::iterator_ring(n, false);
            let program =
                canvas_minijava::Program::parse(&g.source, certifier.spec()).expect("generated");
            let report = certifier.certify(&program, Engine::ScmpFds).expect("fds");
            ScalingPoint {
                param: n,
                edges: program.edge_count(),
                predicates: report.stats.predicates,
                time: report.stats.duration,
                work: report.stats.work,
            }
        })
        .collect()
}

/// One row of the derivation table (E1/E8).
#[derive(Clone, Debug)]
pub struct DerivationRow {
    /// Specification name.
    pub spec: String,
    /// §6 classification.
    pub class: canvas_easl::SpecClass,
    /// Derived family signatures, in discovery order.
    pub families: Vec<String>,
    /// WP computations performed.
    pub wp_count: usize,
    /// Family-equivalence checks performed.
    pub equiv_checks: usize,
    /// Families known after each worklist round (convergence trace).
    pub rounds: Vec<usize>,
}

/// The derivation table for all built-in specs.
pub fn derivation_table() -> Vec<DerivationRow> {
    canvas_easl::builtin::all()
        .into_iter()
        .map(|spec| {
            let class = canvas_easl::classify(&spec);
            let derived = canvas_wp::derive_abstraction(&spec).expect("built-ins derive");
            DerivationRow {
                spec: spec.name().to_string(),
                class,
                families: derived.families().iter().map(|f| f.to_string()).collect(),
                wp_count: derived.stats().wp_count,
                equiv_checks: derived.stats().equiv_checks,
                rounds: derived.stats().families_discovered.clone(),
            }
        })
        .collect()
}

/// The paper's Fig. 3 running example, shared by the eval binary, the
/// benches, and the golden tests.
pub const FIG3: &str = r#"
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
        v.add("...");
        if (true) { i1.next(); }
    }
}
"#;

/// Section header used by every eval table.
pub fn render_header(title: &str) -> String {
    format!("\n== {title} ==\n\n")
}

/// E1 as text, exactly as the `eval -- derive` subcommand prints it.
/// Deterministic (no timing, no randomness), so golden-testable.
pub fn render_derive() -> String {
    use std::fmt::Write as _;
    let mut out =
        render_header("E1: derived abstractions (paper Fig. 4 / Fig. 5; Table D rows for E8)");
    for row in derivation_table() {
        let _ = writeln!(
            out,
            "spec {:<4} class={:?} wp={} equiv-checks={} rounds={:?}",
            row.spec, row.class, row.wp_count, row.equiv_checks, row.rounds
        );
        for f in &row.families {
            let _ = writeln!(out, "    {f}");
        }
    }
    out
}

/// E2 as text, exactly as the `eval -- fig3` subcommand prints it.
/// Deterministic, so golden-testable.
pub fn render_fig3() -> String {
    use std::fmt::Write as _;
    let mut out =
        render_header("E2: Fig. 3 walkthrough (real errors at lines 10 and 13; line 11 is safe)");
    let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    for engine in Engine::all() {
        match c.certify_source(FIG3, engine) {
            Ok(r) => match r.verdict.reason() {
                Some(reason) => {
                    let _ = writeln!(out, "{:<26} -> inconclusive ({reason})", engine.to_string());
                }
                None => {
                    let _ = writeln!(out, "{:<26} -> lines {:?}", engine.to_string(), r.lines());
                }
            },
            Err(e) => {
                let _ = writeln!(out, "{:<26} -> {e}", engine.to_string());
            }
        }
    }
    out
}

/// E2 with witness evidence, exactly as `eval -- fig3 --explain` prints it:
/// the specialized FDS certifier run with provenance recording on, every
/// violation rendered as a rustc-style labeled diagnostic whose secondary
/// labels replay the witness trace (create → mutate → stale use).
/// Deterministic, so golden-testable.
pub fn render_fig3_explained() -> String {
    let mut out =
        render_header("E2 (explained): Fig. 3 witness traces (specialized FDS certifier)");
    let c =
        Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives").with_explain(true);
    let r = c.certify_source(FIG3, Engine::ScmpFds).expect("fig3 certifies");
    out.push_str(&r.render_explained("fig3.mj", FIG3));
    out
}

/// Renders a duration compactly.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_millis() >= 10 {
        format!("{:.0}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    }
}

/// Everything `eval --json` emits: the E1 derivation rows, the
/// E4/E5 precision+timing cells, and a telemetry snapshot of the whole run.
pub struct EvalMetrics {
    /// E1 derivation rows.
    pub derivation: Vec<DerivationRow>,
    /// All benchmark × engine cells.
    pub cells: Vec<PrecisionCell>,
    /// E10 incremental-certification phases (cold → warm → edited).
    pub incremental: Vec<IncrPhase>,
    /// Pipeline telemetry accumulated over the run.
    pub snapshot: canvas_telemetry::Snapshot,
}

/// Runs the full evaluation (derivation + precision + incremental tables)
/// with telemetry enabled and captures the resulting metrics. The
/// incremental stage runs sequentially, so its `incr.cache_*` counters are
/// deterministic and baseline-gated.
pub fn collect_eval_metrics() -> EvalMetrics {
    let was = canvas_telemetry::enabled();
    canvas_telemetry::set_enabled(true);
    canvas_telemetry::reset();
    let derivation = derivation_table();
    let cells = precision_table();
    let incremental = incremental_table();
    serve_overload_exercise();
    let snapshot = canvas_telemetry::snapshot();
    canvas_telemetry::set_enabled(was);
    EvalMetrics { derivation, cells, incremental, snapshot }
}

/// Drives the serve front-end's shedding and cache-eviction counters to
/// exact, scheduling-independent values so `serve.shed_total`,
/// `serve.deadline_total`, `incr.cache_evictions` and `incr.cache_bytes`
/// are baseline-gated alongside the analysis work counters. Everything
/// runs on one worker over the stdio loop, so the shed decisions are a
/// pure function of the scripted request order.
fn serve_overload_exercise() {
    use canvas_incr::service::{serve, ServeConfig};
    // single-line, JSON-escaped Fig. 3 client for NDJSON embedding
    const FIG3_JSON: &str = "class Main { static void main() { Set v = new Set(); \
         Iterator i = v.iterator(); v.add(\\\"x\\\"); i.next(); } }";
    let run = |script: String, config: &ServeConfig| {
        let mut out = Vec::new();
        serve(std::io::Cursor::new(script), &mut out, config)
            .expect("the overload exercise serves");
    };
    // exactly 3 tenant sheds: burst 2, no refill, 5 certifies, one tenant
    let mut script = String::new();
    for id in 1..=5 {
        script.push_str(&format!(
            "{{\"id\":{id},\"cmd\":\"certify\",\"source\":\"{FIG3_JSON}\",\"tenant\":\"acme\"}}\n"
        ));
    }
    script.push_str("{\"id\":6,\"cmd\":\"shutdown\"}\n");
    run(
        script,
        &ServeConfig { workers: 1, tenant_burst: 2, tenant_rate: 0, ..ServeConfig::default() },
    );
    // exactly 1 deadline shed: a zero-millisecond budget has always
    // expired by the time the worker picks the request up
    run(
        format!(
            "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3_JSON}\",\"budget_ms\":0}}\n\
             {{\"id\":2,\"cmd\":\"shutdown\"}}\n"
        ),
        &ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    // deterministic evictions: 8 structurally distinct programs (cache
    // keys fingerprint the canonical IR, so the *statement counts* must
    // differ) through a hot tier too small to hold them; one worker, one
    // connection, so the store (and therefore eviction) order is exactly
    // the request order
    let mut script = String::new();
    for id in 1..=8u64 {
        let nexts = "i.next(); ".repeat(id as usize);
        let source = format!(
            "class Main {{ static void main() {{ Set s = new Set(); \
             Iterator i = s.iterator(); {nexts}}} }}"
        );
        script.push_str(&format!("{{\"id\":{id},\"cmd\":\"certify\",\"source\":\"{source}\"}}\n"));
    }
    script.push_str("{\"id\":9,\"cmd\":\"shutdown\"}\n");
    run(script, &ServeConfig { workers: 1, cache_bytes: Some(1024), ..ServeConfig::default() });
}

/// Builds the stable `canvas-bench-eval/2` document. Everything under
/// `"deterministic"` must be byte-identical run-to-run (CI gates it against
/// `bench/baseline.json`); everything under `"measured"` — timings and
/// scheduling-dependent counters — is recorded but never gated.
pub fn metrics_to_json(m: &EvalMetrics) -> json::Json {
    use json::{obj, Json};
    let derivation = Json::Arr(
        m.derivation
            .iter()
            .map(|r| {
                obj(vec![
                    ("spec", Json::Str(r.spec.clone())),
                    ("class", Json::Str(format!("{:?}", r.class))),
                    ("families", Json::Int(r.families.len() as u64)),
                    ("wp_count", Json::Int(r.wp_count as u64)),
                    ("equiv_checks", Json::Int(r.equiv_checks as u64)),
                    ("rounds", Json::Arr(r.rounds.iter().map(|&n| Json::Int(n as u64)).collect())),
                ])
            })
            .collect(),
    );
    let det_cells = Json::Arr(
        m.cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("benchmark", Json::Str(c.benchmark.to_string())),
                    ("engine", Json::Str(c.engine.to_string())),
                    ("reported", Json::Int(c.reported as u64)),
                    ("real", Json::Int(c.real as u64)),
                    ("missed", Json::Int(c.missed as u64)),
                    ("false_alarms", Json::Int(c.false_alarms as u64)),
                    ("predicates", Json::Int(c.predicates as u64)),
                    ("work", Json::Int(c.work as u64)),
                    ("max_states", Json::Int(c.max_states as u64)),
                    ("exhausted", Json::Bool(c.exhausted)),
                    ("failed", Json::Bool(c.failed.is_some())),
                ])
            })
            .collect(),
    );
    let det_counters = Json::Obj(
        m.snapshot
            .deterministic_counters()
            .iter()
            .map(|c| (c.name.clone(), Json::Int(c.value)))
            .collect(),
    );
    let timed_cells = Json::Arr(
        m.cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("benchmark", Json::Str(c.benchmark.to_string())),
                    ("engine", Json::Str(c.engine.to_string())),
                    ("nanos", Json::Int(c.time.as_nanos().min(u128::from(u64::MAX)) as u64)),
                ])
            })
            .collect(),
    );
    let nondet_counters = Json::Obj(
        m.snapshot
            .counters
            .iter()
            .filter(|c| !c.deterministic && c.value > 0)
            .map(|c| (c.name.clone(), Json::Int(c.value)))
            .collect(),
    );
    let timers = Json::Arr(
        m.snapshot
            .timers
            .iter()
            .filter(|t| t.count > 0)
            .map(|t| {
                obj(vec![
                    ("name", Json::Str(t.name.clone())),
                    ("count", Json::Int(t.count)),
                    ("total_nanos", Json::Int(t.sum)),
                    ("max_nanos", Json::Int(t.max)),
                ])
            })
            .collect(),
    );
    let det_incremental = Json::Arr(
        m.incremental
            .iter()
            .map(|p| {
                obj(vec![
                    ("engine", Json::Str(p.engine.to_string())),
                    ("phase", Json::Str(p.phase.to_string())),
                    ("hits", Json::Int(p.hits)),
                    ("misses", Json::Int(p.misses)),
                    ("digest_ok", Json::Bool(p.digest_ok)),
                ])
            })
            .collect(),
    );
    json::bench_document(
        obj(vec![
            ("derivation", derivation),
            ("cells", det_cells),
            ("incremental", det_incremental),
            ("counters", det_counters),
        ]),
        obj(vec![("cells", timed_cells), ("counters", nondet_counters), ("timers", timers)]),
    )
}

/// Compares a document's `"deterministic"` section against `baseline`'s
/// `key` section; returns the drift as human-readable lines (empty = no
/// drift). `bench/baseline.json` keeps each gated experiment's section
/// under its own key (`deterministic` for the table run, `fixpoint`,
/// `fleet`); comparing two documents of one experiment uses
/// `"deterministic"`.
pub fn baseline_drift(current: &json::Json, baseline: &json::Json, key: &str) -> Vec<String> {
    match (current.get("deterministic"), baseline.get(key)) {
        (Some(c), Some(b)) => json::diff(c, b),
        (None, _) => vec!["missing \"deterministic\" section in the current document".to_string()],
        (_, None) => vec![format!("missing {key:?} section in the baseline")],
    }
}

/// Deterministic per-engine work counters on the Fig. 3 example, as pinned
/// by the `metrics_fig3` golden test: telemetry is reset before each engine,
/// so every block shows exactly that engine's work (including its share of
/// the front-end transforms, recomputed per engine).
pub fn render_fig3_metrics() -> String {
    use std::fmt::Write as _;
    let was = canvas_telemetry::enabled();
    canvas_telemetry::set_enabled(true);
    let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    let program = canvas_minijava::Program::parse(FIG3, c.spec()).expect("fig3 parses");
    let mut out = render_header("E2 counters: deterministic work per engine on Fig. 3");
    for engine in Engine::all() {
        canvas_telemetry::reset();
        let _ = c.certify(&program, engine);
        let snap = canvas_telemetry::snapshot();
        let _ = writeln!(out, "{engine}");
        for cs in snap.deterministic_counters() {
            let _ = writeln!(out, "    {:<28} {}", cs.name, cs.value);
        }
    }
    canvas_telemetry::set_enabled(was);
    canvas_telemetry::reset();
    out
}

/// One row of the certificate table (E11): a benchmark × engine pair with
/// the cost of *emitting* a proof-carrying certificate (a full fixpoint
/// run) against the cost of *checking* it (one replay pass in the
/// engine-free `canvas-check` crate) and the certificate's size.
#[derive(Clone, Debug)]
pub struct CertRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Emitting engine.
    pub engine: Engine,
    /// Wall-clock time of the certificate-emitting certification run.
    pub certify_time: Duration,
    /// Wall-clock time of the `canvas-check` replay.
    pub check_time: Duration,
    /// Size of the serialized `canvas-cert/1` text, in bytes.
    pub cert_bytes: usize,
    /// Whether every cell carries a replayable solution.
    pub checkable: bool,
    /// Whether the checker accepted the certificate as internally valid.
    pub accepted: bool,
    /// The checker's verdict (accepted and no violations implied).
    pub certified: bool,
    /// `Some` when the emitting run errored (e.g. state budget).
    pub failed: Option<String>,
}

/// E11: emit + re-check a certificate for every corpus benchmark under each
/// certificate-capable engine. Everything except the timings is
/// deterministic; the point of the table is `check ≪ certify` with modest
/// certificate sizes (the abstraction-carrying-code trade).
pub fn certificate_table() -> Vec<CertRow> {
    let benchmarks = corpus();
    let engines: Vec<Engine> =
        Engine::all().into_iter().filter(|e| e.certificate_unsupported().is_none()).collect();
    let mut certifiers: Vec<(canvas_suite::SpecKind, Certifier)> = Vec::new();
    for b in &benchmarks {
        if !certifiers.iter().any(|(k, _)| *k == b.spec) {
            let c = Certifier::from_spec(b.spec.spec()).expect("built-in specs derive");
            certifiers.push((b.spec, c));
        }
    }
    let mut out = Vec::new();
    for b in &benchmarks {
        let certifier = &certifiers.iter().find(|(k, _)| *k == b.spec).expect("certifier built").1;
        let program = match canvas_minijava::Program::parse(b.source, certifier.spec()) {
            Ok(p) => p,
            Err(e) => {
                for &engine in &engines {
                    out.push(CertRow {
                        benchmark: b.name,
                        engine,
                        certify_time: Duration::ZERO,
                        check_time: Duration::ZERO,
                        cert_bytes: 0,
                        checkable: false,
                        accepted: false,
                        certified: false,
                        failed: Some(e.to_string()),
                    });
                }
                continue;
            }
        };
        for &engine in &engines {
            let start = Instant::now();
            let run = certifier.certify_with_certificate(b.source, &program, engine);
            let certify_time = start.elapsed();
            let row = match run {
                Ok((_, cert)) => {
                    let text = cert.to_text();
                    let start = Instant::now();
                    let outcome = canvas_check::check_text(
                        b.source,
                        certifier.spec(),
                        certifier.derived(),
                        &text,
                    );
                    let check_time = start.elapsed();
                    CertRow {
                        benchmark: b.name,
                        engine,
                        certify_time,
                        check_time,
                        cert_bytes: text.len(),
                        checkable: cert.checkable(),
                        accepted: outcome.is_ok(),
                        certified: outcome.map(|o| o.certified).unwrap_or(false),
                        failed: None,
                    }
                }
                Err(e) => CertRow {
                    benchmark: b.name,
                    engine,
                    certify_time,
                    check_time: Duration::ZERO,
                    cert_bytes: 0,
                    checkable: false,
                    accepted: false,
                    certified: false,
                    failed: Some(e.to_string()),
                },
            };
            out.push(row);
        }
    }
    out
}

/// One point of the E11 scaling series: a generated client large enough
/// for the fixpoint to iterate, certified end-to-end (parse + analyse +
/// emit) and re-checked end-to-end (parse + replay).
#[derive(Clone, Debug)]
pub struct CertScalePoint {
    /// Generated client size (blocks).
    pub blocks: usize,
    /// Control-flow edges of the generated client.
    pub edges: usize,
    /// End-to-end certificate emission time (parse + fixpoint + serialize).
    pub certify_time: Duration,
    /// End-to-end check time (parse + single-pass replay).
    pub check_time: Duration,
    /// Serialized certificate size in bytes.
    pub cert_bytes: usize,
    /// The checker accepted and the client is violation-free.
    pub certified: bool,
}

/// The E11 scaling series on generated CMP clients (FDS certifier). Both
/// sides are timed end-to-end from source text, so the comparison charges
/// parsing and the boolean-program transform to both equally; the gap that
/// remains is fixpoint iteration vs single-pass replay.
pub fn certificate_scaling(points: &[usize]) -> Vec<CertScalePoint> {
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    points
        .iter()
        .map(|&blocks| {
            let g = generators::scmp_blocks(blocks, 2, 0.0, 1);
            let start = Instant::now();
            let program =
                canvas_minijava::Program::parse(&g.source, certifier.spec()).expect("generated");
            let (_, cert) = certifier
                .certify_with_certificate(&g.source, &program, Engine::ScmpFds)
                .expect("generated clients certify");
            let text = cert.to_text();
            let certify_time = start.elapsed();
            let start = Instant::now();
            let outcome =
                canvas_check::check_text(&g.source, certifier.spec(), certifier.derived(), &text)
                    .expect("genuine certificate");
            let check_time = start.elapsed();
            CertScalePoint {
                blocks,
                edges: program.edge_count(),
                certify_time,
                check_time,
                cert_bytes: text.len(),
                certified: outcome.certified,
            }
        })
        .collect()
}

/// E11 as text: per-benchmark certify/check/size rows and the per-engine
/// totals with the check-vs-certify speedup.
pub fn render_certs() -> String {
    use std::fmt::Write as _;
    let mut out = render_header(
        "E11: proof-carrying certificates (emit once, re-check by replay in canvas-check)",
    );
    let rows = certificate_table();
    let _ = writeln!(
        out,
        "{:<20} {:<10} {:>10} {:>10} {:>8} {:>9} {:>10}",
        "benchmark", "engine", "certify", "check", "bytes", "accepted", "certified"
    );
    for r in &rows {
        match &r.failed {
            Some(e) => {
                let _ = writeln!(out, "{:<20} {:<10} {e}", r.benchmark, r.engine.abbrev());
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<20} {:<10} {:>10} {:>10} {:>8} {:>9} {:>10}",
                    r.benchmark,
                    r.engine.abbrev(),
                    fmt_duration(r.certify_time),
                    fmt_duration(r.check_time),
                    r.cert_bytes,
                    if r.accepted { "yes" } else { "NO" },
                    if r.certified { "yes" } else { "no" }
                );
            }
        }
    }
    let _ = writeln!(out);
    for (engine, rs) in {
        let mut by: BTreeMap<String, Vec<&CertRow>> = BTreeMap::new();
        for r in &rows {
            by.entry(r.engine.to_string()).or_default().push(r);
        }
        by
    } {
        let ok: Vec<_> = rs.iter().filter(|r| r.failed.is_none()).collect();
        let certify: Duration = ok.iter().map(|r| r.certify_time).sum();
        let check: Duration = ok.iter().map(|r| r.check_time).sum();
        let bytes: usize = ok.iter().map(|r| r.cert_bytes).sum();
        let accepted = ok.iter().filter(|r| r.accepted).count();
        let speedup = if check.as_nanos() == 0 {
            f64::INFINITY
        } else {
            certify.as_secs_f64() / check.as_secs_f64()
        };
        let _ = writeln!(
            out,
            "{engine:<26} certify {}  check {} ({speedup:.1}x faster)  \
             {accepted}/{} accepted  {bytes} cert bytes total",
            fmt_duration(certify),
            fmt_duration(check),
            ok.len(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "scaling (generated CMP clients, FDS; both sides end-to-end):");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "blocks", "edges", "certify", "check", "check/ce", "bytes"
    );
    for p in certificate_scaling(&[8, 16, 32, 64, 128]) {
        let ratio = if p.certify_time.as_nanos() == 0 {
            f64::NAN
        } else {
            p.check_time.as_secs_f64() / p.certify_time.as_secs_f64()
        };
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>10} {:>10} {:>8.0}% {:>8}",
            p.blocks,
            p.edges,
            fmt_duration(p.certify_time),
            fmt_duration(p.check_time),
            ratio * 100.0,
            p.cert_bytes
        );
    }
    out
}

/// The E10 incremental workload: four methods, with the *edited* method
/// last and the edit confined to one line, so no other method's span (and
/// hence no other fingerprint) shifts.
pub const INCR_BASE: &str = r#"
class Main {
    static void fill(Set s) {
        s.add("a");
        s.add("b");
    }
    static void scan(Set s) {
        for (Iterator i = s.iterator(); i.hasNext(); ) { i.next(); }
    }
    static void main() {
        Set v = new Set();
        Main.fill(v);
        Main.scan(v);
        Iterator late = v.iterator();
        v.add("c");
        if (true) { late.next(); }
    }
    static void audit(Set s) {
        Iterator i = s.iterator();
        s.add("x");
        i.next();
    }
}
"#;

/// The one-line, span-preserving edit applied to [`INCR_BASE`]'s `audit`.
pub const INCR_EDIT_FROM: &str = "s.add(\"x\");";
/// See [`INCR_EDIT_FROM`].
pub const INCR_EDIT_TO: &str = "s.add(\"x\"); s.add(\"y\");";

/// One phase of the E10 incremental-certification experiment.
#[derive(Clone, Debug)]
pub struct IncrPhase {
    /// Engine under test.
    pub engine: Engine,
    /// `cold` (empty cache), `warm` (identical rerun) or `edited`
    /// (one-line edit to one method).
    pub phase: &'static str,
    /// Cells answered from the certificate cache.
    pub hits: u64,
    /// Cells analysed fresh.
    pub misses: u64,
    /// Whether the (partially) cached report is semantically identical to
    /// an uncached run — the invalidation-soundness check.
    pub digest_ok: bool,
    /// Wall-clock time of the cached certification call.
    pub time: Duration,
    /// `Some` when the engine errored on this workload.
    pub failed: Option<String>,
}

/// E10: cold → warm → edited-one-method certification through one shared
/// in-memory certificate cache, per engine. Everything except `time` is
/// deterministic (cache keys are content hashes; the traffic pattern is a
/// function of the workload alone), so the hit/miss counts and digest
/// checks are baseline-gated.
pub fn incremental_table() -> Vec<IncrPhase> {
    use canvas_incr::{report_digest, store::CertCache, IncrementalCertifier};
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    let reference = certifier.clone();
    let inc = IncrementalCertifier::new(certifier, CertCache::in_memory());
    let base = canvas_minijava::Program::parse(INCR_BASE, inc.certifier().spec())
        .expect("incr base parses");
    let edited_src = INCR_BASE.replace(INCR_EDIT_FROM, INCR_EDIT_TO);
    assert_ne!(edited_src, INCR_BASE, "the edit marker must match");
    let edited = canvas_minijava::Program::parse(&edited_src, inc.certifier().spec())
        .expect("incr edited parses");
    let mut out = Vec::new();
    for engine in Engine::all() {
        for (phase, program) in [("cold", &base), ("warm", &base), ("edited", &edited)] {
            let start = Instant::now();
            let run = inc.certify_program_cached_with_stats(program, engine);
            let time = start.elapsed();
            let row = match run {
                Ok((report, stats)) => {
                    // invalidation soundness: the cached answer must match
                    // a from-scratch certification of the same program
                    let digest_ok = match reference.certify_program(program, engine) {
                        Ok(fresh) => report_digest(&fresh) == report_digest(&report),
                        Err(_) => false,
                    };
                    IncrPhase {
                        engine,
                        phase,
                        hits: stats.hits,
                        misses: stats.misses,
                        digest_ok,
                        time,
                        failed: None,
                    }
                }
                Err(e) => IncrPhase {
                    engine,
                    phase,
                    hits: 0,
                    misses: 0,
                    digest_ok: false,
                    time,
                    failed: Some(e.to_string()),
                },
            };
            out.push(row);
        }
    }
    out
}

/// E10 as text: the per-engine cold/warm/edited phases with their cache
/// traffic and the warm-vs-cold wall-clock speedup.
pub fn render_incr() -> String {
    use std::fmt::Write as _;
    let mut out =
        render_header("E10: incremental certification (content-addressed certificate cache)");
    let rows = incremental_table();
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>6} {:>8} {:>10} {:>8}",
        "engine", "phase", "hits", "misses", "time", "sound"
    );
    for r in &rows {
        match &r.failed {
            Some(e) => {
                let _ = writeln!(out, "{:<26} {:>8} {e}", r.engine.to_string(), r.phase);
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<26} {:>8} {:>6} {:>8} {:>10} {:>8}",
                    r.engine.to_string(),
                    r.phase,
                    r.hits,
                    r.misses,
                    fmt_duration(r.time),
                    if r.digest_ok { "yes" } else { "NO" }
                );
            }
        }
    }
    let total = |phase: &str| -> Duration {
        rows.iter().filter(|r| r.phase == phase && r.failed.is_none()).map(|r| r.time).sum()
    };
    let (cold, warm, edited) = (total("cold"), total("warm"), total("edited"));
    let speedup = |fast: Duration| {
        if fast.as_nanos() == 0 {
            f64::INFINITY
        } else {
            cold.as_secs_f64() / fast.as_secs_f64()
        }
    };
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "totals: cold {}  warm {} ({:.1}x)  edited-one-method {} ({:.1}x)",
        fmt_duration(cold),
        fmt_duration(warm),
        speedup(warm),
        fmt_duration(edited),
        speedup(edited),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the one benchmark envelope: exactly the top-level keys
    /// `schema`, `deterministic` and `measured`, under the one tag.
    pub(crate) fn assert_bench_envelope(doc: &json::Json) {
        let json::Json::Obj(pairs) = doc else { panic!("not an object: {doc:?}") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "deterministic", "measured"]);
        assert_eq!(doc.get("schema"), Some(&json::Json::Str(json::BENCH_SCHEMA.to_string())));
    }

    #[test]
    fn eval_document_has_the_bench_envelope() {
        let m = EvalMetrics {
            derivation: derivation_table(),
            cells: Vec::new(),
            incremental: Vec::new(),
            snapshot: canvas_telemetry::snapshot(),
        };
        assert_bench_envelope(&metrics_to_json(&m));
    }

    #[test]
    fn derivation_table_shape() {
        let rows = derivation_table();
        assert_eq!(rows.len(), 4);
        let cmp = &rows[0];
        assert_eq!(cmp.spec, "cmp");
        assert_eq!(cmp.families.len(), 4);
        assert!(cmp.families[0].starts_with("stale"));
    }

    #[test]
    fn scaling_monotone_in_size() {
        let pts = scaling_blocks(&[2, 8]);
        assert!(pts[1].edges > pts[0].edges);
        assert!(pts[1].work >= pts[0].work);
    }

    #[test]
    fn incremental_table_shape_and_soundness() {
        let rows = incremental_table();
        assert_eq!(rows.len(), Engine::all().len() * 3);
        for r in &rows {
            assert!(r.failed.is_none(), "{} {}: {:?}", r.engine, r.phase, r.failed);
            assert!(r.digest_ok, "{} {}: cached result diverged", r.engine, r.phase);
            match r.phase {
                "cold" => assert_eq!(r.hits, 0, "{}", r.engine),
                "warm" => assert_eq!(r.misses, 0, "{}", r.engine),
                "edited" => {
                    // exactly the edited method's cell re-runs (the
                    // interprocedural engine has a single whole-program cell)
                    assert_eq!(r.misses, 1, "{}", r.engine);
                }
                other => panic!("unexpected phase {other}"),
            }
        }
    }

    #[test]
    fn certificate_table_checks_everything_it_emits() {
        let rows = certificate_table();
        assert!(!rows.is_empty());
        let mut checkable = 0;
        for r in &rows {
            if r.failed.is_some() {
                continue; // state-budget failures are allowed on the corpus
            }
            if r.checkable {
                checkable += 1;
                assert!(
                    r.accepted,
                    "{} {}: checker rejected a genuine cert",
                    r.benchmark, r.engine
                );
                assert!(r.cert_bytes > 0, "{} {}: empty cert", r.benchmark, r.engine);
            } else {
                assert!(!r.accepted, "{} {}: accepted an uncheckable cert", r.benchmark, r.engine);
            }
        }
        assert!(checkable >= 25, "only {checkable} checkable certificates on the corpus");
    }

    #[test]
    fn specialized_engines_sound_on_corpus() {
        // soundness: no specialized engine may miss a real error
        for cell in precision_table() {
            if cell.engine.specialized() && cell.failed.is_none() {
                assert_eq!(
                    cell.missed, 0,
                    "{} missed {} error(s) on {}",
                    cell.engine, cell.missed, cell.benchmark
                );
            }
        }
    }
}
