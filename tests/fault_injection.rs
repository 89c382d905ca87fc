//! Deterministic fault injection end to end.
//!
//! Forces each named fault point (`canvas_faults::force`, the in-process
//! equivalent of `CANVAS_FAULT=<point>`) and asserts the documented
//! containment: a typed error, an inconclusive verdict, or a poisoned suite
//! cell — never an uncontained panic and never a silently wrong verdict.
//!
//! Everything lives in ONE test function: the force override is process
//! global, so the faults must be injected sequentially.

use canvas_conformance::faults::{force, unforce, Fault};
use canvas_conformance::incr::service::{serve, ServeConfig};
use canvas_conformance::incr::store::CertCache;
use canvas_conformance::incr::{report_digest, IncrementalCertifier};
use canvas_conformance::suite::oracle::{explore, OracleConfig, OracleError};
use canvas_conformance::{Certifier, CertifyError, Engine};
use canvas_easl::Spec;
use canvas_minijava::Program;

const FIG3: &str = r#"
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
        v.add("x");
        if (true) { i1.next(); }
    }
}
"#;

/// Runs `f` with panic output silenced (the injected panics are expected
/// and would otherwise spam the test log), restoring the previous hook.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn every_injected_fault_is_contained() {
    let spec = canvas_conformance::easl::builtin::cmp();
    let certifier = Certifier::from_spec(spec.clone()).expect("cmp derives");

    // truncate-input cuts untrusted input at the front door
    // (`certify_source`, the `canvas` file reads): the certifier sees half
    // the source and must Err, while the trusted parsers read no fault
    // state and parse the full text they are handed
    force(Some(Fault::TruncateInput));
    assert!(certifier.certify_source(FIG3, Engine::ScmpFds).is_err());
    assert!(Spec::parse("spec", "class Set { Set() { } }").is_ok());
    assert!(Program::parse(FIG3, &spec).is_ok());
    unforce();

    // solver-abort: every engine's solve panics; the isolation layer in the
    // certifier converts that into a structured CertifyError::Panicked
    force(Some(Fault::SolverAbort));
    quiet_panics(|| {
        for engine in Engine::all() {
            match certifier.certify_source(FIG3, engine) {
                Err(CertifyError::Panicked { engine: e, message }) => {
                    assert_eq!(e, engine);
                    assert!(message.contains("solver-abort"), "{engine}: {message}");
                }
                other => panic!("{engine}: expected a contained panic, got {other:?}"),
            }
        }
    });
    unforce();

    // budget-trip: the governor trips immediately and every engine degrades
    // to an inconclusive verdict carrying the injected reason
    force(Some(Fault::BudgetTrip));
    for engine in Engine::all() {
        let r = certifier.certify_source(FIG3, engine).expect("trip is not a hard error");
        assert!(r.is_inconclusive(), "{engine}");
        assert!(!r.certified(), "{engine}: inconclusive must not certify");
        assert_eq!(r.verdict.reason(), Some("injected budget-trip fault"), "{engine}");
    }
    unforce();

    // oracle-death: the interpreter thread dies; the thread boundary
    // contains it as OracleError::Panicked
    force(Some(Fault::OracleDeath));
    let program = Program::parse(FIG3, &spec).expect("fig3 parses");
    let got = quiet_panics(|| explore(&program, &spec, OracleConfig::default()));
    match got {
        Err(OracleError::Panicked(msg)) => {
            assert!(msg.contains("oracle-death"), "{msg}");
        }
        other => panic!("expected a contained oracle panic, got {other:?}"),
    }
    unforce();

    // suite poisoning: with every solve panicking, the parallel driver
    // still completes the whole table, reporting every cell as poisoned in
    // the usual deterministic order
    force(Some(Fault::SolverAbort));
    let cells = quiet_panics(canvas_bench::precision_table);
    unforce();
    let benchmarks = canvas_conformance::suite::corpus().len();
    let engines = Engine::all().len();
    assert_eq!(cells.len(), benchmarks * engines, "every cell computed");
    for cell in &cells {
        assert!(cell.poisoned, "{} x {}: expected poisoned", cell.benchmark, cell.engine);
        let why = cell.failed.as_deref().expect("poisoned cells carry the panic message");
        assert!(why.contains("panicked"), "{} x {}: {why}", cell.benchmark, cell.engine);
    }

    // and with the fault gone, the same driver produces a clean table again
    let cells = canvas_bench::precision_table();
    assert!(cells.iter().all(|c| !c.poisoned), "no poisoned cells at defaults");

    // cache-corrupt: the persisted certificate store is truncated on load;
    // the cache degrades to a cold miss (recovery, not an error) and a
    // re-certification still produces the uncorrupted answer
    let dir =
        std::env::temp_dir().join(format!("canvas-fault-injection-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let program = Program::parse(FIG3, &spec).expect("FIG3 parses");
    let inc = IncrementalCertifier::new(
        Certifier::from_spec(spec.clone()).expect("cmp derives"),
        CertCache::open(&dir),
    );
    let (clean, cold) = inc.certify_program_cached(&program, Engine::ScmpFds).expect("cold");
    assert_eq!(cold.hits, 0, "first run is cold");
    inc.persist().expect("store persists");

    force(Some(Fault::CacheCorrupt));
    let reopened = IncrementalCertifier::new(
        Certifier::from_spec(spec.clone()).expect("cmp derives"),
        CertCache::open(&dir),
    );
    unforce();
    assert!(
        reopened.cache().stats().recovered_from_corruption,
        "the injected corruption must be detected and recovered from"
    );
    let (again, _) = reopened.certify_program_cached(&program, Engine::ScmpFds).expect("recovered");
    assert_eq!(
        report_digest(&clean),
        report_digest(&again),
        "recovery must never change the verdict"
    );
    std::fs::remove_dir_all(&dir).ok();

    // the serve front-end faults: a single-line JSON-safe client script
    const FIG3_JSON: &str = "class Main { static void main() { Set v = new Set(); \
         Iterator i = v.iterator(); v.add(\\\"x\\\"); i.next(); } }";
    let script = format!(
        "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3_JSON}\"}}\n\
         {{\"id\":2,\"cmd\":\"shutdown\"}}\n"
    );
    let run_serve = |script: &str| -> (Result<(), canvas_core::CanvasError>, String) {
        let mut out = Vec::new();
        let result = serve(
            std::io::Cursor::new(script.to_string()),
            &mut out,
            &ServeConfig { workers: 1, ..ServeConfig::default() },
        );
        (result, String::from_utf8_lossy(&out).into_owned())
    };

    // queue-full: every certify is shed deterministically in-band; control
    // verbs bypass admission, the loop drains cleanly
    force(Some(Fault::QueueFull));
    let (result, out) = run_serve(&script);
    unforce();
    assert!(result.is_ok(), "{result:?}");
    assert!(out.contains("\"reason\":\"overloaded: queue full\""), "{out}");
    assert!(out.contains("\"shed\":true"), "{out}");
    assert!(out.contains("\"shutdown\":true"), "{out}");

    // conn-drop: the response write tears mid-line; only that connection
    // is poisoned and the daemon still drains with a clean exit
    force(Some(Fault::ConnDrop));
    let (result, out) = run_serve(&script);
    unforce();
    assert!(result.is_ok(), "{result:?}");
    assert!(!out.contains('\n'), "no complete line escapes a torn connection: {out}");

    // slow-client: the stalled write times out; same containment
    force(Some(Fault::SlowClient));
    let (result, out) = run_serve(&script);
    unforce();
    assert!(result.is_ok(), "{result:?}");
    assert!(out.is_empty(), "a timed-out write sends nothing: {out}");

    // with every fault gone, the same script round-trips normally
    let (result, out) = run_serve(&script);
    assert!(result.is_ok(), "{result:?}");
    assert!(out.contains("\"verdict\":\"violations\""), "{out}");
    assert!(out.contains("\"shutdown\":true"), "{out}");

    // shard-death: a fleet worker dies mid-corpus; only its shard is
    // poisoned (its one in-flight program lost), the survivors steal and
    // finish the rest, and the run maps to exit code 3
    use canvas_conformance::fleet::{
        exit_code, generate_with_threads, run_fleet, FleetConfig, FleetItem, GenParams,
    };
    let corpus =
        generate_with_threads(&GenParams { programs: 20, seed: 13, ..GenParams::default() }, 1)
            .expect("corpus generates");
    let items: Vec<FleetItem> = corpus
        .iter()
        .map(|p| FleetItem {
            name: p.name.clone(),
            source: p.source.clone(),
            expected: Some(p.expected.clone()),
        })
        .collect();
    let cfg = FleetConfig::local(spec.clone(), "cmp", Engine::ScmpFds, 4);

    force(Some(Fault::ShardDeath));
    let poisoned = quiet_panics(|| run_fleet(&items, &cfg)).expect("fleet survives the death");
    unforce();
    assert_eq!(poisoned.dead_shards, 1, "exactly one worker dies");
    assert_eq!(poisoned.poisoned_programs, 1, "only its in-flight program is lost");
    assert_eq!(
        poisoned.certified + poisoned.violating + poisoned.inconclusive,
        items.len() - 1,
        "the survivors complete every other program"
    );
    assert_eq!(poisoned.truth_mismatches, 0, "completed verdicts stay correct");
    assert_eq!(exit_code(&poisoned), 3, "a poisoned fleet run is inconclusive");

    // and with the fault gone, the same corpus certifies completely
    let clean = run_fleet(&items, &cfg).expect("clean fleet run");
    assert_eq!(clean.dead_shards, 0);
    assert_eq!(clean.poisoned_programs, 0);
    assert_eq!(clean.certified + clean.violating + clean.inconclusive, items.len());
    assert_ne!(exit_code(&clean), 3, "no poisoning at defaults");
}
