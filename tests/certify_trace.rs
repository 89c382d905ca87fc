//! Every per-method run opens one `certify <method> [engine]` trace span,
//! whichever whole-program path ran it: plain, certificate-emitting, or a
//! certificate-cache miss. A hit runs none, whether the store's program
//! memo answered it or the per-cell lookups did. Tracing is process-global,
//! so this file holds a single test.

use canvas_core::{Certifier, Engine};
use canvas_incr::store::CertCache;
use canvas_incr::IncrementalCertifier;
use canvas_minijava::Program;
use canvas_telemetry::trace;

const HELPERS: &str = r#"
class Main {
    static void poke(Set s) { s.add("x"); }
    static void scan(Set s) {
        Iterator i = s.iterator();
        i.next();
    }
    static void main() {
        Set v = new Set();
        Main.scan(v);
        Main.poke(v);
    }
}
"#;

fn certify_spans() -> Vec<String> {
    trace::take_events()
        .into_iter()
        .filter(|e| e.cat == "certify" && e.ph == 'B')
        .map(|e| e.name)
        .collect()
}

#[test]
fn every_cell_run_opens_one_certify_span() {
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
    let program = Program::parse(HELPERS, certifier.spec()).expect("parses");
    let engine = Engine::ScmpFds;
    let cells = ["Main.main", "Main.poke", "Main.scan"].map(|m| format!("certify {m} [{engine}]"));

    trace::set_tracing(true);
    trace::clear();
    certifier.certify_program(&program, engine).expect("plain");
    let plain = certify_spans();
    certifier.certify_with_certificate(HELPERS, &program, engine).expect("certificate");
    let certificate = certify_spans();
    let inc = IncrementalCertifier::new(certifier, CertCache::in_memory());
    inc.certify_program_certified(HELPERS, &program, engine).expect("cold");
    let misses = certify_spans();
    inc.certify_program_certified(HELPERS, &program, engine).expect("warm");
    let memo_hits = certify_spans();
    // a new text (a trailing comment) misses the memo but not the cells
    let commented = format!("{HELPERS}// resubmitted\n");
    let reparsed = Program::parse(&commented, inc.certifier().spec()).expect("parses");
    inc.certify_program_certified(&commented, &reparsed, engine).expect("warm");
    let cell_hits = certify_spans();
    trace::set_tracing(false);

    assert_eq!(plain, cells);
    assert_eq!(certificate, cells);
    assert_eq!(misses, cells);
    assert!(memo_hits.is_empty(), "a memo hit runs no engine: {memo_hits:?}");
    assert!(cell_hits.is_empty(), "a cache hit runs no engine: {cell_hits:?}");
}
