//! Remote mode (`fleet run --backend`): the driver against a real
//! in-process `canvas serve` listener, and against a canned backend whose
//! malformed answers must poison their programs instead of certifying them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use canvas_core::Engine;
use canvas_fleet::{
    exit_code, generate_with_threads, run_fleet, FleetConfig, FleetItem, GenParams,
};
use canvas_incr::json::Json;
use canvas_incr::service::ServeConfig;

fn corpus(programs: usize, seed: u64) -> Vec<FleetItem> {
    let params = GenParams { programs, seed, ..GenParams::default() };
    generate_with_threads(&params, 1)
        .expect("generation succeeds")
        .into_iter()
        .map(|p| FleetItem { name: p.name, source: p.source, expected: Some(p.expected) })
        .collect()
}

fn config(shards: usize, backend: Option<SocketAddr>) -> FleetConfig {
    let mut cfg = FleetConfig::local(canvas_easl::builtin::cmp(), "cmp", Engine::ScmpFds, shards);
    cfg.backends.extend(backend.map(|a| a.to_string()));
    cfg
}

/// Sends one request line on a fresh connection and returns the answer.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).expect("read");
    answer
}

/// A fleet certified through `canvas serve` reports exactly what the
/// in-process fleet reports: the whole `deterministic` section.
#[test]
fn remote_mode_reports_what_local_mode_reports() {
    let items = corpus(24, 5);
    let local = run_fleet(&items, &config(2, None)).expect("local fleet runs");
    assert_eq!(local.poisoned_programs, 0);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    let serve_config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server: JoinHandle<_> =
        std::thread::spawn(move || canvas_incr::net::serve_listener(listener, &serve_config));

    let remote = run_fleet(&items, &config(2, Some(addr))).expect("remote fleet runs");
    assert_eq!(remote.mode, "serve");
    assert_eq!(remote.poisoned_programs, 0);
    assert_eq!(remote.dead_shards, 0);
    assert_eq!(remote.to_json().get("deterministic"), local.to_json().get("deterministic"));
    let processed: u64 = remote.shard_rows.iter().map(|r| r.processed).sum();
    assert_eq!(processed, 24, "every program processed exactly once");

    assert!(exchange(addr, "{\"id\":0,\"cmd\":\"shutdown\"}\n").contains("\"ok\":true"));
    server.join().expect("server thread").expect("server drains cleanly");
}

/// A backend that answers every request line with `template`, its `{id}`
/// replaced by the request's id (or `+1` of it for a mismatched id).
fn canned_backend(template: &'static str) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else { return };
        let mut writer = stream.try_clone().expect("clone stream");
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { return };
            let id = match Json::parse(&line).ok().and_then(|j| j.get("id").cloned()) {
                Some(Json::Int(id)) => id,
                _ => return,
            };
            let answer =
                template.replace("{id}", &id.to_string()).replace("{id+1}", &(id + 1).to_string());
            if writeln!(writer, "{answer}").is_err() {
                return;
            }
        }
    });
    (addr, handle)
}

/// Every malformed answer poisons its program with a `backend response:`
/// message; a well-formed one still certifies.
#[test]
fn malformed_backend_responses_poison_their_programs() {
    let items = corpus(1, 3);
    let good = "{\"id\":{id},\"ok\":true,\"verdict\":\"certified\",\"violations\":[]}";
    let (addr, backend) = canned_backend(good);
    let report = run_fleet(&items, &config(1, Some(addr))).expect("fleet runs");
    backend.join().expect("backend thread");
    assert_eq!((report.poisoned_programs, report.certified), (0, 1), "a good answer certifies");

    let bad: [(&'static str, &str); 8] = [
        ("{\"id\":{id},\"ok\":true}", "violations"),
        ("{\"id\":{id},\"ok\":true,\"verdict\":\"certified\"}", "violations"),
        (
            "{\"id\":{id},\"ok\":true,\"verdict\":\"violations\",\"violations\":[{\"line\":3,\"col\":5,\"what\":\"i.next()\"}]}",
            "method",
        ),
        (
            "{\"id\":{id},\"ok\":true,\"verdict\":\"violations\",\"violations\":[{\"method\":\"Main.main\",\"col\":5,\"what\":\"i.next()\"}]}",
            "line",
        ),
        (
            "{\"id\":{id},\"ok\":true,\"verdict\":\"violations\",\"violations\":[{\"method\":\"Main.main\",\"line\":4294967296,\"col\":5,\"what\":\"i.next()\"}]}",
            "line",
        ),
        ("{\"id\":{id},\"ok\":true,\"verdict\":\"maybe\",\"violations\":[]}", "verdict"),
        ("{\"ok\":true,\"verdict\":\"certified\",\"violations\":[]}", "id"),
        ("{\"id\":{id+1},\"ok\":true,\"verdict\":\"certified\",\"violations\":[]}", "id"),
    ];
    for (template, field) in bad {
        canvas_telemetry::events::take_events();
        let (addr, backend) = canned_backend(template);
        let report = run_fleet(&items, &config(1, Some(addr))).expect("fleet runs");
        backend.join().expect("backend thread");
        assert_eq!(report.poisoned_programs, 1, "{template}");
        assert_eq!(report.certified + report.violating + report.inconclusive, 0, "{template}");
        assert_eq!(exit_code(&report), 3, "{template}");
        let poisoned: Vec<String> = canvas_telemetry::events::take_events()
            .into_iter()
            .filter(|e| e.target == "fleet.poisoned")
            .map(|e| e.message)
            .collect();
        assert!(
            poisoned.iter().any(|m| m.contains("backend response: ") && m.contains(field)),
            "{template}: {poisoned:?}"
        );
    }
}
