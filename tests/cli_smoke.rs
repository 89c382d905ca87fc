//! The `canvas` binary end to end, run as a child process: the certificate
//! loop (emit, check, reject), the serve daemon's cache traffic and warm
//! restart, its observability surface (Prometheus exposition, in-band
//! blocks, the `canvas-log/1` stream), a 200-request TCP burst against a
//! two-slot admission queue, every `CANVAS_FAULT` leg the binary answers,
//! a fleet generated, certified cold and re-certified warm, a closed
//! stdout, and the usage errors of the one option parser.
//!
//! Each scenario works in its own directory under `CARGO_TARGET_TMPDIR`,
//! so nothing is written into the source tree.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use canvas_bench::json::Json;

const CANVAS: &str = env!("CARGO_BIN_EXE_canvas");
const FIG3: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig3.mj");
/// How long one call may run before it counts as a hang.
const HANG: Duration = Duration::from_secs(300);

/// The serve sessions' client: `touch` edits the set behind `i`'s back.
const TOUCH: &str = "class Main { static void main() { Set s = new Set(); \
    Iterator i = s.iterator(); Main.touch(s); i.next(); } \
    static void touch(Set x) { x.add(\"a\"); } }";
/// [`TOUCH`] with a one-method edit to `touch`.
const TOUCH_EDITED: &str = "class Main { static void main() { Set s = new Set(); \
    Iterator i = s.iterator(); Main.touch(s); i.next(); } \
    static void touch(Set x) { x.add(\"a\"); x.add(\"b\"); } }";
/// The overload and serve-fault client: one violation, one method.
const NEXT_ON_EMPTY: &str =
    "class Main { static void main() { Set v = new Set(); Iterator i = v.iterator(); i.next(); } }";

/// A fresh, empty directory for one scenario.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_smoke").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scenario directory");
    dir
}

/// What one `canvas` call left behind.
struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

impl Run {
    /// Asserts the exit code and that stdout or stderr contains `pattern`.
    fn expect(&self, code: i32, pattern: &str) {
        assert_eq!(
            self.code, code,
            "exit code; stdout:\n{}\nstderr:\n{}",
            self.stdout, self.stderr
        );
        assert!(
            self.stdout.contains(pattern) || self.stderr.contains(pattern),
            "{pattern:?} in neither stream; stdout:\n{}\nstderr:\n{}",
            self.stdout,
            self.stderr
        );
    }

    /// stdout's lines, parsed as JSON (one serve response each).
    fn responses(&self) -> Vec<Json> {
        self.stdout.lines().map(|l| Json::parse(l).expect("a JSON response line")).collect()
    }
}

/// Runs `canvas ARGS` in `dir` with `stdin` fed in and `env` set.
fn canvas(dir: &Path, args: &[&str], stdin: &str, env: &[(&str, &str)]) -> Run {
    let mut child = Command::new(CANVAS)
        .args(args)
        .current_dir(dir)
        .env_remove("CANVAS_FAULT")
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn canvas");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    let input = stdin.to_string();
    // a writer and two reader threads: the daemon answers while it still
    // reads, and the exit is awaited with a bound
    let writer = thread::spawn(move || {
        let _ = pipe.write_all(input.as_bytes());
    });
    let stdout = drain(child.stdout.take().expect("stdout is piped"));
    let stderr = drain(child.stderr.take().expect("stderr is piped"));
    let status = wait_bounded(&mut child, args);
    writer.join().expect("stdin writer");
    Run {
        code: status.code().expect("canvas exited, not killed"),
        stdout: stdout.join().expect("stdout reader"),
        stderr: stderr.join().expect("stderr reader"),
    }
}

/// Reads `stream` to its end on a thread of its own.
fn drain(mut stream: impl Read + Send + 'static) -> thread::JoinHandle<String> {
    thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = stream.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Waits for `child`; a call still running after [`HANG`] is killed and
/// fails the test, so a hang can never pass or stall the suite.
fn wait_bounded(child: &mut Child, args: &[&str]) -> ExitStatus {
    let deadline = Instant::now() + HANG;
    loop {
        if let Some(status) = child.try_wait().expect("poll canvas") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("canvas {args:?} still running after {HANG:?}");
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Kills the daemon when a failed assertion unwinds past it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A certify request line for `source`.
fn certify(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"cmd\":\"certify\",\"source\":{},\"spec\":\"cmp\",\"engine\":\"scmp-fds\"}}\n",
        Json::Str(source.to_string()).render_compact()
    )
}

/// A request line carrying only a command.
fn cmd(id: u64, cmd: &str) -> String {
    format!("{{\"id\":{id},\"cmd\":\"{cmd}\"}}\n")
}

/// The compact rendering of a response's `key` member.
fn member(response: &Json, key: &str) -> String {
    response.get(key).map(Json::render_compact).unwrap_or_default()
}

fn cache(hits: u64, misses: u64, delta_seeded: u64) -> String {
    format!("{{\"hits\":{hits},\"misses\":{misses},\"delta_seeded\":{delta_seeded}}}")
}

/// Emit a certificate, check it (valid, violations confirmed: exit 1), and
/// reject a one-byte flip and a wrong spec (exit 2).
#[test]
fn certificate_is_emitted_checked_and_rejected_when_altered() {
    let dir = scratch("check");
    let emit = canvas(
        &dir,
        &["certify", "--spec", "cmp", "--whole-program", "--emit-cert", "fig3.cert", FIG3],
        "",
        &[],
    );
    emit.expect(1, "wrote certificate to fig3.cert");

    canvas(&dir, &["check", "--spec", "cmp", "fig3.cert", FIG3], "", &[])
        .expect(1, "certificate valid");

    let mut bytes = std::fs::read(dir.join("fig3.cert")).expect("the emitted certificate");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(dir.join("fig3.bad"), bytes).expect("write the flipped copy");
    canvas(&dir, &["check", "--spec", "cmp", "fig3.bad", FIG3], "", &[])
        .expect(2, "certificate rejected");

    canvas(&dir, &["check", "--spec", "grp", "fig3.cert", FIG3], "", &[])
        .expect(2, "certificate rejected");
}

/// One-worker serve session: exact cache traffic on cold, warm and a
/// one-method edit, then a fresh daemon answers from the persisted store.
#[test]
fn serve_session_has_exact_cache_traffic_and_restarts_warm() {
    let dir = scratch("serve");
    let script = [
        certify(1, TOUCH),
        certify(2, TOUCH),
        certify(3, TOUCH_EDITED),
        cmd(4, "stats"),
        cmd(5, "shutdown"),
    ]
    .concat();
    let args = ["serve", "--threads", "1", "--cache-dir", "store"];
    let run = canvas(&dir, &args, &script, &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let r = run.responses();
    assert_eq!(r.len(), 5, "{}", run.stdout);
    let lines: Vec<&str> = run.stdout.lines().collect();
    assert!(lines[0]
        .contains("\"id\":1,\"ok\":true,\"engine\":\"scmp-fds\",\"verdict\":\"violations\""));
    // cold: every cell computed, nothing to seed a delta re-solve from
    assert_eq!(member(&r[0], "cache"), cache(0, 2, 0));
    // warm: answered entirely from the store, same verdict
    assert_eq!(member(&r[1], "verdict"), "\"violations\"");
    assert_eq!(member(&r[1], "cache"), cache(2, 0, 0));
    // the edit re-runs exactly the invalidated cell, seeded from its stale
    // cached solution
    assert_eq!(member(&r[2], "verdict"), "\"violations\"");
    assert_eq!(member(&r[2], "cache"), cache(1, 1, 1));
    assert!(lines[3].contains("\"invalidations\":1"), "{}", lines[3]);
    assert_eq!(member(&r[4], "shutdown"), "true");

    let restart = canvas(&dir, &args, &[certify(1, TOUCH), cmd(2, "shutdown")].concat(), &[]);
    assert_eq!(restart.code, 0, "{}", restart.stderr);
    let r = restart.responses();
    assert_eq!(member(&r[0], "cache"), cache(2, 0, 0), "a fresh daemon answers from disk alone");
}

/// The observability surface of a deterministic one-worker session: the
/// Prometheus exposition, the in-band per-request blocks and a valid
/// `canvas-log/1` stream; then four workers under load drain cleanly.
#[test]
fn serve_exposes_metrics_in_band_stats_and_a_valid_log() {
    let dir = scratch("obs");
    let script = [
        certify(1, TOUCH),
        certify(2, TOUCH),
        cmd(3, "health"),
        cmd(4, "metrics"),
        cmd(5, "shutdown"),
    ]
    .concat();
    let args = ["serve", "--threads", "1", "--no-cache", "--log-json", "obs-serve.ndjson"];
    let run = canvas(&dir, &args, &script, &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let r = run.responses();
    assert_eq!(r.len(), 5, "{}", run.stdout);
    let Some(Json::Str(metrics)) = r[3].get("metrics") else {
        panic!("response 4 carries the exposition: {}", run.stdout)
    };
    let has = |line: &str| assert!(metrics.contains(line), "{line:?} in\n{metrics}");
    has("canvas_serve_requests_total{verb=\"certify\"} 2\n");
    has("canvas_serve_requests_total{verb=\"health\"} 1\n");
    // the scrape counts itself: it is a request too
    has("canvas_serve_requests_total{verb=\"metrics\"} 1\n");
    has("canvas_serve_requests_total{verb=\"shutdown\"} 0\n");
    has("canvas_serve_workers 1\n");
    // the in-memory request cache: 2 cold misses, then 2 warm hits
    has("canvas_serve_cache_hit_ratio 0.5000\n");
    for q in ["0.5", "0.9", "0.99"] {
        let prefix =
            format!("canvas_serve_request_latency_seconds{{verb=\"certify\",quantile=\"{q}\"}} ");
        let value = metrics.lines().find_map(|l| l.strip_prefix(prefix.as_str()));
        assert!(
            value.is_some_and(
                |v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit() || b == b'.')
            ),
            "{prefix}<seconds> in\n{metrics}"
        );
    }
    has("canvas_serve_log_events_dropped_total 0\n");
    // the overload surface at rest
    has("canvas_serve_queue_capacity 64\n");
    has("canvas_serve_connections_open 1\n");
    has("canvas_serve_shed_total 0\n");
    has("canvas_serve_deadline_total 0\n");
    has("canvas_serve_connections_poisoned_total 0\n");
    has("canvas_serve_requests_poisoned_total 0\n");
    // the certificate cache: unbudgeted, no evictions, real resident bytes
    has("canvas_serve_cache_evictions_total 0\n");
    has("canvas_serve_cache_spill_hits_total 0\n");
    let bytes = metrics.lines().find_map(|l| l.strip_prefix("canvas_serve_cache_bytes "));
    assert!(bytes.and_then(|b| b.parse::<u64>().ok()).is_some_and(|b| b > 0), "{metrics}");
    has("canvas_serve_cache_budget_bytes 0\n");

    let first = run.stdout.lines().next().unwrap_or_default();
    assert_eq!(member(&r[0], "cache"), cache(0, 2, 0));
    assert!(first.contains("\"stats\":{\"total_ns\":"), "{first}");
    assert!(first.contains("\"phases\":{\"parse_ns\":"), "{first}");
    assert_eq!(member(&r[1], "cache"), cache(2, 0, 0));
    let log = std::fs::read_to_string(dir.join("obs-serve.ndjson")).expect("the event log");
    let records = canvas_bench::obs::check_log_text(&log).expect("a valid canvas-log/1 stream");
    assert!(records > 0);

    // four workers: shutdown drains every in-flight request
    let load: String = (1..=24)
        .map(|id| certify(id, TOUCH))
        .chain([cmd(25, "metrics"), cmd(26, "shutdown")])
        .collect();
    let run = canvas(&dir, &["serve", "--threads", "4", "--no-cache"], &load, &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let r = run.responses();
    assert_eq!(r.len(), 26, "{}", run.stdout);
    assert!(r.iter().all(|r| member(r, "ok") == "true"), "a request failed under load");
    let metrics = r.iter().find_map(|r| match r.get("metrics") {
        Some(Json::Str(m)) => Some(m.as_str()),
        _ => None,
    });
    assert!(metrics.is_some_and(|m| m.contains("canvas_serve_workers 4\n")), "{metrics:?}");
}

/// A 200-request burst on one TCP connection to a daemon with a two-slot
/// queue: every request is answered in order, some are shed in-band, some
/// are served, and the drain is clean with no poisoned connection.
#[test]
fn tcp_burst_past_capacity_is_answered_in_order_and_drains_clean() {
    let dir = scratch("overload");
    let args = ["serve", "--listen", "127.0.0.1:0", "--threads", "1", "--queue", "2"];
    let args =
        [&args[..], &["--cache-bytes", "4k", "--log-json", "overload-serve.ndjson"]].concat();
    let mut daemon = Daemon(
        Command::new(CANVAS)
            .args(&args)
            .current_dir(&dir)
            .env_remove("CANVAS_FAULT")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn canvas serve"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("the listening banner");
    let addr = banner.trim().rsplit(' ').next().expect("canvas serve: listening on HOST:PORT");
    let mut sock = TcpStream::connect(addr).expect("connect to the daemon");
    sock.set_read_timeout(Some(HANG)).expect("bound every read");

    const N: u64 = 200;
    let burst: String = (1..=N)
        .map(|id| {
            let source = Json::Str(NEXT_ON_EMPTY.to_string()).render_compact();
            format!("{{\"id\":{id},\"cmd\":\"certify\",\"source\":{source}}}\n")
        })
        .collect();
    // no reads yet: the queue is forced past capacity
    sock.write_all(burst.as_bytes()).expect("send the burst");
    let mut reader = BufReader::new(sock.try_clone().expect("clone the socket"));
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("a response line");
        Json::parse(&line).expect("a JSON response")
    };
    let resp: Vec<Json> = (0..N).map(|_| next()).collect();
    sock.write_all(cmd(999, "shutdown").as_bytes()).expect("send shutdown");
    assert_eq!(member(&next(), "shutdown"), "true", "shutdown ack");
    let status = wait_bounded(&mut daemon.0, &args);
    assert_eq!(status.code(), Some(0), "serve exit status");

    let ids: Vec<String> = resp.iter().map(|r| member(r, "id")).collect();
    let want: Vec<String> = (1..=N).map(|id| id.to_string()).collect();
    assert_eq!(ids, want, "every request answered, in submission order");
    let (shed, served): (Vec<&Json>, Vec<&Json>) =
        resp.iter().partition(|r| member(r, "shed") == "true");
    assert!(!shed.is_empty(), "a queue of 2 must shed under a 200-request burst");
    for r in &shed {
        assert_eq!(member(r, "verdict"), "\"inconclusive\"");
        assert!(member(r, "reason").starts_with("\"overloaded"), "{}", r.render_compact());
    }
    assert!(!served.is_empty(), "saturation must not starve every request");

    let log = std::fs::read_to_string(dir.join("overload-serve.ndjson")).expect("the event log");
    assert!(log.contains("drain complete"), "{log}");
    assert!(log.contains("0 poisoned connection(s)"), "{log}");
    assert!(log.contains("drain started: shutdown request"), "{log}");
}

/// Every fault the binary can be handed surfaces as a structured
/// diagnostic (exit 2), an inconclusive verdict (exit 3) or a contained,
/// warned-about degradation — never a panic, a hang or a wrong verdict.
#[test]
fn every_injected_fault_is_contained_with_its_exit_code() {
    let dir = scratch("faults");
    let fault = |name: &str, args: &[&str], stdin: &str, code: i32, pattern: &str| {
        canvas(&dir, args, stdin, &[("CANVAS_FAULT", name)]).expect(code, pattern);
    };
    let certify_fig3 = ["certify", "--spec", "cmp", FIG3];
    fault("truncate-input", &certify_fig3, "", 2, "error[client-frontend/parse]");
    fault("solver-abort", &certify_fig3, "", 2, "engine-panic");
    fault("budget-trip", &certify_fig3, "", 3, "inconclusive: injected budget-trip fault");
    canvas(&dir, &["certify", "--spec", "cmp", "--deadline-ms", "0", FIG3], "", &[])
        .expect(3, "wall-clock deadline exceeded");

    // populate the store, then reopen it torn: the cache warns, recovers
    // cold and still reports the same violations
    let cached = ["certify", "--spec", "cmp", "--whole-program", "--cache-dir", "store", FIG3];
    assert_eq!(canvas(&dir, &cached, "", &[]).code, 1);
    fault("cache-corrupt", &cached, "", 1, "error[cache/parse]");

    // queue-full sheds in-band; conn-drop and slow-client poison only their
    // own connection; the daemon always drains
    let script = [certify(1, NEXT_ON_EMPTY), cmd(2, "shutdown")].concat();
    let serve = ["serve", "--threads", "1", "--no-cache"];
    fault("queue-full", &serve, &script, 0, "\"reason\":\"overloaded: queue full\"");
    fault("conn-drop", &serve, &script, 0, "torn mid-response");
    fault("slow-client", &serve, &script, 0, "poisoning only this connection");

    // a fleet worker dies mid-corpus: only its shard is poisoned
    let gen = ["fleet", "gen", "--out", "fault.corpus", "--programs", "40", "--seed", "13"];
    canvas(&dir, &gen, "", &[]).expect(0, "manifest digest");
    let run = ["fleet", "run", "--corpus", "fault.corpus", "--shards", "4"];
    fault("shard-death", &run, "", 3, "1 poisoned programs, 1 dead shards");
}

/// The fleet pipeline end to end at `programs` programs: generation is
/// deterministic across thread counts, a cold 4-shard run certifies the
/// corpus (seeded with violations, so exit 1) with nothing poisoned, dead
/// or mistaken, a cold 1-shard run into a second store persists the same
/// certificate keys, and a warm run answers every cell from the store and
/// reproduces the cold corpus digest.
fn fleet_generates_certifies_and_rewarms(name: &str, programs: usize) {
    let dir = scratch(name);
    let n = programs.to_string();
    let gen = |out: &str, threads: &str| {
        let args = ["fleet", "gen", "--out", out, "--programs", &n, "--seed", "20020517"];
        let run = canvas(&dir, &[&args[..], &["--threads", threads]].concat(), "", &[]);
        run.expect(0, "manifest digest: ");
        run
    };
    let (one, two) = (gen("one.corpus", "1"), gen("two.corpus", "2"));
    assert_eq!(field(&one.stdout, "manifest digest: "), field(&two.stdout, "manifest digest: "));
    let manifest = |corpus: &str| {
        std::fs::read(dir.join(corpus).join("manifest.json")).expect("the corpus has a manifest")
    };
    assert!(manifest("one.corpus") == manifest("two.corpus"), "manifest.json differs");

    let run = ["fleet", "run", "--corpus", "one.corpus", "--shards", "4", "--cache-dir", "store"];
    let cold = canvas(&dir, &run, "", &[]);
    cold.expect(1, &format!("fleet: {n} programs"));
    cold.expect(
        1,
        &format!("0 poisoned programs, 0 dead shards, 0 truth mismatches ({n} checked)"),
    );
    // which worker solves a cell depends on the schedule; which cells the
    // store ends up holding does not
    let one = ["fleet", "run", "--corpus", "one.corpus", "--shards", "1", "--cache-dir", "store1"];
    canvas(&dir, &one, "", &[]).expect(1, "0 poisoned programs, 0 dead shards");
    let keys = |store: &str| -> Vec<String> {
        let text = std::fs::read_to_string(dir.join(store).join("certs.v2")).expect("a store");
        let mut keys: Vec<String> =
            text.lines().skip(1).filter_map(|l| Some(l.split_once(' ')?.0.to_string())).collect();
        keys.sort_unstable();
        keys
    };
    let four = keys("store");
    assert!(!four.is_empty(), "the cold run persisted certificates");
    assert_eq!(four, keys("store1"), "4-shard and 1-shard stores hold different keys");

    let warm = canvas(&dir, &run, "", &[]);
    let hits: u64 = field(&warm.stdout, "cache: ").parse().expect("a hit count");
    warm.expect(1, &format!("cache: {hits} hits, 0 misses, 0 delta-seeded"));
    assert_eq!(field(&cold.stdout, "corpus digest: "), field(&warm.stdout, "corpus digest: "));
}

/// The whitespace-delimited word after the first `label` in `text`.
fn field<'a>(text: &'a str, label: &str) -> &'a str {
    let at = text.find(label).unwrap_or_else(|| panic!("{label:?} in:\n{text}"));
    let word = text[at + label.len()..].split_whitespace().next().unwrap_or("");
    assert!(!word.is_empty(), "nothing after {label:?} in:\n{text}");
    word
}

#[test]
fn fleet_of_a_few_hundred_programs_rewarms_from_its_store() {
    fleet_generates_certifies_and_rewarms("fleet", 300);
}

/// The same scenario at CI scale (`cargo test --release --test cli_smoke
/// -- --ignored`).
#[test]
#[ignore = "10k programs: CI scale"]
fn fleet_of_10k_programs_rewarms_from_its_store() {
    fleet_generates_certifies_and_rewarms("fleet-10k", 10_000);
}

/// A reader that closed its end of stdout (`canvas derive … | head`) ends
/// the run quietly: no panic message, and the verb's own exit code.
#[test]
fn closed_stdout_is_not_a_panic() {
    let dir = scratch("closed-stdout");
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(CANVAS)
        .args(["derive", "--spec", "cmp"])
        .current_dir(&dir)
        .env_remove("CANVAS_FAULT")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run canvas");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// `canvas engines` lists the engine table in evaluation order, each with
/// its abstraction.
#[test]
fn engines_lists_the_engine_table() {
    let run = canvas(&scratch("engines"), &["engines"], "", &[]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    assert_eq!(
        run.stdout,
        "scmp-fds                   derived abstraction\n\
         scmp-relational            derived abstraction\n\
         scmp-interproc             derived abstraction\n\
         tvla-relational            derived abstraction\n\
         tvla-independent           derived abstraction\n\
         generic-ssg-relational     generic baseline\n\
         generic-ssg-independent    generic baseline\n\
         generic-allocsite          generic baseline\n"
    );
}

/// The one option parser: an unknown option, a missing operand and an
/// option the verb has no use for are each a usage error (exit 2).
#[test]
fn usage_errors_exit_2() {
    let dir = scratch("usage");
    let usage = |args: &[&str]| {
        let run = canvas(&dir, args, "", &[]);
        assert_eq!(run.code, 2, "canvas {args:?}: {}{}", run.stdout, run.stderr);
        assert!(!run.stderr.contains("panicked"), "{}", run.stderr);
    };
    // unknown options
    for verb in [
        &["derive"][..],
        &["certify"],
        &["check"],
        &["serve"],
        &["fleet", "gen"],
        &["fleet", "run"],
    ] {
        usage(&[verb, &["--no-such-option"]].concat());
    }
    usage(&["engines", "--no-such-option"]);
    // missing operands
    usage(&["certify", "--spec"]);
    usage(&["certify", "--spec", "cmp"]);
    usage(&["check", "--spec", "cmp", "only-a-cert"]);
    usage(&["serve", "--threads"]);
    usage(&["fleet", "gen", "--programs"]);
    usage(&["fleet", "gen"]);
    usage(&["fleet", "run", "--backend"]);
    usage(&["fleet"]);
    // options (and operands) the verb has no use for
    usage(&[
        "derive",
        "--spec",
        "cmp",
        "--emit-cert",
        "x",
        "--whole-program",
        "--cache-dir",
        "d",
        "bogus.mj",
    ]);
    usage(&["derive", "--whole-program"]);
    usage(&["derive", "bogus.mj"]);
    usage(&["check", "--engine", "scmp-fds", "a.cert", "a.mj"]);
    usage(&["serve", "--spec", "cmp"]);
    usage(&["fleet", "gen", "--out", "x", "--corpus", "y"]);
    usage(&["fleet", "run", "--corpus", "x", "--force"]);
    usage(&["certify", FIG3, FIG3]);
    // malformed values
    usage(&["serve", "--threads", "0"]);
    usage(&["serve", "--cache-bytes", "lots"]);
    usage(&["fleet", "gen", "--out", "x", "--violation-rate", "2"]);
    usage(&["certify", "--engine", "no-such-engine", FIG3]);
    usage(&["no-such-verb"]);
}
