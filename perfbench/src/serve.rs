//! `serve_tcp`: `canvas_incr::net::serve_listener` in-process on
//! 127.0.0.1:0 with one worker, loaded by one closed-loop client on one
//! connection that sends batches of `"certificate": true` certify requests,
//! drawn with replacement from a fleet corpus that a warm-up pass has put
//! in the store. NDJSON framing, request parsing, admission, the queue, the
//! socket and store hits do the work.
//!
//! One client sending batches, not two clients sending one request each:
//! on a 2-core VM, two client threads plus the server's reader and worker
//! threads contend for the cores, and the scheduler then set the
//! round-trip tail (its p99 swung from 0.7 to 3.2 ms between runs); one
//! client sending one request at a time instead paid a thread wake-up on an
//! idle core per hop, whose cost follows the host's load (throughput fell
//! from 3,000 to 1,700 requests/s within minutes). A batch wakes the
//! server's threads once per batch.
//!
//! The whole workload, client and server threads, runs on one CPU
//! ([`pin_to_one_cpu`]): a hand-off between threads is then a local context
//! switch, never a wake-up of an idle core (on a VM, a host round trip),
//! and the host-speed reference the client measures runs on the core that
//! does all the work.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use canvas_core::{CanvasError, Certifier};
use canvas_fleet::gen::GeneratedProgram;
use canvas_incr::fingerprint::Hasher64;
use canvas_incr::json::{obj, Json};
use canvas_incr::net::serve_listener;
use canvas_incr::service::ServeConfig;

use crate::host;
use crate::pipeline::check;
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use crate::util::{fleet_corpus, fp_str, peak_rss_mb, sorted, Args, Outcome, Rng};

/// Corpus size and set-up repetitions.
pub struct Config {
    pub programs: usize,
    pub setups: usize,
}

pub const BENCH: Config = Config { programs: 1000, setups: 9 };

/// Requests per batch. The client writes a batch in one write and reads
/// its responses, so the server's reader and worker threads wake once per
/// batch rather than once per request: on a VM, waking a thread on an idle
/// core costs a variable, host-dependent delay, which otherwise sets the
/// measured latency. With 32 (half the default admission queue, so nothing
/// is shed) a request's latency is mostly its wait behind the batch, which
/// server CPU time sets; with 8, the p99 of two back-to-back runs differed
/// by 9%, with 32 by 1%.
const BATCH: usize = 32;

/// Certificates the client checks after each batch, back to back, so the
/// check latency is sampled across the timed phase. With one, every timed
/// check came straight after a batch, and `check_p50_ms` spread by 0.22
/// over ten runs (quartile distance over median); with four, by 0.07.
const CHECKS_PER_BATCH: usize = 4;

struct Server {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), CanvasError>>,
}

impl Server {
    fn start() -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let config = ServeConfig { workers: 1, ..ServeConfig::default() };
        let handle = std::thread::spawn(move || serve_listener(listener, &config));
        Ok(Server { addr, handle })
    }

    /// Sends `shutdown` on a fresh connection and waits for the drain.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr)?;
        c.exchange("{\"id\":0,\"cmd\":\"shutdown\"}\n", &mut [String::new()])?;
        drop(c);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    /// Writes `requests` (one line per request) in one write, then reads
    /// one response line per entry of `responses`, returning each one's
    /// arrival time.
    fn exchange(
        &mut self,
        requests: &str,
        responses: &mut [String],
    ) -> Result<Vec<Instant>, String> {
        self.writer.write_all(requests.as_bytes()).map_err(|e| e.to_string())?;
        let mut arrived = Vec::with_capacity(responses.len());
        for response in responses.iter_mut() {
            response.clear();
            match self.reader.read_line(response) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => arrived.push(Instant::now()),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(arrived)
    }
}

/// Pins the calling thread, and every thread it starts from now on, to the
/// first CPU it may run on, and returns that CPU's number.
///
/// # Errors
///
/// When the affinity mask cannot be read or set.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // a `cpu_set_t`: one bit per CPU, 1,024 CPUs
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is writable and as long as the size passed; pid 0 is
    // the calling thread
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..mask.len() * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is readable and as long as the size passed
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Splits the `"certificate"` string out of a response line and unescapes
/// it. The rest of the line is small and goes through `Json::parse`; the
/// certificate is kept out of it because that parser re-validates the rest
/// of its input for every string character it copies, which on a whole
/// response would make the client, not the server, the bottleneck.
fn take_certificate(line: &str) -> Result<(String, Option<String>), String> {
    const KEY: &str = ",\"certificate\":\"";
    let Some(at) = line.find(KEY) else { return Ok((line.to_string(), None)) };
    let body = &line[at + KEY.len()..];
    let mut text = String::with_capacity(body.len());
    let mut chars = body.char_indices();
    while let Some((k, c)) = chars.next() {
        match c {
            '"' => return Ok((format!("{}{}", &line[..at], &body[k + 1..]), Some(text))),
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('n') => text.push('\n'),
                Some('r') => text.push('\r'),
                Some('t') => text.push('\t'),
                Some(e @ ('"' | '\\' | '/')) => text.push(e),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                    text.push(c.ok_or_else(|| format!("bad \\u escape {hex:?}"))?);
                }
                other => return Err(format!("bad escape {other:?} in certificate")),
            },
            c => text.push(c),
        }
    }
    Err("unterminated certificate string".to_string())
}

fn int(json: &Json, path: &[&str]) -> u64 {
    let mut node = json;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    if let Json::Int(n) = node {
        *n
    } else {
        0
    }
}

/// What one response said, after checking it against ground truth.
struct Answer {
    shed: bool,
    cert: Option<String>,
    total_ns: u64,
    parse_ns: u64,
    solve_ns: u64,
    hits: u64,
    misses: u64,
}

fn decode(program: &GeneratedProgram, line: &str) -> Result<Answer, String> {
    let (rest, cert) = take_certificate(line.trim_end())?;
    let json = Json::parse(&rest).map_err(|e| format!("{}: bad response: {e}", program.name))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{}: response not ok: {rest}", program.name));
    }
    let shed = json.get("shed") == Some(&Json::Bool(true));
    if !shed {
        let mut lines = Vec::new();
        if let Some(Json::Arr(vs)) = json.get("violations") {
            lines.extend(vs.iter().map(|v| int(v, &["line"]) as u32));
        }
        if sorted(lines.clone()) != program.expected {
            return Err(format!(
                "{}: wrong verdict: lines {lines:?}, expected {:?}",
                program.name, program.expected
            ));
        }
        if cert.is_none() {
            return Err(format!("{}: response without a certificate", program.name));
        }
    }
    Ok(Answer {
        shed,
        cert,
        total_ns: int(&json, &["stats", "total_ns"]),
        parse_ns: int(&json, &["stats", "phases", "parse_ns"]),
        solve_ns: int(&json, &["stats", "phases", "solve_ns"]),
        hits: int(&json, &["cache", "hits"]),
        misses: int(&json, &["cache", "misses"]),
    })
}

/// The measurements of one timed phase (untraced or traced). The raw
/// round trip and the samples after it are kept in the traced phase only.
#[derive(Default)]
struct Load {
    shed: u64,
    /// The round trip, host-normalised, in ms.
    verdict_ms: Samples,
    rtt_us: Samples,
    server_us: Samples,
    overhead_us: Samples,
    parse_us: Samples,
    solve_us: Samples,
    request_bytes: Samples,
    response_bytes: Samples,
    check_ms: Samples,
    hits: u64,
    misses: u64,
}

/// The warm-up pass: every program once, in batches. Returns each
/// program's certificate text and the pass's cache traffic.
fn warm_up(
    client: &mut Client,
    programs: &[GeneratedProgram],
    requests: &[String],
) -> Result<(Vec<String>, u64, u64), String> {
    let (mut certs, mut hits, mut misses) = (Vec::with_capacity(programs.len()), 0, 0);
    let mut lines = vec![String::new(); BATCH];
    for (ps, rs) in programs.chunks(BATCH).zip(requests.chunks(BATCH)) {
        client.exchange(&rs.concat(), &mut lines[..ps.len()])?;
        for (p, line) in ps.iter().zip(&lines) {
            let answer = decode(p, line)?;
            if answer.shed {
                return Err(format!("{}: shed during warm-up", p.name));
            }
            hits += answer.hits;
            misses += answer.misses;
            certs.push(answer.cert.unwrap_or_default());
        }
    }
    Ok((certs, hits, misses))
}

/// Runs the workload.
///
/// # Errors
///
/// A response that is not ok, a wrong verdict, a certificate that differs
/// between responses for the same program or that the checker rejects.
pub fn run(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    let (manifest, programs) = fleet_corpus(args.seed, cfg.programs)?;
    // after the corpus generator's threads, before the server's
    let cpu = pin_to_one_cpu()?;
    let requests: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut line = obj(vec![
                ("id", Json::Int(i as u64 + 1)),
                ("cmd", Json::Str("certify".to_string())),
                ("source", Json::Str(p.source.clone())),
                ("spec", Json::Str("cmp".to_string())),
                ("engine", Json::Str("scmp-fds".to_string())),
                ("certificate", Json::Bool(true)),
            ])
            .render_compact();
            line.push('\n');
            line
        })
        .collect();

    // set-up: start the server, connect, and warm the store with every
    // program once; the last of the repetitions serves the timed phase
    let mut setup = Samples::new();
    let mut running = None;
    for k in 0..cfg.setups {
        let (ready, secs) = host::timed(|| -> Result<_, String> {
            let server = Server::start()?;
            let mut client = Client::connect(server.addr)?;
            let warm = warm_up(&mut client, &programs, &requests)?;
            Ok((server, client, warm))
        });
        let (server, client, warm) = ready?;
        setup.push(secs);
        if k + 1 < cfg.setups {
            drop(client);
            server.stop()?;
        } else {
            running = Some((server, client, warm));
        }
    }
    let (server, mut client, (certs, warm_hits, warm_misses)) = running.ok_or("no set-up ran")?;

    let mut out = Outcome::default();
    let (mut traced_load, mut untraced_load) = (Load::default(), Load::default());
    let certifier = Certifier::from_spec(canvas_easl::builtin::cmp()).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(false);
    let mut rng = Rng::new(args.seed, 10);
    let mut windows = Windows::new();
    let mut lines = vec![String::new(); BATCH];
    for (traced, secs) in crate::phases(args) {
        tr.set_on(traced);
        let load = if traced { &mut traced_load } else { &mut untraced_load };
        windows.restart();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let picks: Vec<usize> = (0..BATCH).map(|_| rng.below(programs.len())).collect();
            let batch: String = picks.iter().map(|&i| requests[i].as_str()).collect();
            out.attempted += BATCH as u64;
            tr.next_op(out.attempted);
            let sent = Instant::now();
            let arrived = tr.time("serve.batch", || client.exchange(&batch, &mut lines))?;
            let mut decided = 0;
            for ((&i, line), at) in picks.iter().zip(&lines).zip(arrived) {
                let answer = tr.time("client.decode", || decode(&programs[i], line))?;
                if answer.shed {
                    out.failed += 1;
                    load.shed += 1;
                    continue;
                }
                if answer.cert.as_ref() != Some(&certs[i]) {
                    return Err(format!(
                        "{}: certificate differs from the warm-up's",
                        programs[i].name
                    ));
                }
                decided += 1;
                load.verdict_ms.push(windows.ms(at - sent));
                load.hits += answer.hits;
                load.misses += answer.misses;
                // the per-layer samples only where they are reported, so an
                // untraced run's memory does not grow with its request count
                if traced {
                    let rtt_us = (at - sent).as_secs_f64() * 1e6;
                    let server_us = answer.total_ns as f64 / 1e3;
                    load.rtt_us.push(rtt_us);
                    load.server_us.push(server_us);
                    load.overhead_us.push(rtt_us - server_us);
                    load.parse_us.push(answer.parse_ns as f64 / 1e3);
                    load.solve_us.push(answer.solve_ns as f64 / 1e3);
                    load.request_bytes.push(requests[i].len() as f64);
                    load.response_bytes.push(line.len() as f64);
                }
            }
            windows.add(decided);
            // the first certificates of the batch through the checker
            for &i in &picks[..CHECKS_PER_BATCH] {
                let t = Instant::now();
                check(&mut tr, &certifier, &programs[i].source, &certs[i])
                    .map_err(|e| format!("{}: {e}", programs[i].name))?;
                load.check_ms.push(windows.ms(t.elapsed()));
                windows.exclude(t.elapsed());
            }
        }
    }
    tr.set_on(false);
    drop(client);
    server.stop()?;

    // every program's certificate through the trusted checker
    let (mut cert_bytes, mut digest) = (0u64, Hasher64::new());
    for (p, text) in programs.iter().zip(&certs) {
        let checked =
            check(&mut tr, &certifier, &p.source, text).map_err(|e| format!("{}: {e}", p.name))?;
        if sorted(checked.violations.iter().map(|v| v.line).collect()) != p.expected {
            return Err(format!("{}: the checker confirms other violations than expected", p.name));
        }
        cert_bytes += text.len() as u64;
        digest.write_str(&p.name);
        digest.write_u64(fp_str(text));
    }
    let n = programs.len();
    let cert_bytes_mean = cert_bytes as f64 / n as f64;
    out.notes.push(format!("pinned: client and server threads ran on CPU {cpu}"));
    out.det("corpus_digest", manifest.digest);
    out.det("programs", n);
    out.det("warm_up_hits", warm_hits);
    out.det("warm_up_misses", warm_misses);
    out.det("cert_bytes_per_verdict", format!("{cert_bytes_mean:.4}"));
    out.det("verdict_digest", digest.finish());

    if args.trace {
        let load = &traced_load;
        let served = load.rtt_us.len();
        let [rtt50, rtt99] = load.rtt_us.p50_p99("serve.rtt_p50_us", "serve.rtt_p99_us", "us")?;
        out.metrics.extend([rtt50, rtt99]);
        out.metric("serve.server_us", load.server_us.mean(), "us", served);
        out.metric(
            "serve.overhead_us",
            load.overhead_us.percentile(0.5, "serve overhead")?,
            "us",
            served,
        );
        out.metric("serve.request_bytes", load.request_bytes.mean(), "bytes", served);
        out.metric("serve.response_bytes", load.response_bytes.mean(), "bytes", served);
        out.metric("serve.shed", load.shed as f64, "count", served + load.shed as usize);
        out.metric("serve.solve_us", load.solve_us.mean(), "us", served);
        out.notes.push(format!(
            "sanity serve.solve_us = {:.2} us of serve.server_us = {:.1} us: the store answers, \
             nothing is solved",
            load.solve_us.mean(),
            load.server_us.mean()
        ));
        out.metric("minijava.parse_us", load.parse_us.mean(), "us", served);
        out.metric("abstraction.cert_bytes", cert_bytes_mean, "bytes", n);
        let layers = tr.layers();
        let checks = load.check_ms.len();
        let per_check = |name: &str| tr.us_per_call(&layers, name);
        out.metric("check.cert_parse_us", per_check("check.cert_parse"), "us", checks);
        out.metric("check.replay_us", per_check("check.replay"), "us", checks);
        out.metric("incr.hits", load.hits as f64, "count", served);
        out.metric("incr.misses", load.misses as f64, "count", served);
        let ratio = load.hits as f64 / (load.hits + load.misses).max(1) as f64;
        out.metric("incr.hit_ratio", ratio, "ratio", served);
        let derive_ms = {
            let t0 = Instant::now();
            canvas_wp::derive_abstraction(&canvas_easl::builtin::cmp())
                .map_err(|e| e.to_string())?;
            t0.elapsed().as_secs_f64() * 1e3
        };
        out.metric("wp.derive_ms", derive_ms, "ms", 1);
        let overhead = load.verdict_ms.percentile(0.5, "traced round trip")?
            / untraced_load.verdict_ms.percentile(0.5, "untraced round trip")?;
        out.metric("trace.overhead_ratio", overhead, "ratio", served);
        out.spans = Some(tr);
    } else {
        out.end_to_end(
            &untraced_load.verdict_ms,
            &untraced_load.check_ms,
            &setup,
            &windows,
            cert_bytes_mean,
            n,
        )?;
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificates_survive_the_response_encoding() {
        let cert = "canvas-cert/1\nengine \"scmp-fds\"\tspec cmp\\\u{1}\n";
        let line = obj(vec![
            ("id", Json::Int(3)),
            ("ok", Json::Bool(true)),
            ("certificate", Json::Str(cert.to_string())),
            ("cache", obj(vec![("hits", Json::Int(2))])),
        ])
        .render_compact();
        let (rest, text) = take_certificate(&line).expect("decodes");
        assert_eq!(text.as_deref(), Some(cert));
        let json = Json::parse(&rest).expect("the rest is JSON");
        assert_eq!(int(&json, &["cache", "hits"]), 2);
        assert!(json.get("certificate").is_none());
        assert_eq!(take_certificate("{\"ok\":true}").expect("no cert").1, None);
        assert!(take_certificate("{\"ok\":true,\"certificate\":\"abc").is_err());
    }
}
