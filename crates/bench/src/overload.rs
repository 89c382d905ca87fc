//! E14: overload behavior of the `canvas serve` TCP front-end.
//!
//! A deterministic recorded request mix — mixed tenants, mixed cold/warm
//! programs, an LCG-fixed arrival order — is replayed *open-loop* (requests
//! are sent on a wall-clock schedule regardless of response progress, like
//! real clients) against an in-process [`canvas_incr::net::serve_listener`]
//! bound to a loopback port. The same mix runs at 1x, 4x, and 16x the
//! calibrated service capacity; each point reports offered load, shed
//! rate, admitted-request latency quantiles, throughput, and the
//! certificate cache's hit/occupancy counters scraped in-band.
//!
//! Wall-clock numbers are measured, never baseline-gated. The `--gate`
//! mode enforces the *robustness shape* instead: at 1x the daemon sheds
//! (almost) nothing; at 16x it sheds deterministically-in-band rather
//! than queueing without bound, the p99 of *admitted* requests stays
//! within the bounded queue's worth of service times, and the hot cache
//! never exceeds its byte budget.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use canvas_incr::json::{bench_document, obj, Json};
use canvas_incr::net::serve_listener;
use canvas_incr::service::ServeConfig;

/// Worker pool size of the daemon under test.
pub const WORKERS: usize = 2;
/// Bounded queue capacity of the daemon under test.
pub const QUEUE_CAP: usize = 8;
/// Hot-tier byte budget of the daemon under test.
pub const CACHE_BYTES: u64 = 64 * 1024;
/// Requests per load point.
pub const REQUESTS_PER_POINT: usize = 120;
/// Load multipliers swept, relative to the calibrated capacity.
pub const LOADS: [u64; 3] = [1, 4, 16];

/// One load point of the sweep.
#[derive(Clone, Debug)]
pub struct OverloadPoint {
    /// Load multiplier (1, 4, 16).
    pub load: u64,
    /// Requests sent.
    pub offered: u64,
    /// Requests answered with a real verdict (admitted and finished).
    pub admitted: u64,
    /// Requests answered in-band with `shed: true`.
    pub shed: u64,
    /// Median round-trip of admitted requests (a log₂-histogram estimate,
    /// within a factor of 2 of the exact value).
    pub p50: Duration,
    /// 99th-percentile round-trip of admitted requests (same estimate).
    pub p99: Duration,
    /// Wall-clock of the whole point (first send to last response).
    pub wall: Duration,
    /// `memory_bytes` of the hot cache tier, scraped after the point.
    pub cache_bytes: u64,
    /// Cache hits scraped after the point (cumulative for the daemon).
    pub cache_hits: u64,
    /// Cache misses scraped after the point (cumulative for the daemon).
    pub cache_misses: u64,
    /// Cache evictions scraped after the point (cumulative for the daemon).
    pub cache_evictions: u64,
}

/// The full E14 report.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Calibrated mean service time of one cold certify.
    pub service: Duration,
    /// The swept points, one per entry of [`LOADS`].
    pub points: Vec<OverloadPoint>,
}

/// One client program variant. Certificate cache keys fingerprint the
/// canonical *IR*, so variants must differ structurally: the statement
/// counts (not literals) encode both the load point and the variant slot.
/// `load` extra `add` calls make higher load points work harder per
/// request; the variant slot walks 31 distinct `next()` counts, so ~3/4
/// of a 120-request point re-hits a structure it already certified — the
/// cold/warm mix.
fn variant_source(load: u64, variant: usize) -> String {
    let adds = "s.add(\\\"x\\\"); ".repeat(load.max(1) as usize);
    let nexts = "i.next(); ".repeat(1 + variant);
    format!(
        "class Main {{ static void main() {{ Set s = new Set(); {adds}\
         Iterator i = s.iterator(); {nexts}}} }}"
    )
}

/// The variant slot for request `k`: a fixed LCG walk over 31 structures.
fn variant_slot(k: usize) -> usize {
    (k.wrapping_mul(7919).wrapping_add(17)) % 31
}

/// The deterministic request mix for one load point: tenants rotate, the
/// program variant walks the LCG.
fn mix_line(load: u64, k: usize) -> String {
    let tenants = ["acme", "blue", "cyan", "dune"];
    format!(
        "{{\"id\":{k},\"cmd\":\"certify\",\"source\":\"{}\",\"tenant\":\"{}\"}}",
        variant_source(load, variant_slot(k)),
        tenants[k % 4]
    )
}

fn scrape_cache(
    reader: &mut impl BufRead,
    stream: &mut TcpStream,
) -> Result<(u64, u64, u64, u64), String> {
    writeln!(stream, "{{\"id\":0,\"cmd\":\"stats\"}}").map_err(|e| e.to_string())?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let doc = Json::parse(&line).map_err(|e| format!("stats response: {e}"))?;
    let cache = doc.get("cache").ok_or("stats response has no cache object")?;
    let int = |k: &str| match cache.get(k) {
        Some(Json::Int(n)) => Ok(*n),
        other => Err(format!("stats cache.{k}: {other:?}")),
    };
    Ok((int("memory_bytes")?, int("hits")?, int("misses")?, int("evictions")?))
}

/// Runs the full sweep against an in-process daemon on a loopback port.
///
/// # Errors
///
/// A human-readable message when the harness itself fails (bind, connect,
/// or protocol violations); overload responses are *data*, not errors.
pub fn collect_overload() -> Result<OverloadReport, String> {
    let config = ServeConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        cache_bytes: Some(CACHE_BYTES),
        default_deadline_ms: Some(10_000),
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let server = std::thread::spawn(move || serve_listener(listener, &config));

    let result = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        // without NODELAY the one-line request/response pattern trips
        // Nagle-vs-delayed-ACK and every round trip costs ~40ms
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);

        // calibration: closed-loop replay of the same variant-size
        // distribution the load points use (at load 1), so the measured
        // mean matches the offered work
        let calib_n = 24usize;
        let calib_start = Instant::now();
        for k in 0..calib_n {
            writeln!(stream, "{}", mix_line(1, k)).map_err(|e| e.to_string())?;
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
        }
        let service = calib_start.elapsed() / calib_n as u32;
        let service = service.max(Duration::from_micros(50));

        let mut points = Vec::new();
        for load in LOADS {
            // capacity ≈ workers/service; "1x" targets 60% utilization so
            // the gate at 1x is not sitting exactly on the knife edge
            let interval = Duration::from_nanos(
                (service.as_nanos() as f64 / (0.6 * WORKERS as f64 * load as f64)) as u64,
            );
            let n = REQUESTS_PER_POINT;
            let start = Instant::now();
            let latency = canvas_telemetry::Histogram::new("overload.admitted_latency_ns");
            let mut shed = 0u64;
            // open loop: the sender keeps its arrival schedule regardless
            // of response progress; send timestamps flow to the reader
            // over a channel (responses come back in request order)
            let (ts_tx, ts_rx) = std::sync::mpsc::channel::<Instant>();
            let mut wstream = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
            std::thread::scope(|scope| -> Result<(), String> {
                let sender = scope.spawn(move || -> Result<(), String> {
                    for k in 0..n {
                        let due = start + interval * k as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        ts_tx.send(Instant::now()).map_err(|e| e.to_string())?;
                        writeln!(wstream, "{}", mix_line(load, k)).map_err(|e| e.to_string())?;
                    }
                    Ok(())
                });
                for _ in 0..n {
                    let sent = ts_rx.recv().map_err(|_| "sender died mid-point".to_string())?;
                    let mut line = String::new();
                    reader.read_line(&mut line).map_err(|e| e.to_string())?;
                    let arrived = Instant::now();
                    if line.contains("\"shed\":true") {
                        shed += 1;
                    } else {
                        let rtt = arrived.saturating_duration_since(sent).as_nanos();
                        latency.record_value(rtt.min(u128::from(u64::MAX)) as u64);
                    }
                }
                sender.join().map_err(|_| "sender panicked".to_string())?
            })?;
            let wall = start.elapsed();
            let stat = latency.stat();
            let (cache_bytes, cache_hits, cache_misses, cache_evictions) =
                scrape_cache(&mut reader, &mut stream)?;
            points.push(OverloadPoint {
                load,
                offered: n as u64,
                admitted: stat.count,
                shed,
                p50: Duration::from_nanos(stat.p50),
                p99: Duration::from_nanos(stat.p99),
                wall,
                cache_bytes,
                cache_hits,
                cache_misses,
                cache_evictions,
            });
        }
        writeln!(stream, "{{\"id\":0,\"cmd\":\"shutdown\"}}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        Ok(OverloadReport { service, points })
    })();

    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("serve loop failed: {e}")),
        Err(_) => return Err("serve loop panicked".to_string()),
    }
    result
}

/// Gate violations for `--gate` mode; empty = pass.
pub fn gate_overload(r: &OverloadReport) -> Vec<String> {
    let mut fails = Vec::new();
    for p in &r.points {
        if p.admitted + p.shed != p.offered {
            fails.push(format!(
                "{}x: {} admitted + {} shed != {} offered (a response went missing)",
                p.load, p.admitted, p.shed, p.offered
            ));
        }
        if p.cache_bytes > CACHE_BYTES {
            fails.push(format!(
                "{}x: hot cache occupancy {} exceeds the {CACHE_BYTES}-byte budget",
                p.load, p.cache_bytes
            ));
        }
    }
    if let Some(p1) = r.points.iter().find(|p| p.load == 1) {
        // ≤ 2% shed at nominal load
        if p1.shed * 50 > p1.offered {
            fails.push(format!(
                "1x: shed {} of {} offered (expected ~0 at nominal load)",
                p1.shed, p1.offered
            ));
        }
    }
    if let Some(p16) = r.points.iter().find(|p| p.load == 16) {
        if p16.shed == 0 {
            fails.push("16x: nothing shed at 16x offered load (queue must be unbounded?)".into());
        }
        // admitted requests wait at most ~(queue+workers) service times;
        // the factor-8 slack absorbs scheduling noise on shared CI
        let bound = r.service * ((QUEUE_CAP + WORKERS) as u32) * 8;
        if p16.p99 > bound {
            fails.push(format!(
                "16x: admitted p99 {:?} exceeds the bounded-queue ceiling {:?} (service {:?})",
                p16.p99, bound, r.service
            ));
        }
    }
    fails
}

/// The stable `canvas-bench-eval/2` document (integers only). The daemon
/// configuration and the offered counts are deterministic; everything the
/// schedule decides (admission, shedding, latency, cache traffic) is
/// measured.
pub fn overload_to_json(r: &OverloadReport) -> Json {
    let ns = |d: Duration| Json::Int(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    let offered = r
        .points
        .iter()
        .map(|p| obj(vec![("load", Json::Int(p.load)), ("offered", Json::Int(p.offered))]))
        .collect();
    let points = r
        .points
        .iter()
        .map(|p| {
            let throughput_rps = if p.wall.is_zero() {
                0
            } else {
                (p.admitted as u128 * 1_000_000_000 / p.wall.as_nanos().max(1)) as u64
            };
            // integer-only schema: the shed *rate* ships as per-10000
            let shed_per_10000 = (p.shed * 10_000).checked_div(p.offered).unwrap_or(0);
            obj(vec![
                ("load", Json::Int(p.load)),
                ("admitted", Json::Int(p.admitted)),
                ("shed", Json::Int(p.shed)),
                ("shed_per_10000", Json::Int(shed_per_10000)),
                ("p50_ns", ns(p.p50)),
                ("p99_ns", ns(p.p99)),
                ("wall_ns", ns(p.wall)),
                ("throughput_rps", Json::Int(throughput_rps)),
                (
                    "cache",
                    obj(vec![
                        ("memory_bytes", Json::Int(p.cache_bytes)),
                        ("hits", Json::Int(p.cache_hits)),
                        ("misses", Json::Int(p.cache_misses)),
                        ("evictions", Json::Int(p.cache_evictions)),
                    ]),
                ),
            ])
        })
        .collect();
    bench_document(
        obj(vec![
            ("workers", Json::Int(WORKERS as u64)),
            ("queue", Json::Int(QUEUE_CAP as u64)),
            ("cache_budget_bytes", Json::Int(CACHE_BYTES)),
            ("points", Json::Arr(offered)),
        ]),
        obj(vec![("service_ns", ns(r.service)), ("points", Json::Arr(points))]),
    )
}

/// E14 as text.
pub fn render_overload(r: &OverloadReport) -> String {
    use std::fmt::Write as _;
    let mut out = crate::render_header(
        "E14: serve overload sweep (open-loop replay; admission control + shedding)",
    );
    let _ = writeln!(
        out,
        "daemon: {WORKERS} worker(s), queue {QUEUE_CAP}, cache budget {CACHE_BYTES} bytes; \
         calibrated service {}",
        crate::fmt_duration(r.service)
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>9} {:>6} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "load", "offered", "admitted", "shed", "shed%", "p50", "p99", "cache-bytes", "hit-rate"
    );
    for p in &r.points {
        let lookups = p.cache_hits + p.cache_misses;
        let hit_rate = (p.cache_hits * 100).checked_div(lookups).unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>4}x {:>8} {:>9} {:>6} {:>7}% {:>10} {:>10} {:>12} {:>9}%",
            p.load,
            p.offered,
            p.admitted,
            p.shed,
            p.shed * 100 / p.offered.max(1),
            crate::fmt_duration(p.p50),
            crate::fmt_duration(p.p99),
            p.cache_bytes,
            hit_rate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(load: u64, admitted: u64, shed: u64, p99_ms: u64) -> OverloadPoint {
        OverloadPoint {
            load,
            offered: admitted + shed,
            admitted,
            shed,
            p50: Duration::from_millis(1),
            p99: Duration::from_millis(p99_ms),
            wall: Duration::from_millis(100),
            cache_bytes: CACHE_BYTES / 2,
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 0,
        }
    }

    /// The document and the gate are built from a hand-made report, so no
    /// socket is opened.
    #[test]
    fn overload_document_splits_offered_from_measured_and_gates() {
        let report = OverloadReport {
            service: Duration::from_millis(1),
            points: vec![point(1, 120, 0, 2), point(4, 100, 20, 5), point(16, 40, 80, 9)],
        };
        assert!(gate_overload(&report).is_empty(), "{:?}", gate_overload(&report));
        let doc = overload_to_json(&report);
        crate::tests::assert_bench_envelope(&doc);
        let det = doc.get("deterministic").expect("deterministic section").render_compact();
        assert!(det.contains("{\"load\":16,\"offered\":120}"), "{det}");
        assert!(!det.contains("admitted") && !det.contains("service"), "{det}");
        // an unbounded admitted p99 at 16x breaks the gate
        let slow = OverloadReport { points: vec![point(16, 40, 80, 1_000)], ..report };
        assert!(gate_overload(&slow)[0].contains("bounded-queue ceiling"));
    }
}
