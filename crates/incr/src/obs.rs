//! The live observability surface of `canvas serve`.
//!
//! [`ServeMetrics`] aggregates per-verb request counts, error counts, and
//! latency histograms (instance [`Histogram`]s — they live with the daemon,
//! not in the process-global telemetry registry), plus worker utilization,
//! queue depth, and certification outcome counters. The `metrics` verb
//! renders it all as Prometheus text exposition ([`ServeMetrics::prometheus`]),
//! joined with the shared certificate store's hit/miss/occupancy counters
//! and the structured-log drop counter; the `health` verb answers a cheap
//! liveness probe from the same state.
//!
//! The exposition's *layout* is deterministic (every family and every verb
//! row is always emitted, zero-valued or not, in a fixed order) so the CI
//! obs-smoke job can golden-check it; the *values* for counters are exact
//! and latency quantiles come from the log₂ histograms' rank-interpolated
//! p50/p90/p99 estimates.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use canvas_telemetry::Histogram;

use crate::store::CertCache;

/// The request verbs tracked by the exposition, fixed order. `invalid`
/// accounts for lines that failed to parse as any verb.
pub const VERBS: [&str; 6] = ["certify", "stats", "metrics", "health", "shutdown", "invalid"];

struct VerbMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl VerbMetrics {
    const fn new(name: &'static str) -> VerbMetrics {
        VerbMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::new(name),
        }
    }
}

/// Live counters of one serve loop (shared across its worker pool).
pub struct ServeMetrics {
    started: Instant,
    workers: u64,
    queue_cap: u64,
    queue: AtomicU64,
    busy: AtomicU64,
    inconclusive: AtomicU64,
    delta_seeded: AtomicU64,
    shed: AtomicU64,
    deadline_shed: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    conns_poisoned: AtomicU64,
    requests_poisoned: AtomicU64,
    verbs: [VerbMetrics; VERBS.len()],
}

impl ServeMetrics {
    /// Fresh metrics for a serve loop with `workers` pool threads over a
    /// bounded queue of `queue_cap` slots.
    pub fn new(workers: usize, queue_cap: usize) -> ServeMetrics {
        ServeMetrics {
            started: Instant::now(),
            workers: workers as u64,
            queue_cap: queue_cap as u64,
            queue: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            inconclusive: AtomicU64::new(0),
            delta_seeded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            conns_opened: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            conns_poisoned: AtomicU64::new(0),
            requests_poisoned: AtomicU64::new(0),
            verbs: [
                VerbMetrics::new("serve.certify"),
                VerbMetrics::new("serve.stats"),
                VerbMetrics::new("serve.metrics"),
                VerbMetrics::new("serve.health"),
                VerbMetrics::new("serve.shutdown"),
                VerbMetrics::new("serve.invalid"),
            ],
        }
    }

    /// The index of a verb name in [`VERBS`] (`invalid` for unknown names).
    pub fn verb_index(verb: &str) -> usize {
        VERBS.iter().position(|v| *v == verb).unwrap_or(VERBS.len() - 1)
    }

    /// A request was accepted off the input stream.
    pub fn enqueued(&self) {
        self.queue.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked a request up: counts it under its verb immediately,
    /// so a `metrics` scrape sees itself and everything picked up before it.
    pub fn begin(&self, verb: &str) {
        self.busy.fetch_add(1, Ordering::Relaxed);
        self.verbs[ServeMetrics::verb_index(verb)].requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker finished a request: records the error flag and latency, and
    /// releases the queue/busy slots.
    pub fn finish(&self, verb: &str, elapsed: Duration, is_error: bool) {
        let v = &self.verbs[ServeMetrics::verb_index(verb)];
        if is_error {
            v.errors.fetch_add(1, Ordering::Relaxed);
        }
        v.latency.record_value(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.busy.fetch_sub(1, Ordering::Relaxed);
        self.queue.fetch_sub(1, Ordering::Relaxed);
    }

    /// A certify request ended inconclusive (budget exhaustion, engine
    /// panic degraded to a contained verdict, ...).
    pub fn note_inconclusive(&self) {
        self.inconclusive.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds delta-seeded cell count from one request's cache traffic.
    pub fn add_delta_seeded(&self, n: u64) {
        if n > 0 {
            self.delta_seeded.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A certify request was shed at admission (queue full / tenant budget).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted certify was shed at pickup: its deadline expired queued.
    pub fn note_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A client connection was accepted (or the stdio session started).
    pub fn conn_opened(&self) {
        self.conns_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A client connection reader finished.
    pub fn conn_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A write failure poisoned one connection; everything else lives on.
    pub fn note_conn_poisoned(&self) {
        self.conns_poisoned.fetch_add(1, Ordering::Relaxed);
    }

    /// A handler panic was contained to its request.
    pub fn note_request_poisoned(&self) {
        self.requests_poisoned.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests handled across every verb (including sheds).
    pub fn requests_total(&self) -> u64 {
        self.verbs.iter().map(|v| v.requests.load(Ordering::Relaxed)).sum()
    }

    /// Certify requests shed at admission.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Admitted certify requests shed at pickup on an expired deadline.
    pub fn deadline_shed_total(&self) -> u64 {
        self.deadline_shed.load(Ordering::Relaxed)
    }

    /// Connections poisoned by a failed or timed-out write.
    pub fn conns_poisoned(&self) -> u64 {
        self.conns_poisoned.load(Ordering::Relaxed)
    }

    /// Connections currently open (opened minus closed).
    pub fn conns_open(&self) -> u64 {
        self.conns_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }

    /// Milliseconds since the serve loop started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Configured worker-pool size.
    pub fn workers(&self) -> u64 {
        self.workers
    }

    /// Requests currently being handled by workers.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Requests accepted but not yet answered (includes the busy ones).
    pub fn queue_depth(&self) -> u64 {
        self.queue.load(Ordering::Relaxed)
    }

    /// Renders the full Prometheus text exposition, joining the verb/pool
    /// counters with `cache`'s store-wide traffic and occupancy.
    pub fn prometheus(&self, cache: &CertCache) -> String {
        let mut out = String::with_capacity(4096);
        let secs = |ns: u64| ns as f64 / 1e9;
        let o = &mut out;
        family(
            o,
            "canvas_serve_uptime_seconds",
            "gauge",
            "Seconds since the serve loop started.",
            format_args!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        family(o, "canvas_serve_workers", "gauge", "Configured worker-pool size.", self.workers);
        family(
            o,
            "canvas_serve_workers_busy",
            "gauge",
            "Workers currently handling a request.",
            self.busy(),
        );
        family(
            o,
            "canvas_serve_queue_depth",
            "gauge",
            "Requests accepted but not yet answered.",
            self.queue_depth(),
        );
        family(
            o,
            "canvas_serve_queue_capacity",
            "gauge",
            "Bounded admission queue capacity.",
            self.queue_cap,
        );
        header(o, "canvas_serve_requests_total", "counter", "Requests handled, by verb.");
        for (name, v) in VERBS.iter().zip(&self.verbs) {
            let n = v.requests.load(Ordering::Relaxed);
            let _ = writeln!(o, "canvas_serve_requests_total{{verb=\"{name}\"}} {n}");
        }
        header(o, "canvas_serve_errors_total", "counter", "Requests answered ok=false, by verb.");
        for (name, v) in VERBS.iter().zip(&self.verbs) {
            let n = v.errors.load(Ordering::Relaxed);
            let _ = writeln!(o, "canvas_serve_errors_total{{verb=\"{name}\"}} {n}");
        }
        header(
            o,
            "canvas_serve_request_latency_seconds",
            "summary",
            "Request latency summary, by verb (log2-histogram quantile estimates).",
        );
        for (name, v) in VERBS.iter().zip(&self.verbs) {
            let s = v.latency.stat();
            for (q, est) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(
                    o,
                    "canvas_serve_request_latency_seconds{{verb=\"{name}\",quantile=\"{q}\"}} {:.9}",
                    secs(est)
                );
            }
            let _ = writeln!(
                o,
                "canvas_serve_request_latency_seconds_sum{{verb=\"{name}\"}} {:.9}",
                secs(s.sum)
            );
            let _ = writeln!(
                o,
                "canvas_serve_request_latency_seconds_count{{verb=\"{name}\"}} {}",
                s.count
            );
        }
        family(
            o,
            "canvas_serve_inconclusive_total",
            "counter",
            "Certify requests that ended inconclusive.",
            self.inconclusive.load(Ordering::Relaxed),
        );
        family(
            o,
            "canvas_serve_delta_seeded_total",
            "counter",
            "Cells re-solved from a stale fixpoint seed.",
            self.delta_seeded.load(Ordering::Relaxed),
        );
        family(
            o,
            "canvas_serve_shed_total",
            "counter",
            "Certify requests shed at admission (queue full or tenant budget exhausted).",
            self.shed_total(),
        );
        family(
            o,
            "canvas_serve_deadline_total",
            "counter",
            "Admitted certify requests shed at pickup on an expired deadline.",
            self.deadline_shed_total(),
        );
        family(
            o,
            "canvas_serve_connections_open",
            "gauge",
            "Client connections currently open.",
            self.conns_open(),
        );
        family(
            o,
            "canvas_serve_connections_poisoned_total",
            "counter",
            "Connections poisoned by a failed or timed-out write.",
            self.conns_poisoned(),
        );
        family(
            o,
            "canvas_serve_requests_poisoned_total",
            "counter",
            "Handler panics contained to their request.",
            self.requests_poisoned.load(Ordering::Relaxed),
        );
        let stats = cache.stats();
        family(
            o,
            "canvas_serve_cache_hits_total",
            "counter",
            "Cells answered from the certificate store.",
            stats.hits,
        );
        family(
            o,
            "canvas_serve_cache_misses_total",
            "counter",
            "Cells that ran fresh.",
            stats.misses,
        );
        family(
            o,
            "canvas_serve_cache_stores_total",
            "counter",
            "Certificates written to the store.",
            stats.stores,
        );
        family(
            o,
            "canvas_serve_cache_invalidations_total",
            "counter",
            "Stale entries displaced by a changed key.",
            stats.invalidations,
        );
        family(
            o,
            "canvas_serve_cache_entries",
            "gauge",
            "Certificates currently resident in the store.",
            cache.len(),
        );
        family(
            o,
            "canvas_serve_cache_evictions_total",
            "counter",
            "Hot-tier certificates evicted by the byte budget.",
            stats.evictions,
        );
        family(
            o,
            "canvas_serve_cache_spill_hits_total",
            "counter",
            "Lookups answered from the spill tier after a hot-tier eviction.",
            stats.spill_hits,
        );
        family(
            o,
            "canvas_serve_cache_bytes",
            "gauge",
            "Byte occupancy of the hot in-memory certificate tier.",
            cache.memory_bytes(),
        );
        family(
            o,
            "canvas_serve_cache_budget_bytes",
            "gauge",
            "Configured hot-tier byte budget (0 = unbounded).",
            cache.budget_bytes().unwrap_or(0),
        );
        let lookups = stats.hits + stats.misses;
        let ratio = if lookups == 0 { 0.0 } else { stats.hits as f64 / lookups as f64 };
        family(
            o,
            "canvas_serve_cache_hit_ratio",
            "gauge",
            "Hits over lookups since the store opened.",
            format_args!("{ratio:.4}"),
        );
        family(
            o,
            "canvas_serve_log_events_dropped_total",
            "counter",
            "Structured-log records dropped from the ring buffer.",
            canvas_telemetry::events::dropped(),
        );
        out
    }
}

/// Writes a metric family's `# HELP` and `# TYPE` lines.
fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes a single-value metric family: its header and its one sample.
fn family(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
    header(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_layout_is_complete_and_ordered() {
        let m = ServeMetrics::new(3, 64);
        m.enqueued();
        m.begin("certify");
        m.finish("certify", Duration::from_micros(250), false);
        m.enqueued();
        m.begin("nonsense");
        m.finish("nonsense", Duration::from_micros(10), true);
        m.note_inconclusive();
        m.add_delta_seeded(2);
        m.note_shed();
        m.note_deadline_shed();
        m.conn_opened();
        let cache = CertCache::in_memory();
        let text = m.prometheus(&cache);
        assert!(text.contains("canvas_serve_workers 3\n"), "{text}");
        assert!(text.contains("canvas_serve_queue_capacity 64\n"), "{text}");
        assert!(text.contains("canvas_serve_shed_total 1\n"), "{text}");
        assert!(text.contains("canvas_serve_deadline_total 1\n"), "{text}");
        assert!(text.contains("canvas_serve_connections_open 1\n"), "{text}");
        assert!(text.contains("canvas_serve_connections_poisoned_total 0\n"), "{text}");
        assert!(text.contains("canvas_serve_requests_poisoned_total 0\n"), "{text}");
        assert!(text.contains("canvas_serve_cache_evictions_total 0\n"), "{text}");
        assert!(text.contains("canvas_serve_cache_bytes 0\n"), "{text}");
        assert!(text.contains("canvas_serve_cache_budget_bytes 0\n"), "{text}");
        assert!(text.contains("canvas_serve_requests_total{verb=\"certify\"} 1\n"), "{text}");
        assert!(text.contains("canvas_serve_requests_total{verb=\"invalid\"} 1\n"), "{text}");
        assert!(text.contains("canvas_serve_errors_total{verb=\"invalid\"} 1\n"), "{text}");
        assert!(text.contains("canvas_serve_inconclusive_total 1\n"), "{text}");
        assert!(text.contains("canvas_serve_delta_seeded_total 2\n"), "{text}");
        assert!(text.contains("canvas_serve_cache_hit_ratio 0.0000\n"), "{text}");
        // every verb gets all three quantiles plus sum and count
        for verb in VERBS {
            for q in ["0.5", "0.9", "0.99"] {
                let line = format!(
                    "canvas_serve_request_latency_seconds{{verb=\"{verb}\",quantile=\"{q}\"}} "
                );
                assert!(text.contains(&line), "missing {line} in {text}");
            }
            assert!(text.contains(&format!(
                "canvas_serve_request_latency_seconds_count{{verb=\"{verb}\"}} "
            )));
        }
        // quantile estimate for the one certify sample sits in its bucket
        let p50 = text
            .lines()
            .find(|l| {
                l.starts_with(
                    "canvas_serve_request_latency_seconds{verb=\"certify\",quantile=\"0.5\"}",
                )
            })
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .expect("p50 line parses");
        assert!((125e-6..=500e-6).contains(&p50), "250µs sample, got {p50}");
        // queue drained
        assert!(text.contains("canvas_serve_queue_depth 0\n"), "{text}");
        assert!(text.contains("canvas_serve_workers_busy 0\n"), "{text}");
        // every family, once each, in the fixed order
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let expected = [
            "# TYPE canvas_serve_uptime_seconds gauge",
            "# TYPE canvas_serve_workers gauge",
            "# TYPE canvas_serve_workers_busy gauge",
            "# TYPE canvas_serve_queue_depth gauge",
            "# TYPE canvas_serve_queue_capacity gauge",
            "# TYPE canvas_serve_requests_total counter",
            "# TYPE canvas_serve_errors_total counter",
            "# TYPE canvas_serve_request_latency_seconds summary",
            "# TYPE canvas_serve_inconclusive_total counter",
            "# TYPE canvas_serve_delta_seeded_total counter",
            "# TYPE canvas_serve_shed_total counter",
            "# TYPE canvas_serve_deadline_total counter",
            "# TYPE canvas_serve_connections_open gauge",
            "# TYPE canvas_serve_connections_poisoned_total counter",
            "# TYPE canvas_serve_requests_poisoned_total counter",
            "# TYPE canvas_serve_cache_hits_total counter",
            "# TYPE canvas_serve_cache_misses_total counter",
            "# TYPE canvas_serve_cache_stores_total counter",
            "# TYPE canvas_serve_cache_invalidations_total counter",
            "# TYPE canvas_serve_cache_entries gauge",
            "# TYPE canvas_serve_cache_evictions_total counter",
            "# TYPE canvas_serve_cache_spill_hits_total counter",
            "# TYPE canvas_serve_cache_bytes gauge",
            "# TYPE canvas_serve_cache_budget_bytes gauge",
            "# TYPE canvas_serve_cache_hit_ratio gauge",
            "# TYPE canvas_serve_log_events_dropped_total counter",
        ];
        assert_eq!(types, expected, "{text}");
    }

    #[test]
    fn verb_index_maps_unknowns_to_invalid() {
        assert_eq!(ServeMetrics::verb_index("certify"), 0);
        assert_eq!(ServeMetrics::verb_index("health"), 3);
        assert_eq!(ServeMetrics::verb_index("garbage"), VERBS.len() - 1);
        assert_eq!(VERBS[ServeMetrics::verb_index("garbage")], "invalid");
    }
}
