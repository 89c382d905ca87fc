//! The `canvas serve` protocol: a long-lived certification daemon.
//!
//! Requests arrive as newline-delimited JSON objects on the input stream;
//! each gets exactly one JSON response line on the output stream, **in
//! request order** (responses are sequenced even though requests are
//! dispatched to a worker pool and certified concurrently against one
//! shared warm certificate cache).
//!
//! ```text
//! {"id":1,"cmd":"certify","file":"client.mj","engine":"scmp-fds"}
//! {"id":2,"cmd":"certify","source":"class Main { ... }","spec":"cmp"}
//! {"id":3,"cmd":"stats"}
//! {"id":4,"cmd":"shutdown"}
//! ```
//!
//! A `certify` request runs a whole-program certification (`main` plus
//! every method out of context) and reports its verdict, its violations,
//! and its own cache traffic (`{"cache":{"hits":..,"misses":..}}`) — the
//! traffic the request itself observed. Verdicts are always deterministic;
//! with several workers, *identical* concurrent requests race for who
//! computes a cell first, so their hit/miss attribution can swap (run
//! `--threads 1` when exact per-request traffic matters, as the CI
//! serve-smoke job does). Per-request
//! budgets (`"budget_steps"`, `"budget_ms"`) run the request under a
//! tighter resource governor; the budget is part of the cache key, so
//! budgeted and unbudgeted requests never alias. `"certificate": true`
//! asks for a proof-carrying certificate in-band: the response gains a
//! `"certificate"` field holding the serialized `canvas-cert/1` text, which
//! the client can revalidate offline with `canvas check` (solution-bearing
//! cells are answered from the warm store; cells cached before the store
//! held solutions re-run). `stats` reports the
//! store-wide counters; `shutdown` persists the store and ends the loop.
//! Malformed lines produce an `{"ok":false,...}` response and the daemon
//! keeps serving.
//!
//! The daemon is also a live observability surface ([`crate::obs`]): each
//! certify request runs under its own telemetry [`Scope`], so the response
//! carries an in-band `"stats"` object with the request's wall time and
//! per-phase latency breakdown, and its cache object reports
//! `{"hits","misses","delta_seeded"}`. A `metrics` request answers the
//! Prometheus text exposition (per-verb request counts and latency
//! quantiles, worker utilization, queue depth, cache hit-rate/occupancy)
//! in the `"metrics"` field; a `health` request answers a cheap liveness
//! probe. Serve-loop warnings go to the structured event log
//! ([`canvas_telemetry::events`], surfaced by `--log-json`) instead of raw
//! stderr.
//!
//! # Overload behavior
//!
//! The daemon degrades, never queues unboundedly. Certify requests pass
//! explicit *admission control* on their connection's reader thread: the
//! worker queue is a bounded channel, and each request draws one token
//! from its tenant's token bucket (the `"tenant"` request field; bucket
//! size `tenant_burst`, refill `tenant_rate` tokens/second — zero burst
//! disables tenant policing). A full queue or an empty bucket *sheds* the
//! request in-band as `{"verdict":"inconclusive","reason":"overloaded:
//! ...","shed":true}` — the paper's honest third verdict, not an error
//! and never a dropped connection. Admitted requests carry an absolute
//! deadline anchored at admission (`budget_ms`, capped by the server's
//! `default_deadline_ms`); a worker that picks up an already-expired
//! request sheds it as `Inconclusive{deadline}` without running, and a
//! live deadline propagates into the solver's armed [`Meter`] so a
//! late-admitted request still terminates on time. Control verbs
//! (`stats`/`metrics`/`health`/`shutdown`) bypass admission — probes must
//! answer precisely when the daemon is saturated.
//!
//! Connections are isolated: a torn or stalled client write poisons only
//! its own connection (responses for it are discarded; everyone else is
//! unaffected), a panicking request handler answers that request with
//! `error[certification/engine-panic]` and the worker survives, and torn
//! input (EOF mid-record, or a line over `max_line_bytes`) yields one
//! in-band `"error"` response followed by a clean close — never a hang.
//! `shutdown` (or SIGTERM in `--listen` mode, see [`crate::net`]) starts a
//! graceful drain: stop reading, finish or shed everything in flight,
//! persist the store, flush the event log, and emit a `drain complete`
//! record.
//!
//! [`Meter`]: canvas_faults::Meter

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use canvas_core::{CanvasError, Certifier, Engine, ErrorKind, Report, Stage, Verdict};
use canvas_easl::Spec;
use canvas_faults::{Budget, Fault};
use canvas_telemetry::events::{self, FieldValue};
use canvas_telemetry::{phase, Scope, ScopeSnapshot};

use crate::json::{obj, Json};
use crate::obs::ServeMetrics;
use crate::store::CertCache;
use crate::{IncrementalCertifier, RunCacheStats};

/// Certify requests shed at admission (queue full or tenant budget
/// exhausted). Deterministic for a scripted workload, so baseline-gated.
static SERVE_SHED: canvas_telemetry::Counter = canvas_telemetry::Counter::new("serve.shed_total");
/// Admitted certify requests shed at pickup because their deadline had
/// already passed.
static SERVE_DEADLINE: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("serve.deadline_total");

/// Configuration of one serve loop.
#[derive(Clone)]
pub struct ServeConfig {
    /// Concurrent certification workers (≥ 1).
    pub workers: usize,
    /// Directory of the persistent certificate store; `None` = in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Hot-tier byte budget of the certificate cache (`None` = unbounded).
    pub cache_bytes: Option<u64>,
    /// Bounded worker-queue capacity; a certify request arriving while the
    /// queue is full is shed, not queued.
    pub queue_cap: usize,
    /// Token-bucket size per tenant (0 disables tenant admission control).
    pub tenant_burst: u64,
    /// Token-bucket refill rate per tenant, tokens per second.
    pub tenant_rate: u64,
    /// Server-side deadline applied to every certify request (`None` =
    /// only per-request `budget_ms` deadlines). A request's effective
    /// deadline is the tighter of the two, anchored at admission.
    pub default_deadline_ms: Option<u64>,
    /// Slow-client write timeout for `--listen` connections, milliseconds.
    pub write_timeout_ms: u64,
    /// Longest accepted request line; longer lines answer an in-band error
    /// and close the connection.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            cache_dir: None,
            cache_bytes: None,
            queue_cap: 64,
            tenant_burst: 0,
            tenant_rate: 0,
            default_deadline_ms: None,
            write_timeout_ms: 5_000,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Loads a spec by builtin name (`cmp`/`grp`/`imp`/`aop`) or file path.
///
/// # Errors
///
/// A `spec-load` error when the file cannot be read or parsed.
pub fn load_spec(name: &str) -> Result<Spec, CanvasError> {
    match name {
        "cmp" => Ok(canvas_easl::builtin::cmp()),
        "grp" => Ok(canvas_easl::builtin::grp()),
        "imp" => Ok(canvas_easl::builtin::imp()),
        "aop" => Ok(canvas_easl::builtin::aop()),
        path => {
            let mut src = std::fs::read_to_string(path)
                .map_err(|e| CanvasError::io(Stage::SpecLoad, path, &e))?;
            // fault-injection point: under CANVAS_FAULT=truncate-input only
            // the first half of the file reaches the (fault-free) parser
            src.truncate(canvas_faults::truncate_input(&src).len());
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("spec")
                .to_string();
            Spec::parse(stem, &src).map_err(|e| CanvasError::spec(&e))
        }
    }
}

/// One parsed request.
struct Request {
    id: Json,
    cmd: Cmd,
}

enum Cmd {
    Certify {
        source: Source,
        spec: String,
        engine: Engine,
        budget_steps: Option<u64>,
        budget_ms: Option<u64>,
        certificate: bool,
        /// Admission-control identity (`"tenant"` field; absent = the
        /// shared `"default"` bucket).
        tenant: String,
    },
    Stats,
    Metrics,
    Health,
    Shutdown,
}

impl Cmd {
    /// The verb name used for per-verb metrics attribution.
    fn verb(&self) -> &'static str {
        match self {
            Cmd::Certify { .. } => "certify",
            Cmd::Stats => "stats",
            Cmd::Metrics => "metrics",
            Cmd::Health => "health",
            Cmd::Shutdown => "shutdown",
        }
    }
}

enum Source {
    File(String),
    Inline(String),
}

fn parse_request(line: &str) -> Result<Request, CanvasError> {
    let bad = |m: String| CanvasError::new(Stage::Cli, canvas_core::ErrorKind::Parse, m);
    let json = Json::parse(line).map_err(|e| bad(format!("bad request JSON: {e}")))?;
    let id = json.get("id").cloned().unwrap_or(Json::Null);
    let str_field = |key: &str| match json.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let int_field = |key: &str| match json.get(key) {
        Some(Json::Int(n)) => Some(*n),
        _ => None,
    };
    let cmd = match str_field("cmd").as_deref() {
        Some("stats") => Cmd::Stats,
        Some("metrics") => Cmd::Metrics,
        Some("health") => Cmd::Health,
        Some("shutdown") => Cmd::Shutdown,
        Some("certify") => {
            let source = match (str_field("file"), str_field("source")) {
                (Some(path), None) => Source::File(path),
                (None, Some(src)) => Source::Inline(src),
                (Some(_), Some(_)) => {
                    return Err(bad("certify takes \"file\" or \"source\", not both".to_string()))
                }
                (None, None) => {
                    return Err(bad("certify needs a \"file\" or \"source\" field".to_string()))
                }
            };
            let engine_name = str_field("engine").unwrap_or_else(|| "scmp-fds".to_string());
            let engine = Engine::by_name(&engine_name)
                .ok_or_else(|| bad(format!("unknown engine {engine_name:?}")))?;
            Cmd::Certify {
                source,
                spec: str_field("spec").unwrap_or_else(|| "cmp".to_string()),
                engine,
                budget_steps: int_field("budget_steps"),
                budget_ms: int_field("budget_ms"),
                certificate: matches!(json.get("certificate"), Some(Json::Bool(true))),
                tenant: str_field("tenant").unwrap_or_else(|| "default".to_string()),
            }
        }
        Some(other) => return Err(bad(format!("unknown cmd {other:?}"))),
        None => return Err(bad("request has no \"cmd\" field".to_string())),
    };
    Ok(Request { id, cmd })
}

/// Shared serve-loop state: the warm store plus one incremental certifier
/// per spec, built on demand.
struct ServeState {
    cache: Arc<CertCache>,
    certifiers: Mutex<HashMap<String, Arc<IncrementalCertifier>>>,
    metrics: ServeMetrics,
}

impl ServeState {
    fn certifier_for(&self, spec_name: &str) -> Result<Arc<IncrementalCertifier>, CanvasError> {
        let mut map = self.certifiers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(inc) = map.get(spec_name) {
            return Ok(Arc::clone(inc));
        }
        let spec = load_spec(spec_name)?;
        let certifier = Certifier::from_spec(spec)?;
        let inc = Arc::new(IncrementalCertifier::shared(certifier, Arc::clone(&self.cache)));
        map.insert(spec_name.to_string(), Arc::clone(&inc));
        Ok(inc)
    }

    fn handle(&self, request: &Request, deadline: Option<Instant>) -> Json {
        match &request.cmd {
            Cmd::Stats => {
                let stats = self.cache.stats();
                ok_response(
                    &request.id,
                    vec![(
                        "cache",
                        obj(vec![
                            ("entries", Json::Int(self.cache.len() as u64)),
                            ("memory_entries", Json::Int(self.cache.memory_entries() as u64)),
                            ("memory_bytes", Json::Int(self.cache.memory_bytes())),
                            (
                                "budget_bytes",
                                match self.cache.budget_bytes() {
                                    Some(b) => Json::Int(b),
                                    None => Json::Null,
                                },
                            ),
                            ("hits", Json::Int(stats.hits)),
                            ("misses", Json::Int(stats.misses)),
                            ("stores", Json::Int(stats.stores)),
                            ("invalidations", Json::Int(stats.invalidations)),
                            ("evictions", Json::Int(stats.evictions)),
                            ("spill_hits", Json::Int(stats.spill_hits)),
                            ("loaded", Json::Int(stats.loaded)),
                            ("recovered", Json::Bool(stats.recovered_from_corruption)),
                        ]),
                    )],
                )
            }
            Cmd::Metrics => ok_response(
                &request.id,
                vec![("metrics", Json::Str(self.metrics.prometheus(&self.cache)))],
            ),
            Cmd::Health => ok_response(
                &request.id,
                vec![
                    ("status", Json::Str("ok".to_string())),
                    ("uptime_ms", Json::Int(self.metrics.uptime_ms())),
                    ("workers", Json::Int(self.metrics.workers())),
                    ("busy", Json::Int(self.metrics.busy())),
                    ("queue_depth", Json::Int(self.metrics.queue_depth())),
                    ("cache_entries", Json::Int(self.cache.len() as u64)),
                ],
            ),
            Cmd::Shutdown => ok_response(&request.id, vec![("shutdown", Json::Bool(true))]),
            Cmd::Certify { source, spec, engine, budget_steps, certificate, .. } => {
                // the request's own scope: counters/timers recorded while it
                // runs (including the phase.* breakdown) attribute here
                let scope = Scope::new(format!("certify#{}", request.id.render_compact()));
                let started = Instant::now();
                let result = {
                    let _in_scope = scope.enter();
                    self.certify(source, spec, *engine, *budget_steps, deadline, *certificate)
                };
                let total_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                match result {
                    Ok((report, cert, stats)) => {
                        self.metrics.add_delta_seeded(stats.delta_seeded);
                        if matches!(report.verdict, Verdict::Inconclusive { .. }) {
                            self.metrics.note_inconclusive();
                        }
                        certify_response(
                            &request.id,
                            &report,
                            cert.as_deref(),
                            stats,
                            &scope.snapshot(),
                            total_ns,
                        )
                    }
                    Err(e) => error_response(&request.id, &e),
                }
            }
        }
    }

    fn certify(
        &self,
        source: &Source,
        spec: &str,
        engine: Engine,
        budget_steps: Option<u64>,
        deadline: Option<Instant>,
        certificate: bool,
    ) -> Result<(Report, Option<String>, RunCacheStats), CanvasError> {
        let text = match source {
            Source::Inline(src) => src.clone(),
            Source::File(path) => std::fs::read_to_string(path)
                .map_err(|e| CanvasError::io(Stage::ClientFrontend, path, &e))?,
        };
        let base = self.certifier_for(spec)?;
        // the deadline is an absolute instant anchored at *admission*, so
        // time spent waiting in the queue counts against the request — a
        // late-admitted request terminates on time instead of overrunning
        let budgeted;
        let inc: &IncrementalCertifier = if budget_steps.is_some() || deadline.is_some() {
            let mut budget = Budget::unlimited();
            if let Some(n) = budget_steps {
                budget = budget.with_max_steps(n);
            }
            if let Some(d) = deadline {
                budget = budget.with_deadline_at(d);
            }
            budgeted = base.with_budget(budget);
            &budgeted
        } else {
            &base
        };
        let program = {
            let _parse = phase::PARSE.span();
            canvas_minijava::Program::parse(&text, inc.certifier().spec())
                .map_err(|e| CanvasError::client(&e))?
        };
        let result = if certificate {
            let (report, cert, stats) = inc
                .certify_program_certified(&text, &program, engine)
                .map_err(CanvasError::from)?;
            (report, Some(cert.to_text()), stats)
        } else {
            let (report, stats) =
                inc.certify_program_cached(&program, engine).map_err(CanvasError::from)?;
            (report, None, stats)
        };
        if let Err(e) = self.cache.persist() {
            events::warn("incr.serve", e.to_string());
        }
        Ok(result)
    }
}

fn ok_response(id: &Json, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("id", id.clone()), ("ok", Json::Bool(true))];
    pairs.extend(fields);
    obj(pairs)
}

fn error_response(id: &Json, error: &CanvasError) -> Json {
    obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(error.to_string())),
    ])
}

fn certify_response(
    id: &Json,
    report: &Report,
    certificate: Option<&str>,
    stats: RunCacheStats,
    scope: &ScopeSnapshot,
    total_ns: u64,
) -> Json {
    let (verdict, reason) = match &report.verdict {
        Verdict::Inconclusive { reason } => ("inconclusive", Some(reason.clone())),
        Verdict::Complete if report.certified() => ("certified", None),
        Verdict::Complete => ("violations", None),
    };
    let mut fields = vec![
        ("engine", Json::Str(report.engine.to_string())),
        ("verdict", Json::Str(verdict.to_string())),
    ];
    if let Some(reason) = reason {
        fields.push(("reason", Json::Str(reason)));
    }
    fields.push((
        "violations",
        Json::Arr(
            report
                .violations
                .iter()
                .map(|v| {
                    obj(vec![
                        ("method", Json::Str(v.method.clone())),
                        ("line", Json::Int(u64::from(v.line))),
                        ("col", Json::Int(u64::from(v.col))),
                        ("what", Json::Str(v.what.clone())),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(cert) = certificate {
        fields.push(("certificate", Json::Str(cert.to_string())));
    }
    fields.push((
        "cache",
        obj(vec![
            ("hits", Json::Int(stats.hits)),
            ("misses", Json::Int(stats.misses)),
            ("delta_seeded", Json::Int(stats.delta_seeded)),
        ]),
    ));
    // the request's own latency breakdown, from its scope's phase timers
    // (a fully warm request reports 0 for the phases it skipped)
    fields.push((
        "stats",
        obj(vec![
            ("total_ns", Json::Int(total_ns)),
            (
                "phases",
                obj(vec![
                    ("parse_ns", Json::Int(scope.sample_sum("phase.parse"))),
                    ("lower_ns", Json::Int(scope.sample_sum("phase.lower"))),
                    ("derive_ns", Json::Int(scope.sample_sum("phase.derive"))),
                    ("solve_ns", Json::Int(scope.sample_sum("phase.solve"))),
                    ("check_replay_ns", Json::Int(scope.sample_sum("phase.check_replay"))),
                ]),
            ),
        ]),
    ));
    ok_response(id, fields)
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// The fault-injection writer wrappers: `conn-drop` tears the connection
/// mid-way through its first response, `slow-client` models a client that
/// stopped reading (the write "times out"). Both leave the writer
/// permanently broken, exactly like the real failures they model.
enum WriterFault {
    ConnDrop,
    SlowClient,
}

struct FaultyWriter<W: Write> {
    inner: W,
    fault: WriterFault,
    fired: bool,
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.fired {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected fault: connection already torn",
            ));
        }
        self.fired = true;
        match self.fault {
            WriterFault::ConnDrop => {
                // half the response escapes, then the peer vanishes
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected fault: conn-drop",
                ))
            }
            WriterFault::SlowClient => {
                // the stalled write "times out" (kept short so tests stay
                // fast; a real stall is bounded by set_write_timeout)
                std::thread::sleep(Duration::from_millis(50));
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected fault: slow-client",
                ))
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.fired {
            return Ok(());
        }
        self.inner.flush()
    }
}

/// Boxes a connection writer, applying any active network-path fault.
pub(crate) fn boxed_writer<'a>(writer: impl Write + Send + 'a) -> Box<dyn Write + Send + 'a> {
    if canvas_faults::active(Fault::ConnDrop) {
        Box::new(FaultyWriter { inner: writer, fault: WriterFault::ConnDrop, fired: false })
    } else if canvas_faults::active(Fault::SlowClient) {
        Box::new(FaultyWriter { inner: writer, fault: WriterFault::SlowClient, fired: false })
    } else {
        Box::new(writer)
    }
}

struct ConnOut<'a> {
    next: usize,
    pending: BTreeMap<usize, String>,
    writer: Box<dyn Write + Send + 'a>,
    dead: bool,
}

/// One client connection: an in-order response sequencer over its writer.
/// Workers finish in any order; lines go out in request order. A failed or
/// timed-out write *poisons* the connection — its later responses are
/// computed but discarded — and touches nothing else.
pub(crate) struct Conn<'a> {
    id: u64,
    out: Mutex<ConnOut<'a>>,
}

impl<'a> Conn<'a> {
    pub(crate) fn new(id: u64, writer: Box<dyn Write + Send + 'a>) -> Conn<'a> {
        Conn {
            id,
            out: Mutex::new(ConnOut { next: 0, pending: BTreeMap::new(), writer, dead: false }),
        }
    }

    fn submit(&self, seq: usize, line: String, metrics: &ServeMetrics) {
        let mut out = self.out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        out.pending.insert(seq, line);
        loop {
            let next = out.next;
            let Some(line) = out.pending.remove(&next) else { break };
            out.next += 1;
            if out.dead {
                continue;
            }
            let wrote = writeln!(out.writer, "{line}").and_then(|()| out.writer.flush());
            if let Err(e) = wrote {
                out.dead = true;
                metrics.note_conn_poisoned();
                events::warn(
                    "incr.serve",
                    format!(
                        "connection {} torn mid-response ({e}); poisoning only this connection",
                        self.id
                    ),
                );
            }
        }
    }
}

/// One admitted unit of work headed for the worker pool.
pub(crate) struct Job<'a> {
    seq: usize,
    conn: Arc<Conn<'a>>,
    parsed: Result<Request, CanvasError>,
    /// Absolute deadline anchored at admission (certify only).
    deadline: Option<Instant>,
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-tenant token buckets: `burst` tokens of capacity, `rate` tokens per
/// second of refill. `burst == 0` disables tenant admission entirely.
struct TenantBuckets {
    burst: u64,
    rate: u64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantBuckets {
    fn new(burst: u64, rate: u64) -> TenantBuckets {
        TenantBuckets { burst, rate, buckets: Mutex::new(HashMap::new()) }
    }

    /// Draws one token from `tenant`'s bucket; `false` = budget exhausted.
    fn try_take(&self, tenant: &str) -> bool {
        if self.burst == 0 {
            return true;
        }
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = buckets
            .entry(tenant.to_string())
            .or_insert_with(|| Bucket { tokens: self.burst as f64, last: now });
        let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.rate as f64).min(self.burst as f64);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Everything one serve daemon's readers and workers share, regardless of
/// transport (stdio or TCP).
pub(crate) struct Daemon {
    state: ServeState,
    tenants: TenantBuckets,
    pub(crate) tuning: Tuning,
    draining: AtomicBool,
    conn_ids: AtomicU64,
}

/// The admission/IO knobs, copied out of [`ServeConfig`].
#[derive(Clone, Copy)]
pub(crate) struct Tuning {
    pub(crate) queue_cap: usize,
    pub(crate) workers: usize,
    pub(crate) default_deadline_ms: Option<u64>,
    pub(crate) write_timeout_ms: u64,
    pub(crate) max_line_bytes: usize,
}

impl Daemon {
    pub(crate) fn new(config: &ServeConfig) -> Daemon {
        // The daemon *is* an observability surface: request scopes and
        // phase timers only attribute while the metrics switch is on.
        canvas_telemetry::set_enabled(true);
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => CertCache::open_budgeted(dir, config.cache_bytes),
            None => CertCache::in_memory_budgeted(config.cache_bytes),
        });
        let workers = config.workers.max(1);
        let queue_cap = config.queue_cap.max(1);
        Daemon {
            state: ServeState {
                cache,
                certifiers: Mutex::new(HashMap::new()),
                metrics: ServeMetrics::new(workers, queue_cap),
            },
            tenants: TenantBuckets::new(config.tenant_burst, config.tenant_rate),
            tuning: Tuning {
                queue_cap,
                workers,
                default_deadline_ms: config.default_deadline_ms,
                write_timeout_ms: config.write_timeout_ms,
                max_line_bytes: config.max_line_bytes.max(1),
            },
            draining: AtomicBool::new(false),
            conn_ids: AtomicU64::new(0),
        }
    }

    pub(crate) fn metrics(&self) -> &ServeMetrics {
        &self.state.metrics
    }

    pub(crate) fn next_conn_id(&self) -> u64 {
        self.conn_ids.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the graceful drain: readers stop accepting, the accept loop
    /// (if any) stops, workers finish what's queued.
    pub(crate) fn begin_drain(&self, why: &str) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            events::info_with(
                "incr.serve",
                format!("drain started: {why}"),
                vec![("why", FieldValue::Str(why.to_string()))],
            );
        }
    }

    /// Persists the store and emits the `drain complete` record. Called
    /// once, after every reader and worker has exited.
    pub(crate) fn finish(&self) -> Result<(), CanvasError> {
        let result = self.state.cache.persist();
        let m = &self.state.metrics;
        events::info_with(
            "incr.serve",
            format!(
                "drain complete: {} request(s) answered, {} shed, {} poisoned connection(s)",
                m.requests_total(),
                m.shed_total() + m.deadline_shed_total(),
                m.conns_poisoned()
            ),
            vec![
                ("answered", FieldValue::U64(m.requests_total())),
                ("shed", FieldValue::U64(m.shed_total() + m.deadline_shed_total())),
                ("poisoned_connections", FieldValue::U64(m.conns_poisoned())),
            ],
        );
        result
    }
}

// ---------------------------------------------------------------------------
// Torn-input-safe line reader
// ---------------------------------------------------------------------------

enum ReadEvent {
    /// One complete newline-terminated line (CR stripped, lossily decoded —
    /// invalid UTF-8 becomes a parse error in-band, not a torn connection).
    Line(String),
    /// Clean end of input at a record boundary.
    Eof,
    /// EOF (or a hard read error) mid-record: `n` bytes of partial line.
    Torn(usize),
    /// The line exceeded `max_line_bytes`.
    Oversized,
    /// A read timeout tick (TCP keepalive poll); caller checks drain state.
    Idle,
}

/// Reads the next NDJSON record with strict framing: a final line without
/// its terminator is *torn input*, not a record. `partial` persists
/// partially-read bytes across `Idle` ticks.
fn read_line_limited(reader: &mut dyn BufRead, max: usize, partial: &mut Vec<u8>) -> ReadEvent {
    loop {
        let (consumed, complete) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return ReadEvent::Idle;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // a hard read error tears the connection like EOF does
                    return if partial.is_empty() {
                        ReadEvent::Eof
                    } else {
                        ReadEvent::Torn(partial.len())
                    };
                }
            };
            if available.is_empty() {
                return if partial.is_empty() {
                    ReadEvent::Eof
                } else {
                    ReadEvent::Torn(partial.len())
                };
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    partial.extend_from_slice(&available[..pos]);
                    (pos + 1, true)
                }
                None => {
                    partial.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if partial.len() > max {
            partial.clear();
            return ReadEvent::Oversized;
        }
        if complete {
            if partial.last() == Some(&b'\r') {
                partial.pop();
            }
            let line = String::from_utf8_lossy(partial).into_owned();
            partial.clear();
            return ReadEvent::Line(line);
        }
    }
}

// ---------------------------------------------------------------------------
// Reader / worker loops
// ---------------------------------------------------------------------------

fn shed_response(id: &Json, cmd: &Cmd, reason: &str) -> Json {
    let engine = match cmd {
        Cmd::Certify { engine, .. } => engine.to_string(),
        _ => "-".to_string(),
    };
    obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("engine", Json::Str(engine)),
        ("verdict", Json::Str("inconclusive".to_string())),
        ("reason", Json::Str(reason.to_string())),
        ("shed", Json::Bool(true)),
        ("violations", Json::Arr(Vec::new())),
    ])
}

/// Sheds one certify request from the reader thread: counted, answered
/// in-band, never enqueued.
fn shed_at_admission(
    daemon: &Daemon,
    conn: &Arc<Conn<'_>>,
    seq: usize,
    request: &Request,
    reason: &str,
    accepted: Instant,
) {
    let metrics = daemon.metrics();
    SERVE_SHED.incr();
    metrics.note_shed();
    metrics.enqueued();
    metrics.begin("certify");
    let response = shed_response(&request.id, &request.cmd, reason);
    metrics.finish("certify", accepted.elapsed(), false);
    conn.submit(seq, response.render_compact(), metrics);
}

enum Flow {
    Continue,
    Stop,
}

/// Admits (or sheds) one parsed request from a connection reader.
fn admit<'env>(
    daemon: &Daemon,
    conn: &Arc<Conn<'env>>,
    tx: &mpsc::SyncSender<Job<'env>>,
    seq: usize,
    parsed: Result<Request, CanvasError>,
    accepted: Instant,
) -> Flow {
    let is_certify = matches!(&parsed, Ok(Request { cmd: Cmd::Certify { .. }, .. }));
    if !is_certify {
        // control verbs, shutdown, and parse errors: cheap bounded work
        // that must answer even when the daemon is saturated, so they use
        // a blocking send instead of admission control (the reader stalls,
        // the connection's own backpressure)
        let job = Job { seq, conn: Arc::clone(conn), parsed, deadline: None };
        if tx.send(job).is_err() {
            return Flow::Stop;
        }
        daemon.metrics().enqueued();
        return Flow::Continue;
    }
    let Ok(request) = parsed else { unreachable!("is_certify implies parsed ok") };
    let Cmd::Certify { budget_ms, tenant, .. } = &request.cmd else {
        unreachable!("is_certify implies a certify cmd")
    };
    // the effective deadline is the tighter of the request's own budget_ms
    // and the server default, anchored *now* (admission)
    let allowed_ms = match (*budget_ms, daemon.tuning.default_deadline_ms) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    };
    let deadline = allowed_ms.map(|ms| accepted + Duration::from_millis(ms));
    if !daemon.tenants.try_take(tenant) {
        shed_at_admission(
            daemon,
            conn,
            seq,
            &request,
            "overloaded: tenant budget exhausted",
            accepted,
        );
        return Flow::Continue;
    }
    let job = Job { seq, conn: Arc::clone(conn), parsed: Ok(request), deadline };
    let sent = if canvas_faults::active(Fault::QueueFull) {
        Err(mpsc::TrySendError::Full(job))
    } else {
        tx.try_send(job)
    };
    match sent {
        Ok(()) => {
            daemon.metrics().enqueued();
            Flow::Continue
        }
        Err(mpsc::TrySendError::Full(job)) => {
            let Ok(request) = &job.parsed else { unreachable!("full jobs carry the request") };
            shed_at_admission(daemon, conn, seq, request, "overloaded: queue full", accepted);
            Flow::Continue
        }
        Err(mpsc::TrySendError::Disconnected(_)) => Flow::Stop,
    }
}

/// Reads one connection until EOF, torn input, or drain. Every request
/// gets exactly one in-band response line (through the connection's
/// sequencer); torn or oversized input answers an `"error"` response and
/// closes the connection cleanly.
pub(crate) fn run_connection<'env>(
    daemon: &Daemon,
    reader: &mut dyn BufRead,
    conn: &Arc<Conn<'env>>,
    tx: &mpsc::SyncSender<Job<'env>>,
) {
    let metrics = daemon.metrics();
    let mut seq = 0usize;
    let mut partial: Vec<u8> = Vec::new();
    loop {
        if daemon.draining() {
            break;
        }
        match read_line_limited(reader, daemon.tuning.max_line_bytes, &mut partial) {
            ReadEvent::Idle => continue,
            ReadEvent::Eof => break,
            ReadEvent::Torn(n) => {
                let started = Instant::now();
                metrics.enqueued();
                metrics.begin("invalid");
                let e = CanvasError::new(
                    Stage::Cli,
                    ErrorKind::Parse,
                    format!("torn input: stream ended mid-record after {n} byte(s)"),
                );
                metrics.finish("invalid", started.elapsed(), true);
                conn.submit(seq, error_response(&Json::Null, &e).render_compact(), metrics);
                break;
            }
            ReadEvent::Oversized => {
                let started = Instant::now();
                metrics.enqueued();
                metrics.begin("invalid");
                let e = CanvasError::new(
                    Stage::Cli,
                    ErrorKind::Parse,
                    format!(
                        "oversized request line (over {} bytes); closing connection",
                        daemon.tuning.max_line_bytes
                    ),
                );
                metrics.finish("invalid", started.elapsed(), true);
                conn.submit(seq, error_response(&Json::Null, &e).render_compact(), metrics);
                break;
            }
            ReadEvent::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let accepted = Instant::now();
                let parsed = parse_request(&line);
                // flip the drain switch as soon as shutdown is *accepted*,
                // so every reader stops taking new work before the
                // response even goes out
                if matches!(&parsed, Ok(Request { cmd: Cmd::Shutdown, .. })) {
                    daemon.begin_drain("shutdown request");
                }
                match admit(daemon, conn, tx, seq, parsed, accepted) {
                    Flow::Continue => {}
                    Flow::Stop => break,
                }
                seq += 1;
            }
        }
    }
}

/// Handles one request with panic isolation: a panicking handler answers
/// *this* request with `error[certification/engine-panic]` and the worker
/// survives.
fn handle_isolated(daemon: &Daemon, request: &Request, deadline: Option<Instant>) -> Json {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        daemon.state.handle(request, deadline)
    }));
    match caught {
        Ok(response) => response,
        Err(_) => {
            daemon.metrics().note_request_poisoned();
            events::warn(
                "incr.serve",
                "request handler panicked; the panic is contained to this request".to_string(),
            );
            error_response(
                &request.id,
                &CanvasError::new(
                    Stage::Certification,
                    ErrorKind::EnginePanic,
                    "request handler panicked; the panic was contained to this request".to_string(),
                ),
            )
        }
    }
}

/// One worker: drains the bounded queue until every sender is gone.
pub(crate) fn worker_loop(daemon: &Daemon, rx: &Mutex<mpsc::Receiver<Job<'_>>>) {
    loop {
        let received = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv();
        let Ok(job) = received else { break };
        let verb = match &job.parsed {
            Ok(request) => request.cmd.verb(),
            Err(_) => "invalid",
        };
        let metrics = daemon.metrics();
        metrics.begin(verb);
        let started = Instant::now();
        let response = match &job.parsed {
            Err(e) => error_response(&Json::Null, e),
            Ok(request) => {
                let expired = matches!(request.cmd, Cmd::Certify { .. })
                    && job.deadline.is_some_and(|d| Instant::now() >= d);
                if expired {
                    // admitted, but its whole allowance burned in the
                    // queue: shed instead of starting doomed work
                    SERVE_DEADLINE.incr();
                    metrics.note_deadline_shed();
                    shed_response(
                        &request.id,
                        &request.cmd,
                        "deadline: request expired while queued",
                    )
                } else {
                    handle_isolated(daemon, request, job.deadline)
                }
            }
        };
        let elapsed = started.elapsed();
        let is_error = matches!(response.get("ok"), Some(Json::Bool(false)));
        metrics.finish(verb, elapsed, is_error);
        if events::would_log(events::Level::Info) {
            events::info_with(
                "incr.serve",
                format!("{verb} request handled"),
                vec![
                    ("verb", FieldValue::Str(verb.to_string())),
                    ("conn", FieldValue::U64(job.conn.id)),
                    ("seq", FieldValue::U64(job.seq as u64)),
                    ("us", FieldValue::U64(elapsed.as_micros().min(u128::from(u64::MAX)) as u64)),
                    ("ok", FieldValue::U64(u64::from(!is_error))),
                ],
            );
        }
        job.conn.submit(job.seq, response.render_compact(), metrics);
    }
}

/// Runs the stdio serve loop until `shutdown` or end of input: one
/// connection over `input`/`output`, the same admission control, bounded
/// queue, and worker pool as the TCP front-end ([`crate::net`]). Persists
/// the store on the way out.
///
/// # Errors
///
/// A `cache`-stage error when the final persist fails; per-request errors
/// are answered in-band and never end the loop.
pub fn serve(
    input: impl BufRead,
    output: impl Write + Send,
    config: &ServeConfig,
) -> Result<(), CanvasError> {
    let daemon = Daemon::new(config);
    let mut input = input;
    let conn = Arc::new(Conn::new(daemon.next_conn_id(), boxed_writer(output)));
    daemon.metrics().conn_opened();
    let (tx, rx) = mpsc::sync_channel::<Job<'_>>(daemon.tuning.queue_cap);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..daemon.tuning.workers {
            scope.spawn(|| worker_loop(&daemon, &rx));
        }
        run_connection(&daemon, &mut input, &conn, &tx);
        drop(tx);
    });
    // the stdio session counts as open until every queued response is out
    // (the reader sees EOF long before the workers finish), so the scrape
    // of a live session deterministically reports one open connection
    daemon.metrics().conn_closed();
    daemon.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = "class Main { static void main() { Set v = new Set(); Iterator i = v.iterator(); v.add(\\\"x\\\"); i.next(); } }";

    fn run_script(script: &str, workers: usize) -> Vec<Json> {
        let mut out = Vec::new();
        serve(
            std::io::Cursor::new(script.to_string()),
            &mut out,
            &ServeConfig { workers, ..ServeConfig::default() },
        )
        .expect("serve runs");
        let text = String::from_utf8(out).expect("utf8");
        text.lines().map(|l| Json::parse(l).expect("response parses")).collect()
    }

    fn certify_line(id: u64) -> String {
        format!("{{\"id\":{id},\"cmd\":\"certify\",\"source\":\"{FIG3}\"}}")
    }

    #[test]
    fn certify_stats_shutdown_round_trip() {
        let _faults = crate::fault_lock::shared();
        let script = format!(
            "{}\n{}\n{{\"id\":3,\"cmd\":\"stats\"}}\n{{\"id\":4,\"cmd\":\"shutdown\"}}\n",
            certify_line(1),
            certify_line(2)
        );
        let responses = run_script(&script, 1);
        assert_eq!(responses.len(), 4);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.get("id"), Some(&Json::Int(i as u64 + 1)), "{r:?}");
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        }
        // cold then fully warm
        assert_eq!(responses[0].get("verdict"), Some(&Json::Str("violations".to_string())));
        let cold = responses[0].get("cache").expect("cache");
        let warm = responses[1].get("cache").expect("cache");
        assert_eq!(cold.get("hits"), Some(&Json::Int(0)));
        assert_eq!(warm.get("misses"), Some(&Json::Int(0)));
        assert_eq!(warm.get("hits"), cold.get("misses"));
        // no edits in this script: nothing delta-seeded
        assert_eq!(cold.get("delta_seeded"), Some(&Json::Int(0)));
        assert_eq!(warm.get("delta_seeded"), Some(&Json::Int(0)));
        // identical verdict payloads either way
        assert_eq!(responses[0].get("violations"), responses[1].get("violations"));
        let stats = responses[2].get("cache").expect("stats cache");
        assert_eq!(stats.get("hits"), warm.get("hits"));
        assert_eq!(responses[3].get("shutdown"), Some(&Json::Bool(true)));
    }

    #[test]
    fn responses_stay_in_request_order_under_concurrency() {
        let _faults = crate::fault_lock::shared();
        let mut script = String::new();
        for id in 1..=6 {
            script.push_str(&certify_line(id));
            script.push('\n');
        }
        script.push_str("{\"id\":7,\"cmd\":\"shutdown\"}\n");
        let responses = run_script(&script, 4);
        assert_eq!(responses.len(), 7);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.get("id"), Some(&Json::Int(i as u64 + 1)), "{r:?}");
        }
    }

    #[test]
    fn certificate_requests_carry_the_certificate_in_band() {
        let _faults = crate::fault_lock::shared();
        let script = format!(
            "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3}\",\"certificate\":true}}\n\
             {}\n{{\"id\":3,\"cmd\":\"shutdown\"}}\n",
            certify_line(2)
        );
        let responses = run_script(&script, 1);
        let Some(Json::Str(cert)) = responses[0].get("certificate") else {
            panic!("no certificate in {:?}", responses[0])
        };
        let parsed = canvas_abstraction::Certificate::parse(cert).expect("certificate parses");
        assert!(parsed.checkable(), "fds run must carry a replayable solution");
        // requests that did not ask for one don't get one
        assert!(responses[1].get("certificate").is_none(), "{:?}", responses[1]);
    }

    #[test]
    fn certify_responses_carry_in_band_phase_stats() {
        let _faults = crate::fault_lock::shared();
        let script = format!("{}\n{{\"id\":2,\"cmd\":\"shutdown\"}}\n", certify_line(1));
        let responses = run_script(&script, 1);
        let stats = responses[0].get("stats").expect("in-band stats");
        let Some(Json::Int(total)) = stats.get("total_ns") else {
            panic!("no total_ns in {stats:?}")
        };
        assert!(*total > 0);
        let phases = stats.get("phases").expect("phase breakdown");
        for key in ["parse_ns", "lower_ns", "derive_ns", "solve_ns", "check_replay_ns"] {
            assert!(matches!(phases.get(key), Some(Json::Int(_))), "missing {key}: {phases:?}");
        }
        // a cold certify must actually parse and solve
        assert_ne!(phases.get("parse_ns"), Some(&Json::Int(0)), "{phases:?}");
        assert_ne!(phases.get("solve_ns"), Some(&Json::Int(0)), "{phases:?}");
    }

    #[test]
    fn metrics_verb_answers_prometheus_exposition() {
        let _faults = crate::fault_lock::shared();
        let script = format!(
            "{}\n{}\n{{\"id\":3,\"cmd\":\"metrics\"}}\n{{\"id\":4,\"cmd\":\"shutdown\"}}\n",
            certify_line(1),
            certify_line(2)
        );
        let responses = run_script(&script, 1);
        let Some(Json::Str(text)) = responses[2].get("metrics") else {
            panic!("no metrics text in {:?}", responses[2])
        };
        // with one worker the two certifies complete before the scrape
        assert!(text.contains("canvas_serve_requests_total{verb=\"certify\"} 2\n"), "{text}");
        assert!(text.contains("canvas_serve_requests_total{verb=\"metrics\"} 1\n"), "{text}");
        assert!(
            text.contains(
                "canvas_serve_request_latency_seconds{verb=\"certify\",quantile=\"0.99\"}"
            ),
            "{text}"
        );
        assert!(text.contains("canvas_serve_cache_hit_ratio 0.5000\n"), "cold+warm: {text}");
        assert!(text.contains("canvas_serve_workers 1\n"), "{text}");
    }

    #[test]
    fn health_verb_reports_liveness() {
        let _faults = crate::fault_lock::shared();
        let script = "{\"id\":1,\"cmd\":\"health\"}\n{\"id\":2,\"cmd\":\"shutdown\"}\n";
        let responses = run_script(script, 2);
        let r = &responses[0];
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("status"), Some(&Json::Str("ok".to_string())));
        assert_eq!(r.get("workers"), Some(&Json::Int(2)));
        assert!(matches!(r.get("uptime_ms"), Some(Json::Int(_))), "{r:?}");
        assert_eq!(r.get("cache_entries"), Some(&Json::Int(0)));
        // the probe itself is in flight while it answers
        let Some(Json::Int(busy)) = r.get("busy") else { panic!("{r:?}") };
        assert!(*busy >= 1, "{r:?}");
    }

    #[test]
    fn malformed_requests_do_not_kill_the_daemon() {
        let _faults = crate::fault_lock::shared();
        // the third line nests 900 000 arrays: under the line limit, far
        // past the parser's depth bound, and once a stack overflow
        let script = format!(
            "this is not json\n{{\"id\":2,\"cmd\":\"frobnicate\"}}\n{}\n{}\n",
            "[".repeat(900_000),
            certify_line(4)
        );
        let responses = run_script(&script, 1);
        assert_eq!(responses.len(), 4);
        for r in &responses[..3] {
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
            let Some(Json::Str(e)) = r.get("error") else { panic!("no error: {r:?}") };
            assert!(e.starts_with("error[cli/parse]"), "{e}");
        }
        let Some(Json::Str(deep)) = responses[2].get("error") else { unreachable!() };
        assert!(deep.contains("nesting deeper than 128"), "{deep}");
        assert_eq!(responses[3].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn unknown_specs_and_missing_files_answer_in_band() {
        let _faults = crate::fault_lock::shared();
        let script = "{\"id\":1,\"cmd\":\"certify\",\"file\":\"/nonexistent/x.mj\"}\n\
                      {\"id\":2,\"cmd\":\"certify\",\"source\":\"class Main {}\",\"spec\":\"/nonexistent/s.easl\"}\n\
                      {\"id\":3,\"cmd\":\"shutdown\"}\n";
        let responses = run_script(script, 2);
        assert_eq!(responses.len(), 3);
        let Some(Json::Str(e1)) = responses[0].get("error") else { panic!() };
        assert!(e1.starts_with("error[client-frontend/io]"), "{e1}");
        let Some(Json::Str(e2)) = responses[1].get("error") else { panic!() };
        assert!(e2.starts_with("error[spec-load/io]"), "{e2}");
    }

    #[test]
    fn per_request_budget_is_honored_and_not_cached() {
        let _faults = crate::fault_lock::shared();
        // an absurdly tight step budget forces an inconclusive verdict;
        // rerunning unbudgeted must not see a cached cell for it
        let script = format!(
            "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3}\",\"budget_steps\":1}}\n{}\n{{\"id\":3,\"cmd\":\"shutdown\"}}\n",
            certify_line(2)
        );
        let responses = run_script(&script, 1);
        assert_eq!(responses[0].get("verdict"), Some(&Json::Str("inconclusive".to_string())));
        let unbudgeted = responses[1].get("cache").expect("cache");
        assert_eq!(unbudgeted.get("hits"), Some(&Json::Int(0)), "budget keys must not alias");
        assert_eq!(responses[1].get("verdict"), Some(&Json::Str("violations".to_string())));
    }

    #[test]
    fn the_store_persists_across_serve_sessions() {
        let _faults = crate::fault_lock::shared();
        let dir = std::env::temp_dir().join(format!("canvas-serve-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config =
            ServeConfig { workers: 1, cache_dir: Some(dir.clone()), ..ServeConfig::default() };
        let run = |script: &str| {
            let mut out = Vec::new();
            serve(std::io::Cursor::new(script.to_string()), &mut out, &config).expect("serves");
            let text = String::from_utf8(out).expect("utf8");
            text.lines().map(|l| Json::parse(l).expect("parses")).collect::<Vec<_>>()
        };
        let first = run(&format!("{}\n{{\"id\":2,\"cmd\":\"shutdown\"}}\n", certify_line(1)));
        assert_eq!(first[0].get("cache").and_then(|c| c.get("hits")), Some(&Json::Int(0)));
        // a fresh daemon on the same directory starts warm
        let second = run(&format!("{}\n{{\"id\":2,\"cmd\":\"shutdown\"}}\n", certify_line(1)));
        let cache = second[0].get("cache").expect("cache");
        assert_eq!(cache.get("misses"), Some(&Json::Int(0)), "{cache:?}");
        assert_eq!(second[0].get("violations"), first[0].get("violations"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn run_script_with(script: &str, config: &ServeConfig) -> Vec<Json> {
        let mut out = Vec::new();
        serve(std::io::Cursor::new(script.to_string()), &mut out, config).expect("serve runs");
        let text = String::from_utf8(out).expect("utf8");
        text.lines().map(|l| Json::parse(l).expect("response parses")).collect()
    }

    #[test]
    fn torn_final_line_answers_in_band_error_and_closes() {
        let _faults = crate::fault_lock::shared();
        // no trailing newline on the second record: torn input, not a request
        let script = format!("{}\n{{\"id\":2,\"cmd\":\"cert", certify_line(1));
        let responses = run_script_with(&script, &ServeConfig::default());
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        let torn = &responses[1];
        assert_eq!(torn.get("ok"), Some(&Json::Bool(false)), "{torn:?}");
        let Some(Json::Str(e)) = torn.get("error") else { panic!("no error: {torn:?}") };
        assert!(e.contains("torn input"), "{e}");
    }

    #[test]
    fn oversized_line_answers_in_band_error_and_closes() {
        let _faults = crate::fault_lock::shared();
        let huge = format!("{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{}\"}}\n", "x".repeat(256));
        let config = ServeConfig { max_line_bytes: 64, ..ServeConfig::default() };
        let responses = run_script_with(&huge, &config);
        assert_eq!(responses.len(), 1, "{responses:?}");
        let Some(Json::Str(e)) = responses[0].get("error") else { panic!("{responses:?}") };
        assert!(e.contains("oversized"), "{e}");
    }

    #[test]
    fn tenant_bucket_sheds_deterministically() {
        let _faults = crate::fault_lock::shared();
        // burst 2, no refill: third certify from the same tenant sheds
        let mut script = String::new();
        for id in 1..=3 {
            script.push_str(&format!(
                "{{\"id\":{id},\"cmd\":\"certify\",\"source\":\"{FIG3}\",\"tenant\":\"acme\"}}\n"
            ));
        }
        script.push_str("{\"id\":4,\"cmd\":\"shutdown\"}\n");
        let config = ServeConfig { tenant_burst: 2, tenant_rate: 0, ..ServeConfig::default() };
        let responses = run_script_with(&script, &config);
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].get("shed"), None, "{:?}", responses[0]);
        assert_eq!(responses[1].get("shed"), None, "{:?}", responses[1]);
        let shed = &responses[2];
        assert_eq!(shed.get("ok"), Some(&Json::Bool(true)), "{shed:?}");
        assert_eq!(shed.get("verdict"), Some(&Json::Str("inconclusive".to_string())));
        assert_eq!(
            shed.get("reason"),
            Some(&Json::Str("overloaded: tenant budget exhausted".to_string()))
        );
        assert_eq!(shed.get("shed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn expired_deadline_sheds_at_pickup() {
        let _faults = crate::fault_lock::shared();
        // budget_ms 0: the deadline is already due when a worker picks it up
        let script = format!(
            "{{\"id\":1,\"cmd\":\"certify\",\"source\":\"{FIG3}\",\"budget_ms\":0}}\n\
             {{\"id\":2,\"cmd\":\"shutdown\"}}\n"
        );
        let responses = run_script_with(&script, &ServeConfig::default());
        let shed = &responses[0];
        assert_eq!(shed.get("verdict"), Some(&Json::Str("inconclusive".to_string())), "{shed:?}");
        assert_eq!(
            shed.get("reason"),
            Some(&Json::Str("deadline: request expired while queued".to_string()))
        );
        assert_eq!(shed.get("shed"), Some(&Json::Bool(true)));
    }

    #[test]
    fn queue_full_fault_sheds_every_certify() {
        let _faults = crate::fault_lock::exclusive();
        canvas_faults::force(Some(Fault::QueueFull));
        let script = format!("{}\n{{\"id\":2,\"cmd\":\"shutdown\"}}\n", certify_line(1));
        let responses = run_script_with(&script, &ServeConfig::default());
        canvas_faults::unforce();
        assert_eq!(responses.len(), 2);
        let shed = &responses[0];
        assert_eq!(shed.get("ok"), Some(&Json::Bool(true)), "{shed:?}");
        assert_eq!(shed.get("reason"), Some(&Json::Str("overloaded: queue full".to_string())));
        // control verbs bypass admission: shutdown still answers
        assert_eq!(responses[1].get("shutdown"), Some(&Json::Bool(true)));
        // a fresh serve after unforce admits normally
        let after = run_script_with(&script, &ServeConfig::default());
        assert_eq!(after[0].get("shed"), None, "{:?}", after[0]);
    }

    #[test]
    fn conn_drop_fault_poisons_only_the_connection() {
        let _faults = crate::fault_lock::exclusive();
        canvas_faults::force(Some(Fault::ConnDrop));
        let script = format!("{}\n{{\"id\":2,\"cmd\":\"shutdown\"}}\n", certify_line(1));
        let mut out = Vec::new();
        let result = serve(std::io::Cursor::new(script), &mut out, &ServeConfig::default());
        canvas_faults::unforce();
        // the serve loop survives the torn connection and persists cleanly
        assert!(result.is_ok(), "{result:?}");
        let text = String::from_utf8_lossy(&out);
        assert!(!text.contains('\n'), "no complete line escapes a torn conn: {text}");
    }
}
