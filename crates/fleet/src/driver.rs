//! The corpus certification driver.
//!
//! `shards` worker threads claim programs from one shared cursor
//! ([`canvas_suite::claim_each`]), so every program is processed exactly
//! once and a slow worker simply claims fewer. A claimed index is either
//! completed, poisoned, or — if the claimant dies — lost with the dead
//! worker, which is the failure-isolation contract: a worker death loses
//! only its in-flight program, and the surviving workers claim the rest.
//!
//! In local mode every worker certifies through one
//! [`IncrementalCertifier`] over one shared [`CertCache`], as `canvas
//! serve`'s worker pool does: a cell one worker solves is a hit for every
//! other worker from then on. Under a cache directory the store is opened
//! once at the start and persisted once at the end. With remote backends
//! configured, workers instead speak the `canvas serve` NDJSON protocol
//! over TCP and caching happens server-side.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use canvas_core::{panic_message, CanvasError, Certifier, Engine, Verdict, Violation};
use canvas_easl::Spec;
use canvas_faults::Fault;
use canvas_incr::fingerprint::{Fingerprint, Hasher64};
use canvas_incr::json::{obj, Json};
use canvas_incr::store::{violation_from_json, CertCache};
use canvas_incr::{IncrementalCertifier, RunCacheStats};
use canvas_minijava::Program;
use canvas_telemetry::{Counter, Histogram};

use crate::manifest::FleetItem;
use crate::report::{FleetReport, ShardRow};

static FLEET_PROGRAMS: Counter = Counter::new("fleet.programs");
static FLEET_VIOLATING: Counter = Counter::new("fleet.programs_violating");
static FLEET_POISONED: Counter = Counter::non_deterministic("fleet.poisoned_programs");
static FLEET_DEAD_SHARDS: Counter = Counter::non_deterministic("fleet.dead_shards");

/// How one fleet run is configured.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker count (clamped to `[1, programs]`).
    pub shards: usize,
    /// Engine every program is certified with.
    pub engine: Engine,
    /// The loaded spec (local mode derives one certifier from it).
    pub spec: Spec,
    /// The spec's name, as remote backends expect it (e.g. `cmp`).
    pub spec_name: String,
    /// Certificate store directory: opened at startup, persisted at the
    /// end.
    pub cache_dir: Option<PathBuf>,
    /// `canvas serve --listen` backends (`host:port`); when non-empty the
    /// fleet certifies remotely instead of in-process.
    pub backends: Vec<String>,
    /// The corpus manifest digest, echoed into the report.
    pub manifest_digest: Option<Fingerprint>,
}

impl FleetConfig {
    /// A local-mode config with `shards` workers.
    pub fn local(spec: Spec, spec_name: &str, engine: Engine, shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            engine,
            spec,
            spec_name: spec_name.to_string(),
            cache_dir: None,
            backends: Vec::new(),
            manifest_digest: None,
        }
    }
}

/// What happened to one program.
#[derive(Clone, Debug)]
enum Outcome {
    /// Complete run: no violations = certified.
    Done { sites: Vec<Violation>, inconclusive: Option<String>, truth_ok: Option<bool> },
    /// The program's certification panicked or errored (contained).
    Poisoned { message: String },
}

/// Per-worker counters, shared so that a dead worker's row still reports
/// what it did before it died.
struct ShardState {
    processed: AtomicU64,
    poisoned: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    delta_seeded: AtomicU64,
    latency: Histogram,
}

/// How one worker certifies.
enum Via<'a> {
    /// In-process, through the fleet's one shared store.
    Local(&'a IncrementalCertifier),
    /// Over a `canvas serve` connection.
    Remote(TcpStream, BufReader<TcpStream>),
}

/// One worker's private state.
struct Worker<'a> {
    shard: usize,
    via: Via<'a>,
}

/// Certifies `item` in-process, classifying every failure as a contained
/// per-program outcome.
fn process_local(
    inc: &IncrementalCertifier,
    item: &FleetItem,
    engine: Engine,
) -> (Outcome, RunCacheStats) {
    let program = match Program::parse(&item.source, inc.certifier().spec()) {
        Ok(p) => p,
        Err(e) => {
            return (
                Outcome::Poisoned { message: format!("frontend: {e}") },
                RunCacheStats::default(),
            )
        }
    };
    match inc.certify_program_cached(&program, engine) {
        Ok((report, stats)) => {
            let inconclusive = match report.verdict {
                Verdict::Inconclusive { reason } => Some(reason),
                Verdict::Complete => None,
            };
            let sites = report.violations;
            let truth_ok = truth_check(item, engine, inconclusive.is_some(), &sites);
            (Outcome::Done { sites, inconclusive, truth_ok }, stats)
        }
        Err(e) => {
            (Outcome::Poisoned { message: format!("certify: {e}") }, RunCacheStats::default())
        }
    }
}

/// Compares reported violation lines against the manifest ground truth
/// (only meaningful for the engine the generator recorded truth for).
fn truth_check(
    item: &FleetItem,
    engine: Engine,
    inconclusive: bool,
    sites: &[Violation],
) -> Option<bool> {
    let expected = item.expected.as_ref()?;
    if engine != Engine::ScmpFds || inconclusive {
        return None;
    }
    let mut got: Vec<u32> = sites.iter().map(|s| s.line).collect();
    got.sort_unstable();
    let mut want = expected.clone();
    want.sort_unstable();
    Some(got == want)
}

/// Certifies `item` over a `canvas serve` connection.
fn process_remote(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    item: &FleetItem,
    idx: usize,
    spec_name: &str,
    engine: Engine,
) -> (Outcome, RunCacheStats) {
    let poisoned = |message: String| (Outcome::Poisoned { message }, RunCacheStats::default());
    let request = obj(vec![
        ("id", Json::Int(idx as u64)),
        ("cmd", Json::Str("certify".to_string())),
        ("source", Json::Str(item.source.clone())),
        ("spec", Json::Str(spec_name.to_string())),
        ("engine", Json::Str(engine.to_string())),
    ]);
    let mut line = request.render_compact();
    line.push('\n');
    if let Err(e) = stream.write_all(line.as_bytes()) {
        return poisoned(format!("backend write: {e}"));
    }
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => return poisoned("backend closed the connection".to_string()),
        Ok(_) => {}
        Err(e) => return poisoned(format!("backend read: {e}")),
    }
    let json = match Json::parse(response.trim_end()) {
        Ok(j) => j,
        Err(e) => return poisoned(format!("backend response: {e}")),
    };
    if json.get("ok") != Some(&Json::Bool(true)) {
        return poisoned(match json.get("error") {
            Some(Json::Str(s)) => format!("backend error: {s}"),
            _ => "backend error".to_string(),
        });
    }
    match read_answer(&json, idx) {
        Ok((sites, inconclusive)) => {
            let mut stats = RunCacheStats::default();
            if let Some(cache) = json.get("cache") {
                let int_of = |k: &str| match cache.get(k) {
                    Some(Json::Int(n)) => *n,
                    _ => 0,
                };
                stats.hits = int_of("hits");
                stats.misses = int_of("misses");
                stats.delta_seeded = int_of("delta_seeded");
            }
            let truth_ok = truth_check(item, engine, inconclusive.is_some(), &sites);
            (Outcome::Done { sites, inconclusive, truth_ok }, stats)
        }
        Err(why) => poisoned(format!("backend response: {why}")),
    }
}

/// Reads the answer of a successful certify response, failing closed: a
/// wrong `id`, an unknown `verdict`, a verdict its violations contradict,
/// or a violation with a missing, mistyped or out-of-range field is an
/// `Err`, never a certified program. Returns the violations and, for an
/// inconclusive verdict, its reason.
fn read_answer(json: &Json, idx: usize) -> Result<(Vec<Violation>, Option<String>), String> {
    if json.get("id") != Some(&Json::Int(idx as u64)) {
        return Err(format!("id is not the request's {idx}"));
    }
    let Some(Json::Arr(raw)) = json.get("violations") else {
        return Err("missing violations array".to_string());
    };
    let sites = raw.iter().map(violation_from_json).collect::<Result<Vec<_>, String>>()?;
    match json.get("verdict") {
        Some(Json::Str(v)) if v == "inconclusive" => Ok((
            sites,
            Some(match json.get("reason") {
                Some(Json::Str(r)) => r.clone(),
                _ => "inconclusive".to_string(),
            }),
        )),
        Some(Json::Str(v)) if v == "certified" && sites.is_empty() => Ok((sites, None)),
        Some(Json::Str(v)) if v == "violations" && !sites.is_empty() => Ok((sites, None)),
        Some(Json::Str(v)) if v == "certified" || v == "violations" => {
            Err(format!("verdict {v:?} contradicts {} violations", sites.len()))
        }
        _ => Err("verdict is not certified, violations or inconclusive".to_string()),
    }
}

/// Runs the fleet: certifies every program exactly once (modulo worker
/// death) through one shared certificate store, persists the store, and
/// aggregates the report.
///
/// # Errors
///
/// Derivation failure (the spec itself is bad), or a cache-store I/O
/// error at persist time. Per-program and per-worker failures never
/// surface as errors — they are contained and counted in the report.
pub fn run_fleet(items: &[FleetItem], cfg: &FleetConfig) -> Result<FleetReport, CanvasError> {
    let started = Instant::now();
    let n = items.len();
    let shards = cfg.shards.clamp(1, n.max(1));
    let remote = !cfg.backends.is_empty();

    // local mode: one certifier derivation over one store, shared by
    // every worker
    let local = if remote {
        None
    } else {
        let store = match &cfg.cache_dir {
            Some(dir) => CertCache::open(dir),
            None => CertCache::in_memory(),
        };
        Some(IncrementalCertifier::new(Certifier::from_spec(cfg.spec.clone())?, store))
    };

    let states: Vec<ShardState> = (0..shards)
        .map(|_| ShardState {
            processed: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            delta_seeded: AtomicU64::new(0),
            latency: Histogram::new("fleet.shard_latency_ns"),
        })
        .collect();

    // taken by the one worker the injected shard-death fault kills
    let death = AtomicBool::new(false);
    let setup = |shard: usize| {
        let via = match &local {
            Some(inc) => Via::Local(inc),
            // a dead backend kills this worker before it claims anything;
            // the other workers claim the whole corpus
            None => {
                let backend = &cfg.backends[shard % cfg.backends.len()];
                let stream = TcpStream::connect(backend)
                    .unwrap_or_else(|e| panic!("backend {backend} unreachable: {e}"));
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .unwrap_or_else(|e| panic!("backend {backend}: cannot clone stream: {e}")),
                );
                Via::Remote(stream, reader)
            }
        };
        Worker { shard, via }
    };
    let claimed = canvas_suite::claim_each(n, shards, setup, |worker: &mut Worker<'_>, idx| {
        // injected fault: the first worker, of any index, to claim a
        // program after completing one dies between programs (a corpus
        // with more programs than shards always has one, whatever the
        // schedule); the claimed index is its lost in-flight program
        let state = &states[worker.shard];
        if state.processed.load(Ordering::Relaxed) >= 1
            && canvas_faults::active(Fault::ShardDeath)
            && death.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            panic!(
                "injected fault shard-death: fleet worker {} died mid-corpus (in-flight: {})",
                worker.shard, items[idx].name
            );
        }
        let t0 = Instant::now();
        let contained = catch_unwind(AssertUnwindSafe(|| match &mut worker.via {
            Via::Local(inc) => process_local(inc, &items[idx], cfg.engine),
            Via::Remote(stream, reader) => {
                process_remote(stream, reader, &items[idx], idx, &cfg.spec_name, cfg.engine)
            }
        }));
        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        state.latency.record_value(ns);
        let outcome = match contained {
            Ok((outcome, stats)) => {
                state.hits.fetch_add(stats.hits, Ordering::Relaxed);
                state.misses.fetch_add(stats.misses, Ordering::Relaxed);
                state.delta_seeded.fetch_add(stats.delta_seeded, Ordering::Relaxed);
                outcome
            }
            Err(payload) => Outcome::Poisoned { message: panic_message(payload.as_ref()) },
        };
        if matches!(outcome, Outcome::Poisoned { .. }) {
            state.poisoned.fetch_add(1, Ordering::Relaxed);
        }
        state.processed.fetch_add(1, Ordering::Relaxed);
        outcome
    });
    if let Some(inc) = &local {
        inc.persist()?;
    }

    // aggregate: verdict counts and the index-ordered outcome digest are
    // schedule-independent; everything per-worker is measured
    let mut report = FleetReport {
        engine: cfg.engine.to_string(),
        spec: cfg.spec_name.clone(),
        mode: if remote { "serve".to_string() } else { "local".to_string() },
        shards_requested: shards,
        programs: n,
        certified: 0,
        violating: 0,
        violation_sites: 0,
        inconclusive: 0,
        poisoned_programs: 0,
        dead_shards: 0,
        truth_checked: 0,
        truth_mismatches: 0,
        corpus_digest: Fingerprint(0),
        manifest_digest: cfg.manifest_digest,
        cache: RunCacheStats::default(),
        shard_rows: Vec::new(),
        wall: std::time::Duration::default(),
    };
    let mut h = Hasher64::new();
    for (item, outcome) in items.iter().zip(&claimed.results) {
        h.write_str(&item.name);
        match outcome {
            Some(Outcome::Done { sites, inconclusive, truth_ok }) => {
                match inconclusive {
                    Some(reason) => {
                        report.inconclusive += 1;
                        h.write_u8(2);
                        h.write_str(reason);
                    }
                    None if sites.is_empty() => {
                        report.certified += 1;
                        h.write_u8(0);
                    }
                    None => {
                        report.violating += 1;
                        h.write_u8(1);
                    }
                }
                report.violation_sites += sites.len();
                h.write_usize(sites.len());
                for s in sites {
                    h.write_str(&s.method);
                    h.write_u32(s.line);
                    h.write_u32(s.col);
                    h.write_str(&s.what);
                }
                if let Some(ok) = truth_ok {
                    report.truth_checked += 1;
                    if !ok {
                        report.truth_mismatches += 1;
                    }
                }
            }
            Some(Outcome::Poisoned { message }) => {
                canvas_telemetry::events::warn(
                    "fleet.poisoned",
                    format!("{}: {message}", item.name),
                );
                report.poisoned_programs += 1;
                h.write_u8(3);
            }
            None => {
                // lost with a dead worker (its in-flight program)
                report.poisoned_programs += 1;
                h.write_u8(4);
            }
        }
    }
    report.corpus_digest = h.finish();

    for (s, (state, worker)) in states.iter().zip(&claimed.workers).enumerate() {
        let dead = worker.is_none();
        report.dead_shards += usize::from(dead);
        let row = ShardRow {
            shard: s,
            processed: state.processed.load(Ordering::Relaxed),
            poisoned_programs: state.poisoned.load(Ordering::Relaxed),
            dead,
            hits: state.hits.load(Ordering::Relaxed),
            misses: state.misses.load(Ordering::Relaxed),
            delta_seeded: state.delta_seeded.load(Ordering::Relaxed),
            latency: state.latency.stat(),
        };
        report.cache.hits += row.hits;
        report.cache.misses += row.misses;
        report.cache.delta_seeded += row.delta_seeded;
        report.shard_rows.push(row);
    }

    FLEET_PROGRAMS.add((report.programs - report.poisoned_programs) as u64);
    FLEET_VIOLATING.add(report.violating as u64);
    FLEET_POISONED.add(report.poisoned_programs as u64);
    FLEET_DEAD_SHARDS.add(report.dead_shards as u64);
    report.wall = started.elapsed();
    Ok(report)
}

/// Maps a fleet report to the CLI exit code contract: `3` when anything
/// was inconclusive or poisoned (the fleet cannot vouch for the corpus),
/// `1` when violations were found, `0` when everything certified.
pub fn exit_code(report: &FleetReport) -> u8 {
    if report.inconclusive > 0 || report.poisoned_programs > 0 || report.dead_shards > 0 {
        3
    } else if report.violating > 0 {
        1
    } else {
        0
    }
}
