//! The sharded, work-stealing corpus certification driver.
//!
//! The corpus manifest is partitioned into `shards` contiguous ranges,
//! one worker thread per shard. Each shard owns an atomic claim cursor;
//! a worker first drains its own partition and then *steals* from the
//! other shards' cursors, so a slow or dead shard's remaining work is
//! redistributed automatically. Claiming is a single `fetch_add`, which
//! makes every program processed exactly once (a claimed index is either
//! completed, poisoned, or — if the claimant dies — lost with the dead
//! worker, which is the failure-isolation contract: a worker death loses
//! only its in-flight program).
//!
//! Each shard runs its own in-memory certificate cache, optionally
//! seeded from a warm on-disk store; at the end the shard caches are
//! merged losslessly (content-addressed, order-independent — see
//! `CertCache::merge_from`) back into the store. With remote backends
//! configured, shards instead speak the `canvas serve` NDJSON protocol
//! over TCP and caching happens server-side.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use canvas_core::{CanvasError, Certifier, Engine, Verdict};
use canvas_easl::Spec;
use canvas_faults::Fault;
use canvas_incr::fingerprint::{Fingerprint, Hasher64};
use canvas_incr::json::{obj, Json};
use canvas_incr::store::CertCache;
use canvas_incr::{IncrementalCertifier, RunCacheStats};
use canvas_minijava::Program;
use canvas_telemetry::{Counter, Histogram};

use crate::manifest::FleetItem;
use crate::report::{FleetCacheTraffic, FleetReport, ShardRow};

static FLEET_PROGRAMS: Counter = Counter::new("fleet.programs");
static FLEET_VIOLATING: Counter = Counter::new("fleet.programs_violating");
static FLEET_STEALS: Counter = Counter::non_deterministic("fleet.steals");
static FLEET_POISONED: Counter = Counter::non_deterministic("fleet.poisoned_programs");
static FLEET_DEAD_SHARDS: Counter = Counter::non_deterministic("fleet.dead_shards");
static FLEET_MERGED: Counter = Counter::non_deterministic("fleet.cache_merge_entries");

/// How one fleet run is configured.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker/partition/cache count (clamped to `[1, programs]`).
    pub shards: usize,
    /// Engine every program is certified with.
    pub engine: Engine,
    /// The loaded spec (local mode derives one certifier from it).
    pub spec: Spec,
    /// The spec's name, as remote backends expect it (e.g. `cmp`).
    pub spec_name: String,
    /// Warm certificate store directory: seeded from at startup, merged
    /// into and persisted at the end.
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

/// One violation site, as the digest and truth check see it.
#[derive(Clone, Debug)]
struct Site {
    method: String,
    line: u32,
    col: u32,
    what: String,
}

/// What happened to one program.
#[derive(Clone, Debug)]
enum Outcome {
    /// Complete run: empty sites = certified.
    Done { sites: Vec<Site>, inconclusive: Option<String>, truth_ok: Option<bool> },
    /// The program's certification panicked or errored (contained).
    Poisoned { message: String },
}

/// Per-shard shared state (written by whichever worker processes the
/// shard's programs, read once at aggregation).
struct ShardState {
    processed: AtomicU64,
    stolen: AtomicU64,
    poisoned: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    delta_seeded: AtomicU64,
    dead: AtomicBool,
    latency: Histogram,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Claims the next unprocessed index: own partition first, then steal
/// from the other shards in ring order. Returns `(index, stolen)`.
fn claim(cursors: &[AtomicUsize], ends: &[usize], me: usize) -> Option<(usize, bool)> {
    let n = cursors.len();
    for k in 0..n {
        let shard = (me + k) % n;
        let idx = cursors[shard].fetch_add(1, Ordering::SeqCst);
        if idx < ends[shard] {
            return Some((idx, k != 0));
        }
    }
    None
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
    match inc.certify_program_cached_with_stats(&program, engine) {
        Ok((report, stats)) => {
            let sites: Vec<Site> = report
                .violations
                .iter()
                .map(|v| Site {
                    method: v.method.clone(),
                    line: v.line,
                    col: v.col,
                    what: v.what.clone(),
                })
                .collect();
            let inconclusive = match &report.verdict {
                Verdict::Inconclusive { reason } => Some(reason.clone()),
                Verdict::Complete => None,
            };
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
    sites: &[Site],
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
        return (
            Outcome::Poisoned { message: format!("backend write: {e}") },
            RunCacheStats::default(),
        );
    }
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => {
            return (
                Outcome::Poisoned { message: "backend closed the connection".to_string() },
                RunCacheStats::default(),
            )
        }
        Ok(_) => {}
        Err(e) => {
            return (
                Outcome::Poisoned { message: format!("backend read: {e}") },
                RunCacheStats::default(),
            )
        }
    }
    let json = match Json::parse(response.trim_end()) {
        Ok(j) => j,
        Err(e) => {
            return (
                Outcome::Poisoned { message: format!("backend response: {e}") },
                RunCacheStats::default(),
            )
        }
    };
    if json.get("ok") != Some(&Json::Bool(true)) {
        let message = match json.get("error") {
            Some(Json::Str(s)) => format!("backend error: {s}"),
            _ => "backend error".to_string(),
        };
        return (Outcome::Poisoned { message }, RunCacheStats::default());
    }
    let mut sites = Vec::new();
    if let Some(Json::Arr(vs)) = json.get("violations") {
        for v in vs {
            let str_of = |k: &str| match v.get(k) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            let int_of = |k: &str| match v.get(k) {
                Some(Json::Int(n)) => *n as u32,
                _ => 0,
            };
            sites.push(Site {
                method: str_of("method"),
                line: int_of("line"),
                col: int_of("col"),
                what: str_of("what"),
            });
        }
    }
    let inconclusive = match json.get("verdict") {
        Some(Json::Str(v)) if v == "inconclusive" => Some(match json.get("reason") {
            Some(Json::Str(r)) => r.clone(),
            _ => "inconclusive".to_string(),
        }),
        _ => None,
    };
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

/// Runs the fleet: partitions `items` across shards, certifies every
/// program exactly once (modulo worker death), merges the shard caches,
/// and aggregates the report.
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

    // contiguous partitions with per-shard claim cursors
    let starts: Vec<usize> = (0..shards).map(|s| s * n / shards).collect();
    let ends: Vec<usize> = (0..shards).map(|s| (s + 1) * n / shards).collect();
    let cursors: Vec<AtomicUsize> = starts.iter().map(|&s| AtomicUsize::new(s)).collect();

    // one certifier derivation, cloned per worker (local mode)
    let certifier = if remote { None } else { Some(Certifier::from_spec(cfg.spec.clone())?) };

    // warm store: seed every shard cache from it, merge back at the end
    let store = cfg.cache_dir.as_ref().map(|dir| CertCache::open(dir));
    let shard_caches: Vec<Arc<CertCache>> =
        (0..shards).map(|_| Arc::new(CertCache::in_memory())).collect();
    let mut seeded = 0u64;
    if let Some(store) = &store {
        for cache in &shard_caches {
            seeded += cache.merge_from(store).merged;
        }
    }

    let slots: Vec<Mutex<Option<Outcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let states: Vec<ShardState> = (0..shards)
        .map(|_| ShardState {
            processed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            delta_seeded: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            latency: Histogram::new("fleet.shard_latency_ns"),
        })
        .collect();

    // taken by the one worker the injected shard-death fault kills
    let death = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..shards {
            let death = &death;
            let cursors = &cursors;
            let ends = &ends;
            let slots = &slots;
            let states = &states;
            let shard_caches = &shard_caches;
            let certifier = certifier.clone();
            scope.spawn(move || {
                let state = &states[w];
                let worker = catch_unwind(AssertUnwindSafe(|| {
                    // local-mode incremental certifier over this shard's cache
                    let inc = certifier
                        .map(|c| IncrementalCertifier::shared(c, Arc::clone(&shard_caches[w])));
                    // remote-mode connection (a dead backend poisons this
                    // shard; the other shards steal its partition)
                    let mut conn = if remote {
                        let backend = &cfg.backends[w % cfg.backends.len()];
                        let stream = TcpStream::connect(backend)
                            .unwrap_or_else(|e| panic!("backend {backend} unreachable: {e}"));
                        let reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| {
                            panic!("backend {backend}: cannot clone stream: {e}")
                        }));
                        Some((stream, reader))
                    } else {
                        None
                    };
                    let mut completed = 0u64;
                    while let Some((idx, stolen)) = claim(cursors, ends, w) {
                        // injected fault: the first worker, of any index,
                        // to claim a program after completing one dies
                        // between programs (a corpus with more programs than
                        // shards always has one, whatever the schedule); the
                        // claimed index is its lost in-flight program
                        if completed >= 1
                            && canvas_faults::active(Fault::ShardDeath)
                            && death
                                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                                .is_ok()
                        {
                            panic!(
                                "injected fault shard-death: fleet worker {w} died mid-corpus \
                                 (in-flight: {})",
                                items[idx].name
                            );
                        }
                        let t0 = Instant::now();
                        let contained =
                            catch_unwind(AssertUnwindSafe(|| match (&inc, &mut conn) {
                                (Some(inc), _) => process_local(inc, &items[idx], cfg.engine),
                                (None, Some((stream, reader))) => process_remote(
                                    stream,
                                    reader,
                                    &items[idx],
                                    idx,
                                    &cfg.spec_name,
                                    cfg.engine,
                                ),
                                (None, None) => unreachable!("remote mode always has a connection"),
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
                            Err(payload) => Outcome::Poisoned { message: panic_message(payload) },
                        };
                        if matches!(outcome, Outcome::Poisoned { .. }) {
                            state.poisoned.fetch_add(1, Ordering::Relaxed);
                        }
                        *lock(&slots[idx]) = Some(outcome);
                        state.processed.fetch_add(1, Ordering::Relaxed);
                        if stolen {
                            state.stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        completed += 1;
                    }
                }));
                if worker.is_err() {
                    state.dead.store(true, Ordering::SeqCst);
                }
            });
        }
    });

    // merge the shard caches losslessly into the (possibly disk-backed)
    // final store, then persist it
    let merge_started = Instant::now();
    let mut cache = FleetCacheTraffic { seeded, ..FleetCacheTraffic::default() };
    if !remote {
        let merged_store = store.unwrap_or_else(CertCache::in_memory);
        for shard_cache in &shard_caches {
            let stats = merged_store.merge_from(shard_cache);
            cache.merged += stats.merged;
            cache.duplicates += stats.duplicates;
            cache.conflicts += stats.conflicts;
        }
        FLEET_MERGED.add(cache.merged);
        if cfg.cache_dir.is_some() {
            merged_store.persist()?;
        }
    }
    let merge_wall = merge_started.elapsed();

    // aggregate: verdict counts and the index-ordered outcome digest are
    // schedule-independent; everything per-shard is measured
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
        cache,
        steals: 0,
        shard_rows: Vec::new(),
        wall: std::time::Duration::default(),
        merge_wall,
    };
    let mut h = Hasher64::new();
    for (item, slot) in items.iter().zip(&slots) {
        h.write_str(&item.name);
        match lock(slot).as_ref() {
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

    for (s, state) in states.iter().enumerate() {
        let dead = state.dead.load(Ordering::SeqCst);
        if dead {
            report.dead_shards += 1;
        }
        report.steals += state.stolen.load(Ordering::Relaxed);
        report.cache.hits += state.hits.load(Ordering::Relaxed);
        report.cache.misses += state.misses.load(Ordering::Relaxed);
        report.cache.delta_seeded += state.delta_seeded.load(Ordering::Relaxed);
        report.shard_rows.push(ShardRow {
            shard: s,
            processed: state.processed.load(Ordering::Relaxed),
            stolen: state.stolen.load(Ordering::Relaxed),
            poisoned_programs: state.poisoned.load(Ordering::Relaxed),
            dead,
            hits: state.hits.load(Ordering::Relaxed),
            misses: state.misses.load(Ordering::Relaxed),
            delta_seeded: state.delta_seeded.load(Ordering::Relaxed),
            latency: state.latency.stat(),
        });
    }

    FLEET_PROGRAMS.add((report.programs - report.poisoned_programs) as u64);
    FLEET_VIOLATING.add(report.violating as u64);
    FLEET_STEALS.add(report.steals);
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
