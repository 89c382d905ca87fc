//! The certificate store: an in-memory map of content-addressed
//! certificates with an optional versioned on-disk mirror.
//!
//! The disk format is deliberately line-oriented so a torn write degrades
//! gracefully: a `canvas-cert-cache/2` header line followed by one
//! `<key-hex> <compact-json>` line per certificate. Loading tolerates any
//! corruption — a bad header drops the whole file, a bad line drops that
//! line and everything after it (a truncated tail is the common tear) —
//! and *always* comes back as a usable store; corruption is a warm-start
//! miss, never an error. The `cache-corrupt` fault-injection point
//! simulates a torn file so CI can prove the recovery path.
//!
//! Only **complete** verdicts are stored. Inconclusive verdicts depend on
//! wall-clock deadlines and would make cache behavior time-dependent;
//! re-running them is the sound choice.
//!
//! Since format 2 a cached cell can carry the engine's replayable fixpoint
//! solution ([`CachedCell`]) alongside the verdict, so a warm store can
//! serve proof-carrying certificates without re-running the engine. An
//! entry of a solution-emitting engine that carries no solution (a foreign
//! or hand-edited line) degrades to a miss.
//!
//! The in-memory tier is a size-budgeted LRU ([`crate::lru`]): each
//! certificate is charged its byte-accurate store-line cost, and when the
//! hot tier overflows its `--cache-bytes` budget (one exact global bound)
//! the least-recently used certificates are *evicted*. Eviction is sound
//! by construction — every resident entry is a complete verdict that any
//! later request can recompute from scratch, so losing one can cost
//! latency but never change an answer. On a disk-backed store the evicted line spills to a cold map
//! that [`CertCache::persist`] still writes (the disk tier keeps everything);
//! an in-memory store simply forgets it, and the next lookup is a cold miss.
//!
//! Next to the cells sits a *program memo*: for every program whose
//! certificate run completed with all its cells stored, the cell keys that
//! run used, in walk order, under a key derived from the exact source text.
//! A resubmission of the same text is answered
//! from the memoised keys without fingerprinting the program again. The
//! memo is a hint: it is never persisted, it lives in its own LRU under the
//! same byte budget as the hot tier, and a replay counts nothing unless
//! every memoised cell is still resident.
//!
//! Both LRUs, the spill map and the accounting sit behind one mutex, taken
//! once by every lookup, store, replay, remember, persist and occupancy
//! read.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use canvas_abstraction::{CellSolution, CertCell, EntryAssumption};
use canvas_core::{
    CanvasError, Engine, ErrorKind, Report, Stage, Stats, Verdict, Violation, Witness, WitnessStep,
};

use crate::fingerprint::Fingerprint;
use crate::json::{obj, Json};
use crate::lru::Lru;

/// Header line of the on-disk store; bumped when the line format changes.
/// A [`crate::fingerprint::KEY_VERSION`] bump needs none: entries under
/// old keys simply miss.
pub const STORE_FORMAT: &str = "canvas-cert-cache/2";

const FILE_NAME: &str = "certs.v2";

// Cache traffic is deterministic for a fixed sequential workload (the eval
// incremental stage), so the counters are baseline-gated.
static CACHE_HITS: canvas_telemetry::Counter = canvas_telemetry::Counter::new("incr.cache_hits");
static CACHE_MISSES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.cache_misses");
static CACHE_STORES: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.cache_stores");
static CACHE_INVALIDATIONS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.cache_invalidations");
static CACHE_EVICTIONS: canvas_telemetry::Counter =
    canvas_telemetry::Counter::new("incr.cache_evictions");
/// Cumulative store-line bytes admitted to the hot tier (monotonic, so it
/// stays a baseline-gated counter; *live* occupancy is the
/// `canvas_serve_cache_bytes` gauge).
static CACHE_BYTES: canvas_telemetry::Counter = canvas_telemetry::Counter::new("incr.cache_bytes");

/// The engines' known static witness-unavailability reasons.
/// `Witness::Unavailable` holds a `&'static str`, so a reason loaded from
/// disk must be mapped back onto one of these (or a generic fallback).
const KNOWN_REASONS: &[&str] = &[
    "the TVLA engines do not record provenance",
    "the allocation-site baseline does not record provenance",
];

fn static_reason(reason: &str) -> &'static str {
    KNOWN_REASONS
        .iter()
        .copied()
        .find(|&k| k == reason)
        .unwrap_or("witness detail not retained by the certificate cache")
}

/// The serializable certificate of one complete `(method, entry, engine)`
/// run: the verdict payload without the wall-clock duration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedReport {
    /// Engine name (sanity-checked on reuse).
    pub engine: String,
    /// Predicate instances in play.
    pub predicates: u64,
    /// Deterministic engine work units.
    pub work: u64,
    /// Peak per-node abstract-state size.
    pub max_states: u64,
    /// Whether a state budget degraded the result to conservative.
    pub exhausted: bool,
    /// The violations, in normalized order, witnesses included.
    pub violations: Vec<Violation>,
    /// The replayable fixpoint solution, when the engine emitted one.
    pub cell: Option<CachedCell>,
    /// The boolean program's delta-diff shape (node/edge structure), when
    /// the run captured one: together with the solution it lets a later
    /// edit of the same method seed its re-solve from this fixpoint
    /// instead of ⊥ ([`canvas_dataflow::delta`]). Optional and absent in
    /// pre-delta stores — a missing payload only disables seeding.
    pub delta: Option<canvas_dataflow::DeltaPayload>,
}

/// The replayable solution of a cached cell: everything a
/// [`CertCell`] needs except the method name and entry assumption, which
/// the cache key (and lookup site) already determine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedCell {
    /// Predicate-instance count (the solution's bit width).
    pub preds: u32,
    /// Digest of the boolean program the solution is a fixpoint of.
    pub bp_digest: u64,
    /// The solution payload.
    pub solution: CellSolution,
}

impl CachedReport {
    /// Extracts the cacheable certificate from a report and the engine's
    /// certificate cell, if it emitted one (so the warm path can serve
    /// proof-carrying certificates), or `None` when the verdict is
    /// inconclusive (never cached — see the module docs).
    pub fn from_report(report: &Report, cell: Option<&CertCell>) -> Option<CachedReport> {
        if report.verdict != Verdict::Complete {
            return None;
        }
        Some(CachedReport {
            engine: report.engine.to_string(),
            predicates: report.stats.predicates as u64,
            work: report.stats.work as u64,
            max_states: report.stats.max_states as u64,
            exhausted: report.stats.exhausted,
            violations: report.violations.clone(),
            cell: cell.map(|c| CachedCell {
                preds: c.preds,
                bp_digest: c.bp_digest,
                solution: c.solution.clone(),
            }),
            delta: None,
        })
    }

    /// Rehydrates the certificate as a [`Report`] (duration zero — the
    /// whole point is that no time was spent).
    pub fn to_report(&self, engine: Engine) -> Report {
        Report {
            engine,
            violations: self.violations.clone(),
            stats: Stats {
                duration: std::time::Duration::ZERO,
                predicates: self.predicates as usize,
                work: self.work as usize,
                max_states: self.max_states as usize,
                exhausted: self.exhausted,
            },
            verdict: Verdict::Complete,
        }
    }

    /// The compact JSON form stored on disk (one line).
    pub fn to_json(&self) -> Json {
        let witness = |w: &Option<Witness>| match w {
            None => Json::Null,
            Some(Witness::Unavailable(reason)) => {
                obj(vec![("unavailable", Json::Str(reason.to_string()))])
            }
            Some(Witness::Trace(steps)) => obj(vec![(
                "trace",
                Json::Arr(
                    steps
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("line", Json::Int(u64::from(s.line))),
                                ("col", Json::Int(u64::from(s.col))),
                                ("what", Json::Str(s.what.clone())),
                                ("fact", Json::Str(s.fact.clone())),
                            ])
                        })
                        .collect(),
                ),
            )]),
        };
        let indices =
            |row: &[u32]| Json::Arr(row.iter().map(|&b| Json::Int(u64::from(b))).collect());
        let cell = match &self.cell {
            None => Json::Null,
            Some(c) => {
                let solution = match &c.solution {
                    CellSolution::MayOne { nodes } => obj(vec![(
                        "may",
                        Json::Arr(nodes.iter().map(|row| indices(row)).collect()),
                    )]),
                    CellSolution::Relational { nodes } => obj(vec![(
                        "rel",
                        Json::Arr(
                            nodes
                                .iter()
                                .map(|vals| Json::Arr(vals.iter().map(|v| indices(v)).collect()))
                                .collect(),
                        ),
                    )]),
                    CellSolution::Unavailable { reason } => {
                        obj(vec![("unavailable", Json::Str(reason.clone()))])
                    }
                };
                obj(vec![
                    ("preds", Json::Int(u64::from(c.preds))),
                    ("bp", Json::Int(c.bp_digest)),
                    ("solution", solution),
                ])
            }
        };
        let delta = match &self.delta {
            None => Json::Null,
            Some(d) => obj(vec![
                ("nodes", Json::Int(u64::from(d.nodes))),
                ("entry", Json::Int(u64::from(d.entry))),
                ("eu", indices(&d.entry_unknown)),
                (
                    "edges",
                    Json::Arr(
                        d.edges
                            .iter()
                            .map(|e| {
                                Json::Arr(vec![
                                    Json::Int(u64::from(e.from)),
                                    Json::Int(u64::from(e.to)),
                                    Json::Int(e.digest),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        obj(vec![
            ("engine", Json::Str(self.engine.clone())),
            ("predicates", Json::Int(self.predicates)),
            ("work", Json::Int(self.work)),
            ("max_states", Json::Int(self.max_states)),
            ("exhausted", Json::Bool(self.exhausted)),
            ("cell", cell),
            ("delta", delta),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            obj(vec![
                                ("method", Json::Str(v.method.clone())),
                                ("line", Json::Int(u64::from(v.line))),
                                ("col", Json::Int(u64::from(v.col))),
                                ("what", Json::Str(v.what.clone())),
                                ("witness", witness(&v.witness)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the compact JSON form, strictly: a missing or mistyped field
    /// is corruption, reported as `Err` so the loader can drop the line.
    pub fn from_json(json: &Json) -> Result<CachedReport, String> {
        let Some(Json::Arr(raw_violations)) = json.get("violations") else {
            return Err("missing violations array".to_string());
        };
        let violations =
            raw_violations.iter().map(violation_from_json).collect::<Result<Vec<_>, _>>()?;
        let indices = |j: &Json| -> Result<Vec<u32>, String> {
            let Json::Arr(row) = j else { return Err("solution row is not an array".to_string()) };
            row.iter()
                .map(|b| match b {
                    Json::Int(n) => {
                        u32::try_from(*n).map_err(|_| "solution index out of range".to_string())
                    }
                    _ => Err("solution index is not an integer".to_string()),
                })
                .collect()
        };
        let cell = match json.get("cell") {
            Some(Json::Null) | None => None,
            Some(c) => {
                let Some(sol) = c.get("solution") else {
                    return Err("cell without solution".to_string());
                };
                let solution = if let Some(Json::Arr(nodes)) = sol.get("may") {
                    CellSolution::MayOne {
                        nodes: nodes.iter().map(&indices).collect::<Result<_, _>>()?,
                    }
                } else if let Some(Json::Arr(nodes)) = sol.get("rel") {
                    let mut rows = Vec::with_capacity(nodes.len());
                    for vals in nodes {
                        let Json::Arr(vals) = vals else {
                            return Err("rel node is not an array".to_string());
                        };
                        rows.push(vals.iter().map(&indices).collect::<Result<_, _>>()?);
                    }
                    CellSolution::Relational { nodes: rows }
                } else if let Some(Json::Str(reason)) = sol.get("unavailable") {
                    CellSolution::Unavailable { reason: reason.clone() }
                } else {
                    return Err("malformed cell solution".to_string());
                };
                Some(CachedCell {
                    preds: u32_field(c, "preds")?,
                    bp_digest: int_field(c, "bp")?,
                    solution,
                })
            }
        };
        // optional: absent in pre-delta stores (only disables seeding), so
        // `None`/`Null` is not corruption — but a *present* malformed
        // payload is, like every other field
        let delta = match json.get("delta") {
            Some(Json::Null) | None => None,
            Some(d) => {
                let eu = match d.get("eu") {
                    Some(row) => indices(row)?,
                    None => return Err("delta without eu".to_string()),
                };
                let Some(Json::Arr(raw_edges)) = d.get("edges") else {
                    return Err("delta without edges".to_string());
                };
                let mut edges = Vec::with_capacity(raw_edges.len());
                for re in raw_edges {
                    let Json::Arr(triple) = re else {
                        return Err("delta edge is not an array".to_string());
                    };
                    let [Json::Int(from), Json::Int(to), Json::Int(digest)] = triple.as_slice()
                    else {
                        return Err("delta edge is not [from, to, digest]".to_string());
                    };
                    edges.push(canvas_dataflow::delta::DeltaEdge {
                        from: to_u32(*from, "delta edge from")?,
                        to: to_u32(*to, "delta edge to")?,
                        digest: *digest,
                    });
                }
                Some(canvas_dataflow::DeltaPayload {
                    nodes: u32_field(d, "nodes")?,
                    entry: u32_field(d, "entry")?,
                    entry_unknown: eu,
                    edges,
                })
            }
        };
        Ok(CachedReport {
            engine: str_field(json, "engine")?,
            predicates: int_field(json, "predicates")?,
            work: int_field(json, "work")?,
            max_states: int_field(json, "max_states")?,
            exhausted: bool_field(json, "exhausted")?,
            violations,
            cell,
            delta,
        })
    }
}

/// Decodes one `{method, line, col, what, witness?}` violation object, the
/// shape of both store lines and `canvas serve` responses, failing closed:
/// a missing, mistyped or out-of-range field is an `Err`, never a guess. An
/// absent or `null` `witness` decodes to `None`.
///
/// # Errors
///
/// A description of the first bad field.
pub fn violation_from_json(j: &Json) -> Result<Violation, String> {
    let witness = match j.get("witness") {
        Some(Json::Null) | None => None,
        Some(w) => {
            if let Some(Json::Str(reason)) = w.get("unavailable") {
                Some(Witness::Unavailable(static_reason(reason)))
            } else if let Some(Json::Arr(raw_steps)) = w.get("trace") {
                let steps = raw_steps
                    .iter()
                    .map(|rs| {
                        Ok(WitnessStep {
                            line: u32_field(rs, "line")?,
                            col: u32_field(rs, "col")?,
                            what: str_field(rs, "what")?,
                            fact: str_field(rs, "fact")?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Some(Witness::Trace(steps))
            } else {
                return Err("malformed witness".to_string());
            }
        }
    };
    Ok(Violation {
        method: str_field(j, "method")?,
        line: u32_field(j, "line")?,
        col: u32_field(j, "col")?,
        what: str_field(j, "what")?,
        witness,
    })
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

fn int_field(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(Json::Int(n)) => Ok(*n),
        _ => Err(format!("missing integer field {key:?}")),
    }
}

fn bool_field(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field {key:?}")),
    }
}

fn to_u32(n: u64, what: &str) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("{what} out of range"))
}

fn u32_field(j: &Json, key: &str) -> Result<u32, String> {
    to_u32(int_field(j, key)?, key)
}

/// Hit/miss/invalidation accounting of one store, mirrored into the
/// `incr.cache_*` telemetry counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to a fresh run.
    pub misses: u64,
    /// Certificates inserted.
    pub stores: u64,
    /// Misses where the same `(method, entry, engine)` cell was previously
    /// cached under a different key — i.e. an edit invalidated it.
    pub invalidations: u64,
    /// Certificates evicted from the hot tier by the byte budget.
    pub evictions: u64,
    /// Hits answered from the spill (evicted-but-disk-backed) tier.
    pub spill_hits: u64,
    /// Certificates loaded from disk at open time.
    pub loaded: u64,
    /// Whether the on-disk file was corrupt (fully or partially dropped).
    pub recovered_from_corruption: bool,
}

/// One hot-tier entry: the decoded certificate plus the exact store line
/// it serializes to. Keeping the line makes the byte accounting exact,
/// persist allocation-free per entry, and the spill handoff a pointer copy;
/// sharing the certificate makes a hit a reference-count bump.
struct HotEntry {
    report: Arc<CachedReport>,
    line: Arc<str>,
}

/// One cell of a memoised program run: its store key, the qualified name
/// of its method (`<whole-program>` for the interprocedural engine) and its
/// entry assumption.
#[derive(Debug)]
pub(crate) struct MemoCell {
    pub(crate) key: u64,
    pub(crate) method: String,
    pub(crate) entry: EntryAssumption,
}

/// A program answered from the memo: its memoised cells, in walk order,
/// and the certificate each one resolved to.
pub(crate) type Replay = (Arc<[MemoCell]>, Vec<Arc<CachedReport>>);

/// The byte cost a memoised cell list is charged in the memo's LRU: the
/// cells themselves plus their method names.
fn memo_cost(cells: &[MemoCell]) -> usize {
    cells.iter().map(|c| std::mem::size_of::<MemoCell>() + c.method.len()).sum()
}

/// The canvas-cert-cache/2 cost of one entry: `<16-hex-key> <line>\n`.
fn line_cost(line: &str) -> usize {
    16 + 1 + line.len() + 1
}

fn decode_line(line: &str) -> Result<CachedReport, String> {
    let json = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    CachedReport::from_json(&json)
}

struct Inner {
    /// The hot tier: resident certificates under the byte budget.
    hot: Lru<HotEntry>,
    /// Program memo: memoised cell lists by program key, never persisted.
    memo: Lru<Arc<[MemoCell]>>,
    /// Last key seen per `engine`, `method` and `entry_unknown` cell, for
    /// invalidation accounting. Nested by name, so a lookup of a cell seen
    /// before borrows its names instead of allocating a key.
    last_keys: HashMap<String, HashMap<String, [Option<u64>; 2]>>,
    /// Serialized lines of entries evicted from the hot tier. Only
    /// disk-backed stores spill (the disk tier keeps everything); an
    /// in-memory store forgets evictees. Disjoint from the hot tier by
    /// construction.
    spill: HashMap<u64, Arc<str>>,
    stats: CacheStats,
    dirty: bool,
}

impl Inner {
    fn new(cache_bytes: Option<u64>) -> Inner {
        Inner {
            hot: Lru::new(cache_bytes),
            memo: Lru::new(cache_bytes),
            last_keys: HashMap::new(),
            spill: HashMap::new(),
            stats: CacheStats::default(),
            dirty: false,
        }
    }

    /// Records `key` as the cell's latest key, returning the previous one.
    fn swap_last_key(
        &mut self,
        method: &str,
        entry_unknown: bool,
        engine: &str,
        key: u64,
    ) -> Option<u64> {
        let slot = usize::from(entry_unknown);
        if let Some(keys) = self.last_keys.get_mut(engine).and_then(|m| m.get_mut(method)) {
            return keys[slot].replace(key);
        }
        let mut keys = [None; 2];
        keys[slot] = Some(key);
        self.last_keys.entry(engine.to_string()).or_default().insert(method.to_string(), keys);
        None
    }

    fn count_hit(&mut self) {
        self.stats.hits += 1;
        CACHE_HITS.incr();
    }

    /// Admits `entry` under `key` into the hot tier, counting every entry
    /// it displaces as an eviction and, when `spills` (a disk-backed
    /// store), spilling the evictee (an in-memory store forgets it).
    fn admit(&mut self, key: u64, entry: HotEntry, cost: usize, spills: bool) {
        for (k, e) in self.hot.insert(key, entry, cost) {
            self.stats.evictions += 1;
            CACHE_EVICTIONS.incr();
            if spills {
                self.spill.insert(k, e.line);
            }
        }
    }
}

/// A thread-safe certificate store. Construction never fails: a missing,
/// unreadable, or corrupt disk file is a cold (or partially warm) start.
pub struct CertCache {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
}

impl CertCache {
    /// A purely in-memory, unbounded store ([`CertCache::persist`] is a
    /// no-op).
    pub fn in_memory() -> CertCache {
        Self::in_memory_budgeted(None)
    }

    /// An in-memory store with a hot-tier byte budget. With no disk tier
    /// behind it, an evicted certificate is simply gone and the next
    /// lookup for it is a cold miss.
    pub fn in_memory_budgeted(cache_bytes: Option<u64>) -> CertCache {
        CertCache { inner: Mutex::new(Inner::new(cache_bytes)), path: None }
    }

    /// Opens (or cold-starts) the unbounded store under `dir`. Any disk
    /// problem — missing file, unreadable file, bad header, torn lines —
    /// degrades to fewer warm entries, with a `warning: error[cache/...]`
    /// diagnostic on stderr for anything that was actually dropped.
    pub fn open(dir: &Path) -> CertCache {
        Self::open_budgeted(dir, None)
    }

    /// As [`CertCache::open`], with a hot-tier byte budget. Certificates
    /// beyond the budget live in the spill tier: still persisted, still
    /// hit-able (at a decode cost), just not resident.
    pub fn open_budgeted(dir: &Path, cache_bytes: Option<u64>) -> CertCache {
        let path = dir.join(FILE_NAME);
        let mut entries = HashMap::new();
        let mut inner = Inner::new(cache_bytes);
        let stats = &mut inner.stats;
        match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                // readable-but-failing is worth a warning; still cold-start
                warn(&CanvasError::io(Stage::Cache, &path.display().to_string(), &e));
                stats.recovered_from_corruption = true;
            }
            Ok(text) => {
                // fault-injection point: simulate a torn write by handing
                // the parser only the first half of the file
                let text = if canvas_faults::active(canvas_faults::Fault::CacheCorrupt) {
                    let mut cut = text.len() / 2;
                    while cut > 0 && !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text[..cut].to_string()
                } else {
                    text
                };
                match Self::parse_store(&text) {
                    Ok((loaded, dropped)) => {
                        stats.loaded = loaded.len() as u64;
                        entries = loaded;
                        if let Some(why) = dropped {
                            warn(&CanvasError::new(
                                Stage::Cache,
                                ErrorKind::Parse,
                                format!(
                                    "{}: {why}; kept {} valid certificate(s)",
                                    path.display(),
                                    stats.loaded
                                ),
                            ));
                            stats.recovered_from_corruption = true;
                        }
                    }
                    Err(why) => {
                        warn(&CanvasError::new(
                            Stage::Cache,
                            ErrorKind::Parse,
                            format!("{}: {why}; starting cold", path.display()),
                        ));
                        stats.recovered_from_corruption = true;
                    }
                }
            }
        }
        // Deterministic placement: admit in sorted-key order, and let
        // whatever overflows the budget start life in the spill tier (not
        // counted as an eviction — nothing was lost, it just never became
        // resident).
        let mut keys: Vec<u64> = entries.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let Some(report) = entries.remove(&key) else { continue };
            let line: Arc<str> = Arc::from(report.to_json().render_compact());
            let cost = line_cost(&line);
            for (k, e) in inner.hot.insert(key, HotEntry { report: Arc::new(report), line }, cost) {
                inner.spill.insert(k, e.line);
            }
        }
        CertCache { inner: Mutex::new(inner), path: Some(path) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parses the store text. `Err` = nothing salvageable (bad header);
    /// `Ok((entries, Some(why)))` = a valid prefix with the tail dropped.
    fn parse_store(text: &str) -> Result<(HashMap<u64, CachedReport>, Option<String>), String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(header) if header == STORE_FORMAT => {}
            Some(other) => {
                return Err(format!("unrecognized store header {other:?} (want {STORE_FORMAT})"))
            }
            None => return Err("empty store file".to_string()),
        }
        let mut entries = HashMap::new();
        for (i, line) in lines.enumerate() {
            let parsed = (|| -> Result<(u64, CachedReport), String> {
                let (key_hex, json_text) =
                    line.split_once(' ').ok_or("line is not `<key> <json>`")?;
                let key = Fingerprint::parse(key_hex).ok_or("bad key hex")?;
                let json = Json::parse(json_text).map_err(|e| format!("bad JSON: {e}"))?;
                Ok((key.0, CachedReport::from_json(&json)?))
            })();
            match parsed {
                Ok((key, report)) => {
                    entries.insert(key, report);
                }
                // drop this line AND the rest: mid-file corruption means the
                // tail cannot be trusted either (torn writes tear the tail)
                Err(why) => return Ok((entries, Some(format!("line {}: {why}", i + 2)))),
            }
        }
        Ok((entries, None))
    }

    /// Looks a cell's certificate up, doing hit/miss/invalidation
    /// accounting, and returns `(hit, stale)`. `method`/`entry_unknown`/
    /// `engine` identify the logical cell, so a key change for a cell the
    /// store answered before is counted as an invalidation.
    ///
    /// On such a miss, `stale` is the certificate the same logical cell was
    /// last answered from, under its previous key: exactly the pre-edit
    /// fixpoint the delta re-solve seeds from. The hot tier is evictable,
    /// so the previous key may no longer resolve; a lost seed only means
    /// the re-solve starts cold, which is sound.
    pub fn lookup(
        &self,
        key: Fingerprint,
        method: &str,
        entry_unknown: bool,
        engine: &str,
    ) -> (Option<Arc<CachedReport>>, Option<Arc<CachedReport>>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let previous = inner.swap_last_key(method, entry_unknown, engine, key.0);
        let mut found = inner.hot.get(key.0).map(|e| Arc::clone(&e.report));
        let mut from_spill = false;
        if found.is_none() {
            if let Some(line) = inner.spill.remove(&key.0) {
                // a decode failure is unreachable short of in-process
                // memory corruption (we wrote that line ourselves), and
                // degrades to a miss all the same
                if let Ok(report) = decode_line(&line) {
                    // promote back into the hot tier; whatever that
                    // displaces takes its place in the spill
                    from_spill = true;
                    let report = Arc::new(report);
                    let entry = HotEntry { report: Arc::clone(&report), line: line.clone() };
                    inner.admit(key.0, entry, line_cost(&line), self.path.is_some());
                    found = Some(report);
                }
            }
        }
        let mut stale = None;
        match &found {
            Some(_) => {
                inner.count_hit();
                if from_spill {
                    inner.stats.spill_hits += 1;
                }
            }
            None => {
                inner.stats.misses += 1;
                CACHE_MISSES.incr();
                if previous.is_some_and(|p| p != key.0) {
                    inner.stats.invalidations += 1;
                    CACHE_INVALIDATIONS.incr();
                    stale = previous.and_then(|p| {
                        inner.hot.peek(p).map(|e| Arc::clone(&e.report)).or_else(|| {
                            let line = inner.spill.get(&p)?;
                            decode_line(line).ok().map(Arc::new)
                        })
                    });
                }
            }
        }
        (found, stale)
    }

    /// Inserts a certificate under `key`, evicting least-recently-used
    /// entries if the hot tier outgrows its byte budget.
    pub fn store(&self, key: Fingerprint, report: CachedReport) {
        let line: Arc<str> = Arc::from(report.to_json().render_compact());
        let cost = line_cost(&line);
        let mut inner = self.lock();
        inner.spill.remove(&key.0);
        inner.stats.stores += 1;
        CACHE_STORES.incr();
        CACHE_BYTES.add(cost as u64);
        let spills = self.path.is_some();
        inner.admit(key.0, HotEntry { report: Arc::new(report), line }, cost, spills);
        inner.dirty = true;
    }

    /// Answers a program from the cell list memoised under `program`, for
    /// `engine`: the certificates of its cells, in walk order, each
    /// accounted exactly as a [`CertCache::lookup`] hit (hit count,
    /// latest-key update, LRU promotion). Unless every memoised cell is
    /// resident in the hot tier and passes `usable`, nothing is counted
    /// and the answer is `None`: the caller falls back to per-cell lookups,
    /// which also reach the spill tier.
    pub(crate) fn replay(
        &self,
        program: Fingerprint,
        engine: &str,
        usable: impl Fn(&CachedReport) -> bool,
    ) -> Option<Replay> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let cells = Arc::clone(inner.memo.get(program.0)?);
        let reports = cells
            .iter()
            .map(|c| inner.hot.peek(c.key).map(|e| Arc::clone(&e.report)).filter(|r| usable(r)))
            .collect::<Option<Vec<_>>>()?;
        for c in cells.iter() {
            inner.swap_last_key(&c.method, c.entry == EntryAssumption::Unknown, engine, c.key);
            inner.hot.get(c.key);
            inner.count_hit();
        }
        Some((cells, reports))
    }

    /// Memoises the cell list of a program run whose cells were all
    /// answered or stored, for [`CertCache::replay`].
    pub(crate) fn remember(&self, program: Fingerprint, cells: Vec<MemoCell>) {
        let cost = memo_cost(&cells);
        self.lock().memo.insert(program.0, cells.into(), cost);
    }

    /// Number of certificates currently held (hot tier plus spill).
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.hot.len() + inner.spill.len()
    }

    /// Number of certificates resident in the hot tier.
    pub fn memory_entries(&self) -> usize {
        self.lock().hot.len()
    }

    /// Hot-tier occupancy in store-line bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.lock().hot.bytes()
    }

    /// The configured hot-tier byte budget (`None` = unbounded).
    pub fn budget_bytes(&self) -> Option<u64> {
        self.lock().hot.budget_bytes()
    }

    /// Whether the store holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Writes the store to disk (no-op for in-memory stores or when nothing
    /// changed since the last persist). Keys are written in sorted order so
    /// the file is byte-stable for identical contents.
    ///
    /// # Errors
    ///
    /// A `cache`-stage I/O error when the directory or file cannot be
    /// written; callers typically warn and continue.
    pub fn persist(&self) -> Result<(), CanvasError> {
        let Some(path) = &self.path else { return Ok(()) };
        let mut inner = self.lock();
        if !inner.dirty {
            return Ok(());
        }
        // the disk tier is the union of both in-memory tiers: eviction
        // never loses a disk-backed certificate
        let mut lines: Vec<(u64, &str)> = inner.spill.iter().map(|(k, l)| (*k, &**l)).collect();
        lines.extend(inner.hot.iter().map(|(k, e)| (k, &*e.line)));
        lines.sort_unstable_by_key(|(k, _)| *k);
        let mut out = String::with_capacity(64 * lines.len());
        out.push_str(STORE_FORMAT);
        out.push('\n');
        for (key, line) in lines {
            out.push_str(&Fingerprint(key).to_string());
            out.push(' ');
            out.push_str(line);
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CanvasError::io(Stage::Cache, &dir.display().to_string(), &e))?;
        }
        std::fs::write(path, out)
            .map_err(|e| CanvasError::io(Stage::Cache, &path.display().to_string(), &e))?;
        inner.dirty = false;
        Ok(())
    }
}

/// Store corruption is tolerated, not hidden: every dropped entry or
/// cold-start is a structured warn-level record (which the event log still
/// echoes to stderr as `warning: error[cache/...]: ...` for TTY use).
fn warn(e: &CanvasError) {
    canvas_telemetry::events::warn("incr.store", e.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CachedReport {
        CachedReport {
            engine: "scmp-fds".to_string(),
            predicates: 12,
            work: 345,
            max_states: 1,
            exhausted: false,
            violations: vec![
                Violation {
                    method: "Main.main".to_string(),
                    line: 10,
                    col: 21,
                    what: "i1.next()".to_string(),
                    witness: Some(Witness::Trace(vec![WitnessStep {
                        line: 9,
                        col: 9,
                        what: "v.add(\"x\")".to_string(),
                        fact: "stale{i1}".to_string(),
                    }])),
                },
                Violation {
                    method: "Main.main".to_string(),
                    line: 13,
                    col: 21,
                    what: "i1.next()".to_string(),
                    witness: Some(Witness::Unavailable(
                        "the TVLA engines do not record provenance",
                    )),
                },
                Violation {
                    method: "Main.main".to_string(),
                    line: 14,
                    col: 1,
                    what: "i2.next()".to_string(),
                    witness: None,
                },
            ],
            cell: None,
            delta: None,
        }
    }

    fn sample_with_cell(solution: CellSolution) -> CachedReport {
        CachedReport {
            cell: Some(CachedCell { preds: 4, bp_digest: 0xfeed_f00d_dead_beef, solution }),
            ..sample()
        }
    }

    #[test]
    fn cell_solutions_round_trip_through_json() {
        for solution in [
            CellSolution::MayOne { nodes: vec![vec![], vec![0, 2], vec![1, 3]] },
            CellSolution::Relational {
                nodes: vec![vec![vec![], vec![0, 1]], vec![], vec![vec![2]]],
            },
            CellSolution::Unavailable { reason: "no solution".to_string() },
        ] {
            let r = sample_with_cell(solution);
            let line = r.to_json().render_compact();
            assert!(!line.contains('\n'));
            let back =
                CachedReport::from_json(&Json::parse(&line).expect("parses")).expect("decodes");
            assert_eq!(back, r);
            assert_eq!(back.to_json().render_compact(), line);
        }
    }

    #[test]
    fn cached_report_json_round_trips() {
        let r = sample();
        let line = r.to_json().render_compact();
        assert!(!line.contains('\n'));
        let back = CachedReport::from_json(&Json::parse(&line).expect("parses")).expect("decodes");
        assert_eq!(back, r);
        // `Violation` equality ignores witnesses: the line must match too
        assert_eq!(back.to_json().render_compact(), line);
        let witnesses: Vec<Option<Witness>> =
            back.violations.into_iter().map(|v| v.witness).collect();
        let want: Vec<Option<Witness>> = r.violations.into_iter().map(|v| v.witness).collect();
        assert_eq!(witnesses, want);
    }

    #[test]
    fn report_round_trip_preserves_everything_but_duration() {
        let cached = sample();
        let report = cached.to_report(Engine::ScmpFds);
        assert_eq!(report.stats.duration, std::time::Duration::ZERO);
        assert_eq!(report.stats.work, 345);
        assert_eq!(report.lines(), vec![10, 13, 14]);
        let back = CachedReport::from_report(&report, None).expect("complete");
        assert_eq!(back, cached);
        assert_eq!(back.to_json().render_compact(), cached.to_json().render_compact());
    }

    #[test]
    fn inconclusive_reports_are_never_cached() {
        let r = Report::inconclusive(Engine::ScmpFds, "deadline".to_string(), Stats::default());
        assert_eq!(CachedReport::from_report(&r, None), None);
    }

    #[test]
    fn unknown_unavailable_reasons_degrade_to_the_generic_static() {
        let line = sample()
            .to_json()
            .render_compact()
            .replace("the TVLA engines do not record provenance", "made-up reason");
        let cached =
            CachedReport::from_json(&Json::parse(&line).expect("parses")).expect("decodes");
        match &cached.to_report(Engine::ScmpFds).violations[1].witness {
            Some(Witness::Unavailable(reason)) => {
                assert_eq!(*reason, "witness detail not retained by the certificate cache");
            }
            other => panic!("expected unavailable witness, got {other:?}"),
        }
    }

    #[test]
    fn lookup_accounts_hits_misses_and_invalidations() {
        let cache = CertCache::in_memory();
        let k1 = Fingerprint(1);
        let k2 = Fingerprint(2);
        assert!(matches!(cache.lookup(k1, "Main.main", false, "scmp-fds"), (None, None)));
        cache.store(k1, sample());
        assert!(cache.lookup(k1, "Main.main", false, "scmp-fds").0.is_some());
        // same cell, new key: the miss is an invalidation, and the stale
        // entry under the previous key comes back as the delta seed
        let (hit, stale) = cache.lookup(k2, "Main.main", false, "scmp-fds");
        assert!(hit.is_none());
        assert_eq!(stale.as_deref(), Some(&sample()));
        // different cell, first sighting: a plain miss
        assert!(matches!(cache.lookup(k2, "Main.other", false, "scmp-fds"), (None, None)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 3, 1));
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn persist_and_reopen_round_trips() {
        let _faults = crate::fault_lock::shared();
        let dir = std::env::temp_dir().join(format!("canvas-incr-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CertCache::open(&dir);
        assert!(cache.is_empty());
        cache.store(Fingerprint(42), sample());
        cache.persist().expect("writes");
        let reopened = CertCache::open(&dir);
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.stats().loaded, 1);
        assert!(!reopened.stats().recovered_from_corruption);
        assert_eq!(
            reopened.lookup(Fingerprint(42), "Main.main", false, "scmp-fds").0.as_deref(),
            Some(&sample())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_files_degrade_to_cold_or_partial_misses() {
        let _faults = crate::fault_lock::shared();
        let dir = std::env::temp_dir().join(format!("canvas-incr-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(FILE_NAME);
        // bad header: everything dropped
        std::fs::write(&path, "some-other-format/9\n").expect("write");
        let cache = CertCache::open(&dir);
        assert!(cache.is_empty());
        assert!(cache.stats().recovered_from_corruption);
        // valid first line, torn second line: the prefix survives
        let good = format!("{} {}", Fingerprint(7), sample().to_json().render_compact());
        std::fs::write(&path, format!("{STORE_FORMAT}\n{good}\n0bad hex {{\"trunc"))
            .expect("write");
        let cache = CertCache::open(&dir);
        assert_eq!(cache.len(), 1);
        assert!(cache.stats().recovered_from_corruption);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_in_memory_store_evicts_and_stays_within_budget() {
        let line = sample().to_json().render_compact();
        let cost = (line.len() + 18) as u64;
        // room for two entries, not three
        let budget = cost * 2 + cost / 2;
        let cache = CertCache::in_memory_budgeted(Some(budget));
        for k in 1..=3 {
            cache.store(Fingerprint(k), sample());
        }
        assert!(cache.memory_bytes() <= budget, "occupancy within budget");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.memory_entries(), 2);
        // no disk tier: the evicted certificate is a cold miss
        assert!(cache.lookup(Fingerprint(1), "Main.main", false, "scmp-fds").0.is_none());
        assert!(cache.lookup(Fingerprint(3), "Main.x3", false, "scmp-fds").0.is_some());
        assert_eq!(cache.stats().spill_hits, 0);
    }

    #[test]
    fn the_budget_is_one_global_bound() {
        // a certificate whose store line is over 8 KiB, an eighth of the
        // budget: it fits the budget, so it is admitted and stays resident
        let big = sample_with_cell(CellSolution::MayOne { nodes: vec![vec![0, 1, 2, 3]; 1000] });
        let cost = line_cost(&big.to_json().render_compact()) as u64;
        assert!((8 * 1024..64 * 1024).contains(&cost), "{cost}");
        let cache = CertCache::in_memory_budgeted(Some(64 * 1024));
        let key = Fingerprint(9);
        assert!(cache.lookup(key, "Main.main", false, "scmp-fds").0.is_none());
        cache.store(key, big.clone());
        let (hit, _) = cache.lookup(key, "Main.main", false, "scmp-fds");
        assert!(hit.is_some_and(|hit| *hit == big), "the second lookup is a hit");
        assert_eq!((cache.stats().evictions, cache.memory_bytes()), (0, cost));
    }

    #[test]
    fn disk_backed_eviction_spills_and_refetches_byte_identically() {
        let _faults = crate::fault_lock::shared();
        let dir = std::env::temp_dir().join(format!("canvas-incr-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let line = sample().to_json().render_compact();
        let cost = (line.len() + 18) as u64;
        let budget = cost * 2 + cost / 2;
        {
            let cache = CertCache::open_budgeted(&dir, Some(budget));
            for k in 1..=3 {
                cache.store(Fingerprint(k), sample());
            }
            assert_eq!(cache.stats().evictions, 1);
            assert_eq!((cache.memory_entries(), cache.len()), (2, 3));
            // the evicted key still answers, from the spill tier, with a
            // byte-identical certificate
            let (back, _) = cache.lookup(Fingerprint(1), "Main.main", false, "scmp-fds");
            assert_eq!(back.as_ref().map(|r| r.to_json().render_compact()), Some(line.clone()));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.spill_hits), (1, 1));
            // the promotion displaced another entry, so occupancy still fits
            assert!(cache.memory_bytes() <= budget);
            cache.persist().expect("writes");
        }
        // eviction never loses a disk-backed certificate
        let reopened = CertCache::open(&dir);
        assert_eq!(reopened.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_open_places_overflow_in_spill_without_counting_evictions() {
        let _faults = crate::fault_lock::shared();
        let dir = std::env::temp_dir().join(format!("canvas-incr-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = CertCache::open(&dir);
            for k in 1..=4 {
                cache.store(Fingerprint(k), sample());
            }
            cache.persist().expect("writes");
        }
        let line = sample().to_json().render_compact();
        let cost = (line.len() + 18) as u64;
        let budget = cost * 2 + cost / 2;
        let cache = CertCache::open_budgeted(&dir, Some(budget));
        assert_eq!(cache.len(), 4, "all four certificates are addressable");
        assert_eq!(cache.memory_entries(), 2, "only two fit the hot tier");
        assert_eq!(cache.stats().evictions, 0, "load placement is not an eviction");
        assert!(cache.memory_bytes() <= budget);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_cache_corruption_forces_recovery() {
        let _faults = crate::fault_lock::exclusive();
        let dir = std::env::temp_dir().join(format!("canvas-incr-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CertCache::open(&dir);
        for k in 0..8 {
            cache.store(Fingerprint(k), sample());
        }
        cache.persist().expect("writes");
        canvas_faults::force(Some(canvas_faults::Fault::CacheCorrupt));
        let torn = CertCache::open(&dir);
        canvas_faults::unforce();
        // the torn store recovered (some prefix, strictly fewer entries)
        assert!(torn.stats().recovered_from_corruption);
        assert!(torn.len() < 8, "half the file must be gone, got {}", torn.len());
        // and without the fault the full store is intact
        let intact = CertCache::open(&dir);
        assert_eq!(intact.len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
