//! Incremental certification: a content-addressed certificate cache over
//! the staged certifier, plus the `canvas serve` request protocol.
//!
//! The staged pipeline already splits *certifier generation* (derive the
//! abstraction once per spec) from *client analysis* (run an engine per
//! client). This crate adds the third axis: *reuse across runs*. Every
//! `(method, entry, engine)` cell of a whole-program certification is keyed
//! by a content fingerprint of exactly what that cell's analysis can
//! observe ([`fingerprint`]), and its completed verdict is a certificate
//! stored in a [`store::CertCache`]. Editing one method re-runs only the
//! cells that could observe the edit; everything else is answered from the
//! cache, byte-identically (modulo wall-clock duration). An exact
//! resubmission of a program's text skips even the fingerprinting: the
//! store remembers which cells that text resolved to.
//!
//! [`service`] turns this into a long-lived `canvas serve` daemon speaking
//! newline-delimited JSON on stdin/stdout, with a warm shared cache across
//! concurrent requests.

use canvas_abstraction::{
    derived_digest, digest_str, CellSolution, CertCell, Certificate, EntryAssumption,
};
use canvas_core::{
    solved_cell, walk_order, walk_program, Certifier, CertifyError, Engine, PreparedProgram,
    Report, Witness,
};
use canvas_minijava::{MethodIr, Program};

pub mod fingerprint;
pub mod json;
pub mod lru;
pub mod net;
pub mod obs;
pub mod service;
pub mod store;

use fingerprint::{
    cell_key, fingerprint_config, fingerprint_spec, Fingerprint, Hasher64, ProgramFingerprints,
};
use store::{CachedReport, CertCache, MemoCell};

/// Per-run cache traffic of one certification call (deterministic per
/// request even when other requests share the store concurrently).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunCacheStats {
    /// Cells answered from the certificate cache.
    pub hits: u64,
    /// Cells that ran fresh.
    pub misses: u64,
    /// Of the misses, cells whose FDS re-solve was seeded from a stale
    /// entry's pre-edit fixpoint (within-method delta re-solve) instead of
    /// restarting from ⊥.
    pub delta_seeded: u64,
}

/// A [`Certifier`] paired with a certificate cache: whole-program
/// certification that re-runs only the cells invalidated since the last
/// run with the same store.
pub struct IncrementalCertifier {
    certifier: Certifier,
    cache: std::sync::Arc<CertCache>,
    spec_fp: Fingerprint,
}

impl IncrementalCertifier {
    /// Wraps `certifier` with `cache` (fingerprints the spec once, up
    /// front).
    pub fn new(certifier: Certifier, cache: CertCache) -> IncrementalCertifier {
        IncrementalCertifier::shared(certifier, std::sync::Arc::new(cache))
    }

    /// As [`IncrementalCertifier::new`], sharing an existing store (the
    /// serve daemon keeps one warm store across specs and requests).
    pub fn shared(certifier: Certifier, cache: std::sync::Arc<CertCache>) -> IncrementalCertifier {
        let spec_fp = fingerprint_spec(certifier.spec());
        IncrementalCertifier { certifier, cache, spec_fp }
    }

    /// The wrapped certifier.
    pub fn certifier(&self) -> &Certifier {
        &self.certifier
    }

    /// The certificate store.
    pub fn cache(&self) -> &CertCache {
        &self.cache
    }

    /// A sibling certifier with a per-request budget, sharing this store.
    /// The budget is part of the cache key, so differently-budgeted
    /// requests never alias. The spec is the same, so its fingerprint is
    /// reused.
    pub fn with_budget(&self, budget: canvas_faults::Budget) -> IncrementalCertifier {
        IncrementalCertifier {
            certifier: self.certifier.clone().with_budget(budget),
            cache: std::sync::Arc::clone(&self.cache),
            spec_fp: self.spec_fp,
        }
    }

    /// Persists the store (see [`CertCache::persist`]).
    ///
    /// # Errors
    ///
    /// A `cache`-stage I/O error when the store file cannot be written.
    pub fn persist(&self) -> Result<(), canvas_core::CanvasError> {
        self.cache.persist()
    }

    /// Cached equivalent of [`Certifier::certify_program`]: `main` with
    /// clean entry plus every other method out of context, each cell
    /// answered from the store when its key matches. Also reports this
    /// run's own hit/miss traffic.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_program_cached(
        &self,
        program: &Program,
        engine: Engine,
    ) -> Result<(Report, RunCacheStats), CertifyError> {
        let mut run = RunCacheStats::default();
        let mut cell = self.cell_fn(program, engine, &mut run, None);
        let report =
            walk_program(program, engine, move |method, entry| Ok(cell(method, entry)?.0))?;
        Ok((report, run))
    }

    /// Cached equivalent of [`Certifier::certify_with_certificate`]: the
    /// whole-program verdict plus a replayable [`Certificate`], with every
    /// solution-bearing cell answered from the store when its key matches.
    /// The certificate is bound to `source` by digest, so `source` must be
    /// the exact text `program` was parsed from.
    ///
    /// A resubmission of a text whose earlier run left every cell stored
    /// is answered from the store's program memo: the cells are looked up
    /// by their remembered keys, with the same accounting, and `program` is
    /// not fingerprinted again.
    ///
    /// # Errors
    ///
    /// As [`Certifier::certify`].
    pub fn certify_program_certified(
        &self,
        source: &str,
        program: &Program,
        engine: Engine,
    ) -> Result<(Report, Certificate, RunCacheStats), CertifyError> {
        let source_digest = digest_str(source);
        let memo_key = self.memo_key(source_digest, source.len(), engine);
        let mut run = RunCacheStats::default();
        let usable = |hit: &CachedReport| backs_certificate(hit, engine);
        if let Some((cells, hits)) = self.cache.replay(memo_key, engine.name(), usable) {
            run.hits = hits.len() as u64;
            let (report, certificate) = self.certifier.certify_cells(
                source_digest,
                engine,
                cells.iter().zip(&hits).map(|(c, hit)| ((c, hit), c.entry)),
                |(c, _)| c.method.clone(),
                |(c, hit), entry| Ok(answer(hit, engine, c.method.clone(), entry)),
            )?;
            return Ok((report, certificate, run));
        }
        let mut memo = Some(Vec::new());
        let (report, certificate) = self.certifier.certify_cells(
            source_digest,
            engine,
            walk_order(program, engine)?,
            MethodIr::qualified_name,
            self.cell_fn(program, engine, &mut run, Some(&mut memo)),
        )?;
        if let Some(cells) = memo {
            self.cache.remember(memo_key, cells);
        }
        Ok((report, certificate, run))
    }

    /// The program-memo key of `source` (by digest and length) certified
    /// by `engine` under this certifier's spec, abstraction and budget: the
    /// same inputs a cell key covers, with the source text in place of the
    /// program's fingerprints.
    fn memo_key(&self, source_digest: u64, source_len: usize, engine: Engine) -> Fingerprint {
        let mut h = Hasher64::new();
        h.write_u64(source_digest);
        h.write_usize(source_len);
        h.write_fp(self.spec_fp);
        h.write_u64(derived_digest(self.certifier.derived()));
        h.write_fp(fingerprint_config(&self.certifier, engine));
        h.finish()
    }

    /// The one cell function of both walks: certifies one `(method, entry)`
    /// cell of `program`, answered from the store when its key matches.
    /// The interprocedural engine observes the whole program, so its one
    /// cell is keyed on the whole-program fingerprint. A hit that cannot
    /// back a certificate re-runs ([`backs_certificate`]).
    ///
    /// With `memo`, every cell that is answered or stored is appended to it
    /// in walk order; a cell that is neither (an inconclusive run) sets it
    /// to `None`, so only a run the store can replay whole is memoised.
    fn cell_fn<'a>(
        &'a self,
        program: &'a Program,
        engine: Engine,
        run: &'a mut RunCacheStats,
        mut memo: Option<&'a mut Option<Vec<MemoCell>>>,
    ) -> impl FnMut(&MethodIr, EntryAssumption) -> Result<(Report, Option<CertCell>), CertifyError> + 'a
    {
        let fps = ProgramFingerprints::new(program);
        let derived_fp = Fingerprint(derived_digest(self.certifier.derived()));
        let config_fp = fingerprint_config(&self.certifier, engine);
        let prepared = PreparedProgram::new(program);
        let engine_name = engine.name();
        let mut remember = move |key: Fingerprint, method: &str, entry, kept: bool| {
            if let Some(slot) = memo.as_deref_mut() {
                match slot {
                    Some(cells) if kept => {
                        cells.push(MemoCell { key: key.0, method: method.to_string(), entry });
                    }
                    _ => *slot = None,
                }
            }
        };
        move |method: &MethodIr, entry: EntryAssumption| {
            let entry_unknown = entry == EntryAssumption::Unknown;
            let (body, deps, name) = if engine == Engine::ScmpInterproc {
                (fps.program(), fps.environment(), "<whole-program>".to_string())
            } else {
                (fps.method(method.id), fps.deps(method.id), method.qualified_name())
            };
            let key = cell_key(body, deps, self.spec_fp, derived_fp, config_fp, entry_unknown);
            let (hit, stale) = self.cache.lookup_stale(key, &name, entry_unknown, engine_name);
            if let Some(hit) = hit.filter(|hit| backs_certificate(hit, engine)) {
                run.hits += 1;
                remember(key, &name, entry, true);
                return Ok(answer(&hit, engine, name, entry));
            }
            run.misses += 1;
            // Within-method delta re-solve: an edit invalidated this cell,
            // but the stale entry still holds the pre-edit fixpoint. When it
            // carries both a may-be-1 solution and the recorded program
            // shape, seed the FDS re-solve from it — the changed region is
            // re-solved, the rest is carried (validated) — instead of
            // restarting from ⊥.
            let seed = match (engine, stale) {
                (Engine::ScmpFds, Some(stale)) => stale.delta.as_ref().and_then(|payload| {
                    let cell = stale.cell.as_ref()?;
                    match &cell.solution {
                        CellSolution::MayOne { nodes } => Some(canvas_dataflow::DeltaSeed {
                            payload: payload.clone(),
                            preds: cell.preds,
                            solution: nodes.clone(),
                        }),
                        _ => None,
                    }
                }),
                _ => None,
            };
            if seed.is_some() {
                run.delta_seeded += 1;
            }
            let shared = prepared.shared(method, entry);
            let (report, solution) = self.certifier.certify_method_shared(
                program,
                method,
                engine,
                entry,
                shared,
                seed.as_ref(),
            )?;
            let cell = solved_cell(method, entry, shared, solution);
            // inconclusive verdicts are budget/wall-clock-dependent: never cached
            let cached = CachedReport::from_report(&report, cell.as_ref());
            remember(key, &name, entry, cached.is_some());
            if let Some(mut cached) = cached {
                // capture the program shape next to the solution, so the
                // *next* edit of this method can delta-seed from this run
                if engine == Engine::ScmpFds {
                    cached.delta = shared.cached_boolprog().map(canvas_dataflow::DeltaPayload::of);
                }
                self.cache.store(key, cached);
            }
            Ok((report, cell))
        }
    }
}

/// Whether a stored cell can answer for `engine`: a hit that cannot back
/// a certificate (an engine that emits solutions, an entry without one)
/// re-runs, so the store never serves a certificate it cannot back with a
/// solution.
fn backs_certificate(hit: &CachedReport, engine: Engine) -> bool {
    hit.cell.is_some() || engine.certificate_unsupported().is_some()
}

/// The report and certificate cell a stored cell answers with, for the
/// cell of `method` under `entry`.
fn answer(
    hit: &CachedReport,
    engine: Engine,
    method: String,
    entry: EntryAssumption,
) -> (Report, Option<CertCell>) {
    let cell = hit.cell.as_ref().map(|c| CertCell {
        method,
        entry,
        preds: c.preds,
        bp_digest: c.bp_digest,
        solution: c.solution.clone(),
    });
    (hit.to_report(engine), cell)
}

/// A duration-independent digest of a report: everything the verdict,
/// violations (including witnesses) and deterministic stats say, excluding
/// wall-clock time and the work counter. Two certifications agree
/// semantically iff their digests are equal — the property the warm path
/// is tested against. Work units are excluded deliberately: a delta-seeded
/// re-solve reaches the same fixpoint, the same verdict, and the same
/// violations as a cold solve with strictly less work, and that saving
/// must not read as a semantic divergence.
pub fn report_digest(report: &Report) -> Fingerprint {
    let mut h = Hasher64::new();
    h.write_str(&report.engine.to_string());
    h.write_str(&format!("{:?}", report.verdict));
    h.write_usize(report.stats.predicates);
    h.write_usize(report.stats.max_states);
    h.write_bool(report.stats.exhausted);
    h.write_usize(report.violations.len());
    for v in &report.violations {
        h.write_str(&v.method);
        h.write_u32(v.line);
        h.write_u32(v.col);
        h.write_str(&v.what);
        match &v.witness {
            None => h.write_u8(0),
            Some(Witness::Unavailable(reason)) => {
                h.write_u8(1);
                h.write_str(reason);
            }
            Some(Witness::Trace(steps)) => {
                h.write_u8(2);
                h.write_usize(steps.len());
                for s in steps {
                    h.write_u32(s.line);
                    h.write_u32(s.col);
                    h.write_str(&s.what);
                    h.write_str(&s.fact);
                }
            }
        }
    }
    h.finish()
}

/// `canvas_faults::force` is process global: a unit test that forces a
/// fault holds this lock exclusively, and one that serves or opens a disk
/// store holds it shared, so a forced fault never reaches another test.
#[cfg(test)]
mod fault_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = r#"
class Main {
    static void main() {
        Set v = new Set();
        Iterator i1 = v.iterator();
        Iterator i2 = v.iterator();
        i1.next();
        v.add("x");
        if (true) { i1.next(); }
        i2.next();
    }
}
"#;

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

    fn incr() -> IncrementalCertifier {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp()).expect("cmp derives");
        IncrementalCertifier::new(c, CertCache::in_memory())
    }

    fn parse(inc: &IncrementalCertifier, src: &str) -> Program {
        Program::parse(src, inc.certifier().spec()).expect("parses")
    }

    #[test]
    fn warm_run_is_all_hits_and_semantically_identical() {
        let inc = incr();
        let program = parse(&inc, FIG3);
        for engine in Engine::all() {
            let (cold, cs) = inc.certify_program_cached(&program, engine).expect("cold");
            let (warm, ws) = inc.certify_program_cached(&program, engine).expect("warm");
            assert_eq!(cs.hits, 0, "{engine}: first run must be cold");
            assert_eq!(ws.misses, 0, "{engine}: second run must be fully warm");
            assert_eq!(ws.hits, cs.misses, "{engine}");
            assert_eq!(report_digest(&cold), report_digest(&warm), "{engine}");
        }
    }

    #[test]
    fn cached_report_matches_the_uncached_path() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        for engine in Engine::all() {
            let reference = inc.certifier().certify_program(&program, engine).expect("reference");
            let (cold, _) = inc.certify_program_cached(&program, engine).expect("cold");
            let (warm, _) = inc.certify_program_cached(&program, engine).expect("warm");
            assert_eq!(report_digest(&reference), report_digest(&cold), "{engine}");
            assert_eq!(report_digest(&reference), report_digest(&warm), "{engine}");
        }
    }

    #[test]
    fn editing_one_method_reruns_only_its_cells() {
        let edited = HELPERS.replace(
            "static void poke(Set s) { s.add(\"x\"); }",
            "static void poke(Set s) { s.add(\"x\"); s.add(\"y\"); }",
        );
        assert_ne!(edited, HELPERS);
        let inc = incr();
        let before = parse(&inc, HELPERS);
        let after = parse(&inc, &edited);
        let engine = Engine::ScmpFds;
        inc.certify_program_cached(&before, engine).expect("cold");
        let (_, stats) = inc.certify_program_cached(&after, engine).expect("edited");
        // exactly one cell (the edited method, out-of-context) re-runs: the
        // other methods' bodies, spans, and dependency sets are unchanged
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(inc.cache().stats().invalidations, 1);
    }

    #[test]
    fn interproc_uses_a_whole_program_cell() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        let engine = Engine::ScmpInterproc;
        let (_, cold) = inc.certify_program_cached(&program, engine).expect("cold");
        assert_eq!((cold.hits, cold.misses), (0, 1));
        let (_, warm) = inc.certify_program_cached(&program, engine).expect("warm");
        assert_eq!((warm.hits, warm.misses), (1, 0));
        // any body edit invalidates the whole-program cell
        let edited = parse(&inc, &HELPERS.replace("i.next();", "i.next(); i.next();"));
        let (_, e) = inc.certify_program_cached(&edited, engine).expect("edited");
        assert_eq!((e.hits, e.misses), (0, 1));
    }

    #[test]
    fn per_request_budgets_do_not_alias_cache_keys() {
        let inc = incr();
        let program = parse(&inc, FIG3);
        inc.certify_program_cached(&program, Engine::ScmpFds).expect("cold");
        let budgeted = inc.with_budget(canvas_faults::Budget::unlimited().with_max_steps(1 << 20));
        let (_, stats) = budgeted.certify_program_cached(&program, Engine::ScmpFds).expect("runs");
        assert_eq!(stats.hits, 0, "a different budget is a different certificate");
    }

    #[test]
    fn certificates_are_identical_warm_cold_and_uncached() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        for engine in [Engine::ScmpFds, Engine::ScmpRelational] {
            let (cold_r, cold_c, cs) =
                inc.certify_program_certified(HELPERS, &program, engine).expect("cold");
            let (warm_r, warm_c, ws) =
                inc.certify_program_certified(HELPERS, &program, engine).expect("warm");
            assert_eq!(cs.hits, 0, "{engine}");
            assert_eq!(ws.misses, 0, "{engine}: warm certificate must be all hits");
            assert_eq!(cold_c, warm_c, "{engine}: warm certificate must be byte-identical");
            assert_eq!(report_digest(&cold_r), report_digest(&warm_r), "{engine}");
            let (_, reference) = inc
                .certifier()
                .certify_with_certificate(HELPERS, &program, engine)
                .expect("reference");
            assert_eq!(cold_c, reference, "{engine}: cached path must match the uncached one");
        }
    }

    #[test]
    fn exact_and_conservative_abstractions_never_share_cells() {
        let spec = canvas_easl::builtin::cmp();
        let exact = Certifier::from_spec(spec.clone()).expect("cmp derives");
        let conservative = Certifier::from_spec_conservative(spec, 1).expect("derives");
        assert_ne!(derived_digest(exact.derived()), derived_digest(conservative.derived()));
        let cache = std::sync::Arc::new(CertCache::in_memory());
        let exact = IncrementalCertifier::shared(exact, std::sync::Arc::clone(&cache));
        let conservative = IncrementalCertifier::shared(conservative, cache);
        let program = parse(&exact, HELPERS);
        for engine in Engine::all() {
            let (_, first) = exact.certify_program_cached(&program, engine).expect("runs");
            let (_, second) = conservative.certify_program_cached(&program, engine).expect("runs");
            assert_eq!((second.hits, second.misses), (0, first.misses), "{engine}");
        }
    }

    #[test]
    fn plain_runs_warm_the_certificate_path() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        inc.certify_program_cached(&program, Engine::ScmpFds).expect("plain cold");
        let (_, cert, stats) = inc
            .certify_program_certified(HELPERS, &program, Engine::ScmpFds)
            .expect("certificate run");
        assert_eq!(stats.misses, 0, "plain runs store solutions too: {stats:?}");
        assert!(cert.checkable());
    }

    #[test]
    fn unsupported_engines_emit_an_unavailable_whole_program_cell() {
        let inc = incr();
        let program = parse(&inc, FIG3);
        let (_, cert, _) =
            inc.certify_program_certified(FIG3, &program, Engine::TvlaRelational).expect("runs");
        assert!(!cert.checkable());
        assert_eq!(cert.cells.len(), 1);
        assert_eq!(cert.cells[0].method, "<whole-program>");
    }

    #[test]
    fn certificate_runs_fill_the_program_memo() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        let engine = Engine::ScmpFds;
        let key = inc.memo_key(digest_str(HELPERS), HELPERS.len(), engine);
        assert!(inc.cache().replay(key, engine.name(), |_| true).is_none(), "nothing memoised");
        inc.certify_program_cached(&program, engine).expect("plain runs do not fill it");
        assert!(inc.cache().replay(key, engine.name(), |_| true).is_none());
        inc.certify_program_certified(HELPERS, &program, engine).expect("cold");
        let before = inc.cache().stats();
        let (cells, hits) = inc.cache().replay(key, engine.name(), |_| true).expect("memoised");
        let names: Vec<&str> = cells.iter().map(|c| c.method.as_str()).collect();
        assert_eq!(names, ["Main.main", "Main.poke", "Main.scan"], "walk order");
        assert_eq!(hits.len(), 3);
        assert_eq!(inc.cache().stats().hits, before.hits + 3, "a replay counts its hits");
        // another budget is another key
        let budgeted = inc.with_budget(canvas_faults::Budget::unlimited().with_max_steps(1 << 20));
        let other = budgeted.memo_key(digest_str(HELPERS), HELPERS.len(), engine);
        assert_ne!(key, other);
    }

    #[test]
    fn a_replay_missing_a_cell_counts_nothing() {
        let inc = incr();
        let program = parse(&inc, HELPERS);
        let engine = Engine::ScmpFds;
        inc.certify_program_certified(HELPERS, &program, engine).expect("cold");
        let key = inc.memo_key(digest_str(HELPERS), HELPERS.len(), engine);
        let before = inc.cache().stats();
        assert!(inc.cache().replay(key, engine.name(), |_| false).is_none());
        assert_eq!(inc.cache().stats(), before, "a failed replay counts nothing");
        let (_, _, run) =
            inc.certify_program_certified(HELPERS, &program, engine).expect("replayed");
        assert_eq!((run.hits, run.misses), (3, 0));
        assert_eq!(inc.cache().stats().hits, before.hits + 3, "counted once");
    }

    #[test]
    fn witnesses_survive_the_cache_round_trip() {
        let c = Certifier::from_spec(canvas_easl::builtin::cmp())
            .expect("cmp derives")
            .with_explain(true);
        let inc = IncrementalCertifier::new(c, CertCache::in_memory());
        let program = parse(&inc, FIG3);
        let (cold, _) = inc.certify_program_cached(&program, Engine::ScmpFds).expect("cold");
        let (warm, stats) = inc.certify_program_cached(&program, Engine::ScmpFds).expect("warm");
        assert_eq!(stats.misses, 0);
        assert!(cold.violations.iter().any(|v| matches!(v.witness, Some(Witness::Trace(_)))));
        assert_eq!(report_digest(&cold), report_digest(&warm));
    }
}
