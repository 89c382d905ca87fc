//! `edit_replay`: a developer or CI loop against a warm on-disk store. A
//! seeded stream mixes one-method edits with unchanged resubmissions of a
//! fleet corpus, certified through
//! `IncrementalCertifier::certify_program_certified`. Fingerprinting,
//! store lookups and store writes do most of the work; the few re-solves
//! are seeded from the stale cell (delta re-solve).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use canvas_core::{Certifier, Engine};
use canvas_fleet::manifest::{load_corpus, write_corpus};
use canvas_incr::fingerprint::{Hasher64, ProgramFingerprints};
use canvas_incr::store::CertCache;
use canvas_incr::{report_digest, IncrementalCertifier};
use canvas_minijava::Program;

use crate::pipeline::{certify_emit, check};
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use crate::util::{
    fleet_corpus, fp_str, peak_rss_mb, repeat_setup, sorted, Args, Outcome, Rng, WorkDir,
};

/// Corpus size, set-up repetitions and the shape of the edit stream.
pub struct Config {
    pub programs: usize,
    pub setups: usize,
    /// Share of operations that edit their program, per mille.
    pub edit_per_mille: u64,
    /// The store is persisted after every this many operations.
    pub persist_every: u64,
    /// Operations whose traffic forms the deterministic section; the timed
    /// phase must complete at least this many.
    pub prefix_ops: u64,
}

/// Every this many operations, the operation's certificate is also
/// checked, so the check latency is sampled across the whole timed phase.
const CHECK_EVERY: u64 = 16;

pub const BENCH: Config = Config {
    programs: 1000,
    setups: 11,
    edit_per_mille: 50,
    persist_every: 10_000,
    prefix_ops: 2000,
};

/// A program with one editable statement line. Edit level `k` appends `k`
/// further `add` calls on the receiver to that line, in the shape of the
/// E10 edit: a one-method change that keeps every other line (and so
/// every other method's span) where it was.
struct Editable {
    head: String,
    line: String,
    tail: String,
    recv: String,
}

impl Editable {
    fn new(source: &str, pick: usize) -> Result<Editable, String> {
        let lines: Vec<&str> = source.lines().collect();
        let candidates: Vec<usize> = (0..lines.len())
            .filter(|&k| {
                let t = lines[k].trim();
                t.contains(".add(\"") && t.ends_with(");")
            })
            .collect();
        let Some(&k) = candidates.get(pick % candidates.len().max(1)) else {
            return Err("no editable add() line".to_string());
        };
        let trimmed = lines[k].trim();
        let recv = trimmed[..trimmed.find(".add(").unwrap_or(0)].to_string();
        let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        Ok(Editable {
            head: join(&lines[..k]),
            line: lines[k].to_string(),
            tail: join(&lines[k + 1..]),
            recv,
        })
    }

    fn render(&self, level: u32) -> String {
        let mut s = String::with_capacity(self.head.len() + self.line.len() + self.tail.len() + 64);
        s.push_str(&self.head);
        s.push_str(&self.line);
        for _ in 0..level {
            s.push_str(&format!(" {}.add(\"e\");", self.recv));
        }
        s.push('\n');
        s.push_str(&self.tail);
        s
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| es.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Runs the workload.
///
/// # Errors
///
/// A cached verdict or certificate that differs from the uncached one, a
/// rejected certificate, or an I/O failure.
pub fn run(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    let work = WorkDir::new("edit_replay")?;
    let (manifest, programs) = fleet_corpus(args.seed, cfg.programs)?;
    let corpus_dir = work.path().join("corpus");
    let store_dir = work.path().join("store");
    write_corpus(&corpus_dir, &manifest, &programs, false).map_err(|e| e.to_string())?;
    let mut pick = Rng::new(args.seed, 2);
    let editable = programs
        .iter()
        .map(|p| Editable::new(&p.source, pick.below(64)).map_err(|e| format!("{}: {e}", p.name)))
        .collect::<Result<Vec<_>, _>>()?;

    // untimed pre-step: prime the store with every program and persist it
    {
        let certifier =
            Certifier::from_spec(canvas_easl::builtin::cmp()).map_err(|e| e.to_string())?;
        let inc = IncrementalCertifier::new(certifier, CertCache::open(&store_dir));
        for p in &programs {
            let program =
                Program::parse(&p.source, inc.certifier().spec()).map_err(|e| e.to_string())?;
            inc.certify_program_certified(&p.source, &program, Engine::ScmpFds)
                .map_err(|e| format!("{}: {e}", p.name))?;
        }
        inc.persist().map_err(|e| e.to_string())?;
    }
    drop(programs);

    // set-up: read the corpus, derive the certifier, open the warm store
    let mut tr = Tracer::new(args.trace);
    let (mut load_ms, mut derive_ms, mut open_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (setup, (items, certifier, cache)) = repeat_setup(cfg.setups, || {
        let t0 = Instant::now();
        let (loaded, items) =
            tr.time("fleet.load_corpus", || load_corpus(&corpus_dir)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let certifier = tr
            .time("wp.derive", || Certifier::from_spec(canvas_easl::builtin::cmp()))
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let cache = tr.time("incr.open", || CertCache::open(&store_dir));
        load_ms.push((t1 - t0).as_secs_f64() * 1e3);
        derive_ms.push((t2 - t1).as_secs_f64() * 1e3);
        open_ms.push(t2.elapsed().as_secs_f64() * 1e3);
        if loaded.digest != manifest.digest || items.len() != editable.len() {
            return Err("corpus read back with a different manifest".to_string());
        }
        Ok((items, certifier, cache))
    })?;
    let primed_entries = cache.len();
    let inc = IncrementalCertifier::new(certifier.clone(), cache);

    let mut out = Outcome::default();
    let mut stream = Rng::new(args.seed, 3);
    let mut levels = vec![0u32; editable.len()];
    // (program, edit level) -> (report digest, certificate fingerprint)
    let mut seen: BTreeMap<(usize, u32), (u64, u64)> = BTreeMap::new();
    let (mut verdict_ms, mut untraced_verdict_ms, mut persist_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut hits, mut misses, mut seeded, mut cert_bytes, mut work_units, mut predicates) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut digest = Hasher64::new();
    let mut check_ms = Samples::new();
    let mut prefix_rss_mb = None;
    let (mut windows, mut traced_ops) = (Windows::new(), 0u64);
    for (traced, secs) in crate::phases(args) {
        tr.set_on(traced);
        windows.restart();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let i = stream.below(editable.len());
            if stream.chance(cfg.edit_per_mille) {
                levels[i] += 1;
            }
            let source = editable[i].render(levels[i]);
            out.attempted += 1;
            tr.next_op(out.attempted);
            let op = tr.enter("op");
            let t0 = Instant::now();
            let Ok(program) =
                tr.time("minijava.parse", || Program::parse(&source, certifier.spec()))
            else {
                tr.exit(op);
                out.failed += 1;
                continue;
            };
            let certified = tr.time("incr.certify_cached", || {
                inc.certify_program_certified(&source, &program, Engine::ScmpFds)
            });
            let Ok((report, cert, stats)) = certified else {
                tr.exit(op);
                out.failed += 1;
                continue;
            };
            let text = tr.time("abstraction.cert_emit", || cert.to_text());
            let t1 = Instant::now();
            tr.exit(op);
            if report.is_inconclusive() {
                out.failed += 1;
                continue;
            }
            let record = (report_digest(&report).0, fp_str(&text));
            if *seen.entry((i, levels[i])).or_insert(record) != record {
                return Err(format!(
                    "{}: the same source got two different answers",
                    items[i].name
                ));
            }
            if out.attempted >= cfg.prefix_ops && prefix_rss_mb.is_none() {
                // the store grows with every edit, and how many edits a run
                // makes follows the host's speed: the memory high-water mark
                // is read at a fixed amount of work
                prefix_rss_mb = Some(peak_rss_mb()?);
            }
            if out.attempted <= cfg.prefix_ops {
                hits += stats.hits;
                misses += stats.misses;
                seeded += stats.delta_seeded;
                cert_bytes += text.len() as u64;
                work_units += report.stats.work as u64;
                predicates += report.stats.predicates as u64;
                digest.write_u64(record.0);
                digest.write_u64(record.1);
            }
            if traced {
                traced_ops += 1;
                verdict_ms.push(windows.ms(t1 - t0));
                std::hint::black_box(
                    tr.time("incr.fingerprint", || ProgramFingerprints::new(&program)),
                );
            } else {
                untraced_verdict_ms.push(windows.ms(t1 - t0));
            }
            if out.attempted % cfg.persist_every == 0 {
                let t = Instant::now();
                tr.time("incr.persist", || inc.persist()).map_err(|e| e.to_string())?;
                persist_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if out.attempted % CHECK_EVERY == 0 {
                let t = Instant::now();
                check(&mut tr, &certifier, &source, &text)
                    .map_err(|e| format!("{}: {e}", items[i].name))?;
                check_ms.push(windows.ms(t.elapsed()));
                windows.exclude(t.elapsed());
            }
            windows.add(1);
        }
    }
    tr.set_on(false);
    if out.attempted < cfg.prefix_ops {
        return Err(format!(
            "the timed phase completed {} operations, fewer than the {} of the deterministic prefix",
            out.attempted, cfg.prefix_ops
        ));
    }
    inc.persist().map_err(|e| e.to_string())?;
    let store_bytes = dir_bytes(&store_dir);

    // every cached answer against an uncached certifier, then the check
    for (&(i, level), &(report_fp, cert_fp)) in &seen {
        let source = editable[i].render(level);
        let name = &items[i].name;
        let (_, report, text) =
            certify_emit(&mut Tracer::new(false), &certifier, &source, Engine::ScmpFds)
                .map_err(|e| format!("{name}: {e}"))?;
        if report_digest(&report).0 != report_fp || fp_str(&text) != cert_fp {
            return Err(format!("{name} (edit level {level}): cached verdict or certificate differs from the uncached one"));
        }
        let checked =
            check(&mut tr, &certifier, &source, &text).map_err(|e| format!("{name}: {e}"))?;
        let replayed = sorted(checked.violations.iter().map(|v| v.line).collect());
        if replayed != sorted(report.lines()) {
            return Err(format!("{name}: the checker confirms other violations than the verdict"));
        }
    }

    let prefix = cfg.prefix_ops as f64;
    let cert_bytes_mean = cert_bytes as f64 / prefix;
    out.det("corpus_digest", manifest.digest);
    out.det("primed_entries", primed_entries);
    out.det("prefix_ops", cfg.prefix_ops);
    out.det("hits", hits);
    out.det("misses", misses);
    out.det("delta_seeded", seeded);
    out.det("cert_bytes_per_verdict", format!("{cert_bytes_mean:.4}"));
    out.det("work_units", work_units);
    out.det("verdict_digest", digest.finish());

    if args.trace {
        let layers = tr.layers();
        let ops = traced_ops as usize;
        let us = |name: &str| tr.us_per(&layers, name, traced_ops);
        let checks = layers.get("check.replay").map_or(0, |l| l.count as usize);
        out.metric("minijava.parse_us", us("minijava.parse"), "us", ops);
        out.metric("incr.certify_cached_us", us("incr.certify_cached"), "us", ops);
        out.metric("incr.fingerprint_us", us("incr.fingerprint"), "us", ops);
        out.metric("abstraction.cert_emit_us", us("abstraction.cert_emit"), "us", ops);
        out.metric("abstraction.cert_bytes", cert_bytes_mean, "bytes", cfg.prefix_ops as usize);
        let per_check = |name: &str| tr.us_per_call(&layers, name);
        out.metric("check.cert_parse_us", per_check("check.cert_parse"), "us", checks);
        out.metric("check.replay_us", per_check("check.replay"), "us", checks);
        out.metric("incr.hits", hits as f64, "count", 1);
        out.metric("incr.misses", misses as f64, "count", 1);
        out.metric("incr.delta_seeded", seeded as f64, "count", 1);
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        out.metric("incr.hit_ratio", hit_ratio, "ratio", 1);
        out.notes.push(format!(
            "sanity incr.hit_ratio = {hit_ratio:.4}: the store answers almost every cell"
        ));
        out.metric("incr.persist_ms", persist_ms.median()?, "ms", persist_ms.len());
        out.metric("incr.open_ms", open_ms.median()?, "ms", open_ms.len());
        out.metric("incr.store_bytes", store_bytes as f64, "bytes", 1);
        out.metric("fleet.load_corpus_ms", load_ms.median()?, "ms", load_ms.len());
        out.metric("wp.derive_ms", derive_ms.median()?, "ms", derive_ms.len());
        out.metric("dataflow.work_units", work_units as f64, "count", 1);
        out.metric("abstraction.predicates", predicates as f64, "count", 1);
        let overhead = verdict_ms.percentile(0.5, "traced verdict latency")?
            / untraced_verdict_ms.percentile(0.5, "untraced verdict latency")?;
        out.metric("trace.overhead_ratio", overhead, "ratio", verdict_ms.len());
        out.spans = Some(tr);
    } else {
        out.end_to_end(
            &untraced_verdict_ms,
            &check_ms,
            &setup,
            &windows,
            cert_bytes_mean,
            cfg.prefix_ops as usize,
        )?;
        out.metric("peak_rss_mb", prefix_rss_mb.ok_or("no memory reading")?, "MB", 1);
    }
    Ok(out)
}
