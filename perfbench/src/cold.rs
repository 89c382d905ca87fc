//! `corpus_cold`: CI certifies a seeded fleet corpus from scratch with
//! `scmp-fds`, emitting and checking a certificate for every program. The
//! certificate store is bypassed, so parsing, lowering, solving, emitting
//! and checking do almost all the work.

use std::time::Instant;

use canvas_core::{Certifier, Engine};
use canvas_fleet::manifest::{load_corpus, write_corpus, FleetItem};
use canvas_incr::fingerprint::Hasher64;

use crate::pipeline::{certify_emit, check, matches_truth, replay_fds_cells};
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use crate::util::{
    fleet_corpus, fp_str, peak_rss_mb, repeat_setup, sorted, Args, Outcome, Rng, WorkDir,
};

/// Corpus size and set-up repetitions.
pub struct Config {
    pub programs: usize,
    pub setups: usize,
}

pub const BENCH: Config = Config { programs: 1000, setups: 11 };

fn expected(item: &FleetItem) -> Result<Vec<u32>, String> {
    item.expected.clone().map(sorted).ok_or_else(|| format!("{}: no ground truth", item.name))
}

/// Runs the workload.
///
/// # Errors
///
/// A wrong verdict, a rejected certificate, or an I/O failure.
pub fn run(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    let work = WorkDir::new("corpus_cold")?;
    let (manifest, programs) = fleet_corpus(args.seed, cfg.programs)?;
    let dir = work.path().join("corpus");
    write_corpus(&dir, &manifest, &programs, false).map_err(|e| e.to_string())?;
    drop(programs);

    // set-up: read the corpus back and derive the certifier, as
    // `canvas fleet run` does
    let mut tr = Tracer::new(args.trace);
    let (mut load_ms, mut derive_ms, mut raw_setup_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let (setup, (items, certifier)) = repeat_setup(cfg.setups, || {
        let t0 = Instant::now();
        let (loaded, items) =
            tr.time("fleet.load_corpus", || load_corpus(&dir)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let certifier = tr
            .time("wp.derive", || Certifier::from_spec(canvas_easl::builtin::cmp()))
            .map_err(|e| e.to_string())?;
        load_ms.push((t1 - t0).as_secs_f64() * 1e3);
        derive_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        raw_setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if loaded.digest != manifest.digest {
            return Err("corpus read back with a different manifest digest".to_string());
        }
        Ok((items, certifier))
    })?;

    let mut out = Outcome::default();
    let order = Rng::new(args.seed, 1).permutation(items.len());
    let (mut verdict_ms, mut check_ms) = (Samples::new(), Samples::new());
    let mut untraced_verdict_ms = Samples::new();
    let (mut windows, mut traced_ops) = (Windows::new(), 0u64);
    for (traced, secs) in crate::phases(args) {
        tr.set_on(traced);
        windows.restart();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let item = &items[order[out.attempted as usize % order.len()]];
            out.attempted += 1;
            tr.next_op(out.attempted);
            let op = tr.enter("op");
            let t0 = Instant::now();
            let Ok((program, report, text)) =
                certify_emit(&mut tr, &certifier, &item.source, Engine::ScmpFds)
            else {
                tr.exit(op);
                out.failed += 1;
                continue;
            };
            let t1 = Instant::now();
            let checked = check(&mut tr, &certifier, &item.source, &text)
                .map_err(|e| format!("{}: {e}", item.name))?;
            let t2 = Instant::now();
            tr.exit(op);
            if report.is_inconclusive() {
                out.failed += 1;
                continue;
            }
            matches_truth(&item.name, &report, &checked, &expected(item)?)?;
            if traced {
                traced_ops += 1;
                verdict_ms.push(windows.ms(t1 - t0));
                replay_fds_cells(&mut tr, &certifier, &program);
            } else {
                untraced_verdict_ms.push(windows.ms(t1 - t0));
                check_ms.push(windows.ms(t2 - t1));
            }
            windows.add(1);
        }
    }
    tr.set_on(false);

    // the deterministic section: one untimed pass over the whole corpus
    let (mut cert_bytes, mut work_units, mut predicates) = (0u64, 0u64, 0u64);
    let mut digest = Hasher64::new();
    for item in &items {
        let (_, report, text) = certify_emit(&mut tr, &certifier, &item.source, Engine::ScmpFds)
            .map_err(|e| format!("{}: {e}", item.name))?;
        let checked = check(&mut tr, &certifier, &item.source, &text)
            .map_err(|e| format!("{}: {e}", item.name))?;
        matches_truth(&item.name, &report, &checked, &expected(item)?)?;
        cert_bytes += text.len() as u64;
        work_units += report.stats.work as u64;
        predicates += report.stats.predicates as u64;
        digest.write_str(&item.name);
        digest.write_u64(fp_str(&text));
    }
    let n = items.len() as u64;
    let cert_bytes_mean = cert_bytes as f64 / n as f64;
    out.det("corpus_digest", manifest.digest);
    out.det("programs", n);
    out.det("cert_bytes_per_verdict", format!("{cert_bytes_mean:.4}"));
    out.det("work_units", work_units);
    out.det("predicates", predicates);
    out.det("verdict_digest", digest.finish());

    if args.trace {
        let layers = tr.layers();
        let us = |name: &str| tr.us_per(&layers, name, traced_ops);
        let certify = us("core.certify");
        let (lower, solve) = (us("abstraction.lower"), us("dataflow.solve"));
        let (cert_parse, replay) = (us("check.cert_parse"), us("check.replay"));
        let load = load_ms.median()?;
        let growth = load_growth(&work, args.seed, cfg.programs, load)?;
        // raw over raw: the per-layer times are not host-normalised
        let share = load / raw_setup_ms.median()?;
        let ops = traced_ops as usize;
        out.metric("minijava.parse_us", us("minijava.parse"), "us", ops);
        out.metric("core.certify_us", certify, "us", ops);
        out.metric("abstraction.lower_us", lower, "us", ops);
        out.metric("dataflow.solve_us", solve, "us", ops);
        out.metric("core.residual_us", certify - lower - solve, "us", ops);
        out.metric("abstraction.cert_emit_us", us("abstraction.cert_emit"), "us", ops);
        out.metric("abstraction.cert_bytes", cert_bytes_mean, "bytes", n as usize);
        out.metric("check.cert_parse_us", cert_parse, "us", ops);
        out.metric("check.replay_us", replay, "us", ops);
        out.metric("check.share_of_certify", (cert_parse + replay) / certify, "ratio", ops);
        out.metric("fleet.load_corpus_ms", load, "ms", load_ms.len());
        out.metric("fleet.load_share_of_setup", share, "ratio", setup.len());
        out.metric("fleet.load_corpus_growth", growth, "ratio", 3);
        out.metric("wp.derive_ms", derive_ms.median()?, "ms", derive_ms.len());
        out.metric("dataflow.work_units", work_units as f64, "count", n as usize);
        out.metric("abstraction.predicates", predicates as f64, "count", n as usize);
        let overhead = verdict_ms.percentile(0.5, "traced verdict latency")?
            / untraced_verdict_ms.percentile(0.5, "untraced verdict latency")?;
        out.metric("trace.overhead_ratio", overhead, "ratio", verdict_ms.len());
        out.notes.push(format!(
            "sanity check.cert_parse_us + check.replay_us = {:.1} us {} core.certify_us = {certify:.1} us",
            cert_parse + replay,
            if cert_parse + replay > certify { ">" } else { "<=" },
        ));
        out.notes.push(format!(
            "sanity fleet.load_corpus_ms = {load:.1} ms is {:.0}% of the raw set-up; loading twice the \
             programs takes {growth:.2}x as long ({})",
            share * 100.0,
            if growth > 2.0 { "faster than linear" } else { "not faster than linear" },
        ));
        out.spans = Some(tr);
    } else {
        out.end_to_end(
            &untraced_verdict_ms,
            &check_ms,
            &setup,
            &windows,
            cert_bytes_mean,
            n as usize,
        )?;
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    }
    Ok(out)
}

/// How much longer `load_corpus` takes on twice the programs: the median
/// of three loads of a `2 * programs` corpus over `load_ms` (the median
/// load of the workload's own corpus). Above 2 the load grows faster than
/// linearly.
fn load_growth(work: &WorkDir, seed: u64, programs: usize, load_ms: f64) -> Result<f64, String> {
    let (manifest, corpus) = fleet_corpus(seed, 2 * programs)?;
    let dir = work.path().join("corpus-2x");
    write_corpus(&dir, &manifest, &corpus, false).map_err(|e| e.to_string())?;
    let mut samples = Samples::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        load_corpus(&dir).map_err(|e| e.to_string())?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(samples.median()? / load_ms)
}
