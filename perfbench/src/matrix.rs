//! `engine_matrix`: the 32-program `canvas_suite::corpus()` under all
//! eight engines, whole-program, repeated in rounds of a seeded cell
//! order. It is the one workload that runs the relational,
//! interprocedural, TVLA, storage-shape-graph and allocation-site engines.
//! The two `scmp-relational` cells that exhaust their state budget stay in
//! every round and count as failed operations; they run after the round's
//! deciding cells, outside its throughput window and latency samples.

use std::time::Instant;

use canvas_core::{Certifier, CertifyError, Engine, Report};
use canvas_incr::fingerprint::Hasher64;
use canvas_minijava::Program;
use canvas_suite::Benchmark;

use crate::layers::ENGINES;
use crate::pipeline::check;
use crate::stats::{Samples, Windows};
use crate::trace::Tracer;
use crate::util::{fp_str, peak_rss_mb, repeat_setup, sorted, Args, Outcome, Rng};

/// Set-up repetitions.
pub struct Config {
    pub setups: usize,
}

pub const BENCH: Config = Config { setups: 9 };

/// Checks of every replayable certificate per round: a round has about 60,
/// so one pass leaves a run of 25 s with a handful of 1,000-sample blocks
/// for `check_p99_ms`, and three passes cost under a tenth of a round.
const CHECK_PASSES: usize = 3;

struct Suite {
    benches: Vec<Benchmark>,
    /// One certifier per benchmark (derived once per specification).
    certifiers: Vec<Certifier>,
    engines: Vec<Engine>,
}

impl Suite {
    fn load(tr: &mut Tracer) -> Result<Suite, String> {
        let benches = canvas_suite::corpus();
        let mut derived: Vec<(String, Certifier)> = Vec::new();
        let mut certifiers = Vec::with_capacity(benches.len());
        for b in &benches {
            let spec = b.spec.spec();
            let name = spec.name().to_string();
            let certifier = match derived.iter().find(|(n, _)| *n == name) {
                Some((_, c)) => c.clone(),
                None => {
                    let c = tr
                        .time("wp.derive", || Certifier::from_spec(spec))
                        .map_err(|e| e.to_string())?;
                    derived.push((name, c.clone()));
                    c
                }
            };
            certifiers.push(certifier);
        }
        let engines = Engine::all();
        if !engines.iter().map(|e| e.abbrev()).eq(ENGINES) {
            return Err("the engine registry no longer matches the metric names".to_string());
        }
        Ok(Suite { benches, certifiers, engines })
    }

    fn cells(&self) -> usize {
        self.benches.len() * self.engines.len()
    }

    /// `(benchmark, engine)` of cell `k`.
    fn cell(&self, k: usize) -> (usize, Engine) {
        (k / self.engines.len(), self.engines[k % self.engines.len()])
    }

    /// Whole-program certification of one cell: `Ok(None)` when the cell
    /// fails (an exhausted budget or an inconclusive verdict).
    ///
    /// # Errors
    ///
    /// Any other certification error, or an unsound verdict.
    fn run_cell(&self, tr: &mut Tracer, k: usize) -> Result<Option<Report>, String> {
        let (b, engine) = self.cell(k);
        let (bench, certifier) = (&self.benches[b], &self.certifiers[b]);
        let program = tr
            .time("minijava.parse", || Program::parse(bench.source, certifier.spec()))
            .map_err(|e| format!("{}: {e}", bench.name))?;
        match tr.time("core.certify", || certifier.certify_program(&program, engine)) {
            Ok(report) if report.is_inconclusive() => Ok(None),
            Ok(report) => {
                self.sound(b, &report)?;
                Ok(Some(report))
            }
            Err(CertifyError::StateBudget { .. }) => Ok(None),
            Err(e) => Err(format!("{} [{engine}]: {e}", bench.name)),
        }
    }

    /// Every decided verdict reports the suite's `// ERROR` lines; `scmp-fds`
    /// reports exactly those on an SCMP program that needs no
    /// interprocedural reasoning (on the others it certifies callees out of
    /// context, where false alarms are expected).
    fn sound(&self, b: usize, report: &Report) -> Result<(), String> {
        let bench = &self.benches[b];
        let (truth, lines) = (bench.truth(), sorted(report.lines()));
        let missed: Vec<u32> = truth.iter().copied().filter(|l| !lines.contains(l)).collect();
        if !missed.is_empty() {
            return Err(format!(
                "{} [{}]: unsound, misses lines {missed:?}",
                bench.name, report.engine
            ));
        }
        if report.engine == Engine::ScmpFds
            && bench.scmp
            && !bench.interprocedural
            && lines != truth
        {
            return Err(format!(
                "{} [scmp-fds]: lines {lines:?}, expected exactly {truth:?}",
                bench.name
            ));
        }
        Ok(())
    }
}

/// Runs the workload.
///
/// # Errors
///
/// An unsound verdict, an unexpected certification error, or a rejected
/// certificate.
pub fn run(args: &Args, cfg: &Config) -> Result<Outcome, String> {
    // set-up: derive the certifiers and warm up with one full round
    let mut tr = Tracer::new(args.trace);
    let mut derive_ms = Samples::new();
    let (setup, suite) = repeat_setup(cfg.setups, || {
        let t0 = Instant::now();
        let suite = Suite::load(&mut tr)?;
        derive_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut off = Tracer::new(false);
        for k in 0..suite.cells() {
            suite.run_cell(&mut off, k)?;
        }
        Ok(suite)
    })?;
    let n = suite.cells();

    // the deterministic section and the certificates: one untimed round
    // in cell order, certificate and all
    let mut digest = Hasher64::new();
    let (mut decided, mut cert_bytes, mut failed_cells, mut rel_exhausted) =
        (0u64, 0u64, 0u64, 0u64);
    let mut work = vec![0u64; ENGINES.len()];
    let mut predicates = 0u64;
    let mut replayable = Vec::new();
    // per cell: whether it ends in a verdict (in every round alike)
    let mut decides = vec![false; n];
    for k in 0..n {
        let (b, engine) = suite.cell(k);
        let (bench, certifier) = (&suite.benches[b], &suite.certifiers[b]);
        let program = Program::parse(bench.source, certifier.spec()).map_err(|e| e.to_string())?;
        digest.write_usize(k);
        match certifier.certify_with_certificate(bench.source, &program, engine) {
            Ok((report, cert)) if !report.is_inconclusive() => {
                suite.sound(b, &report)?;
                let text = cert.to_text();
                decided += 1;
                decides[k] = true;
                cert_bytes += text.len() as u64;
                work[k % ENGINES.len()] += report.stats.work as u64;
                predicates += report.stats.predicates as u64;
                digest.write_u64(canvas_incr::report_digest(&report).0);
                digest.write_u64(fp_str(&text));
                if cert.checkable() {
                    replayable.push((b, sorted(report.lines()), text));
                }
            }
            Ok(_) | Err(CertifyError::StateBudget { .. }) => {
                failed_cells += 1;
                if engine == Engine::ScmpRelational {
                    rel_exhausted += 1;
                }
                digest.write_u8(0xff);
            }
            Err(e) => return Err(format!("{} [{engine}]: {e}", bench.name)),
        }
    }

    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed, 4);
    // the seeded cell order, shown by the digest of the first round's
    let mut first_order = None;
    let (mut cell_ms, mut untraced_cell_ms, mut check_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    // per engine: (cells, total ns) in the traced phase
    let mut per_engine = vec![(0u64, 0u64); ENGINES.len()];
    let (mut wasted_ns, mut total_ns) = (0u64, 0u64);
    let mut windows = Windows::new();
    for (traced, secs) in crate::phases(args) {
        tr.set_on(traced);
        // whole rounds only, so every round weighs every cell equally. A
        // round runs its deciding cells in the seeded order as one
        // throughput window, then checks every replayable certificate
        // CHECK_PASSES times, then runs the cells that exhaust their budget:
        // those count as failed but stay out of the window and the latency
        // samples, which their state explosion would otherwise set.
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            let order = rng.permutation(n);
            first_order.get_or_insert_with(|| order.clone());
            let (deciding, failing): (Vec<usize>, Vec<usize>) =
                order.into_iter().partition(|&k| decides[k]);
            let mut time_cell =
                |k: usize, windows: &Windows, tr: &mut Tracer| -> Result<(), String> {
                    out.attempted += 1;
                    tr.next_op(out.attempted);
                    let t0 = Instant::now();
                    let ok = suite.run_cell(tr, k)?.is_some();
                    let elapsed = t0.elapsed();
                    let ns = elapsed.as_nanos() as u64;
                    if ok != decides[k] {
                        let (b, engine) = suite.cell(k);
                        let name = suite.benches[b].name;
                        return Err(format!("{name} [{engine}]: the cell's outcome changed"));
                    }
                    if !ok {
                        out.failed += 1;
                    }
                    if traced {
                        let e = k % ENGINES.len();
                        per_engine[e].0 += 1;
                        per_engine[e].1 += ns;
                        total_ns += ns;
                        if ok {
                            cell_ms.push(windows.ms(elapsed));
                        } else {
                            wasted_ns += ns;
                        }
                    } else if ok {
                        untraced_cell_ms.push(windows.ms(elapsed));
                    }
                    Ok(())
                };
            windows.restart();
            for &k in &deciding {
                time_cell(k, &windows, &mut tr)?;
            }
            windows.add_round(deciding.len() as u64);
            for _ in 0..CHECK_PASSES {
                for (b, lines, text) in &replayable {
                    let (bench, certifier) = (&suite.benches[*b], &suite.certifiers[*b]);
                    let t0 = Instant::now();
                    let checked = check(&mut tr, certifier, bench.source, text)
                        .map_err(|e| format!("{}: {e}", bench.name))?;
                    if !traced {
                        check_ms.push(windows.ms(t0.elapsed()));
                    }
                    if sorted(checked.violations.iter().map(|v| v.line).collect()) != *lines {
                        return Err(format!(
                            "{}: the checker confirms other violations than the verdict",
                            bench.name
                        ));
                    }
                }
            }
            for &k in &failing {
                time_cell(k, &windows, &mut tr)?;
            }
        }
    }
    let cert_bytes_mean = cert_bytes as f64 / decided.max(1) as f64;
    out.det("cells", n);
    out.det("decided_cells", decided);
    out.det("failed_cells", failed_cells);
    out.det("cert_bytes_per_verdict", format!("{cert_bytes_mean:.4}"));
    out.det("work_units", work.iter().sum::<u64>());
    let mut order_digest = Hasher64::new();
    for k in first_order.unwrap_or_default() {
        order_digest.write_usize(k);
    }
    out.det("order_digest", order_digest.finish());
    out.det("verdict_digest", digest.finish());

    if args.trace {
        let layers = tr.layers();
        let cells = per_engine.iter().map(|c| c.0).sum::<u64>();
        for (e, abbrev) in ENGINES.iter().enumerate() {
            let (count, ns) = per_engine[e];
            let us = ns as f64 / 1e3 / count.max(1) as f64;
            out.metric(&format!("engine.{abbrev}.us_per_cell"), us, "us", count as usize);
            out.metric(&format!("engine.{abbrev}.work_units"), work[e] as f64, "count", 1);
        }
        let wasted = wasted_ns as f64 / total_ns.max(1) as f64;
        out.metric("engine.rel.exhausted", rel_exhausted as f64, "count", 1);
        out.metric("engine_matrix.wasted_share", wasted, "ratio", cells as usize);
        out.metric(
            "minijava.parse_us",
            tr.us_per(&layers, "minijava.parse", cells),
            "us",
            cells as usize,
        );
        out.metric(
            "core.certify_us",
            tr.us_per(&layers, "core.certify", cells),
            "us",
            cells as usize,
        );
        out.metric("wp.derive_ms", derive_ms.median()?, "ms", derive_ms.len());
        out.metric("abstraction.cert_bytes", cert_bytes_mean, "bytes", decided as usize);
        let checks = layers.get("check.replay").map_or(0, |l| l.count as usize);
        let per_check = |name: &str| tr.us_per_call(&layers, name);
        out.metric("check.cert_parse_us", per_check("check.cert_parse"), "us", checks);
        out.metric("check.replay_us", per_check("check.replay"), "us", checks);
        out.metric("dataflow.work_units", work.iter().sum::<u64>() as f64, "count", 1);
        out.metric("abstraction.predicates", predicates as f64, "count", 1);
        let overhead = cell_ms.percentile(0.5, "traced cell latency")?
            / untraced_cell_ms.percentile(0.5, "untraced cell latency")?;
        out.metric("trace.overhead_ratio", overhead, "ratio", cell_ms.len());
        out.notes.push(format!(
            "sanity budget-exhausted scmp-relational cells ({rel_exhausted} per round) take {:.0}% of the matrix time",
            wasted * 100.0
        ));
        out.spans = Some(tr);
    } else {
        out.end_to_end(
            &untraced_cell_ms,
            &check_ms,
            &setup,
            &windows,
            cert_bytes_mean,
            decided as usize,
        )?;
        out.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    }
    Ok(out)
}
