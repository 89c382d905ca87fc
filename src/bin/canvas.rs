//! `canvas` — the command-line certifier.
//!
//! ```text
//! canvas derive  --spec <cmp|grp|imp|aop|PATH.easl> [--metrics] [--log-json PATH]
//! canvas certify --spec <...> [--engine <name>] [--whole-program|--inline]
//!                [--explain] [--trace-out PATH] [--metrics] [--log-json PATH]
//!                [--max-steps N] [--deadline-ms N]
//!                [--emit-cert PATH] CLIENT.mj
//! canvas check   --spec <...> [--metrics] [--log-json PATH] CERT CLIENT.mj
//! canvas serve   [--threads N] [--cache-dir DIR | --no-cache] [--log-json PATH]
//! canvas fleet gen --out DIR [--programs N] [--seed N] [--violation-rate R] [--force]
//! canvas fleet run --corpus DIR [--shards N] [--cache-dir DIR] [--report PATH]
//!                [--backend HOST:PORT]...
//! canvas engines
//! canvas specs
//! ```
//!
//! `--metrics` enables pipeline telemetry and prints a summary (counters,
//! timers) after the command's normal output. `--explain` records per-fact
//! provenance during the analysis and renders each violation as a
//! rustc-style labeled diagnostic with its witness trace. `--trace-out`
//! records solver/certification trace events and writes them as Chrome
//! Trace Format JSON (loadable in Perfetto / `chrome://tracing`).
//! `--log-json` streams the structured event log as `canvas-log/1`
//! newline-delimited JSON to a file (threshold lowered to `info`);
//! warnings and errors keep their stderr rendering either way.
//!
//! `--max-steps` and `--deadline-ms` bound the engine fixpoints through the
//! resource governor (`canvas-faults`): when a budget trips, the engine
//! degrades to an inconclusive verdict instead of running away.
//!
//! `certify --whole-program --emit-cert PATH` writes a proof-carrying
//! certificate: the engine's fixpoint solution in the versioned
//! `canvas-cert/1` byte-stable format, bound by digest to the exact client
//! source, spec, and derived abstraction. `canvas check CERT CLIENT.mj`
//! revalidates it with the engine-free `canvas-check` crate — single-pass
//! post-fixpoint replay, no fixpoint iteration, no engine code trusted —
//! and exits 0 (valid, certified), 1 (valid, violations confirmed), or
//! 2 (rejected: mutated, truncated, or inconsistent).
//!
//! `certify --whole-program --cache-dir DIR` certifies through the
//! content-addressed certificate cache: unchanged `(method, entry, engine)`
//! cells are answered from `DIR` instead of re-analysed. `canvas serve`
//! runs the long-lived certification daemon: newline-delimited JSON
//! requests on stdin, one response line each on stdout (see
//! `canvas_incr::service`), sharing one warm cache across concurrent
//! requests (default `.canvas-cache/`; `--no-cache` keeps it in memory).
//!
//! `canvas fleet gen` materializes a deterministic, seed-parameterized
//! synthetic corpus (with a `canvas-fleet-manifest/1` manifest recording
//! per-file fingerprints and ground truth); it refuses an existing output
//! directory without `--force`. `canvas fleet run` certifies a corpus on
//! `--shards` workers that claim programs from one queue — in-process by
//! default, through one certificate store they all share (opened from and
//! persisted to `--cache-dir` when given), or against `canvas serve
//! --listen` backends with `--backend` — and prints the aggregated fleet
//! report (`--report` also writes it as `canvas-bench-eval/2` JSON).
//!
//! Every verb reads its options through one parser: an option the verb has
//! no use for is a usage error, like an unknown one.
//!
//! Exit status: 0 = certified conformant, 1 = potential violations found,
//! 2 = usage/spec/client/engine error, 3 = analysis inconclusive (resource
//! budget exhausted before a verdict was reached; for `fleet run`, also any
//! poisoned program or dead shard).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use canvas_core::{out, outln, CanvasError, Certifier, Engine, Stage};
use canvas_faults::Budget;
use canvas_incr::service::{self, load_spec, ServeConfig};
use canvas_incr::store::CertCache;
use canvas_incr::IncrementalCertifier;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("canvas: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CanvasError> {
    let (verb, args) = match args.first().map(String::as_str) {
        Some("fleet") => {
            let verb = match args.get(1).map(String::as_str) {
                Some("gen") => Verb::FleetGen,
                Some("run") => Verb::FleetRun,
                other => {
                    return Err(CanvasError::usage(format!(
                        "fleet needs a subcommand: gen or run (got {:?})",
                        other.unwrap_or("")
                    )))
                }
            };
            (verb, &args[2..])
        }
        Some(name) => match Verb::ALL.iter().find(|v| v.name() == name) {
            Some(&verb) => (verb, &args[1..]),
            None => return Ok(usage()),
        },
        None => return Ok(usage()),
    };
    let o = parse(verb, args)?;
    match verb {
        Verb::Engines => {
            for e in Engine::all() {
                outln!(
                    "{:<26} {}",
                    e.name(),
                    if e.specialized() { "derived abstraction" } else { "generic baseline" }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Verb::Specs => {
            let mut specs = canvas_easl::builtin::all();
            specs.push(canvas_easl::builtin::unbounded());
            outln!("{:<12} {:<20} {:<8} {:<8} derivation", "name", "class", "classes", "methods");
            for spec in &specs {
                let class = canvas_easl::classify(spec);
                outln!(
                    "{:<12} {:<20} {:<8} {:<8} {}",
                    spec.name(),
                    format!("{class:?}"),
                    spec.classes().len(),
                    spec.classes().iter().map(|c| c.methods().len()).sum::<usize>(),
                    if class.derivation_terminates() {
                        "guaranteed to terminate"
                    } else {
                        "budgeted (no termination guarantee)"
                    }
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Verb::Derive => derive(&o),
        Verb::Certify => certify(&o),
        Verb::Check => check(&o),
        Verb::Serve => serve(o),
        Verb::FleetGen => fleet_gen(&o),
        Verb::FleetRun => fleet_run(o),
    }
}

/// Prints the usage summary; exit 2.
fn usage() -> ExitCode {
    outln!(
        "usage:\n  canvas derive  --spec <cmp|grp|imp|aop|PATH.easl> [--metrics] \
         [--log-json PATH]\n  \
         canvas certify --spec <...> [--engine <name>] [--whole-program|--inline] \
         [--explain] [--trace-out PATH] [--metrics] [--log-json PATH] \
         [--max-steps N] [--deadline-ms N] [--cache-dir DIR] \
         [--emit-cert PATH] CLIENT.mj\n  \
         canvas check   --spec <...> [--metrics] [--log-json PATH] CERT CLIENT.mj\n  \
         canvas serve   [--listen HOST:PORT] [--threads N] [--queue N] \
         [--cache-dir DIR | --no-cache] [--cache-bytes N[k|m|g]] \
         [--tenant-burst N] [--tenant-rate N] [--deadline-ms N] \
         [--write-timeout-ms N] [--max-line-bytes N[k|m|g]] \
         [--log-json PATH]\n  \
         canvas fleet gen --out DIR [--programs N] [--seed N] [--max-methods N] \
         [--max-loop-depth N] [--violation-rate R] [--threads N] [--force]\n  \
         canvas fleet run --corpus DIR [--shards N] [--engine <name>] [--spec <name>] \
         [--cache-dir DIR] [--report PATH] [--backend HOST:PORT]...\n  \
         canvas engines\n  \
         canvas specs"
    );
    ExitCode::from(2)
}

fn derive(o: &Opts) -> Result<ExitCode, CanvasError> {
    canvas_telemetry::set_enabled(o.metrics);
    init_log_json(o.log_json.as_deref())?;
    let spec = load_spec(o.spec())?;
    outln!("specification {} ({:?})", spec.name(), canvas_easl::classify(&spec));
    let certifier = Certifier::from_spec(spec)?;
    outln!("derived instrumentation-predicate families:");
    for f in certifier.derived().families() {
        outln!("  {f}");
    }
    let stats = certifier.derived().stats();
    outln!(
        "derivation: {} WP computations, {} equivalence checks, converged in {} rounds",
        stats.wp_count,
        stats.equiv_checks,
        stats.families_discovered.len()
    );
    if o.metrics {
        out!("{}", canvas_telemetry::snapshot());
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads a client file. This is where the `truncate-input` fault point
/// cuts untrusted input in half: the front end itself reads no fault
/// state, so the checker's re-parse sees exactly the text it is given.
fn read_client(path: &str) -> Result<String, CanvasError> {
    let mut source = std::fs::read_to_string(path)
        .map_err(|e| CanvasError::io(Stage::ClientFrontend, path, &e))?;
    source.truncate(canvas_faults::truncate_input(&source).len());
    Ok(source)
}

fn certify(o: &Opts) -> Result<ExitCode, CanvasError> {
    canvas_telemetry::set_enabled(o.metrics);
    init_log_json(o.log_json.as_deref())?;
    canvas_telemetry::trace::set_tracing(o.trace_out.is_some());
    let [client_path] = o.operands.as_slice() else {
        return Err(CanvasError::usage("certify needs a client file argument"));
    };
    let source = read_client(client_path)?;
    let spec = load_spec(o.spec())?;
    let certifier = Certifier::from_spec(spec)?.with_explain(o.explain).with_budget(o.budget);
    let program = {
        let _parse_phase = canvas_telemetry::phase::PARSE.span();
        canvas_minijava::Program::parse(&source, certifier.spec())
            .map_err(|e| CanvasError::client(&e))?
    };
    if o.emit_cert.is_some() && !o.whole_program {
        return Err(CanvasError::usage("--emit-cert requires --whole-program"));
    }
    let mut certificate: Option<canvas_abstraction::Certificate> = None;
    let report = if o.inline {
        let inlined = canvas_minijava::inline::inline_main(&program, 100_000)
            .map_err(|e| CanvasError::client(&e))?;
        certifier.certify(&inlined, o.engine)?
    } else if let Some(dir) = &o.cache_dir {
        if !o.whole_program {
            return Err(CanvasError::usage("--cache-dir requires --whole-program"));
        }
        let inc = IncrementalCertifier::new(certifier, CertCache::open(Path::new(dir)));
        let (report, stats) = if o.emit_cert.is_some() {
            let (report, cert, stats) = inc
                .certify_program_certified(&source, &program, o.engine)
                .map_err(CanvasError::from)?;
            certificate = Some(cert);
            (report, stats)
        } else {
            inc.certify_program_cached(&program, o.engine).map_err(CanvasError::from)?
        };
        inc.persist()?;
        eprintln!("canvas: certificate cache: {} hit(s), {} miss(es)", stats.hits, stats.misses);
        report
    } else if o.whole_program {
        if o.emit_cert.is_some() {
            let (report, cert) = certifier.certify_with_certificate(&source, &program, o.engine)?;
            certificate = Some(cert);
            report
        } else {
            certifier.certify_program(&program, o.engine)?
        }
    } else {
        certifier.certify(&program, o.engine)?
    };
    if o.explain {
        out!("{}", report.render_explained(client_path, &source));
    } else {
        out!("{report}");
    }
    if o.metrics {
        out!("{}", canvas_telemetry::snapshot());
    }
    if let Some(path) = &o.trace_out {
        let json = canvas_telemetry::trace::export_chrome_json();
        std::fs::write(path, &json).map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
        eprintln!("canvas: wrote trace to {path}");
    }
    if let Some(path) = &o.emit_cert {
        let cert = certificate
            .as_ref()
            .ok_or_else(|| CanvasError::usage("--emit-cert requires --whole-program"))?;
        std::fs::write(path, cert.to_text()).map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
        eprintln!(
            "canvas: wrote certificate to {path} ({}checkable, {} cell(s))",
            if cert.checkable() { "" } else { "not " },
            cert.cells.len()
        );
    }
    Ok(if report.is_inconclusive() {
        ExitCode::from(3)
    } else if report.certified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn check(o: &Opts) -> Result<ExitCode, CanvasError> {
    canvas_telemetry::set_enabled(o.metrics);
    init_log_json(o.log_json.as_deref())?;
    let [cert_path, client_path] = o.operands.as_slice() else {
        return Err(CanvasError::usage("check needs CERT and CLIENT.mj arguments"));
    };
    let cert_text = std::fs::read_to_string(cert_path)
        .map_err(|e| CanvasError::io(Stage::Cli, cert_path, &e))?;
    let source = read_client(client_path)?;
    let spec = load_spec(o.spec())?;
    // Re-deriving the abstraction from the spec is part of the trusted
    // recomputation: the certificate's digests are compared against what
    // *this* binary derives, not against what the emitter claims.
    let certifier = Certifier::from_spec(spec)?;
    // `canvas-check` is the engine-free trusted base and carries no
    // telemetry dependency, so the replay phase is timed here at the call
    // site instead.
    let outcome = {
        let _replay_phase = canvas_telemetry::phase::CHECK_REPLAY.span();
        canvas_check::check_text(&source, certifier.spec(), certifier.derived(), &cert_text)
    };
    let code = match outcome {
        Ok(outcome) => {
            let s = &outcome.stats;
            if outcome.certified {
                outln!(
                    "certificate valid: {client_path} certified conformant with {}",
                    certifier.spec().name()
                );
            } else {
                outln!(
                    "certificate valid: {} potential violation(s) confirmed",
                    outcome.violations.len()
                );
                for v in &outcome.violations {
                    outln!("  {}:{}:{} {} in {}", client_path, v.line, v.col, v.what, v.method);
                }
            }
            eprintln!(
                "canvas: replayed {} cell(s), {} edge(s), {} transfer(s)",
                s.cells, s.edges_replayed, s.transfers
            );
            if outcome.certified {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            canvas_telemetry::events::error("canvas.check", format!("certificate rejected: {e}"));
            ExitCode::from(2)
        }
    };
    if o.metrics {
        out!("{}", canvas_telemetry::snapshot());
    }
    Ok(code)
}

fn serve(o: Opts) -> Result<ExitCode, CanvasError> {
    let mut config = o.serve;
    config.workers = match o.threads {
        Some(0) => return Err(CanvasError::usage("--threads must be at least 1")),
        Some(n) => n,
        None => canvas_suite::worker_count(usize::MAX),
    };
    config.cache_dir = o.cache_dir.map(PathBuf::from);
    init_log_json(o.log_json.as_deref())?;
    if let Some(addr) = o.listen {
        canvas_conformance::incr::net::serve_listen(addr.as_str(), &config)?;
    } else {
        let stdin = std::io::stdin();
        service::serve(stdin.lock(), std::io::stdout(), &config)?;
    }
    canvas_telemetry::events::close_file();
    Ok(ExitCode::SUCCESS)
}

/// `canvas fleet gen`: materializes a seeded synthetic corpus.
fn fleet_gen(o: &Opts) -> Result<ExitCode, CanvasError> {
    use canvas_fleet::{gen, manifest};
    let out = o.out.as_deref().ok_or_else(|| CanvasError::usage("fleet gen needs --out DIR"))?;
    let params = &o.gen;
    if !(0.0..=1.0).contains(&params.violation_rate) {
        return Err(CanvasError::usage("--violation-rate must be in [0, 1]"));
    }
    let programs = match o.threads {
        Some(t) => gen::generate_with_threads(params, t.max(1))?,
        None => gen::generate(params)?,
    };
    let m = manifest::Manifest::from_programs(params, &programs);
    manifest::write_corpus(Path::new(out), &m, &programs, o.force)?;
    outln!("fleet gen: {} programs (seed {}) -> {out}", programs.len(), params.seed);
    outln!("  manifest digest: {}", m.digest);
    Ok(ExitCode::SUCCESS)
}

/// `canvas fleet run`: certifies a corpus on parallel workers (in-process,
/// sharing one certificate store, or against `canvas serve --listen`
/// backends).
fn fleet_run(o: Opts) -> Result<ExitCode, CanvasError> {
    use canvas_fleet::{driver, manifest};
    let corpus = o.corpus.ok_or_else(|| CanvasError::usage("fleet run needs --corpus DIR"))?;
    let (m, items) = manifest::load_corpus(Path::new(&corpus))?;
    let spec_name = o.spec.unwrap_or_else(|| m.spec.clone());
    let spec = load_spec(&spec_name)?;
    let cfg = driver::FleetConfig {
        shards: o.shards.unwrap_or_else(|| canvas_suite::worker_count(usize::MAX)),
        engine: o.engine,
        spec,
        spec_name,
        cache_dir: o.cache_dir.map(PathBuf::from),
        backends: o.backends,
        manifest_digest: Some(m.digest),
    };
    let report = driver::run_fleet(&items, &cfg)?;
    out!("{}", report.render());
    if let Some(path) = o.report {
        std::fs::write(&path, report.to_json().render())
            .map_err(|e| CanvasError::io(Stage::Cli, &path, &e))?;
        eprintln!("canvas: fleet report written to {path}");
    }
    Ok(ExitCode::from(canvas_fleet::exit_code(&report)))
}

/// A `canvas` verb.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verb {
    Engines,
    Specs,
    Derive,
    Certify,
    Check,
    Serve,
    FleetGen,
    FleetRun,
}

impl Verb {
    const ALL: [Verb; 8] = [
        Verb::Engines,
        Verb::Specs,
        Verb::Derive,
        Verb::Certify,
        Verb::Check,
        Verb::Serve,
        Verb::FleetGen,
        Verb::FleetRun,
    ];

    fn name(self) -> &'static str {
        match self {
            Verb::Engines => "engines",
            Verb::Specs => "specs",
            Verb::Derive => "derive",
            Verb::Certify => "certify",
            Verb::Check => "check",
            Verb::Serve => "serve",
            Verb::FleetGen => "fleet gen",
            Verb::FleetRun => "fleet run",
        }
    }

    /// How many file operands it takes.
    fn operands(self) -> usize {
        match self {
            Verb::Certify => 1,
            Verb::Check => 2,
            _ => 0,
        }
    }
}

/// Everything a verb's command line can say.
#[derive(Default)]
struct Opts {
    spec: Option<String>,
    engine: Engine,
    whole_program: bool,
    inline: bool,
    metrics: bool,
    explain: bool,
    trace_out: Option<String>,
    log_json: Option<String>,
    budget: Budget,
    cache_dir: Option<String>,
    emit_cert: Option<String>,
    threads: Option<usize>,
    listen: Option<String>,
    serve: ServeConfig,
    out: Option<String>,
    gen: canvas_fleet::gen::GenParams,
    force: bool,
    corpus: Option<String>,
    shards: Option<usize>,
    report: Option<String>,
    backends: Vec<String>,
    operands: Vec<String>,
}

impl Opts {
    /// The specification name, `cmp` unless `--spec` said otherwise.
    fn spec(&self) -> &str {
        self.spec.as_deref().unwrap_or("cmp")
    }
}

/// The one option parser. An option the verb has no use for is a usage
/// error, like an unknown one.
fn parse(verb: Verb, args: &[String]) -> Result<Opts, CanvasError> {
    use Verb::{Certify, Check, Derive, FleetGen, FleetRun, Serve};
    let mut o = Opts::default();
    if verb == Serve {
        o.cache_dir = Some(".canvas-cache".to_string());
    }
    let takes = |verbs: &[Verb]| verbs.contains(&verb);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut operand = |what: &str| {
            args.next().cloned().ok_or_else(|| CanvasError::usage(format!("{flag} needs {what}")))
        };
        match flag {
            "--spec" if takes(&[Derive, Certify, Check, FleetRun]) => {
                o.spec = Some(operand("a value")?);
            }
            "--engine" if takes(&[Certify, FleetRun]) => {
                let name = operand("a value")?;
                o.engine = Engine::by_name(&name).ok_or_else(|| {
                    CanvasError::usage(format!("unknown engine {name:?} (see `canvas engines`)"))
                })?;
            }
            "--metrics" if takes(&[Derive, Certify, Check]) => o.metrics = true,
            "--log-json" if takes(&[Derive, Certify, Check, Serve]) => {
                o.log_json = Some(operand("a path")?);
            }
            "--whole-program" if verb == Certify => o.whole_program = true,
            "--inline" if verb == Certify => o.inline = true,
            "--explain" if verb == Certify => o.explain = true,
            "--trace-out" if verb == Certify => o.trace_out = Some(operand("a path")?),
            "--emit-cert" if verb == Certify => o.emit_cert = Some(operand("a path")?),
            "--max-steps" if verb == Certify => {
                o.budget = o.budget.with_max_steps(number(flag, &operand("a number")?)?);
            }
            "--deadline-ms" if verb == Certify => {
                o.budget = o.budget.with_deadline_ms(number(flag, &operand("a number")?)?);
            }
            "--cache-dir" if takes(&[Certify, Serve, FleetRun]) => {
                o.cache_dir = Some(operand("a path")?);
            }
            "--threads" if takes(&[Serve, FleetGen]) => {
                o.threads = Some(number(flag, &operand("a number")?)?);
            }
            "--no-cache" if verb == Serve => o.cache_dir = None,
            "--listen" if verb == Serve => o.listen = Some(operand("HOST:PORT")?),
            "--cache-bytes" if verb == Serve => {
                o.serve.cache_bytes = Some(parse_byte_size(&operand("a size")?)?);
            }
            "--queue" if verb == Serve => {
                o.serve.queue_cap = number::<usize>(flag, &operand("a size")?)?.max(1);
            }
            "--tenant-burst" if verb == Serve => {
                o.serve.tenant_burst = number(flag, &operand("a count")?)?;
            }
            "--tenant-rate" if verb == Serve => {
                o.serve.tenant_rate = number(flag, &operand("a rate")?)?;
            }
            "--deadline-ms" if verb == Serve => {
                o.serve.default_deadline_ms = Some(number(flag, &operand("a number")?)?);
            }
            "--write-timeout-ms" if verb == Serve => {
                o.serve.write_timeout_ms = number::<u64>(flag, &operand("a number")?)?.max(1);
            }
            "--max-line-bytes" if verb == Serve => {
                o.serve.max_line_bytes = parse_byte_size(&operand("a size")?)?.max(1) as usize;
            }
            "--out" if verb == FleetGen => o.out = Some(operand("a value")?),
            "--programs" if verb == FleetGen => {
                o.gen.programs = number(flag, &operand("a value")?)?;
            }
            "--seed" if verb == FleetGen => o.gen.seed = number(flag, &operand("a value")?)?,
            "--max-methods" if verb == FleetGen => {
                o.gen.max_methods = number(flag, &operand("a value")?)?;
            }
            "--max-loop-depth" if verb == FleetGen => {
                o.gen.max_loop_depth = number(flag, &operand("a value")?)?;
            }
            "--violation-rate" if verb == FleetGen => {
                o.gen.violation_rate = number(flag, &operand("a value")?)?;
            }
            "--force" if verb == FleetGen => o.force = true,
            "--corpus" if verb == FleetRun => o.corpus = Some(operand("a value")?),
            "--shards" if verb == FleetRun => {
                o.shards = Some(number::<usize>(flag, &operand("a value")?)?.max(1));
            }
            "--report" if verb == FleetRun => o.report = Some(operand("a value")?),
            "--backend" if verb == FleetRun => o.backends.push(operand("a value")?),
            _ if !flag.starts_with("--") && o.operands.len() < verb.operands() => {
                o.operands.push(flag.to_string());
            }
            _ => {
                return Err(CanvasError::usage(format!(
                    "canvas {} does not take {flag:?}",
                    verb.name()
                )))
            }
        }
    }
    Ok(o)
}

/// Parses an option's numeric operand.
fn number<T: std::str::FromStr>(flag: &str, n: &str) -> Result<T, CanvasError> {
    n.parse().map_err(|_| CanvasError::usage(format!("{flag}: not a number: {n:?}")))
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of 1024).
fn parse_byte_size(s: &str) -> Result<u64, CanvasError> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| CanvasError::usage(format!("not a byte size: {s:?} (try 512k, 64m, 1g)")))?;
    n.checked_mul(mult).ok_or_else(|| CanvasError::usage(format!("byte size overflows: {s:?}")))
}

/// Arms the `canvas-log/1` NDJSON file sink and lowers the log threshold
/// to `Info` so routine lifecycle records land in the file; stderr keeps
/// echoing warnings and errors for TTY use.
fn init_log_json(path: Option<&str>) -> Result<(), CanvasError> {
    if let Some(path) = path {
        canvas_telemetry::events::log_to_file(std::path::Path::new(path))
            .map_err(|e| CanvasError::io(Stage::Cli, path, &e))?;
        canvas_telemetry::events::set_min_level(canvas_telemetry::events::Level::Info);
    }
    Ok(())
}
