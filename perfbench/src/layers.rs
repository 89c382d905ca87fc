//! The metric names the benchmark reports, with unit and direction. They
//! must match `BENCHMARK.json` (a test compares them).

/// Engine abbreviations, in registry order.
pub const ENGINES: [&str; 8] =
    ["fds", "rel", "inter", "tvla-r", "tvla-i", "ssg-r", "ssg-i", "alloc"];

/// End-to-end metrics: `(name, unit, better)`. Every untraced run reports
/// all of them.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_p50_ms", "ms", "lower"),
    ("verdict_p99_ms", "ms", "lower"),
    ("check_p50_ms", "ms", "lower"),
    ("check_p99_ms", "ms", "lower"),
    ("cert_bytes_per_verdict", "bytes", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("decided_share", "ratio", "higher"),
];

/// Per-layer metrics that do not depend on the engine list.
const FIXED_LAYERS: [(&str, &str, &str); 36] = [
    ("minijava.parse_us", "us", "lower"),
    ("wp.derive_ms", "ms", "lower"),
    ("fleet.load_corpus_ms", "ms", "lower"),
    ("fleet.load_corpus_growth", "ratio", "lower"),
    ("fleet.load_share_of_setup", "ratio", "lower"),
    ("abstraction.lower_us", "us", "lower"),
    ("dataflow.solve_us", "us", "lower"),
    ("core.certify_us", "us", "lower"),
    ("core.residual_us", "us", "lower"),
    ("abstraction.cert_emit_us", "us", "lower"),
    ("abstraction.cert_bytes", "bytes", "lower"),
    ("check.cert_parse_us", "us", "lower"),
    ("check.replay_us", "us", "lower"),
    ("check.share_of_certify", "ratio", "lower"),
    ("incr.fingerprint_us", "us", "lower"),
    ("incr.certify_cached_us", "us", "lower"),
    ("incr.hits", "count", "higher"),
    ("incr.misses", "count", "lower"),
    ("incr.delta_seeded", "count", "higher"),
    ("incr.hit_ratio", "ratio", "higher"),
    ("incr.persist_ms", "ms", "lower"),
    ("incr.open_ms", "ms", "lower"),
    ("incr.store_bytes", "bytes", "lower"),
    ("serve.rtt_p50_us", "us", "lower"),
    ("serve.rtt_p99_us", "us", "lower"),
    ("serve.server_us", "us", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("serve.request_bytes", "bytes", "lower"),
    ("serve.response_bytes", "bytes", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.solve_us", "us", "lower"),
    ("engine.rel.exhausted", "count", "lower"),
    ("engine_matrix.wasted_share", "ratio", "lower"),
    ("dataflow.work_units", "count", "lower"),
    ("abstraction.predicates", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Every per-layer metric: `(name, unit, better)`. Every traced run
/// reports all of them; a layer the workload does not cross reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &str, &str)> =
        FIXED_LAYERS.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    for e in ENGINES {
        out.push((format!("engine.{e}.us_per_cell"), "us", "lower"));
        out.push((format!("engine.{e}.work_units"), "count", "lower"));
    }
    out
}
