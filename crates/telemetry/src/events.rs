//! Zero-dependency structured event log (`canvas-log/1`).
//!
//! The frontier used to report exceptional conditions with ad-hoc
//! `eprintln!` warnings — fine for a terminal, useless for a daemon. This
//! module gives every crate a leveled, structured log channel:
//!
//! * records carry a monotonic nanosecond timestamp (since the process's
//!   first event), a process-unique sequence number, a level, a `target`
//!   (the emitting subsystem), a message, optional structured fields, and
//!   the span/parent-span ids of the [`crate::scope`] active on the
//!   emitting thread — so a serve worker's warnings correlate with the
//!   request that caused them;
//! * records land in a bounded in-memory ring (drop-oldest, with a dropped
//!   counter) and, when [`log_to_file`] is armed, are appended as NDJSON —
//!   one `canvas-log/1` object per line — which is what the `--log-json
//!   PATH` CLI flags wire up;
//! * `warn`/`error` records are *also* rendered to stderr in the
//!   traditional `warning: ...` / `error: ...` form unless
//!   [`set_stderr_echo`]`(false)`, so TTY behaviour is unchanged;
//! * sequence numbers and timestamps are assigned under the sink lock, so
//!   the NDJSON file and the drained ring are totally ordered by
//!   `(ts_ns, seq)` even when serve workers log concurrently.
//!
//! Filtering is by level: [`Level::Warn`] and up are logged by default;
//! daemons and `--log-json` users raise it to [`Level::Info`] or
//! [`Level::Debug`] via [`set_min_level`]. The log is independent of the
//! metrics and tracing switches — a disabled-telemetry process still
//! reports corruption warnings.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Schema tag written as the `v` field of every NDJSON record.
pub const SCHEMA: &str = "canvas-log/1";

/// Ring-buffer capacity; older records are dropped (and counted) past this.
pub const RING_CAPACITY: usize = 4096;

/// Event severity. Ordering: `Error < Warn < Info < Debug` (rank order —
/// a level is logged when its rank is ≤ the configured minimum level's).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// The operation failed; the process degraded or refused.
    Error,
    /// Something unexpected was tolerated (corruption skipped, fallback).
    Warn,
    /// Request-level lifecycle records.
    Info,
    /// High-volume diagnostic detail.
    Debug,
}

impl Level {
    /// The lowercase schema name (`"error"`, `"warn"`, `"info"`, `"debug"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// The traditional stderr prefix (`error:` / `warning:` …).
    fn stderr_prefix(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warning",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a schema name back into a level.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn rank(self) -> u8 {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
        }
    }

    fn from_rank(r: u8) -> Level {
        match r {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// A structured field value (the log carries no floats by design — encode
/// ratios as basis points or scaled integers).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A string field.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One structured log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Process-unique sequence number (assigned under the sink lock).
    pub seq: u64,
    /// Nanoseconds since the process's first logged event.
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem, e.g. `incr.store` or `suite.threads`.
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Span id of the scope active on the emitting thread (0 = none).
    pub span: u64,
    /// Span id of the enclosing scope (0 = none).
    pub parent: u64,
    /// Structured fields.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Serialises the record as one `canvas-log/1` NDJSON line (no trailing
    /// newline). `span`/`parent` are omitted when 0, `fields` when empty.
    pub fn ndjson(&self) -> String {
        let mut out = String::with_capacity(96 + self.message.len());
        let _ = write!(
            out,
            "{{\"v\":{},\"seq\":{},\"ts_ns\":{},\"level\":{},\"target\":{},\"msg\":{}",
            crate::trace::json_string(SCHEMA),
            self.seq,
            self.ts_ns,
            crate::trace::json_string(self.level.name()),
            crate::trace::json_string(self.target),
            crate::trace::json_string(&self.message),
        );
        if self.span != 0 {
            let _ = write!(out, ",\"span\":{}", self.span);
        }
        if self.parent != 0 {
            let _ = write!(out, ",\"parent\":{}", self.parent);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (k, (key, val)) in self.fields.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:", crate::trace::json_string(key));
                match val {
                    FieldValue::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    FieldValue::Str(s) => out.push_str(&crate::trace::json_string(s)),
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

struct Sink {
    ring: VecDeque<Event>,
    dropped: u64,
    next_seq: u64,
    file: Option<BufWriter<File>>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink { ring: VecDeque::with_capacity(64), dropped: 0, next_seq: 1, file: None })
    })
}

/// Panic-tolerant lock: logging must keep working after a worker panicked
/// while holding the sink (the records are plain data, never half-written).
fn lock_sink() -> MutexGuard<'static, Sink> {
    sink().lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static MIN_LEVEL: AtomicU8 = AtomicU8::new(1); // Warn
static STDERR_ECHO: AtomicBool = AtomicBool::new(true);

/// Sets the minimum level that is logged (default [`Level::Warn`]).
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level.rank(), Ordering::Release);
}

/// The current minimum logged level.
pub fn min_level() -> Level {
    Level::from_rank(MIN_LEVEL.load(Ordering::Relaxed))
}

/// Whether a record at `level` would currently be logged.
#[inline]
pub fn would_log(level: Level) -> bool {
    level.rank() <= MIN_LEVEL.load(Ordering::Relaxed)
}

/// Enables (default) or disables mirroring warn/error records to stderr in
/// the traditional `warning: ...` / `error: ...` rendering.
pub fn set_stderr_echo(on: bool) {
    STDERR_ECHO.store(on, Ordering::Release);
}

/// Arms the NDJSON file sink: every subsequent record is appended to
/// `path` as one `canvas-log/1` line (the file is truncated first).
pub fn log_to_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    lock_sink().file = Some(BufWriter::new(file));
    Ok(())
}

/// Disarms the file sink, flushing buffered records.
pub fn close_file() {
    if let Some(mut f) = lock_sink().file.take() {
        let _ = f.flush();
    }
}

/// Cumulative count of records dropped from the ring buffer.
pub fn dropped() -> u64 {
    lock_sink().dropped
}

/// Drains the ring buffer, oldest first (totally ordered by `(ts_ns, seq)`).
pub fn take_events() -> Vec<Event> {
    let mut s = lock_sink();
    let mut out: Vec<Event> = s.ring.drain(..).collect();
    out.sort_by_key(|e| (e.ts_ns, e.seq));
    out
}

/// Logs a record. Prefer the level helpers ([`warn`], [`info_with`], …).
pub fn log(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !would_log(level) {
        return;
    }
    let message = message.into();
    let span = crate::scope::current_span();
    let parent = crate::scope::current_parent();
    // Timestamp and sequence are assigned inside the critical section so the
    // file and ring orders agree and are (ts_ns, seq)-monotone.
    let mut s = lock_sink();
    let ts_ns = epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let seq = s.next_seq;
    s.next_seq += 1;
    let ev = Event { seq, ts_ns, level, target, message, span, parent, fields };
    if let Some(f) = s.file.as_mut() {
        let ok = writeln!(f, "{}", ev.ndjson()).and_then(|_| f.flush());
        if ok.is_err() {
            // A dead sink (disk full, closed fd) must not take the process
            // down or spam: drop it and fall back to the ring + stderr.
            s.file = None;
            eprintln!("warning: structured log sink failed; disabling --log-json output");
        }
    }
    if s.ring.len() >= RING_CAPACITY {
        s.ring.pop_front();
        s.dropped += 1;
    }
    let echo = (level <= Level::Warn && STDERR_ECHO.load(Ordering::Relaxed))
        .then(|| format!("{}: {}", level.stderr_prefix(), ev.message));
    s.ring.push_back(ev);
    drop(s);
    if let Some(line) = echo {
        eprintln!("{line}");
    }
}

/// Logs an error-level record.
pub fn error(target: &'static str, message: impl Into<String>) {
    log(Level::Error, target, message, Vec::new());
}

/// Logs a warn-level record (echoed to stderr as `warning: ...`).
pub fn warn(target: &'static str, message: impl Into<String>) {
    log(Level::Warn, target, message, Vec::new());
}

/// Logs a warn-level record with structured fields.
pub fn warn_with(
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    log(Level::Warn, target, message, fields);
}

/// Logs an info-level record (ring/file only; never echoed to stderr).
pub fn info(target: &'static str, message: impl Into<String>) {
    log(Level::Info, target, message, Vec::new());
}

/// Logs an info-level record with structured fields.
pub fn info_with(
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    log(Level::Info, target, message, fields);
}

/// Logs a debug-level record with structured fields.
pub fn debug_with(
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    log(Level::Debug, target, message, fields);
}

/// Allocates a fresh span id from the same sequence [`crate::scope`] uses,
/// for callers that want to correlate events without a metrics scope.
pub fn next_span_id() -> u64 {
    crate::scope::fresh_span_id()
}

#[cfg(test)]
mod tests {
    use super::*;

    // the crate-wide lock: telemetry state is process-global
    use crate::tests::exclusive;

    #[test]
    fn levels_filter_and_parse() {
        assert!(Level::Error < Level::Warn && Level::Warn < Level::Info);
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
    }

    #[test]
    fn records_filter_by_min_level_and_drain_ordered() {
        let _x = exclusive();
        set_stderr_echo(false);
        take_events();
        set_min_level(Level::Warn);
        info("test.events", "filtered out");
        warn("test.events", "kept");
        set_min_level(Level::Info);
        info_with("test.events", "kept too", vec![("n", FieldValue::U64(7))]);
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].message, "kept");
        assert_eq!(evs[1].message, "kept too");
        assert!(evs[0].seq < evs[1].seq);
        assert!(evs[0].ts_ns <= evs[1].ts_ns);
        set_min_level(Level::Warn);
        set_stderr_echo(true);
    }

    #[test]
    fn ndjson_shape_omits_empty_parts_and_escapes() {
        let ev = Event {
            seq: 3,
            ts_ns: 1234,
            level: Level::Warn,
            target: "incr.store",
            message: "bad \"line\"".to_string(),
            span: 0,
            parent: 0,
            fields: Vec::new(),
        };
        assert_eq!(
            ev.ndjson(),
            "{\"v\":\"canvas-log/1\",\"seq\":3,\"ts_ns\":1234,\"level\":\"warn\",\
             \"target\":\"incr.store\",\"msg\":\"bad \\\"line\\\"\"}"
        );
        let ev2 = Event {
            span: 9,
            parent: 4,
            fields: vec![("hits", FieldValue::U64(2)), ("path", FieldValue::Str("a/b".into()))],
            ..ev
        };
        let line = ev2.ndjson();
        assert!(line.contains("\"span\":9,\"parent\":4"), "{line}");
        assert!(line.contains("\"fields\":{\"hits\":2,\"path\":\"a/b\"}"), "{line}");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _x = exclusive();
        set_stderr_echo(false);
        take_events();
        set_min_level(Level::Debug);
        let dropped_before = dropped();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            debug_with("test.events", format!("e{i}"), vec![("i", FieldValue::U64(i))]);
        }
        assert_eq!(dropped() - dropped_before, 10);
        let evs = take_events();
        assert_eq!(evs.len(), RING_CAPACITY);
        assert_eq!(evs[0].message, "e10");
        set_min_level(Level::Warn);
        set_stderr_echo(true);
    }

    #[test]
    fn concurrent_emitters_drain_totally_ordered() {
        let _x = exclusive();
        set_stderr_echo(false);
        take_events();
        set_min_level(Level::Info);
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..50u64 {
                        info_with(
                            "test.events",
                            "tick",
                            vec![("t", FieldValue::U64(t)), ("i", FieldValue::U64(i))],
                        );
                    }
                });
            }
        });
        let evs = take_events();
        assert_eq!(evs.len(), 200);
        for w in evs.windows(2) {
            assert!((w[0].ts_ns, w[0].seq) <= (w[1].ts_ns, w[1].seq));
            assert!(w[0].seq != w[1].seq);
        }
        set_min_level(Level::Warn);
        set_stderr_echo(true);
    }

    #[test]
    fn scope_span_ids_attach_to_records() {
        let _x = exclusive();
        set_stderr_echo(false);
        take_events();
        let scope = crate::Scope::new("req");
        {
            let _g = scope.enter();
            warn("test.events", "inside");
        }
        warn("test.events", "outside");
        let evs = take_events();
        assert_eq!(evs[0].span, scope.span_id());
        assert_eq!(evs[1].span, 0);
        set_stderr_echo(true);
    }
}
