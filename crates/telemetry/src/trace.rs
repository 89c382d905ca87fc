//! Structured begin/end trace events with Chrome Trace Format export.
//!
//! Complements the aggregate counters/timers in the crate root with *per
//! occurrence* structural observability: every solver phase, per-method
//! certification, and fixpoint completion can emit paired `B`/`E` (and
//! point-in-time `i`) events onto a process-global buffer, which
//! [`export_chrome_json`] serialises as Chrome Trace Format JSON — the
//! `{"traceEvents": [...]}` flavour that `chrome://tracing` and Perfetto
//! load directly.
//!
//! Tracing is **off by default** and independent of the metrics switch:
//! while off, every emit point is a single relaxed atomic load. [`Timer`]
//! spans double as trace spans automatically, so the existing
//! instrumentation sites light up without code changes.
//!
//! [`Timer`]: crate::Timer

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns trace-event collection on or off (process-global). Off by default.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Release);
}

/// Whether trace-event collection is currently enabled.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One trace event (Chrome Trace Format semantics).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Event name (span or instant label).
    pub name: String,
    /// Category, e.g. `solver` or `certify`.
    pub cat: &'static str,
    /// Phase: `B` (begin), `E` (end), or `i` (instant).
    pub ph: char,
    /// Microseconds since the process's first event.
    pub ts_us: u64,
    /// Emitting thread (stable small integer per thread).
    pub tid: u64,
    /// Process-unique emission sequence number; assigned together with
    /// `ts_us` under the buffer lock, so `(ts_us, seq)` totally orders
    /// events even when serve workers emit concurrently.
    pub seq: u64,
    /// Extra `args` key/value pairs.
    pub args: Vec<(&'static str, u64)>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn events() -> &'static Mutex<Vec<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn emit(name: String, cat: &'static str, ph: char, args: Vec<(&'static str, u64)>) {
    static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
    let tid = TID.with(|t| *t);
    // Timestamp and sequence are taken inside the critical section so the
    // buffer order agrees with (ts_us, seq) across concurrent emitters.
    let mut buf = events().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let ts_us = (epoch().elapsed().as_nanos() / 1_000) as u64;
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    buf.push(TraceEvent { name, cat, ph, ts_us, tid, seq, args });
}

/// Emits a begin event (no-op while tracing is off).
#[inline]
pub fn begin(name: &str, cat: &'static str) {
    if tracing() {
        emit(name.to_string(), cat, 'B', Vec::new());
    }
}

/// Emits the matching end event (no-op while tracing is off).
#[inline]
pub fn end(name: &str, cat: &'static str) {
    if tracing() {
        emit(name.to_string(), cat, 'E', Vec::new());
    }
}

/// Emits a point-in-time event with `args` (no-op while tracing is off).
#[inline]
pub fn instant(name: &str, cat: &'static str, args: &[(&'static str, u64)]) {
    if tracing() {
        emit(name.to_string(), cat, 'i', args.to_vec());
    }
}

/// A begin/end pair as an RAII guard; inert while tracing is off.
pub struct TraceSpan {
    name: Option<String>,
    cat: &'static str,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            emit(name, self.cat, 'E', Vec::new());
        }
    }
}

/// Starts a trace span; the end event is emitted when the guard drops.
#[inline]
pub fn span(name: &str, cat: &'static str) -> TraceSpan {
    if tracing() {
        emit(name.to_string(), cat, 'B', Vec::new());
        TraceSpan { name: Some(name.to_string()), cat }
    } else {
        TraceSpan { name: None, cat }
    }
}

/// Drains and returns all buffered events, stably ordered by
/// `(ts_us, seq)` — deterministic for golden tests regardless of how
/// worker-pool threads interleaved their emissions.
pub fn take_events() -> Vec<TraceEvent> {
    let mut evs =
        std::mem::take(&mut *events().lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    evs.sort_by_key(|e| (e.ts_us, e.seq));
    evs
}

/// Discards all buffered events.
pub fn clear() {
    take_events();
}

/// Serialises `events` as Chrome Trace Format JSON (the object form with a
/// `traceEvents` array), loadable by Perfetto and `chrome://tracing`.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (k, e) in events.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            json_string(&e.name),
            json_string(e.cat),
            e.ph,
            e.ts_us,
            e.tid
        );
        if e.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (key, val)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(key), val);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Drains the buffer and serialises it via [`chrome_json`].
pub fn export_chrome_json() -> String {
    chrome_json(&take_events())
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // the crate-wide lock: telemetry state is process-global
    use crate::tests::exclusive;

    #[test]
    fn off_by_default_is_a_no_op() {
        let _x = exclusive();
        set_tracing(false);
        clear();
        begin("x", "t");
        end("x", "t");
        instant("y", "t", &[("n", 1)]);
        drop(span("z", "t"));
        assert!(take_events().is_empty());
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let _x = exclusive();
        set_tracing(true);
        clear();
        {
            let _s = span("solve", "solver");
            instant("fixpoint", "solver", &[("iterations", 7)]);
        }
        set_tracing(false);
        let evs = take_events();
        assert_eq!(evs.len(), 3);
        assert_eq!((evs[0].ph, evs[0].name.as_str()), ('B', "solve"));
        assert_eq!((evs[1].ph, evs[1].name.as_str()), ('i', "fixpoint"));
        assert_eq!((evs[2].ph, evs[2].name.as_str()), ('E', "solve"));
        assert_eq!(evs[1].args, vec![("iterations", 7)]);
        assert!(evs[0].ts_us <= evs[2].ts_us);
        assert_eq!(evs[0].tid, evs[2].tid);
    }

    #[test]
    fn a_span_started_while_on_still_ends_after_tracing_turns_off() {
        let _x = exclusive();
        set_tracing(true);
        clear();
        let s = span("late", "t");
        set_tracing(false);
        drop(s);
        let evs = take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].ph, 'E');
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let evs = vec![
            TraceEvent {
                name: "a \"quoted\"\nname".into(),
                cat: "solver",
                ph: 'B',
                ts_us: 12,
                tid: 3,
                seq: 1,
                args: Vec::new(),
            },
            TraceEvent {
                name: "done".into(),
                cat: "solver",
                ph: 'i',
                ts_us: 15,
                tid: 3,
                seq: 2,
                args: vec![("work", 42)],
            },
        ];
        let json = chrome_json(&evs);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\\\"quoted\\\"\\u000aname"), "{json}");
        assert!(json.contains("\"ph\":\"i\",\"ts\":15,\"pid\":1,\"tid\":3,\"s\":\"t\""), "{json}");
        assert!(json.contains("\"args\":{\"work\":42}"), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
    }

    #[test]
    fn concurrent_emitters_drain_in_stable_ts_seq_order() {
        let _x = exclusive();
        set_tracing(true);
        clear();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        instant("tick", "t", &[("i", i)]);
                    }
                });
            }
        });
        set_tracing(false);
        let evs = take_events();
        assert_eq!(evs.len(), 400);
        for w in evs.windows(2) {
            assert!((w[0].ts_us, w[0].seq) <= (w[1].ts_us, w[1].seq));
            assert_ne!(w[0].seq, w[1].seq, "seq numbers are unique");
        }
    }

    #[test]
    fn empty_export_is_valid() {
        let _x = exclusive();
        clear();
        assert_eq!(export_chrome_json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
