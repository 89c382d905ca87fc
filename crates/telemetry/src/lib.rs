//! Lightweight pipeline telemetry: counters, span timers, and log-scale
//! histograms on plain atomics, with a process-global registry.
//!
//! The crate exists so every stage of the certifier pipeline — WP
//! derivation, boolean-program translation, the dataflow and TVLA engines,
//! the parallel suite driver — can report *where work goes* without taking
//! on any dependency (the workspace builds offline) and without paying for
//! it when nobody is looking:
//!
//! * telemetry is **off by default**; every instrument checks one relaxed
//!   atomic load and returns — hot loops additionally accumulate locally
//!   and publish once at the end, so the disabled cost is a handful of
//!   branches per *analysis*, not per *operation*;
//! * metrics are `static`s declared next to the code they measure
//!   ([`Counter::new`] and [`Timer::new`] are `const`), registered lazily
//!   on first update;
//! * [`snapshot`] returns every registered metric sorted by name, so
//!   renderings are deterministic; [`reset`] zeroes values for per-run
//!   measurement windows;
//! * a [`Scope`] ([`scope`] module) attributes updates to the active
//!   request/cell in addition to the globals, so concurrent serve workers
//!   and suite cells stop smearing their work together;
//! * the [`events`] module is a zero-dep structured event log
//!   (`canvas-log/1` NDJSON) replacing ad-hoc stderr warnings, and
//!   [`phase`] holds the standard pipeline-phase latency timers.
//!
//! # Determinism
//!
//! Counters come in two flavours. *Deterministic* counters
//! ([`Counter::new`]) measure pure work — WP computations, worklist pops,
//! structures created — whose totals depend only on the inputs, not on
//! thread scheduling; CI gates these against a committed baseline.
//! *Non-deterministic* counters ([`Counter::non_deterministic`]) measure
//! scheduling-dependent effects (shared-cache hits, worker counts) and are
//! recorded but never gated, like all timings.
//!
//! # Example
//!
//! ```
//! use canvas_telemetry as telemetry;
//!
//! static POPS: telemetry::Counter = telemetry::Counter::new("example.worklist_pops");
//! static SOLVE: telemetry::Timer = telemetry::Timer::new("example.solve");
//!
//! telemetry::set_enabled(true);
//! {
//!     let _span = SOLVE.span();
//!     POPS.add(3);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("example.worklist_pops"), Some(3));
//! telemetry::set_enabled(false);
//! telemetry::reset();
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

pub mod events;
pub mod phase;
pub mod scope;
pub mod trace;

pub use scope::{Scope, ScopeGuard, ScopeSample, ScopeSnapshot};

/// Number of log₂ buckets ([`Histogram`]); covers the full `u64` range.
const BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off (process-global). Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether metric collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

enum Metric {
    Counter(&'static Counter),
    Timer(&'static Timer),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<Vec<Metric>> {
    static REGISTRY: OnceLock<Mutex<Vec<Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(m: Metric) {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(m);
}

/// A monotonically increasing event counter.
///
/// Declare as a `static` next to the instrumented code; the counter
/// registers itself globally on first [`Counter::add`].
pub struct Counter {
    name: &'static str,
    deterministic: bool,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A *deterministic* counter: its total must depend only on the work
    /// performed, never on thread scheduling (CI gates these).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, deterministic: true, value: AtomicU64::new(0), registered: Once::new() }
    }

    /// A counter whose value may legitimately vary run-to-run (cache hit
    /// ratios under racing threads, worker counts); recorded, never gated.
    pub const fn non_deterministic(name: &'static str) -> Counter {
        Counter { name, deterministic: false, value: AtomicU64::new(0), registered: Once::new() }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered.call_once(|| register(Metric::Counter(self)));
        self.value.fetch_add(n, Ordering::Relaxed);
        scope::record_counter(self.name, n);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A log₂-bucketed histogram of `u64` samples (value `v` lands in bucket
/// `⌈log₂(v+1)⌉`), with exact count/sum/max on the side. Bucketed values
/// give cheap, allocation-free percentile estimates.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: Once,
}

impl Histogram {
    /// A histogram with the given registry name.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Records one sample (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.registered.call_once(|| register(Metric::Histogram(self)));
        self.record_registered(v);
        scope::record_sample(self.name, v);
    }

    /// Records one sample unconditionally, regardless of the global switch
    /// and without registering into the global snapshot — for *instance*
    /// histograms owned by a subsystem (e.g. the serve metrics surface)
    /// that manages its own lifecycle. Not attributed to scopes.
    #[inline]
    pub fn record_value(&self, v: u64) {
        self.record_registered(v);
    }

    fn record_registered(&self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Summarises the histogram's current contents (count/sum/max exact,
    /// quantiles estimated by rank interpolation within the log₂ bucket
    /// where the cumulative count crosses the quantile — exact to within
    /// one bucket width, i.e. a factor of 2).
    pub fn stat(&self) -> HistogramStat {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based rank of the requested order statistic.
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (k, &n) in buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let before = seen;
                seen += n;
                if seen >= target {
                    // Bucket 0 holds exactly {0}; bucket k ≥ 1 covers
                    // [2^(k-1), 2^k - 1]. Interpolate linearly by rank.
                    let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                    let hi = if k == 0 {
                        0
                    } else if k >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << k) - 1
                    };
                    let frac = (target - before) as f64 / n as f64;
                    return lo + ((hi - lo) as f64 * frac) as u64;
                }
            }
            u64::MAX
        };
        HistogramStat {
            name: self.name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An accumulating wall-clock timer with an embedded nanosecond histogram;
/// time regions with the RAII [`Timer::span`] guard or record explicit
/// durations with [`Timer::observe`].
pub struct Timer {
    name: &'static str,
    hist: Histogram,
    registered: Once,
}

impl Timer {
    /// A timer with the given registry name.
    pub const fn new(name: &'static str) -> Timer {
        Timer { name, hist: Histogram::new(name), registered: Once::new() }
    }

    /// The timer's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Starts a span; the elapsed time is recorded when the guard drops.
    /// While telemetry is disabled the guard is inert (no clock read).
    /// While [`trace::tracing`] is on, the span additionally emits paired
    /// begin/end trace events, so every instrumented site shows up in the
    /// Chrome-trace export without further changes.
    #[inline]
    pub fn span(&'static self) -> Span {
        Span {
            timer: self,
            start: if enabled() { Some(Instant::now()) } else { None },
            trace: trace::tracing().then(|| trace::span(self.name, "timer")),
        }
    }

    /// Records an explicitly measured duration.
    #[inline]
    pub fn observe(&'static self, d: Duration) {
        if !enabled() {
            return;
        }
        self.registered.call_once(|| register(Metric::Timer(self)));
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hist.record_registered(ns);
        scope::record_sample(self.name, ns);
    }
}

/// RAII guard for a [`Timer`] span.
pub struct Span {
    timer: &'static Timer,
    start: Option<Instant>,
    trace: Option<trace::TraceSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.timer.observe(start.elapsed());
        }
        self.trace.take();
    }
}

/// Point-in-time value of one counter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterStat {
    /// Registry name.
    pub name: String,
    /// Total count.
    pub value: u64,
    /// Whether the counter is scheduling-independent (baseline-gated).
    pub deterministic: bool,
}

/// Point-in-time summary of one histogram (values) or timer (nanoseconds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramStat {
    /// Registry name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median estimate (rank-interpolated within the log₂ bucket).
    pub p50: u64,
    /// 90th-percentile estimate (rank-interpolated within the log₂ bucket).
    pub p90: u64,
    /// 99th-percentile estimate (rank-interpolated within the log₂ bucket).
    pub p99: u64,
}

/// A deterministic (name-sorted) snapshot of every registered metric.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// All registered counters.
    pub counters: Vec<CounterStat>,
    /// All registered timers (sample unit: nanoseconds).
    pub timers: Vec<HistogramStat>,
    /// All registered value histograms.
    pub histograms: Vec<HistogramStat>,
}

impl Snapshot {
    /// The value of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The counters with `deterministic == true` and a nonzero value.
    pub fn deterministic_counters(&self) -> Vec<&CounterStat> {
        self.counters.iter().filter(|c| c.deterministic && c.value > 0).collect()
    }
}

/// Captures a [`Snapshot`] of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut snap = Snapshot::default();
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => snap.counters.push(CounterStat {
                name: c.name.to_string(),
                value: c.get(),
                deterministic: c.deterministic,
            }),
            Metric::Timer(t) => snap.timers.push(t.hist.stat()),
            Metric::Histogram(h) => snap.histograms.push(h.stat()),
        }
    }
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.timers.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

/// Zeroes every registered metric (registrations persist).
pub fn reset() {
    let reg = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Timer(t) => t.hist.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

fn fmt_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for Snapshot {
    /// The human `--metrics` rendering: nonzero counters, then timers, then
    /// histograms, all name-sorted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== telemetry ==")?;
        let counters: Vec<&CounterStat> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !counters.is_empty() {
            writeln!(f, "counters:")?;
            for c in counters {
                writeln!(
                    f,
                    "  {:<34} {:>12}{}",
                    c.name,
                    c.value,
                    if c.deterministic { "" } else { "  (non-deterministic)" }
                )?;
            }
        }
        let timers: Vec<&HistogramStat> = self.timers.iter().filter(|t| t.count > 0).collect();
        if !timers.is_empty() {
            writeln!(f, "timers:")?;
            for t in timers {
                writeln!(
                    f,
                    "  {:<34} count {:>8}  total {:>9}  p50 ~{:>9}  p90 ~{:>9}  p99 ~{:>9}  max {:>9}",
                    t.name,
                    t.count,
                    fmt_nanos(t.sum),
                    fmt_nanos(t.p50),
                    fmt_nanos(t.p90),
                    fmt_nanos(t.p99),
                    fmt_nanos(t.max)
                )?;
            }
        }
        let hists: Vec<&HistogramStat> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if !hists.is_empty() {
            writeln!(f, "histograms:")?;
            for h in hists {
                writeln!(
                    f,
                    "  {:<34} count {:>8}  sum {:>12}  p50 ~{:>8}  p90 ~{:>8}  p99 ~{:>8}  max {:>8}",
                    h.name, h.count, h.sum, h.p50, h.p90, h.p99, h.max
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Telemetry state is process-global; every unit test of this crate that
    /// touches it (the `scope`, `events` and `trace` tests too) serialises
    /// on this one lock so enable/reset windows don't overlap.
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    static T_DISABLED: Counter = Counter::new("test.disabled_counter");
    static T_CONC: Counter = Counter::new("test.concurrent_counter");
    static T_NONDET: Counter = Counter::non_deterministic("test.nondet_counter");
    static T_TIMER: Timer = Timer::new("test.timer");
    static T_HIST: Histogram = Histogram::new("test.hist");

    #[test]
    fn disabled_mode_is_a_no_op() {
        let _x = exclusive();
        set_enabled(false);
        T_DISABLED.add(7);
        T_TIMER.observe(Duration::from_millis(5));
        T_HIST.record(9);
        {
            let _span = T_TIMER.span();
        }
        // nothing registered, nothing counted
        assert_eq!(T_DISABLED.get(), 0);
        assert_eq!(snapshot().counter("test.disabled_counter"), None);
    }

    #[test]
    fn concurrent_counter_and_span_updates_add_up() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..PER_THREAD {
                        T_CONC.incr();
                        if i % 1000 == 0 {
                            let _span = T_TIMER.span();
                            T_HIST.record(i);
                        }
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counter("test.concurrent_counter"), Some(THREADS as u64 * PER_THREAD));
        let timer = snap.timers.iter().find(|t| t.name == "test.timer").expect("timer registered");
        assert_eq!(timer.count, THREADS as u64 * (PER_THREAD / 1000));
        let hist = snap.histograms.iter().find(|h| h.name == "test.hist").expect("registered");
        assert_eq!(hist.count, timer.count);
        assert_eq!(hist.max, 9000);
        assert!(hist.p50 <= hist.p90 && hist.p90 >= hist.max / 2, "{hist:?}");
        set_enabled(false);
        reset();
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _x = exclusive();
        set_enabled(true);
        T_NONDET.add(3);
        assert_eq!(snapshot().counter("test.nondet_counter"), Some(3));
        reset();
        assert_eq!(snapshot().counter("test.nondet_counter"), Some(0));
        // still usable after reset
        T_NONDET.add(2);
        let snap = snapshot();
        assert_eq!(snap.counter("test.nondet_counter"), Some(2));
        // non-deterministic counters are excluded from the gated view
        assert!(snap.deterministic_counters().iter().all(|c| c.name != "test.nondet_counter"));
        set_enabled(false);
        reset();
    }

    #[test]
    fn snapshot_is_name_sorted_and_display_renders() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        T_CONC.add(1);
        T_NONDET.add(1);
        T_HIST.record(100);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let text = snap.to_string();
        assert!(text.contains("test.concurrent_counter"), "{text}");
        assert!(text.contains("(non-deterministic)"), "{text}");
        set_enabled(false);
        reset();
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        static H: Histogram = Histogram::new("test.quantiles");
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            H.record(v);
        }
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "test.quantiles").unwrap();
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1110);
        assert!(h.p50 >= 2 && h.p50 <= 7, "{h:?}");
        assert!(h.p90 >= 100, "{h:?}");
        set_enabled(false);
        reset();
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let _x = exclusive();
        set_enabled(true);
        reset();
        static H: Histogram = Histogram::new("test.interp");
        for v in 1..=100u64 {
            H.record(v);
        }
        let snap = snapshot();
        let h = snap.histograms.iter().find(|h| h.name == "test.interp").unwrap();
        // Exact percentiles are 50/90/99; the log₂-bucket contract is
        // "within a factor of 2", and the median interpolates exactly here.
        assert_eq!(h.p50, 50, "{h:?}");
        assert!(h.p90 >= 90 && h.p90 <= 127, "{h:?}");
        assert!(h.p99 >= 99 && h.p99 <= 127, "{h:?}");
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max.next_power_of_two());
        set_enabled(false);
        reset();
    }

    #[test]
    fn instance_histograms_record_without_registering() {
        let _x = exclusive();
        set_enabled(false);
        reset();
        let h = Histogram::new("test.instance");
        for v in [10u64, 20, 30] {
            h.record_value(v);
        }
        let s = h.stat();
        assert_eq!((s.count, s.sum, s.max), (3, 60, 30));
        assert!(s.p50 >= 10 && s.p99 <= 31, "{s:?}");
        // never registered: absent from the global snapshot
        assert!(snapshot().histograms.iter().all(|g| g.name != "test.instance"));
    }

    #[test]
    fn nanos_render_units() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_200), "1.2µs");
        assert_eq!(fmt_nanos(3_400_000), "3.4ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }
}
