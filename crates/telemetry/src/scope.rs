//! Request-scoped metric attribution.
//!
//! The crate root's counters, timers, and histograms are process-global:
//! under the parallel suite driver or the `canvas serve` worker pool,
//! concurrent cells smear their work units together. A [`Scope`] is a
//! cheap, thread-local metrics context carrying a request/cell label: while
//! a scope is entered on a thread, every counter add and timer/histogram
//! sample on that thread is *additionally* attributed to the scope, and can
//! be read back as a [`ScopeSnapshot`] when the request completes.
//!
//! # Rollup invariant
//!
//! Scopes never intercept updates — the global statics are always updated
//! eagerly and the scope capture is purely additive. Therefore, for any
//! counter, over any measurement window:
//!
//! ```text
//! global total == Σ per-scope totals + updates made outside any scope
//! ```
//!
//! holds *by construction*, including when a scope is dropped mid-panic
//! (a poisoned suite cell): whatever the cell managed to count before the
//! panic is already in both the scope map and the global, and
//! [`Scope::snapshot`] remains readable from the supervising thread.
//!
//! # Cost model
//!
//! While telemetry is disabled every instrument still short-circuits on the
//! single relaxed load of the global switch — scopes add nothing to the
//! disabled path. While enabled, attribution costs one thread-local borrow
//! plus, when a scope is actually active, one mutex-guarded BTree update;
//! hot loops that batch-publish (the solvers accumulate locally and `add`
//! once) amortise this to a handful of updates per analysis.
//!
//! Nested scopes attribute to the *innermost* active scope only; the outer
//! scope resumes when the inner guard drops.
//!
//! # Example
//!
//! ```
//! use canvas_telemetry as telemetry;
//!
//! static WORK: telemetry::Counter = telemetry::Counter::new("scope_doc.work");
//!
//! telemetry::set_enabled(true);
//! let scope = telemetry::Scope::new("request-1");
//! {
//!     let _g = scope.enter();
//!     WORK.add(3);
//! }
//! assert_eq!(scope.snapshot().counter("scope_doc.work"), Some(3));
//! telemetry::set_enabled(false);
//! telemetry::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Accumulated samples for one timer/histogram name inside a scope.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct SampleAcc {
    count: u64,
    sum: u64,
    max: u64,
}

struct ScopeData {
    label: String,
    span_id: u64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    samples: Mutex<BTreeMap<&'static str, SampleAcc>>,
}

/// Panic-tolerant lock: a scope map mutex poisoned by a panicking cell must
/// stay readable so the supervisor can still roll the partial work up.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Innermost-last stack of active scopes on this thread.
    static STACK: RefCell<Vec<Arc<ScopeData>>> = const { RefCell::new(Vec::new()) };
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh span id from the scope sequence (used by
/// [`crate::events::next_span_id`] for scope-less correlation).
pub(crate) fn fresh_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// A request/cell metrics context. Create one per unit of attribution (a
/// serve request, a suite cell), [`enter`](Scope::enter) it on the worker
/// thread, and read the attributed totals back with
/// [`snapshot`](Scope::snapshot) — from any thread, at any time, including
/// after the worker panicked.
pub struct Scope {
    data: Arc<ScopeData>,
}

impl Scope {
    /// A new scope labelled `label`, with a fresh span id for correlating
    /// [`crate::events`] records emitted while the scope is active.
    pub fn new(label: impl Into<String>) -> Scope {
        Scope {
            data: Arc::new(ScopeData {
                label: label.into(),
                span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
                counters: Mutex::new(BTreeMap::new()),
                samples: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The scope's label.
    pub fn label(&self) -> &str {
        &self.data.label
    }

    /// The scope's span id (correlates with the `span` field of
    /// [`crate::events`] records emitted while the scope was active).
    pub fn span_id(&self) -> u64 {
        self.data.span_id
    }

    /// Makes this scope the active attribution target on the current thread
    /// until the returned guard drops. Guards nest: the innermost active
    /// scope receives the attribution.
    pub fn enter(&self) -> ScopeGuard {
        STACK.with(|s| s.borrow_mut().push(Arc::clone(&self.data)));
        ScopeGuard { data: Arc::clone(&self.data), _not_send: PhantomData }
    }

    /// The totals attributed to this scope so far.
    pub fn snapshot(&self) -> ScopeSnapshot {
        let counters = lock(&self.data.counters).iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let samples = lock(&self.data.samples)
            .iter()
            .map(|(k, a)| ScopeSample {
                name: k.to_string(),
                count: a.count,
                sum: a.sum,
                max: a.max,
            })
            .collect();
        ScopeSnapshot {
            label: self.data.label.clone(),
            span_id: self.data.span_id,
            counters,
            samples,
        }
    }
}

/// RAII guard returned by [`Scope::enter`]; pops the scope off the
/// thread-local stack on drop (including during unwinding). Deliberately
/// `!Send`: a scope must be exited on the thread that entered it.
pub struct ScopeGuard {
    data: Arc<ScopeData>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|d| Arc::ptr_eq(d, &self.data)) {
                stack.remove(pos);
            }
        });
    }
}

/// Point-in-time totals attributed to one [`Scope`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScopeSnapshot {
    /// The scope's label.
    pub label: String,
    /// The scope's span id.
    pub span_id: u64,
    /// Counter totals attributed to the scope, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Timer/histogram samples attributed to the scope, name-sorted
    /// (timer sums are nanoseconds).
    pub samples: Vec<ScopeSample>,
}

/// Aggregated samples for one timer/histogram name within a scope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScopeSample {
    /// Timer or histogram registry name.
    pub name: String,
    /// Number of samples attributed to the scope.
    pub count: u64,
    /// Sum of attributed samples (nanoseconds for timers).
    pub sum: u64,
    /// Maximum attributed sample.
    pub max: u64,
}

impl ScopeSnapshot {
    /// The attributed total of a counter by name, if any updates landed.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The attributed samples of a timer/histogram by name, if any landed.
    pub fn sample(&self, name: &str) -> Option<&ScopeSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Sum of attributed nanoseconds for a timer name, or 0.
    pub fn sample_sum(&self, name: &str) -> u64 {
        self.sample(name).map_or(0, |s| s.sum)
    }
}

/// Attributes a counter update to the innermost active scope, if any.
#[inline]
pub(crate) fn record_counter(name: &'static str, n: u64) {
    STACK.with(|s| {
        if let Some(top) = s.borrow().last() {
            *lock(&top.counters).entry(name).or_insert(0) += n;
        }
    });
}

/// Attributes a timer/histogram sample to the innermost active scope.
#[inline]
pub(crate) fn record_sample(name: &'static str, v: u64) {
    STACK.with(|s| {
        if let Some(top) = s.borrow().last() {
            let mut samples = lock(&top.samples);
            let acc = samples.entry(name).or_default();
            acc.count += 1;
            acc.sum += v;
            acc.max = acc.max.max(v);
        }
    });
}

/// The span id of the innermost active scope on this thread (0 = none).
pub fn current_span() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |d| d.span_id))
}

/// The span id of the next-outer active scope on this thread (0 = none).
pub fn current_parent() -> u64 {
    STACK.with(|s| {
        let stack = s.borrow();
        if stack.len() >= 2 {
            stack[stack.len() - 2].span_id
        } else {
            0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, Counter, Histogram, Timer};
    use std::time::Duration;

    // the crate-wide lock: telemetry state is process-global
    use crate::tests::exclusive;

    static S_WORK: Counter = Counter::new("scope_test.work");
    static S_TIME: Timer = Timer::new("scope_test.time");
    static S_HIST: Histogram = Histogram::new("scope_test.hist");

    #[test]
    fn scope_attributes_counters_and_samples() {
        let _x = exclusive();
        set_enabled(true);
        let scope = Scope::new("req-1");
        {
            let _g = scope.enter();
            S_WORK.add(5);
            S_TIME.observe(Duration::from_nanos(1500));
            S_HIST.record(42);
        }
        S_WORK.add(9); // outside the scope: global only
        let snap = scope.snapshot();
        assert_eq!(snap.counter("scope_test.work"), Some(5));
        assert_eq!(snap.sample("scope_test.time").map(|s| (s.count, s.sum)), Some((1, 1500)));
        assert_eq!(snap.sample("scope_test.hist").map(|s| s.max), Some(42));
        assert_eq!(snap.sample_sum("scope_test.absent"), 0);
        set_enabled(false);
        crate::reset();
    }

    #[test]
    fn nested_scopes_attribute_to_the_innermost() {
        let _x = exclusive();
        set_enabled(true);
        let outer = Scope::new("outer");
        let inner = Scope::new("inner");
        {
            let _og = outer.enter();
            S_WORK.add(1);
            {
                let _ig = inner.enter();
                S_WORK.add(10);
                assert_eq!(current_span(), inner.span_id());
                assert_eq!(current_parent(), outer.span_id());
            }
            S_WORK.add(2);
        }
        assert_eq!(current_span(), 0);
        assert_eq!(outer.snapshot().counter("scope_test.work"), Some(3));
        assert_eq!(inner.snapshot().counter("scope_test.work"), Some(10));
        set_enabled(false);
        crate::reset();
    }

    #[test]
    fn disabled_telemetry_attributes_nothing() {
        let _x = exclusive();
        set_enabled(false);
        let scope = Scope::new("dark");
        let _g = scope.enter();
        S_WORK.add(100);
        assert_eq!(scope.snapshot().counter("scope_test.work"), None);
    }

    #[test]
    fn a_panicking_cell_still_rolls_up() {
        let _x = exclusive();
        set_enabled(true);
        let scope = Scope::new("poisoned");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = scope.enter();
            S_WORK.add(7);
            panic!("cell dies");
        }));
        assert!(r.is_err());
        assert_eq!(current_span(), 0, "guard popped during unwind");
        assert_eq!(scope.snapshot().counter("scope_test.work"), Some(7));
        set_enabled(false);
        crate::reset();
    }
}
