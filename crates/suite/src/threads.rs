//! Shared worker-thread policy for the parallel drivers.
//!
//! Both the suite/bench driver and the `canvas serve` dispatcher size their
//! worker pools from `CANVAS_EVAL_THREADS`. The variable is parsed **once**
//! per process (so a bad value warns once, not once per table), and every
//! caller clamps the shared answer to its own job count.
//!
//! [`claim_each`] is the one claim loop of the batch drivers (the precision
//! table, the fleet corpus generator and the fleet driver): scoped workers
//! claim job indices from one shared cursor, and the results come back in
//! index order whatever the schedule.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Worker count for a parallel driver with `jobs` independent jobs:
/// `CANVAS_EVAL_THREADS` when set (use `1` to force the sequential order),
/// else the machine's parallelism, clamped to `[1, jobs]`. Unusable values
/// (`0`, non-numeric) fall back to the default with a warning instead of
/// being silently ignored; the warning fires at most once per process.
pub fn worker_count(jobs: usize) -> usize {
    static PARSED: OnceLock<usize> = OnceLock::new();
    let n = *PARSED.get_or_init(|| parse_env(std::env::var("CANVAS_EVAL_THREADS").ok().as_deref()));
    clamp(n, jobs)
}

/// The parse-with-warning policy behind [`worker_count`], testable without
/// touching the process environment.
pub fn worker_count_from(raw: Option<&str>, jobs: usize) -> usize {
    clamp(parse_env(raw), jobs)
}

fn clamp(n: usize, jobs: usize) -> usize {
    n.min(jobs).max(1)
}

fn parse_env(raw: Option<&str>) -> usize {
    let default = || std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match raw {
        None => default(),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                let d = default();
                canvas_telemetry::events::warn(
                    "suite.threads",
                    format!(
                        "CANVAS_EVAL_THREADS={v:?} is not a positive integer; \
                         using the default of {d} worker(s)"
                    ),
                );
                d
            }
        },
    }
}

/// What one [`claim_each`] run left behind.
pub struct Claimed<S, T> {
    /// Every job's result, in index order; `None` for the job a dead worker
    /// had claimed when it died.
    pub results: Vec<Option<T>>,
    /// Every worker's final state, in worker order; `None` for a worker
    /// that died.
    pub workers: Vec<Option<S>>,
}

/// Runs `job(&mut state, index)` for every index in `0..jobs` on
/// `workers.max(1)` scoped threads. Worker `w` starts from `setup(w)` and
/// claims the next unclaimed index with one `fetch_add` until none is
/// left, so every index is claimed exactly once.
///
/// A panic that escapes `setup` or `job` kills only that worker: the index
/// it had claimed keeps no result, the other workers claim the rest. Jobs
/// that must survive their own panics catch them inside `job`.
pub fn claim_each<S, T, Setup, Job>(
    jobs: usize,
    workers: usize,
    setup: Setup,
    job: Job,
) -> Claimed<S, T>
where
    S: Send,
    T: Send,
    Setup: Fn(usize) -> S + Sync,
    Job: Fn(&mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (next, slots, setup, job) = (&next, &slots, &setup, &job);
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut state = setup(w);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = slots.get(i) else { return state };
                            let result = job(&mut state, i);
                            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                        }
                    }))
                    .ok()
                })
            })
            .collect();
        // the worker body catches every panic, so a join never fails
        handles.into_iter().map(|h| h.join().ok().flatten()).collect()
    });
    let results =
        slots.into_iter().map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner)).collect();
    Claimed { results, workers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_each_returns_results_in_index_order_at_any_worker_count() {
        for workers in [0usize, 1, 3, 8] {
            let claimed = claim_each(
                20,
                workers,
                |w| (w, 0usize),
                |(_, ran), i| {
                    *ran += 1;
                    i * i
                },
            );
            let want: Vec<Option<usize>> = (0..20).map(|i| Some(i * i)).collect();
            assert_eq!(claimed.results, want, "{workers} workers");
            assert_eq!(claimed.workers.len(), workers.max(1));
            let ran: usize = claimed.workers.iter().flatten().map(|&(_, ran)| ran).sum();
            assert_eq!(ran, 20, "every index claimed exactly once");
        }
    }

    #[test]
    fn a_panic_kills_only_its_worker_and_empties_only_its_slot() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let claimed = claim_each(
            12,
            3,
            |w| w,
            |_, i| {
                if i == 5 {
                    panic!("job 5 dies");
                }
                i
            },
        );
        std::panic::set_hook(prev);
        for (i, r) in claimed.results.iter().enumerate() {
            assert_eq!(*r, (i != 5).then_some(i), "slot {i}");
        }
        assert_eq!(claimed.workers.iter().filter(|w| w.is_none()).count(), 1);
    }

    #[test]
    fn worker_count_fallbacks() {
        // unset: machine default, clamped to the job count
        assert_eq!(worker_count_from(None, 1), 1);
        assert!(worker_count_from(None, 1000) >= 1);
        // explicit positive values are honoured (clamped to jobs)
        assert_eq!(worker_count_from(Some("3"), 100), 3);
        assert_eq!(worker_count_from(Some(" 2 "), 100), 2);
        assert_eq!(worker_count_from(Some("64"), 4), 4);
        // zero and garbage fall back to the default instead of wedging
        let default = worker_count_from(None, 1000);
        assert_eq!(worker_count_from(Some("0"), 1000), default);
        assert_eq!(worker_count_from(Some("lots"), 1000), default);
        assert_eq!(worker_count_from(Some(""), 1000), default);
        assert_eq!(worker_count_from(Some("-2"), 1000), default);
    }

    #[test]
    fn worker_count_is_parsed_once_and_clamped_per_call() {
        let a = worker_count(1);
        assert_eq!(a, 1, "clamped to a single job");
        assert!(worker_count(1_000) >= a);
    }
}
