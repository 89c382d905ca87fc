//! Host-normalised time.
//!
//! On the shared 2-core VM the benchmark was tuned on, the speed of
//! allocation-heavy code drifts by up to 1.8× within minutes, in spells
//! that cover whole runs. The cause lies outside the VM (steal time stays
//! near 1% of CPU time, and a memory-streaming or CPU-bound neighbour
//! inside the VM moves the workloads by under 6%), and no in-run median
//! removes it. A
//! fixed reference loop of the benchmark's own code (a
//! `BTreeMap<String, Vec<u32>>` built and dropped), timed between the
//! workload's operations, slows with the workload: over five minutes of
//! `engine_matrix` rounds its time tracked the round rate with correlation
//! 0.98, and the spread of 10-second throughputs fell from 0.42 (raw) to
//! 0.06 (normalised). Every end-to-end timing is therefore reported at the
//! host speed where one reference loop takes [`REFERENCE_MS`]: a raw time is
//! multiplied by `REFERENCE_MS / measured reference time`, with the
//! reference measured at most half a second away. The reference is not
//! program code, so a change to the program cannot move it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The reference loop's time, in ms, at the host speed timings are
/// expressed in (about its fastest on the VM the benchmark was tuned on,
/// so there a normalised time reads close to the raw one in a quiet
/// spell).
pub const REFERENCE_MS: f64 = 0.5;

/// One run of the reference loop: 2,000 formatted keys, each with a small
/// vector, inserted into a `BTreeMap`, then dropped.
fn reference_once() -> Duration {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..2000u32 {
        map.insert(format!("key{}", i.wrapping_mul(2_654_435_761)), vec![i; 8]);
    }
    std::hint::black_box(&map);
    drop(map);
    t0.elapsed()
}

/// The host speed factor: [`REFERENCE_MS`] over the median of three runs
/// of the reference loop. Below 1 on a host slower than the reference
/// speed; a raw time times the factor is the normalised time.
pub fn factor() -> f64 {
    let mut runs = [reference_once(), reference_once(), reference_once()];
    runs.sort_unstable();
    REFERENCE_MS / (runs[1].as_secs_f64() * 1e3).max(1e-6)
}

/// Runs `f` and returns its result with its host-normalised duration in
/// seconds: the raw duration times the mean of the factors measured just
/// before and just after it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = factor();
    let t0 = Instant::now();
    let value = f();
    let raw = t0.elapsed().as_secs_f64();
    (value, raw * (before + factor()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_a_positive_finite_ratio() {
        let f = factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }

    #[test]
    fn timed_returns_the_value_and_a_scaled_duration() {
        let (v, secs) = timed(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(secs.is_finite() && secs > 0.0, "{secs}");
    }
}
