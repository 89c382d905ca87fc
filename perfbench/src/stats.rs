//! Samples, guarded percentiles and the metric record every workload
//! reports.

use std::time::{Duration, Instant};

use crate::host;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the run refuses to print a number for it.
pub const MIN_BEYOND: usize = 10;

/// Samples per block of [`Samples::block_percentile`]: the fewest that
/// leave [`MIN_BEYOND`] samples beyond a p99.
pub const BLOCK: usize = 1000;

/// One reported metric: its value, unit and the number of samples behind
/// the value (1 for a single measurement or a deterministic count).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// Raw measurements of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Median: the middle sample, or the mean of the two middle ones.
    /// Used for repeated whole-phase measurements (set-up, persist), where
    /// a handful of samples is all there is.
    ///
    /// # Errors
    ///
    /// When there is no sample.
    pub fn median(&self) -> Result<f64, String> {
        let mut v = self.0.clone();
        if v.is_empty() {
            return Err("median of no samples".to_string());
        }
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Ok(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
    }

    /// Nearest-rank percentile `q` in (0, 1), refused (an error, never a
    /// number) when fewer than [`MIN_BEYOND`] samples lie beyond it.
    ///
    /// # Errors
    ///
    /// When the sample count cannot support the percentile.
    pub fn percentile(&self, q: f64, what: &str) -> Result<f64, String> {
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "refusing to report p{} of {what}: {n} samples leave {beyond} beyond it \
                 (need {MIN_BEYOND})",
                q * 100.0
            ));
        }
        let mut v = self.0.clone();
        let (_, x, _) = v.select_nth_unstable_by(rank - 1, f64::total_cmp);
        Ok(*x)
    }

    /// Percentile `q` within consecutive blocks of [`BLOCK`] samples (in the
    /// order they were taken, the last partial block folded into the one
    /// before), reported as the median over blocks: a spell of machine
    /// noise moves the blocks it covers, not the result.
    ///
    /// # Errors
    ///
    /// As [`Samples::percentile`], for a block that cannot support the
    /// percentile (with fewer than [`BLOCK`] samples there is one block).
    pub fn block_percentile(&self, q: f64, what: &str) -> Result<f64, String> {
        let blocks = (self.0.len() / BLOCK).max(1);
        let mut per_block = Samples::new();
        for b in 0..blocks {
            let end = if b + 1 == blocks { self.0.len() } else { (b + 1) * BLOCK };
            per_block.push(Samples(self.0[b * BLOCK..end].to_vec()).percentile(q, what)?);
        }
        per_block.median()
    }

    /// The block p50 and p99 of these samples as two metrics.
    ///
    /// # Errors
    ///
    /// As [`Samples::block_percentile`].
    pub fn p50_p99(
        &self,
        p50_name: &str,
        p99_name: &str,
        unit: &'static str,
    ) -> Result<[Metric; 2], String> {
        Ok([
            Metric::new(p50_name, self.block_percentile(0.50, p50_name)?, unit, self.len()),
            Metric::new(p99_name, self.block_percentile(0.99, p99_name)?, unit, self.len()),
        ])
    }
}

/// Seconds per throughput window of [`Windows::add`].
const WINDOW_S: f64 = 0.5;

/// Verdict throughput over the timed phase, measured in windows of about
/// half a second and reported as the median window rate, so a spell of
/// machine noise that covers a few windows does not move the result.
///
/// Each window closes by re-measuring the host speed ([`host::factor`]):
/// its rate is normalised by the mean of the factors at its two ends, and
/// [`Windows::ms`] normalises the latency samples taken during the next
/// window by the latest factor.
pub struct Windows {
    start: Instant,
    verdicts: u64,
    rates: Samples,
    factor: f64,
    factors: Samples,
}

impl Windows {
    pub fn new() -> Windows {
        let factor = host::factor();
        let mut factors = Samples::new();
        factors.push(factor);
        Windows { start: Instant::now(), verdicts: 0, rates: Samples::new(), factor, factors }
    }

    /// Counts `n` verdicts; closes the window once it is [`WINDOW_S`] long.
    pub fn add(&mut self, n: u64) {
        self.verdicts += n;
        if self.start.elapsed().as_secs_f64() >= WINDOW_S {
            self.cut();
        }
    }

    /// Counts a whole round of `n` verdicts as one window and closes it.
    pub fn add_round(&mut self, n: u64) {
        self.verdicts += n;
        self.cut();
    }

    fn cut(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let before = self.factor;
        self.factor = host::factor();
        self.factors.push(self.factor);
        if secs > 0.0 {
            self.rates.push(self.verdicts as f64 / (secs * (before + self.factor) / 2.0));
        }
        self.restart();
    }

    /// Starts a new window without closing the current one (time spent
    /// between windows, such as a check after a round, is not counted).
    pub fn restart(&mut self) {
        self.start = Instant::now();
        self.verdicts = 0;
    }

    /// Leaves `d` (work that is not part of the workload's operations, such
    /// as a sampled certificate check) out of the current window.
    pub fn exclude(&mut self, d: Duration) {
        self.start += d;
    }

    /// `d` in host-normalised milliseconds, by the latest factor.
    pub fn ms(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e3 * self.factor
    }

    /// `verdicts_per_s`: the median window rate.
    ///
    /// # Errors
    ///
    /// When no window closed.
    pub fn metric(&self) -> Result<Metric, String> {
        Ok(Metric::new("verdicts_per_s", self.rates.median()?, "1/s", self.rates.len()))
    }

    /// One line on the host speed the run's timings were normalised by.
    pub fn host_note(&self) -> String {
        let median = self.factors.median().unwrap_or(f64::NAN);
        format!(
            "host speed factor median {median:.4} over {} measurements (raw time = normalised \
             time / factor; the reference loop takes {} ms at factor 1)",
            self.factors.len(),
            host::REFERENCE_MS
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = samples(1000);
        assert_eq!(s.percentile(0.5, "x").unwrap(), 500.0);
        assert_eq!(s.percentile(0.99, "x").unwrap(), 990.0);
        assert_eq!(s.median().unwrap(), 500.5);
    }

    #[test]
    fn block_percentiles_take_the_median_block() {
        // blocks with medians 500, 1500 and 2501 (the extra sample folds
        // into the last block)
        let mut s = samples(3000);
        s.push(1e9);
        assert_eq!(s.block_percentile(0.5, "x").unwrap(), 1500.0);
        // a slow spell in one block of three does not move the result
        let mut spell = Samples::new();
        for b in 0..3 {
            for i in 0..1000 {
                spell.push(if b == 1 { 5.0 } else { 1.0 } + i as f64 * 1e-6);
            }
        }
        assert!(spell.block_percentile(0.99, "x").unwrap() < 1.01);
        assert!(samples(999).block_percentile(0.99, "x").is_err());
    }

    #[test]
    fn percentile_guard_refuses_thin_tails() {
        // 999 samples leave 9 beyond the 990th: refused, not printed
        let err = samples(999).percentile(0.99, "latency").unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert!(samples(1000).percentile(0.99, "latency").is_ok());
        assert!(Samples::new().percentile(0.5, "latency").is_err());
        assert!(samples(20).percentile(0.5, "latency").is_ok());
        assert!(samples(19).percentile(0.5, "latency").is_err());
    }
}
