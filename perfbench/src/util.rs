//! What every workload shares: arguments, the seeded generator, the
//! scratch directory, the run stamp and the outcome record.

use std::path::{Path, PathBuf};

use canvas_fleet::gen::{generate_with_threads, GenParams, GeneratedProgram};
use canvas_fleet::manifest::Manifest;
use canvas_incr::fingerprint::Hasher64;

use crate::host;
use crate::stats::{Metric, Samples, Windows};
use crate::trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["corpus_cold", "edit_replay", "serve_tcp", "engine_matrix"];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// On an unknown flag, a missing or malformed value, or an unknown
    /// workload.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// SplitMix64: the benchmark's own seeded generator, so its inputs depend
/// on `--seed` and on nothing else.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut h = Hasher64::new();
        h.write_u64(seed);
        h.write_u64(stream);
        Rng(h.finish().0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.next_u64() % 1000 < per_mille
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// The seeded fleet corpus with its manifest.
///
/// # Errors
///
/// When the generator fails its own frontend self-check.
pub fn fleet_corpus(
    seed: u64,
    programs: usize,
) -> Result<(Manifest, Vec<GeneratedProgram>), String> {
    let params = GenParams { programs, seed, ..GenParams::default() };
    let corpus = generate_with_threads(&params, 2).map_err(|e| e.to_string())?;
    Ok((Manifest::from_programs(&params, &corpus), corpus))
}

/// FNV-1a of one string (certificate texts, sources).
pub fn fp_str(s: &str) -> u64 {
    let mut h = Hasher64::new();
    h.write_str(s);
    h.finish().0
}

/// Sorted violation lines, the form ground truth is compared in.
pub fn sorted(mut lines: Vec<u32>) -> Vec<u32> {
    lines.sort_unstable();
    lines
}

/// A scratch directory inside the working directory, removed when the run
/// ends (also on an early error return).
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench-work/<tag>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too once no other run uses it
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// The process's memory high-water mark (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs a workload's set-up `n` times, back to back, and returns the
/// host-normalised time each took ([`host::timed`]), in seconds, with what
/// the last one set up. The state of one repetition is dropped before the
/// next is timed.
///
/// # Errors
///
/// The first failing set-up's error.
pub fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Samples, T), String> {
    let (mut times, mut last) = (Samples::new(), None);
    for _ in 0..n {
        drop(last.take());
        let (ready, secs) = host::timed(&mut setup);
        times.push(secs);
        last = Some(ready?);
    }
    Ok((times, last.ok_or("no set-up ran")?))
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations started in the timed phase.
    pub attempted: u64,
    /// Of those, operations without a verdict: errors, exhausted budgets,
    /// inconclusive verdicts and sheds.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Values that must repeat exactly for the same seed.
    pub deterministic: Vec<(&'static str, String)>,
    /// One-line findings of the traced run's sanity checks.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    pub fn det(&mut self, key: &'static str, value: impl ToString) {
        self.deterministic.push((key, value.to_string()));
    }

    /// The end-to-end metrics of an untraced run but `peak_rss_mb`, which
    /// each workload reads where its own state is complete: verdict and
    /// check latency percentiles, the median set-up time, the median window
    /// throughput (all three host-normalised by the workload), the mean
    /// certificate size over `cert_verdicts` verdicts and `decided_share`
    /// (the share of attempted operations that ended in a verdict).
    ///
    /// # Errors
    ///
    /// A refused percentile, or no set-up or window.
    pub fn end_to_end(
        &mut self,
        verdict_ms: &Samples,
        check_ms: &Samples,
        setup_s: &Samples,
        windows: &Windows,
        cert_bytes_per_verdict: f64,
        cert_verdicts: usize,
    ) -> Result<(), String> {
        let [p50, p99] = verdict_ms.p50_p99("verdict_p50_ms", "verdict_p99_ms", "ms")?;
        let [c50, c99] = check_ms.p50_p99("check_p50_ms", "check_p99_ms", "ms")?;
        self.metrics.extend([p50, p99, c50, c99]);
        self.metric("setup_s", setup_s.median()?, "s", setup_s.len());
        self.metrics.push(windows.metric()?);
        self.metric("cert_bytes_per_verdict", cert_bytes_per_verdict, "bytes", cert_verdicts);
        let decided = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("decided_share", decided, "ratio", self.attempted as usize);
        self.notes.push(windows.host_note());
        Ok(())
    }
}

/// The run stamp: which code ran where, with which inputs.
pub fn stamp(args: &Args) -> String {
    // only this directory's own repository names the code that ran
    let rev = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "none".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":\"{rev}\",\"nproc\":{nproc},\"seed\":{},\"workload\":\"{}\",\
         \"trace\":{},\"seconds\":{}}}",
        args.seed, args.workload, args.trace, args.seconds
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repeats_and_keeps_the_last() {
        let mut k = 0;
        let (times, last) = repeat_setup(3, || {
            k += 1;
            Ok(k)
        })
        .expect("set-up");
        assert_eq!((times.len(), last), (3, 3));
        assert!(repeat_setup(2, || Err::<(), _>("broken".to_string())).is_err());
        assert!(repeat_setup(0, || Ok(())).is_err());
    }
}
