//! Shared measurement plumbing: the run context, the timed round loop,
//! set-up timing, peak memory, and the result every run prints.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much work one round does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The recorded benchmark.
    Full,
    /// A seconds-long version of every workload for tests.
    Smoke,
}

/// What a workload run is given.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measured round loop.
    pub seconds: f64,
    /// Work per round.
    pub scale: Scale,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, evaluations and reductions, audits).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness gates that failed, one message each.
    pub gate_failures: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }
}

/// What a round leaves behind once settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Units of work completed.
    pub items: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Hash of the round's results, for comparing repetitions.
    pub digest: u64,
}

/// One round of the timed loop.
#[derive(Debug)]
pub struct Timed {
    /// What the round produced.
    pub summary: Summary,
    /// Wall time of its work.
    pub secs: f64,
    /// Wall time of the set-up redone before it.
    pub setup_secs: f64,
}

/// Runs the timed loop over `inputs` distinct round inputs: round `r`
/// redoes the set-up of input `r % inputs`, then its work. It stops once
/// `seconds` have elapsed and every input has run at least twice, or at
/// the first error. `setup` and `work` are timed apart; the work's output
/// then goes through `settle` (checks, and reduction to a summary, so a
/// long run does not keep every round's output alive).
pub fn rounds<R>(
    seconds: f64,
    inputs: usize,
    mut setup: impl FnMut(usize) -> Result<(), String>,
    mut work: impl FnMut(usize) -> Result<R, String>,
    mut settle: impl FnMut(usize, R) -> Summary,
) -> Result<Vec<Timed>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        setup(out.len() % inputs)?;
        let setup_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = work(out.len())?;
        let secs = t.elapsed().as_secs_f64();
        out.push(Timed {
            summary: settle(out.len(), r),
            secs,
            setup_secs,
        });
        if out.len() >= 2 * inputs && start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// Adds the rounds' operation counts to `out`, gates on every repetition
/// of an input reproducing its first round, and pushes the end-to-end
/// metrics every workload reports.
///
/// `items_per_s` is the median over inputs of each input's fastest
/// repetition. Interference from other tenants of the machine only ever
/// slows a round down, so the fastest repetition is the closest reading
/// of the program's own speed; a change that slows an input slows all of
/// its repetitions. `setup_s` is the median over inputs of each input's
/// fastest set-up; set-ups are spread over the run like the work, so a
/// slow stretch of the machine cannot take all of them. `peak_rss_mb` is
/// the process's peak resident set.
pub fn report(out: &mut Outcome, rounds: &[Timed], inputs: usize) {
    let mut best = vec![0.0f64; inputs];
    let mut setup = vec![f64::INFINITY; inputs];
    for (i, r) in rounds.iter().enumerate() {
        let s = &r.summary;
        out.attempted += s.attempted;
        out.failed += s.failed;
        let rate = s.items as f64 / r.secs.max(1e-9);
        best[i % inputs] = best[i % inputs].max(rate);
        setup[i % inputs] = setup[i % inputs].min(r.setup_secs);
        eprintln!(
            "round {i}: set-up {:.6} s, {} items in {:.3} s ({rate:.1}/s)",
            r.setup_secs, s.items, r.secs
        );
        let first = &rounds[i % inputs].summary;
        out.gate(s.digest == first.digest, || {
            format!(
                "round {i} did not reproduce round {} on the same input",
                i % inputs
            )
        });
    }
    out.metric("items_per_s", median(best), "1/s");
    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", status_kb("VmHWM:") as f64 / 1024.0, "MB");
}

/// The median of `xs` (the mean of the middle pair for even lengths).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (0 when unavailable).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Directory for files a run writes (checkpoints, traces), relative to the
/// working directory.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// A fresh, empty directory under [`run_dir`], unique within this process.
pub fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = run_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn summary(items: usize) -> Summary {
        Summary {
            items: items as u64,
            attempted: 1,
            failed: 0,
            digest: items as u64 % 3,
        }
    }

    fn no_setup(_: usize) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn rounds_run_every_input_twice() {
        let mut setups = Vec::new();
        let setup = |input| {
            setups.push(input);
            Ok(())
        };
        let out = rounds(0.0, 3, setup, Ok, |_, r| summary(r)).unwrap();
        let items: Vec<u64> = out.iter().map(|r| r.summary.items).collect();
        assert_eq!(items, [0, 1, 2, 3, 4, 5]);
        assert_eq!(setups, [0, 1, 2, 0, 1, 2], "each round's input is set up");
    }

    #[test]
    fn rounds_stop_at_the_first_error() {
        let work = |r| {
            if r < 2 {
                Ok(r)
            } else {
                Err("boom".to_string())
            }
        };
        let err = rounds(100.0, 1, no_setup, work, |_, r| summary(r));
        assert_eq!(err.unwrap_err(), "boom");
        let setup = |_| Err("no set-up".to_string());
        let err = rounds(100.0, 1, setup, Ok, |_, r| summary(r));
        assert_eq!(err.unwrap_err(), "no set-up");
    }

    #[test]
    fn report_takes_each_inputs_fastest_repetition() {
        let timed = |items, digest, setup_secs| Timed {
            summary: Summary {
                digest,
                ..summary(items)
            },
            secs: 1.0,
            setup_secs,
        };
        // Input 0 runs at 10/s then 20/s, input 1 at 40/s then 30/s; their
        // set-ups take 3 s then 2 s, and 5 s then 6 s.
        let rounds = [
            timed(10, 7, 3.0),
            timed(40, 8, 5.0),
            timed(20, 7, 2.0),
            timed(30, 8, 6.0),
        ];
        let mut out = Outcome::default();
        report(&mut out, &rounds, 2);
        assert!(out.gate_failures.is_empty());
        assert_eq!(out.attempted, 4);
        assert_eq!(out.metrics[0].value, 30.0, "median of 20 and 40");
        assert_eq!(out.metrics[1].value, 3.5, "median of 2 and 5");

        let mut out = Outcome::default();
        report(&mut out, &[timed(10, 7, 1.0), timed(10, 9, 1.0)], 1);
        assert_eq!(out.gate_failures.len(), 1, "a repetition that differs");
    }

    #[test]
    fn peak_resident_set_is_readable() {
        assert!(status_kb("VmHWM:") > 0);
    }
}
