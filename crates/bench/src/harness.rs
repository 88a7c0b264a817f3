//! A small, dependency-free micro-benchmark harness (criterion
//! replacement so the workspace builds offline).
//!
//! Usage mirrors criterion's group API:
//!
//! ```no_run
//! let mut g = compdiff_bench::harness::BenchGroup::new("vm");
//! g.bench("arith_loop", || 2 + 2);
//! g.finish();
//! ```
//!
//! Each benchmark auto-calibrates a batch size so one sample takes a few
//! milliseconds, collects a fixed number of samples, and reports the
//! median, minimum, and maximum per-iteration time. Results are also
//! returned so harness-level benches (e.g. the campaign throughput bench)
//! can assert speedup ratios.

use compdiff::Json;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/name`).
    pub name: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
    /// Total iterations measured.
    pub iters: u64,
}

/// Per-sample throughput annotation, printed next to the timing.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A named collection of benchmarks.
pub struct BenchGroup {
    name: String,
    samples: usize,
    target_sample_time: Duration,
    throughput: Option<Throughput>,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// Creates a group; honours `COMPDIFF_BENCH_FAST=1` for smoke runs.
    pub fn new(name: &str) -> Self {
        let fast = std::env::var_os("COMPDIFF_BENCH_FAST").is_some();
        BenchGroup {
            name: name.to_string(),
            samples: if fast { 3 } else { 15 },
            target_sample_time: if fast {
                Duration::from_millis(2)
            } else {
                Duration::from_millis(10)
            },
            throughput: None,
            results: Vec::new(),
        }
    }

    /// Sets the per-iteration throughput annotation for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count (criterion's `sample_size`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Runs one benchmark and records + prints its result.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> BenchResult {
        // Warm up and estimate the cost of one iteration.
        let calib_start = Instant::now();
        let mut calib_iters: u64 = 0;
        while calib_start.elapsed() < Duration::from_millis(25) {
            black_box(f());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_nanos().max(1) / u128::from(calib_iters);
        let batch =
            (self.target_sample_time.as_nanos() / per_iter.max(1)).clamp(1, 1_000_000) as u64;

        let mut sample_times: Vec<Duration> = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            sample_times.push(start.elapsed() / batch as u32);
            total_iters += batch;
        }
        sample_times.sort_unstable();
        let result = BenchResult {
            name: format!("{}/{name}", self.name),
            median: sample_times[sample_times.len() / 2],
            min: sample_times[0],
            max: *sample_times.last().unwrap(),
            iters: total_iters,
        };
        self.print(&result);
        self.results.push(result.clone());
        result
    }

    fn print(&self, r: &BenchResult) {
        let mut line = format!(
            "{:<44} median {:>12}  [{} .. {}]  ({} iters)",
            r.name,
            fmt_duration(r.median),
            fmt_duration(r.min),
            fmt_duration(r.max),
            r.iters
        );
        if let Some(t) = self.throughput {
            let per_sec = |n: u64| n as f64 / r.median.as_secs_f64().max(1e-12);
            match t {
                Throughput::Bytes(n) => {
                    line.push_str(&format!("  {:.1} MiB/s", per_sec(n) / (1024.0 * 1024.0)));
                }
                Throughput::Elements(n) => {
                    line.push_str(&format!("  {:.2} Melem/s", per_sec(n) / 1e6));
                }
            }
        }
        println!("{line}");
    }

    /// Finishes the group and returns every result.
    pub fn finish(self) -> Vec<BenchResult> {
        self.results
    }
}

/// Serializes bench results (plus free-form annotations) to
/// `$COMPDIFF_BENCH_JSON_DIR/<file_name>` as pretty-printed JSON, so the
/// repo can track machine-readable perf baselines (`BENCH_*.json`) that
/// future PRs diff against. When the env var is unset — the default for
/// CI smoke runs — nothing is written and `None` is returned.
pub fn write_json(
    file_name: &str,
    results: &[BenchResult],
    extra: Vec<(&str, Json)>,
) -> Option<PathBuf> {
    let dir = std::env::var_os("COMPDIFF_BENCH_JSON_DIR")?;
    let mut fields = vec![(
        "results",
        Json::Array(
            results
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("name", Json::Str(r.name.clone())),
                        ("median_ns", Json::Int(r.median.as_nanos() as i64)),
                        ("min_ns", Json::Int(r.min.as_nanos() as i64)),
                        ("max_ns", Json::Int(r.max.as_nanos() as i64)),
                        ("iters", Json::Int(r.iters as i64)),
                    ])
                })
                .collect(),
        ),
    )];
    fields.extend(extra);
    let path = PathBuf::from(dir).join(file_name);
    let body = Json::obj(fields).render_pretty() + "\n";
    match std::fs::write(&path, body) {
        Ok(()) => {
            println!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        std::env::set_var("COMPDIFF_BENCH_FAST", "1");
        let mut g = BenchGroup::new("smoke");
        // Each element goes through `black_box`, so the optimizer cannot
        // fold the sum to a constant and leave nothing to time.
        let r = g.bench("noop_sum", || (0..100u64).map(black_box).sum::<u64>());
        assert!(r.median > Duration::ZERO);
        assert!(r.min <= r.median && r.median <= r.max);
        let all = g.finish();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].name, "smoke/noop_sum");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
