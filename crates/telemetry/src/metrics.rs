//! The metric registry: named atomic counters, gauges, and log2-bucketed
//! histograms.
//!
//! Handles are `Arc`s resolved once by name and then touched with plain
//! relaxed atomic operations, so instrumented hot loops never take a lock
//! or hash a string. Snapshots iterate a `BTreeMap`, so rendering order
//! is the sorted name order — a precondition for the campaign's
//! byte-identical metrics streams.

use compdiff::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger (high-water mark).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per possible bit length of a `u64`
/// (bucket `b` holds values whose bit length is `b`, i.e. the log2
/// bucket `[2^(b-1), 2^b)`; bucket 0 holds exactly the value 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (latencies in
/// microseconds, page counts, queue depths).
///
/// Recording is two relaxed atomic adds — no floating point, no locks —
/// which keeps it viable on per-execution paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The log2 bucket index of a value: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The smallest value that lands in bucket `b` (its printable label).
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The bucket floor below which at least `q` (0.0..=1.0) of the
    /// samples fall — a coarse quantile (log2 resolution), `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_floor(b));
            }
        }
        Some(bucket_floor(HISTOGRAM_BUCKETS - 1))
    }

    /// JSON form: count, sum, coarse p50/p99, and the non-empty buckets
    /// as `[bucket_floor, count]` pairs in ascending order.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| {
                    Json::Array(vec![Json::Int(bucket_floor(b) as i64), Json::Int(c as i64)])
                })
            })
            .collect();
        Json::obj(vec![
            ("count", Json::Int(self.count() as i64)),
            ("sum", Json::Int(self.sum() as i64)),
            (
                "p50",
                self.quantile(0.5)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p99",
                self.quantile(0.99)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            ("buckets", Json::Array(buckets)),
        ])
    }

    /// Adds a job-local tally's samples: bucket counts and the sum add
    /// exactly, as if each sample had been recorded here.
    pub fn fold(&self, tally: &HistogramTally) {
        for (b, &c) in self.buckets.iter().zip(&tally.buckets) {
            if c > 0 {
                b.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(tally.sum, Ordering::Relaxed);
    }

    /// Merges another histogram's JSON form (the output of
    /// [`to_json`](Histogram::to_json)) into this one: bucket counts add
    /// bucket-for-bucket (each `[floor, count]` pair maps back to the
    /// bucket whose floor it is) and the sums add, so folding
    /// per-process snapshots together is exact at log2 resolution.
    /// Malformed entries are ignored — a merge never fails.
    pub fn merge_json(&self, v: &Json) {
        if let Some(s) = v.get("sum").and_then(Json::as_u64) {
            self.sum.fetch_add(s, Ordering::Relaxed);
        }
        let Some(pairs) = v.get("buckets").and_then(Json::as_array) else {
            return;
        };
        for pair in pairs {
            let Some(p) = pair.as_array() else { continue };
            let floor = p.first().and_then(Json::as_u64);
            let count = p.get(1).and_then(Json::as_u64);
            if let (Some(floor), Some(count)) = (floor, count) {
                self.buckets[bucket_of(floor)].fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

/// A [`Histogram`] one thread counts into with plain adds — the same log2
/// buckets and sum — and folds into a shared histogram in one go
/// ([`Histogram::fold`]). A per-execution recorder that keeps one writes
/// no memory another worker writes.
#[derive(Debug, Clone)]
pub struct HistogramTally {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Default for HistogramTally {
    fn default() -> Self {
        HistogramTally {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramTally {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Records `n` samples that share `total` as evenly as integers allow:
    /// `total % n` of them read `total / n + 1` and the rest `total / n`,
    /// so the count grows by exactly `n` and the sum by exactly `total`.
    /// `n == 0` records nothing.
    pub fn record_spread(&mut self, total: u64, n: u64) {
        let Some(q) = total.checked_div(n) else {
            return;
        };
        let r = total % n;
        if r > 0 {
            self.buckets[bucket_of(q + 1)] += r;
        }
        self.buckets[bucket_of(q)] += n - r;
        self.sum = self.sum.wrapping_add(total);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// The named-metric registry.
///
/// Lookup creates on first use; the maps are `BTreeMap`s so snapshots
/// enumerate metrics in sorted name order regardless of registration
/// order (which can vary with thread scheduling).
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().unwrap();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock().unwrap();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().unwrap();
        Arc::clone(m.entry(name.to_string()).or_default())
    }

    /// A point-in-time JSON snapshot of every metric, keys sorted.
    pub fn snapshot(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(v.get() as i64)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(v.get() as i64)))
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Merges a [`snapshot`](MetricRegistry::snapshot) taken from another
    /// registry (typically another *process*) into this one: counters
    /// add, gauges take the maximum (high-water semantics — the only
    /// cross-process reading that is order-independent), and histograms
    /// merge bucket-for-bucket. Every operation is commutative and
    /// associative, so merging N worker snapshots produces the same
    /// registry regardless of arrival order. Unrecognized or malformed
    /// entries are ignored.
    pub fn merge_snapshot(&self, snap: &Json) {
        if let Some(Json::Object(pairs)) = snap.get("counters") {
            for (k, v) in pairs {
                if let Some(n) = v.as_u64() {
                    self.counter(k).add(n);
                }
            }
        }
        if let Some(Json::Object(pairs)) = snap.get("gauges") {
            for (k, v) in pairs {
                if let Some(n) = v.as_u64() {
                    self.gauge(k).set_max(n);
                }
            }
        }
        if let Some(Json::Object(pairs)) = snap.get("histograms") {
            for (k, v) in pairs {
                self.histogram(k).merge_json(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricRegistry::new();
        let c = r.counter("execs");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("execs").get(), 5, "same handle by name");
        let g = r.gauge("queue_depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // 3 of 5 samples are <= 3, so p50 falls in bucket_of(2..=3) = 2.
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(1.0), Some(512), "bucket floor of 1000");
    }

    #[test]
    fn snapshot_is_sorted_and_parseable() {
        let r = MetricRegistry::new();
        r.counter("zebra").inc();
        r.counter("alpha").add(2);
        r.gauge("mid").set(9);
        r.histogram("lat_us").record(300);
        let snap = r.snapshot();
        let rendered = snap.render();
        let alpha = rendered.find("alpha").unwrap();
        let zebra = rendered.find("zebra").unwrap();
        assert!(alpha < zebra, "sorted key order: {rendered}");
        let back = compdiff::Json::parse(&rendered).unwrap();
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("alpha"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let hist = back
            .get("histograms")
            .and_then(|h| h.get("lat_us"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(300));
    }

    #[test]
    fn record_spread_counts_n_and_sums_exactly() {
        for (total, n) in [
            (0u64, 5u64),
            (7, 1),
            (10, 3),
            (3, 10),
            (1 << 40, 7),
            (u64::MAX, 1),
        ] {
            let mut spread = HistogramTally::default();
            spread.record_spread(total, n);
            assert_eq!(spread.count(), n, "{total}/{n}");
            assert_eq!(spread.sum(), total, "{total}/{n}");
            // The samples are the per-sample recording of the even split.
            let mut each = HistogramTally::default();
            for j in 0..n {
                each.record(total / n + u64::from(j < total % n));
            }
            assert_eq!(spread.buckets, each.buckets, "{total}/{n}");
        }
        let mut none = HistogramTally::default();
        none.record_spread(99, 0);
        assert_eq!((none.count(), none.sum()), (0, 0));
    }

    #[test]
    fn folding_a_tally_equals_recording_each_sample() {
        let (direct, folded) = (Histogram::default(), Histogram::default());
        let mut tally = HistogramTally::default();
        for v in [0u64, 1, 5, 5, 300, 1 << 33] {
            direct.record(v);
            tally.record(v);
        }
        folded.record(42);
        direct.record(42);
        folded.fold(&tally);
        assert_eq!(folded.to_json().render(), direct.to_json().render());
    }

    /// Merging per-process snapshots reproduces the registry a single
    /// process would have built: counters add, gauges take the max,
    /// histograms merge exactly at bucket resolution — and the merge is
    /// order-independent.
    #[test]
    fn merge_snapshot_folds_remote_registries() {
        let make = |execs: u64, depth: u64, lats: &[u64]| {
            let r = MetricRegistry::new();
            r.counter("fuzz.execs").add(execs);
            r.gauge("queue_depth_max").set(depth);
            for &v in lats {
                r.histogram("job_us").record(v);
            }
            r
        };
        let a = make(10, 3, &[1, 100]);
        let b = make(32, 9, &[2, 100, 4000]);

        let combined = MetricRegistry::new();
        combined.merge_snapshot(&a.snapshot());
        combined.merge_snapshot(&b.snapshot());
        assert_eq!(combined.counter("fuzz.execs").get(), 42);
        assert_eq!(combined.gauge("queue_depth_max").get(), 9);
        let h = combined.histogram("job_us");
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 4203);

        // Order independence: the rendered snapshots are byte-identical.
        let flipped = MetricRegistry::new();
        flipped.merge_snapshot(&b.snapshot());
        flipped.merge_snapshot(&a.snapshot());
        assert_eq!(combined.snapshot().render(), flipped.snapshot().render());
    }
}
