//! In-memory span tracing for the `--trace 1` runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program under test is instrumented. A span is
//! `{id, parent, name, start_ns, end_ns}`. The hottest boundaries (one
//! VM execution each) are recorded as *leaves*: their durations are
//! charged to the enclosing span and aggregated per name, and each is
//! kept only as a `u32` sample for the p50/p99 metrics, which keeps a
//! traced catalog round at a few thousand spans instead of millions.
//!
//! A name's self time is the summed duration of its spans minus the part
//! covered by their children (child spans and leaves), plus the whole
//! duration of its leaves.

use compdiff::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// Aggregated leaf records of one name.
#[derive(Debug, Default)]
struct Leaf {
    count: u64,
    total_ns: u64,
    samples: Vec<u32>,
}

/// The `q` quantile of `s`, estimated as the mean of the samples ranked
/// within half a percentile of it. The band keeps the estimate from
/// snapping to one integer nanosecond reading.
fn quantile(mut s: Vec<u32>, q: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s.sort_unstable();
    let n = s.len() as f64;
    let lo = ((q - 0.005) * n).floor().clamp(0.0, n - 1.0) as usize;
    let hi = ((q + 0.005) * n).ceil().clamp(lo as f64 + 1.0, n) as usize;
    let band = &s[lo..hi];
    band.iter().map(|&x| f64::from(x)).sum::<f64>() / band.len() as f64
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    leaves: BTreeMap<&'static str, Leaf>,
    counts: BTreeMap<&'static str, u64>,
}

/// The tracer. Shared by reference between the replica's pieces (fuzz
/// target wrapper, oracle, observers); the replicas are single-threaded.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    state: RefCell<State>,
}

/// Per-name totals derived from a finished trace.
#[derive(Debug, Default)]
pub struct Totals {
    /// Self time per span or leaf name, in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Calls per span or leaf name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Wall time of the root span, in ns.
    pub root_ns: u64,
    /// Event counts recorded with [`Tracer::count`].
    pub counts: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// The count recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time of `name` as a percentage of the root's wall time.
    pub fn pct(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0) as f64;
        100.0 * ns / self.root_ns.max(1) as f64
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                leaves: BTreeMap::new(),
                counts: BTreeMap::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            st.spans.push(Span {
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
                child_ns: 0,
            });
            st.open.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.open.pop();
        let span = &mut st.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        if let Some(p) = span.parent {
            st.spans[p].child_ns += end - start;
        }
        out
    }

    /// Times `f` as a leaf named `name` under the innermost open span.
    pub fn leaf<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_leaf(name, start.elapsed().as_nanos() as u64);
        out
    }

    /// Records a leaf of `dur_ns` that ended just now.
    pub fn record_leaf(&self, name: &'static str, dur_ns: u64) {
        let mut st = self.state.borrow_mut();
        if let Some(&p) = st.open.last() {
            st.spans[p].child_ns += dur_ns;
        }
        let leaf = st.leaves.entry(name).or_default();
        leaf.count += 1;
        leaf.total_ns += dur_ns;
        leaf.samples.push(u32::try_from(dur_ns).unwrap_or(u32::MAX));
    }

    /// Adds `n` to the event count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.state.borrow_mut().counts.entry(name).or_default() += n;
    }

    /// Per-name self times and call counts. The root is the first span
    /// recorded.
    pub fn totals(&self) -> Totals {
        let st = self.state.borrow();
        let mut t = Totals::default();
        for (i, s) in st.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(s.child_ns);
            if i == 0 {
                t.root_ns = dur;
            }
            *t.self_ns.entry(s.name).or_default() += own;
            *t.calls.entry(s.name).or_default() += 1;
        }
        for (&name, leaf) in &st.leaves {
            *t.self_ns.entry(name).or_default() += leaf.total_ns;
            *t.calls.entry(name).or_default() += leaf.count;
        }
        t.counts = st.counts.clone();
        t
    }

    /// The `q` quantile (0..=1), in ns, of the durations of every leaf
    /// named in `names`.
    pub fn quantile_ns(&self, names: &[&str], q: f64) -> f64 {
        let st = self.state.borrow();
        let samples: Vec<u32> = names
            .iter()
            .filter_map(|n| st.leaves.get(n))
            .flat_map(|l| l.samples.iter().copied())
            .collect();
        quantile(samples, q)
    }

    /// Writes every span, then one aggregate record per leaf name, as
    /// JSON lines to `.bench_run/trace-<workload>.jsonl`.
    pub fn save(&self, workload: &str) -> Result<(), String> {
        let path = crate::measure::run_dir().join(format!("trace-{workload}.jsonl"));
        self.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let st = self.state.borrow();
        for (id, s) in st.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Int(id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (name, leaf) in &st.leaves {
            let line = Json::obj(vec![
                ("leaf", Json::Str(name.to_string())),
                ("count", Json::Int(leaf.count as i64)),
                ("total_ns", Json::Int(leaf.total_ns as i64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let tr = Tracer::new();
        tr.span("root", || {
            tr.span("a", || {
                tr.record_leaf("leaf", 1_000);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let t = tr.totals();
        assert_eq!(t.calls("a"), 1);
        assert_eq!(t.calls("leaf"), 1);
        assert_eq!(t.self_ns["leaf"], 1_000);
        let a_self = t.self_ns["a"];
        assert!(a_self >= 1_000_000, "a's own sleep is its self time");
        assert!(
            t.self_ns["root"] < t.root_ns / 2,
            "root is mostly covered by a"
        );
    }

    #[test]
    fn quantiles_average_the_band_around_the_rank() {
        let s: Vec<u32> = (0..1000).rev().collect();
        assert!((quantile(s.clone(), 0.5) - 499.5).abs() <= 1.0);
        assert!((quantile(s, 0.99) - 989.5).abs() <= 1.0);
        assert_eq!(quantile(vec![7], 0.99), 7.0);
        assert_eq!(quantile(Vec::new(), 0.5), 0.0);
    }
}
