//! Observability for the CompDiff stack: a metric registry plus an event
//! tracer, both std-only and deterministic under test clocks.
//!
//! The paper's evaluation (§4) is built from aggregate run telemetry —
//! execs/sec, per-implementation cost, dedup counts. This crate provides
//! the layer that produces those numbers from live runs:
//!
//! - [`MetricRegistry`]: named atomic [`Counter`]s, [`Gauge`]s, and
//!   log2-bucketed [`Histogram`]s. Handles are resolved once by name;
//!   updating is lock-free relaxed atomics, cheap enough for
//!   per-execution paths.
//! - [`Recorder`]: a span/event sink. The production implementation
//!   streams JSONL rendered with `compdiff::json`; the no-op
//!   implementation makes disabled telemetry near-zero cost behind the
//!   same trait.
//! - [`Clock`]: the injectable time source. Tests use [`TestClock`]
//!   (fixed or stepping) so recorded streams are byte-identical across
//!   runs; production uses [`MonotonicClock`].
//!
//! The [`Telemetry`] facade ties the three together and is what
//! instrumented code holds (via `Arc`):
//!
//! ```
//! use telemetry::{Telemetry, TestClock};
//! use compdiff::Json;
//!
//! let tel = Telemetry::with_buffer(TestClock::fixed(7));
//! tel.registry().counter("execs").add(3);
//! let span = tel.span("compile");
//! span.end(vec![("target", Json::Str("mujs".into()))]);
//! let stream = tel.take_buffer().unwrap();
//! assert_eq!(
//!     stream,
//!     "{\"ev\":\"compile\",\"t_us\":7,\"dur_us\":0,\"target\":\"mujs\"}\n"
//! );
//! ```
//!
//! Dependency direction: this crate depends only on `compdiff` (for
//! JSON). The instrumented crates (`fuzzing`, `minc-vm`, `compdiff`
//! itself) do **not** depend on telemetry — they expose observer traits
//! and intrinsic counters instead, and the `campaign` crate adapts those
//! seams onto this registry.

mod clock;
mod metrics;
mod recorder;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramTally, MetricRegistry, HISTOGRAM_BUCKETS};
pub use recorder::{JsonlRecorder, NoopRecorder, Recorder};

use compdiff::Json;
use std::sync::{Arc, Mutex};

/// The facade instrumented code holds: registry + clock + recorder.
pub struct Telemetry {
    registry: MetricRegistry,
    clock: Box<dyn Clock>,
    recorder: Box<dyn Recorder>,
    /// Set only by [`with_buffer`](Telemetry::with_buffer): the shared
    /// sink behind the recorder, so tests can read the stream back.
    buffer: Option<Arc<Mutex<Vec<u8>>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("clock", &self.clock)
            .field("events_enabled", &self.recorder.enabled())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry with an explicit clock and event sink.
    pub fn new(clock: impl Clock + 'static, recorder: impl Recorder + 'static) -> Arc<Self> {
        Arc::new(Telemetry {
            registry: MetricRegistry::new(),
            clock: Box::new(clock),
            recorder: Box::new(recorder),
            buffer: None,
        })
    }

    /// Telemetry over a monotonic clock, or over one pinned at
    /// `fixed_clock_us` (every reading the same, so event streams are
    /// reproducible byte for byte).
    pub fn clocked(fixed_clock_us: Option<u64>, recorder: impl Recorder + 'static) -> Arc<Self> {
        match fixed_clock_us {
            Some(t) => Telemetry::new(TestClock::fixed(t), recorder),
            None => Telemetry::new(MonotonicClock::new(), recorder),
        }
    }

    /// Disabled telemetry: a no-op recorder and a monotonic clock. The
    /// registry still works (aggregation is always available); only the
    /// event stream is off.
    pub fn disabled() -> Arc<Self> {
        Telemetry::new(MonotonicClock::new(), NoopRecorder)
    }

    /// Telemetry recording events into an in-memory buffer (tests).
    /// Retrieve the stream with [`take_buffer`](Telemetry::take_buffer).
    pub fn with_buffer(clock: impl Clock + 'static) -> Arc<Self> {
        let buf = SharedBuf::default();
        let handle = Arc::clone(&buf.data);
        Arc::new(Telemetry {
            registry: MetricRegistry::new(),
            clock: Box::new(clock),
            recorder: Box::new(JsonlRecorder::new(buf)),
            buffer: Some(handle),
        })
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Current time in microseconds (injected clock).
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Whether events are being consumed. Call sites that build field
    /// vectors should skip the work when this is `false`.
    pub fn events_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Emits one event stamped with the current clock reading.
    pub fn event(&self, name: &str, fields: Vec<(&str, Json)>) {
        if self.recorder.enabled() {
            self.recorder.record(name, self.clock.now_micros(), fields);
        }
    }

    /// Starts a span; [`Span::end`] emits an event named after the span
    /// carrying its start time and duration.
    pub fn span<'a>(&'a self, name: &'static str) -> Span<'a> {
        Span {
            tel: self,
            name,
            start_us: self.clock.now_micros(),
        }
    }

    /// Flushes the recorder.
    pub fn flush(&self) {
        self.recorder.flush();
    }

    /// Drains the in-memory event buffer of a
    /// [`with_buffer`](Telemetry::with_buffer) instance; `None` for
    /// other recorders.
    pub fn take_buffer(&self) -> Option<String> {
        self.recorder.flush();
        self.buffer
            .as_ref()
            .map(|b| String::from_utf8_lossy(&std::mem::take(&mut *b.lock().unwrap())).into_owned())
    }
}

/// A started span (see [`Telemetry::span`]).
pub struct Span<'a> {
    tel: &'a Telemetry,
    name: &'static str,
    start_us: u64,
}

impl Span<'_> {
    /// The span's start timestamp.
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Ends the span, emitting `{"ev":<name>,"t_us":<start>,
    /// "dur_us":<elapsed>, ...fields}`.
    pub fn end(self, fields: Vec<(&str, Json)>) {
        if !self.tel.recorder.enabled() {
            return;
        }
        let dur = self.tel.clock.now_micros().saturating_sub(self.start_us);
        let mut all: Vec<(&str, Json)> = vec![("dur_us", Json::Int(dur as i64))];
        all.extend(fields);
        self.tel.recorder.record(self.name, self.start_us, all);
    }
}

/// An in-memory, shareable byte sink for tests.
#[derive(Debug, Clone, Default)]
struct SharedBuf {
    data: Arc<Mutex<Vec<u8>>>,
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.data.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_event_is_a_noop() {
        let tel = Telemetry::disabled();
        assert!(!tel.events_enabled());
        tel.event("x", vec![("k", Json::Int(1))]);
        tel.registry().counter("still_works").inc();
        assert_eq!(tel.registry().counter("still_works").get(), 1);
        assert_eq!(tel.take_buffer(), None);
    }

    #[test]
    fn span_measures_with_test_clock() {
        let tel = Telemetry::with_buffer(TestClock::stepping(100, 10));
        let span = tel.span("work"); // reads 100
        span.end(vec![("n", Json::Int(2))]); // reads 110
        let text = tel.take_buffer().unwrap();
        let v = Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("work"));
        assert_eq!(v.get("t_us").and_then(Json::as_u64), Some(100));
        assert_eq!(v.get("dur_us").and_then(Json::as_u64), Some(10));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn buffered_stream_is_deterministic() {
        let run = || {
            let tel = Telemetry::with_buffer(TestClock::fixed(5));
            tel.registry().counter("execs").add(7);
            tel.event("a", vec![("i", Json::Int(1))]);
            tel.event("b", vec![]);
            tel.event("metrics", vec![("m", tel.registry().snapshot())]);
            tel.take_buffer().unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "byte-identical under a fixed clock");
        for line in first.lines() {
            Json::parse(line).unwrap();
        }
    }
}
