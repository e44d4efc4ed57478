//! In-memory spans around the calls the benchmark makes into the
//! library's public functions. Spans are kept in memory and written out
//! once, when the benchmark ends; a span's self time is its duration
//! minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::util::{json_str, median, timed};

/// Run `f` inside a root span when tracing, else just time it.
pub fn time<R>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    match tr {
        Some(t) => t.span(name, None, |_| f()),
        None => timed(f),
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.diag`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id that children can name as their parent before
    /// the span itself closes.
    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        let id = spans.len();
        let now = self.epoch.elapsed();
        spans.push(Span {
            id,
            parent,
            name,
            start: now,
            end: now,
        });
        id
    }

    fn close(&self, id: usize) -> Duration {
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        let end = self.epoch.elapsed();
        spans[id].end = end;
        spans[id].dur()
    }

    /// Run `f` inside a span; `f` receives the span id for children.
    /// Returns `f`'s result and the span's duration.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent);
        let r = std::hint::black_box(f(id));
        let d = self.close(id);
        (r, d)
    }

    /// Record an already-measured interval as a span (for intervals
    /// that start and end on different threads, such as job latency).
    pub fn record(&self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panic");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
    }

    /// Median seconds of `reps` runs of `f`, each a root span.
    pub fn probe(&self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let times: Vec<f64> = (0..reps)
            .map(|_| self.span(name, None, |_| f()).1.as_secs_f64())
            .collect();
        median(&times)
    }

    /// A copy of every span recorded so far.
    fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panic")
            .clone()
    }

    /// Total and self time per span name, in seconds, with span counts.
    pub fn by_name(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur().as_secs_f64();
            e.2 += s.dur().saturating_sub(child[s.id]).as_secs_f64();
        }
        out
    }

    /// The whole trace as JSON: the host fingerprint (a JSON object)
    /// and the spans, one per line.
    pub fn to_json(&self, host: &str) -> String {
        let mut out = format!("{{\"host\": {host},\n\"spans\": [\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                parent,
                json_str(s.name),
                s.start.as_nanos(),
                s.end.as_nanos(),
                if i + 1 == spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}
