//! In-memory spans and per-layer samples for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer; nothing inside the measured crates is instrumented.
//! They stay in memory and are written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use telemetry::json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`vet.check`), or `boot` / `event` for the
    /// live operation itself.
    pub name: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Spans plus the per-metric samples and totals derived alongside them.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    /// Span durations in milliseconds, by span name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Running totals (counts, ratio numerators and denominators).
    totals: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            samples: BTreeMap::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Start a new operation; later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whatever span is
    /// open. The span's duration also becomes one sample of `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[idx].start_ns = self.ns(start);
        self.spans[idx].end_ns = self.ns(end);
        self.sample(name, (end - start).as_secs_f64() * 1e3);
        out
    }

    /// Record a span that was timed by the caller (the live operation,
    /// whose clock reads must not sit inside a closure of ours).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.sample(name, (end - start).as_secs_f64() * 1e3);
    }

    /// Add one sample to `name` without a span.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Add `delta` to the running total `name`.
    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.totals.entry(name).or_insert(0.0) += delta;
    }

    /// Raise the running maximum `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.totals.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// Samples of `name`, empty when none were taken.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The running total `name`, zero when never touched.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / denominator` of two totals, zero for an empty
    /// denominator.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.total(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.total(numerator) / d
        }
    }

    /// Per operation that has a span named in `live`: the share of that
    /// span's duration, in percent, which the operation's spans named in
    /// `covering` do not account for. Negative when the covering spans
    /// ran longer than the live one.
    pub fn uncovered_pct(&self, live: &[&str], covering: &[&str]) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let ns = (s.end_ns - s.start_ns) as f64;
            let slot = per_op.entry(s.op).or_default();
            if live.contains(&s.name) {
                slot.0 += ns;
            } else if covering.contains(&s.name) {
                slot.1 += ns;
            }
        }
        per_op
            .values()
            .filter(|(live, covered)| *live > 0.0 && *covered > 0.0)
            .map(|(live, covered)| 100.0 * (live - covered) / live)
            .collect()
    }

    /// Recorded spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str("{\"name\":");
            json::write_str(&mut out, s.name);
            out.push_str(&format!(",\"op\":{},\"id\":{id},\"parent\":", s.op));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.start_ns, s.end_ns
            ));
        }
        out
    }

    /// Write the spans to `path` as JSONL, creating parent directories.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::new();
        tr.begin_op();
        let out = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(out, 7);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.samples("inner").len(), 1);
        for line in tr.to_jsonl().lines() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("op").unwrap().as_u64(), Some(1));
            assert!(v.get("end_ns").unwrap().as_u64() >= v.get("start_ns").unwrap().as_u64());
        }
    }

    #[test]
    fn uncovered_share_is_per_operation() {
        let mut tr = Tracer::new();
        let t = tr.origin;
        let at = |ms: u64| t + std::time::Duration::from_millis(ms);
        tr.begin_op();
        tr.record("event", at(0), at(100));
        tr.record("a", at(100), at(160));
        tr.record("b", at(160), at(190));
        tr.record("ignored", at(190), at(500));
        tr.begin_op();
        tr.record("event", at(500), at(600)); // never replayed: skipped
        let pct = tr.uncovered_pct(&["event"], &["a", "b"]);
        assert_eq!(pct.len(), 1);
        assert!((pct[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn totals_and_ratios() {
        let mut tr = Tracer::new();
        tr.add("hits", 3.0);
        tr.add("calls", 4.0);
        tr.max("vls", 2.0);
        tr.max("vls", 1.0);
        assert_eq!(tr.ratio("hits", "calls"), 0.75);
        assert_eq!(tr.ratio("hits", "nothing"), 0.0);
        assert_eq!(tr.total("vls"), 2.0);
    }
}
