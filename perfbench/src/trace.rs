//! Spans and counters recorded by the benchmark around the library calls it
//! makes. Spans stay in memory until the run ends; a layer's self time is
//! its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval around a library call, in seconds from the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Records spans (nested through [`Tracer::span`]) and named counters.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    /// `(n, wavelengths)` of every group-size search, for counting the
    /// planner's candidates after the run.
    pub plan_calls: Vec<(usize, usize)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            plan_calls: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Add `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    /// Raise the counter `name` to at least `value`.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let slot = self.counters.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - c;
        }
        out
    }

    /// Summed duration of all spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as JSON lines: name, start, end, parent index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}
