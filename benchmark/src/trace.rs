//! Spans recorded by the benchmark around each public call into the library.
//!
//! A span is `{name, start, end, parent, op}`; the spans of one operation
//! share its `op` number. Spans are kept in memory and written out when the
//! run ends. A span's *self time* is its duration minus the part its children
//! cover, so the self times of all spans under an operation's root add up to
//! the operation's wall time — which [`Rows::sum_ms`] lets the run verify
//! against its own, separately kept, wall-clock timers.
//!
//! With tracing off, [`Tracer::span`] only calls the closure: the end-to-end
//! run pays for no clock read it does not need.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder measuring from `origin` (shared by every thread of a run, so
    /// their spans are on one time line).
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span called `name`; [`Tracer::exit`] closes it.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = self.now();
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let result = f(self);
        self.exit();
        result
    }

    /// Records, under the innermost open span, a span whose length comes from
    /// a counter of the program (the report's `time_in_solver`) rather than
    /// from the benchmark's clock. It is placed at the end of its parent and
    /// clipped to it: with several workers the counter adds up their time.
    pub fn derived(&mut self, name: &'static str, length: Duration) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("a derived span needs a parent");
        let end_ns = self.now();
        let start_ns = end_ns
            .saturating_sub(length.as_nanos() as u64)
            .max(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op: self.op,
        });
    }

    /// Hands the recorded spans over to a list shared by several recorders.
    pub fn drain_into(self, all: &mut Vec<Span>) {
        append(all, self.spans);
    }
}

/// Appends one recorder's spans to a shared list, re-basing parent indices.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per span name.
pub struct Rows {
    /// name → (spans, total self time in ms)
    pub rows: BTreeMap<&'static str, (u64, f64)>,
}

impl Rows {
    pub fn from_spans(spans: &[Span]) -> Rows {
        let mut rows: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, own_ms) in spans.iter().zip(self_ms(spans)) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += own_ms;
        }
        Rows { rows }
    }

    /// Sum of all self times: the traced wall time.
    pub fn sum_ms(&self) -> f64 {
        self.rows.values().map(|r| r.1).sum()
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.1)
    }

    pub fn render(&self) -> String {
        let total = self.sum_ms();
        let mut out = String::new();
        for (name, (count, ms)) in &self.rows {
            writeln!(
                out,
                "  {name:<28} {count:>8} spans {ms:>12.3} ms self {:>6.2} %",
                100.0 * ms / total
            )
            .expect("write to String");
        }
        out
    }
}

/// Every span's self time in ms: its duration minus what its children cover.
fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, covered)| (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6)
        .collect()
}

/// Self times (ms) of every span called `name`, in recording order.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ms(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, own_ms)| own_ms)
        .collect()
}

/// Durations (ms) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.op
        )
        .expect("write to String");
    }
    out.push_str("]}\n");
    out
}
