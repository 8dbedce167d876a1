//! Spans recorded from the benchmark's own files around the calls into each
//! crate's public functions. Kept in memory, written out when the workload
//! ends. End-to-end metrics never come from a traced run.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root; spans of one operation share
/// `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared half of a traced run: the clock origin, the id counters and
/// the sink every thread's [`Recorder`] flushes into.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_op: AtomicU64,
    sink: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            // 0 is the "no parent" marker.
            next_id: AtomicU64::new(1),
            next_op: AtomicU64::new(1),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds of `at` since the tracer was created.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    // Relaxed: the counters publish nothing but their own value.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn new_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// A per-thread span buffer; it flushes into this tracer when dropped.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Every span recorded so far, ordered by start time.
    pub fn finish(self) -> Trace {
        let mut spans = self.sink.into_inner().expect("no recorder panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace { spans }
    }
}

/// One thread's span buffer. `span` nests: a span opened inside another's
/// closure becomes its child.
#[derive(Debug)]
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
    open: Vec<u64>,
    op: u64,
}

impl Recorder<'_> {
    /// Starts a new operation: later spans carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op = self.tracer.new_op();
        self.op
    }

    /// Times `body` as one span of `layer`, child of the innermost open span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.tracer.new_id();
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start = Instant::now();
        let out = body(self);
        let end = Instant::now();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            layer,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        out
    }

    /// A root span of the current op whose ends were read off the clock by
    /// the caller (e.g. on two different threads).
    pub fn observed(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.record(self.tracer.new_id(), 0, self.op, layer, name, start, end);
    }

    /// Records a span whose ends were observed elsewhere (another thread's
    /// clock reading, a request's due time).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        // A poisoned sink means another recorder's thread panicked; the run
        // is failing anyway and Drop must not panic on top of it.
        if let Ok(mut sink) = self.tracer.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// The finished span set of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Nanoseconds of `span` not covered by any of `children` (which may overlap
/// each other and stick out of the parent; both are clipped).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

impl Trace {
    fn named<'a>(&'a self, layer: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Whether any `layer.name` span was recorded.
    pub fn has(&self, layer: &str, name: &str) -> bool {
        self.named(layer, name).next().is_some()
    }

    /// Median duration (ms) over every span `layer.name`; 0 when none.
    pub fn median_ms(&self, layer: &str, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .named(layer, name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        stats::median(&durations)
    }

    /// Median over operations of the *summed* duration (ms) of the op's
    /// `layer.name` spans — "ms per forward" for a call made once per layer.
    pub fn median_per_op_ms(&self, layer: &str, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.named(layer, name) {
            *per_op.entry(span.op).or_default() += span.duration_ns() as f64 / 1e6;
        }
        stats::median(&per_op.into_values().collect::<Vec<_>>())
    }

    /// Median over the `layer.name` spans of self time ÷ duration: the share
    /// of the parent the child spans do not account for.
    pub fn unattributed_share(&self, layer: &str, name: &str) -> f64 {
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                children.entry(span.parent).or_default().push(span);
            }
        }
        let shares: Vec<f64> = self
            .named(layer, name)
            .filter(|s| s.duration_ns() > 0)
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                self_time_ns(s, kids) as f64 / s.duration_ns() as f64
            })
            .collect();
        stats::median(&shares)
    }

    /// The trace file: `{workload, seed, spans_total, spans: [...]}`. Files
    /// are capped at `max_spans` (earliest first) so a closed loop at tens of
    /// thousands of ops per second does not write hundreds of megabytes.
    pub fn to_json(&self, workload: &str, seed: u64, max_spans: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Json::obj([
                    ("id", Json::from(s.id)),
                    ("parent", Json::from(s.parent)),
                    ("op", Json::from(s.op)),
                    ("layer", Json::str(s.layer)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::from(seed)),
            ("spans_total", Json::from(self.spans.len() as u64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer: "nn",
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, 0, 100, 200);
        // [110,140) and [130,160) overlap: together they cover 50, not 60.
        let a = span(2, 1, 110, 140);
        let b = span(3, 1, 130, 160);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 50);
        // A child inside another adds nothing; one sticking out is clipped.
        let inner = span(4, 1, 115, 120);
        let overhang = span(5, 1, 190, 260);
        assert_eq!(self_time_ns(&parent, &[&b, &inner, &a, &overhang]), 40);
        // No children: all of it is self time. Full cover: none.
        assert_eq!(self_time_ns(&parent, &[]), 100);
        let full = span(6, 1, 50, 300);
        assert_eq!(self_time_ns(&parent, &[&full]), 0);
    }

    #[test]
    fn recorder_nests_spans_and_groups_them_by_op() {
        let tracer = Tracer::new();
        {
            let mut rec = tracer.recorder();
            for _ in 0..3 {
                rec.begin_op();
                rec.span("nn", "forward", |rec| {
                    rec.span("nn", "spmm", |_| std::hint::black_box(1 + 1));
                    rec.span("nn", "spmm", |_| std::hint::black_box(2 + 2));
                });
            }
        }
        let trace = tracer.finish();
        let count = |name| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!((count("forward"), count("spmm")), (3, 6));
        assert!(trace.has("nn", "spmm") && !trace.has("graph", "spmm"));
        for child in trace.spans.iter().filter(|s| s.name == "spmm") {
            let parent = trace.spans.iter().find(|s| s.id == child.parent).unwrap();
            assert_eq!((parent.name, parent.op), ("forward", child.op));
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name == "forward")
            .all(|s| s.parent == 0));
        let share = trace.unattributed_share("nn", "forward");
        assert!((0.0..=1.0).contains(&share));
        assert!(trace.median_per_op_ms("nn", "spmm") >= trace.median_ms("nn", "spmm"));
        let json = trace.to_json("w", 1, 4);
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(json.get("spans_total").unwrap().as_f64(), Some(9.0));
    }
}
