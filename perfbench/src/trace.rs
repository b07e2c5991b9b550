//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and self-time attribution over them.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover (overlapping children count once, and a
//! child sticking out of its parent only counts inside the parent).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span. Times are offsets from the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"core.fit"`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset (never before `start`).
    pub end: Duration,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// The frame (arrival) the span belongs to.
    pub frame: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder; merge several with [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose offsets count from `origin` (share one origin
    /// across the threads of a run so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The offset of `instant` from the origin.
    pub fn offset(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.origin)
    }

    /// Records a span whose bounds were measured elsewhere; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        frame: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.offset(start),
            end: self.offset(end.max(start)),
            parent,
            frame,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, frame, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.offset(Instant::now());
        self.spans[id].end = end.max(self.spans[id].start);
    }

    /// Times `f` as a span under `parent`; returns its result and the
    /// span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        frame: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, frame, start, end);
        (value, end - start)
    }

    /// Merges the spans of several tracers into one list, re-basing parent
    /// indices.
    pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Vec<Span> {
        let mut merged = Vec::new();
        for tracer in tracers {
            let base = merged.len();
            merged.extend(tracer.spans.into_iter().map(|mut span| {
                span.parent = span.parent.map(|parent| parent + base);
                span
            }));
        }
        merged
    }
}

/// The self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent.filter(|&parent| parent < spans.len()) {
            children[parent].push(id);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut covered: Vec<(Duration, Duration)> = kids
                .iter()
                .map(|&kid| {
                    let kid = &spans[kid];
                    (kid.start.max(span.start), kid.end.min(span.end))
                })
                .filter(|(start, end)| start < end)
                .collect();
            covered.sort();
            let mut union = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(union)
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_micros_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        by_name
            .entry(span.name)
            .or_default()
            .push(own.as_secs_f64() * 1e6);
    }
    by_name
}

/// Writes the spans as JSON lines: name, start and end in nanoseconds from
/// the origin, parent index (or null) and frame id.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |parent| parent.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"frame\":{}}}",
            span.name,
            span.start.as_nanos(),
            span.end.as_nanos(),
            span.frame
        )?;
    }
    out.flush()
}
