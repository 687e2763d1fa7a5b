//! Span trees from a captured trace, and per-layer self time.
//!
//! Every trace event carries two readings: `model_ns`, the cost
//! clock's `now()` (host time since the cost model's origin plus all
//! charges), and `wall_ns`, host time since the tracer's origin. The
//! two origins differ by a constant, so `model_ns - wall_ns` is the
//! charged (model-only) clock up to that constant. A span's host
//! interval comes from `wall_ns`, its model interval from that
//! difference. A layer's self time is its span's duration minus the
//! part of that interval its children cover.

use std::collections::BTreeMap;

use telemetry::trace::{TraceEvent, TracePhase};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Enclosing span id, 0 at a root.
    pub parent: u64,
    /// Call tree the span belongs to.
    pub trace_id: u64,
    /// Category, which names the layer.
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Host interval, ns.
    pub host: (i64, i64),
    /// Charged-clock interval, ns (offset by a constant).
    pub model: (i64, i64),
}

impl Span {
    fn host_len(&self) -> i64 {
        self.host.1 - self.host.0
    }

    fn model_len(&self) -> i64 {
        self.model.1 - self.model.0
    }
}

/// Pairs begin and end events into spans. Unmatched begins (cut off by
/// an error path) and instants are ignored.
pub fn spans_from_events(events: &[TraceEvent]) -> Vec<Span> {
    let mut ends: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    for e in events.iter().filter(|e| e.phase == TracePhase::End) {
        ends.insert(e.span_id, e);
    }
    let charged = |e: &TraceEvent| e.model_ns as i64 - e.wall_ns as i64;
    events
        .iter()
        .filter(|e| e.phase == TracePhase::Begin)
        .filter_map(|b| {
            let e = ends.get(&b.span_id)?;
            Some(Span {
                id: b.span_id,
                parent: b.parent_span_id,
                trace_id: b.trace_id,
                cat: b.cat,
                name: b.name.clone(),
                host: (b.wall_ns as i64, (e.wall_ns as i64).max(b.wall_ns as i64)),
                model: (charged(b), charged(e).max(charged(b))),
            })
        })
        .collect()
}

/// Length of the union of `intervals` after clipping each to `within`.
pub fn covered(within: (i64, i64), intervals: &mut [(i64, i64)]) -> i64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = within.0;
    for &(b, e) in intervals.iter() {
        let b = b.max(cursor);
        let e = e.min(within.1);
        if e > b {
            total += e - b;
            cursor = e;
        }
    }
    total
}

/// Self time of one span: its `(host, model)` duration minus the part
/// its children cover, clamped at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfTime {
    /// Host ns not covered by a child span.
    pub host_ns: i64,
    /// Charged ns not covered by a child span.
    pub model_ns: i64,
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut host: Vec<_> = kids.iter().map(|&k| spans[k].host).collect();
            let mut model: Vec<_> = kids.iter().map(|&k| spans[k].model).collect();
            SelfTime {
                host_ns: (s.host_len() - covered(s.host, &mut host)).max(0),
                model_ns: (s.model_len() - covered(s.model, &mut model)).max(0),
            }
        })
        .collect()
}

/// Self time summed per category over the call trees in `trees`.
pub fn self_time_by_cat(
    spans: &[Span],
    trees: &std::collections::BTreeSet<u64>,
) -> BTreeMap<&'static str, SelfTime> {
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, t) in spans.iter().zip(self_times(spans)) {
        if trees.contains(&span.trace_id) {
            let slot = out.entry(span.cat).or_default();
            slot.host_ns += t.host_ns;
            slot.model_ns += t.model_ns;
        }
    }
    out
}
