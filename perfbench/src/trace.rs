//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, and the per-layer summary printed after a traced run.
//!
//! A span has a name (`<layer>.<operation>`, the layer being the module
//! it calls into), a start and an end, the span that caused it and the
//! request it belongs to.  Spans stay in memory until the run ends and
//! are then written out and summarised.  A span's *self time* is its
//! duration minus the part of its interval that its children cover;
//! children may overlap each other, so their union is subtracted, not
//! their sum.

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// The request this span served (0 for set-up work).
    pub request: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread.  A disabled recorder keeps nothing, so
/// untraced runs pay only for the timestamps they take anyway.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose ids start above `lane << 40`, so recorders of
    /// different threads never hand out the same id.
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> Self {
        Recorder { enabled, epoch, next_id: (lane << 40) + 1, spans: Vec::new() }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Records a finished leaf span and returns its id.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record(id, name, parent, request, start, end);
        id
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.leaf(name, parent, request, start, Instant::now());
        out
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals within it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered =
                children.get_mut(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per-name aggregate of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Median duration, nanoseconds.
    pub p50_ns: f64,
}

/// Aggregates spans by name, sorted by name.
pub fn summarise(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for s in spans {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.duration_ns() as f64);
        entry.1 += selfs[&s.id];
    }
    by_name
        .into_iter()
        .map(|(name, (durations, self_ns))| LayerRow {
            name,
            count: durations.len(),
            total_ns: durations.iter().sum::<f64>() as u64,
            self_ns,
            p50_ns: stats::median(&durations).unwrap_or(0.0),
        })
        .collect()
}

/// Median duration in microseconds of the spans called `name` (0 when
/// none were recorded, so a layer a workload never enters reads 0).
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect();
    stats::median(&d).unwrap_or(0.0)
}

/// Sum of durations in seconds of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).fold(0.0, |acc, s| acc + s.duration_ns() as f64 / 1e9)
}

/// Renders spans as JSON lines, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans =
            vec![span(1, 0, "root", 0, 100), span(2, 1, "a", 10, 30), span(3, 1, "b", 50, 60)];
        let s = self_times(&spans);
        assert_eq!(s[&1], 70);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,60) cover [10,60): 50 ns, not 60.
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            // Fully inside `a`: adds no coverage.
            span(4, 1, "c", 15, 20),
        ];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn self_time_handles_nesting_and_clipping() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "mid", 20, 80),
            span(3, 2, "leaf", 30, 50),
            // A child that starts before and ends after its parent is
            // clipped to the parent's interval.
            span(4, 3, "spill", 25, 70),
        ];
        let s = self_times(&spans);
        // Grandchildren do not count against the root directly.
        assert_eq!(s[&1], 40);
        assert_eq!(s[&2], 40);
        assert_eq!(s[&3], 0);
        assert_eq!(s[&4], 45);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span(1, 0, "req", 0, 100),
            span(2, 1, "io", 0, 40),
            span(3, 0, "req", 100, 300),
            span(4, 3, "io", 100, 150),
        ];
        let rows = summarise(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "io");
        assert_eq!((rows[0].count, rows[0].total_ns, rows[0].self_ns), (2, 90, 90));
        assert_eq!(rows[1].name, "req");
        assert_eq!((rows[1].count, rows[1].total_ns, rows[1].self_ns), (2, 300, 210));
        assert_eq!(rows[1].p50_ns, 100.0);
        assert_eq!(p50_us(&spans, "io"), 0.04);
        assert_eq!(p50_us(&spans, "absent"), 0.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let epoch = Instant::now();
        let mut r = Recorder::new(false, epoch, 3);
        assert_eq!(r.time("x", 0, 0, || 7), 7);
        assert!(r.into_spans().is_empty());
        let mut r = Recorder::new(true, epoch, 3);
        let parent = r.next_id();
        r.time("child", parent, 9, || ());
        r.record(parent, "parent", 0, 9, epoch, Instant::now());
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, parent);
        assert!(spans[0].id > 3 << 40 && parent > 3 << 40);
    }
}
