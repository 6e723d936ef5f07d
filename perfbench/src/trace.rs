//! The benchmark's own span recorder and its per-layer rollup.
//!
//! Spans are recorded around calls into the program's public functions, in
//! the benchmark's code only: name, start, end and parent, kept in memory and
//! written out as JSONL when the run ends. A span's layer is its name up to
//! the first `.` (`grouping.next_group` belongs to `grouping`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span. Times are microseconds since the
/// tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, `layer.operation`.
    pub name: &'static str,
    /// Start offset.
    pub start_us: f64,
    /// End offset.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl SpanRecord {
    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest under
    /// it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRecord {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a span measured elsewhere — a request timed at the client, or
    /// a layer call replayed in process and placed inside the request it
    /// replays. Returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(SpanRecord {
            name,
            start_us,
            end_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us() / 1e3)
            .sum()
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                span.name, span.start_us, span.end_us
            );
        }
        out
    }
}

/// Self and total time of one layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Time in the layer's spans not covered by their child spans.
    pub self_ms: f64,
    /// Time inside the layer's outermost spans, children included.
    pub total_ms: f64,
}

/// The per-layer rollup of one traced section.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// Per-layer times, by layer name.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Wall time of the section that no top-level span covers.
    pub unattributed_ms: f64,
    /// Wall time of the section.
    pub wall_ms: f64,
}

impl Rollup {
    /// Rolls `spans` up by layer against a section of `wall_ms`.
    pub fn of(spans: &[SpanRecord], wall_ms: f64) -> Self {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let mut top_level_us = 0.0;
        for (id, span) in spans.iter().enumerate() {
            let covered = covered_us(span, children[id].iter().map(|&c| &spans[c]));
            let entry = layers.entry(span.layer()).or_default();
            entry.self_ms += (span.duration_us() - covered) / 1e3;
            if !has_ancestor_in_layer(spans, id) {
                entry.total_ms += span.duration_us() / 1e3;
            }
            if span.parent.is_none() {
                top_level_us += span.duration_us();
            }
        }
        Rollup {
            layers,
            unattributed_ms: wall_ms - top_level_us / 1e3,
            wall_ms,
        }
    }

    /// Self time of `layer` (0 when it recorded no span).
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |t| t.self_ms)
    }

    /// The rollup as a text table with an `unattributed` row.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<14} {:>12} {:>12} {:>7}\n",
            "layer", "self_ms", "total_ms", "self%"
        );
        let share = |ms: f64| 100.0 * ms / self.wall_ms.max(f64::MIN_POSITIVE);
        for (layer, time) in &self.layers {
            let _ = writeln!(
                out,
                "{layer:<14} {:>12.3} {:>12.3} {:>6.1}%",
                time.self_ms,
                time.total_ms,
                share(time.self_ms)
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>12.3} {:>12.3} {:>6.1}%",
            "unattributed",
            self.unattributed_ms,
            self.unattributed_ms,
            share(self.unattributed_ms)
        );
        let _ = writeln!(out, "{:<14} {:>12.3}", "wall", self.wall_ms);
        out
    }
}

/// Microseconds of `span` covered by the union of its children's intervals.
fn covered_us<'a>(span: &SpanRecord, children: impl Iterator<Item = &'a SpanRecord>) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
        }
        reach = reach.max(end);
    }
    covered
}

fn has_ancestor_in_layer(spans: &[SpanRecord], id: usize) -> bool {
    let layer = spans[id].layer();
    let mut next = spans[id].parent;
    while let Some(p) = next {
        if spans[p].layer() == layer {
            return true;
        }
        next = spans[p].parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // core.column [0, 100] holds grouping.next [10, 40] (which holds
        // grouping.search [15, 35]) and replace.apply [50, 60]; a second
        // top-level data.write [120, 130]. Wall 200.
        let spans = vec![
            span("core.column", 0.0, 100_000.0, None),
            span("grouping.next", 10_000.0, 40_000.0, Some(0)),
            span("grouping.search", 15_000.0, 35_000.0, Some(1)),
            span("replace.apply", 50_000.0, 60_000.0, Some(0)),
            span("data.write", 120_000.0, 130_000.0, None),
        ];
        let rollup = Rollup::of(&spans, 200.0);
        assert_eq!(rollup.self_ms("core"), 60.0);
        assert_eq!(rollup.self_ms("grouping"), 30.0);
        assert_eq!(
            rollup.layers["grouping"].total_ms, 30.0,
            "nested same-layer counted once"
        );
        assert_eq!(rollup.self_ms("replace"), 10.0);
        assert_eq!(rollup.layers["core"].total_ms, 100.0);
        assert_eq!(rollup.self_ms("truth"), 0.0);
        assert_eq!(rollup.unattributed_ms, 90.0);
        let table = rollup.table();
        assert!(table.contains("unattributed"), "{table}");
        assert!(table.lines().any(|l| l.starts_with("grouping")), "{table}");
    }

    #[test]
    fn overlapping_children_are_covered_as_a_union() {
        let parent = span("a.x", 0.0, 10.0, None);
        let kids = [
            span("b.y", 2.0, 6.0, Some(0)),
            span("b.z", 4.0, 12.0, Some(0)),
        ];
        assert_eq!(covered_us(&parent, kids.iter()), 8.0);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tracer = Tracer::new();
        let value = tracer.span("core.outer", |t| t.span("data.inner", |_| 7));
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(tracer.to_jsonl().lines().count() == 2);
        assert!(tracer.total_ms("data.inner") <= tracer.total_ms("core.outer"));
    }
}
