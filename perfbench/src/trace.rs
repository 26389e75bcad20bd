//! In-memory spans around calls into the library's layers.
//!
//! A span records a name, its start and end, the span that caused it and
//! the id of the chunk or batch it covers, plus how much work (arrivals
//! or queries) it carried. Spans are taken per chunk or per batch, never
//! per arrival, and are written out only when the run ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

/// Handle of an open span (index into the tracer's span list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

/// The parent of a top-level span.
pub const ROOT: Open = Open(None);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (the traced run alternates, to measure
    /// its own overhead against untraced repetitions).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Open, work: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
            work,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            let now = self.now_ns();
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` under a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Open,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, id, parent, work);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.work
            )?;
        }
        w.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub self_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Self time per unit of work, in nanoseconds.
    pub fn self_ns_per_work(&self) -> f64 {
        self.self_ns as f64 / self.work.max(1) as f64
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (spans from
/// threads running side by side), so the covered part is the length of
/// the union of the child intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur.saturating_sub(covered(&mut kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Totals per span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut by: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = by.entry(s.name).or_default();
        t.self_ns += self_ns;
        t.work += s.work;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("parent", None, 0, 100),
            // Two children overlap on [30, 40): covered = [10, 50) = 40.
            span("child", Some(0), 10, 40),
            span("child", Some(0), 30, 50),
            // A child running past its parent counts only inside it.
            span("child", Some(0), 90, 120),
            // A grandchild is charged to its own parent, not to the root.
            span("grandchild", Some(1), 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 5);
        let by = totals_by_name(&spans);
        assert_eq!(by["child"].work, 3);
        assert_eq!(by["child"].self_ns, 25 + 20 + 30);
        assert_eq!(by["parent"].self_ns, 50);
    }

    #[test]
    fn nested_identical_children_are_not_double_counted() {
        let spans = [
            span("p", None, 0, 10),
            span("c", Some(0), 2, 8),
            span("c", Some(0), 2, 8),
        ];
        assert_eq!(self_times(&spans)[0], 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("root", 0, Open(None), 0);
        t.span("leaf", 1, root, 5, || ());
        t.end(root);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.begin("root", 0, Open(None), 0);
        t.span("leaf", 1, root, 5, || ());
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }
}
