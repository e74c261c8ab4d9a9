//! In-memory spans around hbench's calls into each layer.
//!
//! Spans are recorded from the benchmark's side of every public call, kept
//! in memory while the run measures, and written out as JSON lines when it
//! ends. All spans of one operation (a compile, a ticket, a fleet run) share
//! an `op` id; a span's *self time* is its duration minus the part of that
//! interval its children cover. With tracing off every method is a no-op
//! that still runs the traced closure, so the measured code is the same.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The trace file holds at most this many spans; the per-layer metrics are
/// always computed from all of them.
const TRACE_FILE_SPAN_CAP: usize = 200_000;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off; a traced run alternates the two to
    /// price the tracing itself.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let now = Instant::now();
        Some(self.push(name, parent, op, now, now))
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a span whose endpoints were clocked by the caller (a ticket
    /// timed from its due time, a submit call already timed for a metric).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        self.on.then(|| self.push(name, parent, op, start, end))
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total self time per span name — where the run's wall-clock went.
    pub fn self_time_by_name_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *totals.entry(span.name).or_insert(0) += self_ns;
        }
        totals
    }

    /// Writes the spans as JSON lines, whole and in recording order, up to
    /// the file cap. Returns how many were written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(TRACE_FILE_SPAN_CAP);
        for span in &self.spans[..written] {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Self time per span, index-aligned: its duration minus the part of its
/// interval covered by its direct children (overlapping children are not
/// double-counted, and a child that outlives its parent only counts up to
/// the parent's end).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // overlaps span 1: the union [10, 50) is 40 ns, not 20 + 30
            span(2, Some(0), 20, 50),
            // grandchild: charged to span 2, not to the root
            span(3, Some(2), 25, 45),
            // outlives the parent: clipped at 100
            span(4, Some(0), 90, 140),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 20);
        assert_eq!(own[3], 20);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times_ns(&[span(0, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_but_still_runs_the_closure() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("a", None, 0);
        assert_eq!(id, None);
        tracer.end(id);
        assert_eq!(tracer.time("b", None, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("compile", None, 9);
        let got = tracer.time("core.search", root, 9, || 3);
        tracer.end(root);
        assert_eq!(got, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 9));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_ns("core.search").len(), 1);
        let totals = tracer.self_time_by_name_ns();
        assert_eq!(
            totals["compile"] + totals["core.search"],
            spans[0].duration_ns()
        );
    }
}
