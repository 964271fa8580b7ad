//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span is `(name, start, end, parent, op)`. They go to a pre-sized
//! in-memory buffer, are rolled up per round into per-op total and self
//! times (self = duration minus the part its children cover), and the first
//! traced round of each section is written once, at exit, as Chrome
//! `trace_event` JSON.

use crate::stats::Envelope;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The op (page, query) this span belongs to; 0 for once-per-round spans.
    pub op: u32,
}

pub struct SpanBuf {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    capacity: usize,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            capacity,
            dropped: 0,
        }
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns its id, or
    /// [`NO_PARENT`] when the buffer is full.
    pub fn enter(&mut self, name: &'static str, op: u32) -> u32 {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        id
    }

    /// Closes the span `enter` returned (spans close innermost first).
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        if id == NO_PARENT {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, op);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records an already-finished span (timestamps on this buffer's clock)
    /// under `parent`. Returns its id.
    pub fn insert(
        &mut self,
        name: &'static str,
        op: u32,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() as u32 - 1
    }

    /// Drains the finished spans of one round.
    pub fn take_round(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span is still open");
        let capacity = self.spans.capacity();
        std::mem::replace(&mut self.spans, Vec::with_capacity(capacity))
    }
}

/// Runs `f`, inside a span when there is a buffer to record it in: the one
/// call site serves the traced and the untraced round.
pub fn scoped<T>(
    spans: Option<&mut SpanBuf>,
    name: &'static str,
    op: u32,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        None => f(),
        Some(buf) => buf.scope(name, op, |_| f()),
    }
}

/// Per-op times of one span name within one round.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Rolled {
    /// Σ duration of the spans of op `i`.
    pub total: Vec<u64>,
    /// Σ self time (duration minus what child spans cover) of op `i`.
    pub self_ns: Vec<u64>,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut sum = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

/// Rolls one round's spans up by name and op.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rolled> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Rolled> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns - s.start_ns;
        let own = total - covered(kids, s.start_ns, s.end_ns);
        let rolled = out.entry(s.name).or_default();
        let op = s.op as usize;
        if rolled.total.len() <= op {
            rolled.total.resize(op + 1, 0);
            rolled.self_ns.resize(op + 1, 0);
        }
        rolled.total[op] += total;
        rolled.self_ns[op] += own;
    }
    out
}

/// Envelopes of every span name over the traced rounds of one section.
#[derive(Default)]
pub struct LayerTable {
    pub total: BTreeMap<&'static str, Envelope>,
    pub self_ns: BTreeMap<&'static str, Envelope>,
}

impl LayerTable {
    pub fn add_round(&mut self, spans: &[Span]) {
        for (name, rolled) in rollup(spans) {
            self.total
                .entry(name)
                .or_insert_with(|| Envelope::new(false))
                .add_round(&rolled.total, 0);
            self.self_ns
                .entry(name)
                .or_insert_with(|| Envelope::new(false))
                .add_round(&rolled.self_ns, 0);
        }
    }

    /// Per-op envelope of `name`'s total time (empty when never recorded).
    pub fn ops(&self, name: &str) -> &[u64] {
        self.total.get(name).map_or(&[], |e| &e.min)
    }

    /// Σ envelope of `name`'s total time, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total.get(name).map_or(0.0, |e| e.sum() as f64 / 1e6)
    }

    /// Σ envelope of `name`'s self time, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |e| e.sum() as f64 / 1e6)
    }
}

/// Where traced rounds put their spans.
pub struct TraceSink<'a> {
    pub buf: &'a mut SpanBuf,
    pub table: &'a mut LayerTable,
    /// Receives the first traced round's spans (for the Chrome file).
    pub kept: &'a mut Vec<Span>,
}

impl TraceSink<'_> {
    /// Rolls the round's spans into the table and empties the buffer.
    pub fn end_round(&mut self) {
        let spans = self.buf.take_round();
        self.table.add_round(&spans);
        if self.kept.is_empty() {
            *self.kept = spans;
        }
    }
}

/// Writes spans as a Chrome `trace_event` JSON array (`chrome://tracing`,
/// Perfetto). Each section is its own thread row.
pub fn write_chrome_trace(
    w: &mut impl Write,
    sections: &[(&str, Vec<Span>)],
) -> std::io::Result<()> {
    w.write_all(b"[")?;
    let mut first = true;
    for (tid, (section, spans)) in sections.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"{section}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{},\"op\":{}}}}}",
                s.name,
                tid + 1,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.op,
            )?;
        }
    }
    w.write_all(b"\n]\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT, 0),
            span("a", 10, 40, 0, 0),
            // Overlaps `a` by 10 and sticks out of `root` by 20.
            span("b", 30, 120, 0, 0),
            span("leaf", 12, 20, 1, 0),
        ];
        let r = rollup(&spans);
        // Children cover [10, 100] of root → 90.
        assert_eq!(r["root"].self_ns, vec![10]);
        assert_eq!(r["root"].total, vec![100]);
        assert_eq!(r["a"].self_ns, vec![22]);
        assert_eq!(r["b"].self_ns, vec![90]);
        assert_eq!(r["leaf"].total, vec![8]);
    }

    #[test]
    fn rollup_sums_per_name_and_op() {
        let spans = vec![
            span("page", 0, 50, NO_PARENT, 0),
            span("handle", 5, 10, 0, 0),
            span("handle", 20, 30, 0, 0),
            span("page", 50, 80, NO_PARENT, 1),
            span("handle", 55, 56, 3, 1),
        ];
        let r = rollup(&spans);
        assert_eq!(r["handle"].total, vec![15, 1]);
        assert_eq!(r["page"].total, vec![50, 30]);
        assert_eq!(r["page"].self_ns, vec![35, 29]);

        let mut table = LayerTable::default();
        table.add_round(&spans);
        let mut quieter = spans.clone();
        quieter[0].end_ns = 40;
        table.add_round(&quieter);
        assert_eq!(table.ops("page"), &[40, 30]);
        assert_eq!(table.ops("absent"), &[] as &[u64]);
        assert!((table.total_ms("handle") - 16e-6).abs() < 1e-12);
        assert!((table.self_ms("page") - (25.0 + 29.0) / 1e6).abs() < 1e-12);
    }

    #[test]
    fn buffer_nests_and_stops_when_full() {
        let mut buf = SpanBuf::with_capacity(3);
        let outer = buf.enter("outer", 7);
        let got = buf.scope("inner", 7, |b| {
            b.insert("tap", 7, 1, 2, 1);
            41 + 1
        });
        assert_eq!(got, 42);
        let over = buf.enter("over", 0);
        assert_eq!(over, NO_PARENT);
        buf.exit(over);
        buf.exit(outer);
        assert_eq!(buf.dropped, 1);
        let spans = buf.take_round();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].name, spans[2].parent, spans[2].op), ("tap", 1, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(buf.take_round().is_empty());
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let spans = vec![span("a.b", 1_000, 3_500, NO_PARENT, 4)];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &[("build", spans.clone()), ("query", spans)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(text.contains("\"parent\":-1,\"op\":4"));
        assert!(text.contains("\"tid\":2"));
    }
}
