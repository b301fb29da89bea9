//! Spans recorded around each call into a public layer, kept in memory
//! and written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! origin), the span that caused it, and the id of the eval it belongs
//! to. A span's self time is its duration minus the part of its interval
//! that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tm_support::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `frontend.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the eval (request) the span belongs to; 0 for spans outside
    /// any eval, such as set-up.
    pub eval: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder for one thread of calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, eval: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, eval);
        let r = f();
        self.exit(id);
        r
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, eval: u32) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            eval,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Number of spans recorded so far; spans recorded later start at
    /// this index.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON document to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::UInt(s.start)),
                ("end_ns", Json::UInt(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("eval", Json::UInt(u64::from(s.eval))),
            ])
        });
        let doc = Json::obj([("spans", Json::Array(spans.collect()))]);
        let mut f = std::fs::File::create(path)?;
        f.write_all(doc.to_string().as_bytes())?;
        f.write_all(b"\n")
    }
}

/// Self time of every span in `spans`, in nanoseconds: its duration minus
/// the union of its children's intervals, each clipped to the parent.
/// `spans` starts at index `base` of the tracer's list (parents are
/// tracer indices); a parent before `base` is outside the slice.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            eval: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("eval", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("save", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans, 0), vec![30, 20, 40, 10]);
        // The same spans seen from index 1 on: the eval span is outside.
        assert_eq!(self_times(&spans[1..], 1), vec![20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one runs past the parent's end:
        // only the covered part of [0, 100) is subtracted.
        let spans = vec![
            span("eval", 0, 100, None),
            span("a", 20, 60, Some(0)),
            span("b", 50, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_closes_them() {
        let mut t = Tracer::new(Instant::now());
        let v = t.span("eval", 7, || 1);
        assert_eq!(v, 1);
        let outer = t.enter("outer", 8);
        t.span("inner", 8, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].eval, 8);
        assert!(s[1].start <= s[2].start && s[2].end <= s[1].end);
        let st = self_times(s, 0);
        assert_eq!(st[1], s[1].dur() - s[2].dur());
        assert!(s[2].dur() >= 1_000_000);
    }
}
