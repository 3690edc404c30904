//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a library layer; nothing inside the library is instrumented.
//! Every span carries a name, start and end (nanoseconds since the
//! tracer was created), the index of its parent span and the id of the
//! operation (one fit, one online batch) it belongs to. The spans stay
//! in memory until [`Tracer::write_jsonl`] is called once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `"neighbors"` or `"serve.assign"`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every open span down to and including `id` — the unwinding
    /// of a composition that returned early with an error.
    pub fn close_to(&mut self, id: usize) {
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = self.now_ns();
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Self times (seconds) of every span named `name` under operations
    /// for which `keep_op` holds.
    pub fn self_secs(&self, name: &str, keep_op: impl Fn(u64) -> bool) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && keep_op(s.op))
            .map(|(_, t)| t as f64 * 1e-9)
            .collect()
    }

    /// Durations (seconds) of every span named `name` under operations
    /// for which `keep_op` holds.
    pub fn durations_secs(&self, name: &str, keep_op: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep_op(s.op))
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines, one object per span with its self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes [`Tracer::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// A span's duration minus the part of its interval covered by its
/// direct children (overlapping children count once; a child sticking
/// out of its parent counts only inside it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
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
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = b;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("fit", None, 0, 100),
            span("neighbors", Some(0), 10, 30),
            span("inner", Some(1), 12, 20),
            span("merge", Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 12, 8, 50]);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 130),
        ];
        // Covered: [10, 60) and [90, 100) = 60 of 100.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::default();
        let root = t.enter("fit", 7);
        let x = t.span("label", 7, || 41 + 1);
        t.exit(root);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"name\":\"label\",\"op\":7,\"parent\":0"));
        assert_eq!(t.self_secs("label", |op| op == 7).len(), 1);
        assert!(t.self_secs("label", |op| op == 8).is_empty());
    }

    #[test]
    fn close_to_unwinds_spans_left_open() {
        let mut t = Tracer::default();
        let root = t.enter("fit", 0);
        let _stage = t.enter("merge", 0);
        t.close_to(root);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let next = t.enter("fit", 1);
        assert_eq!(t.spans()[next].parent, None);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::default();
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}
