//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the library is
//! instrumented. A span's *self time* is its duration minus the part
//! of its interval covered by its direct children. Work run
//! [`Tracer::outside`] the trace counts toward neither the spans nor
//! the traced wall.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `packets.synthesize`.
    pub name: &'static str,
    /// Request identifier shared by the spans of one unit of work
    /// (window index, query index, shard); 0 when there is none.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
    outside_ns: u64,
}

impl Tracer {
    /// Start a trace; the traced wall time runs from here.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
            outside_ns: 0,
        }
    }

    /// A tracer that records nothing: the same code runs untraced,
    /// which is what the tracing overhead is measured against.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` for request `id`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Run `f` outside the trace, between spans: its time is left out
    /// of the traced wall.
    pub fn outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        assert!(self.open.is_empty(), "untraced work runs between spans");
        let start_ns = self.now_ns();
        let out = f();
        self.outside_ns += self.now_ns() - start_ns;
        out
    }

    /// Traced wall time: nanoseconds since the trace started, less the
    /// time spent [`Tracer::outside`] it.
    pub fn wall_ns(&self) -> u64 {
        self.now_ns() - self.outside_ns
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Tracing overhead of `run`: it runs traced into `tr`, then outside
/// the trace untraced, traced into a scratch tracer, and untraced
/// again. Returns the four outputs in that order, and the faster
/// traced and the faster untraced wall time in seconds.
pub fn overhead_runs<R>(
    tr: &mut Tracer,
    mut run: impl FnMut(&mut Tracer) -> R,
) -> ([R; 4], f64, f64) {
    let mut timed = |tr: &mut Tracer| {
        let t0 = Instant::now();
        let out = run(tr);
        (out, t0.elapsed().as_secs_f64())
    };
    let (t1, t1_s) = timed(tr);
    let ((u1, u1_s), (t2, t2_s), (u2, u2_s)) = tr.outside(|| {
        (
            timed(&mut Tracer::disabled()),
            timed(&mut Tracer::new()),
            timed(&mut Tracer::disabled()),
        )
    });
    ([t1, u1, t2, u2], t1_s.min(t2_s), u1_s.min(u2_s))
}

/// Self time of every span in ns: its duration minus the union of its
/// direct children's intervals, clipped to its own interval.
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
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(summed self time in ns, span count)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += self_ns;
        e.1 += 1;
    }
    by_name
}

/// Share of the traced wall time covered by no span at all.
pub fn unaccounted_frac(spans: &[Span], wall_ns: u64) -> f64 {
    let accounted: u64 = self_times_ns(spans).iter().sum();
    (wall_ns as f64 - accounted as f64) / wall_ns.max(1) as f64
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 35),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 10, 20, 10]);
        // The self times partition the root's interval.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 140, 160),
            span("c", Some(0), 190, 250),
        ];
        // Union of children inside [100, 200]: [100, 160] ∪ [190, 200].
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_time_by_name_sums_and_counts() {
        let spans = [
            span("w", None, 0, 10),
            span("x", Some(0), 2, 5),
            span("w", None, 10, 30),
            span("x", Some(2), 12, 22),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["w"], (7 + 10, 2));
        assert_eq!(by_name["x"], (3 + 10, 2));
    }

    #[test]
    fn unaccounted_is_the_gap_between_wall_and_spans() {
        let spans = [span("a", None, 0, 30), span("b", None, 50, 80)];
        assert!((unaccounted_frac(&spans, 100) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn overhead_runs_trace_only_into_the_scratch_and_main_tracers() {
        let mut t = Tracer::new();
        let mut calls = 0;
        let (outs, traced_s, untraced_s) = overhead_runs(&mut t, |tr| {
            calls += 1;
            tr.span("work", 0, |_| calls)
        });
        assert_eq!(outs, [1, 2, 3, 4]);
        assert_eq!(
            t.spans().len(),
            1,
            "only the first run records into the main tracer"
        );
        assert!(traced_s >= 0.0 && untraced_s >= 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_keeps_them_in_order() {
        let mut t = Tracer::new();
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.wall_ns() >= spans[0].end_ns);
        let before = t.wall_ns();
        t.outside(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.wall_ns() - before < 20_000_000);
        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
