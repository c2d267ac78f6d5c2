//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end, the span that caused it, and the
//! request it belongs to. Spans stay in memory while the workload runs and
//! are written out once at exit; a layer's self time is its span's length
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Opened by [`Tracer::enter`], closed by [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per span name: how many spans, their summed length and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, req);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Sums count, length and self time per span name. Children may overlap
/// each other or stick out of their parent; only the union of their
/// intervals clipped to the parent is subtracted.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns - s.start_ns;
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a", 20, 50, Some(0)),  // overlaps the first child
            span("b", 90, 120, Some(0)), // sticks out of the parent
            span("leaf", 25, 28, Some(2)),
        ];
        let t = totals(&spans);
        // Children cover [10, 50] and [90, 100]: 50 of the root's 100 ns.
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_ns, 20 + 30);
        assert_eq!(t["a"].self_ns, 20 + 27);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 3);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer", 7);
        tr.span("inner", 7, || std::hint::black_box(1 + 1));
        tr.exit(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].req, 7);
        let t = tr.totals();
        assert_eq!(
            t["outer"].self_ns + t["inner"].total_ns,
            t["outer"].total_ns
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.enter("x", 0);
        tr.exit(o);
        assert!(tr.spans().is_empty());
    }
}
