//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. The program itself carries no span of this tracer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the operation it belongs to. Spans stay
//! in memory until the run ends. A span's self time is its duration minus
//! the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A handle to an open span; `None` when tracing is off.
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

/// Per-name totals over all spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder of one thread. With tracing off every call is a
/// branch on `on` and nothing is recorded.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), op: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// Switches recording on or off (off leaves recorded spans in place).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the next operation: spans entered from now on carry its id.
    pub fn next_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in the order they opened");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total time and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Total span time of `name` in microseconds, divided by `per`.
    pub fn us_per(&self, layers: &BTreeMap<&'static str, Layer>, name: &str, per: u64) -> f64 {
        layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3 / per.max(1) as f64)
    }

    /// Mean duration of one `name` span in microseconds.
    pub fn us_per_call(&self, layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
        layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3 / l.count.max(1) as f64)
    }

    /// The spans as tab-separated text: `op parent start_ns end_ns name`,
    /// one per line, `-` for a root span.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("op\tparent\tstart_ns\tend_ns\tname\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{}\t{parent}\t{}\t{}\t{}", s.op, s.start_ns, s.end_ns, s.name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op(1);
        let outer = t.enter("outer");
        t.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(outer);
        let layers = t.layers();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == 1));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s);
        assert_eq!(t.time("y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
