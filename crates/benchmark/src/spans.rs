//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and a count
//! of the work done inside it. Spans live in memory until the process
//! ends and are then written out as one JSON file. A layer's *self time*
//! is its spans' duration minus what their child spans cover; every
//! micro metric is a count divided by a self time (or the inverse).

use std::collections::BTreeMap;
use std::time::Instant;

use vf2boost_core::json::{render_array, JsonObj};

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hist_enc.add`.
    pub name: &'static str,
    /// Identifier shared by all spans of one round.
    pub round: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds.
    pub start_ns: u64,
    /// End, in nanoseconds (0 while the span is open).
    pub end_ns: u64,
    /// Units of work done inside (operations, bytes, rows, …).
    pub count: u64,
}

/// Self time and work of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time, in seconds.
    pub self_s: f64,
    /// Summed count.
    pub count: u64,
}

impl LayerTotal {
    /// Seconds of self time per unit of work.
    pub fn secs_per_unit(&self) -> f64 {
        self.self_s / self.count as f64
    }

    /// Units of work per second of self time.
    pub fn units_per_sec(&self) -> f64 {
        self.count as f64 / self.self_s
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), round: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A span opened at the top
    /// level starts a new round.
    pub fn open(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.round += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, crediting it
    /// with `count` units of work.
    pub fn close(&mut self, id: usize, count: u64) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
        self.spans[id].count = count;
    }

    /// Times `work` as one span; `work` returns its result and its count.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> (T, u64)) -> T {
        let id = self.open(name);
        let (out, count) = work();
        self.close(id, count);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
    }

    /// Span `id`'s duration minus the durations of its direct children.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_s(c))
            .sum();
        self.duration_s(id) - children
    }

    /// Self time and count per span name, over every span below `root`
    /// (the root itself excluded: its self time is the harness's glue).
    pub fn totals_under(&self, root: usize) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for id in 0..self.spans.len() {
            let mut up = self.spans[id].parent;
            while up.is_some() && up != Some(root) {
                up = up.and_then(|p| self.spans[p].parent);
            }
            if up == Some(root) {
                let t = out.entry(self.spans[id].name).or_default();
                t.self_s += self.self_s(id);
                t.count += self.spans[id].count;
            }
        }
        out
    }

    /// Renders every span as a JSON array (one object per span).
    pub fn to_json(&self, indent: usize) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = JsonObj::new();
                o.u64("id", id as u64).str("name", s.name).u64("round", u64::from(s.round));
                match s.parent {
                    Some(p) => o.u64("parent", p as u64),
                    None => o.raw("parent", "null"),
                };
                o.u64("start_ns", s.start_ns).u64("end_ns", s.end_ns).u64("count", s.count);
                o.render(indent + 2)
            })
            .collect();
        render_array(&rows, indent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children_and_rounds_are_shared() {
        let mut t = Tracer::new();
        let root = t.open("round");
        let a = t.open("layer.a");
        std::thread::sleep(Duration::from_millis(3));
        let inner = t.open("layer.b");
        std::thread::sleep(Duration::from_millis(3));
        t.close(inner, 7);
        t.close(a, 2);
        t.time("layer.b", || (std::thread::sleep(Duration::from_millis(2)), 3));
        t.close(root, 1);
        let second = t.open("micro");
        t.close(second, 0);

        let spans = &t.spans;
        assert_eq!(spans[a].parent, Some(root));
        assert_eq!(spans[inner].parent, Some(a));
        assert!(spans[..4].iter().all(|s| s.round == 1));
        assert_eq!(spans[second].round, 2);
        assert!((t.self_s(a) - (t.duration_s(a) - t.duration_s(inner))).abs() < 1e-12);

        let totals = t.totals_under(root);
        assert_eq!(totals["layer.b"].count, 10);
        assert_eq!(totals["layer.a"].count, 2);
        assert!(!totals.contains_key("round") && !totals.contains_key("micro"));
        // Self times below the root plus the root's own add up to the root.
        let below: f64 = totals.values().map(|l| l.self_s).sum();
        assert!((below + t.self_s(root) - t.duration_s(root)).abs() < 1e-9);
        assert!(vf2boost_core::json::parse(&t.to_json(0)).is_ok());
    }
}
