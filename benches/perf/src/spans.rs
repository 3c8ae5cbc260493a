//! The benchmark's in-memory span recorder: spans are taken around
//! calls into the crates' public functions, kept in a `Vec`, and
//! written out as a Chrome trace when the traced run ends.

use crate::counters::{Counters, NAMES};
use pq_obs::json::Value;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder
/// was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Registry counters' movement between the span's boundaries, so
    /// ratios are taken where the work happened.
    pub counts: Counters,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_s(&self) -> f64 {
        self.dur_ns() as f64 / 1e9
    }
}

/// Spans of one traced run; every span carries the run's identifier.
/// A recorder that is [`off`](Recorder::off) records nothing, so the
/// untraced and the traced run execute the same pipeline code.
pub struct Recorder {
    run_id: Option<String>,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: impl Into<String>) -> Recorder {
        Recorder {
            run_id: Some(run_id.into()),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The recorder of an untraced run: `scope` only calls through.
    pub fn off() -> Recorder {
        Recorder {
            run_id: None,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if self.run_id.is_none() {
            return f(self);
        }
        let id = self.spans.len();
        let before = Counters::read();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Counters::default(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counts = Counters::read().since(&before);
        out
    }

    /// Insert an already-measured span (tests build trees this way).
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            counts: Counters::default(),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the last span named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time: the span's duration minus the part of its interval
    /// that its direct children cover (overlapping children are
    /// counted once, children are clipped to the parent).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }

    /// Is `id` the span `root` or below it?
    fn within(&self, id: usize, root: usize) -> bool {
        let mut up = Some(id);
        while let Some(i) = up {
            if i == root {
                return true;
            }
            up = self.spans[i].parent;
        }
        false
    }

    /// Total duration of the spans named `name` at or below `root`,
    /// seconds.
    pub fn total_s(&self, root: usize, name: &str) -> f64 {
        (root..self.spans.len())
            .filter(|&id| self.spans[id].name == name && self.within(id, root))
            .map(|id| self.spans[id].dur_s())
            .fold(0.0, |a, b| a + b)
    }

    /// Sum of the self times of `root` and everything below it; equals
    /// `root`'s duration when the tree is well formed.
    pub fn subtree_self_ns(&self, root: usize) -> u64 {
        (root..self.spans.len())
            .filter(|&id| self.within(id, root))
            .map(|id| self.self_ns(id))
            .sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps;
    /// span index, parent index, run id, self time and the non-zero
    /// counter deltas in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let run = self.run_id.as_deref().unwrap_or("");
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Value::obj().with("id", id).with("run", run);
                if let Some(p) = s.parent {
                    args.set("parent", p);
                }
                args.set("self_us", self.self_ns(id) as f64 / 1e3);
                for (name, &v) in NAMES.iter().zip(&s.counts.v) {
                    if v > 0 {
                        args.set(name, v);
                    }
                }
                Value::obj()
                    .with("name", s.name.as_str())
                    .with("cat", "pq-perf")
                    .with("ph", "X")
                    .with("pid", 1u32)
                    .with("tid", 1u32)
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", s.dur_ns() as f64 / 1e3)
                    .with("args", args)
            })
            .collect();
        Value::obj().with("traceEvents", events).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let mut r = Recorder::new("t");
        let root = r.record("root", None, 0, 1000);
        let a = r.record("a", Some(root), 100, 400);
        let _a1 = r.record("a1", Some(a), 150, 250);
        let _b = r.record("b", Some(root), 400, 700);
        let _a_again = r.record("a", Some(root), 700, 750);
        assert_eq!(r.self_ns(root), 1000 - 300 - 300 - 50);
        // A grandchild reduces its parent's self time, not the root's.
        assert_eq!(r.self_ns(a), 300 - 100);
        assert_eq!(r.subtree_self_ns(root), 1000);
        assert!((r.total_s(root, "a") - 350e-9).abs() < 1e-15);
        assert_eq!(r.total_s(a, "b"), 0.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut r = Recorder::new("t");
        let root = r.record("root", None, 100, 1100);
        r.record("x", Some(root), 200, 600);
        r.record("y", Some(root), 500, 800);
        r.record("late", Some(root), 1000, 1500);
        // Covered: [200,800) ∪ [1000,1100) = 700.
        assert_eq!(r.self_ns(root), 1000 - 700);
    }

    #[test]
    fn scope_nests_and_exports() {
        let mut r = Recorder::new("run-7");
        let answer = r.scope("outer", |r| r.scope("inner", |_| 41 + 1));
        assert_eq!(answer, 42);
        let (outer, inner) = (r.find("outer").unwrap(), r.find("inner").unwrap());
        assert_eq!(r.spans()[inner].parent, Some(outer));
        assert_eq!(r.spans()[outer].parent, None);
        assert!(r.spans()[outer].end_ns >= r.spans()[inner].end_ns);
        let trace = Value::parse(&r.to_chrome_trace()).unwrap();
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[inner].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(outer as u64));
        assert_eq!(args.get("run").unwrap().as_str(), Some("run-7"));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut r = Recorder::off();
        assert_eq!(r.scope("x", |r| r.scope("y", |_| 7)), 7);
        assert!(r.spans().is_empty());
    }
}
