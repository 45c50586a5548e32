//! Spans recorded from `spine`'s own files, around each call into the
//! crates (through `surface.rs`), with the counts taken at the same
//! boundary. Spans live in memory and are written once, at exit. Spans
//! *inside* the crates are a later issue; until then a layer the trace
//! cannot see into shows up as the self time of the span around it.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is an index into the same trace.
#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder. One per thread; [`Tracer::absorb`] merges.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so merged spans line up.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op_id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Attach a count taken at the span's boundary.
    pub fn count(&mut self, id: usize, what: &'static str, n: u64) {
        self.spans[id].counts.push((what, n));
    }

    /// Time `f` as a child span.
    pub fn time<T>(
        &mut self,
        op_id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.begin(op_id, name, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Fold another thread's spans in, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, by index: its duration minus the part of
    /// its interval its direct children cover. Overlapping children are
    /// counted once and a child is clipped to its parent's interval.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(me, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = me.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(me.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (me.end_ns - me.start_ns) - covered
            })
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"wall\", \"spans\": [",
            json::quote(workload)
        );
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"op_id\": {}, \"name\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                s.op_id,
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
            if !s.counts.is_empty() {
                out.push_str(", \"counts\": {");
                for (k, (what, n)) in s.counts.iter().enumerate() {
                    let sep = if k > 0 { ", " } else { "" };
                    let _ = write!(out, "{sep}{}: {n}", json::quote(what));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op_id: 1,
            name: "t",
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(0), 30, 60),  // 2: child overlapping 1 by 10
            span(Some(1), 15, 25),  // 3: grandchild, not the root's business
            span(Some(0), 90, 120), // 4: child running past the root's end
            span(None, 0, 100),     // 5: a sibling root
        ];
        // Children of the root cover [10,60) and [90,100): 60 of 100.
        // Span 1 has one child of 10.
        assert_eq!(t.self_ns(), [40, 20, 30, 10, 30, 100]);
    }

    #[test]
    fn absorb_keeps_parent_links_and_json_parses() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin(1, "op", None);
        let ((), kid) = a.time(1, "jpeg.parse", Some(root), || ());
        a.count(kid, "bytes", 42);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let r2 = b.begin(2, "op", None);
        b.time(2, "jpeg.parse", Some(r2), || ());
        b.end(r2);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[1].counts, [("bytes", 42)]);
        let doc = json::parse(&a.to_json("w", 7)).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }
}
