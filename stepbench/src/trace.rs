//! Spans recorded from outside the program: the harness wraps each call
//! into a crate's public function in a span, keeps the spans in memory
//! and writes them out when the run ends.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// The workload step (or setup repetition) the span belongs to.
    pub step: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, step: usize) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            step,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    /// Close a span and return its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id - 1];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Run `f` inside a span; returns its result and duration (ms).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        step: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, step);
        let r = f();
        (r, self.end(id))
    }

    /// Self time (ms) of every span, grouped by name: its duration minus
    /// the time its children cover. Children never overlap (every call
    /// is made from one thread), so that is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, Samples> {
        let mut out: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent] += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .zip(&child_ns[1..])
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Tab-separated span file: id, parent, step, name, start, end (µs
    /// from the run's start) and self time (µs).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tstep\tname\tstart_us\tend_us\tself_us\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
                i + 1,
                s.parent,
                s.step,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("step", 0, 0);
        t.time("a", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.end(root);
        let st = t.self_times();
        let children = st["a"].sum() + st["b"].sum();
        assert!((st["step"].sum() + children - total).abs() < 1e-6);
        assert!(st["step"].sum() < total);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }
}
