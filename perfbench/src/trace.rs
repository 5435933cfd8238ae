//! Spans recorded by the benchmark around its calls into the layers: kept
//! in memory during a traced run and written out when it ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call: nanoseconds since the tracer started, and the span that
/// was open when it began.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span log. Spans nest: a span opened with [`Tracer::open`]
/// parents every span recorded until it is closed.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished call that started at `start` and ended at `end`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Opens a span at `start` that parents later records; returns its id.
    pub fn open(&mut self, name: &'static str, start: Instant) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` at `end`.
    pub fn close(&mut self, id: usize, end: Instant) {
        assert_eq!(self.open.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.ns(end);
    }

    /// True while a span opened with [`Tracer::open`] is still open.
    pub fn in_span(&self) -> bool {
        !self.open.is_empty()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of the spans named `name`: their duration minus the part
    /// their child spans cover (children never overlap one another).
    pub fn self_secs(&self, name: &str) -> f64 {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.secs() - c)
            .sum()
    }

    /// Writes the spans as tab-separated `id parent name start_ns end_ns`
    /// lines (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let t0 = t.t0;
        let at = |ms| t0 + Duration::from_millis(ms);
        let root = t.open("run_service", at(0));
        t.record("apply_batch", at(1), at(4));
        t.record("answer_queries", at(5), at(6));
        t.close(root, at(10));
        t.record("apply_batch", at(11), at(13));
        assert!((t.self_secs("run_service") - 0.006).abs() < 1e-12);
        assert!((t.self_secs("apply_batch") - 0.005).abs() < 1e-12);
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.spans[1].parent, Some(root));
    }
}
