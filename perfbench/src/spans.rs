//! In-memory spans recorded by the traced run around each call into a
//! layer. Spans of one request (or one solved instance) share an `id`;
//! `parent` indexes the enclosing span in the same recorder. Nothing is
//! written until [`Spans::write_ndjson`] at the end of the run.

use std::io::Write;
use std::time::Instant;

/// One finished span; times are microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder. A disabled one (the untraced run) records nothing.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    recs: Vec<SpanRec>,
}

impl Default for Spans {
    /// A disabled recorder.
    fn default() -> Spans {
        Spans::new(Instant::now(), false)
    }
}

impl Spans {
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        Spans {
            origin,
            enabled,
            recs: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span that ran from `start` to `end`; returns its index
    /// for use as a child's `parent`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.recs.push(SpanRec {
            id,
            name,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
        Some(self.recs.len() - 1)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, start, Instant::now());
        out
    }

    /// Append another recorder's spans (from another thread), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Spans) {
        let offset = self.recs.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_secs_f64()
            * 1e6;
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + offset);
            r.start_us += shift;
            r.end_us += shift;
            r
        }));
    }

    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Mean duration (µs) of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> (f64, u64) {
        let (n, total) = self
            .recs
            .iter()
            .filter(|r| r.name == name)
            .fold((0u64, 0.0), |(n, t), r| (n + 1, t + r.dur_us()));
        if n == 0 {
            (0.0, 0)
        } else {
            (total / n as f64, n)
        }
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                r.id, r.name, r.start_us, r.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(Instant::now(), false);
        assert_eq!(s.time(1, "x", None, || 5), 5);
        assert!(s.records().is_empty());
    }

    #[test]
    fn merge_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Spans::new(origin, true);
        a.time(1, "a.root", None, || ());
        let mut b = Spans::new(origin, true);
        let p = b.record(2, "b.root", None, origin, Instant::now());
        b.record(2, "b.child", p, origin, Instant::now());
        a.merge(b);
        let recs = a.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].parent, Some(1));
        assert_eq!(recs[2].id, 2);
        assert_eq!(a.mean_us("b.child").1, 1);
    }
}
