//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. Spans live in memory while the run measures and are written
//! out as JSON lines once it ends, so file I/O never lands inside a span.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
struct Span {
    name: &'static str,
    query: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans against one epoch. Spans opened while another is open
/// become its children.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for `query`; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, query: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, query);
        let out = f();
        self.exit();
        out
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line: name, query id,
    /// parent span index, start and end in nanoseconds from the epoch.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"query\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_nest_inside_their_parent() {
        let mut t = Tracer::new();
        t.enter("query", 7);
        t.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        assert!(t.total_ms("child") >= 5.0);
        assert!(t.total_ms("query") >= t.total_ms("child"));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.count("child"), 1);
    }
}
