//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out once the run is over.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
    detail: String,
}

/// Span recorder. Span ids are indices; a span's parent is the span that
/// caused it, and every span of a run shares the run's trace id.
#[derive(Debug)]
pub struct Tracer {
    trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(trace_id: String) -> Self {
        Tracer {
            trace_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s: now,
            end_s: now,
            detail: String::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Records a finished span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        detail: String,
    ) -> f64 {
        let start_s = start.duration_since(self.origin).as_secs_f64();
        let end_s = end.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s,
            end_s,
            detail,
        });
        end_s - start_s
    }

    /// Attaches a free-form `key=value` detail to a span.
    pub fn annotate(&mut self, id: usize, detail: String) {
        self.spans[id].detail = detail;
    }

    /// Writes the `header` line, then one JSON object per span in
    /// recording order.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = format!("{header}\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_s\":{},\"end_s\":{},\"detail\":\"{}\"}}",
                self.trace_id, span.name, span.start_s, span.end_s, span.detail
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
