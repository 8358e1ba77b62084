//! In-memory spans around the calls the per-layer suite times.
//!
//! Every timed call runs inside [`Tracer::span`], which records its name,
//! start, end, parent span and an id (the repetition, sample or request
//! number). Spans stay in memory and are written out once, when the suite
//! ends; metrics are span self times — duration minus the time covered by
//! child spans — plus exact counts recorded next to them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    id: u64,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
    child_ns: u128,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's self
    /// time in nanoseconds.
    pub fn span<R>(&mut self, name: &str, id: u64, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos(),
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(idx);
        let out = std::hint::black_box(f(self));
        let end = self.epoch.elapsed().as_nanos();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let total = end - span.start_ns;
        let self_ns = total.saturating_sub(span.child_ns);
        if let Some(p) = span.parent {
            self.spans[p].child_ns += total;
        }
        (out, self_ns as f64)
    }

    /// A leaf span around a closure that needs no tracer.
    pub fn time<R>(&mut self, name: &str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.span(name, id, |_| f())
    }

    /// Writes every span as one JSON line: name, id, parent index, start,
    /// end and self time in nanoseconds since the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(s.child_ns)
            )?;
        }
        out.flush()
    }
}
