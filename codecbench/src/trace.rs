//! In-memory spans of the traced run.
//!
//! The benchmark records every span itself, around a call into one
//! layer's public API; the program under test carries no probes. A span
//! has a name, a start and an end relative to the run's origin, the span
//! that caused it, the client thread that ran it, and the id of the push
//! (or captured scene) it belongs to, so the spans of one frame share an
//! id. Spans stay in memory until the run ends and are then written out
//! as JSON lines.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::quote;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `"stream.parse"`.
    pub name: &'static str,
    /// The push or captured scene the span belongs to.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Client thread that recorded the span.
    pub client: usize,
    /// Start, µs after the run's origin.
    pub start_us: f64,
    /// End, µs after the run's origin.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The span recorder of one client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    client: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose times count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, client: usize) -> Tracer {
        Tracer {
            origin,
            client,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            name,
            id,
            parent,
            client: self.client,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let result = f();
        let span = self.record(name, id, parent, start, Instant::now());
        (result, span)
    }

    /// Appends another client's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Durations (ms) of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// `(duration, summed durations of its direct children)`, in ms, of
    /// every span named `name`.
    #[must_use]
    pub fn with_children_ms(&self, name: &str) -> Vec<(f64, f64)> {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.ms();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.ms(), c))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error that stopped the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"span\": {i}, \"name\": {}, \"id\": {}, \"parent\": {parent}, \
                 \"client\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                quote(s.name),
                s.id,
                s.client,
                s.start_us,
                s.end_us
            )?;
        }
        file.flush()
    }
}
