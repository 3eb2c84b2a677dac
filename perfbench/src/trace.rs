//! In-memory span recorder for the traced run.
//!
//! One span per public call the benchmark makes: its name, start, end,
//! the span that enclosed it and the repetition it belongs to. Spans
//! stay in memory while the run measures and are written out as NDJSON
//! when it ends. A disabled tracer only calls the closure, so the
//! untraced repetitions run the very same code.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (the per-layer metric stem, e.g. `channel.trace`).
    pub name: &'static str,
    /// Repetition the call belongs to.
    pub rep: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; a pass-through when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans named `name`, per repetition
    /// that recorded any span at all.
    pub fn ms_per_rep(&self, name: &str) -> Vec<f64> {
        let mut per_rep: BTreeMap<u32, f64> = self.spans.iter().map(|s| (s.rep, 0.0)).collect();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_rep.entry(s.rep).or_default() += s.ms();
        }
        per_rep.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","rep":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.rep, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
