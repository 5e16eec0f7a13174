//! In-memory spans recorded around calls into the service's layers.
//!
//! Each recorder belongs to one thread and appends to its own vector, so
//! recording takes no lock. A span has a name, start and end (nanoseconds
//! since the run's epoch), a parent span on the same thread, and the id
//! of the request it belongs to. Recorders are merged and written out as
//! JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `registry.answer`.
    pub name: &'static str,
    /// Nanoseconds from the epoch to the call.
    pub start_ns: u64,
    /// Nanoseconds from the epoch to its return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request (or replayed dialogue step) this call served.
    pub request: u64,
}

impl Span {
    /// The span's length in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span recorder. A disabled recorder records nothing, so
/// the untraced run pays only for the branch.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Recorder id, written into every span's id.
    pub thread: usize,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread `thread` timing from `epoch`.
    pub fn new(epoch: Instant, thread: usize, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            thread,
            spans: Vec::new(),
        }
    }

    /// Starts or stops recording new spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let out = f();
        self.end(span);
        out
    }

    /// Durations (µs) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Sum of durations (µs) of every span called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends every span as one JSON line:
    /// `{"id","parent","request","name","start_ns","end_ns"}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(
                || "null".to_string(),
                |p| format!("\"{}.{p}\"", self.thread),
            );
            writeln!(
                out,
                "{{\"id\":\"{}.{i}\",\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.thread, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes every recorder's spans to `path` (replacing it).
pub fn write_all(path: &Path, recorders: &[&Recorder]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in recorders {
        r.write_jsonl(&mut out)?;
    }
    out.flush()?;
    Ok(recorders.iter().map(|r| r.len()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_serialize() {
        let mut r = Recorder::new(Instant::now(), 3, true);
        let outer = r.begin("outer", None, 7);
        r.time("inner", outer, 7, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        r.end(outer);
        assert!(r.total_us("inner") >= 1_000.0);
        assert_eq!(r.count("inner"), 1);
        assert!(r.total_us("outer") >= r.total_us("inner"));
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"id\":\"3.1\",\"parent\":\"3.0\",\"request\":7,\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let s = r.begin("x", None, 0);
        r.end(s);
        assert_eq!(r.len(), 0);
    }
}
