//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded only in the traced run. Each thread fills its
//! own [`SpanBuf`] (no shared lock on the measured path) and hands it
//! to the [`Tracer`] when it finishes; the whole trace is written as
//! JSON lines when the benchmark exits.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the span that caused this one (0 = root).
    pub parent: u64,
    /// Request the span belongs to (0 = none).
    pub req: u64,
    /// Layer boundary, e.g. `serve.tcp.roundtrip`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Numbers the layer reported for this call (e.g. `ResponseMeta`).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The named argument, if recorded.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Collects spans from every thread; disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A disabled tracer.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A per-thread buffer; spans reach the tracer on [`SpanBuf::flush`].
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf { tracer: self, spans: Vec::new() }
    }

    /// A fresh id, for requests and spans alike.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span flushed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panicked").clone()
    }

    /// Write all spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let args: Vec<String> = s.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"args\":{{{}}}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                args.join(",")
            )?;
        }
        w.flush()
    }
}

/// One thread's span buffer.
pub struct SpanBuf<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Record a finished interval; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, u64)>,
    ) -> u64 {
        if !self.tracer.enabled {
            return 0;
        }
        let id = self.tracer.next_id();
        let (start_ns, end_ns) = (self.tracer.ns(start), self.tracer.ns(end));
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns, args });
        id
    }

    /// Run `f` inside a span (just runs it when disabled).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tracer.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now(), Vec::new());
        out
    }

    /// Hand the buffered spans to the tracer.
    pub fn flush(self) {
        if !self.spans.is_empty() {
            self.tracer.spans.lock().expect("no span writer panicked").extend(self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let mut b = t.buf();
        assert_eq!(b.time("x", 0, 0, || 3), 3);
        b.flush();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_keep_parent_request_and_args() {
        let t = Tracer::new(true);
        let mut b = t.buf();
        let now = Instant::now();
        let root = b.record("root", 0, 9, now, now, vec![("e2e_ns", 5)]);
        b.time("child", root, 9, || ());
        b.flush();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[0].arg("e2e_ns"), Some(5));
        assert_eq!(spans[1].name, "child");
    }
}
