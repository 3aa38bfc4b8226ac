//! Span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around every call into
//! the product (client calls on the wire, public functions in the layer
//! probes). They stay in memory and are written out once, at exit. Spans
//! *inside* the product crates are a later change (ROADMAP item 1a).

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id; 0 means "no span".
    pub id: u32,
    /// Id of the span that caused this one, 0 at the top level.
    pub parent: u32,
    /// Shared by all spans of one request; 0 for spans that serve no request.
    pub request: u64,
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store. Recording is a bounds-checked push; with `on`
/// false every call returns immediately, which is what the plain rounds of
/// a traced pass run with.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether spans are currently recorded.
    pub on: bool,
    next_request: u64,
}

impl Trace {
    /// A recorder, initially off.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            on: false,
            next_request: 0,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval; returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        len: Duration,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns + len.as_nanos() as u64,
        });
        id
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        self.record(name, parent, 0, Instant::now(), Duration::ZERO)
    }

    /// Closes a span opened with [`Trace::begin`].
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = now;
        }
    }

    /// Times `f` under a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, 0, start, start.elapsed());
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the part its direct children cover, summed by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// Writes `{"workload", "self_time_ns": {...}, "spans": [...]}`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"self_time_ns\":{{");
        for (i, (name, ns, count)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"ns\":{ns},\"spans\":{count}}}");
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}
