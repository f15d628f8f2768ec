//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer, kept
//! in memory, and written out when the run ends. *Session* spans
//! partition a session's wall (their parent is the session's root span,
//! whose self time is the unattributed remainder); *probe* spans time
//! standalone re-invocations of a layer and stay out of attribution.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every session or leg.
pub const ROOT: &str = "session";

/// Which ledger a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Part of a session's wall.
    Session,
    /// A standalone layer re-invocation.
    Probe,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub session: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new session id; spans recorded from here on carry it.
    pub fn start_session(&mut self) {
        self.session += 1;
    }

    /// Opens a span named `name`; spans opened before it closes nest in it.
    pub fn begin(&mut self, name: &'static str, kind: Kind) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            kind,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            session: self.session,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span [`begin`](Self::begin) returned.
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close in LIFO order");
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, kind);
        let out = f();
        self.end(span);
        out
    }

    /// Closes spans left open by an unwind out of a session.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
                s.name, s.kind, s.start_ns, s.end_ns, s.session
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals of one kind of span.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub self_ns: u64,
}

/// Self time per span name, for spans of `kind`.
pub fn totals(spans: &[Span], kind: Kind) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.kind == kind {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
        }
    }
    out
}

/// Wall of all session root spans.
pub fn session_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.kind == Kind::Session && s.name == ROOT)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            kind: Kind::Session,
            start_ns,
            end_ns,
            parent,
            session: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("deploy", 10, 40, Some(0)),
            span("analyze", 40, 90, Some(0)),
            span("inner", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn child_overhang_is_clipped_to_the_parent() {
        let spans = vec![span(ROOT, 10, 50, None), span("deploy", 0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![20, 30]);
    }

    #[test]
    fn totals_partition_the_session_wall() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("deploy", 0, 60, Some(0)),
            span(ROOT, 100, 150, None),
            span("deploy", 100, 120, Some(2)),
            span("analyze", 120, 145, Some(2)),
        ];
        let t = totals(&spans, Kind::Session);
        assert_eq!(t["deploy"].self_ns, 80);
        assert_eq!(t["deploy"].calls, 2);
        assert_eq!(t["analyze"].self_ns, 25);
        assert_eq!(t[ROOT].self_ns, 45);
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, session_wall_ns(&spans));
    }

    #[test]
    fn tracer_nests_and_skips_when_disabled() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.time("x", Kind::Probe, || 3), 3);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.start_session();
        let root = tr.begin(ROOT, Kind::Session);
        let v = tr.time("deploy", Kind::Session, || 5);
        tr.end(root);
        assert_eq!(v, 5);
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].session, 1);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
    }
}
