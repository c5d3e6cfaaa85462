//! In-memory spans, recorded by the benchmark around its calls into
//! each layer. One tracer per client thread; every span of one
//! workload op carries that op's id.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Workload op this call belongs to.
    pub op: u64,
    /// Layer and call, e.g. `op.calcviewer_load` or `dsi.read`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one client. Disabled tracers record nothing and
/// cost one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    /// Finished spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `epoch` (shared by every client of a run).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is it recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns a handle for [`end`](Self::end).
    pub fn begin(&mut self, op: u64, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.open.is_empty() {
            self.op = op;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Some(idx)
    }

    /// Open a child of the current span (inherits its op id).
    pub fn child(&mut self, name: &'static str) -> Option<usize> {
        let op = self.op;
        self.begin(op, name)
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.open.retain(|&i| i != idx);
        }
    }
}

/// Per-span self time: the span minus the time its direct children
/// cover (children of one client never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Write every client's spans as tab-separated lines
/// `client op name parent start_ns end_ns` (parent `-` for roots).
pub fn write_spans(path: &std::path::Path, clients: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client\top\tname\tparent\tstart_ns\tend_ns")?;
    for (c, spans) in clients.iter().enumerate() {
        for s in spans.iter() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{c}\t{}\t{}\t{parent}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(Instant::now());
        assert!(
            t.begin(1, "op").is_none(),
            "disabled tracer records nothing"
        );
        t.set_enabled(true);
        let op = t.begin(7, "op");
        let a = t.child("dsi.read");
        t.end(a);
        let b = t.child("dsi.write");
        t.end(b);
        t.end(op);
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.op == 7));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let self_ns = self_times(&t.spans);
        assert_eq!(
            self_ns[0],
            t.spans[0].ns() - t.spans[1].ns() - t.spans[2].ns()
        );
        assert_eq!(self_ns[1], t.spans[1].ns());
    }
}
