//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (it changes no program code): name, start, end, parent span and
//! request id. They stay in memory and are written as JSON lines when
//! the run ends. An inactive tracer records nothing and reads no clock.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Id of the span open when this one started (0: none).
    pub parent: u32,
    /// Request id: the operation's index in the run (0 for set-up).
    pub req: u64,
    /// Layer boundary, e.g. `tree.query`.
    pub name: &'static str,
    /// Extra label, e.g. the tree kind (may be empty).
    pub tag: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while active.
pub struct Tracer {
    enabled: bool,
    active: Cell<bool>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    next_id: Cell<u32>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: Cell::new(enabled),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume recording (a traced run alternates traced and
    /// untraced blocks to measure the tracing overhead).
    pub fn set_active(&self, on: bool) {
        self.active.set(self.enabled && on);
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active.get()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, tag: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.active.get() {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent: 0,
                req,
                name,
                tag,
                start_ns: 0,
            };
        }
        let id = self.next_id.get();
        self.next_id.set(id.wrapping_add(1));
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        self.stack.borrow_mut().push(id);
        SpanGuard {
            tracer: Some(self),
            id,
            parent,
            req,
            name,
            tag,
            start_ns: self.now_ns(),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Mean duration in µs of spans called `name` (and `tag`, unless
    /// empty), with their count.
    pub fn mean_us(&self, name: &str, tag: &str) -> (f64, usize) {
        let spans = self.spans.borrow();
        let mut n = 0usize;
        let mut sum = 0u64;
        for s in spans
            .iter()
            .filter(|s| s.name == name && (tag.is_empty() || s.tag == tag))
        {
            n += 1;
            sum += s.ns();
        }
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 / n as f64 / 1e3, n)
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    tag: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(t) = self.tracer else { return };
        let end_ns = t.now_ns();
        t.stack.borrow_mut().pop();
        t.spans.borrow_mut().push(Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            tag: self.tag,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("bench.closed", "", 0);
            let _inner = t.span("tree.query", "sr", 5);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.name == "tree.query")
            .expect("inner");
        let outer = spans
            .iter()
            .find(|s| s.name == "bench.closed")
            .expect("outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 5);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.set_active(true);
        drop(t.span("tree.query", "", 1));
        assert!(t.spans().is_empty());
    }
}
