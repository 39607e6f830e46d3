//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start and end, the span that was open on the same
//! thread when it began (its parent), and the request or epoch id it belongs
//! to. Spans stay in memory and are written out once, when the run ends.
//! The recorder is off in the untraced run: [`Tracer::span`] then returns an
//! inert guard without reading the clock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `core.spmm`.
    pub name: &'static str,
    /// Request or epoch this span belongs to.
    pub group: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every thread of the benchmark.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and ignores them otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, group: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard(Some(OpenSpan {
            tracer: self,
            id,
            parent,
            name,
            group,
            start_ns: self.now_ns(),
        }))
    }

    /// Record a span timed elsewhere (for example a request whose start and
    /// end were seen by different threads). It has no parent.
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            id,
            parent: None,
            name,
            group,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// How many spans have closed so far; pass it to the `*_since` methods
    /// to look only at spans that close later.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Durations (ms) of the spans with this name closed since `mark`.
    pub fn durations_ms_since(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans.lock().expect("span list poisoned")[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of the spans with this name closed since `mark`: each
    /// one's duration minus the time its direct children cover. Children run
    /// on the parent's thread inside its interval, close before it and do
    /// not overlap each other.
    pub fn self_ms_since(&self, mark: usize, name: &str) -> Vec<f64> {
        let all = self.spans.lock().expect("span list poisoned");
        let spans = &all[mark..];
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = (s.end_ns - s.start_ns)
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1e6
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    group: u64,
    start_ns: u64,
}

/// Closes its span on drop.
pub struct SpanGuard<'t>(Option<OpenSpan<'t>>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = open.tracer.now_ns();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(pos);
            }
        });
        open.tracer.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            group: open.group,
            start_ns: open.start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_link_parents_and_subtract_children() {
        let tr = Tracer::new(true);
        {
            let _outer = tr.span("outer", 7);
            busy(4);
            {
                let _inner = tr.span("inner", 7);
                busy(6);
            }
        }
        let spans = tr.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.group, 7);
        let self_ms = tr.self_ms_since(0, "outer")[0];
        assert_eq!(tr.durations_ms_since(tr.mark(), "outer"), Vec::<f64>::new());
        assert!(self_ms >= 3.5 && self_ms < outer.ms() - 5.5, "{self_ms}");
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::new(false);
        {
            let _s = tr.span("x", 0);
        }
        tr.record("y", 0, Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }
}
