//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the request id shared by
//! every span of one request. Spans stay in memory while the workload
//! runs and are written out when it ends ([`Tracer::write_tsv`]).
//!
//! The parent of a new span is the innermost open span on the same
//! thread; on a thread with no open span (a server connection thread
//! calling into the counting log, say) it is the *ambient* span: the
//! most recently opened span still open anywhere. That attribution is
//! exact for single-client workloads, which are the only ones whose
//! layers call back into benchmark code on other threads.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// The causing span's id; 0 for a request's root span.
    pub parent: u64,
    /// The request this span belongs to.
    pub req: u64,
    /// Layer-qualified name, e.g. `net.exec`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans while enabled; every call is a no-op while disabled.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    next_req: AtomicU64,
    /// `(span id, request id)` of the ambient span, packed behind a lock
    /// so the pair is read consistently.
    ambient: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans on this thread, innermost last: `(id, request id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            ambient: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of a new request.
    pub fn request(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.enabled() {
            return None;
        }
        let req = self.next_req.fetch_add(1, Ordering::Relaxed);
        Some(self.open(name, 0, req))
    }

    /// Opens a span under the current one (see the module docs for how
    /// the parent is found). Outside any request it is its own root.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.enabled() {
            return None;
        }
        let local = OPEN.with(|open| open.borrow().last().copied());
        let (parent, req) = match local {
            Some(p) => p,
            None => *self.ambient.lock().expect("tracer lock poisoned"),
        };
        let req = if req == 0 {
            self.next_req.fetch_add(1, Ordering::Relaxed)
        } else {
            req
        };
        Some(self.open(name, parent, req))
    }

    fn open(&self, name: &'static str, parent: u64, req: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((id, req)));
        let prev_ambient = std::mem::replace(
            &mut *self.ambient.lock().expect("tracer lock poisoned"),
            (id, req),
        );
        SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                req,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
            prev_ambient,
        }
    }

    /// Every span closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one tab-separated line (`id parent req name
    /// start_ns end_ns self_ns`), after a header line.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans();
        let child = child_time(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns(s, &child)
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Span,
    prev_ambient: (u64, u64),
}

impl SpanGuard<'_> {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.span.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == self.span.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut ambient) = self.tracer.ambient.lock() {
            if ambient.0 == self.span.id {
                *ambient = self.prev_ambient;
            }
        }
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(self.span);
        }
    }
}

/// Total duration of each span's children, keyed by parent id.
pub fn child_time(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.duration_ns();
    }
    child
}

/// A span's self time: its duration minus the time its children cover
/// (children of one span never overlap: each caller waits for its call).
pub fn self_ns(s: &Span, child: &HashMap<u64, u64>) -> u64 {
    s.duration_ns()
        .saturating_sub(child.get(&s.id).copied().unwrap_or(0))
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Per span name, in name order: `(name, durations, self times)` in ns.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, Vec<u64>, Vec<u64>)> {
    let child = child_time(spans);
    let mut names: std::collections::BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let e = names.entry(s.name).or_default();
        e.0.push(s.duration_ns());
        e.1.push(self_ns(s, &child));
    }
    names.into_iter().map(|(n, (d, own))| (n, d, own)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(t.request("root").is_none());
        assert!(t.span("x").is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let t = Tracer::new();
        t.set_enabled(true);
        let (root_id, child_id);
        {
            let root = t.request("root").unwrap();
            root_id = root.id();
            {
                let child = t.span("child").unwrap();
                child_id = child.id();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.id == child_id).unwrap();
        let root = spans.iter().find(|s| s.id == root_id).unwrap();
        assert_eq!(child.parent, root_id);
        assert_eq!(child.req, root.req);
        assert_eq!(root.parent, 0);
        let ch = child_time(&spans);
        assert_eq!(self_ns(root, &ch), root.duration_ns() - child.duration_ns());
        assert_eq!(self_ns(child, &ch), child.duration_ns());
    }

    #[test]
    fn other_threads_attach_to_the_ambient_span() {
        let t = Tracer::new();
        t.set_enabled(true);
        let root_id = {
            let root = t.request("root").unwrap();
            std::thread::scope(|s| {
                s.spawn(|| drop(t.span("remote"))).join().unwrap();
            });
            root.id()
        };
        let spans = t.spans();
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_eq!(remote.parent, root_id);
        // Outside any open span the ambient resets to "no parent".
        drop(t.span("after"));
        let after = t.spans().into_iter().find(|s| s.name == "after").unwrap();
        assert_eq!(after.parent, 0);
    }
}
