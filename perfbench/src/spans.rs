//! In-memory spans for the traced run, written out when the run ends.
//!
//! Each span records its name, start, end, parent span and request id.
//! Request-level spans are opened by the replaying client; layer spans come
//! from the timing adapters in [`crate::traced`], which tag themselves with
//! the request currently in flight. Replay sends one request at a time, so
//! that request is unambiguous and every layer span nests under it.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans while enabled; a disabled recorder records nothing.
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    next_request: AtomicU64,
    /// Request id and span id of the request in flight (0 when none).
    current: Mutex<(u64, u64)>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            current: Mutex::new((0, 0)),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs one client request `f` as a new request with a top-level span
    /// `name`; layer spans recorded meanwhile nest under it. Returns `f`'s
    /// result and the span's duration in ns.
    pub fn request<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        *self.current.lock().expect("span state poisoned") = (request, id);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        *self.current.lock().expect("span state poisoned") = (0, 0);
        if self.enabled() {
            self.push(Span {
                id,
                parent: 0,
                request,
                name,
                start_ns,
                end_ns,
            });
        }
        (r, end_ns - start_ns)
    }

    /// Records a layer span under the request in flight.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let (request, parent) = *self.current.lock().expect("span state poisoned");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Self time of each parent span: its duration minus the union of its
/// children's intervals. Returned as `(parent span, self ns)`.
pub fn self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|p| {
            let mut kids = children.remove(&p.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = p.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(p.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (*p, p.duration_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_nest_under_the_request_in_flight() {
        let r = Recorder::default();
        r.set_enabled(true);
        let (_, ns) = r.request("server.get", || {
            let start = r.now_ns();
            r.record("backend.query", start, r.now_ns());
        });
        r.request("server.get", || r.record("backend.query", 0, 0));
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        let (child, parent) = (spans[0], spans[1]);
        assert_eq!((child.parent, child.request), (parent.id, parent.request));
        assert_eq!((parent.parent, parent.duration_ns()), (0, ns));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_ne!(spans[3].request, parent.request);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 7,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 20),
            span(3, 1, 15, 30), // overlaps the previous child
            span(4, 1, 40, 50),
            span(5, 0, 200, 260),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.len(), 2);
        assert_eq!(selfs[0].1, 100 - 20 - 10);
        assert_eq!(selfs[1].1, 60);
    }

    #[test]
    fn spans_outside_a_request_have_no_parent() {
        let r = Recorder::default();
        r.record("backend.query", 1, 2);
        assert_eq!(r.spans()[0].parent, 0);
        assert_eq!(r.spans()[0].request, 0);
    }
}
