//! In-memory host wall-clock spans for the traced run.
//!
//! The benchmark times each layer from outside: an `Instant` pair around
//! every call it makes into a crate's public functions, plus per-request
//! spans stamped by a [`RequestSink`] attached through the runtime's and
//! shard group's existing trace-sink hooks. Spans stay in memory and are
//! written once, when the run ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

use runtime::Request;
use trace::{RequestPhase, ShardPhase, TraceEvent, TraceSink};

/// One recorded interval on the host clock (nanoseconds since the
/// tracer's epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `"loops.prepare"`.
    pub name: &'static str,
    /// Sub-kind within the layer (a schedule or format; empty if none).
    pub tag: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id, for spans of one served request.
    pub req: Option<u64>,
    /// Simulated nonzeros the call processed (0 if not applicable).
    pub nnz: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. When disabled, [`Tracer::span`] calls straight through
/// without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Option<RefCell<State>>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            state: enabled.then(RefCell::default),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Nanoseconds since the epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span nested under the innermost open span.
    pub fn span<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        nnz: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        let idx = {
            let mut s = state.borrow_mut();
            let idx = s.spans.len();
            let parent = s.open.last().copied();
            s.spans.push(Span {
                name,
                tag,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req: None,
                nnz,
            });
            s.open.push(idx);
            idx
        };
        let out = f();
        let mut s = state.borrow_mut();
        s.spans[idx].end_ns = self.now_ns();
        s.open.pop();
        out
    }

    /// Index of the most recently opened span, if any.
    pub fn last(&self) -> Option<usize> {
        self.state
            .as_ref()
            .and_then(|s| s.borrow().spans.len().checked_sub(1))
    }

    /// Append finished spans (from a [`RequestSink`]) as children of
    /// span `parent`.
    pub fn adopt(&self, parent: usize, children: Vec<Span>) {
        if let Some(state) = &self.state {
            let mut s = state.borrow_mut();
            for mut c in children {
                c.parent = Some(parent);
                s.spans.push(c);
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Per-span self time. Every instant is attributed to exactly one span:
/// the deepest one covering it, and of overlapping siblings (requests
/// waiting in one batch) the one that started last. A span's self time
/// is therefore its duration minus the part its children cover, and
/// the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut depth = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
    }
    // Boundaries: (time, is_start, span). Ends sort before starts at
    // the same instant so zero-length overlaps attribute nothing.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        // A child is clipped to its parent's interval.
        let (mut start, mut end) = (s.start_ns, s.end_ns);
        if let Some(p) = s.parent {
            start = start.max(spans[p].start_ns);
            end = end.min(spans[p].end_ns);
        }
        if end > start {
            events.push((start, true, i));
            events.push((end, false, i));
        }
    }
    events.sort_unstable();
    let mut active: std::collections::BTreeSet<(usize, u64, usize)> = Default::default();
    let mut out = vec![0u64; spans.len()];
    let mut last = 0u64;
    for (t, is_start, i) in events {
        if let Some(&(_, _, top)) = active.last() {
            out[top] += t - last;
        }
        last = t;
        let key = (depth[i], spans[i].start_ns, i);
        if is_start {
            active.insert(key);
        } else {
            active.remove(&key);
        }
    }
    out
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Render spans plus per-name self time (ms) as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::from("{\"workload\":");
    trace::json::escape_into(&mut out, workload);
    out.push_str(&format!(",\"seed\":{seed},\"self_ms\":{{"));
    for (i, (name, ns)) in self_by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        trace::json::escape_into(&mut out, name);
        out.push(':');
        trace::json::number_into(&mut out, *ns as f64 / 1e6);
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        trace::json::escape_into(&mut out, s.name);
        out.push_str(",\"tag\":");
        trace::json::escape_into(&mut out, s.tag);
        out.push_str(&format!(
            ",\"start_us\":{},\"end_us\":{},\"parent\":{},\"req\":{},\"nnz\":{}}}",
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.req.map_or("null".to_owned(), |r| r.to_string()),
            s.nnz
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// A bench-side trace sink that stamps the host clock on request
/// milestones: a `runtime.request` span runs from a request's `Enqueue`
/// to its `Complete`, and a `shard.request` span from a split request's
/// `Route` to its `Merge`. Observation only: it never touches the
/// events' simulated values.
#[derive(Debug)]
pub struct RequestSink {
    epoch: Instant,
    state: Mutex<SinkState>,
}

#[derive(Debug, Default)]
struct SinkState {
    open: HashMap<u64, u64>,
    open_split: Option<(u64, u64)>,
    done: Vec<Span>,
}

impl RequestSink {
    /// A sink sharing `tracer`'s epoch.
    pub fn new(tracer: &Tracer) -> Self {
        Self {
            epoch: tracer.epoch,
            state: Mutex::default(),
        }
    }

    /// Take the request spans finished since the last drain.
    pub fn drain(&self) -> Vec<Span> {
        let mut s = self
            .state
            .lock()
            .expect("request sink poisoned by a panicking serve");
        s.open.clear();
        s.open_split = None;
        std::mem::take(&mut s.done)
    }

    /// Move the request spans finished since the last drain under the
    /// tracer's latest span (the serve call that produced them), each
    /// carrying its request's nonzeros from `window`.
    pub fn attach(&self, tr: &Tracer, window: &[Request]) {
        let mut spans = self.drain();
        let Some(parent) = tr.last() else {
            return;
        };
        let nnz: HashMap<u64, u64> = window
            .iter()
            .map(|r| (r.id, r.matrix.nnz() as u64))
            .collect();
        for s in &mut spans {
            s.nnz = s.req.and_then(|id| nnz.get(&id)).copied().unwrap_or(0);
        }
        tr.adopt(parent, spans);
    }
}

impl TraceSink for RequestSink {
    fn event(&self, ev: &TraceEvent) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut s = self
            .state
            .lock()
            .expect("request sink poisoned by a panicking serve");
        let span = |name, id, start| Span {
            name,
            tag: "",
            start_ns: start,
            end_ns: now,
            parent: None,
            req: Some(id),
            nnz: 0,
        };
        match *ev {
            TraceEvent::Request { id, phase, .. } => match phase {
                RequestPhase::Enqueue => {
                    s.open.insert(id, now);
                }
                RequestPhase::Complete => {
                    if let Some(start) = s.open.remove(&id) {
                        s.done.push(span("runtime.request", id, start));
                    }
                }
                RequestPhase::Reject | RequestPhase::DeadlineMiss => {
                    s.open.remove(&id);
                }
                _ => {}
            },
            TraceEvent::Shard { phase, value, .. } => match phase {
                ShardPhase::Route => s.open_split = Some((value as u64, now)),
                ShardPhase::Merge => {
                    if let Some((id, start)) = s.open_split.take() {
                        s.done.push(span("shard.request", id, start));
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            req: None,
            nnz: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ serve [10,90) ⊃ two overlapping requests [20,50)
        // and [40,70), whose union covers 50 ns of serve; the grandchild
        // is not subtracted from op a second time, and the overlap
        // [40,50) goes to the later request only.
        let spans = vec![
            span("op", 0, 100, None),
            span("runtime.serve", 10, 90, Some(0)),
            span("runtime.request", 20, 50, Some(1)),
            span("runtime.request", 40, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["op"], 20);
        assert_eq!(by_name["runtime.serve"], 30);
        assert_eq!(by_name["runtime.request"], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 5]);
    }

    #[test]
    fn disjoint_trees_and_leaves_keep_their_whole_duration() {
        let spans = vec![
            span("op", 0, 10, None),
            span("kernels.spmv", 2, 6, Some(0)),
            span("op", 10, 30, None),
        ];
        assert_eq!(self_times(&spans), vec![6, 4, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let on = Tracer::new(true);
        on.span("op", "", 0, || on.span("kernels.spmv", "lrb", 7, || ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].tag, spans[1].nnz), ("lrb", 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("op", "", 0, || 3), 3);
        assert!(off.spans().is_empty() && off.last().is_none());
    }
}
