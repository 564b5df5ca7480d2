//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer's public functions, kept in memory and written out when
//! the run ends. A span has a name (the layer), start, end, parent span and
//! the id of the request (operation) it belongs to; a layer's self time is
//! its span's duration minus the time its child spans cover.
//!
//! Recording is off unless [`set_on`] turned it on, so the untraced run
//! pays one thread-local flag check per wrapped call.

use std::borrow::Cow;
use std::cell::RefCell;
use std::time::Instant;

/// A span name: a layer (`query.plan`) or a layer plus a detail
/// (`query.eval.select`).
pub type Name = Cow<'static, str>;

/// Spans kept per run; a run that reaches the cap stops recording instead
/// of growing without bound (none of the workloads comes near it).
const MAX_SPANS: usize = 2_000_000;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: Name,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of a span opened by [`begin`]; `None` when recording is off.
pub type Handle = Option<usize>;

struct Recorder {
    base: Instant,
    on: bool,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        base: Instant::now(),
        on: false,
        request: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the spans opened from now on.
pub fn set_on(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Whether spans opened now are recorded.
pub fn is_on() -> bool {
    RECORDER.with(|r| r.borrow().on)
}

/// Tags the spans opened from now on with request id `id`.
pub fn set_request(id: u64) {
    RECORDER.with(|r| r.borrow_mut().request = id);
}

/// Opens a span under the innermost open one.
pub fn begin(name: impl Into<Name>) -> Handle {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on || r.spans.len() >= MAX_SPANS {
            return None;
        }
        let span = Span {
            name: name.into(),
            start_ns: r.base.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            request: r.request,
        };
        r.spans.push(span);
        let id = r.spans.len() - 1;
        r.open.push(id);
        Some(id)
    })
}

/// Closes a span opened by [`begin`] (and any still open inside it).
pub fn end(handle: Handle) {
    let Some(id) = handle else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.base.elapsed().as_nanos() as u64;
        while let Some(top) = r.open.pop() {
            r.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    });
}

/// Records a finished child of the closed span `parent` for work whose
/// time was measured without a span around it: a library's own cumulative
/// nanosecond counter read before and after the call, or a probe re-run
/// after the operation. It is placed `offset_ns` after the parent's start.
pub fn child(parent: Handle, name: impl Into<Name>, offset_ns: u64, dur_ns: u64) {
    let Some(parent) = parent else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.spans.len() >= MAX_SPANS {
            return;
        }
        let request = r.spans[parent].request;
        let start_ns = r.spans[parent].start_ns + offset_ns;
        r.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            request,
        });
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: impl Into<Name>, f: impl FnOnce() -> T) -> T {
    let h = begin(name);
    let out = f();
    end(h);
    out
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Each span's self time: its duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The span list as the JSON document written to `trace-<workload>.json`.
pub fn to_json(workload: &str, spans: &[Span]) -> serde_json::Value {
    let own = self_times(spans);
    let rows: Vec<serde_json::Value> = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_ns)| {
            serde_json::json!({
                "name": s.name.as_ref(),
                "request": s.request,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
                "parent": s.parent.map_or(-1, |p| p as i64),
            })
        })
        .collect();
    serde_json::json!({ "workload": workload, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        set_on(true);
        set_request(3);
        let pause = || std::thread::sleep(std::time::Duration::from_millis(2));
        let root = begin("op");
        span("a", pause);
        // Root time outside `a`, so the 1 µs child `b` fits in it.
        pause();
        end(root);
        child(root, "b", 0, 1_000);
        set_on(false);
        span("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 3));
        let own = self_times(&spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns() - 1_000);
        assert_eq!(spans[1].parent, Some(0));
    }
}
