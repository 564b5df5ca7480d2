//! Structured spans with aggregation.
//!
//! A span marks one timed execution of a named stage ("exchange.run_mapping",
//! "query.eval", ...). Spans nest lexically: the collector keeps a
//! thread-local stack, and repeated spans at the same tree position fold
//! into a single aggregate node (call count, total/min/max wall time), so a
//! span inside a per-row loop stays O(1) in memory. Every closed span's
//! duration also lands in the collector's log₂ histogram, the source of
//! the profile's latency percentiles.
//!
//! Guards must be dropped in LIFO order, which Rust scoping gives for free.

use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::{bucket_for, percentiles, Histogram, HISTOGRAM_BUCKETS};
use crate::profile::ProfileNode;

#[derive(Debug)]
struct Node {
    name: &'static str,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Key fields: last value written wins (aggregated spans keep the most
    /// recent, which for per-mapping loops is the final mapping's value).
    fields: Vec<(&'static str, String)>,
    children: Vec<usize>,
}

impl Node {
    fn new(name: &'static str) -> Self {
        Node {
            name,
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Collector {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<usize>,
    /// Durations (ns) of every span closed on this thread.
    durations: Histogram,
}

impl Collector {
    fn open(&mut self, name: &'static str) -> usize {
        let index = self.child(self.stack.last().copied(), name);
        self.stack.push(index);
        index
    }

    /// The node named `name` under `parent` (at the top level for `None`),
    /// created if absent.
    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(parent) => &self.nodes[parent].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        match found {
            Some(i) => i,
            None => {
                let i = self.nodes.len();
                self.nodes.push(Node::new(name));
                match parent {
                    Some(parent) => self.nodes[parent].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        }
    }

    /// Folds node `index` of `from` and its subtree into the node of the
    /// same name under `parent`: counts and times add, extremes widen, and
    /// the folded node's fields win.
    fn adopt(&mut self, parent: Option<usize>, from: &Collector, index: usize) {
        let src = &from.nodes[index];
        let at = self.child(parent, src.name);
        let node = &mut self.nodes[at];
        node.count += src.count;
        node.total_ns += src.total_ns;
        node.min_ns = node.min_ns.min(src.min_ns);
        node.max_ns = node.max_ns.max(src.max_ns);
        for (key, value) in &src.fields {
            self.set_field(at, key, value.clone());
        }
        for &c in &src.children {
            self.adopt(Some(at), from, c);
        }
    }

    fn close(&mut self, index: usize, elapsed_ns: u64) {
        // A guard can outlive a `profile_reset` (or drop out of LIFO order
        // under unusual control flow); discard its measurement rather than
        // misattribute it.
        if self.stack.last() != Some(&index) || index >= self.nodes.len() {
            return;
        }
        self.stack.pop();
        self.durations[bucket_for(elapsed_ns)] += 1;
        let node = &mut self.nodes[index];
        node.count += 1;
        node.total_ns += elapsed_ns;
        node.min_ns = node.min_ns.min(elapsed_ns);
        node.max_ns = node.max_ns.max(elapsed_ns);
    }

    fn set_field(&mut self, index: usize, key: &'static str, value: String) {
        if index >= self.nodes.len() {
            return; // guard outlived a profile_reset
        }
        let fields = &mut self.nodes[index].fields;
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => fields.push((key, value)),
        }
    }

    fn export(&self, index: usize) -> ProfileNode {
        let node = &self.nodes[index];
        let mut fields: Vec<(String, String)> = node
            .fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        // Sorted so exported profiles (and their JSON) are run-stable.
        fields.sort();
        ProfileNode {
            name: node.name.to_string(),
            count: node.count,
            total_ns: node.total_ns,
            min_ns: if node.count == 0 { 0 } else { node.min_ns },
            max_ns: node.max_ns,
            fields,
            children: node.children.iter().map(|&c| self.export(c)).collect(),
        }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = const {
        RefCell::new(Collector {
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            durations: [0; HISTOGRAM_BUCKETS],
        })
    };
}

/// Open a span. Returns a guard that records the elapsed wall time into the
/// current thread's profile tree when dropped, and — when the flight
/// recorder is on — records one timestamped event with this thread's id
/// and the span's duration. Free when both profiling and flight recording
/// are disabled (two relaxed atomic loads).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let profiled = crate::enabled();
    let flight = crate::recorder::enabled();
    if !profiled && !flight {
        return SpanGuard {
            live: None,
            flight: None,
        };
    }
    let live = profiled.then(|| LiveSpan {
        index: COLLECTOR.with(|c| c.borrow_mut().open(name)),
        start: Instant::now(),
    });
    let flight = flight.then(|| FlightSpan {
        name,
        start: Instant::now(),
    });
    SpanGuard { live, flight }
}

#[derive(Debug)]
struct LiveSpan {
    index: usize,
    start: Instant,
}

#[derive(Debug)]
struct FlightSpan {
    name: &'static str,
    start: Instant,
}

/// RAII guard for an open span; see [`span`].
#[derive(Debug)]
#[must_use = "a span guard records its timing when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
    flight: Option<FlightSpan>,
}

impl SpanGuard {
    /// Attach a key field to the span (e.g. the mapping name, row counts).
    /// Builder-style so fields chain off [`span`].
    pub fn field(self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if let Some(live) = &self.live {
            let rendered = value.to_string();
            COLLECTOR.with(|c| c.borrow_mut().set_field(live.index, key, rendered));
        }
        self
    }

    /// Attach a field after construction (for values known mid-span).
    pub fn record(&self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(live) = &self.live {
            let rendered = value.to_string();
            COLLECTOR.with(|c| c.borrow_mut().set_field(live.index, key, rendered));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let elapsed_ns = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            COLLECTOR.with(|c| c.borrow_mut().close(live.index, elapsed_ns));
        }
        if let Some(flight) = self.flight.take() {
            let elapsed_ns = u64::try_from(flight.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::recorder::record_span_end(flight.name, elapsed_ns);
        }
    }
}

/// The spans one thread collected, taken from it with
/// [`take_thread_spans`] so another thread can fold them into its own
/// profile with [`adopt_thread_spans`].
#[derive(Debug)]
pub struct ThreadSpans(Collector);

/// Takes every span and duration this thread collected, leaving its
/// collector empty. A worker thread calls it as its last step and hands the
/// result to the thread that started it, whose profile would otherwise
/// never see the spans: a thread's collector is dropped with it.
pub fn take_thread_spans() -> ThreadSpans {
    COLLECTOR.with(|c| {
        let mut collector = c.borrow_mut();
        ThreadSpans(Collector {
            nodes: std::mem::take(&mut collector.nodes),
            roots: std::mem::take(&mut collector.roots),
            stack: std::mem::take(&mut collector.stack),
            durations: std::mem::replace(&mut collector.durations, [0; HISTOGRAM_BUCKETS]),
        })
    })
}

/// Folds spans another thread collected into this thread's profile, under
/// its innermost open span (at the top level when none is open): a span
/// of the same name at the same position aggregates with them, and their
/// durations join this thread's histogram.
pub fn adopt_thread_spans(spans: ThreadSpans) {
    let from = spans.0;
    if from.nodes.is_empty() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut collector = c.borrow_mut();
        let parent = collector.stack.last().copied();
        for &r in &from.roots {
            collector.adopt(parent, &from, r);
        }
        for (slot, n) in collector.durations.iter_mut().zip(from.durations) {
            *slot += n;
        }
    });
}

/// Drop every collected span and duration on this thread (open guards
/// keep recording into fresh nodes afterwards).
pub(crate) fn reset_current_thread() {
    COLLECTOR.with(|c| {
        let mut collector = c.borrow_mut();
        collector.nodes.clear();
        collector.roots.clear();
        collector.stack.clear();
        collector.durations = [0; HISTOGRAM_BUCKETS];
    });
}

/// Export this thread's span tree and the p50/p90/p99 of its span
/// durations (`None` before any span closed).
pub(crate) fn snapshot_current_thread() -> (Vec<ProfileNode>, Option<(u64, u64, u64)>) {
    COLLECTOR.with(|c| {
        let collector = c.borrow();
        let stages = collector
            .roots
            .iter()
            .map(|&r| collector.export(r))
            .collect();
        (stages, percentiles(&collector.durations))
    })
}
