//! `dtr-flight`: a gated, bounded, timestamped flight recorder.
//!
//! The profile ([`crate::PipelineProfile`]) aggregates and the journal
//! ([`crate::journal`]) orders decisions, but neither preserves the *time
//! domain*: when each stage ran, on which thread, and how the parallel
//! exchange workers overlapped. The flight recorder captures exactly that —
//! span begin/end events with thread ids, periodic counter-registry delta
//! samples, guard trips, and per-mapping exchange windows — in a bounded
//! ring buffer that [`crate::chrome_trace`] exports as a Chrome Trace
//! Event file loadable in Perfetto or `chrome://tracing`.
//!
//! ## Design
//!
//! * **Gated.** Everything funnels through [`enabled`] — one relaxed
//!   atomic load per event site when off (`DTR_FLIGHT=1` or
//!   [`set_enabled`] turn it on), following the `journal.rs` pattern.
//! * **Bounded.** Events live in a ring buffer of
//!   [`DEFAULT_CAP`] slots (`DTR_FLIGHT_CAP` overrides); evicted events
//!   bump a `dropped` counter. Always-on capture in a long-lived shell
//!   keeps the most recent window, like an aircraft flight recorder.
//! * **Timestamped.** All timestamps are nanoseconds on one process-wide
//!   monotonic clock ([`now_ns`]), so events from different threads
//!   interleave consistently.
//! * **Self-sampling.** Every [`SAMPLE_STRIDE`]th event (and every forced
//!   [`sample_counters`] call) appends a delta sample of the counter
//!   registry: only counters whose value changed since the previous sample
//!   are included, with absolute values — the exact shape Chrome `C`
//!   (counter) events want.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde_json::{Map, Value};

/// Default ring-buffer capacity (events retained) when `DTR_FLIGHT_CAP`
/// is unset.
pub const DEFAULT_CAP: usize = 65_536;

/// A counter-registry delta sample is appended automatically every this
/// many recorded events (`DTR_FLIGHT_SAMPLE` overrides).
pub const SAMPLE_STRIDE: u64 = 256;

// ---- The monotonic clock and thread ids. ----

/// Nanoseconds since the process-wide flight epoch (the first call from
/// any thread). Monotonic and shared across threads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A small dense id for the calling thread (1 for the first thread that
/// records, 2 for the next, ...). Stable for the thread's lifetime; used
/// as the `tid` track key in exported traces.
pub fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---- Event shapes. ----

/// What a flight event records.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightKind {
    /// A span opened on this thread ([`crate::span`]).
    SpanBegin {
        /// The stage name (e.g. `"exchange.run_mapping"`).
        name: &'static str,
    },
    /// A span closed on this thread; `dur_ns` is its wall time, so an
    /// exporter can reconstruct the interval even if the matching begin
    /// event was evicted from the ring.
    SpanEnd {
        /// The stage name.
        name: &'static str,
        /// Elapsed wall time of the span.
        dur_ns: u64,
    },
    /// A delta sample of the counter registry: counters whose value
    /// changed since the previous sample, with absolute values.
    CounterSample {
        /// `(counter name, absolute value)`, sorted by name.
        values: Vec<(String, u64)>,
    },
    /// A resource budget tripped ([`crate::guard`]).
    GuardTrip {
        /// [`crate::guard::Resource::name`] of what ran out.
        resource: &'static str,
        /// The stage that tripped.
        stage: String,
    },
    /// One mapping's exchange window: the interval in which its rows were
    /// materialized into the target, with its outcome counts.
    MappingWindow {
        /// The mapping name.
        mapping: String,
        /// Source bindings the mapping produced.
        tuples: u64,
        /// Fresh target rows materialized.
        rows_inserted: u64,
        /// Rows folded into existing members by PNF merging.
        rows_merged: u64,
        /// Wall time of the window; the event's timestamp marks its end.
        wall_ns: u64,
    },
}

impl FlightKind {
    /// Stable snake_case tag used in summaries and JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightKind::SpanBegin { .. } => "span_begin",
            FlightKind::SpanEnd { .. } => "span_end",
            FlightKind::CounterSample { .. } => "counter_sample",
            FlightKind::GuardTrip { .. } => "guard_trip",
            FlightKind::MappingWindow { .. } => "mapping_window",
        }
    }
}

/// One timestamped flight-recorder entry.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (monotonic since the last [`reset`]).
    pub seq: u64,
    /// Nanoseconds since the flight epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// Dense thread id ([`thread_tid`]) of the recording thread.
    pub tid: u64,
    /// What happened.
    pub kind: FlightKind,
}

impl FlightEvent {
    /// The event as a JSON object (diagnostic form; the exportable trace
    /// form lives in [`crate::chrome_trace`]).
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("seq", Value::from(self.seq));
        obj.insert("ts_ns", Value::from(self.ts_ns));
        obj.insert("tid", Value::from(self.tid));
        obj.insert("kind", Value::from(self.kind.kind()));
        match &self.kind {
            FlightKind::SpanBegin { name } => {
                obj.insert("name", Value::from(*name));
            }
            FlightKind::SpanEnd { name, dur_ns } => {
                obj.insert("name", Value::from(*name));
                obj.insert("dur_ns", Value::from(*dur_ns));
            }
            FlightKind::CounterSample { values } => {
                let mut vals = Map::new();
                for (k, v) in values {
                    vals.insert(k.clone(), Value::from(*v));
                }
                obj.insert("values", Value::Object(vals));
            }
            FlightKind::GuardTrip { resource, stage } => {
                obj.insert("resource", Value::from(*resource));
                obj.insert("stage", Value::from(stage.as_str()));
            }
            FlightKind::MappingWindow {
                mapping,
                tuples,
                rows_inserted,
                rows_merged,
                wall_ns,
            } => {
                obj.insert("mapping", Value::from(mapping.as_str()));
                obj.insert("tuples", Value::from(*tuples));
                obj.insert("rows_inserted", Value::from(*rows_inserted));
                obj.insert("rows_merged", Value::from(*rows_merged));
                obj.insert("wall_ns", Value::from(*wall_ns));
            }
        }
        Value::Object(obj)
    }
}

/// Aggregate view of the recorder (the `.timeline` REPL rendering).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Events recorded since the last reset (including dropped ones).
    pub recorded: u64,
    /// Events currently retained in the ring buffer.
    pub retained: u64,
    /// Events evicted by the ring bound.
    pub dropped: u64,
    /// Ring-buffer capacity.
    pub cap: u64,
    /// Distinct thread ids among retained events.
    pub threads: u64,
    /// Retained events per kind, sorted by kind.
    pub by_kind: Vec<(String, u64)>,
}

impl Summary {
    /// One-paragraph human rendering.
    pub fn render(&self) -> String {
        let kinds = self
            .by_kind
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "flight: recorded {} retained {} dropped {} cap {} threads {} [{kinds}]",
            self.recorded, self.retained, self.dropped, self.cap, self.threads
        )
    }
}

// ---- The gate. ----

static GATE: crate::Gate = crate::Gate::new("DTR_FLIGHT");

/// Is flight recording enabled? First call consults `DTR_FLIGHT` (values
/// `1`, `true`, `on`, case-insensitive); afterwards this is a single
/// relaxed atomic load — the *entire* hot-path cost of a disabled event
/// site, provided callers gate payload construction on it.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Force flight recording on or off, overriding `DTR_FLIGHT`.
pub fn set_enabled(on: bool) {
    GATE.set(on)
}

// ---- The ring buffer. ----

#[derive(Debug)]
struct Flight {
    cap: usize,
    buf: VecDeque<FlightEvent>,
    next_seq: u64,
    dropped: u64,
    sample_stride: u64,
    /// Counter values at the previous sample, for delta detection.
    last_sample: BTreeMap<String, u64>,
}

impl Flight {
    /// An empty recorder holding `DTR_FLIGHT_CAP` events and sampling
    /// counters every `DTR_FLIGHT_SAMPLE` events.
    fn from_env() -> Self {
        Flight {
            cap: crate::env_number("DTR_FLIGHT_CAP", DEFAULT_CAP).max(1),
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            sample_stride: crate::env_number("DTR_FLIGHT_SAMPLE", SAMPLE_STRIDE).max(1),
            last_sample: BTreeMap::new(),
        }
    }

    fn push(&mut self, kind: FlightKind, ts_ns: u64, tid: u64) -> u64 {
        if self.buf.len() >= self.cap && self.buf.pop_front().is_some() {
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(FlightEvent {
            seq,
            ts_ns,
            tid,
            kind,
        });
        seq
    }

    /// Append a counter delta sample if any counter moved since the last
    /// sample. Returns whether a sample was recorded.
    fn sample(&mut self, ts_ns: u64, tid: u64) -> bool {
        let mut changed: Vec<(String, u64)> = Vec::new();
        for (name, value) in crate::counters().snapshot() {
            if self.last_sample.get(&name) != Some(&value) {
                self.last_sample.insert(name.clone(), value);
                changed.push((name, value));
            }
        }
        if changed.is_empty() {
            return false;
        }
        self.push(FlightKind::CounterSample { values: changed }, ts_ns, tid);
        true
    }

    fn record(&mut self, kind: FlightKind, ts_ns: u64, tid: u64) -> u64 {
        let seq = self.push(kind, ts_ns, tid);
        // Periodic registry sampling rides on the event stream itself: no
        // timer thread, and quiet periods record nothing.
        if seq % self.sample_stride == self.sample_stride - 1 {
            self.sample(ts_ns, tid);
        }
        seq
    }

    fn summary(&self) -> Summary {
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut tids: Vec<u64> = Vec::new();
        for e in &self.buf {
            *by.entry(e.kind.kind()).or_insert(0) += 1;
            if !tids.contains(&e.tid) {
                tids.push(e.tid);
            }
        }
        Summary {
            recorded: self.next_seq,
            retained: self.buf.len() as u64,
            dropped: self.dropped,
            cap: self.cap as u64,
            threads: tids.len() as u64,
            by_kind: by.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

fn with_flight<R>(f: impl FnOnce(&mut Flight) -> R) -> R {
    static FLIGHT: Mutex<Option<Flight>> = Mutex::new(None);
    let mut guard = FLIGHT.lock().unwrap_or_else(|p| p.into_inner());
    let flight = guard.get_or_insert_with(Flight::from_env);
    f(flight)
}

// ---- Public recording / query API. ----

/// Record a span opening on this thread. A no-op while recording is
/// disabled; call sites should still check [`enabled`] first so the
/// disabled path stays at one atomic load.
pub fn record_span_begin(name: &'static str) {
    if !enabled() {
        return;
    }
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| fl.record(FlightKind::SpanBegin { name }, ts, tid));
}

/// Record a span closing on this thread with its measured wall time.
pub fn record_span_end(name: &'static str, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| fl.record(FlightKind::SpanEnd { name, dur_ns }, ts, tid));
}

/// Record a guard trip.
pub fn record_guard_trip(resource: &'static str, stage: impl Into<String>) {
    if !enabled() {
        return;
    }
    let stage = stage.into();
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| fl.record(FlightKind::GuardTrip { resource, stage }, ts, tid));
}

/// Record one mapping's completed exchange window (timestamped at its
/// end; `wall_ns` reaches back to its start).
pub fn record_mapping_window(
    mapping: impl Into<String>,
    tuples: u64,
    rows_inserted: u64,
    rows_merged: u64,
    wall_ns: u64,
) {
    if !enabled() {
        return;
    }
    let mapping = mapping.into();
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| {
        fl.record(
            FlightKind::MappingWindow {
                mapping,
                tuples,
                rows_inserted,
                rows_merged,
                wall_ns,
            },
            ts,
            tid,
        )
    });
}

/// Record one incremental-exchange delta batch as a window: the batch id
/// becomes the window label (`delta#7`), with edits/rebuilt/retracted in
/// the tuples/inserted/merged slots. Reusing the mapping-window track
/// keeps the Perfetto export schema unchanged — delta batches appear as
/// windows on the same exchange track as full-run mappings.
pub fn record_delta_window(batch: u64, edits: u64, rebuilt: u64, retracted: u64, wall_ns: u64) {
    record_mapping_window(format!("delta#{batch}"), edits, rebuilt, retracted, wall_ns);
}

/// Record one durable-store operation (`wal_append`, `checkpoint`,
/// `recover`) as a window on the exchange track: bytes in the tuples
/// slot, replayed/retried counts in the inserted slot.
pub fn record_durable_window(op: &str, bytes: u64, count: u64, wall_ns: u64) {
    record_mapping_window(format!("durable:{op}"), bytes, count, 0, wall_ns);
}

/// Force a counter-registry delta sample now (stage boundaries call this
/// so counter tracks bracket the interesting intervals even when the
/// stride has not elapsed). Returns whether any counter had moved.
pub fn sample_counters() -> bool {
    if !enabled() {
        return false;
    }
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| fl.sample(ts, tid))
}

/// Clear all events and restart the sequence; capacity and sample stride
/// are re-read from `DTR_FLIGHT_CAP` / `DTR_FLIGHT_SAMPLE`.
pub fn reset() {
    with_flight(|fl| *fl = Flight::from_env());
}

/// Override the ring-buffer capacity (truncating oldest events if needed).
pub fn set_cap(cap: usize) {
    with_flight(|fl| {
        fl.cap = cap.max(1);
        while fl.buf.len() > fl.cap {
            if fl.buf.pop_front().is_some() {
                fl.dropped += 1;
            }
        }
    });
}

/// All retained events, oldest first.
pub fn events() -> Vec<FlightEvent> {
    with_flight(|fl| fl.buf.iter().cloned().collect())
}

/// Aggregate counts for the `.timeline` rendering.
pub fn summary() -> Summary {
    with_flight(|fl| fl.summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::test_guard()
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = guard();
        set_enabled(false);
        reset();
        record_span_begin("exchange.run_mapping");
        record_span_end("exchange.run_mapping", 42);
        record_guard_trip("rows", "exchange.run_mapping");
        record_mapping_window("m1", 3, 2, 1, 1000);
        assert!(!sample_counters());
        assert!(events().is_empty());
        let s = summary();
        assert_eq!(s.recorded, 0);
        assert_eq!(s.dropped, 0);
        assert!(s.by_kind.is_empty());
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        let _guard = guard();
        set_enabled(true);
        reset();
        set_cap(4);
        for _ in 0..10 {
            record_span_begin("exchange.insert_row");
        }
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs.first().unwrap().seq, 6);
        assert_eq!(evs.last().unwrap().seq, 9);
        let s = summary();
        assert_eq!(s.recorded, 10);
        assert_eq!(s.retained, 4);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.cap, 4);
        assert_eq!(s.by_kind, vec![("span_begin".to_string(), 4)]);
    }

    #[test]
    fn timestamps_are_monotonic_and_tids_stable() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record_span_begin("a");
        record_span_end("a", 1);
        record_span_begin("b");
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 3);
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
            assert!(w[0].seq < w[1].seq);
        }
        // All events from this thread share one tid.
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
        assert!(evs[0].tid >= 1);
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record_span_begin("main");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| record_span_begin("worker"));
            }
        });
        set_enabled(false);
        let evs = events();
        let mut tids: Vec<u64> = evs.iter().map(|e| e.tid).collect();
        tids.sort();
        tids.dedup();
        assert!(tids.len() >= 3, "expected 3 distinct tids, got {tids:?}");
        assert!(summary().threads >= 3);
    }

    #[test]
    fn counter_samples_are_deltas_with_absolute_values() {
        let _guard = guard();
        crate::set_enabled(true);
        crate::profile_reset();
        set_enabled(true);
        reset();
        crate::counters().rows_inserted.add(5);
        assert!(sample_counters());
        // Nothing moved: no second sample.
        assert!(!sample_counters());
        crate::counters().rows_inserted.add(2);
        assert!(sample_counters());
        set_enabled(false);
        crate::set_enabled(false);
        let samples: Vec<FlightEvent> = events()
            .into_iter()
            .filter(|e| matches!(e.kind, FlightKind::CounterSample { .. }))
            .collect();
        assert_eq!(samples.len(), 2);
        let values = |e: &FlightEvent| match &e.kind {
            FlightKind::CounterSample { values } => values.clone(),
            _ => unreachable!(),
        };
        // The first sample carries the absolute value 5; the second is a
        // delta sample mentioning only the moved counter, at value 7.
        assert!(values(&samples[0]).contains(&("exchange.rows_inserted".to_string(), 5)));
        let second = values(&samples[1]);
        assert_eq!(second, vec![("exchange.rows_inserted".to_string(), 7)]);
    }

    #[test]
    fn mapping_window_round_trips_to_json() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record_mapping_window("m2", 10, 7, 3, 123_456);
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 1);
        let json = evs[0].to_json();
        assert_eq!(
            json.get("kind").and_then(Value::as_str),
            Some("mapping_window")
        );
        assert_eq!(json.get("mapping").and_then(Value::as_str), Some("m2"));
        assert_eq!(json.get("rows_inserted").and_then(Value::as_u64), Some(7));
        assert_eq!(json.get("wall_ns").and_then(Value::as_u64), Some(123_456));
    }
}
