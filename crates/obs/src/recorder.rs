//! `dtr-flight`: a gated, bounded, timestamped flight recorder.
//!
//! The profile ([`crate::PipelineProfile`]) aggregates and the journal
//! ([`crate::journal`]) orders decisions, but neither preserves the *time
//! domain*: when each stage ran, on which thread, and how the parallel
//! exchange workers overlapped. The flight recorder captures exactly that —
//! span windows with thread ids, work samples at stage boundaries, guard
//! trips, and per-mapping exchange windows — in a bounded ring that
//! [`crate::chrome_trace`] exports as a Chrome Trace Event file loadable in
//! Perfetto or `chrome://tracing`.
//!
//! ## Design
//!
//! * **Gated.** Everything funnels through [`enabled`] — one relaxed
//!   atomic load per event site when off (`DTR_FLIGHT=1` or
//!   [`set_enabled`] turn it on), following the `journal.rs` pattern.
//! * **Bounded.** Events live in a [`CAP`]-slot ring of the type the
//!   journal and the audit log use too; evicted events bump a `dropped`
//!   counter. Always-on capture in a long-lived shell keeps the most
//!   recent window, like an aircraft flight recorder.
//! * **Timestamped.** All timestamps are nanoseconds on one process-wide
//!   monotonic clock ([`now_ns`]), so events from different threads
//!   interleave consistently.
//! * **Work samples at boundaries.** Where a mapping of an exchange or an
//!   incremental batch ends, the engine records its own [`crate::Work`]
//!   tally so far ([`record_work`]): the non-zero counts, with absolute
//!   values — the exact shape Chrome `C` (counter) events want. A sample
//!   names the tally of the session that reached the boundary; nothing
//!   samples on a stride, since no global tally exists to sample.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ring::{Counts, Ring};

/// Events the recorder retains.
pub const CAP: usize = 65_536;

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
    /// A span ([`crate::span`]) closed on this thread; `dur_ns` is its
    /// wall time, so the event alone carries the span's whole window.
    SpanEnd {
        /// The stage name (e.g. `"exchange.run_mapping"`).
        name: &'static str,
        /// Elapsed wall time of the span.
        dur_ns: u64,
    },
    /// A session's work tally at a stage boundary: its non-zero counts.
    CounterSample {
        /// `(count name, absolute value)`, sorted by name.
        values: Vec<(&'static str, u64)>,
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
    /// Stable snake_case tag used in the `.timeline` summary.
    pub fn kind(&self) -> &'static str {
        match self {
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

/// Aggregate view of the recorder (the `.timeline` REPL rendering).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Recorded, retained and dropped events, and the ring's bound.
    pub counts: Counts,
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
            "flight: {}, threads {} [{kinds}]",
            self.counts, self.threads
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

// ---- The recorder. ----

#[derive(Debug)]
struct Flight {
    ring: Ring<FlightEvent>,
}

impl Flight {
    const fn new() -> Self {
        Flight {
            ring: Ring::new(CAP),
        }
    }

    fn record(&mut self, kind: FlightKind, ts_ns: u64, tid: u64) {
        self.ring.push(|seq| FlightEvent {
            seq,
            ts_ns,
            tid,
            kind,
        });
    }

    fn summary(&self) -> Summary {
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut tids: Vec<u64> = Vec::new();
        for e in self.ring.iter() {
            *by.entry(e.kind.kind()).or_insert(0) += 1;
            if !tids.contains(&e.tid) {
                tids.push(e.tid);
            }
        }
        Summary {
            counts: self.ring.counts(),
            threads: tids.len() as u64,
            by_kind: by.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }
}

fn with_flight<R>(f: impl FnOnce(&mut Flight) -> R) -> R {
    static FLIGHT: Mutex<Flight> = Mutex::new(Flight::new());
    f(&mut FLIGHT.lock().unwrap_or_else(|p| p.into_inner()))
}

// ---- Public recording / query API. ----

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

/// Record a session's work tally at a stage boundary: its non-zero
/// counts, so the exported trace's counter tracks follow the session
/// that reached the boundary. Nothing is recorded for an all-zero tally.
pub fn record_work(work: &crate::Work) {
    if !enabled() {
        return;
    }
    let values: Vec<(&'static str, u64)> =
        work.entries().into_iter().filter(|&(_, v)| v > 0).collect();
    if values.is_empty() {
        return;
    }
    let (ts, tid) = (now_ns(), thread_tid());
    with_flight(|fl| fl.record(FlightKind::CounterSample { values }, ts, tid));
}

/// Clear all events and restart the sequence.
pub fn reset() {
    with_flight(|fl| *fl = Flight::new());
}

/// All retained events, oldest first.
pub fn events() -> Vec<FlightEvent> {
    with_flight(|fl| fl.ring.iter().cloned().collect())
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
        record_span_end("exchange.run_mapping", 42);
        record_guard_trip("rows", "exchange.run_mapping");
        record_mapping_window("m1", 3, 2, 1, 1000);
        record_work(&crate::Work {
            exchange_rows_inserted: 5,
            ..crate::Work::default()
        });
        assert!(events().is_empty());
        let s = summary();
        assert_eq!(
            s.counts,
            Counts {
                cap: CAP as u64,
                ..Counts::default()
            }
        );
        assert!(s.by_kind.is_empty());
    }

    #[test]
    fn one_span_records_one_event() {
        let _guard = guard();
        set_enabled(true);
        reset();
        {
            let _span = crate::span("exchange.run_mapping");
        }
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 1, "{evs:?}");
        assert!(matches!(
            evs[0].kind,
            FlightKind::SpanEnd {
                name: "exchange.run_mapping",
                ..
            }
        ));
        assert_eq!(summary().by_kind, vec![("span_end".to_string(), 1)]);
    }

    #[test]
    fn timestamps_are_monotonic_and_tids_stable() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record_span_end("a", 1);
        record_guard_trip("rows", "a");
        record_span_end("b", 2);
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
        record_span_end("main", 1);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| record_span_end("worker", 1));
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
    fn work_samples_carry_the_non_zero_counts() {
        let _guard = guard();
        set_enabled(true);
        reset();
        let mut work = crate::Work {
            exchange_rows_inserted: 5,
            ..crate::Work::default()
        };
        record_work(&work);
        // An all-zero tally records nothing.
        record_work(&crate::Work::default());
        work.exchange_rows_merged += 2;
        record_work(&work);
        set_enabled(false);
        let samples: Vec<Vec<(&str, u64)>> = events()
            .into_iter()
            .map(|e| match e.kind {
                FlightKind::CounterSample { values } => values,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            samples,
            vec![
                vec![("exchange.rows_inserted", 5)],
                vec![("exchange.rows_inserted", 5), ("exchange.rows_merged", 2)],
            ]
        );
    }

    #[test]
    fn mapping_window_keeps_its_counts() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record_mapping_window("m2", 10, 7, 3, 123_456);
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].kind,
            FlightKind::MappingWindow {
                mapping: "m2".to_string(),
                tuples: 10,
                rows_inserted: 7,
                rows_merged: 3,
                wall_ns: 123_456,
            }
        );
    }
}
