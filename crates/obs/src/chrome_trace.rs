//! Chrome Trace Event Format export of a flight recording.
//!
//! The recorder's ring buffer ([`crate::recorder`]) renders as a JSON
//! document loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`:
//!
//! * span events become complete (`ph: "X"`) duration events keyed by
//!   `pid`/`tid`, so the parallel-exchange workers render as separate
//!   tracks (each event carries its span's duration, so it alone gives
//!   the whole interval);
//! * per-mapping exchange windows become `X` events on the recording
//!   thread's track with the mapping's outcome counts as `args`;
//! * counter-registry samples become counter (`ph: "C"`) events, one
//!   series per counter name;
//! * guard trips become instant (`ph: "i"`) events with global scope so
//!   they draw as full-height markers.
//!
//! Timestamps are microseconds (fractional — the format takes doubles)
//! on the recorder's monotonic clock, and the event array is sorted by
//! timestamp, so consumers see a monotonically consistent stream.
//! [`validate`] checks the invariants the acceptance tooling and tests
//! rely on (required keys per phase, non-negative monotonic timestamps)
//! and reports the distinct track count.

use serde_json::{Map, Value};

use crate::recorder::{FlightEvent, FlightKind};

/// The process id used for all events (the recorder is in-process).
pub const PID: u64 = 1;

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn base_event(name: &str, ph: &str, ts_ns: u64, tid: u64) -> Map {
    let mut obj = Map::new();
    obj.insert("name", Value::from(name));
    obj.insert("cat", Value::from("dtr"));
    obj.insert("ph", Value::from(ph));
    obj.insert("ts", Value::from(us(ts_ns)));
    obj.insert("pid", Value::from(PID));
    obj.insert("tid", Value::from(tid));
    obj
}

/// Lower a flight recording into Chrome trace events, sorted by
/// timestamp. Spans still open when the ring was read have recorded
/// nothing yet, so they do not appear.
pub fn trace_events(events: &[FlightEvent]) -> Vec<Value> {
    let mut out: Vec<(f64, u64, Value)> = Vec::new();
    for e in events {
        match &e.kind {
            FlightKind::SpanEnd { name, dur_ns } => {
                let start_ns = e.ts_ns.saturating_sub(*dur_ns);
                let mut obj = base_event(name, "X", start_ns, e.tid);
                obj.insert("dur", Value::from(us(*dur_ns)));
                out.push((us(start_ns), e.seq, Value::Object(obj)));
            }
            FlightKind::CounterSample { values } => {
                for (counter, value) in values {
                    let mut obj = base_event(counter, "C", e.ts_ns, 0);
                    let mut args = Map::new();
                    args.insert("value", Value::from(*value));
                    obj.insert("args", Value::Object(args));
                    out.push((us(e.ts_ns), e.seq, Value::Object(obj)));
                }
            }
            FlightKind::GuardTrip { resource, stage } => {
                let mut obj = base_event(&format!("guard_trip:{resource}"), "i", e.ts_ns, e.tid);
                obj.insert("s", Value::from("g"));
                let mut args = Map::new();
                args.insert("stage", Value::from(stage.as_str()));
                obj.insert("args", Value::Object(args));
                out.push((us(e.ts_ns), e.seq, Value::Object(obj)));
            }
            FlightKind::MappingWindow {
                mapping,
                tuples,
                rows_inserted,
                rows_merged,
                wall_ns,
            } => {
                let start_ns = e.ts_ns.saturating_sub(*wall_ns);
                let mut obj =
                    base_event(&format!("exchange.window:{mapping}"), "X", start_ns, e.tid);
                obj.insert("dur", Value::from(us(*wall_ns)));
                let mut args = Map::new();
                args.insert("mapping", Value::from(mapping.as_str()));
                args.insert("tuples", Value::from(*tuples));
                args.insert("rows_inserted", Value::from(*rows_inserted));
                args.insert("rows_merged", Value::from(*rows_merged));
                obj.insert("args", Value::Object(args));
                out.push((us(start_ns), e.seq, Value::Object(obj)));
            }
        }
    }
    // Sort by timestamp (sequence number breaks ties) so the exported
    // stream is monotonic even though X events reach back to their start.
    out.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    out.into_iter().map(|(_, _, v)| v).collect()
}

/// The full Chrome Trace document for a recording.
pub fn to_chrome_trace(events: &[FlightEvent]) -> Value {
    let mut obj = Map::new();
    obj.insert("traceEvents", Value::Array(trace_events(events)));
    obj.insert("displayTimeUnit", Value::from("ms"));
    Value::Object(obj)
}

/// Export the recorder's current ring buffer as a Chrome Trace document.
pub fn export_current() -> Value {
    to_chrome_trace(&crate::recorder::events())
}

/// What [`validate`] measured about a trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total trace events.
    pub events: u64,
    /// Distinct `tid` values across duration/instant events (counter
    /// events, which live on the synthetic tid 0 track, are excluded).
    pub distinct_tids: u64,
    /// Duration (`X`) events.
    pub duration_events: u64,
    /// Counter (`C`) events.
    pub counter_events: u64,
}

/// Validate a Chrome Trace document against the subset of the format the
/// exporter emits: a `traceEvents` array whose members all carry
/// `name`/`ph`/`ts`/`pid`/`tid`, `X` events additionally a non-negative
/// `dur`, with non-negative timestamps sorted non-decreasingly.
pub fn validate(doc: &Value) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace: missing traceEvents array")?;
    let mut summary = TraceSummary {
        events: events.len() as u64,
        ..TraceSummary::default()
    };
    let mut tids: Vec<u64> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        let obj = e
            .as_object()
            .ok_or_else(|| format!("trace: event {i} is not an object"))?;
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if !obj.contains_key(key) {
                return Err(format!("trace: event {i} missing required key '{key}'"));
            }
        }
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace: event {i} has non-string ph"))?;
        let ts = obj
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("trace: event {i} has non-numeric ts"))?;
        if ts < 0.0 {
            return Err(format!("trace: event {i} has negative ts {ts}"));
        }
        if ts < last_ts {
            return Err(format!(
                "trace: event {i} breaks timestamp monotonicity ({ts} < {last_ts})"
            ));
        }
        last_ts = ts;
        let tid = obj
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("trace: event {i} has non-integer tid"))?;
        match ph {
            "X" => {
                let dur = obj
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("trace: X event {i} missing numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("trace: X event {i} has negative dur {dur}"));
                }
                summary.duration_events += 1;
                if !tids.contains(&tid) {
                    tids.push(tid);
                }
            }
            "C" => summary.counter_events += 1,
            "B" | "E" | "i" | "M" => {
                if !tids.contains(&tid) {
                    tids.push(tid);
                }
            }
            other => return Err(format!("trace: event {i} has unknown ph '{other}'")),
        }
    }
    summary.distinct_tids = tids.len() as u64;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, FlightEvent, FlightKind};

    fn ev(seq: u64, ts_ns: u64, tid: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent {
            seq,
            ts_ns,
            tid,
            kind,
        }
    }

    #[test]
    fn span_ends_become_duration_events() {
        let events = vec![ev(
            0,
            5_000,
            1,
            FlightKind::SpanEnd {
                name: "query.eval",
                dur_ns: 4_000,
            },
        )];
        let doc = to_chrome_trace(&events);
        let summary = validate(&doc).unwrap();
        assert_eq!(summary.duration_events, 1);
        let arr = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("ph").unwrap(), &Value::from("X"));
        assert_eq!(arr[0].get("name").unwrap(), &Value::from("query.eval"));
        assert_eq!(arr[0].get("ts").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(arr[0].get("dur").unwrap().as_f64().unwrap(), 4.0);
        assert_eq!(arr[0].get("pid").unwrap().as_u64().unwrap(), PID);
        assert_eq!(arr[0].get("tid").unwrap().as_u64().unwrap(), 1);
    }

    #[test]
    fn parallel_tracks_counters_and_trips_export() {
        let events = vec![
            ev(
                0,
                2_000,
                1,
                FlightKind::SpanEnd {
                    name: "exchange.run_mappings",
                    dur_ns: 2_000,
                },
            ),
            ev(
                1,
                3_000,
                2,
                FlightKind::SpanEnd {
                    name: "query.eval",
                    dur_ns: 1_000,
                },
            ),
            ev(
                2,
                3_500,
                3,
                FlightKind::SpanEnd {
                    name: "query.eval",
                    dur_ns: 1_000,
                },
            ),
            ev(
                3,
                4_000,
                1,
                FlightKind::CounterSample {
                    values: vec![
                        ("exchange.rows_inserted".to_string(), 10),
                        ("exchange.rows_merged".to_string(), 3),
                    ],
                },
            ),
            ev(
                4,
                5_000,
                1,
                FlightKind::GuardTrip {
                    resource: "rows",
                    stage: "exchange.run_mapping".to_string(),
                },
            ),
            ev(
                5,
                6_000,
                1,
                FlightKind::MappingWindow {
                    mapping: "m1".to_string(),
                    tuples: 4,
                    rows_inserted: 3,
                    rows_merged: 1,
                    wall_ns: 2_000,
                },
            ),
        ];
        let doc = to_chrome_trace(&events);
        let summary = validate(&doc).unwrap();
        assert_eq!(summary.events, 7); // 3 X spans + 2 C + 1 i + 1 X window
        assert_eq!(summary.duration_events, 4);
        assert_eq!(summary.counter_events, 2);
        assert!(summary.distinct_tids >= 3);
        // Timestamps in the exported array are non-decreasing.
        let arr = doc.get("traceEvents").unwrap().as_array().unwrap();
        let ts: Vec<f64> = arr
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate(&serde_json::json!({})).is_err());
        assert!(validate(&serde_json::json!({"traceEvents": [{"name": "x"}]})).is_err());
        // Negative duration is rejected.
        let bad = serde_json::json!({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1, "dur": -1.0}
        ]});
        assert!(validate(&bad).is_err());
        // Out-of-order timestamps are rejected.
        let unordered = serde_json::json!({"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5.0, "pid": 1, "tid": 1, "dur": 1.0},
            {"name": "b", "ph": "X", "ts": 1.0, "pid": 1, "tid": 1, "dur": 1.0}
        ]});
        assert!(validate(&unordered).is_err());
    }

    #[test]
    fn export_current_round_trips_through_recorder() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        recorder::set_enabled(true);
        recorder::reset();
        {
            let _span = crate::span("exchange.run_mappings");
        }
        recorder::set_enabled(false);
        let doc = export_current();
        let summary = validate(&doc).unwrap();
        assert_eq!(summary.duration_events, 1);
        assert!(summary.distinct_tids >= 1);
    }
}
