//! `dtr-guard`: resource budgets, deadlines and cooperative cancellation
//! for every execution engine in the pipeline.
//!
//! A [`Budget`] rides inside the engine option structs (`EvalOptions`,
//! `ExchangeOptions`, the §7.3 runner) and is enforced through a [`Meter`]:
//! one meter per engine invocation, charged at the hot-loop sites (binding
//! enumeration, foreach rows, projected result rows). Exceeding a budget
//! yields a structured [`GuardError`] — never a panic — carrying what was
//! exhausted and how far the run got.
//!
//! ## Design
//!
//! * **Cheap when unlimited.** Limits are stored as saturated `u64::MAX`
//!   caps, so a charge is one add + compare. Deadline and cancellation are
//!   polled on a stride (first call, then every
//!   [`POLL_STRIDE`](Meter::POLL_STRIDE)), so the per-row cost of an
//!   unlimited budget is one increment and a branch.
//! * **Always cancellable.** The `cancel` flag is a shared
//!   `Arc<AtomicBool>`; the meter polls it even when no numeric limit is
//!   set, so a runaway run can be reclaimed from another thread.
//! * **Observable.** Every trip bumps the `guard.*` counters and, with
//!   the flight recorder on, records a trip event. The caller that gets
//!   the error can turn it into a [`GuardReport`] for its profile.

use serde_json::{Map, Value};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one engine invocation. All limits default to
/// unlimited; `cancel` is a fresh flag nobody else holds.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Cap on candidate bindings enumerated by one evaluator run.
    pub max_bindings: Option<u64>,
    /// Cap on rows produced: projected result rows in evaluation, inserted
    /// foreach rows (cumulative across mappings) in exchange.
    pub max_rows: Option<u64>,
    /// Cap on approximate bytes of projected result values.
    pub max_result_bytes: Option<u64>,
    /// Wall-clock allowance, measured from when the engine starts.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: set from any thread to stop the run at the
    /// next poll point.
    pub cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_bindings: None,
            max_rows: None,
            max_result_bytes: None,
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl Budget {
    /// An explicitly unlimited budget (same as `Default`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Does any numeric or wall-clock limit apply? (The cancel flag is
    /// polled regardless.)
    pub fn is_limited(&self) -> bool {
        self.max_bindings.is_some()
            || self.max_rows.is_some()
            || self.max_result_bytes.is_some()
            || self.deadline.is_some()
    }

    /// Request cancellation; every engine sharing this budget's flag stops
    /// at its next poll point.
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Start metering an engine invocation. Captures the deadline now.
    pub fn meter(&self, stage: &'static str) -> Meter {
        Meter {
            max_bindings: self.max_bindings.unwrap_or(u64::MAX),
            max_rows: self.max_rows.unwrap_or(u64::MAX),
            max_result_bytes: self.max_result_bytes.unwrap_or(u64::MAX),
            deadline_ms: self
                .deadline
                .map(|d| d.as_millis().min(u64::MAX as u128) as u64),
            deadline_at: self.deadline.map(|d| Instant::now() + d),
            cancel: Arc::clone(&self.cancel),
            polls: 0,
            progress: Progress::default(),
            stage,
        }
    }
}

/// Which budgeted resource was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// `max_bindings` reached in binding enumeration.
    Bindings,
    /// `max_rows` reached (result rows or exchange inserts).
    Rows,
    /// `max_result_bytes` reached in projection.
    ResultBytes,
    /// The wall-clock deadline passed.
    Deadline,
    /// The shared cancel flag was set.
    Cancelled,
}

impl Resource {
    /// Stable snake_case tag (used in journal events, JSON and counters).
    pub fn name(&self) -> &'static str {
        match self {
            Resource::Bindings => "bindings",
            Resource::Rows => "rows",
            Resource::ResultBytes => "result_bytes",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How far a run got before it was stopped. Deterministic integer counters
/// only (no wall times), so the same trip reproduces the same error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Progress {
    /// Candidate bindings enumerated so far.
    pub bindings: u64,
    /// Rows produced so far (result rows or exchange inserts).
    pub rows: u64,
    /// Approximate result bytes produced so far.
    pub bytes: u64,
}

/// A budget violation: structured, never a panic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GuardError {
    /// What ran out.
    pub resource: Resource,
    /// The engine stage that tripped (e.g. `"query.eval"`).
    pub stage: &'static str,
    /// The configured limit (ms for deadlines, 0 for cancellation).
    pub limit: u64,
    /// Partial-progress counters at the trip point.
    pub progress: Progress,
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "cancelled at {}", self.stage)?,
            Resource::Deadline => write!(
                f,
                "deadline of {} ms exceeded at {}",
                self.limit, self.stage
            )?,
            r => write!(
                f,
                "budget exhausted at {}: {} limit {} reached",
                self.stage, r, self.limit
            )?,
        }
        write!(
            f,
            " (progress: {} bindings, {} rows, {} bytes)",
            self.progress.bindings, self.progress.rows, self.progress.bytes
        )
    }
}

impl std::error::Error for GuardError {}

/// The enforcement side of a [`Budget`]: one per engine invocation.
#[derive(Debug)]
pub struct Meter {
    max_bindings: u64,
    max_rows: u64,
    max_result_bytes: u64,
    deadline_ms: Option<u64>,
    deadline_at: Option<Instant>,
    cancel: Arc<AtomicBool>,
    polls: u64,
    progress: Progress,
    stage: &'static str,
}

impl Meter {
    /// Deadline/cancellation are polled on the first tick and then every
    /// `POLL_STRIDE` ticks, bounding the unlimited-budget hot-path cost to
    /// one increment + branch per tick.
    pub const POLL_STRIDE: u64 = 64;

    /// Partial-progress counters so far.
    pub fn progress(&self) -> Progress {
        self.progress
    }

    /// Total budget charges ticked so far (every `poll`/`check_bindings`/
    /// `charge_rows` call, polled or not). EXPLAIN ANALYZE diffs this
    /// around each operator to attribute guard charges per operator.
    pub fn ticks(&self) -> u64 {
        self.polls
    }

    fn trip(&self, resource: Resource, limit: u64) -> GuardError {
        let err = GuardError {
            resource,
            stage: self.stage,
            limit,
            progress: self.progress,
        };
        crate::counters().guard_trips.incr();
        if crate::recorder::enabled() {
            crate::recorder::record_guard_trip(resource.name(), self.stage);
        }
        err
    }

    #[cold]
    fn poll_now(&mut self) -> Result<(), GuardError> {
        crate::counters().guard_checks.incr();
        if self.cancel.load(Ordering::Relaxed) {
            return Err(self.trip(Resource::Cancelled, 0));
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(self.trip(Resource::Deadline, self.deadline_ms.unwrap_or(0)));
            }
        }
        Ok(())
    }

    /// Strided deadline/cancellation check; call once per loop iteration.
    #[inline]
    pub fn poll(&mut self) -> Result<(), GuardError> {
        self.polls += 1;
        if self.polls % Self::POLL_STRIDE == 1 {
            self.poll_now()
        } else {
            Ok(())
        }
    }

    /// Record that binding enumeration has reached `total` candidates
    /// (an absolute count, not a delta) and poll.
    #[inline]
    pub fn check_bindings(&mut self, total: u64) -> Result<(), GuardError> {
        self.progress.bindings = total;
        if total > self.max_bindings {
            return Err(self.trip(Resource::Bindings, self.max_bindings));
        }
        self.poll()
    }

    /// Charge `n` produced rows and poll.
    #[inline]
    pub fn charge_rows(&mut self, n: u64) -> Result<(), GuardError> {
        self.progress.rows += n;
        if self.progress.rows > self.max_rows {
            return Err(self.trip(Resource::Rows, self.max_rows));
        }
        self.poll()
    }

    /// Charge `n` result bytes (no poll; pair with a row charge).
    #[inline]
    pub fn charge_bytes(&mut self, n: u64) -> Result<(), GuardError> {
        self.progress.bytes += n;
        if self.progress.bytes > self.max_result_bytes {
            return Err(self.trip(Resource::ResultBytes, self.max_result_bytes));
        }
        Ok(())
    }
}

/// Plain-data form of a [`GuardError`], embedded in
/// [`crate::PipelineProfile::guard`] by callers that got the error.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// [`Resource::name`] of what ran out.
    pub resource: String,
    /// The stage that tripped.
    pub stage: String,
    /// The configured limit (ms for deadlines, 0 for cancellation).
    pub limit: u64,
    /// Bindings enumerated before the trip.
    pub bindings: u64,
    /// Rows produced before the trip.
    pub rows: u64,
    /// Result bytes produced before the trip.
    pub bytes: u64,
}

impl From<&GuardError> for GuardReport {
    fn from(err: &GuardError) -> Self {
        GuardReport {
            resource: err.resource.name().to_string(),
            stage: err.stage.to_string(),
            limit: err.limit,
            bindings: err.progress.bindings,
            rows: err.progress.rows,
            bytes: err.progress.bytes,
        }
    }
}

impl GuardReport {
    /// Structured JSON form.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("resource", Value::from(self.resource.as_str()));
        obj.insert("stage", Value::from(self.stage.as_str()));
        obj.insert("limit", Value::from(self.limit));
        obj.insert("bindings", Value::from(self.bindings));
        obj.insert("rows", Value::from(self.rows));
        obj.insert("bytes", Value::from(self.bytes));
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_never_trips() {
        let budget = Budget::default();
        assert!(!budget.is_limited());
        let mut meter = budget.meter("test");
        for _ in 0..10_000 {
            meter.poll().unwrap();
            meter.charge_rows(1).unwrap();
            meter.charge_bytes(1 << 20).unwrap();
        }
        meter.check_bindings(u64::MAX - 1).unwrap();
    }

    #[test]
    fn zero_deadline_trips_on_first_poll() {
        let budget = Budget {
            deadline: Some(Duration::ZERO),
            ..Budget::default()
        };
        let mut meter = budget.meter("test.stage");
        let err = meter.poll().unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
        assert_eq!(err.stage, "test.stage");
        assert_eq!(err.limit, 0);
        assert!(err.to_string().contains("deadline of 0 ms"));
    }

    #[test]
    fn preset_cancel_trips_before_deadline() {
        let budget = Budget {
            deadline: Some(Duration::ZERO),
            ..Budget::default()
        };
        budget.request_cancel();
        let mut meter = budget.meter("test");
        let err = meter.poll().unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let budget = Budget::default();
        let clone = budget.clone();
        budget.request_cancel();
        let mut meter = clone.meter("test");
        assert!(meter.poll().is_err());
    }

    #[test]
    fn row_budget_trips_at_exact_boundary() {
        let budget = Budget {
            max_rows: Some(3),
            ..Budget::default()
        };
        let mut meter = budget.meter("test");
        meter.charge_rows(1).unwrap();
        meter.charge_rows(2).unwrap();
        let err = meter.charge_rows(1).unwrap_err();
        assert_eq!(err.resource, Resource::Rows);
        assert_eq!(err.limit, 3);
        assert_eq!(err.progress.rows, 4);
    }

    #[test]
    fn binding_and_byte_budgets_trip() {
        let budget = Budget {
            max_bindings: Some(10),
            max_result_bytes: Some(100),
            ..Budget::default()
        };
        let mut meter = budget.meter("test");
        meter.check_bindings(10).unwrap();
        assert_eq!(
            meter.check_bindings(11).unwrap_err().resource,
            Resource::Bindings
        );
        let mut meter = budget.meter("test");
        meter.charge_bytes(100).unwrap();
        let err = meter.charge_bytes(1).unwrap_err();
        assert_eq!(err.resource, Resource::ResultBytes);
        assert_eq!(err.progress.bytes, 101);
    }

    #[test]
    fn mid_run_cancel_is_seen_within_a_stride() {
        let budget = Budget::default();
        let mut meter = budget.meter("test");
        meter.poll().unwrap();
        budget.request_cancel();
        let mut tripped = false;
        for _ in 0..Meter::POLL_STRIDE {
            if meter.poll().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "cancel must be observed within one poll stride");
    }

    #[test]
    fn a_trip_converts_into_a_guard_report() {
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let mut meter = budget.meter("exchange.insert_row");
        let err = meter.charge_rows(2).unwrap_err();
        assert_eq!(
            GuardReport::from(&err),
            GuardReport {
                resource: "rows".to_string(),
                stage: "exchange.insert_row".to_string(),
                limit: 1,
                bindings: 0,
                rows: 2,
                bytes: 0,
            }
        );
    }

    #[test]
    fn guard_report_json_carries_every_field() {
        let report = GuardReport {
            resource: "deadline".to_string(),
            stage: "query.eval".to_string(),
            limit: 50,
            bindings: 120,
            rows: 7,
            bytes: 4_096,
        };
        assert_eq!(
            report.to_json().to_string(),
            "{\"resource\":\"deadline\",\"stage\":\"query.eval\",\"limit\":50,\
             \"bindings\":120,\"rows\":7,\"bytes\":4096}"
        );
    }

    #[test]
    fn guard_errors_are_comparable_and_displayable() {
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let e1 = budget.meter("stage").charge_rows(2).unwrap_err();
        let e2 = budget.meter("stage").charge_rows(2).unwrap_err();
        assert_eq!(e1, e2);
        assert!(e1.to_string().contains("rows limit 1 reached"));
        assert!(e1.to_string().contains("2 rows"));
    }
}
