//! # dtr-obs — observability for the dtr pipeline
//!
//! Structured tracing spans, an EXPLAIN-style [`PipelineProfile`] covering
//! the whole pipeline, and [`Work`], the plain tally of what the pipeline
//! did: data exchange (row inserts vs. PNF merges, annotation writes vs.
//! suppressions), query evaluation (tuples scanned, bindings enumerated),
//! incremental and durable sessions, MXQL translation, and metastore
//! encoding.
//!
//! ## Design
//!
//! * **Near-zero cost when off.** Spans are gated on a single global flag
//!   ([`enabled`], one relaxed atomic load). Disabled spans allocate
//!   nothing and record nothing.
//! * **Work travels as values.** The counts are not kept here: each call
//!   returns what it did (`EvalStats`, `MappingStats`, `TargetDelta`), and
//!   sessions fold those into their own [`Work`]. A caller attaches the
//!   tally it holds to the profile it prints, so no session's counts leak
//!   into another's, and they are the same with every tier off.
//! * **No external dependencies.** The span machinery is implemented
//!   natively (a thread-local aggregation tree) rather than via the
//!   `tracing` crate, which the offline build environment cannot fetch.
//! * **Aggregation, not event logs.** Hot paths run a span per *call*
//!   (e.g. one per inserted row); the collector folds repeated spans at the
//!   same tree position into one node with call count and total/min/max
//!   wall time, and every span's duration into one log₂ histogram, so
//!   profiling a million-row exchange costs O(stages), not O(rows), in
//!   memory.
//!
//! ## Usage
//!
//! ```
//! dtr_obs::set_enabled(true);
//! dtr_obs::profile_reset();
//! let mut work = dtr_obs::Work::default();
//! {
//!     let _span = dtr_obs::span("exchange.run_mapping").field("mapping", "m1");
//!     work.exchange_rows_inserted += 10;
//!     work.exchange_rows_merged += 2;
//! }
//! let mut profile = dtr_obs::profile_snapshot();
//! profile.counters = work.entries();
//! assert_eq!(profile.counter("exchange.rows_inserted"), Some(10));
//! println!("{}", profile.render());
//! ```
//!
//! The `DTR_PROFILE=1` environment variable enables collection without any
//! code change; the `experiments` and `mxql` binaries also accept
//! `--profile`.

pub mod analyze;
pub mod audit;
pub mod chrome_trace;
mod explain;
pub mod guard;
pub mod journal;
mod metrics;
mod profile;
pub mod recorder;
mod ring;
pub mod stats;
mod trace;

pub use analyze::OpNode;
pub use audit::{AuditRecord, AuditSink};
pub use explain::{ExplainStep, ExplainTrace};
pub use guard::{Budget, GuardError, GuardReport, Meter, Progress, Resource};
pub use journal::{
    Event as JournalEvent, EventId, Outcome as JournalOutcome, Summary as JournalSummary,
};
pub use metrics::Work;
pub use profile::{CounterValue, PipelineProfile, ProfileNode};
pub use recorder::{FlightEvent, FlightKind, Summary as FlightSummary};
pub use ring::Counts;
pub use trace::{adopt_thread_spans, span, take_thread_spans, SpanGuard, ThreadSpans};

use std::sync::atomic::{AtomicU8, Ordering};

/// The on/off switch of one telemetry tier. The tier's environment
/// variable is read on the first check (`1`, `true` or `on`,
/// case-insensitive, mean on; anything else, or unset, means off); after
/// that a check is a single relaxed atomic load, cheap enough for per-row
/// hot paths, and [`Gate::set`] overrides the variable.
pub(crate) struct Gate {
    var: &'static str,
    state: AtomicU8,
}

const GATE_UNKNOWN: u8 = 0;
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

impl Gate {
    pub(crate) const fn new(var: &'static str) -> Self {
        Gate {
            var,
            state: AtomicU8::new(GATE_UNKNOWN),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            GATE_ON => true,
            GATE_OFF => false,
            _ => self.init_from_env(),
        }
    }

    #[cold]
    fn init_from_env(&self) -> bool {
        let on = std::env::var(self.var).is_ok_and(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        });
        self.set(on);
        on
    }

    pub(crate) fn set(&self, on: bool) {
        let state = if on { GATE_ON } else { GATE_OFF };
        self.state.store(state, Ordering::Relaxed);
    }
}

static PROFILE: Gate = Gate::new("DTR_PROFILE");

/// Is profiling collection enabled? First call consults `DTR_PROFILE`
/// (values `1`, `true`, `on`, case-insensitive); afterwards this is a single
/// relaxed atomic load, cheap enough for per-row hot paths.
#[inline]
pub fn enabled() -> bool {
    PROFILE.enabled()
}

/// Force profiling on or off, overriding `DTR_PROFILE`.
pub fn set_enabled(on: bool) {
    PROFILE.set(on)
}

/// Clear this thread's span tree and span-duration histogram. Call at the
/// start of a region you want to profile in isolation.
pub fn profile_reset() {
    trace::reset_current_thread();
}

/// Snapshot the profile collected on the *current* thread since the last
/// [`profile_reset`]: its span tree and the percentiles of its span
/// durations. If the event journal is enabled, its [`JournalSummary`] is
/// embedded too. No work counts, guard report or EXPLAIN ANALYZE tree are
/// embedded: a session or request returns its [`Work`], [`GuardError`]
/// or tree to its caller, which may set [`PipelineProfile::counters`],
/// [`PipelineProfile::guard`] or [`PipelineProfile::analyze`] itself.
pub fn profile_snapshot() -> PipelineProfile {
    let (stages, span_latency) = trace::snapshot_current_thread();
    PipelineProfile {
        stages,
        span_latency,
        journal: journal::enabled().then(journal::summary),
        ..PipelineProfile::default()
    }
}

/// Serializes tests that mutate the global enabled flags.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_guard();
        set_enabled(false);
        profile_reset();
        {
            let _s = span("exchange.run_mapping").field("mapping", "m1");
        }
        set_enabled(true);
        let p = profile_snapshot();
        set_enabled(false);
        assert!(p.stages.is_empty());
        assert!(p.counters.is_empty());
        assert_eq!(p.span_latency, None);
    }

    #[test]
    fn nested_spans_aggregate() {
        let _guard = test_guard();
        set_enabled(true);
        profile_reset();
        for i in 0..3 {
            let _outer = span("exchange.run_mapping").field("mapping", format!("m{i}"));
            for _ in 0..4 {
                let _inner = span("exchange.insert_row");
            }
        }
        let p = profile_snapshot();
        set_enabled(false);
        assert_eq!(p.stages.len(), 1);
        let outer = &p.stages[0];
        assert_eq!(outer.name, "exchange.run_mapping");
        assert_eq!(outer.count, 3);
        assert_eq!(
            outer.fields,
            vec![("mapping".to_string(), "m2".to_string())]
        );
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].count, 12);
        assert!(outer.total_ns >= outer.children[0].total_ns);
        // All 15 spans land in the duration histogram.
        let (p50, p90, p99) = p.span_latency.expect("spans were recorded");
        assert!(p50 <= p90 && p90 <= p99);
    }
}
