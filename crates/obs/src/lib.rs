//! # dtr-obs — observability for the dtr pipeline
//!
//! Structured tracing spans, a lightweight atomic counter/histogram
//! registry, and an EXPLAIN-style [`PipelineProfile`] covering the whole
//! pipeline: data exchange (row inserts vs. PNF merges, annotation writes
//! vs. suppressions), query evaluation (tuples scanned, bindings
//! enumerated), MXQL translation, and metastore encoding.
//!
//! ## Design
//!
//! * **Near-zero cost when off.** Everything is gated on a single global
//!   flag ([`enabled`], one relaxed atomic load). Disabled spans allocate
//!   nothing and record nothing; disabled counters skip the atomic add.
//! * **No external dependencies.** The span machinery is implemented
//!   natively (a thread-local aggregation tree) rather than via the
//!   `tracing` crate, which the offline build environment cannot fetch.
//! * **Aggregation, not event logs.** Hot paths run a span per *call*
//!   (e.g. one per inserted row); the collector folds repeated spans at the
//!   same tree position into one node with call count, total/min/max wall
//!   time and a log₂ duration histogram, so profiling a million-row
//!   exchange costs O(stages), not O(rows), in memory.
//!
//! ## Usage
//!
//! ```
//! dtr_obs::set_enabled(true);
//! dtr_obs::profile_reset();
//! {
//!     let _span = dtr_obs::span("exchange.run_mapping").field("mapping", "m1");
//!     dtr_obs::counters().rows_inserted.add(10);
//!     dtr_obs::counters().rows_merged.add(2);
//! }
//! let profile = dtr_obs::profile_snapshot();
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
pub mod health;
pub mod journal;
mod metrics;
mod profile;
pub mod recorder;
pub mod stats;
mod trace;

pub use analyze::OpNode;
pub use audit::{AuditRecord, AuditSink};
pub use explain::{ExplainStep, ExplainTrace};
pub use guard::{Budget, GuardError, GuardReport, Meter, Progress, Resource};
pub use journal::{
    Event as JournalEvent, EventId, Outcome as JournalOutcome, Summary as JournalSummary,
};
pub use metrics::{
    bucket_for, bucket_lower, bucket_upper, counters, snapshot_percentile, snapshot_percentiles,
    Counter, Counters, Histogram, HistogramSnapshot,
};
pub use profile::{CounterValue, PipelineProfile, ProfileNode};
pub use recorder::{FlightEvent, FlightKind, Summary as FlightSummary};
pub use stats::{DistinctEstimator, JoinStats, PathStats, StatsCatalog};
pub use trace::{span, SpanGuard};

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

/// The number in environment variable `var`, or `default` when it is
/// unset or does not parse.
pub(crate) fn env_number<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
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

/// Is any counter-consuming tier live? The registry also ticks while the
/// flight recorder is on (its periodic `C`-track samples read it), so
/// `DTR_FLIGHT=1` alone produces counter data without full profiling.
#[inline]
pub(crate) fn counters_live() -> bool {
    enabled() || recorder::enabled()
}

/// Clear all collected state (global counters, this thread's span tree,
/// the last guard trip and the last analyzed plan). Call at the start of a
/// region you want to profile in isolation. The statistics catalog is NOT
/// cleared — it accumulates across runs by design; use [`stats::reset`].
pub fn profile_reset() {
    counters().reset();
    trace::reset_current_thread();
    guard::reset_report();
    analyze::reset_last();
}

/// Snapshot the profile collected since the last [`profile_reset`]: the
/// span tree of the *current* thread plus the global counter registry. If
/// the event journal is enabled, its [`JournalSummary`] is embedded too,
/// and if a budget tripped since the last reset, its [`GuardReport`].
pub fn profile_snapshot() -> PipelineProfile {
    PipelineProfile {
        stages: trace::snapshot_current_thread(),
        counters: counters().snapshot(),
        journal: journal::enabled().then(journal::summary),
        guard: guard::last_report(),
        analyze: analyze::last(),
    }
}

/// Serializes tests that mutate the global enabled flag / counter registry.
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
        // The registry also feeds the flight recorder; force that tier off
        // too so this asserts the fully-disabled hot path (the CI soak
        // reruns the suite under DTR_FLIGHT=1).
        recorder::set_enabled(false);
        profile_reset();
        {
            let _s = span("exchange.run_mapping").field("mapping", "m1");
            counters().rows_inserted.add(5);
        }
        set_enabled(true);
        let p = profile_snapshot();
        set_enabled(false);
        assert!(p.stages.is_empty());
        assert_eq!(p.counter("exchange.rows_inserted"), Some(0));
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
    }
}
