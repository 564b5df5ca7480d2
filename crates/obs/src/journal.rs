//! `dtr-journal`: a gated, bounded, structured provenance event stream.
//!
//! Where the profile ([`crate::PipelineProfile`]) answers *how many* rows
//! merged, the journal answers *which* row came from *which* mapping
//! binding: every exchange decision (insert vs. PNF merge, annotation write
//! vs. suppression), every PNF merge target, every metastore encoding step
//! and every MXQL→plain rewrite step is recorded as one [`Event`] with a
//! global sequence number.
//!
//! ## Design
//!
//! * **Gated.** Everything funnels through [`enabled`] — one relaxed atomic
//!   load per event site when off (`DTR_JOURNAL=1` or
//!   [`set_enabled`] turn it on). Callers must not compute event payloads
//!   without checking the gate first.
//! * **Bounded.** Events live in a [`CAP`]-slot ring of the type the
//!   flight recorder and the audit log use too, so always-on capture in a
//!   long-lived shell stays safe; evicted events bump a `dropped` counter
//!   and vanish from the lineage index.
//! * **Indexed.** A lineage index (`target NodeId → Vec<EventId>`) is
//!   maintained incrementally so `.trace`-style queries need not scan the
//!   whole buffer.
//! * **Exportable.** Every event renders as one JSON line ([`to_jsonl`]);
//!   the schema is documented in `docs/QUERY_LANGUAGE.md`.

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::ring::{Counts, Ring};

/// Global event sequence number (monotonic since the last [`reset`]).
pub type EventId = u64;

/// Events the journal retains.
pub const CAP: usize = 65_536;

/// What happened at an event site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The exchange materialized a fresh target set member.
    Inserted,
    /// A binding folded into an existing member by PNF merging.
    PnfMerged {
        /// The surviving member node.
        into: u64,
    },
    /// Two structurally distinct members shared a fingerprint; the merge
    /// was refused and the bucket split instead of silently collapsing.
    CollisionSplit {
        /// The colliding fingerprint.
        fingerprint: u64,
    },
    /// An `f_mp` annotation was newly written onto a target node.
    AnnotationWritten,
    /// An annotation write was a no-op.
    AnnotationSuppressed {
        /// Why the write was suppressed (e.g. `"already-present"`).
        reason: &'static str,
    },
    /// One MXQL→plain rewrite step fired (see the `detail` field for the
    /// input predicate / emitted conjuncts).
    TranslateStep {
        /// The rewrite rule that fired (e.g. `"expand-predicate"`).
        rule: &'static str,
    },
    /// Rows were encoded into a metastore storage relation.
    MetaEncoded {
        /// The storage relation (e.g. `"Element"`, `"Correspondence"`).
        relation: &'static str,
    },
    /// A resource budget tripped and the stage aborted (for the exchange,
    /// after rolling the in-flight mapping's inserts back).
    GuardAbort {
        /// [`Resource::name`](crate::guard::Resource::name) of what ran out.
        resource: &'static str,
    },
    /// The incremental exchange applied one source-delta batch in place.
    DeltaApplied {
        /// Source edits in the batch.
        edits: u64,
        /// Target member classes rebuilt by the batch.
        rebuilt: u64,
    },
    /// The incremental exchange retracted a target member whose last
    /// supporting foreach binding disappeared.
    Retracted {
        /// Remaining foreach rows supporting the member's class (0 for a
        /// full retraction; >0 when the member was rebuilt from survivors).
        remaining: u64,
    },
    /// A delta batch was durably committed to the write-ahead log.
    WalAppend {
        /// Frame bytes written (header + payload).
        bytes: u64,
        /// Active WAL segment number.
        segment: u64,
    },
    /// A checkpoint was written (initial segment or rotation).
    Checkpoint {
        /// Checkpoint payload bytes.
        bytes: u64,
        /// The segment the checkpoint opens.
        segment: u64,
    },
    /// A durable store was reopened and its state recovered from the log.
    Recovered {
        /// Delta batches replayed on top of the checkpoint.
        replayed: u64,
        /// Torn-tail bytes truncated away during the scan.
        truncated: u64,
    },
}

impl Outcome {
    /// Stable snake_case tag used in JSONL and in summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Inserted => "inserted",
            Outcome::PnfMerged { .. } => "pnf_merged",
            Outcome::CollisionSplit { .. } => "collision_split",
            Outcome::AnnotationWritten => "annotation_written",
            Outcome::AnnotationSuppressed { .. } => "annotation_suppressed",
            Outcome::TranslateStep { .. } => "translate_step",
            Outcome::MetaEncoded { .. } => "meta_encoded",
            Outcome::GuardAbort { .. } => "guard_abort",
            Outcome::DeltaApplied { .. } => "delta_applied",
            Outcome::Retracted { .. } => "retracted",
            Outcome::WalAppend { .. } => "wal_append",
            Outcome::Checkpoint { .. } => "checkpoint",
            Outcome::Recovered { .. } => "recovered",
        }
    }
}

/// One journal entry: a pipeline decision with its full context.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number.
    pub id: EventId,
    /// The pipeline stage that emitted the event
    /// (e.g. `"exchange.insert_row"`).
    pub stage: &'static str,
    /// The mapping in whose context the event fired, if any.
    pub mapping: Option<String>,
    /// Fingerprint of the source binding (the foreach tuple) that drove
    /// the decision, if any. A label, not an identity: events are keyed
    /// by their unique `id` and are never merged or deduplicated on
    /// `binding_fp`, so a fingerprint collision only means a `.trace`
    /// consumer filtering on it sees a candidate *set* (which it narrows
    /// by replaying the foreach query) rather than a single event.
    pub binding_fp: Option<u64>,
    /// The target node the event is about (raw `NodeId` index), if any.
    pub target: Option<u64>,
    /// What happened.
    pub outcome: Outcome,
    /// Free-form context (e.g. a translate step's input → output).
    pub detail: Option<String>,
}

impl Event {
    /// The event as a JSON object (one JSONL line when printed compactly).
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("id", Value::from(self.id));
        obj.insert("stage", Value::from(self.stage));
        if let Some(m) = &self.mapping {
            obj.insert("mapping", Value::from(m.as_str()));
        }
        if let Some(fp) = self.binding_fp {
            obj.insert("binding_fp", Value::from(format!("{fp:016x}")));
        }
        if let Some(t) = self.target {
            obj.insert("target", Value::from(t));
        }
        obj.insert("outcome", Value::from(self.outcome.kind()));
        match &self.outcome {
            Outcome::PnfMerged { into } => {
                obj.insert("into", Value::from(*into));
            }
            Outcome::CollisionSplit { fingerprint } => {
                obj.insert("fingerprint", Value::from(format!("{fingerprint:016x}")));
            }
            Outcome::AnnotationSuppressed { reason } => {
                obj.insert("reason", Value::from(*reason));
            }
            Outcome::TranslateStep { rule } => {
                obj.insert("rule", Value::from(*rule));
            }
            Outcome::MetaEncoded { relation } => {
                obj.insert("relation", Value::from(*relation));
            }
            Outcome::GuardAbort { resource } => {
                obj.insert("resource", Value::from(*resource));
            }
            Outcome::DeltaApplied { edits, rebuilt } => {
                obj.insert("edits", Value::from(*edits));
                obj.insert("rebuilt", Value::from(*rebuilt));
            }
            Outcome::Retracted { remaining } => {
                obj.insert("remaining", Value::from(*remaining));
            }
            Outcome::WalAppend { bytes, segment } | Outcome::Checkpoint { bytes, segment } => {
                obj.insert("bytes", Value::from(*bytes));
                obj.insert("segment", Value::from(*segment));
            }
            Outcome::Recovered {
                replayed,
                truncated,
            } => {
                obj.insert("replayed", Value::from(*replayed));
                obj.insert("truncated", Value::from(*truncated));
            }
            Outcome::Inserted | Outcome::AnnotationWritten => {}
        }
        if let Some(d) = &self.detail {
            obj.insert("detail", Value::from(d.as_str()));
        }
        Value::Object(obj)
    }

    /// One-line human rendering (used by `.trace`).
    pub fn render(&self) -> String {
        let mut line = format!("#{:<6} {:<24}", self.id, self.stage);
        if let Some(m) = &self.mapping {
            line.push_str(&format!(" {m:<6}"));
        }
        if let Some(fp) = self.binding_fp {
            line.push_str(&format!(" binding {fp:016x}"));
        }
        if let Some(t) = self.target {
            line.push_str(&format!(" -> node {t}"));
        }
        match &self.outcome {
            Outcome::Inserted => line.push_str("  inserted"),
            Outcome::PnfMerged { into } => line.push_str(&format!("  pnf-merged into {into}")),
            Outcome::CollisionSplit { fingerprint } => {
                line.push_str(&format!("  collision split (fp {fingerprint:016x})"))
            }
            Outcome::AnnotationWritten => line.push_str("  annotation written"),
            Outcome::AnnotationSuppressed { reason } => {
                line.push_str(&format!("  annotation suppressed ({reason})"))
            }
            Outcome::TranslateStep { rule } => line.push_str(&format!("  rule {rule}")),
            Outcome::MetaEncoded { relation } => line.push_str(&format!("  encoded {relation}")),
            Outcome::GuardAbort { resource } => {
                line.push_str(&format!("  guard abort ({resource})"))
            }
            Outcome::DeltaApplied { edits, rebuilt } => line.push_str(&format!(
                "  delta applied ({edits} edit(s), {rebuilt} class(es) rebuilt)"
            )),
            Outcome::Retracted { remaining } => {
                line.push_str(&format!("  retracted ({remaining} row(s) remain)"))
            }
            Outcome::WalAppend { bytes, segment } => {
                line.push_str(&format!("  wal append ({bytes} B, segment {segment})"))
            }
            Outcome::Checkpoint { bytes, segment } => {
                line.push_str(&format!("  checkpoint ({bytes} B, segment {segment})"))
            }
            Outcome::Recovered {
                replayed,
                truncated,
            } => line.push_str(&format!(
                "  recovered ({replayed} delta(s) replayed, {truncated} B truncated)"
            )),
        }
        if let Some(d) = &self.detail {
            line.push_str(&format!("  {d}"));
        }
        line
    }
}

/// Aggregate view of the journal, embedded in
/// [`crate::PipelineProfile::journal`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Recorded, retained and dropped events, and the ring's bound.
    pub counts: Counts,
    /// Retained events per outcome kind, sorted by kind.
    pub by_outcome: Vec<(String, u64)>,
    /// *Recorded* events per outcome kind since the last reset, sorted by
    /// kind — a running tally that survives ring-buffer eviction, so rare
    /// outcomes like `guard_abort` and `collision_split` stay visible even
    /// after high-volume events push them out of the buffer.
    pub recorded_by_outcome: Vec<(String, u64)>,
}

impl Summary {
    /// Structured JSON form.
    pub fn to_json(&self) -> Value {
        let tally = |counts: &[(String, u64)]| {
            let mut obj = Map::new();
            for (k, v) in counts {
                obj.insert(k.clone(), Value::from(*v));
            }
            Value::Object(obj)
        };
        let mut obj = Map::new();
        obj.insert("recorded", Value::from(self.counts.recorded));
        obj.insert("retained", Value::from(self.counts.retained));
        obj.insert("dropped", Value::from(self.counts.dropped));
        obj.insert("cap", Value::from(self.counts.cap));
        obj.insert("by_outcome", tally(&self.by_outcome));
        obj.insert("recorded_by_outcome", tally(&self.recorded_by_outcome));
        Value::Object(obj)
    }
}

// ---- The gate. ----

static GATE: crate::Gate = crate::Gate::new("DTR_JOURNAL");

/// Is journal capture enabled? First call consults `DTR_JOURNAL` (values
/// `1`, `true`, `on`, case-insensitive); afterwards this is a single
/// relaxed atomic load — the *entire* hot-path cost of a disabled event
/// site, provided callers gate payload construction on it.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Force journal capture on or off, overriding `DTR_JOURNAL`.
pub fn set_enabled(on: bool) {
    GATE.set(on)
}

// ---- The journal. ----

#[derive(Debug)]
struct Journal {
    ring: Ring<Event>,
    /// Recorded events per outcome kind — NOT pruned on eviction, so the
    /// summary keeps exact totals for outcomes whose events were dropped.
    tally: BTreeMap<&'static str, u64>,
    /// `target node → event ids`, pruned on eviction.
    lineage: BTreeMap<u64, Vec<EventId>>,
    /// Fault-injection hook: when the event with this id is recorded, the
    /// flag is set (typically a budget's `cancel`). Fires once.
    trip: Option<(EventId, Arc<AtomicBool>)>,
}

impl Journal {
    const fn new(cap: usize) -> Self {
        Journal {
            ring: Ring::new(cap),
            tally: BTreeMap::new(),
            lineage: BTreeMap::new(),
            trip: None,
        }
    }

    fn record(&mut self, mut event: Event) -> EventId {
        let (target, kind) = (event.target, event.outcome.kind());
        let (id, evicted) = self.ring.push(|id| {
            event.id = id;
            event
        });
        if let Some(Event {
            id: old,
            target: Some(t),
            ..
        }) = evicted
        {
            if let Some(ids) = self.lineage.get_mut(&t) {
                ids.retain(|&i| i != old);
                if ids.is_empty() {
                    self.lineage.remove(&t);
                }
            }
        }
        *self.tally.entry(kind).or_insert(0) += 1;
        if let Some(t) = target {
            self.lineage.entry(t).or_default().push(id);
        }
        if let Some((at, flag)) = &self.trip {
            if id >= *at {
                flag.store(true, Ordering::Relaxed);
                self.trip = None;
            }
        }
        id
    }

    fn summary(&self) -> Summary {
        let mut retained: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in self.ring.iter() {
            *retained.entry(e.outcome.kind()).or_insert(0) += 1;
        }
        let sorted = |tally: &BTreeMap<&'static str, u64>| {
            tally.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        Summary {
            counts: self.ring.counts(),
            by_outcome: sorted(&retained),
            recorded_by_outcome: sorted(&self.tally),
        }
    }
}

fn with_journal<R>(f: impl FnOnce(&mut Journal) -> R) -> R {
    static JOURNAL: Mutex<Journal> = Mutex::new(Journal::new(CAP));
    f(&mut JOURNAL.lock().unwrap_or_else(|p| p.into_inner()))
}

// ---- Public recording / query API. ----

/// Record one event (the `id` field is assigned by the journal). A no-op
/// returning 0 while capture is disabled — but callers should check
/// [`enabled`] *before* building the event to keep the disabled path at one
/// atomic load.
pub fn record(event: Event) -> EventId {
    if !enabled() {
        return 0;
    }
    with_journal(|j| j.record(event))
}

/// The id the *next* recorded event will receive. Reports store this before
/// and after a pipeline stage to slice their own event window without
/// scanning the whole buffer.
pub fn next_event_id() -> EventId {
    if !enabled() {
        return 0;
    }
    with_journal(|j| j.ring.next_seq())
}

/// Clear all events and restart the sequence. Any armed fault-injection
/// trip is disarmed.
pub fn reset() {
    with_journal(|j| *j = Journal::new(CAP));
}

/// Fault injection: arm a one-shot trip that sets `flag` (typically a
/// budget's `cancel`) the moment the event with id `at` (or any later id)
/// is recorded. Used by `dtr-check --faults` to stop a run at a
/// deterministic, seed-derived point. Disarmed by [`reset`] or on firing.
pub fn arm_trip(at: EventId, flag: Arc<AtomicBool>) {
    with_journal(|j| j.trip = Some((at, flag)));
}

/// Disarm any armed fault-injection trip without clearing the journal.
pub fn disarm_trip() {
    with_journal(|j| j.trip = None);
}

/// All retained events, oldest first.
pub fn events() -> Vec<Event> {
    with_journal(|j| j.ring.iter().cloned().collect())
}

/// Retained events with `start <= id < end` — a report's event window.
pub fn events_in(start: EventId, end: EventId) -> Vec<Event> {
    with_journal(|j| {
        j.ring
            .iter()
            .filter(|e| e.id >= start && e.id < end)
            .cloned()
            .collect()
    })
}

/// The lineage index entry of a target node: ids of every retained event
/// that targets it, oldest first.
pub fn lineage_of(target: u64) -> Vec<EventId> {
    with_journal(|j| j.lineage.get(&target).cloned().unwrap_or_default())
}

/// Retained events targeting a node, oldest first (index-backed).
pub fn events_for(target: u64) -> Vec<Event> {
    with_journal(|j| {
        let Some(ids) = j.lineage.get(&target) else {
            return Vec::new();
        };
        j.ring
            .iter()
            .filter(|e| ids.contains(&e.id))
            .cloned()
            .collect()
    })
}

/// Aggregate counts for the profile embedding.
pub fn summary() -> Summary {
    with_journal(|j| j.summary())
}

/// Every retained event as one compact JSON line (the exportable form).
pub fn to_jsonl() -> String {
    with_journal(|j| j.ring.to_jsonl(Event::to_json))
}

/// Convenience constructor so call sites stay one expression.
pub fn event(stage: &'static str, outcome: Outcome) -> Event {
    Event {
        id: 0,
        stage,
        mapping: None,
        binding_fp: None,
        target: None,
        outcome,
        detail: None,
    }
}

impl Event {
    /// Builder: attach the mapping context.
    pub fn mapping(mut self, name: impl std::fmt::Display) -> Self {
        self.mapping = Some(name.to_string());
        self
    }

    /// Builder: attach the source binding fingerprint (a grouping label —
    /// see [`Event::binding_fp`] for why collisions are benign).
    pub fn binding(mut self, fp: u64) -> Self {
        self.binding_fp = Some(fp);
        self
    }

    /// Builder: attach the target node.
    pub fn target(mut self, node: u64) -> Self {
        self.target = Some(node);
        self
    }

    /// Builder: attach free-form detail.
    pub fn detail(mut self, d: impl Into<String>) -> Self {
        self.detail = Some(d.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::test_guard()
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _guard = guard();
        set_enabled(false);
        reset();
        record(event("exchange.insert_row", Outcome::Inserted).target(7));
        assert!(events().is_empty());
        assert_eq!(next_event_id(), 0);
        assert!(lineage_of(7).is_empty());
    }

    #[test]
    fn forced_binding_fp_collision_keeps_events_distinct() {
        let _guard = guard();
        set_enabled(true);
        reset();
        // Two different decisions sharing a binding fingerprint must stay
        // two events: identity is the unique `id`, never the fingerprint.
        record(
            event("exchange.insert_row", Outcome::Inserted)
                .binding(0xdead_beef)
                .target(1),
        );
        record(
            event("exchange.insert_row", Outcome::PnfMerged { into: 9 })
                .binding(0xdead_beef)
                .target(2),
        );
        set_enabled(false);
        let evs = events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].binding_fp, Some(0xdead_beef));
        assert_eq!(evs[1].binding_fp, Some(0xdead_beef));
        assert_ne!(evs[0].id, evs[1].id);
        assert_ne!(evs[0].outcome, evs[1].outcome);
    }

    #[test]
    fn eviction_prunes_the_evicted_events_from_the_lineage_index() {
        let mut j = Journal::new(4);
        j.record(event("exchange.insert_row", Outcome::Inserted).target(5));
        for i in 1..10u64 {
            j.record(event("exchange.insert_row", Outcome::Inserted).target(i % 2));
        }
        let ids: Vec<EventId> = j.ring.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        // Evicted events left the index; retained ones are findable, and a
        // target whose every event was evicted has no entry at all.
        assert_eq!(j.lineage.get(&0), Some(&vec![6, 8]));
        assert_eq!(j.lineage.get(&1), Some(&vec![7, 9]));
        assert_eq!(j.lineage.len(), 2);
        let s = j.summary();
        assert_eq!(
            s.counts,
            Counts {
                recorded: 10,
                retained: 4,
                dropped: 6,
                cap: 4
            }
        );
        assert_eq!(s.by_outcome, vec![("inserted".to_string(), 4)]);
    }

    #[test]
    fn recorded_tally_survives_eviction_of_rare_outcomes() {
        let mut j = Journal::new(4);
        // Two rare outcomes first...
        j.record(event(
            "exchange.insert_row",
            Outcome::CollisionSplit {
                fingerprint: 0xfeed,
            },
        ));
        j.record(event(
            "exchange.run_mapping",
            Outcome::GuardAbort { resource: "rows" },
        ));
        // ...then enough bulk traffic to evict them from the ring.
        for _ in 0..8u64 {
            j.record(event("exchange.insert_row", Outcome::Inserted));
        }
        let s = j.summary();
        assert_eq!((s.counts.recorded, s.counts.dropped), (10, 6));
        // The retained view has lost the rare outcomes entirely...
        assert_eq!(s.by_outcome, vec![("inserted".to_string(), 4)]);
        // ...but the recorded tally still counts them.
        assert_eq!(
            s.recorded_by_outcome,
            vec![
                ("collision_split".to_string(), 1),
                ("guard_abort".to_string(), 1),
                ("inserted".to_string(), 8),
            ]
        );
    }

    #[test]
    fn event_windows_slice_without_scanning() {
        let _guard = guard();
        set_enabled(true);
        reset();
        let start = next_event_id();
        record(event("exchange.insert_row", Outcome::Inserted).mapping("m1"));
        record(
            event("exchange.insert_row", Outcome::PnfMerged { into: 3 })
                .mapping("m1")
                .target(3),
        );
        let end = next_event_id();
        record(event("exchange.insert_row", Outcome::Inserted).mapping("m2"));
        set_enabled(false);
        let window = events_in(start, end);
        assert_eq!(window.len(), 2);
        assert!(window.iter().all(|e| e.mapping.as_deref() == Some("m1")));
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_schema() {
        let _guard = guard();
        set_enabled(true);
        reset();
        record(
            event("exchange.insert_row", Outcome::Inserted)
                .mapping("m2")
                .binding(0xdead_beef)
                .target(42),
        );
        record(event(
            "exchange.annotate",
            Outcome::AnnotationSuppressed {
                reason: "already-present",
            },
        ));
        record(
            event(
                "mxql.translate",
                Outcome::TranslateStep {
                    rule: "expand-predicate",
                },
            )
            .detail("<e -> m -> e'> => Correspondence join"),
        );
        set_enabled(false);
        let jsonl = to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(
            first.get("stage").and_then(Value::as_str),
            Some("exchange.insert_row")
        );
        assert_eq!(first.get("mapping").and_then(Value::as_str), Some("m2"));
        assert_eq!(
            first.get("binding_fp").and_then(Value::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(first.get("target").and_then(Value::as_u64), Some(42));
        assert_eq!(
            first.get("outcome").and_then(Value::as_str),
            Some("inserted")
        );
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            second.get("reason").and_then(Value::as_str),
            Some("already-present")
        );
        let third: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(
            third.get("rule").and_then(Value::as_str),
            Some("expand-predicate")
        );
        assert!(third.get("detail").is_some());
    }

    #[test]
    fn summary_json_carries_counts_and_both_tallies() {
        let s = Summary {
            counts: Counts {
                recorded: 100,
                retained: 64,
                dropped: 36,
                cap: 64,
            },
            by_outcome: vec![("inserted".to_string(), 40), ("pnf_merged".to_string(), 24)],
            recorded_by_outcome: vec![
                ("guard_abort".to_string(), 2),
                ("inserted".to_string(), 70),
                ("pnf_merged".to_string(), 28),
            ],
        };
        assert_eq!(
            s.to_json().to_string(),
            "{\"recorded\":100,\"retained\":64,\"dropped\":36,\"cap\":64,\
             \"by_outcome\":{\"inserted\":40,\"pnf_merged\":24},\
             \"recorded_by_outcome\":{\"guard_abort\":2,\"inserted\":70,\"pnf_merged\":28}}"
        );
    }
}
