//! Cross-checks the `dtr-journal` event stream against the Section 6
//! provenance machinery: every `Inserted` event recorded during a
//! two-mapping exchange must correspond to a real foreach binding (same
//! fingerprint when the foreach query is replayed), and where-provenance of
//! the inserted values must land inside exactly that journaled binding.
//!
//! The journal gate is global, so every test here takes `GUARD` to
//! serialize (the `dtr-obs` crate's own guard is crate-private).

use dtr_core::provenance::{check_theorem_6_1, check_theorem_6_4, provenance_of, ProvenanceKind};
use dtr_core::tagged::{MappingSetting, TaggedInstance};
use dtr_core::testkit;
use dtr_mapping::exchange::row_fingerprint;
use dtr_model::instance::NodeId;
use dtr_model::value::MappingName;
use dtr_obs::journal::{self, Outcome};
use dtr_query::eval::Evaluator;
use std::collections::HashMap;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

/// The Figure 3 two-mapping setting: m2 (US firms) and m3 (EU postings)
/// both emit the HomeGain contact, so m3 PNF-merges into m2's row.
fn two_mapping_tagged() -> TaggedInstance {
    let setting = MappingSetting::new(
        vec![testkit::us_schema(), testkit::eu_schema()],
        testkit::portal_schema(),
        vec![testkit::m2(), testkit::m3()],
    )
    .expect("the two-mapping setting validates");
    TaggedInstance::exchange(
        setting,
        vec![testkit::us_instance(), testkit::eu_instance()],
    )
    .expect("the two-mapping exchange succeeds")
}

/// Replays every mapping's foreach query over the sources and returns, per
/// mapping name, the fingerprints of its binding rows together with the
/// rows themselves.
#[allow(clippy::type_complexity)]
fn replay_foreach(
    tagged: &TaggedInstance,
) -> HashMap<String, Vec<(u64, Vec<dtr_model::value::AtomicValue>)>> {
    let catalog = tagged.source_catalog();
    let mut out = HashMap::new();
    for m in tagged.setting().mappings() {
        let rows = Evaluator::new(&catalog, tagged.functions())
            .run(&m.foreach)
            .expect("foreach replays")
            .tuples();
        out.insert(
            m.name.to_string(),
            rows.into_iter()
                .map(|r| (row_fingerprint(&r), r))
                .collect::<Vec<_>>(),
        );
    }
    out
}

/// All atomic descendants of `root` (including `root` itself).
fn atomic_descendants(tagged: &TaggedInstance, root: NodeId) -> Vec<NodeId> {
    let inst = tagged.target();
    let mut stack = vec![root];
    let mut out = Vec::new();
    while let Some(n) = stack.pop() {
        if inst.atomic(n).is_some() {
            out.push(n);
        }
        stack.extend(inst.children(n).iter().copied());
    }
    out
}

#[test]
fn inserted_events_replay_to_real_foreach_bindings() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    journal::set_enabled(true);
    journal::reset();

    let tagged = two_mapping_tagged();
    let events = journal::events();
    journal::set_enabled(false);

    let bindings = replay_foreach(&tagged);
    let mut inserted = 0usize;
    for e in events.iter().filter(|e| e.stage == "exchange.insert_row") {
        assert!(
            matches!(e.outcome, Outcome::Inserted | Outcome::PnfMerged { .. }),
            "insert_row events are inserts or merges: {e:?}"
        );
        let mapping = e.mapping.as_deref().expect("insert events name a mapping");
        let fp = e.binding_fp.expect("insert events carry a binding");
        let rows = bindings.get(mapping).expect("mapping exists");
        assert!(
            rows.iter().any(|(rfp, _)| *rfp == fp),
            "event #{} fingerprint {fp:016x} is not a binding of {mapping}",
            e.id
        );
        if matches!(e.outcome, Outcome::Inserted) {
            inserted += 1;
        }
    }
    assert!(inserted > 0, "the exchange journals at least one insert");

    // The report totals agree with the event stream.
    let totals = tagged.report().totals();
    assert_eq!(inserted, totals.rows_inserted);
    let merged = events
        .iter()
        .filter(|e| {
            e.stage == "exchange.insert_row" && matches!(e.outcome, Outcome::PnfMerged { .. })
        })
        .count();
    assert_eq!(merged, totals.rows_merged);
}

#[test]
fn where_provenance_reaches_the_journaled_binding() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    journal::set_enabled(true);
    journal::reset();

    let tagged = two_mapping_tagged();
    let events = journal::events();
    journal::set_enabled(false);

    let bindings = replay_foreach(&tagged);
    let mut checked = 0usize;
    for e in events
        .iter()
        .filter(|e| e.stage == "exchange.insert_row" && matches!(e.outcome, Outcome::Inserted))
    {
        let mapping = MappingName::new(e.mapping.as_deref().unwrap());
        let target = NodeId(u32::try_from(e.target.expect("insert has target")).unwrap());
        let fp = e.binding_fp.unwrap();

        // The lineage index knows this event produced this node.
        assert!(
            journal::lineage_of(u64::from(target.0)).contains(&e.id),
            "lineage index misses event #{} for node {}",
            e.id,
            target.0
        );

        // The journaled fingerprint identifies one replayed foreach row.
        let row = bindings[mapping.as_str()]
            .iter()
            .find(|(rfp, _)| *rfp == fp)
            .map(|(_, r)| r.clone())
            .expect("journaled binding replays");

        // Every atomic value under the inserted node that this mapping
        // annotated must have where-provenance, and every where-provenance
        // fact must be drawn from the journaled binding row.
        for leaf in atomic_descendants(&tagged, target) {
            if !tagged.mappings_of(leaf).contains(&mapping) {
                continue;
            }
            let Ok(p) = provenance_of(&tagged, ProvenanceKind::Where, &mapping, leaf) else {
                // The mapping annotates skeleton ancestors it does not
                // populate (no select position) — those have no
                // where-provenance to check.
                continue;
            };
            assert!(
                !p.facts.is_empty(),
                "no where-provenance for node {} via {mapping}",
                leaf.0
            );
            let journaled = p
                .facts
                .tuples()
                .iter()
                .any(|fact| fact.iter().all(|v| row.contains(v)));
            assert!(
                journaled,
                "where-provenance of node {} via {mapping} never lands in \
                 the journaled binding {fp:016x}",
                leaf.0
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the cross-check exercised at least one value");
}

#[test]
fn theorems_6_1_and_6_4_hold_with_the_journal_enabled() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    journal::set_enabled(true);
    journal::reset();

    let tagged = two_mapping_tagged();
    for name in ["m2", "m3"] {
        let m = MappingName::new(name);
        assert_eq!(
            check_theorem_6_1(&tagged, &m).expect("6.1 check runs"),
            None,
            "Theorem 6.1 fails for {name} with the journal on"
        );
        assert_eq!(
            check_theorem_6_4(&tagged, &m).expect("6.4 check runs"),
            None,
            "Theorem 6.4 fails for {name} with the journal on"
        );
    }
    journal::set_enabled(false);
}

#[test]
fn event_windows_slice_the_journal_per_mapping() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    journal::set_enabled(true);
    journal::reset();

    let tagged = two_mapping_tagged();
    journal::set_enabled(false);

    let report = tagged.report();
    let overall = report.event_window().expect("exchange recorded events");
    for stats in &report.per_mapping {
        let (start, end) = stats
            .event_window()
            .expect("each mapping recorded at least one event");
        assert!(start >= overall.0 && end <= overall.1);
        let window = journal::events_in(start, end);
        assert!(!window.is_empty(), "window of {} is empty", stats.mapping);
        // Every named event inside a mapping's window belongs to it (PNF
        // merge events from the model layer carry no mapping name).
        for e in &window {
            if let Some(name) = e.mapping.as_deref() {
                assert_eq!(
                    name,
                    stats.mapping.as_str(),
                    "event #{} from {} leaked into the window of {}",
                    e.id,
                    name,
                    stats.mapping
                );
            }
        }
        // The per-mapping insert/merge counts are recoverable by slicing.
        let inserts = window
            .iter()
            .filter(|e| e.stage == "exchange.insert_row" && matches!(e.outcome, Outcome::Inserted))
            .count();
        let merges = window
            .iter()
            .filter(|e| {
                e.stage == "exchange.insert_row" && matches!(e.outcome, Outcome::PnfMerged { .. })
            })
            .count();
        assert_eq!(inserts, stats.rows_inserted, "{}", stats.mapping);
        assert_eq!(merges, stats.rows_merged, "{}", stats.mapping);
    }
}

#[test]
fn disabled_journal_records_nothing_during_exchange() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    journal::set_enabled(false);
    journal::reset();

    let tagged = two_mapping_tagged();
    assert!(tagged.report().totals().bindings > 0);
    assert!(journal::events().is_empty());
    assert_eq!(journal::summary().counts.recorded, 0);
    assert_eq!(tagged.report().event_window(), None);
}
