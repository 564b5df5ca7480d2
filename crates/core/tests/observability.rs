//! End-to-end checks of the `dtr-obs` instrumentation: per-mapping exchange
//! statistics and the work they add up to, the aggregated span tree, and
//! the profile's JSON form.
//!
//! The span collector is thread-local but the enable gate is global, so
//! every test here takes `GUARD` to serialize.

use dtr_core::tagged::{MappingSetting, TaggedInstance};
use dtr_core::testkit;
use serde_json::Value;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

/// A two-mapping setting: m2 (US firms) and m3 (EU postings). Both emit the
/// HomeGain contact, so m3 — running second — merges it into m2's row (the
/// Figure 3 PNF merge).
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

#[test]
fn two_mapping_exchange_stats_spans_and_counters() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(true);
    dtr_obs::profile_reset();

    let tagged = two_mapping_tagged();
    let profile = dtr_obs::profile_snapshot();
    dtr_obs::set_enabled(false);

    // Per-mapping report stats: one entry per mapping, and every merge
    // decision is either an insert or a PNF merge.
    let report = tagged.report();
    assert_eq!(report.per_mapping.len(), 2);
    for stats in &report.per_mapping {
        assert!(stats.tuples > 0, "{stats:?}");
        assert!(stats.bindings > 0, "{stats:?}");
        assert_eq!(
            stats.bindings,
            stats.rows_inserted + stats.rows_merged,
            "{stats:?}"
        );
        assert!(stats.annotations_written > 0, "{stats:?}");
    }
    // m2 runs first into an empty target and inserts everything; m3 emits
    // the same HomeGain contact, which must PNF-merge rather than insert.
    let m2 = report.stats_for("m2").expect("m2 stats present");
    assert_eq!(m2.rows_merged, 0);
    let m3 = report.stats_for("m3").expect("m3 stats present");
    assert!(m3.rows_merged > 0, "{m3:?}");

    // The exchange's work agrees with the report totals: one foreach run
    // per mapping, and every insert, merge and annotation decision.
    let totals = report.totals();
    let work = report.work();
    assert_eq!(work.eval_queries_evaluated, 2);
    assert_eq!(work.eval_tuples_scanned, totals.eval.tuples_scanned);
    assert_eq!(work.exchange_rows_inserted, totals.rows_inserted as u64);
    assert_eq!(work.exchange_rows_merged, totals.rows_merged as u64);
    assert_eq!(
        work.exchange_annotations_written,
        totals.annotations_written as u64
    );
    assert_eq!(
        work.exchange_annotations_suppressed,
        totals.annotations_suppressed as u64
    );

    // The span tree aggregates both mappings under one run_mapping node.
    let tagged_stage = profile
        .stages
        .iter()
        .find(|s| s.name == "exchange.tagged_instance")
        .expect("tagged_instance stage recorded");
    let execute = tagged_stage
        .children
        .iter()
        .find(|c| c.name == "exchange.execute_mappings")
        .expect("execute_mappings child recorded");
    let run = execute
        .children
        .iter()
        .find(|c| c.name == "exchange.run_mapping")
        .expect("run_mapping child recorded");
    assert_eq!(run.count, 2);
    assert!(run.total_ns >= run.min_ns + run.max_ns - run.total_ns.min(1));
    // insert_row runs once per foreach tuple (each call walks every
    // exists-clause binding of that tuple).
    let insert = run
        .children
        .iter()
        .find(|c| c.name == "exchange.insert_row")
        .expect("insert_row child recorded");
    assert_eq!(insert.count, totals.tuples as u64);
}

#[test]
fn exchange_profile_json_carries_every_counter_and_stage() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(true);
    dtr_obs::profile_reset();

    let tagged = two_mapping_tagged();
    let r = tagged
        .query("select x.hid, m from Portal.estates x, x.value@map m")
        .expect("MXQL query runs");
    let mut profile = dtr_obs::profile_snapshot();
    dtr_obs::set_enabled(false);
    let mut work = tagged.report().work();
    work += r.stats.into();
    profile.counters = work.entries();

    assert!(profile.counter("eval.tuples_scanned").unwrap_or(0) > 0);
    assert!(profile.counter("eval.bindings_enumerated").unwrap_or(0) > 0);

    let json: Value = serde_json::from_str(&profile.to_json_string()).expect("compact parses");
    // Every attached count, under its name, with its value.
    let counters = json.get("counters").and_then(Value::as_object).unwrap();
    assert_eq!(counters.len(), profile.counters.len());
    for &(name, value) in &profile.counters {
        assert_eq!(counters.get(name).and_then(Value::as_u64), Some(value));
    }
    // Every root stage, in order, with its call count and times.
    let stages = json.get("stages").and_then(Value::as_array).unwrap();
    assert_eq!(stages.len(), profile.stages.len());
    for (written, stage) in stages.iter().zip(&profile.stages) {
        assert_eq!(
            written.get("name").and_then(Value::as_str),
            Some(stage.name.as_str())
        );
        assert_eq!(
            written.get("count").and_then(Value::as_u64),
            Some(stage.count)
        );
        assert_eq!(
            written.get("total_ns").and_then(Value::as_u64),
            Some(stage.total_ns)
        );
    }
    // The pretty form holds the same document.
    let pretty: Value =
        serde_json::from_str(&serde_json::to_string_pretty(&profile.to_json()).unwrap()).unwrap();
    assert_eq!(pretty, json);
}

#[test]
fn parallel_exchange_profile_keeps_the_workers_spans() {
    use dtr_mapping::exchange::ExchangeOptions;
    let _guard = GUARD.lock().unwrap();
    // The stages directly under `exchange.execute_mappings`, with their
    // call counts, and the `query.eval` calls anywhere in the tree.
    let profiled = |opts: &ExchangeOptions| {
        dtr_obs::set_enabled(true);
        dtr_obs::profile_reset();
        let tagged = TaggedInstance::exchange_with_options(
            testkit::figure1_setting(),
            testkit::figure1_sources(),
            opts,
        )
        .expect("the Figure 1 exchange succeeds");
        let profile = dtr_obs::profile_snapshot();
        dtr_obs::set_enabled(false);
        assert_eq!(tagged.report().per_mapping.len(), 3);
        let execute = profile.stages[0]
            .children
            .iter()
            .find(|c| c.name == "exchange.execute_mappings")
            .expect("execute_mappings recorded")
            .clone();
        let mut stages: Vec<(String, u64)> = execute
            .children
            .iter()
            .map(|c| (c.name.clone(), c.count))
            .collect();
        stages.sort();
        (stages, span_calls(&profile.stages, "query.eval"))
    };
    let serial = profiled(&ExchangeOptions::default());
    let parallel = profiled(&ExchangeOptions {
        parallel: true,
        // Explicit cap so the threaded path runs even on one core.
        workers: 2,
        ..ExchangeOptions::default()
    });
    assert!(
        serial.0.contains(&("query.eval".to_string(), 3)),
        "{serial:?}"
    );
    // The workers' foreach evaluations sit where the serial run's do.
    assert_eq!(parallel, serial);
}

#[test]
fn disabled_profiling_records_nothing() {
    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    dtr_obs::profile_reset();

    let tagged = two_mapping_tagged();
    // Local report stats and the work they add up to are always on
    // (plain integer bumps)...
    assert!(tagged.report().totals().bindings > 0);
    assert!(tagged.report().work().exchange_rows_inserted > 0);
    // ...but no spans were recorded, and a snapshot carries no counts of
    // its own.
    let profile = dtr_obs::profile_snapshot();
    assert!(profile.stages.is_empty());
    assert!(profile.counters.is_empty());

    // EvalStats on QueryResult are always populated as well.
    let r = tagged
        .query("select x.hid from Portal.estates x")
        .expect("query runs");
    assert!(r.stats.tuples_scanned > 0);
    assert!(r.stats.bindings_enumerated > 0);
}

/// Each stage span that `open` and `checkpoint` record, by name.
const DURABLE_STEPS: [&str; 8] = [
    "durable.recover.wal",
    "durable.recover.decode",
    "durable.recover.rebuild",
    "durable.recover.verify",
    "durable.recover.replay",
    "durable.checkpoint.rebase",
    "durable.checkpoint.encode",
    "durable.checkpoint.rotate",
];

/// Calls of the span `name` summed over every position in the tree.
fn span_calls(nodes: &[dtr_obs::ProfileNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| (if n.name == name { n.count } else { 0 }) + span_calls(&n.children, name))
        .sum()
}

#[test]
fn reopen_and_checkpoint_record_one_span_per_step() {
    use dtr_core::store::{DurableOptions, DurableSession};
    use dtr_mapping::delta::SourceDelta;
    use dtr_mapping::durable::MemVfs;
    use std::sync::Arc;

    let _guard = GUARD.lock().unwrap();
    dtr_obs::set_enabled(false);
    let vfs = Arc::new(MemVfs::new());
    let mut live = DurableSession::create(
        testkit::figure1_setting(),
        testkit::figure1_sources(),
        None,
        vfs.clone(),
        "wal",
        DurableOptions::default(),
    )
    .expect("the Figure 1 log is created");
    live.apply(&SourceDelta::new().delete("US.houses", 0))
        .expect("the batch commits");
    drop(live);

    for profiled in [true, false] {
        dtr_obs::set_enabled(profiled);
        dtr_obs::profile_reset();
        let (mut reopened, report) = DurableSession::open(
            Arc::new(vfs.clone_files()),
            "wal",
            DurableOptions::default(),
        )
        .expect("the log reopens");
        assert_eq!(report.replayed, 1);
        reopened.checkpoint().expect("the checkpoint rotates");
        let profile = dtr_obs::profile_snapshot();
        dtr_obs::set_enabled(false);
        for step in DURABLE_STEPS {
            let expected = u64::from(profiled);
            assert_eq!(span_calls(&profile.stages, step), expected, "{step}");
        }
    }
}
