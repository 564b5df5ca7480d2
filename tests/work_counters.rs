//! The work one fixed workload does, pinned exactly.
//!
//! Work counts (tuples scanned, bindings enumerated, hash probes, rows
//! inserted and merged, annotations, metastore tuples) are deterministic
//! for a fixed workload run serially, so any change to how much work the
//! engine does shows up here as an exact mismatch. They are summed from
//! what the workload's calls return and the tallies its sessions keep, so
//! they are the same whichever telemetry tiers are on. The workload
//! instance's statistics are pinned too, so a change to what the exchange
//! produces shows up as well. Wall-clock numbers are not pinned; the
//! repository benchmark measures those.
//!
//! A second part pins the incremental and durable counts: a WAL-backed
//! session over the Figure 1 setting commits, checkpoints, commits again
//! and is reopened.

use std::sync::Arc;

use dtr::core::runner::MetaRunner;
use dtr::core::stats::PathStats;
use dtr::core::store::{DurableOptions, DurableSession};
use dtr::core::testkit::{figure1_setting, figure1_sources};
use dtr::mapping::delta::SourceDelta;
use dtr::mapping::durable::MemVfs;
use dtr::model::instance::Value;
use dtr::portal::scenario::{build, ScenarioConfig};
use dtr::query::parser::parse_query;
use dtr_obs::Work;

/// Direct selection, an `@map` extension, and an MXQL mapping predicate.
const QUERIES: &[&str] = &[
    "select h.hid, h.price from Portal.houses h where h.price > 800000",
    "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > 800000",
    "select h.hid, m from Portal.houses h, h.price@map m \
     where h.price > 800000 and e = h.price@elem \
       and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
];

/// Every count of the workload's work, sorted by name.
const EXPECTED: &[(&str, u64)] = &[
    ("durable.checkpoints", 0),
    ("durable.epochs_published", 0),
    ("durable.io_retries", 0),
    ("durable.recoveries", 0),
    ("durable.replayed_deltas", 0),
    ("durable.wal_appends", 0),
    ("durable.wal_bytes", 0),
    ("eval.bindings_enumerated", 11_317),
    ("eval.hash_probes", 4512),
    ("eval.queries_evaluated", 20),
    ("eval.tuples_scanned", 14_385),
    ("exchange.annotations_suppressed", 32_611),
    ("exchange.annotations_written", 60_784),
    ("exchange.delta_batches", 0),
    ("exchange.delta_classes_rebuilt", 0),
    ("exchange.delta_edits", 0),
    ("exchange.delta_mappings_full", 0),
    ("exchange.delta_mappings_pruned", 0),
    ("exchange.delta_mappings_reevaluated", 0),
    ("exchange.delta_rows_added", 0),
    ("exchange.delta_rows_removed", 0),
    ("exchange.rows_inserted", 3416),
    ("exchange.rows_merged", 1978),
    ("guard.rollbacks", 0),
    ("guard.trips", 0),
    ("metastore.tuples_encoded", 842),
    ("translate.branches", 1),
];

/// Every count of the durable session's work (create, two commits,
/// checkpoint) plus the reopened session's (its recovery).
const EXPECTED_DURABLE: &[(&str, u64)] = &[
    ("durable.checkpoints", 2),
    ("durable.epochs_published", 3),
    ("durable.io_retries", 0),
    ("durable.recoveries", 1),
    ("durable.replayed_deltas", 1),
    ("durable.wal_appends", 2),
    ("durable.wal_bytes", 323),
    ("eval.bindings_enumerated", 56),
    ("eval.hash_probes", 20),
    ("eval.queries_evaluated", 17),
    ("eval.tuples_scanned", 68),
    ("exchange.annotations_suppressed", 21),
    ("exchange.annotations_written", 87),
    ("exchange.delta_batches", 3),
    ("exchange.delta_classes_rebuilt", 4),
    ("exchange.delta_edits", 4),
    ("exchange.delta_mappings_full", 0),
    ("exchange.delta_mappings_pruned", 3),
    ("exchange.delta_mappings_reevaluated", 6),
    ("exchange.delta_rows_added", 3),
    ("exchange.delta_rows_removed", 1),
    ("exchange.rows_inserted", 15),
    ("exchange.rows_merged", 3),
    ("guard.rollbacks", 0),
    ("guard.trips", 0),
    ("metastore.tuples_encoded", 0),
    ("translate.branches", 0),
];

/// A Figure 1 `US.houses` row.
fn house(hid: &str) -> Value {
    Value::record(vec![
        ("hid", Value::str(hid)),
        ("floors", Value::str("2")),
        ("price", Value::str("500K")),
        ("aid", Value::str("a1")),
    ])
}

#[test]
fn fixed_workload_does_pinned_work() {
    // A serial exchange of the 1,000-listing portal, the three queries
    // evaluated directly, and the second one again through the Section 7
    // translation over the metastore.
    let tagged = build(ScenarioConfig {
        listings_per_source: 200,
        ..Default::default()
    })
    .exchange()
    .unwrap();
    let runner = MetaRunner::new(tagged.setting()).unwrap();
    let mut work = tagged.report().work();
    work += runner.work();
    for text in QUERIES {
        work += Work::from(tagged.query(text).unwrap().stats);
    }
    let translated = runner
        .run(&tagged, &parse_query(QUERIES[1]).unwrap(), None)
        .unwrap();
    // Each branch the translated run evaluated is one translate.branches.
    work += Work {
        translate_branches: translated.stats.runs,
        ..translated.stats.into()
    };
    assert_eq!(work.entries(), EXPECTED);
    // Paths, and tuples, sets and distinct values summed over all paths.
    let stats = tagged.statistics();
    let sum = |f: fn(&PathStats) -> u64| stats.paths.values().map(f).sum::<u64>();
    let footprint = (
        stats.paths.len(),
        sum(|p| p.tuples),
        sum(|p| p.sets),
        sum(|p| p.distinct),
    );
    assert_eq!(footprint, (247, 59_954, 2_417, 19_343));

    // A durable session on an in-memory file system: one batch with an
    // insert and a delete, a checkpoint, one more batch, a crash, and a
    // reopen that replays the batch after the checkpoint.
    let vfs = Arc::new(MemVfs::new());
    let mut session = DurableSession::create(
        figure1_setting(),
        figure1_sources(),
        None,
        vfs.clone(),
        "wal",
        DurableOptions::default(),
    )
    .unwrap();
    session
        .apply(
            &SourceDelta::new()
                .insert("US.houses", house("H800"))
                .delete("US.houses", 0),
        )
        .unwrap();
    session.checkpoint().unwrap();
    session
        .apply(&SourceDelta::new().insert("US.houses", house("H801")))
        .unwrap();
    let mut work = session.work();
    drop(session);
    let (reopened, report) = DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
    assert_eq!(report.replayed, 1);
    work += reopened.work();
    assert_eq!(work.entries(), EXPECTED_DURABLE);
}
