//! The work one fixed workload does, pinned exactly.
//!
//! Work counters (tuples scanned, bindings enumerated, hash probes, rows
//! inserted and merged, annotations, guard polls, metastore tuples) and the
//! statistics catalog's footprint are deterministic for a fixed workload
//! run serially, so any change to how much work the engine does shows up
//! here as an exact mismatch. Wall-clock numbers are not pinned; the
//! repository benchmark measures those.
//!
//! The counter registry and the statistics catalog are process-global,
//! so this file is its own test binary with a single test: nothing else
//! in the process can tick them.

use dtr::core::runner::MetaRunner;
use dtr::portal::scenario::{build, ScenarioConfig};
use dtr::query::parser::parse_query;

/// Direct selection, an `@map` extension, and an MXQL mapping predicate.
const QUERIES: &[&str] = &[
    "select h.hid, h.price from Portal.houses h where h.price > 800000",
    "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > 800000",
    "select h.hid, m from Portal.houses h, h.price@map m \
     where h.price > 800000 and e = h.price@elem \
       and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
];

/// Every registry counter after the workload, sorted by name. The exchange
/// is serial, so `exchange.parallel_workers` stays 0 on any host.
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
    ("exchange.parallel_workers", 0),
    ("exchange.rows_inserted", 3416),
    ("exchange.rows_merged", 1978),
    ("guard.checks", 440),
    ("guard.rollbacks", 0),
    ("guard.trips", 0),
    ("metastore.tuples_encoded", 842),
    ("translate.branches", 1),
    ("xml.annotations_suppressed", 0),
    ("xml.annotations_written", 0),
];

#[test]
fn fixed_workload_does_pinned_work() {
    dtr_obs::set_enabled(true);
    dtr_obs::stats::set_enabled(true);
    dtr_obs::profile_reset();
    dtr_obs::stats::reset();

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
    for text in QUERIES {
        tagged.query(text).unwrap();
    }
    runner
        .run(&tagged, &parse_query(QUERIES[1]).unwrap(), None)
        .unwrap();

    let counters = dtr_obs::counters().snapshot();
    let catalog = dtr_obs::stats::snapshot();
    let footprint = (
        catalog.paths.len(),
        catalog.joins.len(),
        catalog.paths.values().map(|p| p.tuples).sum::<u64>(),
    );
    let counters: Vec<(&str, u64)> = counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(counters, EXPECTED);
    // Paths, join keys, and tuples observed across all paths.
    assert_eq!(footprint, (247, 5, 59_954));
}
