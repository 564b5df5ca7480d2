//! Hand-crafted retraction paths for the incremental exchange engine.
//!
//! `law_incremental` covers randomly generated update streams; these tests
//! pin the nasty deterministic cases by construction: a delete that
//! un-merges a PNF-merged member, a delete under a forced fingerprint
//! collision split, a modify that flips a choice alternative (moving rows
//! between mappings), and a `Budget` tripping mid-batch (abort-or-identical
//! holds for deltas too). Every step is checked byte-identically against a
//! full re-exchange over the mutated sources.

use dtr_check::laws::canon;
use dtr_core::testkit::{figure1_setting, figure1_sources};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::exchange::{execute_mappings_with, ExchangeOptions};
use dtr_mapping::incremental::IncrementalExchange;
use dtr_model::instance::Value;
use dtr_obs::guard::Budget;
use dtr_query::eval::Source;
use dtr_query::functions::FunctionRegistry;

// --- Figure 1 fixtures (US + EU real-estate sources into the portal) -----

/// A USdb house with a pool, like the sample's `H7`.
fn house(hid: &str, floors: &str, price: &str, aid: &str) -> Value {
    Value::record(vec![
        ("hid", Value::str(hid)),
        ("floors", Value::str(floors)),
        ("price", Value::str(price)),
        ("pool", Value::str("yes")),
        ("aid", Value::str(aid)),
    ])
}

fn agent(aid: &str, alt: &str, title: &str, phone: &str) -> Value {
    Value::record(vec![
        ("aid", Value::str(aid)),
        ("title", Value::choice(alt, Value::str(title))),
        ("phone", Value::str(phone)),
    ])
}

/// The engine over `dtr_core::testkit`'s Figure 1 setting and sources.
fn engine_with(opts: ExchangeOptions) -> IncrementalExchange {
    let setting = figure1_setting();
    let mut sources = figure1_sources();
    for (inst, schema) in sources.iter_mut().zip(setting.source_schemas()) {
        inst.annotate_elements(schema).unwrap();
    }
    IncrementalExchange::new(
        setting.source_schemas().to_vec(),
        sources,
        setting.target_schema().clone(),
        setting.mappings().to_vec(),
        FunctionRegistry::with_builtins(),
        opts,
    )
    .unwrap()
}

fn engine() -> IncrementalExchange {
    engine_with(ExchangeOptions::default())
}

/// The incremental target must equal a full re-exchange over the engine's
/// (mutated) sources, canonical rendering with annotations included.
fn assert_matches_full(inc: &IncrementalExchange, ctx: &str) {
    let views: Vec<Source> = inc
        .source_schemas()
        .iter()
        .zip(inc.sources())
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let funcs = FunctionRegistry::with_builtins();
    let (full, _) = execute_mappings_with(
        &views,
        inc.target_schema(),
        inc.mappings(),
        &funcs,
        &ExchangeOptions::default(),
    )
    .unwrap();
    assert_eq!(
        canon(inc.target()),
        canon(&full),
        "incremental target diverged from full re-exchange: {ctx}"
    );
}

fn estates_count(inc: &IncrementalExchange) -> usize {
    let t = inc.target();
    let root = t.root("Portal").unwrap();
    let set = t.child_by_label(root, "estates").unwrap();
    t.set_members(set).map_or(0, <[_]>::len)
}

// --- The nasty paths -----------------------------------------------------

/// Inserting an exact duplicate source tuple PNF-merges into the existing
/// target member; deleting one copy must keep the member alive (the class
/// still holds the surviving row), and deleting the last copy must retract
/// it entirely.
#[test]
fn delete_unmerges_a_pnf_merged_member() {
    let mut inc = engine();
    let before = estates_count(&inc);
    let td = inc
        .apply(&SourceDelta::new().insert("US.houses", house("H7", "1", "250K", "a1")))
        .unwrap();
    assert_matches_full(&inc, "after duplicate insert");
    assert_eq!(estates_count(&inc), before, "duplicate merges");
    assert!(td.rows_added > 0);

    // Delete the duplicate (appended last): the merged member survives on
    // the original row.
    inc.apply(&SourceDelta::new().delete("US.houses", 2))
        .unwrap();
    assert_matches_full(&inc, "after deleting one merged copy");
    assert_eq!(estates_count(&inc), before);

    // Delete the original H7 too: now the member is fully retracted.
    let td = inc
        .apply(&SourceDelta::new().delete("US.houses", 1))
        .unwrap();
    assert_matches_full(&inc, "after deleting the last copy");
    assert_eq!(estates_count(&inc), before - 1);
    assert!(!td.retracted.is_empty());
}

/// A constant fingerprint forces every member into one merge-index bucket;
/// merges are structurally confirmed, so the final target is unchanged —
/// and retraction must split only the right member out of the shared
/// bucket.
#[test]
fn delete_under_fingerprint_collision_split() {
    let mut inc = engine();
    inc.set_member_fingerprinter(|_| 42).unwrap();
    assert_matches_full(&inc, "after collision rebase");

    inc.apply(&SourceDelta::new().insert("US.houses", house("H900", "3", "900K", "a2")))
        .unwrap();
    assert_matches_full(&inc, "collision: after insert");

    inc.apply(&SourceDelta::new().delete("US.houses", 0))
        .unwrap();
    assert_matches_full(&inc, "collision: after deleting H522");

    inc.apply(&SourceDelta::new().delete("EU.postings", 0))
        .unwrap();
    assert_matches_full(&inc, "collision: after draining EU");
}

/// Modifying an agent's choice alternative moves its join rows from m1
/// (`title->name`) to m2 (`title->firm`): the old member is retracted under
/// m1's class and re-inserted under m2's, annotations included.
#[test]
fn modify_flips_a_choice_alternative() {
    let mut inc = engine();
    let flipped = agent("a1", "firm", "Smith Realty", "555-1111");
    let td = inc
        .apply(&SourceDelta::new().modify("US.agents", 0, flipped))
        .unwrap();
    assert_matches_full(&inc, "after choice flip");
    assert!(td.rows_removed > 0, "m1 lost its row");
    assert!(td.rows_added > 0, "m2 gained a row");

    // Flip back: the original target must be reproduced exactly.
    let original = agent("a1", "name", "Smith", "555-1111");
    inc.apply(&SourceDelta::new().modify("US.agents", 0, original))
        .unwrap();
    assert_matches_full(&inc, "after flipping back");
}

/// A `Budget` tripping mid-batch must leave the engine exactly as it was
/// before the apply — abort-or-identical holds for deltas — and the engine
/// must stay usable afterwards.
#[test]
fn budget_trip_mid_batch_is_abort_or_identical() {
    let mut inc = engine_with(ExchangeOptions {
        budget: Budget {
            max_rows: Some(8),
            ..Budget::unlimited()
        },
        ..Default::default()
    });
    let target_before = canon(inc.target());
    let sources_before: Vec<String> = inc.sources().iter().map(canon).collect();
    let report_before = format!("{:?}", inc.report().per_mapping);

    // One batch of a dozen fresh houses blows the 8-row cap mid-way.
    let mut big = SourceDelta::new();
    for i in 0..12 {
        big = big.insert("US.houses", house(&format!("HX{i}"), "1", "1K", "a1"));
    }
    let err = inc.apply(&big).unwrap_err();
    assert!(
        err.to_string().contains("budget") || err.to_string().contains("rows"),
        "unexpected error: {err}"
    );
    assert_eq!(canon(inc.target()), target_before, "target rolled back");
    assert_eq!(
        inc.sources().iter().map(canon).collect::<Vec<_>>(),
        sources_before,
        "sources rolled back"
    );
    assert_eq!(
        format!("{:?}", inc.report().per_mapping),
        report_before,
        "report rolled back"
    );

    // A batch that fits still applies and tracks the full re-exchange.
    inc.apply(&SourceDelta::new().insert("US.houses", house("H901", "2", "2K", "a2")))
        .unwrap();
    assert_matches_full(&inc, "after post-abort apply");
}
