//! The portal's incremental apply against a full re-exchange under listing
//! churn.
//!
//! Seeded batches of 1–4 edits reprice, delete, insert and move listings
//! of `HS.houses` and `Yahoo.listings`. A move copies another listing's
//! neighborhood, city and state, so it changes the keys of `hs2`'s
//! `housesInNeighborhood` self-join. After every batch the incrementally
//! maintained target and the per-mapping decisions must equal a full
//! exchange over the edited sources, with no mapping re-evaluated in full;
//! and the whole stream applied as one batch must end in the same state.

use dtr::core::incremental::IncrementalSession;
use dtr::mapping::delta::SourceDelta;
use dtr::mapping::exchange::{execute_mappings_with, ExchangeOptions, ExchangeReport};
use dtr::model::instance::{Instance, Value};
use dtr::portal::scenario::{build, ScenarioConfig};
use dtr::query::eval::Source;
use dtr::query::functions::FunctionRegistry;
use dtr_check::laws::canon;
use proptest::test_runner::TestRng;

/// The edited sets: `(edit path, source index in setting order, root,
/// set label, the member's id field)`.
const SETS: [(&str, usize, &str, &str, &str); 2] = [
    ("Yahoo.listings", 0, "Yahoo", "listings", "id"),
    ("HS.houses", 4, "HS", "houses", "hid"),
];

/// Batches per stream.
const BATCHES: usize = 10;

/// Per-mapping decisions: `(mapping, tuples, bindings, rows inserted,
/// rows merged)`.
type Decisions = Vec<(String, usize, usize, usize, usize)>;

fn decisions(report: &ExchangeReport) -> Decisions {
    report
        .per_mapping
        .iter()
        .map(|s| {
            let m = s.mapping.to_string();
            (m, s.tuples, s.bindings, s.rows_inserted, s.rows_merged)
        })
        .collect()
}

/// A session over the portal at about 12 listings per source.
fn session(overlap: f64, buggy: bool) -> IncrementalSession {
    let scenario = build(ScenarioConfig {
        listings_per_source: 12,
        overlap,
        buggy_neighborhood_join: buggy,
        ..Default::default()
    });
    IncrementalSession::new(scenario.setting, scenario.sources).unwrap()
}

/// The canonical target and decisions of a full exchange over the
/// session's current sources.
fn full_exchange(s: &IncrementalSession) -> (String, Decisions) {
    let views: Vec<Source<'_>> = s
        .setting()
        .source_schemas()
        .iter()
        .zip(s.sources())
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let (target, report) = execute_mappings_with(
        &views,
        s.setting().target_schema(),
        s.setting().mappings(),
        &FunctionRegistry::with_builtins(),
        &ExchangeOptions::default(),
    )
    .unwrap();
    (canon(&target), decisions(&report))
}

fn members(inst: &Instance, root: &str, label: &str) -> Vec<Value> {
    let set = inst
        .root(root)
        .and_then(|r| inst.child_by_label(r, label))
        .unwrap();
    inst.set_members(set)
        .unwrap()
        .iter()
        .map(|&m| inst.to_value(m))
        .collect()
}

/// `v` with the given fields replaced.
fn with_fields(v: &Value, updates: &[(&str, Value)]) -> Value {
    let Value::Record(fields) = v else {
        panic!("a listing is a record")
    };
    let mut fields = fields.clone();
    for (label, value) in fields.iter_mut() {
        if let Some((_, new)) = updates.iter().find(|(l, _)| label.as_str() == *l) {
            *value = new.clone();
        }
    }
    Value::Record(fields)
}

/// `v`'s field `label`.
fn field(v: &Value, label: &str) -> Value {
    let Value::Record(fields) = v else {
        panic!("a listing is a record")
    };
    fields
        .iter()
        .find(|(l, _)| l.as_str() == label)
        .map(|(_, v)| v.clone())
        .unwrap()
}

/// `v` moved to `other`'s neighborhood, city and state.
fn moved(v: &Value, other: &Value) -> Value {
    let keys = ["neighborhood", "city", "state"].map(|k| (k, field(other, k)));
    with_fields(v, &keys)
}

/// The next seeded batch against the session's current sources. Deletes
/// and modifies use distinct indices, emitted in descending order per set
/// so each resolves against the member it was drawn from; inserts come
/// last.
fn next_batch(rng: &mut TestRng, s: &IncrementalSession, fresh: &mut usize) -> SourceDelta {
    let mut per_set: [Vec<(usize, Option<Value>)>; 2] = [Vec::new(), Vec::new()];
    let mut inserts: Vec<(usize, Value)> = Vec::new();
    for _ in 0..=rng.below(4) {
        let si = rng.below(2) as usize;
        let (_, source, root, label, id) = SETS[si];
        let all = members(&s.sources()[source], root, label);
        let pick = |rng: &mut TestRng| &all[rng.below(all.len() as u64) as usize];
        let op = rng.below(4);
        if op == 0 || all.len() <= per_set[si].len() + 4 {
            // Insert a copy of one listing, under a new id, in another's
            // neighborhood.
            *fresh += 1;
            let copy = with_fields(pick(rng), &[(id, Value::str(format!("HN{fresh}")))]);
            let value = moved(&copy, pick(rng));
            inserts.push((si, value));
            continue;
        }
        let idx = loop {
            let i = rng.below(all.len() as u64) as usize;
            if per_set[si].iter().all(|&(j, _)| j != i) {
                break i;
            }
        };
        let edit = match op {
            1 => None,
            2 => {
                let price = 100_000 + 1_000 * rng.below(1_000) as i64;
                Some(with_fields(&all[idx], &[("price", Value::int(price))]))
            }
            _ => Some(moved(&all[idx], pick(rng))),
        };
        per_set[si].push((idx, edit));
    }
    let mut delta = SourceDelta::new();
    for (si, mut edits) in per_set.into_iter().enumerate() {
        edits.sort_by_key(|&(idx, _)| std::cmp::Reverse(idx));
        for (idx, edit) in edits {
            delta = match edit {
                Some(v) => delta.modify(SETS[si].0, idx, v),
                None => delta.delete(SETS[si].0, idx),
            };
        }
    }
    for (si, v) in inserts {
        delta = delta.insert(SETS[si].0, v);
    }
    delta
}

fn churn(overlap: f64, buggy: bool, seed: u64) {
    let ctx = format!("overlap {overlap}, buggy hs2 {buggy}, seed {seed}");
    let mut s = session(overlap, buggy);
    let mut rng = TestRng::from_seed(seed);
    let mut fresh = 0;
    let mut stream = Vec::new();
    for step in 0..BATCHES {
        let delta = next_batch(&mut rng, &s, &mut fresh);
        let td = s.apply(&delta).unwrap();
        assert_eq!(
            td.mappings_full, 0,
            "{ctx}, step {step}: full re-evaluation"
        );
        let (want, want_decisions) = full_exchange(&s);
        assert!(
            canon(s.target()) == want,
            "{ctx}, step {step}: target differs from a full exchange"
        );
        assert_eq!(
            decisions(s.report()),
            want_decisions,
            "{ctx}, step {step}: decisions differ from a full exchange"
        );
        stream.extend(delta.edits);
    }
    let mut batched = session(overlap, buggy);
    let td = batched.apply(&SourceDelta { edits: stream }).unwrap();
    assert_eq!(
        td.mappings_full, 0,
        "{ctx}: full re-evaluation in one batch"
    );
    assert!(
        canon(batched.target()) == canon(s.target()),
        "{ctx}: the stream as one batch ends in another target"
    );
    assert_eq!(decisions(batched.report()), decisions(s.report()), "{ctx}");
}

#[test]
fn fixed_hs2_without_overlap() {
    churn(0.0, false, 1);
}

#[test]
fn fixed_hs2_with_overlap() {
    churn(0.5, false, 2);
}

#[test]
fn buggy_hs2_without_overlap() {
    churn(0.0, true, 3);
}

#[test]
fn buggy_hs2_with_overlap() {
    churn(0.5, true, 4);
}
