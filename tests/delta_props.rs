//! Property-based tests for the incremental exchange delta API, over the
//! same seeded scenarios the conformance harness draws:
//!
//! * applying an edit batch is equivalent to applying its edits as
//!   singleton batches in order (batch resolution is sequential);
//! * inserting a tuple and deleting it in the same batch is a no-op on the
//!   target;
//! * every [`TargetDelta`] round-trips through its JSON rendering.

use dtr::mapping::delta::{EditOp, SourceDelta, TargetDelta};
use dtr::mapping::exchange::ExchangeOptions;
use dtr::mapping::incremental::IncrementalExchange;
use dtr::model::instance::Instance;
use dtr::model::schema::Schema;
use dtr::query::functions::FunctionRegistry;
use dtr_check::generators::{gen_scenario, gen_update_stream, GenConfig, Scenario};
use dtr_check::laws::canon;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn engine_for(scen: &Scenario) -> IncrementalExchange {
    let schemas: Vec<Schema> = scen.sources.iter().map(|(s, _)| s.clone()).collect();
    let mut instances: Vec<Instance> = scen.sources.iter().map(|(_, i)| i.clone()).collect();
    for (inst, schema) in instances.iter_mut().zip(&schemas) {
        inst.annotate_elements(schema).unwrap();
    }
    IncrementalExchange::new(
        schemas,
        instances,
        scen.target.clone(),
        scen.mappings.clone(),
        FunctionRegistry::with_builtins(),
        ExchangeOptions::default(),
    )
    .unwrap()
}

/// The live cardinality of a dot set path (`Root.rel`, or deeper through
/// records and selected choice alternatives) in the engine's sources.
fn cardinality(engine: &IncrementalExchange, path: &str) -> usize {
    let mut labels = path.split('.');
    let root = labels.next().unwrap();
    engine
        .sources()
        .iter()
        .find_map(|inst| {
            let s = labels
                .clone()
                .try_fold(inst.root(root)?, |n, l| inst.child_by_label(n, l))?;
            inst.set_members(s).map(<[_]>::len)
        })
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One batch of k edits ≡ k singleton batches applied in order: the
    /// targets (canonical rendering, annotations included) agree after
    /// every step.
    #[test]
    fn batch_equals_singletons_in_order(seed in 0u64..4096) {
        let cfg = GenConfig::default();
        let mut rng = TestRng::from_seed(seed);
        let scen = gen_scenario(&mut rng, &cfg);
        let stream = gen_update_stream(&mut rng, &scen, &cfg, 3);
        let mut batched = engine_for(&scen);
        let mut single = engine_for(&scen);
        for delta in &stream {
            batched.apply(delta).unwrap();
            for edit in &delta.edits {
                single
                    .apply(&SourceDelta { edits: vec![edit.clone()] })
                    .unwrap();
            }
            prop_assert_eq!(canon(batched.target()), canon(single.target()));
        }
    }

    /// Inserting a tuple and deleting it again in the same batch leaves
    /// the target untouched: batch resolution cancels the pair before any
    /// re-evaluation happens.
    #[test]
    fn insert_then_delete_same_tuple_is_a_noop(seed in 0u64..4096) {
        let cfg = GenConfig::default();
        let mut rng = TestRng::from_seed(seed);
        let scen = gen_scenario(&mut rng, &cfg);
        let stream = gen_update_stream(&mut rng, &scen, &cfg, 6);
        // Scavenge a conforming (path, member value) pair from the stream.
        let Some((path, value)) = stream.iter().flat_map(|d| &d.edits).find_map(|e| {
            match &e.op {
                EditOp::Insert(v) => Some((e.path.clone(), v.clone())),
                _ => None,
            }
        }) else {
            return Ok(()); // no insert drawn — nothing to test on this seed
        };
        let mut engine = engine_for(&scen);
        let before = canon(engine.target());
        let at = cardinality(&engine, &path);
        let td = engine
            .apply(&SourceDelta::new().insert(path.clone(), value).delete(path, at))
            .unwrap();
        prop_assert!(td.inserted.is_empty());
        prop_assert!(td.retracted.is_empty());
        prop_assert_eq!(td.rows_added, 0);
        prop_assert_eq!(td.rows_removed, 0);
        prop_assert_eq!(canon(engine.target()), before);
    }

    /// Every applied batch's TargetDelta round-trips through JSON.
    #[test]
    fn target_delta_roundtrips_through_json(seed in 0u64..4096) {
        let cfg = GenConfig::default();
        let mut rng = TestRng::from_seed(seed);
        let scen = gen_scenario(&mut rng, &cfg);
        let stream = gen_update_stream(&mut rng, &scen, &cfg, 3);
        let mut engine = engine_for(&scen);
        for delta in &stream {
            let td = engine.apply(delta).unwrap();
            let back = TargetDelta::from_json(&td.to_json());
            prop_assert_eq!(Some(td), back);
        }
    }
}
