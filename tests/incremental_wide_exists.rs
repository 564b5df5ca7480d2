//! The incremental engine has no width limit on a mapping's exists clause:
//! a mapping whose exists query binds 70 target sets, chained by
//! equalities into one slot, builds, applies a delete+insert batch, and
//! stays canonically equal to a full exchange over the mutated sources.

use dtr::mapping::delta::SourceDelta;
use dtr::mapping::exchange::{execute_mappings_with, ExchangeOptions};
use dtr::mapping::glav::Mapping;
use dtr::mapping::incremental::IncrementalExchange;
use dtr::model::instance::{Instance, Value};
use dtr::model::schema::Schema;
use dtr::model::types::{AtomicType, Type};
use dtr::query::eval::Source;
use dtr::query::functions::FunctionRegistry;
use dtr_check::laws::canon;

const WIDTH: usize = 70;

fn row(a: &str) -> Value {
    Value::record(vec![("a", Value::str(a))])
}

/// Canonical renderings of the engine's target and of a full exchange over
/// its current sources.
fn incremental_and_full(inc: &IncrementalExchange) -> (String, String) {
    let views: Vec<Source> = (inc.source_schemas().iter().zip(inc.sources()))
        .map(|(schema, instance)| Source { schema, instance })
        .collect();
    let funcs = FunctionRegistry::with_builtins();
    let opts = ExchangeOptions::default();
    let (full, _) =
        execute_mappings_with(&views, inc.target_schema(), inc.mappings(), &funcs, &opts).unwrap();
    (canon(inc.target()), canon(&full))
}

#[test]
fn seventy_exists_bindings_build_apply_and_match_full_exchange() {
    let rel = || Type::relation(vec![("a", AtomicType::String)]);
    let source_schema =
        Schema::build("Src", vec![("S", Type::record(vec![("r", rel())]))]).unwrap();
    let sets = (0..WIDTH).map(|i| (format!("s{i}"), rel())).collect();
    let target_schema = Schema::build("Wide", vec![("T", Type::record(sets))]).unwrap();
    let from: Vec<String> = (0..WIDTH).map(|i| format!("T.s{i} t{i}")).collect();
    let chain: Vec<String> = (1..WIDTH)
        .map(|i| format!("t{}.a = t{i}.a", i - 1))
        .collect();
    let text = format!(
        "foreach select x.a from S.r x exists select t0.a from {} where {}",
        from.join(", "),
        chain.join(" and ")
    );
    let mut source = Instance::new("Src");
    let rows = Value::set(vec![row("1"), row("2"), row("3")]);
    source.install_root("S", Value::record(vec![("r", rows)]));
    source.annotate_elements(&source_schema).unwrap();

    let mut inc = IncrementalExchange::new(
        vec![source_schema],
        vec![source],
        target_schema,
        vec![Mapping::parse("wide", &text).unwrap()],
        FunctionRegistry::with_builtins(),
        ExchangeOptions::default(),
    )
    .unwrap();
    let (got, want) = incremental_and_full(&inc);
    assert_eq!(got, want);

    let td = inc
        .apply(&SourceDelta::new().delete("S.r", 0).insert("S.r", row("4")))
        .unwrap();
    assert_eq!((td.rows_removed, td.rows_added), (1, 1));
    assert_eq!((td.retracted.len(), td.inserted.len()), (WIDTH, WIDTH));
    let (got, want) = incremental_and_full(&inc);
    assert_eq!(got, want);
}
