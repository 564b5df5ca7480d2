//! The statistics catalog as a queryable nested-relational source.
//!
//! Section 7.1 stores schemas and mappings as data so the system can be
//! asked about itself; this module extends the same move to the runtime
//! statistics the engine gathers (see `dtr_obs::stats`): the
//! [`StatsCatalog`] becomes three relations — per-path tuple/distinct
//! counts, per-join-key selectivities, and the set-cardinality histogram —
//! so MXQL queries can join observed statistics against the `Element`
//! relation of [`crate::view`] or filter joins by measured selectivity.

use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_model::types::{AtomicType, Type};
use dtr_model::value::AtomicValue;
use dtr_obs::{bucket_lower, bucket_upper, StatsCatalog};

/// The reserved database name of the statistics source.
pub const STATS_DB: &str = "StatsDb";

/// Selectivity value stored when a join saw no cross product at all (the
/// ratio is undefined); negative so `where j.selectivity > 0.1` style
/// predicates never select it by accident.
pub const UNDEFINED_SELECTIVITY: f64 = -1.0;

/// Builds the nested-relational schema of the statistics relations.
pub fn stats_schema() -> Schema {
    Schema::build(
        STATS_DB,
        vec![
            (
                "PathStats",
                Type::relation(vec![
                    ("path", AtomicType::String),
                    ("tuples", AtomicType::Integer),
                    ("sets", AtomicType::Integer),
                    ("distinctEst", AtomicType::Integer),
                ]),
            ),
            (
                "JoinStats",
                Type::relation(vec![
                    ("key", AtomicType::String),
                    ("buildRows", AtomicType::Integer),
                    ("probeRows", AtomicType::Integer),
                    ("probes", AtomicType::Integer),
                    ("matches", AtomicType::Integer),
                    ("selectivity", AtomicType::Float),
                ]),
            ),
            (
                "SetCardHist",
                Type::relation(vec![
                    ("path", AtomicType::String),
                    ("bucket", AtomicType::Integer),
                    ("lo", AtomicType::Integer),
                    ("hi", AtomicType::Integer),
                    ("count", AtomicType::Integer),
                ]),
            ),
        ],
    )
    .expect("the statistics schema is statically valid")
}

/// `u64` counters clamped into the `Integer` column type.
fn int(v: u64) -> Value {
    Value::int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Materializes a statistics catalog as an instance of [`stats_schema`],
/// with element annotations computed so the statistics relations compose
/// with annotation-aware queries like any other source.
pub fn stats_instance(catalog: &StatsCatalog, schema: &Schema) -> Instance {
    let span = dtr_obs::span("metastore.stats_instance")
        .field("paths", catalog.paths.len())
        .field("joins", catalog.joins.len());
    let mut inst = Instance::new(STATS_DB);
    inst.install_root(
        "PathStats",
        Value::set(
            catalog
                .paths
                .iter()
                .map(|(path, s)| {
                    Value::record(vec![
                        ("path", Value::str(path)),
                        ("tuples", int(s.tuples)),
                        ("sets", int(s.sets)),
                        ("distinctEst", int(s.distinct_estimate())),
                    ])
                })
                .collect(),
        ),
    );
    inst.install_root(
        "JoinStats",
        Value::set(
            catalog
                .joins
                .iter()
                .map(|(key, j)| {
                    Value::record(vec![
                        ("key", Value::str(key)),
                        ("buildRows", int(j.build_rows)),
                        ("probeRows", int(j.probe_rows)),
                        ("probes", int(j.probes)),
                        ("matches", int(j.matches)),
                        (
                            "selectivity",
                            Value::Atomic(AtomicValue::Float(
                                j.selectivity().unwrap_or(UNDEFINED_SELECTIVITY),
                            )),
                        ),
                    ])
                })
                .collect(),
        ),
    );
    inst.install_root(
        "SetCardHist",
        Value::set(
            catalog
                .paths
                .iter()
                .flat_map(|(path, s)| {
                    s.set_card
                        .iter()
                        .enumerate()
                        .filter(|&(_, &count)| count > 0)
                        .map(move |(bucket, &count)| {
                            Value::record(vec![
                                ("path", Value::str(path)),
                                ("bucket", int(bucket as u64)),
                                ("lo", int(bucket_lower(bucket))),
                                ("hi", int(bucket_upper(bucket))),
                                ("count", int(count)),
                            ])
                        })
                })
                .collect(),
        ),
    );
    inst.annotate_elements(schema)
        .expect("stats instance conforms to stats schema by construction");
    span.record("nodes", inst.len());
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_obs::JoinStats;
    use dtr_query::eval::{Catalog, Evaluator, Source};
    use dtr_query::functions::FunctionRegistry;
    use dtr_query::parser::parse_query;

    fn sample_catalog() -> StatsCatalog {
        let mut c = StatsCatalog::new();
        c.record_set("US.houses", 2);
        c.record_set("US.houses", 3);
        c.record_value("US.houses.price", "450000");
        c.record_value("US.houses.price", "750000");
        c.record_value("US.houses.price", "450000");
        c.record_join(
            "US.agents.aid = US.houses.aid",
            JoinStats {
                build_rows: 2,
                probe_rows: 3,
                probes: 3,
                matches: 3,
            },
        );
        c.record_join(
            "EU.postings.hid = US.houses.hid",
            JoinStats {
                build_rows: 0,
                probe_rows: 0,
                probes: 0,
                matches: 0,
            },
        );
        c
    }

    #[test]
    fn stats_instance_is_queryable() {
        let schema = stats_schema();
        let inst = stats_instance(&sample_catalog(), &schema);
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(
            "select p.tuples, p.distinctEst
             from PathStats p
             where p.path = 'US.houses.price'",
        )
        .unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0][0], AtomicValue::Int(3));
        assert_eq!(r.tuples()[0][1], AtomicValue::Int(2));
    }

    #[test]
    fn join_selectivity_is_filterable() {
        let schema = stats_schema();
        let inst = stats_instance(&sample_catalog(), &schema);
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        // The undefined-selectivity join (no cross product) stores -1.0 and
        // is excluded by any non-negative predicate.
        let q = parse_query("select j.key from JoinStats j where j.selectivity > 0.4").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.tuples()[0][0].to_string(),
            "US.agents.aid = US.houses.aid"
        );
    }

    #[test]
    fn histogram_rows_are_sparse() {
        let schema = stats_schema();
        let inst = stats_instance(&sample_catalog(), &schema);
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select h.bucket, h.count from SetCardHist h").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        // Cardinalities 2 and 3 share the [2,4) bucket: exactly one sparse row.
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0][0], AtomicValue::Int(1));
        assert_eq!(r.tuples()[0][1], AtomicValue::Int(2));
    }
}
