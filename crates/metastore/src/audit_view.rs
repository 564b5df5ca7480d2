//! The audit log as a queryable nested-relational source.
//!
//! Section 7.1 stores schemas and mappings as data so the system can be
//! asked about itself; this module extends that move to the request
//! history: a slice of [`AuditRecord`]s (see `dtr_obs::audit`) becomes
//! the single `AuditLog` relation of the `AuditDb` meta-instance, so MXQL
//! queries can ask "which query fingerprint was slowest?" or "which
//! requests tripped a guard?" with the same evaluator that runs data
//! queries.

use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_model::types::{AtomicType, Type};
use dtr_obs::AuditRecord;

/// The reserved database name of the audit source.
pub const AUDIT_DB: &str = "AuditDb";

/// Builds the nested-relational schema of the audit relation.
pub fn audit_schema() -> Schema {
    Schema::build(
        AUDIT_DB,
        vec![(
            "AuditLog",
            Type::relation(vec![
                ("seq", AtomicType::Integer),
                ("kind", AtomicType::String),
                ("fingerprint", AtomicType::String),
                ("request", AtomicType::String),
                ("rows", AtomicType::Integer),
                ("wallNs", AtomicType::Integer),
                ("outcome", AtomicType::String),
                ("tuplesScanned", AtomicType::Integer),
                ("bindingsEnumerated", AtomicType::Integer),
                ("triplesTested", AtomicType::Integer),
                ("hashProbes", AtomicType::Integer),
            ]),
        )],
    )
    .expect("the audit schema is statically valid")
}

/// `u64` counters clamped into the `Integer` column type.
fn int(v: u64) -> Value {
    Value::int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Materializes audit records as an instance of [`audit_schema`], with
/// element annotations computed so the audit relation composes with
/// annotation-aware queries like any other source.
pub fn audit_instance(records: &[AuditRecord], schema: &Schema) -> Instance {
    let span = dtr_obs::span("metastore.audit_instance").field("records", records.len());
    let mut inst = Instance::new(AUDIT_DB);
    inst.install_root(
        "AuditLog",
        Value::set(
            records
                .iter()
                .map(|r| {
                    Value::record(vec![
                        ("seq", int(r.seq)),
                        ("kind", Value::str(&r.kind)),
                        ("fingerprint", Value::str(&r.fingerprint)),
                        ("request", Value::str(&r.request)),
                        ("rows", int(r.rows)),
                        ("wallNs", int(r.wall_ns)),
                        ("outcome", Value::str(&r.outcome)),
                        ("tuplesScanned", int(r.tuples_scanned)),
                        ("bindingsEnumerated", int(r.bindings_enumerated)),
                        ("triplesTested", int(r.predicate_triples_tested)),
                        ("hashProbes", int(r.hash_probes)),
                    ])
                })
                .collect(),
        ),
    );
    inst.annotate_elements(schema)
        .expect("audit instance conforms to audit schema by construction");
    span.record("nodes", inst.len());
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::value::AtomicValue;
    use dtr_query::eval::{Catalog, Evaluator, Source};
    use dtr_query::functions::FunctionRegistry;
    use dtr_query::parser::parse_query;

    fn sample_records() -> Vec<AuditRecord> {
        let mut fast = AuditRecord::new("query", "select e.hid from Portal.estates e");
        fast.seq = 1;
        fast.rows = 3;
        fast.wall_ns = 12_000;
        fast.tuples_scanned = 9;
        let mut slow = AuditRecord::new("translate", "select e from where <db:e -> m -> 'Pdb':p>");
        slow.seq = 2;
        slow.rows = 1;
        slow.wall_ns = 880_000;
        slow.bindings_enumerated = 42;
        let mut tripped = AuditRecord::new("exchange", "m1,m2,m3");
        tripped.seq = 3;
        tripped.wall_ns = 55_000;
        tripped.outcome = "guard:rows".to_string();
        vec![fast, slow, tripped]
    }

    fn run(records: &[AuditRecord], text: &str) -> Vec<Vec<String>> {
        let schema = audit_schema();
        let inst = audit_instance(records, &schema);
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(text).unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        r.tuples()
            .iter()
            .map(|t| t.iter().map(|v| v.to_string()).collect())
            .collect()
    }

    #[test]
    fn slowest_request_by_fingerprint() {
        let records = sample_records();
        let rows = run(
            &records,
            "select a.fingerprint, a.wallNs from AuditLog a order by a.wallNs desc limit 1",
        );
        assert_eq!(rows.len(), 1);
        // The meta-instance answer matches the raw log's own maximum.
        let raw_slowest = records.iter().max_by_key(|r| r.wall_ns).unwrap();
        assert_eq!(rows[0][0], raw_slowest.fingerprint);
        assert_eq!(rows[0][1], raw_slowest.wall_ns.to_string());
    }

    #[test]
    fn guard_trips_are_filterable() {
        let rows = run(
            &sample_records(),
            "select a.kind, a.request from AuditLog a where a.outcome = 'guard:rows'",
        );
        assert_eq!(
            rows,
            vec![vec!["exchange".to_string(), "m1,m2,m3".to_string()]]
        );
    }

    #[test]
    fn eval_stats_columns_are_queryable() {
        let schema = audit_schema();
        let inst = audit_instance(&sample_records(), &schema);
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select a.bindingsEnumerated from AuditLog a where a.seq = 2").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.tuples()[0][0], AtomicValue::Int(42));
    }
}
