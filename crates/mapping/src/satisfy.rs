//! Mapping satisfaction (Section 4.3).
//!
//! "Given a pair of instances `Is` of schema `Ss` and `It` of schema `St`,
//! the mapping is satisfied if `∀t ∈ Qs(Is) ⇒ t ∈ Qt(It)`" — the target
//! must contain every tuple the source query retrieves.

use crate::glav::Mapping;
use dtr_query::eval::{Catalog, EvalError, Evaluator, Source};
use dtr_query::functions::FunctionRegistry;
use std::collections::HashSet;

/// Checks whether `m` is satisfied by the given source and target
/// instances.
pub fn is_satisfied(
    m: &Mapping,
    sources: &[Source<'_>],
    target: Source<'_>,
    functions: &FunctionRegistry,
) -> Result<bool, EvalError> {
    Ok(violations(m, sources, target, functions)?.is_empty())
}

/// The tuples of `Qs(Is)` that are missing from `Qt(It)` — empty iff the
/// mapping is satisfied. Useful for debugging mapping definitions.
pub fn violations(
    m: &Mapping,
    sources: &[Source<'_>],
    target: Source<'_>,
    functions: &FunctionRegistry,
) -> Result<Vec<Vec<dtr_model::value::AtomicValue>>, EvalError> {
    let src_catalog = Catalog::new(sources.to_vec());
    let src_rows = Evaluator::new(&src_catalog, functions)
        .run(&m.foreach)?
        .tuples();
    let tgt_catalog = Catalog::new(vec![target]);
    let tgt_rows = Evaluator::new(&tgt_catalog, functions)
        .run(&m.exists)?
        .tuples();
    let tgt_set: HashSet<Vec<dtr_model::value::AtomicValue>> = tgt_rows.into_iter().collect();
    Ok(src_rows
        .into_iter()
        .filter(|t| !tgt_set.contains(t))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::instance::{Instance, Value};
    use dtr_model::schema::Schema;
    use dtr_model::types::{AtomicType, Type};

    fn setup() -> (Schema, Instance, Schema, Instance) {
        let src_s = Schema::build(
            "S",
            vec![(
                "R",
                Type::relation(vec![("a", AtomicType::String), ("b", AtomicType::String)]),
            )],
        )
        .unwrap();
        let tgt_s = Schema::build(
            "T",
            vec![(
                "Q",
                Type::relation(vec![("x", AtomicType::String), ("y", AtomicType::String)]),
            )],
        )
        .unwrap();
        let mut src_i = Instance::new("S");
        src_i.install_root(
            "R",
            Value::set(vec![
                Value::record(vec![("a", Value::str("1")), ("b", Value::str("2"))]),
                Value::record(vec![("a", Value::str("3")), ("b", Value::str("4"))]),
            ]),
        );
        src_i.annotate_elements(&src_s).unwrap();
        let mut tgt_i = Instance::new("T");
        tgt_i.install_root(
            "Q",
            Value::set(vec![Value::record(vec![
                ("x", Value::str("1")),
                ("y", Value::str("2")),
            ])]),
        );
        tgt_i.annotate_elements(&tgt_s).unwrap();
        (src_s, src_i, tgt_s, tgt_i)
    }

    #[test]
    fn detects_missing_tuples() {
        let (src_s, src_i, tgt_s, tgt_i) = setup();
        let m = Mapping::parse(
            "m",
            "foreach select r.a, r.b from R r exists select q.x, q.y from Q q",
        )
        .unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let v = violations(
            &m,
            &[Source {
                schema: &src_s,
                instance: &src_i,
            }],
            Source {
                schema: &tgt_s,
                instance: &tgt_i,
            },
            &funcs,
        )
        .unwrap();
        // (3,4) is missing in the target.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0][0].to_string(), "3");
        assert!(!is_satisfied(
            &m,
            &[Source {
                schema: &src_s,
                instance: &src_i
            }],
            Source {
                schema: &tgt_s,
                instance: &tgt_i
            },
            &funcs,
        )
        .unwrap());
    }

    #[test]
    fn satisfied_when_target_superset() {
        let (src_s, src_i, tgt_s, mut tgt_i) = setup();
        let q = tgt_i.root("Q").unwrap();
        tgt_i.push_set_member(
            q,
            &Value::record(vec![("x", Value::str("3")), ("y", Value::str("4"))]),
        );
        // An extra target tuple is fine: satisfaction is containment.
        tgt_i.push_set_member(
            q,
            &Value::record(vec![("x", Value::str("9")), ("y", Value::str("9"))]),
        );
        tgt_i.annotate_elements(&tgt_s).unwrap();
        let m = Mapping::parse(
            "m",
            "foreach select r.a, r.b from R r exists select q.x, q.y from Q q",
        )
        .unwrap();
        let funcs = FunctionRegistry::with_builtins();
        assert!(is_satisfied(
            &m,
            &[Source {
                schema: &src_s,
                instance: &src_i
            }],
            Source {
                schema: &tgt_s,
                instance: &tgt_i
            },
            &funcs,
        )
        .unwrap());
    }
}
