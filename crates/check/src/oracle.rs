//! A naive reference oracle for query evaluation.
//!
//! This is a deliberately simple, obviously-correct evaluator used for
//! differential testing against `dtr_query::eval::Evaluator`. It shares the
//! *data model* (`dtr-model`) and the evaluator's public `Catalog`/`Source`/
//! `MetaEnv` input types, but none of the evaluator's machinery: no
//! predicate pushdown, no statistics, no short-circuiting, no streaming.
//! It materialises the entire cross product of the from-clause, extends it
//! through mapping predicates one triple at a time, filters every
//! comparison at the very end, and projects.
//!
//! Unsupported constructs (function calls, `order by`, `limit`) return an
//! error rather than a guess, which keeps the oracle honest: a differential
//! test can only pass on queries the oracle actually understands.

use dtr_model::instance::{Instance, NodeId};
use dtr_model::schema::Schema;
use dtr_model::value::{canonical_path, AtomicValue, ElementRef};
use dtr_query::ast::{Condition, Expr, PathStart, Query, Step, Term};
use dtr_query::eval::{Catalog, MetaEnv, PredTriple};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A variable's value during oracle evaluation: an instance node or a bare
/// atomic (meta) value.
#[derive(Clone, Debug)]
enum OVal {
    Node(usize, NodeId),
    Atom(AtomicValue),
}

type Env = HashMap<String, OVal>;

/// Evaluates `q` over `catalog` with the naive nested-loop semantics and
/// returns the bag of result rows (in enumeration order, which differs from
/// the engine's — compare as multisets). `meta` supplies mapping-predicate
/// triples; queries with mapping predicates fail without one.
pub fn eval(
    catalog: &Catalog,
    q: &Query,
    meta: Option<&dyn MetaEnv>,
) -> Result<Vec<Vec<AtomicValue>>, String> {
    if !q.order_by.is_empty() || q.limit.is_some() {
        return Err("oracle does not implement order by / limit".into());
    }

    // 1. Cross product of all from-bindings, in declaration order.
    let mut envs: Vec<Env> = vec![Env::new()];
    for b in &q.from {
        let mut next = Vec::new();
        for env in &envs {
            for item in binding_items(catalog, &b.source, env)? {
                let mut e2 = env.clone();
                e2.insert(b.var.clone(), item);
                next.push(e2);
            }
        }
        envs = next;
    }

    // 2. Mapping predicates, one at a time, each a generator over the full
    //    triple list.
    for c in &q.conditions {
        let Condition::MapPred(p) = c else { continue };
        let meta = meta.ok_or("oracle: mapping predicate but no meta environment")?;
        let triples = meta.triples(p.double);
        let mut next = Vec::new();
        for env in &envs {
            for t in &triples {
                if let Some(e2) = unify(p, t, env) {
                    next.push(e2);
                }
            }
        }
        envs = next;
    }

    // 3. Every comparison, applied only now, over the fully-bound rows.
    for c in &q.conditions {
        let Condition::Cmp(cmp) = c else { continue };
        let mut kept = Vec::new();
        for env in envs {
            let l = atomic_of(catalog, &cmp.left, &env)?;
            let r = atomic_of(catalog, &cmp.right, &env)?;
            let holds = match (l, r) {
                (Some(a), Some(b)) => match naive_compare(&a, &b) {
                    Some(ord) => cmp.op.test(ord),
                    None => match cmp.op {
                        dtr_query::ast::CmpOp::Eq => false,
                        dtr_query::ast::CmpOp::Ne => true,
                        _ => {
                            return Err(format!(
                                "oracle: incomparable values {a} and {b} under ordering"
                            ))
                        }
                    },
                },
                _ => false,
            };
            if holds {
                kept.push(env);
            }
        }
        envs = kept;
    }

    // 4. Projection; rows with any missing select value are dropped.
    let mut rows = Vec::new();
    'row: for env in &envs {
        let mut row = Vec::with_capacity(q.select.len());
        for e in &q.select {
            match atomic_of(catalog, e, env)? {
                Some(v) => row.push(v),
                None => continue 'row,
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The items a from-binding enumerates under an environment.
fn binding_items(catalog: &Catalog, source: &Expr, env: &Env) -> Result<Vec<OVal>, String> {
    match source {
        Expr::Path(p) => {
            let Some(v) = walk_path(catalog, p, env)? else {
                return Ok(Vec::new());
            };
            match v {
                OVal::Node(src, node) => {
                    let inst = catalog.source(src).instance;
                    if let Some(members) = inst.set_members(node) {
                        Ok(members.iter().map(|&m| OVal::Node(src, m)).collect())
                    } else if matches!(p.steps.last(), Some(Step::Choice(_))) {
                        // Choice selection: the single chosen value.
                        Ok(vec![OVal::Node(src, node)])
                    } else {
                        Err(format!("oracle: binding over non-set path {p}"))
                    }
                }
                OVal::Atom(_) => Err(format!("oracle: binding over atomic path {p}")),
            }
        }
        Expr::MapOf(p) => {
            let Some(v) = walk_path(catalog, p, env)? else {
                return Ok(Vec::new());
            };
            let OVal::Node(src, node) = v else {
                return Err("oracle: @map over a non-node value".into());
            };
            let inst = catalog.source(src).instance;
            Ok(inst
                .annotation(node)
                .mappings
                .iter()
                .map(|m| OVal::Atom(AtomicValue::Map(m.clone())))
                .collect())
        }
        other => Err(format!("oracle: unsupported binding source {other}")),
    }
}

/// Walks a path to a node or atom. `Ok(None)` means a step filtered the
/// value out (missing record field, mismatched choice selection).
fn walk_path(
    catalog: &Catalog,
    p: &dtr_query::ast::PathExpr,
    env: &Env,
) -> Result<Option<OVal>, String> {
    let mut cur = match &p.start {
        PathStart::Root(r) => {
            let (src, node) = catalog
                .find_root(r.as_str())
                .ok_or_else(|| format!("oracle: unknown root {r}"))?;
            OVal::Node(src, node)
        }
        PathStart::Var(v) => env
            .get(v.as_str())
            .cloned()
            .ok_or_else(|| format!("oracle: unbound variable {v}"))?,
    };
    for step in &p.steps {
        let OVal::Node(src, node) = cur else {
            return Err(format!("oracle: step on atomic value in {p}"));
        };
        let inst = catalog.source(src).instance;
        match step {
            Step::Project(l) => match inst.child_by_label(node, l.as_str()) {
                Some(c) => cur = OVal::Node(src, c),
                None => return Ok(None),
            },
            Step::Choice(l) => match inst.choice_selection(node) {
                Some((label, sel)) if label.as_str() == l.as_str() => cur = OVal::Node(src, sel),
                _ => return Ok(None),
            },
        }
    }
    Ok(Some(cur))
}

/// The atomic value of a select/comparison expression, if any.
fn atomic_of(catalog: &Catalog, e: &Expr, env: &Env) -> Result<Option<AtomicValue>, String> {
    match e {
        Expr::Const(v) => Ok(Some(v.clone())),
        Expr::Path(p) => match walk_path(catalog, p, env)? {
            None => Ok(None),
            Some(OVal::Atom(v)) => Ok(Some(v)),
            Some(OVal::Node(src, node)) => {
                let inst = catalog.source(src).instance;
                match inst.atomic(node) {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(format!("oracle: non-atomic value at {p}")),
                }
            }
        },
        Expr::ElemOf(p) => match walk_path(catalog, p, env)? {
            None => Ok(None),
            Some(OVal::Atom(_)) => Err("oracle: @elem of a non-node value".into()),
            Some(OVal::Node(src, node)) => {
                let source = catalog.source(src);
                match source.instance.annotation(node).element {
                    Some(eid) => Ok(Some(AtomicValue::Elem(ElementRef::new(
                        source.instance.db(),
                        source.schema.path(eid),
                    )))),
                    None => Err("oracle: missing element annotation for @elem".into()),
                }
            }
        },
        other => Err(format!("oracle: unsupported expression {other}")),
    }
}

/// Extends `env` with the predicate's variable slots for one triple, or
/// rejects the triple. Mirrors the engine's semantics independently: a
/// constant slot must (coercively) equal the triple's value; a previously
/// bound atom must match; a node-bound variable never matches a meta slot.
fn unify(p: &dtr_query::ast::MappingPred, t: &PredTriple, env: &Env) -> Option<Env> {
    let mut env = env.clone();
    let slots: [(&Term, AtomicValue); 5] = [
        (&p.src_db, AtomicValue::Db(t.src.db.clone())),
        (&p.src_elem, AtomicValue::Elem(t.src.clone())),
        (&p.mapping, AtomicValue::Map(t.mapping.clone())),
        (&p.tgt_db, AtomicValue::Db(t.tgt.db.clone())),
        (&p.tgt_elem, AtomicValue::Elem(t.tgt.clone())),
    ];
    for (term, actual) in slots {
        match term {
            Term::Const(c) => {
                if naive_compare(c, &actual) != Some(Ordering::Equal) {
                    return None;
                }
            }
            Term::Var(v) => match env.get(v.as_str()) {
                Some(OVal::Atom(prev)) => {
                    if naive_compare(prev, &actual) != Some(Ordering::Equal) {
                        return None;
                    }
                }
                Some(OVal::Node(..)) => return None,
                None => {
                    env.insert(v.clone(), OVal::Atom(actual));
                }
            },
        }
    }
    Some(env)
}

/// The oracle's own value comparison: native model comparison plus the
/// string↔meta coercions of Section 5 (a plain string can name a database,
/// a mapping, or — via path canonicalisation — a schema element).
pub fn naive_compare(a: &AtomicValue, b: &AtomicValue) -> Option<Ordering> {
    if let Some(ord) = a.compare(b) {
        return Some(ord);
    }
    str_meta(a, b).or_else(|| str_meta(b, a).map(Ordering::reverse))
}

fn str_meta(s: &AtomicValue, m: &AtomicValue) -> Option<Ordering> {
    let text = s.as_str()?;
    match m {
        AtomicValue::Db(d) => Some(text.cmp(d.as_str())),
        AtomicValue::Map(name) => Some(text.cmp(name.as_str())),
        AtomicValue::Elem(e) => Some(canonical_path(text).as_str().cmp(e.path.as_str())),
        _ => None,
    }
}

/// Renders oracle rows into a canonical sorted multiset of strings, the
/// common currency of the differential laws.
pub fn canonical_multiset(rows: &[Vec<AtomicValue>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.display_quoted())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    out.sort();
    out
}

/// Convenience: a [`Catalog`] over `(schema, instance)` pairs.
pub fn catalog_of<'a>(pairs: &'a [(Schema, Instance)]) -> Catalog<'a> {
    Catalog::new(
        pairs
            .iter()
            .map(|(schema, instance)| dtr_query::eval::Source { schema, instance })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::instance::Value;
    use dtr_model::types::Type;
    use dtr_query::parser::parse_query;

    fn sample() -> (Schema, Instance) {
        let schema = Schema::build(
            "S",
            vec![(
                "R",
                Type::relation(vec![
                    ("a", dtr_model::types::AtomicType::String),
                    ("b", dtr_model::types::AtomicType::Integer),
                ]),
            )],
        )
        .unwrap();
        let mut inst = Instance::new("S");
        inst.install_root(
            "R",
            Value::set(vec![
                Value::record(vec![("a", Value::str("x")), ("b", Value::int(1))]),
                Value::record(vec![("a", Value::str("y")), ("b", Value::int(2))]),
                Value::record(vec![("a", Value::str("x")), ("b", Value::int(3))]),
            ]),
        );
        inst.annotate_elements(&schema).unwrap();
        (schema, inst)
    }

    #[test]
    fn filters_and_projects() {
        let (schema, inst) = sample();
        let pairs = vec![(schema, inst)];
        let catalog = catalog_of(&pairs);
        let q = parse_query("select r.b from R r where r.a = 'x'").unwrap();
        let rows = eval(&catalog, &q, None).unwrap();
        assert_eq!(
            canonical_multiset(&rows),
            vec!["1".to_string(), "3".to_string()]
        );
    }

    #[test]
    fn rejects_order_by() {
        let (schema, inst) = sample();
        let pairs = vec![(schema, inst)];
        let catalog = catalog_of(&pairs);
        let q = parse_query("select r.b from R r order by r.b").unwrap();
        assert!(eval(&catalog, &q, None).is_err());
    }
}
