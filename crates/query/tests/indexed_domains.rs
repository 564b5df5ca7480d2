//! Binding scopes: a `Domain::Only` binding enumerates its listed members
//! directly, and a hash join probes a kept `JoinIndex` instead of building
//! its table. Each case runs the same query with and without the scope's
//! index, with hash joins on and off, and demands the same row multiset —
//! or, where the key is not atomic, the same error.

use dtr_check::oracle::canonical_multiset;
use dtr_model::instance::{Instance, NodeId, Value};
use dtr_model::label::Label;
use dtr_model::schema::Schema;
use dtr_model::types::Type;
use dtr_query::eval::{
    BindingScope, Catalog, Domain, EvalError, EvalOptions, Evaluator, QueryResult, Source,
};
use dtr_query::functions::FunctionRegistry;
use dtr_query::index::{join_key_paths, JoinIndex};
use dtr_query::parser::parse_query;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// `Tdb`: `T.items` (records with a key, a group, a number and a nested
/// record) and `T.other`, a second set of the same shape.
fn schema() -> Schema {
    let item = || {
        Type::set(Type::record(vec![
            ("k", Type::string()),
            ("g", Type::string()),
            ("n", Type::integer()),
            ("sub", Type::record(vec![("x", Type::string())])),
        ]))
    };
    Schema::build(
        "Tdb",
        vec![(
            "T",
            Type::record(vec![("items", item()), ("other", item())]),
        )],
    )
    .unwrap()
}

/// An item; `g` is omitted when `None`, the way an exchange omits a field
/// no mapping assigned.
fn item(k: &str, g: Option<&str>, n: i64) -> Value {
    let mut fields = vec![("k", Value::str(k))];
    if let Some(g) = g {
        fields.push(("g", Value::str(g)));
    }
    fields.push(("n", Value::int(n)));
    fields.push(("sub", Value::record(vec![("x", Value::str(k))])));
    Value::record(fields)
}

fn instance(items: Vec<Value>, other: Vec<Value>) -> Instance {
    let mut inst = Instance::new("Tdb");
    inst.install_root(
        "T",
        Value::record(vec![
            ("items", Value::set(items)),
            ("other", Value::set(other)),
        ]),
    );
    inst
}

/// The set node `T.<label>`.
fn set_of(inst: &Instance, label: &str) -> NodeId {
    inst.child_by_label(inst.root("T").unwrap(), label).unwrap()
}

fn run(
    inst: &Instance,
    text: &str,
    scopes: &[(usize, BindingScope)],
    hash_join: bool,
) -> Result<QueryResult, EvalError> {
    let schema = schema();
    let catalog = Catalog::new(vec![Source {
        schema: &schema,
        instance: inst,
    }]);
    let funcs = FunctionRegistry::with_builtins();
    let domains: HashMap<usize, BindingScope> = scopes.iter().cloned().collect();
    Evaluator::new(&catalog, &funcs)
        .with_options(EvalOptions {
            hash_join,
            domains: Some(Arc::new(domains)),
            ..EvalOptions::default()
        })
        .run(&parse_query(text).unwrap())
}

/// A scope holding only `domain`.
fn only(domain: Domain) -> BindingScope {
    BindingScope {
        domain: Some(domain),
        index: None,
    }
}

/// `scope` with `index` added.
fn indexed(scope: BindingScope, index: &Arc<JoinIndex>) -> BindingScope {
    BindingScope {
        index: Some(Arc::clone(index)),
        ..scope
    }
}

fn index_on(inst: &Instance, set: &str, path: &[&str]) -> Arc<JoinIndex> {
    let path = path.iter().map(|l| Label::from(*l)).collect();
    Arc::new(JoinIndex::build(0, inst, set_of(inst, set), path))
}

/// Runs `text` under `plain` and under `with_index` (the same scopes plus
/// an index), hash joins on and off; both must give the same row multiset.
/// Returns the two hash-join runs.
fn agree(
    inst: &Instance,
    text: &str,
    plain: &[(usize, BindingScope)],
    with_index: &[(usize, BindingScope)],
) -> (QueryResult, QueryResult) {
    let mut hashed = Vec::new();
    for hash_join in [true, false] {
        let without = run(inst, text, plain, hash_join).unwrap();
        let with = run(inst, text, with_index, hash_join).unwrap();
        assert_eq!(
            canonical_multiset(&with.tuples()),
            canonical_multiset(&without.tuples()),
            "`{text}` with hash_join {hash_join}"
        );
        if hash_join {
            hashed = vec![without, with];
        }
    }
    let with = hashed.pop().unwrap();
    (hashed.pop().unwrap(), with)
}

#[test]
fn only_enumerates_exactly_its_ids() {
    let items: Vec<Value> = (0..2_000)
        .map(|i| item(&format!("k{i}"), Some(&format!("g{}", i % 7)), i))
        .collect();
    let mut inst = instance(items, vec![item("o1", Some("g0"), 1)]);
    let set = set_of(&inst, "items");
    let members = inst.set_members(set).unwrap().to_vec();
    let other = inst.set_members(set_of(&inst, "other")).unwrap()[0];
    // A member an edit detached keeps its parent pointer; it is no
    // longer in the set all the same.
    let detached = members[3];
    inst.detach_set_member(set, detached);
    let listed = [members[1_999], members[5], members[700]];
    let ids = vec![listed[0], other, set, listed[1], detached, listed[2]];
    for hash_join in [true, false] {
        let r = run(
            &inst,
            "select i.k from T.items i",
            &[(0, only(Domain::Only(ids.clone())))],
            hash_join,
        )
        .unwrap();
        let keys: Vec<String> = r.tuples().iter().map(|t| t[0].to_string()).collect();
        // The listed members the set holds, in list order.
        assert_eq!(keys, ["k1999", "k5", "k700"], "hash_join {hash_join}");
        assert_eq!(r.stats.tuples_scanned, 3, "hash_join {hash_join}");
    }
}

#[test]
fn an_indexed_binding_returns_the_unindexed_rows() {
    let items: Vec<Value> = (0..60)
        .map(|i| item(&format!("k{i}"), Some(&format!("g{}", i % 5)), i % 9))
        .collect();
    let inst = instance(items, Vec::new());
    let members = inst.set_members(set_of(&inst, "items")).unwrap().to_vec();
    let ix = index_on(&inst, "items", &["g"]);
    let q = "select a.k, b.k from T.items a, T.items b where a.g = b.g and b.n > 4";
    // The join keys on `b.g`, and `b.n > 4` is a constant comparison the
    // binding's pre-filter applies.
    assert_eq!(
        join_key_paths(&parse_query(q).unwrap()),
        [None, Some(vec![Label::from("g")])]
    );
    let first = only(Domain::Only(vec![members[2], members[17], members[33]]));
    let except = only(Domain::Except(HashSet::from([
        members[7],
        members[12],
        members[22],
    ])));
    // Per case: the scopes without and with the index, and the items the
    // first binding enumerates.
    for (plain, with_index, first_items) in [
        // Delta-first: the changed members, then every other item probed.
        (
            vec![(0, first.clone())],
            vec![
                (0, first.clone()),
                (1, indexed(BindingScope::default(), &ix)),
            ],
            3,
        ),
        // The probed item also skips its own change.
        (
            vec![(0, first.clone()), (1, except.clone())],
            vec![(0, first.clone()), (1, indexed(except.clone(), &ix))],
            3,
        ),
        // No domain at all.
        (
            Vec::new(),
            vec![(1, indexed(BindingScope::default(), &ix))],
            60,
        ),
    ] {
        let (without, with) = agree(&inst, q, &plain, &with_index);
        assert!(with.stats.hash_probes > 0);
        // No build scan: the probed item's candidates are all the index
        // returned, the pre-filtered comparison tested on each of them.
        assert_eq!(
            with.stats.tuples_scanned - with.stats.hash_probes,
            first_items
        );
        assert!(without.stats.tuples_scanned - without.stats.hash_probes > first_items);
    }
}

#[test]
fn two_key_strings_and_members_without_the_field() {
    // `a/b` keys as its text and as its canonical path `/a/b`; `/a/b` as
    // itself only. Two members lack `g`.
    let groups = [
        Some("a/b"),
        Some("/a/b"),
        None,
        Some("a/b"),
        Some("c"),
        None,
    ];
    let items: Vec<Value> = groups
        .iter()
        .enumerate()
        .map(|(i, g)| item(&format!("k{i}"), *g, i as i64))
        .collect();
    let inst = instance(items, Vec::new());
    let ix = index_on(&inst, "items", &["g"]);
    let q = "select a.k, b.k from T.items a, T.items b where a.g = b.g";
    let (_, with) = agree(&inst, q, &[], &[(1, indexed(BindingScope::default(), &ix))]);
    assert_eq!(
        canonical_multiset(&with.tuples()),
        [
            "'k0' | 'k0'",
            "'k0' | 'k3'",
            "'k1' | 'k1'",
            "'k3' | 'k0'",
            "'k3' | 'k3'",
            "'k4' | 'k4'"
        ]
    );
}

#[test]
fn an_index_on_another_key_is_ignored() {
    let items: Vec<Value> = (0..30)
        .map(|i| item(&format!("k{i}"), Some(&format!("g{}", i % 4)), i % 6))
        .collect();
    let inst = instance(items.clone(), items);
    let q = "select a.k, b.k from T.items a, T.items b where a.g = b.g";
    for ix in [
        // Another path below the right set.
        index_on(&inst, "items", &["n"]),
        // The right path below another set.
        index_on(&inst, "other", &["g"]),
    ] {
        let (without, with) = agree(&inst, q, &[], &[(1, indexed(BindingScope::default(), &ix))]);
        // The run built its own table, exactly as without the index.
        assert_eq!(counts(&with), counts(&without));
    }
}

#[test]
fn a_complex_key_errs_as_without_the_index() {
    let items: Vec<Value> = (0..10)
        .map(|i| item(&format!("k{i}"), Some("g"), i))
        .collect();
    let inst = instance(items, Vec::new());
    let ix = index_on(&inst, "items", &["sub"]);
    let q = "select a.k, b.k from T.items a, T.items b where a.k = b.sub";
    for hash_join in [true, false] {
        let without = run(&inst, q, &[], hash_join).unwrap_err();
        let with = run(
            &inst,
            q,
            &[(1, indexed(BindingScope::default(), &ix))],
            hash_join,
        )
        .unwrap_err();
        assert_eq!(with, without, "hash_join {hash_join}");
        assert_eq!(with, EvalError::ComplexValue("b.sub".into()));
    }
}

/// A run's work counts, without its wall time.
fn counts(r: &QueryResult) -> (u64, u64, u64, u64) {
    let s = r.stats;
    (
        s.tuples_scanned,
        s.bindings_enumerated,
        s.predicate_triples_tested,
        s.hash_probes,
    )
}
