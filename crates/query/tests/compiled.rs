//! The evaluator resolves a query's names once per run (variable slots,
//! root nodes, field-position hints). These cases hold it to the reference
//! oracle of `dtr-check` on the shapes where that resolution could go
//! wrong: records that omit fields, instances without element annotations,
//! choices, root paths used as constants, implicit mapping-predicate
//! variables, one query run over several catalogs, and unknown roots that
//! no row reaches.

use dtr_check::oracle;
use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_model::types::{AtomicType, Type};
use dtr_model::value::{ElementRef, MappingName};
use dtr_query::eval::{EvalError, EvalOptions, Evaluator, MetaEnv, PredTriple};
use dtr_query::functions::FunctionRegistry;
use dtr_query::parser::parse_query;

/// Evaluates `text` over `pairs` with hash joins on and off, checks both
/// against the oracle's rows (as multisets) and returns those rows.
fn agree(pairs: &[(Schema, Instance)], meta: Option<&dyn MetaEnv>, text: &str) -> Vec<String> {
    let catalog = oracle::catalog_of(pairs);
    let funcs = FunctionRegistry::with_builtins();
    let q = parse_query(text).unwrap();
    let expected = oracle::canonical_multiset(&oracle::eval(&catalog, &q, meta).unwrap());
    for hash_join in [true, false] {
        let mut ev = Evaluator::new(&catalog, &funcs).with_options(EvalOptions {
            hash_join,
            ..EvalOptions::default()
        });
        if let Some(meta) = meta {
            ev = ev.with_meta(meta);
        }
        let got = oracle::canonical_multiset(&ev.run(&q).unwrap().tuples());
        assert_eq!(got, expected, "`{text}` with hash_join {hash_join}");
    }
    expected
}

fn row(fields: &[(&str, Value)]) -> Value {
    Value::record(fields.iter().map(|(l, v)| (*l, v.clone())).collect())
}

fn s(v: &str) -> Value {
    Value::str(v)
}

/// `Ldb` with one relation `L(a, b, c, d)`.
fn l_schema() -> Schema {
    Schema::build(
        "Ldb",
        vec![(
            "L",
            Type::relation(vec![
                ("a", AtomicType::String),
                ("b", AtomicType::String),
                ("c", AtomicType::String),
                ("d", AtomicType::Integer),
            ]),
        )],
    )
    .unwrap()
}

/// An instance of [`l_schema`] over `rows`, element-annotated.
fn l_instance(rows: Vec<Value>) -> Instance {
    let mut inst = Instance::new("Ldb");
    inst.install_root("L", Value::set(rows));
    inst.annotate_elements(&l_schema()).unwrap();
    inst
}

/// Records shaped like a data exchange's output: each omits the fields no
/// mapping assigned, so `c` sits at position 2, 1, nowhere, 0 and 2
/// again, and position 2 sometimes holds `d`.
fn ragged_rows() -> Vec<Value> {
    vec![
        row(&[
            ("a", s("a1")),
            ("b", s("b1")),
            ("c", s("c1")),
            ("d", Value::int(1)),
        ]),
        row(&[("b", s("b2")), ("c", s("c2"))]),
        row(&[("a", s("a3")), ("b", s("b3")), ("d", Value::int(3))]),
        row(&[("c", s("c4")), ("d", Value::int(4))]),
        row(&[
            ("a", s("a5")),
            ("b", s("b5")),
            ("c", s("c5")),
            ("d", Value::int(5)),
        ]),
        row(&[("d", Value::int(6))]),
    ]
}

#[test]
fn field_steps_over_records_that_omit_fields() {
    let pairs = [(l_schema(), l_instance(ragged_rows()))];
    assert_eq!(
        agree(&pairs, None, "select r.c from L r"),
        ["'c1'", "'c2'", "'c4'", "'c5'"]
    );
    assert_eq!(
        agree(&pairs, None, "select r.c, r.d from L r where r.d > 2"),
        ["'c4' | 4", "'c5' | 5"]
    );
    assert_eq!(
        agree(&pairs, None, "select r.b from L r where r.c = 'c2'"),
        ["'b2'"]
    );
    // A self-join: the hash table is built over the candidate side's
    // field, and the probe side's field is read once per row.
    assert_eq!(
        agree(
            &pairs,
            None,
            "select r.a, t.c from L r, L t where r.d = t.d"
        ),
        ["'a1' | 'c1'", "'a5' | 'c5'"]
    );
}

#[test]
fn field_steps_over_an_instance_without_element_annotations() {
    let schema = Schema::build(
        "Pdb",
        vec![(
            "P",
            Type::set(Type::record(vec![
                ("pid", Type::string()),
                (
                    "info",
                    Type::record(vec![("name", Type::string()), ("age", Type::integer())]),
                ),
            ])),
        )],
    )
    .unwrap();
    let person =
        |pid: &str, info: Vec<(&str, Value)>| row(&[("pid", s(pid)), ("info", row(&info))]);
    let mut inst = Instance::new("Pdb");
    inst.install_root(
        "P",
        Value::set(vec![
            person("p1", vec![("name", s("Ada")), ("age", Value::int(36))]),
            person("p2", vec![("age", Value::int(41))]),
            person("p3", vec![("name", s("Bo")), ("age", Value::int(29))]),
            person("p4", vec![("name", s("Cy"))]),
        ]),
    );
    // No annotate_elements: every node's element annotation is empty.
    let pairs = [(schema, inst)];
    assert_eq!(
        agree(
            &pairs,
            None,
            "select p.pid, p.info.name from P p where p.info.age > 30"
        ),
        ["'p1' | 'Ada'"]
    );
    assert_eq!(
        agree(&pairs, None, "select p.info.name from P p"),
        ["'Ada'", "'Bo'", "'Cy'"]
    );
}

/// `Adb` with agents whose title is a personal name or a firm.
fn agents() -> (Schema, Instance) {
    let schema = Schema::build(
        "Adb",
        vec![(
            "A",
            Type::set(Type::record(vec![
                ("aid", Type::string()),
                (
                    "title",
                    Type::choice(vec![("name", Type::string()), ("firm", Type::string())]),
                ),
            ])),
        )],
    )
    .unwrap();
    let agent = |aid: &str, alt: &str, title: &str| {
        row(&[("aid", s(aid)), ("title", Value::choice(alt, s(title)))])
    };
    let mut inst = Instance::new("Adb");
    inst.install_root(
        "A",
        Value::set(vec![
            agent("a1", "name", "Smith"),
            agent("a2", "firm", "HomeGain"),
            agent("a3", "name", "Jones"),
            agent("a4", "firm", "Smith"),
        ]),
    );
    inst.annotate_elements(&schema).unwrap();
    (schema, inst)
}

#[test]
fn choice_steps_whose_node_selected_another_alternative() {
    let pairs = [agents()];
    assert_eq!(
        agree(&pairs, None, "select a.title->firm from A a"),
        ["'HomeGain'", "'Smith'"]
    );
    assert_eq!(
        agree(&pairs, None, "select a.aid, n from A a, a.title->name n"),
        ["'a1' | 'Smith'", "'a3' | 'Jones'"]
    );
    // a4's firm is also called Smith, but it selected `firm`.
    assert_eq!(
        agree(
            &pairs,
            None,
            "select a.aid from A a where a.title->name = 'Smith'"
        ),
        ["'a1'"]
    );
    assert_eq!(
        agree(
            &pairs,
            None,
            "select a.aid, b.aid from A a, A b where a.title->name = b.title->firm"
        ),
        ["'a1' | 'a4'"]
    );
}

#[test]
fn root_paths_as_comparison_constants() {
    let schema = Schema::build(
        "Hdb",
        vec![
            (
                "Houses",
                Type::relation(vec![
                    ("hid", AtomicType::String),
                    ("price", AtomicType::Integer),
                    ("region", AtomicType::String),
                ]),
            ),
            (
                "Cfg",
                Type::record(vec![("min", Type::integer()), ("region", Type::string())]),
            ),
        ],
    )
    .unwrap();
    let house = |hid: &str, price: i64, region: &str| {
        row(&[
            ("hid", s(hid)),
            ("price", Value::int(price)),
            ("region", s(region)),
        ])
    };
    let mut inst = Instance::new("Hdb");
    inst.install_root(
        "Houses",
        Value::set(vec![
            house("H1", 450_000, "north"),
            house("H2", 750_000, "south"),
            house("H3", 820_000, "north"),
            house("H4", 750_000, "north"),
        ]),
    );
    inst.install_root(
        "Cfg",
        row(&[("min", Value::int(500_000)), ("region", s("north"))]),
    );
    inst.annotate_elements(&schema).unwrap();
    let pairs = [(schema, inst)];
    assert_eq!(
        agree(
            &pairs,
            None,
            "select h.hid from Houses h where h.price > Cfg.min"
        ),
        ["'H2'", "'H3'", "'H4'"]
    );
    // A constant on each side, and a comparison of two root paths.
    assert_eq!(
        agree(
            &pairs,
            None,
            "select h.hid from Houses h where Cfg.region = h.region and Cfg.min < h.price"
        ),
        ["'H3'", "'H4'"]
    );
    assert_eq!(
        agree(
            &pairs,
            None,
            "select h.hid from Houses h where Cfg.region = 'south'"
        ),
        Vec::<String>::new()
    );
    // The root path filters the second binding's items once; the equi-join
    // probes them per row.
    assert_eq!(
        agree(
            &pairs,
            None,
            "select h.hid, g.hid from Houses h, Houses g \
             where g.price > Cfg.min and h.price = g.price and h.hid != g.hid"
        ),
        ["'H2' | 'H4'", "'H4' | 'H2'"]
    );
}

/// Every price was produced by mapping `m1`, every hid by `m2`.
struct Triples;

impl MetaEnv for Triples {
    fn triples(&self, double: bool) -> Vec<PredTriple> {
        if double {
            return Vec::new();
        }
        vec![
            PredTriple {
                src: ElementRef::new("USdb", "/US/houses/price"),
                mapping: MappingName::new("m1"),
                tgt: ElementRef::new("Pdb", "/Portal/estates/value"),
            },
            PredTriple {
                src: ElementRef::new("USdb", "/US/houses/hid"),
                mapping: MappingName::new("m2"),
                tgt: ElementRef::new("Pdb", "/Portal/estates/hid"),
            },
        ]
    }
}

#[test]
fn implicit_predicate_variables_take_slots_after_declared_ones() {
    let schema = Schema::build(
        "USdb",
        vec![(
            "US",
            Type::record(vec![(
                "houses",
                Type::relation(vec![
                    ("hid", AtomicType::String),
                    ("price", AtomicType::Integer),
                ]),
            )]),
        )],
    )
    .unwrap();
    let mut inst = Instance::new("USdb");
    inst.install_root(
        "US",
        row(&[(
            "houses",
            Value::set(vec![
                row(&[("hid", s("H1")), ("price", Value::int(450_000))]),
                row(&[("hid", s("H2")), ("price", Value::int(750_000))]),
            ]),
        )]),
    );
    inst.annotate_elements(&schema).unwrap();
    let price = schema.resolve_path("/US/houses/price").unwrap();
    for n in inst.interpretation(price) {
        inst.add_mapping(n, MappingName::new("m1"));
    }
    let pairs = [(schema, inst)];
    // `m` is declared by the from clause; `db`, `e` and `e2` are implicit,
    // and the select list names implicit and declared variables in turn.
    assert_eq!(
        agree(
            &pairs,
            Some(&Triples),
            "select e2, h.hid, m, db from US.houses h, h.price@map m \
             where <db:e -> m -> 'Pdb':e2>"
        ),
        [
            "'Pdb':'/Portal/estates/value' | 'H1' | 'm1' | 'USdb'",
            "'Pdb':'/Portal/estates/value' | 'H2' | 'm1' | 'USdb'",
        ]
    );
    // An implicit variable in a comparison: it becomes ready only once the
    // predicate has bound it.
    assert_eq!(
        agree(
            &pairs,
            Some(&Triples),
            "select h.hid, m from US.houses h \
             where h.price > 500000 and e = h.hid@elem and <'USdb':e -> m -> 'Pdb':e2>"
        ),
        ["'H2' | 'm2'"]
    );
}

#[test]
fn no_hint_or_root_survives_a_run() {
    let full = l_instance(vec![
        row(&[
            ("a", s("a1")),
            ("b", s("b1")),
            ("c", s("c1")),
            ("d", Value::int(1)),
        ]),
        row(&[
            ("a", s("a2")),
            ("b", s("b2")),
            ("c", s("c2")),
            ("d", Value::int(2)),
        ]),
    ]);
    let ragged = l_instance(ragged_rows());
    let funcs = FunctionRegistry::with_builtins();
    let q = parse_query("select r.a, r.c from L r where r.d > 0").unwrap();
    let full_pairs = [(l_schema(), full)];
    let ragged_pairs = [(l_schema(), ragged)];
    let full_catalog = oracle::catalog_of(&full_pairs);
    let ragged_catalog = oracle::catalog_of(&ragged_pairs);
    let rows = |catalog| {
        oracle::canonical_multiset(&Evaluator::new(catalog, &funcs).run(&q).unwrap().tuples())
    };
    let oracle_rows =
        |catalog| oracle::canonical_multiset(&oracle::eval(catalog, &q, None).unwrap());
    // The same query value, run twice over one catalog, then over another
    // whose records omit different fields, then over the first again.
    let first = rows(&full_catalog);
    assert_eq!(first, oracle_rows(&full_catalog));
    assert_eq!(rows(&full_catalog), first);
    assert_eq!(rows(&ragged_catalog), oracle_rows(&ragged_catalog));
    assert_eq!(rows(&ragged_catalog), ["'a1' | 'c1'", "'a5' | 'c5'"]);
    assert_eq!(rows(&full_catalog), first);
    // One evaluator, one query, run twice: the same rows in the same order.
    let ev = Evaluator::new(&ragged_catalog, &funcs);
    assert_eq!(ev.run(&q).unwrap().rows, ev.run(&q).unwrap().rows);
}

#[test]
fn an_unknown_root_no_row_reaches_is_not_an_error() {
    let pairs = [(l_schema(), l_instance(Vec::new()))];
    assert!(agree(&pairs, None, "select r.a, x.a from L r, Nowhere x").is_empty());
    // The pre-filter leaves the first binding no item, so no row reaches
    // the second.
    let pairs = [(l_schema(), l_instance(ragged_rows()))];
    let catalog = oracle::catalog_of(&pairs);
    let funcs = FunctionRegistry::with_builtins();
    let q = parse_query("select r.a, x.a from L r, Nowhere x where r.d > 100").unwrap();
    assert!(Evaluator::new(&catalog, &funcs).run(&q).unwrap().is_empty());
    // A row that reaches it fails, as before.
    let q = parse_query("select r.a, x.a from L r, Nowhere x").unwrap();
    assert_eq!(
        Evaluator::new(&catalog, &funcs).run(&q).unwrap_err(),
        EvalError::UnknownRoot("Nowhere".into())
    );
    assert!(oracle::eval(&catalog, &q, None).is_err());
    // A side that mentions no variable is evaluated for each row of its
    // binding, even a binding whose items are all filtered away, so an
    // unknown root there fails however many items there are.
    let pairs = [(l_schema(), l_instance(Vec::new()))];
    let catalog = oracle::catalog_of(&pairs);
    let q = parse_query("select r.a from L r where r.a = Nowhere.x").unwrap();
    assert_eq!(
        Evaluator::new(&catalog, &funcs).run(&q).unwrap_err(),
        EvalError::UnknownRoot("Nowhere".into())
    );
}
