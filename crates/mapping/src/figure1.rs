//! The paper's Figure 1 setting as unit-test fixtures: the USdb and EUdb
//! source schemas with annotated sample instances, the portal target
//! schema, and mappings m1–m3. The exchange and incremental tests share
//! this one copy (`dtr_core::testkit` cannot serve here: dtr-core depends
//! on this crate).

use crate::glav::Mapping;
use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_model::types::{AtomicType, Type};

/// The USdb schema: houses plus agents with a name/firm title choice.
pub(crate) fn us_schema() -> Schema {
    Schema::build(
        "USdb",
        vec![(
            "US",
            Type::record(vec![
                (
                    "houses",
                    Type::relation(vec![
                        ("hid", AtomicType::String),
                        ("floors", AtomicType::String),
                        ("price", AtomicType::String),
                        ("aid", AtomicType::String),
                    ]),
                ),
                (
                    "agents",
                    Type::set(Type::record(vec![
                        ("aid", Type::string()),
                        (
                            "title",
                            Type::choice(vec![("name", Type::string()), ("firm", Type::string())]),
                        ),
                        ("phone", Type::string()),
                    ])),
                ),
            ]),
        )],
    )
    .unwrap()
}

/// The EUdb schema: postings with nested agents.
pub(crate) fn eu_schema() -> Schema {
    Schema::build(
        "EUdb",
        vec![(
            "EU",
            Type::record(vec![(
                "postings",
                Type::set(Type::record(vec![
                    ("hid", Type::string()),
                    ("levels", Type::string()),
                    ("totalVal", Type::string()),
                    (
                        "agents",
                        Type::set(Type::record(vec![
                            ("agentName", Type::string()),
                            ("agentPhone", Type::string()),
                        ])),
                    ),
                ])),
            )]),
        )],
    )
    .unwrap()
}

/// The portal target schema: estates and contacts.
pub(crate) fn portal_schema() -> Schema {
    Schema::build(
        "Pdb",
        vec![(
            "Portal",
            Type::record(vec![
                (
                    "estates",
                    Type::relation(vec![
                        ("hid", AtomicType::String),
                        ("stories", AtomicType::String),
                        ("value", AtomicType::String),
                        ("contact", AtomicType::String),
                    ]),
                ),
                (
                    "contacts",
                    Type::relation(vec![
                        ("title", AtomicType::String),
                        ("phone", AtomicType::String),
                    ]),
                ),
            ]),
        )],
    )
    .unwrap()
}

/// A USdb house.
pub(crate) fn house(hid: &str, floors: &str, price: &str, aid: &str) -> Value {
    Value::record(vec![
        ("hid", Value::str(hid)),
        ("floors", Value::str(floors)),
        ("price", Value::str(price)),
        ("aid", Value::str(aid)),
    ])
}

/// A USdb agent whose title takes the `alt` alternative.
pub(crate) fn agent(aid: &str, alt: &str, title: &str, phone: &str) -> Value {
    Value::record(vec![
        ("aid", Value::str(aid)),
        ("title", Value::choice(alt, Value::str(title))),
        ("phone", Value::str(phone)),
    ])
}

/// An EUdb posting with its `(name, phone)` agents.
pub(crate) fn posting(hid: &str, levels: &str, total: &str, agents: Vec<(&str, &str)>) -> Value {
    Value::record(vec![
        ("hid", Value::str(hid)),
        ("levels", Value::str(levels)),
        ("totalVal", Value::str(total)),
        (
            "agents",
            Value::set(
                agents
                    .into_iter()
                    .map(|(n, p)| {
                        Value::record(vec![
                            ("agentName", Value::str(n)),
                            ("agentPhone", Value::str(p)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The annotated USdb sample: `H522` listed by the HomeGain firm, `H7` by
/// the independent agent Smith.
pub(crate) fn us_instance() -> Instance {
    let mut inst = Instance::new("USdb");
    inst.install_root(
        "US",
        Value::record(vec![
            (
                "houses",
                Value::set(vec![
                    house("H522", "2", "500K", "a2"),
                    house("H7", "1", "250K", "a1"),
                ]),
            ),
            (
                "agents",
                Value::set(vec![
                    agent("a1", "name", "Smith", "555-1111"),
                    agent("a2", "firm", "HomeGain", "18009468501"),
                ]),
            ),
        ]),
    );
    inst.annotate_elements(&us_schema()).unwrap();
    inst
}

/// The annotated EUdb sample: posting `H2525` handled by HomeGain.
pub(crate) fn eu_instance() -> Instance {
    let mut inst = Instance::new("EUdb");
    inst.install_root(
        "EU",
        Value::record(vec![(
            "postings",
            Value::set(vec![posting(
                "H2525",
                "1",
                "300K",
                vec![("HomeGain", "18009468501")],
            )]),
        )]),
    );
    inst.annotate_elements(&eu_schema()).unwrap();
    inst
}

/// Mappings m1 (named agents), m2 (firms) and m3 (EU postings).
pub(crate) fn figure1_mappings() -> Vec<Mapping> {
    vec![
        Mapping::parse(
            "m1",
            "foreach
               select h.hid, h.floors, h.price, n, a.phone
               from US.houses h, US.agents a, a.title->name n
               where h.aid = a.aid
             exists
               select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap(),
        Mapping::parse(
            "m2",
            "foreach
               select h.hid, h.floors, h.price, f, a.phone
               from US.houses h, US.agents a, a.title->firm f
               where h.aid = a.aid
             exists
               select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap(),
        Mapping::parse(
            "m3",
            "foreach
               select p.hid, p.levels, p.totalVal, a.agentName, a.agentPhone
               from EU.postings p, p.agents a
             exists
               select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap(),
    ]
}
