//! The five synthetic web sources of the Section 8 scenario.
//!
//! Each source has its own schema (averaging ~55 elements, as the paper
//! reports) and an *emitter* that renders canonical [`Listing`]s in that
//! schema. The sources differ structurally in exactly the ways the paper's
//! case studies need:
//!
//! * **Yahoo** — nested contact record; its single agent phone feeds both
//!   portal phone slots ("the contact phone number from the Yahoo data
//!   source was mapped to both the business and the home phone").
//! * **NKRealtors** — a *single* `schoolDistrict` element (the Section 8
//!   accuracy finding), agents in a separate relation joined by reference.
//! * **Windermere** — flat relational design; agent names split into
//!   first/last (mappings re-join them with `concat`).
//! * **Westfall** — the lister is a `Choice` of person or company
//!   (exercising union types end-to-end).
//! * **Homeseekers** — inline agent info plus a `neighborhoods` relation;
//!   its mapping computes `housesInNeighborhood` by self-join — the buggy
//!   variant joins on neighborhood name only (Section 8's debugging case).
//!
//! Every schema also carries unmapped "filler" attributes, because real
//! sources say more than integrations keep; they feed the source-size
//! accounting of the experiments.

use crate::listing::{Agent, Listing};
use dtr_model::instance::{Instance, Value};
use dtr_model::schema::Schema;
use dtr_model::types::Type;

fn s() -> Type {
    Type::string()
}
fn i() -> Type {
    Type::integer()
}

fn v(text: impl AsRef<str>) -> Value {
    Value::str(text)
}

/// Collects the distinct agents of a listing batch, by id.
fn distinct_agents(listings: &[Listing]) -> Vec<Agent> {
    let mut out: Vec<Agent> = Vec::new();
    for l in listings {
        if !out.iter().any(|a| a.id == l.agent.id) {
            out.push(l.agent.clone());
        }
    }
    out
}

/// Splits `First Last` into its two parts.
fn split_name(name: &str) -> (&str, &str) {
    name.split_once(' ').unwrap_or((name, ""))
}

// ---------------------------------------------------------------- Yahoo --

/// The Yahoo source schema.
pub fn yahoo_schema() -> Schema {
    Schema::build(
        "Yahoo",
        vec![(
            "Yahoo",
            Type::record(vec![(
                "listings",
                Type::set(Type::record(vec![
                    ("id", s()),
                    ("street", s()),
                    ("city", s()),
                    ("state", s()),
                    ("zip", s()),
                    ("neighborhood", s()),
                    ("price", i()),
                    ("bedrooms", i()),
                    ("bathrooms", i()),
                    ("area", i()),
                    ("built", i()),
                    ("levels", i()),
                    ("styleName", s()),
                    ("status", s()),
                    ("posted", s()),
                    ("comments", s()),
                    (
                        "contact",
                        Type::record(vec![
                            ("agentName", s()),
                            ("agentPhone", s()),
                            ("agentEmail", s()),
                            ("office", s()),
                        ]),
                    ),
                    (
                        "schoolDistricts",
                        Type::record(vec![("elementary", s()), ("middle", s()), ("high", s())]),
                    ),
                    (
                        "extras",
                        Type::set(Type::record(vec![("feature", s()), ("detail", s())])),
                    ),
                    (
                        "openDays",
                        Type::set(Type::record(vec![
                            ("date", s()),
                            ("from", s()),
                            ("to", s()),
                        ])),
                    ),
                    // Unmapped filler.
                    ("county", s()),
                    ("garage", s()),
                    ("pool", s()),
                    ("heating", s()),
                    ("cooling", s()),
                    ("latitude", s()),
                    ("longitude", s()),
                    ("link", s()),
                    ("mlsNumber", s()),
                    ("photoCount", i()),
                    ("hoa", s()),
                    ("taxAmount", i()),
                    ("currencyCode", s()),
                    ("taxIncluded", s()),
                    ("virtualTour", s()),
                ])),
            )]),
        )],
    )
    .expect("Yahoo schema is valid")
}

/// Renders listings in the Yahoo format.
pub fn yahoo_instance(listings: &[Listing]) -> Instance {
    let mut inst = Instance::new("Yahoo");
    let members = listings
        .iter()
        .map(|l| {
            Value::record(vec![
                ("id", v(&l.hid)),
                ("street", v(&l.address)),
                ("city", v(&l.city)),
                ("state", v(&l.state)),
                ("zip", v(&l.zip)),
                ("neighborhood", v(&l.neighborhood)),
                ("price", Value::int(l.price)),
                ("bedrooms", Value::int(l.beds)),
                ("bathrooms", Value::int(l.baths)),
                ("area", Value::int(l.sqft)),
                ("built", Value::int(l.year_built)),
                ("levels", Value::int(l.stories)),
                ("styleName", v(&l.style)),
                ("status", v(&l.status)),
                ("posted", v(&l.listed_date)),
                ("comments", v(&l.remarks)),
                (
                    "contact",
                    Value::record(vec![
                        ("agentName", v(&l.agent.name)),
                        ("agentPhone", v(&l.agent.phone)),
                        ("agentEmail", v(&l.agent.email)),
                        ("office", v(&l.agent.office)),
                    ]),
                ),
                (
                    "schoolDistricts",
                    Value::record(vec![
                        ("elementary", v(&l.school_elementary)),
                        ("middle", v(&l.school_middle)),
                        ("high", v(&l.school_high)),
                    ]),
                ),
                (
                    "extras",
                    Value::set(
                        l.features
                            .iter()
                            .map(|f| {
                                Value::record(vec![("feature", v(&f.name)), ("detail", v(&f.note))])
                            })
                            .collect(),
                    ),
                ),
                (
                    "openDays",
                    Value::set(
                        l.open_houses
                            .iter()
                            .map(|o| {
                                Value::record(vec![
                                    ("date", v(&o.date)),
                                    ("from", v(&o.start)),
                                    ("to", v(&o.end)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                // Crawled records are sparse: most filler attributes are
                // absent on any given listing.
                ("county", v(format!("{} County", l.city))),
                ("mlsNumber", v(format!("Y-{}", l.hid))),
                ("taxIncluded", v("no")),
            ])
        })
        .collect();
    inst.install_root(
        "Yahoo",
        Value::record(vec![("listings", Value::Set(members))]),
    );
    inst
}

// ----------------------------------------------------------- NKRealtors --

/// The NK Realtors source schema.
pub fn nk_schema() -> Schema {
    Schema::build(
        "NKdb",
        vec![(
            "NK",
            Type::record(vec![
                (
                    "properties",
                    Type::set(Type::record(vec![
                        ("ref", s()),
                        ("addr", s()),
                        ("town", s()),
                        ("region", s()),
                        ("postcode", s()),
                        ("district", s()),
                        ("askingPrice", i()),
                        ("beds", i()),
                        ("baths", i()),
                        ("floorArea", i()),
                        ("constructed", i()),
                        ("floors", i()),
                        ("kind", s()),
                        ("condition", s()),
                        ("advertised", s()),
                        ("notes", s()),
                        ("agentRef", s()),
                        // The single school element of the accuracy case
                        // study.
                        ("schoolDistrict", s()),
                        (
                            "visits",
                            Type::set(Type::record(vec![
                                ("date", s()),
                                ("from", s()),
                                ("to", s()),
                            ])),
                        ),
                        // Unmapped filler.
                        ("currency", s()),
                        ("includesTax", s()),
                        ("heatingType", s()),
                        ("energyClass", s()),
                        ("orientation", s()),
                        ("viewDesc", s()),
                        ("parking", s()),
                        ("garden", s()),
                        ("furnished", s()),
                        ("elevator", s()),
                    ])),
                ),
                (
                    "agents",
                    Type::set(Type::record(vec![
                        ("ref", s()),
                        ("fullName", s()),
                        ("telephone", s()),
                        ("email", s()),
                        ("branch", s()),
                        ("licence", s()),
                    ])),
                ),
                (
                    "branches",
                    Type::set(Type::record(vec![
                        ("name", s()),
                        ("town", s()),
                        ("telephone", s()),
                        ("url", s()),
                        ("founded", s()),
                    ])),
                ),
            ]),
        )],
    )
    .expect("NK schema is valid")
}

/// Renders listings in the NK format. Callers must have equalized the
/// schools of each listing (see [`Listing::equalize_schools`]) — NK stores a
/// single district.
pub fn nk_instance(listings: &[Listing]) -> Instance {
    let mut inst = Instance::new("NKdb");
    let agents = distinct_agents(listings);
    let properties = listings
        .iter()
        .map(|l| {
            Value::record(vec![
                ("ref", v(&l.hid)),
                ("addr", v(&l.address)),
                ("town", v(&l.city)),
                ("region", v(&l.state)),
                ("postcode", v(&l.zip)),
                ("district", v(&l.neighborhood)),
                ("askingPrice", Value::int(l.price)),
                ("beds", Value::int(l.beds)),
                ("baths", Value::int(l.baths)),
                ("floorArea", Value::int(l.sqft)),
                ("constructed", Value::int(l.year_built)),
                ("floors", Value::int(l.stories)),
                ("kind", v(&l.style)),
                ("condition", v(&l.status)),
                ("advertised", v(&l.listed_date)),
                ("notes", v(&l.remarks)),
                ("agentRef", v(&l.agent.id)),
                ("schoolDistrict", v(l.school_district())),
                (
                    "visits",
                    Value::set(
                        l.open_houses
                            .iter()
                            .map(|o| {
                                Value::record(vec![
                                    ("date", v(&o.date)),
                                    ("from", v(&o.start)),
                                    ("to", v(&o.end)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("currency", v("USD")),
                ("includesTax", v("yes")),
                ("energyClass", v("B")),
            ])
        })
        .collect();
    let agent_rows = agents
        .iter()
        .map(|a| {
            Value::record(vec![
                ("ref", v(&a.id)),
                ("fullName", v(&a.name)),
                ("telephone", v(&a.phone)),
                ("email", v(&a.email)),
                ("branch", v(&a.office)),
                ("licence", v(format!("L-{}", a.id))),
            ])
        })
        .collect();
    let branches: Vec<Value> = {
        let mut names: Vec<&str> = agents.iter().map(|a| a.office.as_str()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                Value::record(vec![
                    ("name", v(n)),
                    ("town", v("Seattle")),
                    ("telephone", v("555-0100")),
                    ("url", v("http://nk.example/branch")),
                    ("founded", v("1987")),
                ])
            })
            .collect()
    };
    inst.install_root(
        "NK",
        Value::record(vec![
            ("properties", Value::Set(properties)),
            ("agents", Value::Set(agent_rows)),
            ("branches", Value::Set(branches)),
        ]),
    );
    inst
}

// ----------------------------------------------------------- Windermere --

/// The Windermere source schema.
pub fn windermere_schema() -> Schema {
    Schema::build(
        "WMdb",
        vec![(
            "WM",
            Type::record(vec![
                (
                    "homes",
                    Type::set(Type::record(vec![
                        ("hid", s()),
                        ("street", s()),
                        ("city", s()),
                        ("state", s()),
                        ("zip", s()),
                        ("area", s()),
                        ("listPrice", i()),
                        ("beds", i()),
                        ("baths", i()),
                        ("sqft", i()),
                        ("built", i()),
                        ("floors", i()),
                        ("styleName", s()),
                        ("status", s()),
                        ("listedOn", s()),
                        ("remarks", s()),
                        ("agentId", s()),
                        ("elemSchool", s()),
                        ("middleSchool", s()),
                        ("highSchool", s()),
                        // Unmapped filler.
                        ("mls", s()),
                        ("lotSize", i()),
                        ("garage", s()),
                        ("pool", s()),
                        ("fireplace", s()),
                        ("viewDesc", s()),
                        ("waterfront", s()),
                        ("heating", s()),
                        ("cooling", s()),
                        ("roofType", s()),
                    ])),
                ),
                (
                    "agents",
                    Type::set(Type::record(vec![
                        ("agentId", s()),
                        ("firstName", s()),
                        ("lastName", s()),
                        ("phone", s()),
                        ("mobile", s()),
                        ("email", s()),
                        ("officeName", s()),
                        ("license", s()),
                    ])),
                ),
                (
                    "offices",
                    Type::set(Type::record(vec![
                        ("officeName", s()),
                        ("street", s()),
                        ("city", s()),
                        ("phone", s()),
                        ("manager", s()),
                    ])),
                ),
                (
                    "opens",
                    Type::set(Type::record(vec![
                        ("hid", s()),
                        ("date", s()),
                        ("from", s()),
                        ("to", s()),
                    ])),
                ),
            ]),
        )],
    )
    .expect("Windermere schema is valid")
}

/// Renders listings in the Windermere format.
pub fn windermere_instance(listings: &[Listing]) -> Instance {
    let mut inst = Instance::new("WMdb");
    let agents = distinct_agents(listings);
    let homes = listings
        .iter()
        .map(|l| {
            Value::record(vec![
                ("hid", v(&l.hid)),
                ("street", v(&l.address)),
                ("city", v(&l.city)),
                ("state", v(&l.state)),
                ("zip", v(&l.zip)),
                ("area", v(&l.neighborhood)),
                ("listPrice", Value::int(l.price)),
                ("beds", Value::int(l.beds)),
                ("baths", Value::int(l.baths)),
                ("sqft", Value::int(l.sqft)),
                ("built", Value::int(l.year_built)),
                ("floors", Value::int(l.stories)),
                ("styleName", v(&l.style)),
                ("status", v(&l.status)),
                ("listedOn", v(&l.listed_date)),
                ("remarks", v(&l.remarks)),
                ("agentId", v(&l.agent.id)),
                ("elemSchool", v(&l.school_elementary)),
                ("middleSchool", v(&l.school_middle)),
                ("highSchool", v(&l.school_high)),
                ("mls", v(format!("WM-{}", l.hid))),
                ("lotSize", Value::int(l.sqft * 3)),
                ("garage", v("2-car")),
            ])
        })
        .collect();
    let agent_rows = agents
        .iter()
        .map(|a| {
            let (first, last) = split_name(&a.name);
            Value::record(vec![
                ("agentId", v(&a.id)),
                ("firstName", v(first)),
                ("lastName", v(last)),
                ("phone", v(&a.phone)),
                ("mobile", v(format!("{}-m", a.phone))),
                ("email", v(&a.email)),
                ("officeName", v(&a.office)),
                ("license", v(format!("W-{}", a.id))),
            ])
        })
        .collect();
    let offices: Vec<Value> = {
        let mut names: Vec<&str> = agents.iter().map(|a| a.office.as_str()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|n| {
                Value::record(vec![
                    ("officeName", v(n)),
                    ("street", v("100 Market St")),
                    ("city", v("Seattle")),
                    ("phone", v("555-0200")),
                    ("manager", v("Pat Morgan")),
                ])
            })
            .collect()
    };
    let opens = listings
        .iter()
        .flat_map(|l| {
            l.open_houses.iter().map(move |o| {
                Value::record(vec![
                    ("hid", v(&l.hid)),
                    ("date", v(&o.date)),
                    ("from", v(&o.start)),
                    ("to", v(&o.end)),
                ])
            })
        })
        .collect();
    inst.install_root(
        "WM",
        Value::record(vec![
            ("homes", Value::Set(homes)),
            ("agents", Value::Set(agent_rows)),
            ("offices", Value::Set(offices)),
            ("opens", Value::Set(opens)),
        ]),
    );
    inst
}

// ------------------------------------------------------------- Westfall --

/// The Westfall source schema (the lister is a union type).
pub fn westfall_schema() -> Schema {
    Schema::build(
        "WFdb",
        vec![(
            "WF",
            Type::record(vec![(
                "inventory",
                Type::set(Type::record(vec![
                    ("code", s()),
                    ("address", s()),
                    ("municipality", s()),
                    ("state", s()),
                    ("postal", s()),
                    ("quarter", s()),
                    ("price", i()),
                    ("rooms", i()),
                    ("baths", i()),
                    ("size", i()),
                    ("yearBuilt", i()),
                    ("storeys", i()),
                    ("category", s()),
                    ("condition", s()),
                    ("publishedOn", s()),
                    ("blurb", s()),
                    (
                        "schools",
                        Type::record(vec![("primary", s()), ("middle", s()), ("secondary", s())]),
                    ),
                    (
                        "lister",
                        Type::choice(vec![
                            (
                                "person",
                                Type::record(vec![("name", s()), ("phone", s()), ("email", s())]),
                            ),
                            (
                                "company",
                                Type::record(vec![("name", s()), ("phone", s()), ("website", s())]),
                            ),
                        ]),
                    ),
                    (
                        "amenities",
                        Type::set(Type::record(vec![("name", s()), ("detail", s())])),
                    ),
                    (
                        "viewings",
                        Type::set(Type::record(vec![
                            ("date", s()),
                            ("from", s()),
                            ("to", s()),
                        ])),
                    ),
                    // Unmapped filler.
                    ("heating", s()),
                    ("cooling", s()),
                    ("parkingType", s()),
                    ("balcony", s()),
                    ("cellar", s()),
                    ("energyCert", s()),
                    ("floorNo", i()),
                    ("elevator", s()),
                    ("latitude", s()),
                    ("longitude", s()),
                    ("currency", s()),
                    ("taxesIncluded", s()),
                ])),
            )]),
        )],
    )
    .expect("Westfall schema is valid")
}

/// True if this listing's agent lists as a company in Westfall.
///
/// Deterministic in the agent id so that overlap twins stay consistent.
/// Companies keep the agent's personal name (sole-proprietor listings) so
/// that the portal contact is identical whichever alternative fires —
/// required for overlap merging.
pub fn lists_as_company(agent: &Agent) -> bool {
    agent
        .id
        .trim_start_matches('A')
        .parse::<u64>()
        .map(|n| n % 2 == 1)
        .unwrap_or(false)
}

/// Renders listings in the Westfall format.
pub fn westfall_instance(listings: &[Listing]) -> Instance {
    let mut inst = Instance::new("WFdb");
    let members = listings
        .iter()
        .map(|l| {
            let lister = if lists_as_company(&l.agent) {
                Value::choice(
                    "company",
                    Value::record(vec![
                        ("name", v(&l.agent.name)),
                        ("phone", v(&l.agent.phone)),
                        ("website", v("http://wf.example/agent")),
                    ]),
                )
            } else {
                Value::choice(
                    "person",
                    Value::record(vec![
                        ("name", v(&l.agent.name)),
                        ("phone", v(&l.agent.phone)),
                        ("email", v(&l.agent.email)),
                    ]),
                )
            };
            Value::record(vec![
                ("code", v(&l.hid)),
                ("address", v(&l.address)),
                ("municipality", v(&l.city)),
                ("state", v(&l.state)),
                ("postal", v(&l.zip)),
                ("quarter", v(&l.neighborhood)),
                ("price", Value::int(l.price)),
                ("rooms", Value::int(l.beds)),
                ("baths", Value::int(l.baths)),
                ("size", Value::int(l.sqft)),
                ("yearBuilt", Value::int(l.year_built)),
                ("storeys", Value::int(l.stories)),
                ("category", v(&l.style)),
                ("condition", v(&l.status)),
                ("publishedOn", v(&l.listed_date)),
                ("blurb", v(&l.remarks)),
                (
                    "schools",
                    Value::record(vec![
                        ("primary", v(&l.school_elementary)),
                        ("middle", v(&l.school_middle)),
                        ("secondary", v(&l.school_high)),
                    ]),
                ),
                ("lister", lister),
                (
                    "amenities",
                    Value::set(
                        l.features
                            .iter()
                            .map(|f| {
                                Value::record(vec![("name", v(&f.name)), ("detail", v(&f.note))])
                            })
                            .collect(),
                    ),
                ),
                (
                    "viewings",
                    Value::set(
                        l.open_houses
                            .iter()
                            .map(|o| {
                                Value::record(vec![
                                    ("date", v(&o.date)),
                                    ("from", v(&o.start)),
                                    ("to", v(&o.end)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("parkingType", v("driveway")),
                ("energyCert", v("C")),
                ("taxesIncluded", v("yes")),
            ])
        })
        .collect();
    inst.install_root(
        "WF",
        Value::record(vec![("inventory", Value::Set(members))]),
    );
    inst
}

// ---------------------------------------------------------- Homeseekers --

/// The Homeseekers source schema.
pub fn homeseekers_schema() -> Schema {
    Schema::build(
        "HSdb",
        vec![(
            "HS",
            Type::record(vec![
                (
                    "houses",
                    Type::set(Type::record(vec![
                        ("hid", s()),
                        ("addr", s()),
                        ("city", s()),
                        ("state", s()),
                        ("zip", s()),
                        ("neighborhood", s()),
                        ("price", i()),
                        ("beds", i()),
                        ("baths", i()),
                        ("livingArea", i()),
                        ("built", i()),
                        ("stories", i()),
                        ("styleDesc", s()),
                        ("status", s()),
                        ("listed", s()),
                        ("summary", s()),
                        ("agentName", s()),
                        ("agentPhone", s()),
                        ("schoolElementary", s()),
                        ("schoolMiddle", s()),
                        ("schoolHigh", s()),
                        // Unmapped filler.
                        ("garage", s()),
                        ("pool", s()),
                        ("heat", s()),
                        ("cool", s()),
                        ("roof", s()),
                        ("siding", s()),
                        ("basement", s()),
                        ("deck", s()),
                        ("fenced", s()),
                        ("sprinklers", s()),
                    ])),
                ),
                (
                    "neighborhoods",
                    Type::set(Type::record(vec![
                        ("name", s()),
                        ("city", s()),
                        ("state", s()),
                        ("medianPrice", i()),
                        ("walkScore", i()),
                    ])),
                ),
                (
                    "agents",
                    Type::set(Type::record(vec![
                        ("name", s()),
                        ("phone", s()),
                        ("office", s()),
                        ("email", s()),
                    ])),
                ),
                (
                    "tours",
                    Type::set(Type::record(vec![
                        ("hid", s()),
                        ("date", s()),
                        ("from", s()),
                        ("to", s()),
                    ])),
                ),
            ]),
        )],
    )
    .expect("Homeseekers schema is valid")
}

/// Renders listings in the Homeseekers format.
pub fn homeseekers_instance(listings: &[Listing]) -> Instance {
    let mut inst = Instance::new("HSdb");
    let agents = distinct_agents(listings);
    let houses = listings
        .iter()
        .map(|l| {
            Value::record(vec![
                ("hid", v(&l.hid)),
                ("addr", v(&l.address)),
                ("city", v(&l.city)),
                ("state", v(&l.state)),
                ("zip", v(&l.zip)),
                ("neighborhood", v(&l.neighborhood)),
                ("price", Value::int(l.price)),
                ("beds", Value::int(l.beds)),
                ("baths", Value::int(l.baths)),
                ("livingArea", Value::int(l.sqft)),
                ("built", Value::int(l.year_built)),
                ("stories", Value::int(l.stories)),
                ("styleDesc", v(&l.style)),
                ("status", v(&l.status)),
                ("listed", v(&l.listed_date)),
                ("summary", v(&l.remarks)),
                ("agentName", v(&l.agent.name)),
                ("agentPhone", v(&l.agent.phone)),
                ("schoolElementary", v(&l.school_elementary)),
                ("schoolMiddle", v(&l.school_middle)),
                ("schoolHigh", v(&l.school_high)),
                ("garage", v("detached")),
                ("roof", v("shingle")),
                ("deck", v("yes")),
            ])
        })
        .collect();
    let neighborhoods: Vec<Value> = {
        let mut seen: Vec<(String, String, String)> = Vec::new();
        for l in listings {
            let key = (l.neighborhood.clone(), l.city.clone(), l.state.clone());
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen.into_iter()
            .map(|(name, city, state)| {
                Value::record(vec![
                    ("name", v(name)),
                    ("city", v(city)),
                    ("state", v(state)),
                    ("medianPrice", Value::int(450_000)),
                    ("walkScore", Value::int(62)),
                ])
            })
            .collect()
    };
    let agent_rows = agents
        .iter()
        .map(|a| {
            Value::record(vec![
                ("name", v(&a.name)),
                ("phone", v(&a.phone)),
                ("office", v(&a.office)),
                ("email", v(&a.email)),
            ])
        })
        .collect();
    let tours = listings
        .iter()
        .flat_map(|l| {
            l.open_houses.iter().map(move |o| {
                Value::record(vec![
                    ("hid", v(&l.hid)),
                    ("date", v(&o.date)),
                    ("from", v(&o.start)),
                    ("to", v(&o.end)),
                ])
            })
        })
        .collect();
    inst.install_root(
        "HS",
        Value::record(vec![
            ("houses", Value::Set(houses)),
            ("neighborhoods", Value::Set(neighborhoods)),
            ("agents", Value::Set(agent_rows)),
            ("tours", Value::Set(tours)),
        ]),
    );
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listing::ListingGenerator;

    fn all_schemas() -> Vec<Schema> {
        vec![
            yahoo_schema(),
            nk_schema(),
            windermere_schema(),
            westfall_schema(),
            homeseekers_schema(),
        ]
    }

    #[test]
    fn schema_sizes_average_55() {
        let sizes: Vec<usize> = all_schemas().iter().map(|s| s.len()).collect();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (45.0..=65.0).contains(&avg),
            "average schema size {avg} (sizes {sizes:?}) should be ~55 as in the paper"
        );
        for (schema, size) in all_schemas().iter().zip(&sizes) {
            assert!(
                (40..=70).contains(size),
                "{} has {size} elements",
                schema.name()
            );
        }
    }

    #[test]
    fn instances_conform() {
        let mut g = ListingGenerator::new(3, 8);
        let ls = g.listings(12);
        let mut nk_ls = ls.clone();
        for l in &mut nk_ls {
            l.equalize_schools();
        }
        for (schema, mut inst) in [
            (yahoo_schema(), yahoo_instance(&ls)),
            (nk_schema(), nk_instance(&nk_ls)),
            (windermere_schema(), windermere_instance(&ls)),
            (westfall_schema(), westfall_instance(&ls)),
            (homeseekers_schema(), homeseekers_instance(&ls)),
        ] {
            inst.annotate_elements(&schema)
                .unwrap_or_else(|e| panic!("{} does not conform: {e}", schema.name()));
            assert!(inst.len() > 12 * 20);
        }
    }

    #[test]
    fn westfall_choice_split() {
        let mut g = ListingGenerator::new(5, 10);
        let ls = g.listings(40);
        let both = ls.iter().any(|l| lists_as_company(&l.agent))
            && ls.iter().any(|l| !lists_as_company(&l.agent));
        assert!(both, "both lister alternatives must occur");
    }

    #[test]
    fn windermere_names_split_losslessly() {
        let mut g = ListingGenerator::new(5, 10);
        let ls = g.listings(10);
        for l in &ls {
            let (first, last) = split_name(&l.agent.name);
            assert_eq!(format!("{first} {last}"), l.agent.name);
        }
    }
}
