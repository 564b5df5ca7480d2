//! Virtual integration over the Section 8 portal: target queries answered
//! by unfolding through the sixteen mappings, checked against the
//! materialized tagged instance.

use dtr::core::runner::canonical_rows;
use dtr::core::virtualize::{answer_virtually, virtualize};
use dtr::portal::scenario::{build, ScenarioConfig};
use dtr::query::eval::QueryResult;
use dtr::query::functions::FunctionRegistry;
use dtr::query::parser::parse_query;

fn small() -> ScenarioConfig {
    ScenarioConfig {
        listings_per_source: 10,
        ..Default::default()
    }
}

/// Runs a query both ways and returns (virtual result, materialized result).
fn run_both(text: &str) -> (QueryResult, QueryResult) {
    let scenario = build(small());
    let mut sources = scenario.sources.clone();
    for (inst, schema) in sources.iter_mut().zip(scenario.setting.source_schemas()) {
        inst.annotate_elements(schema).unwrap();
    }
    let q = parse_query(text).unwrap();
    let funcs = FunctionRegistry::with_builtins();
    let virt = answer_virtually(&scenario.setting, &sources, &q, &funcs, None).unwrap();
    let tagged = scenario.exchange().unwrap();
    let mat = tagged.query(text).unwrap();
    (virt, mat)
}

/// Runs a query both ways and returns (virtual rows, materialized rows).
fn both(text: &str) -> (Vec<String>, Vec<String>) {
    let (virt, mat) = run_both(text);
    (canonical_rows(&virt), canonical_rows(&mat))
}

#[test]
fn houses_projection_matches_materialized() {
    let (v, m) = both("select h.hid, h.price from Portal.houses h");
    assert_eq!(v, m);
    assert_eq!(v.len(), 50);
}

#[test]
fn selection_matches_materialized() {
    let (v, m) = both("select h.hid, h.city from Portal.houses h where h.price > 1000000");
    assert_eq!(v, m);
    assert!(!v.is_empty());
}

#[test]
fn nested_binding_unfolds() {
    // features are populated by y1 (Yahoo) and wf1/wf2 (Westfall).
    let (v, m) = both("select h.hid, f.name from Portal.houses h, h.features f");
    assert_eq!(v, m, "feature unfolding must match the materialized join");
    assert!(!v.is_empty());
}

#[test]
fn nested_contact_fields_resolve() {
    let (v, m) = both("select h.hid, h.contact.name from Portal.houses h where h.hid = 'H1000'");
    assert_eq!(v, m);
    assert_eq!(v.len(), 1);
}

#[test]
fn agents_across_three_sources() {
    let (v, m) = both("select a.name, a.phone from Portal.agents a");
    // Virtual = union over nk3/wm3/hs3 unfoldings; materialized identical.
    assert_eq!(v, m);
    assert!(!v.is_empty());
}

#[test]
fn virtual_is_sound_on_cross_relation_join() {
    // houses x agents joined on contact name: merged values can create
    // cross-mapping joins in the materialized instance, so virtual ⊆
    // materialized.
    let (v, m) = both(
        "select h.hid, a.phone
         from Portal.houses h, Portal.agents a
         where h.contact.name = a.name",
    );
    for row in &v {
        assert!(m.contains(row), "unsound virtual answer: {row}");
    }
}

#[test]
fn order_by_and_limit_apply_to_the_union() {
    // hid is a key of Portal.houses, so ties cannot pick different rows.
    let (v, m) = run_both("select h.hid, h.price from Portal.houses h order by h.hid desc limit 3");
    let hids = |r: &QueryResult| -> Vec<String> {
        r.rows.iter().map(|row| row[0].value.to_string()).collect()
    };
    // In order, not just as a set.
    assert_eq!(hids(&v), hids(&m));
    assert_eq!(hids(&v).len(), 3);
    assert_eq!(canonical_rows(&v), canonical_rows(&m));
}

#[test]
fn annotation_functions_get_no_virtual_answers() {
    // Over the sources they would read source facts' annotations, which
    // are not answers over the materialized instance.
    let (v, m) = both("select getElAnnot(h.hid) from Portal.houses h");
    for row in &v {
        assert!(m.contains(row), "unsound virtual answer: {row}");
    }
    assert!(v.is_empty());
    assert!(!m.is_empty());
}

#[test]
fn function_call_in_select_rewrites_its_arguments() {
    let (v, m) = both("select concat(h.hid, h.price) from Portal.houses h");
    assert_eq!(v, m);
    assert_eq!(v.len(), 50);
}

#[test]
fn function_call_in_where_rewrites_its_arguments() {
    let (v, m) =
        both("select h.hid from Portal.houses h where concat(h.hid, h.price) = 'H10001188000'");
    assert_eq!(v, m);
    assert_eq!(v, ["H1000"]);
}

#[test]
fn rewriting_counts() {
    let scenario = build(small());
    // houses are populated by 11 house-producing mappings
    // (y1 y2 nk1 nk2 wm1 wm2 wf1 wf2 hs1 hs2 hs4).
    let q = parse_query("select h.hid from Portal.houses h").unwrap();
    let rw = virtualize(&q, &scenario.setting).unwrap();
    assert_eq!(rw.len(), 11);
    // openHouses come from y2, nk2, wm2, hs4 only.
    let q = parse_query("select h.hid, o.date from Portal.houses h, h.openHouses o").unwrap();
    let rw = virtualize(&q, &scenario.setting).unwrap();
    assert_eq!(rw.len(), 4);
    // Asking for a field nobody populates yields no rewritings at all.
    let q = parse_query("select h.county from Portal.houses h").unwrap();
    let rw = virtualize(&q, &scenario.setting).unwrap();
    assert!(rw.is_empty());
}

#[test]
fn unfolded_queries_are_source_queries() {
    let scenario = build(small());
    let q = parse_query("select h.hid from Portal.houses h").unwrap();
    for r in virtualize(&q, &scenario.setting).unwrap() {
        let text = r.to_string();
        assert!(
            !text.contains("Portal."),
            "rewriting must not mention the target: {text}"
        );
    }
}
