//! E7 — "We executed a number of MXQL queries over the annotated instance,
//! but we noticed no significant execution time increase."
//!
//! Benchmarks a plain selection, the same query extended with `@map`, a
//! query with a mapping predicate, and the Section 7.3 translated forms of
//! both, all over the same annotated portal instance.

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_bench::bench_portal;
use dtr_core::runner::MetaRunner;
use dtr_query::parser::parse_query;
use std::hint::black_box;

fn mxql_vs_plain(c: &mut Criterion) {
    let tagged = bench_portal();
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");

    let plain =
        parse_query("select h.hid, h.price from Portal.houses h where h.price > 800000").unwrap();
    let with_map = parse_query(
        "select h.hid, h.price, m from Portal.houses h, h.price@map m \
         where h.price > 800000",
    )
    .unwrap();
    let with_pred = parse_query(
        "select h.hid, m from Portal.houses h, h.price@map m \
         where h.price > 800000 and e = h.price@elem \
           and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
    )
    .unwrap();
    let meta_only =
        parse_query("select e from where <db:e -> m -> 'Portal':'/Portal/houses/stories'>")
            .unwrap();

    let mut g = c.benchmark_group("e7_query_time");
    g.bench_function("plain_selection", |b| {
        b.iter(|| black_box(tagged.run(&plain).unwrap().len()))
    });
    g.bench_function("mxql_at_map", |b| {
        b.iter(|| black_box(tagged.run(&with_map).unwrap().len()))
    });
    g.bench_function("mxql_mapping_predicate", |b| {
        b.iter(|| black_box(tagged.run(&with_pred).unwrap().len()))
    });
    g.bench_function("mxql_pure_metadata", |b| {
        b.iter(|| black_box(tagged.run(&meta_only).unwrap().len()))
    });
    g.bench_function("translated_at_map", |b| {
        b.iter(|| black_box(runner.run(&tagged, &with_map, None).unwrap().len()))
    });
    g.bench_function("translated_mapping_predicate", |b| {
        b.iter(|| black_box(runner.run(&tagged, &with_pred, None).unwrap().len()))
    });
    g.finish();
}

criterion_group!(benches, mxql_vs_plain);
criterion_main!(benches);
