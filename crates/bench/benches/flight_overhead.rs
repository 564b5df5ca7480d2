//! Measures the cost of the flight recorder: the same exchange + query
//! workload with the recorder disabled (the default — every event site
//! reduces to one relaxed atomic load and a branch) and with it capturing
//! (one event per closed span, periodic counter samples, and per-mapping
//! exchange windows pushed into the ring buffer under its mutex).
//!
//! The acceptance bar is that the disabled path stays within noise of the
//! un-instrumented baseline; comparing `off` vs `on` bounds what one
//! recorded event costs end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_obs::recorder;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::parser::parse_query;
use std::hint::black_box;

fn config() -> ScenarioConfig {
    ScenarioConfig {
        listings_per_source: 50,
        ..Default::default()
    }
}

fn exchange_flight_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("flight_overhead/exchange");
    g.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        g.bench_function(label, |b| {
            dtr_obs::set_enabled(false);
            recorder::set_enabled(enabled);
            recorder::reset();
            b.iter_batched(
                || build(config()),
                |scenario| black_box(scenario.exchange().unwrap().target().len()),
                criterion::BatchSize::LargeInput,
            );
            recorder::set_enabled(false);
            recorder::reset();
        });
    }
    g.finish();
}

fn query_flight_overhead(c: &mut Criterion) {
    let tagged = build(config()).exchange().unwrap();
    let q = parse_query(
        "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > 800000",
    )
    .unwrap();
    let mut g = c.benchmark_group("flight_overhead/query");
    g.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        g.bench_function(label, |b| {
            dtr_obs::set_enabled(false);
            recorder::set_enabled(enabled);
            recorder::reset();
            b.iter(|| black_box(tagged.run(&q).unwrap().len()));
            recorder::set_enabled(false);
            recorder::reset();
        });
    }
    g.finish();
}

criterion_group!(benches, exchange_flight_overhead, query_flight_overhead);
criterion_main!(benches);
