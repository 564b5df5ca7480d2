//! Measures the cost of the `dtr-obs` instrumentation: the same exchange
//! and query workload with profiling disabled (the default — every span
//! reduces to one relaxed atomic load and a branch) and with
//! profiling enabled (spans aggregate into the thread-local collector).
//!
//! The acceptance bar is that the disabled path stays within noise (<3 %)
//! of the pre-instrumentation baseline; comparing `off` vs `on` here
//! bounds how much work the gate is skipping.

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::parser::parse_query;
use std::hint::black_box;

fn config() -> ScenarioConfig {
    ScenarioConfig {
        listings_per_source: 50,
        ..Default::default()
    }
}

fn exchange_profiling_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("profiling_overhead/exchange");
    g.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        g.bench_function(label, |b| {
            dtr_obs::set_enabled(enabled);
            dtr_obs::profile_reset();
            b.iter_batched(
                || build(config()),
                |scenario| black_box(scenario.exchange().unwrap().target().len()),
                criterion::BatchSize::LargeInput,
            );
            dtr_obs::set_enabled(false);
        });
    }
    g.finish();
}

fn query_profiling_overhead(c: &mut Criterion) {
    let tagged = build(config()).exchange().unwrap();
    let q = parse_query(
        "select h.hid, h.price, m from Portal.houses h, h.price@map m
         where h.price > 500000",
    )
    .unwrap();
    let mut g = c.benchmark_group("profiling_overhead/query");
    g.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        g.bench_function(label, |b| {
            dtr_obs::set_enabled(enabled);
            dtr_obs::profile_reset();
            b.iter(|| black_box(tagged.run(&q).unwrap().len()));
            dtr_obs::set_enabled(false);
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    exchange_profiling_overhead,
    query_profiling_overhead
);
criterion_main!(benches);
