//! Exchange-engine benchmarks: materializing the annotated portal from the
//! five sources (the generation step of every Section 8 experiment), plus
//! the evaluator ablations DESIGN.md calls out — hash-join vs nested-loop
//! binding enumeration (both with incremental predicate pushdown), and
//! serial vs parallel mapping evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtr_mapping::exchange::ExchangeOptions;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::eval::{Catalog, EvalOptions, Evaluator, Source};
use dtr_query::functions::FunctionRegistry;
use dtr_query::parser::parse_query;
use std::hint::black_box;

fn exchange_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange");
    g.sample_size(10);
    for n in [25usize, 50, 100] {
        g.bench_with_input(BenchmarkId::new("listings_per_source", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    build(ScenarioConfig {
                        listings_per_source: n,
                        ..Default::default()
                    })
                },
                |scenario| black_box(scenario.exchange().unwrap().target().len()),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn parallel_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_exchange");
    g.sample_size(10);
    let configs = [
        (
            "pre_pr_reference",
            // Serial, nested-loop, per-row member construction: the
            // configuration this PR replaced as the default.
            ExchangeOptions {
                eval: EvalOptions {
                    hash_join: false,
                    ..Default::default()
                },
                member_templates: false,
                ..ExchangeOptions::default()
            },
        ),
        (
            "serial_nested_loop",
            ExchangeOptions {
                eval: EvalOptions {
                    hash_join: false,
                    ..Default::default()
                },
                ..ExchangeOptions::default()
            },
        ),
        ("serial_hash_join", ExchangeOptions::default()),
        (
            "parallel_hash_join",
            ExchangeOptions {
                parallel: true,
                ..ExchangeOptions::default()
            },
        ),
    ];
    for (name, opts) in configs {
        g.bench_with_input(BenchmarkId::new(name, 100usize), &opts, |b, opts| {
            b.iter_batched(
                || {
                    build(ScenarioConfig {
                        listings_per_source: 100,
                        ..Default::default()
                    })
                },
                |scenario| black_box(scenario.exchange_with(opts).unwrap().target().len()),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn pushdown_ablation(c: &mut Criterion) {
    // A three-way join over the Windermere source: homes x agents x opens.
    let scenario = build(ScenarioConfig {
        listings_per_source: 150,
        ..Default::default()
    });
    let mut wm = scenario.sources[2].clone();
    wm.annotate_elements(&scenario.setting.source_schemas()[2])
        .unwrap();
    let catalog = Catalog::new(vec![Source {
        schema: &scenario.setting.source_schemas()[2],
        instance: &wm,
    }]);
    let funcs = FunctionRegistry::with_builtins();
    let q = parse_query(
        "select h.hid, a.phone, o.date
         from WM.homes h, WM.agents a, WM.opens o
         where h.agentId = a.agentId and o.hid = h.hid",
    )
    .unwrap();

    let mut g = c.benchmark_group("pushdown_ablation");
    g.sample_size(10);
    let modes = [
        ("hash_join", EvalOptions::default()),
        (
            "incremental_pushdown",
            EvalOptions {
                hash_join: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in &modes {
        g.bench_function(*name, |b| {
            b.iter(|| {
                black_box(
                    Evaluator::new(&catalog, &funcs)
                        .with_options(opts.clone())
                        .run(&q)
                        .unwrap()
                        .len(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    exchange_scaling,
    parallel_exchange,
    pushdown_ablation
);
criterion_main!(benches);
