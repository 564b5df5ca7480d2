//! Plan-cache properties, beyond the in-soak `law_plan`: plan-cache
//! **hits are byte-identical to cold plans** — same compiled plan object,
//! therefore same rows in the same order, annotations included.

use dtr_check::generators::{self, GenConfig};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn scenario_and_queries(
    seed: u64,
    queries: usize,
) -> (dtr_core::tagged::TaggedInstance, Vec<dtr_query::ast::Query>) {
    let cfg = GenConfig::default();
    let mut rng = TestRng::from_seed(seed);
    let scen = generators::gen_scenario(&mut rng, &cfg);
    let tagged = scen.tagged().expect("generated scenario exchanges");
    let qs = (0..queries)
        .map(|_| generators::gen_mxql_query(&mut rng, &scen, &cfg))
        .collect();
    (tagged, qs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A plan-cache hit returns the identical result bytes of the cold
    /// plan that populated the cache, and the hit counter moves.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_plans(seed in 0u64..1_000_000_000) {
        let (tagged, qs) = scenario_and_queries(seed, 3);
        for q in qs {
            let text = q.to_string();
            tagged.clear_plan_cache();
            let cold = tagged.run_planned(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: cold plan failed on `{text}`: {e}"));
            let before = tagged.plan_cache_stats();
            let warm = tagged.run_planned(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: warm plan failed on `{text}`: {e}"));
            let after = tagged.plan_cache_stats();
            prop_assert!(after.hits > before.hits, "seed {seed}: no cache hit on `{text}`");
            let bytes = |r: &dtr_query::eval::QueryResult| format!("{:?}|{:?}", r.columns, r.rows);
            prop_assert_eq!(bytes(&cold), bytes(&warm), "seed {seed}: hit differs on `{text}`");
        }
    }
}
