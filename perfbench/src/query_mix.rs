//! `query_mix`: a seeded stream of MXQL requests over one materialized
//! portal, so the query layer does almost all the work and the exchange
//! engine none. Half the requests repeat one of eight hot texts and half
//! carry a fresh parameter, which gives the plan cache a known share of
//! reuse to serve.
//!
//! The stream repeats a cycle of [`CYCLE`] requests, and the plan cache is
//! emptied at the start of every cycle, off the operation's clock. A hot
//! text then misses once per cycle and a fresh one never repeats within
//! it, so the share of lookups the cache serves, and the memory it holds,
//! do not grow with the number of requests a build completes.

use crate::harness::{setup_ms, Config, Metric, Rooted, Workload};
use crate::rng::SplitMix64;
use crate::stats::{median, percentile};
use crate::trace;
use dtr_core::provenance::{provenance_of, ProvenanceKind};
use dtr_core::runner::{canonical_rows, MetaRunner};
use dtr_core::tagged::TaggedInstance;
use dtr_mapping::exchange::ExchangeOptions;
use dtr_model::instance::NodeId;
use dtr_model::value::MappingName;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::eval::{EvalOptions, EvalStats, Evaluator, QueryResult};
use dtr_query::parser::parse_query;

/// Workload name.
pub const NAME: &str = "query_mix";

/// Listings per source: 2,000 houses, about 72k target nodes.
const SCALE: usize = 400;

/// Families served from query text through the planner: name and template
/// (`{}` is the request's parameter).
pub const PLANNED: [(&str, &str); 6] = [
    (
        "select",
        "select h.hid, h.price from Portal.houses h where h.price > {}",
    ),
    (
        "agent_join",
        "select h.hid, a.phone from Portal.houses h, Portal.agents a \
         where h.contact.name = a.name and h.price > {}",
    ),
    (
        "neighbor_join",
        "select h.hid, n.hid, h2.price \
         from Portal.houses h, h.housesInNeighborhood n, Portal.houses h2 \
         where n.hid = h2.hid and h.price > {}",
    ),
    (
        "map_ext",
        "select h.hid, h.price, m from Portal.houses h, h.price@map m where h.price > {}",
    ),
    (
        "map_pred",
        "select h.hid, m from Portal.houses h, h.price@map m \
         where h.price > {} and e = h.price@elem \
           and <'Yahoo':'/Yahoo/listings/price' -> m -> 'Portal':e>",
    ),
    (
        "schema_pred",
        "select db, e from where <db:e -> m -> 'Portal':'{}'>",
    ),
];

/// The §7.3 path: translated over the metastore by `MetaRunner::query`.
const TRANSLATED: &str = "select h.hid, m from Portal.houses h, h.hid@map m where h.price > {}";

/// Debugging a mapping by querying metadata: which elements its foreach
/// condition joins on (Mapping ⋈ Condition ⋈ Element).
const META: &str = "select e.name from Mapping m, Condition c, Element e \
                    where m.mid = '{}' and c.qid = m.forQ and c.eid = e.eid";

/// Family indices past the planned ones; `provenance` is the last, 8.
const TRANSLATED_FAMILY: usize = 6;
const META_FAMILY: usize = 7;

/// Draw weights of the nine families, in index order.
const WEIGHTS: [usize; 9] = [25, 15, 10, 15, 10, 5, 8, 6, 6];

/// The eight hot requests as `(family, parameter)`; fixed, so every seed
/// serves the same reuse.
const HOT: [(usize, usize); 8] = [
    (0, 182_040),
    (0, 904_280),
    (1, 503_200),
    (2, 1_036_000),
    (3, 328_560),
    (3, 1_191_400),
    (4, 710_400),
    (5, 17),
];

/// Price constants a parameter picks from, 120,000 up to 1.6 million: the
/// range of generated house prices, so selectivity varies from all houses
/// to none.
const PRICES: usize = 1_480_000;

/// Requests per cycle of the stream. A window runs several cycles, so the
/// part of a cycle it ends in weighs little.
const CYCLE: usize = 256;

/// Salt of the request stream.
const STREAM: u64 = 0x9E41;

enum Request {
    Planned {
        family: usize,
        text: String,
    },
    Translated(String),
    Meta(String),
    Provenance {
        kind: ProvenanceKind,
        mapping: MappingName,
        node: NodeId,
    },
}

/// The materialized portal, its metastore and the request stream.
pub struct QueryMix {
    tagged: TaggedInstance,
    runner: MetaRunner,
    /// Atomic target element paths (`schema_pred` parameters).
    elements: Vec<String>,
    /// Mapping names (`meta` parameters).
    mids: Vec<String>,
    /// House price nodes with one mapping that produced each
    /// (`provenance` parameters).
    prices: Vec<(NodeId, MappingName)>,
    /// One cycle of the stream, as `(family, parameter)` pairs.
    cycle: Vec<(usize, usize)>,
    /// Position in the stream of the next request.
    position: usize,
    next: Option<Request>,
    tally: Tally,
    /// Plan cache hits and misses when the window started.
    cache_at_start: (u64, u64),
}

/// Work counters of planned requests in the windows.
#[derive(Default)]
pub struct Tally {
    eval: EvalStats,
    rows: u64,
    hits: u64,
    misses: u64,
}

impl QueryMix {
    fn request(&self, family: usize, param: usize) -> Request {
        let price = 120_000 + param % PRICES;
        match family {
            0..=4 => Request::Planned {
                family,
                text: PLANNED[family].1.replace("{}", &price.to_string()),
            },
            5 => Request::Planned {
                family,
                text: PLANNED[5]
                    .1
                    .replace("{}", &self.elements[param % self.elements.len()]),
            },
            TRANSLATED_FAMILY => Request::Translated(TRANSLATED.replace("{}", &price.to_string())),
            META_FAMILY => Request::Meta(META.replace("{}", &self.mids[param % self.mids.len()])),
            _ => {
                let (node, mapping) = self.prices[param % self.prices.len()].clone();
                let kind = [
                    ProvenanceKind::Where,
                    ProvenanceKind::What,
                    ProvenanceKind::Why,
                ][param % 3];
                Request::Provenance {
                    kind,
                    mapping,
                    node,
                }
            }
        }
    }

    fn meta(&self, text: &str, opts: EvalOptions) -> Result<QueryResult, String> {
        let q = parse_query(text).map_err(|e| e.to_string())?;
        let mut catalog = self.tagged.catalog();
        catalog.push(self.runner.meta_source());
        Evaluator::new(&catalog, self.tagged.functions())
            .with_options(opts)
            .run(&q)
            .map_err(|e| e.to_string())
    }

    fn execute(&mut self, req: &Request) -> Result<(), String> {
        match req {
            Request::Planned { family, text } => {
                let plan = trace::span("query.plan", || self.tagged.plan_for(text))
                    .map_err(|e| e.to_string())?;
                let name = format!("query.eval.{}", PLANNED[*family].0);
                let r =
                    trace::span(name, || self.tagged.run_plan(&plan)).map_err(|e| e.to_string())?;
                let t = &mut self.tally;
                t.rows += r.rows.len() as u64;
                t.eval.tuples_scanned += r.stats.tuples_scanned;
                t.eval.bindings_enumerated += r.stats.bindings_enumerated;
                t.eval.predicate_triples_tested += r.stats.predicate_triples_tested;
            }
            Request::Translated(text) => {
                trace::span("core.translate", || self.runner.query(&self.tagged, text))
                    .map_err(|e| e.to_string())?;
            }
            Request::Meta(text) => {
                trace::span("metastore.meta_query", || {
                    self.meta(text, EvalOptions::default())
                })?;
            }
            Request::Provenance {
                kind,
                mapping,
                node,
            } => {
                trace::span("core.provenance", || {
                    provenance_of(&self.tagged, *kind, mapping, *node)
                })
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// Runs `req` through the measured path and a reference path and
    /// compares the answers.
    fn cross_check(&self, req: &Request) -> Result<(), String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        match req {
            Request::Planned { text, .. } => {
                let planned = self.tagged.run_planned(text).map_err(|e| err(&e))?;
                let q = parse_query(text).map_err(|e| err(&e))?;
                let legacy = self.tagged.run(&q).map_err(|e| err(&e))?;
                if multiset(&planned) != multiset(&legacy) {
                    return Err(format!("planned and legacy rows differ for `{text}`"));
                }
            }
            Request::Translated(text) => {
                let translated = self.runner.query(&self.tagged, text).map_err(|e| err(&e))?;
                let direct = self.tagged.query(text).map_err(|e| err(&e))?;
                if canonical_rows(&translated) != canonical_rows(&direct) {
                    return Err(format!("translated and direct rows differ for `{text}`"));
                }
            }
            Request::Meta(text) => {
                let hashed = self.meta(text, EvalOptions::default())?;
                let nested = self.meta(
                    text,
                    EvalOptions {
                        hash_join: false,
                        ..EvalOptions::default()
                    },
                )?;
                if multiset(&hashed) != multiset(&nested) {
                    return Err(format!("hash and nested-loop rows differ for `{text}`"));
                }
            }
            Request::Provenance {
                kind,
                mapping,
                node,
            } => {
                // Every value a mapping produced was copied from somewhere
                // (Theorem 6.1), so its where-provenance is never empty.
                provenance_of(&self.tagged, *kind, mapping, *node).map_err(|e| err(&e))?;
                let p = provenance_of(&self.tagged, ProvenanceKind::Where, mapping, *node)
                    .map_err(|e| err(&e))?;
                if p.facts.rows.is_empty() {
                    return Err(format!("where-provenance of node {node:?} is empty"));
                }
            }
        }
        Ok(())
    }
}

/// One cycle of the stream as `(family, parameter)` pairs, in a seeded
/// order. Half are the hot requests, each as often as the others. The
/// other half are fresh: the families share them in proportion to
/// [`WEIGHTS`], and a family's parameters fall one in each equal stratum
/// of `0..PRICES`. Every seed thus runs the same mix over the same spread
/// of selectivities, and only the draws within strata and the order
/// differ, so the seed moves the cost of a cycle little.
fn cycle(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed, STREAM);
    let fresh = CYCLE / 2;
    let mut out: Vec<(usize, usize)> = (0..CYCLE - fresh).map(|k| HOT[k % HOT.len()]).collect();
    let total: usize = WEIGHTS.iter().sum();
    let (mut weight, mut start) = (0, 0);
    for (family, w) in WEIGHTS.into_iter().enumerate() {
        // Rounding the running total keeps the shares summing to `fresh`.
        weight += w;
        let end = (weight * fresh + total / 2) / total;
        let n = end - start;
        out.extend((0..n).map(|j| (family, (j * PRICES + rng.below(PRICES)) / n)));
        start = end;
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Result rows as a sorted multiset of rendered rows.
fn multiset(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.value.to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    rows.sort();
    rows
}

impl Workload for QueryMix {
    type Tally = Tally;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let scenario = trace::span("portal.build", || {
            build(ScenarioConfig {
                listings_per_source: cfg.scale.unwrap_or(SCALE),
                seed: cfg.seed,
                ..Default::default()
            })
        });
        let tagged = trace::span("core.exchange", || {
            TaggedInstance::exchange_with_options(
                scenario.setting,
                scenario.sources,
                &ExchangeOptions::default(),
            )
        })
        .map_err(|e| e.to_string())?;
        let runner = trace::span("metastore.encode", || MetaRunner::new(tagged.setting()))
            .map_err(|e| e.to_string())?;
        let target = tagged.setting().target_schema();
        let mut elements: Vec<String> = target
            .atomic_elements()
            .into_iter()
            .map(|e| target.path(e))
            .collect();
        elements.sort();
        let mut mids: Vec<String> = tagged
            .setting()
            .mappings()
            .iter()
            .map(|m| m.name.as_str().to_string())
            .collect();
        mids.sort();
        let prices: Vec<(NodeId, MappingName)> = tagged
            .target_values("/Portal/houses/price")
            .into_iter()
            .filter_map(|(node, _)| Some((node, tagged.mappings_of(node).first()?.clone())))
            .collect();
        if prices.is_empty() {
            return Err("the portal has no house prices".into());
        }
        Ok(QueryMix {
            tagged,
            runner,
            elements,
            mids,
            prices,
            cycle: cycle(cfg.seed),
            position: 0,
            next: None,
            tally: Tally::default(),
            cache_at_start: (0, 0),
        })
    }

    fn start_window(&mut self, earlier: Tally) {
        // Every window replays the stream from its start.
        self.position = 0;
        self.tally = earlier;
        let s = self.tagged.plan_cache_stats();
        self.cache_at_start = (s.hits, s.misses);
    }

    fn end_window(&mut self) -> Tally {
        let mut t = std::mem::take(&mut self.tally);
        let s = self.tagged.plan_cache_stats();
        t.hits += s.hits - self.cache_at_start.0;
        t.misses += s.misses - self.cache_at_start.1;
        t
    }

    fn prepare(&mut self, _i: u64) {
        if self.position.is_multiple_of(CYCLE) {
            self.tagged.clear_plan_cache();
        }
        let (family, param) = self.cycle[self.position % CYCLE];
        self.position += 1;
        self.next = Some(self.request(family, param));
    }

    fn op(&mut self) -> Result<(), String> {
        let req = self.next.take().ok_or("no request drawn")?;
        self.execute(&req)
    }

    fn validate(&mut self) -> Vec<String> {
        // Every request of the cycle the windows ran.
        self.cycle
            .iter()
            .filter_map(|&(family, param)| self.cross_check(&self.request(family, param)).err())
            .collect()
    }

    fn layers(&mut self, tally: &Tally, rooted: &Rooted<'_>) -> Vec<Metric> {
        let p50_us = |pred: &dyn Fn(&str) -> bool| median(&rooted.durations_ms("op", pred)) * 1e3;
        let lookups = tally.hits + tally.misses;
        let rows = tally.rows.max(1) as f64;
        let mut out = vec![
            Metric::new("portal.build_ms", setup_ms(rooted, "portal.build"), "ms"),
            Metric::new("core.exchange_ms", setup_ms(rooted, "core.exchange"), "ms"),
            Metric::new(
                "metastore.encode_ms",
                setup_ms(rooted, "metastore.encode"),
                "ms",
            ),
            Metric::new("query.plan.p50_us", p50_us(&|n| n == "query.plan"), "us"),
            Metric::new(
                "query.plan.cache_hit_ratio",
                tally.hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "query.eval.p50_us",
                p50_us(&|n| n.starts_with("query.eval.")),
                "us",
            ),
            Metric::new(
                "query.eval.p99_us",
                percentile(
                    &rooted.durations_ms("op", |n| n.starts_with("query.eval.")),
                    0.99,
                ) * 1e3,
                "us",
            ),
            Metric::new(
                "query.eval.scanned_per_row",
                tally.eval.tuples_scanned as f64 / rows,
                "ratio",
            ),
            Metric::new(
                "query.eval.bindings_per_row",
                tally.eval.bindings_enumerated as f64 / rows,
                "ratio",
            ),
            Metric::new(
                "query.eval.triples_per_row",
                tally.eval.predicate_triples_tested as f64 / rows,
                "ratio",
            ),
            Metric::new(
                "core.translate.p50_us",
                p50_us(&|n| n == "core.translate"),
                "us",
            ),
            Metric::new(
                "core.provenance.p50_us",
                p50_us(&|n| n == "core.provenance"),
                "us",
            ),
            Metric::new(
                "metastore.meta_query.p50_us",
                p50_us(&|n| n == "metastore.meta_query"),
                "us",
            ),
        ];
        for (family, _) in PLANNED {
            let span = format!("query.eval.{family}");
            out.push(Metric::new(
                format!("{span}.p50_us"),
                p50_us(&|n| n == span),
                "us",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_is_half_hot_and_stratifies_the_rest() {
        let c = cycle(3);
        assert_eq!(c, cycle(3));
        assert_ne!(c, cycle(4));
        assert_eq!(c.len(), CYCLE);
        for hot in HOT {
            assert_eq!(c.iter().filter(|&&r| r == hot).count(), CYCLE / 16);
        }
        let fresh: Vec<(usize, usize)> = c.into_iter().filter(|r| !HOT.contains(r)).collect();
        assert_eq!(fresh.len(), CYCLE / 2);
        // `select` has a quarter of the fresh half, one parameter in each
        // of 32 equal strata.
        let mut select: Vec<usize> = fresh.iter().filter(|r| r.0 == 0).map(|r| r.1).collect();
        select.sort_unstable();
        assert_eq!(select.len(), 32);
        for (j, p) in select.into_iter().enumerate() {
            assert_eq!(p * 32 / PRICES, j);
        }
    }
}
