//! `exchange_full`: the paper's materialization. Each operation runs every
//! mapping of the portal setting over borrowed, already generated sources
//! with library defaults: `Exchange::new`, `run_mappings` one mapping at a
//! time, then `finish`, which is what `execute_mappings_with` does. The
//! mapping layer does all the work, with no planner, log or publish, over
//! a working set far larger than the CPU caches.

use crate::harness::{setup_ms, Config, Metric, Rooted, Workload};
use crate::stats::median;
use crate::trace;
use dtr_core::tagged::TaggedInstance;
use dtr_mapping::exchange::{Exchange, ExchangeOptions, ExchangeReport};
use dtr_model::instance::Instance;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_query::eval::{Catalog, Evaluator, Source};
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "exchange_full";

/// Listings per source: 5,000 listings, half the paper's run.
const SCALE: usize = 1000;

/// The portal's sixteen mappings, in setting order; each gets a
/// `mapping.exchange.<name>.ms` metric.
pub const MAPPINGS: [&str; 16] = [
    "y1", "y2", "nk1", "nk2", "nk3", "nk4", "wm1", "wm2", "wm3", "wm4", "wf1", "wf2", "hs1", "hs2",
    "hs3", "hs4",
];

/// Setting, annotated sources and the reference target.
pub struct ExchangeFull {
    reference: TaggedInstance,
    expected_nodes: usize,
    /// Hash of the reference target's XML, rendered at the first check.
    expected_hash: Option<u64>,
    output: Option<(Instance, ExchangeReport)>,
    /// Traced operation: each mapping's span, for its foreach probe.
    mapping_spans: MappingSpans,
}

/// Each mapping's span in a traced operation, with the mapping's index.
type MappingSpans = Vec<(trace::Handle, usize)>;

/// FNV-1a over a rendered instance.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl ExchangeFull {
    fn views(&self) -> Vec<Source<'_>> {
        self.reference
            .setting()
            .source_schemas()
            .iter()
            .zip(self.reference.source_instances())
            .map(|(schema, instance)| Source { schema, instance })
            .collect()
    }

    /// The operation, one span per mapping and one for the finishing
    /// annotation pass (recorded only when tracing is on). Also returns
    /// each mapping's span.
    fn exchange(&self) -> Result<((Instance, ExchangeReport), MappingSpans), String> {
        let setting = self.reference.setting();
        let opts = ExchangeOptions::default();
        let mut engine = Exchange::new(
            self.views(),
            setting.target_schema(),
            self.reference.functions(),
        );
        let mut spans = Vec::with_capacity(setting.mappings().len());
        for (k, m) in setting.mappings().iter().enumerate() {
            let h = trace::begin(format!("mapping.exchange.{}", m.name));
            let r = engine.run_mappings(std::slice::from_ref(m), &opts);
            trace::end(h);
            r.map_err(|e| e.to_string())?;
            spans.push((h, k));
        }
        let out = trace::span("mapping.exchange.finish", || engine.finish())
            .map_err(|e| e.to_string())?;
        Ok((out, spans))
    }

    /// Checks the last output's node count, and on the first check and
    /// when `deep` its XML against the reference's.
    fn check_output(&mut self, deep: bool) -> Result<(), String> {
        let (target, _) = self.output.as_ref().ok_or("no exchange output")?;
        if target.len() != self.expected_nodes {
            return Err(format!(
                "target has {} nodes, reference {}",
                target.len(),
                self.expected_nodes
            ));
        }
        if deep || self.expected_hash.is_none() {
            let hash = |i: &Instance| fnv1a(&instance_to_xml(i, WriteOptions::annotated()));
            let expected = *self
                .expected_hash
                .get_or_insert_with(|| hash(self.reference.target()));
            if hash(target) != expected {
                return Err("target XML differs from the reference exchange".into());
            }
        }
        Ok(())
    }
}

impl Workload for ExchangeFull {
    type Tally = ();

    fn setup(cfg: &Config) -> Result<Self, String> {
        let scenario = trace::span("portal.build", || {
            build(ScenarioConfig {
                listings_per_source: cfg.scale.unwrap_or(SCALE),
                seed: cfg.seed,
                ..Default::default()
            })
        });
        let reference = trace::span("core.exchange", || {
            TaggedInstance::exchange_with_options(
                scenario.setting,
                scenario.sources,
                &ExchangeOptions::default(),
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(ExchangeFull {
            expected_nodes: reference.target().len(),
            reference,
            expected_hash: None,
            output: None,
            mapping_spans: Vec::new(),
        })
    }

    fn prepare(&mut self, _i: u64) {
        // Freed outside the operation's latency but inside the window: the
        // operation builds a whole new target.
        self.output = None;
    }

    fn op(&mut self) -> Result<(), String> {
        let (out, spans) = self.exchange()?;
        self.output = Some(out);
        self.mapping_spans = spans;
        Ok(())
    }

    fn check(&mut self, _i: u64) -> Result<(), String> {
        self.check_output(false)?;
        // Traced operations: time each mapping's foreach query alone, so
        // the mapping's span splits into enumeration and insertion.
        let spans = std::mem::take(&mut self.mapping_spans);
        if trace::is_on() {
            let views = self.views();
            let catalog = Catalog::new(views);
            let mappings = self.reference.setting().mappings();
            for (h, k) in spans {
                let t = Instant::now();
                Evaluator::new(&catalog, self.reference.functions())
                    .run(&mappings[k].foreach)
                    .map_err(|e| e.to_string())?;
                trace::child(
                    h,
                    "mapping.exchange.foreach",
                    0,
                    t.elapsed().as_nanos() as u64,
                );
            }
        }
        Ok(())
    }

    fn validate(&mut self) -> Vec<String> {
        self.check_output(true)
            .err()
            .map(|e| format!("last exchange: {e}"))
            .into_iter()
            .collect()
    }

    fn layers(&mut self, _: &(), rooted: &Rooted<'_>) -> Vec<Metric> {
        let is_mapping = |n: &str| {
            n.strip_prefix("mapping.exchange.")
                .is_some_and(|m| m != "foreach" && m != "finish")
        };
        let runs = rooted.per_root_ms("op", is_mapping);
        let foreach = rooted.per_root_ms("op", |n| n == "mapping.exchange.foreach");
        let traced: Vec<(f64, f64)> = runs
            .into_iter()
            .zip(foreach)
            .filter(|&(r, _)| r > 0.0)
            .collect();
        let insert: Vec<f64> = traced.iter().map(|&(r, f)| r - f).collect();
        let foreach: Vec<f64> = traced.iter().map(|&(_, f)| f).collect();
        let totals = self
            .output
            .as_ref()
            .map(|(_, report)| report.totals())
            .unwrap_or_default();
        let mut out = vec![
            Metric::new("portal.build_ms", setup_ms(rooted, "portal.build"), "ms"),
            Metric::new("core.exchange_ms", setup_ms(rooted, "core.exchange"), "ms"),
            Metric::new("mapping.exchange.foreach_ms", median(&foreach), "ms"),
            Metric::new("mapping.exchange.insert_ms", median(&insert), "ms"),
            Metric::new(
                "mapping.exchange.finish_ms",
                median(&rooted.durations_ms("op", |n| n == "mapping.exchange.finish")),
                "ms",
            ),
            Metric::new(
                "mapping.exchange.merge_frac",
                totals.rows_merged as f64 / totals.bindings.max(1) as f64,
                "ratio",
            ),
            Metric::new("mapping.exchange.bindings", totals.bindings as f64, "count"),
        ];
        for m in MAPPINGS {
            let span = format!("mapping.exchange.{m}");
            out.push(Metric::new(
                format!("{span}.ms"),
                median(&rooted.durations_ms("op", |n| n == span)),
                "ms",
            ));
        }
        out
    }
}
