//! `BENCHMARK.json`, read at build time: the run length, the metric names,
//! units, directions and bounds the runs report and the compare tool
//! judges by. Built in, so a run always reports the metrics its own
//! definition lists.

use serde_json::Value;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn doc() -> Value {
    serde_json::from_str(BENCHMARK).expect("BENCHMARK.json is valid JSON")
}

/// The metrics of one section, `end_to_end` or `per_layer`.
pub fn metrics(section: &str) -> Vec<MetricSpec> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("a {section} metric of BENCHMARK.json lacks `{k}`"))
            .to_string()
    };
    doc()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Seconds one run measures, unless `--seconds` says otherwise.
pub fn run_seconds() -> f64 {
    doc()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("BENCHMARK.json has a numeric `run_seconds`")
}
