//! Every workload at 25 listings per source for well under a second:
//! every metric `BENCHMARK.json` names is emitted, validation passes, and
//! the counts that depend only on the seed repeat exactly across two runs
//! with the same seed and operation count.

use serde_json::Value;
use std::process::Command;

const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Per-layer counts fixed by the seed and the number of operations.
const DETERMINISTIC: [&str; 13] = [
    "query.plan.cache_hit_ratio",
    "query.eval.scanned_per_row",
    "query.eval.bindings_per_row",
    "query.eval.triples_per_row",
    "mapping.durable.bytes_per_commit",
    "mapping.durable.syncs_per_commit",
    "mapping.durable.write_amp",
    "mapping.incremental.classes_rebuilt_per_commit",
    "mapping.incremental.reevaluated_per_commit",
    "mapping.incremental.target_changes_per_edit",
    "core.store.checkpoints",
    "mapping.exchange.merge_frac",
    "mapping.exchange.bindings",
];

fn names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(BENCHMARK).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list: &Value = doc.get(section).expect("section present");
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Runs one workload and returns its final JSON line.
fn run(workload: &str, extra: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_dtr_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--scale",
            "25",
            "--warmup",
            "0",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` missing from {result}"))
}

fn smoke(workload: &str) {
    let e2e = run(workload, &["--seconds", "0.5", "--trace", "0"]);
    for name in names("end_to_end") {
        assert!(
            metric(&e2e, &name) > 0.0,
            "{workload}: {name} is not positive"
        );
    }
    let fixed = ["--seconds", "60", "--max-ops", "6", "--trace", "1"];
    let (a, b) = (run(workload, &fixed), run(workload, &fixed));
    for name in names("per_layer") {
        metric(&a, &name);
    }
    for name in DETERMINISTIC {
        assert_eq!(
            metric(&a, name),
            metric(&b, name),
            "{workload}: {name} differs between same-seed runs"
        );
    }
}

#[test]
fn query_mix() {
    smoke("query_mix");
}

#[test]
fn ingest() {
    smoke("ingest");
}

#[test]
fn recover() {
    smoke("recover");
}

#[test]
fn exchange_full() {
    smoke("exchange_full");
}
