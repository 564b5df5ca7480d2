//! `dtr_bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! dtr_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! dtr_bench --seed N --seconds S [--trace 0|1] [--out DIR]     # every workload
//! dtr_bench compare PARENT... -- CHANGE...
//! ```
//!
//! One run makes five rounds. Each sets the workload up anew, twice (timed;
//! the median is `setup_s`), warms it up, then drives it as a closed loop, one
//! client and one operation at a time, for a fifth of `--seconds` of wall
//! clock. The run then checks its outputs off the clock and prints every
//! metric as `name value unit` followed by one JSON line. The end-to-end
//! times are stated at the reference pace of `pace.rs`, so a slow spell of
//! a shared host hardly moves them; their wall-clock readings are printed
//! beside them. `--trace 1` records spans around every call into a layer
//! on half the operations and reports the per-layer metrics instead.
//! Without `--workload` every workload runs in a child process of its own,
//! so each one's peak memory is its own. See README.md for the workloads
//! and metrics.

mod compare;
mod edits;
mod exchange_full;
mod harness;
mod ingest;
mod pace;
mod query_mix;
mod recover;
mod rng;
mod spec;
mod stats;
mod trace;
mod vfs;

use harness::{harness_layers, Config, Metric, Plan, Run};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = [
    query_mix::NAME,
    ingest::NAME,
    recover::NAME,
    exchange_full::NAME,
];

const USAGE: &str = "usage: dtr_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR] [--warmup S] [--scale N] [--max-ops N]\n       \
                     dtr_bench compare PARENT... -- CHANGE...";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    warmup: f64,
    scale: Option<usize>,
    max_ops: Option<u64>,
    /// The flags as given, handed on to child runs.
    raw: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::run_seconds(),
        trace: false,
        out: None,
        warmup: 1.0,
        scale: None,
        max_ops: None,
        raw: Vec::new(),
    };
    for pair in args.chunks(2) {
        let flag = pair[0].as_str();
        let v = pair.get(1).ok_or(format!("{flag} takes a value"))?;
        let bad = || format!("bad value `{v}` for {flag}");
        match flag {
            "--workload" => {
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload `{v}` (one of {WORKLOADS:?})"));
                }
                a.workload = Some(v.clone());
                continue;
            }
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(v.into()),
            "--warmup" => a.warmup = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or_else(bad)?,
            "--scale" => a.scale = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?),
            "--max-ops" => a.max_ops = Some(v.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        a.raw.extend_from_slice(pair);
    }
    Ok(a)
}

fn main() -> ExitCode {
    // Library defaults: every telemetry tier off, whatever the environment
    // says.
    dtr_obs::set_enabled(false);
    dtr_obs::journal::set_enabled(false);
    dtr_obs::audit::set_enabled(false);
    dtr_obs::recorder::set_enabled(false);
    dtr_obs::stats::set_enabled(false);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&argv[1..]) as u8);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtr_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dtr_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&args.raw)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("run {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            println!("{w} {line}");
        }
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        scale: args.scale,
    };
    let plan = Plan {
        seconds: args.seconds,
        warmup: args.warmup,
        max_ops: args.max_ops,
        traced: args.trace,
    };
    let run = match workload {
        query_mix::NAME => harness::run::<query_mix::QueryMix>(&cfg, &plan),
        ingest::NAME => harness::run::<ingest::Ingest>(&cfg, &plan),
        recover::NAME => harness::run::<recover::Recover>(&cfg, &plan),
        exchange_full::NAME => harness::run::<exchange_full::ExchangeFull>(&cfg, &plan),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    let metrics = if args.trace {
        per_layer(&run)?
    } else {
        end_to_end(&run)?
    };
    for e in &run.errors {
        eprintln!("dtr_bench {workload}: {e}");
    }
    let correct = run.valid;
    let mut json_metrics = serde_json::Map::new();
    for m in metrics {
        // A statistic of an empty sample (no checkpoint in a short window)
        // reads 0 rather than a non-number.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!("{} {} {}", m.name, value, m.unit);
        json_metrics.insert(
            m.name,
            serde_json::json!({ "value": value, "unit": m.unit }),
        );
    }
    let samples = run.latency_ms.len() + run.paced_traced_ms.len();
    println!("samples {samples} count");
    for (name, value, unit) in wall_clock(&run) {
        println!("{name} {value} {unit}");
    }
    if let Some((label, ms)) = tail(&run.latency_ms) {
        println!("{label}_ms {ms} ms");
    }
    println!(
        "failed_frac {} fraction",
        run.failed as f64 / run.attempted.max(1) as f64
    );
    let result = serde_json::json!({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": serde_json::Value::Object(json_metrics),
    });
    if let Some(dir) = &args.out {
        write_files(dir, workload, args, &run, &result)?;
    }
    println!("{result}");
    Ok(correct && run.failed == 0)
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    spec::metrics("end_to_end")
        .into_iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "throughput_ops_s" => stats::median(&run.paced_ops_s),
                "p50_ms" => stats::median(&run.paced_ms),
                "peak_rss_mb" => run.peak_rss_mb,
                "setup_s" => stats::median(&run.paced_setup_s),
                other => return Err(format!("no end-to-end metric `{other}` is measured")),
            };
            Ok(Metric::new(m.name, value, m.unit))
        })
        .collect()
}

/// The paced metrics' wall-clock readings and the median pace, printed
/// beside the end-to-end metrics and kept in the result file.
fn wall_clock(run: &Run) -> [(&'static str, f64, &'static str); 4] {
    [
        (
            "wall_throughput_ops_s",
            stats::median(&run.round_ops_s),
            "1/s",
        ),
        ("wall_p50_ms", stats::median(&run.latency_ms), "ms"),
        ("wall_setup_s", stats::median(&run.setup_s), "s"),
        ("pace_ms", run.pace_ms, "ms"),
    ]
}

/// The highest of p99.9, p99 and p90 with at least ten samples beyond it,
/// as `(label, value)`. Printed beside the end-to-end metrics but not one
/// of them: on a shared host a tail moves with the host's slow spells.
fn tail(latency_ms: &[f64]) -> Option<(&'static str, f64)> {
    [("p999", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| latency_ms.len() as f64 * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, stats::percentile(latency_ms, q)))
}

fn per_layer(run: &Run) -> Result<Vec<Metric>, String> {
    let rooted = harness::Rooted::new(&run.spans);
    let mut found: Vec<Metric> = harness_layers(run, &rooted);
    found.extend(run.layers.iter().cloned());
    let listed = spec::metrics("per_layer");
    for m in &found {
        match listed.iter().find(|l| l.name == m.name) {
            None => return Err(format!("metric `{}` is not in BENCHMARK.json", m.name)),
            Some(l) if l.unit != m.unit => {
                return Err(format!(
                    "metric `{}` is in {}, BENCHMARK.json says {}",
                    m.name, m.unit, l.unit
                ))
            }
            Some(_) => {}
        }
    }
    Ok(listed
        .into_iter()
        .map(|l| {
            let value = found
                .iter()
                .find(|m| m.name == l.name)
                .map_or(0.0, |m| m.value);
            Metric::new(l.name, value, l.unit)
        })
        .collect())
}

fn write_files(
    dir: &Path,
    workload: &str,
    args: &Args,
    run: &Run,
    result: &serde_json::Value,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut doc = serde_json::json!({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": run.latency_ms.len() + run.paced_traced_ms.len(),
        "errors": run.errors.clone(),
        "setup_s_each": run.setup_s.clone(),
        "throughput_ops_s_each": run.round_ops_s.clone(),
        "tail_ms": tail(&run.latency_ms).map(|(label, ms)| serde_json::json!({ label: ms })),
        "paced_setup_s_each": run.paced_setup_s.clone(),
        "paced_throughput_ops_s_each": run.paced_ops_s.clone(),
    });
    if let serde_json::Value::Object(d) = &mut doc {
        for (name, value, _) in wall_clock(run) {
            d.insert(name.to_string(), value.into());
        }
    }
    if let (serde_json::Value::Object(d), serde_json::Value::Object(r)) = (&mut doc, result) {
        for (k, v) in r.iter() {
            d.insert(k.clone(), v.clone());
        }
    }
    let write = |name: String, v: &serde_json::Value| {
        let path = dir.join(name);
        let text = serde_json::to_string_pretty(v).expect("printing a JSON value cannot fail");
        std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    };
    if args.trace {
        write(format!("{workload}.layers.json"), &doc)?;
        write(
            format!("trace-{workload}.json"),
            &trace::to_json(workload, &run.spans),
        )
    } else {
        write(format!("{workload}.json"), &doc)
    }
}
