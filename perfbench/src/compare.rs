//! `dtr_bench compare PARENT... -- CHANGE...`: judges a change against its
//! parent from two sets of result files (or directories of them), per
//! workload and metric, by the bounds and directions in the
//! `BENCHMARK.json` the tool was built with.
//!
//! For each side it reports the median and quartiles, then the share of
//! (parent, change) run pairs the change wins (ties count for neither) and
//! a verdict: `regressed` (the median is worse by more than the metric's
//! bound), `improved` (at least ten runs a side, the change wins at least
//! nine tenths of the pairs and its median moved by more than the parent's
//! own quartile spread), `unresolved` (the parent's own spread exceeds the
//! bound, so the runs cannot tell, and not every change run beats every
//! parent run) or `unchanged`. Per-layer metrics have no bound and are
//! reported without a verdict.
//!
//! Exits 1 on any regression past a bound and on any rise in the share of
//! failed operations.

use crate::spec::{self, MetricSpec};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Runs a side needs before a change can count as an improvement.
const MIN_RUNS: usize = 10;

/// One result file: a workload's metrics from one run.
struct RunResult {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dtr_bench compare: {e}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let mut sides: [Vec<PathBuf>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    for a in args {
        match a.as_str() {
            "--" if side == 0 => side = 1,
            _ => sides[side].push(a.into()),
        }
    }
    if sides.iter().any(Vec::is_empty) {
        return Err("usage: dtr_bench compare PARENT... -- CHANGE...".into());
    }
    let mut specs = spec::metrics("end_to_end");
    specs.extend(spec::metrics("per_layer"));
    let parent = load_results(&sides[0])?;
    let change = load_results(&sides[1])?;

    let mut workloads: Vec<&String> = parent.keys().chain(change.keys()).collect();
    workloads.sort();
    workloads.dedup();
    let mut exit = 0;
    println!(
        "{:<14} {:<44} {:>26} {:>26} {:>8} {:>5}  verdict",
        "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "wins"
    );
    for w in workloads {
        let (Some(p), Some(c)) = (parent.get(w), change.get(w)) else {
            println!("{w:<14} (only one side has results; skipped)");
            continue;
        };
        for spec in &specs {
            let pv: Vec<f64> = p
                .iter()
                .filter_map(|r| r.metrics.get(&spec.name).copied())
                .collect();
            let cv: Vec<f64> = c
                .iter()
                .filter_map(|r| r.metrics.get(&spec.name).copied())
                .collect();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = judge(spec, &pv, &cv);
            if v.verdict == "regressed" {
                exit = 1;
            }
            println!(
                "{w:<14} {:<44} {:>26} {:>26} {:>+7.2}% {:>5.2}  {}",
                spec.name,
                summary(&pv),
                summary(&cv),
                v.delta * 100.0,
                v.wins,
                v.verdict
            );
        }
        let frac = |rs: &[RunResult]| {
            let a: u64 = rs.iter().map(|r| r.attempted).sum();
            let f: u64 = rs.iter().map(|r| r.failed).sum();
            f as f64 / a.max(1) as f64
        };
        let (pf, cf) = (frac(p), frac(c));
        let rose = cf > pf;
        println!(
            "{w:<14} {:<44} {:>26} {:>26} {:>8} {:>5}  {}",
            "failed_frac",
            pf,
            cf,
            "",
            "",
            if rose { "regressed" } else { "unchanged" }
        );
        if rose {
            exit = 1;
        }
    }
    Ok(exit)
}

struct Judgement {
    /// Relative change of the median; positive is better.
    delta: f64,
    wins: f64,
    verdict: &'static str,
}

fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Judgement {
    let better = |a: f64, b: f64| {
        if spec.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let (mp, mc) = (median(parent), median(change));
    let signed = if spec.higher_is_better {
        mc - mp
    } else {
        mp - mc
    };
    let delta = signed / mp.abs().max(f64::MIN_POSITIVE);
    let mut wins = 0usize;
    for &c in change {
        for &p in parent {
            if better(c, p) {
                wins += 1;
            }
        }
    }
    let wins = wins as f64 / (parent.len() * change.len()) as f64;
    let iqr = quartiles(parent).map_or(0.0, |q| q[2] - q[0]);
    let verdict = match spec.bound {
        None => "-",
        Some(bound) => {
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            let enough = parent.len().min(change.len()) >= MIN_RUNS;
            if -delta > bound {
                "regressed"
            } else if enough && wins >= 0.9 && signed > iqr {
                "improved"
            } else if iqr / mp.abs() > bound && !all_better {
                "unresolved"
            } else {
                "unchanged"
            }
        }
    };
    Judgement {
        delta,
        wins,
        verdict,
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{:.4} [{q1:.4} {q3:.4}]", median(values)),
        None => format!("{:.4}", median(values)),
    }
}

/// Reads result files, descending one level into directories, and groups
/// them by workload. Span files and files without metrics are skipped.
fn load_results(paths: &[PathBuf]) -> Result<BTreeMap<String, Vec<RunResult>>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut inside: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("{}: {e}", p.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(p.clone());
        }
    }
    let mut out: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Value::as_str),
            doc.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.entry(workload.to_string())
            .or_default()
            .push(RunResult {
                metrics,
                attempted: doc.get("attempted").and_then(Value::as_u64).unwrap_or(0),
                failed: doc.get("failed").and_then(Value::as_u64).unwrap_or(0),
            });
    }
    if out.is_empty() {
        return Err(format!("no result files among {paths:?}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let bound = Some(0.1);
        let parent: Vec<f64> = (0..10).map(|i| 9.9 + 0.02 * f64::from(i)).collect();
        let same: Vec<f64> = parent.iter().map(|p| p + 0.01).collect();
        assert_eq!(judge(&spec(bound), &parent, &same).verdict, "unchanged");
        let slower = judge(&spec(bound), &parent, &[12.0, 12.1, 11.9]);
        assert_eq!(slower.verdict, "regressed");
        assert_eq!(slower.wins, 0.0);
        let faster: Vec<f64> = parent.iter().map(|p| p - 2.0).collect();
        let j = judge(&spec(bound), &parent, &faster);
        assert_eq!((j.verdict, j.wins), ("improved", 1.0));
        // Too few runs to claim a gain, however clear.
        assert_eq!(
            judge(&spec(bound), &parent, &faster[..3]).verdict,
            "unchanged"
        );
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(
            judge(&spec(bound), &noisy, &[12.0, 13.0]).verdict,
            "unresolved"
        );
        assert_eq!(
            judge(&spec(bound), &noisy, &[4.0, 4.5]).verdict,
            "unchanged"
        );
        assert_eq!(judge(&spec(None), &parent, &[12.0]).verdict, "-");
    }
}
