//! [`PipelineProfile`]: the exported, plain-data form of a profiling run —
//! the current thread's aggregated span tree and span-latency percentiles
//! (and, when the event journal is on, its summary), plus whatever the
//! caller attaches: the [`crate::Work`] of the session or request it
//! holds, a guard report, an EXPLAIN ANALYZE tree — with an EXPLAIN-style
//! text rendering and a JSON form. Counter and span-field keys are sorted
//! before serialization so `--json` output diffs are stable across runs.

use crate::analyze::OpNode;
use crate::guard::GuardReport;
use crate::journal::Summary as JournalSummary;
use serde_json::{Map, Value};

/// One aggregated span in the profile tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileNode {
    /// Stage name, e.g. `"exchange.run_mapping"`.
    pub name: String,
    /// How many times this span executed at this tree position.
    pub count: u64,
    /// Total wall time across all executions.
    pub total_ns: u64,
    /// Fastest single execution.
    pub min_ns: u64,
    /// Slowest single execution.
    pub max_ns: u64,
    /// Key fields (last write wins), e.g. `("mapping", "m5")`.
    pub fields: Vec<(String, String)>,
    /// Nested stages.
    pub children: Vec<ProfileNode>,
}

/// A named counter reading, as [`crate::Work::entries`] lists them.
pub type CounterValue = (&'static str, u64);

/// A complete profile: per-stage wall-time tree plus the work counts the
/// caller attached, plus the event-journal summary when journaling is
/// enabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineProfile {
    pub stages: Vec<ProfileNode>,
    /// p50/p90/p99 (ns) of every span closed since the last
    /// [`crate::profile_reset`] on the snapshotting thread; `None` when
    /// none closed.
    pub span_latency: Option<(u64, u64, u64)>,
    /// The work counts the caller attached (the entries of the
    /// [`crate::Work`] it holds); [`crate::profile_snapshot`] leaves them
    /// empty.
    pub counters: Vec<CounterValue>,
    pub journal: Option<JournalSummary>,
    /// A guard trip the caller attached (the REPL attaches the report of
    /// its last query's guard error); [`crate::profile_snapshot`] leaves
    /// it empty.
    pub guard: Option<GuardReport>,
    /// An EXPLAIN ANALYZE operator tree the caller attached (the REPL
    /// attaches its last `.analyze` tree); [`crate::profile_snapshot`]
    /// leaves it empty.
    pub analyze: Option<OpNode>,
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl ProfileNode {
    fn render_into(&self, out: &mut String, prefix: &str, last: bool) {
        let branch = if last { "└─ " } else { "├─ " };
        let mut line = format!("{prefix}{branch}{:<32}", self.name);
        line.push_str(&format!(
            " {:>8} call{} {:>12}",
            self.count,
            if self.count == 1 { " " } else { "s" },
            fmt_ns(self.total_ns),
        ));
        if self.count > 1 {
            line.push_str(&format!(
                "  (min {}, max {})",
                fmt_ns(self.min_ns),
                fmt_ns(self.max_ns)
            ));
        }
        if !self.fields.is_empty() {
            let fields: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            line.push_str(&format!("  {{{}}}", fields.join(", ")));
        }
        out.push_str(&line);
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len());
        }
    }

    fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("name", Value::from(self.name.as_str()));
        obj.insert("count", Value::from(self.count));
        obj.insert("total_ns", Value::from(self.total_ns));
        obj.insert("min_ns", Value::from(self.min_ns));
        obj.insert("max_ns", Value::from(self.max_ns));
        if !self.fields.is_empty() {
            let mut sorted: Vec<&(String, String)> = self.fields.iter().collect();
            sorted.sort();
            let mut fields = Map::new();
            for (k, v) in sorted {
                fields.insert(k.clone(), Value::from(v.as_str()));
            }
            obj.insert("fields", Value::Object(fields));
        }
        if !self.children.is_empty() {
            obj.insert(
                "children",
                Value::Array(self.children.iter().map(ProfileNode::to_json).collect()),
            );
        }
        Value::Object(obj)
    }
}

impl PipelineProfile {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// EXPLAIN-style human-readable rendering: the stage tree with call
    /// counts and wall times, followed by the counter table.
    pub fn render(&self) -> String {
        let mut out = String::from("PIPELINE PROFILE\n");
        if self.stages.is_empty() {
            out.push_str("└─ (no spans recorded — is profiling enabled?)\n");
        }
        for (i, stage) in self.stages.iter().enumerate() {
            stage.render_into(&mut out, "", i + 1 == self.stages.len());
        }
        out.push_str("counters:\n");
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:<width$} {value:>12}\n"));
        }
        if let Some(j) = &self.journal {
            out.push_str(&format!("journal: {}\n", j.counts));
            // The recorded tally survives eviction, unlike the retained view.
            for (kind, count) in &j.recorded_by_outcome {
                out.push_str(&format!("  {kind:<width$} {count:>12}\n"));
            }
        }
        if let Some(g) = &self.guard {
            out.push_str(&format!(
                "guard: {} tripped at {} (limit {}) after {} bindings, {} rows, {} bytes\n",
                g.resource, g.stage, g.limit, g.bindings, g.rows, g.bytes
            ));
        }
        if let Some(plan) = &self.analyze {
            out.push_str(&plan.render());
        }
        out
    }

    /// Structured JSON form. Counter keys are emitted in sorted order so
    /// the output is byte-stable across runs.
    pub fn to_json(&self) -> Value {
        let mut sorted: Vec<&CounterValue> = self.counters.iter().collect();
        sorted.sort();
        let mut counters = Map::new();
        for (name, value) in sorted {
            counters.insert(*name, Value::from(*value));
        }
        let mut obj = Map::new();
        obj.insert(
            "stages",
            Value::Array(self.stages.iter().map(ProfileNode::to_json).collect()),
        );
        obj.insert("counters", Value::Object(counters));
        if let Some(journal) = &self.journal {
            obj.insert("journal", journal.to_json());
        }
        if let Some(guard) = &self.guard {
            obj.insert("guard", guard.to_json());
        }
        if let Some(plan) = &self.analyze {
            obj.insert("analyze", plan.to_json());
        }
        Value::Object(obj)
    }

    /// Compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counts;
    use serde_json::json;

    fn sample() -> PipelineProfile {
        PipelineProfile {
            stages: vec![ProfileNode {
                name: "exchange.run_mapping".into(),
                count: 5,
                total_ns: 1_234_567,
                min_ns: 100_000,
                max_ns: 400_000,
                fields: vec![("mapping".into(), "m5".into())],
                children: vec![
                    ProfileNode {
                        name: "query.eval".into(),
                        count: 5,
                        total_ns: 800_000,
                        min_ns: 90_000,
                        max_ns: 300_000,
                        fields: vec![],
                        children: vec![],
                    },
                    ProfileNode {
                        name: "exchange.insert_row".into(),
                        count: 240,
                        total_ns: 300_000,
                        min_ns: 500,
                        max_ns: 9_000,
                        fields: vec![],
                        children: vec![],
                    },
                ],
            }],
            counters: vec![
                ("eval.tuples_scanned", 4_200),
                ("exchange.rows_inserted", 200),
                ("exchange.rows_merged", 40),
            ],
            ..PipelineProfile::default()
        }
    }

    #[test]
    fn json_carries_the_stage_tree_and_counters() {
        let json = sample().to_json();
        let stage = &json.get("stages").and_then(Value::as_array).unwrap()[0];
        assert_eq!(
            stage.get("name").and_then(Value::as_str),
            Some("exchange.run_mapping")
        );
        assert_eq!(stage.get("count").and_then(Value::as_u64), Some(5));
        assert_eq!(
            stage.get("total_ns").and_then(Value::as_u64),
            Some(1_234_567)
        );
        assert_eq!(stage.get("min_ns").and_then(Value::as_u64), Some(100_000));
        assert_eq!(stage.get("max_ns").and_then(Value::as_u64), Some(400_000));
        assert_eq!(stage.get("fields").unwrap(), &json!({"mapping": "m5"}));
        let children = stage.get("children").and_then(Value::as_array).unwrap();
        assert_eq!(children.len(), 2);
        assert_eq!(
            children[1].get("name").and_then(Value::as_str),
            Some("exchange.insert_row")
        );
        // Leaves carry neither `fields` nor `children`.
        assert!(children[1].get("fields").is_none());
        assert!(children[1].get("children").is_none());
        assert_eq!(
            json.get("counters").unwrap(),
            &json!({
                "eval.tuples_scanned": 4200,
                "exchange.rows_inserted": 200,
                "exchange.rows_merged": 40,
            })
        );
        for absent in ["journal", "guard", "analyze"] {
            assert!(json.get(absent).is_none(), "{absent}");
        }
    }

    #[test]
    fn journal_summary_is_written_and_rendered() {
        let mut profile = sample();
        let summary = JournalSummary {
            counts: Counts {
                recorded: 12,
                retained: 12,
                dropped: 0,
                cap: 65_536,
            },
            by_outcome: vec![("inserted".to_string(), 8), ("pnf_merged".to_string(), 4)],
            recorded_by_outcome: vec![("inserted".to_string(), 8), ("pnf_merged".to_string(), 4)],
        };
        profile.journal = Some(summary.clone());
        assert_eq!(profile.to_json().get("journal"), Some(&summary.to_json()));
        let rendered = profile.render();
        assert!(rendered.contains("journal: recorded 12, retained 12, dropped 0, cap 65536\n"));
        assert!(rendered.contains("pnf_merged"));
    }

    #[test]
    fn guard_report_is_written_and_rendered() {
        let mut profile = sample();
        let report = GuardReport {
            resource: "rows".to_string(),
            stage: "exchange.insert_row".to_string(),
            limit: 100,
            bindings: 240,
            rows: 101,
            bytes: 9_000,
        };
        profile.guard = Some(report.clone());
        assert_eq!(profile.to_json().get("guard"), Some(&report.to_json()));
        let rendered = profile.render();
        assert!(rendered.contains("guard: rows tripped at exchange.insert_row"));
    }

    #[test]
    fn analyze_plan_is_written_and_rendered() {
        let mut profile = sample();
        let plan = OpNode {
            op: "project".into(),
            label: "2 cols".into(),
            rows_in: 7,
            rows_out: 7,
            elapsed_ns: 1_000,
            guard_charges: 7,
            children: vec![OpNode::new("scan", "$x: db:/r")],
        };
        profile.analyze = Some(plan.clone());
        assert_eq!(profile.to_json().get("analyze"), Some(&plan.to_json()));
        let rendered = profile.render();
        assert!(rendered.contains("EXPLAIN ANALYZE"));
        assert!(rendered.contains("rows 7 → 7"));
    }

    #[test]
    fn json_counters_and_fields_serialize_sorted() {
        let profile = PipelineProfile {
            stages: vec![ProfileNode {
                name: "s".into(),
                count: 1,
                total_ns: 1,
                min_ns: 1,
                max_ns: 1,
                fields: vec![("zeta".into(), "1".into()), ("alpha".into(), "2".into())],
                children: vec![],
            }],
            counters: vec![("z.last", 1), ("a.first", 2)],
            ..PipelineProfile::default()
        };
        let text = profile.to_json_string();
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
    }

    #[test]
    fn render_shows_tree_and_counters() {
        let text = sample().render();
        assert!(text.contains("PIPELINE PROFILE"));
        assert!(text.contains("├─ query.eval"));
        assert!(text.contains("└─ exchange.insert_row"));
        assert!(text.contains("240 calls"));
        assert!(text.contains("eval.tuples_scanned"));
        assert!(text.contains("4200"));
        assert!(text.contains("{mapping=m5}"));
    }
}
