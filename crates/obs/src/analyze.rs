//! EXPLAIN ANALYZE plan data: a per-operator tree recording what each
//! operator (scan, bind, filter, hash-join build/probe, map-pred,
//! project, sort, limit) actually did — rows in/out, elapsed wall time,
//! and guard charges — produced by `dtr_query`'s `run_analyzed` and
//! returned to its caller, which may embed it in a
//! [`crate::PipelineProfile`].

use serde_json::{Map, Value};

use crate::profile::fmt_ns;

/// One operator's measured execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpNode {
    /// Operator kind, e.g. `"scan"`, `"hash-probe"`, `"pnf-merge"`.
    pub op: String,
    /// Operator detail, e.g. the bound variable and source path.
    pub label: String,
    /// Rows (or candidate items) flowing into the operator.
    pub rows_in: u64,
    /// Rows surviving the operator.
    pub rows_out: u64,
    /// Wall time attributed to this operator.
    pub elapsed_ns: u64,
    /// Guard-meter charges (budget poll ticks) incurred inside it.
    pub guard_charges: u64,
    /// Upstream operators feeding this one.
    pub children: Vec<OpNode>,
}

impl OpNode {
    pub fn new(op: impl Into<String>, label: impl Into<String>) -> Self {
        OpNode {
            op: op.into(),
            label: label.into(),
            ..OpNode::default()
        }
    }

    /// Number of operators in this subtree (including `self`).
    pub fn ops(&self) -> usize {
        1 + self.children.iter().map(OpNode::ops).sum::<usize>()
    }

    /// Depth-first search for the first operator of the given kind.
    pub fn find(&self, op: &str) -> Option<&OpNode> {
        if self.op == op {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(op))
    }

    /// Annotated-tree rendering, one operator per line:
    /// `op [label]  rows 120 → 40  1.2 ms  (guard 40)`.
    pub fn render(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        self.render_into(&mut out, "", true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool) {
        let branch = if last { "└─ " } else { "├─ " };
        let mut line = format!("{prefix}{branch}{:<12}", self.op);
        if !self.label.is_empty() {
            line.push_str(&format!(" [{}]", self.label));
        }
        line.push_str(&format!(
            "  rows {} → {}  {}",
            self.rows_in,
            self.rows_out,
            fmt_ns(self.elapsed_ns)
        ));
        if self.guard_charges > 0 {
            line.push_str(&format!("  (guard {})", self.guard_charges));
        }
        out.push_str(&line);
        out.push('\n');
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == self.children.len());
        }
    }

    /// Structured JSON form (keys in fixed order; an empty `label`, zero
    /// `guard_charges` and no `children` are left out).
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("op", Value::from(self.op.as_str()));
        if !self.label.is_empty() {
            obj.insert("label", Value::from(self.label.as_str()));
        }
        obj.insert("rows_in", Value::from(self.rows_in));
        obj.insert("rows_out", Value::from(self.rows_out));
        obj.insert("elapsed_ns", Value::from(self.elapsed_ns));
        if self.guard_charges > 0 {
            obj.insert("guard_charges", Value::from(self.guard_charges));
        }
        if !self.children.is_empty() {
            obj.insert(
                "children",
                Value::Array(self.children.iter().map(OpNode::to_json).collect()),
            );
        }
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpNode {
        OpNode {
            op: "project".into(),
            label: "3 cols".into(),
            rows_in: 40,
            rows_out: 40,
            elapsed_ns: 1_200_000,
            guard_charges: 40,
            children: vec![
                OpNode {
                    op: "hash-probe".into(),
                    label: "$l.agent-id = $a.id".into(),
                    rows_in: 120,
                    rows_out: 40,
                    elapsed_ns: 800_000,
                    guard_charges: 0,
                    children: vec![OpNode {
                        op: "hash-build".into(),
                        label: "$a: src:/rdb/agent".into(),
                        rows_in: 12,
                        rows_out: 12,
                        elapsed_ns: 90_000,
                        guard_charges: 0,
                        children: vec![],
                    }],
                },
                OpNode::new("scan", "$l: src:/rdb/listing"),
            ],
        }
    }

    #[test]
    fn render_shows_tree_rows_and_guard() {
        let text = sample().render();
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("└─ project"));
        assert!(text.contains("├─ hash-probe"));
        assert!(text.contains("└─ hash-build"));
        assert!(text.contains("rows 120 → 40"));
        assert!(text.contains("(guard 40)"));
        assert!(text.contains("[$a: src:/rdb/agent]"));
    }

    #[test]
    fn json_carries_every_operator() {
        let json = sample().to_json();
        assert_eq!(
            json.to_string(),
            "{\"op\":\"project\",\"label\":\"3 cols\",\"rows_in\":40,\"rows_out\":40,\
             \"elapsed_ns\":1200000,\"guard_charges\":40,\"children\":[\
             {\"op\":\"hash-probe\",\"label\":\"$l.agent-id = $a.id\",\"rows_in\":120,\
             \"rows_out\":40,\"elapsed_ns\":800000,\"children\":[\
             {\"op\":\"hash-build\",\"label\":\"$a: src:/rdb/agent\",\"rows_in\":12,\
             \"rows_out\":12,\"elapsed_ns\":90000}]},\
             {\"op\":\"scan\",\"label\":\"$l: src:/rdb/listing\",\"rows_in\":0,\
             \"rows_out\":0,\"elapsed_ns\":0}]}"
        );
    }

    #[test]
    fn find_and_ops_walk_the_tree() {
        let plan = sample();
        assert_eq!(plan.ops(), 4);
        assert_eq!(plan.find("hash-build").unwrap().rows_out, 12);
        assert!(plan.find("nest").is_none());
    }
}
