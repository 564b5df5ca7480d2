//! Logical query plans: the planner's intermediate representation.
//!
//! The planner pipeline is `parse → resolve → logical plan → rewrites →
//! physical plan` (see [`crate::plan`] for the driver and the plan cache).
//! A [`LogicalPlan`] describes *what* the query computes as a chain of
//! relational stages — scan/bind, filter, join, mapping-predicate,
//! project, sort, limit — independent of join algorithms or binding
//! order. Two rewrite passes replace what used to be ad-hoc evaluator
//! flags:
//!
//! * [`LogicalPlan::push_down_filters`] — predicate pushdown as a plan
//!   rewrite: every comparison is attached to the earliest binding stage
//!   at which all of its variables are bound (what the evaluator applies
//!   at runtime);
//! * [`LogicalPlan::extract_joins`] — equality-predicate extraction:
//!   a pushed-down equi-comparison linking a row-independent binding to
//!   earlier bindings is promoted to the stage's *join key*, making the
//!   join explicit so the physical planner can choose an algorithm for it.

use crate::ast::{CmpOp, Condition, Query};

/// How a binding stage produces its candidate items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindKind {
    /// The source is row-independent (a schema root): one scan serves
    /// every row.
    Scan,
    /// The source mentions earlier variables: re-enumerated per row.
    Bind,
}

/// One `from`-clause binding as a logical stage.
#[derive(Clone, Debug)]
pub struct BindStage {
    /// Index of the binding in the (original) `from` clause.
    pub binding: usize,
    /// The bound variable.
    pub var: String,
    /// The rendered source expression.
    pub source: String,
    /// Scan (row-independent) or per-row bind.
    pub kind: BindKind,
    /// Comparison indices (into the query's comparison list) applied at
    /// this stage — filled by [`LogicalPlan::push_down_filters`].
    pub pushed: Vec<usize>,
    /// A pushed equality comparison promoted to this stage's join key —
    /// filled by [`LogicalPlan::extract_joins`]. The index refers to the
    /// same comparison list as `pushed` (the key stays in `pushed` too:
    /// the join still confirms candidates with the real comparison).
    pub join_key: Option<usize>,
}

/// One stage of a logical plan, in execution order.
#[derive(Clone, Debug)]
pub enum LogicalStage {
    /// A `from`-clause binding (scan, bind, or — after rewrites — join).
    Bind(BindStage),
    /// A mapping predicate (generator/filter over metastore triples).
    MapPred {
        /// The rendered predicate.
        pred: String,
    },
    /// Residual comparisons evaluated after all bindings.
    Filter {
        /// Comparison indices not consumed by any binding stage.
        residual: Vec<usize>,
    },
    /// The select-clause projection.
    Project {
        /// Number of output columns.
        columns: usize,
    },
    /// The `order by` sort.
    Sort {
        /// Number of sort keys.
        keys: usize,
    },
    /// The `limit` truncation.
    Limit {
        /// Row cap.
        n: usize,
    },
}

/// A logical plan: the stage chain plus the rendered comparison list it
/// indexes into.
#[derive(Clone, Debug)]
pub struct LogicalPlan {
    /// The stages, in execution order.
    pub stages: Vec<LogicalStage>,
    /// The query's comparisons, rendered (indexed by `pushed`/`residual`).
    pub comparisons: Vec<String>,
}

impl LogicalPlan {
    /// Builds the unrewritten logical plan of a query: every comparison
    /// residual, no join keys — the input of the rewrite passes.
    pub fn from_query(q: &Query) -> Self {
        let mut stages = Vec::new();
        let comparisons: Vec<String> = q
            .conditions
            .iter()
            .filter_map(|c| match c {
                Condition::Cmp(cmp) => Some(cmp.to_string()),
                _ => None,
            })
            .collect();
        for (bi, b) in q.from.iter().enumerate() {
            let kind = if b.source.variables().is_empty() {
                BindKind::Scan
            } else {
                BindKind::Bind
            };
            stages.push(LogicalStage::Bind(BindStage {
                binding: bi,
                var: b.var.clone(),
                source: b.source.to_string(),
                kind,
                pushed: Vec::new(),
                join_key: None,
            }));
        }
        for c in &q.conditions {
            if let Condition::MapPred(p) = c {
                stages.push(LogicalStage::MapPred {
                    pred: p.to_string(),
                });
            }
        }
        stages.push(LogicalStage::Filter {
            residual: (0..comparisons.len()).collect(),
        });
        stages.push(LogicalStage::Project {
            columns: q.select.len(),
        });
        if !q.order_by.is_empty() {
            stages.push(LogicalStage::Sort {
                keys: q.order_by.len(),
            });
        }
        if let Some(n) = q.limit {
            stages.push(LogicalStage::Limit { n });
        }
        LogicalPlan {
            stages,
            comparisons,
        }
    }

    /// Predicate pushdown as a plan rewrite: moves each comparison from
    /// the residual filter to the earliest binding stage at which all of
    /// its variables are bound. Comparisons mentioning variables that no
    /// binding declares (mapping-predicate variables bound later by triple
    /// unification) stay residual.
    pub fn push_down_filters(&mut self, q: &Query) {
        let cmps: Vec<&crate::ast::Comparison> = q
            .conditions
            .iter()
            .filter_map(|c| match c {
                Condition::Cmp(cmp) => Some(cmp),
                _ => None,
            })
            .collect();
        let cmp_vars: Vec<Vec<&str>> = cmps
            .iter()
            .map(|cmp| {
                cmp.left
                    .variables()
                    .into_iter()
                    .chain(cmp.right.variables())
                    .collect()
            })
            .collect();
        let mut assigned = vec![false; cmps.len()];
        let mut bound: Vec<&str> = Vec::new();
        for stage in &mut self.stages {
            if let LogicalStage::Bind(b) = stage {
                bound.push(q.from[b.binding].var.as_str());
                for (ci, vars) in cmp_vars.iter().enumerate() {
                    if assigned[ci] || !vars.iter().all(|v| bound.contains(v)) {
                        continue;
                    }
                    assigned[ci] = true;
                    b.pushed.push(ci);
                }
            }
        }
        for stage in &mut self.stages {
            if let LogicalStage::Filter { residual } = stage {
                residual.retain(|&ci| !assigned[ci]);
            }
        }
    }

    /// Equality-predicate extraction: promotes, on each row-independent
    /// (scan) stage, the first pushed equality comparison linking the
    /// stage's variable to earlier bindings into an explicit join key —
    /// exactly the pattern the evaluator's hash-join path can serve. The
    /// physical planner then chooses hash vs nested-loop per join.
    pub fn extract_joins(&mut self, q: &Query) {
        let cmps: Vec<&crate::ast::Comparison> = q
            .conditions
            .iter()
            .filter_map(|c| match c {
                Condition::Cmp(cmp) => Some(cmp),
                _ => None,
            })
            .collect();
        for stage in &mut self.stages {
            let LogicalStage::Bind(b) = stage else {
                continue;
            };
            if b.kind != BindKind::Scan {
                continue;
            }
            let var = q.from[b.binding].var.as_str();
            b.join_key = b.pushed.iter().copied().find(|&ci| {
                let cmp = cmps[ci];
                if cmp.op != CmpOp::Eq {
                    return false;
                }
                let l_vars = cmp.left.variables();
                let r_vars = cmp.right.variables();
                let only_candidate =
                    |vars: &[&str]| !vars.is_empty() && vars.iter().all(|v| *v == var);
                let row_side = |vars: &[&str]| !vars.is_empty() && !vars.contains(&var);
                only_candidate(&l_vars) && row_side(&r_vars)
                    || only_candidate(&r_vars) && row_side(&l_vars)
            });
        }
    }

    /// The fully rewritten logical plan (pushdown + join extraction).
    pub fn optimized(q: &Query) -> Self {
        let mut plan = Self::from_query(q);
        plan.push_down_filters(q);
        plan.extract_joins(q);
        plan
    }

    /// One line per stage, top (last stage) first — the `.explain` shape.
    pub fn render(&self) -> String {
        let mut out = String::from("LOGICAL PLAN\n");
        for stage in self.stages.iter().rev() {
            match stage {
                LogicalStage::Bind(b) => {
                    let op = match (b.kind, b.join_key) {
                        (_, Some(_)) => "join",
                        (BindKind::Scan, None) => "scan",
                        (BindKind::Bind, None) => "bind",
                    };
                    let mut line = format!("  {op:<8} {} {}", b.source, b.var);
                    if let Some(k) = b.join_key {
                        line.push_str(&format!("  on {}", self.comparisons[k]));
                    }
                    let filters: Vec<&str> = b
                        .pushed
                        .iter()
                        .filter(|ci| b.join_key != Some(**ci))
                        .map(|&ci| self.comparisons[ci].as_str())
                        .collect();
                    if !filters.is_empty() {
                        line.push_str(&format!("  filter [{}]", filters.join(" and ")));
                    }
                    out.push_str(&line);
                }
                LogicalStage::MapPred { pred } => {
                    out.push_str(&format!("  map-pred {pred}"));
                }
                LogicalStage::Filter { residual } => {
                    if residual.is_empty() {
                        continue;
                    }
                    let texts: Vec<&str> = residual
                        .iter()
                        .map(|&ci| self.comparisons[ci].as_str())
                        .collect();
                    out.push_str(&format!("  filter   [{}]", texts.join(" and ")));
                }
                LogicalStage::Project { columns } => {
                    out.push_str(&format!("  project  {columns} col(s)"));
                }
                LogicalStage::Sort { keys } => {
                    out.push_str(&format!("  sort     {keys} key(s)"));
                }
                LogicalStage::Limit { n } => {
                    out.push_str(&format!("  limit    {n}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn pushdown_moves_filters_to_binding_stages() {
        let q = parse_query(
            "select h.hid from US.houses h, US.agents a \
             where h.aid = a.aid and h.price > 100",
        )
        .unwrap();
        let mut plan = LogicalPlan::from_query(&q);
        // Unrewritten: everything residual.
        let residual_len = |p: &LogicalPlan| {
            p.stages
                .iter()
                .find_map(|s| match s {
                    LogicalStage::Filter { residual } => Some(residual.len()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(residual_len(&plan), 2);
        plan.push_down_filters(&q);
        assert_eq!(residual_len(&plan), 0);
        // `h.price > 100` lands on h's stage, the equi-join on a's.
        let pushed: Vec<usize> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                LogicalStage::Bind(b) => Some(b.pushed.len()),
                _ => None,
            })
            .collect();
        assert_eq!(pushed, vec![1, 1]);
    }

    #[test]
    fn join_extraction_promotes_equality_on_scans() {
        let q =
            parse_query("select h.hid from US.houses h, US.agents a where a.aid = h.aid").unwrap();
        let plan = LogicalPlan::optimized(&q);
        let keys: Vec<Option<usize>> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                LogicalStage::Bind(b) => Some(b.join_key),
                _ => None,
            })
            .collect();
        // The first binding has nothing to join with; the second joins.
        assert_eq!(keys, vec![None, Some(0)]);
        let rendered = plan.render();
        assert!(rendered.contains("join"), "{rendered}");
        assert!(rendered.contains("a.aid = h.aid"), "{rendered}");
    }

    #[test]
    fn mapping_pred_variables_stay_residual() {
        let q = parse_query(
            "select m from US.houses h, h.price@map m \
             where e = h.price@elem and <db:e -> m -> 'Pdb':e2>",
        )
        .unwrap();
        let plan = LogicalPlan::optimized(&q);
        // `e = h.price@elem` mentions `e`, bound only by the predicate:
        // it must stay in the residual filter.
        let residual = plan
            .stages
            .iter()
            .find_map(|s| match s {
                LogicalStage::Filter { residual } => Some(residual.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(residual, vec![0]);
        assert!(plan.render().contains("map-pred"), "{}", plan.render());
    }
}
