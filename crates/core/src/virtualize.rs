//! Virtual integration: answering target queries over the sources.
//!
//! The paper's conclusion: "In the current work, we assumed that mappings
//! were used to materialize an integrated instance. However, that instance
//! may also be virtual. It is among our next steps to investigate ... the
//! semantics of query rewriting and query answering in such a setting."
//!
//! This module implements the classical unfolding for that setting: a plain
//! conjunctive query over the *target* schema is rewritten into a union of
//! conjunctive queries over the *sources*, one per combination of mappings
//! covering the query's binding trees, and evaluated without ever
//! materializing the target.
//!
//! **Soundness / completeness.** Every virtual answer is an answer over the
//! materialized instance (soundness — asserted by the test suite); for a
//! query with a `limit`, an answer of the same query without it. The
//! converse holds for queries whose joins stay inside one mapping's output;
//! a join that only succeeds because *different* mappings produced merged
//! (identical) values in the materialized instance is not recovered — that
//! is exactly the open question the paper defers, and it is documented
//! rather than hidden.

use crate::runner::DistinctUnion;
use crate::tagged::{MappingSetting, MxqlError};
use dtr_mapping::glav::Mapping;
use dtr_model::instance::Instance;
use dtr_model::schema::ElementId;
use dtr_obs::guard::Budget;
use dtr_query::ast::{Binding, Comparison, Condition, Expr, PathExpr, PathStart, Query};
use dtr_query::check::{check_query, SchemaCatalog, VarTarget};
use dtr_query::eval::{Catalog, EvalOptions, Evaluator, QueryResult, Source};
use dtr_query::functions::FunctionRegistry;
use std::collections::HashMap;

/// A group of query bindings rooted at a schema-root binding, together with
/// its nested descendants (e.g. `Portal.houses h, h.features f`).
struct BindingGroup {
    /// Indices into `q.from`, root first.
    members: Vec<usize>,
}

/// Splits the query's from-clause into root-chained groups.
fn binding_groups(q: &Query) -> Result<Vec<BindingGroup>, MxqlError> {
    let mut group_of: HashMap<&str, usize> = HashMap::new();
    let mut groups: Vec<BindingGroup> = Vec::new();
    for (i, b) in q.from.iter().enumerate() {
        let Expr::Path(p) = &b.source else {
            return Err(MxqlError::Other(format!(
                "virtual answering supports only path bindings, got `{}`",
                b.source
            )));
        };
        match &p.start {
            PathStart::Root(_) => {
                group_of.insert(b.var.as_str(), groups.len());
                groups.push(BindingGroup { members: vec![i] });
            }
            PathStart::Var(v) => {
                let g = *group_of
                    .get(v.as_str())
                    .ok_or_else(|| MxqlError::Other(format!("binding variable `{v}` undefined")))?;
                group_of.insert(b.var.as_str(), g);
                groups[g].members.push(i);
            }
        }
    }
    Ok(groups)
}

/// The element a query variable binds to, for both the user query and the
/// mapping's exists query.
fn var_elements(
    q: &Query,
    setting: &MappingSetting,
) -> Result<HashMap<String, ElementId>, MxqlError> {
    let resolved = check_query(q, SchemaCatalog::new(vec![setting.target_schema()]))?;
    let mut out = HashMap::new();
    for (v, t) in &resolved.vars {
        if let VarTarget::Element(_, e) = t {
            out.insert(v.clone(), *e);
        }
    }
    Ok(out)
}

/// Tries to cover one binding group with mapping `m`: returns the map from
/// the query's group variables to `m`'s exists variables.
fn cover_group(
    q: &Query,
    group: &BindingGroup,
    q_elems: &HashMap<String, ElementId>,
    m: &Mapping,
    m_elems: &HashMap<String, ElementId>,
) -> Option<HashMap<String, String>> {
    let mut assignment: HashMap<String, String> = HashMap::new();
    for &i in &group.members {
        let b = &q.from[i];
        let qe = q_elems.get(b.var.as_str())?;
        // Find an exists binding of m with the same member element whose
        // parent variable matches the already-assigned parent (structure
        // preservation).
        let parent_var = match &b.source {
            Expr::Path(p) => match &p.start {
                PathStart::Var(v) => Some(v.as_str()),
                PathStart::Root(_) => None,
            },
            _ => None,
        };
        let wanted_parent = parent_var.map(|pv| assignment.get(pv).cloned());
        let mut found = None;
        for mb in &m.exists.from {
            if m_elems.get(mb.var.as_str()) != Some(qe) {
                continue;
            }
            let m_parent = match &mb.source {
                Expr::Path(p) => match &p.start {
                    PathStart::Var(v) => Some(v.clone()),
                    PathStart::Root(_) => None,
                },
                _ => None,
            };
            let ok = match (&wanted_parent, &m_parent) {
                (None, None) => true,
                (Some(Some(wp)), Some(mp)) => wp == mp,
                _ => false,
            };
            if ok {
                found = Some(mb.var.clone());
                break;
            }
        }
        assignment.insert(b.var.clone(), found?);
    }
    Some(assignment)
}

/// Rewrites a target path expression through a mapping: `(q var, steps)` is
/// located among `m`'s exists select expressions, and the foreach expression
/// at the same position is substituted (with the mapping's variables
/// renamed by `prefix`).
fn rewrite_path(
    p: &PathExpr,
    assignment: &HashMap<String, String>,
    m: &Mapping,
    prefix: &str,
) -> Option<Expr> {
    let v = p.start_var()?;
    let mv = assignment.get(v)?;
    let wanted = PathExpr {
        start: PathStart::Var(mv.clone()),
        steps: p.steps.clone(),
    };
    // The wanted path may only occur in the exists *where* clause (e.g.
    // `e.contact` in the Figure 1 mappings, equated to the selected
    // `c.title`): chase the exists-side equalities to any selected alias.
    let mut class: Vec<PathExpr> = vec![wanted];
    let mut grew = true;
    while grew {
        grew = false;
        for c in &m.exists.conditions {
            let Condition::Cmp(cmp) = c else { continue };
            if cmp.op != dtr_query::ast::CmpOp::Eq {
                continue;
            }
            if let (Expr::Path(l), Expr::Path(r)) = (&cmp.left, &cmp.right) {
                if class.contains(l) && !class.contains(r) {
                    class.push(r.clone());
                    grew = true;
                }
                if class.contains(r) && !class.contains(l) {
                    class.push(l.clone());
                    grew = true;
                }
            }
        }
    }
    for member in &class {
        if let Some(pos) = m
            .exists
            .select
            .iter()
            .position(|e| matches!(e, Expr::Path(ep) if ep == member))
        {
            return Some(rename_expr(&m.foreach.select[pos], prefix));
        }
    }
    None
}

fn rename_path_vars(p: &PathExpr, prefix: &str) -> PathExpr {
    let start = match &p.start {
        PathStart::Var(v) => PathStart::Var(format!("{prefix}{v}")),
        r => r.clone(),
    };
    PathExpr {
        start,
        steps: p.steps.clone(),
    }
}

fn rename_expr(e: &Expr, prefix: &str) -> Expr {
    match e {
        Expr::Path(p) => Expr::Path(rename_path_vars(p, prefix)),
        Expr::ElemOf(p) => Expr::ElemOf(rename_path_vars(p, prefix)),
        Expr::MapOf(p) => Expr::MapOf(rename_path_vars(p, prefix)),
        Expr::Const(c) => Expr::Const(c.clone()),
        Expr::Call(n, args) => Expr::Call(
            n.clone(),
            args.iter().map(|a| rename_expr(a, prefix)).collect(),
        ),
    }
}

/// Rewrites an expression of the user query, each path through `path`;
/// a function call keeps its name and rewrites its arguments. `None` when
/// some path has no rewriting, and for the annotation functions: they read
/// the fact their argument names, which over the sources is a source fact,
/// not the target fact the query asks about.
fn rewrite_expr(e: &Expr, path: &dyn Fn(&PathExpr) -> Option<Expr>) -> Option<Expr> {
    match e {
        Expr::Const(_) => Some(e.clone()),
        Expr::Path(p) => path(p),
        Expr::Call(n, _) if n == "getElAnnot" || n == "getMapAnnot" => None,
        Expr::Call(n, args) => Some(Expr::Call(
            n.clone(),
            args.iter()
                .map(|a| rewrite_expr(a, path))
                .collect::<Option<_>>()?,
        )),
        Expr::ElemOf(_) | Expr::MapOf(_) => None,
    }
}

/// Rewrites a plain target query into a union of source queries
/// (one per combination of covering mappings).
pub fn virtualize(q: &Query, setting: &MappingSetting) -> Result<Vec<Query>, MxqlError> {
    if q.is_mxql() {
        return Err(MxqlError::Other(
            "virtual answering supports plain target queries (no MXQL constructs)".into(),
        ));
    }
    let groups = binding_groups(q)?;
    let q_elems = var_elements(q, setting)?;

    // Exists-side variable elements, per mapping.
    let mut m_elems: Vec<HashMap<String, ElementId>> = Vec::new();
    for m in setting.mappings() {
        m_elems.push(var_elements(&m.exists, setting)?);
    }

    // Candidate (mapping index, var assignment) per group.
    let mut candidates: Vec<Vec<(usize, HashMap<String, String>)>> = Vec::new();
    for g in &groups {
        let mut cs = Vec::new();
        for (mi, m) in setting.mappings().iter().enumerate() {
            if let Some(a) = cover_group(q, g, &q_elems, m, &m_elems[mi]) {
                cs.push((mi, a));
            }
        }
        candidates.push(cs);
    }

    // Cross product of group choices.
    let mut combos: Vec<Vec<(usize, &HashMap<String, String>)>> = vec![Vec::new()];
    for cs in &candidates {
        let mut next = Vec::new();
        for combo in &combos {
            for (mi, a) in cs {
                let mut c2 = combo.clone();
                c2.push((*mi, a));
                next.push(c2);
            }
        }
        combos = next;
    }

    let mut out = Vec::new();
    'combo: for combo in combos {
        let mut rewriting = Query::default();
        // Per group: splice in the (renamed) foreach query.
        let mut rewrite_ctx: Vec<(usize, &HashMap<String, String>, String)> = Vec::new();
        for (gi, (mi, assignment)) in combo.iter().enumerate() {
            let m = &setting.mappings()[*mi];
            let prefix = format!("_v{gi}_");
            for b in &m.foreach.from {
                rewriting.from.push(Binding {
                    var: format!("{prefix}{}", b.var),
                    source: rename_expr(&b.source, &prefix),
                });
            }
            for c in &m.foreach.conditions {
                if let Condition::Cmp(cmp) = c {
                    rewriting.conditions.push(Condition::Cmp(Comparison {
                        left: rename_expr(&cmp.left, &prefix),
                        op: cmp.op,
                        right: rename_expr(&cmp.right, &prefix),
                    }));
                }
            }
            rewrite_ctx.push((*mi, assignment, prefix));
        }
        // Rewrite an expression of the user query: find the group that owns
        // its variable.
        let owner = |e: &PathExpr| -> Option<usize> {
            let v = e.start_var()?;
            groups
                .iter()
                .position(|g| g.members.iter().any(|&i| q.from[i].var == v))
        };
        let path = |p: &PathExpr| -> Option<Expr> {
            let gi = owner(p)?;
            let (mi, assignment, prefix) = &rewrite_ctx[gi];
            rewrite_path(p, assignment, &setting.mappings()[*mi], prefix)
        };
        let rewrite = |e: &Expr| rewrite_expr(e, &path);
        for e in &q.select {
            match rewrite(e) {
                Some(r) => rewriting.select.push(r),
                None => continue 'combo, // this combo cannot produce e
            }
        }
        for c in &q.conditions {
            let Condition::Cmp(cmp) = c else {
                continue 'combo;
            };
            match (rewrite(&cmp.left), rewrite(&cmp.right)) {
                (Some(l), Some(r)) => rewriting.conditions.push(Condition::Cmp(Comparison {
                    left: l,
                    op: cmp.op,
                    right: r,
                })),
                _ => continue 'combo,
            }
        }
        out.push(rewriting);
    }
    Ok(out)
}

/// Answers a plain target query *virtually*: rewrites it over the sources
/// and evaluates the union there, never touching a materialized target.
/// The query's `order by` and `limit` apply to the de-duplicated union, so
/// each order key must be one of its select expressions. Every row of the
/// unlimited answer is a materialized answer; with a `limit`, a row that
/// only a cross-mapping merge produces is missing from the union, so the
/// rows kept may differ from the materialized answer's first rows. A call
/// of `getElAnnot` or `getMapAnnot` yields no answers: over the sources it
/// would read source facts' annotations, not the target's.
///
/// Under a `budget`, every rewriting's evaluation and the union loop observe
/// it, as on the translated path ([`crate::runner::MetaRunner::run`]): the
/// union charges each row it keeps against `max_rows`, and a deadline or
/// cancellation aborts with a structured guard error. Each call records one
/// `virtual` audit entry.
///
/// ```
/// use dtr_core::testkit;
/// use dtr_core::virtualize::answer_virtually;
/// use dtr_query::functions::FunctionRegistry;
/// use dtr_query::parser::parse_query;
///
/// let setting = testkit::figure1_setting();
/// let mut sources = testkit::figure1_sources();
/// for (inst, schema) in sources.iter_mut().zip(setting.source_schemas()) {
///     inst.annotate_elements(schema).unwrap();
/// }
/// let q = parse_query("select e.hid from Portal.estates e").unwrap();
/// let funcs = FunctionRegistry::with_builtins();
/// let answers = answer_virtually(&setting, &sources, &q, &funcs, None).unwrap();
/// assert_eq!(answers.len(), 3); // H522, H7, H2525 — no target materialized
/// ```
pub fn answer_virtually(
    setting: &MappingSetting,
    source_instances: &[Instance],
    q: &Query,
    functions: &FunctionRegistry,
    budget: Option<&Budget>,
) -> Result<QueryResult, MxqlError> {
    let started = dtr_obs::audit::enabled().then(std::time::Instant::now);
    let unlimited = Budget::unlimited();
    let result = run_virtual(
        setting,
        source_instances,
        q,
        functions,
        budget.unwrap_or(&unlimited),
    );
    if let Some(started) = started {
        crate::tagged::audit_query("virtual", q.to_string(), started, result.as_ref());
    }
    result
}

fn run_virtual(
    setting: &MappingSetting,
    source_instances: &[Instance],
    q: &Query,
    functions: &FunctionRegistry,
    budget: &Budget,
) -> Result<QueryResult, MxqlError> {
    let rewritings = virtualize(q, setting)?;
    let catalog = Catalog::new(
        setting
            .source_schemas()
            .iter()
            .zip(source_instances)
            .map(|(schema, instance)| Source { schema, instance })
            .collect(),
    );
    let mut union = DistinctUnion::new(q, "virtual answering")?;
    union.out.columns = q.select.iter().map(|e| e.to_string()).collect();
    let mut meter = budget.meter("mxql.answer_virtually");
    for r in &rewritings {
        meter.poll()?;
        let branch = Evaluator::new(&catalog, functions)
            .with_options(EvalOptions {
                budget: budget.clone(),
                ..Default::default()
            })
            .run(r)?;
        // As on the translated path, `max_rows` bounds the union's rows.
        union.add(branch, Some(&mut meter))?;
    }
    Ok(union.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::canonical_rows;
    use crate::testkit;
    use dtr_query::eval::EvalStats;
    use dtr_query::parser::parse_query;

    /// The Figure 1 setting and its element-annotated sources.
    fn figure1_annotated() -> (MappingSetting, Vec<Instance>) {
        let setting = testkit::figure1_setting();
        let mut sources = testkit::figure1_sources();
        for (inst, schema) in sources.iter_mut().zip(setting.source_schemas()) {
            inst.annotate_elements(schema).unwrap();
        }
        (setting, sources)
    }

    fn virtual_rows(text: &str) -> Vec<String> {
        let (setting, sources) = figure1_annotated();
        let q = parse_query(text).unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let r = answer_virtually(&setting, &sources, &q, &funcs, None).unwrap();
        canonical_rows(&r)
    }

    fn materialized_rows(text: &str) -> Vec<String> {
        let tagged = testkit::figure1();
        canonical_rows(&tagged.query(text).unwrap())
    }

    #[test]
    fn row_budget_bounds_the_union() {
        let (setting, sources) = figure1_annotated();
        let text = "select e.hid from Portal.estates e";
        let q = parse_query(text).unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let budget = |rows| Budget {
            max_rows: Some(rows),
            ..Budget::default()
        };
        let err = answer_virtually(&setting, &sources, &q, &funcs, Some(&budget(1))).unwrap_err();
        assert!(err.guard().is_some(), "{err}");
        // A budget the three answers fit in changes nothing.
        let r = answer_virtually(&setting, &sources, &q, &funcs, Some(&budget(3))).unwrap();
        assert_eq!(canonical_rows(&r), virtual_rows(text));
    }

    #[test]
    fn single_relation_query_matches_materialized() {
        let q = "select e.hid, e.value from Portal.estates e";
        assert_eq!(virtual_rows(q), materialized_rows(q));
    }

    #[test]
    fn selection_pushes_through() {
        let q = "select e.hid from Portal.estates e where e.value = '500K'";
        assert_eq!(virtual_rows(q), materialized_rows(q));
        assert_eq!(virtual_rows(q), vec!["H522".to_string()]);
    }

    #[test]
    fn contacts_query_matches() {
        let q = "select c.title, c.phone from Portal.contacts c";
        assert_eq!(virtual_rows(q), materialized_rows(q));
    }

    #[test]
    fn join_within_one_mapping_is_sound_and_covers_per_mapping_joins() {
        // estates x contacts joined on contact=title: every virtual answer
        // must be a materialized answer (soundness)...
        let q = "select e.hid, c.phone
                 from Portal.estates e, Portal.contacts c
                 where e.contact = c.title";
        let v = virtual_rows(q);
        let m = materialized_rows(q);
        for row in &v {
            assert!(m.contains(row), "unsound virtual answer {row}");
        }
        // ...and the within-mapping pairs are all present.
        assert!(v.contains(&"H522 | 18009468501".to_string()));
        assert!(v.contains(&"H2525 | 18009468501".to_string()));
        assert!(v.contains(&"H7 | 555-1111".to_string()));
        // The union reports the sum of its rewritings' work, hash probes
        // included.
        let (setting, sources) = figure1_annotated();
        let q = parse_query(q).unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let catalog = Catalog::new(
            setting
                .source_schemas()
                .iter()
                .zip(&sources)
                .map(|(schema, instance)| Source { schema, instance })
                .collect(),
        );
        let mut sum = EvalStats::default();
        for r in virtualize(&q, &setting).unwrap() {
            sum += Evaluator::new(&catalog, &funcs).run(&r).unwrap().stats;
        }
        let got = answer_virtually(&setting, &sources, &q, &funcs, None).unwrap();
        assert!(sum.hash_probes > 0);
        assert_eq!(
            EvalStats {
                eval_ns: 0,
                ..got.stats
            },
            EvalStats { eval_ns: 0, ..sum }
        );
    }

    #[test]
    fn unpopulated_elements_yield_empty() {
        // No mapping populates a `pool` element in the portal (it does not
        // even exist); a query over populated relations with an
        // unsatisfiable constant still works and returns nothing.
        let q = "select e.hid from Portal.estates e where e.value = 'nope'";
        assert!(virtual_rows(q).is_empty());
    }

    #[test]
    fn rewriting_count_is_union_over_mappings() {
        let setting = testkit::figure1_setting();
        let q = parse_query("select e.hid from Portal.estates e").unwrap();
        let rw = virtualize(&q, &setting).unwrap();
        // All three mappings populate estates.
        assert_eq!(rw.len(), 3);
        // Each rewriting queries a source schema root.
        for r in &rw {
            let text = r.to_string();
            assert!(
                text.contains("US.houses") || text.contains("EU.postings"),
                "{text}"
            );
        }
    }

    #[test]
    fn mxql_constructs_rejected() {
        let setting = testkit::figure1_setting();
        let q = parse_query("select e.hid, m from Portal.estates e, e.value@map m").unwrap();
        assert!(virtualize(&q, &setting).is_err());
    }

    #[test]
    fn nested_group_coverage() {
        // A query with a nested binding matches mappings whose exists side
        // has the same nesting (none in figure 1, so coverage is empty and
        // the answer set too — but the machinery must not error).
        let setting = testkit::figure1_setting();
        let q = parse_query("select e.hid from Portal.estates e, Portal.contacts c").unwrap();
        let rw = virtualize(&q, &setting).unwrap();
        // 3 mappings cover each of the two groups: 9 combinations.
        assert_eq!(rw.len(), 9);
    }
}
