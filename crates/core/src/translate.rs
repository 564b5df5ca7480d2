//! Translating MXQL queries to plain queries over the meta-data storage
//! schema (Section 7.3, Examples 7.3–7.5).
//!
//! The translation steps follow the paper:
//!
//! 1. every `e@map` / `e@elem` becomes a `getMapAnnot(e)` / `getElAnnot(e)`
//!    function call;
//! 2. constants inside mapping predicates are replaced by fresh variables
//!    constrained by equality conditions;
//! 3. predicate variables are bound to the `Element` and `Mapping` storage
//!    relations, and references to them are replaced by references to the
//!    identifier attributes (`m` → `m.mid`, `db` → `e.db`, ...);
//! 4. the predicate itself becomes joins against `Correspondence` (single
//!    arrow) or `Correspondence`/`Condition` (double arrow), and is removed.
//!
//! Two engineering deviations from the paper's informal examples, both
//! documented in DESIGN.md:
//!
//! * Example 7.4 compares `e.eid` against the *path* constant
//!   `'US/agents/title/firm'`, silently treating paths as ids. We compare
//!   against the metastore's explicit `path` column instead, which is
//!   well-typed.
//! * The double-arrow predicate requires a *disjunction* (the source
//!   element occurs in the foreach select **or** where clause), which the
//!   conjunctive query language cannot express in one query; the translator
//!   therefore returns a small **union** of conjunctive queries whose
//!   results are concatenated and de-duplicated.

use dtr_model::value::{canonical_path, AtomicValue};
use dtr_obs::guard::{Budget, GuardError};
use dtr_obs::ExplainTrace;
use dtr_query::ast::{
    Binding, CmpOp, Comparison, Condition, Expr, MappingPred, PathExpr, Query, Term,
};
use std::collections::HashMap;
use std::fmt;

/// Errors raised during translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// A construct the translator does not support.
    Unsupported(String),
    /// The translation exceeded its resource budget (branch explosion,
    /// deadline, or cancellation).
    Guard(GuardError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unsupported(m) => write!(f, "untranslatable construct: {m}"),
            TranslateError::Guard(g) => write!(f, "{g}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<GuardError> for TranslateError {
    fn from(g: GuardError) -> Self {
        TranslateError::Guard(g)
    }
}

/// How a variable is handled during rewriting.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Role {
    /// Bound to the `Element` relation.
    Elem,
    /// Bound to the `Mapping` relation.
    Mapping,
    /// A database variable, aliased to `<elem var>.db`.
    DbAlias(String),
}

struct Ctx {
    roles: HashMap<String, Role>,
    target_db: String,
    fresh: usize,
}

impl Ctx {
    fn fresh(&mut self, prefix: &str) -> String {
        let v = format!("_{prefix}{}", self.fresh);
        self.fresh += 1;
        v
    }
}

fn col(var: &str, column: &str) -> Expr {
    Expr::Path(PathExpr::var(var).project(column))
}

fn eq(left: Expr, right: Expr) -> Condition {
    Condition::Cmp(Comparison {
        left,
        op: CmpOp::Eq,
        right,
    })
}

/// One mapping predicate, planned: the variables it binds plus the
/// conditions shared by all branches.
struct PredPlan {
    src_elem: String,
    tgt_elem: String,
    map_var: String,
    shared_conds: Vec<Condition>,
    double: bool,
}

/// Appends one rewrite step to the EXPLAIN trace and mirrors it into the
/// event journal (stage `mxql.translate`).
fn explain_step(trace: &mut ExplainTrace, rule: &'static str, input: String, output: String) {
    if dtr_obs::journal::enabled() {
        dtr_obs::journal::record(
            dtr_obs::journal::event(
                "mxql.translate",
                dtr_obs::journal::Outcome::TranslateStep { rule },
            )
            .detail(format!("{input} => {output}")),
        );
    }
    trace.step(rule, input, output);
}

/// Translates an MXQL query into a union of plain queries over the data
/// instance plus the metastore view (`Element`, `Mapping`,
/// `Correspondence`, `Condition` roots). `target_db` is the database name
/// of the tagged (annotated) instance — needed to constrain `@elem`
/// comparisons.
pub fn translate(q: &Query, target_db: &str) -> Result<Vec<Query>, TranslateError> {
    translate_explained(q, target_db).map(|(queries, _)| queries)
}

/// [`translate`] under a resource [`Budget`]: the rewrite loop polls the
/// budget's deadline/cancellation and trips `max_bindings` on the number of
/// union branches produced, so a pathological double-arrow predicate stack
/// cannot explode unbounded.
pub fn translate_budgeted(
    q: &Query,
    target_db: &str,
    budget: &Budget,
) -> Result<Vec<Query>, TranslateError> {
    translate_explained_budgeted(q, target_db, budget).map(|(queries, _)| queries)
}

/// [`translate`], additionally returning the EXPLAIN trace of every rewrite
/// step (Section 7.3's four steps, one [`dtr_obs::ExplainStep`] per fired
/// rule). The `.explain` REPL meta-command renders this trace.
pub fn translate_explained(
    q: &Query,
    target_db: &str,
) -> Result<(Vec<Query>, ExplainTrace), TranslateError> {
    translate_explained_budgeted(q, target_db, &Budget::unlimited())
}

/// [`translate_explained`] under a resource [`Budget`].
pub fn translate_explained_budgeted(
    q: &Query,
    target_db: &str,
    budget: &Budget,
) -> Result<(Vec<Query>, ExplainTrace), TranslateError> {
    let mut meter = budget.meter("mxql.translate");
    meter.poll()?;
    let span = dtr_obs::span("mxql.translate").field("conditions", q.conditions.len());
    let mut trace = ExplainTrace::default();
    let mut ctx = Ctx {
        roles: HashMap::new(),
        target_db: target_db.to_owned(),
        fresh: 0,
    };

    // ---- Plan the mapping predicates (steps 2 + 3). ----
    let mut preds: Vec<&MappingPred> = Vec::new();
    let mut plans: Vec<PredPlan> = Vec::new();
    for c in &q.conditions {
        let Condition::MapPred(p) = c else { continue };
        meter.poll()?;
        let plan = plan_pred(p, &mut ctx)?;
        let shared = if plan.shared_conds.is_empty() {
            "no constant constraints".to_string()
        } else {
            plan.shared_conds
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" and ")
        };
        explain_step(
            &mut trace,
            "plan-predicate",
            p.to_string(),
            format!(
                "Element vars `{}`/`{}`, Mapping var `{}`; {shared}",
                plan.src_elem, plan.tgt_elem, plan.map_var
            ),
        );
        preds.push(p);
        plans.push(plan);
    }

    // ---- Rewrite the from clause (step 1). ----
    // A from-binding over `@map` whose variable is also a predicate mapping
    // variable is renamed (Example 7.3 renames `m` to `mv` and joins
    // `mv = m.mid`).
    let mut data_from: Vec<Binding> = Vec::new();
    let mut renames: HashMap<String, String> = HashMap::new();
    let mut rename_conds: Vec<Condition> = Vec::new();
    for b in &q.from {
        let source = match &b.source {
            Expr::MapOf(p) => Expr::Call("getMapAnnot".into(), vec![Expr::Path(p.clone())]),
            other => other.clone(),
        };
        let var = if ctx.roles.get(b.var.as_str()) == Some(&Role::Mapping) {
            let mv = ctx.fresh("mv");
            renames.insert(b.var.clone(), mv.clone());
            rename_conds.push(eq(Expr::Path(PathExpr::var(&mv)), col(&b.var, "mid")));
            mv
        } else {
            b.var.clone()
        };
        if matches!(&b.source, Expr::MapOf(_)) {
            explain_step(
                &mut trace,
                "annotation-accessor",
                b.to_string(),
                format!("{source} {var}"),
            );
        }
        data_from.push(Binding { var, source });
    }
    // Bind predicate variables to the storage relations. These (small)
    // bindings are emitted BEFORE the data bindings: the metastore joins
    // are highly selective, and putting them first lets the evaluator
    // resolve the meta side once instead of per data row. Mapping bindings
    // come before the per-branch Correspondence/Condition joins, which in
    // turn come before the Element bindings, so that every join is
    // constrained the moment its binding appears.
    let mut mapping_from: Vec<Binding> = Vec::new();
    let mut elem_from: Vec<Binding> = Vec::new();
    for (var, role) in sorted_roles(&ctx.roles) {
        match role {
            Role::Elem => elem_from.push(Binding {
                var: var.clone(),
                source: Expr::Path(PathExpr::root("Element")),
            }),
            Role::Mapping => mapping_from.push(Binding {
                var: var.clone(),
                source: Expr::Path(PathExpr::root("Mapping")),
            }),
            Role::DbAlias(_) => {}
        }
    }

    // ---- Rewrite select items and plain conditions. ----
    let select: Vec<Expr> = q
        .select
        .iter()
        .map(|e| rewrite_expr(e, &ctx, &renames, true))
        .collect::<Result<_, _>>()?;
    let mut conditions: Vec<Condition> = rename_conds;
    for c in &q.conditions {
        match c {
            Condition::MapPred(_) => {}
            Condition::Cmp(cmp) => {
                let rewritten = rewrite_cmp(cmp, &ctx, &renames)?;
                let out_text = rewritten
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" and ");
                if out_text != cmp.to_string() {
                    explain_step(&mut trace, "rewrite-comparison", cmp.to_string(), out_text);
                }
                conditions.extend(rewritten);
            }
        }
    }

    // ---- Expand predicates into joins (step 4), branching on the
    // double-arrow disjunction. ----
    let mut branches: Vec<(Vec<Binding>, Vec<Condition>)> = vec![(Vec::new(), Vec::new())];
    for (i, plan) in plans.iter().enumerate() {
        let variants = pred_variants(plan, i, &mut ctx);
        let variant_text = variants
            .iter()
            .map(|(bs, cs)| {
                format!(
                    "[from {} where {}]",
                    bs.iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    cs.iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(" and "),
                )
            })
            .collect::<Vec<_>>()
            .join(" or ");
        explain_step(
            &mut trace,
            "expand-predicate",
            preds[i].to_string(),
            format!(
                "{} {} join variant{}: {variant_text}",
                variants.len(),
                if plan.double {
                    "double-arrow"
                } else {
                    "single-arrow"
                },
                if variants.len() == 1 { "" } else { "s" },
            ),
        );
        let mut next = Vec::new();
        for (bs, cs) in &branches {
            for variant in &variants {
                meter.poll()?;
                let mut bs2 = bs.clone();
                let mut cs2 = cs.clone();
                bs2.extend(variant.0.iter().cloned());
                cs2.extend(plan.shared_conds.iter().cloned());
                cs2.extend(variant.1.iter().cloned());
                next.push((bs2, cs2));
            }
        }
        // The union size doubles per double-arrow predicate; count the
        // branches against `max_bindings` so the explosion is bounded.
        meter.check_bindings(next.len() as u64)?;
        branches = next;
    }

    dtr_obs::counters()
        .translate_branches
        .add(branches.len() as u64);
    span.record("branches", branches.len());
    if !plans.is_empty() {
        explain_step(
            &mut trace,
            "union",
            format!("{} mapping predicate(s)", plans.len()),
            format!(
                "{} plain conjunctive quer{} over the metastore relations",
                branches.len(),
                if branches.len() == 1 { "y" } else { "ies" },
            ),
        );
    }
    let queries: Vec<Query> = branches
        .into_iter()
        .map(|(bs, cs)| {
            let mut out = Query {
                select: select.clone(),
                from: mapping_from.clone(),
                conditions: conditions.clone(),
                // The order/limit tail is applied by the runner after the
                // branch union, not per branch.
                ..Default::default()
            };
            out.from.extend(bs);
            out.from.extend(elem_from.clone());
            out.from.extend(data_from.clone());
            out.conditions.extend(cs);
            out
        })
        .collect();
    Ok((queries, trace))
}

fn sorted_roles(roles: &HashMap<String, Role>) -> Vec<(String, Role)> {
    let mut v: Vec<(String, Role)> = roles.iter().map(|(k, r)| (k.clone(), r.clone())).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn plan_pred(p: &MappingPred, ctx: &mut Ctx) -> Result<PredPlan, TranslateError> {
    let mut shared: Vec<Condition> = Vec::new();

    let elem_slot = |term: &Term,
                     ctx: &mut Ctx,
                     shared: &mut Vec<Condition>|
     -> Result<String, TranslateError> {
        match term {
            Term::Var(v) => {
                if let Some(prev) = ctx.roles.get(v.as_str()) {
                    if *prev != Role::Elem {
                        return Err(TranslateError::Unsupported(format!(
                            "variable `{v}` used both as {prev:?} and as an element"
                        )));
                    }
                }
                ctx.roles.insert(v.clone(), Role::Elem);
                Ok(v.clone())
            }
            Term::Const(c) => {
                let v = ctx.fresh("e");
                ctx.roles.insert(v.clone(), Role::Elem);
                shared.push(eq(
                    col(&v, "path"),
                    Expr::Const(AtomicValue::str(canonical_path(&c.to_string()))),
                ));
                Ok(v)
            }
        }
    };
    let src_elem = elem_slot(&p.src_elem, ctx, &mut shared)?;
    let tgt_elem = elem_slot(&p.tgt_elem, ctx, &mut shared)?;

    let db_slot =
        |term: &Term, elem_var: &str, ctx: &mut Ctx, shared: &mut Vec<Condition>| match term {
            Term::Var(v) => {
                ctx.roles
                    .insert(v.clone(), Role::DbAlias(elem_var.to_owned()));
            }
            Term::Const(c) => {
                shared.push(eq(
                    col(elem_var, "db"),
                    Expr::Const(AtomicValue::str(c.to_string())),
                ));
            }
        };
    db_slot(&p.src_db, &src_elem, ctx, &mut shared);
    db_slot(&p.tgt_db, &tgt_elem, ctx, &mut shared);

    let map_var = match &p.mapping {
        Term::Var(v) => {
            ctx.roles.insert(v.clone(), Role::Mapping);
            v.clone()
        }
        Term::Const(c) => {
            let v = ctx.fresh("m");
            ctx.roles.insert(v.clone(), Role::Mapping);
            shared.push(eq(
                col(&v, "mid"),
                Expr::Const(AtomicValue::str(c.to_string())),
            ));
            v
        }
    };

    Ok(PredPlan {
        src_elem,
        tgt_elem,
        map_var,
        shared_conds: shared,
        double: p.double,
    })
}

/// The join variants of one predicate: a single-arrow predicate has one,
/// a double-arrow predicate has three (foreach-select, Condition.eid,
/// Condition.eid2).
fn pred_variants(
    plan: &PredPlan,
    idx: usize,
    ctx: &mut Ctx,
) -> Vec<(Vec<Binding>, Vec<Condition>)> {
    let corr = |var: &str| Binding {
        var: var.to_owned(),
        source: Expr::Path(PathExpr::root("Correspondence")),
    };
    let cond_rel = |var: &str| Binding {
        var: var.to_owned(),
        source: Expr::Path(PathExpr::root("Condition")),
    };
    if !plan.double {
        // One correspondence row carries both sides: same select position.
        let o = format!("_o{idx}");
        return vec![(
            vec![corr(&o)],
            vec![
                eq(col(&o, "mid"), col(&plan.map_var, "mid")),
                eq(col(&o, "forEid"), col(&plan.src_elem, "eid")),
                eq(col(&o, "conEid"), col(&plan.tgt_elem, "eid")),
            ],
        )];
    }
    let _ = ctx;
    // Double arrow: the target must be populated by the mapping (one
    // correspondence row), and the source element must occur in the foreach
    // select (another correspondence row) or in the foreach where clause
    // (a Condition row on either side of the operator).
    let p = format!("_p{idx}");
    let pop_binding = corr(&p);
    let pop_conds = vec![
        eq(col(&p, "mid"), col(&plan.map_var, "mid")),
        eq(col(&p, "conEid"), col(&plan.tgt_elem, "eid")),
    ];
    let mut variants = Vec::with_capacity(3);
    // (a) source element in the foreach select clause.
    let o = format!("_o{idx}");
    variants.push((
        vec![pop_binding.clone(), corr(&o)],
        [
            pop_conds.clone(),
            vec![
                eq(col(&o, "mid"), col(&plan.map_var, "mid")),
                eq(col(&o, "forEid"), col(&plan.src_elem, "eid")),
            ],
        ]
        .concat(),
    ));
    // (b)/(c) source element in the foreach where clause.
    for side in ["eid", "eid2"] {
        let c = format!("_c{idx}{side}");
        variants.push((
            vec![pop_binding.clone(), cond_rel(&c)],
            [
                pop_conds.clone(),
                vec![
                    eq(col(&c, "qid"), col(&plan.map_var, "forQ")),
                    eq(col(&c, side), col(&plan.src_elem, "eid")),
                ],
            ]
            .concat(),
        ));
    }
    variants
}

/// Classification of a rewritten comparison operand.
enum Side {
    ElemVar(String),
    ElemOfCall(Expr),
    Plain(Expr),
}

fn classify(
    e: &Expr,
    ctx: &Ctx,
    renames: &HashMap<String, String>,
) -> Result<Side, TranslateError> {
    match e {
        Expr::Path(p) if p.steps.is_empty() => {
            if let Some(v) = p.start_var() {
                match ctx.roles.get(v) {
                    Some(Role::Elem) => return Ok(Side::ElemVar(v.to_owned())),
                    Some(Role::Mapping) => return Ok(Side::Plain(col(v, "mid"))),
                    Some(Role::DbAlias(ev)) => return Ok(Side::Plain(col(ev, "db"))),
                    None => {}
                }
            }
            Ok(Side::Plain(rewrite_expr(e, ctx, renames, false)?))
        }
        Expr::ElemOf(p) => Ok(Side::ElemOfCall(Expr::Call(
            "getElAnnot".into(),
            vec![Expr::Path(p.clone())],
        ))),
        other => Ok(Side::Plain(rewrite_expr(other, ctx, renames, false)?)),
    }
}

fn rewrite_cmp(
    cmp: &Comparison,
    ctx: &Ctx,
    renames: &HashMap<String, String>,
) -> Result<Vec<Condition>, TranslateError> {
    let l = classify(&cmp.left, ctx, renames)?;
    let r = classify(&cmp.right, ctx, renames)?;
    if cmp.op != CmpOp::Eq {
        let to_expr = |s: Side| match s {
            Side::ElemVar(v) => col(&v, "path"),
            Side::ElemOfCall(e) | Side::Plain(e) => e,
        };
        return Ok(vec![Condition::Cmp(Comparison {
            left: to_expr(l),
            op: cmp.op,
            right: to_expr(r),
        })]);
    }
    Ok(match (l, r) {
        // e = c.title@elem  =>  getElAnnot(c.title) = e.path AND e.db = target
        (Side::ElemVar(v), Side::ElemOfCall(call)) | (Side::ElemOfCall(call), Side::ElemVar(v)) => {
            vec![
                eq(call, col(&v, "path")),
                eq(col(&v, "db"), Expr::Const(AtomicValue::str(&ctx.target_db))),
            ]
        }
        // e = '<path>'  =>  e.path = canonical(path)
        (Side::ElemVar(v), Side::Plain(Expr::Const(AtomicValue::Str(s))))
        | (Side::Plain(Expr::Const(AtomicValue::Str(s))), Side::ElemVar(v)) => vec![eq(
            col(&v, "path"),
            Expr::Const(AtomicValue::str(canonical_path(&s))),
        )],
        // e = e2  =>  same element row content
        (Side::ElemVar(v), Side::ElemVar(w)) => vec![eq(col(&v, "eid"), col(&w, "eid"))],
        (Side::ElemVar(v), Side::Plain(p)) | (Side::Plain(p), Side::ElemVar(v)) => {
            vec![eq(col(&v, "path"), p)]
        }
        (Side::ElemOfCall(c), other) | (other, Side::ElemOfCall(c)) => {
            let rhs = match other {
                Side::Plain(p) => p,
                Side::ElemOfCall(c2) => c2,
                Side::ElemVar(_) => unreachable!("handled above"),
            };
            vec![eq(c, rhs)]
        }
        (Side::Plain(a), Side::Plain(b)) => vec![eq(a, b)],
    })
}

fn rewrite_expr(
    e: &Expr,
    ctx: &Ctx,
    renames: &HashMap<String, String>,
    in_select: bool,
) -> Result<Expr, TranslateError> {
    Ok(match e {
        Expr::Const(_) => e.clone(),
        Expr::ElemOf(p) => Expr::Call("getElAnnot".into(), vec![Expr::Path(p.clone())]),
        Expr::MapOf(_) => {
            return Err(TranslateError::Unsupported(
                "`@map` outside the from clause".into(),
            ))
        }
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter()
                .map(|a| rewrite_expr(a, ctx, renames, in_select))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Path(p) => {
            if let Some(v) = p.start_var() {
                if p.steps.is_empty() {
                    match ctx.roles.get(v) {
                        Some(Role::Elem) => {
                            return Ok(if in_select {
                                // `db:path`, matching how a direct MXQL
                                // evaluation prints an Element value.
                                Expr::Call(
                                    "concat".into(),
                                    vec![
                                        col(v, "db"),
                                        Expr::Const(AtomicValue::Str(":".into())),
                                        col(v, "path"),
                                    ],
                                )
                            } else {
                                col(v, "path")
                            });
                        }
                        Some(Role::Mapping) => return Ok(col(v, "mid")),
                        Some(Role::DbAlias(ev)) => return Ok(col(ev, "db")),
                        None => {}
                    }
                    if let Some(new) = renames.get(v) {
                        return Ok(Expr::Path(PathExpr::var(new)));
                    }
                }
            }
            e.clone()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_query::parser::parse_query;

    #[test]
    fn example_7_3_to_7_5_shape() {
        // Example 5.5's query, through the translation chain.
        let q = parse_query(
            "select s.hid, m
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>",
        )
        .unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        assert_eq!(branches.len(), 1);
        let t = &branches[0];
        let text = t.to_string();
        // Step 1: @map became getMapAnnot, @elem became getElAnnot.
        assert!(text.contains("getMapAnnot(c.title)"));
        assert!(text.contains("getElAnnot(c.title)"));
        // Step 3: m bound to Mapping, e (and the constant's fresh variable)
        // to Element; select projects m.mid.
        assert!(text.contains("Mapping m"));
        assert!(text.contains("Element e"));
        assert!(text.contains("m.mid"));
        // Step 4: a Correspondence join replaced the predicate.
        assert!(text.contains("Correspondence _o0"));
        assert!(text.contains("_o0.forEid"));
        assert!(text.contains("_o0.conEid = e.eid"));
        // Constants: the element path and the dbs.
        assert!(text.contains("'/US/agents/title/firm'"));
        assert!(text.contains("'USdb'"));
        assert!(text.contains("'Pdb'"));
        // The renamed @map binding joins against m.mid (Example 7.3's
        // `m = mv`).
        assert!(text.contains("getMapAnnot(c.title) _mv"));
        assert!(text.contains(" = m.mid"));
        // No mapping predicate remains.
        assert!(!t
            .conditions
            .iter()
            .any(|c| matches!(c, Condition::MapPred(_))));
    }

    #[test]
    fn double_arrow_produces_three_branches() {
        let q =
            parse_query("select es from where <'USdb':es => m => 'Pdb':'/Portal/estates/value'>")
                .unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        assert_eq!(branches.len(), 3);
        let texts: Vec<String> = branches.iter().map(|b| b.to_string()).collect();
        assert!(texts[0].contains("_o0.forEid"));
        assert!(texts[1].contains("_c0eid.eid = es.eid"));
        assert!(texts[2].contains("_c0eid2.eid2 = es.eid"));
        // Every branch constrains the populated target.
        for t in &texts {
            assert!(t.contains("_p0.conEid"));
        }
    }

    #[test]
    fn elem_var_in_select_becomes_concat() {
        let q = parse_query("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>")
            .unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        let text = branches[0].to_string();
        assert!(text.contains("concat(e.db, ':', e.path)"));
    }

    #[test]
    fn db_variables_alias_element_columns() {
        let q = parse_query("select db from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>")
            .unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        let text = branches[0].to_string();
        // `db` in the select clause became `e.db` (paper: "Variables db and
        // db2 are finally replaced by expression e.db and e2.db").
        assert!(text.contains("select e.db"));
    }

    #[test]
    fn two_predicates_multiply_branches() {
        let q = parse_query(
            "select e from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>
               and <db2:e2 => m2 => 'Pdb':'/Portal/estates/value'>",
        )
        .unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        assert_eq!(branches.len(), 3); // 1 (single) x 3 (double)
    }

    #[test]
    fn queries_without_meta_pass_through() {
        let q = parse_query("select e.hid from Portal.estates e where e.value > 100").unwrap();
        let branches = translate(&q, "Pdb").unwrap();
        assert_eq!(branches.len(), 1);
        assert_eq!(&branches[0], &q);
    }
}
