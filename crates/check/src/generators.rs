//! Random generators for nested schemas, conforming instances, well-formed
//! queries and GLAV mappings.
//!
//! Everything is driven by the deterministic [`TestRng`], so a single `u64`
//! seed reproduces a whole scenario. The generators are *constructive*: they
//! build values by walking the schema, so every artifact is valid by
//! construction — and the conformance suite asserts exactly that (generated
//! queries pass `dtr_query::check`, generated mappings validate, generated
//! instances conform).
//!
//! The shapes deliberately cover the full Definition 4.1 grammar: records
//! nested in records, sets nested below set members, and choice types both
//! mid-path (filtering projections) and as binding sources (the `→`
//! selection of Section 4.2).

use dtr_core::tagged::{MappingSetting, MxqlError, TaggedInstance};
use dtr_mapping::glav::Mapping;
use dtr_model::instance::{Instance, Value};
use dtr_model::label::Label;
use dtr_model::schema::{ElementId, ElementKind, Schema};
use dtr_model::types::{AtomicType, Type};
use dtr_model::value::{AtomicValue, MappingName};
use dtr_query::ast::{
    Binding, CmpOp, Comparison, Condition, Expr, MappingPred, PathExpr, PathStart, Query, Step,
    Term,
};
use proptest::test_runner::TestRng;
use std::collections::HashMap;

/// Size knobs for the generators. The defaults keep a single scenario small
/// enough that the naive oracle stays fast while still drawing nesting,
/// choices and PNF-mergeable duplicates with high probability.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum structural depth below a relation's member record.
    pub depth: usize,
    /// Maximum top-level relations per schema.
    pub max_relations: usize,
    /// Maximum extra fields per generated record.
    pub max_fields: usize,
    /// Maximum members per set in generated instances.
    pub max_members: usize,
    /// Atomic values are drawn from a pool of this size (small pools create
    /// joins and PNF merges).
    pub value_pool: u64,
    /// Number of source schemas in a scenario.
    pub max_sources: usize,
    /// Number of mappings in a scenario.
    pub max_mappings: usize,
    /// Queries generated per differential round.
    pub queries_per_case: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            depth: 2,
            max_relations: 2,
            max_fields: 2,
            max_members: 3,
            value_pool: 3,
            max_sources: 2,
            max_mappings: 3,
            queries_per_case: 4,
        }
    }
}

/// `true` with probability `num`/`den`.
fn chance(rng: &mut TestRng, num: u64, den: u64) -> bool {
    rng.below(den) < num
}

/// Uniform pick from a non-empty slice.
fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

/// Per-schema unique label supply (`f0`, `f1`, ... with a stem).
struct Labels {
    next: usize,
}

impl Labels {
    fn fresh(&mut self, stem: &str) -> String {
        let n = self.next;
        self.next += 1;
        format!("{stem}{n}")
    }
}

// ---------------------------------------------------------------------------
// Schemas (Definition 4.1)
// ---------------------------------------------------------------------------

fn gen_atomic(rng: &mut TestRng) -> AtomicType {
    if chance(rng, 3, 4) {
        AtomicType::String
    } else {
        AtomicType::Integer
    }
}

/// A nested type of bounded depth. `inside_choice` forbids sets (a set below
/// a choice alternative cannot be populated by the exchange engine, whose
/// exists-side bindings must be choice-free paths).
fn gen_type(rng: &mut TestRng, lg: &mut Labels, depth: usize, inside_choice: bool) -> Type {
    if depth == 0 {
        return Type::Atomic(gen_atomic(rng));
    }
    match rng.below(10) {
        0..=4 => Type::Atomic(gen_atomic(rng)),
        5 | 6 => {
            let n = 1 + rng.below(2) as usize;
            let fields = (0..n)
                .map(|_| (lg.fresh("f"), gen_type(rng, lg, depth - 1, inside_choice)))
                .collect();
            Type::record(fields)
        }
        7 | 8 => {
            let n = 2 + rng.below(2) as usize;
            let alts = (0..n)
                .map(|_| (lg.fresh("alt"), gen_type(rng, lg, depth - 1, true)))
                .collect();
            Type::choice(alts)
        }
        _ if !inside_choice => Type::set(gen_member_record(rng, lg, depth - 1)),
        _ => Type::Atomic(gen_atomic(rng)),
    }
}

/// A set-member record. The first field is always an atomic string so every
/// relation has a selectable, join-friendly leaf.
fn gen_member_record(rng: &mut TestRng, lg: &mut Labels, depth: usize) -> Type {
    let mut fields = vec![(lg.fresh("k"), Type::string())];
    let extra = rng.below(self::saturating_u64(2)) as usize + 1;
    for _ in 0..extra {
        fields.push((lg.fresh("f"), gen_type(rng, lg, depth, false)));
    }
    Type::record(fields)
}

fn saturating_u64(n: usize) -> u64 {
    n as u64
}

/// A schema whose single root is a record of 1..=`max_relations` relations
/// (sets of nested member records), per the paper's running examples.
pub fn gen_schema(rng: &mut TestRng, db: &str, root: &str, cfg: &GenConfig) -> Schema {
    build_schema(rng, db, root, cfg, false)
}

/// A source schema: like [`gen_schema`], but about one relation in four
/// sits below the root, in a record of its own or in one alternative of a
/// choice, so queries bind it through a record step or a choice selection
/// (`S.c->a.rel`) and update streams edit it there.
pub fn gen_source_schema(rng: &mut TestRng, db: &str, root: &str, cfg: &GenConfig) -> Schema {
    build_schema(rng, db, root, cfg, true)
}

fn build_schema(rng: &mut TestRng, db: &str, root: &str, cfg: &GenConfig, nest: bool) -> Schema {
    let mut lg = Labels { next: 0 };
    let n = 1 + rng.below(cfg.max_relations as u64) as usize;
    let fields: Vec<(String, Type)> = (0..n)
        .map(|_| {
            let rel = (
                lg.fresh("rel"),
                Type::set(gen_member_record(rng, &mut lg, cfg.depth)),
            );
            if !nest || !chance(rng, 1, 4) {
                rel
            } else if chance(rng, 1, 2) {
                (lg.fresh("grp"), Type::record(vec![rel]))
            } else {
                let alts = vec![
                    (lg.fresh("alt"), Type::record(vec![rel])),
                    (lg.fresh("alt"), Type::Atomic(gen_atomic(rng))),
                ];
                (lg.fresh("sel"), Type::choice(alts))
            }
        })
        .collect();
    Schema::build(db, vec![(root.to_string(), Type::record(fields))])
        .expect("generated types validate")
}

// ---------------------------------------------------------------------------
// Instances (Definition 4.2)
// ---------------------------------------------------------------------------

pub(crate) fn gen_value(rng: &mut TestRng, ty: &Type, cfg: &GenConfig) -> Value {
    match ty {
        Type::Atomic(AtomicType::Integer) => Value::int(rng.below(cfg.value_pool) as i64),
        Type::Atomic(_) => Value::str(format!("v{}", rng.below(cfg.value_pool))),
        Type::Record(fields) => Value::record(
            fields
                .iter()
                .map(|(l, t)| (l.clone(), gen_value(rng, t, cfg)))
                .collect(),
        ),
        Type::Choice(alts) => {
            let (l, t) = pick(rng, alts);
            let inner = gen_value(rng, t, cfg);
            Value::choice(l.clone(), inner)
        }
        Type::Set(member) => {
            let n = rng.below(cfg.max_members as u64 + 1) as usize;
            Value::set((0..n).map(|_| gen_value(rng, member, cfg)).collect())
        }
    }
}

/// A conforming instance for `schema`, element-annotated.
pub fn gen_instance(rng: &mut TestRng, schema: &Schema, cfg: &GenConfig) -> Instance {
    let mut inst = Instance::new(schema.name());
    for &root in schema.roots() {
        let label = schema.element(root).label.clone();
        let ty = schema.type_of(root);
        inst.install_root(label, gen_value(rng, &ty, cfg));
    }
    inst.annotate_elements(schema)
        .expect("generated instance conforms");
    inst
}

// ---------------------------------------------------------------------------
// Schema reachability (shared by query and mapping generation)
// ---------------------------------------------------------------------------

/// Everything reachable from an element without crossing a set boundary.
#[derive(Default)]
pub struct Reach {
    /// Atomic leaves: `(steps, element, type)`.
    pub atomics: Vec<(Vec<Step>, ElementId, AtomicType)>,
    /// Set elements: `(steps, element)`. Not descended into.
    pub sets: Vec<(Vec<Step>, ElementId)>,
    /// Choice alternatives: `(steps ending in the choice step, element)`.
    pub alts: Vec<(Vec<Step>, ElementId)>,
}

/// Collects [`Reach`] from `from`. With `choice_free`, choices are not
/// crossed (the exchange engine's exists-binding restriction). With a
/// `lock`, only the locked alternative of each choice is crossed, so all
/// collected paths agree on their choice selections.
pub fn reach(
    schema: &Schema,
    from: ElementId,
    choice_free: bool,
    lock: Option<&HashMap<ElementId, Label>>,
) -> Reach {
    let mut out = Reach::default();
    let mut prefix = Vec::new();
    go(schema, from, choice_free, lock, &mut prefix, &mut out);
    return out;

    fn go(
        schema: &Schema,
        e: ElementId,
        choice_free: bool,
        lock: Option<&HashMap<ElementId, Label>>,
        prefix: &mut Vec<Step>,
        out: &mut Reach,
    ) {
        match schema.element(e).kind {
            ElementKind::Atomic(t) => out.atomics.push((prefix.clone(), e, t)),
            ElementKind::Set => {
                out.sets.push((prefix.clone(), e));
            }
            ElementKind::Record => {
                for &c in &schema.element(e).children {
                    prefix.push(Step::Project(schema.element(c).label.clone()));
                    go(schema, c, choice_free, lock, prefix, out);
                    prefix.pop();
                }
            }
            ElementKind::Choice => {
                if choice_free {
                    return;
                }
                for &c in &schema.element(e).children {
                    let label = schema.element(c).label.clone();
                    if let Some(lock) = lock {
                        if lock.get(&e) != Some(&label) {
                            continue;
                        }
                    }
                    prefix.push(Step::Choice(label));
                    out.alts.push((prefix.clone(), c));
                    go(schema, c, choice_free, lock, prefix, out);
                    prefix.pop();
                }
            }
        }
    }
}

/// One random alternative per choice element of the schema — the "choice
/// lock" that keeps a mapping's exists-side paths mutually consistent.
pub fn choice_lock(rng: &mut TestRng, schema: &Schema) -> HashMap<ElementId, Label> {
    let mut lock = HashMap::new();
    let choices: Vec<(ElementId, Vec<Label>)> = schema
        .elements()
        .filter(|(_, el)| el.kind == ElementKind::Choice)
        .map(|(id, el)| {
            (
                id,
                el.children
                    .iter()
                    .map(|&c| schema.element(c).label.clone())
                    .collect(),
            )
        })
        .collect();
    for (id, labels) in choices {
        lock.insert(id, pick(rng, &labels).clone());
    }
    lock
}

fn path_expr(start: PathStart, steps: Vec<Step>) -> PathExpr {
    let mut p = match start {
        PathStart::Root(r) => PathExpr::root(r),
        PathStart::Var(v) => PathExpr::var(v),
    };
    for s in steps {
        p = match s {
            Step::Project(l) => p.project(l),
            Step::Choice(l) => p.choice(l),
        };
    }
    p
}

fn gen_const(rng: &mut TestRng, t: AtomicType, cfg: &GenConfig) -> AtomicValue {
    match t {
        AtomicType::Integer => AtomicValue::Int(rng.below(cfg.value_pool) as i64),
        _ => AtomicValue::str(format!("v{}", rng.below(cfg.value_pool))),
    }
}

// ---------------------------------------------------------------------------
// Queries (Section 4.2)
// ---------------------------------------------------------------------------

/// A bound variable during query generation.
struct QVar {
    name: String,
    elem: ElementId,
}

/// A well-formed conjunctive query over `schema`: a root-set binding, about
/// one time in three a second root-set binding (half of those over the
/// first one's set: a self-join) joined to the first by an equality on a
/// same-typed atomic when one exists, optional correlated nested-set and
/// choice-selection bindings, type-safe comparisons and atomic select
/// items. No order-by/limit, so results are comparable as multisets
/// against the reference oracle.
pub fn gen_query(rng: &mut TestRng, schema: &Schema, cfg: &GenConfig) -> Query {
    let mut vars: Vec<QVar> = Vec::new();
    let mut from: Vec<Binding> = Vec::new();
    let mut conditions = Vec::new();

    // Root bindings.
    let root_set = |rng: &mut TestRng| {
        let root = *pick(rng, schema.roots());
        let r = reach(schema, root, false, None);
        let (steps, set_elem) = pick(rng, &r.sets).clone();
        (schema.element(root).label.clone(), steps, set_elem)
    };
    let first = root_set(rng);
    let mut roots = vec![first.clone()];
    if chance(rng, 1, 3) {
        roots.push(if chance(rng, 1, 2) {
            first
        } else {
            root_set(rng)
        });
    }
    for (root_label, steps, set_elem) in roots {
        let name = format!("x{}", vars.len());
        let member = schema.set_member(set_elem).expect("set has a member");
        from.push(Binding {
            var: name.clone(),
            source: Expr::Path(path_expr(PathStart::Root(root_label), steps)),
        });
        vars.push(QVar { name, elem: member });
    }
    if let [x0, x1] = vars.as_slice() {
        let atomics = |elem| reach(schema, elem, false, None).atomics;
        let (steps1, _, t) = pick(rng, &atomics(x1.elem)).clone();
        let same_typed: Vec<Vec<Step>> = atomics(x0.elem)
            .into_iter()
            .filter(|(_, _, t0)| *t0 == t)
            .map(|(s, _, _)| s)
            .collect();
        if !same_typed.is_empty() {
            let steps0 = pick(rng, &same_typed).clone();
            conditions.push(Condition::Cmp(Comparison {
                left: Expr::Path(path_expr(PathStart::Var(x0.name.clone()), steps0)),
                op: CmpOp::Eq,
                right: Expr::Path(path_expr(PathStart::Var(x1.name.clone()), steps1)),
            }));
        }
    }

    // Correlated bindings: nested sets and choice selections.
    let extra = rng.below(3) as usize;
    for _ in 0..extra {
        let base = rng.below(vars.len() as u64) as usize;
        let base_name = vars[base].name.clone();
        let base_elem = vars[base].elem;
        let r = reach(schema, base_elem, false, None);
        let name = format!("x{}", vars.len());
        // Prefer nested sets; fall back to choice selection; else skip.
        if !r.sets.is_empty() && (r.alts.is_empty() || chance(rng, 2, 3)) {
            let (steps, set_elem) = pick(rng, &r.sets).clone();
            if steps.is_empty() {
                continue; // the base variable is itself a set: nothing to add
            }
            let member = schema.set_member(set_elem).expect("set has a member");
            from.push(Binding {
                var: name.clone(),
                source: Expr::Path(path_expr(PathStart::Var(base_name), steps)),
            });
            vars.push(QVar { name, elem: member });
        } else if !r.alts.is_empty() {
            let (steps, alt_elem) = pick(rng, &r.alts).clone();
            from.push(Binding {
                var: name.clone(),
                source: Expr::Path(path_expr(PathStart::Var(base_name), steps)),
            });
            vars.push(QVar {
                name,
                elem: alt_elem,
            });
        }
    }

    // Atomic paths available from each variable.
    let atomics_of: Vec<Vec<(Vec<Step>, AtomicType)>> = vars
        .iter()
        .map(|v| {
            reach(schema, v.elem, false, None)
                .atomics
                .into_iter()
                .map(|(s, _, t)| (s, t))
                .collect()
        })
        .collect();

    // Conditions: type-safe comparisons (mostly equalities).
    for _ in 0..rng.below(3) {
        let vi = rng.below(vars.len() as u64) as usize;
        if atomics_of[vi].is_empty() {
            continue;
        }
        let (ls, lt) = pick(rng, &atomics_of[vi]).clone();
        let left = Expr::Path(path_expr(PathStart::Var(vars[vi].name.clone()), ls));
        let op = match rng.below(10) {
            0..=6 => CmpOp::Eq,
            7 => CmpOp::Ne,
            8 => CmpOp::Le,
            _ => CmpOp::Gt,
        };
        let right = if chance(rng, 2, 5) {
            Expr::Const(gen_const(rng, lt, cfg))
        } else {
            // A same-typed path from some variable.
            let candidates: Vec<(usize, Vec<Step>)> = atomics_of
                .iter()
                .enumerate()
                .flat_map(|(i, paths)| {
                    paths
                        .iter()
                        .filter(|(_, t)| *t == lt)
                        .map(move |(s, _)| (i, s.clone()))
                })
                .collect();
            if candidates.is_empty() {
                Expr::Const(gen_const(rng, lt, cfg))
            } else {
                let (i, s) = pick(rng, &candidates).clone();
                Expr::Path(path_expr(PathStart::Var(vars[i].name.clone()), s))
            }
        };
        conditions.push(Condition::Cmp(Comparison { left, op, right }));
    }

    // Select: 1..=3 atomic paths.
    let mut select = Vec::new();
    for _ in 0..(1 + rng.below(3)) {
        let vi = rng.below(vars.len() as u64) as usize;
        if let Some((s, _)) = non_empty_pick(rng, &atomics_of[vi]) {
            select.push(Expr::Path(path_expr(
                PathStart::Var(vars[vi].name.clone()),
                s,
            )));
        }
    }
    if select.is_empty() {
        // x0 is a relation member: its first field is always atomic.
        let (s, _) = atomics_of[0].first().expect("member has an atomic").clone();
        select.push(Expr::Path(path_expr(PathStart::Var("x0".into()), s)));
    }

    Query {
        select,
        from,
        conditions,
        order_by: Vec::new(),
        limit: None,
    }
}

fn non_empty_pick(
    rng: &mut TestRng,
    items: &[(Vec<Step>, AtomicType)],
) -> Option<(Vec<Step>, AtomicType)> {
    if items.is_empty() {
        None
    } else {
        Some(pick(rng, items).clone())
    }
}

// ---------------------------------------------------------------------------
// MXQL queries (Section 5)
// ---------------------------------------------------------------------------

/// An MXQL query over a scenario's target: data paths mixed with `@map`
/// bindings, `@elem` conditions and single/double-arrow mapping predicates,
/// in the shapes of the paper's Examples 5.4–5.7. About one time in three
/// a second root-set binding (half of those over the first one's set)
/// joins the first by an equality on a same-typed atomic when one exists,
/// as Example 5.5 joins estates to contacts.
pub fn gen_mxql_query(rng: &mut TestRng, scen: &Scenario, cfg: &GenConfig) -> Query {
    let target = &scen.target;
    let root_set = |rng: &mut TestRng| {
        let root = *pick(rng, target.roots());
        let r = reach(target, root, false, None);
        let (steps, set_elem) = pick(rng, &r.sets).clone();
        let member = target.set_member(set_elem).expect("set has a member");
        let source = Expr::Path(path_expr(
            PathStart::Root(target.element(root).label.clone()),
            steps,
        ));
        let atomics: Vec<(Vec<Step>, AtomicType)> = reach(target, member, false, None)
            .atomics
            .into_iter()
            .map(|(s, _, t)| (s, t))
            .collect();
        (source, atomics)
    };
    let (source, atomics) = root_set(rng);
    let mut from = vec![Binding {
        var: "x0".into(),
        source: source.clone(),
    }];
    let apath = |rng: &mut TestRng, atomics: &[(Vec<Step>, AtomicType)]| -> PathExpr {
        let (s, _) = pick(rng, atomics).clone();
        path_expr(PathStart::Var("x0".into()), s)
    };

    let mut select = vec![Expr::Path(apath(rng, &atomics))];
    let mut conditions = Vec::new();

    // A second root binding: a data join over the annotated target.
    if chance(rng, 1, 3) {
        let (source1, atomics1) = if chance(rng, 1, 2) {
            (source, atomics.clone())
        } else {
            root_set(rng)
        };
        from.push(Binding {
            var: "x1".into(),
            source: source1,
        });
        let x1_path = |s: Vec<Step>| Expr::Path(path_expr(PathStart::Var("x1".into()), s));
        let (steps1, t) = pick(rng, &atomics1).clone();
        let same_typed: Vec<(Vec<Step>, AtomicType)> =
            atomics.iter().filter(|(_, t0)| *t0 == t).cloned().collect();
        if !same_typed.is_empty() {
            conditions.push(Condition::Cmp(Comparison {
                left: Expr::Path(apath(rng, &same_typed)),
                op: CmpOp::Eq,
                right: x1_path(steps1),
            }));
        }
        select.push(x1_path(pick(rng, &atomics1).0.clone()));
    }

    // `@map` binding (Example 5.4).
    let with_map = chance(rng, 3, 5);
    if with_map {
        from.push(Binding {
            var: "mv".into(),
            source: Expr::MapOf(apath(rng, &atomics)),
        });
        select.push(Expr::Path(PathExpr::var("mv")));
    }

    // Mapping predicate (Examples 5.5–5.7), with a mix of variables and
    // constants in its five slots.
    if chance(rng, 1, 2) {
        let double = chance(rng, 1, 2);
        let src_schema = &pick(rng, &scen.sources).0;
        let src_db = if chance(rng, 1, 2) {
            Term::Const(AtomicValue::str(src_schema.name()))
        } else {
            Term::Var("sdb".into())
        };
        let src_elem = if chance(rng, 1, 2) {
            let elems = src_schema.atomic_elements();
            Term::Const(AtomicValue::str(src_schema.path(*pick(rng, &elems))))
        } else {
            Term::Var("se".into())
        };
        let mapping = if with_map && chance(rng, 1, 2) {
            // Example 5.5: the predicate constrains the @map variable.
            Term::Var("mv".into())
        } else if chance(rng, 1, 2) {
            Term::Const(AtomicValue::str(pick(rng, &scen.mappings).name.as_str()))
        } else {
            Term::Var("mp".into())
        };
        let tgt_db = Term::Const(AtomicValue::str(target.name()));
        let tgt_elem = if chance(rng, 1, 2) {
            let elems = target.atomic_elements();
            Term::Const(AtomicValue::str(target.path(*pick(rng, &elems))))
        } else {
            Term::Var("te".into())
        };
        // Select the free meta variables so the result exposes them.
        for t in [&src_elem, &tgt_elem, &mapping] {
            if let Term::Var(v) = t {
                if v != "mv" {
                    select.push(Expr::Path(PathExpr::var(v.clone())));
                }
            }
        }
        // `@elem` correlation (Example 5.5's `e = c.title@elem`).
        if let Term::Var(v) = &tgt_elem {
            if chance(rng, 1, 2) {
                conditions.push(Condition::Cmp(Comparison {
                    left: Expr::Path(PathExpr::var(v.clone())),
                    op: CmpOp::Eq,
                    right: Expr::ElemOf(apath(rng, &atomics)),
                }));
            }
        }
        conditions.push(Condition::MapPred(MappingPred {
            src_db,
            src_elem,
            mapping,
            tgt_db,
            tgt_elem,
            double,
        }));
    }

    // A plain data filter rides along sometimes.
    if chance(rng, 1, 3) {
        let (s, t) = pick(rng, &atomics).clone();
        conditions.push(Condition::Cmp(Comparison {
            left: Expr::Path(path_expr(PathStart::Var("x0".into()), s)),
            op: CmpOp::Eq,
            right: Expr::Const(gen_const(rng, t, cfg)),
        }));
    }

    Query {
        select,
        from,
        conditions,
        order_by: Vec::new(),
        limit: None,
    }
}

// ---------------------------------------------------------------------------
// GLAV mappings (Section 4.3)
// ---------------------------------------------------------------------------

/// A GLAV mapping from the source schemas into the target schema that the
/// exchange engine supports by construction: choice-free exists bindings
/// ending at sets, variable-rooted exists select paths with mutually
/// consistent choice selections, and a foreach drawn with [`gen_query`]-like
/// shapes whose select positions type-match the exists side (constants fill
/// positions no source path can).
pub fn gen_mapping(
    rng: &mut TestRng,
    name: &str,
    sources: &[&Schema],
    target: &Schema,
    cfg: &GenConfig,
) -> Mapping {
    // ---- exists side -------------------------------------------------
    let lock = choice_lock(rng, target);
    let root = *pick(rng, target.roots());
    let root_label = target.element(root).label.clone();
    let rsets = reach(target, root, true, None).sets;
    let (steps, set_elem) = pick(rng, &rsets).clone();
    let member = target.set_member(set_elem).expect("set has a member");
    let mut exists_from = vec![Binding {
        var: "y0".into(),
        source: Expr::Path(path_expr(PathStart::Root(root_label), steps)),
    }];
    let mut evars = vec![("y0".to_string(), member)];
    // Optional nested-set binding (choice-free).
    let nested = reach(target, member, true, None).sets;
    if !nested.is_empty() && chance(rng, 2, 5) {
        let (steps, set_elem) = pick(rng, &nested).clone();
        if !steps.is_empty() {
            let m2 = target.set_member(set_elem).expect("set has a member");
            exists_from.push(Binding {
                var: "y1".into(),
                source: Expr::Path(path_expr(PathStart::Var("y0".into()), steps)),
            });
            evars.push(("y1".to_string(), m2));
        }
    }
    // Candidate target leaves, with consistent choice selections.
    let mut candidates: Vec<(String, Vec<Step>, AtomicType)> = Vec::new();
    for (v, e) in &evars {
        for (s, _, t) in reach(target, *e, false, Some(&lock)).atomics {
            candidates.push((v.clone(), s, t));
        }
    }
    let mut exists_select = Vec::new();
    let mut types = Vec::new();
    let mut used: Vec<String> = Vec::new();
    let take = |rng: &mut TestRng,
                pool: Vec<(String, Vec<Step>, AtomicType)>,
                exists_select: &mut Vec<Expr>,
                types: &mut Vec<AtomicType>,
                used: &mut Vec<String>| {
        if pool.is_empty() {
            return;
        }
        let (v, s, t) = pick(rng, &pool).clone();
        let key = format!("{v}:{}", path_expr(PathStart::Var(v.clone()), s.clone()));
        if used.contains(&key) {
            return;
        }
        used.push(key);
        exists_select.push(Expr::Path(path_expr(PathStart::Var(v), s)));
        types.push(t);
    };
    // The exchange engine requires every bound target member to receive at
    // least one field, so draw one path per variable first.
    for (v, _) in &evars {
        let pool: Vec<_> = candidates
            .iter()
            .filter(|(cv, _, _)| cv == v)
            .cloned()
            .collect();
        take(rng, pool, &mut exists_select, &mut types, &mut used);
    }
    // Then extra paths from anywhere.
    for _ in 0..rng.below(2) {
        take(
            rng,
            candidates.clone(),
            &mut exists_select,
            &mut types,
            &mut used,
        );
    }
    let exists = Query {
        select: exists_select,
        from: exists_from,
        conditions: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    };

    // ---- foreach side ------------------------------------------------
    let src = *pick(rng, sources);
    let mut foreach = gen_query(rng, src, cfg);
    foreach.select.clear();
    // Type-compatible select positions; constants as a fallback.
    let vars: Vec<(String, ElementId)> = collect_query_vars(src, &foreach);
    let mut atomics: Vec<(String, Vec<Step>, AtomicType)> = Vec::new();
    for (v, e) in &vars {
        for (s, _, t) in reach(src, *e, false, None).atomics {
            atomics.push((v.clone(), s, t));
        }
    }
    for (i, t) in types.iter().enumerate() {
        let matching: Vec<&(String, Vec<Step>, AtomicType)> =
            atomics.iter().filter(|(_, _, at)| at == t).collect();
        if matching.is_empty() || chance(rng, 1, 5) {
            foreach.select.push(Expr::Const(match t {
                AtomicType::Integer => AtomicValue::Int(i as i64),
                _ => AtomicValue::str(format!("c{i}")),
            }));
        } else {
            let (v, s, _) = (*pick(rng, &matching)).clone();
            foreach
                .select
                .push(Expr::Path(path_expr(PathStart::Var(v), s)));
        }
    }

    Mapping {
        name: MappingName::new(name),
        foreach,
        exists,
    }
}

/// Re-derives the `(variable, element)` bindings of a generated query by
/// walking its from-clause against the schema (the generator's own notion,
/// kept simple: root paths and variable paths over sets and choices).
fn collect_query_vars(schema: &Schema, q: &Query) -> Vec<(String, ElementId)> {
    let mut vars: Vec<(String, ElementId)> = Vec::new();
    for b in &q.from {
        let Expr::Path(p) = &b.source else { continue };
        let start = match &p.start {
            PathStart::Root(r) => schema.root(r),
            PathStart::Var(v) => vars.iter().find(|(name, _)| name == v).map(|(_, e)| *e),
        };
        let Some(mut e) = start else { continue };
        let mut ok = true;
        for s in &p.steps {
            let label = match s {
                Step::Project(l) | Step::Choice(l) => l,
            };
            match schema.child(e, label.as_str()) {
                Some(c) => e = c,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let elem = match schema.element(e).kind {
            ElementKind::Set => schema.set_member(e).expect("set has a member"),
            _ => e,
        };
        vars.push((b.var.clone(), elem));
    }
    vars
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// A complete randomly drawn mapping scenario: nested source schemas with
/// conforming instances, a nested target schema, and GLAV mappings between
/// them.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Source schemas with their instances.
    pub sources: Vec<(Schema, Instance)>,
    /// The target schema.
    pub target: Schema,
    /// The mappings populating the target.
    pub mappings: Vec<Mapping>,
}

impl Scenario {
    /// Runs the annotated data exchange over the scenario.
    pub fn tagged(&self) -> Result<TaggedInstance, MxqlError> {
        self.tagged_with(&dtr_mapping::exchange::ExchangeOptions::default())
    }

    /// Runs the annotated data exchange with explicit exchange options
    /// (engine selection and parallel foreach evaluation).
    pub fn tagged_with(
        &self,
        opts: &dtr_mapping::exchange::ExchangeOptions,
    ) -> Result<TaggedInstance, MxqlError> {
        let setting = MappingSetting::new(
            self.sources.iter().map(|(s, _)| s.clone()).collect(),
            self.target.clone(),
            self.mappings.clone(),
        )?;
        TaggedInstance::exchange_with_options(
            setting,
            self.sources.iter().map(|(_, i)| i.clone()).collect(),
            opts,
        )
    }
}

/// Draws a full scenario.
pub fn gen_scenario(rng: &mut TestRng, cfg: &GenConfig) -> Scenario {
    let nsrc = 1 + rng.below(cfg.max_sources as u64) as usize;
    let sources: Vec<(Schema, Instance)> = (0..nsrc)
        .map(|i| {
            let schema = gen_source_schema(rng, &format!("S{i}"), &format!("S{i}"), cfg);
            let inst = gen_instance(rng, &schema, cfg);
            (schema, inst)
        })
        .collect();
    let target = gen_schema(rng, "D", "D", cfg);
    let schema_refs: Vec<&Schema> = sources.iter().map(|(s, _)| s).collect();
    let nmap = 1 + rng.below(cfg.max_mappings as u64) as usize;
    let mappings = (0..nmap)
        .map(|i| gen_mapping(rng, &format!("m{}", i + 1), &schema_refs, &target, cfg))
        .collect();
    Scenario {
        sources,
        target,
        mappings,
    }
}

// ---------------------------------------------------------------------------
// Update streams (incremental exchange)
// ---------------------------------------------------------------------------

/// A seeded stream of edit batches over every source set reachable from a
/// root through records and selected choice alternatives — the sets the
/// incremental exchange engine edits, addressed by dot paths (`S.c.a.rel`
/// crosses choice `c` into its selected alternative `a`). Each step is one
/// [`dtr_mapping::delta::SourceDelta`] of 1..=3 insert/delete/modify
/// edits; member values come from the same constructive generator as the
/// instances, so every edit conforms by construction, and deletes/modifies
/// track live cardinalities so indices are always in range.
pub fn gen_update_stream(
    rng: &mut TestRng,
    scen: &Scenario,
    cfg: &GenConfig,
    steps: usize,
) -> Vec<dtr_mapping::delta::SourceDelta> {
    use dtr_mapping::delta::SourceDelta;
    // (dot path, member type, live cardinality) per editable set.
    let mut rels: Vec<(String, Type, usize)> = Vec::new();
    for (schema, inst) in &scen.sources {
        for &root in schema.roots() {
            let rl = schema.element(root).label.clone();
            for (steps, set_elem) in reach(schema, root, false, None).sets {
                let Type::Set(member) = schema.type_of(set_elem) else {
                    continue;
                };
                // A set below an unselected alternative is not there.
                let labels: Vec<&str> = steps
                    .iter()
                    .map(|s| match s {
                        Step::Project(l) | Step::Choice(l) => l.as_str(),
                    })
                    .collect();
                let set = inst
                    .root(rl.as_str())
                    .and_then(|r| labels.iter().try_fold(r, |n, l| inst.child_by_label(n, l)));
                let Some(set) = set else {
                    continue;
                };
                let card = inst.set_members(set).map_or(0, <[_]>::len);
                rels.push((format!("{rl}.{}", labels.join(".")), *member, card));
            }
        }
    }
    if rels.is_empty() {
        return Vec::new();
    }
    (0..steps)
        .map(|_| {
            let mut delta = SourceDelta::new();
            for _ in 0..=rng.below(3) {
                let ri = rng.below(saturating_u64(rels.len())) as usize;
                let (path, member_ty, card) = &mut rels[ri];
                match if *card == 0 { 0 } else { rng.below(3) } {
                    0 => {
                        delta = delta.insert(path.clone(), gen_value(rng, member_ty, cfg));
                        *card += 1;
                    }
                    1 => {
                        delta = delta.delete(path.clone(), rng.below(*card as u64) as usize);
                        *card -= 1;
                    }
                    _ => {
                        let idx = rng.below(*card as u64) as usize;
                        delta = delta.modify(path.clone(), idx, gen_value(rng, member_ty, cfg));
                    }
                }
            }
            delta
        })
        .collect()
}

/// A nested source + instance + mapping bundle for grafting into external
/// scenarios (used by the top-level provenance property tests to extend
/// their flat scenario with a nested-Set source).
pub fn gen_nested_source(
    rng: &mut TestRng,
    db: &str,
    target: &Schema,
    mapping_name: &str,
    cfg: &GenConfig,
) -> (Schema, Instance, Mapping) {
    let schema = gen_schema(rng, db, db, cfg);
    let inst = gen_instance(rng, &schema, cfg);
    let mapping = gen_mapping(rng, mapping_name, &[&schema], target, cfg);
    (schema, inst, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_query::check::{check_query, SchemaCatalog};

    #[test]
    fn generated_schemas_validate_and_nest() {
        let cfg = GenConfig::default();
        let mut nested_seen = false;
        for seed in 0..40 {
            let mut rng = TestRng::from_seed(seed);
            let schema = gen_schema(&mut rng, "S", "S", &cfg);
            // A set below a relation member means real nesting.
            let root = schema.roots()[0];
            for (_, set_elem) in reach(&schema, root, false, None).sets {
                let member = schema.set_member(set_elem).unwrap();
                if !reach(&schema, member, false, None).sets.is_empty() {
                    nested_seen = true;
                }
            }
        }
        assert!(nested_seen, "no nested set drawn in 40 schemas");
    }

    #[test]
    fn generated_queries_check_out() {
        let cfg = GenConfig::default();
        for seed in 0..60 {
            let mut rng = TestRng::from_seed(seed);
            let schema = gen_schema(&mut rng, "S", "S", &cfg);
            let q = gen_query(&mut rng, &schema, &cfg);
            check_query(&q, SchemaCatalog::new(vec![&schema]))
                .unwrap_or_else(|e| panic!("seed {seed}: query `{q}` fails check: {e}"));
        }
    }

    #[test]
    fn generated_scenarios_exchange() {
        let cfg = GenConfig::default();
        for seed in 0..25 {
            let mut rng = TestRng::from_seed(seed);
            let scen = gen_scenario(&mut rng, &cfg);
            scen.tagged()
                .unwrap_or_else(|e| panic!("seed {seed}: exchange failed: {e}"));
        }
    }
}
