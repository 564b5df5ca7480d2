//! The data exchange engine: executing mappings to materialize an
//! annotated target instance.
//!
//! The paper builds on the generation methodology of Popa et al. (reference \[21\])
//! ("Translating Web Data"): every tuple retrieved by a mapping's `foreach`
//! query is inserted into the target instance following the structure of the
//! `exists` query, merging values into Partition Normal Form. Section 7.2
//! adds annotation generation: every created value is annotated with its
//! schema element (`f_el`) and with the mapping that generated it (`f_mp`);
//! when two mappings generate the same value the annotation sets are
//! unioned — Figure 3's `title:"HomeGain" {m2,m3}`.
//!
//! The engine natively attaches annotations while inserting (the observable
//! contract of the §7.2 rewrite, which is also provided verbatim in
//! [`crate::rewrite`] for fidelity).

use crate::glav::Mapping;
use dtr_model::instance::{Instance, NodeData, NodeId, Value};
use dtr_model::label::Label;
use dtr_model::schema::{ElementId, ElementKind, Schema};
use dtr_model::value::AtomicValue;
use dtr_obs::guard::{Budget, GuardError, Meter};
use dtr_obs::Work;
use dtr_query::ast::{CmpOp, Condition, Expr, PathExpr, PathStart, Step};
use dtr_query::check::{check_query, CheckError, ExprKind, SchemaCatalog};
use dtr_query::eval::{Catalog, EvalError, EvalOptions, EvalStats, Evaluator, Source};
use dtr_query::functions::FunctionRegistry;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Errors raised by the exchange engine.
#[derive(Clone, Debug, PartialEq)]
pub enum ExchangeError {
    /// A mapping query failed static checking.
    Check(CheckError),
    /// The foreach query failed at runtime.
    Eval(EvalError),
    /// The exists query uses a construct the generator does not support.
    Unsupported(String),
    /// Two select positions assigned conflicting values to one target slot.
    Conflict(String),
    /// The generated instance failed conformance (engine bug or malformed
    /// mapping).
    Conformance(String),
    /// A resource budget was exhausted (see [`ExchangeOptions::budget`]).
    /// The in-flight mapping's inserts were rolled back, so the target
    /// holds exactly the first `mappings_completed` mappings.
    Guard {
        /// The structured budget violation.
        error: GuardError,
        /// Mappings fully applied before the abort.
        mappings_completed: usize,
    },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::Check(e) => write!(f, "check error: {e}"),
            ExchangeError::Eval(e) => write!(f, "evaluation error: {e}"),
            ExchangeError::Unsupported(m) => write!(f, "unsupported mapping construct: {m}"),
            ExchangeError::Conflict(m) => write!(f, "conflicting assignment: {m}"),
            ExchangeError::Conformance(m) => write!(f, "conformance failure: {m}"),
            ExchangeError::Guard {
                error,
                mappings_completed,
            } => write!(
                f,
                "guard abort after {mappings_completed} completed mapping(s): {error}"
            ),
        }
    }
}

impl std::error::Error for ExchangeError {}

impl ExchangeError {
    /// The budget violation behind this error, if it is one: an insert
    /// stage's abort or a foreach evaluation's trip.
    pub fn guard(&self) -> Option<&GuardError> {
        match self {
            ExchangeError::Guard { error, .. } | ExchangeError::Eval(EvalError::Guard(error)) => {
                Some(error)
            }
            _ => None,
        }
    }
}

impl From<CheckError> for ExchangeError {
    fn from(e: CheckError) -> Self {
        ExchangeError::Check(e)
    }
}

impl From<EvalError> for ExchangeError {
    fn from(e: EvalError) -> Self {
        ExchangeError::Eval(e)
    }
}

/// Per-mapping exchange statistics, collected unconditionally (plain
/// integer bumps on the engine's own loop) so reports and the E2 experiment
/// can attribute overhead to individual mappings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MappingStats {
    /// The mapping these numbers describe.
    pub mapping: dtr_model::value::MappingName,
    /// Tuples retrieved by the mapping's foreach query.
    pub tuples: usize,
    /// Exists-clause member bindings instantiated (one merge decision
    /// each); always equals `rows_inserted + rows_merged`.
    pub bindings: usize,
    /// Fresh target set members materialized.
    pub rows_inserted: usize,
    /// Bindings folded into an existing member by PNF merging.
    pub rows_merged: usize,
    /// `f_mp` annotations newly written onto target nodes.
    pub annotations_written: usize,
    /// Annotation writes that were no-ops (name already present).
    pub annotations_suppressed: usize,
    /// Wall time spent running this mapping (foreach eval + insertion).
    pub wall_ns: u64,
    /// The foreach query's evaluator run: its work counts, and in
    /// `eval_ns` the time the evaluator itself took, apart from the
    /// insertion that `wall_ns` adds.
    pub eval: EvalStats,
    /// Journal offset when this mapping started (0 when journaling is off).
    pub started_at_event: u64,
    /// Journal offset when this mapping finished (0 when journaling is off).
    pub ended_at_event: u64,
}

impl MappingStats {
    /// The journal event window `[started_at_event, ended_at_event)` of this
    /// mapping's run, if the journal captured one. Slice the buffer with
    /// `dtr_obs::journal::events_in` instead of scanning all events.
    pub fn event_window(&self) -> Option<(u64, u64)> {
        (self.ended_at_event > self.started_at_event)
            .then_some((self.started_at_event, self.ended_at_event))
    }

    /// The work of this mapping's run: its insert, merge and annotation
    /// counts and its foreach evaluation's.
    pub fn work(&self) -> Work {
        Work {
            exchange_rows_inserted: self.rows_inserted as u64,
            exchange_rows_merged: self.rows_merged as u64,
            exchange_annotations_written: self.annotations_written as u64,
            exchange_annotations_suppressed: self.annotations_suppressed as u64,
            ..Work::from(self.eval)
        }
    }
}

/// Options controlling one exchange run.
#[derive(Clone, Debug)]
pub struct ExchangeOptions {
    /// Evaluate independent mappings' foreach queries on scoped worker
    /// threads feeding the single-writer insert stage. The produced
    /// instance is identical to a serial run; off by default. When the
    /// worker count resolves to one (auto sizing on a single-core host),
    /// the exchange falls back to the serial path — one worker thread is
    /// pure pipeline overhead.
    pub parallel: bool,
    /// Worker-thread cap for `parallel`; `0` means one per available core.
    pub workers: usize,
    /// Evaluator options for the foreach queries.
    pub eval: EvalOptions,
    /// Compile each plan binding's member structure into a reusable
    /// template (grouping, schema resolution, and field ordering done once
    /// per mapping instead of once per row). On by default; `false` selects
    /// the per-row reference construction kept for differential testing
    /// and as the pre-optimization benchmark baseline.
    pub member_templates: bool,
    /// Resource budget for the whole exchange: `max_rows` caps the foreach
    /// rows inserted cumulatively across mappings, `deadline`/`cancel`
    /// bound the insert stage, and the budget is propagated into the
    /// foreach evaluations (including parallel workers) so every thread
    /// observes cancellation. Exceeding it aborts with
    /// [`ExchangeError::Guard`] after rolling the in-flight mapping's
    /// inserts back. Unlimited by default.
    pub budget: Budget,
}

impl Default for ExchangeOptions {
    fn default() -> Self {
        ExchangeOptions {
            parallel: false,
            workers: 0,
            eval: EvalOptions::default(),
            member_templates: true,
            budget: Budget::default(),
        }
    }
}

/// The evaluator options a run's foreach queries actually use: when the
/// caller gave `eval` no budget of its own, the exchange budget bounds the
/// foreach stage too; otherwise the eval budget stands, but the exchange
/// cancel flag is shared so one `request_cancel` reaches every thread.
pub(crate) fn effective_eval(opts: &ExchangeOptions) -> EvalOptions {
    let mut eval = opts.eval.clone();
    if eval.budget.is_limited() {
        eval.budget.cancel = std::sync::Arc::clone(&opts.budget.cancel);
    } else {
        eval.budget = opts.budget.clone();
    }
    eval
}

/// Statistics of one exchange run.
#[derive(Clone, Debug, Default)]
pub struct ExchangeReport {
    /// Per-mapping tuple/row/merge/annotation counts, in execution order.
    pub per_mapping: Vec<MappingStats>,
}

impl ExchangeReport {
    /// The breakdown for one mapping, if it ran.
    pub fn stats_for(&self, name: &str) -> Option<&MappingStats> {
        self.per_mapping.iter().find(|s| s.mapping.as_str() == name)
    }

    /// Totals across all mappings, in `MappingStats` form (the `mapping`
    /// field keeps its default value; the event window spans the whole run).
    pub fn totals(&self) -> MappingStats {
        let mut out = MappingStats::default();
        for s in &self.per_mapping {
            out.tuples += s.tuples;
            out.bindings += s.bindings;
            out.rows_inserted += s.rows_inserted;
            out.rows_merged += s.rows_merged;
            out.annotations_written += s.annotations_written;
            out.annotations_suppressed += s.annotations_suppressed;
            out.wall_ns += s.wall_ns;
            out.eval += s.eval;
        }
        if let Some((start, end)) = self.event_window() {
            out.started_at_event = start;
            out.ended_at_event = end;
        }
        out
    }

    /// The work of the whole exchange: every mapping's
    /// [`MappingStats::work`], summed.
    pub fn work(&self) -> Work {
        let mut work = Work::default();
        for s in &self.per_mapping {
            work += s.work();
        }
        work
    }

    /// The journal event window covering every mapping in this report, if
    /// the journal captured one.
    pub fn event_window(&self) -> Option<(u64, u64)> {
        let windows: Vec<(u64, u64)> = self
            .per_mapping
            .iter()
            .filter_map(MappingStats::event_window)
            .collect();
        let start = windows.iter().map(|&(s, _)| s).min()?;
        let end = windows.iter().map(|&(_, e)| e).max()?;
        Some((start, end))
    }
}

/// Where a target binding's set lives.
pub(crate) enum Parent {
    /// Under a schema root: `(root label, projection labels to the set)`.
    Root(Label, Vec<Label>),
    /// Under an earlier binding's member: `(binding index, projection
    /// labels to the set)`.
    Var(usize, Vec<Label>),
}

/// One exists-clause binding, planned.
pub(crate) struct PlanBinding {
    pub(crate) parent: Parent,
    pub(crate) member_elem: ElementId,
    /// Atomic assignments: `(steps relative to the member, slot class)`.
    pub(crate) fields: Vec<(Vec<Step>, usize)>,
}

/// The insertion plan derived from a mapping's exists query.
pub(crate) struct Plan {
    pub(crate) bindings: Vec<PlanBinding>,
    /// Slot class of each select position.
    pub(crate) select_classes: Vec<usize>,
    pub(crate) n_classes: usize,
}

impl Plan {
    /// For each binding, the index of the `Parent::Root` binding its chain
    /// hangs under (a root binding maps to itself). The incremental engine
    /// groups member classes by root chain through this.
    pub(crate) fn root_of(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.bindings.len());
        for (bi, b) in self.bindings.iter().enumerate() {
            match &b.parent {
                Parent::Root(..) => out.push(bi),
                Parent::Var(idx, _) => out.push(out[*idx]),
            }
        }
        out
    }
}

/// Simple union-find for slot classes.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }
    fn make(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

fn path_key(p: &PathExpr) -> String {
    p.to_string()
}

pub(crate) fn plan_exists(m: &Mapping, target_schema: &Schema) -> Result<Plan, ExchangeError> {
    let resolved = check_query(&m.exists, SchemaCatalog::new(vec![target_schema]))?;
    let mut var_index: HashMap<&str, usize> = HashMap::new();
    let mut bindings: Vec<PlanBinding> = Vec::new();

    for b in &m.exists.from {
        let Expr::Path(p) = &b.source else {
            return Err(ExchangeError::Unsupported(format!(
                "exists binding `{}` must be a path",
                b.source
            )));
        };
        if p.steps.iter().any(|s| matches!(s, Step::Choice(_))) {
            return Err(ExchangeError::Unsupported(format!(
                "choice step in exists binding `{p}`"
            )));
        }
        let labels: Vec<Label> = p
            .steps
            .iter()
            .map(|s| match s {
                Step::Project(l) => l.clone(),
                Step::Choice(l) => l.clone(),
            })
            .collect();
        let parent = match &p.start {
            PathStart::Root(r) => Parent::Root(r.clone(), labels),
            PathStart::Var(v) => {
                let idx = *var_index.get(v.as_str()).ok_or_else(|| {
                    ExchangeError::Unsupported(format!(
                        "exists binding uses unknown variable `{v}`"
                    ))
                })?;
                Parent::Var(idx, labels)
            }
        };
        let member_elem = match resolved.path_kind(p)? {
            ExprKind::Complex(_, e, ElementKind::Set) => target_schema
                .set_member(e)
                .expect("set element has a member"),
            other => {
                return Err(ExchangeError::Unsupported(format!(
                    "exists binding `{p}` is not a set ({other:?})"
                )))
            }
        };
        var_index.insert(b.var.as_str(), bindings.len());
        bindings.push(PlanBinding {
            parent,
            member_elem,
            fields: Vec::new(),
        });
    }

    // Slot classes over (var, steps) paths.
    let mut uf = UnionFind::new();
    let mut slot_of: HashMap<String, (usize, usize, Vec<Step>)> = HashMap::new(); // key -> (class, binding idx, steps)

    let slot = |p: &PathExpr,
                uf: &mut UnionFind,
                slot_of: &mut HashMap<String, (usize, usize, Vec<Step>)>|
     -> Result<usize, ExchangeError> {
        let PathStart::Var(v) = &p.start else {
            return Err(ExchangeError::Unsupported(format!(
                "exists expression `{p}` must start from a variable"
            )));
        };
        let Some(&bidx) = var_index.get(v.as_str()) else {
            return Err(ExchangeError::Unsupported(format!(
                "exists expression uses unknown variable `{v}`"
            )));
        };
        let key = path_key(p);
        if let Some((c, _, _)) = slot_of.get(&key) {
            return Ok(*c);
        }
        let c = uf.make();
        slot_of.insert(key, (c, bidx, p.steps.clone()));
        Ok(c)
    };

    let mut select_classes = Vec::with_capacity(m.exists.select.len());
    for e in &m.exists.select {
        let Expr::Path(p) = e else {
            return Err(ExchangeError::Unsupported(format!(
                "exists select item `{e}` must be a path"
            )));
        };
        select_classes.push(slot(p, &mut uf, &mut slot_of)?);
    }

    for c in &m.exists.conditions {
        match c {
            Condition::Cmp(cmp) if cmp.op == CmpOp::Eq => {
                let (Expr::Path(l), Expr::Path(r)) = (&cmp.left, &cmp.right) else {
                    return Err(ExchangeError::Unsupported(format!(
                        "exists condition `{cmp}` must equate two paths"
                    )));
                };
                let cl = slot(l, &mut uf, &mut slot_of)?;
                let cr = slot(r, &mut uf, &mut slot_of)?;
                uf.union(cl, cr);
            }
            other => {
                return Err(ExchangeError::Unsupported(format!(
                    "exists condition `{other}` (only equalities are supported)"
                )));
            }
        }
    }

    // Normalize classes and attach fields to their bindings.
    let n = uf.parent.len();
    let mut canon: HashMap<usize, usize> = HashMap::new();
    let mut next = 0usize;
    let mut canon_of = |uf: &mut UnionFind, c: usize, canon: &mut HashMap<usize, usize>| {
        let root = uf.find(c);
        *canon.entry(root).or_insert_with(|| {
            let v = next;
            next += 1;
            v
        })
    };
    let mut plan = Plan {
        bindings,
        select_classes: Vec::new(),
        n_classes: 0,
    };
    for c in select_classes {
        let cc = canon_of(&mut uf, c, &mut canon);
        plan.select_classes.push(cc);
    }
    for (_, (c, bidx, steps)) in slot_of {
        let cc = canon_of(&mut uf, c, &mut canon);
        plan.bindings[bidx].fields.push((steps, cc));
    }
    // Deterministic field order (slot_of is a HashMap).
    for b in &mut plan.bindings {
        b.fields.sort_by(|a, c| {
            let ka: Vec<String> = a.0.iter().map(|s| format!("{s:?}")).collect();
            let kc: Vec<String> = c.0.iter().map(|s| format!("{s:?}")).collect();
            ka.cmp(&kc)
        });
    }
    plan.n_classes = n;
    Ok(plan)
}

/// A row's slot-class values, borrowed from the row: `None` for a class no
/// select position assigns.
type Slots<'r> = [Option<&'r AtomicValue>];

/// A compiled member template for one plan binding: the structural work of
/// member construction — grouping field paths, resolving them against the
/// target schema, sorting record fields into declaration order — performed
/// once per mapping run instead of once per row, together with the hash of
/// the structure it builds. A row's member is then identified from the
/// template and the row's slots alone ([`MemberShape::fingerprint`],
/// [`MemberShape::matches`]); only a member that proves new is built.
pub(crate) struct MemberShape {
    node: ShapeNode,
    /// The hash of the template's labels, nesting and kinds: the prefix of
    /// every member fingerprint (see [`member_fingerprint`]).
    structure: u64,
}

/// One level of a member template.
enum ShapeNode {
    /// A leaf filled from one slot class.
    Atomic(usize),
    /// A record whose children are already in schema declaration order.
    Record(Vec<(Label, ShapeNode)>),
    /// A choice committed to one alternative.
    Choice(Label, Box<ShapeNode>),
}

/// The value of the slot class a template leaf reads. A template compiles
/// from the classes the first row assigns, and which classes a row assigns
/// is decided by the select positions alone, so every leaf is assigned on
/// every row.
fn leaf<'r>(slots: &Slots<'r>, class: usize) -> &'r AtomicValue {
    slots[class].expect("a template leaf reads an assigned slot class")
}

impl MemberShape {
    fn new(node: ShapeNode) -> MemberShape {
        let mut h = DefaultHasher::new();
        node.hash_structure(&mut h);
        MemberShape {
            structure: h.finish(),
            node,
        }
    }

    /// Builds the member [`Value`] for one row.
    fn fill(&self, slots: &Slots<'_>) -> Value {
        self.node.fill(slots)
    }

    /// [`member_fingerprint`] of the value [`MemberShape::fill`] would
    /// build, without building it: the structure hash, then the leaves.
    fn fingerprint(&self, slots: &Slots<'_>) -> u64 {
        let mut h = DefaultHasher::new();
        self.structure.hash(&mut h);
        self.node.hash_leaves(slots, &mut h);
        h.finish()
    }

    /// Whether the value [`MemberShape::fill`] would build equals `v`,
    /// decided without building it.
    fn matches(&self, slots: &Slots<'_>, v: &Value) -> bool {
        self.node.matches(slots, v)
    }
}

impl ShapeNode {
    fn fill(&self, slots: &Slots<'_>) -> Value {
        match self {
            ShapeNode::Atomic(c) => Value::Atomic(leaf(slots, *c).clone()),
            ShapeNode::Record(children) => Value::Record(
                children
                    .iter()
                    .map(|(l, s)| (l.clone(), s.fill(slots)))
                    .collect(),
            ),
            ShapeNode::Choice(l, inner) => Value::choice(l.clone(), inner.fill(slots)),
        }
    }

    /// Feeds the structure [`hash_value_structure`] feeds for the values
    /// this template builds.
    fn hash_structure(&self, h: &mut DefaultHasher) {
        match self {
            ShapeNode::Atomic(_) => 0u8.hash(h),
            ShapeNode::Record(children) => {
                1u8.hash(h);
                children.len().hash(h);
                for (l, s) in children {
                    l.hash(h);
                    s.hash_structure(h);
                }
            }
            ShapeNode::Choice(l, inner) => {
                2u8.hash(h);
                l.hash(h);
                inner.hash_structure(h);
            }
        }
    }

    /// Feeds the leaves in the order [`hash_value_leaves`] does.
    fn hash_leaves(&self, slots: &Slots<'_>, h: &mut DefaultHasher) {
        match self {
            ShapeNode::Atomic(c) => leaf(slots, *c).hash(h),
            ShapeNode::Record(children) => {
                for (_, s) in children {
                    s.hash_leaves(slots, h);
                }
            }
            ShapeNode::Choice(_, inner) => inner.hash_leaves(slots, h),
        }
    }

    fn matches(&self, slots: &Slots<'_>, v: &Value) -> bool {
        match (self, v) {
            (ShapeNode::Atomic(c), Value::Atomic(a)) => leaf(slots, *c) == a,
            (ShapeNode::Record(children), Value::Record(fields)) => {
                children.len() == fields.len()
                    && children
                        .iter()
                        .zip(fields)
                        .all(|((l, s), (fl, fv))| l == fl && s.matches(slots, fv))
            }
            (ShapeNode::Choice(l, inner), Value::Choice(vl, vv)) => {
                l == vl && inner.matches(slots, vv)
            }
            _ => false,
        }
    }
}

/// Compiles the member template from field assignments, following the schema
/// to know which intermediates are records and which are choices.
fn build_shape(
    schema: &Schema,
    elem: ElementId,
    fields: &[(&[Step], usize)],
) -> Result<ShapeNode, ExchangeError> {
    if fields.is_empty() {
        return Err(ExchangeError::Unsupported(
            "a target member with no assigned fields".into(),
        ));
    }
    // Leaf?
    if fields.len() == 1 && fields[0].0.is_empty() {
        return Ok(ShapeNode::Atomic(fields[0].1));
    }
    /// Field assignments grouped under one leading label.
    type Group<'a> = Vec<(&'a [Step], usize)>;
    match schema.element(elem).kind {
        ElementKind::Record => {
            // Group by leading label through an index map — one hash
            // lookup per field instead of a linear scan per field.
            let mut groups: Vec<(Label, Group<'_>)> = Vec::new();
            let mut group_index: HashMap<Label, usize> = HashMap::with_capacity(fields.len());
            for (steps, c) in fields {
                let Some((first, rest)) = steps.split_first() else {
                    return Err(ExchangeError::Conflict(
                        "value assigned to a whole record".into(),
                    ));
                };
                let label = match first {
                    Step::Project(l) => l.clone(),
                    Step::Choice(_) => {
                        return Err(ExchangeError::Unsupported(
                            "choice step on a record element".into(),
                        ))
                    }
                };
                match group_index.get(&label) {
                    Some(&i) => groups[i].1.push((rest, *c)),
                    None => {
                        group_index.insert(label.clone(), groups.len());
                        groups.push((label, vec![(rest, *c)]));
                    }
                }
            }
            let mut rec = Vec::with_capacity(groups.len());
            for (label, group) in groups {
                let child = schema.child(elem, &label).ok_or_else(|| {
                    ExchangeError::Unsupported(format!(
                        "target schema has no field `{label}` under {}",
                        schema.path(elem)
                    ))
                })?;
                rec.push((label, build_shape(schema, child, &group)?));
            }
            // Schema declaration order for deterministic output, via a
            // precomputed label→position map.
            let order_index: HashMap<&Label, usize> = schema
                .element(elem)
                .children
                .iter()
                .enumerate()
                .map(|(i, &c)| (&schema.element(c).label, i))
                .collect();
            rec.sort_by_key(|(l, _)| order_index.get(l).copied().unwrap_or(usize::MAX));
            Ok(ShapeNode::Record(rec))
        }
        ElementKind::Choice => {
            let mut label: Option<Label> = None;
            let mut inner: Vec<(&[Step], usize)> = Vec::new();
            for (steps, c) in fields {
                let Some((first, rest)) = steps.split_first() else {
                    return Err(ExchangeError::Conflict(
                        "value assigned to a whole choice".into(),
                    ));
                };
                let l = match first {
                    Step::Choice(l) | Step::Project(l) => l.clone(),
                };
                match &label {
                    None => label = Some(l),
                    Some(prev) if *prev == l => {}
                    Some(prev) => {
                        return Err(ExchangeError::Conflict(format!(
                            "choice assigned two alternatives `{prev}` and `{l}`"
                        )))
                    }
                }
                inner.push((rest, *c));
            }
            let label = label.expect("fields nonempty");
            let child = schema.child(elem, &label).ok_or_else(|| {
                ExchangeError::Unsupported(format!(
                    "target schema has no alternative `{label}` under {}",
                    schema.path(elem)
                ))
            })?;
            Ok(ShapeNode::Choice(
                label,
                Box::new(build_shape(schema, child, &inner)?),
            ))
        }
        other => Err(ExchangeError::Unsupported(format!(
            "cannot assign through element kind {other:?}"
        ))),
    }
}

/// The per-row reference member construction: groups field assignments and
/// resolves them against the schema for every single row, rebuilding all
/// intermediate structure each time. This is what member templates replace;
/// it is kept (verbatim) behind [`ExchangeOptions::member_templates`]` =
/// false` so dtr-check can hold the template path to it differentially and
/// so benchmarks can measure the pre-optimization configuration.
fn build_member_reference(
    schema: &Schema,
    elem: ElementId,
    fields: &[(&[Step], AtomicValue)],
) -> Result<Value, ExchangeError> {
    if fields.is_empty() {
        return Err(ExchangeError::Unsupported(
            "a target member with no assigned fields".into(),
        ));
    }
    // Leaf?
    if fields.len() == 1 && fields[0].0.is_empty() {
        return Ok(Value::Atomic(fields[0].1.clone()));
    }
    /// Field assignments grouped under one leading label.
    type Group<'a> = Vec<(&'a [Step], AtomicValue)>;
    match schema.element(elem).kind {
        ElementKind::Record => {
            // Group by leading label, preserving schema field order.
            let mut groups: Vec<(Label, Group<'_>)> = Vec::new();
            for (steps, v) in fields {
                let Some((first, rest)) = steps.split_first() else {
                    return Err(ExchangeError::Conflict(
                        "value assigned to a whole record".into(),
                    ));
                };
                let label = match first {
                    Step::Project(l) => l.clone(),
                    Step::Choice(_) => {
                        return Err(ExchangeError::Unsupported(
                            "choice step on a record element".into(),
                        ))
                    }
                };
                match groups.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, g)) => g.push((rest, v.clone())),
                    None => groups.push((label, vec![(rest, v.clone())])),
                }
            }
            let mut rec = Vec::with_capacity(groups.len());
            for (label, group) in groups {
                let child = schema.child(elem, &label).ok_or_else(|| {
                    ExchangeError::Unsupported(format!(
                        "target schema has no field `{label}` under {}",
                        schema.path(elem)
                    ))
                })?;
                rec.push((label, build_member_reference(schema, child, &group)?));
            }
            // Schema declaration order for deterministic output.
            let order: Vec<&Label> = schema
                .element(elem)
                .children
                .iter()
                .map(|&c| &schema.element(c).label)
                .collect();
            rec.sort_by_key(|(l, _)| order.iter().position(|o| *o == l).unwrap_or(usize::MAX));
            Ok(Value::Record(rec))
        }
        ElementKind::Choice => {
            let mut label: Option<Label> = None;
            let mut inner: Vec<(&[Step], AtomicValue)> = Vec::new();
            for (steps, v) in fields {
                let Some((first, rest)) = steps.split_first() else {
                    return Err(ExchangeError::Conflict(
                        "value assigned to a whole choice".into(),
                    ));
                };
                let l = match first {
                    Step::Choice(l) | Step::Project(l) => l.clone(),
                };
                match &label {
                    None => label = Some(l),
                    Some(prev) if *prev == l => {}
                    Some(prev) => {
                        return Err(ExchangeError::Conflict(format!(
                            "choice assigned two alternatives `{prev}` and `{l}`"
                        )))
                    }
                }
                inner.push((rest, v.clone()));
            }
            let label = label.expect("fields nonempty");
            let child = schema.child(elem, &label).ok_or_else(|| {
                ExchangeError::Unsupported(format!(
                    "target schema has no alternative `{label}` under {}",
                    schema.path(elem)
                ))
            })?;
            Ok(Value::choice(
                label,
                build_member_reference(schema, child, &inner)?,
            ))
        }
        other => Err(ExchangeError::Unsupported(format!(
            "cannot assign through element kind {other:?}"
        ))),
    }
}

/// Fingerprint of one source binding (a foreach tuple) — the label the
/// journal records per insert/merge event, and the key the `.trace`
/// cross-check re-derives by replaying the foreach query.
///
/// This 64-bit hash is never used as an identity: journal events carry
/// their own unique ids and are never merged on this value, so two
/// colliding tuples produce two distinct events. A replay consumer that
/// filters events by fingerprint gets a candidate *set* and narrows it
/// structurally against the replayed foreach tuples, so a collision can
/// widen an intermediate candidate list but never conflate rows.
pub fn row_fingerprint(row: &[AtomicValue]) -> u64 {
    let mut h = DefaultHasher::new();
    row.len().hash(&mut h);
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

/// The structural fingerprint of a member value, which buckets the merge
/// index: the hash of its structure (labels, nesting and kinds), then its
/// atomic leaves in order. [`MemberShape::fingerprint`] computes the same
/// function from a template and a row's slots, so the per-row reference
/// construction and the templates bucket every member alike.
pub(crate) fn member_fingerprint(v: &Value) -> u64 {
    let mut structure = DefaultHasher::new();
    hash_value_structure(v, &mut structure);
    let mut h = DefaultHasher::new();
    structure.finish().hash(&mut h);
    hash_value_leaves(v, &mut h);
    h.finish()
}

/// Feeds a value's labels, nesting and kinds, as
/// [`ShapeNode::hash_structure`] does for a template.
fn hash_value_structure(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Atomic(_) => 0u8.hash(h),
        Value::Record(fields) => {
            1u8.hash(h);
            fields.len().hash(h);
            for (l, v) in fields {
                l.hash(h);
                hash_value_structure(v, h);
            }
        }
        Value::Choice(l, v) => {
            2u8.hash(h);
            l.hash(h);
            hash_value_structure(v, h);
        }
        Value::Set(members) => {
            3u8.hash(h);
            members.len().hash(h);
        }
    }
}

/// Feeds a value's atomic leaves in order, as [`ShapeNode::hash_leaves`]
/// does for a template (a set contributes none).
fn hash_value_leaves(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Atomic(a) => a.hash(h),
        Value::Record(fields) => {
            for (_, v) in fields {
                hash_value_leaves(v, h);
            }
        }
        Value::Choice(_, v) => hash_value_leaves(v, h),
        Value::Set(_) => {}
    }
}

/// One binding's member for one row, as the insert stage identifies it:
/// the compiled template over the row's slots, of which nothing is built
/// until the member proves new, or the value the per-row reference
/// construction built.
pub(crate) enum Candidate<'s> {
    Template(&'s MemberShape, &'s Slots<'s>),
    Built(Value),
}

impl Candidate<'_> {
    /// The structural fingerprint of the member ([`member_fingerprint`]).
    fn fingerprint(&self) -> u64 {
        match self {
            Candidate::Template(shape, slots) => shape.fingerprint(slots),
            Candidate::Built(v) => member_fingerprint(v),
        }
    }

    /// Whether the member equals `v`.
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match self {
            Candidate::Template(shape, slots) => shape.matches(slots, v),
            Candidate::Built(built) => built == v,
        }
    }

    /// The member's value, built now if it was not.
    fn into_value(self) -> Value {
        match self {
            Candidate::Template(shape, slots) => shape.fill(slots),
            Candidate::Built(v) => v,
        }
    }
}

/// The exchange engine. Holds the target instance under construction plus
/// the merge index.
pub struct Exchange<'a> {
    pub(crate) sources: Vec<Source<'a>>,
    pub(crate) target_schema: &'a Schema,
    pub(crate) functions: &'a FunctionRegistry,
    pub(crate) target: Instance,
    /// `(set node, member fingerprint) -> candidate members` for PNF
    /// merging. A fingerprint match alone is not proof of equality: each
    /// bucket keeps the value each member was installed from, so a merge
    /// is only taken after the row's member is confirmed equal to it, and
    /// colliding-but-distinct members split the bucket instead of being
    /// folded together.
    pub(crate) merge_index: HashMap<(NodeId, u64), Vec<(Value, NodeId)>>,
    pub(crate) report: ExchangeReport,
    /// Insert-stage budget enforcement: `max_rows` charges accumulate
    /// across mappings; deadline/cancellation are polled per row.
    pub(crate) meter: Meter,
    /// Maps a member's structural fingerprint ([`member_fingerprint`]) to
    /// the key that buckets it in the merge index: the identity unless
    /// overridden (see [`Exchange::set_member_fingerprinter`]).
    member_fp: fn(u64) -> u64,
    /// Crate-private hook on the insert stage, `None` outside incremental
    /// builds (see [`RowSink`]).
    pub(crate) sink: Option<&'a mut RowSink<'a>>,
}

/// The insert-stage hook: called with the mapping's position in the run,
/// each foreach row [`Exchange::run_mappings`] inserted, and the binding
/// touches [`Exchange::insert_row`] returned for it. The incremental engine
/// records its row bags and retraction index through it.
pub(crate) type RowSink<'s> = dyn FnMut(usize, Vec<AtomicValue>, &[BindingTouch]) + 's;

/// Where one root binding of a plan puts a foreach row (see
/// [`Exchange::root_members`]): the binding's index and the live member
/// holding its value (`None` while absent).
pub(crate) struct RootMember {
    pub(crate) binding: usize,
    pub(crate) member: Option<NodeId>,
}

/// The outcome of one plan binding for one inserted row: which set was
/// targeted, the member-value fingerprint, the member node the binding
/// resolved to, and whether that member was freshly created (`true`) or
/// PNF-merged into (`false`). Bindings skipped by an [`Exchange::insert_row`]
/// mask report [`BindingTouch::SKIPPED`]. The incremental engine derives its
/// member-class contributor index and per-class insert/merge statistics from
/// these.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BindingTouch {
    pub(crate) set: NodeId,
    pub(crate) fp: u64,
    pub(crate) member: NodeId,
    pub(crate) created: bool,
}

impl BindingTouch {
    /// Sentinel for a binding excluded by the insert mask.
    pub(crate) const SKIPPED: BindingTouch = BindingTouch {
        set: NodeId(u32::MAX),
        fp: 0,
        member: NodeId(u32::MAX),
        created: false,
    };
}

impl<'a> Exchange<'a> {
    /// Creates an engine producing an instance for `target_schema` (the
    /// instance's database name is the schema's name).
    pub fn new(
        sources: Vec<Source<'a>>,
        target_schema: &'a Schema,
        functions: &'a FunctionRegistry,
    ) -> Self {
        let mut target = Instance::new(target_schema.name().to_string());
        // Pre-create every schema root so the target is queryable even when
        // a mapping retrieved no tuples at all.
        for &root in target_schema.roots() {
            let el = target_schema.element(root);
            target.push_raw(el.label.clone(), None, node_data_for(el.kind), true);
        }
        Exchange {
            sources,
            target_schema,
            functions,
            target,
            merge_index: HashMap::new(),
            report: ExchangeReport::default(),
            meter: Budget::default().meter("exchange.insert_row"),
            member_fp: std::convert::identity,
            sink: None,
        }
    }

    /// Arms the insert-stage meter with a budget (captures the deadline
    /// now).
    pub(crate) fn set_budget(&mut self, budget: &Budget) {
        self.meter = budget.meter("exchange.insert_row");
    }

    /// Overrides the fingerprint used for PNF-merge bucketing: `f` maps a
    /// member's structural fingerprint to its bucket key. As with
    /// [`dtr_model::pnf::to_pnf_with`], fingerprints only *bucket*
    /// candidates — every merge is confirmed structurally — so a weaker or
    /// even constant function must never change the produced instance,
    /// only the bucketing cost. Exposed for differential/conformance
    /// testing (`|_| 42` forces every member into one bucket).
    pub fn set_member_fingerprinter(&mut self, f: fn(u64) -> u64) {
        self.member_fp = f;
    }

    /// Runs every mapping under the given options: parallel foreach
    /// evaluation when enabled (and more than one worker resolves), the
    /// serial engine otherwise. Arms the insert-stage meter with the
    /// options' budget first. On a guard abort the engine keeps exactly the
    /// completed mappings (the in-flight one is rolled back), so callers —
    /// like the fault-injection harness — can still [`Exchange::finish`] to
    /// inspect the consistent prefix.
    pub fn run_mappings(
        &mut self,
        mappings: &[Mapping],
        opts: &ExchangeOptions,
    ) -> Result<(), ExchangeError> {
        self.set_budget(&opts.budget);
        // A single worker is pure pipeline overhead over the serial path
        // (the auto-sized case on a single-core host resolves to one), so
        // parallel mode only spawns threads when at least two would run.
        if opts.parallel && resolved_workers(opts, mappings.len()) > 1 {
            self.run_parallel(mappings, opts)
        } else {
            for m in mappings {
                let rows = eval_foreach(&self.sources, self.functions, m, effective_eval(opts));
                self.insert_mapping_rows(m, rows, opts.member_templates)?;
            }
            Ok(())
        }
    }

    /// The single-writer insert stage for one mapping whose foreach rows
    /// were already evaluated — by this thread (serial) or by a worker
    /// (parallel). `rows` carries the evaluation result, its stats and the
    /// wall time already spent evaluating (see [`EvaluatedRows`]), so
    /// `MappingStats::wall_ns` keeps covering eval + insertion as it did
    /// when the two stages were fused.
    fn insert_mapping_rows(
        &mut self,
        m: &Mapping,
        rows: EvaluatedRows,
        templates: bool,
    ) -> Result<(), ExchangeError> {
        let span = dtr_obs::span("exchange.run_mapping").field("mapping", &m.name);
        let started = std::time::Instant::now();
        // This mapping's position in the run: mappings complete in order.
        let mi = self.report.per_mapping.len();
        let mut stats = MappingStats {
            mapping: m.name.clone(),
            started_at_event: dtr_obs::journal::next_event_id(),
            ..MappingStats::default()
        };
        // Plan errors surface before eval errors, exactly as in the fused
        // serial path where planning preceded evaluation.
        let plan = plan_exists(m, self.target_schema)?;
        // Rollback snapshot: the arena is append-only, so the target as it
        // was before this mapping is exactly its first `rollback_len` nodes.
        let rollback_len = self.target.len();
        let (rows, eval, eval_ns) = match rows {
            Ok(v) => v,
            // A guard trip inside the foreach evaluation: nothing was
            // written for this mapping, surface the structured abort.
            Err(ExchangeError::Eval(EvalError::Guard(g))) => return Err(self.guard_abort(m, g)),
            Err(e) => return Err(e),
        };
        stats.tuples = rows.len();
        stats.eval = eval;
        if plan.select_classes.len() != m.foreach.select.len() {
            return Err(ExchangeError::Unsupported(format!(
                "mapping {}: select arity mismatch",
                m.name
            )));
        }
        // Member templates, compiled lazily at the first row (a mapping
        // that retrieved no tuples never validated its member structure,
        // and still shouldn't).
        let mut shapes: Vec<Option<MemberShape>> = Vec::new();
        shapes.resize_with(plan.bindings.len(), || None);
        for row in rows {
            if let Err(g) = self.meter.charge_rows(1) {
                self.rollback_mapping(m, rollback_len);
                return Err(self.guard_abort(m, g));
            }
            let touches =
                self.insert_row(m, &plan, &row, templates, &mut shapes, &mut stats, None)?;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink(mi, row, &touches);
            }
        }
        stats.wall_ns =
            eval_ns.saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        stats.ended_at_event = dtr_obs::journal::next_event_id();
        span.record("tuples", stats.tuples);
        span.record("rows_inserted", stats.rows_inserted);
        span.record("rows_merged", stats.rows_merged);
        if dtr_obs::recorder::enabled() {
            // The flight recorder gets this mapping's completed exchange
            // window plus the exchange's work so far, this mapping
            // included, so counter tracks in the exported trace bracket
            // every mapping boundary.
            dtr_obs::recorder::record_mapping_window(
                m.name.as_str(),
                stats.tuples as u64,
                stats.rows_inserted as u64,
                stats.rows_merged as u64,
                stats.wall_ns,
            );
            let mut work = self.report.work();
            work += stats.work();
            dtr_obs::recorder::record_work(&work);
        }
        self.report.per_mapping.push(stats);
        Ok(())
    }

    /// Runs several mappings with their foreach queries evaluated on scoped
    /// worker threads. Insertion stays on this thread (the target instance
    /// has a single writer) and is applied strictly in mapping order, so
    /// the produced instance, annotations, report, and first error are
    /// identical to a serial run.
    fn run_parallel(
        &mut self,
        mappings: &[Mapping],
        opts: &ExchangeOptions,
    ) -> Result<(), ExchangeError> {
        use std::collections::BTreeMap;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let n = mappings.len();
        let workers = resolved_workers(opts, n);
        // Workers only read sources/functions/mappings; clone the source
        // list out so `self` stays free for the mutable insert stage.
        let sources = self.sources.clone();
        let functions = self.functions;
        // Workers evaluate under the effective budget, sharing the cancel
        // flag, so a trip or user cancellation drains every thread.
        let eval = effective_eval(opts);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let mut result: Result<(), ExchangeError> = Ok(());
        let mut inserted = 0usize;
        std::thread::scope(|scope| {
            // Each worker hands back the spans it collected, which its
            // thread would otherwise drop with it.
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    let sources = &sources;
                    let eval = eval.clone();
                    scope.spawn(move || {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let rows = eval_foreach(sources, functions, &mappings[i], eval.clone());
                            if tx.send((i, rows)).is_err() {
                                break;
                            }
                        }
                        dtr_obs::take_thread_spans()
                    })
                })
                .collect();
            drop(tx);
            // Buffer out-of-order completions and insert in mapping order.
            let mut pending: BTreeMap<usize, EvaluatedRows> = BTreeMap::new();
            while inserted < n {
                if let Some(rows) = pending.remove(&inserted) {
                    if result.is_ok() {
                        result = self.insert_mapping_rows(
                            &mappings[inserted],
                            rows,
                            opts.member_templates,
                        );
                    }
                    inserted += 1;
                    continue;
                }
                match rx.recv() {
                    Ok((i, rows)) => {
                        pending.insert(i, rows);
                    }
                    Err(_) => break,
                }
            }
            // Folded under this thread's open span, where the serial run's
            // evaluations sit. A worker's panic propagates, as the scope's
            // own join would propagate it.
            for handle in handles {
                match handle.join() {
                    Ok(spans) => dtr_obs::adopt_thread_spans(spans),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        if result.is_ok() && inserted < n {
            // Only reachable if a worker died without sending (a panic).
            return Err(ExchangeError::Conformance(format!(
                "parallel exchange lost {} mapping result(s)",
                n - inserted
            )));
        }
        result
    }

    /// Inserts one foreach row's exists-clause bindings into the target.
    /// `mask`, when given, restricts execution to the flagged bindings (a
    /// chain-closed set: a `Parent::Var` binding may only be flagged when
    /// its base is) — the incremental engine replays rows against a single
    /// member class this way. Returns one [`BindingTouch`] per plan
    /// binding, [`BindingTouch::SKIPPED`] for masked-out ones.
    ///
    /// Each binding's member is identified from its template and the row's
    /// slots: a merge builds nothing, and a new member's value is built
    /// once, installed by reference with `f_mp = {m}` on every node it
    /// creates, and kept as the merge-index snapshot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_row(
        &mut self,
        m: &Mapping,
        plan: &Plan,
        row: &[AtomicValue],
        templates: bool,
        shapes: &mut [Option<MemberShape>],
        stats: &mut MappingStats,
        mask: Option<&[bool]>,
    ) -> Result<Vec<BindingTouch>, ExchangeError> {
        let _span = dtr_obs::span("exchange.insert_row");
        // One source-binding fingerprint per foreach tuple; only computed
        // when the journal is capturing.
        let row_fp = dtr_obs::journal::enabled().then(|| row_fingerprint(row));
        let slots = slot_values(m, plan, row)?;

        // Insert bindings in order; remember each binding's member node.
        let mut touches: Vec<BindingTouch> = Vec::with_capacity(plan.bindings.len());
        for (bi, b) in plan.bindings.iter().enumerate() {
            if mask.is_some_and(|mk| !mk[bi]) {
                touches.push(BindingTouch::SKIPPED);
                continue;
            }
            stats.bindings += 1;
            let set_node = match &b.parent {
                Parent::Root(root, steps) => self.skeleton_set(m, root, steps, stats)?,
                Parent::Var(idx, steps) => {
                    let base = touches[*idx].member;
                    self.nested_set(m, base, b.member_elem, steps, stats)?
                }
            };
            let candidate = self.candidate(b, &slots, templates, &mut shapes[bi])?;
            let fp = (self.member_fp)(candidate.fingerprint());
            let (member, created) = match self.find_member(set_node, fp, &candidate) {
                Some(existing) => {
                    stats.rows_merged += 1;
                    if let Some(binding_fp) = row_fp {
                        dtr_obs::journal::record(
                            dtr_obs::journal::event(
                                "exchange.insert_row",
                                dtr_obs::journal::Outcome::PnfMerged {
                                    into: u64::from(existing.0),
                                },
                            )
                            .mapping(&m.name)
                            .binding(binding_fp)
                            .target(u64::from(existing.0)),
                        );
                    }
                    self.annotate_subtree(existing, m, stats);
                    (existing, false)
                }
                None => {
                    stats.rows_inserted += 1;
                    // The bucket keeps the value the member was installed
                    // from, not the node: nested-set containers are
                    // appended under a member after installation, so the
                    // live node's structure drifts from the member identity
                    // that merge confirmation must compare against.
                    let value = candidate.into_value();
                    let installed_from = self.target.len();
                    let node = self.target.push_generated_member(set_node, &value, &m.name);
                    stats.annotations_written += self.target.len() - installed_from;
                    let bucket = self.merge_index.entry((set_node, fp)).or_default();
                    let bucket_len = bucket.len();
                    bucket.push((value, node));
                    if bucket_len > 0 && dtr_obs::journal::enabled() {
                        dtr_obs::journal::record(
                            dtr_obs::journal::event(
                                "exchange.insert_row",
                                dtr_obs::journal::Outcome::CollisionSplit { fingerprint: fp },
                            )
                            .mapping(&m.name)
                            .target(u64::from(node.0))
                            .detail(format!(
                                "{bucket_len} distinct member(s) already hold this fingerprint"
                            )),
                        );
                    }
                    if let Some(binding_fp) = row_fp {
                        dtr_obs::journal::record(
                            dtr_obs::journal::event(
                                "exchange.insert_row",
                                dtr_obs::journal::Outcome::Inserted,
                            )
                            .mapping(&m.name)
                            .binding(binding_fp)
                            .target(u64::from(node.0)),
                        );
                        self.journal_installed(node, m);
                    }
                    (node, true)
                }
            };
            touches.push(BindingTouch {
                set: set_node,
                fp,
                member,
                created,
            });
        }
        Ok(touches)
    }

    /// Visits the `Parent::Root` bindings of `plan` for one foreach row
    /// without inserting anything: each binding's index, its skeleton set
    /// (`None` while absent), its merge-index fingerprint and the row's
    /// member. Built from the slot assignment, member identity and
    /// fingerprint [`Exchange::insert_row`] uses, so the incremental engine
    /// routes and replays rows exactly as insertion would.
    pub(crate) fn visit_roots(
        &self,
        m: &Mapping,
        plan: &Plan,
        row: &[AtomicValue],
        templates: bool,
        shapes: &mut [Option<MemberShape>],
        mut visit: impl FnMut(usize, Option<NodeId>, u64, &Candidate<'_>),
    ) -> Result<(), ExchangeError> {
        let slots = slot_values(m, plan, row)?;
        for (bi, (b, shape)) in plan.bindings.iter().zip(shapes).enumerate() {
            let Parent::Root(root, steps) = &b.parent else {
                continue;
            };
            let candidate = self.candidate(b, &slots, templates, shape)?;
            let fp = (self.member_fp)(candidate.fingerprint());
            let set = self.target.root(root).and_then(|r| {
                steps
                    .iter()
                    .try_fold(r, |node, label| self.target.child_by_label(node, label))
            });
            visit(bi, set, fp, &candidate);
        }
        Ok(())
    }

    /// Where one foreach row's `Parent::Root` bindings land (see
    /// [`Exchange::visit_roots`]): the live member each binding's value
    /// would merge into.
    pub(crate) fn root_members(
        &self,
        m: &Mapping,
        plan: &Plan,
        row: &[AtomicValue],
        templates: bool,
        shapes: &mut [Option<MemberShape>],
    ) -> Result<Vec<RootMember>, ExchangeError> {
        let mut out = Vec::new();
        self.visit_roots(
            m,
            plan,
            row,
            templates,
            shapes,
            |binding, set, fp, candidate| {
                let member = set.and_then(|s| self.find_member(s, fp, candidate));
                out.push(RootMember { binding, member });
            },
        )?;
        Ok(out)
    }

    /// The member binding `b` identifies from a row's slots: its compiled
    /// template (compiled into `shape` at the first row) over the slots, or
    /// the per-row reference construction's value when templates are off.
    fn candidate<'s>(
        &self,
        b: &PlanBinding,
        slots: &'s Slots<'s>,
        templates: bool,
        shape: &'s mut Option<MemberShape>,
    ) -> Result<Candidate<'s>, ExchangeError> {
        if !templates {
            let fields: Vec<(&[Step], AtomicValue)> = b
                .fields
                .iter()
                .filter_map(|(steps, c)| slots[*c].map(|v| (steps.as_slice(), v.clone())))
                .collect();
            let value = build_member_reference(self.target_schema, b.member_elem, &fields)?;
            return Ok(Candidate::Built(value));
        }
        if shape.is_none() {
            // Which slot classes carry a value is decided by the select
            // positions alone, so the first row's assignment pattern holds
            // for every row and the template compiles once.
            let live: Vec<(&[Step], usize)> = b
                .fields
                .iter()
                .filter(|(_, c)| slots[*c].is_some())
                .map(|(steps, c)| (steps.as_slice(), *c))
                .collect();
            let node = build_shape(self.target_schema, b.member_elem, &live)?;
            *shape = Some(MemberShape::new(node));
        }
        let shape = shape.as_ref().expect("template compiled above");
        Ok(Candidate::Template(shape, slots))
    }

    /// The member of `set` holding `candidate`'s value. A fingerprint hit
    /// only nominates members; the match is confirmed against the value
    /// each was installed from.
    fn find_member(&self, set: NodeId, fp: u64, candidate: &Candidate<'_>) -> Option<NodeId> {
        self.merge_index
            .get(&(set, fp))?
            .iter()
            .find(|e| candidate.matches(&e.0))
            .map(|e| e.1)
    }

    /// Ensures the skeleton chain `root / steps... / set` exists, adding the
    /// mapping annotation along it. Returns the set node.
    fn skeleton_set(
        &mut self,
        m: &Mapping,
        root: &Label,
        steps: &[Label],
        stats: &mut MappingStats,
    ) -> Result<NodeId, ExchangeError> {
        let mut elem = self.target_schema.root(root).ok_or_else(|| {
            ExchangeError::Unsupported(format!("target schema has no root `{root}`"))
        })?;
        let mut node = match self.target.root(root) {
            Some(n) => n,
            None => {
                let data = node_data_for(self.target_schema.element(elem).kind);
                self.target.push_raw(root.clone(), None, data, true)
            }
        };
        record_annotation(
            self.target.add_mapping(node, m.name.clone()),
            node,
            m,
            stats,
        );
        for label in steps {
            elem = self.target_schema.child(elem, label).ok_or_else(|| {
                ExchangeError::Unsupported(format!("no element `{label}` in skeleton path"))
            })?;
            node = match self.target.child_by_label(node, label) {
                Some(c) => c,
                None => {
                    let data = node_data_for(self.target_schema.element(elem).kind);
                    let child = self.target.push_raw(label.clone(), Some(node), data, false);
                    attach_child(&mut self.target, self.target_schema, elem, node, child);
                    child
                }
            };
            record_annotation(
                self.target.add_mapping(node, m.name.clone()),
                node,
                m,
                stats,
            );
        }
        if !matches!(self.target_schema.element(elem).kind, ElementKind::Set) {
            return Err(ExchangeError::Unsupported(format!(
                "skeleton path does not end at a set (`{root}`)",
            )));
        }
        Ok(node)
    }

    /// Ensures a nested set under an existing member node, creating record
    /// intermediates as needed. `member_elem` is the schema element of the
    /// *target* set's member; the walk starts from the member's element.
    fn nested_set(
        &mut self,
        m: &Mapping,
        base: NodeId,
        member_elem: ElementId,
        steps: &[Label],
        stats: &mut MappingStats,
    ) -> Result<NodeId, ExchangeError> {
        // The set element is the parent of its member element; the base
        // member's element sits `steps.len()` levels above it.
        let set_elem = self
            .target_schema
            .parent(member_elem)
            .expect("member element has a set parent");
        let mut cur_elem = set_elem;
        for _ in 0..steps.len() {
            cur_elem = self
                .target_schema
                .parent(cur_elem)
                .expect("schema walk stays in bounds");
        }
        let mut node = base;
        for label in steps {
            cur_elem = self.target_schema.child(cur_elem, label).ok_or_else(|| {
                ExchangeError::Unsupported(format!("no element `{label}` in nested path"))
            })?;
            node = match self.target.child_by_label(node, label) {
                Some(c) => c,
                None => {
                    let data = node_data_for(self.target_schema.element(cur_elem).kind);
                    let child = self.target.push_raw(label.clone(), Some(node), data, false);
                    attach_child(&mut self.target, self.target_schema, cur_elem, node, child);
                    child
                }
            };
            record_annotation(
                self.target.add_mapping(node, m.name.clone()),
                node,
                m,
                stats,
            );
        }
        Ok(node)
    }

    /// Adds the mapping annotation to a member subtree — the part this
    /// mapping actually generated (Definition 5.2). Nested *set containers*
    /// are annotated but their members are not: when a row merges into an
    /// existing member, the existing nested-set members were generated by
    /// other rows or mappings, and this mapping's own inner members are
    /// annotated when its nested bindings insert them.
    fn annotate_subtree(&mut self, node: NodeId, m: &Mapping, stats: &mut MappingStats) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            record_annotation(self.target.add_mapping(n, m.name.clone()), n, m, stats);
            if self.target.set_members(n).is_none() {
                stack.extend_from_slice(self.target.children(n));
            }
        }
    }

    /// Journals the annotation writes of a member installed with `f_mp =
    /// {m}`: one `AnnotationWritten` per node, in the order
    /// [`Exchange::annotate_subtree`] walks a subtree.
    fn journal_installed(&self, node: NodeId, m: &Mapping) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            journal_annotation(true, n, m);
            if self.target.set_members(n).is_none() {
                stack.extend_from_slice(self.target.children(n));
            }
        }
    }

    /// Rolls the in-flight mapping's writes back so the target holds
    /// exactly the mappings that completed: truncates the arena to the
    /// pre-mapping snapshot, prunes merge-index entries that point at
    /// discarded nodes, and strips this mapping's `f_mp` annotations from
    /// the surviving nodes (each mapping runs once per exchange, so the
    /// name identifies exactly its writes). O(target) — paid only on abort.
    fn rollback_mapping(&mut self, m: &Mapping, len: usize) {
        self.target.truncate(len);
        self.merge_index.retain(|&(set, _), bucket| {
            if set.index() >= len {
                return false;
            }
            bucket.retain(|&(_, node)| node.index() < len);
            !bucket.is_empty()
        });
        for i in 0..len {
            self.target.remove_mapping(NodeId(i as u32), &m.name);
        }
    }

    /// Folds a guard trip into the structured exchange error, journaling
    /// the `guard_abort` outcome against the aborted mapping.
    fn guard_abort(&self, m: &Mapping, g: GuardError) -> ExchangeError {
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(
                dtr_obs::journal::event(
                    "exchange.guard_abort",
                    dtr_obs::journal::Outcome::GuardAbort {
                        resource: g.resource.name(),
                    },
                )
                .mapping(&m.name)
                .detail(g.to_string()),
            );
        }
        ExchangeError::Guard {
            error: g,
            mappings_completed: self.report.per_mapping.len(),
        }
    }

    /// Finishes the exchange: computes element annotations (conformance
    /// check included) and returns the annotated target instance plus a
    /// report.
    pub fn finish(mut self) -> Result<(Instance, ExchangeReport), ExchangeError> {
        let span = dtr_obs::span("exchange.annotate_elements").field("nodes", self.target.len());
        self.target
            .annotate_elements(self.target_schema)
            .map_err(|e| ExchangeError::Conformance(e.to_string()))?;
        drop(span);
        Ok((self.target, self.report))
    }
}

/// Assigns a foreach row's select positions to the plan's slot classes,
/// borrowing each value from the row; two positions giving one slot
/// different values is a conflict.
fn slot_values<'r>(
    m: &Mapping,
    plan: &Plan,
    row: &'r [AtomicValue],
) -> Result<Vec<Option<&'r AtomicValue>>, ExchangeError> {
    let mut slots: Vec<Option<&AtomicValue>> = vec![None; plan.n_classes];
    for (value, &c) in row.iter().zip(&plan.select_classes) {
        match slots[c] {
            None => slots[c] = Some(value),
            Some(prev) if prev == value => {}
            Some(prev) => {
                return Err(ExchangeError::Conflict(format!(
                    "mapping {}: positions assign `{prev}` and `{value}` to one slot",
                    m.name
                )))
            }
        }
    }
    Ok(slots)
}

/// Folds one `Instance::add_mapping` outcome into the per-mapping stats and
/// journals the annotation decision against the target node.
fn record_annotation(newly_written: bool, node: NodeId, m: &Mapping, stats: &mut MappingStats) {
    if newly_written {
        stats.annotations_written += 1;
    } else {
        stats.annotations_suppressed += 1;
    }
    journal_annotation(newly_written, node, m);
}

/// Journals one annotation decision against the target node.
fn journal_annotation(newly_written: bool, node: NodeId, m: &Mapping) {
    if dtr_obs::journal::enabled() {
        let outcome = if newly_written {
            dtr_obs::journal::Outcome::AnnotationWritten
        } else {
            dtr_obs::journal::Outcome::AnnotationSuppressed {
                reason: "already-present",
            }
        };
        dtr_obs::journal::record(
            dtr_obs::journal::event("exchange.annotate", outcome)
                .mapping(&m.name)
                .target(u64::from(node.0)),
        );
    }
}

pub(crate) fn node_data_for(kind: ElementKind) -> NodeData {
    match kind {
        ElementKind::Record => NodeData::Record(Vec::new()),
        ElementKind::Set => NodeData::Set(Vec::new()),
        ElementKind::Choice => NodeData::Choice(None),
        ElementKind::Atomic(_) => NodeData::Atomic(AtomicValue::str("")),
    }
}

/// Attaches a skeleton child at its schema position: chain children keep
/// the target schema's element order regardless of which mapping — or
/// which incremental batch — created them first, so the layout is a pure
/// function of the populated paths.
fn attach_child(
    inst: &mut Instance,
    schema: &Schema,
    elem: ElementId,
    parent: NodeId,
    child: NodeId,
) {
    let order: Vec<&Label> = match schema.parent(elem) {
        Some(p) => schema
            .element(p)
            .children
            .iter()
            .map(|&c| &schema.element(c).label)
            .collect(),
        None => Vec::new(),
    };
    let rank = |label: &Label| order.iter().position(|&l| l == label).unwrap_or(usize::MAX);
    let r = rank(inst.label(child));
    let mut kids: Vec<NodeId> = inst.children(parent).to_vec();
    let at = kids
        .iter()
        .position(|&k| rank(inst.label(k)) > r)
        .unwrap_or(kids.len());
    kids.insert(at, child);
    inst.replace_children(parent, kids);
}

/// One mapping's evaluated foreach rows, the evaluator's stats, and the
/// wall time spent evaluating and converting them, as handed from the
/// (possibly worker-side) eval stage to the single-writer insert stage.
type EvaluatedRows = Result<(Vec<Vec<AtomicValue>>, EvalStats, u64), ExchangeError>;

/// Evaluates one mapping's foreach query over the sources. Free-standing so
/// parallel workers can run it without borrowing the (mutable) engine.
pub(crate) fn eval_foreach(
    sources: &[Source<'_>],
    functions: &FunctionRegistry,
    m: &Mapping,
    opts: EvalOptions,
) -> EvaluatedRows {
    let started = std::time::Instant::now();
    let catalog = Catalog::new(sources.to_vec());
    let result = Evaluator::new(&catalog, functions)
        .with_options(opts)
        .run(&m.foreach)?;
    let stats = result.stats;
    let rows = result.into_tuples();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok((rows, stats, ns))
}

/// Executes a set of mappings over the sources and returns the annotated
/// target instance (Section 4.3 + Section 7.2 in one call).
pub fn execute_mappings(
    sources: &[Source<'_>],
    target_schema: &Schema,
    mappings: &[Mapping],
    functions: &FunctionRegistry,
) -> Result<(Instance, ExchangeReport), ExchangeError> {
    execute_mappings_with(
        sources,
        target_schema,
        mappings,
        functions,
        &ExchangeOptions::default(),
    )
}

/// [`execute_mappings`] with explicit exchange options (evaluator engine
/// selection and parallel foreach evaluation).
pub fn execute_mappings_with(
    sources: &[Source<'_>],
    target_schema: &Schema,
    mappings: &[Mapping],
    functions: &FunctionRegistry,
    opts: &ExchangeOptions,
) -> Result<(Instance, ExchangeReport), ExchangeError> {
    let _span = dtr_obs::span("exchange.execute_mappings").field("mappings", mappings.len());
    let mut engine = Exchange::new(sources.to_vec(), target_schema, functions);
    engine.run_mappings(mappings, opts)?;
    engine.finish()
}

/// The worker count a parallel run of `n` mappings would use: the explicit
/// cap, or one per available core when the cap is `0`, never exceeding the
/// mapping count.
fn resolved_workers(opts: &ExchangeOptions, n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let w = if opts.workers == 0 { hw } else { opts.workers };
    w.min(n).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{
        agent, eu_instance, eu_schema, figure1_mappings, house, portal_schema, us_instance,
        us_schema,
    };
    use dtr_model::types::{AtomicType, Type};
    use dtr_model::value::MappingName;

    fn run_exchange() -> (Schema, Instance, ExchangeReport) {
        let us_s = us_schema();
        let eu_s = eu_schema();
        let p_s = portal_schema();
        let us_i = us_instance();
        let eu_i = eu_instance();
        let funcs = FunctionRegistry::with_builtins();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        let (inst, report) = execute_mappings(&sources, &p_s, &figure1_mappings(), &funcs).unwrap();
        (p_s, inst, report)
    }

    #[test]
    fn exchange_reproduces_figure_3() {
        let (schema, inst, report) = run_exchange();
        // m1 retrieves the Smith house, m2 the HomeGain house, m3 the EU
        // posting.
        assert_eq!(report.per_mapping.len(), 3);
        for s in &report.per_mapping {
            assert_eq!(s.tuples, 1);
        }
        let estates = schema.resolve_path("/Portal/estates").unwrap();
        let member_elem = schema.set_member(estates).unwrap();
        assert_eq!(inst.interpretation(member_elem).len(), 3);
        // The HomeGain contact is shared by m2 and m3 (Figure 3's union).
        let title_elem = schema.resolve_path("/Portal/contacts/title").unwrap();
        let titles = inst.interpretation(title_elem);
        let homegain = titles
            .iter()
            .copied()
            .find(|&n| inst.atomic(n).unwrap().as_str() == Some("HomeGain"))
            .unwrap();
        let anns: Vec<&str> = inst
            .annotation(homegain)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(anns, ["m2", "m3"]);
        // The contacts set itself merged the two identical records.
        let contacts = schema.resolve_path("/Portal/contacts").unwrap();
        let contacts_node = inst.interpretation(contacts)[0];
        assert_eq!(inst.set_members(contacts_node).unwrap().len(), 2);
    }

    #[test]
    fn skeleton_annotated_with_all_mappings() {
        let (_, inst, _) = run_exchange();
        let portal = inst.root("Portal").unwrap();
        let anns: Vec<&str> = inst
            .annotation(portal)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(anns, ["m1", "m2", "m3"]);
    }

    #[test]
    fn join_condition_respected() {
        let (schema, inst, _) = run_exchange();
        // Every estate's contact equals some contact's title.
        let estates_set = inst.interpretation(schema.resolve_path("/Portal/estates").unwrap())[0];
        let contacts_set = inst.interpretation(schema.resolve_path("/Portal/contacts").unwrap())[0];
        let titles: Vec<String> = inst
            .set_members(contacts_set)
            .unwrap()
            .iter()
            .map(|&c| {
                inst.atomic(inst.child_by_label(c, "title").unwrap())
                    .unwrap()
                    .to_string()
            })
            .collect();
        for &e in inst.set_members(estates_set).unwrap() {
            let contact = inst
                .atomic(inst.child_by_label(e, "contact").unwrap())
                .unwrap()
                .to_string();
            assert!(titles.contains(&contact));
        }
    }

    #[test]
    fn mapping_satisfaction_after_exchange() {
        // ∀t ∈ Qs(Is) ⇒ t ∈ Qt(It) — check via the satisfy module.
        let us_s = us_schema();
        let eu_s = eu_schema();
        let (p_s, inst, _) = run_exchange();
        let us_i = us_instance();
        let eu_i = eu_instance();
        let funcs = FunctionRegistry::with_builtins();
        for m in figure1_mappings() {
            let sat = crate::satisfy::is_satisfied(
                &m,
                &[
                    Source {
                        schema: &us_s,
                        instance: &us_i,
                    },
                    Source {
                        schema: &eu_s,
                        instance: &eu_i,
                    },
                ],
                Source {
                    schema: &p_s,
                    instance: &inst,
                },
                &funcs,
            )
            .unwrap();
            assert!(sat, "mapping {} not satisfied", m.name);
        }
    }

    #[test]
    fn duplicate_tuples_merge_idempotently() {
        // Running the same mapping twice must not duplicate members.
        let us_s = us_schema();
        let p_s = portal_schema();
        let us_i = us_instance();
        let funcs = FunctionRegistry::with_builtins();
        let m = &figure1_mappings()[1];
        let mut engine = Exchange::new(
            vec![Source {
                schema: &us_s,
                instance: &us_i,
            }],
            &p_s,
            &funcs,
        );
        engine
            .run_mappings(&[m.clone(), m.clone()], &ExchangeOptions::default())
            .unwrap();
        let (inst, _) = engine.finish().unwrap();
        let estates = inst.interpretation(p_s.resolve_path("/Portal/estates").unwrap())[0];
        assert_eq!(inst.set_members(estates).unwrap().len(), 1);
    }

    #[test]
    fn nested_target_sets_supported() {
        // Copy EU postings (with nested agents) into an EU-shaped target.
        let eu_s = eu_schema();
        let tgt_s = Schema::build(
            "Copy",
            vec![(
                "Out",
                Type::record(vec![(
                    "posts",
                    Type::set(Type::record(vec![
                        ("hid", Type::string()),
                        (
                            "people",
                            Type::set(Type::record(vec![("who", Type::string())])),
                        ),
                    ])),
                )]),
            )],
        )
        .unwrap();
        let eu_i = eu_instance();
        let m = Mapping::parse(
            "mc",
            "foreach select p.hid, a.agentName from EU.postings p, p.agents a
             exists select q.hid, w.who from Out.posts q, q.people w",
        )
        .unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let (inst, _) = execute_mappings(
            &[Source {
                schema: &eu_s,
                instance: &eu_i,
            }],
            &tgt_s,
            &[m],
            &funcs,
        )
        .unwrap();
        let posts = inst.interpretation(tgt_s.resolve_path("/Out/posts").unwrap())[0];
        let members = inst.set_members(posts).unwrap();
        assert_eq!(members.len(), 1);
        let people = inst.child_by_label(members[0], "people").unwrap();
        assert_eq!(inst.set_members(people).unwrap().len(), 1);
        let who = inst
            .child_by_label(inst.set_members(people).unwrap()[0], "who")
            .unwrap();
        assert_eq!(inst.atomic(who).unwrap().as_str(), Some("HomeGain"));
    }

    #[test]
    fn unsupported_exists_conditions_rejected() {
        let us_s = us_schema();
        let p_s = portal_schema();
        let us_i = us_instance();
        let funcs = FunctionRegistry::with_builtins();
        let m = Mapping::parse(
            "bad",
            "foreach select h.hid from US.houses h
             exists select e.hid from Portal.estates e where e.hid > e.contact",
        )
        .unwrap();
        let err = execute_mappings(
            &[Source {
                schema: &us_s,
                instance: &us_i,
            }],
            &p_s,
            &[m],
            &funcs,
        )
        .unwrap_err();
        assert!(matches!(err, ExchangeError::Unsupported(_)));
    }

    #[test]
    fn choice_targets_supported() {
        // A mapping populating a union-typed target element through a
        // choice step in its exists select clause.
        let src = Schema::build(
            "S",
            vec![(
                "R",
                Type::relation(vec![
                    ("name", AtomicType::String),
                    ("firm", AtomicType::String),
                ]),
            )],
        )
        .unwrap();
        let tgt = Schema::build(
            "T",
            vec![(
                "Q",
                Type::set(Type::record(vec![
                    ("who", Type::string()),
                    (
                        "title",
                        Type::choice(vec![("firm", Type::string()), ("person", Type::string())]),
                    ),
                ])),
            )],
        )
        .unwrap();
        let mut inst = Instance::new("S");
        inst.install_root(
            "R",
            Value::set(vec![Value::record(vec![
                ("name", Value::str("Ann")),
                ("firm", Value::str("Acme")),
            ])]),
        );
        inst.annotate_elements(&src).unwrap();
        let m = Mapping::parse(
            "mc",
            "foreach select r.name, r.firm from R r
             exists select q.who, q.title->firm from Q q",
        )
        .unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let (out, _) = execute_mappings(
            &[Source {
                schema: &src,
                instance: &inst,
            }],
            &tgt,
            &[m],
            &funcs,
        )
        .unwrap();
        let member = out.set_members(out.root("Q").unwrap()).unwrap()[0];
        let title = out.child_by_label(member, "title").unwrap();
        let (alt, leaf) = out.choice_selection(title).unwrap();
        assert_eq!(alt, "firm");
        assert_eq!(out.atomic(leaf).unwrap().as_str(), Some("Acme"));
    }

    #[test]
    fn conflicting_assignment_detected() {
        // Two select positions feed the same target slot with different
        // values.
        let src = Schema::build(
            "S",
            vec![(
                "R",
                Type::relation(vec![("a", AtomicType::String), ("b", AtomicType::String)]),
            )],
        )
        .unwrap();
        let tgt = Schema::build(
            "T",
            vec![("Q", Type::relation(vec![("x", AtomicType::String)]))],
        )
        .unwrap();
        let mut inst = Instance::new("S");
        inst.install_root(
            "R",
            Value::set(vec![Value::record(vec![
                ("a", Value::str("1")),
                ("b", Value::str("2")),
            ])]),
        );
        inst.annotate_elements(&src).unwrap();
        let m = Mapping::parse(
            "bad",
            "foreach select r.a, r.b from R r
             exists select q.x, q.x from Q q",
        )
        .unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let err = execute_mappings(
            &[Source {
                schema: &src,
                instance: &inst,
            }],
            &tgt,
            &[m],
            &funcs,
        )
        .unwrap_err();
        assert!(matches!(err, ExchangeError::Conflict(_)), "{err}");
    }

    #[test]
    fn empty_sources_yield_queryable_empty_target() {
        // Regression: roots are pre-created so the target stays queryable.
        let src = us_schema();
        let tgt = portal_schema();
        let mut inst = Instance::new("USdb");
        inst.install_root(
            "US",
            Value::record(vec![
                ("houses", Value::set(vec![])),
                ("agents", Value::set(vec![])),
            ]),
        );
        inst.annotate_elements(&src).unwrap();
        let funcs = FunctionRegistry::with_builtins();
        let (out, report) = execute_mappings(
            &[Source {
                schema: &src,
                instance: &inst,
            }],
            &tgt,
            &[figure1_mappings()[0].clone()],
            &funcs,
        )
        .unwrap();
        assert_eq!(report.per_mapping[0].tuples, 0);
        assert!(out.root("Portal").is_some());
    }

    #[test]
    fn report_counts_tuples() {
        let (_, _, report) = run_exchange();
        let names: Vec<&str> = report
            .per_mapping
            .iter()
            .map(|s| s.mapping.as_str())
            .collect();
        assert_eq!(names, ["m1", "m2", "m3"]);
    }

    #[test]
    fn mapping_annotations_only_on_contributing_values() {
        let (schema, inst, _) = run_exchange();
        // The Smith contact was created only by m1.
        let title_elem = schema.resolve_path("/Portal/contacts/title").unwrap();
        let smith = inst
            .interpretation(title_elem)
            .into_iter()
            .find(|&n| inst.atomic(n).unwrap().as_str() == Some("Smith"))
            .unwrap();
        let anns: Vec<&str> = inst
            .annotation(smith)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(anns, ["m1"]);
        assert_eq!(
            inst.annotation(smith).element,
            Some(title_elem),
            "element annotation must point at /Portal/contacts/title"
        );
        let _ = MappingName::new("x");
    }

    #[test]
    fn exchange_shares_source_strings_and_mapping_names() {
        let (us_s, eu_s, p_s) = (us_schema(), eu_schema(), portal_schema());
        let (us_i, eu_i) = (us_instance(), eu_instance());
        let funcs = FunctionRegistry::with_builtins();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        let mappings = figure1_mappings();
        let (inst, _) = execute_mappings(&sources, &p_s, &mappings, &funcs).unwrap();

        // The target's H522 holds the source's bytes, not a copy of them.
        let h522 = |inst: &Instance, schema: &Schema, path: &str| {
            let hids = inst.interpretation(schema.resolve_path(path).unwrap());
            let node = hids
                .into_iter()
                .find(|&n| inst.atomic(n).unwrap().as_str() == Some("H522"))
                .unwrap();
            inst.atomic(node).unwrap().as_str().unwrap().as_ptr()
        };
        assert_eq!(
            h522(&inst, &p_s, "/Portal/estates/hid"),
            h522(&us_i, &us_s, "/US/houses/hid")
        );

        // Every node m1 annotates holds the mapping's own name.
        let m1 = &mappings[0].name;
        assert_eq!(m1.as_str(), "m1");
        let portal = inst.root("Portal").unwrap();
        let title = p_s.resolve_path("/Portal/contacts/title").unwrap();
        let annotated: Vec<NodeId> = std::iter::once(portal)
            .chain(inst.interpretation_by(title, m1))
            .collect();
        assert!(annotated.len() >= 2);
        for n in annotated {
            let name = inst.annotation(n).mappings.iter().find(|m| *m == m1);
            assert_eq!(name.unwrap().as_str().as_ptr(), m1.as_str().as_ptr());
        }
    }

    #[test]
    fn fingerprint_collision_splits_instead_of_merging() {
        // A fingerprint hit must be confirmed structurally: plant a decoy
        // value in the merge index under the exact fingerprint m2's
        // HomeGain contact will hash to, and check the engine refuses the
        // merge (the old fingerprint-only index would have folded HomeGain
        // into the decoy's node).
        let us_s = us_schema();
        let p_s = portal_schema();
        let us_i = us_instance();
        let funcs = FunctionRegistry::with_builtins();
        let mappings = figure1_mappings();
        let opts = ExchangeOptions::default();
        let mut engine = Exchange::new(
            vec![Source {
                schema: &us_s,
                instance: &us_i,
            }],
            &p_s,
            &funcs,
        );
        engine.run_mappings(&mappings[..1], &opts).unwrap(); // m1: Smith house + contact
        let portal = engine.target.root("Portal").unwrap();
        let contacts_set = engine.target.child_by_label(portal, "contacts").unwrap();
        let smith = engine.target.set_members(contacts_set).unwrap()[0];
        let homegain = Value::record(vec![
            ("title", Value::str("HomeGain")),
            ("phone", Value::str("18009468501")),
        ]);
        let fp = member_fingerprint(&homegain);
        let decoy = Value::record(vec![
            ("title", Value::str("Decoy")),
            ("phone", Value::str("000")),
        ]);
        engine
            .merge_index
            .entry((contacts_set, fp))
            .or_default()
            .push((decoy, smith));
        engine.run_mappings(&mappings[1..2], &opts).unwrap(); // m2: HomeGain
        let bucket = &engine.merge_index[&(contacts_set, fp)];
        assert_eq!(bucket.len(), 2, "collision must split the bucket");
        // Re-running m2 must still merge: equality confirmation finds the
        // HomeGain entry even inside the collided bucket.
        engine.run_mappings(&mappings[1..2], &opts).unwrap();
        let rerun = engine.report.per_mapping.last().unwrap();
        assert_eq!(rerun.rows_inserted, 0);
        assert!(rerun.rows_merged > 0);
        let (inst, _) = engine.finish().unwrap();
        let contacts = inst.interpretation(p_s.resolve_path("/Portal/contacts").unwrap())[0];
        let titles: Vec<String> = inst
            .set_members(contacts)
            .unwrap()
            .iter()
            .map(|&c| {
                inst.atomic(inst.child_by_label(c, "title").unwrap())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(titles, ["Smith", "HomeGain"]);
    }

    fn full_sources() -> (Schema, Schema, Instance, Instance) {
        let us_s = us_schema();
        let eu_s = eu_schema();
        let us_i = us_instance();
        let eu_i = eu_instance();
        (us_s, eu_s, us_i, eu_i)
    }

    #[test]
    fn parallel_exchange_matches_serial() {
        use dtr_model::display::{render_instance, RenderOptions};
        let (us_s, eu_s, us_i, eu_i) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        let (serial, rep_s) =
            execute_mappings(&sources, &p_s, &figure1_mappings(), &funcs).unwrap();
        let opts = ExchangeOptions {
            parallel: true,
            // Explicit cap so the threaded path runs even on one core.
            workers: 2,
            ..ExchangeOptions::default()
        };
        let (par, rep_p) =
            execute_mappings_with(&sources, &p_s, &figure1_mappings(), &funcs, &opts).unwrap();
        let render = |inst: &Instance| {
            render_instance(
                inst,
                Some(&p_s),
                RenderOptions {
                    show_elements: true,
                    show_mappings: true,
                },
            )
        };
        assert_eq!(render(&serial), render(&par));
        assert_eq!(rep_s.per_mapping.len(), rep_p.per_mapping.len());
        for (a, b) in rep_s.per_mapping.iter().zip(&rep_p.per_mapping) {
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.tuples, b.tuples);
            assert_eq!(a.bindings, b.bindings);
            assert_eq!(a.rows_inserted, b.rows_inserted);
            assert_eq!(a.rows_merged, b.rows_merged);
            assert_eq!(a.annotations_written, b.annotations_written);
            assert_eq!(a.annotations_suppressed, b.annotations_suppressed);
        }
    }

    /// The compiled member templates must reproduce the per-row reference
    /// construction byte for byte — same instance, same decisions.
    #[test]
    fn member_templates_match_reference_construction() {
        use dtr_model::display::{render_instance, RenderOptions};
        let (us_s, eu_s, us_i, eu_i) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        let (templated, rep_t) =
            execute_mappings(&sources, &p_s, &figure1_mappings(), &funcs).unwrap();
        let opts = ExchangeOptions {
            member_templates: false,
            ..ExchangeOptions::default()
        };
        let (reference, rep_r) =
            execute_mappings_with(&sources, &p_s, &figure1_mappings(), &funcs, &opts).unwrap();
        let render = |inst: &Instance| {
            render_instance(
                inst,
                Some(&p_s),
                RenderOptions {
                    show_elements: true,
                    show_mappings: true,
                },
            )
        };
        assert_eq!(render(&templated), render(&reference));
        assert_eq!(rep_t.per_mapping.len(), rep_r.per_mapping.len());
        for (a, b) in rep_t.per_mapping.iter().zip(&rep_r.per_mapping) {
            assert_eq!((&a.mapping, a.tuples), (&b.mapping, b.tuples));
            assert_eq!(a.rows_inserted, b.rows_inserted);
            assert_eq!(a.rows_merged, b.rows_merged);
            assert_eq!(a.annotations_written, b.annotations_written);
            assert_eq!(a.annotations_suppressed, b.annotations_suppressed);
        }
    }

    /// Builds every member the exchange of `mappings` builds, and checks
    /// each template's identity against its filled value: the template
    /// fingerprint is `member_fingerprint` of the value, the value is the
    /// reference construction's, and template confirmation agrees with
    /// `==` against every distinct member of the same element built so
    /// far, by any mapping. Returns how many members it checked.
    fn check_template_identity(
        sources: &[Source<'_>],
        target: &Schema,
        mappings: &[Mapping],
    ) -> usize {
        let funcs = FunctionRegistry::with_builtins();
        let engine = Exchange::new(sources.to_vec(), target, &funcs);
        let mut built: HashMap<ElementId, Vec<Value>> = HashMap::new();
        let mut checked = 0;
        for m in mappings {
            let plan = plan_exists(m, target).unwrap();
            let (rows, _, _) = eval_foreach(sources, &funcs, m, EvalOptions::default()).unwrap();
            let mut shapes: Vec<Option<MemberShape>> = Vec::new();
            shapes.resize_with(plan.bindings.len(), || None);
            for row in &rows {
                let slots = slot_values(m, &plan, row).unwrap();
                for (b, shape) in plan.bindings.iter().zip(&mut shapes) {
                    let Candidate::Template(shape, slots) =
                        engine.candidate(b, &slots, true, shape).unwrap()
                    else {
                        panic!("templates on must give a template");
                    };
                    let value = shape.fill(slots);
                    assert_eq!(shape.fingerprint(slots), member_fingerprint(&value));
                    let Candidate::Built(reference) =
                        engine.candidate(b, slots, false, &mut None).unwrap()
                    else {
                        panic!("templates off must build the value");
                    };
                    assert_eq!(value, reference, "mapping {}", m.name);
                    let others = built.entry(b.member_elem).or_default();
                    for other in others.iter() {
                        assert_eq!(
                            shape.matches(slots, other),
                            value == *other,
                            "mapping {}: {value:?} against {other:?}",
                            m.name
                        );
                    }
                    assert!(shape.matches(slots, &value));
                    // A record that differs only in a field's label is
                    // another member.
                    if let Value::Record(fields) = &value {
                        let mut relabeled = fields.clone();
                        relabeled[0].0 = Label::from("relabeled");
                        assert!(!shape.matches(slots, &Value::Record(relabeled)));
                    }
                    if !others.contains(&value) {
                        others.push(value);
                    }
                    checked += 1;
                }
            }
        }
        checked
    }

    #[test]
    fn template_identity_agrees_with_built_values() {
        let (us_s, eu_s, us_i, eu_i) = full_sources();
        let p_s = portal_schema();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        assert!(check_template_identity(&sources, &p_s, &figure1_mappings()) > 0);

        // Members that differ only in a choice's alternative, a shared
        // field (one slot class feeding two leaves), duplicate rows and a
        // nested set under a merged member.
        let src = Schema::build(
            "S",
            vec![(
                "R",
                Type::relation(vec![
                    ("name", AtomicType::String),
                    ("firm", AtomicType::String),
                    ("person", AtomicType::String),
                ]),
            )],
        )
        .unwrap();
        let tgt = Schema::build(
            "T",
            vec![(
                "Q",
                Type::set(Type::record(vec![
                    ("who", Type::string()),
                    (
                        "title",
                        Type::choice(vec![("firm", Type::string()), ("person", Type::string())]),
                    ),
                    (
                        "notes",
                        Type::set(Type::record(vec![("note", Type::string())])),
                    ),
                ])),
            )],
        )
        .unwrap();
        let row = |name: &str, firm: &str, person: &str| {
            Value::record(vec![
                ("name", Value::str(name)),
                ("firm", Value::str(firm)),
                ("person", Value::str(person)),
            ])
        };
        let mut inst = Instance::new("S");
        inst.install_root(
            "R",
            Value::set(vec![
                row("Ann", "Acme", "Acme"),
                row("Ann", "Acme", "Acme"),
                row("Bob", "Acme", "Bob"),
                row("Cy", "Zed", "Ann"),
            ]),
        );
        inst.annotate_elements(&src).unwrap();
        let parse = |name: &str, text: &str| Mapping::parse(name, text).unwrap();
        let mappings = [
            parse(
                "firm",
                "foreach select r.name, r.firm from R r
                 exists select q.who, q.title->firm from Q q",
            ),
            parse(
                "person",
                "foreach select r.name, r.person from R r
                 exists select q.who, q.title->person from Q q",
            ),
            parse(
                "self",
                "foreach select r.name from R r
                 exists select q.who from Q q where q.who = q.title->person",
            ),
            parse(
                "noted",
                "foreach select r.name, r.firm, r.person from R r
                 exists select q.who, q.title->firm, n.note from Q q, q.notes n",
            ),
        ];
        let sources = [Source {
            schema: &src,
            instance: &inst,
        }];
        let checked = check_template_identity(&sources, &tgt, &mappings);
        assert_eq!(checked, 20, "four rows, five bindings per row");
    }

    #[test]
    fn parallel_exchange_reports_first_error_in_mapping_order() {
        let (us_s, _, us_i, _) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = [Source {
            schema: &us_s,
            instance: &us_i,
        }];
        let bad = Mapping::parse(
            "bad",
            "foreach select h.hid from US.houses h
             exists select e.hid from Portal.estates e where e.hid > e.contact",
        )
        .unwrap();
        let mappings = vec![
            figure1_mappings()[0].clone(),
            bad,
            figure1_mappings()[1].clone(),
        ];
        let serial = execute_mappings(&sources, &p_s, &mappings, &funcs).unwrap_err();
        let opts = ExchangeOptions {
            parallel: true,
            // Explicit cap so the threaded path runs even on one core.
            workers: 2,
            ..ExchangeOptions::default()
        };
        let par = execute_mappings_with(&sources, &p_s, &mappings, &funcs, &opts).unwrap_err();
        assert_eq!(serial, par);
    }

    // ---- Guard semantics (PR 5): abort, rollback, serial ≡ parallel. ----

    /// Values plus per-node mapping annotations — node ids included, so two
    /// equal snapshots mean the arenas are structurally identical.
    fn snapshot(inst: &Instance) -> String {
        let mut out = String::new();
        for &r in inst.roots() {
            out.push_str(&format!("{:?}\n", inst.to_value(r)));
        }
        for i in 0..inst.len() {
            let ann = inst.annotation(NodeId(i as u32));
            let maps: Vec<&str> = ann.mappings.iter().map(|m| m.as_str()).collect();
            out.push_str(&format!("{i}: {maps:?}\n"));
        }
        out
    }

    fn guard_of(e: &ExchangeError) -> (&dtr_obs::guard::GuardError, usize) {
        match e {
            ExchangeError::Guard {
                error,
                mappings_completed,
            } => (error, *mappings_completed),
            other => panic!("expected a guard error, got: {other}"),
        }
    }

    #[test]
    fn zero_deadline_aborts_before_any_insert() {
        use dtr_obs::guard::{Budget, Resource};
        let (us_s, _, us_i, _) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = vec![Source {
            schema: &us_s,
            instance: &us_i,
        }];
        let budget = Budget {
            deadline: Some(std::time::Duration::ZERO),
            ..Budget::default()
        };
        let mut engine = Exchange::new(sources.clone(), &p_s, &funcs);
        let opts = ExchangeOptions {
            budget,
            ..ExchangeOptions::default()
        };
        let err = engine
            .run_mappings(&figure1_mappings()[..1], &opts)
            .unwrap_err();
        let (g, completed) = guard_of(&err);
        assert_eq!(g.resource, Resource::Deadline);
        assert_eq!(completed, 0);
        let (inst, report) = engine.finish().unwrap();
        assert!(report.per_mapping.is_empty());
        let (empty, _) = Exchange::new(sources, &p_s, &funcs).finish().unwrap();
        assert_eq!(snapshot(&inst), snapshot(&empty));
    }

    #[test]
    fn preset_cancel_aborts_before_any_insert() {
        use dtr_obs::guard::{Budget, Resource};
        let (us_s, _, us_i, _) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = vec![Source {
            schema: &us_s,
            instance: &us_i,
        }];
        let budget = Budget::default();
        budget.request_cancel();
        let mut engine = Exchange::new(sources.clone(), &p_s, &funcs);
        let opts = ExchangeOptions {
            budget,
            ..ExchangeOptions::default()
        };
        let err = engine
            .run_mappings(&figure1_mappings()[..1], &opts)
            .unwrap_err();
        let (g, _) = guard_of(&err);
        assert_eq!(g.resource, Resource::Cancelled);
        let (inst, report) = engine.finish().unwrap();
        assert!(report.per_mapping.is_empty());
        let (empty, _) = Exchange::new(sources, &p_s, &funcs).finish().unwrap();
        assert_eq!(snapshot(&inst), snapshot(&empty));
    }

    #[test]
    fn row_budget_rolls_back_a_half_inserted_mapping() {
        use dtr_obs::guard::{Budget, Resource};
        // Two firm-titled houses make m2's foreach yield two rows: the
        // first is inserted, the second trips `max_rows = 1`, and the
        // insert must be rolled back — no half-written mapping survives.
        let us_s = us_schema();
        let mut us_i = Instance::new("USdb");
        us_i.install_root(
            "US",
            Value::record(vec![
                (
                    "houses",
                    Value::set(vec![
                        house("H1", "2", "500K", "a2"),
                        house("H2", "2", "500K", "a2"),
                    ]),
                ),
                (
                    "agents",
                    Value::set(vec![agent("a2", "firm", "HomeGain", "18009468501")]),
                ),
            ]),
        );
        us_i.annotate_elements(&us_s).unwrap();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = vec![Source {
            schema: &us_s,
            instance: &us_i,
        }];
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let opts = ExchangeOptions {
            budget,
            // The foreach stage gets a budget of its own that never trips,
            // so the trip happens while inserting, after the first row.
            eval: EvalOptions {
                budget: Budget {
                    max_rows: Some(u64::MAX),
                    ..Budget::default()
                },
                ..EvalOptions::default()
            },
            ..ExchangeOptions::default()
        };
        let mut engine = Exchange::new(sources.clone(), &p_s, &funcs);
        let err = engine
            .run_mappings(&figure1_mappings()[1..2], &opts)
            .unwrap_err();
        let (g, completed) = guard_of(&err);
        assert_eq!(g.resource, Resource::Rows);
        assert_eq!(g.limit, 1);
        assert_eq!(g.progress.rows, 2);
        assert_eq!(completed, 0);
        let (inst, report) = engine.finish().unwrap();
        assert!(report.per_mapping.is_empty());
        let (empty, _) = Exchange::new(sources, &p_s, &funcs).finish().unwrap();
        assert_eq!(snapshot(&inst), snapshot(&empty));
        assert!(!snapshot(&inst).contains("m2"));
    }

    #[test]
    fn completed_mappings_survive_a_later_guard_abort() {
        use dtr_obs::guard::{Budget, Resource};
        // m1 (one row) fits the budget; m2's single row pushes the
        // cumulative count to 2 > 1 and aborts. The m1 prefix must be
        // exactly what an m1-only exchange produces.
        let (us_s, _, us_i, _) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = vec![Source {
            schema: &us_s,
            instance: &us_i,
        }];
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let ms = figure1_mappings();
        let opts = ExchangeOptions {
            budget,
            ..ExchangeOptions::default()
        };
        let mut engine = Exchange::new(sources.clone(), &p_s, &funcs);
        let err = engine.run_mappings(&ms[..2], &opts).unwrap_err();
        let (g, completed) = guard_of(&err);
        assert_eq!(g.resource, Resource::Rows);
        assert_eq!(completed, 1);
        let (inst, report) = engine.finish().unwrap();
        let counts: Vec<(&str, usize)> = report
            .per_mapping
            .iter()
            .map(|s| (s.mapping.as_str(), s.tuples))
            .collect();
        assert_eq!(counts, [("m1", 1)]);
        let mut only_m1 = Exchange::new(sources, &p_s, &funcs);
        only_m1
            .run_mappings(&ms[..1], &ExchangeOptions::default())
            .unwrap();
        let (expected, _) = only_m1.finish().unwrap();
        assert_eq!(snapshot(&inst), snapshot(&expected));
    }

    #[test]
    fn parallel_and_serial_return_the_same_guard_error() {
        use dtr_obs::guard::Budget;
        let (us_s, eu_s, us_i, eu_i) = full_sources();
        let p_s = portal_schema();
        let funcs = FunctionRegistry::with_builtins();
        let sources = [
            Source {
                schema: &us_s,
                instance: &us_i,
            },
            Source {
                schema: &eu_s,
                instance: &eu_i,
            },
        ];
        let budget = Budget {
            max_rows: Some(2),
            ..Budget::default()
        };
        let serial = execute_mappings_with(
            &sources,
            &p_s,
            &figure1_mappings(),
            &funcs,
            &ExchangeOptions {
                budget: budget.clone(),
                ..ExchangeOptions::default()
            },
        )
        .unwrap_err();
        let par = execute_mappings_with(
            &sources,
            &p_s,
            &figure1_mappings(),
            &funcs,
            &ExchangeOptions {
                budget,
                parallel: true,
                workers: 2,
                ..ExchangeOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(serial, par);
        let (g, completed) = guard_of(&serial);
        assert_eq!(g.progress.rows, 3);
        assert_eq!(completed, 2);
    }

    #[test]
    fn empty_report_window_and_totals_do_not_panic() {
        // Regression: a zero-mapping report (nothing ran, or an exchange
        // aborted before its first mapping) must yield `None` and zero
        // totals, never index into an empty per-mapping vector.
        let report = ExchangeReport::default();
        assert_eq!(report.event_window(), None);
        let totals = report.totals();
        assert_eq!((totals.tuples, totals.bindings, totals.wall_ns), (0, 0, 0));
    }
}
