//! Query evaluation over (annotated) instances.
//!
//! The evaluator implements the semantics of Section 4.2: a *valuation*
//! instantiates the query variables to instance values such that the
//! structure and conditions are satisfied; each result tuple is a tuple of
//! **facts** — atomic values together with their positions in the instance
//! ("the result of a query is not considered a simple set of values, but a
//! set of facts", Section 6).
//!
//! MXQL constructs evaluate per Section 5:
//! * `exp@elem` returns `f_el(v)` as an `Element` value;
//! * `exp@map` returns `f_mp(v)` as a set of `Mapping` values;
//! * mapping predicates draw `(source element, mapping, target element)`
//!   triples from a [`MetaEnv`] — implemented by the mapping-setting type in
//!   `dtr-core` — and act as generators for their unbound variables.

use crate::ast::*;
use crate::functions::{ArgValue, FunctionRegistry, FunctionValue, NativeFn};
use crate::index::{join_keys, probe_buckets, JoinIndex, JoinKey};
use crate::program::{
    BindingProg, CmpProg, ExprKind, ExprProg, PathProg, PredProg, Program, Side, Start, StepProg,
    TermProg,
};
use dtr_model::instance::{Instance, NodeId};
use dtr_model::schema::Schema;
use dtr_model::value::{AtomicValue, ElementRef, MappingName};
use dtr_obs::guard::{Budget, GuardError, Meter};
use dtr_obs::OpNode;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

/// One queryable data source: a schema and an instance conforming to it.
#[derive(Clone, Copy)]
pub struct Source<'a> {
    /// The source's schema.
    pub schema: &'a Schema,
    /// The source's (possibly annotated) instance.
    pub instance: &'a Instance,
}

/// The set of data sources visible to a query.
#[derive(Clone, Default)]
pub struct Catalog<'a> {
    sources: Vec<Source<'a>>,
}

impl<'a> Catalog<'a> {
    /// Builds a catalog. Root labels should be unique across sources.
    pub fn new(sources: Vec<Source<'a>>) -> Self {
        Catalog { sources }
    }

    /// Adds a source.
    pub fn push(&mut self, source: Source<'a>) {
        self.sources.push(source);
    }

    /// All sources.
    pub fn sources(&self) -> &[Source<'a>] {
        &self.sources
    }

    /// The source at an index.
    pub fn source(&self, idx: usize) -> Source<'a> {
        self.sources[idx]
    }

    /// Finds `(source index, root node)` for a root label.
    pub fn find_root(&self, label: &str) -> Option<(usize, NodeId)> {
        self.sources
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.instance.root(label).map(|n| (i, n)))
    }
}

/// A runtime value: an instance node (a fact) or a bare atomic value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// A node of a catalog instance: `(source index, node)`.
    Node(usize, NodeId),
    /// A computed atomic value with no instance position.
    Atom(AtomicValue),
}

/// A `(source element, mapping, target element)` triple exposed by a
/// mapping setting for mapping-predicate evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredTriple {
    /// The source schema element.
    pub src: ElementRef,
    /// The mapping.
    pub mapping: MappingName,
    /// The target schema element.
    pub tgt: ElementRef,
}

/// Supplies mapping-predicate triples. Implemented by
/// `dtr_core::TaggedInstance` over its mapping setting.
pub trait MetaEnv {
    /// All triples satisfying the single-arrow (`double == false`,
    /// where-provenance) or double-arrow (`double == true`,
    /// what-provenance) predicate.
    fn triples(&self, double: bool) -> Vec<PredTriple>;
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Evaluate equi-joins by building a hash table over the candidate
    /// items (and metastore triples) and probing it per row, instead of
    /// the nested-loop scan. Disabling this keeps the nested-loop path so
    /// dtr-check can assert both engines agree.
    pub hash_join: bool,
    /// Resource budget for one evaluation: binding/row/byte caps, a
    /// wall-clock deadline and a cooperative cancel flag. Exceeding it
    /// aborts the run with [`EvalError::Guard`]. Unlimited by default.
    pub budget: Budget,
    /// Per-binding scopes for semi-naive delta evaluation: a `from`-binding
    /// index (its position in the executed query) maps to the
    /// [`BindingScope`] that binding runs under — the [`Domain`] of set
    /// members it may enumerate, and a kept [`JoinIndex`] its hash join may
    /// probe. A scope applies only to a binding whose source has no
    /// variables (a root path): its domain once, when the binding's
    /// row-independent items are computed, and to each candidate an index
    /// probe returns. Two bindings over one set may carry different scopes.
    /// The incremental exchange uses this to evaluate the terms of the
    /// delta rule. `None` (the default) leaves every binding unrestricted
    /// and builds every hash join's table in the run.
    pub domains: Option<std::sync::Arc<HashMap<usize, BindingScope>>>,
}

/// What one `from`-binding runs under (see [`EvalOptions::domains`]).
#[derive(Clone, Debug, Default)]
pub struct BindingScope {
    /// The members the binding may enumerate; `None` admits every member.
    pub domain: Option<Domain>,
    /// A hash index over the binding's set. The binding's hash join probes
    /// it instead of building a table over the set, but only when the index
    /// covers the set the binding's source names and keys on exactly the
    /// field path the join's candidate side reads (see
    /// [`join_key_paths`](crate::index::join_key_paths)); otherwise it is
    /// ignored. Every member a probe returns still passes the domain, the
    /// comparisons the binding's pre-filter would have applied, and the
    /// binding's other conditions, and counts in
    /// [`EvalStats::hash_probes`] and [`EvalStats::tuples_scanned`].
    pub index: Option<std::sync::Arc<JoinIndex>>,
}

/// The set members one `from`-binding may enumerate (see
/// [`BindingScope::domain`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Only these members, distinct, enumerated in this order. The binding
    /// visits exactly the listed ids its set holds: each id is checked
    /// against the set (its parent, then the set's member list, the check
    /// [`Instance::annotate_elements_from`] makes), never the set against
    /// the ids, so the cost is the list's length and not the set's. An id
    /// the set does not hold — another set's member, or one an edit
    /// detached — is skipped.
    Only(Vec<NodeId>),
    /// Every member except these: the binding walks its set and skips
    /// them.
    Except(HashSet<NodeId>),
}

impl Domain {
    /// Does the domain admit member `id`?
    pub fn admits(&self, id: NodeId) -> bool {
        match self {
            Domain::Only(ids) => ids.contains(&id),
            Domain::Except(ids) => !ids.contains(&id),
        }
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            hash_join: true,
            budget: Budget::default(),
            domains: None,
        }
    }
}

/// An output value: the atomic value plus, when the select expression was a
/// path into an instance, the node it came from (the *fact*).
#[derive(Clone, Debug, PartialEq)]
pub struct OutValue {
    /// The atomic value.
    pub value: AtomicValue,
    /// The instance position, if the value is a fact.
    pub node: Option<(usize, NodeId)>,
}

/// Work counters collected by a single [`Evaluator::run`] call. Always
/// filled (the increments are plain integer adds on the evaluator's own
/// loop variables), independent of the global `dtr-obs` profiling gate.
/// `+=` adds every field, so a union of branch results reports the sum of
/// its branches' work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Candidate items visited while enumerating `from`-clause bindings.
    pub tuples_scanned: u64,
    /// Variable bindings that survived each enumeration stage (including
    /// mapping-predicate unification).
    pub bindings_enumerated: u64,
    /// Mapping-predicate triples tested against candidate rows.
    pub predicate_triples_tested: u64,
    /// Candidate items tested after a hash-table probe (hash-join mode
    /// only; the nested-loop equivalent is counted in `tuples_scanned`).
    pub hash_probes: u64,
    /// Wall time of the whole evaluation, in nanoseconds. Summed when
    /// results are aggregated (translated MXQL branches, virtual unions),
    /// so latency percentiles can be extracted across repetitions.
    pub eval_ns: u64,
}

impl std::ops::AddAssign for EvalStats {
    fn add_assign(&mut self, other: EvalStats) {
        self.tuples_scanned += other.tuples_scanned;
        self.bindings_enumerated += other.bindings_enumerated;
        self.predicate_triples_tested += other.predicate_triples_tested;
        self.hash_probes += other.hash_probes;
        self.eval_ns += other.eval_ns;
    }
}

/// The result of evaluating a query.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Column headers (the select expressions, printed).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<OutValue>>,
    /// Work counters for this evaluation (see [`EvalStats`]).
    pub stats: EvalStats,
}

impl QueryResult {
    /// The rows as plain atomic tuples.
    pub fn tuples(&self) -> Vec<Vec<AtomicValue>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|v| v.value.clone()).collect())
            .collect()
    }

    /// The distinct atomic tuples, in first-appearance order.
    pub fn distinct_tuples(&self) -> Vec<Vec<AtomicValue>> {
        let mut seen: HashSet<Vec<AtomicValue>> = HashSet::new();
        let mut out: Vec<Vec<AtomicValue>> = Vec::new();
        for t in self.tuples() {
            if seen.insert(t.clone()) {
                out.push(t);
            }
        }
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the result as a simple aligned table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.value.to_string();
                        if i < widths.len() && s.len() > widths[i] {
                            widths[i] = s.len();
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                if i + 1 < cells.len() {
                    for _ in c.len()..widths[i] {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
        };
        fmt_row(&self.columns, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        for _ in 0..total {
            out.push('-');
        }
        out.push('\n');
        for r in &rendered {
            fmt_row(r, &widths, &mut out);
        }
        out
    }
}

/// Runtime evaluation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// A path starts at a root no catalog instance declares.
    UnknownRoot(String),
    /// A variable was used before being bound.
    UnboundVariable(String),
    /// A binding source did not evaluate to something iterable.
    NotIterable(String),
    /// A select or comparison expression evaluated to a complex value.
    ComplexValue(String),
    /// A comparison between incomparable values.
    Incomparable(String),
    /// `@elem` was applied to a value with no element annotation.
    MissingElementAnnotation(String),
    /// An unknown function was called.
    UnknownFunction(String),
    /// A function rejected its arguments.
    Function(String),
    /// A mapping predicate was used without a [`MetaEnv`].
    NoMetaEnv,
    /// A projection label that does not exist on a record value (only
    /// reported in contexts where silent filtering would be wrong).
    BadProjection(String),
    /// A resource budget was exhausted (see [`EvalOptions::budget`]).
    Guard(GuardError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRoot(r) => write!(f, "unknown root `{r}`"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            EvalError::NotIterable(e) => write!(f, "binding source not iterable: {e}"),
            EvalError::ComplexValue(e) => write!(f, "expression yields a complex value: {e}"),
            EvalError::Incomparable(c) => write!(f, "incomparable values in `{c}`"),
            EvalError::MissingElementAnnotation(e) => {
                write!(f, "`{e}` has no element annotation; run annotate_elements")
            }
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::Function(m) => write!(f, "function error: {m}"),
            EvalError::NoMetaEnv => {
                write!(f, "mapping predicates need a mapping setting (MetaEnv)")
            }
            EvalError::BadProjection(p) => write!(f, "bad projection `{p}`"),
            EvalError::Guard(g) => write!(f, "{g}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<GuardError> for EvalError {
    fn from(g: GuardError) -> Self {
        EvalError::Guard(g)
    }
}

/// The evaluator.
pub struct Evaluator<'a> {
    catalog: &'a Catalog<'a>,
    functions: &'a FunctionRegistry,
    meta: Option<&'a dyn MetaEnv>,
    opts: EvalOptions,
}

/// Row environment: one slot per variable.
type Env = Vec<Option<Val>>;

/// A borrowed runtime value (see [`Val`]).
enum ValRef<'a> {
    Node(usize, NodeId),
    Atom(&'a AtomicValue),
}

/// A comparison operand: borrowed where possible, owned for computed
/// values, `None` when the expression has no valuation.
enum Operand<'a> {
    None,
    Ref(&'a AtomicValue),
    Owned(AtomicValue),
}

impl Operand<'_> {
    fn as_ref(&self) -> Option<&AtomicValue> {
        match self {
            Operand::None => None,
            Operand::Ref(v) => Some(v),
            Operand::Owned(v) => Some(v),
        }
    }
}

/// A precomputed comparison operand: `None` = not hoisted (depends on the
/// binding variable); `Some(v)` = hoisted, with `v` the operand's value
/// (itself `None` when the operand had no valuation).
type PreSide = Option<Option<AtomicValue>>;

/// Approximate in-memory size of a result value, charged against
/// `Budget::max_result_bytes`.
fn approx_value_bytes(v: &AtomicValue) -> u64 {
    16 + match v {
        AtomicValue::Str(s) => s.len() as u64,
        AtomicValue::Db(d) => d.len() as u64,
        AtomicValue::Map(m) => m.as_str().len() as u64,
        AtomicValue::Elem(e) => (e.db.len() + e.path.len()) as u64,
        AtomicValue::Int(_) | AtomicValue::Float(_) | AtomicValue::Bool(_) => 0,
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over a catalog with the given function registry.
    pub fn new(catalog: &'a Catalog<'a>, functions: &'a FunctionRegistry) -> Self {
        Evaluator {
            catalog,
            functions,
            meta: None,
            opts: EvalOptions::default(),
        }
    }

    /// Attaches a [`MetaEnv`] enabling mapping predicates.
    pub fn with_meta(mut self, meta: &'a dyn MetaEnv) -> Self {
        self.meta = Some(meta);
        self
    }

    /// Overrides evaluation options.
    pub fn with_options(mut self, opts: EvalOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Evaluates a query. The run first lowers `q` into a slot-resolved
    /// program over this evaluator's catalog — variables to slots, roots
    /// to nodes, field steps to position hints — and drops it at the end,
    /// so nothing of one run carries over to the next.
    pub fn run(&self, q: &Query) -> Result<QueryResult, EvalError> {
        self.run_impl(q, false).map(|(result, _)| result)
    }

    /// EXPLAIN ANALYZE: evaluates `q` with the exact same plan and row
    /// order as [`Evaluator::run`], additionally wrapping each logical
    /// operator (scan, bind, hash-join build/probe, map-pred, filter,
    /// project, sort, limit) in an [`OpNode`] recording actual rows
    /// in/out, elapsed wall time and guard charges. Instrumentation is
    /// read-only, so the result is byte-identical to a plain `run`. Each
    /// stage's label names the comparisons it applies: a binding's hash
    /// join (`on`) and filters, those a mapping predicate's stage ran
    /// after unification, and the residual filter's. Labels are formatted
    /// only here, never on a plain run. Every operator's elapsed time is
    /// folded into the shared log₂ span-duration histogram. The tree is
    /// returned to the caller, so concurrent analyzed runs each own
    /// theirs.
    pub fn run_analyzed(&self, q: &Query) -> Result<(QueryResult, OpNode), EvalError> {
        let (result, plan) = self.run_impl(q, true)?;
        let plan = plan.expect("analyze mode always builds a plan");
        fold_durations(&plan);
        Ok((result, plan))
    }

    fn run_impl(
        &self,
        q: &Query,
        analyze: bool,
    ) -> Result<(QueryResult, Option<OpNode>), EvalError> {
        let span = dtr_obs::span("query.eval")
            .field("from_len", q.from.len())
            .field("conditions", q.conditions.len());
        dtr_obs::counters().queries_evaluated.incr();
        let started = Instant::now();
        let mut stats = EvalStats::default();
        let mut meter = self.opts.budget.meter("query.eval");
        let mut plan: Option<OpNode> = None;
        let prog = Program::lower(q, self.catalog, self.functions, self.opts.hash_join);
        let cmps = prog.cmps.as_slice();
        let mut cmp_done = vec![false; cmps.len()];

        let mut rows: Vec<Env> = vec![vec![None; prog.nvars]];
        // The current row's hoisted operands, one entry per ready
        // comparison; one buffer serves every row.
        let mut pre: Vec<(PreSide, PreSide)> = Vec::new();

        // From-clause bindings, in order. Each candidate item is written
        // into the (mutable) current row and tested against the newly ready
        // comparisons; only survivors are cloned into the next generation.
        for (bi, b) in prog.bindings.iter().enumerate() {
            let slot = b.slot;
            let stage_rows_in = rows.len() as u64;
            let stage_t = stage_begin(analyze, &meter);
            let ready = b.ready.as_slice();
            for &ci in ready {
                cmp_done[ci] = true;
            }
            let scope = self.opts.domains.as_ref().and_then(|d| d.get(&bi));
            let domain = scope.and_then(|s| s.domain.as_ref());
            let index = match rows.first() {
                Some(env0) => self.kept_index(b, cmps, scope, env0)?,
                None => None,
            };
            // A binding source without variables (a schema root) produces
            // the same items for every row: compute them once, restrict
            // them to the binding's member domain (if any), and pre-filter
            // them by the ready conditions whose other operand is
            // row-independent (constants and root paths).
            let static_items: Option<Vec<Val>> = match rows.first() {
                Some(env) if b.root && index.is_none() => {
                    let mut items = match domain {
                        Some(Domain::Only(ids)) => self.only_items(&b.source, env, ids)?,
                        Some(Domain::Except(ids)) => {
                            let mut items = self.binding_items(&b.source, env)?;
                            items
                                .retain(|item| matches!(item, Val::Node(_, n) if !ids.contains(n)));
                            items
                        }
                        None => self.binding_items(&b.source, env)?,
                    };
                    for &ci in ready.iter().filter(|&&ci| cmps[ci].prefiltered) {
                        let mut probe = env.clone();
                        let mut kept = Vec::with_capacity(items.len());
                        for item in items {
                            probe[slot] = Some(item.clone());
                            if self.comparison_holds(&cmps[ci], &probe)? {
                                kept.push(item);
                            }
                        }
                        items = kept;
                    }
                    Some(items)
                }
                _ => None,
            };
            // Hash-join: when the candidate items are row-independent and
            // a ready equi-join comparison links the new variable to
            // earlier bindings, build one hash table over the items and
            // probe it per row instead of scanning every item per row.
            // Bucket mates are still confirmed with the real (coercing)
            // comparison, so conservative key sharing is harmless.
            let build_t = stage_begin(analyze, &meter);
            let join_table: Option<(usize, bool, HashMap<JoinKey, Vec<usize>>)> =
                match (b.join, &static_items, rows.first()) {
                    (Some((k, cand_left)), Some(items), Some(env0)) => {
                        let cmp = &cmps[ready[k]];
                        let cand_expr = if cand_left { &cmp.left } else { &cmp.right };
                        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
                        let mut probe = env0.clone();
                        for (idx, item) in items.iter().enumerate() {
                            probe[slot] = Some(item.clone());
                            if let Some(v) = self.out_value_opt(cand_expr, &probe)?.value {
                                for key in join_keys(&v) {
                                    table.entry(key).or_default().push(idx);
                                }
                            }
                        }
                        // The one-time build scan.
                        stats.tuples_scanned += items.len() as u64;
                        Some((k, cand_left, table))
                    }
                    _ => None,
                };
            let build_node = match (&join_table, &static_items) {
                (Some(_), Some(items)) => finish_node(
                    build_t,
                    &meter,
                    "hash-build",
                    || b.ast.to_string(),
                    items.len() as u64,
                    items.len() as u64,
                ),
                _ => None,
            };
            let mut next_rows = Vec::new();
            for mut env in rows {
                meter.poll()?;
                // Sides that do not mention the candidate are loop-invariant
                // over the candidates: computed once per row. Those of
                // pre-filtered comparisons too, so that a constant side
                // that fails still fails when the pre-filter saw no item.
                pre.clear();
                for &ci in ready {
                    let cmp = &cmps[ci];
                    let hoist = |side: Side, e: &ExprProg| -> Result<PreSide, EvalError> {
                        Ok(match side {
                            Side::Const | Side::Row => Some(self.out_value_opt(e, &env)?.value),
                            Side::Candidate | Side::Mixed => None,
                        })
                    };
                    pre.push((
                        hoist(cmp.sides[0], &cmp.left)?,
                        hoist(cmp.sides[1], &cmp.right)?,
                    ));
                }
                if let Some((jk, cand_left, ix)) = index {
                    let row_side = if cand_left { &pre[jk].1 } else { &pre[jk].0 };
                    let Some(Some(row_val)) = row_side else {
                        continue;
                    };
                    let candidates = ix.probe(&join_keys(row_val));
                    stats.hash_probes += candidates.len() as u64;
                    stats.tuples_scanned += candidates.len() as u64;
                    for m in candidates {
                        if domain.is_some_and(|d| !d.admits(m)) {
                            continue;
                        }
                        env[slot] = Some(Val::Node(ix.source(), m));
                        // No pre-filter ran over the set: every ready
                        // comparison is tested here.
                        if self.candidate_holds(cmps, ready, &pre, &env, true)? {
                            next_rows.push(env.clone());
                            meter.check_bindings(
                                stats.bindings_enumerated + next_rows.len() as u64,
                            )?;
                        }
                    }
                    continue;
                }
                if let Some((jk, cand_left, table)) = &join_table {
                    let items = static_items.as_deref().unwrap_or(&[]);
                    // The probing side was hoisted into `pre` (it does not
                    // mention the binding variable). No valuation means the
                    // equi-join fails for every candidate.
                    let row_side = if *cand_left { &pre[*jk].1 } else { &pre[*jk].0 };
                    let Some(Some(row_val)) = row_side else {
                        continue;
                    };
                    let candidates = probe_buckets(table, &join_keys(row_val));
                    stats.hash_probes += candidates.len() as u64;
                    stats.tuples_scanned += candidates.len() as u64;
                    for &idx in &candidates {
                        env[slot] = Some(items[idx].clone());
                        if self.candidate_holds(cmps, ready, &pre, &env, false)? {
                            next_rows.push(env.clone());
                            meter.check_bindings(
                                stats.bindings_enumerated + next_rows.len() as u64,
                            )?;
                        }
                    }
                    continue;
                }
                let per_row;
                let items: &[Val] = match &static_items {
                    Some(cached) => cached,
                    None => {
                        per_row = self.binding_items(&b.source, &env)?;
                        &per_row
                    }
                };
                stats.tuples_scanned += items.len() as u64;
                for item in items {
                    env[slot] = Some(item.clone());
                    if self.candidate_holds(cmps, ready, &pre, &env, false)? {
                        next_rows.push(env.clone());
                        meter.check_bindings(stats.bindings_enumerated + next_rows.len() as u64)?;
                    }
                }
            }
            rows = next_rows;
            stats.bindings_enumerated += rows.len() as u64;
            meter.check_bindings(stats.bindings_enumerated)?;
            let join_k = index
                .map(|(k, _, _)| k)
                .or(join_table.as_ref().map(|(k, _, _)| *k));
            let op = match (join_k, b.root) {
                (Some(_), _) => "hash-probe",
                (None, true) => "scan",
                (None, false) => "bind",
            };
            let join_ci = join_k.map(|k| ready[k]);
            let label = || {
                let mut label = b.ast.to_string();
                if let Some(ci) = join_ci {
                    label.push_str(&format!("; on {}", cmps[ci].ast));
                }
                let filters: Vec<usize> = ready
                    .iter()
                    .copied()
                    .filter(|&ci| Some(ci) != join_ci)
                    .collect();
                with_filters(label, cmps, &filters)
            };
            push_stage(
                &mut plan,
                finish_node(stage_t, &meter, op, label, stage_rows_in, rows.len() as u64),
                build_node,
            );
            if rows.is_empty() {
                break;
            }
        }

        // Mapping predicates act as generators/filters. Triples are
        // pre-filtered against the predicate's constant slots once, instead
        // of per row.
        for p in &prog.preds {
            if rows.is_empty() {
                break;
            }
            let stage_rows_in = rows.len() as u64;
            let stage_t = stage_begin(analyze, &meter);
            let meta = self.meta.ok_or(EvalError::NoMetaEnv)?;
            let triples: Vec<PredTriple> = meta
                .triples(p.ast.double)
                .into_iter()
                .filter(|t| pred_constants_match(p.ast, t))
                .collect();
            // Index the triples by the first predicate position whose
            // variable is already bound to an atom (every row shares one
            // binding pattern), so each row probes a bucket instead of
            // scanning the whole catalog (rows × triples).
            let pred_index: Option<(usize, HashMap<JoinKey, Vec<usize>>)> = if self.opts.hash_join {
                rows.first()
                    .and_then(|env0| {
                        p.terms.iter().enumerate().find_map(|(pos, t)| match t {
                            TermProg::Var(v) => v
                                .slot
                                .filter(|&s| matches!(env0[s], Some(Val::Atom(_))))
                                .map(|s| (pos, s)),
                            TermProg::Const(_) => None,
                        })
                    })
                    .map(|(pos, env_slot)| {
                        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
                        for (idx, t) in triples.iter().enumerate() {
                            for key in join_keys(&pred_slot_value(t, pos)) {
                                table.entry(key).or_default().push(idx);
                            }
                        }
                        (env_slot, table)
                    })
            } else {
                None
            };
            let mut next_rows = Vec::new();
            for env in &rows {
                meter.poll()?;
                if let Some((env_slot, table)) = &pred_index {
                    let Some(Val::Atom(existing)) = &env[*env_slot] else {
                        // A node-bound slot can never unify; the full scan
                        // would reject every triple too.
                        continue;
                    };
                    let candidates = probe_buckets(table, &join_keys(existing));
                    stats.predicate_triples_tested += candidates.len() as u64;
                    stats.hash_probes += candidates.len() as u64;
                    for &idx in &candidates {
                        if let Some(e2) = self.unify_pred(p, &triples[idx], env)? {
                            next_rows.push(e2);
                        }
                    }
                    continue;
                }
                stats.predicate_triples_tested += triples.len() as u64;
                for t in &triples {
                    if let Some(e2) = self.unify_pred(p, t, env)? {
                        next_rows.push(e2);
                    }
                }
            }
            rows = next_rows;
            stats.bindings_enumerated += rows.len() as u64;
            meter.check_bindings(stats.bindings_enumerated)?;
            let applied = self.apply_ready_comparisons(cmps, &mut cmp_done, &mut rows)?;
            push_stage(
                &mut plan,
                finish_node(
                    stage_t,
                    &meter,
                    "map-pred",
                    || with_filters(p.ast.to_string(), cmps, &applied),
                    stage_rows_in,
                    rows.len() as u64,
                ),
                None,
            );
        }

        // Remaining comparisons.
        let residual: Vec<usize> = (0..cmps.len()).filter(|&i| !cmp_done[i]).collect();
        let filter_rows_in = rows.len() as u64;
        let filter_t = if residual.is_empty() {
            None
        } else {
            stage_begin(analyze, &meter)
        };
        for &i in &residual {
            let mut kept = Vec::with_capacity(rows.len());
            for env in rows {
                if self.comparison_holds(&cmps[i], &env)? {
                    kept.push(env);
                }
            }
            rows = kept;
        }
        push_stage(
            &mut plan,
            finish_node(
                filter_t,
                &meter,
                "filter",
                || and_joined(cmps, &residual),
                filter_rows_in,
                rows.len() as u64,
            ),
            None,
        );

        // Project the select clause.
        let proj_rows_in = rows.len() as u64;
        let proj_t = stage_begin(analyze, &meter);
        let mut out = QueryResult {
            columns: q.select.iter().map(|e| e.to_string()).collect(),
            rows: Vec::with_capacity(rows.len()),
            stats: EvalStats::default(),
        };
        let mut sort_keys: Vec<Vec<Option<AtomicValue>>> = Vec::new();
        'rows: for env in &rows {
            let mut tuple = Vec::with_capacity(prog.select.len());
            for e in &prog.select {
                let arg = self.out_value_opt(e, env)?;
                match arg.value {
                    Some(value) => tuple.push(OutValue {
                        value,
                        node: arg.node,
                    }),
                    // A select expression with no valuation (a choice that
                    // selected another alternative, or a record field this
                    // value's generating mapping never assigned): the row
                    // has no valuation.
                    None => continue 'rows,
                }
            }
            meter.charge_rows(1)?;
            meter.charge_bytes(tuple.iter().map(|v| approx_value_bytes(&v.value)).sum())?;
            if !prog.order_by.is_empty() {
                let mut keys = Vec::with_capacity(prog.order_by.len());
                for k in &prog.order_by {
                    keys.push(self.out_value_opt(k, env)?.value);
                }
                sort_keys.push(keys);
            }
            out.rows.push(tuple);
        }
        push_stage(
            &mut plan,
            finish_node(
                proj_t,
                &meter,
                "project",
                || format!("{} col(s)", q.select.len()),
                proj_rows_in,
                out.rows.len() as u64,
            ),
            None,
        );

        // The extension tail: order by, then limit.
        if !q.order_by.is_empty() {
            let sort_t = stage_begin(analyze, &meter);
            let mut indexed: Vec<usize> = (0..out.rows.len()).collect();
            indexed.sort_by(|&a, &b| {
                for (ki, k) in q.order_by.iter().enumerate() {
                    let ord = match (&sort_keys[a][ki], &sort_keys[b][ki]) {
                        (Some(x), Some(y)) => {
                            coerced_compare(x, y).unwrap_or(std::cmp::Ordering::Equal)
                        }
                        (None, Some(_)) => std::cmp::Ordering::Less,
                        (Some(_), None) => std::cmp::Ordering::Greater,
                        (None, None) => std::cmp::Ordering::Equal,
                    };
                    let ord = if k.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut reordered = Vec::with_capacity(out.rows.len());
            for i in indexed {
                reordered.push(std::mem::take(&mut out.rows[i]));
            }
            out.rows = reordered;
            let n = out.rows.len() as u64;
            push_stage(
                &mut plan,
                finish_node(
                    sort_t,
                    &meter,
                    "sort",
                    || format!("{} key(s)", q.order_by.len()),
                    n,
                    n,
                ),
                None,
            );
        }
        if let Some(n) = q.limit {
            let limit_t = stage_begin(analyze, &meter);
            let limit_rows_in = out.rows.len() as u64;
            out.rows.truncate(n);
            push_stage(
                &mut plan,
                finish_node(
                    limit_t,
                    &meter,
                    "limit",
                    || format!("limit {n}"),
                    limit_rows_in,
                    out.rows.len() as u64,
                ),
                None,
            );
        }
        stats.eval_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out.stats = stats;
        let counters = dtr_obs::counters();
        counters.tuples_scanned.add(stats.tuples_scanned);
        counters.bindings_enumerated.add(stats.bindings_enumerated);
        counters.hash_probes.add(stats.hash_probes);
        span.record("tuples_scanned", stats.tuples_scanned);
        span.record("bindings", stats.bindings_enumerated);
        span.record("rows_out", out.rows.len());
        Ok((out, plan))
    }

    /// Tests a candidate row against the ready comparisons of its binding,
    /// with the operands hoisted into `pre` (one entry per ready
    /// comparison): all of them with `with_prefiltered`, else those the
    /// root pre-filter did not already apply.
    fn candidate_holds(
        &self,
        cmps: &[CmpProg],
        ready: &[usize],
        pre: &[(PreSide, PreSide)],
        env: &Env,
        with_prefiltered: bool,
    ) -> Result<bool, EvalError> {
        for (&ci, (left, right)) in ready.iter().zip(pre) {
            let cmp = &cmps[ci];
            if (with_prefiltered || !cmp.prefiltered)
                && !self.comparison_holds_pre(cmp, left, right, env)?
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The kept index binding `b` probes in place of this run's hash-join
    /// table: its scope's index, when that keys on exactly the candidate
    /// side the lowering chose, over the set the binding's source names.
    /// Then no item list is computed: the probes visit only matching
    /// members. Returns the join's position in `b.ready`, whether its
    /// candidate side is the left one, and the index.
    fn kept_index<'s>(
        &self,
        b: &BindingProg,
        cmps: &[CmpProg],
        scope: Option<&'s BindingScope>,
        env0: &Env,
    ) -> Result<Option<(usize, bool, &'s JoinIndex)>, EvalError> {
        let (Some((k, cand_left)), Some(ix)) = (b.join, scope.and_then(|s| s.index.as_deref()))
        else {
            return Ok(None);
        };
        let cmp = &cmps[b.ready[k]];
        let cand = if cand_left { &cmp.left } else { &cmp.right };
        if !keys_on(cand, b.slot, ix.path()) || !self.ranges_over(&b.source, env0, ix)? {
            return Ok(None);
        }
        // A member whose key is not atomic fails the run, as the table
        // build fails on reaching it.
        let domain = scope.and_then(|s| s.domain.as_ref());
        let mut probe = env0.clone();
        for &m in ix.complex() {
            probe[b.slot] = Some(Val::Node(ix.source(), m));
            if domain.is_none_or(|d| d.admits(m)) && self.prefilter_holds(cmps, &b.ready, &probe)? {
                return Err(EvalError::ComplexValue(cand.ast.to_string()));
            }
        }
        Ok(Some((k, cand_left, ix)))
    }

    /// Does the candidate in `env` pass the comparisons the root pre-filter
    /// applies to its binding's items?
    fn prefilter_holds(
        &self,
        cmps: &[CmpProg],
        ready: &[usize],
        env: &Env,
    ) -> Result<bool, EvalError> {
        for &ci in ready.iter().filter(|&&ci| cmps[ci].prefiltered) {
            if !self.comparison_holds(&cmps[ci], env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Does a root binding's source name the set `ix` covers?
    fn ranges_over(&self, source: &ExprProg, env: &Env, ix: &JoinIndex) -> Result<bool, EvalError> {
        let ExprKind::Path(p) = &source.kind else {
            return Ok(false);
        };
        Ok(self.eval_path(p, env)? == Some(Val::Node(ix.source(), ix.set())))
    }

    /// The items of a root binding under [`Domain::Only`]: the listed ids
    /// its set holds, in list order, each checked against the set instead
    /// of the set being walked. A source that is not a set (a choice
    /// binding's single value, a function's atoms) keeps the listed nodes
    /// among its items.
    fn only_items(
        &self,
        source: &ExprProg,
        env: &Env,
        ids: &[NodeId],
    ) -> Result<Vec<Val>, EvalError> {
        if let ExprKind::Path(p) = &source.kind {
            if let Some(Val::Node(s, set)) = self.eval_path(p, env)? {
                let inst = self.catalog.source(s).instance;
                if let Some(members) = inst.set_members(set) {
                    let holds = |id: NodeId| {
                        id.index() < inst.len()
                            && inst.parent(id) == Some(set)
                            && members.iter().rev().any(|&m| m == id)
                    };
                    return Ok(ids
                        .iter()
                        .filter(|&&id| holds(id))
                        .map(|&id| Val::Node(s, id))
                        .collect());
                }
            }
        }
        let mut items = self.binding_items(source, env)?;
        items.retain(|item| matches!(item, Val::Node(_, n) if ids.contains(n)));
        Ok(items)
    }

    /// Applies every pending comparison whose variables the rows now
    /// bind (after a mapping predicate bound its own); returns the indices
    /// it applied.
    fn apply_ready_comparisons(
        &self,
        cmps: &[CmpProg],
        cmp_done: &mut [bool],
        rows: &mut Vec<Env>,
    ) -> Result<Vec<usize>, EvalError> {
        let mut applied = Vec::new();
        for (i, cmp) in cmps.iter().enumerate() {
            // Ready if every referenced variable is bound in every row.
            // All rows share the same binding pattern at this point, so
            // checking the first row suffices.
            let bound = |env: &Env| cmp.ready_under(|s| env[s].is_some());
            if cmp_done[i] || !rows.first().is_some_and(bound) {
                continue;
            }
            cmp_done[i] = true;
            applied.push(i);
            let mut kept = Vec::with_capacity(rows.len());
            for env in rows.drain(..) {
                if self.comparison_holds(cmp, &env)? {
                    kept.push(env);
                }
            }
            *rows = kept;
        }
        Ok(applied)
    }

    /// Evaluates a path expression to a value, or `None` when a choice step
    /// filters the valuation out.
    fn eval_path(&self, p: &PathProg, env: &Env) -> Result<Option<Val>, EvalError> {
        Ok(self.eval_path_ref(p, env)?.map(|v| match v {
            ValRef::Node(s, n) => Val::Node(s, n),
            ValRef::Atom(a) => Val::Atom(a.clone()),
        }))
    }

    /// Like [`Evaluator::eval_path`], but borrowing: atom results reference
    /// the environment directly, so hot comparison loops avoid cloning.
    fn eval_path_ref<'x>(
        &self,
        p: &PathProg,
        env: &'x Env,
    ) -> Result<Option<ValRef<'x>>, EvalError> {
        let mut cur: ValRef<'x> = match &p.start {
            Start::Root(s, n) => ValRef::Node(*s, *n),
            Start::UnknownRoot(r) => return Err(EvalError::UnknownRoot(r.to_string())),
            Start::Var(v) => match v.slot.and_then(|s| env[s].as_ref()) {
                Some(Val::Node(s, n)) => ValRef::Node(*s, *n),
                Some(Val::Atom(a)) => ValRef::Atom(a),
                None => return Err(EvalError::UnboundVariable(v.name.to_string())),
            },
        };
        for step in &p.steps {
            let (src, node) = match cur {
                ValRef::Node(s, n) => (s, n),
                ValRef::Atom(_) => return Err(EvalError::BadProjection(p.ast.to_string())),
            };
            match step.apply(self.catalog.source(src).instance, node) {
                Some(c) => cur = ValRef::Node(src, c),
                // A conformant record always carries all fields;
                // exchange-produced instances may omit unassigned ones,
                // and a choice may have selected a different alternative:
                // either way, no valuation.
                None => return Ok(None),
            }
        }
        Ok(Some(cur))
    }

    /// Evaluates a comparison operand without cloning where possible.
    fn operand<'x>(&'x self, e: &'x ExprProg, env: &'x Env) -> Result<Operand<'x>, EvalError> {
        match &e.kind {
            ExprKind::Const(c) => Ok(Operand::Ref(c)),
            ExprKind::Path(p) => match self.eval_path_ref(p, env)? {
                None => Ok(Operand::None),
                Some(ValRef::Atom(a)) => Ok(Operand::Ref(a)),
                Some(ValRef::Node(s, n)) => match self.catalog.source(s).instance.atomic(n) {
                    Some(v) => Ok(Operand::Ref(v)),
                    None => Err(EvalError::ComplexValue(e.ast.to_string())),
                },
            },
            _ => match self.out_value_opt(e, env)?.value {
                Some(v) => Ok(Operand::Owned(v)),
                None => Ok(Operand::None),
            },
        }
    }

    /// The items a binding source generates for one row.
    fn binding_items(&self, source: &ExprProg, env: &Env) -> Result<Vec<Val>, EvalError> {
        match &source.kind {
            ExprKind::Path(p) => {
                let Some(val) = self.eval_path(p, env)? else {
                    return Ok(Vec::new());
                };
                match &val {
                    Val::Node(s, n) => {
                        let inst = self.catalog.source(*s).instance;
                        if let Some(members) = inst.set_members(*n) {
                            Ok(members.iter().map(|&m| Val::Node(*s, m)).collect())
                        } else if matches!(p.ast.steps.last(), Some(Step::Choice(_))) {
                            // A union-choice binding yields the single
                            // selected value (Section 4.2).
                            Ok(vec![val])
                        } else {
                            Err(EvalError::NotIterable(source.ast.to_string()))
                        }
                    }
                    Val::Atom(_) => Err(EvalError::NotIterable(source.ast.to_string())),
                }
            }
            ExprKind::MapOf(p) => {
                let Some(val) = self.eval_path(p, env)? else {
                    return Ok(Vec::new());
                };
                let Val::Node(s, n) = val else {
                    return Err(EvalError::NotIterable(source.ast.to_string()));
                };
                let inst = self.catalog.source(s).instance;
                Ok(inst
                    .annotation(n)
                    .mappings
                    .iter()
                    .map(|m| Val::Atom(AtomicValue::Map(m.clone())))
                    .collect())
            }
            ExprKind::Call(name, f, args) => match self.call_function(name, *f, args, env)? {
                Some(FunctionValue::One(v)) => Ok(vec![Val::Atom(v)]),
                Some(FunctionValue::Many(vs)) => Ok(vs.into_iter().map(Val::Atom).collect()),
                None => Ok(Vec::new()),
            },
            ExprKind::Const(_) | ExprKind::ElemOf(_) => {
                Err(EvalError::NotIterable(source.ast.to_string()))
            }
        }
    }

    fn call_function(
        &self,
        name: &str,
        f: Option<&NativeFn>,
        args: &[ExprProg],
        env: &Env,
    ) -> Result<Option<FunctionValue>, EvalError> {
        let mut arg_vals = Vec::with_capacity(args.len());
        for a in args {
            let out = self.out_value_opt(a, env)?;
            if out.value.is_none() && out.node.is_none() {
                // A choice step filtered a path argument out: the call has
                // no valuation for this row, like any other expression over
                // a filtered path. This keeps the §7.3 translation (which
                // rewrites `@map`/`@elem` into `getMapAnnot`/`getElAnnot`
                // calls) equivalent to the direct semantics on
                // choice-crossing paths.
                return Ok(None);
            }
            arg_vals.push(out);
        }
        let f = f.ok_or_else(|| EvalError::UnknownFunction(name.to_string()))?;
        f(&arg_vals, self.catalog).map(Some)
    }

    /// Evaluates an expression to an [`ArgValue`] (value + optional node).
    fn out_value_opt(&self, e: &ExprProg, env: &Env) -> Result<ArgValue, EvalError> {
        const NONE: ArgValue = ArgValue {
            value: None,
            node: None,
        };
        match &e.kind {
            ExprKind::Const(c) => Ok(ArgValue {
                value: Some((*c).clone()),
                node: None,
            }),
            ExprKind::Path(p) => match self.eval_path_ref(p, env)? {
                None => Ok(NONE),
                Some(ValRef::Atom(a)) => Ok(ArgValue {
                    value: Some(a.clone()),
                    node: None,
                }),
                Some(ValRef::Node(s, n)) => match self.catalog.source(s).instance.atomic(n) {
                    Some(v) => Ok(ArgValue {
                        value: Some(v.clone()),
                        node: Some((s, n)),
                    }),
                    None => Err(EvalError::ComplexValue(e.ast.to_string())),
                },
            },
            ExprKind::ElemOf(p) => match self.eval_path_ref(p, env)? {
                None => Ok(NONE),
                Some(ValRef::Node(s, n)) => {
                    let source = self.catalog.source(s);
                    let elem =
                        source.instance.annotation(n).element.ok_or_else(|| {
                            EvalError::MissingElementAnnotation(e.ast.to_string())
                        })?;
                    Ok(ArgValue {
                        value: Some(AtomicValue::Elem(ElementRef::new(
                            source.instance.db(),
                            source.schema.path(elem),
                        ))),
                        node: None,
                    })
                }
                Some(ValRef::Atom(_)) => Err(EvalError::ComplexValue(e.ast.to_string())),
            },
            ExprKind::MapOf(_) => Err(EvalError::ComplexValue(format!(
                "`{}` is set-valued; bind it in the from clause",
                e.ast
            ))),
            ExprKind::Call(name, f, args) => match self.call_function(name, *f, args, env)? {
                Some(FunctionValue::One(v)) => Ok(ArgValue {
                    value: Some(v),
                    node: None,
                }),
                Some(FunctionValue::Many(_)) => Err(EvalError::ComplexValue(format!(
                    "`{}` is set-valued; bind it in the from clause",
                    e.ast
                ))),
                None => Ok(NONE),
            },
        }
    }

    fn comparison_holds(&self, cmp: &CmpProg, env: &Env) -> Result<bool, EvalError> {
        let l = self.operand(&cmp.left, env)?;
        let r = self.operand(&cmp.right, env)?;
        self.compare_sides(cmp.ast, l.as_ref(), r.as_ref())
    }

    /// Like [`Evaluator::comparison_holds`], but with one or both operand
    /// values already computed (the join loop hoists operands that do not
    /// depend on the binding variable out of the candidate loop). Hoisted
    /// values are compared by reference — no per-candidate clones.
    fn comparison_holds_pre(
        &self,
        cmp: &CmpProg,
        pre_left: &PreSide,
        pre_right: &PreSide,
        env: &Env,
    ) -> Result<bool, EvalError> {
        let l_owned;
        let l = match pre_left {
            Some(v) => v.as_ref(),
            None => {
                l_owned = self.operand(&cmp.left, env)?;
                l_owned.as_ref()
            }
        };
        let r_owned;
        let r = match pre_right {
            Some(v) => v.as_ref(),
            None => {
                r_owned = self.operand(&cmp.right, env)?;
                r_owned.as_ref()
            }
        };
        self.compare_sides(cmp.ast, l, r)
    }

    fn compare_sides(
        &self,
        cmp: &Comparison,
        l: Option<&AtomicValue>,
        r: Option<&AtomicValue>,
    ) -> Result<bool, EvalError> {
        let (Some(lv), Some(rv)) = (l, r) else {
            // A filtered-out choice path: no valuation, condition fails.
            return Ok(false);
        };
        match coerced_compare(lv, rv) {
            Some(ord) => Ok(cmp.op.test(ord)),
            None => {
                if cmp.op == CmpOp::Eq {
                    Ok(false)
                } else if cmp.op == CmpOp::Ne {
                    Ok(true)
                } else {
                    Err(EvalError::Incomparable(cmp.to_string()))
                }
            }
        }
    }

    /// Unifies a mapping predicate against one triple, extending `env`.
    fn unify_pred(
        &self,
        p: &PredProg,
        t: &PredTriple,
        env: &Env,
    ) -> Result<Option<Env>, EvalError> {
        let mut out = env.clone();
        for (pos, term) in p.terms.iter().enumerate() {
            let actual = pred_slot_value(t, pos);
            match term {
                TermProg::Const(c) => {
                    if !meta_matches(c, &actual) {
                        return Ok(None);
                    }
                }
                TermProg::Var(v) => {
                    let slot = v
                        .slot
                        .ok_or_else(|| EvalError::UnboundVariable(v.name.to_string()))?;
                    match &out[slot] {
                        Some(Val::Atom(existing)) => {
                            if !meta_matches(existing, &actual) {
                                return Ok(None);
                            }
                        }
                        Some(Val::Node(..)) => return Ok(None),
                        None => out[slot] = Some(Val::Atom(actual)),
                    }
                }
            }
        }
        Ok(Some(out))
    }
}

/// Is `e` the path `slot.path[0].path[1]…`, record projections only from
/// the binding's own variable — the field path a [`JoinIndex`] keys on?
fn keys_on(e: &ExprProg, slot: usize, path: &[dtr_model::label::Label]) -> bool {
    let ExprKind::Path(p) = &e.kind else {
        return false;
    };
    matches!(&p.start, Start::Var(v) if v.slot == Some(slot))
        && p.steps.len() == path.len()
        && p.steps
            .iter()
            .zip(path)
            .all(|(step, label)| matches!(step, StepProg::Field(l, _) if *label == **l))
}

/// The comparisons at `indices`, joined by `and`.
fn and_joined(cmps: &[CmpProg], indices: &[usize]) -> String {
    let texts: Vec<String> = indices.iter().map(|&ci| cmps[ci].ast.to_string()).collect();
    texts.join(" and ")
}

/// An operator label followed by the comparisons the stage applies.
fn with_filters(label: String, cmps: &[CmpProg], indices: &[usize]) -> String {
    if indices.is_empty() {
        label
    } else {
        format!("{label}; filter [{}]", and_joined(cmps, indices))
    }
}

/// Starts an EXPLAIN ANALYZE stage timer: wall clock plus the guard
/// meter's tick count, so the finished node can report both elapsed time
/// and guard charges. `None` (zero cost) outside analyze mode.
fn stage_begin(analyze: bool, meter: &Meter) -> Option<(Instant, u64)> {
    analyze.then(|| (Instant::now(), meter.ticks()))
}

/// Closes a stage timer into an [`OpNode`]; `None` in, `None` out. The
/// label is formatted only for a node that is built.
fn finish_node(
    t: Option<(Instant, u64)>,
    meter: &Meter,
    op: &str,
    label: impl FnOnce() -> String,
    rows_in: u64,
    rows_out: u64,
) -> Option<OpNode> {
    let (start, ticks0) = t?;
    let mut node = OpNode::new(op, label());
    node.rows_in = rows_in;
    node.rows_out = rows_out;
    node.elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    node.guard_charges = meter.ticks().saturating_sub(ticks0);
    Some(node)
}

/// Chains a finished stage node onto the growing plan: the previous chain
/// becomes the new node's first child (its upstream input), side inputs
/// like a hash-build follow.
fn push_stage(plan: &mut Option<OpNode>, node: Option<OpNode>, extra_child: Option<OpNode>) {
    let Some(mut node) = node else { return };
    if let Some(prev) = plan.take() {
        node.children.push(prev);
    }
    if let Some(extra) = extra_child {
        node.children.push(extra);
    }
    *plan = Some(node);
}

/// Folds every operator's elapsed time into the shared log₂ span-duration
/// histogram (the "histogram reuse" of the analyze mode).
fn fold_durations(node: &OpNode) {
    dtr_obs::counters().span_duration_ns.record(node.elapsed_ns);
    for child in &node.children {
        fold_durations(child);
    }
}

/// The atomic value at one of the five mapping-predicate positions of a
/// triple (src db, src elem, mapping, tgt db, tgt elem).
fn pred_slot_value(t: &PredTriple, pos: usize) -> AtomicValue {
    match pos {
        0 => AtomicValue::Db(t.src.db.clone()),
        1 => AtomicValue::Elem(t.src.clone()),
        2 => AtomicValue::Map(t.mapping.clone()),
        3 => AtomicValue::Db(t.tgt.db.clone()),
        _ => AtomicValue::Elem(t.tgt.clone()),
    }
}

/// Compares two atomic values, coercing plain strings against meta values:
/// MXQL constants are written as quoted strings but denote databases,
/// mappings and element paths (Section 5's examples).
pub fn coerced_compare(a: &AtomicValue, b: &AtomicValue) -> Option<std::cmp::Ordering> {
    if let Some(ord) = a.compare(b) {
        return Some(ord);
    }
    meta_str_compare(a, b).or_else(|| meta_str_compare(b, a).map(std::cmp::Ordering::reverse))
}

fn meta_str_compare(s: &AtomicValue, m: &AtomicValue) -> Option<std::cmp::Ordering> {
    let text = s.as_str()?;
    match m {
        AtomicValue::Db(d) => Some(text.cmp(d.as_str())),
        AtomicValue::Map(name) => Some(text.cmp(name.as_str())),
        AtomicValue::Elem(e) => {
            let canon = dtr_model::value::canonical_path(text);
            Some(canon.as_str().cmp(e.path.as_str()))
        }
        _ => None,
    }
}

/// True when a constant (possibly a plain string) denotes the same meta
/// value.
fn meta_matches(c: &AtomicValue, actual: &AtomicValue) -> bool {
    coerced_compare(c, actual) == Some(std::cmp::Ordering::Equal)
}

/// Row-independent pre-filter: does the triple agree with the predicate's
/// constant slots?
fn pred_constants_match(p: &MappingPred, t: &PredTriple) -> bool {
    let check = |term: &Term, actual: AtomicValue| match term {
        Term::Const(c) => meta_matches(c, &actual),
        Term::Var(_) => true,
    };
    check(&p.src_db, AtomicValue::Db(t.src.db.clone()))
        && check(&p.src_elem, AtomicValue::Elem(t.src.clone()))
        && check(&p.mapping, AtomicValue::Map(t.mapping.clone()))
        && check(&p.tgt_db, AtomicValue::Db(t.tgt.db.clone()))
        && check(&p.tgt_elem, AtomicValue::Elem(t.tgt.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;
    use crate::parser::parse_query;
    use dtr_model::instance::Value;
    use dtr_model::types::{AtomicType, Type};

    fn us_schema() -> Schema {
        Schema::build(
            "USdb",
            vec![(
                "US",
                Type::record(vec![
                    (
                        "houses",
                        Type::relation(vec![
                            ("hid", AtomicType::String),
                            ("price", AtomicType::Integer),
                            ("aid", AtomicType::String),
                        ]),
                    ),
                    (
                        "agents",
                        Type::set(Type::record(vec![
                            ("aid", Type::string()),
                            (
                                "title",
                                Type::choice(vec![
                                    ("name", Type::string()),
                                    ("firm", Type::string()),
                                ]),
                            ),
                            ("phone", Type::string()),
                        ])),
                    ),
                ]),
            )],
        )
        .unwrap()
    }

    fn us_instance() -> Instance {
        let mut inst = Instance::new("USdb");
        let house = |hid: &str, price: i64, aid: &str| {
            Value::record(vec![
                ("hid", Value::str(hid)),
                ("price", Value::int(price)),
                ("aid", Value::str(aid)),
            ])
        };
        let agent = |aid: &str, alt: &str, title: &str, phone: &str| {
            Value::record(vec![
                ("aid", Value::str(aid)),
                ("title", Value::choice(alt, Value::str(title))),
                ("phone", Value::str(phone)),
            ])
        };
        inst.install_root(
            "US",
            Value::record(vec![
                (
                    "houses",
                    Value::set(vec![
                        house("H1", 450_000, "a1"),
                        house("H2", 750_000, "a2"),
                        house("H3", 820_000, "a1"),
                    ]),
                ),
                (
                    "agents",
                    Value::set(vec![
                        agent("a1", "name", "Smith", "555-1111"),
                        agent("a2", "firm", "HomeGain", "555-2222"),
                    ]),
                ),
            ]),
        );
        inst
    }

    fn run(text: &str) -> QueryResult {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(text).unwrap();
        Evaluator::new(&catalog, &funcs).run(&q).unwrap()
    }

    #[test]
    fn selection_with_condition() {
        let r = run("select h.hid from US.houses h where h.price > 500000");
        let mut hids: Vec<String> = r.tuples().into_iter().map(|t| t[0].to_string()).collect();
        hids.sort();
        assert_eq!(hids, ["H2", "H3"]);
    }

    #[test]
    fn join_on_aid() {
        let r = run("select h.hid, a.phone from US.houses h, US.agents a where h.aid = a.aid");
        assert_eq!(r.len(), 3);
        let t = r.tuples();
        assert!(t.contains(&vec![AtomicValue::str("H1"), AtomicValue::str("555-1111")]));
        assert!(t.contains(&vec![AtomicValue::str("H2"), AtomicValue::str("555-2222")]));
    }

    #[test]
    fn choice_binding_filters() {
        // Only agent a1 has a personal name.
        let r = run("select a.aid, n from US.agents a, a.title->name n");
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.tuples()[0],
            vec![AtomicValue::str("a1"), AtomicValue::str("Smith")]
        );
        // Only agent a2 is a firm.
        let r = run("select f from US.agents a, a.title->firm f");
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0], vec![AtomicValue::str("HomeGain")]);
    }

    #[test]
    fn facts_carry_positions() {
        let r = run("select h.hid from US.houses h where h.hid = 'H1'");
        assert_eq!(r.len(), 1);
        assert!(r.rows[0][0].node.is_some());
    }

    #[test]
    fn elem_operator() {
        let r = run("select h.price@elem from US.houses h where h.hid = 'H1'");
        assert_eq!(r.len(), 1);
        match &r.rows[0][0].value {
            AtomicValue::Elem(e) => {
                assert_eq!(e.db, "USdb");
                assert_eq!(e.path, "/US/houses/price");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn map_operator_over_empty_annotations() {
        // No mapping annotations in a hand-built instance: @map yields no
        // bindings, so the result is empty (not an error).
        let r = run("select h.hid, m from US.houses h, h.price@map m");
        assert!(r.is_empty());
    }

    #[test]
    fn map_operator_with_annotations() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        // Annotate every price with a mapping.
        let price_elem = schema.resolve_path("/US/houses/price").unwrap();
        for n in inst.interpretation(price_elem) {
            inst.add_mapping(n, MappingName::new("m1"));
        }
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select h.hid, m from US.houses h, h.price@map m").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.len(), 3);
        assert!(matches!(&r.rows[0][1].value, AtomicValue::Map(m) if m.as_str() == "m1"));
    }

    #[test]
    fn constant_comparisons_and_ne() {
        let r = run("select h.hid from US.houses h where h.hid != 'H1'");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn cross_product_without_conditions() {
        let r = run("select h.hid, a.aid from US.houses h, US.agents a");
        assert_eq!(r.len(), 6);
    }

    /// Two-column string rows, as the evaluator's tuples.
    fn pairs(rows: &[(&str, &str)]) -> Vec<Vec<AtomicValue>> {
        rows.iter()
            .map(|(a, b)| vec![AtomicValue::str(*a), AtomicValue::str(*b)])
            .collect()
    }

    #[test]
    fn pushdown_and_naive_agree() {
        // The rows (in order) that evaluating every condition after the
        // full cross product returned for this query.
        let r = run(
            "select h.hid, a.phone from US.houses h, US.agents a where h.aid = a.aid and h.price > 500000",
        );
        assert_eq!(r.tuples(), pairs(&[("H2", "555-2222"), ("H3", "555-1111")]));
    }

    #[test]
    fn hash_join_and_nested_loop_agree() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        for text in [
            "select h.hid, a.phone from US.houses h, US.agents a where h.aid = a.aid",
            "select h.hid, a.phone from US.houses h, US.agents a where a.aid = h.aid and h.price > 500000",
            "select h.hid, g.hid from US.houses h, US.houses g where g.price = h.price",
        ] {
            let q = parse_query(text).unwrap();
            let hashed = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
            let nested = Evaluator::new(&catalog, &funcs)
                .with_options(EvalOptions {
                    hash_join: false,
                    ..Default::default()
                })
                .run(&q)
                .unwrap();
            // Same rows in the same order: the probe visits candidates in
            // item order, exactly like the scan.
            assert_eq!(hashed.tuples(), nested.tuples(), "{text}");
            assert!(hashed.stats.hash_probes > 0, "{text}");
            assert_eq!(nested.stats.hash_probes, 0, "{text}");
            // The probe path visits no more candidates than the scan.
            assert!(
                hashed.stats.tuples_scanned <= nested.stats.tuples_scanned,
                "{text}"
            );
        }
    }

    #[test]
    fn hash_join_coerces_like_nested_loop() {
        // A join between a plain-string column and meta values must hit
        // the same matches through the hash table as through the scan.
        struct Stub;
        impl MetaEnv for Stub {
            fn triples(&self, double: bool) -> Vec<PredTriple> {
                if double {
                    return Vec::new();
                }
                vec![
                    PredTriple {
                        src: ElementRef::new("USdb", "/US/houses/price"),
                        mapping: MappingName::new("m1"),
                        tgt: ElementRef::new("Pdb", "/Portal/estates/value"),
                    },
                    PredTriple {
                        src: ElementRef::new("USdb", "/US/houses/hid"),
                        mapping: MappingName::new("m2"),
                        tgt: ElementRef::new("Pdb", "/Portal/estates/hid"),
                    },
                ]
            }
        }
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let price_elem = schema.resolve_path("/US/houses/price").unwrap();
        for n in inst.interpretation(price_elem) {
            inst.add_mapping(n, MappingName::new("m1"));
        }
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(
            "select h.hid, m, e from US.houses h, h.price@map m
             where <db:e -> m -> 'Pdb':e2>",
        )
        .unwrap();
        let hashed = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .run(&q)
            .unwrap();
        let nested = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .with_options(EvalOptions {
                hash_join: false,
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        assert_eq!(hashed.tuples(), nested.tuples());
        assert_eq!(hashed.len(), 3);
        // The triple index pruned the m2 triple before unification.
        assert!(hashed.stats.predicate_triples_tested < nested.stats.predicate_triples_tested);
    }

    #[test]
    fn missing_meta_env_errors() {
        let schema = us_schema();
        let inst = us_instance();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select e from where <db:e -> m -> 'Pdb':e2>").unwrap();
        let err = Evaluator::new(&catalog, &funcs).run(&q).unwrap_err();
        assert_eq!(err, EvalError::NoMetaEnv);
    }

    #[test]
    fn mapping_predicate_with_stub_meta_env() {
        struct Stub;
        impl MetaEnv for Stub {
            fn triples(&self, double: bool) -> Vec<PredTriple> {
                if double {
                    return Vec::new();
                }
                vec![PredTriple {
                    src: ElementRef::new("USdb", "/US/houses/price"),
                    mapping: MappingName::new("m1"),
                    tgt: ElementRef::new("Pdb", "/Portal/estates/value"),
                }]
            }
        }
        let schema = us_schema();
        let inst = us_instance();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select e, m from where <db:e -> m -> 'Pdb':e2>").unwrap();
        let r = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .run(&q)
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(
            matches!(&r.rows[0][0].value, AtomicValue::Elem(e) if e.path == "/US/houses/price")
        );
        // Constants filter.
        let q2 = parse_query("select m from where <db:e -> m -> 'Elsewhere':e2>").unwrap();
        let r2 = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .run(&q2)
            .unwrap();
        assert!(r2.is_empty());
        // Element-path constants match canonically.
        let q3 = parse_query(
            "select m from where <db:'/US/houses/price' -> m -> 'Pdb':'Portal/estates/value'>",
        )
        .unwrap();
        let r3 = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .run(&q3)
            .unwrap();
        assert_eq!(r3.len(), 1);
    }

    #[test]
    fn static_item_prefilter_matches_naive() {
        // Regression for the constant-side static-item prefilter: a root
        // binding filtered by a constant condition must return the rows
        // (in order) of the naive evaluate-at-the-end semantics, including
        // when combined with row-dependent conditions.
        let r = run("select h.hid, a.aid
             from US.houses h, US.agents a
             where a.aid = 'a1' and h.aid = a.aid");
        // H1 and H3 belong to a1.
        assert_eq!(r.tuples(), pairs(&[("H1", "a1"), ("H3", "a1")]));
    }

    #[test]
    fn hoisted_invariant_side_matches_naive() {
        // The invariant-side hoisting: `h.hid = a.aid`-style conditions
        // where one side does not mention the new binding variable. The
        // expected rows are the naive evaluate-at-the-end answer.
        let r = run("select h.hid, a.phone
             from US.houses h, US.agents a
             where h.aid = a.aid and h.price > 500000");
        let mut rows = r.tuples();
        rows.sort_by_key(|row| format!("{row:?}"));
        assert_eq!(rows, pairs(&[("H2", "555-2222"), ("H3", "555-1111")]));
    }

    #[test]
    fn mixed_side_is_evaluated_per_candidate() {
        // `concat(h.aid, g.aid)` mentions both the candidate `g` and the
        // row's `h`, so it cannot be hoisted out of the candidate loop.
        let r = run("select h.hid, g.hid from US.houses h, US.houses g \
             where concat(h.aid, g.aid) = 'a2a2'");
        assert_eq!(r.tuples(), pairs(&[("H2", "H2")]));
    }

    #[test]
    fn ne_on_incomparable_types_is_true() {
        let r = run("select h.hid from US.houses h where h.price != 'text'");
        // Int vs Str: incomparable, so != holds for every house.
        assert_eq!(r.len(), 3);
        // And = fails for every house.
        let r = run("select h.hid from US.houses h where h.price = 'text'");
        assert!(r.is_empty());
    }

    #[test]
    fn ordering_on_incomparable_types_errors() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select h.hid from US.houses h where h.price < 'text'").unwrap();
        assert!(matches!(
            Evaluator::new(&catalog, &funcs).run(&q),
            Err(EvalError::Incomparable(_))
        ));
    }

    #[test]
    fn predicate_with_prebound_mapping_variable() {
        // The mapping variable is bound by @map before the predicate runs;
        // the predicate filters rather than generates.
        struct Stub;
        impl MetaEnv for Stub {
            fn triples(&self, double: bool) -> Vec<PredTriple> {
                if double {
                    return Vec::new();
                }
                vec![
                    PredTriple {
                        src: ElementRef::new("USdb", "/US/houses/price"),
                        mapping: MappingName::new("m1"),
                        tgt: ElementRef::new("Pdb", "/Portal/estates/value"),
                    },
                    PredTriple {
                        src: ElementRef::new("USdb", "/US/houses/hid"),
                        mapping: MappingName::new("m9"),
                        tgt: ElementRef::new("Pdb", "/Portal/estates/hid"),
                    },
                ]
            }
        }
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let price_elem = schema.resolve_path("/US/houses/price").unwrap();
        for n in inst.interpretation(price_elem) {
            inst.add_mapping(n, MappingName::new("m1"));
        }
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        // m ranges over {m1} per row; the predicate's m9 triple must not
        // leak in.
        let q = parse_query(
            "select h.hid, m, e from US.houses h, h.price@map m
             where <db:e -> m -> 'Pdb':e2>",
        )
        .unwrap();
        let r = Evaluator::new(&catalog, &funcs)
            .with_meta(&Stub)
            .run(&q)
            .unwrap();
        assert_eq!(r.len(), 3);
        for row in r.tuples() {
            assert_eq!(row[1].to_string(), "m1");
            assert_eq!(row[2].to_string(), "USdb:/US/houses/price");
        }
    }

    #[test]
    fn order_by_sorts_and_limit_truncates() {
        let r = run("select h.hid, h.price from US.houses h order by h.price desc");
        let prices: Vec<i64> = r.tuples().iter().map(|t| t[1].as_int().unwrap()).collect();
        assert_eq!(prices, vec![820_000, 750_000, 450_000]);
        let r = run("select h.hid from US.houses h order by h.hid limit 2");
        assert_eq!(
            r.tuples()
                .iter()
                .map(|t| t[0].to_string())
                .collect::<Vec<_>>(),
            vec!["H1", "H2"]
        );
        // Order keys need not be selected.
        let r = run("select h.hid from US.houses h order by h.price");
        assert_eq!(r.tuples()[0][0].to_string(), "H1");
        // Limit alone, without ordering.
        let r = run("select h.hid from US.houses h limit 1");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn table_rendering() {
        let r = run("select h.hid, h.price from US.houses h where h.hid = 'H1'");
        let table = r.to_table();
        assert!(table.contains("h.hid"));
        assert!(table.contains("H1"));
        assert!(table.contains("450000"));
    }

    #[test]
    fn select_complex_errors() {
        let schema = us_schema();
        let inst = us_instance();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select h from US.houses h").unwrap();
        assert!(Evaluator::new(&catalog, &funcs).run(&q).is_err());
    }

    #[test]
    fn analyzed_run_is_byte_identical_and_builds_operator_tree() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        // A 3-way join with a sort and a limit exercises every query-side
        // operator kind at once.
        let text = "select h.hid, a.phone, g.hid from US.houses h, US.agents a, US.houses g \
                    where h.aid = a.aid and g.price = h.price order by h.hid limit 10";
        let q = parse_query(text).unwrap();
        let ev = Evaluator::new(&catalog, &funcs);
        let plain = ev.run(&q).unwrap();
        let (analyzed, plan) = ev.run_analyzed(&q).unwrap();
        // Instrumentation is read-only: identical columns and rows
        // (values AND fact positions), in identical order.
        assert_eq!(plain.columns, analyzed.columns);
        assert_eq!(plain.rows, analyzed.rows);
        // The root operator's output is the result cardinality.
        assert_eq!(plan.rows_out, analyzed.rows.len() as u64);
        assert_eq!(plan.op, "limit");
        for op in ["scan", "hash-build", "hash-probe", "project", "sort"] {
            assert!(plan.find(op).is_some(), "missing operator {op}");
        }
        // Both equi-joins ran as hash joins over the static sources.
        let probe = plan.find("hash-probe").unwrap();
        assert!(probe.rows_in > 0);
        // The projection charges the guard meter per emitted row.
        assert!(plan.find("project").unwrap().guard_charges > 0);
        let rendered = plan.render();
        assert!(rendered.contains("EXPLAIN ANALYZE"));
        assert!(rendered.contains("hash-probe"));
    }

    #[test]
    fn concurrent_analyzed_runs_each_get_their_own_plan() {
        // Two threads running analyzed queries concurrently must each
        // observe a plan that matches *their* query, not the other
        // session's.
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (text, expected_rows) in [
                ("select h.hid from US.houses h", 3u64),
                ("select a.phone from US.agents a where a.aid = 'a2'", 1u64),
            ] {
                let schema = &schema;
                let inst = &inst;
                handles.push(scope.spawn(move || {
                    let catalog = Catalog::new(vec![Source {
                        schema,
                        instance: inst,
                    }]);
                    let funcs = FunctionRegistry::with_builtins();
                    let ev = Evaluator::new(&catalog, &funcs);
                    let q = parse_query(text).unwrap();
                    for _ in 0..50 {
                        let (result, plan) = ev.run_analyzed(&q).unwrap();
                        assert_eq!(result.rows.len() as u64, expected_rows);
                        assert_eq!(plan.rows_out, expected_rows, "foreign plan observed");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn per_binding_domains_restrict_two_items_over_one_set() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q =
            parse_query("select h.hid, g.hid from US.houses h, US.houses g where h.aid = g.aid")
                .unwrap();
        let set = inst
            .child_by_label(inst.root("US").unwrap(), "houses")
            .unwrap();
        let h3 = inst.set_members(set).unwrap()[2];
        let pairs = |domains: Vec<(usize, Domain)>, hash_join: bool| {
            let mut rows: Vec<String> = Evaluator::new(&catalog, &funcs)
                .with_options(EvalOptions {
                    hash_join,
                    domains: Some(std::sync::Arc::new(
                        domains
                            .into_iter()
                            .map(|(bi, domain)| {
                                let domain = Some(domain);
                                (
                                    bi,
                                    BindingScope {
                                        domain,
                                        index: None,
                                    },
                                )
                            })
                            .collect(),
                    )),
                    ..Default::default()
                })
                .run(&q)
                .unwrap()
                .tuples()
                .iter()
                .map(|t| format!("{}-{}", t[0], t[1]))
                .collect();
            rows.sort();
            rows
        };
        let only = || Domain::Only(vec![h3]);
        let except = || Domain::Except(HashSet::from([h3]));
        for hash_join in [true, false] {
            // H1 and H3 share agent a1: the pairs holding H3, split by the
            // first item that holds it, partition the full result's H3 pairs.
            assert_eq!(pairs(vec![(0, only())], hash_join), ["H3-H1", "H3-H3"]);
            assert_eq!(
                pairs(vec![(0, except()), (1, only())], hash_join),
                ["H1-H3"]
            );
            assert_eq!(
                pairs(vec![(0, except()), (1, except())], hash_join),
                ["H1-H1", "H2-H2"]
            );
        }
    }

    #[test]
    fn analyzed_stages_name_the_conditions_they_apply() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query(
            "select h.hid from US.houses h, US.agents a \
             where h.aid = a.aid and h.price > 500000",
        )
        .unwrap();
        let (_, plan) = Evaluator::new(&catalog, &funcs).run_analyzed(&q).unwrap();
        let text = plan.render();
        // The price filter runs where `h` is bound, the equi-join where
        // `a` is; nothing is left for a residual filter.
        let scan = plan.find("scan").unwrap();
        assert_eq!(
            scan.label, "US.houses h; filter [h.price > 500000]",
            "{text}"
        );
        let probe = plan.find("hash-probe").unwrap();
        assert_eq!(probe.label, "US.agents a; on h.aid = a.aid", "{text}");
        assert!(plan.find("filter").is_none(), "{text}");
    }

    #[test]
    fn a_plain_run_formats_no_label() {
        // Outside analyze mode every stage timer is `None`, and a stage
        // closed from `None` never calls its label closure.
        let meter = Budget::default().meter("query.eval");
        assert!(stage_begin(false, &meter).is_none());
        let node = finish_node(None, &meter, "scan", || unreachable!("label built"), 0, 0);
        assert!(node.is_none());
    }

    #[test]
    fn analyzed_run_without_joins_matches_plain() {
        let schema = us_schema();
        let mut inst = us_instance();
        inst.annotate_elements(&schema).unwrap();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select h.hid from US.houses h where h.price > 500000").unwrap();
        let ev = Evaluator::new(&catalog, &funcs);
        let plain = ev.run(&q).unwrap();
        let (analyzed, plan) = ev.run_analyzed(&q).unwrap();
        assert_eq!(plain.rows, analyzed.rows);
        assert_eq!(plan.op, "project");
        assert_eq!(plan.rows_out, 2);
        let scan = plan.find("scan").unwrap();
        assert_eq!(scan.rows_out, 2);
    }

    use dtr_model::value::MappingName;
}
