//! Incremental data exchange: delta-driven re-evaluation of GLAV mappings.
//!
//! A full exchange re-derives the whole target from scratch on every source
//! change. This engine instead applies a [`SourceDelta`] in four stages:
//!
//! 1. **Mapping pruning** — a mapping is *affected* only when one of its
//!    foreach from-items is a root-rooted path equal to a changed set path
//!    (a set reached through a choice alternative is keyed `C.k->a.s`,
//!    the way a binding over it renders, whichever spelling the edit
//!    used).
//!    Unaffected mappings are skipped entirely.
//! 2. **Delta rule** — let the from-items touching changed sets be
//!    t₁ < … < t_k, with deleted members Dᵢ and inserted members Iᵢ. The
//!    removed rows are Σⱼ Q\[tᵢ over its set minus Dᵢ for i < j, tⱼ over
//!    Dⱼ only, every other item unrestricted\], evaluated over the old
//!    sources before they mutate; the added rows are the same sum with the
//!    Iᵢ, evaluated over the new sources. A binding tuple holding a deleted
//!    (inserted) member is counted exactly once, at its first such item,
//!    so the removed rows are exactly rows of the old bag, and the
//!    survivors — tuples over surviving members only — need no work at
//!    all. Term j runs delta-first: it is the foreach with tⱼ moved to the
//!    front (a root path, so the move is legal and the bag of rows is the
//!    same), built once per mapping and item and kept. Each run carries
//!    per-binding scopes ([`dtr_query::eval::EvalOptions::domains`]): tⱼ
//!    enumerates exactly its changed members (`Domain::Only`, O(|Δ|)), each
//!    earlier touching item skips its own (`Domain::Except`), and every
//!    hash join whose key [`dtr_query::index::join_key_paths`] reports
//!    probes a [`JoinIndex`] the engine keeps over the source set, one per
//!    set and field path. An index is built on first use, follows its
//!    set's members where stage 2 detaches and appends them, and is dropped
//!    by a failed apply and by a rebase. So a term costs what its changed
//!    members join with, not what their sets hold. Only mappings with
//!    function- or annotation-sourced from-items, which can depend on any
//!    source state, re-evaluate in full and diff the row bags.
//! 3. **Retraction by journal replay** — target rows are organized into
//!    *member classes* (one top-level PNF member plus its subtree). The
//!    engine keeps, per class, the multiset of foreach rows each mapping
//!    contributed — the same `f_mp` binding fingerprints the provenance
//!    journal records. A class touched by removed/added rows is detached
//!    (annotations stripped, and the merge-index entries of the sets inside
//!    it dropped — each class records the keys its nested bindings created,
//!    so no other entry is visited) and rebuilt by replaying only its
//!    surviving rows, in mapping order, with the insert mask restricted to
//!    the chains of the root bindings that build the class's member value.
//!    PNF re-merge and collision splits replay naturally through the
//!    exchange merge index, confined to the affected sets.
//! 4. **Skeleton sync** — mappings whose row bag transitions to/from empty
//!    have their `f_mp` names added/removed along the skeleton chains, and
//!    chain nodes left with no annotations and no children are detached,
//!    so the target matches what a from-scratch exchange would build.
//!
//! The engine has no build loop of its own: the initial build and every
//! [`IncrementalExchange::rebase`] run the exchange driver
//! ([`Exchange::run_mappings`], then [`Exchange::finish`]) and record the
//! row bags and the retraction index from the insert stage's binding
//! touches, so they produce the very bytes a full exchange does. Stage 3
//! routes rows to classes with the member identity and fingerprint
//! insertion itself uses (`Exchange::root_members`): a row's member is
//! confirmed against the merge index through its template, and no member
//! value is built.
//!
//! Correctness rests on the annotation closed form: the final `f_mp` set of
//! any node depends only on *which* rows each mapping contributed, never on
//! the order rows were inserted, so replaying a class's surviving rows in
//! mapping order reproduces the exact annotated subtree a full re-exchange
//! would produce (canonically — arena node ids differ). The synthesized
//! [`ExchangeReport`] comes from per-mapping totals — bag rows and class
//! insert events — that each apply adjusts by what it added, removed,
//! retracted and rebuilt. The conformance law `law_incremental` in
//! dtr-check holds this identity over generated update streams, the report
//! and the kept join indexes included.

use crate::delta::{DeltaError, EditOp, SourceDelta, TargetChange, TargetDelta};
use crate::exchange::{
    effective_eval, eval_foreach, plan_exists, BindingTouch, Exchange, ExchangeError,
    ExchangeOptions, ExchangeReport, MappingStats, MemberShape, Parent, Plan, RootMember,
};
use crate::glav::Mapping;
use dtr_model::instance::{Instance, NodeData, NodeId, Value};
use dtr_model::label::Label;
use dtr_model::schema::Schema;
use dtr_model::value::AtomicValue;
use dtr_obs::Work;
use dtr_query::ast::{Expr, PathExpr, PathStart, Query, Step};
use dtr_query::eval::{BindingScope, Catalog, Domain, EvalStats, Evaluator, Source};
use dtr_query::functions::FunctionRegistry;
use dtr_query::index::{join_key_paths, JoinIndex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A foreach tuple.
type Row = Vec<AtomicValue>;
/// A multiset of foreach tuples.
type Bag = HashMap<Row, usize>;
/// A row whose member class did not exist before the batch: `(mapping,
/// row, multiplicity, insert mask over the plan's bindings)`.
type FreshRow = (usize, Row, usize, Vec<bool>);
/// What a kept join index covers: `(source, set node, field path below
/// each member)`.
type IndexKey = (usize, NodeId, Vec<Label>);

/// One term of the delta rule: a mapping's foreach query with one touching
/// from-item moved to the front. The item is a root path, so no other item
/// depends on it and the move is legal; it only reorders a cross product,
/// so the bag of rows is the foreach's. Enumerating the changed members
/// first lets every later item join them through a hash index instead of
/// walking its set.
struct Term {
    query: Query,
    /// The position in `query` of each from-item of the foreach.
    pos: Vec<usize>,
    /// Per from-item of `query`, the kept index its hash join probes.
    joins: Vec<Option<IndexKey>>,
}

impl Term {
    /// The term for item `j` of `foreach`, over `sources` (whose root sets
    /// never move: edits change members only).
    fn new(foreach: &Query, j: usize, sources: &[Instance]) -> Term {
        let mut query = foreach.clone();
        let item = query.from.remove(j);
        query.from.insert(0, item);
        let pos = (0..foreach.from.len())
            .map(|b| match b.cmp(&j) {
                std::cmp::Ordering::Less => b + 1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => b,
            })
            .collect();
        let joins = join_key_paths(&query)
            .into_iter()
            .zip(&query.from)
            .map(|(path, b)| {
                let Expr::Path(p) = &b.source else {
                    return None;
                };
                let (source, set) = root_set(sources, p)?;
                Some((source, set, path?))
            })
            .collect();
        Term { query, pos, joins }
    }
}

/// The source and set node a root path names, if it names a set.
fn root_set(sources: &[Instance], p: &PathExpr) -> Option<(usize, NodeId)> {
    let PathStart::Root(root) = &p.start else {
        return None;
    };
    let (si, mut node) = sources
        .iter()
        .enumerate()
        .find_map(|(i, s)| s.root(root).map(|n| (i, n)))?;
    let inst = &sources[si];
    for step in &p.steps {
        node = match step {
            Step::Project(l) => inst.child_by_label(node, l)?,
            Step::Choice(l) => match inst.choice_selection(node)? {
                (label, kid) if label == *l => kid,
                _ => return None,
            },
        };
    }
    inst.set_members(node).map(|_| (si, node))
}

/// Total-order key over rows, used wherever `HashMap` iteration order
/// would otherwise leak into the target's member order (atomic values
/// carry floats, so `Row` has no `Ord`). The `Debug` rendering
/// distinguishes variants — `Str("1")` never collides with `Int(1)` — so
/// the order is collision-free and identical across processes, which is
/// what makes crash recovery replay byte-identical.
fn row_order_key(row: &Row) -> String {
    format!("{row:?}")
}

/// The retraction index entry for one top-level member class: the member's
/// set, its fingerprint, and — per contributing mapping — the multiset of
/// foreach rows routed into this class plus the insert/merge event counts
/// confined to the class's chains. Keyed by the member's current node id.
/// Which root bindings route a row here is not stored; replay tests each
/// row's root bindings against the class's member value, the snapshot its
/// merge-index entry kept.
#[derive(Clone, Debug)]
struct ClassState {
    set: NodeId,
    fp: u64,
    /// mapping index → row → multiplicity.
    rows: BTreeMap<usize, Bag>,
    /// mapping index → (member-binding insert events, merge events).
    stats: BTreeMap<usize, (usize, usize)>,
    /// The merge-index keys of the members the class's nested bindings
    /// created: every merge-index entry of a set inside the member.
    nested: Vec<(NodeId, u64)>,
}

impl ClassState {
    fn is_drained(&self) -> bool {
        self.rows.values().all(HashMap::is_empty)
    }

    fn remaining_rows(&self) -> usize {
        self.rows.values().flat_map(HashMap::values).sum()
    }
}

/// How one apply re-enumerates a mapping's foreach rows.
enum Reeval {
    /// No from-item can touch a changed path: skip.
    Pruned,
    /// The delta rule over the touching root from-items, in binding order:
    /// `(from-binding index, index of its set's change)`. Removed rows sum
    /// one term per item with deleted members, over the old sources; added
    /// rows one per item with inserted members, over the new.
    Delta(Vec<(usize, usize)>),
    /// A function- or annotation-sourced from-item can depend on any
    /// source state: full re-evaluation plus multiset bag diff.
    Full,
}

/// One resolved edit batch against one source set.
struct SetChange {
    source: usize,
    set: NodeId,
    /// The set's path as a binding over it renders (`C.k->a.s` through a
    /// choice alternative): the pruning key.
    path: String,
    /// Member list before the batch (for rollback).
    original: Vec<NodeId>,
    /// Pre-existing members the batch removes.
    deleted: Vec<NodeId>,
    /// Values the batch appends (insert-then-delete already cancelled).
    inserted_values: Vec<Value>,
    /// Node ids of the appended members (filled at mutation time).
    inserted: Vec<NodeId>,
}

/// The incremental exchange engine. Owns its sources, target and retraction
/// index; constructed by a full build, advanced by [`IncrementalExchange::apply`],
/// reset by [`IncrementalExchange::rebase`].
pub struct IncrementalExchange {
    source_schemas: Vec<Schema>,
    sources: Vec<Instance>,
    target_schema: Schema,
    mappings: Vec<Mapping>,
    functions: FunctionRegistry,
    opts: ExchangeOptions,
    member_fp: fn(u64) -> u64,
    plans: Vec<Plan>,
    root_of: Vec<Vec<usize>>,
    bags: Vec<Bag>,
    /// Per mapping, the rows its bag holds and the member-binding insert
    /// events its classes hold: the report's `tuples` and
    /// `rows_inserted`, kept as the bags and classes change.
    totals: Vec<(usize, usize)>,
    target: Instance,
    merge_index: HashMap<(NodeId, u64), Vec<(Value, NodeId)>>,
    classes: HashMap<NodeId, ClassState>,
    /// The delta-rule terms built so far, by `(mapping, from-item)`.
    terms: HashMap<(usize, usize), Term>,
    /// Hash indexes over source sets, one per set and field path a term's
    /// hash join keys on: built on first use, kept as members come and go,
    /// dropped by a failed apply and by a rebase.
    indexes: HashMap<IndexKey, Arc<JoinIndex>>,
    report: ExchangeReport,
    batch: u64,
    /// What the engine's calls did: each build and rebase's exchange,
    /// each applied batch and its delta-term evaluations, and the guard
    /// errors the calls returned.
    work: Work,
}

impl IncrementalExchange {
    /// Builds the initial target with a full exchange and the retraction
    /// index alongside it. `source_schemas` and `sources` are aligned.
    pub fn new(
        source_schemas: Vec<Schema>,
        sources: Vec<Instance>,
        target_schema: Schema,
        mappings: Vec<Mapping>,
        functions: FunctionRegistry,
        opts: ExchangeOptions,
    ) -> Result<Self, DeltaError> {
        let mut me = IncrementalExchange {
            source_schemas,
            sources,
            target: Instance::new(target_schema.name().to_string()),
            target_schema,
            mappings,
            functions,
            opts,
            member_fp: std::convert::identity,
            plans: Vec::new(),
            root_of: Vec::new(),
            bags: Vec::new(),
            totals: Vec::new(),
            merge_index: HashMap::new(),
            classes: HashMap::new(),
            terms: HashMap::new(),
            indexes: HashMap::new(),
            report: ExchangeReport::default(),
            batch: 0,
            work: Work::default(),
        };
        me.rebase()?;
        Ok(me)
    }

    /// Overrides the member fingerprint used for PNF-merge bucketing (see
    /// [`Exchange::set_member_fingerprinter`] for the contract) and rebases
    /// so the whole index is built under the override. Conformance-testing
    /// hook for forcing collision splits under retraction.
    pub fn set_member_fingerprinter(&mut self, f: fn(u64) -> u64) -> Result<(), DeltaError> {
        self.member_fp = f;
        self.rebase()
    }

    /// Drops every increment and rebuilds target, bags, merge index and
    /// retraction index from the current sources: a full exchange under the
    /// engine's options (parallel foreach evaluation included), with the
    /// bags and the retraction index recorded from its insert stage.
    pub fn rebase(&mut self) -> Result<(), DeltaError> {
        let span = dtr_obs::span("exchange.incremental.rebase");
        let plans = self
            .mappings
            .iter()
            .map(|m| plan_exists(m, &self.target_schema))
            .collect::<Result<Vec<_>, _>>()?;
        let root_of: Vec<Vec<usize>> = plans.iter().map(Plan::root_of).collect();
        let mut bags = vec![Bag::new(); self.mappings.len()];
        let mut totals = vec![(0, 0); self.mappings.len()];
        let mut classes = HashMap::new();
        let mut record = |mi: usize, row: Row, touches: &[BindingTouch]| {
            totals[mi].1 += record_row(&mut classes, &root_of[mi], touches, mi, &row);
            totals[mi].0 += 1;
            *bags[mi].entry(row).or_insert(0) += 1;
        };
        let mut ex = Exchange::new(
            source_views(&self.source_schemas, &self.sources),
            &self.target_schema,
            &self.functions,
        );
        ex.set_member_fingerprinter(self.member_fp);
        ex.sink = Some(&mut record);
        if let Err(e) = ex.run_mappings(&self.mappings, &self.opts) {
            if e.guard().is_some() {
                self.work.guard_trips += 1;
            }
            return Err(e.into());
        }
        let merge_index = std::mem::take(&mut ex.merge_index);
        let (target, report) = ex.finish()?;
        self.work += report.work();
        self.bags = bags;
        self.totals = totals;
        self.classes = classes;
        self.plans = plans;
        self.root_of = root_of;
        self.target = target;
        self.merge_index = merge_index;
        self.indexes.clear();
        self.batch = 0;
        self.synthesize_report();
        span.record("classes", self.classes.len());
        Ok(())
    }

    /// Applies one edit batch: mutates the sources and brings the target —
    /// instance, annotations, merge index and report — to exactly what a
    /// full re-exchange over the mutated sources would produce
    /// (canonically). On error nothing is changed: resolution errors abort
    /// before any mutation, and mid-batch failures (budget trips included)
    /// roll both sides back.
    pub fn apply(&mut self, delta: &SourceDelta) -> Result<TargetDelta, DeltaError> {
        let started = std::time::Instant::now();
        let span = dtr_obs::span("exchange.incremental.apply").field("edits", delta.edits.len());
        // Deep target-side snapshot only when a budget can trip mid-replay;
        // source sets are always restorable from the per-set originals.
        let snapshot = self.opts.budget.is_limited().then(|| {
            (
                (self.bags.clone(), self.totals.clone()),
                self.target.clone(),
                self.merge_index.clone(),
                self.classes.clone(),
            )
        });
        let mut changes = self.resolve(delta)?;
        let mut eval = EvalStats::default();
        let result = self.apply_resolved(&mut changes, &mut eval);
        self.work += Work::from(eval);
        match result {
            Ok(mut td) => {
                self.batch += 1;
                td.batch = self.batch;
                td.edits = delta.edits.len();
                self.synthesize_report();
                self.work += Work {
                    exchange_delta_batches: 1,
                    exchange_delta_edits: td.edits as u64,
                    exchange_delta_rows_added: td.rows_added as u64,
                    exchange_delta_rows_removed: td.rows_removed as u64,
                    exchange_delta_classes_rebuilt: td.classes_rebuilt as u64,
                    exchange_delta_mappings_pruned: td.mappings_pruned as u64,
                    exchange_delta_mappings_reevaluated: td.mappings_reevaluated as u64,
                    exchange_delta_mappings_full: td.mappings_full as u64,
                    ..Work::default()
                };
                let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if dtr_obs::journal::enabled() {
                    dtr_obs::journal::record(dtr_obs::journal::event(
                        "exchange.apply_delta",
                        dtr_obs::journal::Outcome::DeltaApplied {
                            edits: td.edits as u64,
                            rebuilt: td.classes_rebuilt as u64,
                        },
                    ));
                }
                if dtr_obs::recorder::enabled() {
                    dtr_obs::recorder::record_delta_window(
                        self.batch,
                        td.edits as u64,
                        td.classes_rebuilt as u64,
                        td.retracted.len() as u64,
                        wall,
                    );
                    dtr_obs::recorder::record_work(&self.work);
                }
                span.record("rebuilt", td.classes_rebuilt);
                Ok(td)
            }
            Err(e) => {
                if matches!(&e, DeltaError::Exchange(x) if x.guard().is_some()) {
                    self.work.guard_trips += 1;
                    self.work.guard_rollbacks += 1;
                }
                // Roll the source sets back and re-derive their element
                // annotations, then restore the target-side state. The
                // join indexes may have followed the mutation part way:
                // drop them, and build them afresh when next needed.
                self.indexes.clear();
                for c in &changes {
                    self.sources[c.source].replace_children(c.set, c.original.clone());
                    for &d in &c.inserted {
                        self.sources[c.source].strip_annotations(d);
                    }
                    let _ =
                        self.sources[c.source].annotate_elements(&self.source_schemas[c.source]);
                }
                if let Some(((bags, totals), target, merge_index, classes)) = snapshot {
                    self.bags = bags;
                    self.totals = totals;
                    self.target = target;
                    self.merge_index = merge_index;
                    self.classes = classes;
                }
                Err(e)
            }
        }
    }

    /// The annotated target instance as of the last apply.
    pub fn target(&self) -> &Instance {
        &self.target
    }

    /// The (mutated) source instances, aligned with [`IncrementalExchange::source_schemas`].
    pub fn sources(&self) -> &[Instance] {
        &self.sources
    }

    /// The source schemas.
    pub fn source_schemas(&self) -> &[Schema] {
        &self.source_schemas
    }

    /// The target schema.
    pub fn target_schema(&self) -> &Schema {
        &self.target_schema
    }

    /// The mappings this engine executes.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// The synthesized exchange report: per-mapping `tuples`, `bindings`,
    /// `rows_inserted` and `rows_merged` match what a full re-exchange over
    /// the current sources would report (annotation and wall-time fields
    /// are not maintained incrementally and stay zero).
    pub fn report(&self) -> &ExchangeReport {
        &self.report
    }

    /// Batches applied since the last rebase.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The engine's work tally since it was built: every build and
    /// rebase exchange ([`ExchangeReport::work`]), every applied batch's
    /// counts and delta-term evaluations, and the guard errors its calls
    /// returned (an apply that tripped also counts one rollback). It is
    /// this engine's alone: another engine's calls never move it.
    pub fn work(&self) -> Work {
        self.work
    }

    /// The join indexes the engine keeps over its sources, in no
    /// particular order. Each must equal one [`JoinIndex::build`] makes
    /// over the current sources.
    pub fn join_indexes(&self) -> impl Iterator<Item = &JoinIndex> {
        self.indexes.values().map(|ix| &**ix)
    }

    /// Resolves an edit batch against the sources *without mutating them*:
    /// sequential index resolution over a simulated member list, with
    /// insert-then-delete cancellation.
    fn resolve(&self, delta: &SourceDelta) -> Result<Vec<SetChange>, DeltaError> {
        enum Slot {
            Old(NodeId),
            New(usize),
        }
        let mut changes: Vec<SetChange> = Vec::new();
        let mut slots: Vec<Vec<Slot>> = Vec::new();
        let mut pending: Vec<Vec<Option<Value>>> = Vec::new();
        for edit in &delta.edits {
            let (source, set, path) = self.resolve_set_path(&edit.path)?;
            let ci = match changes
                .iter()
                .position(|c| c.source == source && c.set == set)
            {
                Some(i) => i,
                None => {
                    let original = self.sources[source]
                        .set_members(set)
                        .expect("resolved to a set")
                        .to_vec();
                    slots.push(original.iter().map(|&n| Slot::Old(n)).collect());
                    pending.push(Vec::new());
                    changes.push(SetChange {
                        source,
                        set,
                        path,
                        original,
                        deleted: Vec::new(),
                        inserted_values: Vec::new(),
                        inserted: Vec::new(),
                    });
                    changes.len() - 1
                }
            };
            let c = &mut changes[ci];
            let list = &mut slots[ci];
            let news = &mut pending[ci];
            let delete = |idx: usize,
                          list: &mut Vec<Slot>,
                          news: &mut [Option<Value>],
                          c: &mut SetChange|
             -> Result<(), DeltaError> {
                if idx >= list.len() {
                    return Err(DeltaError::Index(format!(
                        "{}[{}]: set has {} member(s)",
                        c.path,
                        idx,
                        list.len()
                    )));
                }
                match list.remove(idx) {
                    Slot::Old(n) => c.deleted.push(n),
                    Slot::New(k) => news[k] = None,
                }
                Ok(())
            };
            match &edit.op {
                EditOp::Insert(v) => {
                    list.push(Slot::New(news.len()));
                    news.push(Some(v.clone()));
                }
                EditOp::Delete(idx) => delete(*idx, list, news, c)?,
                EditOp::Modify(idx, v) => {
                    delete(*idx, list, news, c)?;
                    list.push(Slot::New(news.len()));
                    news.push(Some(v.clone()));
                }
            }
        }
        for (ci, news) in pending.into_iter().enumerate() {
            changes[ci].inserted_values = news.into_iter().flatten().collect();
        }
        changes.retain(|c| !c.deleted.is_empty() || !c.inserted_values.is_empty());
        Ok(changes)
    }

    /// Resolves a root-rooted dot path to `(source index, set node, key)`,
    /// where the key is the path a binding over the set renders: `->`
    /// before a choice alternative (`C.k.a.s` resolves through choice `k`'s
    /// selected alternative `a` and keys as `C.k->a.s`), `.` elsewhere.
    fn resolve_set_path(&self, path: &str) -> Result<(usize, NodeId, String), DeltaError> {
        let mut parts = path.split('.');
        let root = parts.next().unwrap_or_default();
        let (si, mut node) = self
            .sources
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.root(root).map(|n| (i, n)))
            .ok_or_else(|| DeltaError::Path(format!("no source has a root `{root}`")))?;
        let source = &self.sources[si];
        let mut key = root.to_string();
        for label in parts {
            key.push_str(match source.node(node).data {
                NodeData::Choice(_) => "->",
                _ => ".",
            });
            key.push_str(label);
            node = source
                .child_by_label(node, label)
                .ok_or_else(|| DeltaError::Path(format!("`{path}`: no field `{label}`")))?;
        }
        if source.set_members(node).is_none() {
            return Err(DeltaError::Path(format!("`{path}` is not a set")));
        }
        Ok((si, node, key))
    }

    /// Classifies how a mapping must be re-enumerated for the batch's
    /// changes.
    fn classify(&self, mi: usize, changes: &[SetChange]) -> Reeval {
        let mut touching: Vec<(usize, usize)> = Vec::new();
        for (bi, b) in self.mappings[mi].foreach.from.iter().enumerate() {
            match &b.source {
                Expr::Path(p) => {
                    if matches!(p.start, PathStart::Root(_)) {
                        let key = p.to_string();
                        if let Some(ci) = changes.iter().position(|c| c.path == key) {
                            touching.push((bi, ci));
                        }
                    }
                }
                // Function- or annotation-sourced bindings can depend on
                // arbitrary source state; re-evaluate in full.
                _ => return Reeval::Full,
            }
        }
        if touching.is_empty() {
            Reeval::Pruned
        } else {
            Reeval::Delta(touching)
        }
    }

    /// Builds the terms this batch's delta rule runs that no earlier batch
    /// did, and the join indexes their hash joins key on, over the sources
    /// as they stand before the batch mutates them.
    fn prepare_terms(&mut self, modes: &[Reeval]) {
        for (mi, mode) in modes.iter().enumerate() {
            let Reeval::Delta(touching) = mode else {
                continue;
            };
            for &(bi, _) in touching {
                let foreach = &self.mappings[mi].foreach;
                let sources = &self.sources;
                let term = self
                    .terms
                    .entry((mi, bi))
                    .or_insert_with(|| Term::new(foreach, bi, sources));
                for key in term.joins.iter().flatten() {
                    self.indexes.entry(key.clone()).or_insert_with(|| {
                        let (source, set, path) = key.clone();
                        Arc::new(JoinIndex::build(source, &sources[source], set, path))
                    });
                }
            }
        }
    }

    /// The rows each delta-ruled mapping gains or loses, over the sources
    /// as they stand: one evaluation of term j per touching item j whose
    /// change has `members` (deleted or inserted), with item j — first in
    /// the term — limited to those members, every earlier touching item to
    /// its set minus its own change's `members`, and every hash join
    /// probing the kept index on its key. Each term's evaluator stats add
    /// into `eval_stats`.
    fn delta_rows(
        &self,
        modes: &[Reeval],
        changes: &[SetChange],
        members: impl Fn(&SetChange) -> &[NodeId],
        eval_stats: &mut EvalStats,
    ) -> Result<Vec<Bag>, DeltaError> {
        let catalog = Catalog::new(source_views(&self.source_schemas, &self.sources));
        let eval = effective_eval(&self.opts);
        let mut out = vec![Bag::new(); modes.len()];
        for (mi, mode) in modes.iter().enumerate() {
            let Reeval::Delta(touching) = mode else {
                continue;
            };
            for (t, &(bi, ci)) in touching.iter().enumerate() {
                let ids = members(&changes[ci]);
                if ids.is_empty() {
                    continue;
                }
                let term = &self.terms[&(mi, bi)];
                let mut scopes: HashMap<usize, BindingScope> = HashMap::new();
                scopes.entry(0).or_default().domain = Some(Domain::Only(ids.to_vec()));
                // Earlier items count only the tuples whose first changed
                // member sits at this one.
                for &(bk, ck) in &touching[..t] {
                    let earlier = members(&changes[ck]);
                    if !earlier.is_empty() {
                        scopes.entry(term.pos[bk]).or_default().domain =
                            Some(Domain::Except(earlier.iter().copied().collect()));
                    }
                }
                for (at, key) in term.joins.iter().enumerate() {
                    if let Some(ix) = key.as_ref().and_then(|k| self.indexes.get(k)) {
                        scopes.entry(at).or_default().index = Some(Arc::clone(ix));
                    }
                }
                let mut opts = eval.clone();
                opts.domains = Some(Arc::new(scopes));
                let result = Evaluator::new(&catalog, &self.functions)
                    .with_options(opts)
                    .run(&term.query)
                    .map_err(ExchangeError::from)?;
                *eval_stats += result.stats;
                for row in result.into_tuples() {
                    *out[mi].entry(row).or_insert(0) += 1;
                }
            }
        }
        Ok(out)
    }

    /// The post-resolution pipeline: delta-rule/full re-enumeration, bag
    /// updates, dirty-class rebuild, skeleton sync, element annotation of
    /// the nodes the batch created. The evaluator stats of every delta
    /// term and full re-evaluation add into `eval`, whether or not the
    /// batch completes.
    fn apply_resolved(
        &mut self,
        changes: &mut [SetChange],
        eval: &mut EvalStats,
    ) -> Result<TargetDelta, DeltaError> {
        let mut td = TargetDelta::default();
        if changes.is_empty() {
            td.mappings_pruned = self.mappings.len();
            return Ok(td);
        }
        let modes: Vec<Reeval> = (0..self.mappings.len())
            .map(|mi| self.classify(mi, changes))
            .collect();

        // Phase 1 (pure): removed rows of delta-ruled mappings, evaluated
        // over the *old* sources, where the deleted members still sit.
        self.prepare_terms(&modes);
        let mut removed = self.delta_rows(&modes, changes, |c| &c.deleted, eval)?;

        // Phase 2: mutate the sources and annotate the members the batch
        // appended — the arena suffix; nothing older changes element.
        for c in changes.iter_mut() {
            let source = &mut self.sources[c.source];
            for &d in &c.deleted {
                source.detach_set_member(c.set, d);
                source.strip_annotations(d);
            }
            let appended_from = source.len();
            for v in &c.inserted_values {
                c.inserted.push(source.push_set_member(c.set, v));
            }
            // The kept indexes over this set follow its members.
            for (key, ix) in self.indexes.iter_mut() {
                if (key.0, key.1) == (c.source, c.set) {
                    let ix = Arc::make_mut(ix);
                    for &d in &c.deleted {
                        ix.remove(source, d);
                    }
                    for &n in &c.inserted {
                        ix.insert(source, n);
                    }
                }
            }
            source
                .annotate_elements_from(&self.source_schemas[c.source], appended_from)
                .map_err(|e| {
                    ExchangeError::Conformance(format!(
                        "inserted member does not conform at `{}`: {e}",
                        c.path
                    ))
                })?;
        }

        // Phase 3: added rows (delta rule over the new sources) and full
        // re-evaluations, then bag updates.
        let mut added = self.delta_rows(&modes, changes, |c| &c.inserted, eval)?;
        {
            let views = source_views(&self.source_schemas, &self.sources);
            let opts = effective_eval(&self.opts);
            for (mi, mode) in modes.iter().enumerate() {
                match mode {
                    Reeval::Pruned => td.mappings_pruned += 1,
                    Reeval::Delta(_) => td.mappings_reevaluated += 1,
                    Reeval::Full => {
                        td.mappings_reevaluated += 1;
                        td.mappings_full += 1;
                        let (rows, stats, _) = eval_foreach(
                            &views,
                            &self.functions,
                            &self.mappings[mi],
                            opts.clone(),
                        )?;
                        *eval += stats;
                        (removed[mi], added[mi]) = bag_diff(&self.bags[mi], &bag_of(rows));
                    }
                }
            }
        }
        for mi in 0..self.mappings.len() {
            for (row, &k) in &removed[mi] {
                td.rows_removed += k;
                match self.bags[mi].get_mut(row) {
                    Some(n) if *n >= k => {
                        *n -= k;
                        self.totals[mi].0 -= k;
                        if *n == 0 {
                            self.bags[mi].remove(row);
                        }
                    }
                    _ => {
                        return Err(DeltaError::Exchange(ExchangeError::Conformance(format!(
                            "mapping {}: retracted row not in bag",
                            self.mappings[mi].name
                        ))))
                    }
                }
            }
            for (row, &k) in &added[mi] {
                td.rows_added += k;
                self.totals[mi].0 += k;
                *self.bags[mi].entry(row.clone()).or_insert(0) += k;
            }
        }

        // Phases 4–6 run on a transient exchange over the live target
        // state: route the removed/added rows to their member classes,
        // rebuild the dirty classes and insert the fresh members, then sync
        // skeletons and annotate the elements of the nodes this batch
        // created. The target and merge index return to the engine whether
        // or not a phase fails.
        let created_from = self.target.len();
        let mut ex = Exchange::new(Vec::new(), &self.target_schema, &self.functions);
        ex.target = std::mem::replace(&mut self.target, Instance::new("swap"));
        ex.merge_index = std::mem::take(&mut self.merge_index);
        ex.set_member_fingerprinter(self.member_fp);
        ex.set_budget(&self.opts.budget);
        let mut replay = Replay {
            mappings: &self.mappings,
            plans: &self.plans,
            root_of: &self.root_of,
            templates: self.opts.member_templates,
            shapes: self
                .plans
                .iter()
                .map(|p| (0..p.bindings.len()).map(|_| None).collect())
                .collect(),
            totals: &mut self.totals,
        };
        let result = replay
            .route(&ex, &mut self.classes, &removed, &added)
            .and_then(|(dirty, fresh)| {
                replay.rebuild(&mut ex, &dirty, fresh, &mut td, &mut self.classes)
            })
            .and_then(|()| {
                sync_skeletons(&mut ex, &self.mappings, &self.plans, &self.bags);
                ex.target
                    .annotate_elements_from(&self.target_schema, created_from)
                    .map_err(|e| DeltaError::Exchange(ExchangeError::Conformance(e.to_string())))
            });
        self.target = ex.target;
        self.merge_index = ex.merge_index;
        result.map(|()| td)
    }

    /// Regenerates the report from the kept totals and the plans: `tuples`
    /// is the bag size, `bindings = tuples × |plan|`, and `rows_inserted`
    /// the sum of the member-binding insert events over all classes — the
    /// same attribution a full exchange's execution order produces.
    fn synthesize_report(&mut self) {
        let mut report = ExchangeReport::default();
        for (mi, m) in self.mappings.iter().enumerate() {
            let (tuples, inserted) = self.totals[mi];
            let bindings = tuples * self.plans[mi].bindings.len();
            report.per_mapping.push(MappingStats {
                mapping: m.name.clone(),
                tuples,
                bindings,
                rows_inserted: inserted,
                rows_merged: bindings.saturating_sub(inserted),
                ..MappingStats::default()
            });
        }
        self.report = report;
    }
}

/// The target-side phases of one apply: the engine's mappings with their
/// plans and root chains, the member constructor in use, the member
/// templates routing and insertion share, and the engine's totals, whose
/// insert events follow the classes retracted and rebuilt.
struct Replay<'e> {
    mappings: &'e [Mapping],
    plans: &'e [Plan],
    root_of: &'e [Vec<usize>],
    templates: bool,
    shapes: Vec<Vec<Option<MemberShape>>>,
    totals: &'e mut [(usize, usize)],
}

impl Replay<'_> {
    /// Where mapping `mi`'s root bindings put `row` in the live target.
    fn root_members(
        &mut self,
        ex: &Exchange<'_>,
        mi: usize,
        row: &Row,
    ) -> Result<Vec<RootMember>, ExchangeError> {
        ex.root_members(
            &self.mappings[mi],
            &self.plans[mi],
            row,
            self.templates,
            &mut self.shapes[mi],
        )
    }

    /// The insert mask covering the chains of the root bindings `picked`.
    fn mask(&self, mi: usize, picked: &[usize]) -> Vec<bool> {
        self.root_of[mi]
            .iter()
            .map(|r| picked.contains(r))
            .collect()
    }

    /// The insert mask covering the chains of the root bindings that build
    /// `value` in `set` from `row`: a class's replay mask, its snapshot
    /// tested through the templates.
    fn snapshot_mask(
        &mut self,
        ex: &Exchange<'_>,
        mi: usize,
        row: &Row,
        set: NodeId,
        value: &Value,
    ) -> Result<Vec<bool>, ExchangeError> {
        let mut picked = Vec::new();
        ex.visit_roots(
            &self.mappings[mi],
            &self.plans[mi],
            row,
            self.templates,
            &mut self.shapes[mi],
            |binding, at, _, candidate| {
                if at == Some(set) && candidate.matches(value) {
                    picked.push(binding);
                }
            },
        )?;
        Ok(self.mask(mi, &picked))
    }

    /// Phase 4: routes removed and added rows to their member classes.
    /// Removed rows leave their classes; added rows join the classes whose
    /// members exist, and the rest become fresh rows masked to the root
    /// bindings whose members do not. Returns the dirty classes and the
    /// fresh rows.
    fn route(
        &mut self,
        ex: &Exchange<'_>,
        classes: &mut HashMap<NodeId, ClassState>,
        removed: &[Bag],
        added: &[Bag],
    ) -> Result<(HashSet<NodeId>, Vec<FreshRow>), DeltaError> {
        let mut dirty: HashSet<NodeId> = HashSet::new();
        let mut fresh: Vec<FreshRow> = Vec::new();
        let broken = |what: &str| DeltaError::Exchange(ExchangeError::Conformance(what.into()));
        for mi in 0..self.mappings.len() {
            // HashMap order must not leak into the target: fresh members
            // are appended in this iteration order, so replaying the same
            // delta (crash recovery) has to walk the same sequence.
            let mut additions: Vec<(&Row, usize)> =
                added[mi].iter().map(|(row, &k)| (row, k)).collect();
            additions.sort_by_cached_key(|(row, _)| row_order_key(row));
            let removals = removed[mi].iter().map(|(row, &k)| (row, k, false));
            for (row, k, adding) in removals.chain(additions.into_iter().map(|(r, k)| (r, k, true)))
            {
                let roots = self.root_members(ex, mi, row)?;
                for (i, r) in roots.iter().enumerate() {
                    // Two root bindings building one member count the row
                    // once (see `record_row`).
                    if roots[..i].iter().any(|p| p.member == r.member) {
                        continue;
                    }
                    let member = match r.member {
                        Some(member) => member,
                        None if adding => continue,
                        None => return Err(broken("retracted member missing from merge index")),
                    };
                    dirty.insert(member);
                    let cls = classes
                        .get_mut(&member)
                        .ok_or_else(|| broken("member missing from retraction index"))?;
                    let per = cls.rows.entry(mi).or_default();
                    let n = per.entry(row.clone()).or_insert(0);
                    if adding {
                        *n += k;
                    } else if *n >= k {
                        *n -= k;
                        if *n == 0 {
                            per.remove(row);
                        }
                    } else {
                        return Err(broken("retraction index out of step with row bags"));
                    }
                }
                if adding {
                    let absent: Vec<usize> = roots
                        .iter()
                        .filter(|r| r.member.is_none())
                        .map(|r| r.binding)
                        .collect();
                    if !absent.is_empty() {
                        fresh.push((mi, row.clone(), k, self.mask(mi, &absent)));
                    }
                }
            }
        }
        Ok((dirty, fresh))
    }

    /// Phase 5: detaches and replays every dirty class, then inserts the
    /// fresh rows (members that did not exist before this batch), all in
    /// mapping order within each class.
    fn rebuild(
        &mut self,
        ex: &mut Exchange<'_>,
        dirty: &HashSet<NodeId>,
        fresh: Vec<FreshRow>,
        td: &mut TargetDelta,
        classes: &mut HashMap<NodeId, ClassState>,
    ) -> Result<(), DeltaError> {
        let mut order: Vec<NodeId> = dirty.iter().copied().collect();
        order.sort_unstable();
        for member in order {
            let Some(cls) = classes.remove(&member) else {
                continue;
            };
            for (&mi, &(ins, _)) in &cls.stats {
                self.totals[mi].1 -= ins;
            }
            let set_path = ex.target.node_path(cls.set);
            // Detach: unlink the member, strip its annotations, and prune
            // the merge-index entries of the sets inside it — the keys the
            // class recorded, so no other entry is visited — plus its own
            // bucket slot, whose value identifies the class, so the replay
            // starts from a clean slate.
            ex.target.detach_set_member(cls.set, member);
            ex.target.strip_annotations(member);
            for key in &cls.nested {
                ex.merge_index.remove(key);
            }
            let key = (cls.set, cls.fp);
            let unindexed =
                || ExchangeError::Conformance("rebuilt member missing from merge index".into());
            let bucket = ex.merge_index.get_mut(&key).ok_or_else(unindexed)?;
            let at = bucket
                .iter()
                .position(|&(_, n)| n == member)
                .ok_or_else(unindexed)?;
            let (value, _) = bucket.remove(at);
            if bucket.is_empty() {
                ex.merge_index.remove(&key);
            }
            td.retracted.push(TargetChange {
                set_path: set_path.clone(),
                member: member.0,
            });
            if dtr_obs::journal::enabled() {
                dtr_obs::journal::record(
                    dtr_obs::journal::event(
                        "exchange.retract",
                        dtr_obs::journal::Outcome::Retracted {
                            remaining: cls.remaining_rows() as u64,
                        },
                    )
                    .binding(cls.fp)
                    .target(u64::from(member.0)),
                );
            }
            if cls.is_drained() {
                continue;
            }
            td.classes_rebuilt += 1;
            let mut replayed: HashMap<NodeId, ClassState> = HashMap::new();
            for (&mi, per) in &cls.rows {
                // Deterministic replay order: nested sets inside the rebuilt
                // member are populated row by row, so recovery must insert in
                // the same sequence the live engine did.
                let mut rows: Vec<(&Row, usize)> = per.iter().map(|(row, &n)| (row, n)).collect();
                rows.sort_by_cached_key(|(row, _)| row_order_key(row));
                for (row, count) in rows {
                    // Only the root bindings building this class's member
                    // value in its set replay; the row's other classes
                    // stay as they are.
                    let mask = self.snapshot_mask(ex, mi, row, cls.set, &value)?;
                    self.insert(ex, mi, row, count, &mask, &mut replayed)?;
                }
            }
            // The replay converges on exactly one new top-level member (the
            // class identity is one member value); adopt its node id.
            debug_assert_eq!(replayed.len(), 1, "class replay must rebuild one member");
            for (new_member, new_cls) in replayed {
                td.inserted.push(TargetChange {
                    set_path: set_path.clone(),
                    member: new_member.0,
                });
                classes.insert(new_member, new_cls);
            }
        }
        // Fresh members: rows whose class did not exist before this batch.
        let mut fresh_members: Vec<(NodeId, NodeId)> = Vec::new();
        for (mi, row, count, mask) in fresh {
            let touches = self.insert(ex, mi, &row, count, &mask, classes)?;
            for (bi, t) in touches.iter().enumerate() {
                if t.created && self.root_of[mi][bi] == bi {
                    fresh_members.push((t.set, t.member));
                }
            }
        }
        fresh_members.sort_unstable_by_key(|&(_, m)| m.0);
        fresh_members.dedup();
        for (set, member) in fresh_members {
            td.inserted.push(TargetChange {
                set_path: ex.target.node_path(set),
                member: member.0,
            });
        }
        Ok(())
    }

    /// Inserts `count` copies of one row of mapping `mi` under `mask` and
    /// folds their touches into `into` — the insert loop class replay and
    /// fresh insertion share. Returns the first copy's touches (later
    /// copies merge into the members it reached).
    fn insert(
        &mut self,
        ex: &mut Exchange<'_>,
        mi: usize,
        row: &Row,
        count: usize,
        mask: &[bool],
        into: &mut HashMap<NodeId, ClassState>,
    ) -> Result<Vec<BindingTouch>, DeltaError> {
        let mut stats = MappingStats::default();
        let mut first = Vec::new();
        for copy in 0..count {
            ex.meter.charge_rows(1).map_err(|g| ExchangeError::Guard {
                error: g,
                mappings_completed: 0,
            })?;
            let touches = ex.insert_row(
                &self.mappings[mi],
                &self.plans[mi],
                row,
                self.templates,
                &mut self.shapes[mi],
                &mut stats,
                Some(mask),
            )?;
            self.totals[mi].1 += record_row(into, &self.root_of[mi], &touches, mi, row);
            if copy == 0 {
                first = touches;
            }
        }
        Ok(first)
    }
}

/// Removes the `f_mp` names of mappings whose row bag emptied from their
/// skeleton chains, then detaches chain nodes left with no annotations and
/// no children (schema roots always stay) — matching what a from-scratch
/// exchange over the current sources would build.
fn sync_skeletons(ex: &mut Exchange<'_>, mappings: &[Mapping], plans: &[Plan], bags: &[Bag]) {
    let mut candidates: Vec<NodeId> = Vec::new();
    for (mi, m) in mappings.iter().enumerate() {
        if !bags[mi].is_empty() {
            continue;
        }
        for b in &plans[mi].bindings {
            let Parent::Root(root, steps) = &b.parent else {
                continue;
            };
            let Some(mut node) = ex.target.root(root.as_str()) else {
                continue;
            };
            ex.target.remove_mapping(node, &m.name);
            for label in steps {
                match ex.target.child_by_label(node, label) {
                    Some(c) => {
                        node = c;
                        ex.target.remove_mapping(node, &m.name);
                        candidates.push(node);
                    }
                    None => break,
                }
            }
        }
    }
    // Deepest nodes first so a drained set detaches before its (then
    // childless) record parent is considered.
    candidates.sort_unstable_by_key(|n| std::cmp::Reverse(n.0));
    candidates.dedup();
    for node in candidates {
        let unreferenced =
            ex.target.children(node).is_empty() && ex.target.annotation(node).mappings.is_empty();
        if !unreferenced {
            continue;
        }
        if let Some(parent) = ex.target.parent(node) {
            let kids: Vec<NodeId> = ex
                .target
                .children(parent)
                .iter()
                .copied()
                .filter(|&k| k != node)
                .collect();
            ex.target.replace_children(parent, kids);
            ex.target.strip_annotations(node);
        }
    }
}

/// Borrowed evaluator views over owned source instances.
fn source_views<'a>(schemas: &'a [Schema], instances: &'a [Instance]) -> Vec<Source<'a>> {
    schemas
        .iter()
        .zip(instances)
        .map(|(schema, instance)| Source { schema, instance })
        .collect()
}

/// Folds one inserted row's binding touches into the class index: counts
/// the row once under each class a root binding put it in, and attributes
/// every member-binding insert/merge event to its root class, which also
/// records the merge-index key of each member a nested binding created.
/// Returns the insert events it attributed.
fn record_row(
    classes: &mut HashMap<NodeId, ClassState>,
    root_of: &[usize],
    touches: &[BindingTouch],
    mi: usize,
    row: &Row,
) -> usize {
    let mut inserted = 0;
    for (bi, t) in touches.iter().enumerate() {
        if t.member.0 == u32::MAX || root_of[bi] != bi {
            continue;
        }
        let cls = classes.entry(t.member).or_insert_with(|| ClassState {
            set: t.set,
            fp: t.fp,
            rows: BTreeMap::new(),
            stats: BTreeMap::new(),
            nested: Vec::new(),
        });
        // Two root bindings building one member count the row once.
        let counted = touches[..bi]
            .iter()
            .enumerate()
            .any(|(bj, u)| root_of[bj] == bj && u.member == t.member);
        if !counted {
            *cls.rows
                .entry(mi)
                .or_default()
                .entry(row.clone())
                .or_insert(0) += 1;
        }
    }
    for (bi, t) in touches.iter().enumerate() {
        if t.member.0 == u32::MAX {
            continue;
        }
        let ck = touches[root_of[bi]].member;
        if let Some(cls) = classes.get_mut(&ck) {
            let s = cls.stats.entry(mi).or_insert((0, 0));
            if t.created {
                s.0 += 1;
                inserted += 1;
                if root_of[bi] != bi {
                    cls.nested.push((t.set, t.fp));
                }
            } else {
                s.1 += 1;
            }
        }
    }
    inserted
}

/// Counts rows into a multiset.
fn bag_of(rows: Vec<Row>) -> Bag {
    let mut bag = Bag::new();
    for row in rows {
        *bag.entry(row).or_insert(0) += 1;
    }
    bag
}

/// `(old − new, new − old)` as multisets.
fn bag_diff(old: &Bag, new: &Bag) -> (Bag, Bag) {
    let mut removed = Bag::new();
    let mut added = Bag::new();
    for (row, &n) in old {
        let m = new.get(row).copied().unwrap_or(0);
        if n > m {
            removed.insert(row.clone(), n - m);
        }
    }
    for (row, &n) in new {
        let m = old.get(row).copied().unwrap_or(0);
        if n > m {
            added.insert(row.clone(), n - m);
        }
    }
    (removed, added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::execute_mappings_with;
    use crate::figure1::{
        agent, eu_instance, eu_schema, figure1_mappings, house, portal_schema, posting,
        us_instance, us_schema,
    };
    use dtr_model::types::{AtomicType, Type};
    use dtr_query::functions::FunctionValue;

    /// Order-insensitive canonical rendering of an annotated instance: set
    /// members are sorted by their rendering, annotations ride along.
    fn canon_node(inst: &Instance, id: NodeId) -> String {
        let ann = inst.annotation(id);
        let el = ann.element.map(|e| format!("e{}", e.0)).unwrap_or_default();
        let maps: Vec<String> = ann.mappings.iter().map(|m| m.to_string()).collect();
        let body = match &inst.node(id).data {
            NodeData::Atomic(a) => format!("={a}"),
            NodeData::Record(kids) => {
                let inner: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
                format!("{{{}}}", inner.join(","))
            }
            NodeData::Choice(kid) => match kid {
                Some(k) => format!("<{}>", canon_node(inst, *k)),
                None => "<>".to_string(),
            },
            NodeData::Set(kids) => {
                let mut inner: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
                inner.sort();
                format!("[{}]", inner.join(","))
            }
        };
        format!("{}⟨{};{}⟩{}", inst.label(id), el, maps.join("+"), body)
    }

    fn canon(inst: &Instance) -> String {
        let mut roots: Vec<String> = inst.roots().iter().map(|&r| canon_node(inst, r)).collect();
        roots.sort();
        roots.join("\n")
    }

    fn build() -> IncrementalExchange {
        IncrementalExchange::new(
            vec![us_schema(), eu_schema()],
            vec![us_instance(), eu_instance()],
            portal_schema(),
            figure1_mappings(),
            FunctionRegistry::with_builtins(),
            ExchangeOptions::default(),
        )
        .unwrap()
    }

    /// Comparable per-mapping report row: (mapping, tuples, bindings,
    /// rows_inserted, rows_merged).
    type DecisionRow = (String, usize, usize, usize, usize);

    /// Full re-exchange over the engine's current sources, with the
    /// engine's functions; returns the canonical target plus the
    /// comparable report rows.
    fn full_reference(inc: &IncrementalExchange) -> (String, Vec<DecisionRow>) {
        let views = source_views(inc.source_schemas(), inc.sources());
        let (inst, report) = execute_mappings_with(
            &views,
            inc.target_schema(),
            inc.mappings(),
            &inc.functions,
            &ExchangeOptions::default(),
        )
        .unwrap();
        let rows = report
            .per_mapping
            .iter()
            .map(|s| {
                (
                    s.mapping.to_string(),
                    s.tuples,
                    s.bindings,
                    s.rows_inserted,
                    s.rows_merged,
                )
            })
            .collect();
        (canon(&inst), rows)
    }

    fn assert_matches_full(inc: &IncrementalExchange) {
        let (want, want_rows) = full_reference(inc);
        assert_eq!(canon(inc.target()), want, "incremental target diverged");
        let got_rows: Vec<(String, usize, usize, usize, usize)> = inc
            .report()
            .per_mapping
            .iter()
            .map(|s| {
                (
                    s.mapping.to_string(),
                    s.tuples,
                    s.bindings,
                    s.rows_inserted,
                    s.rows_merged,
                )
            })
            .collect();
        assert_eq!(got_rows, want_rows, "synthesized report diverged");
    }

    #[test]
    fn initial_build_matches_full_exchange() {
        let inc = build();
        assert_matches_full(&inc);
    }

    #[test]
    fn insert_delete_modify_stream_tracks_full_reexchange() {
        let mut inc = build();
        let steps: Vec<SourceDelta> = vec![
            // New house handled by the existing named agent: m1 gains a row.
            SourceDelta::new().insert("US.houses", house("H9", "3", "900K", "a1")),
            // New agent plus a posting churn on the other source.
            SourceDelta::new()
                .insert("US.agents", agent("a3", "name", "Jones", "555-2222"))
                .insert(
                    "EU.postings",
                    posting("H77", "2", "410K", vec![("Ads", "555-0000")]),
                ),
            // Delete the firm agent: m2's only row retracts.
            SourceDelta::new().delete("US.agents", 1),
            // Modify flips a choice alternative: Smith becomes a firm, so
            // every m1 row retracts and m2 gains rows.
            SourceDelta::new().modify("US.agents", 0, agent("a1", "firm", "SmithCo", "555-1111")),
            // Churn a posting's nested agents (PNF re-merge path).
            SourceDelta::new().modify(
                "EU.postings",
                0,
                posting(
                    "H2525",
                    "1",
                    "300K",
                    vec![("Ads", "555-0000"), ("More", "555-9999")],
                ),
            ),
            // Drain a whole set.
            SourceDelta::new()
                .delete("US.houses", 0)
                .delete("US.houses", 0)
                .delete("US.houses", 0),
        ];
        for (i, delta) in steps.iter().enumerate() {
            inc.apply(delta).unwrap_or_else(|e| panic!("step {i}: {e}"));
            assert_matches_full(&inc);
        }
    }

    #[test]
    fn untouched_mappings_are_pruned() {
        let mut inc = build();
        let td = inc
            .apply(
                &SourceDelta::new()
                    .insert("EU.postings", posting("H1", "1", "100K", vec![("A", "1")])),
            )
            .unwrap();
        // m1 and m2 read only USdb; m3 is the single re-evaluated mapping.
        assert_eq!(td.mappings_pruned, 2);
        assert_eq!(td.mappings_reevaluated, 1);
        assert_matches_full(&inc);
    }

    #[test]
    fn insert_then_delete_in_one_batch_is_a_noop() {
        let mut inc = build();
        let before = canon(inc.target());
        let td = inc
            .apply(
                &SourceDelta::new()
                    .insert("US.houses", house("HX", "9", "1", "a1"))
                    .delete("US.houses", 2),
            )
            .unwrap();
        assert!(td.is_noop(), "expected no-op, got {td:?}");
        assert_eq!(canon(inc.target()), before);
        assert_matches_full(&inc);
    }

    #[test]
    fn bad_edits_leave_engine_untouched() {
        let mut inc = build();
        let before = canon(inc.target());
        let before_src = canon(&inc.sources()[0]);
        let err = inc
            .apply(&SourceDelta::new().delete("US.nosuch", 0))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Path(_)));
        let err = inc
            .apply(&SourceDelta::new().delete("US.houses", 99))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Index(_)));
        assert_eq!(canon(inc.target()), before);
        assert_eq!(canon(&inc.sources()[0]), before_src);
        assert_matches_full(&inc);
    }

    #[test]
    fn nonconforming_insert_is_rejected_and_rolled_back() {
        let mut inc = build();
        let before = canon(inc.target());
        let before_src = canon(&inc.sources()[0]);
        for bad in [
            Value::record(vec![("bogus", Value::str("x"))]),
            Value::str("not a house"),
        ] {
            // The delete runs first, so the rollback must also restore
            // (and re-annotate) the member it detached.
            let err = inc
                .apply(
                    &SourceDelta::new()
                        .delete("US.houses", 1)
                        .insert("US.houses", bad),
                )
                .unwrap_err();
            assert!(
                err.to_string()
                    .contains("inserted member does not conform at `US.houses`"),
                "{err}"
            );
            assert_eq!(canon(inc.target()), before);
            assert_eq!(canon(&inc.sources()[0]), before_src);
        }
        assert_eq!(inc.batch(), 0);
        assert_matches_full(&inc);
    }

    #[test]
    fn rebase_resets_and_reproduces() {
        let mut inc = build();
        inc.apply(&SourceDelta::new().insert("US.houses", house("H9", "3", "900K", "a1")))
            .unwrap();
        assert_eq!(inc.batch(), 1);
        inc.rebase().unwrap();
        assert_eq!(inc.batch(), 0);
        assert_matches_full(&inc);
    }

    /// The Figure 1 sources with one extra mapping, `pairs`, whose foreach
    /// joins `US.houses` with itself on the agent.
    fn build_self_join() -> IncrementalExchange {
        let mut mappings = figure1_mappings();
        mappings.push(
            Mapping::parse(
                "pairs",
                "foreach
                   select h.hid, g.hid
                   from US.houses h, US.houses g
                   where h.aid = g.aid
                 exists
                   select c.title, c.phone
                   from Portal.contacts c",
            )
            .unwrap(),
        );
        IncrementalExchange::new(
            vec![us_schema(), eu_schema()],
            vec![us_instance(), eu_instance()],
            portal_schema(),
            mappings,
            FunctionRegistry::with_builtins(),
            ExchangeOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn self_join_takes_the_delta_rule() {
        let mut inc = build_self_join();
        // Houses H522 (a2) and H7 (a1): `pairs` holds (H522, H522) and
        // (H7, H7). Deleting H522 and inserting H9 (a1) in one batch
        // removes one pair and adds (H7, H9), (H9, H7) and (H9, H9). Both
        // items of (H9, H9) hold the new member; it counts once, at the
        // first.
        let td = inc
            .apply(
                &SourceDelta::new()
                    .insert("US.houses", house("H9", "3", "900K", "a1"))
                    .delete("US.houses", 0),
            )
            .unwrap();
        assert_eq!(td.mappings_full, 0);
        let pairs = inc.mappings().len() - 1;
        assert_eq!(inc.bags[pairs].values().sum::<usize>(), 4);
        assert_matches_full(&inc);
        // Modifies on both sides of the join, and a drain.
        for delta in [
            SourceDelta::new()
                .modify("US.houses", 0, house("H7", "1", "250K", "a2"))
                .insert("US.houses", house("H10", "2", "1M", "a2")),
            SourceDelta::new()
                .delete("US.houses", 0)
                .delete("US.houses", 0)
                .delete("US.houses", 0),
        ] {
            let td = inc.apply(&delta).unwrap();
            assert_eq!(td.mappings_full, 0);
            assert_matches_full(&inc);
        }
    }

    #[test]
    fn retraction_prunes_the_merge_index_of_the_nested_sets() {
        // `T.out` members carry a nested set of tags, filled by a nested
        // binding, so each member's class holds merge-index entries of a
        // set inside it.
        let tags = || Type::set(Type::record(vec![("t", Type::string())]));
        let shape = || Type::set(Type::record(vec![("k", Type::string()), ("tags", tags())]));
        let source =
            Schema::build("Sdb", vec![("S", Type::record(vec![("items", shape())]))]).unwrap();
        let target =
            Schema::build("Tdb", vec![("T", Type::record(vec![("out", shape())]))]).unwrap();
        let item = |k: &str, ts: &[&str]| {
            let ts = ts
                .iter()
                .map(|t| Value::record(vec![("t", Value::str(*t))]))
                .collect();
            Value::record(vec![("k", Value::str(k)), ("tags", Value::set(ts))])
        };
        let mut inst = Instance::new("Sdb");
        inst.install_root(
            "S",
            Value::record(vec![(
                "items",
                Value::set(vec![item("a", &["x", "y"]), item("b", &["z"])]),
            )]),
        );
        inst.annotate_elements(&source).unwrap();
        let mapping = Mapping::parse(
            "m",
            "foreach select i.k, g.t from S.items i, i.tags g
             exists select o.k, p.t from T.out o, o.tags p",
        )
        .unwrap();
        let mut inc = IncrementalExchange::new(
            vec![source],
            vec![inst],
            target,
            vec![mapping],
            FunctionRegistry::with_builtins(),
            ExchangeOptions::default(),
        )
        .unwrap();
        let entries =
            |inc: &IncrementalExchange| inc.merge_index.values().map(Vec::len).sum::<usize>();
        // Retag `a` (its class is replayed) and drop `b` (its class drains).
        for delta in [
            SourceDelta::new().modify("S.items", 0, item("a", &["y", "w"])),
            SourceDelta::new().delete("S.items", 0),
        ] {
            inc.apply(&delta).unwrap();
            assert_matches_full(&inc);
            // The index holds the live members' entries and no other: an
            // engine built from scratch over the same sources holds as many.
            let rebuilt = IncrementalExchange::new(
                inc.source_schemas().to_vec(),
                inc.sources().to_vec(),
                inc.target_schema().clone(),
                inc.mappings().to_vec(),
                FunctionRegistry::with_builtins(),
                ExchangeOptions::default(),
            )
            .unwrap();
            assert_eq!(entries(&inc), entries(&rebuilt));
        }
    }

    #[test]
    fn edits_through_a_choice_reach_the_binding_over_the_set() {
        let source = Schema::build(
            "Cdb",
            vec![(
                "C",
                Type::record(vec![(
                    "k",
                    Type::choice(vec![
                        (
                            "a",
                            Type::record(vec![(
                                "s",
                                Type::relation(vec![("v", AtomicType::String)]),
                            )]),
                        ),
                        ("b", Type::string()),
                    ]),
                )]),
            )],
        )
        .unwrap();
        let target = Schema::build(
            "Tdb",
            vec![(
                "T",
                Type::record(vec![(
                    "out",
                    Type::relation(vec![("v", AtomicType::String)]),
                )]),
            )],
        )
        .unwrap();
        let member = |v: &str| Value::record(vec![("v", Value::str(v))]);
        let mut inst = Instance::new("Cdb");
        inst.install_root(
            "C",
            Value::record(vec![(
                "k",
                Value::choice(
                    "a",
                    Value::record(vec![("s", Value::set(vec![member("one")]))]),
                ),
            )]),
        );
        inst.annotate_elements(&source).unwrap();
        let mapping = Mapping::parse(
            "m",
            "foreach select x.v from C.k->a.s x exists select o.v from T.out o",
        )
        .unwrap();
        let mut inc = IncrementalExchange::new(
            vec![source],
            vec![inst],
            target,
            vec![mapping],
            FunctionRegistry::with_builtins(),
            ExchangeOptions::default(),
        )
        .unwrap();
        let td = inc
            .apply(&SourceDelta::new().insert("C.k.a.s", member("two")))
            .unwrap();
        assert_eq!((td.mappings_pruned, td.rows_added), (0, 1));
        assert_matches_full(&inc);
    }

    #[test]
    fn function_sourced_binding_reevaluates_in_full() {
        let mut functions = FunctionRegistry::with_builtins();
        // A set-valued function: both spellings of a house's floor count.
        functions.register("floorsOf", |args, _| {
            let floors = args[0].value.clone().unwrap_or(AtomicValue::str(""));
            Ok(FunctionValue::Many(vec![
                AtomicValue::str(format!("{floors}F")),
                AtomicValue::str(format!("{floors}f")),
            ]))
        });
        let mapping = Mapping::parse(
            "floors",
            "foreach
               select f, h.hid
               from US.houses h, floorsOf(h.floors) f
             exists
               select c.title, c.phone
               from Portal.contacts c",
        )
        .unwrap();
        let mut inc = IncrementalExchange::new(
            vec![us_schema(), eu_schema()],
            vec![us_instance(), eu_instance()],
            portal_schema(),
            vec![mapping],
            functions,
            ExchangeOptions::default(),
        )
        .unwrap();
        for delta in [
            SourceDelta::new().insert("US.houses", house("H9", "3", "900K", "a1")),
            SourceDelta::new().modify("US.houses", 0, house("H522", "4", "500K", "a2")),
            // A batch on a set the mapping never reads still re-runs it.
            SourceDelta::new().delete("US.agents", 0),
        ] {
            let td = inc.apply(&delta).unwrap();
            assert_eq!((td.mappings_reevaluated, td.mappings_full), (1, 1));
            assert_matches_full(&inc);
        }
    }

    #[test]
    fn batch_equals_singletons_applied_in_order() {
        let mut batched = build();
        let mut single = build();
        let delta = SourceDelta::new()
            .insert("US.houses", house("H9", "3", "900K", "a1"))
            .delete("US.agents", 1)
            .insert(
                "EU.postings",
                posting("H77", "2", "410K", vec![("Ads", "0")]),
            );
        batched.apply(&delta).unwrap();
        for e in &delta.edits {
            single
                .apply(&SourceDelta {
                    edits: vec![e.clone()],
                })
                .unwrap();
        }
        assert_eq!(canon(batched.target()), canon(single.target()));
    }
}
