//! Equi-join keys, and hash indexes over a set's members that a caller
//! keeps across evaluator runs.
//!
//! A hash join (see [`EvalOptions::hash_join`](crate::eval::EvalOptions::hash_join))
//! buckets a binding's candidate items by the join keys of their value
//! on the candidate side of an equi-join, and probes the buckets once per
//! row. The evaluator builds that table anew in every run. A
//! [`JoinIndex`] is the same table over one set's members, kept by the
//! caller: the incremental exchange keeps one per (source set, field path)
//! a delta term's hash join keys on, updates it in place as members come
//! and go, and hands it to the run in the binding's
//! [`BindingScope`](crate::eval::BindingScope). [`join_key_paths`] reports
//! which field path each binding's hash join keys on, so a caller never
//! has to guess it; a run probes an index only when its path is exactly
//! that one and it covers the set the binding ranges over, and builds its
//! own table otherwise.

use crate::ast::{Expr, PathStart, Query, Step};
use crate::eval::Catalog;
use crate::functions::FunctionRegistry;
use crate::program::Program;
use dtr_model::instance::{Instance, NodeId};
use dtr_model::label::Label;
use dtr_model::value::AtomicValue;
use std::collections::HashMap;
use std::sync::Arc;

/// A conservative hash key for equi-join bucketing: values that
/// [`coerced_compare`](crate::eval::coerced_compare) treats as equal always
/// share at least one key, so a bucket probe can only miss values that
/// could never compare equal. Bucket mates are *confirmed* with the real
/// comparison before use, so spurious key sharing is harmless (it only
/// costs an extra test).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey {
    /// Int (widened) and Float, keyed by the widened f64 bit pattern —
    /// exactly the pairs `AtomicValue::compare` can call equal.
    Num(u64),
    Bool(bool),
    /// Str text, Db names, Map names, and Elem paths share one text key
    /// space, because MXQL string constants coerce against meta values.
    /// A `Str` value's key shares its bytes.
    Text(Arc<str>),
}

/// The keys a value is findable under. A plain string yields up to two:
/// its text (matching Str/Db/Map) and its canonical element path
/// (matching Elem) — mirroring the two branches of `meta_str_compare`.
pub(crate) fn join_keys(v: &AtomicValue) -> Vec<JoinKey> {
    match v {
        AtomicValue::Str(s) => {
            let canon = dtr_model::value::canonical_path(s);
            if canon == **s {
                vec![JoinKey::Text(s.clone())]
            } else {
                vec![JoinKey::Text(s.clone()), JoinKey::Text(canon.into())]
            }
        }
        AtomicValue::Int(i) => vec![JoinKey::Num((*i as f64).to_bits())],
        AtomicValue::Float(x) => vec![JoinKey::Num(x.to_bits())],
        AtomicValue::Bool(b) => vec![JoinKey::Bool(*b)],
        AtomicValue::Db(d) => vec![JoinKey::Text(d.as_str().into())],
        AtomicValue::Map(m) => vec![JoinKey::Text(m.as_str().into())],
        AtomicValue::Elem(e) => vec![JoinKey::Text(e.path.as_str().into())],
    }
}

/// Merges the (ascending) bucket lists for a set of probe keys into one
/// ascending, deduplicated candidate list. Over a per-run table, whose
/// buckets hold item positions, this is exactly the order the nested-loop
/// scan would have visited the candidates in, so both engines produce
/// identical row orders.
pub(crate) fn probe_buckets<T: Copy + Ord>(
    table: &HashMap<JoinKey, Vec<T>>,
    keys: &[JoinKey],
) -> Vec<T> {
    match keys {
        [k] => table.get(k).cloned().unwrap_or_default(),
        [k1, k2] => {
            let a: &[T] = table.get(k1).map_or(&[], |v| v.as_slice());
            let b: &[T] = table.get(k2).map_or(&[], |v| v.as_slice());
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        out.push(a[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(b[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        }
        _ => Vec::new(),
    }
}

/// For each `from` binding of `q`, in order, the field path below the
/// binding's variable that its hash join keys its candidates on: the
/// candidate side of the equi-join the evaluator's own lowering picks for
/// the binding (with hash joins on), when that side is the variable
/// followed by record projections only (`n.neighborhood` keys on
/// `[neighborhood]`). `None` for a binding the lowering gives no hash join,
/// or whose candidate side is any other expression.
pub fn join_key_paths(q: &Query) -> Vec<Option<Vec<Label>>> {
    // The choice depends on the query's variables alone, never on the
    // catalog or on what a function name resolves to.
    let catalog = Catalog::default();
    let functions = FunctionRegistry::new();
    let prog = Program::lower(q, &catalog, &functions, true);
    prog.bindings
        .iter()
        .map(|b| {
            let (k, cand_left) = b.join?;
            let cmp = prog.cmps[b.ready[k]].ast;
            let cand = if cand_left { &cmp.left } else { &cmp.right };
            match cand {
                Expr::Path(p) if matches!(&p.start, PathStart::Var(v) if *v == b.ast.var) => p
                    .steps
                    .iter()
                    .map(|s| match s {
                        Step::Project(l) => Some(l.clone()),
                        Step::Choice(_) => None,
                    })
                    .collect(),
                _ => None,
            }
        })
        .collect()
}

/// Where a member sits in an index.
enum Keyed {
    /// Under these keys.
    Keys(Vec<JoinKey>),
    /// Nowhere: the member has no value at the path (a record that omits
    /// the field).
    Absent,
    /// Nowhere, but recorded: the value at the path is not atomic, which a
    /// run that reaches the member must report.
    Complex,
}

/// A hash index over the members of one set: each member is bucketed by
/// the join keys of the atomic value at a fixed field path below it,
/// the way a hash join over a binding of the set buckets its items.
/// Buckets list members in ascending node-id order. Two indexes are equal
/// when they cover the same set and path with the same keys, the same
/// members per key, and the same members recorded as complex.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinIndex {
    source: usize,
    set: NodeId,
    path: Vec<Label>,
    buckets: HashMap<JoinKey, Vec<NodeId>>,
    /// Members whose value at the path is complex, ascending.
    complex: Vec<NodeId>,
}

impl JoinIndex {
    /// Indexes the members of `set` in `inst` — the catalog's source
    /// number `source` — by the value at `path` below each member.
    pub fn build(source: usize, inst: &Instance, set: NodeId, path: Vec<Label>) -> JoinIndex {
        let mut index = JoinIndex {
            source,
            set,
            path,
            buckets: HashMap::new(),
            complex: Vec::new(),
        };
        for &member in inst.set_members(set).unwrap_or(&[]) {
            index.insert(inst, member);
        }
        index
    }

    /// The catalog position of the source whose set the index covers.
    pub fn source(&self) -> usize {
        self.source
    }

    /// The set node the index covers.
    pub fn set(&self) -> NodeId {
        self.set
    }

    /// The field path below each member that the index keys on.
    pub fn path(&self) -> &[Label] {
        &self.path
    }

    /// Adds `member`, a member of the set in `inst`.
    pub fn insert(&mut self, inst: &Instance, member: NodeId) {
        match self.keyed(inst, member) {
            Keyed::Keys(keys) => {
                for key in keys {
                    let bucket = self.buckets.entry(key).or_default();
                    if let Err(at) = bucket.binary_search(&member) {
                        bucket.insert(at, member);
                    }
                }
            }
            Keyed::Absent => {}
            Keyed::Complex => {
                if let Err(at) = self.complex.binary_search(&member) {
                    self.complex.insert(at, member);
                }
            }
        }
    }

    /// Removes `member`. Its value is read from `inst`, which need not list
    /// it any more: a detached member keeps its subtree.
    pub fn remove(&mut self, inst: &Instance, member: NodeId) {
        match self.keyed(inst, member) {
            Keyed::Keys(keys) => {
                for key in keys {
                    if let Some(bucket) = self.buckets.get_mut(&key) {
                        if let Ok(at) = bucket.binary_search(&member) {
                            bucket.remove(at);
                        }
                        if bucket.is_empty() {
                            self.buckets.remove(&key);
                        }
                    }
                }
            }
            Keyed::Absent => {}
            Keyed::Complex => {
                if let Ok(at) = self.complex.binary_search(&member) {
                    self.complex.remove(at);
                }
            }
        }
    }

    /// The members filed under any of `keys`, ascending and deduplicated.
    pub(crate) fn probe(&self, keys: &[JoinKey]) -> Vec<NodeId> {
        probe_buckets(&self.buckets, keys)
    }

    /// The members whose value at the path is complex, ascending.
    pub(crate) fn complex(&self) -> &[NodeId] {
        &self.complex
    }

    /// Where `member` belongs, by the value at the path below it: the walk
    /// a field step makes (the first child with the label), ending at an
    /// atomic value.
    fn keyed(&self, inst: &Instance, member: NodeId) -> Keyed {
        let mut node = member;
        for label in &self.path {
            match inst.child_by_label(node, label) {
                Some(kid) => node = kid,
                None => return Keyed::Absent,
            }
        }
        match inst.atomic(node) {
            Some(v) => Keyed::Keys(join_keys(v)),
            None => Keyed::Complex,
        }
    }
}
