//! The delta model for incremental exchange: [`SourceDelta`] describes
//! insert/delete/modify edits against source tuples addressed by
//! root-rooted set paths, and [`TargetDelta`] summarizes what one
//! [`crate::incremental::IncrementalExchange::apply`] did to the target —
//! which members were inserted or retracted, how many member classes were
//! rebuilt, and how the mapping set was pruned.
//!
//! Addressing convention: an edit path is a dot path from a source root to
//! a set reachable through records and selected choice alternatives
//! (`Yahoo.listings`, `Portal.estates`; `C.k.a.s` crosses choice `k` into
//! its selected alternative `a`). Members are addressed positionally by
//! their current index in that set. Changes inside a member — including
//! its nested sets — are expressed as a [`EditOp::Modify`] replacing the
//! whole member, which matches the granularity of the paper's foreach
//! tuples: a source tuple is a set member, and `f_mp` retraction happens
//! at tuple granularity.

use dtr_model::instance::Value;
use dtr_model::value::{AtomicValue, ElementRef, MappingName};
use std::fmt;

/// Serializes a [`Value`] as a tagged JSON object. Every variant —
/// including the meta-data atoms and non-finite floats (encoded as exact
/// IEEE-754 bit patterns) — round-trips through [`value_from_json`].
pub fn value_to_json(v: &Value) -> serde_json::Value {
    match v {
        Value::Atomic(a) => match a {
            AtomicValue::Str(s) => serde_json::json!({ "s": &**s }),
            AtomicValue::Int(i) => serde_json::json!({ "i": *i }),
            AtomicValue::Float(x) => serde_json::json!({ "f": x.to_bits() }),
            AtomicValue::Bool(b) => serde_json::json!({ "b": *b }),
            AtomicValue::Db(d) => serde_json::json!({ "db": d }),
            AtomicValue::Map(m) => serde_json::json!({ "map": m.as_str() }),
            AtomicValue::Elem(e) => {
                serde_json::json!({ "elem": [e.db.as_str(), e.path.as_str()] })
            }
        },
        Value::Record(fields) => serde_json::json!({
            "rec": fields
                .iter()
                .map(|(l, v)| serde_json::json!([l.as_str(), value_to_json(v)]))
                .collect::<Vec<_>>(),
        }),
        Value::Choice(label, inner) => {
            serde_json::json!({ "ch": [label.as_str(), value_to_json(inner)] })
        }
        Value::Set(members) => serde_json::json!({
            "set": members.iter().map(value_to_json).collect::<Vec<_>>(),
        }),
    }
}

/// Deserializes the [`value_to_json`] shape. Returns `None` on any
/// malformed value (never panics — WAL payloads may be corrupt).
pub fn value_from_json(v: &serde_json::Value) -> Option<Value> {
    let obj = v.as_object()?;
    if obj.len() != 1 {
        return None;
    }
    let (tag, body) = obj.iter().next()?;
    Some(match tag.as_str() {
        "s" => Value::Atomic(AtomicValue::str(body.as_str()?)),
        "i" => Value::Atomic(AtomicValue::Int(body.as_i64()?)),
        "f" => Value::Atomic(AtomicValue::Float(f64::from_bits(body.as_u64()?))),
        "b" => Value::Atomic(AtomicValue::Bool(body.as_bool()?)),
        "db" => Value::Atomic(AtomicValue::Db(body.as_str()?.to_string())),
        "map" => Value::Atomic(AtomicValue::Map(MappingName::new(body.as_str()?))),
        "elem" => {
            let pair = body.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            Value::Atomic(AtomicValue::Elem(ElementRef::new(
                pair[0].as_str()?,
                pair[1].as_str()?,
            )))
        }
        "rec" => Value::Record(
            body.as_array()?
                .iter()
                .map(|f| {
                    let pair = f.as_array()?;
                    if pair.len() != 2 {
                        return None;
                    }
                    Some((pair[0].as_str()?.into(), value_from_json(&pair[1])?))
                })
                .collect::<Option<Vec<_>>>()?,
        ),
        "ch" => {
            let pair = body.as_array()?;
            if pair.len() != 2 {
                return None;
            }
            Value::Choice(
                pair[0].as_str()?.into(),
                Box::new(value_from_json(&pair[1])?),
            )
        }
        "set" => Value::Set(
            body.as_array()?
                .iter()
                .map(value_from_json)
                .collect::<Option<Vec<_>>>()?,
        ),
        _ => return None,
    })
}

/// One edit against a source set.
#[derive(Clone, Debug, PartialEq)]
pub enum EditOp {
    /// Append a new member to the set.
    Insert(Value),
    /// Remove the member at the given (current) index.
    Delete(usize),
    /// Replace the member at the given (current) index with a new value.
    /// Equivalent to `Delete(idx)` followed by `Insert(value)`.
    Modify(usize, Value),
}

/// One addressed edit: a root-rooted set path plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Edit {
    /// Dot path from a source root to a set, e.g. `"Yahoo.listings"`:
    /// record fields and selected choice alternatives, each after a `.`,
    /// and no indices — the path names the set, the op names the member.
    pub path: String,
    /// The operation to apply.
    pub op: EditOp,
}

impl Edit {
    /// The payload value of an insert/modify edit (`None` for deletes).
    pub fn value(&self) -> Option<&Value> {
        match &self.op {
            EditOp::Insert(v) | EditOp::Modify(_, v) => Some(v),
            EditOp::Delete(_) => None,
        }
    }
}

/// A batch of source edits, applied atomically by
/// [`crate::incremental::IncrementalExchange::apply`]: edits resolve
/// sequentially (a `Delete(2)` after an `Insert` sees the post-insert
/// indices), and an insert-then-delete of the same member inside one batch
/// cancels to a no-op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SourceDelta {
    /// The edits, in application order.
    pub edits: Vec<Edit>,
}

impl SourceDelta {
    /// An empty batch.
    pub fn new() -> Self {
        SourceDelta::default()
    }

    /// Appends an insert edit.
    pub fn insert(mut self, path: impl Into<String>, value: Value) -> Self {
        self.edits.push(Edit {
            path: path.into(),
            op: EditOp::Insert(value),
        });
        self
    }

    /// Appends a delete edit.
    pub fn delete(mut self, path: impl Into<String>, idx: usize) -> Self {
        self.edits.push(Edit {
            path: path.into(),
            op: EditOp::Delete(idx),
        });
        self
    }

    /// Appends a modify edit.
    pub fn modify(mut self, path: impl Into<String>, idx: usize, value: Value) -> Self {
        self.edits.push(Edit {
            path: path.into(),
            op: EditOp::Modify(idx, value),
        });
        self
    }

    /// Serializes to a JSON object (stable key set; the write-ahead log
    /// payload format — see [`SourceDelta::from_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        let edits: Vec<serde_json::Value> = self
            .edits
            .iter()
            .map(|e| {
                let op = match &e.op {
                    EditOp::Insert(v) => serde_json::json!({ "insert": value_to_json(v) }),
                    EditOp::Delete(idx) => serde_json::json!({ "delete": *idx }),
                    EditOp::Modify(idx, v) => {
                        serde_json::json!({ "modify": [*idx, value_to_json(v)] })
                    }
                };
                serde_json::json!({ "path": e.path.as_str(), "op": op })
            })
            .collect();
        serde_json::json!({ "edits": edits })
    }

    /// Deserializes from the [`SourceDelta::to_json`] shape. Returns
    /// `None` on a malformed value (corrupt WAL payloads must surface as
    /// recoverable errors, never panics).
    pub fn from_json(v: &serde_json::Value) -> Option<SourceDelta> {
        let edits = v
            .get("edits")?
            .as_array()?
            .iter()
            .map(|e| {
                let path = e.get("path")?.as_str()?.to_string();
                let op = e.get("op")?.as_object()?;
                if op.len() != 1 {
                    return None;
                }
                let (tag, body) = op.iter().next()?;
                let op = match tag.as_str() {
                    "insert" => EditOp::Insert(value_from_json(body)?),
                    "delete" => EditOp::Delete(body.as_u64()? as usize),
                    "modify" => {
                        let pair = body.as_array()?;
                        if pair.len() != 2 {
                            return None;
                        }
                        EditOp::Modify(pair[0].as_u64()? as usize, value_from_json(&pair[1])?)
                    }
                    _ => return None,
                };
                Some(Edit { path, op })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SourceDelta { edits })
    }
}

/// One target-side membership change: a member node that appeared in (or
/// was retracted from) the set at `set_path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TargetChange {
    /// Root-rooted dot path of the target set the member belongs to.
    pub set_path: String,
    /// The member's arena node id (stable until the next `.rebase`).
    pub member: u32,
}

/// What one delta application did to the target instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetDelta {
    /// Monotonic batch number within this incremental session.
    pub batch: u64,
    /// Edits in the applied [`SourceDelta`].
    pub edits: usize,
    /// Top-level target members newly materialized by this batch.
    pub inserted: Vec<TargetChange>,
    /// Top-level target members retracted by this batch (their node ids
    /// are detached arena garbage after the apply).
    pub retracted: Vec<TargetChange>,
    /// Member classes rebuilt in place (detach + journal-replay of the
    /// surviving binding fingerprints).
    pub classes_rebuilt: usize,
    /// Mappings skipped entirely because no foreach binding could touch a
    /// changed path.
    pub mappings_pruned: usize,
    /// Mappings whose foreach was re-enumerated (delta rule or full).
    pub mappings_reevaluated: usize,
    /// Of the re-evaluated mappings, those whose foreach ran in full and
    /// whose row bag was diffed: only mappings with a function- or
    /// annotation-sourced from-item take that path.
    pub mappings_full: usize,
    /// Foreach rows added across all re-evaluated mappings (multiplicity
    /// counted).
    pub rows_added: usize,
    /// Foreach rows removed across all re-evaluated mappings.
    pub rows_removed: usize,
}

impl TargetDelta {
    /// `true` when the batch changed nothing in the target.
    pub fn is_noop(&self) -> bool {
        self.inserted.is_empty() && self.retracted.is_empty() && self.classes_rebuilt == 0
    }

    /// Serializes to a JSON object (stable key set; see [`TargetDelta::from_json`]).
    pub fn to_json(&self) -> serde_json::Value {
        let change = |c: &TargetChange| serde_json::json!({ "set_path": c.set_path.as_str(), "member": c.member });
        serde_json::json!({
            "batch": self.batch,
            "edits": self.edits,
            "inserted": self.inserted.iter().map(change).collect::<Vec<_>>(),
            "retracted": self.retracted.iter().map(change).collect::<Vec<_>>(),
            "classes_rebuilt": self.classes_rebuilt,
            "mappings_pruned": self.mappings_pruned,
            "mappings_reevaluated": self.mappings_reevaluated,
            "mappings_full": self.mappings_full,
            "rows_added": self.rows_added,
            "rows_removed": self.rows_removed,
        })
    }

    /// Deserializes from the [`TargetDelta::to_json`] shape. Returns `None`
    /// on a malformed value.
    pub fn from_json(v: &serde_json::Value) -> Option<TargetDelta> {
        let usize_of = |k: &str| v.get(k)?.as_u64().map(|n| n as usize);
        let changes = |k: &str| -> Option<Vec<TargetChange>> {
            v.get(k)?
                .as_array()?
                .iter()
                .map(|c| {
                    Some(TargetChange {
                        set_path: c.get("set_path")?.as_str()?.to_string(),
                        member: c.get("member")?.as_u64()? as u32,
                    })
                })
                .collect()
        };
        Some(TargetDelta {
            batch: v.get("batch")?.as_u64()?,
            edits: usize_of("edits")?,
            inserted: changes("inserted")?,
            retracted: changes("retracted")?,
            classes_rebuilt: usize_of("classes_rebuilt")?,
            mappings_pruned: usize_of("mappings_pruned")?,
            mappings_reevaluated: usize_of("mappings_reevaluated")?,
            mappings_full: usize_of("mappings_full")?,
            rows_added: usize_of("rows_added")?,
            rows_removed: usize_of("rows_removed")?,
        })
    }
}

/// Errors raised while applying a [`SourceDelta`].
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaError {
    /// An edit path did not resolve to a set of any source.
    Path(String),
    /// A delete/modify index was out of range for its set.
    Index(String),
    /// The exchange layer failed while re-evaluating or rebuilding (guard
    /// trips surface here; the apply was rolled back).
    Exchange(crate::exchange::ExchangeError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Path(m) => write!(f, "delta path error: {m}"),
            DeltaError::Index(m) => write!(f, "delta index error: {m}"),
            DeltaError::Exchange(e) => write!(f, "delta exchange error: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<crate::exchange::ExchangeError> for DeltaError {
    fn from(e: crate::exchange::ExchangeError) -> Self {
        DeltaError::Exchange(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_delta_json_round_trip() {
        let d = TargetDelta {
            batch: 3,
            edits: 2,
            inserted: vec![TargetChange {
                set_path: "Portal.houses".into(),
                member: 17,
            }],
            retracted: vec![
                TargetChange {
                    set_path: "Portal.houses".into(),
                    member: 4,
                },
                TargetChange {
                    set_path: "Portal.agents".into(),
                    member: 9,
                },
            ],
            classes_rebuilt: 2,
            mappings_pruned: 3,
            mappings_reevaluated: 1,
            mappings_full: 1,
            rows_added: 5,
            rows_removed: 4,
        };
        let json = d.to_json();
        let text = serde_json::to_string(&json).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(TargetDelta::from_json(&back), Some(d));
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        assert_eq!(TargetDelta::from_json(&serde_json::json!({})), None);
        assert_eq!(
            TargetDelta::from_json(&serde_json::json!({ "batch": "three" })),
            None
        );
    }

    #[test]
    fn source_delta_json_round_trip() {
        use dtr_model::value::{AtomicValue, ElementRef, MappingName};
        let member = Value::record(vec![
            ("hid", Value::str("H7")),
            ("price", Value::int(450)),
            ("rate", Value::Atomic(AtomicValue::Float(0.25))),
            ("sold", Value::Atomic(AtomicValue::Bool(false))),
            ("src", Value::Atomic(AtomicValue::Db("USdb".into()))),
            (
                "by",
                Value::Atomic(AtomicValue::Map(MappingName::new("m1"))),
            ),
            (
                "at",
                Value::Atomic(AtomicValue::Elem(ElementRef::new("USdb", "/US/houses"))),
            ),
            ("contact", Value::choice("phone", Value::str("555"))),
            ("rooms", Value::set(vec![Value::str("kitchen")])),
        ]);
        let d = SourceDelta::new()
            .insert("Yahoo.listings", member.clone())
            .delete("US.houses", 2)
            .modify("EU.postings", 0, member);
        let text = serde_json::to_string(&d.to_json()).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(SourceDelta::from_json(&back), Some(d));
    }

    #[test]
    fn source_delta_non_finite_floats_round_trip_exactly() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let d = SourceDelta::new().insert(
                "US.houses",
                Value::record(vec![("rate", Value::Atomic(AtomicValue::Float(x)))]),
            );
            let back = SourceDelta::from_json(&d.to_json()).unwrap();
            let Value::Record(fields) = back.edits[0].value().unwrap() else {
                panic!("expected record");
            };
            let Value::Atomic(AtomicValue::Float(y)) = fields[0].1 else {
                panic!("expected float");
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn malformed_source_delta_json_is_rejected_not_panicked() {
        for bad in [
            serde_json::json!({}),
            serde_json::json!({ "edits": [{ "path": "US.houses" }] }),
            serde_json::json!({ "edits": [{ "path": "US.houses", "op": { "warp": 9 } }] }),
            serde_json::json!({ "edits": [{ "path": "US.houses", "op": { "insert": { "q": 1 } } }] }),
        ] {
            assert_eq!(SourceDelta::from_json(&bad), None);
        }
    }
}
