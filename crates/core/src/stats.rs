//! Per-path statistics of a tagged instance.
//!
//! Following Section 7's stance that metadata is data derived from the
//! setting and its instances, [`Statistics`] is computed on demand by one
//! walk over the live source and target instances from their roots. It
//! is a function of those instances alone: queries, other sessions and
//! the edit history that produced the instances cannot change it, and
//! members an edit detached from a set are not counted.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

use dtr_model::instance::{Instance, NodeData, NodeId};
use dtr_model::value::AtomicValue;
use serde_json::{json, Map, Value};

/// What the instances hold at one schema path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Atomic values at this path.
    pub tuples: u64,
    /// Set nodes at this path.
    pub sets: u64,
    /// Distinct atomic values at this path, counted exactly.
    pub distinct: u64,
}

/// Per-path statistics, keyed by root-rooted dot paths (`US.houses.price`,
/// with `->` before a choice alternative). A set's members keep the set's
/// path, so a member's field keys on `<set path>.<field>`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Statistics {
    /// One entry per path that holds a set or an atomic value.
    pub paths: BTreeMap<String, PathStats>,
}

impl Statistics {
    /// Walks each instance from its roots. Root labels are unique across
    /// a setting's databases, so the paths of different instances never
    /// share a key.
    pub fn of<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> Self {
        let mut acc: BTreeMap<String, (PathStats, HashSet<&'a AtomicValue>)> = BTreeMap::new();
        for inst in instances {
            let mut stack: Vec<(NodeId, String)> = inst
                .roots()
                .iter()
                .map(|&r| (r, inst.label(r).to_string()))
                .collect();
            while let Some((id, path)) = stack.pop() {
                match &inst.node(id).data {
                    NodeData::Atomic(v) => {
                        let (stats, values) = acc.entry(path).or_default();
                        stats.tuples += 1;
                        values.insert(v);
                    }
                    NodeData::Record(fields) => {
                        for &f in fields {
                            stack.push((f, format!("{path}.{}", inst.label(f))));
                        }
                    }
                    NodeData::Choice(alt) => {
                        if let Some(a) = *alt {
                            stack.push((a, format!("{path}->{}", inst.label(a))));
                        }
                    }
                    NodeData::Set(members) => {
                        acc.entry(path.clone()).or_default().0.sets += 1;
                        for &m in members {
                            stack.push((m, path.clone()));
                        }
                    }
                }
            }
        }
        let paths = acc
            .into_iter()
            .map(|(path, (stats, values))| {
                let distinct = values.len() as u64;
                (path, PathStats { distinct, ..stats })
            })
            .collect();
        Statistics { paths }
    }

    /// The table the REPL's `.stats` prints: one line per path.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "paths ({}):", self.paths.len());
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>6} {:>10}",
            "path", "tuples", "sets", "distinct"
        );
        for (path, s) in &self.paths {
            let _ = writeln!(
                out,
                "  {path:<40} {:>8} {:>6} {:>10}",
                s.tuples, s.sets, s.distinct
            );
        }
        out
    }

    /// The same table as JSON: an object keyed by path, each entry
    /// `{"distinct", "sets", "tuples"}`, every key in sorted order.
    pub fn to_json(&self) -> Value {
        let mut paths = Map::new();
        for (path, s) in &self.paths {
            paths.insert(
                path.clone(),
                json!({"distinct": s.distinct, "sets": s.sets, "tuples": s.tuples}),
            );
        }
        Value::Object(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalSession;
    use crate::testkit::{figure1, figure1_setting, figure1_sources};
    use dtr_mapping::delta::SourceDelta;

    fn at(stats: &Statistics, path: &str) -> PathStats {
        stats.paths[path]
    }

    #[test]
    fn figure_1_statistics_depend_on_the_instance_alone() {
        let tagged = figure1();
        let before = tagged.statistics();
        assert_eq!(
            at(&before, "US.houses"),
            PathStats {
                tuples: 0,
                sets: 1,
                distinct: 0
            }
        );
        assert_eq!(
            at(&before, "US.houses.hid"),
            PathStats {
                tuples: 2,
                sets: 0,
                distinct: 2
            }
        );
        assert!(before.paths.contains_key("US.agents.title->name"));
        assert_eq!(at(&before, "Portal.estates.value").tuples, 3);

        // Queries, a join among them, and a second exchange change
        // nothing.
        for _ in 0..3 {
            tagged
                .query(
                    "select e.hid, c.phone from Portal.estates e, Portal.contacts c \
                     where e.contact = c.title",
                )
                .unwrap();
        }
        assert_eq!(figure1().statistics(), before);
        assert_eq!(tagged.statistics(), before);

        // A duplicated member is one more tuple, not one more distinct
        // value, and the set is still one set.
        let mut session = IncrementalSession::new(figure1_setting(), figure1_sources()).unwrap();
        let us = &session.sources()[0];
        let houses = us.child_by_label(us.root("US").unwrap(), "houses").unwrap();
        let dup = us.to_value(us.set_members(houses).unwrap()[0]);
        session
            .apply(&SourceDelta::new().insert("US.houses", dup))
            .unwrap();
        let after = session.tagged().statistics();
        assert_eq!(
            at(&after, "US.houses.hid"),
            PathStats {
                tuples: 3,
                sets: 0,
                distinct: 2
            }
        );
        assert_eq!(at(&after, "US.houses").sets, 1);
    }

    #[test]
    fn json_and_table_carry_every_path() {
        let stats = figure1().statistics();
        let json = stats.to_json();
        let paths = json.as_object().unwrap();
        assert_eq!(paths.len(), stats.paths.len());
        assert_eq!(
            paths.get("US.houses.hid"),
            Some(&json!({"distinct": 2, "sets": 0, "tuples": 2}))
        );
        let table = stats.render();
        assert!(table.starts_with(&format!("paths ({}):\n", stats.paths.len())));
        assert_eq!(table.lines().count(), stats.paths.len() + 2);
    }
}
