//! Partition Normal Form (PNF).
//!
//! The data exchange methodology the paper builds on (reference \[21\], "Translating Web
//! Data") produces instances in PNF: within any set, no two members agree on
//! all of their non-set content (atomic fields, choice selections). Members
//! that do agree are merged, their nested sets unioned and — crucially for
//! the tagged-instance experiments of Section 8 — their mapping annotations
//! unioned. Figure 3's `title:"HomeGain"` node annotated `{m2, m3}` is the
//! result of exactly such a merge.

use crate::instance::{Instance, NodeData, NodeId};
use crate::label::Label;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The *non-set fingerprint* of a node: a structural hash over its labels,
/// atomic values and choice selections, treating nested sets as opaque
/// (only their labels contribute). Two set members merge under PNF iff
/// their non-set fingerprints (and contents) coincide.
pub fn non_set_fingerprint(inst: &Instance, id: NodeId) -> u64 {
    let mut h = DefaultHasher::new();
    fp(inst, id, &mut h);
    h.finish()
}

fn fp(inst: &Instance, id: NodeId, h: &mut DefaultHasher) {
    let node = inst.node(id);
    node.label.hash(h);
    match &node.data {
        NodeData::Atomic(v) => {
            0u8.hash(h);
            v.hash(h);
        }
        NodeData::Record(kids) => {
            1u8.hash(h);
            for &k in kids {
                fp(inst, k, h);
            }
        }
        NodeData::Choice(kid) => {
            2u8.hash(h);
            if let Some(k) = kid {
                fp(inst, *k, h);
            }
        }
        NodeData::Set(_) => {
            // Opaque: set contents do not prevent a merge.
            3u8.hash(h);
        }
    }
}

/// Structural equality on the PNF identity: labels, atomic values and
/// choice selections, with nested sets opaque — the relation
/// [`non_set_fingerprint`] approximates. Used to confirm fingerprint
/// matches, so a 64-bit collision can never merge distinct members.
pub fn non_set_eq(inst: &Instance, a: NodeId, b: NodeId) -> bool {
    if a == b {
        return true;
    }
    let na = inst.node(a);
    let nb = inst.node(b);
    if na.label != nb.label {
        return false;
    }
    match (&na.data, &nb.data) {
        (NodeData::Atomic(x), NodeData::Atomic(y)) => x == y,
        (NodeData::Record(xs), NodeData::Record(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(&x, &y)| non_set_eq(inst, x, y))
        }
        (NodeData::Choice(x), NodeData::Choice(y)) => match (x, y) {
            (Some(x), Some(y)) => non_set_eq(inst, *x, *y),
            (None, None) => true,
            _ => false,
        },
        // Opaque: set contents do not separate members.
        (NodeData::Set(_), NodeData::Set(_)) => true,
        _ => false,
    }
}

/// True if every set in the instance is duplicate-free under the PNF
/// identity. Fingerprints only bucket the members; duplicates are
/// confirmed structurally, so colliding-but-distinct members do not make
/// a normalized instance look denormalized (or vice versa).
pub fn is_pnf(inst: &Instance) -> bool {
    inst.walk()
        .into_iter()
        .all(|id| match inst.set_members(id) {
            None => true,
            Some(members) => {
                let mut seen: HashMap<u64, Vec<NodeId>> = HashMap::with_capacity(members.len());
                for &m in members {
                    let f = non_set_fingerprint(inst, m);
                    let bucket = seen.entry(f).or_default();
                    if bucket.iter().any(|&other| non_set_eq(inst, other, m)) {
                        return false;
                    }
                    bucket.push(m);
                }
                true
            }
        })
}

/// Rebuilds `inst` in Partition Normal Form.
///
/// Within every set, members that agree on all non-set content are merged:
/// atomic content is kept once, nested sets are unioned (and recursively
/// normalized), element annotations are preserved, and mapping annotations
/// are unioned across the merged copies.
///
/// ```
/// use dtr_model::prelude::*;
///
/// let mut inst = Instance::new("Pdb");
/// let dup = Value::record(vec![("title", Value::str("HomeGain"))]);
/// inst.install_root("contacts", Value::set(vec![dup.clone(), dup]));
/// assert!(!is_pnf(&inst));
///
/// let norm = to_pnf(&inst);
/// assert!(is_pnf(&norm));
/// let root = norm.root("contacts").unwrap();
/// assert_eq!(norm.set_members(root).unwrap().len(), 1);
/// ```
pub fn to_pnf(inst: &Instance) -> Instance {
    to_pnf_with(inst, &non_set_fingerprint)
}

/// Like [`to_pnf`], but with an injectable fingerprint function.
///
/// The fingerprint only *buckets* candidate members; every merge is
/// confirmed with [`non_set_eq`], so a weaker — even constant — hasher
/// must never change the result, only the bucketing cost. The conformance
/// tests force total collisions through this entry point.
pub fn to_pnf_with(inst: &Instance, fp_of: &dyn Fn(&Instance, NodeId) -> u64) -> Instance {
    let span = dtr_obs::span("model.to_pnf").field("nodes_in", inst.len());
    let mut dst = Instance::new(inst.db().to_string());
    for &root in inst.roots() {
        let label = inst.node(root).label.clone();
        merge_group(inst, &[root], &mut dst, label, None, true, fp_of);
    }
    span.record("nodes_out", dst.len());
    dst
}

/// Merges a group of source nodes (pairwise equal on non-set content) into a
/// single node of `dst`. Returns the new node id.
fn merge_group(
    src: &Instance,
    group: &[NodeId],
    dst: &mut Instance,
    label: Label,
    parent: Option<NodeId>,
    is_root: bool,
    fp_of: &dyn Fn(&Instance, NodeId) -> u64,
) -> NodeId {
    debug_assert!(!group.is_empty());
    let rep = group[0];
    let new_id = match &src.node(rep).data {
        NodeData::Atomic(v) => raw_node(dst, label, parent, NodeData::Atomic(v.clone()), is_root),
        NodeData::Record(rep_kids) => {
            let id = raw_node(dst, label, parent, NodeData::Record(Vec::new()), is_root);
            // One label→child map per group member, computed once, so each
            // field lookup is O(1) instead of a linear scan over every
            // member's children.
            let child_maps: Vec<HashMap<&Label, NodeId>> = group
                .iter()
                .map(|&g| match &src.node(g).data {
                    NodeData::Record(kids) => {
                        let mut map = HashMap::with_capacity(kids.len());
                        for &k in kids {
                            map.entry(&src.node(k).label).or_insert(k);
                        }
                        map
                    }
                    _ => HashMap::new(),
                })
                .collect();
            let mut new_kids = Vec::with_capacity(rep_kids.len());
            for &rk in rep_kids {
                let kl = src.node(rk).label.clone();
                // Corresponding field in every group member.
                let field_group: Vec<NodeId> = child_maps
                    .iter()
                    .filter_map(|m| m.get(&kl).copied())
                    .collect();
                new_kids.push(merge_group(
                    src,
                    &field_group,
                    dst,
                    kl,
                    Some(id),
                    false,
                    fp_of,
                ));
            }
            set_children(dst, id, new_kids);
            id
        }
        NodeData::Choice(_) => {
            let id = raw_node(dst, label, parent, NodeData::Choice(None), is_root);
            let sel_group: Vec<NodeId> = group
                .iter()
                .filter_map(|&g| src.choice_selection(g).map(|(_, k)| k))
                .collect();
            if let Some(&first) = sel_group.first() {
                let kl = src.node(first).label.clone();
                let kid = merge_group(src, &sel_group, dst, kl, Some(id), false, fp_of);
                set_choice(dst, id, kid);
            }
            id
        }
        NodeData::Set(_) => {
            let id = raw_node(dst, label, parent, NodeData::Set(Vec::new()), is_root);
            // Union all members of all copies, bucket by fingerprint, then
            // confirm structurally: members that share a fingerprint but
            // differ on non-set content (a collision) split into separate
            // merge classes instead of being silently collapsed.
            let mut classes: Vec<(u64, Vec<NodeId>)> = Vec::new();
            let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
            for &g in group {
                for &m in src.set_members(g).unwrap_or(&[]) {
                    let f = fp_of(src, m);
                    let slots = index.entry(f).or_default();
                    let found = slots
                        .iter()
                        .copied()
                        .find(|&i| non_set_eq(src, classes[i].1[0], m));
                    match found {
                        Some(i) => classes[i].1.push(m),
                        None => {
                            if !slots.is_empty() && dtr_obs::journal::enabled() {
                                dtr_obs::journal::record(
                                    dtr_obs::journal::event(
                                        "model.pnf.merge",
                                        dtr_obs::journal::Outcome::CollisionSplit {
                                            fingerprint: f,
                                        },
                                    )
                                    .binding(f)
                                    .detail(format!(
                                        "{} distinct member(s) already hold this fingerprint",
                                        slots.len()
                                    )),
                                );
                            }
                            slots.push(classes.len());
                            classes.push((f, vec![m]));
                        }
                    }
                }
            }
            let mut new_kids = Vec::with_capacity(classes.len());
            for (f, class) in classes {
                let merged = merge_group(src, &class, dst, Label::star(), Some(id), false, fp_of);
                if class.len() > 1 && dtr_obs::journal::enabled() {
                    dtr_obs::journal::record(
                        dtr_obs::journal::event(
                            "model.pnf.merge",
                            dtr_obs::journal::Outcome::PnfMerged {
                                into: u64::from(merged.0),
                            },
                        )
                        .binding(f)
                        .target(u64::from(merged.0))
                        .detail(format!("{} copies share one fingerprint", class.len())),
                    );
                }
                new_kids.push(merged);
            }
            set_children(dst, id, new_kids);
            id
        }
    };
    // Element annotation from the representative; mapping annotations
    // unioned over the whole group.
    let rep_annot = src.annotation(rep).clone();
    if let Some(e) = rep_annot.element {
        dst.set_element(new_id, e);
    }
    for &g in group {
        for m in &src.annotation(g).mappings {
            dst.add_mapping(new_id, m.clone());
        }
    }
    new_id
}

// The Instance API installs whole Value trees; PNF needs incremental
// construction, so these helpers poke nodes in directly via the public
// building blocks.
fn raw_node(
    dst: &mut Instance,
    label: Label,
    parent: Option<NodeId>,
    data: NodeData,
    is_root: bool,
) -> NodeId {
    dst.push_raw(label, parent, data, is_root)
}

fn set_children(dst: &mut Instance, id: NodeId, kids: Vec<NodeId>) {
    dst.replace_children(id, kids);
}

fn set_choice(dst: &mut Instance, id: NodeId, kid: NodeId) {
    dst.replace_children(id, vec![kid]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Value;
    use crate::value::MappingName;

    fn contact(title: &str, phone: &str) -> Value {
        Value::record(vec![
            ("title", Value::str(title)),
            ("phone", Value::str(phone)),
        ])
    }

    #[test]
    fn duplicate_members_merge() {
        let mut inst = Instance::new("Pdb");
        let root = inst.install_root(
            "contacts",
            Value::set(vec![
                contact("HomeGain", "18009468501"),
                contact("HomeGain", "18009468501"),
                contact("Acme", "5551234"),
            ]),
        );
        let members = inst.set_members(root).unwrap().to_vec();
        inst.add_mapping(members[0], MappingName::new("m2"));
        inst.add_mapping(members[1], MappingName::new("m3"));
        assert!(!is_pnf(&inst));

        let pnf = to_pnf(&inst);
        assert!(is_pnf(&pnf));
        let root2 = pnf.root("contacts").unwrap();
        let members2 = pnf.set_members(root2).unwrap();
        assert_eq!(members2.len(), 2);
        // The merged HomeGain member carries the union {m2, m3} - the
        // behaviour Figure 3 illustrates.
        let homegain = members2
            .iter()
            .copied()
            .find(|&m| {
                pnf.child_by_label(m, "title")
                    .and_then(|t| pnf.atomic(t))
                    .and_then(|v| v.as_str())
                    == Some("HomeGain")
            })
            .unwrap();
        let ms: Vec<&str> = pnf
            .annotation(homegain)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(ms, ["m2", "m3"]);
    }

    #[test]
    fn nested_sets_union_recursively() {
        // Two `posting` members equal on hid, each with one distinct agent:
        // after PNF the posting merges and holds both agents.
        let posting = |hid: &str, agent: &str| {
            Value::record(vec![
                ("hid", Value::str(hid)),
                (
                    "agents",
                    Value::set(vec![Value::record(vec![("agentName", Value::str(agent))])]),
                ),
            ])
        };
        let mut inst = Instance::new("EUdb");
        inst.install_root(
            "postings",
            Value::set(vec![posting("H1", "alice"), posting("H1", "bob")]),
        );
        let pnf = to_pnf(&inst);
        let root = pnf.root("postings").unwrap();
        let members = pnf.set_members(root).unwrap();
        assert_eq!(members.len(), 1);
        let agents = pnf.child_by_label(members[0], "agents").unwrap();
        assert_eq!(pnf.set_members(agents).unwrap().len(), 2);
        assert!(is_pnf(&pnf));
    }

    #[test]
    fn members_differing_on_atomics_do_not_merge() {
        let mut inst = Instance::new("Pdb");
        inst.install_root(
            "contacts",
            Value::set(vec![contact("A", "1"), contact("A", "2")]),
        );
        assert!(is_pnf(&inst));
        let pnf = to_pnf(&inst);
        let root = pnf.root("contacts").unwrap();
        assert_eq!(pnf.set_members(root).unwrap().len(), 2);
    }

    #[test]
    fn duplicate_nested_members_dedup() {
        // Same agent appearing under both copies merges away.
        let posting = |agent: &str| {
            Value::record(vec![
                ("hid", Value::str("H1")),
                (
                    "agents",
                    Value::set(vec![Value::record(vec![("agentName", Value::str(agent))])]),
                ),
            ])
        };
        let mut inst = Instance::new("EUdb");
        inst.install_root(
            "postings",
            Value::set(vec![posting("alice"), posting("alice")]),
        );
        let pnf = to_pnf(&inst);
        let root = pnf.root("postings").unwrap();
        let members = pnf.set_members(root).unwrap();
        assert_eq!(members.len(), 1);
        let agents = pnf.child_by_label(members[0], "agents").unwrap();
        assert_eq!(pnf.set_members(agents).unwrap().len(), 1);
    }

    #[test]
    fn choice_members_merge_only_on_same_selection() {
        let ch =
            |alt: &str, v: &str| Value::record(vec![("title", Value::choice(alt, Value::str(v)))]);
        let mut inst = Instance::new("USdb");
        inst.install_root(
            "agents",
            Value::set(vec![
                ch("name", "Smith"),
                ch("firm", "Smith"),
                ch("name", "Smith"),
            ]),
        );
        let pnf = to_pnf(&inst);
        let root = pnf.root("agents").unwrap();
        // name:Smith merges with name:Smith; firm:Smith stays separate.
        assert_eq!(pnf.set_members(root).unwrap().len(), 2);
    }

    #[test]
    fn forced_fingerprint_collision_does_not_merge() {
        // Regression: with a constant "hasher" every member lands in one
        // fingerprint bucket, which the old code merged wholesale. The
        // structural confirmation must keep distinct members apart while
        // still merging true duplicates (and unioning their annotations).
        let mut inst = Instance::new("Pdb");
        let root = inst.install_root(
            "contacts",
            Value::set(vec![
                contact("HomeGain", "18009468501"),
                contact("HomeGain", "18009468501"),
                contact("Acme", "5551234"),
            ]),
        );
        let members = inst.set_members(root).unwrap().to_vec();
        inst.add_mapping(members[0], MappingName::new("m2"));
        inst.add_mapping(members[1], MappingName::new("m3"));

        let collide_all = |_: &Instance, _: NodeId| 0u64;
        let pnf = to_pnf_with(&inst, &collide_all);
        assert!(is_pnf(&pnf));
        let root2 = pnf.root("contacts").unwrap();
        let members2 = pnf.set_members(root2).unwrap().to_vec();
        assert_eq!(members2.len(), 2, "distinct members must survive");
        let title = |m: NodeId| {
            pnf.child_by_label(m, "title")
                .and_then(|t| pnf.atomic(t))
                .and_then(|v| v.as_str())
                .map(str::to_owned)
        };
        let titles: Vec<_> = members2.iter().filter_map(|&m| title(m)).collect();
        assert_eq!(titles, ["HomeGain", "Acme"]);
        let ms: Vec<&str> = pnf
            .annotation(members2[0])
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(ms, ["m2", "m3"], "true duplicates still merge");
        // And the result agrees with the real hasher's result.
        let reference = to_pnf(&inst);
        let ref_root = reference.root("contacts").unwrap();
        assert_eq!(reference.set_members(ref_root).unwrap().len(), 2);
    }

    #[test]
    fn non_set_eq_treats_sets_as_opaque() {
        let posting = |agent: &str| {
            Value::record(vec![
                ("hid", Value::str("H1")),
                (
                    "agents",
                    Value::set(vec![Value::record(vec![("agentName", Value::str(agent))])]),
                ),
            ])
        };
        let mut inst = Instance::new("EUdb");
        let root = inst.install_root(
            "postings",
            Value::set(vec![posting("alice"), posting("bob")]),
        );
        let members = inst.set_members(root).unwrap().to_vec();
        // Different nested-set contents, same non-set content: equal under
        // the PNF identity (they merge), and their fingerprints agree.
        assert!(non_set_eq(&inst, members[0], members[1]));
        assert_eq!(
            non_set_fingerprint(&inst, members[0]),
            non_set_fingerprint(&inst, members[1])
        );
    }

    #[test]
    fn element_annotations_survive_pnf() {
        use crate::schema::Schema;
        use crate::types::{AtomicType, Type};
        let schema = Schema::build(
            "Pdb",
            vec![(
                "contacts",
                Type::relation(vec![
                    ("title", AtomicType::String),
                    ("phone", AtomicType::String),
                ]),
            )],
        )
        .unwrap();
        let mut inst = Instance::new("Pdb");
        inst.install_root(
            "contacts",
            Value::set(vec![contact("A", "1"), contact("A", "1")]),
        );
        inst.annotate_elements(&schema).unwrap();
        let pnf = to_pnf(&inst);
        let title_elem = schema.resolve_path("/contacts/title").unwrap();
        assert_eq!(pnf.interpretation(title_elem).len(), 1);
    }
}
