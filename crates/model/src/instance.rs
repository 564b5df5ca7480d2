//! Instances as trees of labelled values (Definition 4.2), with the
//! annotation slots of the *tagged instance* model (Definition 5.2).
//!
//! An instance is a set of label-value pairs conforming to a schema. As in
//! the paper we represent an instance as a tree: one node per value, edges
//! from complex values to their attributes, set members labelled `*`.
//!
//! Every node carries an [`Annotation`] — the element annotation `f_el(v)`
//! and the mapping annotation `f_mp(v)` of Definition 5.2 (the angle-bracket
//! and curly-bracket annotations of Figure 3). Nodes that were not produced
//! by a mapping simply have an empty mapping set, and element annotations
//! can be recomputed from a schema at any time with
//! [`Instance::annotate_elements`].
//!
//! # Storage
//!
//! The node and annotation arenas are kept in fixed chunks of 128 slots,
//! each behind an `Arc` and copied on write. Cloning an instance copies
//! chunk pointers only, so a clone is cheap however large the instance;
//! the first write to a chunk the clone still shares copies that one
//! chunk. Every `&mut` method writes only the slots whose contents change
//! — adding a mapping name already present, re-annotating an element
//! already recorded or re-parenting a node under its own parent write
//! nothing — so a pass over an unchanged instance leaves all its chunks
//! shared. A node's id is its arena position; ids are stable.

use crate::arena::Arena;
use crate::label::Label;
use crate::schema::{ElementId, ElementKind, Schema};
use crate::value::{AtomicValue, MappingName};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of a node inside an [`Instance`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The payload of an instance node.
#[derive(Clone, Debug)]
pub enum NodeData {
    /// An atomic leaf value.
    Atomic(AtomicValue),
    /// A record value; children are its fields in declaration order.
    Record(Vec<NodeId>),
    /// A choice value; exactly one alternative is present once built.
    Choice(Option<NodeId>),
    /// A set value; children are its `*`-labelled members.
    Set(Vec<NodeId>),
}

/// One node of the instance tree.
#[derive(Clone, Debug)]
pub struct Node {
    /// The label of the label-value pair (attribute name, root name, or `*`).
    pub label: Label,
    /// Parent node, if any.
    pub parent: Option<NodeId>,
    /// Payload.
    pub data: NodeData,
}

/// The per-value annotations of a tagged instance (Definition 5.2):
/// `element` is `f_el(v)` and `mappings` is `f_mp(v)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Annotation {
    /// The schema element whose interpretation this value belongs to.
    pub element: Option<ElementId>,
    /// The mappings that generated this value, kept sorted and deduplicated.
    pub mappings: Vec<MappingName>,
}

impl Annotation {
    /// Adds a mapping to the annotation set, preserving order/uniqueness.
    /// Returns `true` if the name was newly written, `false` if it was
    /// already present (a *suppressed* annotation in profiling terms).
    pub fn add_mapping(&mut self, m: MappingName) -> bool {
        match self.mappings.binary_search(&m) {
            Err(pos) => {
                self.mappings.insert(pos, m);
                true
            }
            Ok(_) => false,
        }
    }

    /// True if this value was generated (also) by mapping `m`.
    pub fn has_mapping(&self, m: &MappingName) -> bool {
        self.mappings.binary_search(m).is_ok()
    }

    /// Removes a mapping from the annotation set. Returns `true` if the
    /// name was present (used when rolling back an aborted mapping).
    pub fn remove_mapping(&mut self, m: &MappingName) -> bool {
        match self.mappings.binary_search(m) {
            Ok(pos) => {
                self.mappings.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// An owned value tree, convenient for construction and deep comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Atomic leaf.
    Atomic(AtomicValue),
    /// Record with labelled fields.
    Record(Vec<(Label, Value)>),
    /// Choice with the selected alternative.
    Choice(Label, Box<Value>),
    /// Set of members.
    Set(Vec<Value>),
}

impl Value {
    /// Shorthand for an atomic string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Atomic(AtomicValue::str(s))
    }

    /// Shorthand for an atomic integer value.
    pub fn int(i: i64) -> Value {
        Value::Atomic(AtomicValue::Int(i))
    }

    /// Builds a record value.
    pub fn record<L: Into<Label>>(fields: Vec<(L, Value)>) -> Value {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// Builds a choice value.
    pub fn choice<L: Into<Label>>(label: L, v: Value) -> Value {
        Value::Choice(label.into(), Box::new(v))
    }

    /// Builds a set value.
    pub fn set(members: Vec<Value>) -> Value {
        Value::Set(members)
    }
}

impl From<AtomicValue> for Value {
    fn from(v: AtomicValue) -> Value {
        Value::Atomic(v)
    }
}

/// An instance: a named arena of value nodes plus per-node annotations.
/// Cloning shares the arenas chunk by chunk (see the module docs).
#[derive(Clone, Debug)]
pub struct Instance {
    db: String,
    nodes: Arena<Node>,
    annots: Arena<Annotation>,
    roots: Vec<NodeId>,
}

impl Instance {
    /// Creates an empty instance for database `db`.
    pub fn new(db: impl Into<String>) -> Instance {
        Instance {
            db: db.into(),
            nodes: Arena::new(),
            annots: Arena::new(),
            roots: Vec::new(),
        }
    }

    /// The database name this instance belongs to.
    pub fn db(&self) -> &str {
        &self.db
    }

    /// Number of nodes (values) in the instance.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the instance holds no values.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// Root node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Finds a root by label.
    pub fn root(&self, label: &str) -> Option<NodeId> {
        self.roots
            .iter()
            .copied()
            .find(|&r| self.node(r).label == label)
    }

    fn push_node(&mut self, label: Label, parent: Option<NodeId>, data: NodeData) -> NodeId {
        self.push_annotated(label, parent, data, Annotation::default())
    }

    fn push_annotated(
        &mut self,
        label: Label,
        parent: Option<NodeId>,
        data: NodeData,
        annotation: Annotation,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label,
            parent,
            data,
        });
        self.annots.push(annotation);
        id
    }

    /// Low-level node insertion for incremental builders (the PNF
    /// normalizer and the data exchange engine). Most callers should prefer
    /// [`Instance::install_root`] / [`Instance::push_set_member`].
    pub fn push_raw(
        &mut self,
        label: Label,
        parent: Option<NodeId>,
        data: NodeData,
        is_root: bool,
    ) -> NodeId {
        let id = self.push_node(label, parent, data);
        if is_root {
            self.roots.push(id);
        }
        id
    }

    /// Replaces the children of a complex node, re-parenting them. Used by
    /// incremental builders together with [`Instance::push_raw`].
    ///
    /// # Panics
    /// Panics if `id` is atomic, or if a choice node is given more than one
    /// child.
    pub fn replace_children(&mut self, id: NodeId, kids: Vec<NodeId>) {
        for &k in &kids {
            if self.nodes.get(k.index()).parent != Some(id) {
                self.nodes.get_mut(k.index()).parent = Some(id);
            }
        }
        match &mut self.nodes.get_mut(id.index()).data {
            NodeData::Record(c) | NodeData::Set(c) => *c = kids,
            NodeData::Choice(c) => {
                assert!(kids.len() <= 1, "choice node takes at most one child");
                *c = kids.into_iter().next();
            }
            NodeData::Atomic(_) => panic!("cannot set children of an atomic node"),
        }
    }

    /// Access a node. Panics on an out-of-range id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes.get(id.index())
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, id: NodeId) -> &Label {
        &self.node(id).label
    }

    /// The parent of a node.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The annotation of a node.
    #[inline]
    pub fn annotation(&self, id: NodeId) -> &Annotation {
        self.annots.get(id.index())
    }

    /// Mutable annotation access. Copies the annotation's chunk if a clone
    /// shares it, whether or not the caller then writes; prefer the
    /// specific setters below, which write only on change.
    pub fn annotation_mut(&mut self, id: NodeId) -> &mut Annotation {
        self.annots.get_mut(id.index())
    }

    /// Sets the element annotation (`f_el`).
    pub fn set_element(&mut self, id: NodeId, e: ElementId) {
        if self.annotation(id).element != Some(e) {
            self.annots.get_mut(id.index()).element = Some(e);
        }
    }

    /// Adds `m` to the mapping annotation (`f_mp`). Returns `true` if the
    /// name was newly written, `false` if already present.
    pub fn add_mapping(&mut self, id: NodeId, m: MappingName) -> bool {
        !self.annotation(id).has_mapping(&m) && self.annots.get_mut(id.index()).add_mapping(m)
    }

    /// Removes `m` from the mapping annotation (`f_mp`). Returns `true` if
    /// the name was present. Used when rolling back an aborted mapping.
    pub fn remove_mapping(&mut self, id: NodeId, m: &MappingName) -> bool {
        self.annotation(id).has_mapping(m) && self.annots.get_mut(id.index()).remove_mapping(m)
    }

    /// Rolls the arena back to its first `len` nodes, discarding every node
    /// (and its annotation) created at position `len` or later: surviving
    /// complex nodes drop pruned children, pruned roots are forgotten, and
    /// a choice whose selection was pruned becomes unselected.
    ///
    /// Because the arena is append-only, a prefix of it is exactly "the
    /// instance as it was" when `len == instance.len()` was captured —
    /// this is the data-exchange abort path: a mapping either completes
    /// atomically or its inserts are truncated away.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.nodes.len() {
            return;
        }
        self.nodes.truncate(len);
        self.annots.truncate(len);
        self.roots.retain(|r| r.index() < len);
        let kept = |k: &NodeId| k.index() < len;
        self.nodes.update_where(
            |node| !node_children(&node.data).iter().all(kept),
            |node| match &mut node.data {
                NodeData::Record(kids) | NodeData::Set(kids) => kids.retain(kept),
                NodeData::Choice(kid) => *kid = None,
                NodeData::Atomic(_) => {}
            },
        );
    }

    /// Children of a node: record fields, set members, or the selected
    /// choice alternative. Atomic nodes have no children.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        node_children(&self.node(id).data)
    }

    /// The field of a record (or the alternative of a choice) with the given
    /// label.
    pub fn child_by_label(&self, id: NodeId, label: &str) -> Option<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .find(|&c| self.node(c).label == label)
    }

    /// The members of a set node; `None` if the node is not a set.
    #[inline]
    pub fn set_members(&self, id: NodeId) -> Option<&[NodeId]> {
        match &self.node(id).data {
            NodeData::Set(c) => Some(c),
            _ => None,
        }
    }

    /// The atomic value of a leaf node; `None` for complex nodes.
    #[inline]
    pub fn atomic(&self, id: NodeId) -> Option<&AtomicValue> {
        match &self.node(id).data {
            NodeData::Atomic(v) => Some(v),
            _ => None,
        }
    }

    /// The selected alternative of a choice node, with its label.
    pub fn choice_selection(&self, id: NodeId) -> Option<(Label, NodeId)> {
        match &self.node(id).data {
            NodeData::Choice(Some(c)) => Some((self.node(*c).label.clone(), *c)),
            _ => None,
        }
    }

    /// Installs a [`Value`] tree as a new root.
    pub fn install_root(&mut self, label: impl Into<Label>, v: Value) -> NodeId {
        let id = self.install(label.into(), &v, None, &Annotation::default());
        self.roots.push(id);
        id
    }

    /// Installs a copy of `v` under `parent` (atomic leaves are cloned; a
    /// string is a reference-count bump). Every node it creates carries
    /// `annotation`, except the members of a set inside `v`, which start
    /// unannotated: a set's members are generated apart from their
    /// container.
    fn install(
        &mut self,
        label: Label,
        v: &Value,
        parent: Option<NodeId>,
        annotation: &Annotation,
    ) -> NodeId {
        let data = match v {
            Value::Atomic(a) => NodeData::Atomic(a.clone()),
            Value::Record(_) => NodeData::Record(Vec::new()),
            Value::Choice(..) => NodeData::Choice(None),
            Value::Set(_) => NodeData::Set(Vec::new()),
        };
        let id = self.push_annotated(label, parent, data, annotation.clone());
        match v {
            Value::Atomic(_) => {}
            Value::Record(fields) => {
                let kids: Vec<NodeId> = fields
                    .iter()
                    .map(|(l, v)| self.install(l.clone(), v, Some(id), annotation))
                    .collect();
                if let NodeData::Record(c) = &mut self.nodes.get_mut(id.index()).data {
                    *c = kids;
                }
            }
            Value::Choice(alt, inner) => {
                let kid = self.install(alt.clone(), inner, Some(id), annotation);
                if let NodeData::Choice(c) = &mut self.nodes.get_mut(id.index()).data {
                    *c = Some(kid);
                }
            }
            Value::Set(members) => {
                let kids: Vec<NodeId> = members
                    .iter()
                    .map(|v| self.install(Label::star(), v, Some(id), &Annotation::default()))
                    .collect();
                if let NodeData::Set(c) = &mut self.nodes.get_mut(id.index()).data {
                    *c = kids;
                }
            }
        }
        id
    }

    /// Appends a copy of `v` as a new member of a set node and returns its
    /// id.
    ///
    /// # Panics
    /// Panics if `set` is not a set node.
    pub fn push_set_member(&mut self, set: NodeId, v: &Value) -> NodeId {
        self.push_member(set, v, &Annotation::default())
    }

    /// Appends a copy of `v` as a new member of `set`, as mapping `m`
    /// generated it: every node installed, apart from the members of a set
    /// inside `v`, carries `f_mp = {m}` and no element yet. The installed
    /// nodes are the arena's suffix from its length before the call.
    /// Returns the member's id.
    ///
    /// # Panics
    /// Panics if `set` is not a set node.
    pub fn push_generated_member(&mut self, set: NodeId, v: &Value, m: &MappingName) -> NodeId {
        let annotation = Annotation {
            element: None,
            mappings: vec![m.clone()],
        };
        self.push_member(set, v, &annotation)
    }

    fn push_member(&mut self, set: NodeId, v: &Value, annotation: &Annotation) -> NodeId {
        assert!(
            matches!(self.node(set).data, NodeData::Set(_)),
            "a new member's target must be a set node"
        );
        let kid = self.install(Label::star(), v, Some(set), annotation);
        if let NodeData::Set(c) = &mut self.nodes.get_mut(set.index()).data {
            c.push(kid);
        }
        kid
    }

    /// Removes `member` from the member list of `set` without reclaiming
    /// arena storage (the arena is append-only; the subtree becomes
    /// unreachable garbage). Returns `true` if the member was present.
    ///
    /// Detached subtrees keep their annotations — callers that care about
    /// [`Instance::interpretation`] (which scans every arena slot) should
    /// follow up with [`Instance::strip_annotations`]. Used by the
    /// incremental exchange to retract target rows.
    ///
    /// # Panics
    /// Panics if `set` is not a set node.
    pub fn detach_set_member(&mut self, set: NodeId, member: NodeId) -> bool {
        match &self.node(set).data {
            NodeData::Set(c) if !c.contains(&member) => return false,
            NodeData::Set(_) => {}
            _ => panic!("detach_set_member target must be a set node"),
        }
        if let NodeData::Set(c) = &mut self.nodes.get_mut(set.index()).data {
            c.retain(|&k| k != member);
        }
        true
    }

    /// Clears every annotation (`f_el` and `f_mp`) in the subtree rooted at
    /// `id`. Used after [`Instance::detach_set_member`] so unreachable
    /// garbage never surfaces through element interpretations.
    pub fn strip_annotations(&mut self, id: NodeId) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let a = self.annotation(n);
            if a.element.is_some() || !a.mappings.is_empty() {
                *self.annots.get_mut(n.index()) = Annotation::default();
            }
            stack.extend_from_slice(self.children(n));
        }
    }

    /// Extracts the owned [`Value`] tree rooted at `id`.
    pub fn to_value(&self, id: NodeId) -> Value {
        match &self.node(id).data {
            NodeData::Atomic(a) => Value::Atomic(a.clone()),
            NodeData::Record(kids) => Value::Record(
                kids.iter()
                    .map(|&k| (self.node(k).label.clone(), self.to_value(k)))
                    .collect(),
            ),
            NodeData::Choice(kid) => {
                let k = kid.expect("choice node must have a selection");
                Value::Choice(self.node(k).label.clone(), Box::new(self.to_value(k)))
            }
            NodeData::Set(kids) => Value::Set(kids.iter().map(|&k| self.to_value(k)).collect()),
        }
    }

    /// Pre-order traversal of all nodes reachable from the roots.
    pub fn walk(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// A structural hash of the value rooted at `id`. Set members contribute
    /// order-insensitively, so two sets with the same members in different
    /// orders hash equal — the identity used by PNF merging.
    pub fn deep_hash(&self, id: NodeId) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash_into(id, &mut h);
        h.finish()
    }

    fn hash_into(&self, id: NodeId, h: &mut DefaultHasher) {
        let node = self.node(id);
        node.label.hash(h);
        match &node.data {
            NodeData::Atomic(a) => {
                0u8.hash(h);
                a.hash(h);
            }
            NodeData::Record(kids) => {
                1u8.hash(h);
                for &k in kids {
                    self.hash_into(k, h);
                }
            }
            NodeData::Choice(kid) => {
                2u8.hash(h);
                if let Some(k) = kid {
                    self.hash_into(*k, h);
                }
            }
            NodeData::Set(kids) => {
                3u8.hash(h);
                let mut hashes: Vec<u64> = kids.iter().map(|&k| self.deep_hash(k)).collect();
                hashes.sort_unstable();
                hashes.hash(h);
            }
        }
    }

    /// Structural equality of the values rooted at `a` and `b`, with sets
    /// compared as multisets (order-insensitive).
    pub fn deep_eq(&self, a: NodeId, b: NodeId) -> bool {
        let (na, nb) = (self.node(a), self.node(b));
        if na.label != nb.label {
            return false;
        }
        match (&na.data, &nb.data) {
            (NodeData::Atomic(x), NodeData::Atomic(y)) => x == y,
            (NodeData::Record(xs), NodeData::Record(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(&x, &y)| self.deep_eq(x, y))
            }
            (NodeData::Choice(x), NodeData::Choice(y)) => match (x, y) {
                (Some(x), Some(y)) => self.deep_eq(*x, *y),
                (None, None) => true,
                _ => false,
            },
            (NodeData::Set(xs), NodeData::Set(ys)) => {
                if xs.len() != ys.len() {
                    return false;
                }
                let mut used = vec![false; ys.len()];
                'outer: for &x in xs {
                    for (i, &y) in ys.iter().enumerate() {
                        if !used[i] && self.deep_eq(x, y) {
                            used[i] = true;
                            continue 'outer;
                        }
                    }
                    return false;
                }
                true
            }
            _ => false,
        }
    }

    /// Checks conformance against `schema` (Definition 4.2) and fills in the
    /// element annotation (`f_el`) of every node: the total injective
    /// `elementOf` function exists exactly when this returns `Ok`. Only
    /// annotations that differ are written.
    pub fn annotate_elements(&mut self, schema: &Schema) -> Result<(), ConformanceError> {
        for i in 0..self.roots.len() {
            let root = self.roots[i];
            let se = self.root_element(root, schema)?;
            self.annotate_rec(root, se, schema)?;
        }
        Ok(())
    }

    /// [`Instance::annotate_elements`] for the nodes created at arena
    /// position `start` or later, for an instance whose earlier nodes are
    /// already annotated: it writes the annotations the whole-instance
    /// pass would write there, and checks the same conformance, without
    /// walking the rest. It relies on every node's parent preceding it in
    /// the arena, as [`Instance::install_root`],
    /// [`Instance::push_set_member`] and top-down [`Instance::push_raw`]
    /// builders guarantee. A node is annotated only while reachable: a root,
    /// or listed by an annotated parent, so a node detached before the call
    /// stays bare.
    pub fn annotate_elements_from(
        &mut self,
        schema: &Schema,
        start: usize,
    ) -> Result<(), ConformanceError> {
        for id in (start..self.nodes.len()).map(|i| NodeId(i as u32)) {
            let se = match self.parent(id) {
                None if self.roots.contains(&id) => self.root_element(id, schema)?,
                None => continue,
                Some(p) => match self.annotation(p).element {
                    Some(pe) if self.children(p).iter().rev().any(|&k| k == id) => {
                        self.child_element(pe, id, schema)?
                    }
                    _ => continue,
                },
            };
            self.check_conforms(id, se, schema)?;
            self.set_element(id, se);
        }
        Ok(())
    }

    fn annotate_rec(
        &mut self,
        id: NodeId,
        se: ElementId,
        schema: &Schema,
    ) -> Result<(), ConformanceError> {
        self.check_conforms(id, se, schema)?;
        self.set_element(id, se);
        for i in 0..self.children(id).len() {
            let k = self.children(id)[i];
            let ke = self.child_element(se, k, schema)?;
            self.annotate_rec(k, ke, schema)?;
        }
        Ok(())
    }

    /// The schema root a root node conforms to, by label.
    fn root_element(&self, root: NodeId, schema: &Schema) -> Result<ElementId, ConformanceError> {
        let label = self.label(root);
        schema.root(label).ok_or_else(|| ConformanceError {
            node: root,
            reason: format!("no schema root named `{label}` in `{}`", schema.name()),
        })
    }

    /// The schema element of child `kid` of a node annotated `parent`: the
    /// member element of a set, the labelled child of a record or choice.
    fn child_element(
        &self,
        parent: ElementId,
        kid: NodeId,
        schema: &Schema,
    ) -> Result<ElementId, ConformanceError> {
        if let ElementKind::Set = schema.element(parent).kind {
            return Ok(schema.set_member(parent).expect("set element has a member"));
        }
        let kl = self.label(kid);
        schema.child(parent, kl).ok_or_else(|| ConformanceError {
            node: kid,
            reason: format!(
                "schema element {parent} ({}) has no child labelled `{kl}`",
                schema.element(parent).label
            ),
        })
    }

    /// Checks that node `id`'s own value has the kind (and atomic type) of
    /// schema element `se`.
    fn check_conforms(
        &self,
        id: NodeId,
        se: ElementId,
        schema: &Schema,
    ) -> Result<(), ConformanceError> {
        let kind = schema.element(se).kind;
        let ok = match (&self.node(id).data, kind) {
            (NodeData::Atomic(v), ElementKind::Atomic(t)) => v.conforms_to(t),
            (NodeData::Record(_), ElementKind::Record) => true,
            (NodeData::Choice(_), ElementKind::Choice) => true,
            (NodeData::Set(_), ElementKind::Set) => true,
            _ => false,
        };
        if ok {
            return Ok(());
        }
        Err(ConformanceError {
            node: id,
            reason: format!(
                "value labelled `{}` does not conform to schema element {} ({}:{})",
                self.label(id),
                se,
                schema.element(se).label,
                kind
            ),
        })
    }

    /// The interpretation `I[e]` of a schema element (Definition 4.2): all
    /// nodes annotated with element `e`. Requires element annotations (see
    /// [`Instance::annotate_elements`]).
    pub fn interpretation(&self, e: ElementId) -> Vec<NodeId> {
        self.nodes_where(|a| a.element == Some(e))
    }

    /// The subset `I[e]_m` of the interpretation generated by mapping `m`
    /// (Section 5).
    pub fn interpretation_by(&self, e: ElementId, m: &MappingName) -> Vec<NodeId> {
        self.nodes_where(|a| a.element == Some(e) && a.has_mapping(m))
    }

    /// Every arena slot whose annotation `keep` selects, in id order.
    fn nodes_where(&self, keep: impl Fn(&Annotation) -> bool) -> Vec<NodeId> {
        (0u32..)
            .zip(self.annots.iter())
            .filter(|(_, a)| keep(a))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// A human-readable location of a node, e.g. `/Portal/estates[1]/value`.
    pub fn node_path(&self, id: NodeId) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut cur = id;
        loop {
            let node = self.node(cur);
            if node.label.is_star() {
                // Position of this member within the parent set.
                let parent = node.parent.expect("set member has a parent");
                let pos = self
                    .children(parent)
                    .iter()
                    .position(|&c| c == cur)
                    .unwrap_or(0);
                parts.push(format!("[{pos}]"));
            } else {
                parts.push(node.label.to_string());
            }
            match node.parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        parts.reverse();
        let mut out = String::new();
        for p in parts {
            if p.starts_with('[') {
                out.push_str(&p);
            } else {
                out.push('/');
                out.push_str(&p);
            }
        }
        out
    }
}

/// The child ids a node's payload holds (see [`Instance::children`]).
#[inline]
fn node_children(data: &NodeData) -> &[NodeId] {
    match data {
        NodeData::Atomic(_) => &[],
        NodeData::Record(c) | NodeData::Set(c) => c,
        NodeData::Choice(c) => c.as_slice(),
    }
}

/// A conformance failure (Definition 4.2): the instance does not conform to
/// the schema.
#[derive(Clone, Debug)]
pub struct ConformanceError {
    /// The offending node.
    pub node: NodeId,
    /// Human-readable description.
    pub reason: String,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conformance error at {:?}: {}", self.node, self.reason)
    }
}

impl std::error::Error for ConformanceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AtomicType, Type};

    fn portal_schema() -> Schema {
        Schema::build("Pdb", vec![("Portal", portal_type())]).unwrap()
    }

    fn portal_type() -> Type {
        Type::record(vec![
            (
                "estates",
                Type::relation(vec![
                    ("hid", AtomicType::String),
                    ("stories", AtomicType::String),
                    ("value", AtomicType::String),
                    ("contact", AtomicType::String),
                ]),
            ),
            (
                "contacts",
                Type::relation(vec![
                    ("title", AtomicType::String),
                    ("phone", AtomicType::String),
                ]),
            ),
        ])
    }

    fn estate(hid: &str, stories: &str, value: &str, contact: &str) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("stories", Value::str(stories)),
            ("value", Value::str(value)),
            ("contact", Value::str(contact)),
        ])
    }

    /// Builds the Figure 3 instance (two estates, one contact).
    fn figure3_instance() -> Instance {
        let mut inst = Instance::new("Pdb");
        inst.install_root(
            "Portal",
            Value::record(vec![
                (
                    "estates",
                    Value::set(vec![
                        estate("H522", "2", "500K", "HomeGain"),
                        estate("H2525", "1", "300K", "HomeGain"),
                    ]),
                ),
                (
                    "contacts",
                    Value::set(vec![Value::record(vec![
                        ("title", Value::str("HomeGain")),
                        ("phone", Value::str("18009468501")),
                    ])]),
                ),
            ]),
        );
        inst
    }

    #[test]
    fn build_and_navigate() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        let members = inst.set_members(estates).unwrap();
        assert_eq!(members.len(), 2);
        let hid = inst.child_by_label(members[0], "hid").unwrap();
        assert_eq!(inst.atomic(hid).unwrap().as_str(), Some("H522"));
        assert_eq!(inst.parent(hid), Some(members[0]));
    }

    #[test]
    fn conformance_and_interpretation() {
        let schema = portal_schema();
        let mut inst = figure3_instance();
        inst.annotate_elements(&schema).unwrap();
        let value_elem = schema.resolve_path("/Portal/estates/value").unwrap();
        let interp = inst.interpretation(value_elem);
        assert_eq!(interp.len(), 2);
        let texts: Vec<&str> = interp
            .iter()
            .map(|&n| inst.atomic(n).unwrap().as_str().unwrap())
            .collect();
        assert!(texts.contains(&"500K") && texts.contains(&"300K"));
    }

    #[test]
    fn conformance_rejects_bad_label() {
        let schema = portal_schema();
        let mut inst = Instance::new("Pdb");
        inst.install_root("Portal", Value::record(vec![("bogus", Value::str("x"))]));
        assert!(inst.annotate_elements(&schema).is_err());
    }

    #[test]
    fn conformance_rejects_bad_root() {
        let schema = portal_schema();
        let mut inst = Instance::new("Pdb");
        inst.install_root("Elsewhere", Value::str("x"));
        assert!(inst.annotate_elements(&schema).is_err());
    }

    #[test]
    fn mapping_annotations_union() {
        let mut inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        inst.add_mapping(portal, MappingName::new("m3"));
        inst.add_mapping(portal, MappingName::new("m2"));
        inst.add_mapping(portal, MappingName::new("m2"));
        let names: Vec<&str> = inst
            .annotation(portal)
            .mappings
            .iter()
            .map(|m| m.as_str())
            .collect();
        assert_eq!(names, ["m2", "m3"]);
        assert!(inst.annotation(portal).has_mapping(&MappingName::new("m3")));
        assert!(!inst.annotation(portal).has_mapping(&MappingName::new("m1")));
    }

    #[test]
    fn interpretation_by_mapping() {
        let schema = portal_schema();
        let mut inst = figure3_instance();
        inst.annotate_elements(&schema).unwrap();
        let value_elem = schema.resolve_path("/Portal/estates/value").unwrap();
        let interp = inst.interpretation(value_elem);
        inst.add_mapping(interp[0], MappingName::new("m2"));
        inst.add_mapping(interp[1], MappingName::new("m3"));
        assert_eq!(
            inst.interpretation_by(value_elem, &MappingName::new("m2")),
            vec![interp[0]]
        );
    }

    #[test]
    fn deep_eq_is_set_order_insensitive() {
        let mut inst = Instance::new("X");
        let a = inst.install_root(
            "A",
            Value::set(vec![estate("1", "a", "b", "c"), estate("2", "d", "e", "f")]),
        );
        let b = inst.install_root(
            "A",
            Value::set(vec![estate("2", "d", "e", "f"), estate("1", "a", "b", "c")]),
        );
        assert!(inst.deep_eq(a, b));
        assert_eq!(inst.deep_hash(a), inst.deep_hash(b));
    }

    #[test]
    fn deep_eq_detects_difference() {
        let mut inst = Instance::new("X");
        let a = inst.install_root("A", estate("1", "a", "b", "c"));
        let b = inst.install_root("A", estate("1", "a", "b", "d"));
        assert!(!inst.deep_eq(a, b));
    }

    #[test]
    fn to_value_round_trip() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let v = inst.to_value(portal);
        let mut inst2 = Instance::new("Pdb");
        let r2 = inst2.install_root("Portal", v);
        // Compare by re-extracting.
        assert_eq!(inst.to_value(portal), inst2.to_value(r2));
    }

    #[test]
    fn push_set_member_appends() {
        let mut inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        inst.push_set_member(estates, &estate("H9", "3", "700K", "Acme"));
        assert_eq!(inst.set_members(estates).unwrap().len(), 3);
    }

    #[test]
    fn generated_member_installs_like_a_plain_one_tagged_with_its_mapping() {
        let mut inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        let v = estate("H9", "3", "700K", "Acme");
        let before = inst.len();
        let m = MappingName::new("m9");
        let member = inst.push_generated_member(estates, &v, &m);
        assert_eq!(inst.to_value(member), v);
        assert_eq!(inst.parent(member), Some(estates));
        assert_eq!(*inst.set_members(estates).unwrap().last().unwrap(), member);
        for i in before..inst.len() {
            let ann = inst.annotation(NodeId(i as u32));
            assert_eq!(
                (ann.element, ann.mappings.as_slice()),
                (None, [m.clone()].as_slice())
            );
        }
        let mut plain = figure3_instance();
        let set = plain
            .child_by_label(plain.root("Portal").unwrap(), "estates")
            .unwrap();
        plain.push_set_member(set, &v);
        assert_eq!(plain.len(), inst.len());

        // A set inside the value is tagged, its members are not: they are
        // generated apart from their container.
        let nested = Value::record(vec![("notes", Value::set(vec![Value::str("n")]))]);
        let member = inst.push_generated_member(estates, &nested, &m);
        let notes = inst.child_by_label(member, "notes").unwrap();
        assert_eq!(inst.annotation(notes).mappings, std::slice::from_ref(&m));
        let note = inst.set_members(notes).unwrap()[0];
        assert!(inst.annotation(note).mappings.is_empty());
    }

    #[test]
    fn walk_visits_everything_once() {
        let inst = figure3_instance();
        let order = inst.walk();
        assert_eq!(order.len(), inst.len());
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), inst.len());
    }

    #[test]
    fn node_path_rendering() {
        let inst = figure3_instance();
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        let m1 = inst.set_members(estates).unwrap()[1];
        let hid = inst.child_by_label(m1, "hid").unwrap();
        assert_eq!(inst.node_path(hid), "/Portal/estates[1]/hid");
    }

    #[test]
    fn truncate_rolls_back_to_a_prefix() {
        let mut inst = figure3_instance();
        let snapshot_len = inst.len();
        let snapshot = inst.to_value(inst.root("Portal").unwrap());
        // Simulate a partially-applied mapping: new member, new root, and a
        // mapping annotation on a surviving node.
        let portal = inst.root("Portal").unwrap();
        let estates = inst.child_by_label(portal, "estates").unwrap();
        inst.push_set_member(estates, &estate("H9", "3", "700K", "Acme"));
        inst.install_root("Stray", Value::str("x"));
        inst.add_mapping(estates, MappingName::new("m9"));
        inst.truncate(snapshot_len);
        inst.remove_mapping(estates, &MappingName::new("m9"));
        assert_eq!(inst.len(), snapshot_len);
        assert_eq!(inst.roots().len(), 1);
        assert_eq!(inst.set_members(estates).unwrap().len(), 2);
        assert!(!inst
            .annotation(estates)
            .has_mapping(&MappingName::new("m9")));
        assert_eq!(inst.to_value(inst.root("Portal").unwrap()), snapshot);
    }

    #[test]
    fn truncate_unselects_pruned_choice() {
        let mut inst = Instance::new("X");
        let root = inst.push_raw("title".into(), None, NodeData::Choice(None), true);
        let len_before = inst.len();
        let kid = inst.push_raw(
            "firm".into(),
            Some(root),
            NodeData::Atomic(AtomicValue::Str("HomeGain".into())),
            false,
        );
        inst.replace_children(root, vec![kid]);
        inst.truncate(len_before);
        assert!(inst.choice_selection(root).is_none());
        assert!(inst.children(root).is_empty());
    }

    #[test]
    fn truncate_past_end_is_a_no_op() {
        let mut inst = figure3_instance();
        let len = inst.len();
        inst.truncate(len + 100);
        inst.truncate(len);
        assert_eq!(inst.len(), len);
    }

    #[test]
    fn choice_nodes() {
        let mut inst = Instance::new("USdb");
        let root = inst.install_root("title", Value::choice("firm", Value::str("HomeGain")));
        let (label, kid) = inst.choice_selection(root).unwrap();
        assert_eq!(label, "firm");
        assert_eq!(inst.atomic(kid).unwrap().as_str(), Some("HomeGain"));
        assert_eq!(inst.children(root), &[kid]);
    }

    // -- Copy-on-write isolation ------------------------------------------

    use crate::arena::CHUNK;
    use proptest::prelude::*;

    /// Everything a clone must keep: its length, the value of every root
    /// and the annotation of every arena slot.
    type Observed = (usize, Vec<Value>, Vec<Annotation>);

    fn observed(inst: &Instance) -> Observed {
        (
            inst.len(),
            inst.roots().iter().map(|&r| inst.to_value(r)).collect(),
            (0..inst.len() as u32)
                .map(|i| inst.annotation(NodeId(i)).clone())
                .collect(),
        )
    }

    /// The Figure 3 schema plus an atomic `Note` root.
    fn cow_schema() -> Schema {
        Schema::build(
            "Pdb",
            vec![
                ("Portal", portal_type()),
                ("Note", Type::Atomic(AtomicType::String)),
            ],
        )
        .unwrap()
    }

    /// A Figure 3 instance grown to `estates` estates (five nodes each),
    /// annotated, with mapping `m1` on every estate and `m2` on the odd
    /// ones, plus two trailing estates appended after annotation so the
    /// annotation passes have work to do.
    fn multi_chunk(estates: usize) -> Instance {
        let mut inst = figure3_instance();
        let set = estates_set(&inst);
        for i in 2..estates {
            inst.push_set_member(
                set,
                &estate(&format!("H{i}"), "2", &format!("{i}K"), "Acme"),
            );
        }
        inst.annotate_elements(&cow_schema()).unwrap();
        for (i, &m) in inst.set_members(set).unwrap().to_vec().iter().enumerate() {
            inst.add_mapping(m, MappingName::new("m1"));
            if i % 2 == 1 {
                inst.add_mapping(m, MappingName::new("m2"));
            }
        }
        inst.push_set_member(set, &estate("T1", "1", "1K", "Tail"));
        inst.push_set_member(set, &estate("T2", "1", "2K", "Tail"));
        inst
    }

    fn estates_set(inst: &Instance) -> NodeId {
        let portal = inst.root("Portal").unwrap();
        inst.child_by_label(portal, "estates").unwrap()
    }

    /// The id of the `i`th estate member.
    fn estate_at(inst: &Instance, i: usize) -> NodeId {
        inst.set_members(estates_set(inst)).unwrap()[i]
    }

    #[test]
    fn the_fixture_spans_several_chunks() {
        let inst = multi_chunk(120);
        assert!(inst.len() > 4 * CHUNK, "only {} nodes", inst.len());
        assert!(inst.nodes.chunk_count() >= 5);
    }

    /// Every `&mut` method, applied to one side of a clone, leaves the
    /// other side's length, values and annotations as they were — and
    /// does change the side it was applied to.
    #[test]
    fn every_mutator_leaves_a_prior_clone_untouched() {
        let m1 = MappingName::new("m1");
        type Op = Box<dyn Fn(&mut Instance)>;
        let ops: Vec<(&str, Op)> = vec![
            (
                "push_raw",
                Box::new(|i: &mut Instance| {
                    i.push_raw("Note".into(), None, NodeData::Atomic("x".into()), true);
                }),
            ),
            (
                "replace_children",
                Box::new(|i: &mut Instance| {
                    let set = estates_set(i);
                    let mut kids = i.children(set).to_vec();
                    kids.reverse();
                    i.replace_children(set, kids);
                }),
            ),
            (
                "annotation_mut",
                Box::new(|i: &mut Instance| {
                    let n = estate_at(i, 40);
                    i.annotation_mut(n).mappings.clear();
                }),
            ),
            (
                "set_element",
                Box::new(|i: &mut Instance| {
                    let n = estate_at(i, 70);
                    i.set_element(n, ElementId(0));
                }),
            ),
            (
                "add_mapping",
                Box::new(|i: &mut Instance| {
                    let n = estate_at(i, 90);
                    i.add_mapping(n, MappingName::new("m9"));
                }),
            ),
            (
                "remove_mapping",
                Box::new(move |i: &mut Instance| {
                    let n = estate_at(i, 100);
                    assert!(i.remove_mapping(n, &m1));
                }),
            ),
            (
                "truncate at a chunk boundary",
                Box::new(|i: &mut Instance| i.truncate(3 * CHUNK)),
            ),
            (
                "truncate inside a chunk",
                Box::new(|i: &mut Instance| i.truncate(2 * CHUNK + 37)),
            ),
            (
                "install_root",
                Box::new(|i: &mut Instance| {
                    i.install_root("Note", Value::str("n"));
                }),
            ),
            (
                "push_set_member",
                Box::new(|i: &mut Instance| {
                    let set = estates_set(i);
                    i.push_set_member(set, &estate("H9", "3", "9K", "Acme"));
                }),
            ),
            (
                "detach_set_member",
                Box::new(|i: &mut Instance| {
                    let (set, n) = (estates_set(i), estate_at(i, 10));
                    assert!(i.detach_set_member(set, n));
                }),
            ),
            (
                "strip_annotations",
                Box::new(|i: &mut Instance| {
                    let n = estate_at(i, 60);
                    i.strip_annotations(n);
                }),
            ),
            (
                "annotate_elements",
                Box::new(|i: &mut Instance| i.annotate_elements(&cow_schema()).unwrap()),
            ),
            (
                "annotate_elements_from",
                Box::new(|i: &mut Instance| {
                    let tail = i.len() - 10;
                    i.annotate_elements_from(&cow_schema(), tail).unwrap();
                }),
            ),
        ];
        for (name, op) in ops {
            let mut inst = multi_chunk(120);
            let copy = inst.clone();
            let before = observed(&copy);
            op(&mut inst);
            assert_eq!(observed(&copy), before, "{name} reached the clone");
            assert_ne!(observed(&inst), before, "{name} changed nothing");
        }
    }

    #[test]
    fn unchanged_writes_copy_no_chunk() {
        let schema = cow_schema();
        let mut inst = multi_chunk(120);
        inst.annotate_elements(&schema).unwrap();
        let copy = inst.clone();
        let chunks = copy.nodes.chunk_count();
        let n = estate_at(&inst, 3);
        inst.annotate_elements(&schema).unwrap();
        inst.annotate_elements_from(&schema, 0).unwrap();
        let element = inst.annotation(n).element.unwrap();
        inst.set_element(n, element);
        assert!(!inst.add_mapping(n, MappingName::new("m2")));
        assert!(!inst.remove_mapping(n, &MappingName::new("m7")));
        assert!(!inst.detach_set_member(estates_set(&inst), NodeId(0)));
        inst.truncate(inst.len());
        assert_eq!(inst.nodes.shared_chunks(&copy.nodes), chunks);
        assert_eq!(inst.annots.shared_chunks(&copy.annots), chunks);
        // Stripping a bare node writes nothing; re-parenting members under
        // their own set writes only the set's member list.
        let bare = inst.push_raw("Note".into(), None, NodeData::Atomic("x".into()), false);
        let copy = inst.clone();
        let chunks = copy.nodes.chunk_count();
        inst.strip_annotations(bare);
        let set = estates_set(&inst);
        let kids = inst.children(set).to_vec();
        inst.replace_children(set, kids);
        assert_eq!(inst.annots.shared_chunks(&copy.annots), chunks);
        assert_eq!(inst.nodes.shared_chunks(&copy.nodes), chunks - 1);
    }

    #[test]
    fn a_write_copies_only_the_chunk_it_lands_in() {
        let mut inst = multi_chunk(120);
        let copy = inst.clone();
        let chunks = copy.annots.chunk_count();
        let n = estate_at(&inst, 50);
        inst.add_mapping(n, MappingName::new("m9"));
        assert_eq!(inst.annots.shared_chunks(&copy.annots), chunks - 1);
        assert_eq!(inst.nodes.shared_chunks(&copy.nodes), chunks);
        // Truncating inside chunk 2 drops the later chunks and rewrites
        // only the chunks holding a parent of a pruned node: the cut chunk
        // and the one holding the estates set.
        let mut cut = copy.clone();
        cut.truncate(2 * CHUNK + 37);
        assert_eq!(cut.nodes.chunk_count(), 3);
        assert_eq!(cut.nodes.shared_chunks(&copy.nodes), 1);
        assert_eq!(cut.annots.shared_chunks(&copy.annots), 2);
    }

    #[test]
    fn annotate_elements_from_matches_the_whole_pass() {
        let schema = cow_schema();
        let mut whole = multi_chunk(120);
        let mut suffix = whole.clone();
        // The fixture's last two estates (ten nodes) are not annotated yet.
        let tail = whole.len() - 10;
        for inst in [&mut whole, &mut suffix] {
            let set = estates_set(inst);
            let gone = estate_at(inst, 5);
            inst.detach_set_member(set, gone);
            inst.strip_annotations(gone);
            inst.push_set_member(set, &estate("N1", "4", "4K", "New"));
            let orphan = inst.push_set_member(set, &estate("N2", "4", "5K", "New"));
            inst.detach_set_member(set, orphan);
            inst.install_root("Note", Value::str("hello"));
        }
        suffix.annotate_elements_from(&schema, tail).unwrap();
        whole.annotate_elements(&schema).unwrap();
        assert_eq!(observed(&suffix), observed(&whole));
    }

    #[test]
    fn annotate_elements_from_reports_nonconforming_nodes() {
        let schema = cow_schema();
        let mut inst = multi_chunk(10);
        inst.annotate_elements(&schema).unwrap();
        let start = inst.len();
        let set = estates_set(&inst);
        inst.push_set_member(set, &Value::record(vec![("bogus", Value::str("x"))]));
        let err = inst.annotate_elements_from(&schema, start).unwrap_err();
        assert!(err.reason.contains("no child labelled `bogus`"), "{err}");
        let start = inst.len();
        inst.install_root("Elsewhere", Value::str("x"));
        let err = inst.annotate_elements_from(&schema, start).unwrap_err();
        assert!(err.reason.contains("no schema root"), "{err}");
    }

    /// Applies op `kind` (one per `&mut` method) with target choices drawn
    /// from `seed`, the same way on any instance of the same shape.
    fn apply_op(inst: &mut Instance, kind: u8, seed: u64) {
        let schema = cow_schema();
        let pick = |inst: &Instance| NodeId((seed % inst.len() as u64) as u32);
        let name = MappingName::new(format!("m{}", seed % 3));
        let set = estates_set(inst);
        match kind {
            0 => {
                let rec = inst.push_raw(
                    Label::star(),
                    Some(set),
                    NodeData::Record(Vec::new()),
                    false,
                );
                let leaf = inst.push_raw(
                    "hid".into(),
                    Some(rec),
                    NodeData::Atomic(format!("R{seed}").into()),
                    false,
                );
                inst.replace_children(rec, vec![leaf]);
                let mut kids = inst.children(set).to_vec();
                kids.push(rec);
                inst.replace_children(set, kids);
            }
            1 => {
                let mut kids = inst.children(set).to_vec();
                let k = kids.len();
                if k > 0 {
                    kids.rotate_left((seed % k as u64) as usize);
                }
                inst.replace_children(set, kids);
            }
            2 => {
                let n = pick(inst);
                inst.annotation_mut(n).mappings.retain(|m| *m != name);
            }
            3 => {
                let n = pick(inst);
                inst.set_element(n, ElementId((seed % 7) as u32));
            }
            4 => {
                let n = pick(inst);
                inst.add_mapping(n, name);
            }
            5 => {
                let n = pick(inst);
                inst.remove_mapping(n, &name);
            }
            6 => {
                let floor = set.index() + 1;
                let len = inst.len();
                if len > floor {
                    inst.truncate(floor + (seed % (len - floor) as u64) as usize);
                }
            }
            7 => {
                inst.install_root("Note", Value::str(format!("n{seed}")));
            }
            8 => {
                inst.push_set_member(set, &estate(&format!("P{seed}"), "1", "1K", "Acme"));
            }
            9 => {
                let kids = inst.children(set).to_vec();
                if !kids.is_empty() {
                    let m = kids[(seed % kids.len() as u64) as usize];
                    inst.detach_set_member(set, m);
                }
            }
            10 => {
                let n = pick(inst);
                inst.strip_annotations(n);
            }
            11 => {
                let _ = inst.annotate_elements(&schema);
            }
            _ => {
                let from = (seed % inst.len() as u64) as usize;
                let _ = inst.annotate_elements_from(&schema, from);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random op sequences on one side of a clone never reach the
        /// other side, and land exactly as they do on an instance that
        /// shares no chunk with anything.
        #[test]
        fn random_ops_on_one_side_of_a_clone(
            estates in 20usize..140,
            ops in prop::collection::vec((0u8..13, any::<u64>()), 1..24),
        ) {
            let original = multi_chunk(estates);
            let mut edited = original.clone();
            let mut alone = multi_chunk(estates);
            let before = observed(&original);
            for &(kind, seed) in &ops {
                apply_op(&mut edited, kind, seed);
                apply_op(&mut alone, kind, seed);
                prop_assert_eq!(observed(&original), before.clone());
            }
            prop_assert_eq!(edited.len(), alone.len());
            prop_assert_eq!(edited.roots(), alone.roots());
            for i in 0..edited.len() as u32 {
                let n = NodeId(i);
                prop_assert_eq!(edited.annotation(n), alone.annotation(n));
                prop_assert_eq!(edited.parent(n), alone.parent(n));
                prop_assert_eq!(edited.children(n), alone.children(n));
                prop_assert_eq!(edited.label(n), alone.label(n));
                prop_assert_eq!(edited.atomic(n), alone.atomic(n));
            }
        }
    }
}
