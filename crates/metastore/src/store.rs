//! The meta-data physical storage schema (Section 7.1, Figures 4 and 5).
//!
//! Schemas and mappings, to be queried and returned in answer sets as
//! regular data, are stored in seven relations:
//!
//! ```text
//! Db(name)
//! Element(eid, name, type, parent, db)
//! Query(qid)
//! Binding(bid, qid, eid, prev)
//! Condition(qid, bid, eid, op, bid2, eid2)
//! Mapping(mid, forQ, conQ)
//! Correspondence(mid, forBid, forEid, conBid, conEid)
//! ```
//!
//! Element ids are global across all stored schemas (Figure 5 numbers EUdb
//! as `e0..e9` and Pdb as `e30..e40`). One practical column is added beyond
//! the paper's figure: `Element.path` stores the canonical slash path, which
//! the MXQL translator compares element constants against (the paper's
//! Example 7.4 writes `e.eid = 'US/agents/title/firm'`, silently treating
//! paths as ids; the extra column makes that well-typed).
//!
//! Robustness contract: the library paths in this module are
//! `unwrap`/`expect`-free — every fallible encoding step returns a
//! [`StoreError`] — and the budgeted entry points charge each encoded row
//! so a deadline, cancellation, or row cap aborts with a structured
//! [`StoreError::Guard`].

use dtr_mapping::glav::Mapping;
use dtr_model::schema::{ElementId, Schema};
use dtr_model::value::MappingName;
use dtr_obs::guard::{Budget, GuardError, Meter};
use dtr_query::ast::{Condition, Expr, PathExpr, PathStart, Query};
use dtr_query::check::{check_query, CheckError, Resolved, SchemaCatalog};
use std::collections::HashMap;
use std::fmt;

/// `Db(name)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbRow {
    /// The data source name.
    pub name: String,
}

/// `Element(eid, name, type, parent, db)` (+ the practical `path` column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementRow {
    /// Global element id, e.g. `e33`.
    pub eid: String,
    /// Element label.
    pub name: String,
    /// Element kind name (`Str`, `Rcd`, `Choice`, `Set`, ...).
    pub ty: String,
    /// Parent element id, if any.
    pub parent: Option<String>,
    /// Owning database.
    pub db: String,
    /// Canonical slash path (not in Figure 4; see module docs).
    pub path: String,
}

/// `Query(qid)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRow {
    /// Query id, e.g. `q0`.
    pub qid: String,
}

/// `Binding(bid, qid, eid, prev)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BindingRow {
    /// Binding id — the variable name ("for the binding `Pi xi`, variable
    /// `xi` becomes the binding identifier"). Implicit root bindings get
    /// fresh `r1, r2, ...` ids.
    pub bid: String,
    /// Owning query.
    pub qid: String,
    /// The element the binding expression refers to.
    pub eid: String,
    /// The binding the expression starts from (`None` for schema roots).
    pub prev: Option<String>,
}

/// `Condition(qid, bid, eid, op, bid2, eid2)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConditionRow {
    /// Owning query.
    pub qid: String,
    /// Left expression: starting binding.
    pub bid: Option<String>,
    /// Left expression: referred element (or a constant literal).
    pub eid: String,
    /// Operator.
    pub op: String,
    /// Right expression: starting binding.
    pub bid2: Option<String>,
    /// Right expression: referred element (or a constant literal).
    pub eid2: String,
}

/// `Mapping(mid, forQ, conQ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappingRow {
    /// Mapping id.
    pub mid: String,
    /// The foreach query.
    pub for_q: String,
    /// The exists ("consequent") query.
    pub con_q: String,
}

/// `Correspondence(mid, forBid, forEid, conBid, conEid)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrespondenceRow {
    /// Owning mapping.
    pub mid: String,
    /// Foreach select expression: starting binding.
    pub for_bid: String,
    /// Foreach select expression: referred element.
    pub for_eid: String,
    /// Exists select expression: starting binding.
    pub con_bid: String,
    /// Exists select expression: referred element.
    pub con_eid: String,
}

/// The in-memory metastore: the seven relations plus indexes.
#[derive(Clone, Debug, Default)]
pub struct MetaStore {
    /// `Db` rows.
    pub dbs: Vec<DbRow>,
    /// `Element` rows.
    pub elements: Vec<ElementRow>,
    /// `Query` rows.
    pub queries: Vec<QueryRow>,
    /// `Binding` rows.
    pub bindings: Vec<BindingRow>,
    /// `Condition` rows.
    pub conditions: Vec<ConditionRow>,
    /// `Mapping` rows.
    pub mappings: Vec<MappingRow>,
    /// `Correspondence` rows.
    pub correspondences: Vec<CorrespondenceRow>,
    /// `(db, local element index) -> global eid index`.
    eid_index: HashMap<(String, u32), usize>,
    next_query: usize,
    next_root_binding: usize,
}

/// Errors raised while encoding meta-data.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// A schema with this database name is already stored.
    DuplicateDb(String),
    /// The mapping references a schema that has not been stored.
    UnknownDb(String),
    /// A mapping query failed checking.
    Check(CheckError),
    /// A query construct the storage schema cannot represent.
    Unsupported(String),
    /// The encoding exceeded its resource budget. The store may hold a
    /// partially encoded schema or mapping; callers building a store under
    /// a budget should discard it on error (see `MetaRunner::new_budgeted`).
    Guard(GuardError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateDb(d) => write!(f, "database `{d}` already stored"),
            StoreError::UnknownDb(d) => write!(f, "database `{d}` not stored"),
            StoreError::Check(e) => write!(f, "check error: {e}"),
            StoreError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            StoreError::Guard(g) => write!(f, "{g}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CheckError> for StoreError {
    fn from(e: CheckError) -> Self {
        StoreError::Check(e)
    }
}

impl From<GuardError> for StoreError {
    fn from(g: GuardError) -> Self {
        StoreError::Guard(g)
    }
}

impl MetaStore {
    /// An empty metastore.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total rows across the seven storage relations.
    pub fn total_rows(&self) -> usize {
        self.dbs.len()
            + self.elements.len()
            + self.queries.len()
            + self.bindings.len()
            + self.conditions.len()
            + self.mappings.len()
            + self.correspondences.len()
    }

    /// Stores a schema: one `Db` row plus one `Element` row per schema
    /// element, with globally unique `eN` ids.
    pub fn add_schema(&mut self, schema: &Schema) -> Result<(), StoreError> {
        self.add_schema_budgeted(schema, &mut Budget::unlimited().meter("metastore.encode"))
    }

    /// [`MetaStore::add_schema`] under a resource budget: each encoded row
    /// charges the meter, so a deadline, cancellation, or `max_rows` cap
    /// aborts the encoding with [`StoreError::Guard`].
    pub fn add_schema_budgeted(
        &mut self,
        schema: &Schema,
        meter: &mut Meter,
    ) -> Result<(), StoreError> {
        let span = dtr_obs::span("metastore.add_schema").field("db", schema.name());
        let before = self.total_rows();
        if self.dbs.iter().any(|d| d.name == schema.name()) {
            return Err(StoreError::DuplicateDb(schema.name().to_owned()));
        }
        meter.charge_rows(1)?;
        self.dbs.push(DbRow {
            name: schema.name().to_owned(),
        });
        let base = self.elements.len();
        for (id, el) in schema.elements() {
            meter.charge_rows(1)?;
            let eid = format!("e{}", base + id.index());
            let parent = el.parent.map(|p| format!("e{}", base + p.index()));
            self.eid_index
                .insert((schema.name().to_owned(), id.0), self.elements.len());
            self.elements.push(ElementRow {
                eid,
                name: el.label.to_string(),
                ty: el.kind.name().to_owned(),
                parent,
                db: schema.name().to_owned(),
                path: schema.path(id),
            });
        }
        let encoded = self.total_rows() - before;
        dtr_obs::counters().meta_tuples_encoded.add(encoded as u64);
        span.record("rows_encoded", encoded);
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(
                dtr_obs::journal::event(
                    "metastore.add_schema",
                    dtr_obs::journal::Outcome::MetaEncoded {
                        relation: "Element",
                    },
                )
                .detail(format!("schema {}: {encoded} rows", schema.name())),
            );
        }
        Ok(())
    }

    /// The global eid of a schema element.
    pub fn eid(&self, db: &str, element: ElementId) -> Option<&str> {
        self.eid_index
            .get(&(db.to_owned(), element.0))
            .map(|&i| self.elements[i].eid.as_str())
    }

    /// Finds an element row by database and canonical path.
    pub fn element_by_path(&self, db: &str, path: &str) -> Option<&ElementRow> {
        self.elements.iter().find(|e| e.db == db && e.path == path)
    }

    /// Stores a mapping: a `Mapping` row, two `Query` rows with their
    /// `Binding`/`Condition` rows, and one `Correspondence` row per select
    /// position. The referenced schemas must have been stored first.
    pub fn add_mapping(
        &mut self,
        m: &Mapping,
        source_schemas: &[&Schema],
        target_schema: &Schema,
    ) -> Result<(), StoreError> {
        self.add_mapping_budgeted(
            m,
            source_schemas,
            target_schema,
            &mut Budget::unlimited().meter("metastore.encode"),
        )
    }

    /// [`MetaStore::add_mapping`] under a resource budget (see
    /// [`MetaStore::add_schema_budgeted`]).
    pub fn add_mapping_budgeted(
        &mut self,
        m: &Mapping,
        source_schemas: &[&Schema],
        target_schema: &Schema,
        meter: &mut Meter,
    ) -> Result<(), StoreError> {
        let span = dtr_obs::span("metastore.add_mapping").field("mid", &m.name);
        let before = self.total_rows();
        meter.poll()?;
        let src = check_query(&m.foreach, SchemaCatalog::new(source_schemas.to_vec()))?;
        let tgt = check_query(&m.exists, SchemaCatalog::new(vec![target_schema]))?;

        let for_q = self.fresh_query();
        let con_q = self.fresh_query();
        let for_binds = self.encode_query(&m.foreach, &src, &for_q)?;
        let con_binds = self.encode_query(&m.exists, &tgt, &con_q)?;
        meter.charge_rows((self.total_rows() - before) as u64)?;
        self.mappings.push(MappingRow {
            mid: m.name.to_string(),
            for_q: for_q.clone(),
            con_q: con_q.clone(),
        });

        for (fe, ee) in m.foreach.select.iter().zip(&m.exists.select) {
            let (cbid, ceid) = self.expr_parts(ee, &tgt, &con_binds)?;
            for (fbid, feid) in self.expr_parts_multi(fe, &src, &for_binds)? {
                meter.charge_rows(1)?;
                self.correspondences.push(CorrespondenceRow {
                    mid: m.name.to_string(),
                    for_bid: fbid.unwrap_or_default(),
                    for_eid: feid,
                    con_bid: cbid.clone().unwrap_or_default(),
                    con_eid: ceid.clone(),
                });
            }
        }
        let encoded = self.total_rows() - before;
        dtr_obs::counters().meta_tuples_encoded.add(encoded as u64);
        span.record("rows_encoded", encoded);
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(
                dtr_obs::journal::event(
                    "metastore.add_mapping",
                    dtr_obs::journal::Outcome::MetaEncoded {
                        relation: "Mapping",
                    },
                )
                .mapping(&m.name)
                .detail(format!("{encoded} rows")),
            );
        }
        Ok(())
    }

    fn fresh_query(&mut self) -> String {
        let qid = format!("q{}", self.next_query);
        self.next_query += 1;
        self.queries.push(QueryRow { qid: qid.clone() });
        qid
    }

    /// Encodes the from/where clauses of one query. Returns the map from
    /// root label to its implicit binding id.
    fn encode_query(
        &mut self,
        q: &Query,
        resolved: &Resolved<'_>,
        qid: &str,
    ) -> Result<HashMap<String, String>, StoreError> {
        // Pass 1: implicit bindings for every schema root used anywhere
        // ("since queries have no bindings for schema roots, implicit
        // bindings are introduced for each schema root used in the query").
        let mut root_labels: Vec<String> = Vec::new();
        let note_expr = |e: &Expr, out: &mut Vec<String>| {
            if let Expr::Path(p) | Expr::ElemOf(p) | Expr::MapOf(p) = e {
                if let PathStart::Root(r) = &p.start {
                    if !out.iter().any(|l| l == r.as_str()) {
                        out.push(r.to_string());
                    }
                }
            }
        };
        for b in &q.from {
            note_expr(&b.source, &mut root_labels);
        }
        for e in &q.select {
            note_expr(e, &mut root_labels);
        }
        for c in &q.conditions {
            if let Condition::Cmp(cmp) = c {
                note_expr(&cmp.left, &mut root_labels);
                note_expr(&cmp.right, &mut root_labels);
            }
        }
        let mut root_binds: HashMap<String, String> = HashMap::new();
        for label in root_labels {
            let (s, e) = resolved
                .catalog()
                .find_root(&label)
                .ok_or_else(|| StoreError::Unsupported(format!("unknown root `{label}`")))?;
            let schema = resolved.catalog().schema(s);
            let eid = self
                .eid(schema.name(), e)
                .ok_or_else(|| StoreError::UnknownDb(schema.name().to_owned()))?
                .to_owned();
            self.next_root_binding += 1;
            let bid = format!("r{}", self.next_root_binding);
            self.bindings.push(BindingRow {
                bid: bid.clone(),
                qid: qid.to_owned(),
                eid,
                prev: None,
            });
            root_binds.insert(label, bid);
        }

        // Pass 2: declared bindings.
        for b in &q.from {
            let Expr::Path(p) = &b.source else {
                return Err(StoreError::Unsupported(format!(
                    "binding source `{}`",
                    b.source
                )));
            };
            let prev = match &p.start {
                PathStart::Root(r) => root_binds.get(r.as_str()).cloned(),
                PathStart::Var(v) => Some(v.clone()),
            };
            let eid = self.path_eid(p, resolved)?;
            self.bindings.push(BindingRow {
                bid: b.var.clone(),
                qid: qid.to_owned(),
                eid,
                prev,
            });
        }

        // Pass 3: conditions.
        for c in &q.conditions {
            match c {
                Condition::Cmp(cmp) => {
                    let (bid, eid) = self.expr_parts(&cmp.left, resolved, &root_binds)?;
                    let (bid2, eid2) = self.expr_parts(&cmp.right, resolved, &root_binds)?;
                    self.conditions.push(ConditionRow {
                        qid: qid.to_owned(),
                        bid,
                        eid,
                        op: cmp.op.symbol().to_owned(),
                        bid2,
                        eid2,
                    });
                }
                Condition::MapPred(_) => {
                    return Err(StoreError::Unsupported(
                        "mapping predicates inside stored mappings".into(),
                    ));
                }
            }
        }
        Ok(root_binds)
    }

    /// The global eid a path expression refers to.
    fn path_eid(&self, p: &PathExpr, resolved: &Resolved<'_>) -> Result<String, StoreError> {
        let kind = resolved.path_kind(p)?;
        let (s, e) = kind.element().ok_or_else(|| {
            StoreError::Unsupported(format!("expression `{p}` has no schema element"))
        })?;
        let schema = resolved.catalog().schema(s);
        self.eid(schema.name(), e)
            .map(str::to_owned)
            .ok_or_else(|| StoreError::UnknownDb(schema.name().to_owned()))
    }

    /// `(bid, eid)` of a select/condition expression: the binding it starts
    /// from and the element it refers to. Constants encode as
    /// `(None, 'literal')`.
    fn expr_parts(
        &self,
        e: &Expr,
        resolved: &Resolved<'_>,
        root_binds: &HashMap<String, String>,
    ) -> Result<(Option<String>, String), StoreError> {
        match e {
            Expr::Const(c) => Ok((None, c.display_quoted())),
            Expr::Path(p) => {
                let bid = match &p.start {
                    PathStart::Var(v) => Some(v.clone()),
                    PathStart::Root(r) => root_binds.get(r.as_str()).cloned(),
                };
                Ok((bid, self.path_eid(p, resolved)?))
            }
            other => Err(StoreError::Unsupported(format!(
                "expression `{other}` in stored mapping"
            ))),
        }
    }

    /// Like [`MetaStore::expr_parts`], but a function call yields one entry
    /// per element-referring argument (a value computed from several source
    /// elements corresponds to all of them) and constants yield none.
    fn expr_parts_multi(
        &self,
        e: &Expr,
        resolved: &Resolved<'_>,
        root_binds: &HashMap<String, String>,
    ) -> Result<Vec<(Option<String>, String)>, StoreError> {
        match e {
            Expr::Call(_, args) => {
                let mut out = Vec::new();
                for a in args {
                    if matches!(a, Expr::Const(_)) {
                        continue;
                    }
                    out.extend(self.expr_parts_multi(a, resolved, root_binds)?);
                }
                Ok(out)
            }
            Expr::Const(_) => Ok(Vec::new()),
            other => Ok(vec![self.expr_parts(other, resolved, root_binds)?]),
        }
    }

    /// Renders the whole store as Figure 5-style text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Db\n  name\n");
        for d in &self.dbs {
            out.push_str(&format!("  {}\n", d.name));
        }
        out.push_str("\nElement\n  eid | name | type | parent | db | path\n");
        for e in &self.elements {
            out.push_str(&format!(
                "  {} | {} | {} | {} | {} | {}\n",
                e.eid,
                e.name,
                e.ty,
                e.parent.as_deref().unwrap_or("-"),
                e.db,
                e.path
            ));
        }
        out.push_str("\nQuery\n  qid\n");
        for q in &self.queries {
            out.push_str(&format!("  {}\n", q.qid));
        }
        out.push_str("\nBinding\n  bid | qid | eid | prev\n");
        for b in &self.bindings {
            out.push_str(&format!(
                "  {} | {} | {} | {}\n",
                b.bid,
                b.qid,
                b.eid,
                b.prev.as_deref().unwrap_or("-")
            ));
        }
        out.push_str("\nCondition\n  qid | bid | eid | op | bid2 | eid2\n");
        for c in &self.conditions {
            out.push_str(&format!(
                "  {} | {} | {} | {} | {} | {}\n",
                c.qid,
                c.bid.as_deref().unwrap_or("-"),
                c.eid,
                c.op,
                c.bid2.as_deref().unwrap_or("-"),
                c.eid2
            ));
        }
        out.push_str("\nMapping\n  mid | forQ | conQ\n");
        for m in &self.mappings {
            out.push_str(&format!("  {} | {} | {}\n", m.mid, m.for_q, m.con_q));
        }
        out.push_str("\nCorrespondence\n  mid | forBid | forEid | conBid | conEid\n");
        for c in &self.correspondences {
            out.push_str(&format!(
                "  {} | {} | {} | {} | {}\n",
                c.mid, c.for_bid, c.for_eid, c.con_bid, c.con_eid
            ));
        }
        out
    }

    /// Mapping names stored.
    pub fn mapping_names(&self) -> Vec<MappingName> {
        self.mappings
            .iter()
            .map(|m| MappingName::new(m.mid.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::types::Type;

    fn eu_schema() -> Schema {
        Schema::build(
            "EUdb",
            vec![(
                "EU",
                Type::record(vec![(
                    "postings",
                    Type::set(Type::record(vec![
                        ("hid", Type::string()),
                        ("levels", Type::string()),
                        ("totalVal", Type::string()),
                        (
                            "agents",
                            Type::set(Type::record(vec![
                                ("agentName", Type::string()),
                                ("agentPhone", Type::string()),
                            ])),
                        ),
                    ])),
                )]),
            )],
        )
        .unwrap()
    }

    fn real_portal_schema() -> Schema {
        use dtr_model::types::AtomicType;
        Schema::build(
            "Pdb",
            vec![(
                "Portal",
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
                ]),
            )],
        )
        .unwrap()
    }

    fn m3() -> Mapping {
        Mapping::parse(
            "m3",
            "foreach
               select p.hid, p.levels, p.totalVal, a.agentName, a.agentPhone
               from EU.postings p, p.agents a
             exists
               select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap()
    }

    /// Builds the Figure 5 store: EUdb + Pdb schemas and mapping m3.
    fn figure5_store() -> MetaStore {
        let eu = eu_schema();
        let portal = real_portal_schema();
        let mut store = MetaStore::new();
        store.add_schema(&eu).unwrap();
        store.add_schema(&portal).unwrap();
        store.add_mapping(&m3(), &[&eu], &portal).unwrap();
        store
    }

    #[test]
    fn element_rows_match_figure_5() {
        let store = figure5_store();
        // EUdb occupies e0..e9 exactly as in Figure 5.
        assert_eq!(store.elements[0].eid, "e0");
        assert_eq!(store.elements[0].name, "EU");
        assert_eq!(store.elements[0].ty, "Rcd");
        assert_eq!(store.elements[0].parent, None);
        let e3 = &store.elements[3];
        assert_eq!((e3.eid.as_str(), e3.name.as_str()), ("e3", "hid"));
        assert_eq!(e3.parent.as_deref(), Some("e2"));
        // Pdb starts right after EUdb's ten elements (the paper starts it at
        // e30 for readability; ids are dense here).
        let portal_first = store.elements.iter().position(|e| e.db == "Pdb").unwrap();
        assert_eq!(portal_first, 10);
        assert_eq!(store.elements[portal_first].name, "Portal");
        assert_eq!(store.dbs.len(), 2);
    }

    #[test]
    fn mapping_row_links_queries() {
        let store = figure5_store();
        assert_eq!(store.mappings.len(), 1);
        assert_eq!(store.mappings[0].mid, "m3");
        assert_eq!(store.mappings[0].for_q, "q0");
        assert_eq!(store.mappings[0].con_q, "q1");
        assert_eq!(store.queries.len(), 2);
    }

    #[test]
    fn bindings_match_figure_5_shape() {
        let store = figure5_store();
        // q0: r1 (EU root), p (postings, prev r1), a (agents, prev p).
        let q0: Vec<&BindingRow> = store.bindings.iter().filter(|b| b.qid == "q0").collect();
        assert_eq!(q0.len(), 3);
        let p = q0.iter().find(|b| b.bid == "p").unwrap();
        assert_eq!(p.eid, "e1"); // postings set
        assert_eq!(p.prev.as_deref(), Some("r1"));
        let a = q0.iter().find(|b| b.bid == "a").unwrap();
        assert_eq!(a.eid, "e6"); // agents set
        assert_eq!(a.prev.as_deref(), Some("p"));
        // q1: r2 (Portal root), e (estates), c (contacts).
        let q1: Vec<&BindingRow> = store.bindings.iter().filter(|b| b.qid == "q1").collect();
        assert_eq!(q1.len(), 3);
        let root = q1.iter().find(|b| b.prev.is_none()).unwrap();
        assert_eq!(root.bid, "r2");
    }

    #[test]
    fn condition_row_matches_figure_5() {
        let store = figure5_store();
        assert_eq!(store.conditions.len(), 1);
        let c = &store.conditions[0];
        assert_eq!(c.qid, "q1");
        assert_eq!(c.bid.as_deref(), Some("e"));
        assert_eq!(c.op, "=");
        assert_eq!(c.bid2.as_deref(), Some("c"));
        // eids: contact and title under Pdb.
        let contact = store
            .element_by_path("Pdb", "/Portal/estates/contact")
            .unwrap();
        let title = store
            .element_by_path("Pdb", "/Portal/contacts/title")
            .unwrap();
        assert_eq!(c.eid, contact.eid);
        assert_eq!(c.eid2, title.eid);
    }

    #[test]
    fn correspondences_match_figure_5() {
        let store = figure5_store();
        assert_eq!(store.correspondences.len(), 5);
        // First row: p e3 -> e e33-equivalent (hid to hid).
        let first = &store.correspondences[0];
        assert_eq!(first.mid, "m3");
        assert_eq!(first.for_bid, "p");
        assert_eq!(first.for_eid, "e3");
        assert_eq!(first.con_bid, "e");
        let hid = store.element_by_path("Pdb", "/Portal/estates/hid").unwrap();
        assert_eq!(first.con_eid, hid.eid);
        // Last row: a e9 (agentPhone) -> c (phone).
        let last = &store.correspondences[4];
        assert_eq!(last.for_bid, "a");
        assert_eq!(last.for_eid, "e9");
    }

    #[test]
    fn duplicate_schema_rejected() {
        let eu = eu_schema();
        let mut store = MetaStore::new();
        store.add_schema(&eu).unwrap();
        assert_eq!(
            store.add_schema(&eu),
            Err(StoreError::DuplicateDb("EUdb".into()))
        );
    }

    #[test]
    fn render_contains_all_relations() {
        let store = figure5_store();
        let text = store.render();
        for heading in [
            "Db",
            "Element",
            "Query",
            "Binding",
            "Condition",
            "Mapping",
            "Correspondence",
        ] {
            assert!(text.contains(heading), "missing {heading}");
        }
        assert!(text.contains("e3 | hid | Str | e2 | EUdb | /EU/postings/hid"));
    }

    #[test]
    fn constant_conditions_encoded_as_literals() {
        // A foreach condition against a constant stores the literal in the
        // eid column with no binding.
        let eu = eu_schema();
        let portal = real_portal_schema();
        let m = Mapping::parse(
            "mf",
            "foreach select p.hid, p.levels, p.totalVal, a.agentName, a.agentPhone
               from EU.postings p, p.agents a
               where p.levels = '2'
             exists select e.hid, e.stories, e.value, c.title, c.phone
               from Portal.estates e, Portal.contacts c
               where e.contact = c.title",
        )
        .unwrap();
        let mut store = MetaStore::new();
        store.add_schema(&eu).unwrap();
        store.add_schema(&portal).unwrap();
        store.add_mapping(&m, &[&eu], &portal).unwrap();
        let c = store
            .conditions
            .iter()
            .find(|c| c.qid == "q0")
            .expect("the foreach condition row exists");
        assert_eq!(c.bid.as_deref(), Some("p"));
        assert_eq!(c.bid2, None);
        assert_eq!(c.eid2, "'2'");
    }

    #[test]
    fn mapping_predicates_in_stored_mappings_rejected() {
        let eu = eu_schema();
        let portal = real_portal_schema();
        let m = Mapping {
            name: dtr_model::value::MappingName::new("weird"),
            foreach: dtr_query::parser::parse_query(
                "select p.hid from EU.postings p where <db:e -> mm -> 'Pdb':e2>",
            )
            .unwrap(),
            exists: dtr_query::parser::parse_query("select e.hid from Portal.estates e").unwrap(),
        };
        let mut store = MetaStore::new();
        store.add_schema(&eu).unwrap();
        store.add_schema(&portal).unwrap();
        assert!(matches!(
            store.add_mapping(&m, &[&eu], &portal),
            Err(StoreError::Unsupported(_))
        ));
    }

    #[test]
    fn mapping_names_listed() {
        let store = figure5_store();
        let names = store.mapping_names();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), "m3");
    }

    #[test]
    fn eid_lookup() {
        let store = figure5_store();
        let eu = eu_schema();
        let agents = eu.resolve_path("/EU/postings/agents").unwrap();
        assert_eq!(store.eid("EUdb", agents), Some("e6"));
        assert_eq!(store.eid("Nope", agents), None);
    }
}
