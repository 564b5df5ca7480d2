//! Static well-formedness checking and schema resolution (Section 4.2).
//!
//! A *well-formed query* binds each variable to a set, a union choice, an
//! `@map` operator, or a set-valued function call; uses variables only after
//! their definition; and compares/selects only atomic-typed expressions.
//! This module checks those rules against a catalog of schemas and resolves
//! every path expression to the schema element it *refers to* — the
//! resolution the mapping triple `⟨Es, Et, Wc⟩` of Section 4.3 is built from.

use crate::ast::*;
use dtr_model::schema::{ElementId, ElementKind, Schema};
use dtr_model::types::AtomicType;
use std::collections::HashMap;
use std::fmt;

/// A set of schemas (data sources) that queries can reference.
#[derive(Clone)]
pub struct SchemaCatalog<'a> {
    schemas: Vec<&'a Schema>,
}

impl<'a> SchemaCatalog<'a> {
    /// Builds a catalog from schemas. Root labels should be unique across
    /// the catalog (the paper's queries address roots without database
    /// qualifiers).
    pub fn new(schemas: Vec<&'a Schema>) -> Self {
        SchemaCatalog { schemas }
    }

    /// The schemas in the catalog.
    pub fn schemas(&self) -> &[&'a Schema] {
        &self.schemas
    }

    /// Finds `(catalog index, root element)` for a schema root label.
    pub fn find_root(&self, label: &str) -> Option<(usize, ElementId)> {
        self.schemas
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.root(label).map(|e| (i, e)))
    }

    /// The schema at a catalog index.
    pub fn schema(&self, idx: usize) -> &'a Schema {
        self.schemas[idx]
    }
}

/// What a query variable denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarTarget {
    /// Bound to values of a schema element (set member or choice
    /// alternative): `(catalog index, element)`.
    Element(usize, ElementId),
    /// Bound by an `@map` operator or a mapping-predicate position: ranges
    /// over `Mapping` values.
    Mapping,
    /// Implicitly bound by a mapping-predicate database position.
    Database,
    /// Implicitly bound by a mapping-predicate element position, or by an
    /// `@elem` comparison: ranges over `Element` values.
    SchemaElement,
    /// Bound to the results of a function call of unknown type.
    Opaque,
}

/// The static type of an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExprKind {
    /// An atomic value of a schema element.
    Atomic(usize, ElementId, AtomicType),
    /// A complex value of a schema element (only valid as a binding source
    /// or an intermediate).
    Complex(usize, ElementId, ElementKind),
    /// An atomic constant or meta value with no schema element.
    Meta(AtomicType),
    /// A function call result of unknown type.
    Opaque,
}

impl ExprKind {
    /// The schema element the expression refers to, if any.
    pub fn element(&self) -> Option<(usize, ElementId)> {
        match self {
            ExprKind::Atomic(s, e, _) | ExprKind::Complex(s, e, _) => Some((*s, *e)),
            _ => None,
        }
    }

    /// The atomic type, if statically known and atomic.
    pub fn atomic_type(&self) -> Option<AtomicType> {
        match self {
            ExprKind::Atomic(_, _, t) | ExprKind::Meta(t) => Some(*t),
            _ => None,
        }
    }
}

/// The result of checking a query: variable targets plus resolution
/// helpers.
pub struct Resolved<'a> {
    cat: SchemaCatalog<'a>,
    /// Target of every variable (declared and implicit).
    pub vars: HashMap<Var, VarTarget>,
}

impl<'a> Resolved<'a> {
    /// The catalog the query was resolved against.
    pub fn catalog(&self) -> &SchemaCatalog<'a> {
        &self.cat
    }

    /// Resolves a path expression to its kind.
    pub fn path_kind(&self, p: &PathExpr) -> Result<ExprKind, CheckError> {
        let (schema_idx, mut cur) = match &p.start {
            PathStart::Root(r) => self
                .cat
                .find_root(r)
                .ok_or_else(|| CheckError::UnknownRoot(r.to_string()))?,
            PathStart::Var(v) => match self.vars.get(v.as_str()) {
                Some(VarTarget::Element(s, e)) => (*s, *e),
                Some(VarTarget::Mapping) => {
                    return if p.steps.is_empty() {
                        Ok(ExprKind::Meta(AtomicType::Mapping))
                    } else {
                        Err(CheckError::StepOnMeta(v.clone()))
                    }
                }
                Some(VarTarget::Database) => {
                    return if p.steps.is_empty() {
                        Ok(ExprKind::Meta(AtomicType::Database))
                    } else {
                        Err(CheckError::StepOnMeta(v.clone()))
                    }
                }
                Some(VarTarget::SchemaElement) => {
                    return if p.steps.is_empty() {
                        Ok(ExprKind::Meta(AtomicType::Element))
                    } else {
                        Err(CheckError::StepOnMeta(v.clone()))
                    }
                }
                Some(VarTarget::Opaque) => return Ok(ExprKind::Opaque),
                None => return Err(CheckError::UndefinedVariable(v.clone())),
            },
        };
        for step in &p.steps {
            let schema = self.cat.schema(schema_idx);
            match step {
                Step::Project(l) => {
                    let kind = schema.element(cur).kind;
                    if kind != ElementKind::Record {
                        return Err(CheckError::ProjectOnNonRecord {
                            path: p.to_string(),
                            label: l.to_string(),
                        });
                    }
                    cur = schema
                        .child(cur, l)
                        .ok_or_else(|| CheckError::UnknownAttribute {
                            path: p.to_string(),
                            label: l.to_string(),
                        })?;
                }
                Step::Choice(l) => {
                    let kind = schema.element(cur).kind;
                    if kind != ElementKind::Choice {
                        return Err(CheckError::ChoiceOnNonChoice {
                            path: p.to_string(),
                            label: l.to_string(),
                        });
                    }
                    cur = schema
                        .child(cur, l)
                        .ok_or_else(|| CheckError::UnknownAttribute {
                            path: p.to_string(),
                            label: l.to_string(),
                        })?;
                }
            }
        }
        let schema = self.cat.schema(schema_idx);
        Ok(match schema.element(cur).kind {
            ElementKind::Atomic(t) => ExprKind::Atomic(schema_idx, cur, t),
            k => ExprKind::Complex(schema_idx, cur, k),
        })
    }

    /// Resolves an arbitrary expression to its kind.
    pub fn expr_kind(&self, e: &Expr) -> Result<ExprKind, CheckError> {
        match e {
            Expr::Path(p) => self.path_kind(p),
            Expr::Const(c) => Ok(ExprKind::Meta(c.atomic_type())),
            Expr::ElemOf(p) => {
                self.path_kind(p)?;
                Ok(ExprKind::Meta(AtomicType::Element))
            }
            Expr::MapOf(p) => {
                self.path_kind(p)?;
                Ok(ExprKind::Meta(AtomicType::Mapping))
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.expr_kind(a)?;
                }
                Ok(ExprKind::Opaque)
            }
        }
    }

    /// The schema element a path expression *refers to* (Section 4.2:
    /// "Each expression refers to a specific schema element"). Returns
    /// `(catalog index, element)` or `None` for meta/opaque expressions.
    pub fn expr_element(&self, e: &Expr) -> Option<(usize, ElementId)> {
        let inner = match e {
            Expr::Path(p) | Expr::ElemOf(p) | Expr::MapOf(p) => p,
            _ => return None,
        };
        self.path_kind(inner).ok().and_then(|k| k.element())
    }
}

/// Checks a query against a catalog of schemas and resolves its variables.
pub fn check_query<'a>(q: &Query, cat: SchemaCatalog<'a>) -> Result<Resolved<'a>, CheckError> {
    let mut resolved = Resolved {
        cat,
        vars: HashMap::new(),
    };

    // Mapping-predicate variables are implicitly defined by their position
    // (Section 5); register them first so bindings like `c.title@map m` can
    // agree with predicate uses of `m`.
    for c in &q.conditions {
        if let Condition::MapPred(p) = c {
            for (term, target) in [
                (&p.src_db, VarTarget::Database),
                (&p.src_elem, VarTarget::SchemaElement),
                (&p.mapping, VarTarget::Mapping),
                (&p.tgt_db, VarTarget::Database),
                (&p.tgt_elem, VarTarget::SchemaElement),
            ] {
                if let Term::Var(v) = term {
                    if let Some(prev) = resolved.vars.get(v.as_str()) {
                        if *prev != target {
                            return Err(CheckError::ConflictingVariable(v.clone()));
                        }
                    }
                    resolved.vars.insert(v.clone(), target);
                }
            }
        }
    }

    // From-clause bindings, in order.
    for b in &q.from {
        let target = match &b.source {
            Expr::Path(p) => match resolved.path_kind(p)? {
                ExprKind::Complex(s, e, ElementKind::Set) => {
                    let member = resolved
                        .cat
                        .schema(s)
                        .set_member(e)
                        .expect("set element has a member");
                    VarTarget::Element(s, member)
                }
                // A choice-selection binding: the variable binds to the
                // element under the choice (Section 4.2).
                ExprKind::Atomic(s, e, _) | ExprKind::Complex(s, e, _)
                    if matches!(p.steps.last(), Some(Step::Choice(_))) =>
                {
                    VarTarget::Element(s, e)
                }
                other => {
                    return Err(CheckError::InvalidBindingSource {
                        var: b.var.clone(),
                        found: format!("{other:?}"),
                    })
                }
            },
            Expr::MapOf(p) => {
                resolved.path_kind(p)?;
                VarTarget::Mapping
            }
            Expr::Call(_, args) => {
                for a in args {
                    resolved.expr_kind(a)?;
                }
                VarTarget::Opaque
            }
            other => {
                return Err(CheckError::InvalidBindingSource {
                    var: b.var.clone(),
                    found: format!("{other}"),
                })
            }
        };
        if let Some(prev) = resolved.vars.get(b.var.as_str()) {
            // A predicate variable may coincide with a declared one (m in
            // Example 5.5) if the targets agree.
            if *prev != target {
                return Err(CheckError::ConflictingVariable(b.var.clone()));
            }
        }
        resolved.vars.insert(b.var.clone(), target);
    }

    // Duplicate detection (two bindings of the same name).
    let mut seen: Vec<&str> = Vec::new();
    for b in &q.from {
        if seen.contains(&b.var.as_str()) {
            return Err(CheckError::DuplicateVariable(b.var.clone()));
        }
        seen.push(&b.var);
    }

    // Select items must be atomic-typed (or meta/opaque).
    for e in &q.select {
        if let ExprKind::Complex(_, _, k) = resolved.expr_kind(e)? {
            return Err(CheckError::NonAtomicSelect {
                expr: e.to_string(),
                kind: k.name().to_string(),
            });
        }
    }

    // Comparisons must relate compatible atomic types.
    for c in &q.conditions {
        if let Condition::Cmp(cmp) = c {
            let lk = resolved.expr_kind(&cmp.left)?;
            let rk = resolved.expr_kind(&cmp.right)?;
            if let (ExprKind::Complex(..), _) | (_, ExprKind::Complex(..)) = (&lk, &rk) {
                return Err(CheckError::NonAtomicComparison(cmp.to_string()));
            }
            if let (Some(lt), Some(rt)) = (lk.atomic_type(), rk.atomic_type()) {
                let numeric = |t: AtomicType| matches!(t, AtomicType::Integer | AtomicType::Float);
                // A plain string constant may be compared against a meta
                // value (constants in MXQL queries denote databases and
                // element paths; Section 5's examples write them as quoted
                // strings).
                let stringly = |t: AtomicType| {
                    matches!(
                        t,
                        AtomicType::String
                            | AtomicType::Database
                            | AtomicType::Element
                            | AtomicType::Mapping
                    )
                };
                let compatible =
                    lt == rt || (numeric(lt) && numeric(rt)) || (stringly(lt) && stringly(rt));
                if !compatible {
                    return Err(CheckError::TypeMismatch {
                        cmp: cmp.to_string(),
                        left: lt,
                        right: rt,
                    });
                }
            }
        }
    }

    Ok(resolved)
}

/// Static errors detected by [`check_query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A path starts at a root that no catalog schema declares.
    UnknownRoot(String),
    /// A variable is used before (or without) being defined.
    UndefinedVariable(String),
    /// Two bindings declare the same variable.
    DuplicateVariable(String),
    /// A variable is bound inconsistently (e.g. both to a set and by a
    /// mapping predicate's database slot).
    ConflictingVariable(String),
    /// A projection step on a non-record element.
    ProjectOnNonRecord {
        /// The full path expression.
        path: String,
        /// The offending label.
        label: String,
    },
    /// A choice step on a non-choice element.
    ChoiceOnNonChoice {
        /// The full path expression.
        path: String,
        /// The offending label.
        label: String,
    },
    /// A projection/choice label that the element does not declare.
    UnknownAttribute {
        /// The full path expression.
        path: String,
        /// The offending label.
        label: String,
    },
    /// A navigation step applied to a meta-typed variable.
    StepOnMeta(String),
    /// A binding source that is not a set, choice, `@map` or function call.
    InvalidBindingSource {
        /// The bound variable.
        var: String,
        /// What the source resolved to.
        found: String,
    },
    /// A select item of complex type.
    NonAtomicSelect {
        /// The offending expression.
        expr: String,
        /// Its element kind.
        kind: String,
    },
    /// A comparison over complex values.
    NonAtomicComparison(String),
    /// A comparison between incompatible atomic types.
    TypeMismatch {
        /// The comparison.
        cmp: String,
        /// Left type.
        left: AtomicType,
        /// Right type.
        right: AtomicType,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownRoot(r) => write!(f, "unknown schema root `{r}`"),
            CheckError::UndefinedVariable(v) => write!(f, "undefined variable `{v}`"),
            CheckError::DuplicateVariable(v) => write!(f, "duplicate variable `{v}`"),
            CheckError::ConflictingVariable(v) => {
                write!(f, "variable `{v}` bound inconsistently")
            }
            CheckError::ProjectOnNonRecord { path, label } => {
                write!(f, "projection `.{label}` on non-record in `{path}`")
            }
            CheckError::ChoiceOnNonChoice { path, label } => {
                write!(f, "choice `->{label}` on non-choice in `{path}`")
            }
            CheckError::UnknownAttribute { path, label } => {
                write!(f, "unknown attribute `{label}` in `{path}`")
            }
            CheckError::StepOnMeta(v) => {
                write!(f, "navigation step on meta-typed variable `{v}`")
            }
            CheckError::InvalidBindingSource { var, found } => {
                write!(f, "binding source of `{var}` is not iterable: {found}")
            }
            CheckError::NonAtomicSelect { expr, kind } => {
                write!(f, "select item `{expr}` has complex type {kind}")
            }
            CheckError::NonAtomicComparison(c) => {
                write!(f, "comparison over complex values: {c}")
            }
            CheckError::TypeMismatch { cmp, left, right } => {
                write!(f, "type mismatch in `{cmp}`: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use dtr_model::types::Type;

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
                            ("floors", AtomicType::String),
                            ("price", AtomicType::Integer),
                            ("pool", AtomicType::String),
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

    fn check(text: &str) -> Result<(), CheckError> {
        let schema = us_schema();
        let q = parse_query(text).unwrap();
        check_query(&q, SchemaCatalog::new(vec![&schema])).map(|_| ())
    }

    #[test]
    fn valid_query_checks() {
        check(
            "select h.hid, n, a.phone
             from US.houses h, US.agents a, a.title->name n
             where h.aid = a.aid",
        )
        .unwrap();
    }

    #[test]
    fn unknown_root_rejected() {
        assert_eq!(
            check("select x.hid from Nope.houses x"),
            Err(CheckError::UnknownRoot("Nope".into()))
        );
    }

    #[test]
    fn unknown_attribute_rejected() {
        assert!(matches!(
            check("select h.bogus from US.houses h"),
            Err(CheckError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn binding_over_atomic_rejected() {
        assert!(matches!(
            check("select x from US.houses h, h.hid x"),
            Err(CheckError::InvalidBindingSource { .. })
        ));
    }

    #[test]
    fn select_of_complex_rejected() {
        assert!(matches!(
            check("select h from US.houses h"),
            Err(CheckError::NonAtomicSelect { .. })
        ));
    }

    #[test]
    fn comparison_type_mismatch_rejected() {
        assert!(matches!(
            check("select h.hid from US.houses h where h.price = h.hid"),
            Err(CheckError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn numeric_comparison_allowed() {
        check("select h.hid from US.houses h where h.price >= 500000").unwrap();
        check("select h.hid from US.houses h where h.price >= 3.5").unwrap();
    }

    #[test]
    fn choice_binding_targets_alternative() {
        let schema = us_schema();
        let q = parse_query("select n from US.agents a, a.title->firm n").unwrap();
        let r = check_query(&q, SchemaCatalog::new(vec![&schema])).unwrap();
        match r.vars.get("n") {
            Some(VarTarget::Element(0, e)) => {
                assert_eq!(schema.element(*e).label, "firm");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn map_operator_gives_mapping_var() {
        let schema = us_schema();
        let q = parse_query("select m from US.houses h, h.price@map m").unwrap();
        let r = check_query(&q, SchemaCatalog::new(vec![&schema])).unwrap();
        assert_eq!(r.vars.get("m"), Some(&VarTarget::Mapping));
    }

    #[test]
    fn predicate_vars_registered() {
        let schema = us_schema();
        let q = parse_query("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/stories'>")
            .unwrap();
        let r = check_query(&q, SchemaCatalog::new(vec![&schema])).unwrap();
        assert_eq!(r.vars.get("e"), Some(&VarTarget::SchemaElement));
        assert_eq!(r.vars.get("db"), Some(&VarTarget::Database));
        assert_eq!(r.vars.get("m"), Some(&VarTarget::Mapping));
    }

    #[test]
    fn choice_step_on_record_rejected() {
        assert!(matches!(
            check("select n from US.houses h, h.hid->name n"),
            Err(CheckError::ChoiceOnNonChoice { .. })
        ));
    }

    #[test]
    fn undefined_variable_rejected() {
        assert!(matches!(
            check("select z.hid from US.houses h"),
            // `z` was resolved to a root (it is not a declared variable),
            // so the error surfaces as an unknown root.
            Err(CheckError::UnknownRoot(_))
        ));
    }

    #[test]
    fn expr_element_resolution() {
        let schema = us_schema();
        let q = parse_query("select h.price from US.houses h, US.agents a where h.aid = a.aid")
            .unwrap();
        let r = check_query(&q, SchemaCatalog::new(vec![&schema])).unwrap();
        let (s, e) = r.expr_element(&q.select[0]).unwrap();
        assert_eq!(s, 0);
        assert_eq!(schema.path(e), "/US/houses/price");
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(matches!(
            check("select h.hid from US.houses h, US.agents h"),
            Err(CheckError::ConflictingVariable(_)) | Err(CheckError::DuplicateVariable(_))
        ));
    }
}
