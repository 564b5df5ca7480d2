//! The type system of the nested relational model (Section 4.1).
//!
//! The model extends the relational model with union (choice) types, nested
//! records and sets, mirroring the common model used by the data exchange
//! literature. Three extra atomic types — [`AtomicType::Database`],
//! [`AtomicType::Mapping`] and [`AtomicType::Element`] — are introduced in
//! Section 5 so that meta-data can flow through queries as regular values.

use crate::label::Label;
use std::fmt;

/// Atomic (scalar) types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicType {
    /// Character data. The paper's examples use `String` almost exclusively.
    String,
    /// 64-bit signed integers.
    Integer,
    /// 64-bit floating point numbers.
    Float,
    /// Booleans.
    Boolean,
    /// Meta-data: the name of a data source (Section 5).
    Database,
    /// Meta-data: the identity of a mapping (Section 5).
    Mapping,
    /// Meta-data: a schema element, denoted by its canonical path (Section 5).
    Element,
}

impl AtomicType {
    /// Short lowercase name used in schema dumps and the metastore `type`
    /// column (Figure 5 abbreviates `String` as `Str`).
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::String => "Str",
            AtomicType::Integer => "Int",
            AtomicType::Float => "Float",
            AtomicType::Boolean => "Bool",
            AtomicType::Database => "Database",
            AtomicType::Mapping => "Mapping",
            AtomicType::Element => "Element",
        }
    }

    /// Parses the name produced by [`AtomicType::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "Str" | "String" => AtomicType::String,
            "Int" | "Integer" => AtomicType::Integer,
            "Float" => AtomicType::Float,
            "Bool" | "Boolean" => AtomicType::Boolean,
            "Database" => AtomicType::Database,
            "Mapping" => AtomicType::Mapping,
            "Element" => AtomicType::Element,
            _ => return None,
        })
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A type of the nested relational model.
///
/// `Rcd[A1:t1, ..., Ak:tk]`, `Choice[A1:t1, ..., Ak:tk]` and `Set of t`
/// follow the grammar of Section 4.1 exactly. A schema is a list of root
/// elements, each a `(Label, Type)` pair — see [`crate::schema::Schema`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// An atomic type.
    Atomic(AtomicType),
    /// `Rcd[A1:t1, ..., Ak:tk]` — a tuple of labelled fields.
    Record(Vec<(Label, Type)>),
    /// `Choice[A1:t1, ..., Ak:tk]` — a tagged union; a value carries exactly
    /// one of the alternatives.
    Choice(Vec<(Label, Type)>),
    /// `Set of t` — a repeatable element; `t` must be a complex type in the
    /// paper, which we do not enforce structurally but validate in
    /// [`Type::validate`].
    Set(Box<Type>),
}

impl Type {
    /// Shorthand for `Type::Atomic(AtomicType::String)`.
    pub fn string() -> Type {
        Type::Atomic(AtomicType::String)
    }

    /// Shorthand for `Type::Atomic(AtomicType::Integer)`.
    pub fn integer() -> Type {
        Type::Atomic(AtomicType::Integer)
    }

    /// Shorthand for `Type::Atomic(AtomicType::Float)`.
    pub fn float() -> Type {
        Type::Atomic(AtomicType::Float)
    }

    /// Builds a record type from `(label, type)` pairs.
    pub fn record<L: Into<Label>>(fields: Vec<(L, Type)>) -> Type {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Builds a choice type from `(label, type)` pairs.
    pub fn choice<L: Into<Label>>(alts: Vec<(L, Type)>) -> Type {
        Type::Choice(alts.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// Builds a set type.
    pub fn set(inner: Type) -> Type {
        Type::Set(Box::new(inner))
    }

    /// A `Set of Rcd[...]` with atomic fields — the paper's notion of a
    /// *relation* (Section 4.1).
    pub fn relation<L: Into<Label>>(fields: Vec<(L, AtomicType)>) -> Type {
        Type::set(Type::record(
            fields
                .into_iter()
                .map(|(l, t)| (l, Type::Atomic(t)))
                .collect(),
        ))
    }

    /// True if the type is atomic.
    pub fn is_atomic(&self) -> bool {
        matches!(self, Type::Atomic(_))
    }

    /// True if the type is `Set of Rcd[..atomic..]`, i.e. a relation.
    pub fn is_relation(&self) -> bool {
        match self {
            Type::Set(inner) => match &**inner {
                Type::Record(fields) => fields.iter().all(|(_, t)| t.is_atomic()),
                _ => false,
            },
            _ => false,
        }
    }

    /// Validates the structural well-formedness constraints of Section 4.1:
    /// record/choice attribute labels must be distinct and non-`*`, and the
    /// element type of a set must be a complex type.
    pub fn validate(&self) -> Result<(), TypeError> {
        match self {
            Type::Atomic(_) => Ok(()),
            Type::Record(fields) | Type::Choice(fields) => {
                let mut seen: Vec<&str> = Vec::with_capacity(fields.len());
                for (label, ty) in fields {
                    if label.is_star() {
                        return Err(TypeError::StarAttribute);
                    }
                    if seen.contains(&label.as_str()) {
                        return Err(TypeError::DuplicateAttribute(label.clone()));
                    }
                    seen.push(label.as_str());
                    ty.validate()?;
                }
                Ok(())
            }
            Type::Set(inner) => {
                if inner.is_atomic() {
                    return Err(TypeError::AtomicSetElement);
                }
                inner.validate()
            }
        }
    }

    /// The types *directly used* in this type (Section 4.1): the field types
    /// of a record/choice or the element type of a set.
    pub fn directly_used(&self) -> Vec<(Label, &Type)> {
        match self {
            Type::Atomic(_) => Vec::new(),
            Type::Record(fields) | Type::Choice(fields) => {
                fields.iter().map(|(l, t)| (l.clone(), t)).collect()
            }
            Type::Set(inner) => vec![(Label::star(), &**inner)],
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Atomic(a) => write!(f, "{a}"),
            Type::Record(fields) => {
                f.write_str("Rcd[")?;
                for (i, (l, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{l}:{t}")?;
                }
                f.write_str("]")
            }
            Type::Choice(fields) => {
                f.write_str("Choice[")?;
                for (i, (l, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{l}:{t}")?;
                }
                f.write_str("]")
            }
            Type::Set(inner) => write!(f, "Set of {inner}"),
        }
    }
}

/// Structural well-formedness violations of the type grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// A record or choice declared the same attribute twice.
    DuplicateAttribute(Label),
    /// A record or choice used the reserved `*` attribute name.
    StarAttribute,
    /// A `Set of t` where `t` is atomic; the paper requires complex element
    /// types.
    AtomicSetElement,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::DuplicateAttribute(l) => {
                write!(f, "duplicate attribute label `{l}` in complex type")
            }
            TypeError::StarAttribute => {
                write!(f, "`*` is reserved for implicit set-member labels")
            }
            TypeError::AtomicSetElement => {
                write!(f, "the element type of a Set must be a complex type")
            }
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn estates_type() -> Type {
        // Portal.estates of Figure 1.
        Type::relation(vec![
            ("hid", AtomicType::String),
            ("stories", AtomicType::String),
            ("value", AtomicType::String),
            ("contact", AtomicType::String),
        ])
    }

    #[test]
    fn relation_shape() {
        let t = estates_type();
        assert!(t.is_relation());
        assert!(t.validate().is_ok());
        assert_eq!(
            t.to_string(),
            "Set of Rcd[hid:Str, stories:Str, value:Str, contact:Str]"
        );
    }

    #[test]
    fn choice_display_and_validation() {
        // agents.title of Figure 1: Choice of name | firm.
        let t = Type::choice(vec![("name", Type::string()), ("firm", Type::string())]);
        assert_eq!(t.to_string(), "Choice[name:Str, firm:Str]");
        assert!(t.validate().is_ok());
        assert!(!t.is_relation());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let t = Type::record(vec![("a", Type::string()), ("a", Type::integer())]);
        assert_eq!(
            t.validate(),
            Err(TypeError::DuplicateAttribute(Label::new("a")))
        );
    }

    #[test]
    fn star_attribute_rejected() {
        let t = Type::record(vec![("*", Type::string())]);
        assert_eq!(t.validate(), Err(TypeError::StarAttribute));
    }

    #[test]
    fn atomic_set_rejected() {
        let t = Type::set(Type::string());
        assert_eq!(t.validate(), Err(TypeError::AtomicSetElement));
    }

    #[test]
    fn nested_validation_recurses() {
        let bad = Type::record(vec![("inner", Type::set(Type::integer()))]);
        assert_eq!(bad.validate(), Err(TypeError::AtomicSetElement));
    }

    #[test]
    fn directly_used_of_set_is_star() {
        let t = estates_type();
        let used = t.directly_used();
        assert_eq!(used.len(), 1);
        assert!(used[0].0.is_star());
    }

    #[test]
    fn atomic_type_names_round_trip() {
        for a in [
            AtomicType::String,
            AtomicType::Integer,
            AtomicType::Float,
            AtomicType::Boolean,
            AtomicType::Database,
            AtomicType::Mapping,
            AtomicType::Element,
        ] {
            assert_eq!(AtomicType::parse(a.name()), Some(a));
        }
        assert_eq!(AtomicType::parse("Rcd"), None);
    }
}
