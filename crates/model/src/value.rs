//! Atomic values, including the meta-data values of Section 5.
//!
//! Besides ordinary scalars, MXQL queries manipulate values of the three
//! meta-data types: `Database` (a source name), `Mapping` (a mapping
//! identity) and `Element` (a schema element, denoted `db` + canonical path).
//!
//! String values and mapping names are shared the way [`crate::label::Label`]s
//! are: each holds an `Arc<str>`, so a value copied from a source into a
//! target, or a mapping name attached to every node a mapping generates,
//! is a reference-count bump rather than a byte copy. Equality, ordering,
//! hashing and display read the underlying `str`, exactly as a `String`
//! would.

use crate::types::AtomicType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The identity of a mapping, e.g. `m1` in Figure 1. Mapping names are
/// unique within a mapping setting.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MappingName(Arc<str>);

impl MappingName {
    /// Creates a mapping name.
    pub fn new(s: impl AsRef<str>) -> Self {
        MappingName(Arc::from(s.as_ref()))
    }

    /// Name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MappingName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for MappingName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MappingName({})", self.0)
    }
}

impl From<&str> for MappingName {
    fn from(s: &str) -> Self {
        MappingName::new(s)
    }
}

/// A value of type `Element`: a schema element identified by its database
/// name and canonical slash path, e.g. `USdb : /US/agents/title/firm`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ElementRef {
    /// The data source the element belongs to.
    pub db: String,
    /// Canonical slash path (no `*` segments, leading `/`).
    pub path: String,
}

impl ElementRef {
    /// Creates an element reference, canonicalizing the path to carry a
    /// leading slash and no `*` segments.
    pub fn new(db: impl Into<String>, path: impl AsRef<str>) -> Self {
        ElementRef {
            db: db.into(),
            path: canonical_path(path.as_ref()),
        }
    }
}

/// Canonicalizes a slash path: ensures a leading `/`, strips `*` segments
/// and empty segments.
pub fn canonical_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len() + 1);
    for seg in path.split('/') {
        if seg.is_empty() || seg == "*" {
            continue;
        }
        out.push('/');
        out.push_str(seg);
    }
    out
}

impl fmt::Display for ElementRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.db, self.path)
    }
}

/// An atomic value.
#[derive(Clone, Debug)]
pub enum AtomicValue {
    /// String value, shared on clone.
    Str(Arc<str>),
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// Meta-data: a database name (Section 5).
    Db(String),
    /// Meta-data: a mapping identity (Section 5).
    Map(MappingName),
    /// Meta-data: a schema element (Section 5).
    Elem(ElementRef),
}

impl AtomicValue {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        AtomicValue::Str(Arc::from(s.as_ref()))
    }

    /// The dynamic type of the value.
    pub fn atomic_type(&self) -> AtomicType {
        match self {
            AtomicValue::Str(_) => AtomicType::String,
            AtomicValue::Int(_) => AtomicType::Integer,
            AtomicValue::Float(_) => AtomicType::Float,
            AtomicValue::Bool(_) => AtomicType::Boolean,
            AtomicValue::Db(_) => AtomicType::Database,
            AtomicValue::Map(_) => AtomicType::Mapping,
            AtomicValue::Elem(_) => AtomicType::Element,
        }
    }

    /// True if the value is assignable to the given declared type.
    ///
    /// Integers are accepted where floats are expected (the usual numeric
    /// widening); everything else must match exactly.
    pub fn conforms_to(&self, ty: AtomicType) -> bool {
        self.atomic_type() == ty
            || (ty == AtomicType::Float && self.atomic_type() == AtomicType::Integer)
    }

    /// Returns the string content if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AtomicValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AtomicValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Compares two atomic values for query predicates (`<`, `>`, `≤`, `≥`,
    /// `=` — Section 4.2). Values of incomparable types return `None`.
    pub fn compare(&self, other: &AtomicValue) -> Option<Ordering> {
        use AtomicValue::*;
        match (self, other) {
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Db(a), Db(b)) => Some(a.cmp(b)),
            (Map(a), Map(b)) => Some(a.cmp(b)),
            (Elem(a), Elem(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Renders the value the way the paper's examples print constants:
    /// strings (and meta-values) in single quotes, numbers bare.
    pub fn display_quoted(&self) -> String {
        match self {
            AtomicValue::Str(s) => format!("'{s}'"),
            AtomicValue::Int(i) => i.to_string(),
            AtomicValue::Float(x) => x.to_string(),
            AtomicValue::Bool(b) => b.to_string(),
            AtomicValue::Db(d) => format!("'{d}'"),
            AtomicValue::Map(m) => format!("'{m}'"),
            AtomicValue::Elem(e) => format!("'{}':'{}'", e.db, e.path),
        }
    }
}

impl PartialEq for AtomicValue {
    fn eq(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl Eq for AtomicValue {}

impl Hash for AtomicValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            AtomicValue::Str(s) => {
                0u8.hash(state);
                s.hash(state);
            }
            // Int and Float that are numerically equal may still hash
            // differently only if they compare unequal; hash ints as floats
            // when they fit losslessly so that `1 == 1.0` implies equal
            // hashes.
            AtomicValue::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            AtomicValue::Float(x) => {
                1u8.hash(state);
                x.to_bits().hash(state);
            }
            AtomicValue::Bool(b) => {
                2u8.hash(state);
                b.hash(state);
            }
            AtomicValue::Db(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            AtomicValue::Map(m) => {
                4u8.hash(state);
                m.hash(state);
            }
            AtomicValue::Elem(e) => {
                5u8.hash(state);
                e.hash(state);
            }
        }
    }
}

impl fmt::Display for AtomicValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicValue::Str(s) => f.write_str(s),
            AtomicValue::Int(i) => write!(f, "{i}"),
            AtomicValue::Float(x) => write!(f, "{x}"),
            AtomicValue::Bool(b) => write!(f, "{b}"),
            AtomicValue::Db(d) => f.write_str(d),
            AtomicValue::Map(m) => write!(f, "{m}"),
            AtomicValue::Elem(e) => write!(f, "{e}"),
        }
    }
}

impl From<&str> for AtomicValue {
    fn from(s: &str) -> Self {
        AtomicValue::str(s)
    }
}

impl From<String> for AtomicValue {
    fn from(s: String) -> Self {
        AtomicValue::str(s)
    }
}

impl From<i64> for AtomicValue {
    fn from(i: i64) -> Self {
        AtomicValue::Int(i)
    }
}

impl From<f64> for AtomicValue {
    fn from(x: f64) -> Self {
        AtomicValue::Float(x)
    }
}

impl From<bool> for AtomicValue {
    fn from(b: bool) -> Self {
        AtomicValue::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &AtomicValue) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn string_comparison() {
        let a = AtomicValue::str("H522");
        let b = AtomicValue::str("H523");
        assert_eq!(a.compare(&b), Some(Ordering::Less));
        assert_eq!(a, AtomicValue::str("H522"));
    }

    #[test]
    fn numeric_widening() {
        assert_eq!(AtomicValue::Int(500), AtomicValue::Float(500.0));
        assert_eq!(
            AtomicValue::Int(500).compare(&AtomicValue::Float(500.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            hash_of(&AtomicValue::Int(7)),
            hash_of(&AtomicValue::Float(7.0))
        );
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(AtomicValue::str("1").compare(&AtomicValue::Int(1)), None);
        assert_ne!(AtomicValue::str("1"), AtomicValue::Int(1));
    }

    #[test]
    fn meta_values() {
        let e = AtomicValue::Elem(ElementRef::new("USdb", "US/agents/title/firm"));
        assert_eq!(e.atomic_type(), AtomicType::Element);
        assert_eq!(e.to_string(), "USdb:/US/agents/title/firm");
        let m = AtomicValue::Map(MappingName::new("m2"));
        assert_eq!(m.atomic_type(), AtomicType::Mapping);
        assert_eq!(m.display_quoted(), "'m2'");
    }

    #[test]
    fn canonical_path_normalization() {
        assert_eq!(canonical_path("US/agents"), "/US/agents");
        assert_eq!(canonical_path("/US/agents/"), "/US/agents");
        assert_eq!(
            canonical_path("/Portal/estates/*/value"),
            "/Portal/estates/value"
        );
        assert_eq!(
            ElementRef::new("Pdb", "Portal/estates/*/value").path,
            "/Portal/estates/value"
        );
    }

    #[test]
    fn conforms_to_widening() {
        assert!(AtomicValue::Int(3).conforms_to(AtomicType::Float));
        assert!(!AtomicValue::Float(3.0).conforms_to(AtomicType::Integer));
        assert!(AtomicValue::str("x").conforms_to(AtomicType::String));
    }

    #[test]
    fn from_impls() {
        assert_eq!(AtomicValue::from("x"), AtomicValue::str("x"));
        assert_eq!(AtomicValue::from(3i64), AtomicValue::Int(3));
        assert_eq!(AtomicValue::from(true), AtomicValue::Bool(true));
    }

    #[test]
    fn shared_strings_hash_as_the_str_they_hold() {
        // Merge-index buckets, journal `binding` fingerprints and the fault
        // trip points keyed on journal ids all hash values, so a string
        // value must hash as tag byte 0 then its `str`, exactly as it did
        // when it held a `String`; a mapping name hashes as its `str`.
        for s in ["", "H522", "Beverly Hills", "é"] {
            let mut expected = DefaultHasher::new();
            0u8.hash(&mut expected);
            String::from(s).hash(&mut expected);
            assert_eq!(hash_of(&AtomicValue::str(s)), expected.finish());

            let mut name = DefaultHasher::new();
            MappingName::new(s).hash(&mut name);
            let mut text = DefaultHasher::new();
            String::from(s).hash(&mut text);
            assert_eq!(name.finish(), text.finish());
        }
    }

    #[test]
    fn nan_is_self_equal_under_total_cmp() {
        let nan = AtomicValue::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
    }
}
