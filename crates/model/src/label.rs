//! Interned-ish label names.
//!
//! Labels are the attribute names of record and choice types and the names of
//! schema roots (Section 4.1 of the paper). They are immutable and cloned
//! freely throughout the engine, so they are backed by a reference-counted
//! string slice: cloning a [`Label`] is a pointer copy plus a refcount bump.
//! String values and mapping names ([`crate::value`]) share their bytes the
//! same way.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The implicit label carried by the members of a set value, written `*` in
/// the paper (Section 4.1: "Types within set types ... are assumed to have
/// the implicit and usually omitted label `*`").
pub const STAR: &str = "*";

/// An immutable attribute / element name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a label from any string-like value.
    pub fn new(name: impl AsRef<str>) -> Self {
        Label(Arc::from(name.as_ref()))
    }

    /// The label used for anonymous set members.
    pub fn star() -> Self {
        Label::new(STAR)
    }

    /// Returns the label as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if this is the implicit `*` label of set members.
    pub fn is_star(&self) -> bool {
        &*self.0 == STAR
    }
}

impl Deref for Label {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl From<&Label> for Label {
    fn from(l: &Label) -> Self {
        l.clone()
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", &*self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn label_round_trip() {
        let l = Label::new("estates");
        assert_eq!(l.as_str(), "estates");
        assert_eq!(l.to_string(), "estates");
        assert_eq!(l, "estates");
    }

    #[test]
    fn star_label() {
        assert!(Label::star().is_star());
        assert!(!Label::new("stories").is_star());
        assert_eq!(Label::star().as_str(), STAR);
    }

    #[test]
    fn labels_hash_like_strings() {
        let mut set = HashSet::new();
        set.insert(Label::new("hid"));
        assert!(set.contains("hid"));
        assert!(!set.contains("aid"));
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Label::new("contact");
        let b = a.clone();
        assert_eq!(a, b);
        // Same backing allocation.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Label::new("b"), Label::new("a"), Label::new("c")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|l| l.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
