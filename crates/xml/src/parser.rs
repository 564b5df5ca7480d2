//! A small XML reader for the dialect produced by [`crate::writer`] and
//! [`crate::schema_xml`].
//!
//! This is not a general-purpose XML parser; it supports exactly what the
//! repository needs for round-trips: elements, attributes, text content,
//! self-closing tags, the XML declaration, and the standard entities.
//!
//! Robustness contract: the library paths in this module are
//! `unwrap`/`expect`-free — every malformed input returns an [`XmlError`] —
//! and element recursion is bounded (`MAX_ELEMENT_DEPTH`, 128 levels) so
//! hostile nesting cannot overflow the stack.

use crate::escape::unescape;
use crate::writer::MEMBER_TAG;
use dtr_model::instance::{Instance, NodeData, NodeId};
use dtr_model::label::Label;
use dtr_model::schema::{ElementId, ElementKind, Schema};
use dtr_model::types::AtomicType;
use dtr_model::value::{AtomicValue, MappingName};
use std::fmt;

/// A parsed XML element.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct XmlNode {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Concatenated text content (children and text do not mix in our
    /// dialect).
    pub text: String,
    /// Child elements.
    pub children: Vec<XmlNode>,
}

impl XmlNode {
    /// Looks up an attribute.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Maximum element nesting the reader accepts. Each open tag is one stack
/// frame (both here and in `build_node`, which mirrors the parsed tree), so
/// a hostile `<a><a><a>…` document would otherwise overflow the stack
/// instead of returning an [`XmlError`].
const MAX_ELEMENT_DEPTH: usize = 128;

struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .input
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_ws();
        while self.input[self.pos..].starts_with("<?") || self.input[self.pos..].starts_with("<!--")
        {
            if self.input[self.pos..].starts_with("<?") {
                if let Some(end) = self.input[self.pos..].find("?>") {
                    self.pos += end + 2;
                }
            } else if let Some(end) = self.input[self.pos..].find("-->") {
                self.pos += end + 3;
            }
            self.skip_ws();
        }
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        self.depth += 1;
        if self.depth > MAX_ELEMENT_DEPTH {
            self.depth -= 1;
            return Err(self.err(format!(
                "element nesting exceeds {MAX_ELEMENT_DEPTH} levels"
            )));
        }
        let result = self.element_unbounded();
        self.depth -= 1;
        result
    }

    fn element_unbounded(&mut self) -> Result<XmlNode, XmlError> {
        self.skip_ws();
        if !self.input[self.pos..].starts_with('<') {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name_start = self.pos;
        while self
            .input
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-' || *b == b'.')
        {
            self.pos += 1;
        }
        if self.pos == name_start {
            return Err(self.err("expected element name"));
        }
        let mut node = XmlNode {
            name: self.input[name_start..self.pos].to_owned(),
            ..Default::default()
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.input.as_bytes().get(self.pos) {
                Some(b'/') => {
                    if self.input.as_bytes().get(self.pos + 1) == Some(&b'>') {
                        self.pos += 2;
                        return Ok(node);
                    }
                    return Err(self.err("stray `/`"));
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let astart = self.pos;
                    while self
                        .input
                        .as_bytes()
                        .get(self.pos)
                        .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-')
                    {
                        self.pos += 1;
                    }
                    if self.pos == astart {
                        return Err(self.err("expected attribute name"));
                    }
                    let aname = self.input[astart..self.pos].to_owned();
                    if self.input.as_bytes().get(self.pos) != Some(&b'=') {
                        return Err(self.err("expected `=`"));
                    }
                    self.pos += 1;
                    if self.input.as_bytes().get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected `\"`"));
                    }
                    self.pos += 1;
                    let vstart = self.pos;
                    while self
                        .input
                        .as_bytes()
                        .get(self.pos)
                        .is_some_and(|b| *b != b'"')
                    {
                        self.pos += 1;
                    }
                    if self.input.as_bytes().get(self.pos) != Some(&b'"') {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let value = unescape(&self.input[vstart..self.pos]);
                    self.pos += 1;
                    node.attrs.push((aname, value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // Content.
        loop {
            let text_start = self.pos;
            while self
                .input
                .as_bytes()
                .get(self.pos)
                .is_some_and(|b| *b != b'<')
            {
                self.pos += 1;
            }
            let text = &self.input[text_start..self.pos];
            if !text.trim().is_empty() || (node.children.is_empty() && !text.is_empty()) {
                node.text.push_str(&unescape(text));
            }
            if self.input[self.pos..].starts_with("</") {
                self.pos += 2;
                let cstart = self.pos;
                while self
                    .input
                    .as_bytes()
                    .get(self.pos)
                    .is_some_and(|b| *b != b'>')
                {
                    self.pos += 1;
                }
                let closing = &self.input[cstart..self.pos];
                if closing != node.name {
                    return Err(self.err(format!(
                        "mismatched closing tag `{closing}` (expected `{}`)",
                        node.name
                    )));
                }
                self.pos += 1;
                // Text-only elements: trim pure-whitespace around children.
                if !node.children.is_empty() {
                    node.text.clear();
                }
                return Ok(node);
            }
            if self.pos >= self.input.len() {
                return Err(self.err("unexpected end of input in content"));
            }
            node.children.push(self.element()?);
        }
    }
}

/// Parses a single XML document into its root element.
pub fn parse_document(input: &str) -> Result<XmlNode, XmlError> {
    let mut r = Reader {
        input,
        pos: 0,
        depth: 0,
    };
    r.skip_prolog();
    let root = r.element()?;
    r.skip_ws();
    if r.pos != input.len() {
        return Err(r.err("trailing content after document element"));
    }
    Ok(root)
}

/// Reconstructs an [`Instance`] from the XML produced by
/// [`crate::writer::instance_to_xml`], using `schema` to recover node kinds
/// and atomic types. Annotations (`el=`, `map=`) are restored when present.
pub fn instance_from_xml(input: &str, schema: &Schema) -> Result<Instance, XmlError> {
    let doc = parse_document(input)?;
    if doc.name != "instance" {
        return Err(XmlError {
            offset: 0,
            message: format!("expected <instance>, found <{}>", doc.name),
        });
    }
    let db = doc.attr("db").unwrap_or(schema.name()).to_owned();
    let mut inst = Instance::new(db);
    for child in &doc.children {
        let root_elem = schema.root(&child.name).ok_or_else(|| XmlError {
            offset: 0,
            message: format!("schema has no root `{}`", child.name),
        })?;
        build_node(child, root_elem, schema, &mut inst, None, true)?;
    }
    Ok(inst)
}

fn build_node(
    xml: &XmlNode,
    elem: ElementId,
    schema: &Schema,
    inst: &mut Instance,
    parent: Option<NodeId>,
    is_root: bool,
) -> Result<NodeId, XmlError> {
    let kind = schema.element(elem).kind;
    let label: Label = if xml.name == MEMBER_TAG {
        Label::star()
    } else {
        Label::new(&xml.name)
    };
    let data = match kind {
        ElementKind::Atomic(t) => NodeData::Atomic(parse_atomic(&xml.text, t)?),
        ElementKind::Record => NodeData::Record(Vec::new()),
        ElementKind::Set => NodeData::Set(Vec::new()),
        ElementKind::Choice => NodeData::Choice(None),
    };
    let id = inst.push_raw(label, parent, data, is_root);

    // Restore annotations.
    if let Some(el) = xml.attr("el") {
        let n: Option<u32> = el.strip_prefix('e').and_then(|s| s.parse().ok());
        if let Some(n) = n {
            inst.set_element(id, ElementId(n));
        }
    }
    if let Some(maps) = xml.attr("map") {
        for m in maps.split_whitespace() {
            inst.add_mapping(id, MappingName::new(m));
        }
    }

    let mut kids = Vec::with_capacity(xml.children.len());
    for child in &xml.children {
        let child_elem = match kind {
            ElementKind::Set => schema.set_member(elem).ok_or_else(|| XmlError {
                offset: 0,
                message: "set element without member".into(),
            })?,
            _ => schema.child(elem, &child.name).ok_or_else(|| XmlError {
                offset: 0,
                message: format!(
                    "schema element {} has no child `{}`",
                    schema.path(elem),
                    child.name
                ),
            })?,
        };
        kids.push(build_node(
            child,
            child_elem,
            schema,
            inst,
            Some(id),
            false,
        )?);
    }
    if !kids.is_empty() || matches!(kind, ElementKind::Record | ElementKind::Set) {
        inst.replace_children(id, kids);
    }
    Ok(id)
}

fn parse_atomic(text: &str, t: AtomicType) -> Result<AtomicValue, XmlError> {
    let fail = |m: String| XmlError {
        offset: 0,
        message: m,
    };
    Ok(match t {
        AtomicType::String => AtomicValue::str(text),
        AtomicType::Integer => AtomicValue::Int(
            text.trim()
                .parse()
                .map_err(|_| fail(format!("bad integer `{text}`")))?,
        ),
        AtomicType::Float => AtomicValue::Float(
            text.trim()
                .parse()
                .map_err(|_| fail(format!("bad float `{text}`")))?,
        ),
        AtomicType::Boolean => AtomicValue::Bool(
            text.trim()
                .parse()
                .map_err(|_| fail(format!("bad boolean `{text}`")))?,
        ),
        AtomicType::Database => AtomicValue::Db(text.to_owned()),
        AtomicType::Mapping => AtomicValue::Map(MappingName::new(text)),
        AtomicType::Element => {
            let (db, path) = text.split_once(':').unwrap_or(("", text));
            AtomicValue::Elem(dtr_model::value::ElementRef::new(db, path))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{instance_to_xml, WriteOptions};
    use dtr_model::instance::Value;
    use dtr_model::types::Type;

    fn schema() -> Schema {
        Schema::build(
            "Pdb",
            vec![(
                "Portal",
                Type::record(vec![
                    (
                        "estates",
                        Type::relation(vec![
                            ("hid", AtomicType::String),
                            ("value", AtomicType::Integer),
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

    fn instance() -> Instance {
        let schema = schema();
        let mut inst = Instance::new("Pdb");
        inst.install_root(
            "Portal",
            Value::record(vec![
                (
                    "estates",
                    Value::set(vec![
                        Value::record(vec![
                            ("hid", Value::str("H<1>&")),
                            ("value", Value::int(500_000)),
                        ]),
                        Value::record(vec![
                            ("hid", Value::str("H2")),
                            ("value", Value::int(300_000)),
                        ]),
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
        inst.annotate_elements(&schema).unwrap();
        for n in inst.walk() {
            inst.add_mapping(n, MappingName::new("m2"));
        }
        inst
    }

    #[test]
    fn parse_document_basics() {
        let doc = parse_document("<?xml version=\"1.0\"?><a x=\"1\"><b>hi</b><c/></a>").unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.attr("x"), Some("1"));
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.children[0].text, "hi");
        assert_eq!(doc.children[1].name, "c");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse_document("<a><b></a></b>").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></a><b></b>").is_err());
    }

    #[test]
    fn round_trip_plain() {
        let schema = schema();
        let inst = instance();
        let xml = instance_to_xml(&inst, WriteOptions::plain());
        let back = instance_from_xml(&xml, &schema).unwrap();
        assert_eq!(back.len(), inst.len());
        assert_eq!(back.db(), "Pdb");
        let portal = back.root("Portal").unwrap();
        assert_eq!(
            back.to_value(portal),
            inst.to_value(inst.root("Portal").unwrap())
        );
    }

    #[test]
    fn round_trip_annotated() {
        let schema = schema();
        let inst = instance();
        let xml = instance_to_xml(&inst, WriteOptions::annotated());
        let back = instance_from_xml(&xml, &schema).unwrap();
        // Every node's annotations survive.
        for (a, b) in inst.walk().into_iter().zip(back.walk()) {
            assert_eq!(inst.annotation(a), back.annotation(b));
        }
    }

    #[test]
    fn round_trip_indented() {
        let schema = schema();
        let inst = instance();
        let xml = instance_to_xml(
            &inst,
            WriteOptions {
                indent: true,
                ..WriteOptions::plain()
            },
        );
        let back = instance_from_xml(&xml, &schema).unwrap();
        assert_eq!(back.len(), inst.len());
    }

    #[test]
    fn typed_atoms_restored() {
        let schema = schema();
        let inst = instance();
        let xml = instance_to_xml(&inst, WriteOptions::plain());
        let back = instance_from_xml(&xml, &schema).unwrap();
        let mut back2 = back.clone();
        back2.annotate_elements(&schema).unwrap();
        let value_elem = schema.resolve_path("/Portal/estates/value").unwrap();
        let nodes = back2.interpretation(value_elem);
        assert!(nodes
            .iter()
            .any(|&n| back2.atomic(n) == Some(&AtomicValue::Int(500_000))));
    }

    #[test]
    fn malformed_attributes_rejected() {
        assert!(parse_document("<a x=1></a>").is_err()); // unquoted value
        assert!(parse_document("<a x=\"1></a>").is_err()); // unterminated
        assert!(parse_document("<a =\"1\"></a>").is_err()); // no name
        assert!(parse_document("<a/ >").is_err()); // stray slash
        assert!(parse_document("").is_err());
        assert!(parse_document("< a></a>").is_err()); // space before name
    }

    #[test]
    fn prolog_and_comments_skipped() {
        let doc = parse_document("<?xml version=\"1.0\"?><!-- hello --><a><b>1</b></a>").unwrap();
        assert_eq!(doc.name, "a");
        assert_eq!(doc.children[0].text, "1");
    }

    #[test]
    fn bad_typed_atoms_rejected() {
        let schema = schema();
        // `value` is Integer; text is not a number.
        let err = instance_from_xml(
            "<instance db=\"Pdb\"><Portal><estates><member><hid>H1</hid>\
             <value>abc</value></member></estates></Portal></instance>",
            &schema,
        )
        .unwrap_err();
        assert!(err.message.contains("bad integer"));
    }

    #[test]
    fn unknown_child_label_rejected() {
        let schema = schema();
        let err = instance_from_xml(
            "<instance db=\"Pdb\"><Portal><bogus/></Portal></instance>",
            &schema,
        )
        .unwrap_err();
        assert!(err.message.contains("no child"));
    }

    #[test]
    fn unknown_root_fails() {
        let schema = schema();
        let err = instance_from_xml("<instance db=\"X\"><Nope/></instance>", &schema).unwrap_err();
        assert!(err.message.contains("no root"));
    }

    #[test]
    fn deep_element_nesting_is_an_error_not_a_stack_overflow() {
        // 10k nested open tags would overflow the stack without the depth
        // bound; with it, the reader returns a structured error.
        let depth = 10_000;
        let mut doc = String::new();
        for _ in 0..depth {
            doc.push_str("<a>");
        }
        for _ in 0..depth {
            doc.push_str("</a>");
        }
        let err = parse_document(&doc).unwrap_err();
        assert!(
            err.message.contains("nesting exceeds"),
            "unexpected message: {}",
            err.message
        );
        // Reasonable real nesting stays accepted.
        let shallow = "<a>".repeat(16) + &"</a>".repeat(16);
        assert!(parse_document(&shallow).is_ok());
    }
}
