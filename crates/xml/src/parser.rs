//! A small XML reader for the dialect produced by [`crate::writer`] and
//! [`crate::schema_xml`].
//!
//! This is not a general-purpose XML parser; it supports exactly what the
//! repository needs for round-trips: elements, attributes, text content,
//! self-closing tags, the XML declaration, and the standard entities.
//!
//! One tag reader serves both entry points. It walks the input once and
//! hands out borrowed slices of it: a start tag with its raw attributes, a
//! run of text, an end tag. [`instance_from_xml`] reads those straight into
//! the [`Instance`], with no intermediate tree; [`parse_document`] builds an
//! [`XmlNode`] tree from the same reader. Text and attribute values are
//! unescaped only when they contain `&`.
//!
//! Robustness contract: the library paths in this module are
//! `unwrap`/`expect`-free — every malformed input, a truncated one
//! included, returns an [`XmlError`] — and element nesting is bounded
//! (`MAX_ELEMENT_DEPTH`, 128 levels) so hostile nesting cannot overflow
//! the stack.

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

/// Maximum element nesting the reader accepts. Both readers recurse once
/// per open element, so a hostile `<a><a><a>…` document would otherwise
/// overflow the stack instead of returning an [`XmlError`].
const MAX_ELEMENT_DEPTH: usize = 128;

/// A start tag the reader just consumed.
struct StartTag<'a> {
    name: &'a str,
    /// `<name/>`: no content and no end tag follow.
    empty: bool,
}

/// The tag reader: a cursor over the input that yields borrowed slices.
struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Elements opened and not yet closed.
    depth: usize,
    /// The attributes of the last start tag, as raw (still escaped) text.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Reader<'a> {
    fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
            attrs: Vec::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes the longest run of bytes accepted by `ok`.
    fn scan(&mut self, ok: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&ok) {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// Skips whitespace, the XML declaration, processing instructions and
    /// comments ahead of the document element.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        loop {
            let rest = &self.input[self.pos..];
            let (close, what) = if rest.starts_with("<?") {
                ("?>", "processing instruction")
            } else if rest.starts_with("<!--") {
                ("-->", "comment")
            } else {
                return Ok(());
            };
            let Some(end) = rest.find(close) else {
                return Err(self.err(format!("unterminated {what}")));
            };
            self.pos += end + close.len();
            self.skip_ws();
        }
    }

    /// Reads the start tag at the cursor, after optional whitespace, and
    /// keeps its attributes in `attrs`. A tag that does not close itself
    /// opens an element, counted against [`MAX_ELEMENT_DEPTH`].
    fn start_tag(&mut self) -> Result<StartTag<'a>, XmlError> {
        if self.depth >= MAX_ELEMENT_DEPTH {
            return Err(self.err(format!(
                "element nesting exceeds {MAX_ELEMENT_DEPTH} levels"
            )));
        }
        self.skip_ws();
        if self.peek() != Some(b'<') {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.scan(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'));
        if name.is_empty() {
            return Err(self.err("expected element name"));
        }
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if self.input.as_bytes().get(self.pos + 1) != Some(&b'>') {
                        return Err(self.err("stray `/`"));
                    }
                    self.pos += 2;
                    return Ok(StartTag { name, empty: true });
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.depth += 1;
                    return Ok(StartTag { name, empty: false });
                }
                Some(_) => {
                    let attr = self.scan(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-'));
                    if attr.is_empty() {
                        return Err(self.err("expected attribute name"));
                    }
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected `=`"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected `\"`"));
                    }
                    self.pos += 1;
                    let value = self.scan(|b| b != b'"');
                    if self.peek() != Some(b'"') {
                        return Err(self.err("unterminated attribute value"));
                    }
                    self.pos += 1;
                    self.attrs.push((attr, value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// The raw value of attribute `name` of the last start tag.
    fn attr(&self, name: &str) -> Option<&'a str> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Reads the raw text up to the next `<`. Content always ends in an end
    /// tag, so running out of input here is an error.
    fn text(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.input[start..].find('<') {
            Some(len) => {
                self.pos += len;
                Ok(&self.input[start..self.pos])
            }
            None => {
                self.pos = self.input.len();
                Err(self.err("unexpected end of input in content"))
            }
        }
    }

    /// At the `<` that ends a run of text: consumes the end tag of `name`
    /// and returns `true`, or returns `false` if a child's start tag
    /// follows instead.
    fn end_tag(&mut self, name: &str) -> Result<bool, XmlError> {
        let Some(rest) = self.input[self.pos..].strip_prefix("</") else {
            return Ok(false);
        };
        let Some(len) = rest.find('>') else {
            self.pos = self.input.len();
            return Err(self.err("unterminated closing tag"));
        };
        let closing = &rest[..len];
        self.pos += 2 + len;
        if closing != name {
            return Err(self.err(format!(
                "mismatched closing tag `{closing}` (expected `{name}`)"
            )));
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(true)
    }

    /// Only whitespace may follow the document element.
    fn finish(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after document element"));
        }
        Ok(())
    }
}

/// Parses a single XML document into its root element.
pub fn parse_document(input: &str) -> Result<XmlNode, XmlError> {
    let mut r = Reader::new(input);
    r.skip_prolog()?;
    let root = read_tree(&mut r)?;
    r.finish()?;
    Ok(root)
}

/// Reads one element, from its start tag to its end tag, as a tree.
fn read_tree(r: &mut Reader<'_>) -> Result<XmlNode, XmlError> {
    let tag = r.start_tag()?;
    let mut node = XmlNode {
        name: tag.name.to_owned(),
        attrs: r
            .attrs
            .iter()
            .map(|&(n, v)| (n.to_owned(), unescape(v).into_owned()))
            .collect(),
        ..XmlNode::default()
    };
    if tag.empty {
        return Ok(node);
    }
    loop {
        let text = r.text()?;
        if !text.trim().is_empty() || (node.children.is_empty() && !text.is_empty()) {
            node.text.push_str(&unescape(text));
        }
        if r.end_tag(tag.name)? {
            // Text-only elements: trim pure-whitespace around children.
            if !node.children.is_empty() {
                node.text.clear();
            }
            return Ok(node);
        }
        node.children.push(read_tree(r)?);
    }
}

/// Reconstructs an [`Instance`] from the XML produced by
/// [`crate::writer::instance_to_xml`], using `schema` to recover node kinds
/// and atomic types. Annotations (`el=`, `map=`) are restored when present.
pub fn instance_from_xml(input: &str, schema: &Schema) -> Result<Instance, XmlError> {
    let mut r = Reader::new(input);
    r.skip_prolog()?;
    let doc = r.start_tag()?;
    if doc.name != "instance" {
        return Err(XmlError {
            offset: 0,
            message: format!("expected <instance>, found <{}>", doc.name),
        });
    }
    let db = r
        .attr("db")
        .map_or_else(|| schema.name().to_owned(), |v| unescape(v).into_owned());
    let mut builder = InstanceBuilder {
        schema,
        inst: Instance::new(db),
        kids: Vec::new(),
    };
    if !doc.empty {
        loop {
            r.text()?;
            if r.end_tag(doc.name)? {
                break;
            }
            let tag = r.start_tag()?;
            let root = schema
                .root(tag.name)
                .ok_or_else(|| r.err(format!("schema has no root `{}`", tag.name)))?;
            builder.node(&mut r, tag, root, None)?;
        }
    }
    r.finish()?;
    Ok(builder.inst)
}

/// Builds an [`Instance`] from the tag stream: one node per start tag, in
/// document order, so node ids follow a pre-order walk of the document.
struct InstanceBuilder<'s> {
    schema: &'s Schema,
    inst: Instance,
    /// Children read so far of every open complex node, innermost last.
    kids: Vec<NodeId>,
}

impl InstanceBuilder<'_> {
    /// Reads the element whose start tag `tag` the reader just consumed, as
    /// a value of schema element `elem`.
    fn node<'a>(
        &mut self,
        r: &mut Reader<'a>,
        tag: StartTag<'a>,
        elem: ElementId,
        parent: Option<NodeId>,
    ) -> Result<NodeId, XmlError> {
        let schema = self.schema;
        let element = schema.element(elem);
        // A tag naming its schema element shares that element's label, and
        // the member tag names a set's `*` element.
        let label =
            if element.label == tag.name || (element.label.is_star() && tag.name == MEMBER_TAG) {
                element.label.clone()
            } else {
                Label::new(tag.name)
            };
        let (el, maps) = (r.attr("el"), r.attr("map"));
        let data = match element.kind {
            ElementKind::Atomic(t) => {
                let mut text = "";
                if !tag.empty {
                    text = r.text()?;
                    if !r.end_tag(tag.name)? {
                        let child = r.start_tag()?;
                        return Err(no_child(r, schema, elem, child.name));
                    }
                }
                NodeData::Atomic(parse_atomic(&unescape(text), t)?)
            }
            ElementKind::Record => NodeData::Record(Vec::new()),
            ElementKind::Set => NodeData::Set(Vec::new()),
            ElementKind::Choice => NodeData::Choice(None),
        };
        let id = self.inst.push_raw(label, parent, data, parent.is_none());
        if let Some(n) = el.and_then(|e| e.strip_prefix('e')?.parse().ok()) {
            self.inst.set_element(id, ElementId(n));
        }
        if let Some(maps) = maps {
            for m in unescape(maps).split_whitespace() {
                self.inst.add_mapping(id, MappingName::new(m));
            }
        }
        if matches!(element.kind, ElementKind::Atomic(_)) {
            return Ok(id);
        }
        let first_kid = self.kids.len();
        if !tag.empty {
            loop {
                r.text()?;
                if r.end_tag(tag.name)? {
                    break;
                }
                let child = r.start_tag()?;
                let child_elem = match element.kind {
                    ElementKind::Set => schema
                        .set_member(elem)
                        .ok_or_else(|| r.err("set element without member"))?,
                    _ => schema
                        .child(elem, child.name)
                        .ok_or_else(|| no_child(r, schema, elem, child.name))?,
                };
                let kid = self.node(r, child, child_elem, Some(id))?;
                self.kids.push(kid);
            }
        }
        let kids: Vec<NodeId> = self.kids.drain(first_kid..).collect();
        match element.kind {
            ElementKind::Choice if kids.len() > 1 => {
                return Err(r.err(format!(
                    "choice element {} holds {} alternatives",
                    schema.path(elem),
                    kids.len()
                )))
            }
            ElementKind::Choice if kids.is_empty() => {}
            _ => self.inst.replace_children(id, kids),
        }
        Ok(id)
    }
}

fn no_child(r: &Reader<'_>, schema: &Schema, elem: ElementId, name: &str) -> XmlError {
    r.err(format!(
        "schema element {} has no child `{name}`",
        schema.path(elem)
    ))
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

    /// `parse_document` on a thread of its own, so an input that makes the
    /// reader loop fails the test instead of hanging the suite.
    fn parse_within_timeout(input: &'static str) -> Result<XmlNode, XmlError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(parse_document(input));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("parse_document({input:?}) did not return: {e}"));
        worker.join().expect("parser thread");
        result
    }

    #[test]
    fn unterminated_prolog_is_an_error_not_a_hang() {
        for input in [
            "<?xml version=\"1.0\"",
            "<!-- open",
            "<?xml version=\"1.0\"?> <!-- open",
        ] {
            let err = parse_within_timeout(input).unwrap_err();
            assert!(err.message.contains("unterminated"), "{input:?}: {err}");
        }
    }

    #[test]
    fn truncated_closing_tag_is_an_error_not_a_panic() {
        for input in ["<a><b></b", "<a></a", "<a><b></", "<a><b/></"] {
            assert!(parse_document(input).is_err(), "{input:?}");
        }
        let schema = schema();
        for input in [
            "<instance db=\"Pdb\"><Portal></Portal",
            "<instance db=\"Pdb\"><Portal><estates><member><hid>H1</hid",
        ] {
            assert!(instance_from_xml(input, &schema).is_err(), "{input:?}");
        }
    }

    #[test]
    fn choice_holds_at_most_one_alternative() {
        let schema = Schema::build(
            "C",
            vec![(
                "r",
                Type::choice(vec![("a", Type::string()), ("b", Type::string())]),
            )],
        )
        .unwrap();
        let one = instance_from_xml("<instance><r><b>y</b></r></instance>", &schema).unwrap();
        let r = one.root("r").unwrap();
        assert_eq!(one.children(r).len(), 1);
        let err =
            instance_from_xml("<instance><r><a>x</a><b>y</b></r></instance>", &schema).unwrap_err();
        assert!(err.message.contains("2 alternatives"), "{err}");
    }

    #[test]
    fn atomic_element_with_a_child_is_rejected() {
        let schema = schema();
        let err = instance_from_xml(
            "<instance><Portal><estates><member><hid>H1<x/></hid></member></estates>\
             </Portal></instance>",
            &schema,
        )
        .unwrap_err();
        assert!(err.message.contains("no child `x`"), "{err}");
    }

    #[test]
    fn a_field_named_like_the_member_tag_keeps_its_label() {
        let schema = Schema::build(
            "X",
            vec![(
                "member",
                Type::record(vec![
                    ("member", Type::string()),
                    ("rows", Type::relation(vec![("member", AtomicType::String)])),
                ]),
            )],
        )
        .unwrap();
        let mut inst = Instance::new("X");
        inst.install_root(
            "member",
            Value::record(vec![
                ("member", Value::str("x")),
                (
                    "rows",
                    Value::set(vec![Value::record(vec![("member", Value::str("y"))])]),
                ),
            ]),
        );
        inst.annotate_elements(&schema).unwrap();
        let xml = instance_to_xml(&inst, WriteOptions::annotated());
        let mut back = instance_from_xml(&xml, &schema).unwrap();
        let root = back.root("member").unwrap();
        assert_eq!(
            back.to_value(root),
            inst.to_value(inst.root("member").unwrap())
        );
        back.annotate_elements(&schema).unwrap();
        assert_eq!(instance_to_xml(&back, WriteOptions::annotated()), xml);
    }

    #[test]
    fn escaped_values_and_db_name_unescape() {
        let schema = schema();
        let inst = instance_from_xml(
            "<instance db=\"P&amp;db\"><Portal map=\"m&lt;1 m2\"><estates>\
             <member><hid>a &amp; b</hid><value> 7 </value></member></estates>\
             </Portal></instance>",
            &schema,
        )
        .unwrap();
        assert_eq!(inst.db(), "P&db");
        let portal = inst.root("Portal").unwrap();
        let maps: Vec<&str> = inst
            .annotation(portal)
            .mappings
            .iter()
            .map(MappingName::as_str)
            .collect();
        assert_eq!(maps, ["m2", "m<1"]);
        let values: Vec<AtomicValue> = inst
            .walk()
            .into_iter()
            .filter_map(|n| inst.atomic(n).cloned())
            .collect();
        assert_eq!(values, [AtomicValue::str("a & b"), AtomicValue::Int(7)]);
    }
}
