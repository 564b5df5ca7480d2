//! XML serialization of (annotated) instances — the storage format of the
//! Section 8 experiments.
//!
//! "Every XML element carries its annotations, which are represented as XML
//! attributes." The element annotation is written as `el="eN"`, the mapping
//! annotation as `map="m2 m3"`. The Partition-Normal-Form optimization of
//! Section 8 — "we were able to avoid storing mapping annotations on the
//! children of a complex type value since they are the same as the
//! annotations of their parents" — is available via
//! [`WriteOptions::pnf_suppression`].

use crate::escape::{escape_attr, escape_text};
use dtr_model::instance::{Instance, NodeData, NodeId};
use dtr_model::value::{AtomicValue, MappingName};

/// The element name used for anonymous set members (`*` nodes).
pub const MEMBER_TAG: &str = "member";

/// Serialization options.
#[derive(Clone, Copy, Debug)]
pub struct WriteOptions {
    /// Write element annotations (`el="eN"`).
    pub element_annotations: bool,
    /// Write mapping annotations (`map="m2 m3"`).
    pub mapping_annotations: bool,
    /// Suppress a node's mapping annotation when it equals its parent's —
    /// sound for PNF instances (Section 8's space optimization).
    pub pnf_suppression: bool,
    /// Pretty-print with indentation. The experiments use compact output
    /// (sizes are compared, and indentation would dilute the ratios).
    pub indent: bool,
}

impl WriteOptions {
    /// No annotations at all (the plain instance).
    pub fn plain() -> Self {
        WriteOptions {
            element_annotations: false,
            mapping_annotations: false,
            pnf_suppression: false,
            indent: false,
        }
    }

    /// Full annotations on every element — the naive scheme whose overhead
    /// the paper measured at ~3 MB before optimization.
    pub fn annotated() -> Self {
        WriteOptions {
            element_annotations: true,
            mapping_annotations: true,
            pnf_suppression: false,
            indent: false,
        }
    }

    /// Annotations with the PNF suppression — the ~0.8 MB (5.5 %) scheme.
    pub fn annotated_pnf() -> Self {
        WriteOptions {
            pnf_suppression: true,
            ..Self::annotated()
        }
    }

    /// Mapping annotations only, on every element (the paper's *physical*
    /// annotation scheme before the PNF optimization: the element
    /// annotation is implicit in the XML structure and needs no bytes).
    pub fn mapping_only() -> Self {
        WriteOptions {
            element_annotations: false,
            mapping_annotations: true,
            pnf_suppression: false,
            indent: false,
        }
    }

    /// Mapping annotations with PNF suppression — the scheme whose overhead
    /// the paper reports as ~5.5 %.
    pub fn mapping_only_pnf() -> Self {
        WriteOptions {
            pnf_suppression: true,
            ..Self::mapping_only()
        }
    }
}

impl Default for WriteOptions {
    fn default() -> Self {
        Self::annotated_pnf()
    }
}

/// Written vs PNF-suppressed mapping-annotation attributes of one
/// serialization pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WriteStats {
    written: u64,
    suppressed: u64,
}

/// Serializes an instance to XML.
pub fn instance_to_xml(inst: &Instance, opts: WriteOptions) -> String {
    let span = dtr_obs::span("xml.write").field("nodes", inst.len());
    let mut stats = WriteStats::default();
    let mut out = String::with_capacity(inst.len() * 24);
    out.push_str("<?xml version=\"1.0\"?>\n<instance db=\"");
    escape_attr(inst.db(), &mut out);
    out.push_str("\">");
    if opts.indent {
        out.push('\n');
    }
    for &root in inst.roots() {
        write_node(inst, root, None, opts, 1, &mut out, &mut stats);
    }
    out.push_str("</instance>");
    out.push('\n');
    span.record("annotations_written", stats.written);
    span.record("annotations_suppressed", stats.suppressed);
    out
}

fn write_node(
    inst: &Instance,
    id: NodeId,
    parent_maps: Option<&[MappingName]>,
    opts: WriteOptions,
    depth: usize,
    out: &mut String,
    stats: &mut WriteStats,
) {
    if opts.indent {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    let node = inst.node(id);
    let tag: &str = if node.label.is_star() {
        MEMBER_TAG
    } else {
        node.label.as_str()
    };
    out.push('<');
    out.push_str(tag);

    let annot = inst.annotation(id);
    if opts.element_annotations {
        if let Some(e) = annot.element {
            out.push_str(" el=\"e");
            push_decimal(out, u64::from(e.0));
            out.push('"');
        }
    }
    if opts.mapping_annotations && !annot.mappings.is_empty() {
        let suppress =
            opts.pnf_suppression && parent_maps.is_some_and(|pm| pm == annot.mappings.as_slice());
        if suppress {
            stats.suppressed += 1;
        } else {
            stats.written += 1;
            out.push_str(" map=\"");
            for (i, m) in annot.mappings.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                escape_attr(m.as_str(), out);
            }
            out.push('"');
        }
    }

    match &node.data {
        NodeData::Atomic(v) => {
            out.push('>');
            match v {
                AtomicValue::Str(s) => escape_text(s, out),
                AtomicValue::Int(i) => {
                    if *i < 0 {
                        out.push('-');
                    }
                    push_decimal(out, i.unsigned_abs());
                }
                other => escape_text(&other.to_string(), out),
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
        NodeData::Record(_) | NodeData::Set(_) | NodeData::Choice(_) => {
            let kids = inst.children(id);
            if kids.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                if opts.indent {
                    out.push('\n');
                }
                for &c in kids {
                    write_node(inst, c, Some(&annot.mappings), opts, depth + 1, out, stats);
                }
                if opts.indent {
                    for _ in 0..depth {
                        out.push_str("  ");
                    }
                }
                out.push_str("</");
                out.push_str(tag);
                out.push('>');
            }
        }
    }
    if opts.indent {
        out.push('\n');
    }
}

/// Appends `n` in decimal, as its `Display` would, without formatting
/// machinery or a temporary string.
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Byte sizes of the same instance under the serialization schemes compared
/// in Section 8. The annotation bytes counted are the *mapping* annotations
/// (the element annotation is implicit in the XML structure, as in the
/// paper's storage).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeReport {
    /// XML without annotations.
    pub plain: usize,
    /// XML with mapping annotations on every element (the naive scheme,
    /// ~3 MB of overhead in the paper's run).
    pub annotated_naive: usize,
    /// XML with PNF-suppressed mapping annotations (~0.8 MB / 5.5 %).
    pub annotated_pnf: usize,
    /// XML with explicit element annotations too (not a paper scheme;
    /// useful for round-tripping tagged instances through files).
    pub full: usize,
}

impl SizeReport {
    /// Measures an instance.
    pub fn measure(inst: &Instance) -> SizeReport {
        SizeReport {
            plain: instance_to_xml(inst, WriteOptions::plain()).len(),
            annotated_naive: instance_to_xml(inst, WriteOptions::mapping_only()).len(),
            annotated_pnf: instance_to_xml(inst, WriteOptions::mapping_only_pnf()).len(),
            full: instance_to_xml(inst, WriteOptions::annotated()).len(),
        }
    }

    /// Annotation overhead of the naive scheme, as a fraction of the plain
    /// size.
    pub fn naive_overhead(&self) -> f64 {
        (self.annotated_naive - self.plain) as f64 / self.plain as f64
    }

    /// Annotation overhead with PNF suppression — the paper's ~5.5 %.
    pub fn pnf_overhead(&self) -> f64 {
        (self.annotated_pnf - self.plain) as f64 / self.plain as f64
    }

    /// Annotation bytes of the naive scheme.
    pub fn naive_annotation_bytes(&self) -> usize {
        self.annotated_naive - self.plain
    }

    /// Annotation bytes after PNF suppression.
    pub fn pnf_annotation_bytes(&self) -> usize {
        self.annotated_pnf - self.plain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::instance::Value;
    use dtr_model::schema::Schema;
    use dtr_model::types::{AtomicType, Type};

    fn annotated_instance() -> Instance {
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
        let root = inst.install_root(
            "contacts",
            Value::set(vec![Value::record(vec![
                ("title", Value::str("HomeGain")),
                ("phone", Value::str("18009468501")),
            ])]),
        );
        inst.annotate_elements(&schema).unwrap();
        // Same mapping set on the whole subtree (a PNF instance).
        for n in inst.walk() {
            inst.add_mapping(n, MappingName::new("m2"));
        }
        let member = inst.set_members(root).unwrap()[0];
        let title = inst.child_by_label(member, "title").unwrap();
        inst.add_mapping(title, MappingName::new("m3"));
        inst
    }

    #[test]
    fn plain_has_no_annotations() {
        let inst = annotated_instance();
        let xml = instance_to_xml(&inst, WriteOptions::plain());
        assert!(xml.contains("<title>HomeGain</title>"));
        assert!(!xml.contains("map="));
        assert!(!xml.contains("el="));
    }

    #[test]
    fn naive_annotates_every_element() {
        let inst = annotated_instance();
        let xml = instance_to_xml(&inst, WriteOptions::annotated());
        assert!(xml.contains("el=\"e0\""));
        assert!(xml.contains("map=\"m2\""));
        assert!(xml.contains("map=\"m2 m3\""));
        // member elements use the member tag
        assert!(xml.contains("<member"));
    }

    #[test]
    fn pnf_suppression_drops_inherited_annotations() {
        let inst = annotated_instance();
        let naive = instance_to_xml(&inst, WriteOptions::annotated());
        let pnf = instance_to_xml(&inst, WriteOptions::annotated_pnf());
        assert!(pnf.len() < naive.len());
        // The title node differs from its parent ({m2,m3} vs {m2}), so its
        // annotation must survive.
        assert!(pnf.contains("map=\"m2 m3\""));
        // The phone node matches its parent and is suppressed.
        assert!(!pnf.contains("phone map"));
        assert!(pnf.contains("<phone el="));
    }

    #[test]
    fn size_report_ordering() {
        let inst = annotated_instance();
        let r = SizeReport::measure(&inst);
        assert!(r.plain < r.annotated_pnf);
        assert!(r.annotated_pnf < r.annotated_naive);
        assert!(r.annotated_naive < r.full);
        assert!(r.pnf_overhead() < r.naive_overhead());
        assert!(r.naive_overhead() > 0.0);
        assert_eq!(r.naive_annotation_bytes(), r.annotated_naive - r.plain);
    }

    #[test]
    fn special_characters_escaped() {
        let mut inst = Instance::new("X");
        inst.install_root("r", Value::record(vec![("f", Value::str("a<b>&\"c"))]));
        let xml = instance_to_xml(&inst, WriteOptions::plain());
        assert!(xml.contains("a&lt;b&gt;&amp;\"c"));
    }

    #[test]
    fn integers_and_element_ids_render_as_display_does() {
        let ints = [i64::MIN, -1_000_001, -1, 0, 7, 10, 42_000, i64::MAX];
        let mut inst = Instance::new("X");
        let fields: Vec<(String, Value)> = ints
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("f{i}"), Value::int(n)))
            .collect();
        let root = inst.install_root("r", Value::record(fields));
        let id = dtr_model::schema::ElementId(u32::MAX);
        inst.set_element(root, id);
        let xml = instance_to_xml(&inst, WriteOptions::annotated());
        for (i, n) in ints.iter().enumerate() {
            assert!(xml.contains(&format!("<f{i}>{n}</f{i}>")), "{n}: {xml}");
        }
        assert!(xml.contains(&format!("<r el=\"{id}\">")), "{xml}");
    }

    #[test]
    fn indentation_mode() {
        let inst = annotated_instance();
        let xml = instance_to_xml(
            &inst,
            WriteOptions {
                indent: true,
                ..WriteOptions::plain()
            },
        );
        assert!(xml.contains("\n    <member>"));
    }
}
