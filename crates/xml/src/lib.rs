//! # dtr-xml — XML storage of schemas and annotated instances
//!
//! The Section 8 experiments of *Representing and Querying Data
//! Transformations* materialize the integrated instance as XML, with every
//! element carrying its annotations as XML attributes, and measure the size
//! overhead of doing so (~5.5 % with the Partition-Normal-Form suppression,
//! plus ~0.3 MB for the encoded schemas and mappings).
//!
//! * [`writer`] — annotated-instance serialization with the naive and the
//!   PNF-suppressed annotation schemes, plus [`writer::SizeReport`].
//! * [`parser`] — a small XML tag reader that round-trips the writer's
//!   output: instances are read straight into an `Instance` against a
//!   schema, other documents into an [`XmlNode`] tree.
//! * [`schema_xml`] — the flat element-list encoding of schemas.
//! * [`escape`] — entity escaping.

#![warn(missing_docs)]

pub mod escape;
pub mod parser;
pub mod schema_xml;
pub mod writer;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::parser::{instance_from_xml, parse_document, XmlError, XmlNode};
    pub use crate::schema_xml::{schema_from_xml, schema_to_xml};
    pub use crate::writer::{instance_to_xml, SizeReport, WriteOptions};
}

pub use prelude::*;
