//! # dtr-core — tagged instances, MXQL, and schema-level provenance
//!
//! The primary contribution of *Representing and Querying Data
//! Transformations* (Velegrakis, Miller, Mylopoulos — ICDE 2005): schemas
//! and mappings elevated to first-class citizens, data values annotated
//! with their schema element (`f_el`) and generating mappings (`f_mp`), and
//! the **MXQL** query language that manipulates data and meta-data
//! uniformly.
//!
//! * [`tagged`] — mapping settings (Definition 5.1) and tagged instances
//!   (Definition 5.2), with direct MXQL evaluation (Section 5).
//! * [`mod@translate`] — the MXQL → plain-query translation over the metastore
//!   (Section 7.3).
//! * [`runner`] — the translated execution pipeline (encode + view + run).
//! * [`provenance`] — where/what/why-provenance and the Theorem 6.1 / 6.4
//!   characterizations (Section 6).
//! * [`inclusion`] — element inclusion between queries (Definition 6.3).
//! * [`incremental`] — continuous-ingest sessions over the delta-driven
//!   exchange engine.
//! * [`mod@virtualize`] — virtual integration by query rewriting (the
//!   conclusion's future work).
//! * [`whatif`] — impact analysis for sources and mappings (the
//!   introduction's "what-if" scenarios).
//! * [`testkit`] — the paper's running example (Figures 1–3), ready-made.
//!
//! ```
//! use dtr_core::testkit::figure1;
//!
//! // Example 5.4: which transformation generated each price?
//! let tagged = figure1();
//! let result = tagged
//!     .query("select x.hid, x.value, m from Portal.estates x, x.value@map m")
//!     .unwrap();
//! assert_eq!(result.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod inclusion;
pub mod incremental;
pub mod provenance;
pub mod runner;
pub mod store;
pub mod tagged;
pub mod testkit;
pub mod translate;
pub mod virtualize;
pub mod whatif;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::inclusion::element_included;
    pub use crate::incremental::IncrementalSession;
    pub use crate::provenance::{
        check_theorem_6_1, check_theorem_6_4, provenance_of, provenance_query, Provenance,
        ProvenanceKind,
    };
    pub use crate::runner::{canonical_rows, MetaRunner};
    pub use crate::tagged::{MappingSetting, MxqlError, Request, TaggedInstance};
    pub use crate::translate::{translate, translate_explained, TranslateError};
    pub use crate::virtualize::{answer_virtually, virtualize};
    pub use crate::whatif::{impact_of_mappings, impact_of_source, Impact};
}

pub use prelude::*;
