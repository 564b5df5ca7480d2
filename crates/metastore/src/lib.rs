//! # dtr-metastore — the meta-data physical storage schema (Section 7.1)
//!
//! Elevates schemas and mappings to stored, queryable data: the seven
//! relations of Figure 4 (`Db`, `Element`, `Query`, `Binding`, `Condition`,
//! `Mapping`, `Correspondence`), an encoder that serializes [`Schema`]s and
//! GLAV mappings into them (reproducing Figure 5), and a nested-relational
//! *view* that the translated MXQL queries of Section 7.3 execute against.
//!
//! [`Schema`]: dtr_model::schema::Schema

#![warn(missing_docs)]

pub mod audit_view;
pub mod store;
pub mod view;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::audit_view::{audit_instance, audit_schema, AUDIT_DB};
    pub use crate::store::{
        BindingRow, ConditionRow, CorrespondenceRow, DbRow, ElementRow, MappingRow, MetaStore,
        QueryRow, StoreError,
    };
    pub use crate::view::{meta_instance, meta_schema, META_DB, NULL};
}

pub use prelude::*;
