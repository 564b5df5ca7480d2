//! # dtr-model — the nested relational data model
//!
//! The data model of *Representing and Querying Data Transformations*
//! (Velegrakis, Miller, Mylopoulos — ICDE 2005), Section 4: a relational
//! model extended with union (choice) types and nested structures, used as
//! the common model for heterogeneous integrated data.
//!
//! * [`types`] — atomic, record, choice and set types (Section 4.1).
//! * [`schema`] — schemas as element forests `<E, f_parent>` (Definition 4.1).
//! * [`value`] — atomic values, including the `Database` / `Mapping` /
//!   `Element` meta-values of Section 5.
//! * [`instance`] — instances as value trees (Definition 4.2) with the
//!   annotation slots of tagged instances (Definition 5.2).
//! * [`pnf`] — Partition Normal Form merging, the normal form produced by
//!   the data exchange methodology and exploited by Section 8's annotation
//!   compression.
//! * [`display`] — Figure 3-style tree renderings.
//!
//! ```
//! use dtr_model::prelude::*;
//!
//! let schema = Schema::build(
//!     "Pdb",
//!     vec![(
//!         "contacts",
//!         Type::relation(vec![
//!             ("title", AtomicType::String),
//!             ("phone", AtomicType::String),
//!         ]),
//!     )],
//! )
//! .unwrap();
//!
//! let mut inst = Instance::new("Pdb");
//! inst.install_root(
//!     "contacts",
//!     Value::set(vec![Value::record(vec![
//!         ("title", Value::str("HomeGain")),
//!         ("phone", Value::str("18009468501")),
//!     ])]),
//! );
//! inst.annotate_elements(&schema).unwrap();
//! let title = schema.resolve_path("/contacts/title").unwrap();
//! assert_eq!(inst.interpretation(title).len(), 1);
//! ```

#![warn(missing_docs)]

mod arena;
pub mod display;
pub mod instance;
pub mod label;
pub mod pnf;
pub mod schema;
pub mod types;
pub mod value;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::display::{render_instance, RenderOptions};
    pub use crate::instance::{Annotation, Instance, Node, NodeData, NodeId, Value};
    pub use crate::label::Label;
    pub use crate::pnf::{is_pnf, non_set_eq, non_set_fingerprint, to_pnf, to_pnf_with};
    pub use crate::schema::{Element, ElementId, ElementKind, Schema};
    pub use crate::types::{AtomicType, Type};
    pub use crate::value::{AtomicValue, ElementRef, MappingName};
}

pub use prelude::*;
