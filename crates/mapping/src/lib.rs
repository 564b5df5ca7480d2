//! # dtr-mapping — GLAV mappings and the data exchange engine
//!
//! Implements Section 4.3 of *Representing and Querying Data
//! Transformations* and the annotation-generating exchange of Section 7.2:
//!
//! * [`glav`] — the `foreach Qs exists Qt` mapping abstraction, parsing and
//!   validation.
//! * [`triple`] — the `⟨Es, Et, Wc⟩` model of a mapping, the basis of the
//!   MXQL mapping predicates.
//! * [`exchange`] — executes mappings to materialize an **annotated**
//!   target instance with PNF merging (the engine the paper borrows from
//!   "Translating Web Data", reference \[21\], rebuilt from scratch).
//! * [`lint`] — automated mapping diagnostics (the Section 8 debugging
//!   sessions as checks).
//! * [`satisfy`] — checks `∀t ∈ Qs(Is) ⇒ t ∈ Qt(It)`.
//! * [`rewrite`] — the Section 7.2 rewrite that makes annotation
//!   generation explicit (Example 7.2).

#![warn(missing_docs)]

pub mod delta;
pub mod durable;
pub mod exchange;
#[cfg(test)]
mod figure1;
pub mod glav;
pub mod incremental;
pub mod lint;
pub mod rewrite;
pub mod satisfy;
pub mod triple;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::delta::{DeltaError, Edit, EditOp, SourceDelta, TargetChange, TargetDelta};
    pub use crate::exchange::{
        execute_mappings, execute_mappings_with, Exchange, ExchangeError, ExchangeOptions,
        ExchangeReport,
    };
    pub use crate::glav::{Mapping, MappingError};
    pub use crate::incremental::IncrementalExchange;
    pub use crate::lint::{lint_mappings, Lint};
    pub use crate::rewrite::rewrite_with_annotations;
    pub use crate::satisfy::{is_satisfied, violations};
    pub use crate::triple::{extract_triple, MappingTriple};
}

pub use prelude::*;
