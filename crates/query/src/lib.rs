//! # dtr-query — the query language of Section 4.2 and its MXQL surface
//!
//! Select-from-where queries with path expressions over the nested
//! relational model, union-choice selection (`a.title->name`), correlated
//! bindings, function calls, and — for MXQL — the `@elem` / `@map`
//! operators and mapping predicates of Section 5.
//!
//! * [`ast`] — the abstract syntax.
//! * [`parser`] — the concrete text syntax used throughout the paper's
//!   examples.
//! * [`check`] — static well-formedness checking and schema resolution.
//! * [`eval`] — the evaluator over (annotated) instances. Each run first
//!   lowers its query into a slot-resolved program, so the row loops
//!   resolve no names.
//! * [`functions`] — the function-call mechanism, with `concat`,
//!   `getElAnnot` and `getMapAnnot` built in.
//! * [`index`] — equi-join keys, and the hash indexes over a set's members
//!   a caller keeps across runs for a binding's hash join to probe.
//! * [`plan`] — checked queries in their written order, cached by
//!   query text. A plan's view
//!   is the operator tree of one analyzed run
//!   ([`eval::Evaluator::run_analyzed`]), each stage labelled with the
//!   conditions it applies.
//!
//! ```
//! use dtr_model::prelude::*;
//! use dtr_query::prelude::*;
//!
//! let schema = Schema::build(
//!     "Pdb",
//!     vec![(
//!         "estates",
//!         Type::relation(vec![
//!             ("hid", AtomicType::String),
//!             ("value", AtomicType::Integer),
//!         ]),
//!     )],
//! )
//! .unwrap();
//! let mut inst = Instance::new("Pdb");
//! inst.install_root(
//!     "estates",
//!     Value::set(vec![
//!         Value::record(vec![("hid", Value::str("H1")), ("value", Value::int(700_000))]),
//!         Value::record(vec![("hid", Value::str("H2")), ("value", Value::int(300_000))]),
//!     ]),
//! );
//! inst.annotate_elements(&schema).unwrap();
//!
//! let q = parse_query("select e.hid from estates e where e.value > 500000").unwrap();
//! let catalog = Catalog::new(vec![Source { schema: &schema, instance: &inst }]);
//! let funcs = FunctionRegistry::with_builtins();
//! let result = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
//! assert_eq!(result.tuples(), vec![vec![AtomicValue::str("H1")]]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod eval;
pub mod functions;
pub mod index;
pub mod parser;
pub mod plan;
mod program;

/// Convenient glob-import of the most used names.
pub mod prelude {
    pub use crate::ast::{
        Binding, CmpOp, Comparison, Condition, Expr, MappingPred, PathExpr, PathStart, Query, Step,
        Term,
    };
    pub use crate::check::{check_query, CheckError, Resolved, SchemaCatalog, VarTarget};
    pub use crate::eval::{
        Catalog, EvalError, EvalOptions, Evaluator, MetaEnv, OutValue, PredTriple, QueryResult,
        Source, Val,
    };
    pub use crate::functions::{ArgValue, FunctionRegistry, FunctionValue};
    pub use crate::parser::{parse_mapping_parts, parse_query, ParseError};
    pub use crate::plan::{compile, CompiledPlan, PlanCache, PlanCacheStats};
}

pub use prelude::*;
