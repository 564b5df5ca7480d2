//! Function calls (Section 4.2) and the annotation-access functions of the
//! MXQL implementation (Section 7.2).
//!
//! "A function call accepts as arguments one or more values and returns a
//! single value or a set of values. Function calls returning a set can be
//! used in the from clause." The implementation chapter introduces two
//! functions over the tagged instance — `getElAnnot(v)` and
//! `getMapAnnot(v)` — that expose the element and mapping annotations; the
//! MXQL translator rewrites `@elem`/`@map` into calls to them.

use crate::eval::{Catalog, EvalError};
use dtr_model::instance::NodeId;
use dtr_model::value::{AtomicValue, ElementRef};
use std::collections::HashMap;
use std::sync::Arc;

/// An evaluated function argument: the atomic value (if the argument had a
/// valuation) and the instance node it came from (if it is a fact).
#[derive(Clone, Debug)]
pub struct ArgValue {
    /// The atomic value, or `None` when a choice step filtered the path out.
    pub value: Option<AtomicValue>,
    /// The instance position `(source index, node)` for path arguments.
    pub node: Option<(usize, NodeId)>,
}

/// What a function returns.
#[derive(Clone, Debug, PartialEq)]
pub enum FunctionValue {
    /// A single value.
    One(AtomicValue),
    /// A set of values (usable as a from-clause binding source).
    Many(Vec<AtomicValue>),
}

/// The type of native function implementations.
pub type NativeFn =
    dyn Fn(&[ArgValue], &Catalog<'_>) -> Result<FunctionValue, EvalError> + Send + Sync;

/// A registry of named functions available to queries.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    map: HashMap<String, Arc<NativeFn>>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the built-in functions:
    ///
    /// * `concat(a, b, ...)` — string concatenation, the paper's example of
    ///   combining several select expressions into one (Section 4.3);
    /// * `getElAnnot(v)` — the element annotation of a fact (Section 7.2);
    /// * `getMapAnnot(v)` — the mapping annotations of a fact (Section 7.2).
    pub fn with_builtins() -> Self {
        let mut reg = Self::new();
        reg.register("concat", |args, _| {
            let mut out = String::new();
            for a in args {
                match &a.value {
                    Some(v) => out.push_str(&v.to_string()),
                    None => return Err(EvalError::Function("concat of missing value".into())),
                }
            }
            Ok(FunctionValue::One(AtomicValue::str(out)))
        });
        reg.register("getElAnnot", |args, cat| {
            let fact = fact_arg("getElAnnot", args)?;
            let (s, n) = fact;
            let source = cat.source(s);
            let elem =
                source.instance.annotation(n).element.ok_or_else(|| {
                    EvalError::MissingElementAnnotation("getElAnnot argument".into())
                })?;
            Ok(FunctionValue::One(AtomicValue::Elem(ElementRef::new(
                source.instance.db(),
                source.schema.path(elem),
            ))))
        });
        reg.register("getMapAnnot", |args, cat| {
            let (s, n) = fact_arg("getMapAnnot", args)?;
            let source = cat.source(s);
            Ok(FunctionValue::Many(
                source
                    .instance
                    .annotation(n)
                    .mappings
                    .iter()
                    .map(|m| AtomicValue::Map(m.clone()))
                    .collect(),
            ))
        });
        reg
    }

    /// Registers (or replaces) a function.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[ArgValue], &Catalog<'_>) -> Result<FunctionValue, EvalError>
            + Send
            + Sync
            + 'static,
    {
        self.map.insert(name.into(), Arc::new(f));
    }

    /// Looks a function up.
    pub fn get(&self, name: &str) -> Option<&Arc<NativeFn>> {
        self.map.get(name)
    }

    /// The registered function names.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(|s| s.as_str()).collect()
    }
}

/// Extracts the single fact argument of an annotation function.
fn fact_arg(name: &str, args: &[ArgValue]) -> Result<(usize, NodeId), EvalError> {
    if args.len() != 1 {
        return Err(EvalError::Function(format!(
            "{name} takes exactly one argument"
        )));
    }
    args[0].node.ok_or_else(|| {
        EvalError::Function(format!(
            "{name} requires a path argument (a value of the instance)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, Source};
    use crate::parser::parse_query;
    use dtr_model::instance::{Instance, Value};
    use dtr_model::schema::Schema;
    use dtr_model::types::{AtomicType, Type};
    use dtr_model::value::MappingName;

    fn setup() -> (Schema, Instance) {
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
        let member = inst.set_members(root).unwrap()[0];
        let title = inst.child_by_label(member, "title").unwrap();
        inst.add_mapping(title, MappingName::new("m2"));
        inst.add_mapping(title, MappingName::new("m3"));
        (schema, inst)
    }

    #[test]
    fn get_el_annot_returns_element() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select getElAnnot(c.title) from contacts c").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.len(), 1);
        match &r.rows[0][0].value {
            AtomicValue::Elem(e) => {
                assert_eq!(e.db, "Pdb");
                assert_eq!(e.path, "/contacts/title");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn get_map_annot_binds_in_from() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select mv from contacts c, getMapAnnot(c.title) mv").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.len(), 2);
        let names: Vec<String> = r.tuples().iter().map(|t| t[0].to_string()).collect();
        assert!(names.contains(&"m2".to_string()));
        assert!(names.contains(&"m3".to_string()));
    }

    #[test]
    fn concat_builds_strings() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select concat(c.title, '/', c.phone) from contacts c").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.tuples()[0][0], AtomicValue::str("HomeGain/18009468501"));
    }

    #[test]
    fn unknown_function_errors() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select nosuch(c.title) from contacts c").unwrap();
        assert!(matches!(
            Evaluator::new(&catalog, &funcs).run(&q),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn custom_function_registration() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let mut funcs = FunctionRegistry::with_builtins();
        funcs.register("upper", |args, _| match &args[0].value {
            Some(AtomicValue::Str(s)) => Ok(FunctionValue::One(AtomicValue::str(s.to_uppercase()))),
            _ => Err(EvalError::Function("upper wants a string".into())),
        });
        assert!(funcs.names().contains(&"upper"));
        let q = parse_query("select upper(c.title) from contacts c").unwrap();
        let r = Evaluator::new(&catalog, &funcs).run(&q).unwrap();
        assert_eq!(r.tuples()[0][0], AtomicValue::str("HOMEGAIN"));
    }

    #[test]
    fn annotation_function_arity_checked() {
        let (schema, inst) = setup();
        let catalog = Catalog::new(vec![Source {
            schema: &schema,
            instance: &inst,
        }]);
        let funcs = FunctionRegistry::with_builtins();
        let q = parse_query("select getElAnnot(c.title, c.phone) from contacts c").unwrap();
        assert!(matches!(
            Evaluator::new(&catalog, &funcs).run(&q),
            Err(EvalError::Function(_))
        ));
    }
}
