//! The slot-resolved program one evaluator run executes.
//!
//! [`Program::lower`] runs at the start of every
//! [`Evaluator::run`](crate::eval::Evaluator::run) and
//! [`Evaluator::run_analyzed`](crate::eval::Evaluator::run_analyzed). It
//! resolves every name of the query once for that run, so the row loops
//! read indices instead of looking names up:
//!
//! * each variable becomes a slot of the row environment, declared
//!   variables first, then the implicit variables of mapping predicates;
//! * each root path holds the `(source, node)` its root label names in the
//!   run's catalog;
//! * each function call holds the registry entry its name names;
//! * each record projection holds a *hint*: the position among the node's
//!   children where it last matched. A hit costs one label check, a miss
//!   falls back to the scan and moves the hint. Records built by a data
//!   exchange omit the fields no mapping assigned, so positions differ from
//!   record to record, and a hint lives only as long as its run;
//! * each comparison carries its variables as slots, how each side
//!   depends on the variable of the binding that readies it, and whether
//!   the root pre-filter applies it; each binding carries the comparisons
//!   that become ready there and the one that keys its hash join.
//!
//! A name that resolves to nothing (an unknown root, an undeclared
//! variable, an unregistered function) lowers to a marker that fails only
//! when a row evaluates it, so a name no row reaches is not an error.

use crate::ast::{
    Binding, CmpOp, Comparison, Condition, Expr, MappingPred, PathExpr, PathStart, Query, Step,
    Term,
};
use crate::eval::Catalog;
use crate::functions::{FunctionRegistry, NativeFn};
use dtr_model::instance::{Instance, NodeData, NodeId};
use dtr_model::label::Label;
use dtr_model::value::AtomicValue;
use std::cell::Cell;

/// A query lowered for one run over one catalog.
pub(crate) struct Program<'q> {
    /// Slots of the row environment.
    pub(crate) nvars: usize,
    /// The `from` bindings, in order.
    pub(crate) bindings: Vec<BindingProg<'q>>,
    /// The comparisons of the `where` clause, in order.
    pub(crate) cmps: Vec<CmpProg<'q>>,
    /// The mapping predicates of the `where` clause, in order.
    pub(crate) preds: Vec<PredProg<'q>>,
    /// The select expressions.
    pub(crate) select: Vec<ExprProg<'q>>,
    /// The `order by` keys.
    pub(crate) order_by: Vec<ExprProg<'q>>,
}

/// A `from` binding.
pub(crate) struct BindingProg<'q> {
    pub(crate) ast: &'q Binding,
    /// The slot of the bound variable.
    pub(crate) slot: usize,
    pub(crate) source: ExprProg<'q>,
    /// The source mentions no variable, so it yields the same items for
    /// every row: they are computed once and pre-filtered.
    pub(crate) root: bool,
    /// The comparisons whose variables are all bound once this binding is,
    /// and were not before.
    pub(crate) ready: Vec<usize>,
    /// The position in `ready` of the equi-join comparison the hash join
    /// keys on, and whether its candidate side is the left one.
    pub(crate) join: Option<(usize, bool)>,
}

/// A comparison of the `where` clause.
pub(crate) struct CmpProg<'q> {
    pub(crate) ast: &'q Comparison,
    pub(crate) left: ExprProg<'q>,
    pub(crate) right: ExprProg<'q>,
    /// The variables each side mentions, as slots.
    vars: [Vec<Option<usize>>; 2],
    /// How each side depends on the variable of the binding that makes the
    /// comparison ready (meaningless for a comparison no binding readies).
    pub(crate) sides: [Side; 2],
    /// The root pre-filter applies it to the binding's items, so the row
    /// loop need not test it again.
    pub(crate) prefiltered: bool,
}

impl CmpProg<'_> {
    /// Is every variable of the comparison a slot that `is_bound`?
    pub(crate) fn ready_under(&self, is_bound: impl Fn(usize) -> bool) -> bool {
        self.vars.iter().flatten().all(|v| v.is_some_and(&is_bound))
    }
}

/// How one operand of a comparison depends on the binding being
/// enumerated.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Side {
    /// No variables: a constant or a root path.
    Const,
    /// Only the binding's own variable.
    Candidate,
    /// Only variables of earlier bindings.
    Row,
    /// The binding's own variable and earlier ones.
    Mixed,
}

impl Side {
    /// Classifies an operand by its variables against the binding's slot.
    fn of(vars: &[Option<usize>], slot: usize) -> Side {
        let own = vars.iter().filter(|v| **v == Some(slot)).count();
        if vars.is_empty() {
            Side::Const
        } else if own == vars.len() {
            Side::Candidate
        } else if own == 0 {
            Side::Row
        } else {
            Side::Mixed
        }
    }
}

/// A mapping predicate: its five terms, in the order of a
/// [`PredTriple`](crate::eval::PredTriple)'s positions.
pub(crate) struct PredProg<'q> {
    pub(crate) ast: &'q MappingPred,
    pub(crate) terms: [TermProg<'q>; 5],
}

/// A mapping-predicate term.
pub(crate) enum TermProg<'q> {
    Const(&'q AtomicValue),
    Var(VarRef<'q>),
}

/// A variable reference: its name and its slot, `None` when the query
/// declares no such variable.
#[derive(Clone, Copy)]
pub(crate) struct VarRef<'q> {
    pub(crate) name: &'q str,
    pub(crate) slot: Option<usize>,
}

/// An expression, with its syntax kept for error messages and labels.
pub(crate) struct ExprProg<'q> {
    pub(crate) ast: &'q Expr,
    pub(crate) kind: ExprKind<'q>,
}

pub(crate) enum ExprKind<'q> {
    Const(&'q AtomicValue),
    Path(PathProg<'q>),
    ElemOf(PathProg<'q>),
    MapOf(PathProg<'q>),
    /// A call: the function's name, its registry entry (`None` when the
    /// registry has no such name) and its arguments.
    Call(&'q str, Option<&'q NativeFn>, Vec<ExprProg<'q>>),
}

/// A path expression.
pub(crate) struct PathProg<'q> {
    pub(crate) ast: &'q PathExpr,
    pub(crate) start: Start<'q>,
    pub(crate) steps: Vec<StepProg<'q>>,
}

/// Where a path starts.
pub(crate) enum Start<'q> {
    /// A root the catalog declares: `(source index, root node)`.
    Root(usize, NodeId),
    /// A root no catalog source declares.
    UnknownRoot(&'q Label),
    Var(VarRef<'q>),
}

/// One navigation step.
pub(crate) enum StepProg<'q> {
    /// Record projection `.l`, with the child position where it last
    /// matched. A label names at most one field of a record, so a hit is
    /// the field the scan would find.
    Field(&'q str, Cell<usize>),
    /// Union choice `->l`.
    Choice(&'q str),
}

impl StepProg<'_> {
    /// The node one step below `node`, or `None` when the step has no
    /// valuation there: a record that omits the field, or a choice that
    /// selected another alternative.
    pub(crate) fn apply(&self, inst: &Instance, node: NodeId) -> Option<NodeId> {
        match self {
            StepProg::Field(label, hint) => {
                let kids = inst.children(node);
                if let Some(&kid) = kids.get(hint.get()) {
                    if inst.label(kid) == *label {
                        return Some(kid);
                    }
                }
                let pos = kids.iter().position(|&k| inst.label(k) == *label)?;
                hint.set(pos);
                Some(kids[pos])
            }
            StepProg::Choice(label) => match &inst.node(node).data {
                NodeData::Choice(Some(kid)) if inst.label(*kid) == *label => Some(*kid),
                _ => None,
            },
        }
    }
}

/// The names a query resolves against: its variables, the catalog's roots
/// and the function registry.
struct Names<'q, 'c> {
    vars: Vec<&'q str>,
    catalog: &'c Catalog<'c>,
    functions: &'q FunctionRegistry,
}

impl<'q> Names<'q, '_> {
    fn var(&self, name: &'q str) -> VarRef<'q> {
        VarRef {
            name,
            slot: self.vars.iter().position(|v| *v == name),
        }
    }

    fn expr(&self, e: &'q Expr) -> ExprProg<'q> {
        let kind = match e {
            Expr::Const(c) => ExprKind::Const(c),
            Expr::Path(p) => ExprKind::Path(self.path(p)),
            Expr::ElemOf(p) => ExprKind::ElemOf(self.path(p)),
            Expr::MapOf(p) => ExprKind::MapOf(self.path(p)),
            Expr::Call(name, args) => ExprKind::Call(
                name,
                self.functions.get(name).map(|f| &**f),
                args.iter().map(|a| self.expr(a)).collect(),
            ),
        };
        ExprProg { ast: e, kind }
    }

    fn path(&self, p: &'q PathExpr) -> PathProg<'q> {
        let start = match &p.start {
            PathStart::Root(r) => match self.catalog.find_root(r) {
                Some((s, n)) => Start::Root(s, n),
                None => Start::UnknownRoot(r),
            },
            PathStart::Var(v) => Start::Var(self.var(v)),
        };
        let steps = p
            .steps
            .iter()
            .map(|s| match s {
                Step::Project(l) => StepProg::Field(l, Cell::new(0)),
                Step::Choice(l) => StepProg::Choice(l),
            })
            .collect();
        PathProg {
            ast: p,
            start,
            steps,
        }
    }

    fn vars_of(&self, e: &'q Expr) -> Vec<Option<usize>> {
        e.variables()
            .into_iter()
            .map(|v| self.var(v).slot)
            .collect()
    }

    fn term(&self, t: &'q Term) -> TermProg<'q> {
        match t {
            Term::Const(c) => TermProg::Const(c),
            Term::Var(v) => TermProg::Var(self.var(v)),
        }
    }
}

impl<'q> Program<'q> {
    /// Lowers `q` for one run over `catalog`. `hash_join` is the run's
    /// [`EvalOptions::hash_join`](crate::eval::EvalOptions::hash_join).
    pub(crate) fn lower(
        q: &'q Query,
        catalog: &Catalog<'_>,
        functions: &'q FunctionRegistry,
        hash_join: bool,
    ) -> Program<'q> {
        let mut vars: Vec<&'q str> = Vec::new();
        for v in q
            .from
            .iter()
            .map(|b| b.var.as_str())
            .chain(q.implicit_vars())
        {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let names = Names {
            vars,
            catalog,
            functions,
        };
        let mut cmps: Vec<CmpProg<'q>> = Vec::new();
        let mut preds: Vec<PredProg<'q>> = Vec::new();
        for c in &q.conditions {
            match c {
                Condition::Cmp(cmp) => cmps.push(CmpProg {
                    ast: cmp,
                    left: names.expr(&cmp.left),
                    right: names.expr(&cmp.right),
                    vars: [names.vars_of(&cmp.left), names.vars_of(&cmp.right)],
                    sides: [Side::Const; 2],
                    prefiltered: false,
                }),
                Condition::MapPred(p) => preds.push(PredProg {
                    ast: p,
                    terms: [&p.src_db, &p.src_elem, &p.mapping, &p.tgt_db, &p.tgt_elem]
                        .map(|t| names.term(t)),
                }),
            }
        }
        // Assign each comparison to the first binding after which all its
        // variables are bound, so candidates are tested in place before any
        // row is materialized.
        let mut bound = vec![false; names.vars.len()];
        let mut assigned = vec![false; cmps.len()];
        let mut bindings = Vec::with_capacity(q.from.len());
        for b in &q.from {
            let slot = names
                .var(&b.var)
                .slot
                .expect("every declared variable has a slot");
            bound[slot] = true;
            let root = b.source.variables().is_empty();
            let mut ready = Vec::new();
            for (ci, c) in cmps.iter_mut().enumerate() {
                if assigned[ci] || !c.ready_under(|s| bound[s]) {
                    continue;
                }
                assigned[ci] = true;
                // This one classification decides the item pre-filter, the
                // per-row hoisting and the hash-join key.
                c.sides = [Side::of(&c.vars[0], slot), Side::of(&c.vars[1], slot)];
                // The pre-filter applies the comparisons whose other
                // operand is row-independent (constants and root paths),
                // e.g. the `e.db = 'Portal'` filters of translated queries.
                c.prefiltered = root
                    && matches!(
                        c.sides,
                        [Side::Const, Side::Const | Side::Candidate]
                            | [Side::Candidate, Side::Const]
                    );
                ready.push(ci);
            }
            // Hash join: a ready equi-join linking the candidate to earlier
            // bindings, over row-independent items.
            let join = if hash_join && root {
                ready.iter().enumerate().find_map(|(k, &ci)| {
                    match (cmps[ci].ast.op, cmps[ci].sides) {
                        (CmpOp::Eq, [Side::Candidate, Side::Row]) => Some((k, true)),
                        (CmpOp::Eq, [Side::Row, Side::Candidate]) => Some((k, false)),
                        _ => None,
                    }
                })
            } else {
                None
            };
            bindings.push(BindingProg {
                ast: b,
                slot,
                source: names.expr(&b.source),
                root,
                ready,
                join,
            });
        }
        Program {
            nvars: names.vars.len(),
            bindings,
            cmps,
            preds,
            select: q.select.iter().map(|e| names.expr(e)).collect(),
            order_by: q.order_by.iter().map(|k| names.expr(&k.expr)).collect(),
        }
    }
}
