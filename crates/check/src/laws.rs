//! The conformance laws: differential tests against the reference oracle
//! and metamorphic properties drawn from the paper's theorems.
//!
//! Every law takes generated artifacts and returns `Err(description)` on
//! violation; the [`crate::run_case`] driver strings them together under a
//! single deterministic seed.

use crate::generators::{self, GenConfig, Scenario};
use crate::oracle;
use dtr_core::prelude::*;
use dtr_core::provenance::{positions_for, provenance_of, ProvenanceKind};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::exchange::{execute_mappings_with, ExchangeReport, MappingStats};
use dtr_mapping::glav::Mapping;
use dtr_mapping::incremental::IncrementalExchange;
use dtr_mapping::satisfy::is_satisfied;
use dtr_model::instance::{Instance, NodeData, NodeId};
use dtr_model::pnf::{is_pnf, to_pnf};
use dtr_model::value::MappingName;
use dtr_obs::Work;
use dtr_query::ast::Query;
use dtr_query::check::{check_query, SchemaCatalog};
use dtr_query::eval::{Catalog, EvalOptions, EvalStats, Evaluator, MetaEnv};
use dtr_query::functions::FunctionRegistry;
use dtr_query::parser::parse_query;
use dtr_xml::parser::instance_from_xml;
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use proptest::test_runner::TestRng;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Canonical rendering and structural copies (PNF laws)
// ---------------------------------------------------------------------------

/// Renders an instance into a canonical string: labels, atomic values,
/// element/mapping annotations, with set members sorted so the rendering is
/// order-insensitive. Two instances are "the same nested value" (Def 4.2
/// plus annotations) iff their renderings agree.
pub fn canon(inst: &Instance) -> String {
    let mut roots: Vec<String> = inst.roots().iter().map(|&r| canon_node(inst, r)).collect();
    roots.sort();
    roots.join("\n")
}

fn canon_node(inst: &Instance, id: NodeId) -> String {
    let ann = inst.annotation(id);
    let elem = ann
        .element
        .map(|e| e.index().to_string())
        .unwrap_or_default();
    let maps = ann
        .mappings
        .iter()
        .map(|m| m.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let head = format!("{}⟨e{};{}⟩", inst.label(id), elem, maps);
    match &inst.node(id).data {
        NodeData::Atomic(v) => format!("{head}={v:?}"),
        NodeData::Record(kids) => {
            let body: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
            format!("{head}{{{}}}", body.join(","))
        }
        NodeData::Choice(kid) => match kid {
            Some(k) => format!("{head}({})", canon_node(inst, *k)),
            None => format!("{head}()"),
        },
        NodeData::Set(kids) => {
            let mut body: Vec<String> = kids.iter().map(|&k| canon_node(inst, k)).collect();
            body.sort();
            format!("{head}[{}]", body.join(";"))
        }
    }
}

/// How a structural copy treats set members.
#[derive(Clone, Copy)]
enum SetMode {
    /// Reverse their order (tests merge commutativity).
    Reverse,
    /// Append a second copy of every member (tests merge associativity /
    /// union absorption: `pnf(x ∪ x) = pnf(x)`).
    Double,
}

/// An annotation-preserving deep copy with a set-member policy.
fn copy_with(inst: &Instance, mode: SetMode) -> Instance {
    let mut dst = Instance::new(inst.db());
    for &root in inst.roots() {
        copy_node(inst, root, &mut dst, None, true, mode);
    }
    dst
}

fn copy_node(
    src: &Instance,
    id: NodeId,
    dst: &mut Instance,
    parent: Option<NodeId>,
    is_root: bool,
    mode: SetMode,
) -> NodeId {
    let shell = match &src.node(id).data {
        NodeData::Atomic(v) => NodeData::Atomic(v.clone()),
        NodeData::Record(_) => NodeData::Record(Vec::new()),
        NodeData::Choice(_) => NodeData::Choice(None),
        NodeData::Set(_) => NodeData::Set(Vec::new()),
    };
    let nid = dst.push_raw(src.label(id).clone(), parent, shell, is_root);
    let mut order: Vec<NodeId> = src.children(id).to_vec();
    if matches!(src.node(id).data, NodeData::Set(_)) {
        match mode {
            SetMode::Reverse => order.reverse(),
            SetMode::Double => {
                let again = order.clone();
                order.extend(again);
            }
        }
    }
    let kids: Vec<NodeId> = order
        .into_iter()
        .map(|k| copy_node(src, k, dst, Some(nid), false, mode))
        .collect();
    if !kids.is_empty() {
        dst.replace_children(nid, kids);
    }
    let ann = src.annotation(id);
    if let Some(e) = ann.element {
        dst.set_element(nid, e);
    }
    for m in &ann.mappings {
        dst.add_mapping(nid, m.clone());
    }
    nid
}

/// PNF laws (Section 5.2): normalisation is idempotent, insensitive to set
/// member order, and absorbs duplicated members (self-union), with mapping
/// annotations unioned across merged copies.
pub fn law_pnf(rng: &mut TestRng, cfg: &GenConfig) -> Result<(), String> {
    let schema = generators::gen_schema(rng, "P", "P", cfg);
    let mut inst = generators::gen_instance(rng, &schema, cfg);
    // Random mapping annotations exercise the annotation-union side of
    // merging.
    for node in inst.walk() {
        if rng.below(4) == 0 {
            let m = MappingName::new(format!("m{}", rng.below(3) + 1));
            inst.add_mapping(node, m);
        }
    }
    let normal = to_pnf(&inst);
    if !is_pnf(&normal) {
        return Err("pnf: to_pnf output is not in PNF".into());
    }
    let base = canon(&normal);
    let twice = canon(&to_pnf(&normal));
    if twice != base {
        return Err(format!(
            "pnf idempotence violated:\n first: {base}\nsecond: {twice}"
        ));
    }
    let reversed = canon(&to_pnf(&copy_with(&inst, SetMode::Reverse)));
    if reversed != base {
        return Err(format!(
            "pnf merge commutativity violated:\n forward: {base}\nreversed: {reversed}"
        ));
    }
    let doubled = canon(&to_pnf(&copy_with(&inst, SetMode::Double)));
    if doubled != base {
        return Err(format!(
            "pnf union absorption violated:\n once: {base}\ndoubled: {doubled}"
        ));
    }
    let staged = canon(&to_pnf(&copy_with(&normal, SetMode::Double)));
    if staged != base {
        return Err(format!(
            "pnf staged normalisation violated:\n direct: {base}\nstaged: {staged}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Differential: oracle vs engine
// ---------------------------------------------------------------------------

/// One query, three evaluators: the naive oracle and the engine in each of
/// its configurations — hash-join (the default) and nested-loop. All three
/// must produce the same bag of rows (`hash_join ≡ nested_loop ≡ oracle`).
fn differential(
    catalog: &Catalog,
    functions: &FunctionRegistry,
    meta: Option<&dyn MetaEnv>,
    q: &Query,
    context: &str,
) -> Result<(), String> {
    let expected = oracle::canonical_multiset(&oracle::eval(catalog, q, meta)?);
    let modes = [
        ("hash", EvalOptions::default()),
        (
            "nested",
            EvalOptions {
                hash_join: false,
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in modes {
        let mut eval = Evaluator::new(catalog, functions).with_options(opts);
        if let Some(meta) = meta {
            eval = eval.with_meta(meta);
        }
        let result = eval
            .run(q)
            .map_err(|e| format!("{context}: engine ({name}) failed on `{q}`: {e}"))?;
        let got = oracle::canonical_multiset(&result.tuples());
        if got != expected {
            return Err(format!(
                "{context}: oracle disagrees with engine ({name}) on `{q}`\noracle: {expected:?}\nengine: {got:?}"
            ));
        }
    }
    Ok(())
}

/// Differential testing of plain conjunctive queries over every generated
/// source instance (nested schemas, choice selections, correlated
/// bindings).
pub fn law_source_queries(
    rng: &mut TestRng,
    scen: &Scenario,
    cfg: &GenConfig,
) -> Result<(), String> {
    let functions = FunctionRegistry::with_builtins();
    let catalog = oracle::catalog_of(&scen.sources);
    for (schema, _) in &scen.sources {
        for _ in 0..cfg.queries_per_case {
            let q = generators::gen_query(rng, schema, cfg);
            check_query(&q, SchemaCatalog::new(vec![schema]))
                .map_err(|e| format!("generated query `{q}` fails check: {e}"))?;
            roundtrip_query(&q)?;
            differential(&catalog, &functions, None, &q, "source query")?;
        }
    }
    Ok(())
}

/// Differential + translation-equivalence testing of MXQL over the
/// exchanged target: the oracle, the direct engine (both join modes) and
/// the Section 7.3 translation must all agree.
pub fn law_mxql_queries(
    rng: &mut TestRng,
    scen: &Scenario,
    tagged: &dtr_core::tagged::TaggedInstance,
    cfg: &GenConfig,
) -> Result<(), String> {
    let runner = MetaRunner::new(tagged.setting()).map_err(|e| format!("metastore: {e}"))?;
    let catalog = tagged.catalog();
    let mut schemas: Vec<&dtr_model::schema::Schema> = vec![&scen.target];
    schemas.extend(scen.sources.iter().map(|(s, _)| s));
    for _ in 0..cfg.queries_per_case {
        let q = generators::gen_mxql_query(rng, scen, cfg);
        check_query(&q, SchemaCatalog::new(schemas.clone()))
            .map_err(|e| format!("generated MXQL query `{q}` fails check: {e}"))?;
        roundtrip_query(&q)?;
        differential(
            &catalog,
            tagged.functions(),
            Some(tagged.setting()),
            &q,
            "mxql query",
        )?;
        // §7.3: translated evaluation produces the same distinct rows.
        let direct = tagged
            .run(&q)
            .map_err(|e| format!("direct MXQL run failed on `{q}`: {e}"))?;
        let translated = runner
            .run(tagged, &q, None)
            .map_err(|e| format!("translated MXQL run failed on `{q}`: {e}"))?;
        if canonical_rows(&direct) != canonical_rows(&translated) {
            return Err(format!(
                "translation equivalence violated on `{q}`\ndirect: {:?}\ntranslated: {:?}",
                canonical_rows(&direct),
                canonical_rows(&translated)
            ));
        }
    }
    Ok(())
}

/// EXPLAIN ANALYZE consistency: running a generated MXQL query in analyzed
/// mode — in its written order and as its cached plan — must (a) produce a
/// result byte-identical to the plain run of the same request (same
/// columns, same rows, same order, annotations included), (b) report a
/// root operator whose `rows_out` equals the result's row count, and (c)
/// agree with the reference oracle on that cardinality. Interior operators
/// are sanity-checked: every node's `rows_out` must be consistent with its
/// recorded input (an operator cannot emit rows it never saw, except the
/// binding fan-out stages whose job is to multiply rows).
pub fn law_analyze(
    rng: &mut TestRng,
    scen: &Scenario,
    tagged: &dtr_core::tagged::TaggedInstance,
    cfg: &GenConfig,
) -> Result<(), String> {
    let catalog = tagged.catalog();
    for _ in 0..cfg.queries_per_case {
        let q = generators::gen_mxql_query(rng, scen, cfg);
        let oracle_rows = oracle::eval(&catalog, &q, Some(tagged.setting()))
            .map_err(|e| format!("oracle failed on `{q}`: {e}"))?;
        let compiled = tagged
            .plan_for(&q.to_string())
            .map_err(|e| format!("planning failed on `{q}`: {e}"))?;
        for (path, req) in [
            ("written-order", Request::Parsed(&q)),
            ("planned", Request::Plan(&compiled)),
        ] {
            let run = |analyze| {
                tagged
                    .execute(req, None, analyze)
                    .map_err(|e| format!("{path} run (analyze: {analyze}) failed on `{q}`: {e}"))
            };
            let (plain, _) = run(false)?;
            let (analyzed, tree) = run(true)?;
            let plan = tree.ok_or_else(|| format!("{path} analyzed run of `{q}` has no tree"))?;
            // (a) Byte-identical result: instrumentation must be
            // observation only. Debug rendering covers columns, row order,
            // atomic values and the annotation payloads of every output
            // value.
            let plain_render = format!("{:?}|{:?}", plain.columns, plain.rows);
            let analyzed_render = format!("{:?}|{:?}", analyzed.columns, analyzed.rows);
            if plain_render != analyzed_render {
                return Err(format!(
                    "EXPLAIN ANALYZE changed the {path} result of `{q}`\nplain: {plain_render}\nanalyzed: {analyzed_render}"
                ));
            }
            // (b) The root operator's actual row count is the result size.
            if plan.rows_out != analyzed.len() as u64 {
                return Err(format!(
                    "EXPLAIN ANALYZE root operator reports {} rows but the {path} result has {} on `{q}`\n{}",
                    plan.rows_out,
                    analyzed.len(),
                    plan.render()
                ));
            }
            // (c) Oracle cardinality: the reference evaluator's bag size.
            if oracle_rows.len() as u64 != plan.rows_out {
                return Err(format!(
                    "EXPLAIN ANALYZE root operator reports {} {path} rows but the oracle produced {} on `{q}`",
                    plan.rows_out,
                    oracle_rows.len()
                ));
            }
            // Interior sanity: row-reducing operators cannot emit more rows
            // than they received. Fan-out stages (scan/bind/hash-probe) grow
            // the row set by construction and are exempt.
            let mut stack = vec![&plan];
            while let Some(node) = stack.pop() {
                let reducing = matches!(node.op.as_str(), "filter" | "project" | "sort" | "limit");
                if reducing && node.rows_out > node.rows_in {
                    return Err(format!(
                        "operator `{}` emitted {} rows from {} inputs on {path} `{q}`\n{}",
                        node.op,
                        node.rows_out,
                        node.rows_in,
                        plan.render()
                    ));
                }
                stack.extend(node.children.iter());
            }
        }
    }
    Ok(())
}

/// Plan conformance: for every generated MXQL query,
///
/// * the planned execution (parse, check and cache, then the query in its
///   written order) produces the same row multiset as the reference
///   oracle;
/// * it is **byte-identical to the legacy evaluator's run** of the parsed
///   query — columns, row order and annotation payloads;
/// * a plan-cache **hit is byte-identical to the cold plan**, and the hit
///   is structurally confirmed (the counter must move).
pub fn law_plan(
    rng: &mut TestRng,
    scen: &Scenario,
    tagged: &dtr_core::tagged::TaggedInstance,
    cfg: &GenConfig,
) -> Result<(), String> {
    let catalog = tagged.catalog();
    let render = |r: &dtr_query::eval::QueryResult| format!("{:?}|{:?}", r.columns, r.rows);
    for _ in 0..cfg.queries_per_case {
        let q = generators::gen_mxql_query(rng, scen, cfg);
        let text = q.to_string();
        let expected = oracle::canonical_multiset(
            &oracle::eval(&catalog, &q, Some(tagged.setting()))
                .map_err(|e| format!("oracle failed on `{q}`: {e}"))?,
        );
        let legacy = tagged
            .run(&q)
            .map_err(|e| format!("legacy run failed on `{q}`: {e}"))?;
        tagged.clear_plan_cache();
        let hits_before = tagged.plan_cache_stats().hits;
        let cold = tagged
            .run_planned(&text)
            .map_err(|e| format!("planned (cold) run failed on `{q}`: {e}"))?;
        let warm = tagged
            .run_planned(&text)
            .map_err(|e| format!("planned (cached) run failed on `{q}`: {e}"))?;
        let stats = tagged.plan_cache_stats();
        if stats.hits <= hits_before {
            return Err(format!(
                "plan cache did not hit on repeated `{q}` ({stats:?})"
            ));
        }
        if render(&cold) != render(&warm) {
            return Err(format!(
                "cache-hit result differs from cold-plan result on `{q}`\ncold: {}\nwarm: {}",
                render(&cold),
                render(&warm)
            ));
        }
        let got = oracle::canonical_multiset(&cold.tuples());
        if got != expected {
            return Err(format!(
                "planned run disagrees with oracle on `{q}`\noracle: {expected:?}\nplanned: {got:?}"
            ));
        }
        if render(&cold) != render(&legacy) {
            return Err(format!(
                "planned run differs from legacy run (annotations included) on `{q}`\nlegacy: {}\nplanned: {}",
                render(&legacy),
                render(&cold)
            ));
        }
    }
    Ok(())
}

/// `Display` → parse must reproduce the query AST exactly.
fn roundtrip_query(q: &Query) -> Result<(), String> {
    let text = q.to_string();
    let back =
        parse_query(&text).map_err(|e| format!("printed query `{text}` fails to parse: {e}"))?;
    if &back != q {
        return Err(format!(
            "query display/parse round-trip changed the AST for `{text}`"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parallel exchange determinism
// ---------------------------------------------------------------------------

/// Evaluating mapping foreach queries on worker threads must produce a
/// target instance (canonical rendering, annotations included),
/// per-mapping decision counts and per-mapping foreach work (every
/// `EvalStats` field but the wall time) identical to the serial engine's:
/// the insert stage is single-writer and applies mappings in order, and
/// a worker's evaluation is the serial one's. The per-row reference
/// construction (`member_templates: false`), which builds every row's
/// member value and compares values where the default path compares its
/// templates against the merge index's snapshots, must agree the same
/// way.
pub fn law_parallel_exchange(scen: &Scenario) -> Result<(), String> {
    use dtr_mapping::exchange::ExchangeOptions;
    let serial = scen
        .tagged()
        .map_err(|e| format!("serial exchange failed on generated scenario: {e}"))?;
    let variants = [
        (
            "parallel exchange",
            ExchangeOptions {
                parallel: true,
                // Explicit cap so the threaded path runs even on one core
                // (auto sizing would fall back to the serial engine there).
                workers: 2,
                ..Default::default()
            },
        ),
        (
            "reference member construction",
            ExchangeOptions {
                member_templates: false,
                ..Default::default()
            },
        ),
    ];
    let before = canon(serial.target());
    let before_decisions = decisions(serial.report());
    for (name, opts) in &variants {
        let other = scen
            .tagged_with(opts)
            .map_err(|e| format!("{name} failed on generated scenario: {e}"))?;
        let after = canon(other.target());
        if before != after {
            return Err(format!(
                "{name} changed the target instance\ndefault: {before}\n{name}: {after}"
            ));
        }
        let after = decisions(other.report());
        if before_decisions != after {
            return Err(format!(
                "{name} changed per-mapping decisions\ndefault: {before_decisions:?}\n{name}: \
                 {after:?}"
            ));
        }
    }
    Ok(())
}

/// A report's per-mapping stats without what differs run to run: wall
/// times and journal event windows.
fn decisions(report: &ExchangeReport) -> Vec<MappingStats> {
    let strip = |s: &MappingStats| MappingStats {
        wall_ns: 0,
        eval: untimed(s.eval),
        started_at_event: 0,
        ended_at_event: 0,
        ..s.clone()
    };
    report.per_mapping.iter().map(strip).collect()
}

// ---------------------------------------------------------------------------
// Flight recorder / audit transparency
// ---------------------------------------------------------------------------

/// `stats` without its wall time, which differs run to run.
fn untimed(stats: EvalStats) -> EvalStats {
    EvalStats {
        eval_ns: 0,
        ..stats
    }
}

/// Everything one run shows the comparison: the canonical target, the
/// untimed per-mapping stats, the exchange's work, and each query's
/// canonical rows and untimed stats, or its error text.
type FlightOutcome = (String, Vec<MappingStats>, Work, Vec<QueryOutcome>);
type QueryOutcome = Result<(Vec<String>, EvalStats), String>;

/// The event-recording observability tiers are pure observers: running
/// the exchange and a query workload with the flight recorder, the audit
/// log and the decision journal capturing must produce byte-identical
/// canonical targets, per-mapping decision counts, the same exchange
/// work, and the same query results and stats but wall time (or identical
/// errors) as a run with the three gates off. Work is counted from
/// returned values, so it cannot depend on a tier. The journal records a
/// fresh member's annotations apart from writing them, so this holds the
/// two together.
pub fn law_flight(rng: &mut TestRng, scen: &Scenario, cfg: &GenConfig) -> Result<(), String> {
    // Draw the query workload once so both runs see identical queries.
    let queries: Vec<Query> = (0..cfg.queries_per_case)
        .map(|_| generators::gen_mxql_query(rng, scen, cfg))
        .collect();
    let run_all = |scen: &Scenario| -> Result<FlightOutcome, String> {
        let tagged = scen
            .tagged()
            .map_err(|e| format!("exchange failed on generated scenario: {e}"))?;
        let target = canon(tagged.target());
        let per_mapping = decisions(tagged.report());
        let results = queries
            .iter()
            .map(|q| {
                tagged
                    .run(q)
                    .map(|r| (oracle::canonical_multiset(&r.tuples()), untimed(r.stats)))
                    .map_err(|e| e.to_string())
            })
            .collect();
        Ok((target, per_mapping, tagged.report().work(), results))
    };
    let was = (
        dtr_obs::recorder::enabled(),
        dtr_obs::audit::enabled(),
        dtr_obs::journal::enabled(),
    );
    let set = |(flight, audit, journal): (bool, bool, bool)| {
        dtr_obs::recorder::set_enabled(flight);
        dtr_obs::audit::set_enabled(audit);
        dtr_obs::journal::set_enabled(journal);
    };
    set((false, false, false));
    let off = run_all(scen);
    set((true, true, true));
    let on = run_all(scen);
    set(was);
    let (off_target, off_decisions, off_work, off_results) = off?;
    let (on_target, on_decisions, on_work, on_results) = on?;
    if off_target != on_target {
        return Err(format!(
            "event recording changed the target instance\noff: {off_target}\non: {on_target}"
        ));
    }
    if off_decisions != on_decisions {
        return Err(format!(
            "event recording changed per-mapping decisions\noff: {off_decisions:?}\non: \
             {on_decisions:?}"
        ));
    }
    if off_work != on_work {
        return Err(format!(
            "event recording changed the exchange's work\noff: {off_work:?}\non: {on_work:?}"
        ));
    }
    for (q, (off_r, on_r)) in queries
        .iter()
        .zip(off_results.iter().zip(on_results.iter()))
    {
        if off_r != on_r {
            return Err(format!(
                "event recording changed the result or stats of `{q}`\noff: {off_r:?}\non: \
                 {on_r:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental exchange ≡ full re-exchange (update-stream conformance)
// ---------------------------------------------------------------------------

/// After every prefix of a seeded update stream, the incrementally
/// maintained target must equal a full re-exchange over the mutated
/// sources canonically (annotations included, set-member order
/// normalized: an apply may append members in another order), and the
/// synthesized report must agree with the full run on every per-mapping
/// decision count. Generated foreach queries include self-joins and
/// joins of two root sets, and streams edit sets below records and
/// choice alternatives, so the delta rule's multi-item terms and the
/// choice-path keys are exercised. The build and a final rebase run the full
/// exchange driver, so right after each the engine's annotated XML must
/// equal the full exchange's byte for byte. And any split of the stream is
/// one batch: the whole stream applied as one concatenated delta to a
/// second engine must end canonically equal, with equal decisions. After
/// every batch, each join index the engine keeps equals one built fresh
/// over the current sources: the same keys, with the same members per key.
/// The two engines' tallies are the solo runs of [`law_work_isolation`].
pub fn law_incremental(
    rng: &mut TestRng,
    scen: &Scenario,
    cfg: &GenConfig,
    exchange: &dtr_mapping::exchange::ExchangeOptions,
) -> Result<(), String> {
    use dtr_query::index::JoinIndex;
    let funcs = FunctionRegistry::with_builtins();
    let schemas: Vec<dtr_model::schema::Schema> =
        scen.sources.iter().map(|(s, _)| s.clone()).collect();
    let mut instances: Vec<Instance> = scen.sources.iter().map(|(_, i)| i.clone()).collect();
    for (inst, schema) in instances.iter_mut().zip(&schemas) {
        inst.annotate_elements(schema)
            .map_err(|e| format!("source annotation failed: {e}"))?;
    }
    let build = || {
        IncrementalExchange::new(
            schemas.clone(),
            instances.clone(),
            scen.target.clone(),
            scen.mappings.clone(),
            funcs.clone(),
            exchange.clone(),
        )
        .map_err(|e| format!("incremental engine failed to build: {e}"))
    };
    let full = |inc: &IncrementalExchange| {
        let views: Vec<dtr_query::eval::Source> = schemas
            .iter()
            .zip(inc.sources())
            .map(|(schema, instance)| dtr_query::eval::Source { schema, instance })
            .collect();
        execute_mappings_with(&views, &scen.target, &scen.mappings, &funcs, exchange)
            .map_err(|e| format!("full re-exchange failed: {e}"))
    };
    let decisions = |r: &ExchangeReport| {
        r.per_mapping
            .iter()
            .map(|s| {
                let counts = (s.tuples, s.bindings, s.rows_inserted, s.rows_merged);
                (s.mapping.clone(), counts)
            })
            .collect::<Vec<_>>()
    };
    // Two runs agree: equal renderings and equal per-mapping decisions.
    let agree =
        |what: &str, (a, ar): (String, &ExchangeReport), (b, br): (String, &ExchangeReport)| {
            if a != b {
                return Err(format!(
                    "{what}: targets differ\nincremental: {a}\nother: {b}"
                ));
            }
            if decisions(ar) != decisions(br) {
                return Err(format!(
                    "{what}: reports differ\nincremental: {:?}\nother: {:?}",
                    decisions(ar),
                    decisions(br)
                ));
            }
            Ok(())
        };
    let xml = |inst: &Instance| instance_to_xml(inst, WriteOptions::annotated());
    let same_bytes = |inc: &IncrementalExchange, when: &str| {
        let (full, report) = full(inc)?;
        let what = format!("incremental {when} vs full exchange, byte for byte");
        agree(
            &what,
            (xml(inc.target()), inc.report()),
            (xml(&full), &report),
        )
    };
    // The join indexes the engine keeps follow the sources: each equals
    // one built fresh over them, key for key and member for member.
    let fresh_indexes = |inc: &IncrementalExchange, what: &str| {
        for ix in inc.join_indexes() {
            let source = &inc.sources()[ix.source()];
            let fresh = JoinIndex::build(ix.source(), source, ix.set(), ix.path().to_vec());
            if *ix != fresh {
                return Err(format!(
                    "{what}: the kept join index over {} keyed on {:?} differs from one \
                     built fresh\nkept: {ix:?}\nfresh: {fresh:?}",
                    source.node_path(ix.set()),
                    ix.path()
                ));
            }
        }
        Ok(())
    };
    let mut inc = build()?;
    same_bytes(&inc, "build")?;
    let stream = generators::gen_update_stream(rng, scen, cfg, 4);
    for (step, delta) in stream.iter().enumerate() {
        inc.apply(delta)
            .map_err(|e| format!("incremental apply failed at step {step} ({delta:?}): {e}"))?;
        let (full, report) = full(&inc)?;
        let what = format!("incremental vs full re-exchange after step {step} ({delta:?})");
        agree(
            &what,
            (canon(inc.target()), inc.report()),
            (canon(&full), &report),
        )?;
        fresh_indexes(&inc, &format!("after step {step} ({delta:?})"))?;
    }
    // Statistics depend on the live instances alone: after the stream they
    // equal a fresh exchange's over the final sources, rebuilt from their
    // roots so that no member an edit detached survives in their arenas.
    let live = dtr_core::stats::Statistics::of(inc.sources().iter().chain([inc.target()]));
    let fresh = Scenario {
        sources: schemas
            .iter()
            .zip(inc.sources())
            .map(|(schema, inst)| {
                let mut rebuilt = Instance::new(inst.db());
                for &root in inst.roots() {
                    rebuilt.install_root(inst.label(root).clone(), inst.to_value(root));
                }
                (schema.clone(), rebuilt)
            })
            .collect(),
        target: scen.target.clone(),
        mappings: scen.mappings.clone(),
    }
    .tagged_with(exchange)
    .map_err(|e| format!("fresh exchange over the final sources failed: {e}"))?
    .statistics();
    if live != fresh {
        return Err(format!(
            "statistics after the stream differ from a fresh exchange's\n\
             incremental: {:?}\nfresh: {:?}",
            live.paths, fresh.paths
        ));
    }
    let one_batch = SourceDelta {
        edits: stream
            .iter()
            .flat_map(|d| d.edits.iter().cloned())
            .collect(),
    };
    let mut batched = build()?;
    batched
        .apply(&one_batch)
        .map_err(|e| format!("the stream as one batch failed to apply: {e}"))?;
    agree(
        "step by step vs the stream as one batch",
        (canon(inc.target()), inc.report()),
        (canon(batched.target()), batched.report()),
    )?;
    fresh_indexes(&batched, "after the stream as one batch")?;
    law_work_isolation(
        build,
        [&stream, std::slice::from_ref(&one_batch)],
        [inc.work(), batched.work()],
    )?;
    inc.rebase()
        .map_err(|e| format!("incremental rebase failed: {e}"))?;
    same_bytes(&inc, "rebase")
}

/// No work leaks between sessions: two engines built from one scenario,
/// with their update streams applied interleaved batch by batch (first
/// engine, second engine, next batch), each report the work tally
/// (`IncrementalExchange::work`) they report when run alone, `solo`.
pub fn law_work_isolation(
    build: impl Fn() -> Result<IncrementalExchange, String>,
    streams: [&[SourceDelta]; 2],
    solo: [Work; 2],
) -> Result<(), String> {
    let mut engines = [build()?, build()?];
    let rounds = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    for step in 0..rounds {
        for (k, engine) in engines.iter_mut().enumerate() {
            if let Some(delta) = streams[k].get(step) {
                engine.apply(delta).map_err(|e| {
                    format!("work isolation: engine {k} failed at step {step} ({delta:?}): {e}")
                })?;
            }
        }
    }
    for (k, engine) in engines.iter().enumerate() {
        if engine.work() != solo[k] {
            return Err(format!(
                "work isolation: engine {k}'s tally differs when another engine's batches \
                 interleave\ninterleaved: {:?}\nalone: {:?}",
                engine.work(),
                solo[k]
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mapping laws
// ---------------------------------------------------------------------------

/// Generated mappings validate, their text form round-trips through
/// [`Mapping::parse`], and the exchanged target satisfies every mapping
/// (Section 4.3's satisfaction check).
pub fn law_mappings(
    scen: &Scenario,
    tagged: &dtr_core::tagged::TaggedInstance,
) -> Result<(), String> {
    let schema_refs: Vec<&dtr_model::schema::Schema> =
        scen.sources.iter().map(|(s, _)| s).collect();
    let source_catalog = tagged.source_catalog();
    let target = dtr_query::eval::Source {
        schema: tagged.setting().target_schema(),
        instance: tagged.target(),
    };
    for m in &scen.mappings {
        m.validate(&schema_refs, &scen.target)
            .map_err(|e| format!("generated mapping `{}` fails validation: {e}", m.name))?;
        let text = format!("foreach {} exists {}", m.foreach, m.exists);
        let back = Mapping::parse(m.name.as_str(), &text)
            .map_err(|e| format!("printed mapping `{text}` fails to parse: {e}"))?;
        if &back != m {
            return Err(format!(
                "mapping display/parse round-trip changed `{}`",
                m.name
            ));
        }
        let sat = is_satisfied(m, source_catalog.sources(), target, tagged.functions())
            .map_err(|e| format!("satisfaction check failed for `{}`: {e}", m.name))?;
        if !sat {
            return Err(format!(
                "exchange output does not satisfy mapping `{}`",
                m.name
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Provenance laws (Section 6)
// ---------------------------------------------------------------------------

/// Theorems 6.1/6.4 hold exhaustively, and for sampled target values the
/// provenance chain is ordered: `q_where ⊑ q_what ⊑ q_why` as queries and
/// the fact footprints nest the same way.
pub fn law_provenance(tagged: &dtr_core::tagged::TaggedInstance) -> Result<(), String> {
    let setting = tagged.setting();
    let target_schema = setting.target_schema();
    for m in setting.mappings() {
        let name = m.name.clone();
        if let Some((es, et)) = check_theorem_6_1(tagged, &name).map_err(|e| e.to_string())? {
            return Err(format!("theorem 6.1 fails for `{name}` at {es} → {et}"));
        }
        if let Some((es, et)) = check_theorem_6_4(tagged, &name).map_err(|e| e.to_string())? {
            return Err(format!("theorem 6.4 fails for `{name}` at {es} ⇒ {et}"));
        }
        for e in target_schema.atomic_elements() {
            let et = dtr_model::value::ElementRef::new(target_schema.name(), target_schema.path(e));
            if positions_for(m, target_schema, &et).is_empty() {
                continue;
            }
            // Up to three values per (mapping, element) keep the law cheap.
            for node in tagged
                .target()
                .interpretation_by(e, &name)
                .into_iter()
                .take(3)
            {
                provenance_chain(tagged, &name, node)?;
            }
        }
    }
    Ok(())
}

fn provenance_chain(
    tagged: &dtr_core::tagged::TaggedInstance,
    m: &MappingName,
    node: NodeId,
) -> Result<(), String> {
    let ctx = |kind: &str, e: &MxqlError| format!("{kind}-provenance of node via `{m}`: {e}");
    let w = provenance_of(tagged, ProvenanceKind::Where, m, node).map_err(|e| ctx("where", &e))?;
    let what = provenance_of(tagged, ProvenanceKind::What, m, node).map_err(|e| ctx("what", &e))?;
    let why = provenance_of(tagged, ProvenanceKind::Why, m, node).map_err(|e| ctx("why", &e))?;
    if !element_included(&w.query, &what.query) {
        return Err(format!(
            "provenance containment q_where ⊑ q_what fails for `{m}`"
        ));
    }
    if !element_included(&what.query, &why.query) {
        return Err(format!(
            "provenance containment q_what ⊑ q_why fails for `{m}`"
        ));
    }
    let we: HashSet<_> = w.fact_elements(tagged);
    let whate: HashSet<_> = what.fact_elements(tagged);
    let whye: HashSet<_> = why.fact_elements(tagged);
    if !we.is_subset(&whate) || !whate.is_subset(&whye) {
        return Err(format!(
            "provenance fact footprints do not nest for `{m}`: where={we:?} what={whate:?} why={whye:?}"
        ));
    }
    if w.facts.is_empty() {
        return Err(format!(
            "where-provenance of an exchanged value via `{m}` has no facts\n\
             node: {} = {:?}\nquery: {}",
            tagged.target().node_path(node),
            tagged.target().atomic(node),
            w.query
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Metastore laws (Section 7)
// ---------------------------------------------------------------------------

/// Encode → view round-trip: the queryable meta instance exposes exactly
/// the schemas' elements and the setting's mappings, and the store's id
/// maps are mutually consistent.
pub fn law_metastore(tagged: &dtr_core::tagged::TaggedInstance) -> Result<(), String> {
    let setting = tagged.setting();
    let runner = MetaRunner::new(setting).map_err(|e| format!("metastore build: {e}"))?;
    let store = runner.store();
    let meta_catalog = Catalog::new(vec![runner.meta_source()]);

    // Element paths, read back *through the queryable view* by the oracle.
    let q = parse_query("select e.db, e.path from Element e").expect("static query parses");
    let rows = oracle::eval(&meta_catalog, &q, None)?;
    let mut got: Vec<String> = rows.iter().map(|r| format!("{}:{}", r[0], r[1])).collect();
    got.sort();
    got.dedup();
    let mut want: Vec<String> = Vec::new();
    for s in setting
        .source_schemas()
        .iter()
        .chain(std::iter::once(setting.target_schema()))
    {
        for (e, _) in s.elements() {
            want.push(format!("{}:{}", s.name(), s.path(e)));
        }
    }
    want.sort();
    want.dedup();
    if got != want {
        return Err(format!(
            "metastore element view round-trip mismatch\n view: {got:?}\nschemas: {want:?}"
        ));
    }

    // Mapping rows, read back through the view.
    let q = parse_query("select m.mid from Mapping m").expect("static query parses");
    let rows = oracle::eval(&meta_catalog, &q, None)?;
    let mut got: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
    got.sort();
    let mut want: Vec<String> = store
        .mapping_names()
        .iter()
        .map(|m| m.as_str().to_string())
        .collect();
    want.sort();
    if got != want {
        return Err(format!(
            "metastore mapping view round-trip mismatch\n view: {got:?}\nstore: {want:?}"
        ));
    }

    // eid / path indexes agree in both directions.
    for s in setting
        .source_schemas()
        .iter()
        .chain(std::iter::once(setting.target_schema()))
    {
        for (e, _) in s.elements() {
            let path = s.path(e);
            let eid = store
                .eid(s.name(), e)
                .ok_or_else(|| format!("metastore has no eid for {}:{path}", s.name()))?;
            // A set and its `*` member share a canonical path, so resolve
            // by path and require the element's eid among the candidates.
            let candidates: Vec<&str> = store
                .elements
                .iter()
                .filter(|r| r.db == s.name() && r.path == path)
                .map(|r| r.eid.as_str())
                .collect();
            if !candidates.contains(&eid) {
                return Err(format!(
                    "metastore eid/path indexes disagree for {}:{path} ({eid} not in {candidates:?})",
                    s.name(),
                ));
            }
            if store.element_by_path(s.name(), &path).is_none() {
                return Err(format!("metastore cannot resolve {}:{path}", s.name()));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// XML round-trip
// ---------------------------------------------------------------------------

/// Annotated write → parse reproduces every instance of the scenario
/// byte-for-byte in the canonical rendering (values, structure, element and
/// mapping annotations).
pub fn law_xml_roundtrip(
    scen: &Scenario,
    tagged: &dtr_core::tagged::TaggedInstance,
) -> Result<(), String> {
    let mut pairs: Vec<(&dtr_model::schema::Schema, &Instance)> =
        scen.sources.iter().map(|(s, i)| (s, i)).collect();
    pairs.push((tagged.setting().target_schema(), tagged.target()));
    for (schema, inst) in pairs {
        let xml = instance_to_xml(inst, WriteOptions::annotated());
        let back = instance_from_xml(&xml, schema)
            .map_err(|e| format!("xml for `{}` fails to parse back: {e}", inst.db()))?;
        if canon(inst) != canon(&back) {
            return Err(format!(
                "xml round-trip changed instance `{}`\nbefore: {}\n after: {}",
                inst.db(),
                canon(inst),
                canon(&back)
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Durability: crash-recovery adjacency (storage-fault soak)
// ---------------------------------------------------------------------------

/// The crash-recovery law over a seeded update stream: at every injected
/// crash point — after the WAL commit but before the epoch publish, inside
/// a torn frame append, under a bit flip, mid-checkpoint-rotation, and
/// after an exhausted-fsync commit failure — reopening the log recovers a
/// state byte-identical to exactly one of the two adjacent epochs
/// (pre-delta if the frame never became durable, post-delta if it did).
pub fn law_recovery(rng: &mut TestRng, scen: &Scenario, cfg: &GenConfig) -> Result<(), String> {
    use dtr_core::store::{DurableOptions, DurableSession};
    use dtr_mapping::durable::{
        encode_frame, FaultVfs, FrameKind, MemVfs, StorageFault, Vfs, WAL_MAGIC,
    };
    use std::sync::Arc;

    let make_setting = || -> Result<MappingSetting, String> {
        MappingSetting::new(
            scen.sources.iter().map(|(s, _)| s.clone()).collect(),
            scen.target.clone(),
            scen.mappings.clone(),
        )
        .map_err(|e| format!("setting failed to build: {e}"))
    };
    let sources: Vec<Instance> = scen.sources.iter().map(|(_, i)| i.clone()).collect();
    let opts = || DurableOptions {
        checkpoint_every: 0,
        backoff_ms: 0,
        ..DurableOptions::default()
    };
    let recover_canon = |image: MemVfs, what: &str| -> Result<String, String> {
        let (rs, _report) = DurableSession::open(Arc::new(image), "wal", opts())
            .map_err(|e| format!("recovery failed ({what}): {e}"))?;
        Ok(rs.pin().canonical().to_string())
    };

    let vfs = Arc::new(MemVfs::new());
    let mut s = DurableSession::create(
        make_setting()?,
        sources.clone(),
        None,
        vfs.clone(),
        "wal",
        opts(),
    )
    .map_err(|e| format!("durable create failed: {e}"))?;
    let stream = generators::gen_update_stream(rng, scen, cfg, 3);

    for (step, delta) in stream.iter().enumerate() {
        let pre = s.pin().canonical().to_string();
        let pre_len = s.wal_committed_len();
        s.apply(delta)
            .map_err(|e| format!("durable apply failed at step {step} ({delta:?}): {e}"))?;
        let post = s.pin().canonical().to_string();
        let post_len = s.wal_committed_len();
        let path = format!("wal/wal-{:06}.log", s.wal_segment());

        // Crash point: after commit, before publish — the frame is
        // durable, so recovery must land on the post-delta epoch.
        let got = recover_canon(vfs.clone_files(), "post-commit")?;
        if got != post {
            return Err(format!(
                "step {step}: crash between WAL commit and publish did not \
                 recover the post-delta state"
            ));
        }

        // Crash points: torn appends at several byte offsets inside the
        // frame — the commit never happened, so recovery must land on the
        // pre-delta epoch (and truncate the torn tail, not fail).
        let span = post_len - pre_len;
        for cut in [pre_len + 1, pre_len + span / 2, post_len - 1] {
            if cut <= pre_len || cut >= post_len {
                continue;
            }
            let img = vfs.clone_files();
            img.truncate(&path, cut)
                .map_err(|e| format!("step {step}: image truncate failed: {e}"))?;
            let got = recover_canon(img, "torn frame")?;
            if got != pre {
                return Err(format!(
                    "step {step}: torn frame (cut at byte {cut} of \
                     {pre_len}..{post_len}) did not recover the pre-delta state"
                ));
            }
        }

        // Crash point: a bit flip inside the committed frame — the CRC
        // must reject the frame, recovering the pre-delta epoch.
        let img = vfs.clone_files();
        let bytes = img
            .read(&path)
            .map_err(|e| format!("step {step}: image read failed: {e}"))?;
        let mut flipped = bytes.clone();
        let off = (pre_len + rng.below(span)) as usize;
        let bit = rng.below(8) as u8;
        flipped[off] ^= 1 << bit;
        img.truncate(&path, 0)
            .map_err(|e| format!("step {step}: image reset failed: {e}"))?;
        img.append(&path, &flipped)
            .map_err(|e| format!("step {step}: image rewrite failed: {e}"))?;
        let got = recover_canon(img, "bit flip")?;
        if got != pre {
            return Err(format!(
                "step {step}: bit flip at byte {off} bit {bit} did not recover \
                 the pre-delta state"
            ));
        }
    }

    // Crash point: mid-checkpoint-rotation — the next segment exists but
    // its leading checkpoint frame is torn. Recovery must discard it and
    // replay the old segment, landing on the pre-checkpoint state.
    let pre_ckpt = s.pin().canonical().to_string();
    let img = vfs.clone_files();
    let next = format!("wal/wal-{:06}.log", s.wal_segment() + 1);
    let frame = encode_frame(FrameKind::Checkpoint, b"never finished");
    let mut torn = WAL_MAGIC.to_vec();
    torn.extend_from_slice(&frame[..frame.len() - 5]);
    img.append(&next, &torn)
        .map_err(|e| format!("torn rotation image failed: {e}"))?;
    let got = recover_canon(img, "mid-checkpoint")?;
    if got != pre_ckpt {
        return Err(
            "crash mid-checkpoint-rotation did not recover the pre-checkpoint state".to_string(),
        );
    }

    // A completed checkpoint is itself a recovery point: reopening the
    // rotated log must reproduce the post-checkpoint state byte-for-byte.
    s.checkpoint()
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    let post_ckpt = s.pin().canonical().to_string();
    let got = recover_canon(vfs.clone_files(), "post-checkpoint")?;
    if got != post_ckpt {
        return Err("reopen after checkpoint did not recover the checkpointed state".to_string());
    }

    // Crash point: fsync failures exhaust the retry budget — the commit
    // never lands, the session degrades to read-only, and recovery lands
    // on the pre-delta epoch.
    if let Some(delta) = stream.first() {
        let fvfs = Arc::new(FaultVfs::new(MemVfs::new()));
        let mut s2 = DurableSession::create(
            make_setting()?,
            sources,
            None,
            fvfs.clone(),
            "wal",
            DurableOptions {
                checkpoint_every: 0,
                retries: 1,
                backoff_ms: 0,
                ..DurableOptions::default()
            },
        )
        .map_err(|e| format!("durable create (fault vfs) failed: {e}"))?;
        let pre = s2.pin().canonical().to_string();
        fvfs.schedule(StorageFault::FsyncFail {
            at: 1,
            count: u64::MAX,
        });
        if s2.apply(delta).is_ok() {
            return Err("apply under persistent fsync failure reported success".to_string());
        }
        if s2.read_only().is_none() {
            return Err("persistent fsync failure did not degrade the session".to_string());
        }
        let got = recover_canon(fvfs.inner().clone_files(), "fsync failure")?;
        if got != pre {
            return Err(
                "crash after failed fsync commit did not recover the pre-delta state".to_string(),
            );
        }
    }
    Ok(())
}
