//! An interactive MXQL shell over a tagged instance.
//!
//! ```text
//! cargo run --release --bin mxql                 # the Figure 1 example
//! cargo run --release --bin mxql -- --portal 100 # the Section 8 portal
//! cargo run --release --bin mxql -- --profile    # per-query EXPLAIN profile
//! ```
//!
//! Enter MXQL queries terminated by `;`. Meta-commands:
//!
//! * `.mappings` — list the mappings of the setting;
//! * `.schema <db>` — print a schema as an element tree;
//! * `.store` — dump the Figure 5 metastore relations;
//! * `.translate <query>;` — show the Section 7.3 translation;
//! * `.mode direct|translated|virtual` — switch the execution engine
//!   (`virtual` answers plain target queries over the sources, never
//!   touching the materialized instance; `order by`, `limit` and function
//!   calls other than `getElAnnot`/`getMapAnnot` work there; in
//!   `translated` and `virtual` mode, order-by keys must appear in the
//!   select clause and the limit cuts the de-duplicated union, and with a
//!   limit a virtual answer may keep rows the materialized one cuts);
//! * `.lint` — run the mapping diagnostics;
//! * `.whatif <db|mapping,...>` — impact analysis;
//! * `.save <file>` — write the annotated instance as XML;
//!   `.save wal <dir>` instead starts a *durable* session: every later
//!   `.delta` batch is committed to a write-ahead log in `<dir>` before it
//!   is applied;
//! * `.open <dir>` — recover a durable session from its write-ahead log
//!   (after a crash or a clean exit): loads the latest intact checkpoint,
//!   replays the committed delta suffix, reports torn tails as warnings;
//! * `.checkpoint` — fold the durable session's delta suffix into a fresh
//!   checkpoint segment (renormalizing the target to canonical form);
//! * `.profile [on|off|json]` — toggle or dump the `dtr-obs` profile
//!   (also enabled by `--profile` or `DTR_PROFILE=1`);
//! * `.explain <query>;` — translation EXPLAIN: every Section 7.3 rewrite
//!   step plus the final plain quer(ies), followed by the EXPLAIN ANALYZE
//!   operator tree of one run of the cached plan, each stage labelled
//!   with the comparisons it applies;
//! * `.analyze <query>;` — EXPLAIN ANALYZE: run the query with
//!   per-operator instrumentation and print the operator tree (actual rows
//!   in/out, wall time, guard charges per scan/bind/filter/hash-join
//!   stage); the result is byte-identical to a plain run;
//! * `.stats [json]` — per-path statistics of the current instance
//!   (sources and target): tuples, sets and distinct values, computed on
//!   demand from the instance, so queries never change them;
//! * `.trace <path> [value]` — replay a target value's journal lineage
//!   (mapping → source binding → insert/merge events), cross-checked
//!   against the Section 6 where-provenance query;
//! * `.journal [on|off|json|export <file>]` — inspect or export the
//!   provenance event journal (on by default in this shell; it keeps the
//!   most recent 65,536 events);
//! * `.timeline [on|off|export <file>]` — the flight recorder: a bounded
//!   ring of timestamped span/counter/guard/exchange events (`DTR_FLIGHT=1`
//!   to capture from process start); `export` writes Chrome Trace Event
//!   JSON loadable in Perfetto or `chrome://tracing`;
//! * `.audit [on|off|last|export <file>]` — the per-request audit log: one
//!   record per query, translation, virtual answer or exchange with
//!   fingerprint, row counts, wall latency, and guard outcome
//!   (`DTR_AUDIT=1`); `export` writes JSONL;
//! * `.limits [off | <key> <n> ...]` — resource budget for direct,
//!   translated and virtual query execution (`deadline-ms`, `max-rows`,
//!   `max-bindings`, `max-bytes`); an exhausted budget aborts the query
//!   with a structured guard error, never a panic;
//! * `.delta <op> <path> <idx> [...]` — apply source edits through the
//!   incremental exchange engine (`del US.houses 0`, `dup US.houses 1`,
//!   `mod US.houses 0 price=1M`; chain edits with `|`); the target is
//!   maintained in place — only affected mappings re-evaluate and only
//!   touched member classes rebuild;
//! * `.rebase` — drop the incremental state and rebuild the target from
//!   the current (edited) sources with a full exchange;
//! * `.help` (the full listing), `.quit`.
//!
//! A command given an argument it does not understand (`.mode virtaul`,
//! `.save wal` without a directory, `.whatif` of an unknown mapping or
//! database) prints its usage and changes nothing.

use dtr::core::provenance::{provenance_of, ProvenanceKind};
use dtr::core::runner::MetaRunner;
use dtr::core::tagged::{MappingSetting, MxqlError, Request, TaggedInstance};
use dtr::core::testkit;
use dtr::core::translate::{translate, translate_explained};
use dtr::core::virtualize::answer_virtually;
use dtr::core::whatif::{impact_of_mappings, impact_of_source};
use dtr::mapping::lint::lint_mappings;
use dtr::model::schema::Schema;
use dtr::model::value::MappingName;
use dtr::portal::scenario::{tagged as portal_tagged, ScenarioConfig};
use dtr::query::parser::parse_query;
use dtr_obs::guard::Budget;
use std::io::{BufRead, Write};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Direct,
    Translated,
    Virtual,
}

/// Parses `.mode`'s argument; any other word is `None`, and the shell
/// keeps its mode.
fn parse_mode(rest: &str) -> Option<Mode> {
    match rest.trim() {
        "direct" => Some(Mode::Direct),
        "translated" => Some(Mode::Translated),
        "virtual" => Some(Mode::Virtual),
        _ => None,
    }
}

/// Where `.save` writes: the annotated target as XML to a file, or a
/// durable session's write-ahead log to a directory.
#[derive(Debug, PartialEq)]
enum SaveTo<'a> {
    Xml(&'a str),
    Wal(&'a str),
}

/// Parses `.save`'s arguments: `wal <dir>`, or one file name.
fn parse_save(rest: &str) -> Result<SaveTo<'_>, &'static str> {
    match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["wal", dir] => Ok(SaveTo::Wal(dir)),
        ["wal"] => Err("usage: .save wal <dir>"),
        [file] => Ok(SaveTo::Xml(file)),
        _ => Err("usage: .save <file.xml> | .save wal <dir>"),
    }
}

/// What `.whatif` removes: the named mappings, or every mapping over one
/// source database.
#[derive(Debug, PartialEq)]
enum WhatIf<'a> {
    Mappings(Vec<MappingName>),
    Source(&'a str),
}

/// Parses `.whatif`'s argument against the setting: a comma-separated
/// list of its mappings, or one of its source databases.
fn parse_whatif<'a>(rest: &'a str, setting: &MappingSetting) -> Result<WhatIf<'a>, String> {
    let arg = rest.trim();
    if arg.is_empty() {
        return Err("usage: .whatif <db|m1,m2,...>".into());
    }
    let names: Vec<MappingName> = arg.split(',').map(|m| MappingName::new(m.trim())).collect();
    if names.iter().all(|m| setting.mapping(m).is_some()) {
        Ok(WhatIf::Mappings(names))
    } else if setting.source_schema(arg).is_some() {
        Ok(WhatIf::Source(arg))
    } else {
        Err(format!("unknown mapping or database `{arg}`"))
    }
}

/// The command line `mxql` accepts.
const USAGE: &str = "usage: mxql [--portal N] [--profile] [--no-journal]";

/// Parses `--portal`'s value: a positive number of listings per source. A
/// missing value, or another flag in its place, is an error rather than a
/// default.
fn parse_portal(value: Option<&str>) -> Result<usize, &'static str> {
    match value.map(str::parse::<usize>) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err("--portal takes a positive number of listings per source"),
    }
}

fn load() -> TaggedInstance {
    // The journal is on by default in this interactive shell (ring-bounded,
    // so always-on capture stays safe): enabling it *before* the exchange
    // runs is what gives `.trace` its lineage. `DTR_JOURNAL=0` or
    // `.journal off` disable it.
    if std::env::var("DTR_JOURNAL").is_err() {
        dtr_obs::journal::set_enabled(true);
    }
    let mut portal: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--portal" => match parse_portal(args.next().as_deref()) {
                Ok(n) => portal = Some(n),
                Err(msg) => {
                    eprintln!("mxql: {msg}");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--profile" => dtr_obs::set_enabled(true),
            "--no-journal" => dtr_obs::journal::set_enabled(false),
            other => eprintln!("unknown flag {other} (ignored)"),
        }
    }
    match portal {
        Some(n) => {
            eprintln!("building the Section 8 portal ({n} listings per source)...");
            portal_tagged(ScenarioConfig {
                listings_per_source: n,
                ..Default::default()
            })
        }
        None => {
            eprintln!("loading the Figure 1 running example (use --portal N for Section 8)");
            testkit::figure1()
        }
    }
}

/// Every dot-command the dispatch in `main` understands, with the
/// one-line description `.help` prints. A unit test asserts this table
/// stays in sync with the dispatch `match` — add new commands here first.
const COMMANDS: &[(&str, &str)] = &[
    (".mappings", "list the mappings of the setting"),
    (".schema", "<db> — print a schema as an element tree"),
    (".store", "dump the Figure 5 metastore relations"),
    (".translate", "<query>; — show the Section 7.3 translation"),
    (
        ".explain",
        "<query>; — translation rewrite steps, then the operator tree of one analyzed run",
    ),
    (
        ".analyze",
        "<query>; — EXPLAIN ANALYZE: per-operator rows, wall time, guard charges",
    ),
    (
        ".mode",
        "direct|translated|virtual — switch the execution engine",
    ),
    (".lint", "run the mapping diagnostics"),
    (".whatif", "<db|m1,m2,...> — impact analysis"),
    (
        ".save",
        "<file> — write the annotated instance as XML; `wal <dir>` starts a durable WAL-backed session",
    ),
    (
        ".open",
        "<dir> — recover a durable session from its write-ahead log",
    ),
    (
        ".checkpoint",
        "fold the durable session's delta suffix into a fresh checkpoint segment",
    ),
    (
        ".profile",
        "[on|off|json] — toggle or dump the dtr-obs profile tree",
    ),
    (
        ".stats",
        "[json] — per-path tuples, sets and distinct values of the current instance",
    ),
    (
        ".trace",
        "<path> [value] — replay a target value's journal lineage",
    ),
    (
        ".journal",
        "[on|off|json|export <file>] — the provenance event journal",
    ),
    (
        ".timeline",
        "[on|off|export <file>] — the flight recorder; export is Perfetto-loadable",
    ),
    (
        ".audit",
        "[on|off|last|export <file>] — the per-request audit log (JSONL)",
    ),
    (
        ".limits",
        "[off | deadline-ms N | max-rows N | max-bindings N | max-bytes N]",
    ),
    (
        ".delta",
        "del|dup|mod <path> <idx> [f=v] — incremental source edits (chain with |)",
    ),
    (
        ".rebase",
        "rebuild the target from the edited sources with a full exchange",
    ),
    (".help", "this listing"),
    (".quit", "leave the shell"),
    (".exit", "alias of .quit"),
];

fn help() {
    println!("enter an MXQL query terminated by `;`, e.g.");
    println!("  select x.hid, m from Portal.estates x, x.value@map m;");
    println!("meta commands:");
    for (name, desc) in COMMANDS {
        println!("  {name:<11} {desc}");
    }
}

/// Parses `.limits` arguments into a fresh budget: `off` clears every
/// limit; otherwise `<key> <n>` pairs tighten the current one.
fn parse_limits(rest: &str, current: &Budget) -> Result<Budget, String> {
    let args: Vec<&str> = rest.split_whitespace().collect();
    if args == ["off"] {
        return Ok(Budget::unlimited());
    }
    let mut budget = current.clone();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value: u64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("`{key}` takes a number"))?;
        match *key {
            "deadline-ms" => budget.deadline = Some(Duration::from_millis(value)),
            "max-rows" => budget.max_rows = Some(value),
            "max-bindings" => budget.max_bindings = Some(value),
            "max-bytes" => budget.max_result_bytes = Some(value),
            other => return Err(format!("unknown limit `{other}`")),
        }
    }
    Ok(budget)
}

/// Prints the active limits (the `.limits` no-argument form).
fn show_limits(budget: &Budget) {
    if !budget.is_limited() {
        println!("limits: off (unlimited)");
        return;
    }
    let fmt = |v: Option<u64>| v.map_or("-".to_string(), |n| n.to_string());
    println!(
        "limits: deadline-ms {}  max-rows {}  max-bindings {}  max-bytes {}",
        budget
            .deadline
            .map_or("-".to_string(), |d| d.as_millis().to_string()),
        fmt(budget.max_rows),
        fmt(budget.max_bindings),
        fmt(budget.max_result_bytes),
    );
    println!("(applies to direct, translated and virtual execution; `.limits off` clears)");
}

/// Parses the `.delta` edit mini-language against the session's current
/// sources: `del <path> <idx>` removes a member, `dup <path> <idx>`
/// re-inserts a copy of one, and `mod <path> <idx> <field>=<value>`
/// replaces one atomic field of a member. Edits chain with `|` and apply
/// as one atomic batch.
fn parse_delta_edits(
    rest: &str,
    sources: &[dtr::model::instance::Instance],
) -> Result<dtr::mapping::delta::SourceDelta, String> {
    use dtr::mapping::delta::SourceDelta;
    use dtr::model::instance::Value;
    let member_value = |path: &str, idx: usize| -> Result<Value, String> {
        let mut parts = path.split('.');
        let root = parts.next().unwrap_or_default();
        let (inst, mut node) = sources
            .iter()
            .find_map(|s| s.root(root).map(|n| (s, n)))
            .ok_or_else(|| format!("no source has a root `{root}`"))?;
        for label in parts {
            node = inst
                .child_by_label(node, label)
                .ok_or_else(|| format!("`{path}`: no field `{label}`"))?;
        }
        let members = inst
            .set_members(node)
            .ok_or_else(|| format!("`{path}` is not a set"))?;
        let &m = members
            .get(idx)
            .ok_or_else(|| format!("{path}[{idx}]: set has {} member(s)", members.len()))?;
        Ok(inst.to_value(m))
    };
    let mut delta = SourceDelta::new();
    for chunk in rest.split('|') {
        let args: Vec<&str> = chunk.split_whitespace().collect();
        let parse_idx = |s: &&str| -> Result<usize, String> {
            s.parse().map_err(|_| format!("bad index `{s}`"))
        };
        match args.as_slice() {
            ["del", path, idx] => delta = delta.delete(*path, parse_idx(idx)?),
            ["dup", path, idx] => {
                let v = member_value(path, parse_idx(idx)?)?;
                delta = delta.insert(*path, v);
            }
            ["mod", path, idx, assign] => {
                let (field, value) = assign
                    .split_once('=')
                    .ok_or_else(|| format!("`{assign}` is not <field>=<value>"))?;
                let idx = parse_idx(idx)?;
                let Value::Record(mut fields) = member_value(path, idx)? else {
                    return Err(format!("{path}[{idx}] is not a record member"));
                };
                let slot = fields
                    .iter_mut()
                    .find(|(l, _)| l.as_str() == field)
                    .ok_or_else(|| format!("{path}[{idx}] has no field `{field}`"))?;
                slot.1 = Value::str(value);
                delta = delta.modify(*path, idx, Value::Record(fields));
            }
            [] => {}
            other => {
                return Err(format!(
                    "unknown edit `{}`; use del|dup|mod (see .help)",
                    other.join(" ")
                ))
            }
        }
    }
    if delta.edits.is_empty() {
        return Err("usage: .delta del|dup|mod <path> <idx> [field=value] [| ...]".into());
    }
    Ok(delta)
}

/// `.trace`: resolve the target values at `path` (optionally filtered to one
/// value), replay each one's journal lineage along its ancestor chain, and
/// cross-check the journaled mappings against the Section 6 where-provenance
/// query.
fn trace_values(tagged: &TaggedInstance, path: &str, filter: Option<&str>) {
    use dtr_obs::journal::Outcome;
    let mut values = tagged.target_values(path);
    if let Some(f) = filter {
        values.retain(|(_, v)| v.as_str() == Some(f) || v.to_string() == f);
    }
    if values.is_empty() {
        match filter {
            Some(f) => println!("no target value `{f}` at `{path}`"),
            None => println!("no target values at `{path}` (expects a canonical element path)"),
        }
        return;
    }
    const LIMIT: usize = 3;
    for (node, value) in values.iter().take(LIMIT) {
        let elem = tagged
            .element_of(*node)
            .map(|e| e.to_string())
            .unwrap_or_else(|| "?".into());
        println!("target node {} = {value}  ({elem})", node.0);
        let mappings = tagged.mappings_of(*node);
        let names: Vec<&str> = mappings.iter().map(|m| m.as_str()).collect();
        println!("  f_mp annotations: {{{}}}", names.join(", "));

        // Journal events along the ancestor chain (leaf up to the root):
        // inserts/merges land on set members, annotations on every node.
        let mut chain = vec![*node];
        let mut cur = *node;
        while let Some(p) = tagged.target().parent(cur) {
            chain.push(p);
            cur = p;
        }
        let mut events: Vec<dtr_obs::JournalEvent> = Vec::new();
        for n in &chain {
            events.extend(dtr_obs::journal::events_for(u64::from(n.0)));
        }
        events.sort_by_key(|e| e.id);
        let key_events: Vec<&dtr_obs::JournalEvent> = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Inserted | Outcome::PnfMerged { .. }))
            .collect();
        let ann_written = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::AnnotationWritten))
            .count();
        let ann_suppressed = events
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::AnnotationSuppressed { .. }))
            .count();
        if events.is_empty() {
            println!("  lineage: no journal events — was the journal on during the exchange?");
            println!("           (restart without --no-journal / DTR_JOURNAL=0)");
            continue;
        }
        println!(
            "  lineage: {} insert/merge event(s), {ann_written} annotation write(s), \
             {ann_suppressed} suppressed",
            key_events.len()
        );
        for e in key_events.iter().take(8) {
            println!("    {}", e.render());
        }

        // Cross-check: every annotating mapping must (a) have journal events
        // on the chain and (b) reach this value by where-provenance.
        let journaled: std::collections::BTreeSet<&str> =
            events.iter().filter_map(|e| e.mapping.as_deref()).collect();
        let mut agree = true;
        for m in mappings {
            let in_journal = journaled.contains(m.as_str());
            match provenance_of(tagged, ProvenanceKind::Where, m, *node) {
                Ok(p) => {
                    println!(
                        "  where-provenance via {m}: {} fact(s){}",
                        p.facts.len(),
                        if in_journal {
                            ", journaled"
                        } else {
                            ", NOT journaled"
                        }
                    );
                    if p.facts.is_empty() || !in_journal {
                        agree = false;
                    }
                }
                Err(e) => {
                    println!("  where-provenance via {m}: {e}");
                    agree = false;
                }
            }
        }
        println!(
            "  => lineage {} where-provenance",
            if agree {
                "agrees with"
            } else {
                "DISAGREES with"
            }
        );
    }
    if values.len() > LIMIT {
        println!(
            "... and {} more value(s); narrow with `.trace {path} <value>`",
            values.len() - LIMIT
        );
    }
}

/// Starts a WAL-backed durable session at `dir` from the shell's current
/// state: the live incremental session's (possibly edited) sources when
/// one exists, the pristine tagged sources otherwise.
fn start_durable(
    tagged: &TaggedInstance,
    session: Option<&dtr::core::incremental::IncrementalSession>,
    dir: &str,
) -> Result<dtr::core::store::DurableSession, MxqlError> {
    let setting = dtr::core::tagged::MappingSetting::new(
        tagged.setting().source_schemas().to_vec(),
        tagged.setting().target_schema().clone(),
        tagged.setting().mappings().to_vec(),
    )?;
    let sources = match session {
        Some(s) => s.sources().to_vec(),
        None => tagged.source_instances().to_vec(),
    };
    let vfs: std::sync::Arc<dyn dtr::mapping::durable::Vfs> =
        std::sync::Arc::new(dtr::mapping::durable::StdVfs::new("."));
    dtr::core::store::DurableSession::create(
        setting,
        sources,
        None,
        vfs,
        dir,
        dtr::core::store::DurableOptions::default(),
    )
}

/// The two-line `.delta` result summary (shared by the plain and durable
/// paths).
fn print_delta_summary(td: &dtr::mapping::delta::TargetDelta) {
    println!(
        "batch {}: {} edit(s) → +{} member(s), -{} member(s), {} class(es) rebuilt",
        td.batch,
        td.edits,
        td.inserted.len(),
        td.retracted.len(),
        td.classes_rebuilt
    );
    println!(
        "mappings: {} pruned, {} re-evaluated; rows +{}/-{}",
        td.mappings_pruned, td.mappings_reevaluated, td.rows_added, td.rows_removed
    );
}

fn main() {
    let mut tagged = load();
    let runner = MetaRunner::new(tagged.setting()).expect("metastore builds");
    let mut mode = Mode::Direct;
    let mut limits = Budget::unlimited();
    // The incremental-exchange session backing `.delta`/`.rebase`, built
    // lazily from the current tagged instance on first use.
    let mut session: Option<dtr::core::incremental::IncrementalSession> = None;
    // The WAL-backed durable session behind `.save wal`/`.open`; when
    // active, `.delta` commits through it (WAL-then-publish) instead.
    let mut durable: Option<dtr::core::store::DurableSession> = None;
    // The last `.analyze` tree and the report of the last query's guard
    // error, embedded in the profile this shell prints.
    let mut last_analyze: Option<dtr_obs::OpNode> = None;
    let mut last_guard: Option<dtr_obs::GuardReport> = None;
    let profile = |last_analyze: &Option<dtr_obs::OpNode>,
                   last_guard: &Option<dtr_obs::GuardReport>| {
        let mut p = dtr_obs::profile_snapshot();
        p.analyze = last_analyze.clone();
        p.guard = last_guard.clone();
        p
    };
    eprintln!(
        "tagged instance ready: {} target values, {} mappings. Type .help for help.",
        tagged.target().len(),
        tagged.setting().mappings().len()
    );

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print!("mxql> ");
    let _ = std::io::stdout().flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            let (cmd, rest) = trimmed.split_once(' ').unwrap_or((trimmed, ""));
            // DISPATCH-BEGIN (the sync test scans this range for dot-command arms)
            match cmd {
                ".quit" | ".exit" => break,
                ".help" => help(),
                ".mappings" => {
                    for m in tagged.setting().mappings() {
                        println!("{m}\n");
                    }
                }
                ".store" => println!("{}", runner.store().render()),
                ".profile" => match rest.trim() {
                    "on" => {
                        dtr_obs::set_enabled(true);
                        dtr_obs::profile_reset();
                        last_analyze = None;
                        last_guard = None;
                        println!("profiling on");
                    }
                    "off" => {
                        dtr_obs::set_enabled(false);
                        println!("profiling off");
                    }
                    "json" => println!("{}", profile(&last_analyze, &last_guard).to_json_string()),
                    "" => println!("{}", profile(&last_analyze, &last_guard).render()),
                    _ => println!("usage: .profile [on|off|json]"),
                },
                ".mode" => match parse_mode(rest) {
                    Some(m) => {
                        mode = m;
                        println!(
                            "{}",
                            match m {
                                Mode::Direct => "executing with the direct Section 5 semantics",
                                Mode::Translated => "executing through the Section 7.3 translation",
                                Mode::Virtual =>
                                    "answering plain target queries virtually over the sources",
                            }
                        );
                    }
                    None => println!("usage: .mode direct|translated|virtual"),
                },
                ".lint" => {
                    let schemas: Vec<&Schema> = tagged.setting().source_schemas().iter().collect();
                    match lint_mappings(
                        tagged.setting().mappings(),
                        &schemas,
                        tagged.setting().target_schema(),
                    ) {
                        Ok(lints) => {
                            for l in &lints {
                                println!("  - {l}");
                            }
                            println!("({} findings)", lints.len());
                        }
                        Err(e) => println!("lint error: {e}"),
                    }
                }
                ".whatif" => match parse_whatif(rest, tagged.setting()) {
                    Ok(what) => {
                        let impact = match what {
                            WhatIf::Mappings(removed) => impact_of_mappings(&tagged, &removed),
                            WhatIf::Source(db) => impact_of_source(&tagged, db),
                        };
                        println!(
                            "lost {} values ({:.1} %), {} survive",
                            impact.lost_values,
                            100.0 * impact.lost_fraction(),
                            impact.surviving_values
                        );
                        for (path, n) in impact.lost_by_element.iter().take(8) {
                            println!("  {path}  ({n})");
                        }
                    }
                    Err(e) => println!("{e}"),
                },
                ".save" => match parse_save(rest) {
                    Ok(SaveTo::Wal(dir)) => match start_durable(&tagged, session.as_ref(), dir) {
                        Ok(d) => {
                            println!(
                                "durable session started: checkpoint written to \
                                 {dir}/wal-{:06}.log ({} bytes committed)",
                                d.wal_segment(),
                                d.wal_committed_len()
                            );
                            session = None;
                            durable = Some(d);
                        }
                        Err(e) => println!("cannot start durable session: {e}"),
                    },
                    Ok(SaveTo::Xml(file)) => {
                        let xml = dtr::xml::writer::instance_to_xml(
                            tagged.target(),
                            dtr::xml::writer::WriteOptions::annotated(),
                        );
                        match std::fs::write(file, &xml) {
                            Ok(()) => println!("wrote {} bytes to {file}", xml.len()),
                            Err(e) => println!("cannot write {file}: {e}"),
                        }
                    }
                    Err(usage) => println!("{usage}"),
                },
                ".open" => {
                    let dir = rest.trim();
                    if dir.is_empty() {
                        println!("usage: .open <dir>");
                    } else {
                        let vfs: std::sync::Arc<dyn dtr::mapping::durable::Vfs> =
                            std::sync::Arc::new(dtr::mapping::durable::StdVfs::new("."));
                        match dtr::core::store::DurableSession::open(
                            vfs,
                            dir,
                            dtr::core::store::DurableOptions::default(),
                        ) {
                            Ok((d, report)) => {
                                println!(
                                    "recovered from {dir}: segment {}, {} delta(s) replayed, \
                                     {} torn byte(s) truncated, batch {}",
                                    report.segment,
                                    report.replayed,
                                    report.truncated_bytes,
                                    d.batch()
                                );
                                for w in &report.warnings {
                                    println!("  warning: {w}");
                                }
                                tagged = d.session().tagged();
                                session = None;
                                durable = Some(d);
                            }
                            Err(e) => println!("cannot open {dir}: {e}"),
                        }
                    }
                }
                ".checkpoint" => match durable.as_mut() {
                    None => {
                        println!("no durable session (start one with .save wal <dir> or .open)")
                    }
                    Some(d) => match d.checkpoint() {
                        Ok(()) => {
                            println!(
                                "checkpointed: segment {} leads with batch {}",
                                d.wal_segment(),
                                d.batch()
                            );
                            tagged = d.session().tagged();
                        }
                        Err(e) => println!("checkpoint error: {e}"),
                    },
                },
                ".schema" => {
                    let db = rest.trim();
                    let schema = if tagged.setting().target_schema().name() == db {
                        Some(tagged.setting().target_schema())
                    } else {
                        tagged.setting().source_schema(db)
                    };
                    match schema {
                        Some(s) => {
                            for (id, el) in s.elements() {
                                println!(
                                    "  {id:>5}  {:<28} {:<7} {}",
                                    s.path(id),
                                    el.kind.name(),
                                    el.label
                                );
                            }
                        }
                        None if db.is_empty() => println!("usage: .schema <db>"),
                        None => println!(
                            "unknown database `{db}`; try `{}` or a source name",
                            tagged.setting().target_schema().name()
                        ),
                    }
                }
                ".translate" => {
                    let text = rest.trim().trim_end_matches(';');
                    match parse_query(text) {
                        Ok(q) => {
                            let q = tagged.setting().normalize_query(&q);
                            match translate(&q, tagged.target().db()) {
                                Ok(branches) => {
                                    for (i, b) in branches.iter().enumerate() {
                                        if branches.len() > 1 {
                                            println!("-- union branch {} --", i + 1);
                                        }
                                        println!("{b}\n");
                                    }
                                }
                                Err(e) => println!("translation error: {e}"),
                            }
                        }
                        Err(e) => println!("parse error: {e}"),
                    }
                }
                ".explain" => {
                    let text = rest.trim().trim_end_matches(';');
                    match parse_query(text) {
                        Ok(q) => {
                            let q = tagged.setting().normalize_query(&q);
                            match translate_explained(&q, tagged.target().db()) {
                                Ok((branches, trace)) => {
                                    print!("{}", trace.render());
                                    println!(
                                        "PLAIN QUER{} ({} union branch{}):",
                                        if branches.len() == 1 { "Y" } else { "IES" },
                                        branches.len(),
                                        if branches.len() == 1 { "" } else { "es" },
                                    );
                                    for (i, b) in branches.iter().enumerate() {
                                        if branches.len() > 1 {
                                            println!("-- union branch {} --", i + 1);
                                        }
                                        println!("{b}\n");
                                    }
                                }
                                Err(e) => println!("translation error: {e}"),
                            }
                            // Plan view: the operators one instrumented
                            // run of the cached plan really ran.
                            match tagged.plan_for(text) {
                                Ok(plan) => {
                                    match tagged.execute(Request::Plan(&plan), None, true) {
                                        Ok((_, Some(node))) => print!("{}", node.render()),
                                        Ok((_, None)) => {}
                                        Err(e) => println!("execution error: {e}"),
                                    }
                                }
                                Err(e) => println!("planning error: {e}"),
                            }
                        }
                        Err(e) => println!("parse error: {e}"),
                    }
                }
                ".analyze" => {
                    let text = rest.trim().trim_end_matches(';');
                    if text.is_empty() {
                        println!("usage: .analyze <query>;");
                    } else {
                        match parse_query(text) {
                            Ok(q) => {
                                let t0 = std::time::Instant::now();
                                match tagged.execute(Request::Parsed(&q), None, true) {
                                    Ok((r, plan)) => {
                                        print!("{}", r.to_table());
                                        println!(
                                            "({} rows in {:.1} ms)",
                                            r.len(),
                                            t0.elapsed().as_secs_f64() * 1e3
                                        );
                                        // Kept so `.profile` and
                                        // `.profile json` embed it.
                                        if let Some(plan) = plan {
                                            print!("{}", plan.render());
                                            last_analyze = Some(plan);
                                        }
                                    }
                                    Err(e) => println!("error: {e}"),
                                }
                            }
                            Err(e) => println!("parse error: {e}"),
                        }
                    }
                }
                ".stats" => match rest.trim() {
                    "" => print!("{}", tagged.statistics().render()),
                    "json" => println!("{}", tagged.statistics().to_json()),
                    _ => println!("usage: .stats [json]"),
                },
                ".trace" => {
                    let mut parts = rest.split_whitespace();
                    let path = parts.next().unwrap_or("");
                    let filter: Option<&str> = parts.next();
                    if path.is_empty() {
                        println!("usage: .trace <element-path> [value]");
                    } else {
                        trace_values(&tagged, path, filter);
                    }
                }
                ".limits" => {
                    if rest.trim().is_empty() {
                        show_limits(&limits);
                    } else {
                        match parse_limits(rest, &limits) {
                            Ok(b) => {
                                limits = b;
                                show_limits(&limits);
                            }
                            Err(e) => {
                                println!("{e}");
                                println!(
                                    "usage: .limits [off | deadline-ms N | max-rows N | \
                                     max-bindings N | max-bytes N]"
                                );
                            }
                        }
                    }
                }
                ".journal" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::journal::set_enabled(true);
                            println!("journal on (reload to capture the exchange itself)");
                        }
                        ["off"] => {
                            dtr_obs::journal::set_enabled(false);
                            println!("journal off");
                        }
                        ["json"] => print!("{}", dtr_obs::journal::to_jsonl()),
                        ["export", file] => {
                            let jsonl = dtr_obs::journal::to_jsonl();
                            match std::fs::write(file, &jsonl) {
                                Ok(()) => println!(
                                    "wrote {} events ({} bytes) to {file}",
                                    jsonl.lines().count(),
                                    jsonl.len()
                                ),
                                Err(e) => println!("cannot write {file}: {e}"),
                            }
                        }
                        [] => {
                            let s = dtr_obs::journal::summary();
                            println!("journal: {}", s.counts);
                            // The recorded tally survives ring eviction, so
                            // rare outcomes (guard aborts, collision splits)
                            // stay visible even after heavy churn.
                            for (kind, n) in &s.recorded_by_outcome {
                                println!("  {kind:<24} {n:>8}");
                            }
                        }
                        _ => println!("usage: .journal [on|off|json|export <file>]"),
                    }
                }
                ".timeline" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::recorder::set_enabled(true);
                            println!("flight recorder on (reload to capture the exchange itself)");
                        }
                        ["off"] => {
                            dtr_obs::recorder::set_enabled(false);
                            println!(
                                "flight recorder off (ring kept; `.timeline export` still works)"
                            );
                        }
                        ["export", file] => {
                            let doc = dtr_obs::chrome_trace::export_current();
                            match dtr_obs::chrome_trace::validate(&doc) {
                                Ok(s) => {
                                    let text = doc.to_string();
                                    match std::fs::write(file, &text) {
                                        Ok(()) => println!(
                                            "wrote {} trace event(s) across {} thread(s) to {file} \
                                             — load it in Perfetto or chrome://tracing",
                                            s.events, s.distinct_tids
                                        ),
                                        Err(e) => println!("cannot write {file}: {e}"),
                                    }
                                }
                                Err(e) => println!("trace export failed validation: {e}"),
                            }
                        }
                        [] => println!("{}", dtr_obs::recorder::summary().render()),
                        _ => println!("usage: .timeline [on|off|export <file>]"),
                    }
                }
                ".audit" => {
                    let args: Vec<&str> = rest.split_whitespace().collect();
                    match args.as_slice() {
                        ["on"] => {
                            dtr_obs::audit::set_enabled(true);
                            println!("audit log on (one record per query/exchange/translation)");
                        }
                        ["off"] => {
                            dtr_obs::audit::set_enabled(false);
                            println!("audit log off (ring kept; `.audit export` still works)");
                        }
                        ["last"] => match dtr_obs::audit::records().last() {
                            Some(r) => println!("{}", r.render()),
                            None => println!("audit log is empty (`.audit on` to start recording)"),
                        },
                        ["export", file] => {
                            let jsonl = dtr_obs::audit::to_jsonl();
                            match std::fs::write(file, &jsonl) {
                                Ok(()) => println!(
                                    "wrote {} record(s) ({} bytes) to {file}",
                                    jsonl.lines().count(),
                                    jsonl.len()
                                ),
                                Err(e) => println!("cannot write {file}: {e}"),
                            }
                        }
                        [] => {
                            println!(
                                "audit: {} ({})",
                                if dtr_obs::audit::enabled() {
                                    "on"
                                } else {
                                    "off"
                                },
                                dtr_obs::audit::counts()
                            );
                        }
                        _ => println!("usage: .audit [on|off|last|export <file>]"),
                    }
                }
                ".delta" => {
                    if let Some(d) = durable.as_mut() {
                        match parse_delta_edits(rest, d.session().sources()) {
                            Ok(delta) => match d.apply(&delta) {
                                Ok(td) => {
                                    print_delta_summary(&td);
                                    println!(
                                        "committed to WAL segment {} ({} bytes)",
                                        d.wal_segment(),
                                        d.wal_committed_len()
                                    );
                                    tagged = d.session().tagged();
                                }
                                Err(e) => println!("delta error: {e}"),
                            },
                            Err(e) => println!("{e}"),
                        }
                    } else {
                        if session.is_none() {
                            let built = dtr::core::tagged::MappingSetting::new(
                                tagged.setting().source_schemas().to_vec(),
                                tagged.setting().target_schema().clone(),
                                tagged.setting().mappings().to_vec(),
                            )
                            .and_then(|setting| {
                                dtr::core::incremental::IncrementalSession::new(
                                    setting,
                                    tagged.source_instances().to_vec(),
                                )
                            });
                            match built {
                                Ok(s) => session = Some(s),
                                Err(e) => println!("cannot start incremental session: {e}"),
                            }
                        }
                        if let Some(s) = session.as_mut() {
                            match parse_delta_edits(rest, s.sources()) {
                                Ok(delta) => match s.apply(&delta) {
                                    Ok(td) => {
                                        print_delta_summary(&td);
                                        tagged = s.tagged();
                                    }
                                    Err(e) => println!("delta error: {e}"),
                                },
                                Err(e) => println!("{e}"),
                            }
                        }
                    }
                }
                ".rebase" => match session.as_mut() {
                    None => println!(
                        "no incremental session yet (apply a .delta first; durable sessions \
                         renormalize on .checkpoint instead)"
                    ),
                    Some(s) => match s.rebase() {
                        Ok(()) => {
                            println!("rebased: full re-exchange over the edited sources");
                            tagged = s.tagged();
                        }
                        Err(e) => println!("rebase error: {e}"),
                    },
                },
                other => println!("unknown command {other}; try .help"),
            }
            // DISPATCH-END
            print!("mxql> ");
            let _ = std::io::stdout().flush();
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !trimmed.ends_with(';') {
            print!("  ..> ");
            let _ = std::io::stdout().flush();
            continue;
        }
        let text = buffer.trim().trim_end_matches(';').to_owned();
        buffer.clear();
        if dtr_obs::enabled() {
            dtr_obs::profile_reset();
            last_guard = None;
        }
        let t0 = std::time::Instant::now();
        let result = parse_query(&text)
            .map_err(MxqlError::from)
            .and_then(|q| match mode {
                Mode::Direct => tagged
                    .execute(Request::Parsed(&q), Some(&limits), false)
                    .map(|(r, _)| r),
                Mode::Translated => runner.run(&tagged, &q, Some(&limits)),
                Mode::Virtual => answer_virtually(
                    tagged.setting(),
                    tagged.source_instances(),
                    &q,
                    tagged.functions(),
                    Some(&limits),
                ),
            });
        match result {
            Ok(r) => {
                print!("{}", r.to_table());
                println!(
                    "({} rows in {:.1} ms)",
                    r.len(),
                    t0.elapsed().as_secs_f64() * 1e3
                );
                if dtr_obs::enabled() {
                    println!("{}", profile(&last_analyze, &last_guard).render());
                }
            }
            Err(e) => {
                if let Some(g) = e.guard() {
                    last_guard = Some(g.into());
                }
                println!("error: {e}");
            }
        }
        print!("mxql> ");
        let _ = std::io::stdout().flush();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr::core::testkit::figure1_setting;
    use std::collections::BTreeSet;

    /// `.help` is generated from [`COMMANDS`]; this test keeps that table
    /// in lockstep with the dispatch `match` in `main` by scanning the
    /// marked source range for `".command"` string literals.
    #[test]
    fn help_listing_matches_dispatch_table() {
        let src = include_str!("mxql.rs");
        let begin = src.find("// DISPATCH-BEGIN").expect("begin marker");
        let end = src.find("// DISPATCH-END").expect("end marker");
        let body = &src[begin..end];
        // String literals are the odd chunks when splitting on `"` (the
        // dispatch range contains no escaped quotes); a dispatch arm is a
        // literal of the exact shape `.lowercaseword`.
        let dispatched: BTreeSet<&str> = body
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|s| {
                s.len() > 1 && s.starts_with('.') && s[1..].chars().all(|c| c.is_ascii_lowercase())
            })
            .collect();
        let listed: BTreeSet<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        // `.help` appears in the unknown-command hint, not as its own arm
        // text requirement; both sets must nevertheless agree exactly.
        assert_eq!(
            dispatched, listed,
            "dispatch arms and the .help COMMANDS table diverged — \
             add the command to both"
        );
    }

    #[test]
    fn descriptions_are_single_line() {
        for (name, desc) in COMMANDS {
            assert!(!desc.contains('\n'), "{name} description spans lines");
        }
    }

    #[test]
    fn save_takes_a_file_or_wal_and_a_directory() {
        assert_eq!(parse_save(" out.xml "), Ok(SaveTo::Xml("out.xml")));
        assert_eq!(parse_save("wal  waldir"), Ok(SaveTo::Wal("waldir")));
        // A bare `wal` is a missing directory, not a file named `wal`.
        assert_eq!(parse_save("wal"), Err("usage: .save wal <dir>"));
        assert!(parse_save("").is_err());
        assert!(parse_save("a.xml b.xml").is_err());
    }

    #[test]
    fn portal_takes_a_positive_number() {
        assert_eq!(parse_portal(Some("100")), Ok(100));
        assert_eq!(parse_portal(Some("1")), Ok(1));
        // The next flag is not a value, and a typo is not a default.
        assert!(parse_portal(Some("--quick")).is_err());
        assert!(parse_portal(Some("2O")).is_err());
        assert!(parse_portal(Some("0")).is_err());
        assert!(parse_portal(Some("-5")).is_err());
        assert!(parse_portal(None).is_err());
    }

    #[test]
    fn mode_accepts_only_the_three_engines() {
        assert_eq!(parse_mode(" direct"), Some(Mode::Direct));
        assert_eq!(parse_mode("translated"), Some(Mode::Translated));
        assert_eq!(parse_mode("virtual "), Some(Mode::Virtual));
        assert_eq!(parse_mode("virtaul"), None);
        assert_eq!(parse_mode(""), None);
    }

    #[test]
    fn whatif_takes_mappings_or_a_source_database() {
        let setting = figure1_setting();
        let names =
            |ns: &[&str]| WhatIf::Mappings(ns.iter().copied().map(MappingName::new).collect());
        assert_eq!(parse_whatif("m1", &setting), Ok(names(&["m1"])));
        assert_eq!(parse_whatif("m1, m3", &setting), Ok(names(&["m1", "m3"])));
        assert_eq!(parse_whatif(" USdb", &setting), Ok(WhatIf::Source("USdb")));
        assert_eq!(
            parse_whatif("m9", &setting),
            Err("unknown mapping or database `m9`".to_string())
        );
        assert!(parse_whatif("m1,m9", &setting).is_err());
        assert!(parse_whatif("Pdb", &setting).is_err());
        assert!(parse_whatif("", &setting).is_err());
    }
}
