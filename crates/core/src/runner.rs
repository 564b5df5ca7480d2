//! Executing translated MXQL queries over the metastore (the full
//! Section 7 pipeline).
//!
//! [`MetaRunner`] encodes a mapping setting's schemas and mappings into the
//! metastore once, materializes the nested-relational view, and then runs
//! translated queries against *data instance + meta instance* with the
//! ordinary evaluator — exactly the execution strategy the paper describes:
//! "the user does not need to be aware of the details of the meta-data
//! storage schema".

use crate::tagged::{MappingSetting, MxqlError, TaggedInstance};
use crate::translate::{translate_budgeted, TranslateError};
use dtr_metastore::store::{MetaStore, StoreError};
use dtr_metastore::view::{meta_instance, meta_schema};
use dtr_model::instance::Instance;
use dtr_model::schema::Schema;
use dtr_obs::guard::{Budget, GuardError, Meter};
use dtr_obs::Work;
use dtr_query::ast::Query;
use dtr_query::eval::{EvalOptions, Evaluator, QueryResult, Source};
use dtr_query::parser::parse_query;
use std::collections::HashSet;

impl From<TranslateError> for MxqlError {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::Guard(g) => MxqlError::Guard(g),
            other => MxqlError::Other(other.to_string()),
        }
    }
}

fn store_err(e: StoreError) -> MxqlError {
    match e {
        StoreError::Guard(g) => MxqlError::Guard(g),
        other => MxqlError::Other(other.to_string()),
    }
}

/// A prepared metastore for one mapping setting.
pub struct MetaRunner {
    store: MetaStore,
    meta_schema: Schema,
    meta_inst: Instance,
}

impl MetaRunner {
    /// Encodes the setting's schemas and mappings (Section 7.1) and builds
    /// the queryable view.
    pub fn new(setting: &MappingSetting) -> Result<Self, MxqlError> {
        Self::new_budgeted(setting, &Budget::unlimited())
    }

    /// [`MetaRunner::new`] under a resource budget: the metastore encoding
    /// charges each stored row against `max_rows` and polls the deadline
    /// and cancellation flag. On a guard trip the partially built store is
    /// dropped — no half-encoded runner escapes.
    pub fn new_budgeted(setting: &MappingSetting, budget: &Budget) -> Result<Self, MxqlError> {
        let _span = dtr_obs::span("mxql.metastore_build")
            .field("schemas", setting.source_schemas().len() + 1)
            .field("mappings", setting.mappings().len());
        let mut meter = budget.meter("metastore.encode");
        let mut store = MetaStore::new();
        for s in setting.source_schemas() {
            store
                .add_schema_budgeted(s, &mut meter)
                .map_err(store_err)?;
        }
        store
            .add_schema_budgeted(setting.target_schema(), &mut meter)
            .map_err(store_err)?;
        let refs: Vec<&Schema> = setting.source_schemas().iter().collect();
        for m in setting.mappings() {
            store
                .add_mapping_budgeted(m, &refs, setting.target_schema(), &mut meter)
                .map_err(store_err)?;
        }
        let schema = meta_schema();
        let inst = meta_instance(&store, &schema);
        Ok(MetaRunner {
            store,
            meta_schema: schema,
            meta_inst: inst,
        })
    }

    /// The underlying relational store (for inspection / Figure 5 dumps).
    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// The work of building this runner: the rows its metastore encoded.
    pub fn work(&self) -> Work {
        Work {
            metastore_tuples_encoded: self.store.total_rows() as u64,
            ..Work::default()
        }
    }

    /// The metastore as a queryable source.
    pub fn meta_source(&self) -> Source<'_> {
        Source {
            schema: &self.meta_schema,
            instance: &self.meta_inst,
        }
    }

    /// Translates an MXQL query (Section 7.3) and runs every branch of the
    /// resulting union over the tagged instance plus the metastore,
    /// concatenating and de-duplicating rows, and records one `translate`
    /// audit entry. Under a `budget`, translation, every branch
    /// evaluation and the union loop all observe it, so `max_rows`, a
    /// deadline or cancellation aborts the translated pipeline with a
    /// structured guard error.
    pub fn run(
        &self,
        tagged: &TaggedInstance,
        q: &Query,
        budget: Option<&Budget>,
    ) -> Result<QueryResult, MxqlError> {
        let started = dtr_obs::audit::enabled().then(std::time::Instant::now);
        let unlimited = Budget::unlimited();
        let result = self.run_translated(tagged, q, budget.unwrap_or(&unlimited));
        if let Some(started) = started {
            crate::tagged::audit_query("translate", q.to_string(), started, result.as_ref());
        }
        result
    }

    fn run_translated(
        &self,
        tagged: &TaggedInstance,
        q: &Query,
        budget: &Budget,
    ) -> Result<QueryResult, MxqlError> {
        let q = tagged.setting().normalize_query(q);
        let mut union = DistinctUnion::new(&q, "translated execution")?;
        let branches = translate_budgeted(&q, tagged.target().db(), budget)?;
        let span = dtr_obs::span("mxql.run_translated").field("branches", branches.len());
        let mut meter = budget.meter("mxql.run_translated");
        let mut catalog = tagged.catalog();
        catalog.push(self.meta_source());
        for branch in &branches {
            meter.poll()?;
            let r = Evaluator::new(&catalog, tagged.functions())
                .with_options(EvalOptions {
                    budget: budget.clone(),
                    ..Default::default()
                })
                .run(branch)?;
            // Charge only rows surviving de-duplication: the union result
            // is what `max_rows` bounds on this path.
            union.add(r, Some(&mut meter))?;
        }
        let out = union.finish();
        span.record("rows_out", out.rows.len());
        Ok(out)
    }

    /// Parses and runs MXQL text through the translation pipeline.
    pub fn query(&self, tagged: &TaggedInstance, text: &str) -> Result<QueryResult, MxqlError> {
        self.run(tagged, &parse_query(text)?, None)
    }
}

/// The de-duplicated union of query branches (translated MXQL branches,
/// virtual rewritings): rows keep branch order and the first occurrence
/// of each rendered value tuple wins; every branch's work counters add up.
/// The query's order-by and limit apply to the de-duplicated union, in
/// [`DistinctUnion::finish`].
pub(crate) struct DistinctUnion {
    /// The union so far. Its columns are the first branch's unless set
    /// beforehand.
    pub(crate) out: QueryResult,
    seen: HashSet<String>,
    /// `(select column, descending)` per order key.
    key_columns: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl DistinctUnion {
    /// An empty union for the branches of `q`. Each order key must be one
    /// of `q`'s select expressions, so the sort can run on the projected
    /// columns; `what` names the execution path in that error.
    pub(crate) fn new(q: &Query, what: &str) -> Result<Self, MxqlError> {
        let mut key_columns: Vec<(usize, bool)> = Vec::new();
        for k in &q.order_by {
            let Some(col) = q.select.iter().position(|e| *e == k.expr) else {
                return Err(MxqlError::Other(format!(
                    "{what} requires order-by keys to appear in the select clause; \
                     `{}` does not",
                    k.expr
                )));
            };
            key_columns.push((col, k.descending));
        }
        Ok(DistinctUnion {
            out: QueryResult::default(),
            seen: HashSet::new(),
            key_columns,
            limit: q.limit,
        })
    }

    /// Folds one branch in. A `meter` is charged one row per new row.
    pub(crate) fn add(
        &mut self,
        branch: QueryResult,
        mut meter: Option<&mut Meter>,
    ) -> Result<(), GuardError> {
        if self.out.columns.is_empty() {
            self.out.columns = branch.columns;
        }
        self.out.stats += branch.stats;
        for row in branch.rows {
            let key = row
                .iter()
                .map(|v| v.value.to_string())
                .collect::<Vec<_>>()
                .join("\u{1}");
            if self.seen.insert(key) {
                if let Some(meter) = meter.as_deref_mut() {
                    meter.charge_rows(1)?;
                }
                self.out.rows.push(row);
            }
        }
        Ok(())
    }

    /// The union, sorted by the order keys and cut to the limit.
    pub(crate) fn finish(self) -> QueryResult {
        let mut out = self.out;
        if !self.key_columns.is_empty() {
            out.rows.sort_by(|a, b| {
                for &(col, desc) in &self.key_columns {
                    let ord = dtr_query::eval::coerced_compare(&a[col].value, &b[col].value)
                        .unwrap_or(std::cmp::Ordering::Equal);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = self.limit {
            out.rows.truncate(n);
        }
        out
    }
}

/// Renders result rows as sorted strings — the canonical form used to
/// compare the direct (Section 5) and translated (Section 7) execution
/// paths, which agree modulo value *types* (`Mapping` values come back as
/// `mid` strings from the metastore).
pub fn canonical_rows(r: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| v.value.to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagged::Request;
    use crate::testkit::{figure1, figure1_setting};
    use crate::virtualize::answer_virtually;
    use dtr_query::eval::EvalStats;

    fn agree(text: &str) {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let direct = tagged.query(text).unwrap();
        let translated = runner.query(&tagged, text).unwrap();
        assert_eq!(
            canonical_rows(&direct),
            canonical_rows(&translated),
            "direct and translated execution disagree for: {text}"
        );
    }

    /// `stats` without its wall-time field, which differs run to run.
    fn work(stats: EvalStats) -> EvalStats {
        EvalStats {
            eval_ns: 0,
            ..stats
        }
    }

    #[test]
    fn example_5_5_agrees() {
        let text = "select s.hid, m
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':'US/agents/title/firm' -> m -> 'Pdb':e>";
        agree(text);
        // The union reports the sum of its branches' work, hash probes
        // included.
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let q = tagged
            .setting()
            .normalize_query(&parse_query(text).unwrap());
        let mut catalog = tagged.catalog();
        catalog.push(runner.meta_source());
        let mut sum = EvalStats::default();
        for branch in crate::translate::translate(&q, tagged.target().db()).unwrap() {
            sum += Evaluator::new(&catalog, tagged.functions())
                .run(&branch)
                .unwrap()
                .stats;
        }
        assert!(sum.hash_probes > 0);
        assert_eq!(work(runner.query(&tagged, text).unwrap().stats), work(sum));
    }

    #[test]
    fn example_5_6_agrees() {
        agree("select e from where <db:e -> m -> 'Pdb':'/Portal/estates/estate/stories'>");
    }

    #[test]
    fn example_5_7_agrees() {
        agree(
            "select c.title, es
             from Portal.estates s, Portal.contacts c, c.title@map m
             where s.contact = c.title and e = c.title@elem
               and <'USdb':es => m => 'Pdb':e>",
        );
    }

    #[test]
    fn example_5_4_agrees() {
        agree("select x.hid, x.value, m from Portal.estates x, x.value@map m");
    }

    #[test]
    fn plain_queries_agree() {
        agree("select e.hid, e.value from Portal.estates e where e.contact = 'HomeGain'");
    }

    #[test]
    fn ordered_mxql_agrees_across_engines() {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let text = "select x.hid, x.value, m from Portal.estates x, x.value@map m \
                    order by x.hid desc limit 2";
        let q = dtr_query::parser::parse_query(text).unwrap();
        let direct = tagged.run(&q).unwrap();
        let translated = runner.run(&tagged, &q, None).unwrap();
        // Ordered results compare positionally, not as sorted sets.
        let rows = |r: &dtr_query::eval::QueryResult| {
            r.tuples()
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("|")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&direct), rows(&translated));
        assert_eq!(direct.len(), 2);
        assert_eq!(direct.tuples()[0][0].to_string(), "H7");
        // An order key outside the select clause is rejected on the
        // translated path (documented restriction).
        let q2 =
            dtr_query::parser::parse_query("select x.hid from Portal.estates x order by x.value")
                .unwrap();
        let err = runner.run(&tagged, &q2, None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "translated execution requires order-by keys to appear in the select \
             clause; `x.value` does not"
        );
        assert!(tagged.run(&q2).is_ok());
    }

    #[test]
    fn figure_5_dump_available() {
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let dump = runner.store().render();
        assert!(dump.contains("Correspondence"));
        assert!(dump.contains("m1 | q0 | q1"));
    }

    #[test]
    fn pure_metadata_query_over_view() {
        // Query the meta instance directly (no annotations involved):
        // the mappings populating /Portal/estates/value.
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let mut catalog = tagged.catalog();
        catalog.push(runner.meta_source());
        let q = dtr_query::parser::parse_query(
            "select o.mid
             from Correspondence o, Element e
             where o.conEid = e.eid and e.path = '/Portal/estates/value'",
        )
        .unwrap();
        let r = dtr_query::eval::Evaluator::new(&catalog, tagged.functions())
            .run(&q)
            .unwrap();
        let mut mids: Vec<String> = r.tuples().into_iter().map(|t| t[0].to_string()).collect();
        mids.sort();
        assert_eq!(mids, ["m1", "m2", "m3"]);
    }

    /// Serializes the tests that switch the process-global audit gate: one
    /// test's restore must not turn auditing off under the other.
    static AUDIT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn audit_records_exchange_query_and_translate() {
        let _gate = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        // figure1() performs the exchange while auditing is on, so all
        // three request kinds land in the log.
        let tagged = figure1();
        let marker = "select e.hid, e.value from Portal.estates e where e.contact = 'HomeGain'";
        let direct = tagged.query(marker).unwrap();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        let translated = runner.query(&tagged, marker).unwrap();
        let records = dtr_obs::audit::records();
        dtr_obs::audit::set_enabled(was_on);
        // Filter by our own request text: the log is global and other
        // tests (or a CI soak with DTR_AUDIT=1) may interleave records.
        let queries: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "query" && r.request.contains("HomeGain"))
            .collect();
        let translates: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "translate" && r.request.contains("HomeGain"))
            .collect();
        let exchanges: Vec<_> = records
            .iter()
            .filter(|r| r.kind == "exchange" && r.request == "m1,m2,m3")
            .collect();
        assert!(!queries.is_empty() && !translates.is_empty() && !exchanges.is_empty());
        let q = queries.last().unwrap();
        assert_eq!(q.rows, direct.rows.len() as u64);
        assert_eq!(q.outcome, "ok");
        assert!(q.wall_ns > 0);
        assert!(q.tuples_scanned > 0);
        assert_eq!(q.fingerprint.len(), 16);
        let t = translates.last().unwrap();
        assert_eq!(t.rows, translated.rows.len() as u64);
        // Direct and translated runs of the same text share a fingerprint,
        // so the two paths join on it in the audit view.
        assert_eq!(q.fingerprint, t.fingerprint);
        let x = exchanges.last().unwrap();
        assert!(x.rows > 0);
    }

    #[test]
    fn audit_records_guard_outcome() {
        let _gate = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        let tagged = figure1();
        let marker = "select a.hid, b.hid from Portal.estates a, Portal.estates b";
        let q = dtr_query::parser::parse_query(marker).unwrap();
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let err = tagged
            .execute(Request::Parsed(&q), Some(&budget), false)
            .unwrap_err();
        assert!(err.guard().is_some());
        let records = dtr_obs::audit::records();
        dtr_obs::audit::set_enabled(was_on);
        let mine: Vec<_> = records
            .iter()
            .filter(|r| r.request.contains("Portal.estates b"))
            .collect();
        assert!(!mine.is_empty());
        assert!(
            mine.last().unwrap().outcome.starts_with("guard:"),
            "expected guard outcome, got {:?}",
            mine.last().unwrap().outcome
        );
    }

    /// The audit records whose request holds the string constant `marker`.
    fn audited(marker: &str) -> Vec<dtr_obs::AuditRecord> {
        let quoted = format!("'{marker}'");
        dtr_obs::audit::records()
            .into_iter()
            .filter(|r| r.request.contains(&quoted))
            .collect()
    }

    #[test]
    fn every_request_audits_exactly_once() {
        let _gate = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        let tagged = figure1();
        let runner = MetaRunner::new(tagged.setting()).unwrap();
        // One distinct marker per entry point, so records other tests
        // append concurrently never count.
        let text = |marker: &str| {
            format!("select e.hid from Portal.estates e where e.contact != '{marker}'")
        };
        let parsed = |marker: &str| parse_query(&text(marker)).unwrap();
        let budget = Budget {
            max_rows: Some(1_000),
            ..Budget::default()
        };
        tagged.run(&parsed("once-run")).unwrap();
        tagged.query(&text("once-query")).unwrap();
        tagged.run_planned(&text("once-planned")).unwrap();
        let plan = tagged.plan_for(&text("once-plan")).unwrap();
        tagged.run_plan(&plan).unwrap();
        let q = parsed("once-budgeted");
        tagged
            .execute(Request::Parsed(&q), Some(&budget), false)
            .unwrap();
        let (r, tree) = tagged
            .execute(Request::Text(&text("once-analyzed")), None, true)
            .unwrap();
        assert_eq!(tree.unwrap().rows_out, r.len() as u64);
        runner.query(&tagged, &text("once-translated")).unwrap();
        answer_virtually(
            tagged.setting(),
            tagged.source_instances(),
            &parsed("once-virtual"),
            tagged.functions(),
            None,
        )
        .unwrap();
        let expected = [
            ("once-run", "query"),
            ("once-query", "query"),
            ("once-planned", "query.planned"),
            ("once-plan", "query.planned"),
            ("once-budgeted", "query"),
            ("once-analyzed", "query.planned"),
            ("once-translated", "translate"),
            ("once-virtual", "virtual"),
        ];
        let got: Vec<Vec<String>> = expected
            .iter()
            .map(|(marker, _)| audited(marker).into_iter().map(|r| r.kind).collect())
            .collect();
        dtr_obs::audit::set_enabled(was_on);
        for ((marker, kind), kinds) in expected.iter().zip(&got) {
            assert_eq!(kinds, &[kind.to_string()], "{marker}");
        }
    }

    #[test]
    fn virtual_answering_audits_its_rows_and_guard_trips() {
        let _gate = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        let tagged = figure1();
        let virtually = |marker: &str, budget: Option<&Budget>| {
            let q = parse_query(&format!(
                "select e.hid from Portal.estates e where e.contact != '{marker}'"
            ))
            .unwrap();
            answer_virtually(
                tagged.setting(),
                tagged.source_instances(),
                &q,
                tagged.functions(),
                budget,
            )
        };
        let answered = virtually("virtual-rows", None).unwrap();
        let one_row = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let err = virtually("virtual-guard", Some(&one_row)).unwrap_err();
        let ok = audited("virtual-rows");
        let tripped = audited("virtual-guard");
        dtr_obs::audit::set_enabled(was_on);
        assert_eq!(answered.len(), 3);
        assert_eq!(ok.len(), 1);
        assert_eq!(
            (ok[0].kind.as_str(), ok[0].outcome.as_str()),
            ("virtual", "ok")
        );
        assert_eq!(ok[0].rows, 3);
        assert!(err.guard().is_some(), "{err}");
        assert_eq!(tripped.len(), 1);
        assert_eq!(tripped[0].kind, "virtual");
        assert!(
            tripped[0].outcome.starts_with("guard:"),
            "expected guard outcome, got {:?}",
            tripped[0].outcome
        );
    }

    #[test]
    fn budgeted_cached_plan_trips_and_leaves_the_cache_intact() {
        let _gate = AUDIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = dtr_obs::audit::enabled();
        dtr_obs::audit::set_enabled(true);
        let tagged = figure1();
        let text = "select a.hid, b.hid from Portal.estates a, Portal.estates b \
                    where a.hid != 'cached-budget'";
        let budget = Budget {
            max_rows: Some(1),
            ..Budget::default()
        };
        let render = |r: &QueryResult| format!("{:?}|{:?}", r.columns, r.rows);
        let cold = tagged.run_planned(text).unwrap();
        let err = tagged
            .execute(Request::Text(text), Some(&budget), false)
            .unwrap_err();
        assert_eq!(err.guard().unwrap().resource.name(), "rows");
        let hits = tagged.plan_cache_stats().hits;
        let warm = tagged.run_planned(text).unwrap();
        // The budget was applied to that execution only: the next
        // unbudgeted run hits the same cached plan, with the same bytes.
        assert_eq!(tagged.plan_cache_stats().hits, hits + 1);
        assert_eq!(render(&warm), render(&cold));
        let outcomes: Vec<String> = audited("cached-budget")
            .into_iter()
            .map(|r| r.outcome)
            .collect();
        dtr_obs::audit::set_enabled(was_on);
        assert!(outcomes.contains(&"guard:rows".to_string()), "{outcomes:?}");
    }

    #[test]
    fn setting_reusable_across_runners() {
        let setting = figure1_setting();
        let r1 = MetaRunner::new(&setting).unwrap();
        let r2 = MetaRunner::new(&setting).unwrap();
        assert_eq!(r1.store().elements.len(), r2.store().elements.len());
    }
}
