//! Compiled query plans and the plan cache.
//!
//! [`compile`] drives the full planner pipeline — resolve (static
//! checking), logical plan construction, rewrite passes (predicate
//! pushdown, equality-join extraction), and physical planning (cost-based
//! join ordering and algorithm choice from a [`StatsCatalog`] snapshot) —
//! producing a [`CompiledPlan`] that executes through the existing
//! evaluator kernels via its derived [`EvalOptions`], so guards, stats,
//! the journal, `.analyze` and incremental `domains` pinning all keep
//! working unchanged.
//!
//! [`PlanCache`] stores compiled plans keyed by the FNV-1a fingerprint of
//! the *raw query text* (computed before parsing, so a cache hit skips
//! parse + check + plan entirely). A 64-bit fingerprint is not an
//! identity: every hit is **structurally confirmed** by comparing the
//! stored query text, the same lesson the PR 4 `collision_split` fix
//! applied to PNF merging. Colliding texts coexist in one bucket and a
//! collision counter records the event.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dtr_model::schema::Schema;
use dtr_obs::stats::{fnv1a, StatsCatalog};

use crate::ast::Query;
use crate::check::{check_query, CheckError, SchemaCatalog};
use crate::eval::EvalOptions;
use crate::logical::LogicalPlan;
use crate::physical::{apply_order, choose_order, PhysicalPlan};

/// A fully planned query, ready to execute (and re-execute) without
/// re-parsing or re-planning.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// FNV-1a fingerprint of `text` — the cache key.
    pub fingerprint: u64,
    /// The raw query text the plan was compiled from. Stored verbatim so
    /// cache hits can structurally confirm the key (fingerprints are not
    /// identities).
    pub text: String,
    /// The executed query: normalized, with bindings in the planned order.
    pub query: Query,
    /// The rewritten logical plan (for display).
    pub logical: LogicalPlan,
    /// The cost-annotated physical plan (for display and options).
    pub physical: PhysicalPlan,
    /// Evaluator options derived from the physical plan: the per-binding
    /// join-algorithm overrides. Never carries a budget; one is applied
    /// per execution.
    pub opts: EvalOptions,
    /// The [`dtr_obs::stats::cardinality_version`] this plan was costed
    /// against. A cached plan whose version is stale (a delta/rebase moved
    /// the relation cardinalities since) is evicted on lookup instead of
    /// being reused with a possibly wrong join order.
    pub stats_version: u64,
}

impl CompiledPlan {
    /// The logical and physical plan, rendered for `.explain`.
    pub fn render(&self) -> String {
        format!("{}{}", self.logical.render(), self.physical.render(None))
    }

    /// [`CompiledPlan::render`] with actual per-stage output rows from an
    /// analyzed execution of this plan, paired stage-by-stage with the
    /// estimates. The analyzed operator chain can be shorter than the
    /// plan (the evaluator stops early when a stage yields zero rows);
    /// unmatched stages show `-`.
    pub fn render_with_actual(&self, analyzed: &dtr_obs::OpNode) -> String {
        // The operator tree is a spine through `children[0]` (hash builds
        // hang off as second children) with the *last* stage at the root.
        let mut chain: Vec<u64> = Vec::new();
        let mut node = Some(analyzed);
        while let Some(n) = node {
            chain.push(n.rows_out);
            node = n.children.first();
        }
        chain.reverse();
        let mut actual: Vec<Option<u64>> = vec![None; self.physical.stages.len()];
        for (slot, rows) in actual.iter_mut().zip(chain) {
            *slot = Some(rows);
        }
        format!(
            "{}{}",
            self.logical.render(),
            self.physical.render(Some(&actual))
        )
    }
}

/// Compiles `q` (already normalized by the caller) against `schemas` and
/// a statistics snapshot. `text` is the raw query text the fingerprint
/// and cache confirmation use.
pub fn compile(
    q: &Query,
    schemas: Vec<&Schema>,
    stats: &StatsCatalog,
    text: &str,
) -> Result<CompiledPlan, CheckError> {
    check_query(q, SchemaCatalog::new(schemas))?;
    let order = choose_order(q, stats);
    let query = apply_order(q, &order);
    let logical = LogicalPlan::optimized(&query);
    let physical = PhysicalPlan::from_logical(&query, &logical, stats, order);
    let opts = EvalOptions {
        hash_join_per_binding: Some(Arc::new(physical.hash_join_overrides(query.from.len()))),
        ..EvalOptions::default()
    };
    Ok(CompiledPlan {
        fingerprint: fnv1a(text.as_bytes()),
        text: text.to_string(),
        query,
        logical,
        physical,
        opts,
        stats_version: dtr_obs::stats::cardinality_version(),
    })
}

/// Counters and size of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Confirmed hits (fingerprint matched *and* text matched).
    pub hits: u64,
    /// Lookups that found no usable plan.
    pub misses: u64,
    /// Lookups whose fingerprint matched a bucket but whose text did not
    /// match any entry — a real 64-bit collision, survived by
    /// structural confirmation.
    pub collisions: u64,
    /// Plans evicted because their stats version went stale (a delta or
    /// rebase changed relation cardinalities after they were compiled).
    pub evictions: u64,
    /// Number of cached plans.
    pub entries: usize,
}

/// A concurrent cache of [`CompiledPlan`]s keyed by query-text
/// fingerprint, with structural confirmation on every hit.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<HashMap<u64, Vec<Arc<CompiledPlan>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cache key of a query text.
    pub fn key(text: &str) -> u64 {
        fnv1a(text.as_bytes())
    }

    /// Looks up the plan compiled from exactly `text`.
    pub fn lookup(&self, text: &str) -> Option<Arc<CompiledPlan>> {
        self.lookup_keyed(Self::key(text), text)
    }

    /// [`PlanCache::lookup`] under an explicit key — the seam the
    /// forced-collision tests use. A fingerprint match alone is never
    /// returned: the stored text must be byte-equal, and its stats
    /// version must be current (a plan ordered for a pre-delta catalog is
    /// evicted here, never reused).
    pub fn lookup_keyed(&self, key: u64, text: &str) -> Option<Arc<CompiledPlan>> {
        let current = dtr_obs::stats::cardinality_version();
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(bucket) = guard.get_mut(&key) {
            if let Some(pos) = bucket.iter().position(|p| p.text == text) {
                if bucket[pos].stats_version == current {
                    let plan = Arc::clone(&bucket[pos]);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(plan);
                }
                bucket.remove(pos);
                if bucket.is_empty() {
                    guard.remove(&key);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else if !bucket.is_empty() {
                self.collisions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Caches `plan` under its own fingerprint.
    pub fn insert(&self, plan: Arc<CompiledPlan>) {
        let key = plan.fingerprint;
        self.insert_keyed(key, plan);
    }

    /// [`PlanCache::insert`] under an explicit key — the seam the
    /// forced-collision tests use. Colliding texts coexist in the
    /// bucket; re-inserting the same text replaces its entry.
    pub fn insert_keyed(&self, key: u64, plan: Arc<CompiledPlan>) {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let bucket = guard.entry(key).or_default();
        match bucket.iter_mut().find(|p| p.text == plan.text) {
            Some(slot) => *slot = plan,
            None => bucket.push(plan),
        }
    }

    /// Drops every cached plan (counters survive). Benchmarks use this
    /// to measure cold-plan cost.
    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self
            .inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(Vec::len)
            .sum();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// Serializes the tests that depend on the process-global cardinality
    /// version staying still between an insert and its lookup.
    static VERSION_LOCK: Mutex<()> = Mutex::new(());

    fn dummy_plan(text: &str) -> Arc<CompiledPlan> {
        let q = parse_query(text).unwrap();
        let logical = LogicalPlan::from_query(&q);
        let stats = StatsCatalog::new();
        let physical =
            PhysicalPlan::from_logical(&q, &logical, &stats, (0..q.from.len()).collect());
        Arc::new(CompiledPlan {
            fingerprint: fnv1a(text.as_bytes()),
            text: text.to_string(),
            query: q,
            logical,
            physical,
            opts: EvalOptions::default(),
            stats_version: dtr_obs::stats::cardinality_version(),
        })
    }

    #[test]
    fn stale_stats_version_is_evicted_not_reused() {
        let _guard = VERSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cache = PlanCache::new();
        let a = dummy_plan("select h.hid from US.houses h");
        cache.insert(Arc::clone(&a));
        assert!(cache.lookup(&a.text).is_some());
        // A delta apply/rebase moves the cardinality version: the cached
        // plan was ordered for the old catalog and must not be reused.
        dtr_obs::stats::bump_cardinality_version();
        assert!(cache.lookup(&a.text).is_none());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 0, "the stale entry is gone, not resurrected");
        // Re-inserting a freshly compiled plan works again.
        cache.insert(dummy_plan(&a.text));
        assert!(cache.lookup(&a.text).is_some());
    }

    #[test]
    fn cache_hit_requires_structural_confirmation() {
        let _guard = VERSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cache = PlanCache::new();
        let a = dummy_plan("select h.hid from US.houses h");
        cache.insert(Arc::clone(&a));
        assert!(cache.lookup("select h.hid from US.houses h").is_some());
        assert!(cache.lookup("select a.aid from US.agents a").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // Distinct texts hash to distinct buckets here, so no collision.
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn forced_fingerprint_collision_is_detected_not_conflated() {
        let _guard = VERSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cache = PlanCache::new();
        let a = dummy_plan("select h.hid from US.houses h");
        let b = dummy_plan("select a.aid from US.agents a");
        let key = 0xdead_beefu64;
        // Force both texts under one key — a synthetic 64-bit collision.
        cache.insert_keyed(key, Arc::clone(&a));
        cache.insert_keyed(key, Arc::clone(&b));

        // Each text gets back exactly its own plan, never the other's.
        let got_a = cache.lookup_keyed(key, &a.text).unwrap();
        let got_b = cache.lookup_keyed(key, &b.text).unwrap();
        assert_eq!(got_a.text, a.text);
        assert_eq!(got_b.text, b.text);

        // A third text under the colliding key is a miss AND a recorded
        // collision — never a false hit.
        assert!(cache
            .lookup_keyed(key, "select r.street from US.houses h, h.rooms r")
            .is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.collisions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn clear_empties_entries() {
        let _guard = VERSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cache = PlanCache::new();
        cache.insert(dummy_plan("select h.hid from US.houses h"));
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup("select h.hid from US.houses h").is_none());
    }
}
