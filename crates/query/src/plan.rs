//! Compiled query plans and the plan cache.
//!
//! [`compile`] statically checks a normalized query against its schemas
//! and wraps it in a [`CompiledPlan`]. A plan is the checked query in its
//! written binding order: it depends only on the query text and the
//! schemas, never on statistics or on the instance it runs over, so one
//! cached plan stays valid across deltas and sessions. It executes
//! through the ordinary evaluator, so guards, stats, the journal and
//! `.analyze` behave exactly as for an unplanned run. `.explain` shows a
//! plan as the evaluator's own operator tree of one analyzed run, with
//! the comparisons each stage applies.
//!
//! [`PlanCache`] stores compiled plans keyed by the FNV-1a fingerprint of
//! the *raw query text* (computed before parsing, so a cache hit skips
//! parse + check entirely). A 64-bit fingerprint is not an identity:
//! every hit is **structurally confirmed** by comparing the stored query
//! text, as PNF merging's `collision_split` does for its hash keys.
//! Colliding texts coexist in one bucket and a collision counter records
//! the event.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dtr_model::schema::Schema;
use dtr_obs::stats::fnv1a;

use crate::ast::Query;
use crate::check::{check_query, CheckError, SchemaCatalog};

/// A checked query, ready to execute (and re-execute) without re-parsing
/// or re-checking.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// FNV-1a fingerprint of `text` — the cache key.
    pub fingerprint: u64,
    /// The raw query text the plan was compiled from. Stored verbatim so
    /// cache hits can structurally confirm the key (fingerprints are not
    /// identities).
    pub text: String,
    /// The executed query: normalized, bindings in their written order.
    pub query: Query,
}

/// Checks `q` (already normalized by the caller) against `schemas`.
/// `text` is the raw query text the fingerprint and cache confirmation
/// use.
pub fn compile(q: &Query, schemas: Vec<&Schema>, text: &str) -> Result<CompiledPlan, CheckError> {
    check_query(q, SchemaCatalog::new(schemas))?;
    Ok(CompiledPlan {
        fingerprint: fnv1a(text.as_bytes()),
        text: text.to_string(),
        query: q.clone(),
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
    /// returned: the stored text must be byte-equal.
    pub fn lookup_keyed(&self, key: u64, text: &str) -> Option<Arc<CompiledPlan>> {
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(bucket) = guard.get(&key) {
            if let Some(plan) = bucket.iter().find(|p| p.text == text) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(plan));
            }
            self.collisions.fetch_add(1, Ordering::Relaxed);
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
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn dummy_plan(text: &str) -> Arc<CompiledPlan> {
        Arc::new(CompiledPlan {
            fingerprint: fnv1a(text.as_bytes()),
            text: text.to_string(),
            query: parse_query(text).unwrap(),
        })
    }

    #[test]
    fn cache_hit_requires_structural_confirmation() {
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
        let cache = PlanCache::new();
        cache.insert(dummy_plan("select h.hid from US.houses h"));
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup("select h.hid from US.houses h").is_none());
    }
}
