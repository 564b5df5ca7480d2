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
//! A plan holds no slot, node id or hint. Every evaluator run, planned or
//! not, lowers the query it is given into a slot-resolved program over
//! that run's catalog (variables to slots, root labels to nodes, field
//! steps to position hints, comparisons to the binding that readies them
//! and the join they key), and drops it when the run ends. A cache hit
//! therefore saves only the parse and the check: a few microseconds per
//! request, against evaluations that take a millisecond or more on the
//! benchmark's portal.
//!
//! [`PlanCache`] stores compiled plans keyed by the *raw query text*
//! (looked up before parsing, so a cache hit skips parse + check
//! entirely).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dtr_model::schema::Schema;

use crate::ast::Query;
use crate::check::{check_query, CheckError, SchemaCatalog};

/// A checked query, ready to execute (and re-execute) without re-parsing
/// or re-checking.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// The raw query text the plan was compiled from — the cache key.
    pub text: String,
    /// The executed query: normalized, bindings in their written order.
    pub query: Query,
}

/// Checks `q` (already normalized by the caller) against `schemas`.
/// `text` is the raw query text the cache keys the plan by.
pub fn compile(q: &Query, schemas: Vec<&Schema>, text: &str) -> Result<CompiledPlan, CheckError> {
    check_query(q, SchemaCatalog::new(schemas))?;
    Ok(CompiledPlan {
        text: text.to_string(),
        query: q.clone(),
    })
}

/// Counters and size of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found the plan of their text.
    pub hits: u64,
    /// Lookups that found no plan.
    pub misses: u64,
    /// Number of cached plans.
    pub entries: usize,
}

/// A concurrent cache of [`CompiledPlan`]s keyed by query text.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<HashMap<String, Arc<CompiledPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks up the plan compiled from exactly `text`.
    pub fn lookup(&self, text: &str) -> Option<Arc<CompiledPlan>> {
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let found = guard.get(text).cloned();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Caches `plan` under its text, replacing any plan of the same text.
    pub fn insert(&self, plan: Arc<CompiledPlan>) {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        guard.insert(plan.text.clone(), plan);
    }

    /// Drops every cached plan (counters survive). Benchmarks use this
    /// to measure cold-plan cost.
    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Current counters and entry count.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().unwrap_or_else(|p| p.into_inner()).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn dummy_plan(text: &str) -> Arc<CompiledPlan> {
        Arc::new(CompiledPlan {
            text: text.to_string(),
            query: parse_query(text).unwrap(),
        })
    }

    #[test]
    fn cache_hit_requires_the_same_text() {
        let cache = PlanCache::new();
        let a = dummy_plan("select h.hid from US.houses h");
        cache.insert(Arc::clone(&a));
        assert!(cache.lookup("select h.hid from US.houses h").is_some());
        assert!(cache.lookup("select a.aid from US.agents a").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
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
