//! The counter/histogram registry: a fixed set of named atomic counters
//! covering every pipeline stage. No global sampler, no locks — counters
//! are plain relaxed atomics, gated on [`crate::enabled`] so the disabled
//! cost is one load + branch.

use std::sync::atomic::{AtomicU64, Ordering};

/// A single named monotonic counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    cell: AtomicU64,
}

impl Counter {
    const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// The registry name, e.g. `"exchange.rows_merged"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`; a no-op while both profiling and flight recording are
    /// disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::counters_live() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one; a no-op while profiling is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets in a [`Histogram`] (covers 1 ns .. ~137 s).
pub const HISTOGRAM_BUCKETS: usize = 38;

/// The bucket index a value lands in: `floor(log2(v))`, with zero treated
/// as one (bucket 0) and everything at or above `2^(HISTOGRAM_BUCKETS-1)`
/// saturating into the top bucket.
#[inline]
pub(crate) fn bucket_for(value: u64) -> usize {
    let bucket = (63 - value.max(1).leading_zeros()) as usize;
    bucket.min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` (`2^i`, except bucket 0 which also
/// absorbs zero).
pub(crate) fn bucket_lower(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`, except the top
/// bucket which saturates to `u64::MAX`).
#[cfg(test)]
fn bucket_upper(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free log₂-bucketed histogram (bucket *i* counts values `v` with
/// `floor(log2(v)) == i`; zero lands in bucket 0).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A plain-data copy of a [`Histogram`].
pub type HistogramSnapshot = [u64; HISTOGRAM_BUCKETS];

impl Histogram {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    pub const fn new() -> Self {
        Histogram {
            buckets: [Self::ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one observation (typically nanoseconds); a no-op while both
    /// profiling and flight recording are disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if crate::counters_live() {
            self.buckets[bucket_for(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of the recorded values.
    /// Returns `None` on an empty histogram. See [`snapshot_percentile`].
    pub fn percentile(&self, q: f64) -> Option<u64> {
        snapshot_percentile(&self.snapshot(), q)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Estimate the `q`-quantile (`0.0 ..= 1.0`) from a histogram snapshot.
///
/// Walks the buckets until the cumulative count covers `ceil(q * total)`
/// observations and returns the geometric midpoint of that bucket's bounds
/// (lower bound for bucket 0 / the saturated top bucket, whose upper bound
/// is not meaningful). Returns `None` when no observations were recorded.
pub fn snapshot_percentile(snap: &HistogramSnapshot, q: f64) -> Option<u64> {
    let total: u64 = snap.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in snap.iter().enumerate() {
        seen += count;
        if seen >= rank {
            if i == 0 || i == HISTOGRAM_BUCKETS - 1 {
                return Some(bucket_lower(i));
            }
            // Geometric midpoint of [2^i, 2^(i+1)): 2^i * sqrt(2).
            return Some((bucket_lower(i) as f64 * std::f64::consts::SQRT_2) as u64);
        }
    }
    unreachable!("cumulative count covers rank <= total")
}

/// The standard reporting percentiles (p50/p90/p99) of a snapshot, or
/// `None` on an empty histogram.
pub fn snapshot_percentiles(snap: &HistogramSnapshot) -> Option<(u64, u64, u64)> {
    Some((
        snapshot_percentile(snap, 0.50)?,
        snapshot_percentile(snap, 0.90)?,
        snapshot_percentile(snap, 0.99)?,
    ))
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The global registry: one field per pipeline metric.
#[derive(Debug)]
pub struct Counters {
    /// Source tuples visited during query evaluation / binding enumeration.
    pub tuples_scanned: Counter,
    /// Candidate variable bindings produced by the evaluator's `from` loop.
    pub bindings_enumerated: Counter,
    /// Hash-join probes: candidate items tested after a hash-table lookup
    /// (instead of a full nested-loop scan).
    pub hash_probes: Counter,
    /// Plain + MXQL queries evaluated end to end.
    pub queries_evaluated: Counter,
    /// Exchange: fresh target rows materialized.
    pub rows_inserted: Counter,
    /// Exchange: rows folded into an existing member by PNF merging.
    pub rows_merged: Counter,
    /// Exchange: worker threads spawned by parallel mapping evaluation.
    pub parallel_workers: Counter,
    /// Exchange: `f_mp` annotations newly written onto target nodes.
    pub annotations_written: Counter,
    /// Exchange: annotation writes that were no-ops (name already present —
    /// the PNF-merge sharing the paper's Section 8 optimization relies on).
    pub annotations_suppressed: Counter,
    /// Metastore: rows encoded into the seven storage relations.
    pub meta_tuples_encoded: Counter,
    /// MXQL→plain translation: union branches produced.
    pub translate_branches: Counter,
    /// XML writer: annotation attributes emitted.
    pub xml_annotations_written: Counter,
    /// XML writer: annotation attributes suppressed by PNF sharing.
    pub xml_annotations_suppressed: Counter,
    /// Guard: deadline/cancellation poll points actually evaluated
    /// (strided — not every charge).
    pub guard_checks: Counter,
    /// Guard: budget violations (each yields one `GuardError`).
    pub guard_trips: Counter,
    /// Guard: exchange rollbacks performed after a mid-mapping trip.
    pub guard_rollbacks: Counter,
    /// Incremental exchange: delta batches applied.
    pub delta_batches: Counter,
    /// Incremental exchange: source edits applied across all batches.
    pub delta_edits: Counter,
    /// Incremental exchange: foreach rows added to the cached row bags.
    pub delta_rows_added: Counter,
    /// Incremental exchange: foreach rows retracted from the cached bags.
    pub delta_rows_removed: Counter,
    /// Incremental exchange: target member classes rebuilt in place.
    pub delta_classes_rebuilt: Counter,
    /// Incremental exchange: mappings skipped by path-affectedness pruning.
    pub delta_mappings_pruned: Counter,
    /// Incremental exchange: mappings re-enumerated (delta rule or full).
    pub delta_mappings_reevaluated: Counter,
    /// Incremental exchange: re-enumerated mappings whose foreach ran in
    /// full (function- or annotation-sourced from-items).
    pub delta_mappings_full: Counter,
    /// Durable store: delta frames committed to the write-ahead log.
    pub durable_wal_appends: Counter,
    /// Durable store: WAL bytes durably written (frames + checkpoints).
    pub durable_wal_bytes: Counter,
    /// Durable store: checkpoints written (initial + rotations).
    pub durable_checkpoints: Counter,
    /// Durable store: recoveries performed on open.
    pub durable_recoveries: Counter,
    /// Durable store: delta batches replayed during recovery.
    pub durable_replayed_deltas: Counter,
    /// Durable store: transient I/O errors retried (fsync/append).
    pub durable_io_retries: Counter,
    /// Durable store: epoch snapshots published for concurrent readers.
    pub durable_epochs_published: Counter,
    /// Distribution of span durations (ns) across all stages.
    pub span_duration_ns: Histogram,
}

static COUNTERS: Counters = Counters {
    tuples_scanned: Counter::new("eval.tuples_scanned"),
    bindings_enumerated: Counter::new("eval.bindings_enumerated"),
    hash_probes: Counter::new("eval.hash_probes"),
    queries_evaluated: Counter::new("eval.queries_evaluated"),
    rows_inserted: Counter::new("exchange.rows_inserted"),
    rows_merged: Counter::new("exchange.rows_merged"),
    parallel_workers: Counter::new("exchange.parallel_workers"),
    annotations_written: Counter::new("exchange.annotations_written"),
    annotations_suppressed: Counter::new("exchange.annotations_suppressed"),
    meta_tuples_encoded: Counter::new("metastore.tuples_encoded"),
    translate_branches: Counter::new("translate.branches"),
    xml_annotations_written: Counter::new("xml.annotations_written"),
    xml_annotations_suppressed: Counter::new("xml.annotations_suppressed"),
    guard_checks: Counter::new("guard.checks"),
    guard_trips: Counter::new("guard.trips"),
    guard_rollbacks: Counter::new("guard.rollbacks"),
    delta_batches: Counter::new("exchange.delta_batches"),
    delta_edits: Counter::new("exchange.delta_edits"),
    delta_rows_added: Counter::new("exchange.delta_rows_added"),
    delta_rows_removed: Counter::new("exchange.delta_rows_removed"),
    delta_classes_rebuilt: Counter::new("exchange.delta_classes_rebuilt"),
    delta_mappings_pruned: Counter::new("exchange.delta_mappings_pruned"),
    delta_mappings_reevaluated: Counter::new("exchange.delta_mappings_reevaluated"),
    delta_mappings_full: Counter::new("exchange.delta_mappings_full"),
    durable_wal_appends: Counter::new("durable.wal_appends"),
    durable_wal_bytes: Counter::new("durable.wal_bytes"),
    durable_checkpoints: Counter::new("durable.checkpoints"),
    durable_recoveries: Counter::new("durable.recoveries"),
    durable_replayed_deltas: Counter::new("durable.replayed_deltas"),
    durable_io_retries: Counter::new("durable.io_retries"),
    durable_epochs_published: Counter::new("durable.epochs_published"),
    span_duration_ns: Histogram::new(),
};

/// The global counter registry.
pub fn counters() -> &'static Counters {
    &COUNTERS
}

impl Counters {
    fn all(&self) -> [&Counter; 31] {
        [
            &self.tuples_scanned,
            &self.bindings_enumerated,
            &self.hash_probes,
            &self.queries_evaluated,
            &self.rows_inserted,
            &self.rows_merged,
            &self.parallel_workers,
            &self.annotations_written,
            &self.annotations_suppressed,
            &self.meta_tuples_encoded,
            &self.translate_branches,
            &self.xml_annotations_written,
            &self.xml_annotations_suppressed,
            &self.guard_checks,
            &self.guard_trips,
            &self.guard_rollbacks,
            &self.delta_batches,
            &self.delta_edits,
            &self.delta_rows_added,
            &self.delta_rows_removed,
            &self.delta_classes_rebuilt,
            &self.delta_mappings_pruned,
            &self.delta_mappings_reevaluated,
            &self.delta_mappings_full,
            &self.durable_wal_appends,
            &self.durable_wal_bytes,
            &self.durable_checkpoints,
            &self.durable_recoveries,
            &self.durable_replayed_deltas,
            &self.durable_io_retries,
            &self.durable_epochs_published,
        ]
    }

    /// Current value of every counter, sorted by name so snapshots (and
    /// the JSON they serialize into) are stable across runs.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut values: Vec<(String, u64)> = self
            .all()
            .iter()
            .map(|c| (c.name().to_string(), c.get()))
            .collect();
        values.sort();
        values
    }

    pub(crate) fn reset(&self) {
        for c in self.all() {
            c.reset();
        }
        self.span_duration_ns.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let _guard = crate::test_guard();
        let h = Histogram::new();
        crate::set_enabled(true);
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to last bucket
        crate::set_enabled(false);
        let snap = h.snapshot();
        assert_eq!(snap[0], 2);
        assert_eq!(snap[1], 2);
        assert_eq!(snap[10], 1);
        assert_eq!(snap[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn bucket_boundaries_pinned() {
        // Zero is absorbed into bucket 0 alongside 1 — no underflow.
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 0);
        // Powers of two start a new bucket; the value just below belongs
        // to the previous one.
        assert_eq!(bucket_for(2), 1);
        assert_eq!(bucket_for(3), 1);
        assert_eq!(bucket_for(4), 2);
        assert_eq!(bucket_for(1023), 9);
        assert_eq!(bucket_for(1024), 10);
        // Top-bucket saturation: 2^37 is the first saturated value, and
        // everything above (through u64::MAX) stays clamped there.
        assert_eq!(bucket_for((1 << 37) - 1), 36);
        assert_eq!(bucket_for(1 << 37), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_for(1 << 50), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_u64_without_gaps() {
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_lower(1), 2);
        assert_eq!(bucket_upper(1), 3);
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1);
            assert_eq!(bucket_for(bucket_lower(i)), i.min(HISTOGRAM_BUCKETS - 1));
        }
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentiles_from_histogram() {
        let _guard = crate::test_guard();
        let h = Histogram::new();
        crate::set_enabled(true);
        for _ in 0..90 {
            h.record(100); // bucket 6: [64, 127]
        }
        for _ in 0..10 {
            h.record(100_000); // bucket 16: [65536, 131071]
        }
        crate::set_enabled(false);
        let p50 = h.percentile(0.50).unwrap();
        let p90 = h.percentile(0.90).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((bucket_lower(6)..=bucket_upper(6)).contains(&p50));
        assert!((bucket_lower(6)..=bucket_upper(6)).contains(&p90));
        assert!((bucket_lower(16)..=bucket_upper(16)).contains(&p99));
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn percentile_empty_and_edge_quantiles() {
        let _guard = crate::test_guard();
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        crate::set_enabled(true);
        h.record(0);
        h.record(u64::MAX);
        crate::set_enabled(false);
        // Bucket 0 and the saturated top bucket report their lower bound.
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(1.0), Some(bucket_lower(HISTOGRAM_BUCKETS - 1)));
        let snap = h.snapshot();
        assert!(snapshot_percentiles(&snap).is_some());
    }
}
