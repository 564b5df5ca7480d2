//! What the pipeline counts: [`Work`], the tally a session keeps and a
//! request returns, plus the log₂ histogram helpers behind the span
//! collector's latency percentiles.
//!
//! A `Work` value is plain data. Each count is folded from what a call
//! already returns — an evaluator run's `EvalStats`, a mapping's
//! `MappingStats`, an incremental batch's `TargetDelta`, a durable
//! session's commits — once per call, never per row. Nothing is shared
//! between sessions, so one session's tally never moves another's, and
//! the counts are the same whether any telemetry tier is on or off.

use std::ops::AddAssign;

/// Declares [`Work`] from one line per count: its field, its name and
/// its meaning, in name order. `entries` and `AddAssign` follow from
/// that one list.
macro_rules! work {
    ($($(#[$doc:meta])* $field:ident: $name:literal,)+) => {
        /// The work a session did or a request cost: one count per name,
        /// summed with `+=`. Sessions keep one (`IncrementalSession::work`,
        /// `DurableSession::work`); an exchange's is
        /// `ExchangeReport::work`, a query's follows from its `EvalStats`.
        /// A profile shows the one its caller attaches
        /// ([`crate::PipelineProfile::counters`]).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Work {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl Work {
            /// Every count under its name, sorted by name.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$(($name, self.$field)),+]
            }

            /// A value whose counts run `start + 1`, `start + 2`, ... in
            /// name order, so no two fields hold the same count.
            #[cfg(test)]
            fn numbered(start: u64) -> Work {
                let mut n = start;
                Work {
                    $($field: {
                        n += 1;
                        n
                    },)+
                }
            }
        }

        impl AddAssign for Work {
            fn add_assign(&mut self, other: Work) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

work! {
    /// Checkpoints written: a log's opening one and each rotation.
    durable_checkpoints: "durable.checkpoints",
    /// Epoch snapshots published after a session's first.
    durable_epochs_published: "durable.epochs_published",
    /// Transient I/O errors retried (appends, fsyncs, rotations, the
    /// recovery read).
    durable_io_retries: "durable.io_retries",
    /// Recoveries from a log: 1 for a reopened session.
    durable_recoveries: "durable.recoveries",
    /// Delta batches a recovery replayed on top of its checkpoint.
    durable_replayed_deltas: "durable.replayed_deltas",
    /// Delta frames committed to the write-ahead log.
    durable_wal_appends: "durable.wal_appends",
    /// The payload bytes of those delta frames: each committed batch's
    /// JSON, without the frame header. Checkpoints add nothing here.
    durable_wal_bytes: "durable.wal_bytes",
    /// Variable bindings that survived each enumeration stage.
    eval_bindings_enumerated: "eval.bindings_enumerated",
    /// Candidate items tested after a hash-table probe.
    eval_hash_probes: "eval.hash_probes",
    /// Evaluator runs: one per query, translated branch, virtual
    /// rewriting, foreach and delta term evaluated.
    eval_queries_evaluated: "eval.queries_evaluated",
    /// Candidate items visited while enumerating bindings.
    eval_tuples_scanned: "eval.tuples_scanned",
    /// Annotation writes that were no-ops (the name was already there:
    /// the PNF-merge sharing Section 8 relies on).
    exchange_annotations_suppressed: "exchange.annotations_suppressed",
    /// `f_mp` annotations newly written onto target nodes.
    exchange_annotations_written: "exchange.annotations_written",
    /// Incremental batches applied.
    exchange_delta_batches: "exchange.delta_batches",
    /// Target member classes an incremental batch rebuilt in place.
    exchange_delta_classes_rebuilt: "exchange.delta_classes_rebuilt",
    /// Source edits the applied batches carried.
    exchange_delta_edits: "exchange.delta_edits",
    /// Re-enumerated mappings whose foreach ran in full (function- or
    /// annotation-sourced from-items).
    exchange_delta_mappings_full: "exchange.delta_mappings_full",
    /// Mappings a batch skipped by path-affectedness pruning.
    exchange_delta_mappings_pruned: "exchange.delta_mappings_pruned",
    /// Mappings a batch re-enumerated (delta rule or full).
    exchange_delta_mappings_reevaluated: "exchange.delta_mappings_reevaluated",
    /// Foreach rows the batches added to the kept row bags.
    exchange_delta_rows_added: "exchange.delta_rows_added",
    /// Foreach rows the batches retracted from the kept row bags.
    exchange_delta_rows_removed: "exchange.delta_rows_removed",
    /// Fresh target members a full exchange materialized.
    exchange_rows_inserted: "exchange.rows_inserted",
    /// Bindings a full exchange folded into an existing member by PNF
    /// merging.
    exchange_rows_merged: "exchange.rows_merged",
    /// Incremental batches rolled back after a guard trip.
    guard_rollbacks: "guard.rollbacks",
    /// Guard errors the session's calls (or the request) returned.
    guard_trips: "guard.trips",
    /// Rows encoded into the metastore's seven relations.
    metastore_tuples_encoded: "metastore.tuples_encoded",
    /// Union branches of the §7.3 translation that were evaluated: a
    /// translated result's `EvalStats::runs`.
    translate_branches: "translate.branches",
}

/// Number of log₂ buckets in a [`Histogram`] (covers 1 ns .. ~137 s).
pub(crate) const HISTOGRAM_BUCKETS: usize = 38;

/// A log₂-bucketed histogram: bucket *i* counts values `v` with
/// `floor(log2(v)) == i`; zero lands in bucket 0.
pub(crate) type Histogram = [u64; HISTOGRAM_BUCKETS];

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

/// Estimate the `q`-quantile (`0.0 ..= 1.0`) of a histogram.
///
/// Walks the buckets until the cumulative count covers `ceil(q * total)`
/// observations and returns the geometric midpoint of that bucket's bounds
/// (lower bound for bucket 0 / the saturated top bucket, whose upper bound
/// is not meaningful). Returns `None` when no observations were recorded.
pub(crate) fn percentile(hist: &Histogram, q: f64) -> Option<u64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
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

/// The standard reporting percentiles (p50/p90/p99) of a histogram, or
/// `None` on an empty one.
pub(crate) fn percentiles(hist: &Histogram) -> Option<(u64, u64, u64)> {
    Some((
        percentile(hist, 0.50)?,
        percentile(hist, 0.90)?,
        percentile(hist, 0.99)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: &[u64]) -> Histogram {
        let mut h = [0; HISTOGRAM_BUCKETS];
        for &v in values {
            h[bucket_for(v)] += 1;
        }
        h
    }

    #[test]
    fn work_names_are_unique_and_sorted() {
        let names: Vec<&str> = Work::default().entries().iter().map(|e| e.0).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "names must be strictly increasing: {names:?}"
        );
    }

    #[test]
    fn add_assign_sums_every_field() {
        let mut sum = Work::numbered(0);
        sum += Work::numbered(100);
        for (i, (name, value)) in sum.entries().into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(value, (i + 1) + (i + 101), "{name}");
        }
        assert_eq!(
            Work::default().entries().iter().map(|e| e.1).sum::<u64>(),
            0
        );
    }

    #[test]
    fn histogram_buckets_by_log2() {
        // Zero and one share bucket 0; u64::MAX clamps to the last bucket.
        let snap = histogram(&[0, 1, 2, 3, 1024, u64::MAX]);
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
        // 90 values in bucket 6 ([64, 127]), 10 in bucket 16.
        let mut values = vec![100; 90];
        values.extend([100_000; 10]);
        let h = histogram(&values);
        let (p50, p90, p99) = percentiles(&h).unwrap();
        assert!((bucket_lower(6)..=bucket_upper(6)).contains(&p50));
        assert!((bucket_lower(6)..=bucket_upper(6)).contains(&p90));
        assert!((bucket_lower(16)..=bucket_upper(16)).contains(&p99));
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn percentile_empty_and_edge_quantiles() {
        assert_eq!(percentile(&histogram(&[]), 0.5), None);
        assert_eq!(percentiles(&histogram(&[])), None);
        let h = histogram(&[0, u64::MAX]);
        // Bucket 0 and the saturated top bucket report their lower bound.
        assert_eq!(percentile(&h, 0.0), Some(0));
        assert_eq!(
            percentile(&h, 1.0),
            Some(bucket_lower(HISTOGRAM_BUCKETS - 1))
        );
        assert!(percentiles(&h).is_some());
    }
}
