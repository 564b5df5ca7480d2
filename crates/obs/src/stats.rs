//! The statistics catalog: per-schema-path cardinalities, distinct-value
//! estimates, equality-join selectivities and set-cardinality histograms,
//! collected during exchange and query runs.
//!
//! Statistics follow the paper's §7 stance that transformations are data:
//! the catalog is written as sorted-key JSON, mergeable in memory,
//! and encodable into the metastore as a queryable meta-instance
//! (`dtr_metastore::stats_view`), so MXQL can query the engine's own
//! runtime behavior.
//!
//! Collection is gated separately from profiling: `DTR_STATS=1` or
//! [`set_enabled`]. Disabled cost is one relaxed atomic load per call
//! site. Distinct values are counted exactly below a threshold and spill
//! to an HLL-style register sketch above it, so a path with millions of
//! values costs O(registers), not O(values), in memory.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde_json::{json, Map, Value};

use crate::metrics::{bucket_for, HISTOGRAM_BUCKETS};

static GATE: crate::Gate = crate::Gate::new("DTR_STATS");

/// Is statistics collection enabled? First call consults `DTR_STATS`
/// (values `1`, `true`, `on`, case-insensitive); afterwards a single
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Force statistics collection on or off, overriding `DTR_STATS`.
pub fn set_enabled(on: bool) {
    GATE.set(on)
}

/// Exact distinct counting below this many values; HLL sketch above.
const EXACT_THRESHOLD: usize = 512;
/// Number of HLL registers (2^8): relative error ≈ 1.04/√256 ≈ 6.5%.
const HLL_REGISTERS: usize = 256;
const HLL_INDEX_BITS: u32 = 8;

/// FNV-1a 64-bit hash — the deterministic hash all distinct-value
/// estimates are keyed on, so catalogs from different runs (and different
/// platforms) merge coherently.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Finalizer mix (splitmix64) applied before HLL register selection:
/// FNV-1a alone has weak low-bit avalanche.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A distinct-value estimator: exact under the exact threshold (512 values), an
/// HLL-style sketch beyond it.
#[derive(Debug, Clone, PartialEq)]
pub enum DistinctEstimator {
    /// Sorted set of FNV-1a hashes of the values seen so far.
    Exact(Vec<u64>),
    /// One max-rank register per bucket of the mixed hash.
    Sketch(Vec<u8>),
}

impl Default for DistinctEstimator {
    fn default() -> Self {
        DistinctEstimator::Exact(Vec::new())
    }
}

impl DistinctEstimator {
    /// Insert one value hash (as produced by [`fnv1a`]).
    pub fn insert(&mut self, hash: u64) {
        match self {
            DistinctEstimator::Exact(hashes) => {
                if let Err(pos) = hashes.binary_search(&hash) {
                    hashes.insert(pos, hash);
                    if hashes.len() > EXACT_THRESHOLD {
                        self.spill();
                    }
                }
            }
            DistinctEstimator::Sketch(regs) => sketch_insert(regs, hash),
        }
    }

    fn spill(&mut self) {
        if let DistinctEstimator::Exact(hashes) = self {
            let mut regs = vec![0u8; HLL_REGISTERS];
            for &h in hashes.iter() {
                sketch_insert(&mut regs, h);
            }
            *self = DistinctEstimator::Sketch(regs);
        }
    }

    /// Estimated number of distinct values (exact while under threshold).
    pub fn estimate(&self) -> u64 {
        match self {
            DistinctEstimator::Exact(hashes) => hashes.len() as u64,
            DistinctEstimator::Sketch(regs) => sketch_estimate(regs),
        }
    }

    /// Fold `other` into `self`; spills to a sketch if either side is one
    /// or the union exceeds the exact threshold.
    pub fn merge(&mut self, other: &DistinctEstimator) {
        match other {
            DistinctEstimator::Exact(hashes) => {
                for &h in hashes {
                    self.insert(h);
                }
            }
            DistinctEstimator::Sketch(other_regs) => {
                self.spill();
                if let DistinctEstimator::Sketch(regs) = self {
                    for (r, o) in regs.iter_mut().zip(other_regs) {
                        *r = (*r).max(*o);
                    }
                } else {
                    // self was Exact and under threshold before spill() —
                    // spill() always converts, so this is unreachable.
                    unreachable!("spill() leaves a sketch");
                }
            }
        }
    }

    fn to_json(&self) -> Value {
        match self {
            DistinctEstimator::Exact(hashes) => json!({
                "mode": "exact",
                "hashes": Value::Array(hashes.iter().map(|&h| Value::from(h)).collect()),
            }),
            DistinctEstimator::Sketch(regs) => json!({
                "mode": "sketch",
                "registers":
                    Value::Array(regs.iter().map(|&r| Value::from(r as u64)).collect()),
            }),
        }
    }
}

fn sketch_insert(regs: &mut [u8], hash: u64) {
    let h = mix(hash);
    let idx = (h >> (64 - HLL_INDEX_BITS)) as usize;
    let rest = h << HLL_INDEX_BITS;
    let rank = (rest.leading_zeros() + 1).min(64 - HLL_INDEX_BITS + 1) as u8;
    if regs[idx] < rank {
        regs[idx] = rank;
    }
}

fn sketch_estimate(regs: &[u8]) -> u64 {
    let m = regs.len() as f64;
    let alpha = 0.7213 / (1.0 + 1.079 / m);
    let sum: f64 = regs.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
    let raw = alpha * m * m / sum;
    let zeros = regs.iter().filter(|&&r| r == 0).count();
    let corrected = if raw <= 2.5 * m && zeros > 0 {
        m * (m / zeros as f64).ln()
    } else {
        raw
    };
    corrected.round() as u64
}

/// Statistics for one schema path (`"db:/root/child/..."`).
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Atomic values (tuple members) observed at this path.
    pub tuples: u64,
    /// Set nodes observed at this path.
    pub sets: u64,
    /// log₂ histogram of observed set cardinalities.
    pub set_card: [u64; HISTOGRAM_BUCKETS],
    /// Distinct-value estimator over the values at this path.
    pub distinct: DistinctEstimator,
}

impl Default for PathStats {
    fn default() -> Self {
        PathStats {
            tuples: 0,
            sets: 0,
            set_card: [0; HISTOGRAM_BUCKETS],
            distinct: DistinctEstimator::default(),
        }
    }
}

impl PathStats {
    /// Estimated number of distinct values at this path.
    pub fn distinct_estimate(&self) -> u64 {
        self.distinct.estimate()
    }
}

/// Statistics for one canonicalized equality-join key
/// (e.g. `"src:/rdb/listing/agent-id = src:/rdb/agent/id"`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JoinStats {
    /// Rows on the build side of the hash join.
    pub build_rows: u64,
    /// Rows on the probe side.
    pub probe_rows: u64,
    /// Candidate pairs actually tested after the hash lookup.
    pub probes: u64,
    /// Pairs that satisfied the equality (join output cardinality).
    pub matches: u64,
}

impl JoinStats {
    /// Estimated equality-join selectivity: output cardinality over the
    /// cross-product size, in `[0, 1]`. `None` until both sides have rows.
    pub fn selectivity(&self) -> Option<f64> {
        let cross = (self.build_rows as f64) * (self.probe_rows as f64);
        if cross == 0.0 {
            return None;
        }
        Some((self.matches as f64 / cross).min(1.0))
    }
}

/// The statistics catalog: what the engine has measured about the data it
/// moved and the joins it ran. Keys are sorted (`BTreeMap`) so JSON
/// serialization is stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsCatalog {
    /// Per-schema-path statistics, keyed by root-rooted dot paths
    /// (`US.houses.price`, with `->` for choice alternatives) — the same
    /// canonicalized form the query evaluator derives from path
    /// expressions, so exchange-side and query-side observations of one
    /// schema path merge into a single entry.
    pub paths: BTreeMap<String, PathStats>,
    /// Per-join-key statistics, keyed by the canonicalized key pair.
    pub joins: BTreeMap<String, JoinStats>,
}

impl StatsCatalog {
    pub fn new() -> Self {
        StatsCatalog::default()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty() && self.joins.is_empty()
    }

    /// Record one set node of `cardinality` members at `path`.
    pub fn record_set(&mut self, path: &str, cardinality: u64) {
        let entry = self.path_entry(path);
        entry.sets += 1;
        entry.set_card[bucket_for(cardinality)] += 1;
    }

    /// Record one atomic value at `path`, identified by its [`fnv1a`] hash.
    pub fn record_value_hash(&mut self, path: &str, hash: u64) {
        let entry = self.path_entry(path);
        entry.tuples += 1;
        entry.distinct.insert(hash);
    }

    /// Convenience: hash `value` with [`fnv1a`] and record it at `path`.
    pub fn record_value(&mut self, path: &str, value: &str) {
        self.record_value_hash(path, fnv1a(value.as_bytes()));
    }

    /// Record the outcome of one equality hash join under `key`.
    pub fn record_join(&mut self, key: &str, stats: JoinStats) {
        let entry = self.joins.entry(key.to_string()).or_default();
        entry.build_rows += stats.build_rows;
        entry.probe_rows += stats.probe_rows;
        entry.probes += stats.probes;
        entry.matches += stats.matches;
    }

    fn path_entry(&mut self, path: &str) -> &mut PathStats {
        self.paths.entry(path.to_string()).or_default()
    }

    /// Fold `other` into `self` (counts add, histograms add elementwise,
    /// distinct estimators union), so a locally collected catalog folds
    /// into the global one as if it had been collected there.
    pub fn merge(&mut self, other: &StatsCatalog) {
        for (path, stats) in &other.paths {
            let entry = self.path_entry(path);
            entry.tuples += stats.tuples;
            entry.sets += stats.sets;
            for (b, n) in entry.set_card.iter_mut().zip(stats.set_card.iter()) {
                *b += n;
            }
            entry.distinct.merge(&stats.distinct);
        }
        for (key, stats) in &other.joins {
            self.record_join(key, *stats);
        }
    }

    /// Sorted-key JSON rendering, with the derived quantities
    /// (`distinct_estimate`, `selectivity`) embedded for readers.
    pub fn to_json(&self) -> Value {
        let mut paths = Map::new();
        for (path, stats) in &self.paths {
            let set_card: Vec<Value> = stats
                .set_card
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| json!([i, n]))
                .collect();
            paths.insert(
                path.clone(),
                json!({
                    "distinct": stats.distinct.to_json(),
                    "distinct_estimate": stats.distinct_estimate(),
                    "set_card": set_card,
                    "sets": stats.sets,
                    "tuples": stats.tuples,
                }),
            );
        }
        let mut joins = Map::new();
        for (key, stats) in &self.joins {
            joins.insert(
                key.clone(),
                json!({
                    "build_rows": stats.build_rows,
                    "matches": stats.matches,
                    "probe_rows": stats.probe_rows,
                    "probes": stats.probes,
                    "selectivity": stats.selectivity(),
                }),
            );
        }
        json!({ "joins": joins, "paths": paths })
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("stats JSON serializes")
    }

    /// Human-readable table of the catalog (the REPL's `.stats` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("statistics catalog: empty (is stats collection on?)\n");
            return out;
        }
        let _ = writeln!(out, "paths ({}):", self.paths.len());
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>6} {:>10}",
            "path", "tuples", "sets", "~distinct"
        );
        for (path, s) in &self.paths {
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>6} {:>10}",
                path,
                s.tuples,
                s.sets,
                s.distinct_estimate()
            );
        }
        if !self.joins.is_empty() {
            let _ = writeln!(out, "joins ({}):", self.joins.len());
            for (key, j) in &self.joins {
                let sel = j
                    .selectivity()
                    .map_or("-".to_string(), |s| format!("{s:.4}"));
                let _ = writeln!(
                    out,
                    "  {key}\n    build {}  probe {}  probes {}  matches {}  selectivity {sel}",
                    j.build_rows, j.probe_rows, j.probes, j.matches
                );
            }
        }
        out
    }
}

static CATALOG: Mutex<StatsCatalog> = Mutex::new(StatsCatalog {
    paths: BTreeMap::new(),
    joins: BTreeMap::new(),
});

fn global() -> std::sync::MutexGuard<'static, StatsCatalog> {
    CATALOG.lock().unwrap_or_else(|p| p.into_inner())
}

/// Fold a locally collected catalog into the global one. Collection sites
/// batch into a local [`StatsCatalog`] and merge once, so the global lock
/// is taken O(runs), not O(rows).
pub fn merge(local: &StatsCatalog) {
    if !local.is_empty() {
        global().merge(local);
    }
}

/// Record one equality-join outcome directly against the global catalog.
pub fn record_join(key: &str, stats: JoinStats) {
    global().record_join(key, stats);
}

/// Record one set observation directly against the global catalog.
pub fn record_set(path: &str, cardinality: u64) {
    global().record_set(path, cardinality);
}

/// A copy of the global catalog as collected so far.
pub fn snapshot() -> StatsCatalog {
    global().clone()
}

/// Clear the global catalog.
pub fn reset() {
    *global() = StatsCatalog::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_distinct_is_exact() {
        let mut d = DistinctEstimator::default();
        for i in 0..400u64 {
            d.insert(fnv1a(&i.to_le_bytes()));
            d.insert(fnv1a(&i.to_le_bytes())); // duplicates don't count
        }
        assert_eq!(d.estimate(), 400);
        assert!(matches!(d, DistinctEstimator::Exact(_)));
    }

    #[test]
    fn sketch_estimate_within_tolerance() {
        let mut d = DistinctEstimator::default();
        let n = 20_000u64;
        for i in 0..n {
            d.insert(fnv1a(format!("value-{i}").as_bytes()));
        }
        assert!(matches!(d, DistinctEstimator::Sketch(_)));
        let est = d.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.15, "estimate {est} off by {:.1}%", err * 100.0);
    }

    #[test]
    fn merge_exact_and_sketch() {
        let mut a = DistinctEstimator::default();
        let mut b = DistinctEstimator::default();
        for i in 0..300u64 {
            a.insert(fnv1a(&i.to_le_bytes()));
        }
        for i in 200..500u64 {
            b.insert(fnv1a(&i.to_le_bytes()));
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.estimate(), 500); // union stays exact under threshold

        // Exact merged into a sketch spills and stays sane.
        let mut big = DistinctEstimator::default();
        for i in 0..5_000u64 {
            big.insert(fnv1a(&i.to_le_bytes()));
        }
        let mut spilled = b.clone();
        spilled.merge(&big);
        assert!(matches!(spilled, DistinctEstimator::Sketch(_)));
        let est = spilled.estimate() as f64;
        assert!((est - 5_000.0).abs() / 5_000.0 < 0.15, "estimate {est}");
    }

    #[test]
    fn catalog_merge_adds_counts() {
        let mut a = StatsCatalog::new();
        a.record_set("db:/listing", 10);
        a.record_value("db:/listing/price", "100");
        a.record_value("db:/listing/price", "200");
        let mut b = StatsCatalog::new();
        b.record_set("db:/listing", 6);
        b.record_value("db:/listing/price", "200");
        b.record_join(
            "db:/agent/id = db:/listing/agent-id",
            JoinStats {
                build_rows: 5,
                probe_rows: 20,
                probes: 20,
                matches: 18,
            },
        );
        a.merge(&b);
        let p = &a.paths["db:/listing"];
        assert_eq!(p.sets, 2);
        assert_eq!(p.set_card[bucket_for(10)] + p.set_card[bucket_for(6)], 2);
        let price = &a.paths["db:/listing/price"];
        assert_eq!(price.tuples, 3);
        assert_eq!(price.distinct_estimate(), 2);
        let j = &a.joins["db:/agent/id = db:/listing/agent-id"];
        assert_eq!(j.matches, 18);
        assert_eq!(j.selectivity(), Some(0.18));
    }

    #[test]
    fn json_writes_every_path_and_join_under_sorted_keys() {
        let mut c = StatsCatalog::new();
        c.record_set("db:/r", 4);
        for i in 0..700u64 {
            c.record_value("db:/r/x", &format!("v{i}"));
        }
        c.record_value("db:/r/y", "only");
        c.record_join(
            "a = b",
            JoinStats {
                build_rows: 3,
                probe_rows: 4,
                probes: 6,
                matches: 5,
            },
        );
        let json = c.to_json();
        let paths = json.get("paths").and_then(Value::as_object).unwrap();
        assert_eq!(
            paths.keys().collect::<Vec<_>>(),
            vec!["db:/r", "db:/r/x", "db:/r/y"]
        );
        let r = paths.get("db:/r").unwrap();
        assert_eq!(r.get("sets").and_then(Value::as_u64), Some(1));
        assert_eq!(r.get("set_card"), Some(&json!([[bucket_for(4), 1]])));
        // Past the exact threshold the estimator is written as a sketch...
        let x = paths.get("db:/r/x").unwrap();
        assert_eq!(x.get("tuples").and_then(Value::as_u64), Some(700));
        let distinct = x.get("distinct").unwrap();
        assert_eq!(distinct.get("mode").and_then(Value::as_str), Some("sketch"));
        assert_eq!(
            distinct
                .get("registers")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(HLL_REGISTERS)
        );
        // ...and below it as the exact hash set.
        let y = paths.get("db:/r/y").unwrap();
        assert_eq!(
            y.get("distinct"),
            Some(&json!({"mode": "exact", "hashes": [fnv1a(b"only")]}))
        );
        assert_eq!(y.get("distinct_estimate").and_then(Value::as_u64), Some(1));
        assert_eq!(
            json.get("joins").unwrap(),
            &json!({"a = b": {
                "build_rows": 3,
                "matches": 5,
                "probe_rows": 4,
                "probes": 6,
                "selectivity": 5.0 / 12.0,
            }})
        );
    }

    #[test]
    fn global_catalog_merge_and_reset() {
        let _guard = crate::test_guard();
        reset();
        let mut local = StatsCatalog::new();
        local.record_set("g:/s", 2);
        merge(&local);
        merge(&local);
        assert_eq!(snapshot().paths["g:/s"].sets, 2);
        reset();
        assert!(snapshot().is_empty());
    }
}
