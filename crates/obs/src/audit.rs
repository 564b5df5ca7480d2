//! Per-request structured audit log.
//!
//! Where the flight recorder ([`crate::recorder`]) keeps a time-domain
//! window of *events*, the audit log keeps one structured record per
//! *request* — a query evaluation, a data exchange, or a translated MXQL
//! run — carrying the query fingerprint, evaluation statistics, guard
//! outcome, wall latency, and row counts. Records render as JSON lines
//! ([`to_jsonl`]) and can be streamed to an [`AuditSink`] as they are
//! recorded; `dtr_metastore::audit_view` turns the log into a queryable
//! `AuditDb` meta-instance, so the system can answer questions about its
//! own request history in MXQL (the paper's Section 7 move, applied to
//! operations).
//!
//! Gated on `DTR_AUDIT=1` (or [`set_enabled`]) with the same
//! one-relaxed-load discipline as the journal and the flight recorder;
//! bounded by a ring of [`DEFAULT_CAP`] records (`DTR_AUDIT_CAP`
//! overrides).

use std::collections::VecDeque;
use std::sync::Mutex;

use serde_json::{Map, Value};

/// Default ring-buffer capacity (records retained) when `DTR_AUDIT_CAP`
/// is unset. Requests are coarser than events, so the default is smaller
/// than the journal's.
pub const DEFAULT_CAP: usize = 4_096;

/// FNV-1a fingerprint of a request's defining text (the normalized query
/// string, or the sorted mapping-name list of an exchange). Stable across
/// runs so audit logs from different days join on it.
///
/// Collisions are benign here: the fingerprint is a *join label*, never an
/// identity. Each [`AuditRecord`] is identified by its unique `seq`, and
/// carries the full `request` text verbatim, so a consumer grouping by
/// fingerprint can always structurally confirm the match by comparing
/// `request` strings — two colliding requests stay two distinct records
/// (see `forced_fingerprint_collision_keeps_records_distinct`).
pub fn fingerprint(text: &str) -> u64 {
    crate::stats::fnv1a(text.as_bytes())
}

/// One audit record: a completed (or aborted) request.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Global sequence number, assigned by the log.
    pub seq: u64,
    /// Request kind: `"query"` (direct evaluation), `"translate"`
    /// (MXQL→plain translated run), or `"exchange"`.
    pub kind: String,
    /// [`fingerprint`] of the request text, rendered as 16 hex digits.
    /// A cross-run grouping label only — record identity is `seq`, and
    /// `request` holds the exact text for structural confirmation, so a
    /// fingerprint collision can never conflate two records.
    pub fingerprint: String,
    /// The request text itself (query string / mapping list).
    pub request: String,
    /// Result rows produced (target rows materialized for exchanges).
    pub rows: u64,
    /// End-to-end wall latency.
    pub wall_ns: u64,
    /// `"ok"`, `"guard:<resource>"` on a budget trip, or `"error"`.
    pub outcome: String,
    /// Source tuples visited (the query engine's `EvalStats`; zero for
    /// exchanges).
    pub tuples_scanned: u64,
    /// Candidate bindings enumerated.
    pub bindings_enumerated: u64,
    /// Predicate triples tested.
    pub predicate_triples_tested: u64,
    /// Hash-join probes.
    pub hash_probes: u64,
}

impl AuditRecord {
    /// A record with the fingerprint derived from `request`; the `seq`
    /// field is assigned when recorded.
    pub fn new(kind: impl Into<String>, request: impl Into<String>) -> Self {
        let request = request.into();
        AuditRecord {
            seq: 0,
            kind: kind.into(),
            fingerprint: format!("{:016x}", fingerprint(&request)),
            request,
            rows: 0,
            wall_ns: 0,
            outcome: "ok".to_string(),
            tuples_scanned: 0,
            bindings_enumerated: 0,
            predicate_triples_tested: 0,
            hash_probes: 0,
        }
    }

    /// The record as a JSON object (one JSONL line when printed
    /// compactly); inverse of [`AuditRecord::from_json`].
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("seq", Value::from(self.seq));
        obj.insert("kind", Value::from(self.kind.as_str()));
        obj.insert("fingerprint", Value::from(self.fingerprint.as_str()));
        obj.insert("request", Value::from(self.request.as_str()));
        obj.insert("rows", Value::from(self.rows));
        obj.insert("wall_ns", Value::from(self.wall_ns));
        obj.insert("outcome", Value::from(self.outcome.as_str()));
        obj.insert("tuples_scanned", Value::from(self.tuples_scanned));
        obj.insert("bindings_enumerated", Value::from(self.bindings_enumerated));
        obj.insert(
            "predicate_triples_tested",
            Value::from(self.predicate_triples_tested),
        );
        obj.insert("hash_probes", Value::from(self.hash_probes));
        Value::Object(obj)
    }

    /// Parse the structure produced by [`AuditRecord::to_json`].
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let get = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("audit record: missing integer field '{key}'"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("audit record: missing string field '{key}'"))
        };
        Ok(AuditRecord {
            seq: get("seq")?,
            kind: get_str("kind")?,
            fingerprint: get_str("fingerprint")?,
            request: get_str("request")?,
            rows: get("rows")?,
            wall_ns: get("wall_ns")?,
            outcome: get_str("outcome")?,
            tuples_scanned: get("tuples_scanned")?,
            bindings_enumerated: get("bindings_enumerated")?,
            predicate_triples_tested: get("predicate_triples_tested")?,
            hash_probes: get("hash_probes")?,
        })
    }

    /// Parse a JSONL document (one record per line, blank lines skipped).
    pub fn from_jsonl(text: &str) -> Result<Vec<Self>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value: Value = serde_json::from_str(line)
                .map_err(|e| format!("audit jsonl line {}: {e}", i + 1))?;
            out.push(Self::from_json(&value)?);
        }
        Ok(out)
    }

    /// One-line human rendering (used by `.audit`). A request longer
    /// than 48 bytes is cut at the last char boundary at or before byte 48.
    pub fn render(&self) -> String {
        format!(
            "#{:<5} {:<9} fp {} rows {:<6} {:>9} ns  {}  {}",
            self.seq,
            self.kind,
            self.fingerprint,
            self.rows,
            self.wall_ns,
            self.outcome,
            if self.request.len() > 48 {
                let cut = (0..=48)
                    .rev()
                    .find(|&i| self.request.is_char_boundary(i))
                    .unwrap_or(0);
                format!("{}…", &self.request[..cut])
            } else {
                self.request.clone()
            }
        )
    }
}

/// A streaming destination for audit records: each completed record is
/// appended as one compact JSON line the moment it is recorded (the ring
/// buffer keeps the queryable in-memory window independently).
pub trait AuditSink: Send {
    /// Append one JSONL line (no trailing newline included).
    fn append(&mut self, line: &str) -> std::io::Result<()>;
}

/// An [`AuditSink`] appending to a file, flushed per record so a crashed
/// process keeps its audit tail.
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Open (append) or create the file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(FileSink {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }
}

impl AuditSink for FileSink {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        use std::io::Write;
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }
}

/// An in-memory [`AuditSink`] sharing its lines through an
/// `Arc<Mutex<Vec<String>>>` (test and REPL use).
pub struct VecSink(pub std::sync::Arc<Mutex<Vec<String>>>);

impl AuditSink for VecSink {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(line.to_string());
        Ok(())
    }
}

// ---- The gate. ----

static GATE: crate::Gate = crate::Gate::new("DTR_AUDIT");

/// Is audit logging enabled? First call consults `DTR_AUDIT` (values `1`,
/// `true`, `on`, case-insensitive); afterwards a single relaxed atomic
/// load. Call sites must gate record construction on this.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Force audit logging on or off, overriding `DTR_AUDIT`.
pub fn set_enabled(on: bool) {
    GATE.set(on)
}

// ---- The ring buffer + sink. ----

struct Log {
    cap: usize,
    buf: VecDeque<AuditRecord>,
    next_seq: u64,
    dropped: u64,
    sink: Option<Box<dyn AuditSink>>,
}

impl Log {
    /// An empty log holding `DTR_AUDIT_CAP` records.
    fn from_env() -> Self {
        Log {
            cap: crate::env_number("DTR_AUDIT_CAP", DEFAULT_CAP).max(1),
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            sink: None,
        }
    }

    fn record(&mut self, mut record: AuditRecord) -> u64 {
        if self.buf.len() >= self.cap && self.buf.pop_front().is_some() {
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        record.seq = seq;
        if let Some(sink) = &mut self.sink {
            // A failing sink must not fail the request it audits; the
            // error is reported once by dropping the sink.
            if sink.append(&record.to_json().to_string()).is_err() {
                self.sink = None;
            }
        }
        self.buf.push_back(record);
        seq
    }
}

fn with_log<R>(f: impl FnOnce(&mut Log) -> R) -> R {
    static LOG: Mutex<Option<Log>> = Mutex::new(None);
    let mut guard = LOG.lock().unwrap_or_else(|p| p.into_inner());
    let log = guard.get_or_insert_with(Log::from_env);
    f(log)
}

// ---- Public recording / query API. ----

/// Record one request (the `seq` field is assigned by the log). A no-op
/// returning 0 while disabled — callers should check [`enabled`] before
/// building the record.
pub fn record(record: AuditRecord) -> u64 {
    if !enabled() {
        return 0;
    }
    with_log(|l| l.record(record))
}

/// Clear all records and restart the sequence (capacity re-read from
/// `DTR_AUDIT_CAP`); any attached sink is kept.
pub fn reset() {
    with_log(|l| {
        let sink = l.sink.take();
        *l = Log::from_env();
        l.sink = sink;
    });
}

/// Attach (or with `None` detach) the streaming sink.
pub fn set_sink(sink: Option<Box<dyn AuditSink>>) {
    with_log(|l| l.sink = sink);
}

/// All retained records, oldest first.
pub fn records() -> Vec<AuditRecord> {
    with_log(|l| l.buf.iter().cloned().collect())
}

/// `(recorded, retained, dropped, cap)` counts for status displays.
pub fn counts() -> (u64, u64, u64, u64) {
    with_log(|l| (l.next_seq, l.buf.len() as u64, l.dropped, l.cap as u64))
}

/// Every retained record as one compact JSON line (the exportable form;
/// inverse of [`AuditRecord::from_jsonl`]).
pub fn to_jsonl() -> String {
    let mut out = String::new();
    for r in records() {
        out.push_str(&r.to_json().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::test_guard()
    }

    #[test]
    fn disabled_audit_records_nothing() {
        let _guard = guard();
        set_enabled(false);
        reset();
        record(AuditRecord::new("query", "select x from S x"));
        assert!(records().is_empty());
        let (recorded, retained, dropped, _cap) = counts();
        assert_eq!((recorded, retained, dropped), (0, 0, 0));
        assert!(to_jsonl().is_empty());
    }

    #[test]
    fn render_cuts_long_requests_at_a_char_boundary() {
        // Byte 48 falls inside the two-byte `é` at bytes 47..49.
        let request = format!("{}é and more", "a".repeat(47));
        assert!(!request.is_char_boundary(48));
        let line = AuditRecord::new("query", request).render();
        assert!(line.ends_with(&format!("  {}…", "a".repeat(47))), "{line}");
    }

    #[test]
    fn ring_bound_and_jsonl_round_trip() {
        let _guard = guard();
        set_enabled(true);
        reset();
        for i in 0..6u64 {
            let mut r = AuditRecord::new("query", format!("select q{i} from S x"));
            r.rows = i;
            r.wall_ns = 100 * (i + 1);
            record(r);
        }
        set_enabled(false);
        let all = records();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].seq, 0);
        assert_eq!(all[5].seq, 5);
        let parsed = AuditRecord::from_jsonl(&to_jsonl()).unwrap();
        assert_eq!(parsed, all);
    }

    #[test]
    fn forced_fingerprint_collision_keeps_records_distinct() {
        let _guard = guard();
        set_enabled(true);
        reset();
        // Force two different requests onto the same fingerprint: the log
        // must keep both as separate records (identity is `seq`), each
        // with its own request text for structural confirmation.
        let mut a = AuditRecord::new("query", "select x from S x");
        let mut b = AuditRecord::new("query", "select y from T y");
        a.fingerprint = "00000000deadbeef".to_string();
        b.fingerprint = "00000000deadbeef".to_string();
        record(a);
        record(b);
        set_enabled(false);
        let all = records();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].fingerprint, all[1].fingerprint);
        assert_ne!(all[0].seq, all[1].seq);
        assert_ne!(all[0].request, all[1].request);
        assert_eq!(all[0].request, "select x from S x");
        assert_eq!(all[1].request, "select y from T y");
    }

    #[test]
    fn eviction_keeps_newest() {
        let _guard = guard();
        set_enabled(true);
        reset();
        with_log(|l| l.cap = 3);
        for i in 0..5u64 {
            record(AuditRecord::new("query", format!("q{i}")));
        }
        set_enabled(false);
        let all = records();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].seq, 2);
        let (recorded, retained, dropped, _) = counts();
        assert_eq!((recorded, retained, dropped), (5, 3, 2));
    }

    #[test]
    fn sink_streams_every_record() {
        let _guard = guard();
        set_enabled(true);
        reset();
        let lines = std::sync::Arc::new(Mutex::new(Vec::new()));
        set_sink(Some(Box::new(VecSink(lines.clone()))));
        record(AuditRecord::new("exchange", "m1,m2,m3"));
        let mut r = AuditRecord::new("query", "select x from S x");
        r.outcome = "guard:rows".to_string();
        record(r);
        set_sink(None);
        set_enabled(false);
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 2);
        let first = AuditRecord::from_jsonl(&lines[0]).unwrap();
        assert_eq!(first[0].kind, "exchange");
        let second = AuditRecord::from_jsonl(&lines[1]).unwrap();
        assert_eq!(second[0].outcome, "guard:rows");
    }

    #[test]
    fn fingerprints_are_stable_hex() {
        let a = AuditRecord::new("query", "select x from S x");
        let b = AuditRecord::new("query", "select x from S x");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint.len(), 16);
        assert_ne!(
            a.fingerprint,
            AuditRecord::new("query", "select y from S y").fingerprint
        );
    }
}
