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
//! bounded by a [`CAP`]-record ring of the type the journal and the
//! flight recorder use too.

use std::sync::Mutex;

use serde_json::{Map, Value};

use crate::ring::{Counts, Ring};

/// Records the log retains. Requests are coarser than events, so the
/// bound is smaller than the journal's.
pub const CAP: usize = 4_096;

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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One audit record: a completed (or aborted) request.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Global sequence number, assigned by the log.
    pub seq: u64,
    /// Request kind: `"query"` (direct evaluation of a parsed query),
    /// `"query.planned"` (direct evaluation of query text or a compiled
    /// plan, through the plan cache), `"translate"` (MXQL→plain translated
    /// run), `"virtual"` (a target query answered over the sources), or
    /// `"exchange"`.
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
    /// compactly).
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

    /// One-line human rendering (used by `.audit`). The request's
    /// whitespace runs collapse to one space, and a request still longer
    /// than 48 bytes is cut at the last char boundary at or before byte 48.
    pub fn render(&self) -> String {
        let request = self
            .request
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "#{:<5} {:<9} fp {} rows {:<6} {:>9} ns  {}  {}",
            self.seq,
            self.kind,
            self.fingerprint,
            self.rows,
            self.wall_ns,
            self.outcome,
            if request.len() > 48 {
                let cut = (0..=48)
                    .rev()
                    .find(|&i| request.is_char_boundary(i))
                    .unwrap_or(0);
                format!("{}…", &request[..cut])
            } else {
                request
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

// ---- The log: a ring plus an optional sink. ----

struct Log {
    ring: Ring<AuditRecord>,
    sink: Option<Box<dyn AuditSink>>,
}

impl Log {
    fn record(&mut self, mut record: AuditRecord) -> u64 {
        record.seq = self.ring.next_seq();
        if let Some(sink) = &mut self.sink {
            // A failing sink must not fail the request it audits; the
            // error is reported once by dropping the sink.
            if sink.append(&record.to_json().to_string()).is_err() {
                self.sink = None;
            }
        }
        self.ring.push(|_| record).0
    }
}

fn with_log<R>(f: impl FnOnce(&mut Log) -> R) -> R {
    static LOG: Mutex<Log> = Mutex::new(Log {
        ring: Ring::new(CAP),
        sink: None,
    });
    f(&mut LOG.lock().unwrap_or_else(|p| p.into_inner()))
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

/// Clear all records and restart the sequence; any attached sink is kept.
pub fn reset() {
    with_log(|l| l.ring = Ring::new(CAP));
}

/// Attach (or with `None` detach) the streaming sink.
pub fn set_sink(sink: Option<Box<dyn AuditSink>>) {
    with_log(|l| l.sink = sink);
}

/// All retained records, oldest first.
pub fn records() -> Vec<AuditRecord> {
    with_log(|l| l.ring.iter().cloned().collect())
}

/// Recorded, retained and dropped records, and the ring's bound.
pub fn counts() -> Counts {
    with_log(|l| l.ring.counts())
}

/// Every retained record as one compact JSON line (the exportable form).
pub fn to_jsonl() -> String {
    with_log(|l| l.ring.to_jsonl(AuditRecord::to_json))
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
        let c = counts();
        assert_eq!((c.recorded, c.retained, c.dropped), (0, 0, 0));
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
    fn render_keeps_a_multi_line_request_on_one_line() {
        let request = "select e.hid\nfrom Portal.estates e\nwhere e.contact = 'HomeGain'";
        let record = AuditRecord::new("query", request);
        let line = record.render();
        assert!(!line.contains('\n'), "{line}");
        assert!(
            line.ends_with("  select e.hid from Portal.estates e where e.conta…"),
            "{line}"
        );
        // The stored request, and so the fingerprint, keep their text.
        assert_eq!(record.request, request);
        assert_eq!(record.fingerprint, format!("{:016x}", fingerprint(request)));
    }

    #[test]
    fn jsonl_writes_every_field_of_each_record() {
        let _guard = guard();
        set_enabled(true);
        reset();
        for i in 0..2u64 {
            let mut r = AuditRecord::new("query", format!("select q{i} from S x"));
            r.rows = i;
            r.wall_ns = 100 * (i + 1);
            record(r);
        }
        set_enabled(false);
        let all = records();
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].seq, all[1].seq), (0, 1));
        let jsonl = to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            format!(
                "{{\"seq\":1,\"kind\":\"query\",\"fingerprint\":\"{}\",\
                 \"request\":\"select q1 from S x\",\"rows\":1,\"wall_ns\":200,\
                 \"outcome\":\"ok\",\"tuples_scanned\":0,\"bindings_enumerated\":0,\
                 \"predicate_triples_tested\":0,\"hash_probes\":0}}",
                all[1].fingerprint
            )
        );
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
        let field = |line: &str, key: &str| {
            let value: Value = serde_json::from_str(line).unwrap();
            value.get(key).and_then(Value::as_str).map(str::to_string)
        };
        assert_eq!(field(&lines[0], "kind").as_deref(), Some("exchange"));
        assert_eq!(field(&lines[1], "outcome").as_deref(), Some("guard:rows"));
        // The sink sees each record with its assigned sequence number.
        let seq: Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(seq.get("seq").and_then(Value::as_u64), Some(1));
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
        // FNV-1a 64's published test vectors: logs from older builds join
        // on the same fingerprints.
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
