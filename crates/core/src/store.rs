//! Durable exchange sessions: an [`IncrementalSession`] whose edit
//! batches are committed to a write-ahead log before they touch the
//! engine, with epoch snapshots published for concurrent readers.
//!
//! The commit protocol is WAL-then-publish: a batch is first framed and
//! fsynced into the log ([`dtr_mapping::durable::Wal`]), then applied to
//! the in-memory exchange, then published as a fresh [`Epoch`] that
//! readers pin via [`SnapshotStore::pin`]. A crash between WAL commit and
//! epoch publish therefore recovers to the *post*-delta state (the frame
//! is durable); a crash during the append recovers to the *pre*-delta
//! state (the torn frame is truncated). Recovery never lands anywhere
//! else — `law_recovery` in dtr-check pins exactly this adjacency.
//!
//! Publishing an epoch does not copy the state. The instances' node and
//! annotation arenas are copy-on-write chunks of 128 slots
//! (`dtr_model::instance`): an epoch's clones of the session's instances
//! copy one pointer per chunk and share the chunks themselves with the
//! live state, and the next batch copies only the chunks it writes, so
//! what a commit copies follows its delta. Annotation passes write a slot
//! only when its value changes, so a pass over untouched nodes leaves
//! their chunks shared. The epoch reuses the session's validated setting
//! and annotations as they are, and renders its canonical XML only when
//! asked. [`DurableSession::publish_nanos`] accumulates the publish time,
//! which the repository benchmark reports per commit as the
//! `core.store.publish` layer.
//!
//! Checkpoints are self-describing: schemas, mappings, annotated source
//! and target instances, and the metastore rendering all ride in the
//! checkpoint frame via their existing textual round-trips, so
//! [`DurableSession::open`] needs no pre-loaded scenario and can verify
//! the rebuilt canonical target byte-for-byte against what was saved.
//!
//! Decoding that payload is cheap next to using it. The frame CRC is
//! slicing-by-8, the JSON parser copies each run of a string between
//! escapes in one piece, and `instance_from_xml` reads tags straight into
//! the source instances without an intermediate tree; each produces the
//! bytes and values it did one character at a time. A recovery's time
//! therefore goes to the rebuild (a full exchange) and the replay. With
//! profiling on (`DTR_PROFILE=1`), [`DurableSession::open`] records one
//! span per step, `durable.recover.{wal, decode, rebuild, verify,
//! replay}`, and [`DurableSession::checkpoint`] one per step,
//! `durable.checkpoint.{rebase, encode, rotate}`.
//!
//! ```
//! use std::sync::Arc;
//! use dtr_core::store::{DurableOptions, DurableSession};
//! use dtr_core::testkit::{figure1_setting, figure1_sources};
//! use dtr_mapping::delta::SourceDelta;
//! use dtr_mapping::durable::MemVfs;
//!
//! let vfs = Arc::new(MemVfs::new());
//! let mut s = DurableSession::create(
//!     figure1_setting(),
//!     figure1_sources(),
//!     None,
//!     vfs.clone(),
//!     "wal",
//!     DurableOptions::default(),
//! )
//! .unwrap();
//! s.apply(&SourceDelta::new().delete("US.houses", 0)).unwrap();
//! drop(s); // crash
//! let (reopened, report) =
//!     DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
//! assert_eq!(report.replayed, 1);
//! assert_eq!(reopened.pin().batch, 1);
//! ```

use crate::incremental::IncrementalSession;
use crate::tagged::{MappingSetting, MxqlError, TaggedInstance};
use dtr_mapping::delta::{SourceDelta, TargetDelta};
use dtr_mapping::durable::{Recovered, Vfs, Wal, WalError};
use dtr_mapping::exchange::ExchangeOptions;
use dtr_mapping::glav::Mapping;
use dtr_metastore::store::MetaStore;
use dtr_model::instance::Instance;
use dtr_model::schema::Schema;
use dtr_obs::Work;
use dtr_xml::parser::instance_from_xml;
use dtr_xml::schema_xml::{schema_from_xml, schema_to_xml};
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Version tag of the checkpoint payload layout.
const CHECKPOINT_FORMAT: u64 = 1;

// ---------------------------------------------------------------------------
// Options and reports
// ---------------------------------------------------------------------------

/// Tuning for a [`DurableSession`].
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Exchange options for the underlying engine (budgets, stats, ...).
    pub exchange: ExchangeOptions,
    /// Auto-checkpoint (segment rotation) after this many committed
    /// deltas. `0` disables auto-checkpointing; [`DurableSession::checkpoint`]
    /// still rotates on demand.
    pub checkpoint_every: u64,
    /// Transient I/O failures (fsync hiccups) are retried this many times
    /// before the session degrades.
    pub retries: u32,
    /// Base backoff between retries; doubles per attempt.
    pub backoff_ms: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            exchange: ExchangeOptions::default(),
            checkpoint_every: 64,
            retries: 3,
            backoff_ms: 1,
        }
    }
}

/// What [`DurableSession::open`] did to get back to a consistent state.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Committed deltas replayed on top of the checkpoint.
    pub replayed: usize,
    /// Bytes of torn tail truncated from the recovered segment.
    pub truncated_bytes: u64,
    /// Segment number the checkpoint was read from.
    pub segment: u32,
    /// Non-fatal observations: torn tails, discarded half-rotated
    /// segments, metastore render drift.
    pub warnings: Vec<String>,
}

// ---------------------------------------------------------------------------
// Epoch snapshots
// ---------------------------------------------------------------------------

/// One published state of the exchange: an immutable [`TaggedInstance`]
/// plus the canonical annotated-XML rendering of its target. Readers that
/// pinned an epoch keep it alive (and byte-identical) however far the
/// writer advances.
///
/// Publishing is cheap: the epoch is the session's own setting (shared
/// through an `Arc`) and clones of its validated, annotated instances,
/// whose arenas are copy-on-write chunks (see `dtr_model::instance`), so a
/// publish copies chunk pointers and later writes copy only the chunks
/// they touch. Nothing is validated or annotated again. The canonical XML
/// is rendered on the first [`Epoch::canonical`] call and cached; an epoch
/// nobody renders never pays for it.
pub struct Epoch {
    /// Monotonic publish counter, starting at 1 for the initial state.
    pub id: u64,
    /// Batches applied since the log was created (checkpoint base plus
    /// replayed plus live applies).
    pub batch: u64,
    /// The queryable snapshot.
    tagged: Arc<TaggedInstance>,
    /// The canonical annotated XML of the target, rendered on first use.
    canonical: OnceLock<String>,
}

impl Epoch {
    /// The queryable snapshot.
    pub fn tagged(&self) -> Arc<TaggedInstance> {
        self.tagged.clone()
    }

    /// Annotated XML of the target at publish time — the byte-identity
    /// witness used by recovery verification and the reader soak tests.
    /// Rendered on the first call and cached.
    pub fn canonical(&self) -> &str {
        self.canonical
            .get_or_init(|| instance_to_xml(self.tagged.target(), WriteOptions::annotated()))
    }
}

/// Epoch head with atomic swap: one writer publishes, any number of
/// readers pin. Dropping the store does not invalidate pinned epochs.
pub struct SnapshotStore {
    head: RwLock<Arc<Epoch>>,
    next_id: AtomicU64,
}

impl SnapshotStore {
    fn new(first: Epoch) -> Arc<SnapshotStore> {
        let id = first.id;
        Arc::new(SnapshotStore {
            head: RwLock::new(Arc::new(first)),
            next_id: AtomicU64::new(id + 1),
        })
    }

    /// The current head epoch, pinned. The returned `Arc` stays valid and
    /// unchanged across later publishes.
    pub fn pin(&self) -> Arc<Epoch> {
        self.head.read().expect("snapshot head lock").clone()
    }

    fn publish(&self, mut epoch: Epoch) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        epoch.id = id;
        *self.head.write().expect("snapshot head lock") = Arc::new(epoch);
        id
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload (self-describing JSON document)
// ---------------------------------------------------------------------------

struct CheckpointDoc {
    batch: u64,
    source_schemas: Vec<Schema>,
    target_schema: Schema,
    mappings: Vec<Mapping>,
    sources: Vec<Instance>,
    target_xml: String,
    metastore_render: Option<String>,
}

fn wal_to_mxql(e: WalError) -> MxqlError {
    match e {
        WalError::Io { path, op, msg } => MxqlError::Io {
            path,
            op: op.to_string(),
            msg,
        },
        other => MxqlError::Other(other.to_string()),
    }
}

fn build_checkpoint(session: &IncrementalSession, batch: u64) -> Vec<u8> {
    let setting = session.setting();
    let doc = serde_json::json!({
        "format": CHECKPOINT_FORMAT,
        "batch": batch,
        "source_schemas": setting
            .source_schemas()
            .iter()
            .map(schema_to_xml)
            .collect::<Vec<_>>(),
        "target_schema": schema_to_xml(setting.target_schema()),
        "mappings": setting
            .mappings()
            .iter()
            .map(|m| {
                serde_json::json!([
                    m.name.as_str(),
                    format!("foreach {} exists {}", m.foreach, m.exists),
                ])
            })
            .collect::<Vec<_>>(),
        "sources": session
            .sources()
            .iter()
            .map(|s| instance_to_xml(s, WriteOptions::annotated()))
            .collect::<Vec<_>>(),
        "target": instance_to_xml(session.target(), WriteOptions::annotated()),
        "metastore": session.store().map(|s| s.render()),
    });
    doc.to_string().into_bytes()
}

fn corrupt(msg: impl Into<String>) -> MxqlError {
    MxqlError::Other(format!("checkpoint corrupt: {}", msg.into()))
}

fn parse_checkpoint(payload: &[u8]) -> Result<CheckpointDoc, MxqlError> {
    let text = std::str::from_utf8(payload).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| corrupt(format!("not JSON: {e}")))?;
    let obj = doc.as_object().ok_or_else(|| corrupt("not an object"))?;
    let format = obj.get("format").and_then(|v| v.as_u64());
    if format != Some(CHECKPOINT_FORMAT) {
        return Err(corrupt(format!("unsupported format {format:?}")));
    }
    let batch = obj
        .get("batch")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| corrupt("missing batch"))?;
    let str_list = |key: &str| -> Result<Vec<&str>, MxqlError> {
        obj.get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| corrupt(format!("missing {key}")))?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| corrupt(format!("non-string in {key}")))
            })
            .collect()
    };
    let source_schemas = str_list("source_schemas")?
        .into_iter()
        .map(|xml| schema_from_xml(xml).map_err(|e| corrupt(format!("source schema: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let target_schema = obj
        .get("target_schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| corrupt("missing target_schema"))
        .and_then(|xml| schema_from_xml(xml).map_err(|e| corrupt(format!("target schema: {e}"))))?;
    let mappings = obj
        .get("mappings")
        .and_then(|v| v.as_array())
        .ok_or_else(|| corrupt("missing mappings"))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2);
            let (name, body) = match pair.and_then(|p| Some((p[0].as_str()?, p[1].as_str()?))) {
                Some(nb) => nb,
                None => return Err(corrupt("mapping entry is not [name, body]")),
            };
            Mapping::parse(name, body).map_err(|e| corrupt(format!("mapping {name}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sources = str_list("sources")?
        .into_iter()
        .zip(&source_schemas)
        .map(|(xml, schema)| {
            instance_from_xml(xml, schema).map_err(|e| corrupt(format!("source instance: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if sources.len() != source_schemas.len() {
        return Err(corrupt("source/schema count mismatch"));
    }
    let target_xml = obj
        .get("target")
        .and_then(|v| v.as_str())
        .ok_or_else(|| corrupt("missing target"))?
        .to_string();
    let metastore_render = obj
        .get("metastore")
        .and_then(|v| v.as_str())
        .map(|s| s.to_string());
    Ok(CheckpointDoc {
        batch,
        source_schemas,
        target_schema,
        mappings,
        sources,
        target_xml,
        metastore_render,
    })
}

// ---------------------------------------------------------------------------
// The durable session
// ---------------------------------------------------------------------------

/// A WAL-backed [`IncrementalSession`] publishing epoch snapshots.
pub struct DurableSession {
    session: IncrementalSession,
    wal: Wal,
    snapshots: Arc<SnapshotStore>,
    opts: DurableOptions,
    /// Batches that landed before this process opened the log.
    batch_base: u64,
    deltas_since_checkpoint: u64,
    read_only: Option<String>,
    /// Wall time spent committing frames to the log across every apply —
    /// serialization, framing, CRC, appends, and sync points.
    wal_commit_nanos: u64,
    /// Wall time spent capturing and publishing epoch snapshots across
    /// every apply (chunk-pointer clones; rendering is deferred to the
    /// first reader that asks for it).
    publish_nanos: u64,
    /// What this session adds to its incremental session's tally: its
    /// commits, checkpoints, publishes and retries, and the recovery that
    /// opened it.
    durable: Work,
}

impl DurableSession {
    /// Runs the initial full exchange, writes the opening checkpoint to a
    /// fresh log in `dir`, and publishes epoch 1. Fails if `dir` already
    /// holds WAL segments (use [`DurableSession::open`] for those).
    pub fn create(
        setting: MappingSetting,
        sources: Vec<Instance>,
        store: Option<MetaStore>,
        vfs: Arc<dyn Vfs>,
        dir: &str,
        opts: DurableOptions,
    ) -> Result<DurableSession, MxqlError> {
        let started = Instant::now();
        let mut session =
            IncrementalSession::with_options(setting, sources, opts.exchange.clone())?;
        if let Some(store) = store {
            session.attach_store(store);
        }
        let payload = build_checkpoint(&session, 0);
        let bytes = payload.len() as u64;
        let mut durable = Work::default();
        let wal = retry(&opts, &mut durable, || {
            // A half-written create leaves segments behind; scrub so the
            // retry starts from an empty directory again.
            if let Ok(nums) = Wal::segment_numbers(vfs.as_ref(), dir) {
                for n in nums {
                    let _ = vfs.remove(&format!("{dir}/wal-{n:06}.log"));
                }
            }
            Wal::create(vfs.clone(), dir, &payload)
        })
        .map_err(wal_to_mxql)?;
        durable.durable_checkpoints += 1;
        record_checkpoint(bytes, wal.segment(), started.elapsed());
        let snapshots = SnapshotStore::new(epoch_of(&session, 1, 0));
        Ok(DurableSession {
            session,
            wal,
            snapshots,
            opts,
            batch_base: 0,
            deltas_since_checkpoint: 0,
            read_only: None,
            wal_commit_nanos: 0,
            publish_nanos: 0,
            durable,
        })
    }

    /// Recovers from the log in `dir`: loads the latest intact
    /// checkpoint, rebuilds the exchange from its self-contained scenario,
    /// verifies the rebuilt canonical target byte-for-byte against the
    /// saved one, then replays the committed delta suffix. Torn tails and
    /// half-finished rotations surface as warnings, never as panics.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &str,
        opts: DurableOptions,
    ) -> Result<(DurableSession, RecoveryReport), MxqlError> {
        let started = Instant::now();
        let step = dtr_obs::span("durable.recover.wal");
        let mut durable = Work::default();
        let (wal, recovered) =
            retry(&opts, &mut durable, || Wal::recover(vfs.clone(), dir)).map_err(wal_to_mxql)?;
        drop(step);
        let Recovered {
            checkpoint,
            deltas,
            segment,
            mut warnings,
            truncated_bytes,
        } = recovered;
        let step = dtr_obs::span("durable.recover.decode").field("bytes", checkpoint.len());
        let doc = parse_checkpoint(&checkpoint)?;
        drop(step);
        let step = dtr_obs::span("durable.recover.rebuild");
        let setting = MappingSetting::new(
            doc.source_schemas.clone(),
            doc.target_schema.clone(),
            doc.mappings.clone(),
        )?;
        let mut session =
            IncrementalSession::with_options(setting, doc.sources, opts.exchange.clone())?;
        drop(step);
        // The checkpoint target must be reproducible from the checkpoint
        // sources (the incremental≡full law); anything else means the
        // saved state is not self-consistent and must not be served.
        let step = dtr_obs::span("durable.recover.verify");
        let rebuilt = instance_to_xml(session.target(), WriteOptions::annotated());
        if rebuilt != doc.target_xml {
            return Err(corrupt(
                "rebuilt target differs from checkpointed target bytes",
            ));
        }
        if let Some(saved_render) = &doc.metastore_render {
            let mut store = MetaStore::new();
            for schema in doc.source_schemas.iter().chain([&doc.target_schema]) {
                store
                    .add_schema(schema)
                    .map_err(|e| corrupt(format!("metastore schema: {e}")))?;
            }
            let refs: Vec<&Schema> = doc.source_schemas.iter().collect();
            for m in &doc.mappings {
                store
                    .add_mapping(m, &refs, &doc.target_schema)
                    .map_err(|e| corrupt(format!("metastore mapping: {e}")))?;
            }
            if store.render() != *saved_render {
                warnings.push(
                    "metastore render drifted from checkpoint (rebuilt store kept)".to_string(),
                );
            }
            durable.metastore_tuples_encoded += store.total_rows() as u64;
            session.attach_store(store);
        }
        drop(step);
        let step = dtr_obs::span("durable.recover.replay").field("deltas", deltas.len());
        let mut replayed = 0usize;
        for payload in &deltas {
            let text = std::str::from_utf8(payload)
                .map_err(|e| corrupt(format!("delta frame {replayed}: not UTF-8: {e}")))?;
            let value: serde_json::Value = serde_json::from_str(text)
                .map_err(|e| corrupt(format!("delta frame {replayed}: not JSON: {e}")))?;
            let delta = SourceDelta::from_json(&value)
                .ok_or_else(|| corrupt(format!("delta frame {replayed}: malformed")))?;
            session
                .apply(&delta)
                .map_err(|e| corrupt(format!("delta frame {replayed} failed to replay: {e}")))?;
            replayed += 1;
        }
        drop(step);
        let batch = doc.batch + replayed as u64;
        durable.durable_recoveries += 1;
        durable.durable_replayed_deltas += replayed as u64;
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(dtr_obs::journal::event(
                "durable.recover",
                dtr_obs::journal::Outcome::Recovered {
                    replayed: replayed as u64,
                    truncated: truncated_bytes,
                },
            ));
        }
        if dtr_obs::recorder::enabled() {
            dtr_obs::recorder::record_durable_window(
                "recover",
                checkpoint.len() as u64,
                replayed as u64,
                started.elapsed().as_nanos() as u64,
            );
        }
        let snapshots = SnapshotStore::new(epoch_of(&session, 1, batch));
        let durable = DurableSession {
            session,
            wal,
            snapshots,
            opts,
            batch_base: doc.batch,
            deltas_since_checkpoint: replayed as u64,
            read_only: None,
            wal_commit_nanos: 0,
            publish_nanos: 0,
            durable,
        };
        let report = RecoveryReport {
            replayed,
            truncated_bytes,
            segment,
            warnings,
        };
        Ok((durable, report))
    }

    /// Commits one batch: WAL-append (the commit point) with
    /// retry-with-backoff, engine apply, epoch publish, then maybe an
    /// auto-checkpoint. A batch the engine rejects is rolled back off the
    /// log so recovery never replays it; a log that can no longer commit
    /// degrades the session to read-only (queries keep working).
    pub fn apply(&mut self, delta: &SourceDelta) -> Result<TargetDelta, MxqlError> {
        if let Some(reason) = &self.read_only {
            return Err(MxqlError::Other(format!("session is read-only: {reason}")));
        }
        let started = Instant::now();
        let payload = delta.to_json().to_string().into_bytes();
        let before = self.wal.committed_len();
        let commit_result = retry(&self.opts, &mut self.durable, || {
            self.wal.append_delta(&payload)
        });
        self.wal_commit_nanos += started.elapsed().as_nanos() as u64;
        if let Err(e) = commit_result {
            if !e.is_transient() || matches!(e, WalError::Poisoned(_)) {
                self.read_only = Some(e.to_string());
            } else {
                self.read_only = Some(format!("wal commit kept failing: {e}"));
            }
            return Err(wal_to_mxql(e));
        }
        let td = match self.session.apply(delta) {
            Ok(td) => td,
            Err(e) => {
                // The frame is durable but the state rejected it; undo the
                // commit so a reopen converges to the live (pre-delta) state.
                if let Err(undo) = self.wal.rollback_to(before) {
                    self.read_only = Some(format!("rejected batch stuck in log: {undo}"));
                }
                return Err(e);
            }
        };
        self.durable.durable_wal_appends += 1;
        self.durable.durable_wal_bytes += payload.len() as u64;
        if dtr_obs::journal::enabled() {
            dtr_obs::journal::record(dtr_obs::journal::event(
                "durable.wal_append",
                dtr_obs::journal::Outcome::WalAppend {
                    bytes: payload.len() as u64,
                    segment: self.wal.segment() as u64,
                },
            ));
        }
        if dtr_obs::recorder::enabled() {
            dtr_obs::recorder::record_durable_window(
                "wal_append",
                payload.len() as u64,
                1,
                started.elapsed().as_nanos() as u64,
            );
        }
        self.deltas_since_checkpoint += 1;
        let batch = self.batch();
        let publish_started = Instant::now();
        self.snapshots.publish(epoch_of(&self.session, 0, batch));
        self.durable.durable_epochs_published += 1;
        self.publish_nanos += publish_started.elapsed().as_nanos() as u64;
        if self.opts.checkpoint_every > 0
            && self.deltas_since_checkpoint >= self.opts.checkpoint_every
        {
            if let Err(e) = self.checkpoint() {
                // The committed batch is safe in the old segment; only the
                // rotation failed. Degrade instead of failing the apply.
                self.read_only = Some(format!("auto-checkpoint failed: {e}"));
            }
        }
        Ok(td)
    }

    /// Forces a checkpoint: renormalizes the live state to its canonical
    /// full-exchange form (a rebase — equivalent modulo set order by the
    /// incremental≡full law, and exactly what recovery will rebuild), then
    /// rotates to a fresh segment led by that state, pruning the replay
    /// suffix (and older segments). Publishes a fresh epoch, since the
    /// renormalization may reorder set members.
    pub fn checkpoint(&mut self) -> Result<(), MxqlError> {
        if let Some(reason) = &self.read_only {
            return Err(MxqlError::Other(format!("session is read-only: {reason}")));
        }
        let started = Instant::now();
        let batch = self.batch();
        let step = dtr_obs::span("durable.checkpoint.rebase");
        self.session.rebase()?;
        drop(step);
        self.batch_base = batch;
        let step = dtr_obs::span("durable.checkpoint.encode");
        let payload = build_checkpoint(&self.session, batch);
        drop(step);
        let bytes = payload.len() as u64;
        let step = dtr_obs::span("durable.checkpoint.rotate").field("bytes", bytes);
        retry(&self.opts, &mut self.durable, || self.wal.rotate(&payload)).map_err(|e| {
            if matches!(e, WalError::Poisoned(_)) {
                self.read_only = Some(e.to_string());
            }
            wal_to_mxql(e)
        })?;
        drop(step);
        self.deltas_since_checkpoint = 0;
        self.durable.durable_checkpoints += 1;
        record_checkpoint(bytes, self.wal.segment(), started.elapsed());
        self.snapshots.publish(epoch_of(&self.session, 0, batch));
        self.durable.durable_epochs_published += 1;
        Ok(())
    }

    /// Pins the current head epoch (see [`SnapshotStore::pin`]).
    pub fn pin(&self) -> Arc<Epoch> {
        self.snapshots.pin()
    }

    /// The snapshot store, shareable with reader threads.
    pub fn snapshots(&self) -> Arc<SnapshotStore> {
        self.snapshots.clone()
    }

    /// The live underlying session (head state, not a pinned epoch).
    pub fn session(&self) -> &IncrementalSession {
        &self.session
    }

    /// Batches applied since the log was created, across restarts.
    pub fn batch(&self) -> u64 {
        self.batch_base + self.session.batch()
    }

    /// Why the session stopped accepting writes, if it has.
    pub fn read_only(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    /// Active WAL segment number.
    pub fn wal_segment(&self) -> u32 {
        self.wal.segment()
    }

    /// Committed bytes in the active WAL segment.
    pub fn wal_committed_len(&self) -> u64 {
        self.wal.committed_len()
    }

    /// Cumulative wall time [`DurableSession::apply`] spent committing
    /// frames to the log (serialize + frame + CRC + append + sync). The
    /// cost of durability proper: O(delta) per batch.
    pub fn wal_commit_nanos(&self) -> u64 {
        self.wal_commit_nanos
    }

    /// Cumulative wall time [`DurableSession::apply`] spent publishing
    /// epoch snapshots (the copy-on-write snapshot readers pin): chunk
    /// pointers of the session's instances, independent of the log.
    pub fn publish_nanos(&self) -> u64 {
        self.publish_nanos
    }

    /// The session's work tally: its incremental session's
    /// ([`IncrementalSession::work`]) plus its WAL appends and bytes,
    /// checkpoints, published epochs and I/O retries. A reopened
    /// session's tally starts with its recovery: the rebuild, the replayed
    /// batches, the rows of a rebuilt metastore and `durable.recoveries` 1.
    pub fn work(&self) -> Work {
        let mut work = self.session.work();
        work += self.durable;
        work
    }
}

fn epoch_of(session: &IncrementalSession, id: u64, batch: u64) -> Epoch {
    Epoch {
        id,
        batch,
        tagged: Arc::new(session.tagged()),
        canonical: OnceLock::new(),
    }
}

fn record_checkpoint(bytes: u64, segment: u32, wall: Duration) {
    if dtr_obs::journal::enabled() {
        dtr_obs::journal::record(dtr_obs::journal::event(
            "durable.checkpoint",
            dtr_obs::journal::Outcome::Checkpoint {
                bytes,
                segment: segment as u64,
            },
        ));
    }
    if dtr_obs::recorder::enabled() {
        dtr_obs::recorder::record_durable_window("checkpoint", bytes, 1, wall.as_nanos() as u64);
    }
}

/// Runs `attempt`, retrying transient failures with backoff; each retry
/// counts in `durable`.
fn retry<T>(
    opts: &DurableOptions,
    durable: &mut Work,
    mut attempt: impl FnMut() -> Result<T, WalError>,
) -> Result<T, WalError> {
    let mut tries = 0u32;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && tries < opts.retries => {
                tries += 1;
                durable.durable_io_retries += 1;
                let shift = tries.min(6);
                std::thread::sleep(Duration::from_millis(
                    opts.backoff_ms.saturating_mul(1u64 << shift),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{figure1_setting, figure1_sources};
    use dtr_mapping::durable::{FaultVfs, MemVfs, StorageFault};
    use dtr_model::instance::Value;
    use dtr_query::eval::QueryResult;

    fn house(hid: &str) -> Value {
        Value::record(vec![
            ("hid", Value::str(hid)),
            ("floors", Value::str("2")),
            ("price", Value::str("500K")),
            ("aid", Value::str("a1")),
        ])
    }

    fn fresh(vfs: Arc<dyn Vfs>, dir: &str) -> DurableSession {
        DurableSession::create(
            figure1_setting(),
            figure1_sources(),
            None,
            vfs,
            dir,
            DurableOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn crash_and_reopen_recovers_byte_identical_state() {
        let vfs = Arc::new(MemVfs::new());
        let mut s = fresh(vfs.clone(), "wal");
        s.apply(&SourceDelta::new().insert("US.houses", house("H800")))
            .unwrap();
        s.apply(&SourceDelta::new().delete("US.houses", 0)).unwrap();
        let live = s.pin().canonical().to_string();
        drop(s); // crash: nothing flushed beyond the committed frames
        let (reopened, report) =
            DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(reopened.pin().canonical(), live);
        assert_eq!(reopened.batch(), 2);
    }

    #[test]
    fn checkpoint_rotates_and_prunes_replay_suffix() {
        let vfs = Arc::new(MemVfs::new());
        let mut s = fresh(vfs.clone(), "wal");
        s.apply(&SourceDelta::new().insert("US.houses", house("H801")))
            .unwrap();
        assert_eq!(s.wal_segment(), 1);
        s.checkpoint().unwrap();
        assert_eq!(s.wal_segment(), 2);
        let live = s.pin().canonical().to_string();
        drop(s);
        let (reopened, report) =
            DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
        // The suffix was folded into the checkpoint: nothing to replay.
        assert_eq!(report.replayed, 0);
        assert_eq!(reopened.pin().canonical(), live);
        assert_eq!(reopened.batch(), 1);
    }

    #[test]
    fn auto_checkpoint_fires_on_schedule() {
        let vfs = Arc::new(MemVfs::new());
        let mut s = DurableSession::create(
            figure1_setting(),
            figure1_sources(),
            None,
            vfs,
            "wal",
            DurableOptions {
                checkpoint_every: 2,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        s.apply(&SourceDelta::new().insert("US.houses", house("H802")))
            .unwrap();
        assert_eq!(s.wal_segment(), 1);
        s.apply(&SourceDelta::new().insert("US.houses", house("H803")))
            .unwrap();
        assert_eq!(s.wal_segment(), 2);
    }

    #[test]
    fn torn_frame_recovers_to_pre_delta_state() {
        let vfs = Arc::new(MemVfs::new());
        let mut s = fresh(vfs.clone(), "wal");
        s.apply(&SourceDelta::new().insert("US.houses", house("H804")))
            .unwrap();
        let pre = s.pin().canonical().to_string();
        let pre_len = s.wal_committed_len();
        s.apply(&SourceDelta::new().insert("US.houses", house("H805")))
            .unwrap();
        let post = s.pin().canonical().to_string();
        drop(s);
        // Tear the last frame: keep only 3 bytes of it on "disk".
        let crashed = vfs.clone_files();
        let path = "wal/wal-000001.log";
        let bytes = crashed.read(path).unwrap();
        crashed.truncate(path, pre_len + 3).unwrap();
        assert!(bytes.len() as u64 > pre_len + 3);
        let (reopened, report) =
            DurableSession::open(Arc::new(crashed), "wal", DurableOptions::default()).unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.truncated_bytes, 3);
        assert_eq!(reopened.pin().canonical(), pre);
        assert_ne!(reopened.pin().canonical(), post);
    }

    #[test]
    fn rejected_batch_is_rolled_off_the_log() {
        let vfs = Arc::new(MemVfs::new());
        let mut s = fresh(vfs.clone(), "wal");
        let before = s.wal_committed_len();
        let err = s
            .apply(&SourceDelta::new().delete("US.nonexistent", 0))
            .unwrap_err();
        assert!(err.to_string().contains("nonexistent"));
        assert_eq!(s.wal_committed_len(), before);
        // A reopen sees no trace of the rejected batch.
        drop(s);
        let (_, report) = DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
        assert_eq!(report.replayed, 0);
    }

    #[test]
    fn transient_fsync_failure_is_retried() {
        let inner = MemVfs::new();
        let vfs = Arc::new(FaultVfs::new(inner));
        // Syncs 0 (create checkpoint) succeed; fail the batch commit's
        // sync once — the retry must land it.
        vfs.schedule(StorageFault::FsyncFail { at: 1, count: 1 });
        let mut s = fresh(vfs.clone(), "wal");
        s.apply(&SourceDelta::new().insert("US.houses", house("H806")))
            .unwrap();
        // The fault fired, yet the commit landed: the retry absorbed it.
        assert!(s.read_only().is_none());
        let fired = vfs.fired();
        assert_eq!(fired.len(), 1, "fired: {fired:?}");
        assert!(fired[0].starts_with("fsync_fail"), "fired: {fired:?}");
    }

    #[test]
    fn unwritable_log_degrades_to_read_only_queries_still_work() {
        let inner = MemVfs::new();
        let vfs = Arc::new(FaultVfs::new(inner));
        let mut s = DurableSession::create(
            figure1_setting(),
            figure1_sources(),
            None,
            vfs.clone(),
            "wal",
            DurableOptions {
                retries: 1,
                backoff_ms: 0,
                ..DurableOptions::default()
            },
        )
        .unwrap();
        // Every sync from now on fails: the next commit cannot land.
        vfs.schedule(StorageFault::FsyncFail {
            at: 1,
            count: u64::MAX,
        });
        let err = s
            .apply(&SourceDelta::new().insert("US.houses", house("H807")))
            .unwrap_err();
        assert!(matches!(err, MxqlError::Io { .. }));
        assert!(s.read_only().is_some());
        // Reads keep working on the last published epoch.
        let rows = s
            .pin()
            .tagged()
            .query("select x.hid from Portal.estates x")
            .unwrap();
        assert_eq!(rows.len(), 3);
        // Further writes are refused, not attempted.
        let err2 = s
            .apply(&SourceDelta::new().delete("US.houses", 0))
            .unwrap_err();
        assert!(err2.to_string().contains("read-only"));
    }

    #[test]
    fn checkpoint_with_metastore_round_trips() {
        let vfs = Arc::new(MemVfs::new());
        let setting = figure1_setting();
        let mut store = MetaStore::new();
        for schema in setting.source_schemas() {
            store.add_schema(schema).unwrap();
        }
        store.add_schema(setting.target_schema()).unwrap();
        let refs: Vec<&Schema> = setting.source_schemas().iter().collect();
        for m in setting.mappings() {
            store
                .add_mapping(m, &refs, setting.target_schema())
                .unwrap();
        }
        let mut s = DurableSession::create(
            setting,
            figure1_sources(),
            Some(store),
            vfs.clone(),
            "wal",
            DurableOptions::default(),
        )
        .unwrap();
        s.apply(&SourceDelta::new().delete("US.houses", 0)).unwrap();
        let render = s.session().store().unwrap().render();
        drop(s);
        let (reopened, report) =
            DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
        assert!(
            report.warnings.is_empty(),
            "warnings: {:?}",
            report.warnings
        );
        assert_eq!(reopened.session().store().unwrap().render(), render);
        // The recovery's work includes the metastore it rebuilt.
        let work = reopened.work();
        assert_eq!(
            (work.durable_recoveries, work.durable_replayed_deltas),
            (1, 1)
        );
        assert_eq!(
            work.metastore_tuples_encoded,
            reopened.session().store().unwrap().total_rows() as u64
        );
    }

    #[test]
    fn a_delta_in_one_session_keeps_another_sessions_cached_plans() {
        let reader = fresh(Arc::new(MemVfs::new()), "wal");
        let mut writer = fresh(Arc::new(MemVfs::new()), "wal");
        let text = "select x.hid, m from Portal.estates x, x.hid@map m";
        let tagged = reader.pin().tagged();
        let cached = tagged.plan_for(text).unwrap();
        writer
            .apply(&SourceDelta::new().delete("US.houses", 0))
            .unwrap();
        let again = tagged.plan_for(text).unwrap();
        assert!(
            Arc::ptr_eq(&cached, &again),
            "another session's delta evicted the plan"
        );
        assert_eq!(tagged.plan_cache_stats().hits, 1);
    }

    #[test]
    fn a_plan_from_one_epoch_runs_on_a_later_one() {
        let mut s = fresh(Arc::new(MemVfs::new()), "wal");
        let text = "select e.hid, e.value, c.phone, m \
                    from Portal.estates e, Portal.contacts c, e.value@map m \
                    where e.contact = c.title";
        let old = s.pin().tagged();
        let plan = old.plan_for(text).unwrap();
        let before = old.run_plan(&plan).unwrap();
        s.apply(
            &SourceDelta::new()
                .delete("US.houses", 0)
                .insert("US.houses", house("H9")),
        )
        .unwrap();
        let new = s.pin().tagged();
        let replayed = new.run_plan(&plan).unwrap();
        let planned = new.run_planned(text).unwrap();
        // Every fact of a result with the annotations the new epoch gives it.
        let annotated = |r: &QueryResult| -> Vec<String> {
            let catalog = new.catalog();
            r.rows
                .iter()
                .flatten()
                .map(|v| match v.node {
                    Some((src, n)) => {
                        format!("{:?} {:?}", v, catalog.source(src).instance.annotation(n))
                    }
                    None => format!("{v:?}"),
                })
                .collect()
        };
        assert_eq!(replayed.columns, planned.columns);
        assert_eq!(replayed.rows, planned.rows);
        assert_eq!(annotated(&replayed), annotated(&planned));
        // The delta moved the answer, so the old plan read the new epoch.
        assert_ne!(before.tuples(), replayed.tuples());
        assert!(replayed.tuples().iter().any(|t| t[0].to_string() == "H9"));
    }
}
