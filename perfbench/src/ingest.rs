//! `ingest`: writes beside reads. Each operation commits one seeded edit
//! batch through `DurableSession::apply` (write-ahead log, incremental
//! apply, epoch publish, and every 64th commit a checkpoint), then does one
//! fresh read: pin the new head epoch, materialize it, and run a planned
//! selection on it. The log lives on a counting in-memory backend with one
//! sync per commit, the library's flush policy.
//!
//! The source instances keep every replaced or deleted listing in their
//! node arenas, so a commit's publish copies more the older the log is.
//! Every round starts on a freshly created log, and so does every
//! [`COMMITS_PER_LOG`]th commit, outside the commit's latency: the window
//! then measures much the same mix of log ages however many commits a
//! build manages in it.

use crate::edits::EditStream;
use crate::harness::{setup_ms, Config, Metric, Rooted, Workload};
use crate::rng::SplitMix64;
use crate::stats::{mean, median, percentile};
use crate::trace;
use crate::vfs::CountingVfs;
use dtr_core::store::{DurableOptions, DurableSession};
use dtr_mapping::delta::SourceDelta;
use dtr_portal::scenario::{build, ScenarioConfig};
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "ingest";

/// Listings per source: 1,000 listings, about 36k target nodes.
const SCALE: usize = 200;

/// Log directory inside the backend.
pub const WAL_DIR: &str = "wal";

/// Commits made on one log before the workload starts over on a fresh
/// one: three checkpoint cycles.
const COMMITS_PER_LOG: usize = 192;

const READ: &str = "select h.hid, h.price from Portal.houses h where h.price > {}";

/// One commit plus fresh read, as measured.
pub struct Sample {
    commit_ms: f64,
    read_ms: f64,
    materialize_ms: f64,
    eval_us: f64,
    wal_us: f64,
    publish_us: f64,
    checkpointed: bool,
    classes_rebuilt: usize,
    reevaluated: usize,
    target_changes: usize,
    edits: usize,
    /// Bytes the commit appended to storage, and its `sync` calls.
    appended: u64,
    syncs: u64,
    /// Length of the batch's JSON form, the user data committed.
    delta_bytes: usize,
}

/// One batch to commit, the fresh read's query text and the batch's JSON
/// length.
type Next = (SourceDelta, String, usize);

/// A durable session being fed edit batches.
pub struct Ingest {
    cfg: Config,
    session: DurableSession,
    vfs: Arc<CountingVfs>,
    /// Commits made on the current log.
    commits: usize,
    edits: EditStream,
    rng: SplitMix64,
    next: Option<Result<Next, String>>,
    samples: Vec<Sample>,
}

/// A fresh log holding the seed's generated portal.
fn create(cfg: &Config) -> Result<(DurableSession, Arc<CountingVfs>), String> {
    let scenario = trace::span("portal.build", || {
        build(ScenarioConfig {
            listings_per_source: cfg.scale.unwrap_or(SCALE),
            seed: cfg.seed,
            ..Default::default()
        })
    });
    let vfs = Arc::new(CountingVfs::new());
    let session = trace::span("core.store.create", || {
        DurableSession::create(
            scenario.setting,
            scenario.sources,
            None,
            vfs.clone(),
            WAL_DIR,
            DurableOptions::default(),
        )
    })
    .map_err(|e| e.to_string())?;
    Ok((session, vfs))
}

impl Ingest {
    fn draw(&mut self) -> Result<Next, String> {
        if self.commits == COMMITS_PER_LOG {
            (self.session, self.vfs) = create(&self.cfg)?;
            self.commits = 0;
        }
        self.commits += 1;
        let price = 120_000 + 1_000 * self.rng.below(1_480);
        let read = READ.replace("{}", &price.to_string());
        let delta = self.edits.next(self.session.session().sources())?;
        let len = delta.to_json().to_string().len();
        Ok((delta, read, len))
    }
}

impl Workload for Ingest {
    type Tally = Vec<Sample>;

    fn setup(cfg: &Config) -> Result<Self, String> {
        let (session, vfs) = create(cfg)?;
        Ok(Ingest {
            cfg: cfg.clone(),
            session,
            vfs,
            commits: 0,
            edits: EditStream::new(cfg.seed),
            rng: SplitMix64::new(cfg.seed, 0x12EAD),
            next: None,
            samples: Vec::new(),
        })
    }

    fn start_window(&mut self, earlier: Vec<Sample>) {
        self.samples = earlier;
    }

    fn end_window(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    fn prepare(&mut self, _i: u64) {
        self.next = Some(self.draw());
    }

    fn op(&mut self) -> Result<(), String> {
        let (delta, read, delta_bytes) = self.next.take().ok_or("no edit batch drawn")??;
        let s = &mut self.session;
        let (wal0, pub0, seg0) = (s.wal_commit_nanos(), s.publish_nanos(), s.wal_segment());
        let (appended0, syncs0) = (self.vfs.appended_bytes(), self.vfs.syncs());

        let commit = trace::begin("core.store.commit");
        let t = Instant::now();
        let applied = s.apply(&delta);
        let commit_ns = t.elapsed().as_nanos() as u64;
        trace::end(commit);
        let td = applied.map_err(|e| e.to_string())?;
        let appended = self.vfs.appended_bytes() - appended0;
        let syncs = self.vfs.syncs() - syncs0;
        // The session times its log commit and its publish itself; what
        // remains of the commit is the engine apply (plus the checkpoint
        // when the segment rotated).
        let wal_ns = s.wal_commit_nanos() - wal0;
        let publish_ns = s.publish_nanos() - pub0;
        let checkpointed = s.wal_segment() != seg0;
        let rest_ns = commit_ns.saturating_sub(wal_ns + publish_ns);
        trace::child(commit, "mapping.durable.wal_commit", 0, wal_ns);
        let rest = if checkpointed {
            "core.store.checkpoint"
        } else {
            "mapping.incremental.apply"
        };
        trace::child(commit, rest, wal_ns, rest_ns);
        trace::child(commit, "core.store.publish", wal_ns + rest_ns, publish_ns);

        let t = Instant::now();
        let epoch = trace::span("core.store.materialize", || {
            let epoch = s.pin();
            epoch.tagged();
            epoch
        });
        let materialize_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        trace::span("query.fresh.eval", || epoch.tagged().run_planned(&read))
            .map_err(|e| e.to_string())?;
        let eval_us = t.elapsed().as_secs_f64() * 1e6;
        if epoch.batch != s.batch() {
            return Err(format!(
                "fresh read pinned batch {}, head is {}",
                epoch.batch,
                s.batch()
            ));
        }

        self.samples.push(Sample {
            commit_ms: commit_ns as f64 / 1e6,
            read_ms: materialize_ms + eval_us / 1e3,
            materialize_ms,
            eval_us,
            wal_us: wal_ns as f64 / 1e3,
            publish_us: publish_ns as f64 / 1e3,
            checkpointed,
            classes_rebuilt: td.classes_rebuilt,
            reevaluated: td.mappings_reevaluated,
            target_changes: td.inserted.len() + td.retracted.len(),
            edits: td.edits,
            appended,
            syncs,
            delta_bytes,
        });
        Ok(())
    }

    fn validate(&mut self) -> Vec<String> {
        // Crash now: only synced bytes survive. Recovery must land on the
        // live head, byte for byte.
        let live = self.session.pin().canonical().to_string();
        let recovered = self
            .vfs
            .crash_image()
            .map_err(|e| e.to_string())
            .and_then(|image| {
                DurableSession::open(Arc::new(image), WAL_DIR, DurableOptions::default())
                    .map_err(|e| e.to_string())
            });
        match recovered {
            Ok((session, _)) if session.pin().canonical() == live => Vec::new(),
            Ok(_) => vec!["recovered state differs from the live head".into()],
            Err(e) => vec![format!("recovery failed: {e}")],
        }
    }

    fn layers(&mut self, samples: &Vec<Sample>, rooted: &Rooted<'_>) -> Vec<Metric> {
        let col = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
        let plain: Vec<&Sample> = samples.iter().filter(|s| !s.checkpointed).collect();
        let apply_us = median(
            &plain
                .iter()
                .map(|s| s.commit_ms * 1e3 - s.wal_us - s.publish_us)
                .collect::<Vec<_>>(),
        );
        let checkpoint_ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.checkpointed)
            .map(|s| (s.commit_ms * 1e3 - s.wal_us - s.publish_us - apply_us) / 1e3)
            .collect();
        let total = |f: &dyn Fn(&Sample) -> f64| col(f).iter().sum::<f64>();
        let appended = total(&|s| s.appended as f64);
        let commit_ms = col(&|s| s.commit_ms);
        let read_ms = col(&|s| s.read_ms);
        vec![
            Metric::new("portal.build_ms", setup_ms(rooted, "portal.build"), "ms"),
            Metric::new(
                "core.store.create_ms",
                setup_ms(rooted, "core.store.create"),
                "ms",
            ),
            Metric::new("core.store.commit_p50_ms", median(&commit_ms), "ms"),
            Metric::new(
                "core.store.commit_p99_ms",
                percentile(&commit_ms, 0.99),
                "ms",
            ),
            Metric::new("core.store.fresh_read_p50_ms", median(&read_ms), "ms"),
            Metric::new(
                "core.store.fresh_read_p99_ms",
                percentile(&read_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "mapping.durable.wal_commit_us",
                median(&col(&|s| s.wal_us)),
                "us",
            ),
            Metric::new(
                "mapping.durable.bytes_per_commit",
                mean(&col(&|s| s.appended as f64)),
                "B",
            ),
            Metric::new(
                "mapping.durable.syncs_per_commit",
                mean(&col(&|s| s.syncs as f64)),
                "count",
            ),
            Metric::new(
                "mapping.durable.write_amp",
                appended / total(&|s| s.delta_bytes as f64),
                "ratio",
            ),
            Metric::new(
                "core.store.publish_us",
                median(&col(&|s| s.publish_us)),
                "us",
            ),
            Metric::new("mapping.incremental.apply_us", apply_us, "us"),
            Metric::new(
                "mapping.incremental.classes_rebuilt_per_commit",
                mean(&col(&|s| s.classes_rebuilt as f64)),
                "count",
            ),
            Metric::new(
                "mapping.incremental.reevaluated_per_commit",
                mean(&col(&|s| s.reevaluated as f64)),
                "count",
            ),
            Metric::new(
                "mapping.incremental.target_changes_per_edit",
                total(&|s| s.target_changes as f64) / total(&|s| s.edits as f64),
                "ratio",
            ),
            Metric::new("core.store.checkpoint_ms", median(&checkpoint_ms), "ms"),
            Metric::new(
                "core.store.checkpoints",
                checkpoint_ms.len() as f64,
                "count",
            ),
            Metric::new(
                "core.store.materialize_ms",
                median(&col(&|s| s.materialize_ms)),
                "ms",
            ),
            Metric::new("query.fresh.eval_us", median(&col(&|s| s.eval_us)), "us"),
        ]
    }
}
