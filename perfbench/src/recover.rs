//! `recover`: crash recovery. Each operation is `DurableSession::open` on
//! a fresh copy of one crash image, a checkpoint followed by a 16-batch
//! delta suffix, holding only synced bytes: checkpoint decode, full
//! rebuild, byte verification and replay. It drives the exchange engine
//! and the XML layer in a different pattern than `ingest` does.

use crate::edits::EditStream;
use crate::harness::{setup_ms, Config, Metric, Rooted, Workload};
use crate::ingest::WAL_DIR;
use crate::stats::median;
use crate::trace;
use crate::vfs::CountingVfs;
use dtr_core::incremental::IncrementalSession;
use dtr_core::store::{DurableOptions, DurableSession, RecoveryReport};
use dtr_core::tagged::MappingSetting;
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::durable::{MemVfs, Wal};
use dtr_mapping::exchange::ExchangeOptions;
use dtr_mapping::glav::Mapping;
use dtr_model::instance::Instance;
use dtr_model::schema::Schema;
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_xml::parser::instance_from_xml;
use dtr_xml::schema_xml::schema_from_xml;
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use std::sync::Arc;

/// Workload name.
pub const NAME: &str = "recover";

/// Listings per source: 1,000 listings, as in `ingest`.
const SCALE: usize = 200;

/// Committed batches after the checkpoint, all replayed by every open.
const SUFFIX: usize = 16;

/// Every this many operations the recovered state is compared byte for
/// byte with the state that crashed.
const DEEP_CHECK_EVERY: u64 = 10;

/// The crash image and the state it must recover to.
pub struct Recover {
    image: MemVfs,
    expected: String,
    copy: Option<Arc<MemVfs>>,
    recovered: Option<(DurableSession, RecoveryReport)>,
    deep_checks: usize,
}

/// The checkpoint payload, decoded through the XML layer's public parsers.
struct Checkpoint {
    source_schemas: Vec<Schema>,
    target_schema: Schema,
    mappings: Vec<Mapping>,
    sources: Vec<Instance>,
    target_xml: String,
}

fn decode(payload: &[u8]) -> Result<Checkpoint, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("checkpoint lacks `{k}`"));
    let text_of = |v: &serde_json::Value| {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    };
    let list = |k: &str| -> Result<Vec<serde_json::Value>, String> {
        field(k)?
            .as_array()
            .cloned()
            .ok_or_else(|| format!("`{k}` is not a list"))
    };
    let source_schemas = list("source_schemas")?
        .iter()
        .map(|v| schema_from_xml(&text_of(v)?).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let target_schema =
        schema_from_xml(&text_of(field("target_schema")?)?).map_err(|e| e.to_string())?;
    let mappings = list("mappings")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("bad mapping entry")?;
            Mapping::parse(text_of(&pair[0])?.as_str(), &text_of(&pair[1])?)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let sources = list("sources")?
        .iter()
        .zip(&source_schemas)
        .map(|(v, schema)| instance_from_xml(&text_of(v)?, schema).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Checkpoint {
        source_schemas,
        target_schema,
        mappings,
        sources,
        target_xml: text_of(field("target")?)?,
    })
}

/// `DurableSession::open`'s steps, re-run one public call at a time under
/// spans, so the open's time splits into layers.
fn open_in_steps(image: &MemVfs) -> Result<(), String> {
    let vfs = Arc::new(image.clone_files());
    let (_, recovered) = trace::span("mapping.durable.wal_recover", || Wal::recover(vfs, WAL_DIR))
        .map_err(|e| e.to_string())?;
    let cp = trace::span("xml.checkpoint_decode", || decode(&recovered.checkpoint))?;
    let setting = MappingSetting::new(cp.source_schemas, cp.target_schema, cp.mappings)
        .map_err(|e| e.to_string())?;
    let mut session = trace::span("mapping.exchange.rebuild", || {
        IncrementalSession::with_options(setting, cp.sources, ExchangeOptions::default())
    })
    .map_err(|e| e.to_string())?;
    let rebuilt = trace::span("xml.verify_render", || {
        instance_to_xml(session.target(), WriteOptions::annotated())
    });
    if rebuilt != cp.target_xml {
        return Err("rebuilt checkpoint target differs from its bytes".into());
    }
    trace::span("mapping.incremental.replay", || {
        for payload in &recovered.deltas {
            let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
            let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
            let delta = SourceDelta::from_json(&value).ok_or("malformed delta frame")?;
            session.apply(&delta).map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })
}

impl Workload for Recover {
    type Tally = ();

    fn setup(cfg: &Config) -> Result<Self, String> {
        let scenario = trace::span("portal.build", || {
            build(ScenarioConfig {
                listings_per_source: cfg.scale.unwrap_or(SCALE),
                seed: cfg.seed,
                ..Default::default()
            })
        });
        let vfs = Arc::new(CountingVfs::new());
        let mut session = trace::span("core.store.create", || {
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
        let mut edits = EditStream::new(cfg.seed);
        for _ in 0..SUFFIX {
            let delta = edits.next(session.session().sources())?;
            session.apply(&delta).map_err(|e| e.to_string())?;
        }
        let expected = session.pin().canonical().to_string();
        drop(session);
        Ok(Recover {
            image: vfs.crash_image().map_err(|e| e.to_string())?,
            expected,
            copy: None,
            recovered: None,
            deep_checks: 0,
        })
    }

    fn prepare(&mut self, _i: u64) {
        self.recovered = None;
        self.copy = Some(Arc::new(self.image.clone_files()));
    }

    fn op(&mut self) -> Result<(), String> {
        let vfs = self.copy.take().ok_or("no image copy prepared")?;
        let recovered = trace::span("core.store.open", || {
            DurableSession::open(vfs, WAL_DIR, DurableOptions::default())
        })
        .map_err(|e| e.to_string())?;
        self.recovered = Some(recovered);
        Ok(())
    }

    fn check(&mut self, i: u64) -> Result<(), String> {
        let (session, report) = self.recovered.as_ref().ok_or("nothing recovered")?;
        if report.replayed != SUFFIX {
            return Err(format!(
                "replayed {} batches, not {SUFFIX}",
                report.replayed
            ));
        }
        if i.is_multiple_of(DEEP_CHECK_EVERY) {
            self.deep_checks += 1;
            if session.pin().canonical() != self.expected {
                return Err("recovered state differs from the crashed one".into());
            }
        }
        if trace::is_on() {
            let probe = trace::begin("probe");
            let r = open_in_steps(&self.image);
            trace::end(probe);
            r?;
        }
        Ok(())
    }

    fn validate(&mut self) -> Vec<String> {
        if self.deep_checks == 0 {
            // A last round too short to reach a deep check still gets one.
            self.prepare(0);
            if let Err(e) = self.op().and_then(|()| self.check(0)) {
                return vec![e];
            }
        }
        Vec::new()
    }

    fn layers(&mut self, _: &(), rooted: &Rooted<'_>) -> Vec<Metric> {
        let step = |name: &str| median(&rooted.durations_ms("probe", |n| n == name));
        let steps = median(&rooted.per_root_ms("probe", |n| n != "probe"));
        let open = median(&rooted.durations_ms("op", |n| n == "core.store.open"));
        vec![
            Metric::new("portal.build_ms", setup_ms(rooted, "portal.build"), "ms"),
            Metric::new(
                "core.store.create_ms",
                setup_ms(rooted, "core.store.create"),
                "ms",
            ),
            Metric::new(
                "mapping.durable.wal_recover_ms",
                step("mapping.durable.wal_recover"),
                "ms",
            ),
            Metric::new(
                "xml.checkpoint_decode_ms",
                step("xml.checkpoint_decode"),
                "ms",
            ),
            Metric::new(
                "mapping.exchange.rebuild_ms",
                step("mapping.exchange.rebuild"),
                "ms",
            ),
            Metric::new("xml.verify_render_ms", step("xml.verify_render"), "ms"),
            Metric::new(
                "mapping.incremental.replay_ms",
                step("mapping.incremental.replay"),
                "ms",
            ),
            Metric::new(
                "core.store.open_unattributed_frac",
                1.0 - steps / open,
                "ratio",
            ),
        ]
    }
}
