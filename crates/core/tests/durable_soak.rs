//! Concurrency soak for the epoch snapshot store and the WAL-then-publish
//! commit protocol: pinned epochs must stay byte-identical while the
//! writer advances the head, an epoch rendered long after it was pinned
//! must render the state it was published with, and a writer crash
//! between the WAL commit and the epoch publish must recover to exactly
//! one of the two adjacent epochs.

use dtr_core::store::{DurableOptions, DurableSession};
use dtr_core::tagged::TaggedInstance;
use dtr_core::testkit::{figure1_setting, figure1_sources};
use dtr_mapping::delta::SourceDelta;
use dtr_mapping::durable::{MemVfs, Vfs};
use dtr_model::instance::{Instance, Value};
use dtr_portal::scenario::{build, ScenarioConfig};
use dtr_xml::writer::{instance_to_xml, WriteOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn house(hid: &str) -> Value {
    Value::record(vec![
        ("hid", Value::str(hid)),
        ("floors", Value::str("3")),
        ("price", Value::str("600K")),
        ("aid", Value::str("a1")),
    ])
}

fn session(vfs: Arc<dyn Vfs>) -> DurableSession {
    DurableSession::create(
        figure1_setting(),
        figure1_sources(),
        None,
        vfs,
        "wal",
        DurableOptions {
            checkpoint_every: 0,
            backoff_ms: 0,
            ..DurableOptions::default()
        },
    )
    .unwrap()
}

/// N reader threads continuously pin the head and re-query it while one
/// writer commits batches. Every pinned epoch must answer queries from a
/// frozen state: its canonical bytes never change, its row count matches
/// what that epoch's batch implies, and head ids observed by each reader
/// are monotone.
#[test]
fn readers_keep_pinned_epochs_while_writer_advances() {
    const READERS: usize = 4;
    const BATCHES: usize = 20;
    let vfs = Arc::new(MemVfs::new());
    let mut writer = session(vfs);
    let snapshots = writer.snapshots();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let snapshots = snapshots.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut last_id = 0u64;
                let mut checks = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let epoch = snapshots.pin();
                    assert!(epoch.id >= last_id, "head id went backwards");
                    last_id = epoch.id;
                    // The pinned snapshot is frozen: re-reading its
                    // canonical form and re-running a query must agree
                    // with itself no matter how far the writer has moved.
                    let before = epoch.canonical().to_string();
                    let rows = epoch
                        .tagged()
                        .query("select x.hid from Portal.estates x")
                        .unwrap();
                    std::thread::yield_now();
                    assert_eq!(epoch.canonical(), before, "pinned epoch bytes changed");
                    let again = epoch
                        .tagged()
                        .query("select x.hid from Portal.estates x")
                        .unwrap();
                    assert_eq!(rows.len(), again.len(), "pinned epoch answers drifted");
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    // One insert per batch: row count at batch b is 3 + b, so any reader
    // holding an old epoch sees a smaller, internally consistent count.
    let first = writer.pin();
    for b in 0..BATCHES {
        writer
            .apply(&SourceDelta::new().insert("US.houses", house(&format!("H{b:03}"))))
            .unwrap();
    }
    let head = writer.pin();
    stop.store(true, Ordering::Release);
    let total_checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_checks > 0, "readers never got to pin an epoch");

    // The epoch pinned before any batch is still byte-identical to its
    // original state even though the head moved BATCHES epochs ahead.
    assert_eq!(first.id + BATCHES as u64, head.id);
    let rows = first
        .tagged()
        .query("select x.hid from Portal.estates x")
        .unwrap();
    assert_eq!(rows.len(), 3, "the pre-write epoch grew new rows");
    let rows = head
        .tagged()
        .query("select x.hid from Portal.estates x")
        .unwrap();
    assert_eq!(rows.len(), 3 + BATCHES);
}

/// Queries a late reader of the portal asks: plain values, mapping
/// annotations (`f_mp`) and element annotations (`f_el`).
const PORTAL_QUERIES: [&str; 3] = [
    "select h.hid, h.price from Portal.houses h",
    "select h.hid, m from Portal.houses h, h.price@map m",
    "select h.hid, h.price@elem from Portal.houses h",
];

/// A query's answer as sorted printed rows.
fn answers(tagged: &TaggedInstance, query: &str) -> Vec<String> {
    let mut rows: Vec<String> = tagged
        .query(query)
        .unwrap()
        .tuples()
        .iter()
        .map(|t| format!("{t:?}"))
        .collect();
    rows.sort();
    rows
}

/// The member of source set `root.set` at `idx`, repriced.
fn repriced(source: &Instance, root: &str, set: &str, idx: usize, price: i64) -> Value {
    let set = source
        .root(root)
        .and_then(|r| source.child_by_label(r, set))
        .unwrap();
    let mut v = source.to_value(source.set_members(set).unwrap()[idx]);
    if let Value::Record(fields) = &mut v {
        for (label, field) in fields.iter_mut() {
            if label.as_str() == "price" {
                *field = Value::int(price);
            }
        }
    }
    v
}

/// A batch repricing two Yahoo listings and dropping a Homeseekers house,
/// at positions spread over both sets (sources 0 and 4 in setting order).
fn churn(s: &DurableSession, round: usize) -> SourceDelta {
    let sources = s.session().sources();
    let price = 200_000 + 10_000 * round as i64;
    SourceDelta::new()
        .modify(
            "Yahoo.listings",
            round * 3 + 1,
            repriced(&sources[0], "Yahoo", "listings", round * 3 + 1, price),
        )
        .modify(
            "Yahoo.listings",
            0,
            repriced(&sources[0], "Yahoo", "listings", 0, price + 1),
        )
        .delete("HS.houses", round * 2)
}

/// Epoch k is pinned and nothing of it is rendered or queried. Later
/// batches modify and delete members it holds, so the writer rewrites
/// chunks the epoch shares. The epoch's first render, made only then,
/// must be the annotated target as it stood right after batch k, and its
/// queries must answer from that state.
#[test]
fn late_render_of_a_pinned_epoch_is_its_batch_state() {
    let scenario = build(ScenarioConfig {
        listings_per_source: 25,
        seed: 7,
        ..ScenarioConfig::default()
    });
    let mut s = DurableSession::create(
        scenario.setting,
        scenario.sources,
        None,
        Arc::new(MemVfs::new()),
        "wal",
        DurableOptions {
            checkpoint_every: 0,
            backoff_ms: 0,
            ..DurableOptions::default()
        },
    )
    .unwrap();
    assert!(
        s.session().target().len() > 8 * 128,
        "the target spans only {} nodes",
        s.session().target().len()
    );
    for round in 0..2 {
        s.apply(&churn(&s, round)).unwrap();
    }
    let epoch_k = s.pin();
    let want_xml = instance_to_xml(s.session().target(), WriteOptions::annotated());
    let live = s.session().tagged();
    let want: Vec<Vec<String>> = PORTAL_QUERIES.iter().map(|q| answers(&live, q)).collect();
    drop(live);

    for round in 2..8 {
        s.apply(&churn(&s, round)).unwrap();
    }
    assert_eq!(s.pin().batch, epoch_k.batch + 6);
    assert_ne!(
        instance_to_xml(s.session().target(), WriteOptions::annotated()),
        want_xml,
        "the later batches changed nothing"
    );
    assert!(
        epoch_k.canonical() == want_xml,
        "epoch k rendered another state"
    );
    let tagged = epoch_k.tagged();
    for (q, want) in PORTAL_QUERIES.iter().zip(&want) {
        assert_eq!(&answers(&tagged, q), want, "{q}");
    }
}

/// Simulates the writer dying between the WAL fsync (commit point) and
/// the epoch publish: the disk image carries the committed frame, but no
/// reader ever saw the post-delta epoch. Recovery must converge to the
/// post-delta state (the frame is durable) — and if the frame had been
/// torn instead, to the pre-delta state. Never anything in between.
#[test]
fn writer_crash_between_wal_commit_and_publish_recovers_adjacent_epoch() {
    let vfs = Arc::new(MemVfs::new());
    let mut writer = session(vfs.clone());
    writer
        .apply(&SourceDelta::new().insert("US.houses", house("H100")))
        .unwrap();
    let pre = writer.pin().canonical().to_string();
    let pre_len = writer.wal_committed_len();

    // The next apply commits to the WAL and publishes; the publish is
    // memory-only, so the disk image right after the apply is exactly the
    // image a crash-between-commit-and-publish leaves behind.
    writer
        .apply(&SourceDelta::new().insert("US.houses", house("H101")))
        .unwrap();
    let post = writer.pin().canonical().to_string();
    let post_len = writer.wal_committed_len();
    let crashed = vfs.clone_files();
    drop(writer);

    let (recovered, report) =
        DurableSession::open(Arc::new(crashed), "wal", DurableOptions::default()).unwrap();
    assert_eq!(report.replayed, 2);
    let got = recovered.pin().canonical().to_string();
    assert_eq!(got, post, "durable frame must recover the post-delta epoch");

    // The adjacent alternative: the same crash with the frame torn at any
    // byte recovers the pre-delta epoch instead — one of the two, always.
    for cut in [pre_len + 1, (pre_len + post_len) / 2, post_len - 1] {
        let torn = vfs.clone_files();
        torn.truncate("wal/wal-000001.log", cut).unwrap();
        let (recovered, report) =
            DurableSession::open(Arc::new(torn), "wal", DurableOptions::default()).unwrap();
        assert_eq!(report.replayed, 1, "torn frame at byte {cut} replayed");
        let got = recovered.pin().canonical().to_string();
        assert_eq!(
            got, pre,
            "torn frame at byte {cut} must recover the pre-delta epoch"
        );
        assert_ne!(got, post);
    }
}
