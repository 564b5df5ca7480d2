//! Truncation sweep over the checkpoint decoders: a cut-off instance
//! rendering or checkpoint payload must come back as an error, never as a
//! panic, a hang or a silently shorter value.
//!
//! The Figure 1 session below carries a house whose values hold multibyte
//! UTF-8 and every character the XML and JSON printers escape, so the
//! sweep cuts inside entities, escapes, attribute values, tags and
//! multibyte runs alike. A prefix that ends inside a multibyte character
//! is not a `&str`, so the sweep covers every prefix ending on a
//! character boundary.

use dtr::core::store::{DurableOptions, DurableSession};
use dtr::core::testkit::{figure1_setting, figure1_sources, portal_schema};
use dtr::mapping::delta::SourceDelta;
use dtr::mapping::durable::{scan_segment, MemVfs, Vfs};
use dtr::model::instance::Value;
use dtr::xml::parser::instance_from_xml;
use dtr::xml::writer::{instance_to_xml, WriteOptions};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const ODD: &str = "Hé日🦀 <&> \"q\" 'a' &amp;";

/// The canonical target XML and the checkpoint payload of a Figure 1
/// session checkpointed after inserting a house with [`ODD`] values.
fn figure1_with_odd_values() -> (String, Vec<u8>) {
    let vfs = Arc::new(MemVfs::new());
    let mut session = DurableSession::create(
        figure1_setting(),
        figure1_sources(),
        None,
        vfs.clone(),
        "wal",
        DurableOptions::default(),
    )
    .unwrap();
    let house = Value::record(vec![
        ("hid", Value::str(ODD)),
        ("floors", Value::str("2½")),
        ("price", Value::str("€1<2>")),
        ("pool", Value::str("\"no\"")),
        ("aid", Value::str("a1")),
    ]);
    session
        .apply(&SourceDelta::new().insert("US.houses", house))
        .unwrap();
    session.checkpoint().unwrap();
    let canonical = session.pin().canonical().to_owned();
    let segment = vfs
        .read(&format!("wal/wal-{:06}.log", session.wal_segment()))
        .unwrap();
    let payload = scan_segment(&segment).frames[0].payload.clone();
    (canonical, payload)
}

/// Runs `sweep` on a thread of its own, so a decoder that loops on some
/// prefix fails the test instead of hanging the suite.
fn within(limit: Duration, sweep: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        sweep();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().expect("sweep thread"),
        // The sender dropped without sending: the sweep panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("sweep did not finish within {limit:?}"),
    }
}

#[test]
fn every_prefix_of_an_instance_rendering_is_an_error() {
    let (canonical, _) = figure1_with_odd_values();
    assert!(canonical.contains("Hé日🦀 &lt;&amp;&gt; \"q\" 'a' &amp;amp;"));
    within(Duration::from_secs(120), move || {
        let schema = portal_schema();
        let back = instance_from_xml(&canonical, &schema).unwrap();
        assert_eq!(instance_to_xml(&back, WriteOptions::annotated()), canonical);
        // The document element ends just before the trailing newline.
        let end = canonical.trim_end().len();
        let mut swept = 0;
        for cut in (0..end).filter(|&cut| canonical.is_char_boundary(cut)) {
            let result = instance_from_xml(&canonical[..cut], &schema);
            assert!(result.is_err(), "prefix of {cut} bytes decoded");
            swept += 1;
        }
        assert!(swept > 1_000 && swept < end, "{swept} of {end}");
    });
}

#[test]
fn every_prefix_of_a_checkpoint_payload_is_an_error() {
    let (_, payload) = figure1_with_odd_values();
    let text = String::from_utf8(payload).unwrap();
    assert!(text.contains("Hé日🦀 &lt;&amp;&gt; \\\"q\\\" 'a' &amp;amp;"));
    within(Duration::from_secs(120), move || {
        assert!(serde_json::from_str(&text).is_ok());
        for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            let result = serde_json::from_str(&text[..cut]);
            assert!(result.is_err(), "prefix of {cut} bytes parsed");
        }
    });
}
