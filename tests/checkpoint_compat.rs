//! Checkpoint compatibility: a committed write-ahead log keeps opening.
//!
//! `fixtures/figure1_wal/` is a frozen log over the Figure 1 setting of
//! `dtr_core::testkit`: the opening checkpoint followed by three delta
//! frames (insert house `H900`; flip agent `a2` from firm to name; delete
//! `H522` and insert the two-agent posting `H77`).
//! `fixtures/figure1_wal.canonical.xml` is the annotated target the live
//! session published after the third batch.
//!
//! `DurableSession::open` rebuilds the target from the checkpoint's
//! sources and refuses to serve it unless it matches the checkpointed
//! bytes exactly, then replays the deltas. So this test fails as soon as
//! the build or the delta path changes a single byte of the target.

use dtr::core::store::{DurableOptions, DurableSession};
use dtr::mapping::durable::{MemVfs, Vfs};
use std::sync::Arc;

const WAL: &[u8] = include_bytes!("fixtures/figure1_wal/wal-000001.log");
const CANONICAL: &str = include_str!("fixtures/figure1_wal.canonical.xml");

#[test]
fn committed_figure1_wal_opens_byte_identical() {
    let vfs = Arc::new(MemVfs::new());
    vfs.append("wal/wal-000001.log", WAL).unwrap();
    let (session, report) = DurableSession::open(vfs, "wal", DurableOptions::default()).unwrap();
    assert_eq!(report.replayed, 3);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_eq!(session.batch(), 3);
    assert_eq!(session.pin().canonical(), CANONICAL);
}
