//! A commit's work scales with its batch, not with the portal.
//!
//! One fixed, seeded stream of reprice, delete and insert batches on
//! `HS.houses` and `Yahoo.listings` runs against the Section 8 portal at
//! 100 and at 400 listings per source. The work counters of a serial run
//! repeat exactly, so the bounds are ratios between the two scales:
//!
//! * the items enumerated outside hash probes (`eval.tuples_scanned −
//!   eval.hash_probes`) stay flat: a delta term enumerates its changed
//!   members and probes kept join indexes, so nothing walks a whole set;
//! * the bindings enumerated grow no faster than the rows the batches add
//!   and remove. `hs2` keys its self-join on `neighborhood` alone, and a
//!   neighborhood name holds more houses at a larger scale, so the rows —
//!   and the raw `eval.hash_probes` — do grow; neither is pinned.
//!
//! The counter registry is process-global, so this file is its own test
//! binary with a single test.

use dtr::core::incremental::IncrementalSession;
use dtr::mapping::delta::SourceDelta;
use dtr::model::instance::{Instance, NodeId, Value};
use dtr::portal::listing::ListingGenerator;
use dtr::portal::scenario::{build, ScenarioConfig};
use dtr::portal::sources::{homeseekers_instance, yahoo_instance};

/// `(edit path, source index in setting order, root label, set label)`.
const SETS: [(&str, usize, &str, &str); 2] = [
    ("Yahoo.listings", 0, "Yahoo", "listings"),
    ("HS.houses", 4, "HS", "houses"),
];

/// Batches in the stream.
const BATCHES: usize = 40;

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The members of set `root.label` in `inst`.
fn members<'a>(inst: &'a Instance, root: &str, label: &str) -> &'a [NodeId] {
    let set = inst
        .root(root)
        .and_then(|r| inst.child_by_label(r, label))
        .expect("the set exists");
    inst.set_members(set).expect("a set node")
}

/// A new listing, with house id `H{hid}`, rendered as a member of set `s`.
fn new_listing(listings: &mut ListingGenerator, hid: usize, s: usize) -> Value {
    let mut listing = listings.listing();
    listing.hid = format!("H{hid}");
    let inst = if s == 0 {
        yahoo_instance(std::slice::from_ref(&listing))
    } else {
        homeseekers_instance(std::slice::from_ref(&listing))
    };
    let (_, _, root, label) = SETS[s];
    inst.to_value(members(&inst, root, label)[0])
}

/// The stream's next batch: 2–4 edits, each a reprice (60 %), a delete
/// (20 %) or an insert (20 %) on one of the two sets. Reprices and deletes
/// use distinct indices, emitted in descending order per set so each
/// resolves against the member it was drawn from; inserts come last.
fn next_batch(
    rng: &mut Rng,
    listings: &mut ListingGenerator,
    hid: &mut usize,
    sources: &[Instance],
) -> SourceDelta {
    let mut touched: [Vec<(usize, Option<Value>)>; 2] = [Vec::new(), Vec::new()];
    let mut inserts: Vec<(usize, Value)> = Vec::new();
    for _ in 0..2 + rng.below(3) {
        let s = rng.below(SETS.len());
        let roll = rng.below(100);
        if roll >= 80 {
            *hid += 1;
            inserts.push((s, new_listing(listings, *hid, s)));
            continue;
        }
        let (_, source, root, label) = SETS[s];
        let inst = &sources[source];
        let list = members(inst, root, label);
        let idx = loop {
            let i = rng.below(list.len());
            if touched[s].iter().all(|&(j, _)| j != i) {
                break i;
            }
        };
        let edit = (roll < 60).then(|| {
            let mut v = inst.to_value(list[idx]);
            let price = 120_000 + 1_000 * rng.below(1_480) as i64;
            if let Value::Record(fields) = &mut v {
                for (label, field) in fields.iter_mut() {
                    if label.as_str() == "price" {
                        *field = Value::int(price);
                    }
                }
            }
            v
        });
        touched[s].push((idx, edit));
    }
    let mut delta = SourceDelta::new();
    for (s, mut list) in touched.into_iter().enumerate() {
        list.sort_by_key(|&(idx, _)| std::cmp::Reverse(idx));
        for (idx, edit) in list {
            delta = match edit {
                Some(v) => delta.modify(SETS[s].0, idx, v),
                None => delta.delete(SETS[s].0, idx),
            };
        }
    }
    for (s, v) in inserts {
        delta = delta.insert(SETS[s].0, v);
    }
    delta
}

/// The stream's work at one scale: items enumerated outside hash probes,
/// bindings enumerated, and foreach rows added plus removed, summed over
/// the stream's commits.
fn stream_work(listings_per_source: usize) -> (u64, u64, u64) {
    let scenario = build(ScenarioConfig {
        listings_per_source,
        ..Default::default()
    });
    let mut session = IncrementalSession::new(scenario.setting, scenario.sources).unwrap();
    let mut rng = Rng(0x5CA1_E000);
    let mut listings = ListingGenerator::new(0x5CA1_E5EED, 16);
    let mut hid = 900_000;
    let counters = dtr_obs::counters();
    let (scanned0, probes0, bindings0) = (
        counters.tuples_scanned.get(),
        counters.hash_probes.get(),
        counters.bindings_enumerated.get(),
    );
    let mut rows = 0;
    for _ in 0..BATCHES {
        let delta = next_batch(&mut rng, &mut listings, &mut hid, session.sources());
        let td = session.apply(&delta).unwrap();
        rows += (td.rows_added + td.rows_removed) as u64;
    }
    let scanned = counters.tuples_scanned.get() - scanned0;
    let probes = counters.hash_probes.get() - probes0;
    let bindings = counters.bindings_enumerated.get() - bindings0;
    (scanned - probes, bindings, rows)
}

#[test]
fn a_commit_costs_what_its_batch_touches() {
    dtr_obs::set_enabled(true);
    dtr_obs::profile_reset();
    let (outside_small, bindings_small, rows_small) = stream_work(100);
    let (outside_large, bindings_large, rows_large) = stream_work(400);
    assert!(rows_small > 0 && bindings_small > 0 && outside_small > 0);
    let ratio = |large: u64, small: u64| large as f64 / small as f64;
    let outside = ratio(outside_large, outside_small);
    assert!(
        outside <= 1.25,
        "items enumerated outside hash probes grew {outside:.2}× from 100 to 400 listings per \
         source ({outside_small} → {outside_large})"
    );
    let bindings = ratio(bindings_large, bindings_small);
    let rows = ratio(rows_large, rows_small);
    assert!(
        bindings <= rows,
        "bindings grew {bindings:.2}× ({bindings_small} → {bindings_large}), faster than the \
         rows the batches add and remove, {rows:.2}× ({rows_small} → {rows_large})"
    );
}
