//! The seeded stream of source edit batches `ingest` commits and `recover`
//! replays: 2–4 edits per batch (70 % modify, 15 % insert, 15 % delete) on
//! the two self-contained listing sets, Yahoo's `listings` and
//! Homeseekers' `houses`.

use crate::rng::SplitMix64;
use dtr_mapping::delta::SourceDelta;
use dtr_model::instance::{Instance, Value};
use dtr_portal::listing::ListingGenerator;
use dtr_portal::sources::{homeseekers_instance, yahoo_instance};

/// `(edit path, source index in setting order, root label, set label)`.
const SETS: [(&str, usize, &str, &str); 2] = [
    ("Yahoo.listings", 0, "Yahoo", "listings"),
    ("HS.houses", 4, "HS", "houses"),
];

/// A set never shrinks below this many members: deletes turn into inserts.
const MIN_MEMBERS: usize = 8;

/// Inserted listings get house ids from here up, clear of the generator's.
const FIRST_NEW_HID: u64 = 900_000;

/// A deterministic edit-batch generator.
pub struct EditStream {
    rng: SplitMix64,
    listings: ListingGenerator,
    next_hid: u64,
}

impl EditStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        EditStream {
            rng: SplitMix64::new(seed, 0xED17),
            listings: ListingGenerator::new(seed ^ 0xED17_5EED, 16),
            next_hid: FIRST_NEW_HID,
        }
    }

    /// The next batch against the current `sources` (in setting order).
    ///
    /// Modifies and deletes use distinct indices and are emitted in
    /// descending index order per set, so each resolves against the member
    /// it was drawn from (a modify re-appends its member at the end);
    /// inserts come last.
    pub fn next(&mut self, sources: &[Instance]) -> Result<SourceDelta, String> {
        let edits = 2 + self.rng.below(3);
        // Per set: (index, Some(new value) for a modify / None for a delete).
        let mut touched: [Vec<(usize, Option<Value>)>; 2] = [Vec::new(), Vec::new()];
        let mut inserts: Vec<(usize, Value)> = Vec::new();
        for _ in 0..edits {
            let s = self.rng.below(SETS.len());
            let (_, source, root, label) = SETS[s];
            let inst = &sources[source];
            let members = inst
                .root(root)
                .and_then(|r| inst.child_by_label(r, label))
                .and_then(|set| inst.set_members(set))
                .ok_or_else(|| format!("source set {root}.{label} missing"))?;
            let roll = self.rng.below(100);
            let free = members.len().saturating_sub(touched[s].len());
            if roll >= 70 && (roll < 85 || free <= MIN_MEMBERS) {
                inserts.push((s, self.new_listing(s)));
                continue;
            }
            let idx = loop {
                let i = self.rng.below(members.len());
                if touched[s].iter().all(|&(j, _)| j != i) {
                    break i;
                }
            };
            let edit = if roll < 70 {
                let mut v = inst.to_value(members[idx]);
                self.reprice(&mut v);
                Some(v)
            } else {
                None
            };
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
        Ok(delta)
    }

    fn reprice(&mut self, v: &mut Value) {
        let price = 120_000 + 1_000 * self.rng.below(1_480) as i64;
        if let Value::Record(fields) = v {
            for (label, field) in fields.iter_mut() {
                if label.as_str() == "price" {
                    *field = Value::int(price);
                }
            }
        }
    }

    /// A fresh listing rendered as a member of set `s`.
    fn new_listing(&mut self, s: usize) -> Value {
        let mut listing = self.listings.listing();
        listing.hid = format!("H{}", self.next_hid);
        self.next_hid += 1;
        let (_, _, root, label) = SETS[s];
        let inst = if s == 0 {
            yahoo_instance(std::slice::from_ref(&listing))
        } else {
            homeseekers_instance(std::slice::from_ref(&listing))
        };
        let set = inst
            .root(root)
            .and_then(|r| inst.child_by_label(r, label))
            .expect("the emitter renders its own set");
        let member = inst.set_members(set).expect("a set node")[0];
        inst.to_value(member)
    }
}
