//! Assembling the full Section 8 scenario.
//!
//! `listings_per_source × 5` canonical listings are generated, rendered
//! into the five source formats, and exchanged into the portal through the
//! sixteen mappings. The `overlap` fraction reproduces the paper's second
//! experiment: parts of the Windermere data also appear in Westfall and
//! Homeseekers, and parts of the Yahoo data in NK Realtors, so that "different
//! information about the same real estate entry would appear in different
//! sources" — those twins map to identical portal records and merge with
//! unioned mapping annotations.

use crate::listing::{Listing, ListingGenerator};
use crate::mappings::all_mappings;
use crate::portal_schema::portal_schema;
use crate::sources::*;
use dtr_core::tagged::{MappingSetting, MxqlError, TaggedInstance};
use dtr_model::instance::Instance;
use dtr_model::schema::Schema;
use dtr_xml::writer::{instance_to_xml, WriteOptions};

/// Configuration of the scenario generator.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Listings generated per source (the paper's full run is 2,000 per
    /// source = 10,000 total).
    pub listings_per_source: usize,
    /// Fraction of a source's listings also emitted into its overlap
    /// partner(s).
    pub overlap: f64,
    /// RNG seed.
    pub seed: u64,
    /// Use the buggy neighborhood-only self-join in `hs2`.
    pub buggy_neighborhood_join: bool,
    /// Agent pool size (0 = auto: one agent per ~25 listings).
    pub agent_pool: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            listings_per_source: 200,
            overlap: 0.0,
            seed: 2004_0315,
            buggy_neighborhood_join: false,
            agent_pool: 0,
        }
    }
}

/// A fully built scenario: the mapping setting plus the five source
/// instances (in setting order: Yahoo, NK, WM, WF, HS).
pub struct Scenario {
    /// The mapping setting `<Ss, Portal, M>`.
    pub setting: MappingSetting,
    /// Source instances, in setting order.
    pub sources: Vec<Instance>,
    /// Total distinct listings generated.
    pub distinct_listings: usize,
    /// Listings emitted more than once (overlap twins).
    pub overlapped_listings: usize,
}

impl Scenario {
    /// Total bytes of the five sources serialized as plain XML — the
    /// paper's "14.3 MB of XML data" figure.
    pub fn source_xml_bytes(&self) -> usize {
        self.sources
            .iter()
            .map(|s| instance_to_xml(s, WriteOptions::plain()).len())
            .sum()
    }

    /// Runs the exchange, producing the annotated portal instance.
    pub fn exchange(self) -> Result<TaggedInstance, MxqlError> {
        TaggedInstance::exchange(self.setting, self.sources)
    }

    /// Runs the exchange with explicit options (engine selection and
    /// parallel foreach evaluation), for benchmarks and conformance laws.
    pub fn exchange_with(
        self,
        opts: &dtr_mapping::exchange::ExchangeOptions,
    ) -> Result<TaggedInstance, MxqlError> {
        TaggedInstance::exchange_with_options(self.setting, self.sources, opts)
    }
}

/// Builds the scenario (schemas, mappings, generated source instances).
pub fn build(config: ScenarioConfig) -> Scenario {
    let span = dtr_obs::span("portal.build")
        .field("listings_per_source", config.listings_per_source)
        .field("seed", config.seed);
    let n = config.listings_per_source;
    let pool = if config.agent_pool == 0 {
        (n / 25).clamp(4, 400)
    } else {
        config.agent_pool
    };
    let mut generator = ListingGenerator::new(config.seed, pool);

    let yahoo_ls: Vec<Listing> = generator.listings(n);
    let mut nk_ls: Vec<Listing> = generator.listings(n);
    let wm_ls: Vec<Listing> = generator.listings(n);
    let wf_ls: Vec<Listing> = generator.listings(n);
    let hs_ls: Vec<Listing> = generator.listings(n);

    // NK natives store a single school district.
    for l in &mut nk_ls {
        l.equalize_schools();
    }

    // Overlap: every source still publishes exactly `n` listings (the
    // total crawl size is held constant, as in the paper's comparison),
    // but `k` of NK's listings are copies of Yahoo listings and `k` of
    // Westfall's and Homeseekers' are copies of Windermere listings.
    // Yahoo twins get equalized schools on BOTH copies so the pairs map to
    // identical portal records and merge.
    let k = ((config.overlap * n as f64).round() as usize).min(n);
    let mut yahoo_ls = yahoo_ls;
    for l in yahoo_ls.iter_mut().take(k) {
        l.equalize_schools();
    }
    let mut nk_all: Vec<Listing> = nk_ls.into_iter().take(n - k).collect();
    nk_all.extend(yahoo_ls.iter().take(k).cloned());
    let mut wf_all: Vec<Listing> = wf_ls.into_iter().take(n - k).collect();
    wf_all.extend(wm_ls.iter().take(k).cloned());
    let mut hs_all: Vec<Listing> = hs_ls.into_iter().take(n - k).collect();
    hs_all.extend(wm_ls.iter().take(k).cloned());

    let sources = vec![
        yahoo_instance(&yahoo_ls),
        nk_instance(&nk_all),
        windermere_instance(&wm_ls),
        westfall_instance(&wf_all),
        homeseekers_instance(&hs_all),
    ];
    let schemas: Vec<Schema> = vec![
        yahoo_schema(),
        nk_schema(),
        windermere_schema(),
        westfall_schema(),
        homeseekers_schema(),
    ];
    let setting = MappingSetting::new(
        schemas,
        portal_schema(),
        all_mappings(config.buggy_neighborhood_join),
    )
    .expect("the portal setting validates");

    span.record("distinct_listings", 5 * n - 3 * k);
    Scenario {
        setting,
        sources,
        distinct_listings: 5 * n - 3 * k,
        overlapped_listings: 3 * k,
    }
}

/// Builds and exchanges in one step.
pub fn tagged(config: ScenarioConfig) -> TaggedInstance {
    build(config)
        .exchange()
        .expect("the portal exchange succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_model::value::MappingName;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            listings_per_source: 12,
            ..Default::default()
        }
    }

    #[test]
    fn exchange_runs_and_counts_match() {
        let t = tagged(small());
        let schema = t.setting().target_schema();
        let houses = schema.resolve_path("/Portal/houses").unwrap();
        let member = schema.set_member(houses).unwrap();
        // 5 x 12 distinct listings, no overlap: one portal house each.
        assert_eq!(t.target().interpretation(member).len(), 60);
    }

    #[test]
    fn same_source_mappings_merge_on_house() {
        // Each Yahoo house must carry both y1 and y2 (features and open
        // days mappings assign the identical contract).
        let t = tagged(small());
        let r = t
            .query("select h.hid, m from Portal.houses h, h.hid@map m")
            .unwrap();
        let mut by_hid: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        for row in r.tuples() {
            by_hid
                .entry(row[0].to_string())
                .or_default()
                .push(row[1].to_string());
        }
        // Yahoo hids are H1000..H1011.
        let y = by_hid.get("H1000").expect("Yahoo house present");
        assert!(
            y.contains(&"y1".to_string()) && y.contains(&"y2".to_string()),
            "{y:?}"
        );
        // A Windermere house carries wm1/wm2 and, via hs? no - only wm.
        let w = by_hid.get("H1024").expect("WM house present");
        assert!(
            w.contains(&"wm1".to_string()) && w.contains(&"wm2".to_string()),
            "{w:?}"
        );
    }

    #[test]
    fn overlap_merges_across_sources() {
        let t = tagged(ScenarioConfig {
            listings_per_source: 12,
            overlap: 0.5,
            ..Default::default()
        });
        let schema = t.setting().target_schema();
        let houses = schema.resolve_path("/Portal/houses").unwrap();
        let member = schema.set_member(houses).unwrap();
        // Each source still publishes 12 listings, but 3x6 of them are
        // copies: 60 - 18 = 42 distinct portal houses, twins merged.
        assert_eq!(t.target().interpretation(member).len(), 42);
        // An overlapped Yahoo listing (H1000) carries Yahoo AND NK mappings.
        let r = t
            .query("select h.hid, m from Portal.houses h, h.hid@map m where h.hid = 'H1000'")
            .unwrap();
        let ms: Vec<String> = r.tuples().iter().map(|t| t[1].to_string()).collect();
        assert!(ms.contains(&"y1".to_string()), "{ms:?}");
        assert!(ms.contains(&"nk1".to_string()), "{ms:?}");
        // A WM overlap twin (H1024) carries wm, wf and hs mappings.
        let r = t
            .query("select h.hid, m from Portal.houses h, h.hid@map m where h.hid = 'H1024'")
            .unwrap();
        let ms: Vec<String> = r.tuples().iter().map(|t| t[1].to_string()).collect();
        assert!(ms.contains(&"wm1".to_string()), "{ms:?}");
        assert!(ms.contains(&"hs1".to_string()), "{ms:?}");
        let has_wf = ms.contains(&"wf1".to_string()) || ms.contains(&"wf2".to_string());
        assert!(has_wf, "{ms:?}");
    }

    #[test]
    fn yahoo_phone_feeds_both_slots() {
        let t = tagged(small());
        let r = t
            .query(
                "select h.contact.businessPhone, h.contact.homePhone
                 from Portal.houses h where h.hid = 'H1000'",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0][0], r.tuples()[0][1]);
    }

    #[test]
    fn nk_houses_have_equal_school_districts() {
        // The Section 8 accuracy finding, reproducible by a plain query.
        let t = tagged(small());
        // NK hids are H1012..H1023.
        let r = t
            .query(
                "select h.schools.elementary, h.schools.middle, h.schools.high
                 from Portal.houses h where h.hid = 'H1013'",
            )
            .unwrap();
        let row = &r.tuples()[0];
        assert_eq!(row[0], row[1]);
        assert_eq!(row[1], row[2]);
        // While a Yahoo house keeps three distinct districts.
        let r2 = t
            .query(
                "select h.schools.elementary, h.schools.middle
                 from Portal.houses h where h.hid = 'H1001'",
            )
            .unwrap();
        let row2 = &r2.tuples()[0];
        assert_ne!(row2[0], row2[1]);
    }

    #[test]
    fn buggy_join_produces_cross_city_neighbors() {
        let cfg = ScenarioConfig {
            listings_per_source: 30,
            buggy_neighborhood_join: true,
            ..Default::default()
        };
        let t = tagged(cfg);
        // Some house has a neighbor from a different city: detect by
        // checking a neighbor hid whose own city differs.
        let r = t
            .query(
                "select h.hid, h.city, b.hid
                 from Portal.houses h, h.housesInNeighborhood b",
            )
            .unwrap();
        let mut city_of: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        let all = t
            .query("select h.hid, h.city from Portal.houses h")
            .unwrap();
        for row in all.tuples() {
            city_of.insert(row[0].to_string(), row[1].to_string());
        }
        let cross = r.tuples().iter().any(|row| {
            city_of
                .get(&row[2].to_string())
                .is_some_and(|c| *c != row[1].to_string())
        });
        assert!(cross, "buggy join must produce cross-city neighbors");

        // The fixed join does not.
        let fixed = tagged(ScenarioConfig {
            buggy_neighborhood_join: false,
            ..cfg
        });
        let r = fixed
            .query(
                "select h.hid, h.city, b.hid
                 from Portal.houses h, h.housesInNeighborhood b",
            )
            .unwrap();
        let all = fixed
            .query("select h.hid, h.city from Portal.houses h")
            .unwrap();
        let mut city_of: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        for row in all.tuples() {
            city_of.insert(row[0].to_string(), row[1].to_string());
        }
        let cross = r.tuples().iter().any(|row| {
            city_of
                .get(&row[2].to_string())
                .is_some_and(|c| *c != row[1].to_string())
        });
        assert!(!cross, "fixed join must stay within the city");
    }

    #[test]
    fn double_arrow_reveals_the_join_elements() {
        // The paper's debugging session on housesInNeighborhood. Step 1:
        // the double-arrow query shows that `neighborhood` affects the
        // element although nothing copies it there.
        let t = tagged(ScenarioConfig {
            listings_per_source: 8,
            buggy_neighborhood_join: true,
            ..Default::default()
        });
        let r = t
            .query(
                "select db, e from where
                   <db:e => m => 'Portal':'/Portal/houses/housesInNeighborhood/hid'>",
            )
            .unwrap();
        let elems: Vec<String> = r
            .distinct_tuples()
            .iter()
            .map(|t| t[1].to_string())
            .collect();
        assert!(
            elems.contains(&"HSdb:/HS/houses/neighborhood".to_string()),
            "{elems:?}"
        );
        // ...but the single-arrow (copy) sources of the element are only
        // the copied fields, neighborhood is not among them.
        let r = t
            .query(
                "select e from where
                   <db:e -> m -> 'Portal':'/Portal/houses/housesInNeighborhood/hid'>",
            )
            .unwrap();
        let copied: Vec<String> = r
            .distinct_tuples()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        assert_eq!(copied, vec!["HSdb:/HS/houses/hid".to_string()]);

        // Step 2: inspect the join condition of the offending mapping via
        // the metastore — the buggy mapping joins on neighborhood alone...
        let join_elems = |tagged: &dtr_core::tagged::TaggedInstance| -> Vec<String> {
            let runner = dtr_core::runner::MetaRunner::new(tagged.setting()).unwrap();
            let mut catalog = tagged.catalog();
            catalog.push(runner.meta_source());
            let q = dtr_query::parser::parse_query(
                "select e.name
                 from Mapping m, Condition c, Element e
                 where m.mid = 'hs2' and c.qid = m.forQ and c.eid = e.eid",
            )
            .unwrap();
            let r = dtr_query::eval::Evaluator::new(&catalog, tagged.functions())
                .run(&q)
                .unwrap();
            let mut names: Vec<String> = r.tuples().iter().map(|t| t[0].to_string()).collect();
            names.sort();
            names.dedup();
            names
        };
        assert_eq!(join_elems(&t), vec!["neighborhood".to_string()]);

        // ...while the corrected mapping joins on city, state and
        // neighborhood (the paper: "when the mapping was updated to join on
        // city, state, and neighborhood, the problem was corrected").
        let fixed = tagged(ScenarioConfig {
            listings_per_source: 8,
            buggy_neighborhood_join: false,
            ..Default::default()
        });
        assert_eq!(
            join_elems(&fixed),
            vec![
                "city".to_string(),
                "neighborhood".to_string(),
                "state".to_string()
            ]
        );
    }

    #[test]
    fn school_district_provenance_detects_nk_merge() {
        // Section 8: "all three elements were retrieving their values from
        // a single element schoolDistrict".
        let t = tagged(small());
        for target in [
            "/Portal/houses/schools/elementary",
            "/Portal/houses/schools/middle",
            "/Portal/houses/schools/high",
        ] {
            let r = t
                .query(&format!(
                    "select e from where <'NKdb':e -> m -> 'Portal':'{target}'>"
                ))
                .unwrap();
            let elems: Vec<String> = r
                .distinct_tuples()
                .iter()
                .map(|t| t[0].to_string())
                .collect();
            assert!(
                elems.contains(&"NKdb:/NK/properties/schoolDistrict".to_string()),
                "{target}: {elems:?}"
            );
        }
    }

    #[test]
    fn source_sizes_reported() {
        let s = build(small());
        assert!(s.source_xml_bytes() > 50_000);
        assert_eq!(s.distinct_listings, 60);
        assert_eq!(s.overlapped_listings, 0);
        let _ = MappingName::new("x");
    }
}
