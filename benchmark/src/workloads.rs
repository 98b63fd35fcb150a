//! The six workloads: what each is made of and why it exists.
//!
//! Every workload is a *collection* of small documents cycled through one
//! warm engine, so a pass lasts milliseconds and a burst of interference
//! from a neighbour spoils a minority of samples instead of all of them.
//! Documents come from `vitex-xmlgen` with seeds `seed..seed+7`; the
//! query generators are copies of the ones in `crates/bench`, kept here so
//! a change to that crate cannot change the load a later PR is judged on.

use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlgen::protein::{self, ProteinConfig};
use vitex_xmlgen::recursive::{self, RecursiveConfig};

use crate::stats::{splitmix, Fnv};

/// Which default-constructed engine a workload runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `Engine::from_query` — one query, no `multi` layer.
    Single,
    /// `MultiEngine::new()`.
    Multi,
    /// One warm `ShardedEngine::new(2)` session: not a workload of its own
    /// (see README, "Why there is no sharded workload") but a replay level
    /// of every multi-query workload's traced run.
    Sharded,
}

/// The documented definition of a workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub kind: EngineKind,
    /// One line, as recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// FNV-1a digests of the collection and the query set at
    /// [`PINNED_SEED`]; a drift aborts the run.
    pinned: (u64, u64),
    generate: fn(u64) -> (Vec<String>, Vec<String>),
}

/// A generated workload, ready to run.
pub struct Workload {
    pub spec: &'static WorkloadSpec,
    pub docs: Vec<String>,
    pub queries: Vec<String>,
}

impl Workload {
    fn total_bytes(&self) -> usize {
        self.docs.iter().map(String::len).sum()
    }

    /// MiB/s of a sweep over the collection that takes `sweep_ns`.
    pub fn mib_per_s(&self, sweep_ns: f64) -> f64 {
        self.total_bytes() as f64 / (1u64 << 20) as f64 / (sweep_ns / 1e9)
    }
}

/// The seed whose inputs are pinned by digest.
pub const PINNED_SEED: u64 = 2005;

/// Documents per collection (64 for the small-message workload).
const COLLECTION: u64 = 8;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "protein-k1",
        kind: EngineKind::Single,
        why: "paper E2: one query over shallow wide protein data, so the xmlsax tokenizer does the work",
        pinned: (0x5350_1928_2c34_1b59, 0x70d6_469e_26ba_ffda),
        generate: protein_k1,
    },
    WorkloadSpec {
        name: "recursive-k1",
        kind: EngineKind::Single,
        why: "paper's exponential-matches case: //*[author]//*[position]//* on deep towers, so the TwigM machine does the work",
        pinned: (0x7b8a_d1ef_7378_040c, 0xe183_fee7_b5ed_1da8),
        generate: recursive_k1,
    },
    WorkloadSpec {
        name: "auction-k1000-distinct",
        kind: EngineKind::Multi,
        why: "1000 distinct-literal subscriptions run 1000 machines: dispatch, machine and predicate work dominate (ROADMAP item 3)",
        pinned: (0xdd3a_4cc4_28cb_f4d8, 0x39e3_43d4_2c18_3bed),
        generate: auction_distinct,
    },
    WorkloadSpec {
        name: "auction-k1000-pinned",
        kind: EngineKind::Multi,
        why: "1000 region-pinned subscriptions plan on the main path only: where prefix sharing shows and predicate work does not",
        pinned: (0x057b_1a0b_e7c5_f0d3, 0x4972_791f_c1ae_78ac),
        generate: auction_pinned,
    },
    WorkloadSpec {
        name: "auction-k1000-fanout",
        kind: EngineKind::Multi,
        why: "16 shapes x 62 subscribers dedupe to 15 machines: fan-out, emission and result allocation dominate",
        pinned: (0x057b_1a0b_e7c5_f0d3, 0x8905_2495_028e_48e6),
        generate: auction_fanout,
    },
    WorkloadSpec {
        name: "pubsub-k1000-smalldocs",
        kind: EngineKind::Multi,
        why: "64 small messages against 1000 disjoint queries: per-document fixed cost (reset, output assembly) dominates",
        pinned: (0xa44d_6052_b8b7_a01d, 0x25cd_a925_7bab_2bc3),
        generate: pubsub_smalldocs,
    },
];

pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn digest(strings: &[String]) -> u64 {
    let mut f = Fnv::default();
    for s in strings {
        f.u64(s.len() as u64);
        f.bytes(s.as_bytes());
    }
    f.finish()
}

impl WorkloadSpec {
    /// Generates the workload's inputs from `seed`. At [`PINNED_SEED`] the
    /// inputs must hash to the recorded digests, so a later PR cannot
    /// change the load it is judged on; any other seed skips the check.
    pub fn generate(&'static self, seed: u64) -> Result<Workload, String> {
        let (docs, queries) = (self.generate)(seed);
        let got = (digest(&docs), digest(&queries));
        if seed == PINNED_SEED && got != self.pinned {
            return Err(format!(
                "workload {}: inputs drifted from the pinned digests \
                 (documents {:#018x}, queries {:#018x}; pinned {:#018x}, {:#018x})",
                self.name, got.0, got.1, self.pinned.0, self.pinned.1
            ));
        }
        Ok(Workload { spec: self, docs, queries })
    }
}

// ----- documents -----

fn protein_docs(seed: u64, bytes: u64) -> Vec<String> {
    (0..COLLECTION)
        .map(|i| {
            protein::to_string(&ProteinConfig {
                seed: seed + i,
                target_bytes: bytes,
                ..Default::default()
            })
        })
        .collect()
}

fn auction_docs(seed: u64, bytes: u64) -> Vec<String> {
    (0..COLLECTION)
        .map(|i| auction::to_string(&AuctionConfig { seed: seed + i, target_bytes: bytes }))
        .collect()
}

/// Figure-1-family documents, 24 sections x 24 tables deep with `position`
/// on every table and `author` present. The eight tower counts are always
/// 24..=31, so the load per sweep is the same on every seed; the seed
/// permutes all but the first, which cold starts run and so stays put.
fn recursive_docs(seed: u64) -> Vec<String> {
    let mut towers: Vec<usize> = (24..24 + COLLECTION as usize).collect();
    let mut state = seed;
    for i in (2..towers.len()).rev() {
        towers.swap(i, 1 + (splitmix(&mut state) % i as u64) as usize);
    }
    towers
        .into_iter()
        .map(|towers| {
            recursive::to_string(&RecursiveConfig {
                section_depth: 24,
                table_depth: 24,
                towers,
                position_on_outermost_only: false,
                author_present: true,
            })
        })
        .collect()
}

/// A message of `records` records cycling through `tags` element names
/// from `first` on, each with an id attribute, a per-tag witness child and
/// a text payload (`crates/bench`'s `pubsub_doc` plus a starting tag).
fn pubsub_doc(tags: usize, records: usize, first: usize) -> String {
    let mut xml = String::with_capacity(records * 52);
    xml.push_str("<stream>");
    for r in 0..records {
        let t = (first + r) % tags;
        xml.push_str(&format!("<t{t} id=\"r{r}\"><w{t}/><payload>v{r}</payload></t{t}>"));
    }
    xml.push_str("</stream>");
    xml
}

// ----- query sets (copies of crates/bench's `multiquery` generators) -----

const K: usize = 1000;

/// `k` standing queries over disjoint names.
fn disjoint_queries(k: usize) -> Vec<String> {
    (0..k).map(|i| format!("//t{i}[w{i}]/@id")).collect()
}

/// Auction-feed subscription shapes sharing long `/site/...` prefixes; two
/// are the same query with predicates in different order, which the
/// planner must dedupe by canonicalization.
const OVERLAP_SHAPES: &[&str] = &[
    "/site/regions/africa/item/@id",
    "/site/regions/asia/item/@id",
    "/site/regions/europe/item/@id",
    "/site/regions/africa/item/name",
    "/site/regions/namerica/item/quantity",
    "/site/regions//item/description/parlist/listitem",
    "/site/people/person/@id",
    "/site/people/person/name",
    "/site/people/person/emailaddress",
    "/site/people/person/profile/@income",
    "//item[payment = 'Creditcard']/@id",
    "//item[quantity][payment]/name",
    "//item[payment][quantity]/name",
    "//person[profile/interest]/name",
    "//person[profile]/emailaddress",
    "//regions//item/name",
];

fn overlapping_queries(k: usize) -> Vec<String> {
    (0..k).map(|i| OVERLAP_SHAPES[i % OVERLAP_SHAPES.len()].to_string()).collect()
}

/// The same shapes, each instance with its own comparison literal, so
/// canonicalization cannot collapse them: `k` machines really run.
fn distinct_overlapping_queries(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| match i % 4 {
            0 => format!("/site/regions//item[payment = 'P{i}']/@id"),
            1 => format!("//item[quantity][payment = 'Q{i}']/name"),
            2 => format!("//person[emailaddress = 'mailto:p{i}@example.org']/name"),
            _ => format!("/site/people/person[name = 'N{i}']/@id"),
        })
        .collect()
}

/// Subscriber `i` watches one region's items for their item id; the
/// distinguishing predicate is an inline attribute test, so the whole
/// per-event planning surface is the main path.
fn region_pinned_queries(k: usize) -> Vec<String> {
    const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
    const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];
    (0..k)
        .map(|i| {
            format!(
                "/site/regions/{}/item[@id = 'item{}']/{}",
                REGIONS[i % REGIONS.len()],
                i,
                FIELDS[(i / REGIONS.len()) % FIELDS.len()],
            )
        })
        .collect()
}

// ----- the workloads -----

fn protein_k1(seed: u64) -> (Vec<String>, Vec<String>) {
    (protein_docs(seed, 256 << 10), vec!["//ProteinEntry[reference]/@id".to_string()])
}

fn recursive_k1(seed: u64) -> (Vec<String>, Vec<String>) {
    (recursive_docs(seed), vec!["//*[author]//*[position]//*".to_string()])
}

fn auction_distinct(seed: u64) -> (Vec<String>, Vec<String>) {
    (auction_docs(seed, 16 << 10), distinct_overlapping_queries(K))
}

fn auction_pinned(seed: u64) -> (Vec<String>, Vec<String>) {
    (auction_docs(seed, 32 << 10), region_pinned_queries(K))
}

fn auction_fanout(seed: u64) -> (Vec<String>, Vec<String>) {
    (auction_docs(seed, 32 << 10), overlapping_queries(K))
}

fn pubsub_smalldocs(seed: u64) -> (Vec<String>, Vec<String>) {
    let mut state = seed;
    let docs = (0..64).map(|i| pubsub_doc(K, 100 + i, (splitmix(&mut state) % K as u64) as usize));
    (docs.collect(), disjoint_queries(K))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in WORKLOADS {
            let a = (w.generate)(7);
            assert_eq!(a, (w.generate)(7), "{}", w.name);
            assert_ne!(a.0, (w.generate)(8).0, "{}", w.name);
        }
    }

    #[test]
    fn pinned_seed_matches_recorded_digests() {
        for w in WORKLOADS {
            w.generate(PINNED_SEED).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn drifted_inputs_are_refused_by_name() {
        static DRIFTED: WorkloadSpec = WorkloadSpec {
            name: "drifted",
            kind: EngineKind::Single,
            why: "",
            pinned: (1, 2),
            generate: protein_k1,
        };
        let err = DRIFTED.generate(PINNED_SEED).err().expect("digest mismatch");
        assert!(err.contains("workload drifted"), "{err}");
        assert!(DRIFTED.generate(PINNED_SEED + 1).is_ok(), "other seeds skip the check");
    }

    #[test]
    fn recursive_towers_are_a_permutation() {
        let total = |seed| recursive_docs(seed).iter().map(String::len).sum::<usize>();
        assert_eq!(total(1), total(2), "the load per sweep is seed-invariant");
    }
}
