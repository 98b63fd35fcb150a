//! Harness pieces shared by the differential batteries
//! (`random_differential`, `telemetry`): the seeded query-set generator
//! and the skewed auction subscription set.

use vitex::xpath::generate::{GenConfig, QueryGenerator};
use vitex::xpath::QueryTree;

/// Queries per generated set — enough for overlap and duplicates to
/// appear (the generator's alphabet is 5 tags), small enough to keep the
/// full configuration product fast.
pub const QUERIES_PER_SET: usize = 8;

/// Generates a query set: random trees plus a forced literal duplicate of
/// the first query (dedup + fan-out must always be exercised).
pub fn query_set(query_seed: u64) -> Vec<QueryTree> {
    let mut qgen = QueryGenerator::new(query_seed, GenConfig::default());
    let mut trees: Vec<QueryTree> = qgen
        .queries(QUERIES_PER_SET - 1)
        .iter()
        .map(|q| QueryTree::build(q).expect("generated queries are valid"))
        .collect();
    trees.push(QueryTree::parse(trees[0].original()).expect("round-trips"));
    trees
}

/// A skewed subscription set over `vitex::xmlgen::auction` documents: `k`
/// cheap region-pinned queries (each pins one `@id`, so its machine
/// barely moves) and, last — query id `k` — one planted hog: a descendant
/// scan over every item, a value predicate evaluated per item, then a
/// second descendant descent into each description subtree.
pub fn pinned_queries_with_hog(k: usize) -> Vec<QueryTree> {
    const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
    const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];
    let pinned = (0..k).map(|i| {
        let (region, field) = (REGIONS[i % 6], FIELDS[i / 6 % 4]);
        format!("/site/regions/{region}/item[@id = 'item{i}']/{field}")
    });
    pinned
        .chain(["//item[payment = 'Cash']//listitem".to_string()])
        .map(|q| QueryTree::parse(&q).expect("valid query"))
        .collect()
}
