//! Harness pieces shared by the differential batteries
//! (`driver_differential`, `random_differential`, `telemetry`): the seeded
//! query-set generator, the skewed auction subscription set, and the
//! private-engine contract for machine statistics (shape-group
//! subscriptions included).

use vitex::core::{MachineStats, MultiEngine, MultiOutput};
use vitex::xmlsax::XmlReader;
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

/// Whether query `i` of `trees` shares its machine with another literal:
/// a query of the same shape tests a different one, so their plan group
/// has several bindings.
#[allow(dead_code)] // telemetry has no use for it
pub fn literal_shared(trees: &[QueryTree], i: usize) -> bool {
    let (key, literal) = trees[i].shape_key();
    literal.is_some()
        && trees.iter().map(QueryTree::shape_key).any(|(k, l)| k == key && l != literal)
}

/// The private-engine contract for one subscription's machine statistics
/// (`stats`, from a shared run; `engine`, from a private `Engine`;
/// `shared`: [`literal_shared`]). In a group with one binding they are
/// equal on every counter. In a group with several they are equal on the
/// work counters (pushes, pops, predicate evaluations, dispatch hits) and
/// on `emitted`, the subscription's own deliveries; its flag and candidate
/// counters are the group's.
#[allow(dead_code)] // telemetry has no use for it
pub fn assert_private_stats(
    stats: &MachineStats,
    engine: &MachineStats,
    shared: bool,
    label: &str,
) {
    if !shared {
        assert_eq!(stats, engine, "machine statistics are the subscription's own: {label}");
        return;
    }
    let work = |s: &MachineStats| (s.pushes, s.pops, s.predicate_evals, s.dispatch_hits, s.emitted);
    assert_eq!(work(stats), work(engine), "a shape group's work and own deliveries: {label}");
}

/// Asserts that the plan statistics a document reported — the planner's
/// cache, refilled after a registration or removal, with the executor's
/// step counters — equal `MultiEngine::plan_stats`
/// recomputed from scratch: every structural field, `plan_bytes`, and the
/// document's step counters.
#[allow(dead_code)] // telemetry has no use for it
pub fn assert_plan_is_fresh(engine: &MultiEngine, out: &MultiOutput, label: &str) {
    assert_eq!(out.plan, engine.plan_stats(), "cached plan statistics: {label}");
}

/// Runs `docs` through a warm `engine`, checking after each one that
/// [`assert_plan_is_fresh`] holds.
#[allow(dead_code)] // telemetry has no use for it
pub fn run_checking_plan<D: AsRef<str>>(
    engine: &mut MultiEngine,
    docs: &[D],
    label: &str,
) -> Vec<MultiOutput> {
    let mut outs = Vec::with_capacity(docs.len());
    for (i, xml) in docs.iter().enumerate() {
        let reader = XmlReader::from_str(xml.as_ref());
        let out = engine.run(reader, |_, _| {}).unwrap();
        assert_plan_is_fresh(engine, &out, &format!("{label}, document {i}"));
        outs.push(out);
    }
    outs
}
