//! Harness pieces shared by the differential batteries
//! (`driver_differential`, `random_differential`, `telemetry`): the seeded
//! query-set generator, the skewed auction subscription set, and the
//! private-engine contract for machine statistics (gated and shape-group
//! subscriptions included).

use vitex::core::{MachineStats, MultiEngine};
use vitex::xmlsax::XmlReader;
use vitex::xpath::generate::{GenConfig, QueryGenerator};
use vitex::xpath::query_tree::NodeKind;
use vitex::xpath::{Axis, CmpOp, Literal, QueryTree};

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

/// Whether a value gate can narrow `tree`'s group: some main-path step
/// with only child steps above it (itself included) tests
/// `[@name = 'string']` inline. A `//` ends the anchored prefix.
pub fn gated(tree: &QueryTree) -> bool {
    let steps = tree.main_path().iter().map(|&id| tree.node(id));
    let anchored = steps.take_while(|n| n.axis == Axis::Child && n.kind.is_element());
    anchored.flat_map(|n| &n.pred_children).any(|&c| {
        let c = tree.node(c);
        matches!(
            (&c.kind, &c.comparison),
            (NodeKind::Attribute { name: Some(_) }, Some((CmpOp::Eq, Literal::Str(_))))
        )
    })
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
/// (`stats`, from a shared run over `xml`; `engine`, from a private
/// `Engine`; `shared`: [`literal_shared`]).
///
/// * A query no value gate touches, in a group with one binding, does
///   exactly the `Engine`'s work: equal on every counter.
/// * A gated one does what a one-query `MultiEngine` does over the same
///   document — a group's counters do not depend on its neighbours —
///   which is at most the `Engine`'s on every counter, with `emitted`
///   equal.
/// * In a group with several bindings either holds on the work counters
///   (pushes, pops, predicate evaluations, dispatch hits) and on
///   `emitted`, the subscription's own deliveries; its flag and candidate
///   counters are the group's.
#[allow(dead_code)] // telemetry has no use for it
pub fn assert_private_stats(
    stats: &MachineStats,
    engine: &MachineStats,
    tree: &QueryTree,
    shared: bool,
    xml: &str,
    label: &str,
) {
    let own = if gated(tree) {
        let mut alone = MultiEngine::new();
        alone.add_tree(tree).expect("registrable");
        let alone = alone.run(XmlReader::from_str(xml), |_, _| {}).expect("one-query run");
        let alone = alone.stats[0].clone();
        for ((name, gated), (_, private)) in alone.rows().into_iter().zip(engine.rows()) {
            assert!(gated <= private, "{name}: gated {gated} > private {private}: {label}");
        }
        assert_eq!(alone.emitted, engine.emitted, "gating emits what the Engine emits: {label}");
        alone
    } else {
        engine.clone()
    };
    if !shared {
        assert_eq!(stats, &own, "machine statistics are the subscription's own: {label}");
        return;
    }
    let work = |s: &MachineStats| (s.pushes, s.pops, s.predicate_evals, s.dispatch_hits, s.emitted);
    assert_eq!(work(stats), work(&own), "a shape group's work and own deliveries: {label}");
}
