//! E15 — cost-aware shard placement: isolate the hog, keep the bytes.
//!
//! A partition that deals plan groups out evenly is blind to what each
//! group costs. Plant one expensive subscription among cheap ones and it
//! stays chained to whatever groups share its shard: one worker saturates
//! while the rest idle at the watermark barrier. A session's first
//! document runs exactly that partition (LPT under the uniform prior
//! deals round-robin); placement then replans between documents from the
//! deterministic machine work counters — greedy LPT bin-packing, swapped
//! in at a document boundary under hysteresis — so the hog ends up alone
//! on its shard and every other worker shares the cheap remainder.
//!
//! Two claims are printed and asserted:
//!
//! 1. **Placement is output-transparent.** The merged match stream is
//!    byte-identical at every shard count (one shard has nothing to
//!    place, so it is the reference), on both workloads. The watermark
//!    merge orders by `(event seq, gid)`, so *where* a group runs can
//!    never reach the subscriber.
//! 2. **The skewed set rebalances.** On a small skewed set (one hog
//!    among a handful of pinned queries) at 4 shards, the session
//!    repartitions after the first document, the hog's group sits alone
//!    on its shard, and the measured imbalance of the last document is
//!    strictly lower than the first document's (the round-robin deal).

use vitex_bench::multiquery::region_pinned_queries;
use vitex_bench::{header, scale_arg};
use vitex_core::{PlacementSnapshot, ShardedEngine};
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

/// The E14 planted hog: a descendant scan with a value predicate that
/// fans out into every item's description subtree.
const EXPENSIVE: &str = "//item[payment = 'Cash']//listitem";

/// Documents streamed through each warm session — the first document
/// runs under the seed plan, the rest under whatever the planner swaps
/// in at the document boundaries.
const DOCS: usize = 3;

/// One warm session: every document's merged match stream (query id,
/// node id, in emission order), the placement snapshot taken *inside*
/// the session after each document, and the hog's plan-group slot
/// recovered from the cost ledger.
fn run(
    shards: usize,
    queries: &[String],
    hog_id: usize,
    xml: &str,
) -> (Vec<(usize, u64)>, Vec<PlacementSnapshot>, usize) {
    let mut engine = ShardedEngine::new(shards);
    engine.set_profiling(true);
    for q in queries {
        engine.add_query(q).expect("valid query");
    }
    let mut streamed: Vec<(usize, u64)> = Vec::new();
    let snaps = engine
        .session(|session| {
            (0..DOCS)
                .map(|_| {
                    session.run_document(XmlReader::from_str(xml), |q, m| {
                        streamed.push((q.0, m.node));
                    })?;
                    Ok(session.placement_snapshot())
                })
                .collect()
        })
        .expect("session runs");
    let ledger = engine.group_costs().expect("profiling enabled");
    let hog_gid = ledger.queries[hog_id].group.expect("hog is active");
    (streamed, snaps, hog_gid)
}

fn main() {
    header(
        "E15: cost-aware shard placement (ledger-driven LPT with mid-session repartitioning)",
        "cost-aware placement isolates an expensive subscription on its own \
         shard and tightens worker load spread, while the watermark merge \
         keeps the match stream byte-identical to the single-shard run",
    );
    let scale = scale_arg();
    let xml = auction::to_string(&AuctionConfig::sized(((1 << 20) as f64 * scale) as u64));

    // Workload A — the E14 shape: one hog among k = 1000 cheap pinned
    // queries. Too many cheap groups for the hog to deserve a private
    // shard, but placement must still be invisible in the output.
    let k = 1000usize;
    let mut crowd = region_pinned_queries(k);
    crowd.push(EXPENSIVE.to_string());

    // Workload B — the skewed set: the same hog among 7 pinned queries.
    // Here the hog dominates total work, so LPT must give it a shard of
    // its own once the first document's counters land in the cost model.
    let mut skewed = region_pinned_queries(7);
    skewed.push(EXPENSIVE.to_string());

    for (name, queries, hog_id) in
        [("e14-crowd (1000 cheap + hog)", &crowd, k), ("skewed (7 cheap + hog)", &skewed, 7)]
    {
        println!("--- workload: {name} ---");
        let (reference, _, _) = run(1, queries, hog_id, &xml);
        for shards in [2usize, 4] {
            let (streamed, _, _) = run(shards, queries, hog_id, &xml);
            assert_eq!(
                streamed, reference,
                "merged match stream must be byte-identical to one shard ({name}, {shards} shards)"
            );
            println!(
                "  shards={shards}: {} matches over {DOCS} docs — identical to the 1-shard run",
                streamed.len()
            );
        }
    }

    // The rebalance claim, on the skewed set at 4 shards.
    let shards = 4usize;
    let (_, snaps, hog_gid) = run(shards, &skewed, 7, &xml);
    let (first, last) = (&snaps[0], &snaps[DOCS - 1]);
    assert!(
        last.repartitions >= 1,
        "the skewed set must trigger a repartition after the first document"
    );
    let hog_shard = last.shard_of[hog_gid].expect("hog group is placed");
    let cohabitants = last.shard_of.iter().filter(|s| **s == Some(hog_shard)).count();
    assert_eq!(cohabitants, 1, "the hog must be alone on its shard after the repartition");

    let seed_imb = first.last_imbalance_millis.expect("documents ran");
    let last_imb = last.last_imbalance_millis.expect("documents ran");
    assert!(
        last_imb < seed_imb,
        "the repartitioned assignment must measure strictly lower imbalance than the \
         uniform-prior deal of document 1 (last {last_imb} vs first {seed_imb})"
    );
    println!("--- rebalance (skewed set, {shards} shards) ---");
    println!(
        "  document 1 (uniform prior = round-robin): imbalance={seed_imb} millis (1000 = balanced)\n  \
         document {DOCS}: imbalance={last_imb} millis, repartitions={}, hog group g{hog_gid} alone on shard {hog_shard}",
        last.repartitions
    );
    println!(
        "shape check: document 1 runs the uniform-prior plan, under which\n\
         the hog shares a worker with a cheap group, so its max/mean load\n\
         ratio is high. Placement observes that document's deterministic\n\
         machine counters, and LPT then hands the hog a private shard —\n\
         measured imbalance drops and stays down, asserted above."
    );
}
