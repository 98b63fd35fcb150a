//! The randomized differential harness: seeded random query *sets* ×
//! seeded random documents, run through every engine configuration the
//! system has — the shard counts — asserting identical matches, callback
//! order and statistics. Two independent references anchor the sweep: the
//! naive baseline (node-id sets) and k private single-query engines
//! (match payloads + machine statistics).
//!
//! This is the correctness net under the step-trie executor, the hottest
//! matching path: the hand-picked battery in
//! `driver_differential.rs` covers known regimes; this harness explores
//! axes, wildcards, predicates and nesting combinatorially. Every assert
//! message carries the reproducing `(doc_seed, query_seed)` pair, so a CI
//! failure is a one-line local repro:
//!
//! ```text
//! cargo test --test random_differential -- --nocapture
//! # then e.g.:  check_case(1234, 567)  — re-add as a #[test] with the
//! # printed seeds, or run the fixed_seeds test after appending them.
//! ```

use proptest::prelude::*;

mod common;

use common::{pinned_queries_with_hog, query_set};
use vitex::baseline::{naive, NaiveConfig};
use vitex::core::{evaluate_reader, EvalOutput, MultiOutput, PlacementSnapshot, ShardedEngine};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

/// Shard counts the randomized properties run at (1 = the session
/// delivers on the calling thread, 4 = a genuinely threaded partition).
const SHARDS: &[usize] = &[1, 4];

/// Shard counts the fixed-seed sweep pins: adds an even split and a count
/// that leaves shards with uneven (or no) group subsets.
const ALL_SHARDS: &[usize] = &[1, 2, 4, 7];

/// One engine configuration's observable output.
struct RunResult {
    out: MultiOutput,
    /// `(query id, node id)` callback sequence in delivery order.
    streamed: Vec<(usize, u64)>,
}

fn engine_with(trees: &[QueryTree], shards: usize) -> ShardedEngine {
    let mut engine = ShardedEngine::new(shards);
    for tree in trees {
        engine.add_tree(tree).expect("registrable");
    }
    engine
}

fn run_config(trees: &[QueryTree], xml: &str, shards: usize) -> RunResult {
    let mut engine = engine_with(trees, shards);
    let mut streamed = Vec::new();
    let out = engine
        .run(XmlReader::from_str(xml), |qid, m| streamed.push((qid.0, m.node)))
        .expect("engine run");
    RunResult { out, streamed }
}

/// The in-engine reference: each query through its own private
/// single-query engine.
fn per_query_reference(trees: &[QueryTree], xml: &str) -> Vec<EvalOutput> {
    trees
        .iter()
        .map(|tree| evaluate_reader(XmlReader::from_str(xml), tree).expect("single-query run"))
        .collect()
}

/// Asserts a multi-query output equals the per-query reference: match
/// payloads (spans, values, levels), machine statistics, stream counters.
fn assert_matches_reference(out: &MultiOutput, reference: &[EvalOutput], label: &str) {
    for (i, single) in reference.iter().enumerate() {
        assert_eq!(out.matches[i], single.matches, "matches of query #{i}: {label}");
        assert_eq!(out.stats[i], single.stats, "machine stats of query #{i}: {label}");
        assert_eq!(
            (out.elements, out.text_nodes, out.events),
            (single.elements, single.text_nodes, single.events),
            "stream stats: {label}"
        );
    }
}

/// The full differential check for one (document, query set) pair,
/// sweeping the given shard counts.
fn check_case(doc_seed: u64, query_seed: u64, shard_counts: &[usize]) {
    let ctx = format!("doc_seed={doc_seed} query_seed={query_seed}");
    let xml = random::to_string(&RandomConfig::seeded(doc_seed));
    let trees = query_set(query_seed);

    // Ground truth per query: the naive embedding enumerator (sorted
    // node-id sets; skipped per query on combinatorial blowup) against
    // the per-query engines everything else is then compared with.
    let reference = per_query_reference(&trees, &xml);
    for (tree, single) in trees.iter().zip(&reference) {
        let eval = naive::NaiveEvaluator::new(tree, NaiveConfig { max_embeddings: 100_000 });
        match eval.run(XmlReader::from_str(&xml)) {
            Ok(nout) => {
                let mut ids: Vec<u64> = single.matches.iter().map(|m| m.node).collect();
                ids.sort_unstable();
                assert_eq!(
                    nout.matches,
                    ids,
                    "{ctx}: naive baseline disagrees on {}",
                    tree.original()
                );
            }
            Err(naive::NaiveError::Blowup { .. }) => {}
            Err(e) => panic!("{ctx}: naive failed on {}: {e}", tree.original()),
        }
    }

    // Every configuration against the reference. Callback order and plan
    // statistics (trie run counters included) are invariant across shard
    // counts: inline visit order and the sharded merge's explicit
    // `(event seq, group id)` keys are independent mechanisms that must
    // agree.
    let mut first: Option<RunResult> = None;
    for &shards in shard_counts {
        let r = run_config(&trees, &xml, shards);
        let label = format!("{ctx}: {shards} shards");
        assert_matches_reference(&r.out, &reference, &label);
        match &first {
            None => first = Some(r),
            Some(first) => {
                assert_eq!(r.streamed, first.streamed, "callback order: {label}");
                assert_eq!(r.out.plan, first.out.plan, "plan stats: {label}");
            }
        }
    }
    let first = first.expect("at least one configuration ran");
    assert!(first.out.plan.groups < trees.len() as u64, "{ctx}: the forced duplicate must dedup");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline randomized sweep: random documents × random query
    /// sets through {inline, 4 shards} (the fixed-seed sweep pins the
    /// full shard-count list).
    #[test]
    fn engines_agree_on_random_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_case(doc_seed, query_seed, SHARDS);
    }

    /// Deeply recursive documents — the regime where shared prefix
    /// stacks pile up and lazy candidate inheritance matters.
    #[test]
    fn engines_agree_on_recursive_documents(depth in 2u64..14, query_seed in 0u64..500) {
        let xml = vitex::xmlgen::recursive::uniform_nesting(depth as usize);
        let trees = query_set(query_seed);
        let reference = per_query_reference(&trees, &xml);
        for &shards in SHARDS {
            let r = run_config(&trees, &xml, shards);
            let label = format!("depth={depth} query_seed={query_seed} {shards} shards");
            assert_matches_reference(&r.out, &reference, &label);
        }
    }
}

/// One warm session over `docs`: every document's output, the callback
/// sequence, and the placement snapshot taken after each document.
fn warm_session(
    engine: &mut ShardedEngine,
    docs: &[String],
) -> (Vec<MultiOutput>, Vec<(usize, u64)>, Vec<PlacementSnapshot>) {
    let mut streamed = Vec::new();
    let (outs, snaps) = engine
        .session(|session| {
            let (mut outs, mut snaps) = (Vec::new(), Vec::new());
            for xml in docs {
                outs.push(session.run_document(XmlReader::from_str(xml), |qid, m| {
                    streamed.push((qid.0, m.node))
                })?);
                snaps.push(session.placement_snapshot());
            }
            Ok((outs, snaps))
        })
        .expect("warm session");
    (outs, streamed, snaps)
}

/// Placement must be output-transparent: a warm session streaming
/// several documents — enough for the placement planner to observe the
/// first document's counters and repartition at a document boundary —
/// must produce byte-identical matches, callback order and statistics at
/// every shard count, the one-shard run (which has nothing to place)
/// being the reference. A planted hog query skews the group costs
/// so the sweep actually exercises an assignment swap, not just the seed
/// plan: three chained descendant wildcards among a random set over
/// random documents, and the E15 set — one descendant hog among 7 cheap
/// pinned subscriptions over an auction document — which at 4 shards
/// must also end with the hog alone on its shard and a lower imbalance.
#[test]
fn placement_axis_is_output_transparent() {
    let random_docs: Vec<String> =
        [11u64, 22, 33].iter().map(|&s| random::to_string(&RandomConfig::seeded(s))).collect();
    let mut random_set = query_set(4242);
    random_set.push(QueryTree::parse("//*//*//*").expect("hog parses"));
    let auction_docs = vec![auction::to_string(&AuctionConfig::sized(16 * 1024)); 3];
    let skewed_set = pinned_queries_with_hog(7);

    for (trees, docs) in [(&random_set, &random_docs), (&skewed_set, &auction_docs)] {
        let mut reference = None;
        let mut repartitioned = false;
        for &shards in ALL_SHARDS {
            let (outs, streamed, snaps) = warm_session(&mut engine_with(trees, shards), docs);
            let label = format!("{shards} shards");
            let repartitions = snaps.last().expect("documents ran").repartitions;
            if shards == 1 {
                assert_eq!(repartitions, 0, "no replanning expected: {label}");
            }
            repartitioned |= repartitions > 0;
            match &reference {
                None => reference = Some((outs, streamed)),
                Some((ref_outs, ref_streamed)) => {
                    assert_eq!(outs.len(), ref_outs.len(), "document count: {label}");
                    for (doc, (out, ref_out)) in outs.iter().zip(ref_outs).enumerate() {
                        assert_eq!(out.matches, ref_out.matches, "matches doc {doc}: {label}");
                        assert_eq!(out.stats, ref_out.stats, "machine stats doc {doc}: {label}");
                        assert_eq!(out.plan, ref_out.plan, "plan stats doc {doc}: {label}");
                    }
                    assert_eq!(&streamed, ref_streamed, "callback order: {label}");
                }
            }
        }
        assert!(repartitioned, "the planted hog must trigger at least one mid-session repartition");
    }

    // The rebalance claim, on the skewed set at 4 shards. Document 1 runs
    // the uniform-prior deal, under which the hog shares a worker with a
    // cheap group; the ledger names the hog's group.
    let mut engine = engine_with(&skewed_set, 4);
    engine.set_profiling(true);
    let (_, _, snaps) = warm_session(&mut engine, &auction_docs);
    let (first, last) = (&snaps[0], &snaps[snaps.len() - 1]);
    assert!(last.repartitions >= 1, "the skewed set must repartition after the first document");
    let ledger = engine.profile_snapshot().expect("profiling enabled");
    let hog_shard = last.shard_of[ledger.queries[7].group.expect("hog is active")];
    assert!(hog_shard.is_some(), "hog group is placed");
    assert_eq!(
        last.shard_of.iter().filter(|s| **s == hog_shard).count(),
        1,
        "the hog must be alone on its shard after the repartition: {last:?}"
    );
    let imbalance = |s: &PlacementSnapshot| s.last_imbalance_millis.expect("documents ran");
    assert!(
        imbalance(last) < imbalance(first),
        "the repartitioned assignment must measure strictly lower imbalance than the \
         uniform-prior deal of document 1: {first:?} then {last:?}"
    );
}

/// A fixed-seed sweep pinned for CI: deterministic regardless of
/// `PROPTEST_CASES`, and the place to append seeds of any future field
/// failures as permanent regression cases.
#[test]
fn fixed_seed_regression_sweep() {
    const SEEDS: &[(u64, u64)] =
        &[(0, 0), (1, 1), (7, 1913), (42, 42), (99, 3), (1234, 567), (2025, 729), (3999, 3999)];
    for &(doc_seed, query_seed) in SEEDS {
        check_case(doc_seed, query_seed, ALL_SHARDS);
    }
}
