//! The randomized differential harness: seeded random query *sets* ×
//! seeded random documents, run through every engine configuration the
//! system has — the shard counts — asserting identical matches, callback
//! order and statistics. Two independent references anchor the sweep: the
//! naive baseline (node-id sets) and k private single-query engines
//! (match payloads + machine statistics under the private-engine contract,
//! `common::assert_private_stats`). A second, seeded family of anchored
//! paths with `[@id|@k = 'v0'..'v2']` tests points the sweep at the value
//! gates, which the general generator reaches only rarely.
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

use common::{assert_private_stats, gated, pinned_queries_with_hog, query_set, QUERIES_PER_SET};
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
/// payloads (spans, values, levels) and stream counters, and machine
/// statistics under the private-engine contract.
fn assert_matches_reference(
    out: &MultiOutput,
    reference: &[EvalOutput],
    trees: &[QueryTree],
    xml: &str,
    label: &str,
) {
    for (i, single) in reference.iter().enumerate() {
        assert_eq!(out.matches[i], single.matches, "matches of query #{i}: {label}");
        let at = format!("query #{i}: {label}");
        assert_private_stats(&out.stats[i], &single.stats, &trees[i], xml, &at);
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
    check_trees(&ctx, &xml, &query_set(query_seed), shard_counts);
}

/// [`check_case`] for the gated family: an anchored, attribute-keyed
/// query set ([`gated_query_set`]) over an attribute-rich random
/// document. Returns the trees and the one-shard run.
fn check_gated_case(
    doc_seed: u64,
    query_seed: u64,
    shard_counts: &[usize],
) -> (Vec<QueryTree>, RunResult) {
    let ctx = format!("doc_seed={doc_seed} gated query_seed={query_seed}");
    let values = ["v0", "v1", "v2"].map(String::from).to_vec();
    let xml = random::to_string(&RandomConfig {
        attr_prob: 0.8,
        values,
        ..RandomConfig::seeded(doc_seed)
    });
    let trees = gated_query_set(query_seed);
    let first = check_trees(&ctx, &xml, &trees, shard_counts);
    (trees, first)
}

/// Anchored paths over the random tag alphabet: one to four child steps,
/// each a wildcard with probability 1/2 (so paths meet the document) and
/// testing `[@id|@k = 'v0'..'v2']` with probability 1/3, sometimes ending
/// in `/@id`, plus a forced duplicate of the first query.
fn gated_query_set(seed: u64) -> Vec<QueryTree> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as usize
    };
    let mut queries: Vec<String> = (0..QUERIES_PER_SET - 1)
        .map(|_| {
            let mut q = String::new();
            for _ in 0..1 + next(4) {
                let tag = ["a", "b", "c", "d", "e", "*", "*", "*", "*", "*"][next(10)];
                q.push('/');
                q.push_str(tag);
                if next(3) == 0 {
                    q.push_str(&format!("[@{} = 'v{}']", ["id", "k"][next(2)], next(3)));
                }
            }
            if next(4) == 0 {
                q.push_str("/@id");
            }
            q
        })
        .collect();
    queries.push(queries[0].clone());
    queries.iter().map(|q| QueryTree::parse(q).expect("valid query")).collect()
}

/// The differential check of `trees` over `xml`, sweeping the given
/// shard counts; returns the first configuration's run.
fn check_trees(ctx: &str, xml: &str, trees: &[QueryTree], shard_counts: &[usize]) -> RunResult {
    // Ground truth per query: the naive embedding enumerator (sorted
    // node-id sets; skipped per query on combinatorial blowup) against
    // the per-query engines everything else is then compared with.
    let reference = per_query_reference(trees, xml);
    for (tree, single) in trees.iter().zip(&reference) {
        let eval = naive::NaiveEvaluator::new(tree, NaiveConfig { max_embeddings: 100_000 });
        match eval.run(XmlReader::from_str(xml)) {
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
        let r = run_config(trees, xml, shards);
        let label = format!("{ctx}: {shards} shards");
        assert_matches_reference(&r.out, &reference, trees, xml, &label);
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
    first
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

    /// The same sweep over anchored, attribute-keyed sets: the regime of
    /// the value gates.
    #[test]
    fn engines_agree_on_gated_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_gated_case(doc_seed, query_seed, SHARDS);
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
            assert_matches_reference(&r.out, &reference, &trees, &xml, &label);
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
/// several documents must produce byte-identical matches, callback order
/// and statistics at every shard count, the one-shard run (which has
/// nothing to place) being the reference — and keep its placement for
/// the whole session. Two sets: a random one with a planted hog (three
/// chained descendant wildcards) over random documents, and the E15 set —
/// one descendant hog among 7 cheap pinned subscriptions — over auction
/// documents.
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
        for &shards in ALL_SHARDS {
            let (outs, streamed, snaps) = warm_session(&mut engine_with(trees, shards), docs);
            let label = format!("{shards} shards");
            assert!(
                snaps.iter().all(|s| s.shard_of == snaps[0].shard_of),
                "placement is fixed for the session: {label}"
            );
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
    }
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

/// The gated family's fixed seeds, pinned for CI like the general sweep.
/// Across them the gates must be reached: gated queries that match, and
/// gated pushes below what the private engines push.
#[test]
fn fixed_seed_gated_sweep() {
    let (mut gated_queries, mut matching) = (0, 0);
    for seed in 0..24u64 {
        let (trees, first) = check_gated_case(seed, 7 * seed + 1, ALL_SHARDS);
        for (_, hits) in trees.iter().zip(&first.out.matches).filter(|(t, _)| gated(t)) {
            gated_queries += 1;
            matching += usize::from(!hits.is_empty());
        }
    }
    assert!(matching >= 8, "{gated_queries} gated queries, {matching} of them matching");
}
