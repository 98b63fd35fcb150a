//! The randomized differential harness: seeded random query *sets* ×
//! seeded random documents through the multi-query engine — one-document
//! runs and warm sessions — asserting identical matches and statistics.
//! Two independent references anchor the sweep: the
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
use vitex::core::{evaluate_reader, EvalOutput, MultiEngine, MultiOutput};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

fn engine_with(trees: &[QueryTree]) -> MultiEngine {
    let mut engine = MultiEngine::new();
    for tree in trees {
        engine.add_tree(tree).expect("registrable");
    }
    engine
}

fn run(trees: &[QueryTree], xml: &str) -> MultiOutput {
    engine_with(trees).run(XmlReader::from_str(xml), |_, _| {}).expect("engine run")
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

/// The full differential check for one (document, query set) pair.
fn check_case(doc_seed: u64, query_seed: u64) {
    let ctx = format!("doc_seed={doc_seed} query_seed={query_seed}");
    let xml = random::to_string(&RandomConfig::seeded(doc_seed));
    check_trees(&ctx, &xml, &query_set(query_seed));
}

/// [`check_case`] for the gated family: an anchored, attribute-keyed
/// query set ([`gated_query_set`]) over an attribute-rich random
/// document. Returns the trees and the run.
fn check_gated_case(doc_seed: u64, query_seed: u64) -> (Vec<QueryTree>, MultiOutput) {
    let ctx = format!("doc_seed={doc_seed} gated query_seed={query_seed}");
    let values = ["v0", "v1", "v2"].map(String::from).to_vec();
    let xml = random::to_string(&RandomConfig {
        attr_prob: 0.8,
        values,
        ..RandomConfig::seeded(doc_seed)
    });
    let trees = gated_query_set(query_seed);
    let out = check_trees(&ctx, &xml, &trees);
    (trees, out)
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

/// The differential check of `trees` over `xml`; returns the run.
fn check_trees(ctx: &str, xml: &str, trees: &[QueryTree]) -> MultiOutput {
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

    let out = run(trees, xml);
    assert_matches_reference(&out, &reference, trees, xml, ctx);
    assert!(out.plan.groups < trees.len() as u64, "{ctx}: the forced duplicate must dedup");
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline randomized sweep: random documents × random query
    /// sets.
    #[test]
    fn engines_agree_on_random_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_case(doc_seed, query_seed);
    }

    /// The same sweep over anchored, attribute-keyed sets: the regime of
    /// the value gates.
    #[test]
    fn engines_agree_on_gated_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_gated_case(doc_seed, query_seed);
    }

    /// Deeply recursive documents — the regime where shared prefix
    /// stacks pile up and lazy candidate inheritance matters.
    #[test]
    fn engines_agree_on_recursive_documents(depth in 2u64..14, query_seed in 0u64..500) {
        let xml = vitex::xmlgen::recursive::uniform_nesting(depth as usize);
        let trees = query_set(query_seed);
        let reference = per_query_reference(&trees, &xml);
        let label = format!("depth={depth} query_seed={query_seed}");
        assert_matches_reference(&run(&trees, &xml), &reference, &trees, &xml, &label);
    }
}

/// A warm session must treat every document as a fresh engine would: a
/// session streaming several documents back-to-back produces, document
/// by document, the private engines' matches and statistics. Two sets: a
/// random one with a planted hog (three chained descendant wildcards)
/// over random documents, and one descendant hog among 7 cheap pinned
/// subscriptions over auction documents.
#[test]
fn a_warm_session_agrees_with_private_engines_on_every_document() {
    let random_docs: Vec<String> =
        [11u64, 22, 33].iter().map(|&s| random::to_string(&RandomConfig::seeded(s))).collect();
    let mut random_set = query_set(4242);
    random_set.push(QueryTree::parse("//*//*//*").expect("hog parses"));
    let auction_docs: Vec<String> = [16, 24, 16]
        .iter()
        .map(|&kib| auction::to_string(&AuctionConfig::sized(kib * 1024)))
        .collect();
    let skewed_set = pinned_queries_with_hog(7);

    for (trees, docs) in [(&random_set, &random_docs), (&skewed_set, &auction_docs)] {
        let outs = engine_with(trees)
            .session(|session| {
                docs.iter()
                    .map(|xml| session.run_document(XmlReader::from_str(xml), |_, _| {}))
                    .collect::<Result<Vec<_>, _>>()
            })
            .expect("warm session");
        for (doc, (xml, out)) in docs.iter().zip(&outs).enumerate() {
            let reference = per_query_reference(trees, xml);
            assert_matches_reference(out, &reference, trees, xml, &format!("document {doc}"));
        }
        assert!(outs.iter().any(|o| o.matches.iter().any(|m| !m.is_empty())), "the sets match");
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
        check_case(doc_seed, query_seed);
    }
}

/// The gated family's fixed seeds, pinned for CI like the general sweep.
/// Across them the gates must be reached: gated queries that match, and
/// gated pushes below what the private engines push.
#[test]
fn fixed_seed_gated_sweep() {
    let (mut gated_queries, mut matching) = (0, 0);
    for seed in 0..24u64 {
        let (trees, out) = check_gated_case(seed, 7 * seed + 1);
        for (_, hits) in trees.iter().zip(&out.matches).filter(|(t, _)| gated(t)) {
            gated_queries += 1;
            matching += usize::from(!hits.is_empty());
        }
    }
    assert!(matching >= 8, "{gated_queries} gated queries, {matching} of them matching");
}
