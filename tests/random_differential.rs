//! The randomized differential harness: seeded random query *sets* ×
//! seeded random documents through the multi-query engine — one-document
//! runs and warm sessions — asserting identical matches and statistics.
//! Two independent references anchor the sweep: the
//! naive baseline (node-id sets) and k private single-query engines
//! (match payloads + machine statistics under the private-engine contract,
//! `common::assert_private_stats`). Two seeded families point the sweep at
//! the shape groups, which the general generator reaches only rarely:
//! random shapes with one inline `[@id|@k = $]` test, and random shapes
//! with one `[step = $]` leaf, each registered with several literals
//! sampled from the document.
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

use common::{
    assert_private_stats, literal_shared, pinned_queries_with_hog, query_set, run_checking_plan,
};
use vitex::baseline::{naive, Document, NaiveConfig};
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
    label: &str,
) {
    for (i, single) in reference.iter().enumerate() {
        assert_eq!(out.matches[i], single.matches, "matches of query #{i}: {label}");
        let (at, shared) = (format!("query #{i}: {label}"), literal_shared(trees, i));
        assert_private_stats(&out.stats[i], &single.stats, shared, &at);
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

/// [`check_case`] for the attribute family ([`attribute_query_set`]) over
/// an attribute-rich random document. Returns the trees and the run.
fn check_attribute_case(doc_seed: u64, query_seed: u64) -> (Vec<QueryTree>, MultiOutput) {
    let ctx = format!("doc_seed={doc_seed} attribute query_seed={query_seed}");
    let values = ["v0", "v1", "v2"].map(String::from).to_vec();
    let xml = random::to_string(&RandomConfig {
        attr_prob: 0.8,
        values,
        ..RandomConfig::seeded(doc_seed)
    });
    let trees = attribute_query_set(query_seed);
    let out = check_trees(&ctx, &xml, &trees);
    (trees, out)
}

/// Two random shapes over the random tag alphabet, each with one inline
/// `[@id|@k = $]` test — on the main path, under `//`, on a predicate
/// node, on a root that emits at push — each registered with the three
/// values the document's attributes take, one they never take and a
/// duplicate: shape groups of four bindings.
fn attribute_query_set(seed: u64) -> Vec<QueryTree> {
    const SHAPES: &[&str] = &[
        "/{0}/{1}[@{a} = $]/{2}",
        "/{0}[@{a} = $]/{1}/{2}[@k]",
        "//{0}[@{a} = $]//{1}",
        "//{0}[{1}[@{a} = $]]/{2}",
        "//{0}[@{a} = $]/@id",
        "//{0}//{1}[@{a} = $][{2}]/text()",
        "/{0}/*/{1}[@{a} = $]",
        "//{0}[@{a} = $][@k != 'v1']/{1}/@k",
    ];
    let mut next = xorshift(seed);
    let mut queries = Vec::new();
    for _ in 0..2 {
        let mut shape = SHAPES[next(SHAPES.len())].to_string();
        for slot in ["{0}", "{1}", "{2}"] {
            shape = shape.replace(slot, ["a", "b", "c", "d", "e", "*", "*"][next(7)]);
        }
        shape = shape.replace("{a}", ["id", "k"][next(2)]);
        let mut literals = vec!["v0", "v1", "v2", "absent"];
        literals.swap(next(3), 3);
        literals.push(literals[0]);
        queries.extend(literals.iter().map(|l| shape.replace('$', &format!("'{l}'"))));
    }
    queries.iter().map(|q| QueryTree::parse(q).expect("valid query")).collect()
}

/// A seeded draw: `next(n)` is uniform-ish in `0..n`.
fn xorshift(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |n| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    }
}

/// [`check_case`] for the literal family ([`literal_query_set`]) over a
/// bushy random document. Returns the trees and the run.
fn check_literal_case(doc_seed: u64, query_seed: u64) -> (Vec<QueryTree>, MultiOutput) {
    let ctx = format!("doc_seed={doc_seed} literal query_seed={query_seed}");
    // Bushier than the default, so the shapes meet the literals' elements.
    let bushy =
        RandomConfig { max_children: 8, element_prob: 0.8, ..RandomConfig::seeded(doc_seed) };
    let xml = random::to_string(&bushy);
    let trees = literal_query_set(query_seed, &xml);
    let out = check_trees(&ctx, &xml, &trees);
    (trees, out)
}

/// Two random shapes over the random tag alphabet, each with one
/// `[step = literal]` leaf, each registered with three literals drawn from
/// the string-values of the elements that step names in `xml` (so matches
/// happen), one it lacks and a duplicate: shape groups of up to four
/// bindings.
fn literal_query_set(seed: u64, xml: &str) -> Vec<QueryTree> {
    const SHAPES: &[&str] = &[
        "//{0}[{1} = $]",
        "//{0}[{1} = $]//{2}",
        "//{0}[{1}/{2} = $]/{3}",
        "/{0}//{1}[{2} = $]",
        "//{0}//{1}[{2} = $]/@id",
        "//{0}[{1} = $]/text()",
        "//{0}[{1}][{2} = $]",
        "//{0}[{1} = $]/{2}[{3}]",
        "//{0}[@k][{1}//{2} = $]//{3}",
    ];
    let doc = Document::parse_str(xml).expect("generated documents are well-formed");
    let mut next = xorshift(seed);
    let mut queries = Vec::new();
    for _ in 0..2 {
        let mut shape = SHAPES[next(SHAPES.len())].to_string();
        for slot in ["{0}", "{1}", "{2}", "{3}"] {
            shape = shape.replace(slot, ["a", "b", "c", "d", "e", "*"][next(6)]);
        }
        let probe = QueryTree::parse(&shape.replace('$', "''")).expect("valid shape");
        let leaf = probe.node(probe.parametric_node().expect("one `=` leaf"));
        let named = |e: &usize| leaf.name().is_none_or(|n| doc.node(*e).name() == Some(n));
        let mut values: Vec<String> =
            doc.elements().filter(named).map(|e| doc.string_value(e)).collect();
        values.retain(|v| !v.is_empty());
        values.sort_unstable();
        values.dedup();
        if values.is_empty() {
            values.push("v0".to_string()); // no such element holds text
        }
        let mut literals: Vec<&str> = (0..3).map(|_| values[next(values.len())].as_str()).collect();
        literals.extend(["absent", literals[0]]);
        queries.extend(literals.iter().map(|l| shape.replace('$', &format!("'{l}'"))));
    }
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
    assert_matches_reference(&out, &reference, trees, ctx);
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

    /// The same sweep over shapes registered with several inline
    /// attribute literals: the regime of the shape groups' push-time
    /// lookup.
    #[test]
    fn engines_agree_on_gated_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_attribute_case(doc_seed, query_seed);
    }

    /// The same sweep over shapes registered with several literals: the
    /// regime of the shape groups.
    #[test]
    fn engines_agree_on_literal_query_sets(doc_seed in 0u64..4000, query_seed in 0u64..4000) {
        check_literal_case(doc_seed, query_seed);
    }

    /// Deeply recursive documents — the regime where shared prefix
    /// stacks pile up and lazy candidate inheritance matters.
    #[test]
    fn engines_agree_on_recursive_documents(depth in 2u64..14, query_seed in 0u64..500) {
        let xml = vitex::xmlgen::recursive::uniform_nesting(depth as usize);
        let trees = query_set(query_seed);
        let reference = per_query_reference(&trees, &xml);
        let label = format!("depth={depth} query_seed={query_seed}");
        assert_matches_reference(&run(&trees, &xml), &reference, &trees, &label);
    }
}

/// A warm session must treat every document as a fresh engine would: a
/// session streaming several documents back-to-back produces, document
/// by document, the private engines' matches and statistics, and a warm
/// engine streaming them a session each reports, after every document,
/// the plan statistics `plan_stats()` recomputes from scratch. Two sets: a
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
            assert_matches_reference(out, &reference, trees, &format!("document {doc}"));
        }
        assert!(outs.iter().any(|o| o.matches.iter().any(|m| !m.is_empty())), "the sets match");
        let checked = run_checking_plan(&mut engine_with(trees), docs, "warm engine");
        for (out, session_out) in checked.iter().zip(&outs) {
            assert_eq!((&out.matches, &out.stats), (&session_out.matches, &session_out.stats));
            assert_eq!(out.plan, session_out.plan, "one session or one per document");
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
        check_case(doc_seed, query_seed);
    }
}

/// The attribute family's fixed seeds, pinned for CI like the general
/// sweep. Across them the shape groups with several bindings must be
/// reached: subscriptions sharing a machine with other attribute
/// literals, and matching.
#[test]
fn fixed_seed_attribute_literal_sweep() {
    let (mut shared, mut matching) = (0, 0);
    for seed in 0..24u64 {
        let (trees, out) = check_attribute_case(seed, 7 * seed + 1);
        for i in (0..trees.len()).filter(|&i| literal_shared(&trees, i)) {
            shared += 1;
            matching += usize::from(!out.matches[i].is_empty());
        }
    }
    assert!(matching >= 24, "{shared} subscriptions in shape groups, {matching} of them matching");
}

/// The literal family's fixed seeds, pinned for CI like the general sweep.
/// Across them the shape groups must be reached: subscriptions sharing a
/// machine with other literals, and matching.
#[test]
fn fixed_seed_literal_sweep() {
    let (mut shared, mut matching) = (0, 0);
    for seed in 0..24u64 {
        let (trees, out) = check_literal_case(seed, 5 * seed + 3);
        for i in (0..trees.len()).filter(|&i| literal_shared(&trees, i)) {
            shared += 1;
            matching += usize::from(!out.matches[i].is_empty());
        }
    }
    assert!(matching >= 24, "{shared} subscriptions in shape groups, {matching} of them matching");
}
