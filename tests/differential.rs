//! Differential correctness: TwigM must agree with the DOM oracle — and
//! with the naive enumerator where it does not blow up — on randomized
//! documents × randomized queries.
//!
//! This is the main correctness weapon of the reproduction: the oracle is
//! a small, obviously-correct, random-access evaluator, so set equality on
//! thousands of (document, query) pairs gives high confidence that the
//! reconstructed TwigM transition rules implement the paper's semantics.

use proptest::prelude::*;

use vitex::baseline::{naive, oracle, Document, NaiveConfig};
use vitex::core::evaluate_reader;
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlsax::XmlReader;
use vitex::xpath::generate::{GenConfig, QueryGenerator};
use vitex::xpath::QueryTree;

/// Runs every evaluator on one (document, query) pair and asserts set
/// equality of result-node ids.
fn check_pair(xml: &str, tree: &QueryTree) {
    let query = tree.original();
    // Oracle (gold standard).
    let doc = Document::parse_str(xml).expect("generated XML is well-formed");
    let expected: Vec<u64> = oracle::evaluate(&doc, tree).into_iter().map(|m| m.node).collect();

    // TwigM.
    let out = evaluate_reader(XmlReader::from_str(xml), tree).expect("twigm run");
    let mut got: Vec<u64> = out.matches.iter().map(|m| m.node).collect();
    got.sort_unstable();
    assert_eq!(
        got, expected,
        "compact TwigM disagrees with oracle\nquery: {query}\ndoc: {xml}\ntree:\n{tree}"
    );
    // Exactly-once emission: sorted ids must already be unique.
    let mut dedup = got.clone();
    dedup.dedup();
    assert_eq!(got, dedup, "duplicate emission\nquery: {query}\ndoc: {xml}");

    // Naive enumerator — same semantics when it doesn't blow up.
    let naive_eval = naive::NaiveEvaluator::new(tree, NaiveConfig { max_embeddings: 200_000 });
    match naive_eval.run(XmlReader::from_str(xml)) {
        Ok(nout) => {
            assert_eq!(
                nout.matches, expected,
                "naive enumerator disagrees\nquery: {query}\ndoc: {xml}"
            );
        }
        Err(naive::NaiveError::Blowup { .. }) => {} // expected on nasty inputs
        Err(e) => panic!("naive failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The headline differential test: random documents × random queries.
    #[test]
    fn twigm_matches_oracle_on_random_inputs(doc_seed in 0u64..5000, query_seed in 0u64..5000) {
        let xml = random::to_string(&RandomConfig::seeded(doc_seed));
        let mut qgen = QueryGenerator::new(query_seed, GenConfig::default());
        let query = qgen.query();
        let tree = QueryTree::build(&query).expect("generated queries are valid");
        check_pair(&xml, &tree);
    }

    /// Deep chain queries over deeply recursive documents — the regime
    /// where the compact encoding's lazy inheritance actually matters.
    #[test]
    fn deep_chains_on_recursive_documents(depth in 1usize..24, steps in 1usize..6, query_seed in 0u64..100) {
        let xml = vitex::xmlgen::recursive::uniform_nesting(depth);
        let mut qgen = QueryGenerator::new(query_seed, GenConfig {
            min_steps: steps,
            max_steps: steps,
            tags: vec!["a".into()],
            predicate_prob: 0.2,
            wildcard_prob: 0.2,
            special_result_prob: 0.0,
            ..GenConfig::default()
        });
        let query = qgen.query();
        let tree = QueryTree::build(&query).expect("valid query");
        check_pair(&xml, &tree);
    }

    /// Wide, attribute-rich documents with attribute/text-result queries.
    #[test]
    fn special_results_on_random_documents(doc_seed in 0u64..2000, query_seed in 0u64..2000) {
        let xml = random::to_string(&RandomConfig {
            attr_prob: 0.6,
            element_prob: 0.55,
            ..RandomConfig::seeded(doc_seed)
        });
        let mut qgen = QueryGenerator::new(query_seed, GenConfig {
            special_result_prob: 1.0,
            attr_condition_prob: 0.5,
            ..GenConfig::default()
        });
        let query = qgen.query();
        let tree = QueryTree::build(&query).expect("valid query");
        check_pair(&xml, &tree);
    }
}

/// A fixed corpus of tricky shapes, kept out of proptest so failures are
/// immediately reproducible by name.
#[test]
fn differential_corpus() {
    let docs = [
        "<a/>",
        "<a>t</a>",
        "<a><a><a><a>x</a></a></a></a>",
        "<a><b/><a><b/><a><b/></a></a></a>",
        "<a id=\"v0\"><a id=\"v1\"><a id=\"v0\"/></a></a>",
        "<a><b><c/></b><b><c><b><c/></b></c></b></a>",
        "<a>1<b>2</b>3<b>4</b>5</a>",
        "<a><b k=\"7\">x</b><b k=\"42\">y</b><b>z</b></a>",
        "<book><section><section><section><table><table><table><cell>A</cell>\
         </table></table><position>B</position></table></section></section>\
         <author>C</author></section></book>",
        "<a><p/><b><a><b><q/><c/></b></a><q/></b></a>",
    ];
    let queries = [
        "//a",
        "/a",
        "/a/a",
        "//a//a",
        "//a//a//a",
        "//a/b",
        "//a[b]",
        "//a[b]//a",
        "//a[@id = 'v0']",
        "//a/@id",
        "//a/text()",
        "//a[text() = '1']",
        "//b[c]",
        "//b[c[b]]",
        "//a//b[k > 10]",
        "//a/b[@k]/text()",
        "//*",
        "//*[b]/*",
        "//section[author]//table[position]//cell",
        "//a[p]/b[q]//c",
        "//@id",
        "//a[b and @id]",
    ];
    for xml in &docs {
        for query in &queries {
            let tree = QueryTree::parse(query).unwrap();
            check_pair(xml, &tree);
        }
    }
}

/// The protein workload end-to-end: TwigM vs oracle on a mid-size document
/// with the paper's Q2.
#[test]
fn protein_differential() {
    let xml = vitex::xmlgen::protein::to_string(&vitex::xmlgen::protein::ProteinConfig {
        target_bytes: 200_000,
        reference_fraction: 0.6,
        ..Default::default()
    });
    for query in [
        "//ProteinEntry[reference]/@id",
        "//ProteinEntry[reference/refinfo/authors/author]/@id",
        "//ProteinEntry[summary/length > 100]/header/uid",
        "//refinfo/@refid",
        "//ProteinEntry/protein/name",
    ] {
        let tree = QueryTree::parse(query).unwrap();
        check_pair(&xml, &tree);
    }
}

/// The auction workload with deeper, branchier queries.
#[test]
fn auction_differential() {
    let xml = vitex::xmlgen::auction::to_string(&vitex::xmlgen::auction::AuctionConfig {
        target_bytes: 120_000,
        ..Default::default()
    });
    for query in [
        "//item[payment = 'Creditcard']/@id",
        "//regions//item/description//listitem",
        "//person[profile/interest]/name",
        "//person[profile/@income > 100000]/@id",
        "//site/people/person/emailaddress/text()",
    ] {
        let tree = QueryTree::parse(query).unwrap();
        check_pair(&xml, &tree);
    }
}
