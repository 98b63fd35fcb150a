//! Differential harness for the parallel parse front-end: the chunked
//! [`ParallelReader`] must deliver an event stream *identical* to the
//! sequential [`XmlReader`] — events, levels, spans, line/column — over
//! generated documents, at chunk sizes from pathological (1 byte: every
//! boundary is a seam) to realistic (4096), and the end-to-end engine
//! output driven by either front-end must match too.
//!
//! The hand-picked seam constructs live in
//! `crates/xmlsax/tests/par_tests.rs`; this harness explores document
//! *shapes* combinatorially via the seeded xmlgen generators.

use proptest::prelude::*;

use vitex::core::{EngineError, ShardedEngine};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlgen::{auction, protein, recursive};
use vitex::xmlsax::{ParallelConfig, ParallelReader, XmlReader};
use vitex::xpath::QueryTree;

/// The sweep grid of the issue: boundary-everywhere, prime-misaligned,
/// small-power-of-two, realistic.
const CHUNK_SIZES: &[usize] = &[1, 7, 64, 4096];

/// Asserts chunked == sequential for `xml` at every chunk size × 2/4
/// threads, including terminal errors (compared by display string).
fn assert_parse_identical(xml: &str, label: &str) {
    let expected = XmlReader::from_str(xml).collect_events();
    for &chunk in CHUNK_SIZES {
        for threads in [2usize, 4] {
            let cfg =
                ParallelConfig { threads, chunk_bytes: Some(chunk), ..ParallelConfig::default() };
            let got = ParallelReader::with_config(xml.as_bytes().to_vec(), cfg).collect_events();
            match (&expected, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{label}: stream diverged at chunk={chunk} threads={threads}")
                }
                (Err(a), Err(b)) => assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "{label}: error diverged at chunk={chunk} threads={threads}"
                ),
                _ => panic!(
                    "{label}: outcome diverged at chunk={chunk} threads={threads}: \
                     sequential ok={}, chunked ok={}",
                    expected.is_ok(),
                    got.is_ok()
                ),
            }
        }
    }
}

/// Runs a query set through the sharded engine fed by each front-end and
/// asserts identical matches, delivery order and stream statistics.
fn assert_engine_identical(xml: &str, queries: &[&str], label: &str) {
    let trees: Vec<QueryTree> =
        queries.iter().map(|q| QueryTree::parse(q).expect("valid query")).collect();
    let run = |par: Option<usize>| {
        let mut engine = ShardedEngine::new(1);
        for tree in &trees {
            engine.add_tree(tree).expect("compiles");
        }
        let mut streamed = Vec::new();
        let out = match par {
            None => engine.run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node))),
            Some(threads) => {
                let cfg =
                    ParallelConfig { threads, chunk_bytes: Some(64), ..ParallelConfig::default() };
                let reader = ParallelReader::with_config(xml.as_bytes().to_vec(), cfg);
                engine.run(reader, |q, m| streamed.push((q.0, m.node)))
            }
        }
        .expect("generated documents are well-formed");
        (streamed, out.events, out.elements, out.text_nodes)
    };
    let seq = run(None);
    for threads in [2usize, 4] {
        let par = run(Some(threads));
        assert_eq!(seq, par, "{label}: engine output diverged at {threads} parse threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random document shapes: chunked == sequential event streams.
    #[test]
    fn chunked_stream_matches_sequential_on_random_docs(seed in 0u64..5000) {
        let xml = random::to_string(&RandomConfig::seeded(seed));
        assert_parse_identical(&xml, &format!("random seed={seed}"));
    }

    /// End-to-end: engine matches + stats are front-end independent.
    #[test]
    fn engine_output_is_front_end_independent(seed in 0u64..5000) {
        let xml = random::to_string(&RandomConfig::seeded(seed));
        assert_engine_identical(
            &xml,
            &["//a//b", "//c[@id]", "//d[e]/@k", "//b/text()"],
            &format!("random seed={seed}"),
        );
    }
}

#[test]
fn chunked_stream_matches_sequential_on_auction_doc() {
    let xml = auction::to_string(&auction::AuctionConfig::sized(48 * 1024));
    assert_parse_identical(&xml, "auction");
    assert_engine_identical(
        &xml,
        &["//item/@id", "//regions//item/description//listitem"],
        "auction",
    );
}

#[test]
fn chunked_stream_matches_sequential_on_protein_doc() {
    let xml = protein::to_string(&protein::ProteinConfig::sized(48 * 1024));
    assert_parse_identical(&xml, "protein");
    assert_engine_identical(&xml, &["//ProteinEntry[reference]/@id"], "protein");
}

#[test]
fn chunked_stream_matches_sequential_on_recursive_doc() {
    let xml = recursive::to_string(&recursive::RecursiveConfig::square(7));
    assert_parse_identical(&xml, "recursive");
    assert_engine_identical(&xml, &["//section[author]//table[position]//cell"], "recursive");
}

#[test]
fn truncated_document_delivers_the_same_prefix_and_error_on_every_front_end() {
    // A document cut off inside a start tag: every match decidable before
    // the cut must be delivered, in the same order, and the error must
    // name the same kind at the same position — whether the bytes came
    // through the sequential reader, the pipelined chunked reader, or the
    // overlapped front-end (whose batched event pull must not drop the
    // valid events collected ahead of the error).
    let full = recursive::to_string(&recursive::RecursiveConfig {
        towers: 500,
        ..recursive::RecursiveConfig::square(3)
    });
    let cut = full.rfind("<cell").expect("generated document has cells") + 3;
    let xml = &full[..cut];
    let queries = ["//cell", "//*[position]", "//section//table"];
    let cfg =
        |threads| ParallelConfig { threads, chunk_bytes: Some(4096), ..ParallelConfig::default() };
    let run = |shards: usize, front: &str| {
        let mut engine = ShardedEngine::new(shards);
        for q in queries {
            engine.add_query(q).expect("valid query");
        }
        let mut streamed = Vec::new();
        let on_match =
            |q: vitex::core::QueryId, m: vitex::core::Match| streamed.push((q.0, m.node));
        let bytes = xml.as_bytes().to_vec();
        let err = match front {
            "sequential" => engine.run(XmlReader::from_str(xml), on_match).err(),
            "pipelined" => engine.run(ParallelReader::with_config(bytes, cfg(2)), on_match).err(),
            _ => engine.run_overlapped(bytes, cfg(2), on_match).err(),
        };
        match err {
            Some(EngineError::Xml(e)) => (streamed, e.to_string()),
            other => panic!("{front}/{shards} shards: expected an XML error, got {other:?}"),
        }
    };
    let (expected, expected_err) = run(1, "sequential");
    assert!(expected.len() > 1000, "most of the document matched before the cut");
    for shards in [1usize, 2] {
        for front in ["sequential", "pipelined", "overlapped"] {
            let (streamed, err) = run(shards, front);
            assert_eq!(err, expected_err, "{front}/{shards} shards: error kind and position");
            assert_eq!(streamed.len(), expected.len(), "{front}/{shards} shards: match count");
            assert_eq!(streamed, expected, "{front}/{shards} shards: callback sequence");
        }
    }
}
