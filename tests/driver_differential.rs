//! Driver-level differential tests: the single-query engine, the
//! multi-query engine (on one thread and sharded) and the naive baseline
//! must produce **identical node-id sequences** for a battery of queries over
//! generated documents — deep-recursive (the paper's Figure 1 regime) and
//! protein-shaped (the paper's headline dataset). k independent
//! single-query engines are the in-engine reference throughout: a
//! multi-query run must reproduce their matches *and* their per-query
//! machine statistics.
//!
//! This is the correctness gate for the unified [`DocumentDriver`] layer:
//! all engines share one SAX loop, one numbering scheme and one
//! interner-resolution path, so any disagreement here points at the
//! step trie, the dispatch index or the symbol plumbing.

use vitex::baseline::{naive, NaiveConfig};
use vitex::core::telemetry::Telemetry;
use vitex::core::{
    Engine, EngineError, EvalOutput, Match, MultiEngine, MultiOutput, QueryId, ShardedEngine,
};
use vitex::xmlgen::{auction, protein, recursive};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

/// Shard counts the sharded battery runs at: one (the session delivers on
/// the calling thread), even splits, and a count that leaves shards with
/// uneven group subsets.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];

/// Queries with meaningful hits on both document families, mixing names,
/// wildcards, predicates and special results.
const BATTERY: &[&str] = &[
    "//section",
    "//section//cell",
    "//section[author]//table[position]//cell",
    "//table/cell",
    "//*[position]",
    "//ProteinEntry[reference]/@id",
    "//ProteinEntry/protein/name",
    "//refinfo/@refid",
    "//*/*",
    "//author/text()",
];

/// One query through its own single-query engine: the callback sequence
/// (full match payloads) and the engine's output (machine statistics,
/// stream counters).
fn single_run(xml: &str, tree: &QueryTree) -> (Vec<Match>, EvalOutput) {
    let mut engine = Engine::new(tree).expect("buildable");
    let mut order = Vec::new();
    let out = engine.run(XmlReader::from_str(xml), |m| order.push(m)).expect("single run");
    (order, out)
}

/// Emission-order node-id sequence from the single-query engine.
fn single_ids(xml: &str, tree: &QueryTree) -> Vec<u64> {
    single_run(xml, tree).0.iter().map(|m| m.node).collect()
}

/// Asserts a multi-query output equals what private per-query engines
/// produce: match payloads, machine statistics, stream counters.
fn assert_equals_private_engines(out: &MultiOutput, queries: &[&str], xml: &str) {
    for (i, q) in queries.iter().enumerate() {
        let (expected, single) = single_run(xml, &QueryTree::parse(q).unwrap());
        assert_eq!(out.matches[i], expected, "match payloads of #{i} {q}");
        assert_eq!(out.stats[i], single.stats, "machine statistics of #{i} {q}");
        assert_eq!(
            (out.elements, out.text_nodes, out.events),
            (single.elements, single.text_nodes, single.events),
            "stream counters"
        );
    }
}

/// Asserts every engine agrees on every battery query over `xml`.
fn check_document(label: &str, xml: &str) {
    let trees: Vec<QueryTree> =
        BATTERY.iter().map(|q| QueryTree::parse(q).expect("valid query")).collect();

    let mut multi = MultiEngine::new();
    for tree in &trees {
        multi.add_tree(tree).expect("registrable");
    }
    let out = multi.run(XmlReader::from_str(xml), |_, _| {}).expect("multi run");
    for (i, tree) in trees.iter().enumerate() {
        let (expected, single) = single_run(xml, tree);
        let q = BATTERY[i];
        assert_eq!(out.matches[i], expected, "{label}: query {q} diverged");
        assert_eq!(out.stats[i], single.stats, "{label}: {q} machine stats");
    }

    // The naive enumerator agrees on the *set* of ids (it reports sorted).
    for tree in &trees {
        let eval = naive::NaiveEvaluator::new(tree, NaiveConfig { max_embeddings: 500_000 });
        match eval.run(XmlReader::from_str(xml)) {
            Ok(nout) => {
                let mut expected = single_ids(xml, tree);
                expected.sort_unstable();
                assert_eq!(
                    nout.matches,
                    expected,
                    "{label}: naive baseline disagrees on {}",
                    tree.original()
                );
            }
            Err(naive::NaiveError::Blowup { .. }) => {} // expected on nasty inputs
            Err(e) => panic!("{label}: naive failed: {e}"),
        }
    }
}

#[test]
fn battery_on_deep_recursive_documents() {
    for depth in [4usize, 9, 14] {
        let xml = recursive::to_string(&recursive::RecursiveConfig::square(depth));
        check_document(&format!("recursive depth {depth}"), &xml);
    }
}

#[test]
fn battery_on_figure1() {
    check_document("figure1", &recursive::figure1());
}

#[test]
fn battery_on_protein_documents() {
    let xml = protein::to_string(&protein::ProteinConfig {
        target_bytes: 120_000,
        reference_fraction: 0.5,
        ..Default::default()
    });
    check_document("protein 120k", &xml);
}

#[test]
fn mixed_battery_in_one_multi_engine_matches_per_query_engines() {
    // All battery queries at once over a document containing both shapes,
    // with callback delivery order cross-checked against buffered order.
    let mut xml = String::from("<mixed>");
    xml.push_str(&recursive::figure1());
    // figure1 yields a complete document; embed a protein fragment too.
    let protein =
        protein::to_string(&protein::ProteinConfig { target_bytes: 20_000, ..Default::default() });
    let body = protein.trim_start_matches("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    xml.push_str(body);
    xml.push_str("</mixed>");

    let mut multi = MultiEngine::new();
    for q in BATTERY {
        multi.add_query(q).unwrap();
    }
    let mut streamed: Vec<Vec<u64>> = vec![Vec::new(); BATTERY.len()];
    let out = multi
        .run(XmlReader::from_str(&xml), |qid, m| streamed[qid.0].push(m.node))
        .expect("mixed run");
    for (i, q) in BATTERY.iter().enumerate() {
        let buffered: Vec<u64> = out.matches[i].iter().map(|m| m.node).collect();
        assert_eq!(streamed[i], buffered, "callback vs buffer order for {q}");
        let tree = QueryTree::parse(q).unwrap();
        assert_eq!(buffered, single_ids(&xml, &tree), "multi vs single for {q}");
    }
}

/// A query set with literal duplicates, canonical duplicates (predicate
/// order flipped) and heavy prefix overlap — the regime the shared-prefix
/// planner collapses.
const OVERLAP_SET: &[&str] = &[
    "//section//cell",
    "//section//cell", // literal duplicate
    "//section[author]//table[position]//cell",
    "//section[author][position]//cell",
    "//section[position][author]//cell", // canonical duplicate of previous
    "//ProteinEntry/protein/name",
    "//ProteinEntry/protein",
    "//ProteinEntry[reference]/@id",
    "//ProteinEntry[reference]/@id", // literal duplicate
    "//ProteinEntry/reference/refinfo/@refid",
];

/// One document exercising both battery shapes.
fn mixed_doc() -> String {
    let mut xml = String::from("<mixed>");
    xml.push_str(&recursive::figure1());
    let protein =
        protein::to_string(&protein::ProteinConfig { target_bytes: 30_000, ..Default::default() });
    xml.push_str(protein.trim_start_matches("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"));
    xml.push_str("</mixed>");
    xml
}

#[test]
fn shared_plan_agrees_with_per_query_engines_on_overlapping_sets() {
    let xml = mixed_doc();
    let mut multi = MultiEngine::new();
    for q in OVERLAP_SET {
        multi.add_query(q).unwrap();
    }
    assert!(
        multi.group_count() < OVERLAP_SET.len(),
        "the overlap set must actually dedupe (got {} groups)",
        multi.group_count()
    );
    let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).expect("shared run");
    for (i, q) in OVERLAP_SET.iter().enumerate() {
        let tree = QueryTree::parse(q).unwrap();
        let got: Vec<u64> = out.matches[i].iter().map(|m| m.node).collect();
        assert_eq!(got, single_ids(&xml, &tree), "query #{i} {q}");
    }
    assert!(out.plan.prefix_steps_executed > 0, "the trie actually ran");
    assert!(out.plan.prefix_steps_saved > 0, "overlapping set must share steps");
}

#[test]
fn default_engine_executes_the_trie_on_a_region_pinned_set() {
    // The `auction-k1000-pinned` shape in miniature: 24 subscriptions,
    // each pinned to one of six regions by its main path and to one item
    // by an inline attribute test. "The default engine runs the step
    // trie" is asserted here, not assumed: the counters must move, and
    // what comes out must still be what 24 private engines produce.
    const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
    const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];
    let queries: Vec<String> = (0..24)
        .map(|i| {
            let (region, field) = (REGIONS[i % 6], FIELDS[i / 6]);
            format!("/site/regions/{region}/item[@id = 'item{}']/{field}", i + 1)
        })
        .collect();
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    let xml = auction::to_string(&auction::AuctionConfig::sized(24_000));
    let mut multi = MultiEngine::new();
    for q in &queries {
        multi.add_query(q).unwrap();
    }
    let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).expect("run");
    assert_equals_private_engines(&out, &queries, &xml);
    assert!(out.matches.iter().filter(|m| !m.is_empty()).count() >= 6, "the pins do hit");
    assert_eq!(out.plan.groups, 24);
    assert!(out.plan.prefix_steps_executed > 0, "the trie ran");
    assert!(out.plan.prefix_steps_saved > 0, "an <item> check stands for four groups");
}

#[test]
fn shared_plan_reproduces_per_query_engines_bit_for_bit() {
    // Dedup and fan-out must be invisible per query: for a set with
    // duplicates, each subscription's buffered matches and its slice of
    // the streamed callback sequence equal — payloads (spans, values,
    // levels), order and machine statistics — what a private engine
    // running that query alone produces. (Global interleaving across
    // queries is the multi-engine's own: a shared machine fans a
    // solution out to all its subscribers at once.)
    let xml = mixed_doc();
    let mut multi = MultiEngine::new();
    for q in OVERLAP_SET {
        multi.add_query(q).unwrap();
    }
    let mut streamed: Vec<Vec<Match>> = vec![Vec::new(); OVERLAP_SET.len()];
    let out = multi.run(XmlReader::from_str(&xml), |qid, m| streamed[qid.0].push(m)).expect("run");
    assert_equals_private_engines(&out, OVERLAP_SET, &xml);
    assert_eq!(streamed, out.matches, "streamed matches equal the buffered ones");
    assert!(out.plan.groups < OVERLAP_SET.len() as u64, "the overlap set dedups");
    assert!(out.plan.dedup_ratio() > 1.0);
}

#[test]
fn incremental_add_and_remove_matches_fresh_registration() {
    // Register, remove, re-register across runs: the incrementally
    // maintained index must behave exactly like an engine built from
    // scratch with the surviving queries.
    let xml = mixed_doc();
    let mut multi = MultiEngine::new();
    let q_cell = multi.add_query("//section//cell").unwrap();
    let q_cell_dup = multi.add_query("//section//cell").unwrap();
    let q_id = multi.add_query("//ProteinEntry[reference]/@id").unwrap();
    assert_eq!(multi.remove_query(q_cell), Some(false), "duplicate keeps the group");
    assert_eq!(multi.remove_query(q_id), Some(true), "last subscriber retires the group");
    let q_name = multi.add_query("//ProteinEntry/protein/name").unwrap();
    let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).expect("run");

    assert!(out.matches[q_cell.0].is_empty(), "removed query stays silent");
    assert!(out.matches[q_id.0].is_empty(), "retired group stays silent");
    for (q, id) in [("//section//cell", q_cell_dup), ("//ProteinEntry/protein/name", q_name)] {
        let tree = QueryTree::parse(q).unwrap();
        let got: Vec<u64> = out.matches[id.0].iter().map(|m| m.node).collect();
        assert_eq!(got, single_ids(&xml, &tree), "surviving query {q}");
    }
    assert_eq!(out.plan.queries, 2);
    assert_eq!(out.plan.groups, 2);
}

#[test]
fn prefix_sharing_reproduces_per_query_engines_bit_for_bit() {
    // The step trie drives the hottest matching path, so the bar is
    // higher than match equality: per-query match payloads, the
    // per-query *machine statistics* (pushes, pops, flags, candidate
    // accounting, peaks — entry-for-entry identical work) and stream
    // counters must all equal what private per-query engines produce.
    // The global callback interleaving is checked against an independent
    // mechanism: the sharded merge, which orders by explicit
    // `(event seq, group id)` keys instead of by visit order.
    let xml = mixed_doc();
    let queries: Vec<&str> = BATTERY.iter().chain(OVERLAP_SET).copied().collect();
    let run = |shards: usize| {
        let mut engine = ShardedEngine::new(shards);
        for q in &queries {
            engine.add_query(q).unwrap();
        }
        let mut streamed: Vec<(usize, u64)> = Vec::new();
        let out = engine
            .run(XmlReader::from_str(&xml), |qid, m| streamed.push((qid.0, m.node)))
            .expect("run");
        (out, streamed)
    };
    let (inline, inline_streamed) = run(1);
    assert_equals_private_engines(&inline, &queries, &xml);
    for &shards in &SHARD_COUNTS[1..] {
        assert_eq!(run(shards).1, inline_streamed, "callback order at {shards} shards");
    }
    assert!(inline.plan.prefix_steps_executed > 0);
    assert!(inline.plan.prefix_steps_saved > 0, "overlap set shares main-path steps");
    assert!(inline.plan.prefix_forks > 0);
}

#[test]
fn prefix_sharing_churn_splices_and_retires_trie_state() {
    // Interleave add_query/remove_query between documents: retired
    // groups must be spliced out of the trie routes (no orphan runtime
    // state driving a dead machine), recycled slots must be re-routed,
    // and every intermediate subscription set must behave exactly like a
    // freshly built engine.
    let xml = mixed_doc();
    let mut multi = MultiEngine::new();
    let q_cell = multi.add_query("//section//cell").unwrap();
    let q_cell_dup = multi.add_query("//section//cell").unwrap();
    let q_id = multi.add_query("//ProteinEntry[reference]/@id").unwrap();
    let check = |multi: &mut MultiEngine, live: &[(&str, QueryId)]| {
        let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).expect("run");
        for (q, id) in live {
            let tree = QueryTree::parse(q).unwrap();
            let got: Vec<u64> = out.matches[id.0].iter().map(|m| m.node).collect();
            assert_eq!(got, single_ids(&xml, &tree), "churned query {q}");
        }
        out
    };
    check(&mut multi, &[("//section//cell", q_cell), ("//ProteinEntry[reference]/@id", q_id)]);
    assert_eq!(multi.remove_query(q_cell), Some(false), "duplicate keeps the group routed");
    assert_eq!(multi.remove_query(q_id), Some(true), "retirement unroutes the trie path");
    let q_name = multi.add_query("//ProteinEntry/protein/name").unwrap();
    let out = check(
        &mut multi,
        &[("//section//cell", q_cell_dup), ("//ProteinEntry/protein/name", q_name)],
    );
    assert!(out.matches[q_cell.0].is_empty() && out.matches[q_id.0].is_empty());
    assert_eq!(out.plan.recycled_slots, 1, "//ProteinEntry/protein/name recycled the slot");
    // The recycled slot's new trie path must route (and the old one not):
    // a fresh engine over the surviving queries is the ground truth for
    // *all* statistics, prefix runtime counters included.
    let mut fresh = MultiEngine::new();
    let f_cell = fresh.add_query("//section//cell").unwrap();
    let f_name = fresh.add_query("//ProteinEntry/protein/name").unwrap();
    let fresh_out = fresh.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
    assert_eq!(out.matches[q_cell_dup.0], fresh_out.matches[f_cell.0]);
    assert_eq!(out.matches[q_name.0], fresh_out.matches[f_name.0]);
    assert_eq!(
        (out.plan.prefix_steps_executed, out.plan.prefix_forks),
        (fresh_out.plan.prefix_steps_executed, fresh_out.plan.prefix_forks),
        "churned trie must do exactly the work a fresh trie does"
    );
}

#[test]
fn sharded_battery_is_byte_identical_to_single_threaded() {
    // The sharded engine's whole contract: for every shard count the
    // merged output — match payloads (spans/values/levels, not just node
    // ids), per-query machine statistics, plan counters, stream counters
    // AND the streamed callback sequence — equals the single-threaded
    // engine's.
    let xml = mixed_doc();
    let queries: Vec<&str> = BATTERY.iter().chain(OVERLAP_SET).copied().collect();
    let (reference, ref_streamed) = {
        let mut multi = MultiEngine::new();
        for q in &queries {
            multi.add_query(q).unwrap();
        }
        let mut streamed: Vec<(usize, u64)> = Vec::new();
        let out = multi
            .run(XmlReader::from_str(&xml), |q, m| streamed.push((q.0, m.node)))
            .expect("reference run");
        (out, streamed)
    };
    for &shards in SHARD_COUNTS {
        let mut sharded = ShardedEngine::new(shards);
        for q in &queries {
            sharded.add_query(q).unwrap();
        }
        let mut streamed: Vec<(usize, u64)> = Vec::new();
        let out = sharded
            .run(XmlReader::from_str(&xml), |q, m| streamed.push((q.0, m.node)))
            .expect("sharded run");
        let label = format!("{shards} shards");
        assert_eq!(out.matches, reference.matches, "matches: {label}");
        assert_eq!(streamed, ref_streamed, "callback sequence: {label}");
        assert_eq!(out.stats, reference.stats, "machine stats: {label}");
        assert_eq!(out.plan, reference.plan, "plan stats: {label}");
        assert_eq!(
            (out.elements, out.text_nodes, out.events),
            (reference.elements, reference.text_nodes, reference.events),
            "stream stats: {label}"
        );
    }
}

#[test]
fn buffering_is_streaming_plus_a_copy_at_every_shard_count() {
    // `run_document` is `stream_document` behind one collecting adapter:
    // both deliver the same `(query, match)` sequence, the buffered
    // `matches` are that sequence grouped by query, and nothing else in
    // the two outputs differs.
    let xml = mixed_doc();
    let queries: Vec<&str> = BATTERY.iter().chain(OVERLAP_SET).copied().collect();
    for &shards in SHARD_COUNTS {
        let mut sharded = ShardedEngine::new(shards);
        for q in &queries {
            sharded.add_query(q).unwrap();
        }
        let (mut streamed, mut buffered) = (Vec::new(), Vec::new());
        let (stream_out, run_out) = sharded
            .session(|session| {
                let stream_out = session
                    .stream_document(XmlReader::from_str(&xml), |q, m| streamed.push((q, m)))?;
                let run_out = session
                    .run_document(XmlReader::from_str(&xml), |q, m| buffered.push((q, m)))?;
                Ok((stream_out, run_out))
            })
            .expect("both documents stream");
        let label = format!("{shards} shards");
        assert!(streamed.len() > queries.len(), "the battery matches: {label}");
        assert_eq!(streamed, buffered, "delivered sequence: {label}");
        let mut grouped = vec![Vec::new(); queries.len()];
        for (q, m) in streamed {
            grouped[q.0].push(m);
        }
        assert_eq!(run_out.matches, grouped, "buffer = the deliveries, by query: {label}");
        assert!(stream_out.matches.is_empty(), "a streamed document buffers nothing: {label}");
        assert_eq!(stream_out.stats, run_out.stats, "machine stats: {label}");
        assert_eq!(stream_out.plan, run_out.plan, "plan stats: {label}");
        assert_eq!(
            (stream_out.elements, stream_out.text_nodes, stream_out.events),
            (run_out.elements, run_out.text_nodes, run_out.events),
            "stream stats: {label}"
        );
    }
}

#[test]
fn recycled_low_slot_keeps_callback_order_ascending_by_group() {
    // Three queries share the /a trie node and all fire on the <a> start
    // tag itself (attribute results under a predicate-free root stream
    // immediately). Remove the first and register a new one: it recycles
    // group slot 0 *after* slots 1 and 2 were routed through /a. Within
    // that one event the groups must still fire in ascending group-id
    // order — the recycled slot first — inline (visit order, which reads
    // the trie's routes as they are) and through the 2-shard merge (which
    // orders by explicit key).
    let xml = r#"<a w="0" x="1" y="2" z="3"/>"#;
    for shards in [1usize, 2] {
        let mut engine = ShardedEngine::new(shards);
        let q_x = engine.add_query("/a/@x").unwrap();
        let q_y = engine.add_query("/a/@y").unwrap();
        let q_z = engine.add_query("/a/@z").unwrap();
        assert_eq!(engine.remove_query(q_x), Some(true), "slot 0 retires");
        let q_w = engine.add_query("/a/@w").unwrap();
        let mut streamed = Vec::new();
        let out = engine
            .run(XmlReader::from_str(xml), |q, m| streamed.push((q, m.value.unwrap().to_string())))
            .expect("run");
        assert_eq!(out.plan.recycled_slots, 1, "/a/@w took the retired slot");
        assert_eq!(
            streamed,
            [(q_w, "0".to_string()), (q_y, "2".to_string()), (q_z, "3".to_string())],
            "{shards} shard(s): recycled group 0 fires before groups 1 and 2"
        );
    }
}

#[test]
fn truncated_document_delivers_the_same_prefix_and_error_at_every_shard_count() {
    // A document cut off inside a start tag: every match decidable before
    // the cut must be delivered, in the same order, and the error must
    // name the same kind at the same position — whether the session
    // delivered on the calling thread or over rings (where it must flush
    // what it batched ahead of the error and still quiesce its workers).
    let full = recursive::to_string(&recursive::RecursiveConfig {
        towers: 500,
        ..recursive::RecursiveConfig::square(3)
    });
    let cut = full.rfind("<cell").expect("generated document has cells") + 3;
    let xml = &full[..cut];
    const QUERIES: [&str; 3] = ["//cell", "//*[position]", "//section//table"];
    let engine = |shards: usize| {
        let mut engine = ShardedEngine::new(shards);
        for q in QUERIES {
            engine.add_query(q).expect("valid query");
        }
        engine
    };
    let run = |shards: usize| {
        let mut streamed = Vec::new();
        let result =
            engine(shards).run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node)));
        match result {
            Err(EngineError::Xml(e)) => (streamed, e.to_string()),
            other => panic!("{shards} shards: expected an XML error, got {other:?}"),
        }
    };
    let (expected, expected_err) = run(1);
    assert!(expected.len() > 1000, "most of the document matched before the cut");
    assert!(expected_err.contains("unexpected end of input"), "{expected_err}");
    for &shards in &SHARD_COUNTS[1..] {
        let (streamed, err) = run(shards);
        assert_eq!(err, expected_err, "error kind and position: {shards} shards");
        assert_eq!(streamed.len(), expected.len(), "match count: {shards} shards");
        assert_eq!(streamed, expected, "callback sequence: {shards} shards");
    }

    // Recovery: the cut leaves entries on the shared trie stacks, open
    // frames in the executors and open elements in the admission walk.
    // The next document through the *same* engine — and through the same
    // warm 2-shard session — must start from nothing: it gets exactly a
    // fresh engine's output.
    let whole = recursive::to_string(&recursive::RecursiveConfig::square(4));
    let observe = |out: MultiOutput, streamed: Vec<(usize, u64)>| {
        let p = out.plan;
        let trie_run = (p.prefix_steps_executed, p.prefix_steps_saved, p.prefix_forks);
        (out.matches, out.stats, trie_run, p.prefix_stack_bytes, streamed)
    };
    let fresh = {
        let mut streamed = Vec::new();
        let out = engine(1)
            .run(XmlReader::from_str(&whole), |q, m| streamed.push((q.0, m.node)))
            .expect("well-formed");
        observe(out, streamed)
    };
    assert!(!fresh.4.is_empty(), "the second document matches");
    for shards in [1usize, 2] {
        let mut streamed = Vec::new();
        let out = engine(shards)
            .session(|session| {
                let cut_off = session.run_document(XmlReader::from_str(xml), |_, _| {});
                assert!(matches!(cut_off, Err(EngineError::Xml(_))), "{cut_off:?}");
                session
                    .run_document(XmlReader::from_str(&whole), |q, m| streamed.push((q.0, m.node)))
            })
            .expect("the session survives the truncated document");
        assert_eq!(observe(out, streamed), fresh, "{shards} shard(s) after a truncated document");
    }
}

#[test]
fn sharded_sessions_survive_churn_and_back_to_back_documents() {
    // A long-lived pub/sub session: register, stream a document
    // collection through one warm session, churn subscriptions (removals
    // retire groups whose slots the planner recycles), open a new session
    // — at every step the output must equal a single-threaded engine
    // driven identically.
    let docs = [
        mixed_doc(),
        recursive::to_string(&recursive::RecursiveConfig::square(7)),
        protein::to_string(&protein::ProteinConfig { target_bytes: 15_000, ..Default::default() }),
    ];
    for &shards in SHARD_COUNTS {
        let mut reference = MultiEngine::new();
        let mut sharded = ShardedEngine::new(shards);
        for q in OVERLAP_SET {
            reference.add_query(q).unwrap();
            sharded.add_query(q).unwrap();
        }
        // Session 1: the whole collection, back-to-back, no re-planning.
        let outs = sharded
            .session(|session| {
                docs.iter()
                    .map(|xml| session.run_document(XmlReader::from_str(xml), |_, _| {}))
                    .collect::<Result<Vec<_>, _>>()
            })
            .expect("sharded session");
        for (xml, out) in docs.iter().zip(&outs) {
            let ref_out = reference.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
            assert_eq!(out.matches, ref_out.matches, "{shards} shards, session 1");
            assert_eq!(out.stats, ref_out.stats, "{shards} shards, session 1");
            assert_eq!(out.plan, ref_out.plan, "{shards} shards, session 1");
        }
        // Churn: drop a duplicate, retire a group, add a new shape.
        for engine_step in [true, false] {
            let (r1, r2, r3);
            if engine_step {
                r1 = reference.remove_query(QueryId(0));
                r2 = reference.remove_query(QueryId(5));
                r3 = reference.add_query("//listitem/text()").unwrap();
            } else {
                r1 = sharded.remove_query(QueryId(0));
                r2 = sharded.remove_query(QueryId(5));
                r3 = sharded.add_query("//listitem/text()").unwrap();
            }
            assert_eq!(r1, Some(false), "query 0 duplicates query 1");
            assert_eq!(r2, Some(true), "query 5 was its group's only subscriber");
            assert_eq!(r3.0, OVERLAP_SET.len());
        }
        // Session 2: the rebalanced partition over the churned plan.
        let outs = sharded
            .session(|session| {
                docs.iter()
                    .map(|xml| session.run_document(XmlReader::from_str(xml), |_, _| {}))
                    .collect::<Result<Vec<_>, _>>()
            })
            .expect("sharded session after churn");
        for (xml, out) in docs.iter().zip(&outs) {
            let ref_out = reference.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
            assert_eq!(out.matches, ref_out.matches, "{shards} shards, session 2");
            assert_eq!(out.stats, ref_out.stats, "{shards} shards, session 2");
            assert_eq!(out.plan, ref_out.plan, "{shards} shards, session 2");
            assert!(out.plan.recycled_slots > 0, "churn recycled a group slot");
        }
    }
}

#[test]
fn recycled_group_slots_do_not_inherit_stale_placement_costs() {
    // Churn between sessions, aimed at the ledger-seeded placement plan: a
    // hog query is removed, a cheap newcomer recycles its plan-group
    // slot, and the profiling ledger still holds the hog's counters
    // under that gid. Seeding is keyed by the group's canonical text, so
    // the newcomer must start from the uniform prior — the next
    // session's seed plan is plain round-robin, not a partition that
    // isolates a group that was never expensive.
    let mut xml = String::from("<root>");
    for i in 0..300 {
        xml.push_str(&format!("<item id=\"{i}\"><a><b>x{i}</b></a></item>"));
    }
    xml.push_str("</root>");

    let mut engine = ShardedEngine::new(2);
    engine.set_profiling(true);
    let queries = ["//item//b", "/root/zzz", "/root/yyy", "/root/xxx"];
    for q in queries {
        engine.add_query(q).expect("valid query");
    }
    // Session 1: the hog's counters land in the ledger and the session
    // repartitions to isolate it.
    let snap = engine
        .session(|session| {
            for _ in 0..2 {
                session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
            }
            Ok(session.placement_snapshot())
        })
        .expect("profiled session");
    assert!(snap.repartitions >= 1, "the hog triggers a repartition");
    let hog_gid =
        engine.profile_snapshot().expect("profiling on").queries[0].group.expect("hog active");

    // Churn: retire the hog, let a cheap query recycle its slot. The
    // removal retires the hog's group (Some(true) = last subscriber),
    // so the only way `hog_gid` can be active again below is the
    // newcomer recycling it.
    assert_eq!(engine.remove_query(QueryId(0)), Some(true), "hog group retires");
    engine.add_query("/root/www").expect("valid query");

    // Session 2: the seed plan, observed before any document runs. The
    // surviving cheap groups seed from their (tiny, comparable) ledger
    // entries; the recycled slot's stale hog entry (hog canonical ≠
    // newcomer canonical) must be rejected, leaving the newcomer on the
    // uniform prior. LPT then splits the four cheap groups 2 + 2 — had
    // the hog's cost leaked onto the recycled gid, the newcomer would
    // sit alone on one shard with the other three groups packed
    // opposite it.
    let (seed, outs) = engine
        .session(|session| {
            let seed = session.placement_snapshot();
            let outs = (0..2)
                .map(|_| session.run_document(XmlReader::from_str(&xml), |_, _| {}))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((seed, outs))
        })
        .expect("session after churn");
    let active: Vec<usize> =
        (0..seed.shard_of.len()).filter(|&g| seed.shard_of[g].is_some()).collect();
    assert_eq!(active.len(), 4, "four groups remain active after churn");
    assert!(
        seed.shard_of[hog_gid].is_some(),
        "the newcomer recycled the retired hog's group slot {hog_gid}"
    );
    let mut per_shard = vec![0usize; seed.shards];
    for &gid in &active {
        per_shard[seed.shard_of[gid].unwrap()] += 1;
    }
    assert_eq!(
        per_shard,
        vec![2, 2],
        "seed plan splits the four cheap groups evenly — recycled gid {hog_gid} carries no stale cost"
    );
    // And the churned engine still matches a single-threaded reference.
    let mut reference = MultiEngine::new();
    for q in queries {
        reference.add_query(q).unwrap();
    }
    reference.remove_query(QueryId(0));
    reference.add_query("/root/www").unwrap();
    for out in &outs {
        let ref_out = reference.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
        assert_eq!(out.matches, ref_out.matches, "churned session matches the reference");
        assert_eq!(out.stats, ref_out.stats, "churned session stats match the reference");
    }

    // Worker-count re-clamp: churn that leaves fewer active groups than
    // configured shards must shrink the next session's worker set.
    let mut wide = ShardedEngine::new(4);
    for q in queries {
        wide.add_query(q).expect("valid query");
    }
    assert_eq!(wide.remove_query(QueryId(2)), Some(true));
    assert_eq!(wide.remove_query(QueryId(3)), Some(true));
    let snap = wide
        .session(|session| {
            session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
            Ok(session.placement_snapshot())
        })
        .expect("clamped session");
    assert_eq!(snap.shards, 2, "worker count re-clamps to the surviving group count");
}

#[test]
fn a_session_clamped_to_one_worker_ships_nothing() {
    // The lane follows the *effective* worker count, min(shards, active
    // groups): eight configured shards over one group — or none — leave
    // one worker, which would parallelize nothing behind a ring. Such a
    // session delivers on the calling thread: no batch is built, no ring
    // is pushed, and what comes out is what `MultiEngine::run` produces.
    let xml = mixed_doc();
    for queries in [&["//section[author]//table[position]//cell"][..], &[]] {
        let telemetry = Telemetry::enabled();
        let mut engine = ShardedEngine::new(8);
        engine.set_telemetry(telemetry.clone());
        let mut reference = MultiEngine::new();
        for q in queries {
            engine.add_query(q).unwrap();
            reference.add_query(q).unwrap();
        }
        let (mut streamed, mut ref_streamed) = (Vec::new(), Vec::new());
        let (out, placement) = engine
            .session(|session| {
                let out = session
                    .run_document(XmlReader::from_str(&xml), |q, m| streamed.push((q.0, m.node)))?;
                Ok((out, session.placement_snapshot()))
            })
            .expect("clamped session");
        let ref_out = reference
            .run(XmlReader::from_str(&xml), |q, m| ref_streamed.push((q.0, m.node)))
            .expect("reference run");
        let label = format!("{} group(s)", queries.len());
        assert_eq!(streamed.is_empty(), queries.is_empty(), "the query matches: {label}");
        assert_eq!(out.matches, ref_out.matches, "matches: {label}");
        assert_eq!(streamed, ref_streamed, "callback sequence: {label}");
        assert_eq!(out.stats, ref_out.stats, "machine stats: {label}");
        assert_eq!(out.plan, ref_out.plan, "plan stats: {label}");
        assert_eq!(
            (out.elements, out.text_nodes, out.events),
            (ref_out.elements, ref_out.text_nodes, ref_out.events),
            "stream stats: {label}"
        );
        assert_eq!(placement.shards, 1, "{label}");
        let snapshot = telemetry.snapshot().expect("enabled");
        assert_eq!(snapshot.counter("vitex_ring_batches_total"), Some(0), "{label}");
        let batches = snapshot.histograms.iter().find(|h| h.name == "vitex_batch_events");
        assert_eq!(batches.map(|h| h.count), Some(0), "{label}");
    }
}

#[test]
fn placement_snapshot_needs_no_one_worker_caveat() {
    // One body for every session: at one worker every active group sits
    // on shard 0 (a retired slot on none), nothing ever repartitions, and
    // a document that ran measured a perfectly balanced 1000 — whether
    // one shard was configured or the group count clamped four to one.
    let xml = mixed_doc();
    for (shards, retire_first) in [(1usize, true), (4, false)] {
        let mut engine = ShardedEngine::new(shards);
        let expected = if retire_first {
            let retired = engine.add_query("//section//cell").unwrap();
            engine.add_query("//ProteinEntry/protein/name").unwrap();
            engine.add_query("//table/cell").unwrap();
            assert_eq!(engine.remove_query(retired), Some(true));
            vec![None, Some(0), Some(0)]
        } else {
            engine.add_query("//section//cell").unwrap();
            vec![Some(0)]
        };
        let (before, after) = engine
            .session(|session| {
                let before = session.placement_snapshot();
                session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
                session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
                Ok((before, session.placement_snapshot()))
            })
            .expect("one-worker session");
        for snap in [&before, &after] {
            assert_eq!(snap.shards, 1, "{shards} configured shard(s)");
            assert_eq!(snap.shard_of, expected, "{shards} configured shard(s)");
            assert_eq!(snap.repartitions, 0, "{shards} configured shard(s)");
        }
        assert_eq!(before.last_imbalance_millis, None, "no document ran yet");
        assert_eq!(after.last_imbalance_millis, Some(1000), "one worker carries everything");
    }
}

#[test]
fn wildcard_only_query_sees_every_element_through_the_index() {
    // A machine with only wildcard steps has an empty name-dispatch set;
    // the always-on wildcard set must still deliver the full stream.
    let xml = recursive::to_string(&recursive::RecursiveConfig::square(6));
    let tree = QueryTree::parse("//*").unwrap();
    let expected = single_ids(&xml, &tree);
    let mut multi = MultiEngine::new();
    let q = multi.add_tree(&tree).unwrap();
    let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
    let got: Vec<u64> = out.matches[q.0].iter().map(|m| m.node).collect();
    assert_eq!(got, expected);
    assert_eq!(out.matches[q.0].len() as u64, out.elements, "//* matches every element");
}
