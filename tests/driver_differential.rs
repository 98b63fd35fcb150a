//! Driver-level differential tests: the single-query engine, the
//! multi-query engine (one-document runs and warm engines) and the naive
//! baseline must produce **identical node-id sequences** for a battery of queries over
//! generated documents — deep-recursive (the paper's Figure 1 regime) and
//! protein-shaped (the paper's headline dataset). A multi-query run must
//! reproduce k one-query engines' matches *and* — the private-engine
//! contract, `common::assert_private_stats` — their per-query machine
//! statistics, except where a shape group shares a machine among
//! literals, which keeps the work counters and each subscription's own
//! deliveries. The shape-group batteries at the end pin the binding
//! tables themselves, for pop-time element literals and for inline
//! attribute literals.
//!
//! A one-query [`Engine`] is a one-query [`MultiEngine`], so the engines
//! share one path into the machines, and the references that stand
//! outside it are the machine's own push rule (`TwigM::push_point`, checked
//! against every trie decision in debug builds), the DOM oracle and the
//! naive enumerator. Every engine also shares one SAX loop, one numbering
//! scheme and one interner-resolution path (the [`DocumentDriver`]), so a
//! disagreement here points at the step trie (which decides every push,
//! predicate steps included), the executor's fan-out or the symbol
//! plumbing.

#[allow(dead_code)] // this battery does not generate query sets
mod common;

use common::{assert_plan_is_fresh, assert_private_stats, literal_shared, run_checking_plan};
use vitex::baseline::{naive, oracle, Document, NaiveConfig};
use vitex::core::{
    Engine, EngineError, EvalOutput, Match, MultiEngine, MultiOutput, PlanStats, QueryId,
};
use vitex::xmlgen::{auction, protein, recursive};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

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
    let out = engine.run(XmlReader::from_str(xml), |m| order.push(m.clone())).expect("single run");
    (order, out)
}

/// Emission-order node-id sequence from the single-query engine.
fn single_ids(xml: &str, tree: &QueryTree) -> Vec<u64> {
    single_run(xml, tree).0.iter().map(|m| m.node).collect()
}

/// Asserts a multi-query output equals what private per-query engines
/// produce: match payloads and stream counters, and machine statistics
/// under the private-engine contract (`common::assert_private_stats`).
fn assert_equals_private_engines(out: &MultiOutput, queries: &[&str], xml: &str) {
    let trees: Vec<QueryTree> = queries.iter().map(|q| QueryTree::parse(q).unwrap()).collect();
    for (i, (q, tree)) in queries.iter().zip(&trees).enumerate() {
        let (expected, single) = single_run(xml, tree);
        assert_eq!(out.matches[i], expected, "match payloads of #{i} {q}");
        let shared = literal_shared(&trees, i);
        assert_private_stats(&out.stats[i], &single.stats, shared, &format!("#{i} {q}"));
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
    assert_eq!(out.plan.groups, 24, "each pin its own path");
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
    let out = multi
        .run(XmlReader::from_str(&xml), |qid, m| streamed[qid.0].push(m.clone()))
        .expect("run");
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
    assert_plan_is_fresh(&multi, &out, "added, removed, added");

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
    let xml = mixed_doc();
    let queries: Vec<&str> = BATTERY.iter().chain(OVERLAP_SET).copied().collect();
    let mut engine = MultiEngine::new();
    for q in &queries {
        engine.add_query(q).unwrap();
    }
    let inline = engine.run(XmlReader::from_str(&xml), |_, _| {}).expect("run");
    assert_equals_private_engines(&inline, &queries, &xml);
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
        assert_plan_is_fresh(multi, &out, &format!("{} live queries", live.len()));
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
fn buffering_is_streaming_plus_a_copy() {
    // `run` is `stream_document` behind one collecting adapter: the
    // streamed subscriber slices, flattened, are `run`'s `(query, match)`
    // sequence, the buffered `matches` are that sequence grouped by
    // query, the buffered `stats` are what `query_stats` reads after the
    // streamed document, and nothing else in the two outputs differs.
    let xml = mixed_doc();
    let queries: Vec<&str> = BATTERY.iter().chain(OVERLAP_SET).copied().collect();
    let mut engine = MultiEngine::new();
    for q in &queries {
        engine.add_query(q).unwrap();
    }
    let (mut streamed, mut buffered) = (Vec::new(), Vec::new());
    let stream_out = engine
        .stream_document(XmlReader::from_str(&xml), |qs, m| {
            streamed.extend(qs.iter().map(|&q| (q, Match::from(*m))))
        })
        .expect("the document streams");
    let stream_stats: Vec<_> = (0..queries.len()).map(|i| engine.query_stats(QueryId(i))).collect();
    let run_out = engine
        .run(XmlReader::from_str(&xml), |q, m| buffered.push((q, m.clone())))
        .expect("the document runs");
    assert!(streamed.len() > queries.len(), "the battery matches");
    assert_eq!(streamed, buffered, "delivered sequence");
    let mut grouped = vec![Vec::new(); queries.len()];
    for (q, m) in streamed {
        grouped[q.0].push(m);
    }
    assert_eq!(run_out.matches, grouped, "buffer = the deliveries, by query");
    assert!(stream_out.matches.is_empty(), "a streamed document buffers nothing");
    assert!(stream_out.stats.is_empty(), "nor one record per registration");
    assert_eq!(stream_stats, run_out.stats, "machine stats");
    assert_eq!(stream_out.plan, run_out.plan, "plan stats");
    assert_eq!(
        (stream_out.elements, stream_out.text_nodes, stream_out.events),
        (run_out.elements, run_out.text_nodes, run_out.events),
        "stream stats"
    );
}

#[test]
fn recycled_low_slot_keeps_callback_order_ascending_by_group() {
    // Three queries share the /a trie node and all fire on the <a> start
    // tag itself (attribute results under a predicate-free root stream
    // immediately). Remove the first and register a new one: it recycles
    // group slot 0 *after* slots 1 and 2 were routed through /a. Within
    // that one event the groups must still fire in ascending group-id
    // order — the recycled slot first — although the trie's routes took
    // it last.
    let xml = r#"<a w="0" x="1" y="2" z="3"/>"#;
    let mut engine = MultiEngine::new();
    let q_x = engine.add_query("/a/@x").unwrap();
    let q_y = engine.add_query("/a/@y").unwrap();
    let q_z = engine.add_query("/a/@z").unwrap();
    assert_eq!(engine.remove_query(q_x), Some(true), "slot 0 retires");
    let q_w = engine.add_query("/a/@w").unwrap();
    let mut streamed = Vec::new();
    let out = engine
        .run(XmlReader::from_str(xml), |q, m| {
            streamed.push((q, m.value.as_deref().unwrap().to_owned()))
        })
        .expect("run");
    assert_eq!(out.plan.recycled_slots, 1, "/a/@w took the retired slot");
    assert_plan_is_fresh(&engine, &out, "slot 0 recycled");
    assert_eq!(
        streamed,
        [(q_w, "0".to_string()), (q_y, "2".to_string()), (q_z, "3".to_string())],
        "recycled group 0 fires before groups 1 and 2"
    );
}

#[test]
fn truncated_document_delivers_its_prefix_then_the_engine_starts_fresh() {
    // A document cut off inside a start tag: every match decidable before
    // the cut must be delivered — each query's in the order its private
    // `Engine` delivers them — and the error must name the same kind at
    // the same position.
    let full = recursive::to_string(&recursive::RecursiveConfig {
        towers: 500,
        ..recursive::RecursiveConfig::square(3)
    });
    let cut = full.rfind("<cell").expect("generated document has cells") + 3;
    let xml = &full[..cut];
    const QUERIES: [&str; 3] = ["//cell", "//*[position]", "//section//table"];
    let engine = || {
        let mut engine = MultiEngine::new();
        for q in QUERIES {
            engine.add_query(q).expect("valid query");
        }
        engine
    };
    let mut streamed = vec![Vec::new(); QUERIES.len()];
    let result = engine().run(XmlReader::from_str(xml), |q, m| streamed[q.0].push(m.node));
    let Err(EngineError::Xml(err)) = result else { panic!("expected an XML error") };
    let err = err.to_string();
    assert!(err.contains("unexpected end of input"), "{err}");
    assert!(streamed.iter().map(Vec::len).sum::<usize>() > 1000, "most of the document matched");
    for (q, streamed) in QUERIES.iter().zip(&streamed) {
        let mut private = Engine::new(&QueryTree::parse(q).unwrap()).expect("buildable");
        let mut expected = Vec::new();
        let result = private.run(XmlReader::from_str(xml), |m| expected.push(m.node));
        let Err(EngineError::Xml(private_err)) = result else { panic!("{q}: expected an error") };
        assert_eq!(private_err.to_string(), err, "error kind and position: {q}");
        assert_eq!(streamed, &expected, "delivered prefix: {q}");
    }

    // Recovery: the cut leaves entries on the machines' stacks and open
    // frames in the executor.
    // The next document through the *same* engine — a run after the
    // failed run, and the next document of a warm engine — must start
    // from nothing: it gets exactly a fresh engine's output.
    let whole = recursive::to_string(&recursive::RecursiveConfig::square(4));
    let observe = |out: MultiOutput, streamed: Vec<(usize, u64)>| {
        let p = out.plan;
        let trie_run = (p.prefix_steps_executed, p.prefix_steps_saved, p.prefix_forks);
        (out.matches, out.stats, trie_run, streamed)
    };
    let run_whole = |engine: &mut MultiEngine| {
        let mut streamed = Vec::new();
        let out = engine
            .run(XmlReader::from_str(&whole), |q, m| streamed.push((q.0, m.node)))
            .expect("well-formed");
        observe(out, streamed)
    };
    let fresh = run_whole(&mut engine());
    assert!(!fresh.3.is_empty(), "the second document matches");
    let mut reused = engine();
    assert!(reused.run(XmlReader::from_str(xml), |_, _| {}).is_err());
    assert_eq!(run_whole(&mut reused), fresh, "a run after a truncated run");
    let mut streamed = Vec::new();
    let mut warm = engine();
    let cut_off = warm.run(XmlReader::from_str(xml), |_, _| {});
    assert!(matches!(cut_off, Err(EngineError::Xml(_))), "{cut_off:?}");
    let out = warm
        .run(XmlReader::from_str(&whole), |q, m| streamed.push((q.0, m.node)))
        .expect("the engine survives the truncated document");
    assert_eq!(observe(out, streamed), fresh, "a warm engine after a truncated document");
}

#[test]
fn the_lazy_reset_leaves_no_stale_state() {
    // A document resets only the machines the previous one pushed. A
    // truncated document pushes groups A and B; A retires and a newcomer
    // recycles its slot; the next document pushes C alone. Every statistic
    // of that document — buffered and read per query — must be a fresh
    // engine's over the live queries, and B's must read zero although B
    // was left mid-document.
    const A: &str = "//a[b]/@id";
    const B: &str = "//p/text()";
    const C: &str = "//c";
    const NEWCOMER: &str = "//d[e]";
    let cut = r#"<r><a id="1"><b/></a><p>t</p><a id="2"><b/><p>u"#;
    let xml = "<r><c/><c><x/></c><q/></r>";
    let mut engine = MultiEngine::new();
    let [a, b, c] = [A, B, C].map(|q| engine.add_query(q).unwrap());
    let cut_off = engine.stream_document(XmlReader::from_str(cut), |_, _| {});
    assert!(matches!(cut_off, Err(EngineError::Xml(_))), "{cut_off:?}");
    let pushes = [a, b, c].map(|q| engine.query_stats(q).pushes);
    assert!(pushes[0] > 0 && pushes[1] > 0 && pushes[2] == 0, "A and B pushed: {pushes:?}");
    assert_eq!(engine.remove_query(a), Some(true), "A retires");
    let d = engine.add_query(NEWCOMER).unwrap();
    let out = engine.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
    let read: Vec<_> = (0..4).map(|i| engine.query_stats(QueryId(i))).collect();
    assert_eq!(out.plan.recycled_slots, 1, "the newcomer took A's slot");
    assert_plan_is_fresh(&engine, &out, "after the lazy reset");
    assert_eq!(read, out.stats, "query_stats reads what the adapter buffers");

    let mut fresh = MultiEngine::new();
    let text = |q: QueryId| engine.query_text(q).expect("a registered id");
    let live = [b, c, d].map(|q| (q, fresh.add_query(text(q)).unwrap()));
    let expected = fresh.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
    for (q, f) in live {
        assert_eq!(out.stats[q.0], expected.stats[f.0], "{}", text(q));
        assert_eq!(out.matches[q.0], expected.matches[f.0], "{}", text(q));
    }
    assert_eq!(out.stats[a.0], Default::default(), "A was removed");
    assert_eq!(out.stats[b.0], Default::default(), "B's machine was reset");
    assert_eq!(out.matches[c.0].len(), 2, "C matched");
    let work = |p: &vitex::core::PlanStats| (p.prefix_steps_executed, p.prefix_forks);
    assert_eq!(work(&out.plan), work(&expected.plan), "trie work");
}

#[test]
fn plan_statistics_describe_the_plan_not_the_documents_that_ran() {
    // Every `PlanStats` field but the three `prefix_*` run counters follows
    // registrations alone: a deep document (machine stacks outgrow their
    // first capacity), a truncated one and a well-formed one leave it
    // where it stood before the first document, and where a fresh engine
    // with the same registrations has it.
    const QUERIES: &[&str] = &[
        "//section//cell",
        "//*[position]",
        "//item[payment = 'Cash']/@id",
        "//item[payment = 'Creditcard']/@id",
    ];
    let shape = |p: PlanStats| PlanStats {
        prefix_steps_executed: 0,
        prefix_steps_saved: 0,
        prefix_forks: 0,
        ..p
    };
    let engine_with = |queries: &[&str]| {
        let mut engine = MultiEngine::new();
        for q in queries {
            engine.add_query(q).unwrap();
        }
        engine
    };
    let mut engine = engine_with(QUERIES);
    let before = shape(engine.plan_stats());
    assert_eq!((before.queries, before.groups), (4, 3), "the two literals share one group");
    let deep = format!(
        r#"<r>{}<payment>Cash</payment><cell/><position/>{}</r>"#,
        r#"<section><item id="i">"#.repeat(70),
        "</item></section>".repeat(70)
    );
    let cut = r#"<r><section><item id="j"><payment>Ca"#;
    let whole = r#"<r><section><cell/><position/></section><item id="k"><payment>Creditcard</payment></item></r>"#;
    for (label, xml) in [("deep", deep.as_str()), ("truncated", cut), ("well-formed", whole)] {
        match engine.stream_document(XmlReader::from_str(xml), |_, _| {}) {
            Ok(out) => assert_eq!(shape(out.plan), before, "{label}: the document's statistics"),
            Err(e) => assert_eq!(label, "truncated", "{e}"),
        }
        assert_eq!(shape(engine.plan_stats()), before, "{label}: plan_stats()");
    }
    assert_eq!(before, shape(engine_with(QUERIES).plan_stats()), "a fresh engine's");

    engine.add_query("//table/cell").unwrap();
    let grown = engine.stream_document(XmlReader::from_str(whole), |_, _| {}).unwrap().plan;
    assert_eq!(grown.groups, before.groups + 1, "add_query adds a group");
    assert!(grown.plan_bytes > before.plan_bytes, "add_query adds plan bytes");
    assert_eq!(shape(grown), shape(engine.plan_stats()), "the cache follows registration");
}

#[test]
fn sessions_survive_churn_and_back_to_back_documents() {
    // A long-lived pub/sub engine: register, stream a document
    // collection back-to-back, churn subscriptions (removals retire
    // groups whose slots the planner recycles), stream it again — at
    // every step the output must equal a one-document run of an engine
    // driven identically.
    let docs = [
        mixed_doc(),
        recursive::to_string(&recursive::RecursiveConfig::square(7)),
        protein::to_string(&protein::ProteinConfig { target_bytes: 15_000, ..Default::default() }),
    ];
    let mut reference = MultiEngine::new();
    let mut engine = MultiEngine::new();
    for q in OVERLAP_SET {
        reference.add_query(q).unwrap();
        engine.add_query(q).unwrap();
    }
    let check = |engine: &mut MultiEngine, reference: &mut MultiEngine, label: &str| {
        let outs = docs
            .iter()
            .map(|xml| engine.run(XmlReader::from_str(xml), |_, _| {}))
            .collect::<Result<Vec<_>, _>>()
            .expect("the collection runs");
        // The warm engine's documents report the plan the reference, driven
        // alike one document at a time, recomputes from scratch after each.
        for (xml, out) in docs.iter().zip(&outs) {
            let ref_out = reference.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
            assert_plan_is_fresh(reference, &ref_out, label);
            assert_eq!(out.matches, ref_out.matches, "{label}");
            assert_eq!(out.stats, ref_out.stats, "{label}");
            assert_eq!(out.plan, ref_out.plan, "{label}");
        }
        assert_plan_is_fresh(engine, outs.last().expect("documents"), label);
        outs
    };
    // The whole collection, back-to-back, no re-planning.
    check(&mut engine, &mut reference, "before churn");
    // Churn: drop a duplicate, retire a group, add a new shape.
    for e in [&mut reference, &mut engine] {
        assert_eq!(e.remove_query(QueryId(0)), Some(false), "query 0 duplicates query 1");
        assert_eq!(e.remove_query(QueryId(5)), Some(true), "query 5 was its group's only one");
        assert_eq!(e.add_query("//listitem/text()").unwrap().0, OVERLAP_SET.len());
    }
    // Again over the churned plan.
    let outs = check(&mut engine, &mut reference, "after churn");
    assert!(outs.iter().all(|o| o.plan.recycled_slots > 0), "churn recycled a group slot");
}

#[test]
fn churned_sessions_match_the_reference() {
    // Churn between documents of a warm engine: a hog query is removed,
    // a cheap newcomer recycles its plan-group slot, and the next
    // documents run the recycled slot like any other — output equal to an
    // engine churned alike and run one document at a time.
    let mut xml = String::from("<feed>");
    for i in 0..300 {
        xml.push_str(&format!("<item id=\"{i}\"><a><b>x{i}</b></a></item>"));
    }
    xml.push_str("</feed>");

    let mut engine = MultiEngine::new();
    let queries = ["//item//b", "/feed/zzz", "/feed/yyy", "/feed/xxx"];
    for q in queries {
        engine.add_query(q).expect("valid query");
    }
    for _ in 0..2 {
        let out = engine.run(XmlReader::from_str(&xml), |_, _| {}).expect("warm run");
        assert_eq!(out.plan.recycled_slots, 0, "nothing retired yet");
    }

    // Churn: retire the hog, let a cheap query recycle its slot. The
    // removal retires the hog's group (Some(true) = last subscriber), so
    // the hog's is the one free slot the newcomer can recycle.
    assert_eq!(engine.remove_query(QueryId(0)), Some(true), "hog group retires");
    assert_eq!(engine.group_count(), 3);
    engine.add_query("/feed/www").expect("valid query");

    let outs = run_checking_plan(&mut engine, &[&xml, &xml], "after churn");
    for out in &outs {
        assert_eq!(out.plan.recycled_slots, 1, "the newcomer recycled the retired hog's slot");
    }
    assert_eq!(engine.group_count(), 4, "four group slots, the hog's recycled");
    // And the churned engine still matches a reference churned alike.
    let mut reference = MultiEngine::new();
    for q in queries {
        reference.add_query(q).unwrap();
    }
    reference.remove_query(QueryId(0));
    reference.add_query("/feed/www").unwrap();
    for out in &outs {
        let ref_out = reference.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
        assert_eq!(out.matches, ref_out.matches, "churned session matches the reference");
        assert_eq!(out.stats, ref_out.stats, "churned session stats match the reference");
    }
}

#[test]
fn wildcard_only_query_sees_every_element_through_the_index() {
    // A machine with only wildcard steps has an empty name-dispatch set;
    // its wildcard trie steps must still deliver the full stream.
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

// --------------------------------------------------------------------- //
// Shape groups: subscriptions that differ only in a string literal share
// one machine (`plan/group.rs`, `machine.rs` "Bindings")
// --------------------------------------------------------------------- //

/// Runs `queries` through one engine over `xml`: each query's matches
/// equal the oracle's (node ids) and a private `Engine`'s (payloads), and
/// its statistics keep the private-engine contract.
fn check_queries(label: &str, queries: &[&str], xml: &str) -> MultiOutput {
    let trees: Vec<QueryTree> = queries.iter().map(|q| QueryTree::parse(q).unwrap()).collect();
    let doc = Document::parse_str(xml).expect("well-formed case");
    let mut engine = MultiEngine::new();
    for tree in &trees {
        engine.add_tree(tree).expect("registrable");
    }
    let out = engine.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
    for (i, tree) in trees.iter().enumerate() {
        let q = format!("{label}: {}", queries[i]);
        let mut expected: Vec<u64> =
            oracle::evaluate(&doc, tree).into_iter().map(|m| m.node).collect();
        let mut got: Vec<u64> = out.matches[i].iter().map(|m| m.node).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "oracle: {q}");
        let (private, single) = single_run(xml, tree);
        assert_eq!(out.matches[i], private, "match payloads: {q}");
        let shared = literal_shared(&trees, i);
        assert_private_stats(&out.stats[i], &single.stats, shared, &q);
    }
    out
}

/// One shape-group case: [`check_queries`], and the plan runs one group
/// per shape.
fn check_shape_groups<Q: AsRef<str>>(label: &str, queries: &[Q], xml: &str) -> MultiOutput {
    let queries: Vec<&str> = queries.iter().map(AsRef::as_ref).collect();
    let out = check_queries(label, &queries, xml);
    let mut shapes: Vec<String> =
        queries.iter().map(|q| QueryTree::parse(q).unwrap().shape_key().0).collect();
    shapes.sort_unstable();
    shapes.dedup();
    assert_eq!(out.plan.groups, shapes.len() as u64, "{label}: one group per shape");
    out
}

/// `shape` (`$` stands for the literal) with each of `literals`.
fn instances(shape: &str, literals: &[&str]) -> Vec<String> {
    literals.iter().map(|l| shape.replace('$', &format!("'{l}'"))).collect()
}

/// The distinct string-values of the `name` elements of `xml`, in
/// document order.
fn values_of(xml: &str, name: &str) -> Vec<String> {
    let doc = Document::parse_str(xml).expect("well-formed");
    let mut values: Vec<String> = Vec::new();
    for e in doc.elements().filter(|&e| doc.node(e).name() == Some(name)) {
        let value = doc.string_value(e);
        if !values.contains(&value) {
            values.push(value);
        }
    }
    values
}

#[test]
fn shape_groups_run_one_machine_per_shape_for_real_and_absent_literals() {
    // The `auction-k1000-distinct` shapes, with literals the document
    // holds (so matches happen), literals it does not, and duplicates:
    // four machines for 40 subscriptions, each delivered what a private
    // engine delivers.
    let xml = auction::to_string(&auction::AuctionConfig::sized(24_000));
    let (payments, emails, names) =
        (values_of(&xml, "payment"), values_of(&xml, "emailaddress"), values_of(&xml, "name"));
    assert_eq!(payments.len(), 2, "{payments:?}");
    // Person names come after the item names.
    let people: Vec<String> = names.iter().rev().step_by(2).take(4).cloned().collect();
    let (mut queries, mut real) = (Vec::new(), Vec::new());
    for (shape, found) in [
        ("/site/regions//item[payment = $]/@id", &payments[..]),
        ("//item[quantity][payment = $]/name", &payments[..]),
        ("//person[emailaddress = $]/name", &emails[..4]),
        ("/site/people/person[name = $]/@id", &people[..]),
    ] {
        let mut literals: Vec<&str> = found.iter().map(String::as_str).collect();
        literals.extend(["absent", "", found[0].as_str()]);
        for literal in literals {
            queries.extend(instances(shape, &[literal]));
            real.push(found.iter().any(|f| f == literal));
        }
    }
    let out = check_shape_groups("auction shapes", &queries, &xml);
    let hits: Vec<bool> = out.matches.iter().map(|m| !m.is_empty()).collect();
    assert_eq!(hits, real, "exactly the literals the document holds match");
    assert_eq!(out.plan.dedup_ratio(), queries.len() as f64 / 4.0);
}

#[test]
fn shape_groups_on_hand_made_documents() {
    // An owner with two children satisfying different literals, and a
    // literal no child has.
    let two = "<site><regions><africa>\
        <item id=\"i1\"><name>n1</name><payment>x</payment><payment>y</payment><quantity>1</quantity></item>\
        <item id=\"i2\"><name>n2</name><payment>y</payment></item>\
        <item id=\"i3\"><name>n3</name><payment>x</payment><quantity>2</quantity></item>\
        </africa></regions></site>";
    let mut queries = instances("//item[payment = $]/name", &["x", "y", "z"]);
    queries.extend(instances("//item[quantity][payment = $]/name", &["y", "x"]));
    queries.extend(instances("/site/regions//item[payment = $]/@id", &["x", "y", "x"]));
    let out = check_shape_groups("two payments", &queries, two);
    let hits: Vec<usize> = out.matches.iter().map(Vec::len).collect();
    assert_eq!(hits, [2, 2, 0, 1, 2, 2, 2, 2]);

    // Nested owners under `//`: each literal's subscribers get `b` once,
    // through whichever `a` holds for them; and the same with the owner
    // below the root, where a solution goes up for some literals and
    // waits below for the others.
    let nested = "<r><a><p>y</p><a><p>x</p><b/></a><b/></a>\
        <a><p>x</p><a><p>x</p><b/></a></a><a><p>w</p><a><p>y</p><b/></a></a></r>";
    let queries = instances("//a[p = $]//b", &["x", "y", "w", "v"]);
    let out = check_shape_groups("nested owners", &queries, nested);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 3, 1, 0]);
    let below = "<s><r><a><p>x</p><r><a><p>y</p><b/></a><z/></r><b/></a><z/></r>\
        <r><a><p>y</p><r><a><p>y</p><b/></a></r></a><z/></r></s>";
    let queries = instances("//r[z]/a[p = $]//b", &["x", "y", "q"]);
    let out = check_shape_groups("owner below the root", &queries, below);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 0]);

    // Literals whose text carries entity references.
    let entities =
        "<r><a><p>a&amp;b</p><c/></a><a><p>a&lt;b</p><c/></a><a><p>a&amp;amp;b</p><c/></a></r>";
    let queries = instances("//a[p = $]/c", &["a&b", "a<b", "a&amp;b", "a"]);
    let out = check_shape_groups("entities", &queries, entities);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1, 0]);
}

#[test]
fn an_element_leaf_keeps_its_binding_and_the_attribute_literal_its_key() {
    // The `payment` literal is a binding; the inline `@id` literal, with an
    // element leaf beside it, stays in the shape. Three groups: one per
    // `@id`.
    let xml = auction::to_string(&auction::AuctionConfig::sized(24_000));
    let mut queries = Vec::new();
    for id in ["item3", "item5", "item100"] {
        let shape = format!("/site/regions/africa/item[@id = '{id}'][payment = $]/name");
        queries.extend(instances(&shape, &["Cash", "Creditcard", "Cheque"]));
    }
    let leaf = |q: &String| {
        let tree = QueryTree::parse(q).unwrap();
        tree.node(tree.parametric_node().expect("a parametric leaf")).kind.is_element()
    };
    assert!(queries.iter().all(leaf), "the element leaf is the parametric one");
    let out = check_shape_groups("element leaf and attribute literal", &queries, &xml);
    assert_eq!(out.plan.groups, 3);
    let hits = out.matches.iter().filter(|m| !m.is_empty()).count();
    assert_eq!(hits, 2, "items 3 and 5 are in africa, each with one payment");
}

// Inline attribute literals: a query whose one `= 'string'` test is an
// inline `[@name = 'string']` binds it like an element leaf, looked up
// when the tested element is pushed.

#[test]
fn attribute_literals_bind_in_shape_groups() {
    // Nested tests: a query testing two attributes keeps both literals in
    // its key, one testing one binds it, on the path's first or last test.
    let nested = r#"<r><a id="v1"><b k="v2"><c/></b><b k="v0"><c/></b><b><c/></b></a>
        <a id="v0"><b k="v2"><c/></b></a><a><b k="v2"><c/></b></a></r>"#;
    let out = check_shape_groups(
        "nested tests",
        &[
            "/r/a[@id = 'v1']/b[@k = 'v2']/c",
            "/r/a[@id = 'v1']/b/c",
            "/r/a/b[@k = 'v2']/c",
            "/r/a/b/c",
            "/r/a[@id = 'v0']/b[@k = 'v2']/c",
            "/r/a[@id = 'v0']/b/c",
            "/r/a/b[@k = 'v0']/c",
        ],
        nested,
    );
    let hits: Vec<usize> = out.matches.iter().map(Vec::len).collect();
    assert_eq!(hits, [1, 3, 3, 5, 1, 1, 1]);
    assert_eq!(out.plan.groups, 5, "`/r/a[@id]/b/c` and `/r/a/b[@k]/c` bind two literals each");

    let shared = r#"<r><a id="v1"><b/><c/></a><a id="v2"><b/><c/></a><a><b/></a></r>"#;
    let out = check_shape_groups(
        "keyed and unkeyed tests on one node, one literal twice",
        &[
            "/r/a[@id = 'v1']/b",
            "/r/a[@id = 'v1']/c",
            "/r/a/b",
            "/r/a[b]/c",
            "/r/a[@id = 'v2'][b]/@id",
            "/r/a[@id='v1']/b",
            "/r/a[@id = 'v2']/b",
        ],
        shared,
    );
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 3, 2, 1, 1, 1]);
    assert_eq!(out.plan.groups, 5, "the spaced-out duplicate joins its binding");

    let per_literal = r#"<r><a id="5.0" k="v1"><b/></a><a id="7"><b/></a></r>"#;
    let queries =
        ["/r/a[@* = 'v1']/b", "/r/a[@id = 5]/b", "/r/a[@id != 'v1']/b", "/r/a[@id > 6]/b"];
    assert!(queries.iter().all(|q| QueryTree::parse(q).unwrap().parametric_node().is_none()));
    let out =
        check_shape_groups("@*, numeric, != and > keep their literals", &queries, per_literal);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 2, 1]);

    let tail = r#"<r><item id="x"><d><keyword/><keyword><keyword/></keyword></d></item>
        <item id="y"><keyword/></item></r>"#;
    let out = check_shape_groups(
        "a // tail below the test",
        &["/r/item[@id = 'x']//keyword", "/r/item[@id = 'y']//keyword", "/r/item//keyword"],
        tail,
    );
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [3, 1, 4]);

    // Under `//item` the outer item's entry carries the match through an
    // inner item that fails the test.
    let nested_items = r#"<r><item id="a"><item id="b"><name/></item></item>
        <item id="b"><item id="a"><name/></item></item></r>"#;
    let out = check_shape_groups(
        "nested items under //",
        &["//item[@id = 'a']//name", "/r/item[@id = 'a']//name"],
        nested_items,
    );
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1]);

    let entities = r#"<r><a id="a&amp;b"><b/></a><a id="a&amp;amp;b"><b/></a></r>"#;
    let out = check_shape_groups(
        "entity-encoded values",
        &["/r/a[@id = 'a&b']/b", "/r/a[@id = 'a&amp;b']/b", "/r/a[@id = 'a']/b"],
        entities,
    );
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 0]);
}

#[test]
fn attribute_literals_bind_where_no_trie_step_could_route_them() {
    // Each shape runs as one machine binding every literal.
    // Under `//`: an inner item that names another literal.
    let nested_items = r#"<r><item id="a"><item id="b"><name/></item></item>
        <item id="b"><item id="a"><name/></item><name/></item><item id="c"><name/></item></r>"#;
    let queries = instances("//item[@id = $]//name", &["a", "b", "z"]);
    let out = check_shape_groups("nested owners under //", &queries, nested_items);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 3, 0]);

    // A test on a predicate node: the owner is the `person` above it.
    let people = r#"<site><person><name>p0</name><profile income="1"/><profile income="2"/></person>
        <person><profile income="2"/><name>p1</name></person><person><name>p2</name></person>
        <person><name>p3</name><profile income="3"><x/></profile></person></site>"#;
    let queries = instances("//person[profile[@income = $]]/name", &["1", "2", "3", "4"]);
    let out = check_shape_groups("a test on a predicate node", &queries, people);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [1, 2, 1, 0]);

    // A root owner early-emits at push, to its own binding only.
    let items = r#"<r><item id="a"/><item id="b"><item id="a"/></item><item/></r>"#;
    let queries = instances("//item[@id = $]/@id", &["a", "b", "c"]);
    let mut streamed = Vec::new();
    let mut engine = MultiEngine::new();
    for q in &queries {
        engine.add_query(q).unwrap();
    }
    engine.run(XmlReader::from_str(items), |q, m| streamed.push((q.0, m.node))).unwrap();
    assert_eq!(streamed, [(0, 2), (1, 4), (0, 6)], "at each start tag, in document order");
    let out = check_shape_groups("a root owner", &queries, items);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 1, 0]);
}

#[test]
fn attribute_literals_follow_churn_between_sessions_of_one_engine() {
    // A warm engine churned between documents — a literal retiring from its
    // shape, a group retiring and its slot recycled, a literal coming
    // back — must at every step do what an engine freshly built over its
    // live queries does, and that one keeps the shape-group checks.
    let docs = [
        r#"<r><a id="v1"><b/><c/></a><a id="v2"><b/><c/></a><a><b/></a></r>"#,
        r#"<r><a id="v2"><b/></a><a id="v1"><c/><b/></a><a id="v3"><c/></a></r>"#,
    ];
    const Q: [&str; 5] = [
        "/r/a[@id = 'v1']/b",
        "/r/a/b",
        "/r/a[@id = 'v2']/c",
        "/r/a[@id = 'v2']/b",
        "/r/a[@id = 'v3']/c",
    ];
    let mut engine = MultiEngine::new();
    let mut live: Vec<(QueryId, &str)> = Vec::new();
    for q in &Q[..4] {
        live.push((engine.add_query(q).unwrap(), q));
    }
    let check = |engine: &mut MultiEngine, live: &[(QueryId, &str)], step: &str| {
        let outs = run_checking_plan(engine, &docs, step);
        let queries: Vec<&str> = live.iter().map(|&(_, q)| q).collect();
        for (xml, out) in docs.iter().zip(&outs) {
            let expected = check_shape_groups(step, &queries, xml);
            for (j, (id, q)) in live.iter().enumerate() {
                assert_eq!(out.matches[id.0], expected.matches[j], "{q}: {step}");
                assert_eq!(out.stats[id.0], expected.stats[j], "{q}: {step}");
            }
            let work =
                |p: &vitex::core::PlanStats| (p.groups, p.prefix_steps_executed, p.prefix_forks);
            assert_eq!(work(&out.plan), work(&expected.plan), "groups and trie work: {step}");
        }
        outs
    };
    check(&mut engine, &live, "registered");
    assert_eq!(engine.group_count(), 3, "`v1` and `v2` share `/r/a[@id]/b`");
    assert_eq!(engine.remove_query(live[3].0), Some(false), "`v2` leaves `/r/a[@id]/b`");
    assert_eq!(engine.remove_query(live[2].0), Some(true), "`/r/a[@id]/c` retires");
    live.truncate(2);
    check(&mut engine, &live, "literal retired");
    for q in [Q[4], Q[3]] {
        live.push((engine.add_query(q).unwrap(), q));
    }
    let outs = check(&mut engine, &live, "slot recycled, literal back");
    assert!(outs[0].plan.recycled_slots > 0, "{} took the retired slot", Q[4]);
}

#[test]
fn one_solution_reaches_bindings_in_registration_order() {
    // Bindings in first-registration order, each binding's subscribers in
    // registration order: `y` was bound first.
    let mut engine = MultiEngine::new();
    let ids: Vec<QueryId> = ["y", "x", "y", "x", "z"]
        .iter()
        .map(|l| engine.add_query(&format!("//a[p = '{l}']/c")).unwrap())
        .collect();
    assert_eq!(engine.group_count(), 1);
    let mut streamed = Vec::new();
    let xml = "<r><a><p>x</p><p>y</p><c/></a><a><p>z</p><c/></a></r>";
    engine.run(XmlReader::from_str(xml), |q, m| streamed.push((q, m.node))).unwrap();
    let at = |i: usize, node| (ids[i], node);
    assert_eq!(streamed, [at(0, 6), at(2, 6), at(1, 6), at(3, 6), at(4, 10)]);
}

#[test]
fn shape_groups_follow_literal_churn_between_sessions() {
    // A warm engine whose shapes gain and lose literals between documents
    // — a binding's last subscriber leaving, a new literal, one more
    // subscriber on a live one — does what an engine freshly built over
    // its live queries does, and never compiles a machine for a literal.
    let docs = [
        auction::to_string(&auction::AuctionConfig { seed: 11, target_bytes: 16_000 }),
        auction::to_string(&auction::AuctionConfig { seed: 12, target_bytes: 12_000 }),
    ];
    let payment = |l: &str| format!("//item[quantity][payment = '{l}']/name");
    let email = |n: u32| format!("//person[emailaddress = 'mailto:p{n}@example.org']/name");
    let mut engine = MultiEngine::new();
    let mut live: Vec<(QueryId, String)> = Vec::new();
    for q in [payment("Cash"), email(3), payment("Creditcard"), email(4), email(3), payment("x")] {
        live.push((engine.add_query(&q).unwrap(), q));
    }
    assert_eq!(engine.group_count(), 2);
    let check = |engine: &mut MultiEngine, live: &[(QueryId, String)], step: &str| {
        let outs = run_checking_plan(engine, &docs, step);
        let mut fresh = MultiEngine::new();
        for (_, q) in live {
            fresh.add_query(q).unwrap();
        }
        let trees: Vec<QueryTree> =
            live.iter().map(|(_, q)| QueryTree::parse(q).unwrap()).collect();
        for (xml, out) in docs.iter().zip(&outs) {
            let expected = fresh.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
            for (j, (id, q)) in live.iter().enumerate() {
                assert_eq!(out.matches[id.0], expected.matches[j], "{q}: {step}");
                assert_eq!(out.stats[id.0], expected.stats[j], "{q}: {step}");
                let (private, single) = single_run(xml, &trees[j]);
                assert_eq!(out.matches[id.0], private, "{q}: {step}");
                let shared = literal_shared(&trees, j);
                assert_private_stats(&out.stats[id.0], &single.stats, shared, q);
            }
        }
        assert!(outs.iter().any(|o| o.matches.iter().any(|m| !m.is_empty())), "{step}: matches");
    };
    check(&mut engine, &live, "registered");
    // `Cash` loses its only subscriber (its binding goes, `Creditcard`
    // moves down), `mailto:p3` one of two.
    assert_eq!(engine.remove_query(live[0].0), Some(false));
    assert_eq!(engine.remove_query(live[4].0), Some(false));
    live.retain(|(id, _)| ![0, 4].contains(&id.0));
    check(&mut engine, &live, "literals removed");
    for q in [payment("Cash"), email(5), payment("Creditcard")] {
        live.push((engine.add_query(&q).unwrap(), q));
    }
    assert_eq!(engine.group_count(), 2, "new literals join their shapes");
    check(&mut engine, &live, "literals added");
}

// --------------------------------------------------------------------- //
// Predicate steps in the step trie: a predicate step is the trie node of
// its path, shared with main-path and predicate steps of any group
// --------------------------------------------------------------------- //

/// Hand-made items: a payment before and after the name, two payments, an
/// item without one and an item nested in another.
const ITEMS: &str =
    "<site><item id=\"i1\"><payment>Cash</payment><name>a</name><quantity>1</quantity></item>\
    <item id=\"i2\"><name>b</name></item>\
    <item id=\"i3\"><name>c</name><payment>Creditcard</payment><payment>Cash</payment></item>\
    <item id=\"i4\"><quantity>2</quantity><payment>Cash</payment>\
    <item id=\"i5\"><payment/><name>d</name></item></item></site>";

#[test]
fn predicate_steps_share_trie_nodes_with_main_steps() {
    // `//a[b]/b`: one group, two routes on `//a/b`.
    let xml = "<r><a><b/><b/></a><a><c/><b/></a><a><c/></a><a><b><a><b/></a></b></a></r>";
    let out = check_queries("one group, two routes", &["//a[b]/b"], xml);
    assert_eq!(out.matches[0].len(), 5);
    assert_eq!((out.plan.trie_nodes, out.plan.shared_trie_nodes), (2, 0));

    // A predicate step and two main steps of three groups on `//item/payment`.
    let item_queries = ["//item[payment]/name", "//item[payment = 'Cash']/@id", "//item/payment"];
    let auction = auction::to_string(&auction::AuctionConfig::sized(24_000));
    for (label, xml) in [("hand-made items", ITEMS), ("auction", auction.as_str())] {
        let out = check_queries(label, &item_queries, xml);
        assert!(out.matches.iter().all(|m| !m.is_empty()), "{label}: every query matches");
        assert_eq!((out.plan.trie_nodes, out.plan.shared_trie_nodes), (3, 2), "{label}");
    }

    // Wildcards: the predicate step `//a/*` is the main step of `//a/*`.
    let xml = "<r><a><c/></a><a><b/><c/></a><a/><a><c><a><x/></a></c></a></r>";
    let out = check_queries("wildcard steps", &["//a[*]/c", "//a/*"], xml);
    assert_eq!((out.plan.trie_nodes, out.plan.shared_trie_nodes), (3, 2));

    // A nested predicate branch is another query's main path.
    let xml = "<r><a><b><c/></b><d/></a><a><b/><d/></a><a><d/><b><c/><c/></b></a></r>";
    let out = check_queries("nested branch", &["//a[b[c]]/d", "//a/b/c"], xml);
    assert_eq!(out.matches.iter().map(Vec::len).collect::<Vec<_>>(), [2, 3]);
    assert_eq!((out.plan.trie_nodes, out.plan.shared_trie_nodes), (4, 3));

    // The paper's exponential-matches query, predicates under `//*`.
    let xml = recursive::to_string(&recursive::RecursiveConfig::square(6));
    let out = check_queries("recursive", &["//*[author]//*[position]//*"], &xml);
    assert!(!out.matches[0].is_empty());
    assert_eq!(out.plan.trie_nodes, 5);
}

#[test]
fn retiring_a_shared_predicate_branch_keeps_the_other_groups_routed() {
    // `//item[payment]/name` routes its predicate on `//item/payment`, the
    // node two other groups route too. Retiring it, then registering a new
    // shape into the recycled slot, must leave an engine that does what a
    // fresh one over the live queries does, callback order included.
    let auction = auction::to_string(&auction::AuctionConfig::sized(16_000));
    let docs = [ITEMS, auction.as_str()];
    let mut engine = MultiEngine::new();
    let retired = engine.add_query("//item[payment]/name").unwrap();
    let mut live = vec!["//item/payment", "//item[payment = 'Cash']/@id"];
    for q in &live {
        engine.add_query(q).unwrap();
    }
    assert_eq!(engine.remove_query(retired), Some(true));
    let newcomer = "//item[quantity][payment]/@id";
    assert_eq!(engine.add_query(newcomer).unwrap(), QueryId(3));
    live.insert(0, newcomer);
    let mut fresh = MultiEngine::new();
    for q in &live {
        fresh.add_query(q).unwrap();
    }
    let text =
        |e: &MultiEngine, n| (0..n).map(|i| e.query_text(QueryId(i)).unwrap().to_owned()).collect();
    let (texts, fresh_texts): (Vec<String>, Vec<String>) = (text(&engine, 4), text(&fresh, 3));
    for xml in docs {
        let mut streamed = Vec::new();
        let out = engine
            .run(XmlReader::from_str(xml), |q, m| streamed.push((&texts[q.0], m.node)))
            .unwrap();
        let mut expected = Vec::new();
        let fresh_out = fresh
            .run(XmlReader::from_str(xml), |q, m| expected.push((&fresh_texts[q.0], m.node)))
            .unwrap();
        assert_plan_is_fresh(&engine, &out, "a shared predicate branch retired");
        assert_eq!(streamed, expected, "callback order");
        assert!(!streamed.is_empty());
        assert_eq!(out.plan.recycled_slots, 1, "{newcomer} took the retired slot");
        let work = |p: &vitex::core::PlanStats| {
            (p.groups, p.shared_trie_nodes, p.prefix_steps_executed, p.prefix_forks)
        };
        assert_eq!(work(&out.plan), work(&fresh_out.plan), "groups and trie work");
        let ids = [QueryId(3), QueryId(1), QueryId(2)];
        for (j, id) in ids.iter().enumerate() {
            assert_eq!(out.matches[id.0], fresh_out.matches[j], "{}", live[j]);
            assert_eq!(out.stats[id.0], fresh_out.stats[j], "{}", live[j]);
        }
        check_queries("churned set", &live, xml);
    }
}
