//! Early-emission semantics: candidates arriving at a machine-root entry
//! whose predicates are already satisfied are delivered immediately, not
//! buffered until the root element closes. These tests pin the latency,
//! the memory effect, and — crucially — that early emission changes *when*
//! results appear but never *which* results appear.

use vitex::core::{
    evaluate_reader, CandidateStore, Engine, EvalMode, Interner, MachineSpec, TwigM,
};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

/// Root-anchored attribute query over a long flat stream: every match must
/// fire before the next sibling opens (O(1) latency), and candidate memory
/// must stay O(1).
#[test]
fn root_anchored_attributes_stream_immediately() {
    let n = 500;
    let mut xml = String::from("<site>");
    for i in 0..n {
        xml.push_str(&format!("<person id=\"p{i}\"/>"));
    }
    xml.push_str("</site>");
    let tree = QueryTree::parse("/site/person/@id").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let mut order = Vec::new();
    let out = engine.run(XmlReader::from_str(&xml), |m| order.push(m.node)).unwrap();
    assert_eq!(out.matches.len(), n);
    // Delivered in document order (each at its person's start tag), so the
    // callback sequence is strictly increasing…
    assert!(order.windows(2).all(|w| w[0] < w[1]));
    // …and the machine never buffered more than one candidate.
    assert!(out.stats.peak_candidates <= 1, "peak {}", out.stats.peak_candidates);
}

/// With a *pending* root predicate, candidates must wait (emitting early
/// would be unsound: the predicate may never be satisfied).
#[test]
fn pending_root_predicate_defers_emission() {
    let xml = "<site><person id=\"p\"/><license/></site>";
    let tree = QueryTree::parse("/site[license]/person/@id").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let mut fired_after_license = false;
    let mut seen_any = false;
    let out = engine
        .run(XmlReader::from_str(xml), |m| {
            seen_any = true;
            // ids: site=0, person=1, @id=2, license=3. The match is the
            // attribute (id 2), deliverable only at site's close (the
            // machine cannot know about license earlier).
            fired_after_license = m.node == 2;
        })
        .unwrap();
    assert!(seen_any && fired_after_license);
    assert_eq!(out.matches.len(), 1);
    // And when the predicate is never satisfied: nothing.
    let xml = "<site><person id=\"p\"/></site>";
    let out = engine.run(XmlReader::from_str(xml), |_| {}).unwrap();
    assert!(out.matches.is_empty());
}

/// Early-satisfied root predicate: once the flag is set, later candidates
/// flow straight through.
#[test]
fn satisfied_root_predicate_unlocks_streaming() {
    let xml = "<site><license/><person id=\"a\"/><person id=\"b\"/></site>";
    let tree = QueryTree::parse("/site[license]/person/@id").unwrap();
    let out = evaluate_reader(XmlReader::from_str(xml), &tree).unwrap();
    assert_eq!(out.matches.len(), 2);
    // Both candidates forwarded as their person elements closed — peak 1.
    assert!(out.stats.peak_candidates <= 1, "peak {}", out.stats.peak_candidates);
}

/// Text results under a hot root stream too.
#[test]
fn text_results_stream_under_hot_root() {
    let xml = "<log>one<sep/>two<sep/>three</log>";
    let tree = QueryTree::parse("/log/text()").unwrap();
    let out = evaluate_reader(XmlReader::from_str(xml), &tree).unwrap();
    let vals: Vec<&str> = out.matches.iter().filter_map(|m| m.value.as_deref()).collect();
    assert_eq!(vals, ["one", "two", "three"]);
    assert!(out.stats.peak_candidates <= 1);
}

/// Early emission must not create duplicates when shared copies exist: the
/// chain-stealing document, root-anchored.
#[test]
fn early_emission_respects_shared_dedup() {
    let xml = "<a><p/><b><a><p/><b><q/><c/></b></a><q/></b></a>";
    for mode in [EvalMode::Compact, EvalMode::Eager] {
        let tree = QueryTree::parse("//a[p]/b[q]//c").unwrap();
        let mut engine = Engine::with_mode(&tree, mode).unwrap();
        let out = engine.run(XmlReader::from_str(xml), |_| {}).unwrap();
        assert_eq!(out.matches.len(), 1, "{mode:?}");
    }
}

/// The state dump shows live stacks mid-stream (demo introspection).
#[test]
fn dump_state_reflects_stacks() {
    let tree = QueryTree::parse("//section[author]//cell").unwrap();
    let mut interner = Interner::new();
    let spec = MachineSpec::compile_with(&tree, &mut interner).unwrap();
    let mut m = TwigM::from_spec(spec, EvalMode::Compact);
    let mut store = CandidateStore::new();
    let span = vitex::xmlsax::pos::ByteSpan::new(0, 1);
    let mut sink = |_: vitex::Match| {};
    m.start_element_interned(&mut store, interner.lookup("section"), 1, &[], 0, 1, span, &mut sink);
    m.start_element_interned(&mut store, interner.lookup("cell"), 2, &[], 1, 2, span, &mut sink);
    let dump = m.dump_state(&store);
    assert!(dump.contains("//section"), "{dump}");
    assert!(dump.contains("//cell"), "{dump}");
    assert!(dump.contains("(1 entries)"), "{dump}");
    assert!(dump.contains("/author ?"), "{dump}");
    m.end_element(&mut store, "cell", 2, span, &mut sink);
    m.end_element(&mut store, "section", 1, span, &mut sink);
    assert!(m.is_quiescent());
    let dump = m.dump_state(&store);
    assert!(dump.contains("(0 entries)"), "{dump}");
}
