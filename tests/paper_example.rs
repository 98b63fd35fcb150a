//! The paper's worked example, end to end.
//!
//! Section 1 of the paper walks query
//! `Q = //section[author]//table[position]//cell` over the 17-line sample
//! document of Figure 1 and concludes:
//!
//! * when `cell` (line 8) is processed there are **9** ways to match the
//!   subquery `//section//table//cell`
//!   (`⟨section_i, table_j, cell_8⟩`, i ∈ {2,3,4}, j ∈ {5,6,7});
//! * at lines 9–10, `table_7` and `table_6` close without a `position`
//!   child, killing their 3 matches each;
//! * the match through `table_5` (the paper's outermost table, line 5…12)
//!   sees `position` at line 11 and `author` at line 15, so `cell_8` is
//!   the unique query solution.
//!
//! These tests pin all of that behaviour — on the naive enumerator (which
//! literally materializes the 9 tuples) and on TwigM (which never does).

use vitex::baseline::{naive, oracle, NaiveConfig};
use vitex::core::{evaluate_reader, MachineSpec};
use vitex::xmlgen::recursive;
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

const Q: &str = "//section[author]//table[position]//cell";

#[test]
fn figure1_has_exactly_one_solution() {
    let xml = recursive::figure1();
    let ms = vitex::evaluate(&xml, Q).unwrap();
    assert_eq!(ms.len(), 1);
    let m = &ms[0];
    assert_eq!(m.name.as_deref(), Some("cell"));
    // The solution fragment is the cell element with its text.
    let frag = m.span.slice(xml.as_bytes()).unwrap();
    assert_eq!(std::str::from_utf8(frag).unwrap(), "<cell> A </cell>");
}

#[test]
fn naive_enumerator_materializes_the_nine_matches() {
    // The structural subquery //section//table//cell has 3 × 3 = 9 matches
    // for cell_8; the naive evaluator must store at least those.
    let xml = recursive::figure1();
    let tree = QueryTree::parse("//section//table//cell").unwrap();
    let out = naive::NaiveEvaluator::new(&tree, NaiveConfig::default())
        .run(XmlReader::from_str(&xml))
        .unwrap();
    // Embeddings also include partial ones (section-only, section+table),
    // so peak ≥ 9 complete + partials.
    assert!(out.peak_embeddings >= 9, "peak embeddings = {}", out.peak_embeddings);
    assert_eq!(out.matches.len(), 1);
}

#[test]
fn twigm_stays_polynomial_on_the_example() {
    let xml = recursive::figure1();
    let tree = QueryTree::parse(Q).unwrap();
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert_eq!(out.matches.len(), 1);
    let stats = &out.stats;
    // 10 elements, 5 machine nodes: entries are bounded by pushes of
    // matching elements, not by the 9 pattern matches.
    assert!(stats.peak_entries <= 8, "peak entries = {}", stats.peak_entries);
    assert!(stats.peak_candidates <= 3, "peak candidates = {}", stats.peak_candidates);
    // The pruning narrative: candidate copies died with table_7/table_6 or
    // were inherited outward — either way nothing was enumerated.
    assert_eq!(stats.emitted, 1);
}

#[test]
fn figure3_machine_shape() {
    // Figure 3 shows the TwigM machine for Q: section → {author, table},
    // table → {position, cell}, all descendant edges except the predicate
    // attachment (which the paper draws as child edges off the main spine).
    let tree = QueryTree::parse(Q).unwrap();
    let spec = MachineSpec::compile(&tree).unwrap();
    assert_eq!(spec.len(), 5);
    let names: Vec<&str> = spec.nodes.iter().map(|n| n.name.as_deref().unwrap()).collect();
    assert_eq!(names, ["section", "author", "table", "position", "cell"]);
    // Each machine node has a stack; stacks start empty (paper: "Each
    // machine node has a stack associated with it … initialized to be
    // empty").
    let machine = vitex::core::TwigM::from_spec(spec);
    assert!(machine.is_quiescent());
}

#[test]
fn pruning_at_lines_9_and_10() {
    // Trace the machine through the document and check that the candidate
    // attached to table_7 is *inherited* (not lost, not duplicated) as the
    // unsatisfied tables close — observable through the stats counters.
    let xml = recursive::figure1();
    let tree = QueryTree::parse(Q).unwrap();
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    let stats = &out.stats;
    // cell_8 is created once as a candidate…
    assert_eq!(stats.candidates_created, 1);
    // …slides down through the dying tables 7 and 6 (lines 9–10), is
    // forwarded up by the satisfied table_5 (line 12) onto section_4, and
    // slides again through the author-less sections 4 and 3 — four lazy
    // inheritances in total, never 9 enumerated matches…
    assert_eq!(stats.candidates_inherited, 4);
    // …until the satisfied section_2 (author at line 15) forwards it to
    // the root, where it is emitted exactly once.
    assert_eq!(stats.emitted, 1);
    assert_eq!(stats.duplicates_suppressed, 0);
}

#[test]
fn oracle_agrees_on_the_example() {
    let xml = recursive::figure1();
    let ms = oracle::evaluate_str(&xml, Q);
    assert_eq!(ms.len(), 1);
}

#[test]
fn without_author_every_match_dies() {
    // Strip line 15: all 9 pattern matches must be discarded.
    let cfg = recursive::RecursiveConfig { author_present: false, ..Default::default() };
    let xml = recursive::to_string(&cfg);
    let tree = QueryTree::parse(Q).unwrap();
    let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
    assert!(out.matches.is_empty());
    assert_eq!(out.stats.emitted, 0);
    assert!(out.stats.candidates_discarded >= 1);
}

#[test]
fn deeper_towers_scale_polynomially() {
    // ViteX feature 1: polynomial in data and query size. Check the
    // bookkeeping-operation count grows ~linearly in the tower depth
    // (the document also grows linearly).
    let tree = QueryTree::parse(Q).unwrap();
    let ops = |depth: usize| {
        let xml = recursive::to_string(&recursive::RecursiveConfig::square(depth));
        let out = evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
        assert_eq!(out.matches.len(), 1);
        out.stats.pushes
            + out.stats.flag_propagations
            + out.stats.candidates_forwarded
            + out.stats.candidates_inherited
    };
    let (o8, o16, o32) = (ops(8), ops(16), ops(32));
    // Linear-ish growth: doubling depth should not quadruple the work.
    assert!(o16 < o8 * 3, "{o8} → {o16}");
    assert!(o32 < o16 * 3, "{o16} → {o32}");
}
