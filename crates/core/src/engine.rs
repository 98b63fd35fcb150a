//! The single-query evaluation engine: SAX reader → document driver →
//! one TwigM machine.
//!
//! This is the assembled ViteX system of the paper's Figure 2: the XPath
//! parser and TwigM builder run once per query, and the document streams
//! once through the machine. An [`Engine`] is a [`MultiEngine`] with one
//! registration: the step trie decides every push, as it does for any
//! number of standing queries, so there is one way into a machine. All
//! query logic lives in [`crate::machine`]; all document plumbing lives
//! in [`crate::driver`].

use std::io::Read;

use vitex_xmlsax::XmlReader;
use vitex_xpath::query_tree::QueryTree;

use crate::builder::BuildError;
use crate::error::EngineResult;
use crate::machine::TwigM;
use crate::multi::MultiEngine;
use crate::result::Match;
use crate::stats::MachineStats;

/// Everything a full evaluation run reports.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// The solutions, in emission (completion) order.
    pub matches: Vec<Match>,
    /// Machine instrumentation for the run.
    pub stats: MachineStats,
    /// Elements seen.
    pub elements: u64,
    /// Text nodes seen.
    pub text_nodes: u64,
    /// Total SAX events processed.
    pub events: u64,
}

/// A reusable query engine: build once, run over many documents.
pub struct Engine {
    /// The one registration, `QueryId(0)`, never removed.
    multi: MultiEngine,
}

impl Engine {
    /// Compiles `tree`.
    pub fn new(tree: &QueryTree) -> Result<Self, BuildError> {
        Ok(Engine { multi: MultiEngine::with_one_query(tree)? })
    }

    /// Convenience: compiles a query string.
    pub fn from_query(query: &str) -> EngineResult<Self> {
        let tree = QueryTree::parse(query)?;
        Ok(Engine::new(&tree)?)
    }

    /// The underlying machine (for its spec and statistics).
    pub fn machine(&self) -> &TwigM {
        self.multi.planner.group(0).machine()
    }

    /// Attaches a telemetry handle: each run records what a one-query
    /// [`MultiEngine`] records, its query and group rows included.
    pub fn set_telemetry(&mut self, telemetry: crate::telemetry::Telemetry) {
        self.multi.set_telemetry(telemetry);
    }

    /// Streams `reader` through the machine, invoking `on_match` for every
    /// solution the moment it becomes decidable, and keeps each for
    /// [`EvalOutput::matches`]: [`MultiEngine::run`] over the one query, so
    /// one owned [`Match`] per solution, lent to `on_match` first, in a
    /// vector sized exactly. Each document starts from a machine at rest,
    /// so an engine can be reused.
    pub fn run<R: Read, F: FnMut(&Match)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<EvalOutput> {
        let mut out = self.multi.run(reader, |_, m| on_match(m))?;
        Ok(EvalOutput {
            matches: out.matches.swap_remove(0),
            stats: out.stats.swap_remove(0),
            elements: out.elements,
            text_nodes: out.text_nodes,
            events: out.events,
        })
    }
}

/// Evaluates a prepared query tree over `reader`, collecting all matches.
pub fn evaluate_reader<R: Read>(
    reader: XmlReader<R>,
    tree: &QueryTree,
) -> EngineResult<EvalOutput> {
    let mut engine = Engine::new(tree)?;
    engine.run(reader, |_| {})
}

/// One-call evaluation of a query string over an in-memory document.
///
/// ```
/// let ms = vitex_core::evaluate_str("<a><b/><c/><b/></a>", "//b").unwrap();
/// assert_eq!(ms.len(), 2);
/// ```
pub fn evaluate_str(xml: &str, query: &str) -> EngineResult<Vec<Match>> {
    let tree = QueryTree::parse(query)?;
    Ok(evaluate_reader(XmlReader::from_str(xml), &tree)?.matches)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::result::MatchKind;

    #[test]
    fn evaluate_str_basics() {
        let ms = evaluate_str("<a><b>x</b><c><b>y</b></c></a>", "//a//b").unwrap();
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m.kind == MatchKind::Element));
    }

    #[test]
    fn matches_carry_spans_for_fragment_extraction() {
        let xml = "<a><b id=\"1\">x</b></a>";
        let ms = evaluate_str(xml, "//b").unwrap();
        assert_eq!(ms.len(), 1);
        let frag = ms[0].span.slice(xml.as_bytes()).unwrap();
        assert_eq!(frag, b"<b id=\"1\">x</b>");
    }

    #[test]
    fn paper_q2_shape() {
        let xml = "<ProteinDatabase>\
            <ProteinEntry id=\"p1\"><reference>r</reference></ProteinEntry>\
            <ProteinEntry id=\"p2\"></ProteinEntry>\
            </ProteinDatabase>";
        let ms = evaluate_str(xml, "//ProteinEntry[reference]/@id").unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value.as_deref(), Some("p1"));
        assert_eq!(ms[0].kind, MatchKind::Attribute);
    }

    #[test]
    fn incremental_callback_fires_before_document_end() {
        // The match for the first <b> must be delivered at its endElement,
        // not at document end — record the count of elements seen at
        // callback time via a shared cell.
        let xml = "<a><b/><later/><later/></a>";
        let tree = QueryTree::parse("//b").unwrap();
        let mut engine = Engine::new(&tree).unwrap();
        let mut at_emit = Vec::new();
        let out = engine.run(XmlReader::from_str(xml), |m| at_emit.push(m.node)).unwrap();
        assert_eq!(out.matches.len(), 1);
        assert_eq!(at_emit, vec![1]);
    }

    #[test]
    fn engine_is_reusable_across_documents() {
        let tree = QueryTree::parse("//b").unwrap();
        let mut engine = Engine::new(&tree).unwrap();
        let a = engine.run(XmlReader::from_str("<a><b/></a>"), |_| {}).unwrap();
        let b = engine.run(XmlReader::from_str("<a><b/><b/></a>"), |_| {}).unwrap();
        assert_eq!(a.matches.len(), 1);
        assert_eq!(b.matches.len(), 2);
        assert_eq!(b.stats.emitted, 2, "stats reset between runs");
    }

    #[test]
    fn malformed_xml_surfaces_error() {
        assert!(evaluate_str("<a><b></a>", "//b").is_err());
    }

    #[test]
    fn bad_query_surfaces_error() {
        assert!(evaluate_str("<a/>", "not a query").is_err());
    }

    #[test]
    fn counts_are_reported() {
        let tree = QueryTree::parse("//b").unwrap();
        let mut engine = Engine::new(&tree).unwrap();
        let out = engine.run(XmlReader::from_str("<a><b>t</b><c/></a>"), |_| {}).unwrap();
        assert_eq!(out.elements, 3);
        assert_eq!(out.text_nodes, 1);
        assert!(out.events >= 8);
    }

    #[test]
    fn node_ids_count_attributes() {
        // ids: a=0 (attrs 1,2), b=3 → //b matches node 3.
        let ms = evaluate_str("<a x=\"1\" y=\"2\"><b/></a>", "//b").unwrap();
        assert_eq!(ms[0].node, 3);
        // and attribute matches use the attribute's own id.
        let ms = evaluate_str("<a x=\"1\" y=\"2\"><b/></a>", "//a/@y").unwrap();
        assert_eq!(ms[0].node, 2);
    }
}
