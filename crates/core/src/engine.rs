//! The evaluation engine: SAX reader → document driver → TwigM machine.
//!
//! This is the assembled ViteX system of the paper's Figure 2: the XPath
//! parser and TwigM builder run once per query; the
//! [`crate::driver::DocumentDriver`] then streams the document, resolving
//! each element name against the engine's interner once per event and
//! feeding the machine through the symbol-dispatch fast path. All query
//! logic lives in [`crate::machine`]; all document plumbing lives in
//! [`crate::driver`].

use std::io::Read;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::XmlReader;
use vitex_xpath::query_tree::QueryTree;

use crate::builder::{BuildError, EvalMode, MachineSpec};
use crate::driver::{DocumentDriver, EventSink};
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::machine::{CandidateStore, TwigM};
use crate::result::{Match, MatchRef, NodeId};
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
    machine: TwigM,
    /// The machine's run-time memory, kept warm across documents.
    store: CandidateStore,
    interner: Interner,
    driver: DocumentDriver,
}

impl Engine {
    /// Compiles `tree` in the default (compact) mode.
    pub fn new(tree: &QueryTree) -> Result<Self, BuildError> {
        Engine::with_mode(tree, EvalMode::Compact)
    }

    /// Compiles `tree` with an explicit evaluation mode.
    pub fn with_mode(tree: &QueryTree, mode: EvalMode) -> Result<Self, BuildError> {
        let mut interner = Interner::new();
        let spec = MachineSpec::compile_with(tree, &mut interner)?;
        Ok(Engine {
            machine: TwigM::from_spec(spec, mode),
            store: CandidateStore::new(),
            interner,
            driver: DocumentDriver::new(),
        })
    }

    /// Convenience: compiles a query string.
    pub fn from_query(query: &str) -> EngineResult<Self> {
        let tree = QueryTree::parse(query)?;
        Ok(Engine::new(&tree)?)
    }

    /// The underlying machine (for its spec and statistics).
    pub fn machine(&self) -> &TwigM {
        &self.machine
    }

    /// Attaches a telemetry handle: the driver records dispatch and
    /// document latency, and each run folds its stream counters, the machine's counters and
    /// the match count into the registry.
    pub fn set_telemetry(&mut self, telemetry: crate::telemetry::Telemetry) {
        self.driver.set_telemetry(telemetry);
    }

    /// Streams `reader` through the machine, invoking `on_match` for every
    /// solution the moment it becomes decidable, and keeps each for
    /// [`EvalOutput::matches`]: one owned [`Match`] per solution, built as
    /// it leaves the machine and lent to `on_match` first. Resets the
    /// machine first, so an engine can be reused across documents.
    pub fn run<R: Read, F: FnMut(&Match)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<EvalOutput> {
        self.machine.reset();
        self.store.reset();
        let mut matches = Vec::new();
        let stream = {
            let mut sink = EngineSink {
                machine: &mut self.machine,
                store: &mut self.store,
                interner: &self.interner,
                on_match: |m: &MatchRef<'_>| {
                    let owned = Match::from(*m);
                    on_match(&owned);
                    matches.push(owned);
                },
            };
            self.driver.run(reader, &mut sink)?
        };
        debug_assert!(
            self.machine.is_quiescent() && self.store.is_idle(),
            "well-formed input drains all stacks and returns every store handle"
        );
        self.driver.telemetry().fold_document(
            &stream,
            self.machine.stats(),
            None,
            matches.len() as u64,
        );
        Ok(EvalOutput {
            matches,
            stats: self.machine.stats().clone(),
            elements: stream.elements,
            text_nodes: stream.text_nodes,
            events: stream.events,
        })
    }
}

/// The single-query [`EventSink`]: every event goes to the one machine.
struct EngineSink<'a, F: FnMut(&MatchRef<'_>)> {
    machine: &'a mut TwigM,
    store: &'a mut CandidateStore,
    interner: &'a Interner,
    on_match: F,
}

impl<F: FnMut(&MatchRef<'_>)> EventSink for EngineSink<'_, F> {
    fn resolve(&mut self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    fn start_element(
        &mut self,
        sym: Option<Symbol>,
        event: &StartElementEvent<'_>,
        node_id: NodeId,
        attr_id_base: NodeId,
    ) {
        self.machine.start_element_interned(
            self.store,
            sym,
            event.level,
            event.attributes(),
            node_id,
            attr_id_base,
            event.span,
            &mut self.on_match,
        );
    }

    fn characters(&mut self, event: &CharactersEvent<'_>, node_id: NodeId) {
        self.machine.characters(
            self.store,
            &event.text,
            event.level,
            node_id,
            event.span,
            &mut self.on_match,
        );
    }

    fn end_element(&mut self, _sym: Option<Symbol>, event: &EndElementEvent<'_>) {
        self.machine.end_element(
            self.store,
            &event.name,
            event.level,
            event.element_span,
            &mut self.on_match,
        );
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
