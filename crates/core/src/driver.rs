//! The document driver: the **single** SAX event loop of the system.
//!
//! The [`DocumentDriver`] owns the document-side state of a scan — node
//! numbering, element/text/event counting, the open-element symbol stack
//! — and pushes each event into an [`EventSink`]; the engines are sinks,
//! and anything else that wants a numbered, symbol-resolved event stream
//! can be one too. [`DocumentDriver::run`] pulls events from an
//! [`EventSource`] until the document ends.
//!
//! Responsibilities split:
//!
//! * **driver** — reads SAX events, assigns document-order node ids
//!   (elements, their attributes, text nodes), counts stream statistics,
//!   resolves each start tag's name to an interned [`Symbol`] *once* (the
//!   sink supplies the interner via [`EventSink::resolve`]) and replays
//!   that symbol at the matching end tag from its open-element stack, so
//!   end tags never re-hash the name;
//! * **sink** — query logic: which machines see the event, what they do
//!   with it.

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::{EventSource, XmlEvent};

use crate::error::EngineResult;
use crate::intern::Symbol;
use crate::result::NodeId;
use crate::stats::StreamStats;
use crate::telemetry::{Telemetry, TID_COORDINATOR};
use std::time::Instant;

/// Dispatch-latency sampling stride: with telemetry on, the first
/// dispatched event of every document and every `DISPATCH_SAMPLE`-th
/// after it is timed into `vitex_dispatch_ns`. A clock pair around every
/// event was ≈ 40 % of a 150 ns parse-bound event; the histogram is a
/// latency distribution, not a sum, so (like the ledger's `SELF_SAMPLE`
/// in `multi.rs`) it only needs enough samples: a 10 000-event document
/// still yields 157.
const DISPATCH_SAMPLE: u64 = 64;

/// A consumer of numbered, symbol-resolved document events.
///
/// Methods mirror the SAX vocabulary the TwigM machine consumes. The
/// driver guarantees: `start_element` / `end_element` calls are properly
/// nested; `sym` at an end tag equals the `sym` its start tag resolved to;
/// node ids are document-order (an element's attributes occupy the ids
/// between it and its first child).
pub trait EventSink {
    /// Maps an element name to this sink's interned symbol, if the name is
    /// known to it. Called once per start tag, before
    /// [`EventSink::start_element`].
    fn resolve(&mut self, name: &str) -> Option<Symbol>;

    /// An element opened. `node_id` is the element's id; its attributes
    /// have ids `attr_id_base + i` in document order.
    fn start_element(
        &mut self,
        sym: Option<Symbol>,
        event: &StartElementEvent,
        node_id: NodeId,
        attr_id_base: NodeId,
    );

    /// A text node. `node_id` is the text node's id.
    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId);

    /// An element closed; `sym` is the symbol its start tag resolved to.
    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent);

    /// The document ended. Called exactly once per [`DocumentDriver::run`],
    /// after the last element/text event and before `run` returns. Sinks
    /// that buffer or forward events (e.g. a session's ring lane batching
    /// events onto worker rings) flush here; the default does nothing.
    fn document_end(&mut self) {}
}

/// Streams a document once, feeding an [`EventSink`].
///
/// The driver is reusable across documents; its only persistent state is a
/// scratch stack of open-element symbols (depth-bounded).
#[derive(Debug, Default)]
pub struct DocumentDriver {
    /// Symbol of each open element, innermost last — lets `end_element`
    /// reuse the start tag's resolution instead of re-hashing the name.
    open_syms: Vec<Option<Symbol>>,
    /// Telemetry sink; disabled by default (every recording call no-ops).
    telemetry: Telemetry,
}

impl DocumentDriver {
    /// A fresh driver.
    pub fn new() -> Self {
        DocumentDriver::default()
    }

    /// Attaches a telemetry handle. The driver records the sampled
    /// per-event dispatch histogram, whole-document wall time, and a
    /// `document` span per run; the stream counters it returns are folded
    /// by the engine that ran it, with the rest of the document.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The driver's telemetry handle (cheap clone; disabled handles clone
    /// to disabled handles).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Runs `reader` to end of document, dispatching every event into
    /// `sink`, and reports the stream statistics. Node numbering restarts
    /// at 0 for each run.
    ///
    /// Per event the driver counts it, numbers the node it opens, and
    /// resolves (start tag) or replays (end tag) the element's symbol.
    pub fn run<E: EventSource, S: EventSink>(
        &mut self,
        mut reader: E,
        sink: &mut S,
    ) -> EngineResult<StreamStats> {
        self.open_syms.clear();
        let mut next_id: NodeId = 0;
        let mut stats = StreamStats::default();
        let t_doc = self.telemetry.timer();
        let mut dispatched = 0u64;
        let mut dispatch_timer = || {
            // Telemetry off: this one `Option` check, no counter bump, no clock.
            t_doc?;
            let sampled = dispatched.is_multiple_of(DISPATCH_SAMPLE);
            dispatched += 1;
            sampled.then(Instant::now)
        };
        loop {
            let event = reader.next_event()?;
            stats.events += 1;
            match event {
                XmlEvent::StartElement(e) => {
                    stats.elements += 1;
                    let node_id = next_id;
                    next_id += 1 + e.attributes.len() as u64;
                    let sym = sink.resolve(e.name.as_str());
                    self.open_syms.push(sym);
                    let t_ev = dispatch_timer();
                    sink.start_element(sym, &e, node_id, node_id + 1);
                    self.telemetry.observe_elapsed(|r| &r.dispatch_ns, t_ev);
                }
                XmlEvent::Characters(c) => {
                    stats.text_nodes += 1;
                    let node_id = next_id;
                    next_id += 1;
                    let t_ev = dispatch_timer();
                    sink.characters(&c, node_id);
                    self.telemetry.observe_elapsed(|r| &r.dispatch_ns, t_ev);
                }
                XmlEvent::EndElement(e) => {
                    let sym = self.open_syms.pop().flatten();
                    let t_ev = dispatch_timer();
                    sink.end_element(sym, &e);
                    self.telemetry.observe_elapsed(|r| &r.dispatch_ns, t_ev);
                }
                XmlEvent::EndDocument => {
                    sink.document_end();
                    break;
                }
                XmlEvent::StartDocument { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction(_)
                | XmlEvent::DoctypeDeclaration { .. } => {}
            }
        }
        self.telemetry.add_elapsed(|r| &r.doc_ns, t_doc);
        self.telemetry.record_span("document", "stream", TID_COORDINATOR, t_doc);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;
    use vitex_xmlsax::XmlReader;

    /// Records everything the driver hands it.
    struct Recorder {
        interner: Interner,
        log: Vec<String>,
    }

    impl EventSink for Recorder {
        fn resolve(&mut self, name: &str) -> Option<Symbol> {
            self.interner.lookup(name)
        }

        fn start_element(
            &mut self,
            sym: Option<Symbol>,
            event: &StartElementEvent,
            node_id: NodeId,
            attr_id_base: NodeId,
        ) {
            self.log.push(format!(
                "start {} sym={:?} id={node_id} attrs@{attr_id_base}",
                event.name.as_str(),
                sym.map(Symbol::index)
            ));
        }

        fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
            self.log.push(format!("text {:?} id={node_id}", event.text));
        }

        fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
            self.log.push(format!("end {} sym={:?}", event.name.as_str(), sym.map(Symbol::index)));
        }
    }

    #[test]
    fn numbering_symbols_and_counts() {
        let mut interner = Interner::new();
        interner.intern("a");
        interner.intern("b");
        let mut sink = Recorder { interner, log: Vec::new() };
        let xml = "<a x=\"1\" y=\"2\"><b>hi</b><unknown/></a>";
        let stats = DocumentDriver::new().run(XmlReader::from_str(xml), &mut sink).unwrap();
        assert_eq!(
            sink.log,
            [
                "start a sym=Some(0) id=0 attrs@1",
                "start b sym=Some(1) id=3 attrs@4",
                "text \"hi\" id=4",
                "end b sym=Some(1)",
                "start unknown sym=None id=5 attrs@6",
                "end unknown sym=None",
                "end a sym=Some(0)",
            ]
        );
        assert_eq!(stats.elements, 3);
        assert_eq!(stats.text_nodes, 1);
        // StartDocument + 3 starts + 3 ends + 1 text + EndDocument.
        assert_eq!(stats.events, 9);
    }

    #[test]
    fn driver_is_reusable_and_renumbers() {
        let mut interner = Interner::new();
        interner.intern("a");
        let mut sink = Recorder { interner, log: Vec::new() };
        let mut driver = DocumentDriver::new();
        driver.run(XmlReader::from_str("<a><a/></a>"), &mut sink).unwrap();
        sink.log.clear();
        driver.run(XmlReader::from_str("<a/>"), &mut sink).unwrap();
        assert_eq!(sink.log, ["start a sym=Some(0) id=0 attrs@1", "end a sym=Some(0)"]);
    }

    #[test]
    fn malformed_input_surfaces_error() {
        let mut sink = Recorder { interner: Interner::new(), log: Vec::new() };
        let err = DocumentDriver::new().run(XmlReader::from_str("<a><b></a>"), &mut sink);
        assert!(err.is_err());
    }
}
