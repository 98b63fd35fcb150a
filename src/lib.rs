//! # ViteX — a streaming XPath processing system
//!
//! A from-scratch Rust reproduction of *"ViteX: A Streaming XPath
//! Processing System"* (Yi Chen, Susan B. Davidson, Yifeng Zheng —
//! ICDE 2005): polynomial-time evaluation of XP{/, //, *, []} queries over
//! XML streams via the **TwigM machine**, which encodes exponentially many
//! pattern matches in polynomial-size per-query-node stacks and computes
//! solutions by lazy probing, never enumerating matches.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`xmlsax`] — the streaming SAX parser substrate,
//! * [`xpath`] — the XPath front-end (parser + query tree),
//! * [`core`] — the TwigM builder/machine/engine (the paper's
//!   contribution),
//! * [`baseline`] — the DOM oracle, the exponential naive enumerator, and
//!   an NFA filter (comparison points),
//! * [`xmlgen`] — synthetic dataset generators (protein / recursive /
//!   random / auction).
//!
//! ## Quickstart
//!
//! ```
//! let xml = r#"<ProteinDatabase>
//!     <ProteinEntry id="PIR1"><reference>r</reference></ProteinEntry>
//!     <ProteinEntry id="PIR2"/>
//! </ProteinDatabase>"#;
//!
//! let matches = vitex::evaluate(xml, "//ProteinEntry[reference]/@id").unwrap();
//! assert_eq!(matches.len(), 1);
//! assert_eq!(matches[0].value.as_deref(), Some("PIR1"));
//! ```
//!
//! For streaming use (results delivered as soon as they are decidable),
//! see [`core::Engine::run`] and `examples/stock_ticker.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vitex_baseline as baseline;
pub use vitex_core as core;
pub use vitex_xmlgen as xmlgen;
pub use vitex_xmlsax as xmlsax;
pub use vitex_xpath as xpath;

pub use vitex_core::{evaluate_str as evaluate, EngineError, Match, MatchKind};

/// The most common imports in one line.
pub mod prelude {
    pub use vitex_core::{
        evaluate_reader, evaluate_str, CandidateStore, DocumentDriver, Engine, EvalMode, EventSink,
        Match, MatchKind, MultiEngine, ShardSession, ShardedEngine, TwigM,
    };
    pub use vitex_xmlsax::{XmlEvent, XmlReader};
    pub use vitex_xpath::{parse as parse_query, QueryTree};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_evaluate_works() {
        let ms = crate::evaluate("<a><b/></a>", "//b").unwrap();
        assert_eq!(ms.len(), 1);
    }
}
