//! # vitex-xmlsax — a streaming XML parser for the ViteX system
//!
//! This crate implements the "XML SAX parser" module of the ViteX
//! architecture (Chen, Davidson, Zheng — ICDE 2005, Figure 2): a
//! non-validating, single-pass, forward-only XML 1.0 parser that turns a
//! byte stream into a sequence of SAX-style events without ever building a
//! document tree.
//!
//! It is written from scratch (no external XML dependencies) and is designed
//! for the streaming requirements the paper lists in its motivation section:
//!
//! * **single sequential scan** — input is consumed through any
//!   [`std::io::Read`] with a bounded internal buffer; memory use is
//!   independent of document size,
//! * **incremental delivery** — events are produced as soon as the bytes
//!   forming them have been seen,
//! * **positional accounting** — every event carries byte offsets so that
//!   downstream consumers (the TwigM machine) can identify result fragments
//!   inside the original stream without retaining it.
//!
//! ## APIs
//!
//! The interface is a **pull** API: [`XmlReader`], an iterator-style
//! `next_event()` loop — this is what `vitex-core`'s engine drives (through
//! the [`EventSource`] trait, so a recorded event sequence works too).
//!
//! A streaming [`writer::XmlWriter`] (used by the `vitex-xmlgen` dataset
//! generators) and entity/escaping utilities round out the crate.
//!
//! ## Conformance notes
//!
//! The parser enforces the well-formedness constraints that matter for
//! streaming query processing: balanced and properly nested tags, a single
//! root element, unique attribute names, syntactically valid names, correct
//! comment / CDATA / PI syntax, and XML line-ending + attribute-value
//! normalization. It is **non-validating**: DTD internal subsets are scanned
//! so that internal general entities can be expanded (with configurable
//! bounds that defuse entity-expansion attacks), but no validation is
//! performed and external entities are never fetched.
//!
//! ## Quick example
//!
//! ```
//! use vitex_xmlsax::{XmlReader, XmlEvent};
//!
//! let xml = "<book><title>Streaming XPath</title></book>";
//! let mut reader = XmlReader::from_str(xml);
//! let mut titles = Vec::new();
//! loop {
//!     match reader.next_event().unwrap() {
//!         XmlEvent::StartElement(e) if e.name.as_str() == "title" => {
//!             if let XmlEvent::Characters(t) = reader.next_event().unwrap() {
//!                 titles.push(t.text);
//!             }
//!         }
//!         XmlEvent::EndDocument => break,
//!         _ => {}
//!     }
//! }
//! assert_eq!(titles, ["Streaming XPath"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entities;
pub mod error;
pub mod escape;
pub mod event;
pub mod input;
pub mod name;
pub mod pos;
pub mod probe;
pub mod reader;
pub mod writer;

pub use error::{XmlError, XmlErrorKind, XmlResult};
pub use event::{Attribute, CharactersEvent, EndElementEvent, StartElementEvent, XmlEvent};
pub use name::QName;
pub use pos::TextPosition;
pub use probe::{ParseProbe, ProbeHandle};
pub use reader::{EventSource, ReaderConfig, XmlReader};
