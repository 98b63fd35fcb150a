//! Query solutions ("matches") emitted by the machine.

use std::fmt;
use std::sync::Arc;

use vitex_xmlsax::pos::ByteSpan;

/// Document-order node identifier assigned by the engine: every element,
/// attribute and text node gets the next integer as it is encountered.
/// (The paper subscripts nodes by line number — `cell_8` — for the same
/// purpose; byte-offset-free ids keep matches comparable across
/// serializations.)
pub type NodeId = u64;

/// A registered standing query's handle in the multi-query engine.
///
/// Ids are dense registration indices and stay valid for the engine's
/// lifetime — [`crate::multi::MultiEngine::remove_query`] retires an id
/// without renumbering the rest. Lives here (with [`NodeId`]) rather than
/// in `multi` because the plan layer attaches subscriber lists to shared
/// machines without otherwise depending on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// What kind of document node a match binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// An element node.
    Element,
    /// An attribute node.
    Attribute,
    /// A text node.
    Text,
}

/// One query solution as the machine hands it out: a binding of the
/// query's result node, with `name` and `value` borrowed from the machine's
/// string pool for the length of the callback.
///
/// `Copy` and allocation-free: a shared plan group hands one solution to
/// all the subscribers a binding reaches in a single callback, so fanning
/// it out to thousands of them never copies the payload — nor builds an
/// owned [`Match`] unless a caller asks for one (`Match::from`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRef<'a> {
    /// Kind of the matched node.
    pub kind: MatchKind,
    /// Document-order id of the matched node.
    pub node: NodeId,
    /// Element name or attribute name (`None` for text nodes).
    pub name: Option<&'a str>,
    /// Byte span in the source stream (see [`Match::span`]).
    pub span: ByteSpan,
    /// Attribute value or text content (`None` for elements).
    pub value: Option<&'a str>,
    /// Depth of the matched node's element context (see [`Match::level`]).
    pub level: u32,
}

impl fmt::Display for MatchRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MatchKind::Element => {
                write!(f, "element <{}> #{} @{}", self.name.unwrap_or("?"), self.node, self.span)
            }
            MatchKind::Attribute => write!(
                f,
                "attribute @{}={:?} #{}",
                self.name.unwrap_or("?"),
                self.value.unwrap_or(""),
                self.node
            ),
            MatchKind::Text => write!(f, "text {:?} #{}", self.value.unwrap_or(""), self.node),
        }
    }
}

/// One query solution, owned: what the collecting adapters
/// ([`crate::Engine::run`], [`crate::MultiEngine::run`]) keep.
///
/// The string payloads (`name`, `value`) are `Arc`-backed, so a match
/// delivered to several subscriptions is built once and each copy bumps
/// two reference counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Kind of the matched node.
    pub kind: MatchKind,
    /// Document-order id of the matched node.
    pub node: NodeId,
    /// Element name or attribute name (`None` for text nodes).
    pub name: Option<Arc<str>>,
    /// Byte span in the source stream: the whole element for elements, the
    /// owning start tag for attributes, the raw text run for text nodes.
    /// Slicing a retained document with this span yields the result
    /// *fragment* the paper's system outputs.
    pub span: ByteSpan,
    /// Attribute value or text content (`None` for elements — their content
    /// is identified by `span` so the machine's memory stays independent of
    /// match sizes).
    pub value: Option<Arc<str>>,
    /// Depth of the matched node's element context (the element itself for
    /// element matches; the owner element for attributes and text).
    pub level: u32,
}

impl Match {
    /// The borrowed view of this match.
    pub fn as_ref(&self) -> MatchRef<'_> {
        MatchRef {
            kind: self.kind,
            node: self.node,
            name: self.name.as_deref(),
            span: self.span,
            value: self.value.as_deref(),
            level: self.level,
        }
    }
}

impl From<MatchRef<'_>> for Match {
    fn from(m: MatchRef<'_>) -> Self {
        Match {
            kind: m.kind,
            node: m.node,
            name: m.name.map(Arc::from),
            span: m.span,
            value: m.value.map(Arc::from),
            level: m.level,
        }
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(node: NodeId) -> Match {
        Match {
            kind: MatchKind::Element,
            node,
            name: Some("a".into()),
            span: ByteSpan::new(0, 1),
            value: None,
            level: 1,
        }
    }

    #[test]
    fn display_formats() {
        assert!(m(7).to_string().contains("element <a> #7"));
        let attr = Match {
            kind: MatchKind::Attribute,
            node: 2,
            name: Some("id".into()),
            span: ByteSpan::new(0, 4),
            value: Some("x".into()),
            level: 1,
        };
        assert_eq!(attr.to_string(), "attribute @id=\"x\" #2");
        assert_eq!(Match::from(attr.as_ref()), attr, "an owned match round-trips");
        let text = Match {
            kind: MatchKind::Text,
            node: 3,
            name: None,
            span: ByteSpan::new(0, 4),
            value: Some("hi".into()),
            level: 1,
        };
        assert_eq!(text.to_string(), "text \"hi\" #3");
    }
}
