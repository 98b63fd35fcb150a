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

/// One query solution: a binding of the query's result node.
///
/// The string payloads (`name`, `value`) are `Arc`-backed: cloning a
/// `Match` bumps two reference counts instead of copying heap text, so a
/// shared plan group fanning one solution out to thousands of subscribers
/// never deep-copies the payload.
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

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MatchKind::Element => {
                write!(
                    f,
                    "element <{}> #{} @{}",
                    self.name.as_deref().unwrap_or("?"),
                    self.node,
                    self.span
                )
            }
            MatchKind::Attribute => write!(
                f,
                "attribute @{}={:?} #{}",
                self.name.as_deref().unwrap_or("?"),
                self.value.as_deref().unwrap_or(""),
                self.node
            ),
            MatchKind::Text => {
                write!(f, "text {:?} #{}", self.value.as_deref().unwrap_or(""), self.node)
            }
        }
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
