//! An in-memory document tree for the non-streaming oracle.
//!
//! Node ids are assigned with exactly the same document-order numbering the
//! streaming engine uses (element, then its attributes, then content), so
//! oracle results and TwigM results are directly comparable sets.

use std::io::Read;

use vitex_xmlsax::pos::ByteSpan;
use vitex_xmlsax::{XmlEvent, XmlReader, XmlResult};

/// Arena index of a node.
pub type DomIdx = usize;

/// An attribute of an element node.
#[derive(Debug, Clone, PartialEq)]
pub struct DomAttr {
    /// Document-order id.
    pub id: u64,
    /// Attribute name.
    pub name: String,
    /// Normalized value.
    pub value: String,
}

/// Node payload.
#[derive(Debug, Clone, PartialEq)]
pub enum DomKind {
    /// The virtual document root (parent of the root element).
    Root,
    /// An element.
    Element {
        /// Tag name.
        name: String,
        /// Attributes in document order.
        attributes: Vec<DomAttr>,
    },
    /// A text node (coalesced, like the streaming side).
    Text {
        /// Decoded content.
        content: String,
    },
}

/// One node in the arena.
#[derive(Debug, Clone, PartialEq)]
pub struct DomNode {
    /// Document-order id (meaningless for the virtual root).
    pub id: u64,
    /// Payload.
    pub kind: DomKind,
    /// Parent arena index (`None` for the virtual root).
    pub parent: Option<DomIdx>,
    /// Child arena indices (elements and text, document order).
    pub children: Vec<DomIdx>,
    /// Element nesting level (root element = 1; virtual root = 0).
    pub level: u32,
    /// Source span (whole element / text run).
    pub span: ByteSpan,
}

impl DomNode {
    /// Element name, if this is an element.
    pub fn name(&self) -> Option<&str> {
        match &self.kind {
            DomKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attributes, if this is an element.
    pub fn attributes(&self) -> &[DomAttr] {
        match &self.kind {
            DomKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Whether this is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self.kind, DomKind::Text { .. })
    }

    /// Whether this is an element node.
    pub fn is_element(&self) -> bool {
        matches!(self.kind, DomKind::Element { .. })
    }
}

/// A parsed document.
#[derive(Debug, Clone)]
pub struct Document {
    arena: Vec<DomNode>,
}

impl Document {
    /// Parses a document from a reader.
    pub fn parse_reader<R: Read>(mut reader: XmlReader<R>) -> XmlResult<Document> {
        let mut arena = vec![DomNode {
            id: u64::MAX,
            kind: DomKind::Root,
            parent: None,
            children: Vec::new(),
            level: 0,
            span: ByteSpan::new(0, 0),
        }];
        let mut stack: Vec<DomIdx> = vec![0];
        let mut next_id: u64 = 0;
        loop {
            match reader.next_event()? {
                XmlEvent::StartElement(e) => {
                    let id = next_id;
                    next_id += 1;
                    let attributes = e
                        .attributes()
                        .iter()
                        .map(|(name, value)| {
                            let aid = next_id;
                            next_id += 1;
                            DomAttr { id: aid, name: name.into(), value: value.into() }
                        })
                        .collect();
                    let parent = *stack.last().expect("stack holds at least the root");
                    let idx = arena.len();
                    arena.push(DomNode {
                        id,
                        kind: DomKind::Element { name: e.name.into_owned(), attributes },
                        parent: Some(parent),
                        children: Vec::new(),
                        level: e.level,
                        span: e.span, // widened to the element span at close
                    });
                    arena[parent].children.push(idx);
                    stack.push(idx);
                }
                XmlEvent::EndElement(e) => {
                    let idx = stack.pop().expect("balanced tags");
                    arena[idx].span = e.element_span;
                }
                XmlEvent::Characters(c) => {
                    let id = next_id;
                    next_id += 1;
                    let parent = *stack.last().expect("stack holds at least the root");
                    let idx = arena.len();
                    arena.push(DomNode {
                        id,
                        kind: DomKind::Text { content: c.text.into_owned() },
                        parent: Some(parent),
                        children: Vec::new(),
                        level: c.level,
                        span: c.span,
                    });
                    arena[parent].children.push(idx);
                }
                XmlEvent::EndDocument => break,
                _ => {}
            }
        }
        Ok(Document { arena })
    }

    /// Parses a document from a string.
    pub fn parse_str(xml: &str) -> XmlResult<Document> {
        Document::parse_reader(XmlReader::from_str(xml))
    }

    /// The virtual root (index 0).
    pub fn root(&self) -> DomIdx {
        0
    }

    /// The root element, if the document is non-empty.
    pub fn root_element(&self) -> Option<DomIdx> {
        self.arena[0].children.iter().copied().find(|&c| self.arena[c].is_element())
    }

    /// Node by arena index.
    pub fn node(&self, idx: DomIdx) -> &DomNode {
        &self.arena[idx]
    }

    /// All nodes (arena order = document order).
    pub fn nodes(&self) -> &[DomNode] {
        &self.arena
    }

    /// Number of nodes including the virtual root.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether only the virtual root exists.
    pub fn is_empty(&self) -> bool {
        self.arena.len() == 1
    }

    /// Arena indices of all element nodes.
    pub fn elements(&self) -> impl Iterator<Item = DomIdx> + '_ {
        (0..self.arena.len()).filter(move |&i| self.arena[i].is_element())
    }

    /// Is `anc` a strict ancestor of `idx`?
    pub fn is_ancestor(&self, anc: DomIdx, idx: DomIdx) -> bool {
        let mut cur = self.arena[idx].parent;
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.arena[p].parent;
        }
        false
    }

    /// The XPath string-value of a node: its own text, or the concatenation
    /// of all descendant text in document order.
    pub fn string_value(&self, idx: DomIdx) -> String {
        let mut out = String::new();
        self.collect_text(idx, &mut out);
        out
    }

    fn collect_text(&self, idx: DomIdx, out: &mut String) {
        match &self.arena[idx].kind {
            DomKind::Text { content } => out.push_str(content),
            _ => {
                for &c in &self.arena[idx].children {
                    self.collect_text(c, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_tree() {
        let d = Document::parse_str("<a x=\"1\"><b>t</b><c/></a>").unwrap();
        let root_elem = d.root_element().unwrap();
        let a = d.node(root_elem);
        assert_eq!(a.name(), Some("a"));
        assert_eq!(a.id, 0);
        assert_eq!(a.attributes()[0].id, 1);
        assert_eq!(a.attributes()[0].value, "1");
        assert_eq!(a.children.len(), 2);
        let b = d.node(a.children[0]);
        assert_eq!(b.name(), Some("b"));
        assert_eq!(b.id, 2);
        let t = d.node(b.children[0]);
        assert!(t.is_text());
        assert_eq!(t.id, 3);
        let c = d.node(a.children[1]);
        assert_eq!(c.id, 4);
    }

    #[test]
    fn ids_match_engine_numbering() {
        // Engine: a=0, attrs x=1 y=2, b=3, text=4, c=5.
        let d = Document::parse_str("<a x=\"1\" y=\"2\"><b>t</b><c/></a>").unwrap();
        let ids: Vec<u64> = d.nodes().iter().skip(1).map(|n| n.id).collect();
        assert_eq!(ids, [0, 3, 4, 5]);
        let a = d.node(d.root_element().unwrap());
        assert_eq!(a.attributes().iter().map(|a| a.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let d = Document::parse_str("<a>x<b>y<c>z</c></b>w</a>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "xyzw");
    }

    #[test]
    fn ancestor_relation() {
        let d = Document::parse_str("<a><b><c/></b><d/></a>").unwrap();
        let a = d.root_element().unwrap();
        let b = d.node(a).children[0];
        let c = d.node(b).children[0];
        let dd = d.node(a).children[1];
        assert!(d.is_ancestor(a, c));
        assert!(d.is_ancestor(b, c));
        assert!(!d.is_ancestor(c, b));
        assert!(!d.is_ancestor(b, dd));
        assert!(d.is_ancestor(d.root(), a));
    }

    #[test]
    fn levels_recorded() {
        let d = Document::parse_str("<a><b><c/></b></a>").unwrap();
        let levels: Vec<u32> = d.nodes().iter().map(|n| n.level).collect();
        assert_eq!(levels, [0, 1, 2, 3]);
    }

    #[test]
    fn spans_cover_elements() {
        let xml = "<a><b>t</b></a>";
        let d = Document::parse_str(xml).unwrap();
        let a = d.root_element().unwrap();
        let b = d.node(a).children[0];
        assert_eq!(d.node(b).span.slice(xml.as_bytes()).unwrap(), b"<b>t</b>");
        assert_eq!(d.node(a).span.slice(xml.as_bytes()).unwrap(), xml.as_bytes());
    }

    #[test]
    fn empty_elements_and_iteration() {
        let d = Document::parse_str("<a/>").unwrap();
        assert_eq!(d.elements().count(), 1);
        assert!(!d.is_empty());
        assert_eq!(d.len(), 2); // virtual root + a
    }
}
