//! SAX event types produced by the pull reader.
//!
//! The event vocabulary mirrors what the ViteX paper's TwigM machine
//! consumes: `startElement` and `endElement` carry the element **level**
//! (depth; the root element is level 1), which is the quantity the machine's
//! stack entries store, plus byte spans for fragment identification.

use crate::name::QName;
use crate::pos::ByteSpan;

/// A single attribute of a start tag, with its value fully normalized
/// (entities expanded, whitespace normalization applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// The attribute name as written.
    pub name: QName,
    /// The normalized attribute value.
    pub value: String,
}

impl Attribute {
    /// Convenience constructor.
    pub fn new(name: impl Into<QName>, value: impl Into<String>) -> Self {
        Attribute { name: name.into(), value: value.into() }
    }
}

/// A `startElement` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartElementEvent {
    /// The element name.
    pub name: QName,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Depth of this element; the root element has level 1.
    pub level: u32,
    /// Byte span of the start tag itself (`<` through `>`). A
    /// self-closing tag (`<a/>`) still gets a matching
    /// [`XmlEvent::EndElement`], so consumers see a uniform open/close
    /// discipline.
    pub span: ByteSpan,
}

impl StartElementEvent {
    /// Looks up an attribute value by exact name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|a| a.name.as_str() == name).map(|a| a.value.as_str())
    }
}

/// An `endElement` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndElementEvent {
    /// The element name.
    pub name: QName,
    /// Depth of the element being closed (same value its start event had).
    pub level: u32,
    /// Byte span of the whole element, `<` of the start tag through `>` of
    /// the end tag — this is what identifies a result *fragment*.
    pub element_span: ByteSpan,
}

/// A run of character data.
///
/// Adjacent character data and CDATA sections are merged into a single
/// event, matching the XPath data model in which text nodes are maximal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharactersEvent {
    /// The decoded text (entities expanded, line endings normalized).
    pub text: String,
    /// Depth of the *parent* element of this text node.
    pub level: u32,
    /// Byte span covering the raw source of the text run.
    pub span: ByteSpan,
}

/// A processing instruction `<?target data?>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessingInstructionEvent {
    /// The PI target.
    pub target: String,
    /// The PI data (possibly empty).
    pub data: String,
}

/// One SAX event in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// Emitted once, before any other event. Carries the declared version
    /// and encoding if an XML declaration was present.
    StartDocument {
        /// `version` pseudo-attribute of the XML declaration, if present.
        version: Option<String>,
        /// `encoding` pseudo-attribute of the XML declaration, if present.
        encoding: Option<String>,
    },
    /// An element opened.
    StartElement(StartElementEvent),
    /// An element closed.
    EndElement(EndElementEvent),
    /// Character data (text and/or CDATA).
    Characters(CharactersEvent),
    /// A comment (`<!-- ... -->`); content without the delimiters.
    Comment(String),
    /// A processing instruction.
    ProcessingInstruction(ProcessingInstructionEvent),
    /// A DOCTYPE declaration was seen (name only; the internal subset has
    /// been scanned for entity declarations).
    DoctypeDeclaration {
        /// The declared document-type name.
        name: String,
    },
    /// The document ended cleanly. Returned again on further calls.
    EndDocument,
}

impl XmlEvent {
    /// Short tag for diagnostics and tests.
    pub fn kind_name(&self) -> &'static str {
        match self {
            XmlEvent::StartDocument { .. } => "StartDocument",
            XmlEvent::StartElement(_) => "StartElement",
            XmlEvent::EndElement(_) => "EndElement",
            XmlEvent::Characters(_) => "Characters",
            XmlEvent::Comment(_) => "Comment",
            XmlEvent::ProcessingInstruction(_) => "ProcessingInstruction",
            XmlEvent::DoctypeDeclaration { .. } => "Doctype",
            XmlEvent::EndDocument => "EndDocument",
        }
    }

    /// Whether this is the terminal event.
    pub fn is_end_document(&self) -> bool {
        matches!(self, XmlEvent::EndDocument)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_lookup() {
        let e = StartElementEvent {
            name: "a".into(),
            attributes: vec![Attribute::new("id", "1"), Attribute::new("x", "2")],
            level: 1,
            span: ByteSpan::new(0, 10),
        };
        assert_eq!(e.attribute("id"), Some("1"));
        assert_eq!(e.attribute("x"), Some("2"));
        assert_eq!(e.attribute("nope"), None);
    }

    #[test]
    fn kind_names() {
        assert_eq!(XmlEvent::EndDocument.kind_name(), "EndDocument");
        assert!(XmlEvent::EndDocument.is_end_document());
        assert_eq!(XmlEvent::Comment(String::new()).kind_name(), "Comment");
        assert!(!XmlEvent::Comment(String::new()).is_end_document());
    }
}
