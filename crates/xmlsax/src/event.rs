//! SAX event types produced by the pull reader.
//!
//! The event vocabulary mirrors what the ViteX paper's TwigM machine
//! consumes: `startElement` and `endElement` carry the element **level**
//! (depth; the root element is level 1), which is the quantity the machine's
//! stack entries store, plus byte spans for fragment identification.
//!
//! Events are **borrowed**: [`crate::XmlReader::next_event`] lends names,
//! attributes and text from buffers the reader owns and refills, so an
//! event lives until the next call. [`XmlEvent::into_owned`] turns one into
//! an `XmlEvent<'static>`, the owned form of the same types.

use std::borrow::Cow;
use std::fmt;

use crate::pos::ByteSpan;

/// The attributes of one start tag, owned: every name and normalized value
/// (entities expanded, whitespace normalization applied) back to back in
/// one string, with a table of where each ends. The reader keeps one and
/// refills it per start tag; [`AttributeBuf::view`] reads it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AttributeBuf {
    /// Names and values in document order.
    pub(crate) text: String,
    /// Per attribute, the ends of its name and of its value in `text`; the
    /// name starts where the previous value ended.
    pub(crate) ends: Vec<(usize, usize)>,
}

impl AttributeBuf {
    /// An empty attribute list with room for `bytes` of names and values.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        AttributeBuf { text: String::with_capacity(bytes), ends: Vec::new() }
    }

    /// Removes every attribute, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// The name of attribute `k`.
    pub(crate) fn name(&self, k: usize) -> &str {
        let start = k.checked_sub(1).map_or(0, |j| self.ends[j].1);
        &self.text[start..self.ends[k].0]
    }

    /// The borrowed view.
    pub fn view(&self) -> Attributes<'_> {
        Attributes { text: &self.text, ends: &self.ends }
    }
}

/// Builds a list from `(name, value)` pairs, unchecked for duplicates.
impl<'n, 'v> FromIterator<(&'n str, &'v str)> for AttributeBuf {
    fn from_iter<I: IntoIterator<Item = (&'n str, &'v str)>>(pairs: I) -> Self {
        let mut buf = AttributeBuf::default();
        for (name, value) in pairs {
            buf.text.push_str(name);
            let name_end = buf.text.len();
            buf.text.push_str(value);
            buf.ends.push((name_end, buf.text.len()));
        }
        buf
    }
}

impl fmt::Debug for AttributeBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A start tag's attributes as `(name, value)` pairs in document order,
/// borrowed from an [`AttributeBuf`]. The default is the empty list.
#[derive(Clone, Copy, Default)]
pub struct Attributes<'a> {
    text: &'a str,
    ends: &'a [(usize, usize)],
}

impl<'a> Attributes<'a> {
    /// Number of attributes.
    pub fn len(self) -> usize {
        self.ends.len()
    }

    /// Whether the tag has no attributes.
    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// The `(name, value)` pairs in document order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> {
        let mut start = 0;
        self.ends.iter().map(move |&(name_end, value_end)| {
            let pair = (&self.text[start..name_end], &self.text[name_end..value_end]);
            start = value_end;
            pair
        })
    }

    /// Looks up an attribute value by exact name.
    pub fn get(self, name: &str) -> Option<&'a str> {
        self.iter().find(|&(n, _)| n == name).map(|(_, value)| value)
    }
}

impl fmt::Debug for Attributes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A `startElement` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartElementEvent<'a> {
    /// The element name as written (prefix included).
    pub name: Cow<'a, str>,
    /// The attributes; [`StartElementEvent::attributes`] views them.
    pub attrs: Cow<'a, AttributeBuf>,
    /// Depth of this element; the root element has level 1.
    pub level: u32,
    /// Byte span of the start tag itself (`<` through `>`). A
    /// self-closing tag (`<a/>`) still gets a matching
    /// [`XmlEvent::EndElement`], so consumers see a uniform open/close
    /// discipline.
    pub span: ByteSpan,
}

impl StartElementEvent<'_> {
    /// The attributes in document order.
    pub fn attributes(&self) -> Attributes<'_> {
        self.attrs.view()
    }

    /// Looks up an attribute value by exact name.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes().get(name)
    }

    /// Copies whatever the event borrows.
    pub fn into_owned(self) -> StartElementEvent<'static> {
        StartElementEvent {
            name: Cow::Owned(self.name.into_owned()),
            attrs: Cow::Owned(self.attrs.into_owned()),
            level: self.level,
            span: self.span,
        }
    }
}

/// An `endElement` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndElementEvent<'a> {
    /// The element name.
    pub name: Cow<'a, str>,
    /// Depth of the element being closed (same value its start event had).
    pub level: u32,
    /// Byte span of the whole element, `<` of the start tag through `>` of
    /// the end tag — this is what identifies a result *fragment*.
    pub element_span: ByteSpan,
}

impl EndElementEvent<'_> {
    /// Copies whatever the event borrows.
    pub fn into_owned(self) -> EndElementEvent<'static> {
        EndElementEvent {
            name: Cow::Owned(self.name.into_owned()),
            level: self.level,
            element_span: self.element_span,
        }
    }
}

/// A run of character data.
///
/// Adjacent character data and CDATA sections are merged into a single
/// event, matching the XPath data model in which text nodes are maximal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharactersEvent<'a> {
    /// The decoded text (entities expanded, line endings normalized).
    pub text: Cow<'a, str>,
    /// Depth of the *parent* element of this text node.
    pub level: u32,
    /// Byte span covering the raw source of the text run.
    pub span: ByteSpan,
}

impl CharactersEvent<'_> {
    /// Copies whatever the event borrows.
    pub fn into_owned(self) -> CharactersEvent<'static> {
        CharactersEvent { text: Cow::Owned(self.text.into_owned()), ..self }
    }
}

/// A processing instruction `<?target data?>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessingInstructionEvent<'a> {
    /// The PI target.
    pub target: Cow<'a, str>,
    /// The PI data (possibly empty).
    pub data: Cow<'a, str>,
}

/// One SAX event in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// Emitted once, before any other event. Carries the declared version
    /// and encoding if an XML declaration was present.
    StartDocument {
        /// `version` pseudo-attribute of the XML declaration, if present.
        version: Option<String>,
        /// `encoding` pseudo-attribute of the XML declaration, if present.
        encoding: Option<String>,
    },
    /// An element opened.
    StartElement(StartElementEvent<'a>),
    /// An element closed.
    EndElement(EndElementEvent<'a>),
    /// Character data (text and/or CDATA).
    Characters(CharactersEvent<'a>),
    /// A comment (`<!-- ... -->`); content without the delimiters.
    Comment(Cow<'a, str>),
    /// A processing instruction.
    ProcessingInstruction(ProcessingInstructionEvent<'a>),
    /// A DOCTYPE declaration was seen (name only; the internal subset has
    /// been scanned for entity declarations).
    DoctypeDeclaration {
        /// The declared document-type name.
        name: String,
    },
    /// The document ended cleanly. Returned again on further calls.
    EndDocument,
}

impl XmlEvent<'_> {
    /// Whether this is the terminal event.
    pub fn is_end_document(&self) -> bool {
        matches!(self, XmlEvent::EndDocument)
    }

    /// Copies whatever the event borrows: the owned form, which outlives
    /// the reader's next call.
    pub fn into_owned(self) -> XmlEvent<'static> {
        match self {
            XmlEvent::StartDocument { version, encoding } => {
                XmlEvent::StartDocument { version, encoding }
            }
            XmlEvent::StartElement(e) => XmlEvent::StartElement(e.into_owned()),
            XmlEvent::EndElement(e) => XmlEvent::EndElement(e.into_owned()),
            XmlEvent::Characters(c) => XmlEvent::Characters(c.into_owned()),
            XmlEvent::Comment(c) => XmlEvent::Comment(Cow::Owned(c.into_owned())),
            XmlEvent::ProcessingInstruction(ProcessingInstructionEvent { target, data }) => {
                XmlEvent::ProcessingInstruction(ProcessingInstructionEvent {
                    target: Cow::Owned(target.into_owned()),
                    data: Cow::Owned(data.into_owned()),
                })
            }
            XmlEvent::DoctypeDeclaration { name } => XmlEvent::DoctypeDeclaration { name },
            XmlEvent::EndDocument => XmlEvent::EndDocument,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn attribute_lookup() {
        let attrs: AttributeBuf = [("id", "1"), ("x", "2")].into_iter().collect();
        let e = StartElementEvent {
            name: "a".into(),
            attrs: Cow::Borrowed(&attrs),
            level: 1,
            span: ByteSpan::new(0, 10),
        };
        assert_eq!(e.attribute("id"), Some("1"));
        assert_eq!(e.attribute("x"), Some("2"));
        assert_eq!(e.attribute("nope"), None);
        assert_eq!(e.attributes().len(), 2);
        assert_eq!(e.attributes().iter().collect::<Vec<_>>(), [("id", "1"), ("x", "2")]);
        assert_eq!(format!("{attrs:?}"), r#"{"id": "1", "x": "2"}"#);
    }

    #[test]
    fn owned_events_equal_borrowed_ones() {
        let attrs: AttributeBuf = [("k", "")].into_iter().collect();
        let borrowed = XmlEvent::StartElement(StartElementEvent {
            name: Cow::Borrowed("a"),
            attrs: Cow::Borrowed(&attrs),
            level: 1,
            span: ByteSpan::new(0, 8),
        });
        let owned = borrowed.clone().into_owned();
        assert_eq!(owned, borrowed);
        let XmlEvent::StartElement(e) = owned else { unreachable!() };
        assert_eq!(e.attribute("k"), Some(""));
        assert!(matches!(e.name, Cow::Owned(_)) && matches!(e.attrs, Cow::Owned(_)));
    }
}
