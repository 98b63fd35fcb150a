//! A streaming XML writer.
//!
//! Used by the `vitex-xmlgen` dataset generators to synthesize arbitrarily
//! large documents without materializing them, and by tests to round-trip
//! event streams. The writer enforces the same discipline the reader
//! checks: elements must nest, names must be valid, text is escaped.

use std::io::{self, Write};

use crate::escape::{escape_attr, escape_text};
use crate::name;

/// Errors produced by the writer.
#[derive(Debug)]
pub enum WriteError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Attempted to write an invalid name.
    InvalidName(String),
    /// `end_element` with no open element.
    NothingOpen,
    /// The document already has a root element and it was closed.
    RootClosed,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Io(e) => write!(f, "I/O error: {e}"),
            WriteError::InvalidName(n) => write!(f, "invalid XML name {n:?}"),
            WriteError::NothingOpen => write!(f, "end_element with no open element"),
            WriteError::RootClosed => write!(f, "content after the root element closed"),
        }
    }
}

impl std::error::Error for WriteError {}

impl From<io::Error> for WriteError {
    fn from(e: io::Error) -> Self {
        WriteError::Io(e)
    }
}

/// Result alias for writer operations.
pub type WriteResult<T> = Result<T, WriteError>;

/// A streaming XML writer over any [`Write`]: everything on one line, so
/// text nodes round-trip as written.
pub struct XmlWriter<W: Write> {
    sink: W,
    open: Vec<String>,
    /// The current start tag is still open (`<name attr=...`), awaiting
    /// either more attributes, content (close with `>`), or self-close.
    tag_open: bool,
    root_closed: bool,
    bytes_written: u64,
}

impl<W: Write> XmlWriter<W> {
    /// Creates a writer.
    pub fn new(sink: W) -> Self {
        XmlWriter { sink, open: Vec::new(), tag_open: false, root_closed: false, bytes_written: 0 }
    }

    /// Total bytes emitted so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    fn raw(&mut self, s: &str) -> WriteResult<()> {
        self.sink.write_all(s.as_bytes())?;
        self.bytes_written += s.len() as u64;
        Ok(())
    }

    fn close_pending_tag(&mut self) -> WriteResult<()> {
        if self.tag_open {
            self.raw(">")?;
            self.tag_open = false;
        }
        Ok(())
    }

    /// Writes the XML declaration. Must be first.
    pub fn declaration(&mut self) -> WriteResult<()> {
        self.raw("<?xml version=\"1.0\" encoding=\"UTF-8\"?>")
    }

    /// Opens an element.
    pub fn start_element(&mut self, tag: &str) -> WriteResult<()> {
        if !name::is_valid_name(tag) {
            return Err(WriteError::InvalidName(tag.into()));
        }
        if self.root_closed {
            return Err(WriteError::RootClosed);
        }
        self.close_pending_tag()?;
        self.raw("<")?;
        self.raw(tag)?;
        self.open.push(tag.to_owned());
        self.tag_open = true;
        Ok(())
    }

    /// Adds an attribute to the element opened by the last
    /// [`XmlWriter::start_element`] (before any content was written).
    pub fn attribute(&mut self, attname: &str, value: &str) -> WriteResult<()> {
        if !name::is_valid_name(attname) {
            return Err(WriteError::InvalidName(attname.into()));
        }
        assert!(self.tag_open, "attribute() must directly follow start_element()");
        let escaped = escape_attr(value).into_owned();
        self.raw(" ")?;
        self.raw(attname)?;
        self.raw("=\"")?;
        self.raw(&escaped)?;
        self.raw("\"")?;
        Ok(())
    }

    /// Writes escaped character data.
    pub fn text(&mut self, content: &str) -> WriteResult<()> {
        if content.is_empty() {
            return Ok(());
        }
        self.close_pending_tag()?;
        let escaped = escape_text(content).into_owned();
        self.raw(&escaped)
    }

    /// Closes the innermost open element (self-closing form if it had no
    /// content).
    pub fn end_element(&mut self) -> WriteResult<()> {
        let tag = self.open.pop().ok_or(WriteError::NothingOpen)?;
        if self.tag_open {
            self.raw("/>")?;
            self.tag_open = false;
        } else {
            self.raw("</")?;
            self.raw(&tag)?;
            self.raw(">")?;
        }
        if self.open.is_empty() {
            self.root_closed = true;
        }
        Ok(())
    }

    /// Convenience: `start_element` + `text` + `end_element`.
    pub fn leaf(&mut self, tag: &str, content: &str) -> WriteResult<()> {
        self.start_element(tag)?;
        self.text(content)?;
        self.end_element()
    }

    /// Closes all open elements and flushes the sink.
    pub fn finish(&mut self) -> WriteResult<()> {
        while !self.open.is_empty() {
            self.end_element()?;
        }
        self.sink.flush()?;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::event::XmlEvent;
    use crate::reader::XmlReader;

    /// Writes a document to an in-memory string using a builder closure.
    fn write_to_string(
        f: impl FnOnce(&mut XmlWriter<&mut Vec<u8>>) -> WriteResult<()>,
    ) -> WriteResult<String> {
        let mut buf = Vec::new();
        {
            let mut w = XmlWriter::new(&mut buf);
            f(&mut w)?;
            w.finish()?;
        }
        Ok(String::from_utf8(buf).expect("writer emits UTF-8"))
    }

    #[test]
    fn writes_simple_document() {
        let s = write_to_string(|w| {
            w.declaration()?;
            w.start_element("book")?;
            w.attribute("id", "b1")?;
            w.leaf("title", "Streaming <XPath> & more")?;
            w.end_element()
        })
        .unwrap();
        assert_eq!(
            s,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\
             <book id=\"b1\"><title>Streaming &lt;XPath&gt; &amp; more</title></book>"
        );
    }

    #[test]
    fn self_closing_for_empty_elements() {
        let s = write_to_string(|w| {
            w.start_element("a")?;
            w.start_element("b")?;
            w.end_element()?;
            w.end_element()
        })
        .unwrap();
        assert_eq!(s, "<a><b/></a>");
    }

    #[test]
    fn escapes_attribute_values() {
        let s = write_to_string(|w| {
            w.start_element("a")?;
            w.attribute("q", "say \"hi\" & <go>")?;
            w.end_element()
        })
        .unwrap();
        assert_eq!(s, "<a q=\"say &quot;hi&quot; &amp; &lt;go&gt;\"/>");
    }

    #[test]
    fn rejects_invalid_names() {
        let err = write_to_string(|w| w.start_element("9bad")).unwrap_err();
        assert!(matches!(err, WriteError::InvalidName(_)));
    }

    #[test]
    fn rejects_second_root() {
        let err = write_to_string(|w| {
            w.start_element("a")?;
            w.end_element()?;
            w.start_element("b")
        })
        .unwrap_err();
        assert!(matches!(err, WriteError::RootClosed));
    }

    #[test]
    fn end_without_open_errors() {
        let err = write_to_string(|w| w.end_element()).unwrap_err();
        assert!(matches!(err, WriteError::NothingOpen));
    }

    #[test]
    fn finish_closes_everything() {
        let mut buf = Vec::new();
        let mut w = XmlWriter::new(&mut buf);
        w.start_element("a").unwrap();
        w.start_element("b").unwrap();
        w.text("t").unwrap();
        w.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "<a><b>t</b></a>");
    }

    #[test]
    fn round_trips_through_reader() {
        let s = write_to_string(|w| {
            w.declaration()?;
            w.start_element("root")?;
            w.attribute("version", "1 & 2")?;
            w.leaf("x", "a<b")?;
            w.leaf("y", "tab\tnewline\nquote\"")?;
            w.end_element()
        })
        .unwrap();
        let events = XmlReader::from_str(&s).collect_events().unwrap();
        let starts: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                XmlEvent::StartElement(se) => Some(&*se.name),
                _ => None,
            })
            .collect();
        assert_eq!(starts, ["root", "x", "y"]);
    }
}
