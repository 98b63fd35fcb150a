//! The streaming pull parser.
//!
//! [`XmlReader`] drives the two-stage scanner (`crate::input`) through
//! the XML grammar and lends
//! [`XmlEvent`]s one at a time. It is the "XML SAX parser" box of the ViteX
//! architecture diagram; `vitex-core`'s engine calls [`XmlReader::next_event`]
//! in a loop and feeds each event to the TwigM machine.
//!
//! Events borrow names, attributes and text from buffers the reader keeps
//! and refills (the open-element names, one attribute buffer, one text
//! buffer), so a pass allocates only while those buffers grow to the
//! document's largest tag and text run.
//!
//! Well-formedness is enforced incrementally: the reader maintains exactly
//! one piece of unbounded state — the stack of open element names — whose
//! size is the document depth, not the document length.

use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};
use std::io::{Cursor, Read};

use crate::entities::{self, EntityLimits, EntityTable};
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::event::{
    AttributeBuf, CharactersEvent, EndElementEvent, ProcessingInstructionEvent, StartElementEvent,
    XmlEvent,
};
use crate::input::Scanner;
use crate::name;
use crate::pos::{ByteSpan, TextPosition};
use crate::probe::ProbeHandle;

/// Configuration for [`XmlReader`]: input limits only. What the reader
/// reports is fixed by the XPath data model — adjacent character data and
/// CDATA sections are one [`XmlEvent::Characters`] event (a text node),
/// and whitespace-only text is reported (string-values include it).
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Bounds on entity expansion.
    pub entity_limits: EntityLimits,
    /// Maximum element nesting depth. Default: 4096.
    pub max_depth: usize,
    /// Sliding-window buffer size in bytes. Default: 64 KiB.
    pub buffer_capacity: usize,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        ReaderConfig {
            entity_limits: EntityLimits::default(),
            max_depth: 4096,
            buffer_capacity: 64 * 1024,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DocState {
    /// Nothing consumed yet (BOM / XML declaration pending).
    Init,
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    InRoot,
    /// After the root element closed.
    Epilog,
    /// `EndDocument` has been delivered.
    Done,
}

/// What the next call owes before it reads on. An end event lends the
/// innermost open name, so the name is popped one call later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owed {
    Nothing,
    /// The end event of a self-closing tag whose start tag ended at this
    /// offset.
    End(u64),
    /// The innermost element closed: pop it.
    Pop,
}

/// Reference expansion: the entity table and its bounds.
struct References {
    table: EntityTable,
    limits: EntityLimits,
    /// The body of a character reference or declared entity.
    body: String,
}

/// Initial capacity of the name, attribute and text buffers. They start
/// non-empty so that how a buffer grows depends only on the lengths it
/// reaches, not on the pieces it was filled in (`&amp;` then a run, or one
/// run).
const BUFFER_START: usize = 64;

/// What [`XmlReader::skip_subtree`] walked past: the events
/// [`XmlReader::next_event`] would have returned in its place, and the
/// document-order node ids their nodes would have taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Skipped {
    /// Events: start and end tags, text nodes, comments and processing
    /// instructions.
    pub events: u64,
    /// Start tags.
    pub elements: u64,
    /// Text nodes.
    pub text_nodes: u64,
    /// Node ids: one per element plus one per attribute, one per text
    /// node.
    pub node_ids: u64,
}

/// A streaming, pull-based XML parser.
pub struct XmlReader<R: Read> {
    scanner: Scanner<R>,
    max_depth: usize,
    state: DocState,
    /// Names of the open elements, back to back (innermost last). Bytes
    /// past the last end are scratch for the tag being read.
    names: String,
    /// Where each open element's name ends in `names`.
    name_ends: Vec<usize>,
    /// Byte offset of the `<` of each open element's start tag.
    open_starts: Vec<u64>,
    /// The attributes of the last start tag.
    attrs: AttributeBuf,
    /// The last text run, comment or processing instruction, decoded.
    text: String,
    refs: References,
    attr_names: AttrNames,
    owed: Owed,
    seen_doctype: bool,
    /// Optional observability hook; scanner byte counts are flushed to it
    /// at document end and on drop (deltas, so the two never double-count).
    probe: Option<ProbeHandle>,
    /// Scan counts already reported to the probe.
    scan_reported: (u64, u64),
}

impl XmlReader<Cursor<Vec<u8>>> {
    /// Parses from an owned byte vector.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        XmlReader::new(Cursor::new(bytes))
    }
}

impl<'a> XmlReader<Cursor<&'a [u8]>> {
    /// Parses from a borrowed string. (Not the `FromStr` trait: borrowed
    /// input with an explicit lifetime cannot satisfy it.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &'a str) -> Self {
        XmlReader::new(Cursor::new(s.as_bytes()))
    }

    /// Parses from a borrowed byte slice.
    pub fn from_slice(s: &'a [u8]) -> Self {
        XmlReader::new(Cursor::new(s))
    }
}

impl<R: Read> XmlReader<R> {
    /// Creates a reader with default configuration.
    pub fn new(source: R) -> Self {
        XmlReader::with_config(source, ReaderConfig::default())
    }

    /// Creates a reader with explicit configuration.
    pub fn with_config(source: R, config: ReaderConfig) -> Self {
        XmlReader {
            scanner: Scanner::with_capacity(source, config.buffer_capacity),
            max_depth: config.max_depth,
            state: DocState::Init,
            names: String::with_capacity(BUFFER_START),
            name_ends: Vec::new(),
            open_starts: Vec::new(),
            attrs: AttributeBuf::with_capacity(BUFFER_START),
            text: String::with_capacity(BUFFER_START),
            refs: References {
                table: EntityTable::new(),
                limits: config.entity_limits,
                body: String::new(),
            },
            attr_names: AttrNames { hasher: RandomState::new(), slots: Vec::new(), indexed: 0 },
            owed: Owed::Nothing,
            seen_doctype: false,
            probe: None,
            scan_reported: (0, 0),
        }
    }

    /// Attaches an observability probe (see [`crate::probe::ParseProbe`]).
    /// Scanner byte counts are reported to it when the document ends and
    /// when the reader is dropped.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = Some(probe);
    }

    /// Reports un-flushed scanner byte counts to the probe, if any.
    fn flush_scan_probe(&mut self) {
        if let Some(probe) = &self.probe {
            let (block, byte) = self.scanner.scan_counts();
            let d_block = block - self.scan_reported.0;
            let d_byte = byte - self.scan_reported.1;
            if d_block > 0 || d_byte > 0 {
                probe.on_scan_bytes(d_block, d_byte);
                self.scan_reported = (block, byte);
            }
        }
    }

    /// Current element nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.name_ends.len() - usize::from(self.owed == Owed::Pop)
    }

    /// Current stream position, computed from the window on demand.
    pub fn position(&self) -> TextPosition {
        self.scanner.position()
    }

    /// Current absolute byte offset.
    pub fn offset(&self) -> u64 {
        self.scanner.offset()
    }

    /// Bytes consumed so far as `(walked past through the block stop
    /// masks, read one at a time)`; the two add up to
    /// [`XmlReader::offset`]. The probe is told the same counts.
    pub fn scan_counts(&self) -> (u64, u64) {
        self.scanner.scan_counts()
    }

    /// Pulls the next event, borrowed from the reader's buffers until the
    /// next call ([`XmlEvent::into_owned`] keeps one). After
    /// [`XmlEvent::EndDocument`] has been returned, every further call
    /// returns it again.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent<'_>> {
        // The last event is done with: the window may let its bytes go.
        self.scanner.commit();
        match std::mem::replace(&mut self.owed, Owed::Nothing) {
            Owed::Nothing => {}
            Owed::End(end_offset) => {
                self.owed = Owed::Pop;
                return Ok(XmlEvent::EndElement(self.innermost_end(end_offset)));
            }
            Owed::Pop => self.pop_innermost(),
        }
        match self.state {
            DocState::Init => self.read_document_start(),
            DocState::Done => Ok(XmlEvent::EndDocument),
            _ => self.read_content(),
        }
    }

    /// Walks past the rest of the innermost open element's content without
    /// building its events, and stops at that element's own end tag, which
    /// the next [`XmlReader::next_event`] returns as it would have. Called
    /// right after a [`XmlEvent::StartElement`], it skips the element's
    /// whole subtree. After an end event, after a self-closing start tag
    /// (whose end event is still to come) and outside the root element
    /// there is nothing to skip. Returns what `next_event` would have
    /// returned in between, counted ([`Skipped`]).
    ///
    /// It checks what `next_event` checks, with the same errors at the same
    /// positions. The walk itself reads only plain constructs, each from
    /// the window alone: ASCII start tags with at most eight attributes,
    /// distinct names and quoted values free of `&`, `<` and control
    /// bytes, and ASCII text free of `&`, `\r`, control bytes and `]]>`.
    /// Everything else is read from its first byte by the routine
    /// `next_event` uses, its event counted and dropped: end tags (whose
    /// routine first compares the innermost open name whole), comments,
    /// processing instructions, CDATA sections, references, non-ASCII
    /// bytes, a construct that runs past the window, and a start tag at
    /// the depth limit.
    pub fn skip_subtree(&mut self) -> XmlResult<Skipped> {
        let mut skipped = Skipped::default();
        if self.owed != Owed::Nothing || self.state != DocState::InRoot {
            return Ok(skipped);
        }
        let floor = self.name_ends.len();
        loop {
            self.scanner.commit();
            match self.scanner.peek()? {
                Some(b'<') => match self.scanner.peek_at(1)? {
                    Some(b'/') if self.name_ends.len() == floor => return Ok(skipped),
                    Some(b'/' | b'!' | b'?') | None => {}
                    Some(_) if self.name_ends.len() < self.max_depth => {
                        let start = self.scanner.offset();
                        if let Some(tag) = self.scanner.plain_start_tag() {
                            skipped.events += 1 + u64::from(tag.self_closing);
                            skipped.elements += 1;
                            skipped.node_ids += 1 + u64::from(tag.attributes);
                            if !tag.self_closing {
                                let name_end = start + 1 + tag.name_len as u64;
                                self.names.truncate(self.open_names_len());
                                self.names.push_str(self.scanner.str_between(start + 1, name_end));
                                self.name_ends.push(self.names.len());
                                self.open_starts.push(start);
                            }
                            continue;
                        }
                    }
                    Some(_) => {}
                },
                Some(_) if self.scanner.plain_text() => {
                    skipped.events += 1;
                    skipped.text_nodes += 1;
                    skipped.node_ids += 1;
                    continue;
                }
                _ => {}
            }
            // Anything else: the routine `next_event` would run, from the
            // construct's first byte.
            let (elements, text_nodes, node_ids, own_end) = match self.read_content()? {
                XmlEvent::StartElement(e) => (1, 0, 1 + e.attributes().len() as u64, false),
                XmlEvent::Characters(_) => (0, 1, 1, false),
                XmlEvent::EndElement(e) => (0, 0, 0, e.level as usize == floor),
                _ => (0, 0, 0, false),
            };
            if own_end {
                // An empty text node (an empty CDATA section) read on into
                // the element's own end tag: that event is owed again.
                self.owed = Owed::End(self.scanner.offset());
                return Ok(skipped);
            }
            skipped.events += 1;
            skipped.elements += elements;
            skipped.text_nodes += text_nodes;
            skipped.node_ids += node_ids;
            match std::mem::replace(&mut self.owed, Owed::Nothing) {
                Owed::End(_) => {
                    skipped.events += 1;
                    self.pop_innermost();
                }
                Owed::Pop => self.pop_innermost(),
                Owed::Nothing => {}
            }
        }
    }

    /// Closes the innermost open element, whose end event has been
    /// returned (or skipped).
    fn pop_innermost(&mut self) {
        self.name_ends.pop();
        self.open_starts.pop();
        if self.name_ends.is_empty() && self.state == DocState::InRoot {
            self.state = DocState::Epilog;
        }
    }

    /// Convenience: runs the document to completion, returning all events
    /// (owned) including the final `EndDocument`. Intended for tests and
    /// small inputs; production consumers should stream.
    pub fn collect_events(mut self) -> XmlResult<Vec<XmlEvent<'static>>> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?.into_owned();
            let done = e.is_end_document();
            events.push(e);
            if done {
                return Ok(events);
            }
        }
    }

    // ---------------------------------------------------------------- //
    // Document start: BOM + XML declaration
    // ---------------------------------------------------------------- //

    fn read_document_start(&mut self) -> XmlResult<XmlEvent<'static>> {
        if self.scanner.starts_with(b"\xEF\xBB\xBF")? {
            self.scanner.skip_bom();
        }
        self.state = DocState::Prolog;
        // `<?xml` followed by whitespace is the declaration; `<?xml-...` is
        // an ordinary PI.
        if self.scanner.starts_with(b"<?xml")? {
            match self.scanner.peek_at(5)? {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    return self.read_xml_declaration();
                }
                _ => {}
            }
        }
        Ok(XmlEvent::StartDocument { version: None, encoding: None })
    }

    fn read_xml_declaration(&mut self) -> XmlResult<XmlEvent<'static>> {
        self.scanner.advance(5); // `<?xml`
        let mut version = None;
        let mut encoding = None;
        let mut key = String::new();
        loop {
            self.scanner.skip_whitespace()?;
            match self.scanner.peek()? {
                Some(b'?') => {
                    self.expect_ascii(b"?>")?;
                    break;
                }
                Some(_) => {
                    let at = self.scanner.offset();
                    key.clear();
                    key.push_str(self.scanner.name()?);
                    self.scanner.skip_whitespace()?;
                    self.expect_ascii(b"=")?;
                    self.scanner.skip_whitespace()?;
                    let value = self.read_quoted_literal()?;
                    match key.as_str() {
                        "version" => version = Some(value),
                        "encoding" => {
                            if !value.eq_ignore_ascii_case("utf-8")
                                && !value.eq_ignore_ascii_case("utf8")
                                && !value.eq_ignore_ascii_case("us-ascii")
                                && !value.eq_ignore_ascii_case("ascii")
                            {
                                return Err(XmlError::new(
                                    XmlErrorKind::UnsupportedEncoding { encoding: value },
                                    self.scanner.position_at(at),
                                ));
                            }
                            encoding = Some(value);
                        }
                        "standalone" => {}
                        other => {
                            return Err(XmlError::syntax(
                                format!("unexpected XML-declaration attribute {other:?}"),
                                self.scanner.position_at(at),
                            ))
                        }
                    }
                }
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "XML declaration" },
                        self.scanner.position(),
                    ))
                }
            }
        }
        Ok(XmlEvent::StartDocument { version, encoding })
    }

    // ---------------------------------------------------------------- //
    // Main content dispatch
    // ---------------------------------------------------------------- //

    fn read_content(&mut self) -> XmlResult<XmlEvent<'_>> {
        loop {
            match self.scanner.peek()? {
                None => return self.handle_eof(),
                Some(b'<') => match self.classify_markup()? {
                    Markup::EndTag => return self.read_end_tag(),
                    Markup::Comment => {
                        self.read_comment()?;
                        return Ok(XmlEvent::Comment(Cow::Borrowed(&self.text)));
                    }
                    Markup::Cdata => {
                        if self.state != DocState::InRoot {
                            return Err(XmlError::syntax(
                                "CDATA section outside the root element",
                                self.scanner.position(),
                            ));
                        }
                        return self.read_text();
                    }
                    Markup::Doctype => return self.read_doctype(),
                    Markup::Pi => {
                        let target_end = self.read_pi()?;
                        let (target, data) = self.text.split_at(target_end);
                        return Ok(XmlEvent::ProcessingInstruction(ProcessingInstructionEvent {
                            target: Cow::Borrowed(target),
                            data: Cow::Borrowed(data),
                        }));
                    }
                    Markup::StartTag => return self.read_start_tag(),
                },
                Some(_) if self.state == DocState::InRoot => return self.read_text(),
                // Outside the root element only whitespace may appear. It
                // belongs to no event, so the window lets it go as it
                // passes.
                Some(b' ' | b'\t' | b'\n') => {
                    self.scanner.advance(1);
                    self.scanner.commit();
                }
                Some(b'\r') => {
                    self.scanner.skip_cr()?;
                    self.scanner.commit();
                }
                Some(_) => {
                    return Err(XmlError::new(
                        XmlErrorKind::TextOutsideRoot,
                        self.scanner.position(),
                    ))
                }
            }
        }
    }

    fn handle_eof(&mut self) -> XmlResult<XmlEvent<'static>> {
        match self.state {
            DocState::InRoot => Err(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "end tags for open elements" },
                self.scanner.position(),
            )),
            DocState::Prolog | DocState::Init => {
                Err(XmlError::new(XmlErrorKind::NoRootElement, self.scanner.position()))
            }
            DocState::Epilog | DocState::Done => {
                self.state = DocState::Done;
                self.flush_scan_probe();
                Ok(XmlEvent::EndDocument)
            }
        }
    }

    fn classify_markup(&mut self) -> XmlResult<Markup> {
        // peek returned '<'; decide which construct follows.
        Ok(match self.scanner.peek_at(1)? {
            Some(b'/') => Markup::EndTag,
            Some(b'?') => Markup::Pi,
            Some(b'!') => {
                if self.scanner.starts_with(b"<!--")? {
                    Markup::Comment
                } else if self.scanner.starts_with(b"<![CDATA[")? {
                    Markup::Cdata
                } else if self.scanner.starts_with(b"<!DOCTYPE")? {
                    Markup::Doctype
                } else {
                    return Err(XmlError::syntax(
                        "unrecognized markup after '<!'",
                        self.scanner.position(),
                    ));
                }
            }
            _ => Markup::StartTag,
        })
    }

    // ---------------------------------------------------------------- //
    // Tags
    // ---------------------------------------------------------------- //

    /// Length of `names` that the open elements use.
    fn open_names_len(&self) -> usize {
        self.name_ends.last().copied().unwrap_or(0)
    }

    /// The innermost open element's name.
    fn innermost_name(&self) -> &str {
        let n = self.name_ends.len();
        let start = n.checked_sub(2).map_or(0, |i| self.name_ends[i]);
        &self.names[start..self.name_ends[n - 1]]
    }

    /// The end event of the innermost open element, whose end tag ends at
    /// `end_offset`.
    fn innermost_end(&self, end_offset: u64) -> EndElementEvent<'_> {
        debug_assert_eq!(self.open_starts.len(), self.name_ends.len(), "one start per open name");
        // Only ever called with an element open.
        #[allow(clippy::expect_used)]
        let start_offset = *self.open_starts.last().expect("an element is open");
        EndElementEvent {
            name: Cow::Borrowed(self.innermost_name()),
            level: self.name_ends.len() as u32,
            element_span: ByteSpan::new(start_offset, end_offset),
        }
    }

    fn read_start_tag(&mut self) -> XmlResult<XmlEvent<'_>> {
        let start_offset = self.scanner.offset();
        match self.state {
            DocState::Epilog | DocState::Done => {
                return Err(XmlError::new(XmlErrorKind::TrailingContent, self.scanner.position()))
            }
            DocState::Init | DocState::Prolog | DocState::InRoot => {}
        }
        // Past the `<`, the name goes straight onto the open-name stack.
        self.scanner.advance(1);
        let name_start = self.open_names_len();
        self.names.truncate(name_start);
        self.names.push_str(self.scanner.name()?);
        self.attrs.clear();
        let self_closing = loop {
            let had_ws = self.scanner.skip_whitespace()?;
            match self.scanner.peek()? {
                Some(b'>') => {
                    self.scanner.advance(1);
                    break false;
                }
                Some(b'/') if self.scanner.peek_at(1)? == Some(b'>') => {
                    self.scanner.advance(2);
                    break true;
                }
                Some(b'/') => {
                    self.expect_ascii(b"/>")?;
                    break true;
                }
                Some(_) => {
                    if !had_ws {
                        return Err(XmlError::syntax(
                            "expected whitespace before attribute",
                            self.scanner.position(),
                        ));
                    }
                    let attr_at = self.scanner.offset();
                    let attr_start = self.attrs.text.len();
                    self.attrs.text.push_str(self.scanner.name()?);
                    if self.attr_names.repeats(&self.attrs, attr_start) {
                        return Err(XmlError::new(
                            XmlErrorKind::DuplicateAttribute {
                                name: self.attrs.text[attr_start..].into(),
                            },
                            self.scanner.position_at(attr_at),
                        ));
                    }
                    let name_end = self.attrs.text.len();
                    self.scanner.skip_whitespace()?;
                    self.expect_ascii(b"=")?;
                    self.scanner.skip_whitespace()?;
                    self.read_attribute_value()?;
                    self.attrs.ends.push((name_end, self.attrs.text.len()));
                }
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "start tag" },
                        self.scanner.position(),
                    ))
                }
            }
        };
        if self.name_ends.len() >= self.max_depth {
            return Err(XmlError::new(
                XmlErrorKind::DepthLimit { max: self.max_depth },
                self.scanner.position_at(start_offset),
            ));
        }
        let end_offset = self.scanner.offset();
        self.name_ends.push(self.names.len());
        self.open_starts.push(start_offset);
        self.state = DocState::InRoot;
        if self_closing {
            self.owed = Owed::End(end_offset);
        }
        Ok(XmlEvent::StartElement(StartElementEvent {
            name: Cow::Borrowed(&self.names[name_start..]),
            attrs: Cow::Borrowed(&self.attrs),
            level: self.name_ends.len() as u32,
            span: ByteSpan::new(start_offset, end_offset),
        }))
    }

    fn read_end_tag(&mut self) -> XmlResult<XmlEvent<'_>> {
        let at = self.scanner.offset();
        self.scanner.advance(2);
        // The common case past `</`: the innermost open name, then `>`,
        // compared in the window. The name was checked when its start tag
        // was read.
        if let Some(&end) = self.name_ends.last() {
            let start = self.name_ends.len().checked_sub(2).map_or(0, |i| self.name_ends[i]);
            if self.scanner.skip_exact(&self.names.as_bytes()[start..end], b'>')? {
                self.owed = Owed::Pop;
                return Ok(XmlEvent::EndElement(self.innermost_end(self.scanner.offset())));
            }
        }
        // Compare in the window; the name is copied only into an error.
        let name_at = self.scanner.offset();
        self.scanner.name()?;
        let name_end = self.scanner.offset();
        self.scanner.skip_whitespace()?;
        self.expect_ascii(b">")?;
        let end_offset = self.scanner.offset();
        let found = &self.scanner.str_since(name_at)[..(name_end - name_at) as usize];
        if self.name_ends.is_empty() {
            return Err(XmlError::new(
                XmlErrorKind::UnbalancedEndTag { name: found.into() },
                self.scanner.position_at(at),
            ));
        }
        let expected = self.innermost_name();
        if expected != found {
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag { expected: expected.into(), found: found.into() },
                self.scanner.position_at(at),
            ));
        }
        self.owed = Owed::Pop;
        Ok(XmlEvent::EndElement(self.innermost_end(end_offset)))
    }

    /// Reads an attribute value with XML 1.0 §3.3.3 normalization, appending
    /// it to the attribute buffer: references expanded, whitespace
    /// characters become spaces, `<` is forbidden. Verbatim pieces are
    /// walked with the tag mask and copied whole.
    fn read_attribute_value(&mut self) -> XmlResult<()> {
        let at = self.scanner.offset();
        let quote = match self.scanner.next_char()? {
            Some(q @ ('"' | '\'')) => q as u8,
            None => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                    self.scanner.position_at(at),
                ))
            }
            _ => {
                return Err(XmlError::syntax(
                    "expected quoted attribute value",
                    self.scanner.position_at(at),
                ))
            }
        };
        let out = &mut self.attrs.text;
        let mut piece = self.scanner.offset();
        loop {
            let Some(b) = self.scanner.run::<true>()? else {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                    self.scanner.position_at(at),
                ));
            };
            match b {
                b'<' => {
                    return Err(XmlError::syntax(
                        "'<' is not allowed in attribute values",
                        self.scanner.position(),
                    ))
                }
                // Everything up to the stop is verbatim; the stop is not.
                _ if b == quote || matches!(b, b'&' | b'\t' | b'\n' | b'\r') => {
                    out.push_str(self.scanner.str_since(piece));
                    match b {
                        // References are expanded but their content is
                        // *not* re-normalized (per spec: a character
                        // reference to tab stays a tab).
                        b'&' => self.refs.read(&mut self.scanner, out)?,
                        b'\r' => {
                            self.scanner.skip_cr()?;
                            out.push(' ');
                        }
                        b'\t' | b'\n' => {
                            self.scanner.advance(1);
                            out.push(' ');
                        }
                        _ => {
                            self.scanner.advance(1);
                            return Ok(());
                        }
                    }
                    piece = self.scanner.offset();
                }
                0..0x20 => {
                    self.scanner.advance(1);
                    return Err(XmlError::new(
                        XmlErrorKind::InvalidChar { ch: b as char },
                        self.scanner.position(),
                    ));
                }
                0x80.. => self.scanner.xml_char()?,
                // Space, the other quote, `>`, `=`, `/`.
                _ => self.scanner.advance(1),
            }
        }
    }

    // ---------------------------------------------------------------- //
    // Text
    // ---------------------------------------------------------------- //

    fn read_text(&mut self) -> XmlResult<XmlEvent<'_>> {
        let start_offset = self.scanner.offset();
        self.text.clear();
        // Verbatim pieces are copied whole; `piece` is where the one being
        // walked began — a raw `]]>` lies inside one. A text that fills
        // half the window is copied out and let go as it is walked, once
        // its start position (what a `]]>` error reports) is noted.
        let mut piece = start_offset;
        let mut start_position = None;
        loop {
            let b = match self.scanner.run_here::<false>() {
                Some(b) => b,
                None => {
                    if self.scanner.crowded() {
                        // Keep a `]` or two that may begin a `]]>`.
                        let tail = self.scanner.bytes_since(piece).iter().rev().take(2);
                        let brackets = tail.take_while(|&&b| b == b']').count() as u64;
                        let at = self.scanner.offset() - brackets;
                        self.text.push_str(self.scanner.str_between(piece, at));
                        piece = at;
                        start_position
                            .get_or_insert_with(|| self.scanner.position_at(start_offset));
                        self.scanner.release(piece);
                    }
                    if self.scanner.fill()? {
                        continue;
                    }
                    match self.scanner.bad() {
                        Some(b) => b,
                        None => break,
                    }
                }
            };
            match b {
                b'<' | b'&' | b'\r' => {
                    if b == b'<' && !self.scanner.starts_with(b"<![CDATA[")? {
                        break;
                    }
                    self.text.push_str(self.scanner.str_since(piece));
                    match b {
                        b'<' => self.read_cdata()?,
                        b'&' => self.refs.read(&mut self.scanner, &mut self.text)?,
                        _ => {
                            self.scanner.skip_cr()?;
                            self.text.push('\n');
                        }
                    }
                    piece = self.scanner.offset();
                    if self.scanner.crowded() {
                        start_position
                            .get_or_insert_with(|| self.scanner.position_at(start_offset));
                        self.scanner.release(piece);
                    }
                }
                b'>' if self.scanner.bytes_since(piece).ends_with(b"]]") => {
                    return Err(XmlError::syntax(
                        "']]>' must not appear in character data",
                        start_position.unwrap_or_else(|| self.scanner.position_at(start_offset)),
                    ));
                }
                b'>' | b'=' => self.scanner.advance(1),
                0..0x80 => {
                    self.scanner.advance(1);
                    return Err(XmlError::new(
                        XmlErrorKind::InvalidChar { ch: b as char },
                        self.scanner.position(),
                    ));
                }
                _ => self.scanner.xml_char()?,
            }
        }
        self.text.push_str(self.scanner.str_since(piece));
        if self.text.is_empty() {
            // Nothing reportable (e.g. an empty CDATA section): let its
            // bytes go and recurse into the next construct.
            self.scanner.commit();
            return self.read_content();
        }
        Ok(XmlEvent::Characters(CharactersEvent {
            text: Cow::Borrowed(&self.text),
            level: self.name_ends.len() as u32,
            span: ByteSpan::new(start_offset, self.scanner.offset()),
        }))
    }

    /// Appends a CDATA section's content to the text buffer.
    fn read_cdata(&mut self) -> XmlResult<()> {
        self.expect_ascii(b"<![CDATA[")?;
        let open = self.scanner.offset();
        let mut tail: [char; 2] = ['\0', '\0'];
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "CDATA section" },
                        self.scanner.position_at(open),
                    ))
                }
                Some(c) => {
                    if !entities::is_xml_char(c) {
                        return Err(XmlError::new(
                            XmlErrorKind::InvalidChar { ch: c },
                            self.scanner.position(),
                        ));
                    }
                    if tail == [']', ']'] && c == '>' {
                        // Remove the two buffered ']' that belonged to the
                        // terminator.
                        self.text.truncate(self.text.len() - 2);
                        return Ok(());
                    }
                    tail = [tail[1], c];
                    self.text.push(c);
                }
            }
        }
    }

    // ---------------------------------------------------------------- //
    // Comments and processing instructions
    // ---------------------------------------------------------------- //

    /// Reads a comment's content into the text buffer.
    fn read_comment(&mut self) -> XmlResult<()> {
        let open = self.scanner.offset();
        self.expect_ascii(b"<!--")?;
        self.text.clear();
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "comment" },
                        self.scanner.position_at(open),
                    ))
                }
                Some(c) => {
                    if !entities::is_xml_char(c) {
                        return Err(XmlError::new(
                            XmlErrorKind::InvalidChar { ch: c },
                            self.scanner.position(),
                        ));
                    }
                    self.text.push(c);
                    if self.text.ends_with("--") {
                        match self.scanner.peek()? {
                            Some(b'>') => {
                                self.scanner.advance(1);
                                self.text.truncate(self.text.len() - 2);
                                return Ok(());
                            }
                            _ => {
                                return Err(XmlError::syntax(
                                    "'--' is not allowed inside a comment",
                                    self.scanner.position(),
                                ))
                            }
                        }
                    }
                }
            }
        }
    }

    /// Reads a processing instruction's target and then its data into the
    /// text buffer; returns where the target ends.
    fn read_pi(&mut self) -> XmlResult<usize> {
        let at = self.scanner.offset();
        self.expect_ascii(b"<?")?;
        self.text.clear();
        self.text.push_str(self.scanner.name()?);
        if self.text.eq_ignore_ascii_case("xml") {
            return Err(XmlError::syntax(
                "processing-instruction target 'xml' is reserved",
                self.scanner.position_at(at),
            ));
        }
        let target_end = self.text.len();
        let had_ws = self.scanner.skip_whitespace()?;
        loop {
            match self.scanner.peek()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "processing instruction" },
                        self.scanner.position_at(at),
                    ))
                }
                Some(b'?') if self.scanner.peek_at(1)? == Some(b'>') => {
                    self.scanner.advance(2);
                    break;
                }
                Some(_) => {
                    if !had_ws && self.text.len() == target_end {
                        return Err(XmlError::syntax(
                            "expected whitespace after PI target",
                            self.scanner.position(),
                        ));
                    }
                    // At the end of input the next turn reports it.
                    let Some(c) = self.scanner.next_char()? else { continue };
                    if !entities::is_xml_char(c) {
                        return Err(XmlError::new(
                            XmlErrorKind::InvalidChar { ch: c },
                            self.scanner.position(),
                        ));
                    }
                    self.text.push(c);
                }
            }
        }
        Ok(target_end)
    }

    // ---------------------------------------------------------------- //
    // DOCTYPE
    // ---------------------------------------------------------------- //

    fn read_doctype(&mut self) -> XmlResult<XmlEvent<'static>> {
        let at = self.scanner.offset();
        if self.state != DocState::Prolog {
            return Err(XmlError::syntax(
                "DOCTYPE must appear before the root element",
                self.scanner.position(),
            ));
        }
        if self.seen_doctype {
            return Err(XmlError::syntax("multiple DOCTYPE declarations", self.scanner.position()));
        }
        self.seen_doctype = true;
        self.expect_ascii(b"<!DOCTYPE")?;
        if !self.scanner.skip_whitespace()? {
            return Err(XmlError::syntax(
                "expected whitespace after '<!DOCTYPE'",
                self.scanner.position_at(at),
            ));
        }
        let name = self.scanner.name()?.to_owned();
        self.scanner.skip_whitespace()?;
        // Optional ExternalID.
        if self.scanner.starts_with(b"SYSTEM")? {
            self.scanner.advance(6);
            self.scanner.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.scanner.skip_whitespace()?;
        } else if self.scanner.starts_with(b"PUBLIC")? {
            self.scanner.advance(6);
            self.scanner.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.scanner.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.scanner.skip_whitespace()?;
        }
        if self.scanner.peek()? == Some(b'[') {
            self.scanner.advance(1);
            self.read_internal_subset()?;
            self.scanner.skip_whitespace()?;
        }
        self.expect_ascii(b">")?;
        Ok(XmlEvent::DoctypeDeclaration { name })
    }

    fn read_internal_subset(&mut self) -> XmlResult<()> {
        loop {
            self.scanner.skip_whitespace()?;
            match self.scanner.peek()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "DOCTYPE internal subset" },
                        self.scanner.position(),
                    ))
                }
                Some(b']') => {
                    self.scanner.advance(1);
                    return Ok(());
                }
                Some(b'%') => {
                    return Err(XmlError::syntax(
                        "parameter entities are not supported",
                        self.scanner.position(),
                    ))
                }
                Some(b'<') => {
                    if self.scanner.starts_with(b"<!--")? {
                        self.read_comment()?;
                    } else if self.scanner.starts_with(b"<?")? {
                        self.read_pi()?;
                    } else if self.scanner.starts_with(b"<!ENTITY")? {
                        self.read_entity_decl()?;
                    } else if self.scanner.starts_with(b"<!")? {
                        // ELEMENT / ATTLIST / NOTATION: skip to the matching
                        // '>', honouring quoted literals.
                        self.scanner.advance(2);
                        self.skip_markup_decl_tail()?;
                    } else {
                        return Err(XmlError::syntax(
                            "unexpected markup in DOCTYPE internal subset",
                            self.scanner.position(),
                        ));
                    }
                }
                Some(_) => {
                    return Err(XmlError::syntax(
                        "unexpected character in DOCTYPE internal subset",
                        self.scanner.position(),
                    ))
                }
            }
        }
    }

    fn read_entity_decl(&mut self) -> XmlResult<()> {
        let at = self.scanner.offset();
        self.scanner.advance(8); // `<!ENTITY`
        if !self.scanner.skip_whitespace()? {
            return Err(XmlError::syntax(
                "expected whitespace after '<!ENTITY'",
                self.scanner.position_at(at),
            ));
        }
        if self.scanner.peek()? == Some(b'%') {
            // Parameter entity declaration: tolerated but ignored.
            self.skip_markup_decl_tail()?;
            return Ok(());
        }
        let name = self.scanner.name()?.to_owned();
        if !self.scanner.skip_whitespace()? {
            return Err(XmlError::syntax(
                "expected whitespace after entity name",
                self.scanner.position_at(at),
            ));
        }
        match self.scanner.peek()? {
            Some(b'"') | Some(b'\'') => {
                let raw = self.read_quoted_literal()?;
                self.refs.table.declare_internal(&name, &raw);
            }
            _ => {
                // SYSTEM / PUBLIC external entity: record and skip.
                self.refs.table.declare_external(&name);
                self.skip_markup_decl_tail()?;
                return Ok(());
            }
        }
        self.scanner.skip_whitespace()?;
        self.expect_ascii(b">")?;
        Ok(())
    }

    /// Skips the remainder of a `<!...>` declaration whose prefix has been
    /// consumed, honouring quoted literals.
    fn skip_markup_decl_tail(&mut self) -> XmlResult<()> {
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "markup declaration" },
                        self.scanner.position(),
                    ))
                }
                Some('>') => return Ok(()),
                Some(q @ ('"' | '\'')) => loop {
                    match self.scanner.next_char()? {
                        None => {
                            return Err(XmlError::new(
                                XmlErrorKind::UnexpectedEof { expected: "quoted literal" },
                                self.scanner.position(),
                            ))
                        }
                        Some(c) if c == q => break,
                        Some(_) => {}
                    }
                },
                Some(_) => {}
            }
        }
    }

    // ---------------------------------------------------------------- //
    // Lexical helpers
    // ---------------------------------------------------------------- //

    /// Reads `"..."` or `'...'` without reference expansion (XML
    /// declaration, DOCTYPE literals, entity replacement text).
    fn read_quoted_literal(&mut self) -> XmlResult<String> {
        let at = self.scanner.offset();
        let quote = match self.scanner.next_char()? {
            Some(q @ ('"' | '\'')) => q,
            None => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof { expected: "quoted literal" },
                    self.scanner.position_at(at),
                ))
            }
            _ => {
                return Err(XmlError::syntax(
                    "expected quoted literal",
                    self.scanner.position_at(at),
                ))
            }
        };
        let mut out = String::new();
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "quoted literal" },
                        self.scanner.position_at(at),
                    ))
                }
                Some(c) if c == quote => return Ok(out),
                Some(c) => out.push(c),
            }
        }
    }

    fn expect_ascii(&mut self, s: &'static [u8]) -> XmlResult<()> {
        if !self.scanner.starts_with(s)? {
            return Err(XmlError::syntax(
                format!("expected {:?}", String::from_utf8_lossy(s)),
                self.scanner.position(),
            ));
        }
        self.scanner.advance(s.len());
        Ok(())
    }
}

impl References {
    /// Reads `&...;` (the caller peeked the `&`) and appends the decoded
    /// replacement to `out`. A predefined entity is matched in the input
    /// window; any other body is read into the kept `body` buffer.
    fn read<R: Read>(&mut self, scanner: &mut Scanner<R>, out: &mut String) -> XmlResult<()> {
        let at = scanner.offset();
        scanner.advance(1);
        for (name, c) in entities::PREDEFINED {
            if scanner.starts_with(name.as_bytes())? && scanner.peek_at(name.len())? == Some(b';') {
                scanner.advance(name.len() + 1);
                out.push(c);
                return Ok(());
            }
        }
        self.body.clear();
        loop {
            match scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "entity reference" },
                        scanner.position_at(at),
                    ))
                }
                Some(';') => break,
                Some(c) if c == '#' || name::is_name_char(c) => self.body.push(c),
                Some(c) => {
                    return Err(XmlError::syntax(
                        format!("invalid character {c:?} in entity reference"),
                        scanner.position_at(at),
                    ))
                }
            }
        }
        // The reference's position is worked out only if it fails.
        let relocate = |e: XmlError| e.at(scanner.position_at(at));
        if let Some(num) = self.body.strip_prefix('#') {
            out.push(entities::parse_char_ref(num, TextPosition::START).map_err(relocate)?);
        } else if self.body.is_empty() {
            return Err(XmlError::syntax("empty entity reference", scanner.position_at(at)));
        } else {
            self.table
                .expand(&self.body, &self.limits, TextPosition::START, out)
                .map_err(relocate)?;
        }
        Ok(())
    }
}

/// Attributes a start tag may have before the duplicate check stops
/// scanning them and uses [`AttrNames`]' table.
const LINEAR_ATTRS: usize = 16;

/// Duplicate-attribute detection that stays linear in expectation on
/// hostile tags: a tag's first [`LINEAR_ATTRS`] names are compared by a
/// scan, the rest through a hash table of attribute indices, filled lazily
/// and reused from tag to tag (a tag below the threshold allocates
/// nothing). Names are hashed with a per-reader random key.
struct AttrNames {
    hasher: RandomState,
    /// Open-addressed slots holding an attribute's index plus one (0:
    /// empty).
    slots: Vec<u32>,
    /// Attributes of the current tag already in `slots`.
    indexed: usize,
}

impl AttrNames {
    /// Whether the name `attrs.text[from..]`, just read and not yet in
    /// `attrs.ends`, repeats one of the tag's earlier attributes.
    fn repeats(&mut self, attrs: &AttributeBuf, from: usize) -> bool {
        let name = &attrs.text[from..];
        let n = attrs.ends.len();
        if n <= LINEAR_ATTRS {
            self.indexed = 0;
            return attrs.view().get(name).is_some();
        }
        if self.indexed == 0 || 2 * n >= self.slots.len() {
            self.slots.clear();
            self.slots.resize((4 * n).next_power_of_two(), 0);
            self.indexed = 0;
        }
        while self.indexed < n {
            // The tag's earlier names are distinct: each finds a free slot.
            if let Err(free) = self.probe(attrs, attrs.name(self.indexed)) {
                self.slots[free] = self.indexed as u32 + 1;
            }
            self.indexed += 1;
        }
        self.probe(attrs, name).is_ok()
    }

    /// `Ok` if `name` is in the table, else `Err` with the free slot it
    /// would take.
    fn probe(&self, attrs: &AttributeBuf, name: &str) -> Result<(), usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                k if attrs.name(k as usize - 1) == name => return Ok(()),
                _ => i = (i + 1) & mask,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Markup {
    StartTag,
    EndTag,
    Comment,
    Cdata,
    Doctype,
    Pi,
}

/// An aborted document never reaches `EndDocument`; the drop flush reports
/// whatever scan bytes the probe has not yet seen.
impl<R: Read> Drop for XmlReader<R> {
    fn drop(&mut self) {
        self.flush_scan_probe();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn long_text_and_skipped_bytes_stream_through_a_small_window() {
        // A text node a thousand windows long, with references, line ends
        // and `]` runs cut by refills; a thousand empty CDATA sections (no
        // event); whitespace after the root. None of it is a construct the
        // window must hold whole.
        let unit = "plain text ]] &amp; ]\r\n caf\u{e9} ";
        let xml = format!(
            "<r>{}<e>{}</e></r>{}",
            unit.repeat(2000),
            "<![CDATA[]]>".repeat(1000),
            "\n".repeat(100_000)
        );
        let config = ReaderConfig { buffer_capacity: 64, ..Default::default() };
        let mut reader = XmlReader::with_config(Cursor::new(xml.as_bytes()), config);
        let mut texts = Vec::new();
        loop {
            match reader.next_event().unwrap() {
                XmlEvent::Characters(t) => texts.push(t.text.len()),
                XmlEvent::EndDocument => break,
                _ => {}
            }
        }
        assert_eq!(texts, [2000 * "plain text ]] & ]\n caf\u{e9} ".len()]);
        assert!(reader.scanner.capacity() <= 128, "window grew to {}", reader.scanner.capacity());
    }

    /// Reads `xml` up to the start tag of `<a>`, skips its content, and
    /// returns the counts and the end event that follows.
    fn skip_a(xml: &str) -> (Skipped, XmlEvent<'static>) {
        let mut reader = XmlReader::from_str(xml);
        while !matches!(reader.next_event().unwrap(), XmlEvent::StartElement(e) if e.name == "a") {}
        let skipped = reader.skip_subtree().unwrap();
        (skipped, reader.next_event().unwrap().into_owned())
    }

    #[test]
    fn skipped_constructs_that_are_not_plain_go_through_the_routines() {
        let plain_end = |xml: &str| {
            let events = XmlReader::from_str(xml).collect_events().unwrap();
            events.into_iter().find(|e| matches!(e, XmlEvent::EndElement(e) if e.name == "a"))
        };
        // Text with a comment, a PI, a reference, CDATA and non-ASCII;
        // then an empty element and one with text.
        let xml = "<r><a>x<!--c-->y<?p d?>&amp;<![CDATA[z]]>\u{e9}<b/><c k='v'>t</c></a></r>";
        let (skipped, end) = skip_a(xml);
        let counts = Skipped { events: 10, elements: 2, text_nodes: 4, node_ids: 7 };
        assert_eq!((skipped, Some(end)), (counts, plain_end(xml)));
        // An empty CDATA section is no text node: its routine reads on into
        // `</a>`, whose event is owed again, span and all.
        let xml = "<r><a><![CDATA[]]></a></r>";
        let (skipped, end) = skip_a(xml);
        assert_eq!((skipped, Some(end)), (Skipped::default(), plain_end(xml)));
        // After a self-closing start tag or an end tag there is nothing to
        // skip; outside the root element neither.
        let mut reader = XmlReader::from_str("<r><a/><b>t</b></r>");
        for _ in 0..3 {
            reader.next_event().unwrap();
        }
        assert_eq!(reader.skip_subtree().unwrap(), Skipped::default());
        assert!(matches!(reader.next_event().unwrap(), XmlEvent::EndElement(e) if e.name == "a"));
        assert_eq!(reader.skip_subtree().unwrap(), Skipped::default());
        assert!(matches!(reader.next_event().unwrap(), XmlEvent::StartElement(e) if e.name == "b"));
        assert_eq!(reader.skip_subtree().unwrap().text_nodes, 1);
        assert!(matches!(reader.next_event().unwrap(), XmlEvent::EndElement(e) if e.name == "b"));
        let mut reader = XmlReader::from_str("<r/>");
        assert_eq!(reader.skip_subtree().unwrap(), Skipped::default());
        assert!(matches!(reader.next_event().unwrap(), XmlEvent::StartDocument { .. }));
    }
}
