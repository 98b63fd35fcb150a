//! The streaming pull parser.
//!
//! [`XmlReader`] drives a [`Scanner`] through the XML grammar and lends
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
use std::io::{Cursor, Read};

use crate::entities::{self, EntityLimits, EntityTable};
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::event::{
    AttributeBuf, CharactersEvent, EndElementEvent, ProcessingInstructionEvent, StartElementEvent,
    XmlEvent,
};
use crate::input::{ByteClass, Scanner};
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
            let (wide, scalar) = self.scanner.scan_counts();
            let d_wide = wide - self.scan_reported.0;
            let d_scalar = scalar - self.scan_reported.1;
            if d_wide > 0 || d_scalar > 0 {
                probe.on_scan_bytes(d_wide, d_scalar);
                self.scan_reported = (wide, scalar);
            }
        }
    }

    /// Current element nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.name_ends.len() - usize::from(self.owed == Owed::Pop)
    }

    /// Current stream position.
    pub fn position(&self) -> TextPosition {
        self.scanner.position()
    }

    /// Current absolute byte offset.
    pub fn offset(&self) -> u64 {
        self.scanner.offset()
    }

    /// Pulls the next event, borrowed from the reader's buffers until the
    /// next call ([`XmlEvent::into_owned`] keeps one). After
    /// [`XmlEvent::EndDocument`] has been returned, every further call
    /// returns it again.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent<'_>> {
        match std::mem::replace(&mut self.owed, Owed::Nothing) {
            Owed::Nothing => {}
            Owed::End(end_offset) => {
                self.owed = Owed::Pop;
                return Ok(XmlEvent::EndElement(self.innermost_end(end_offset)));
            }
            Owed::Pop => {
                self.name_ends.pop();
                self.open_starts.pop();
                if self.name_ends.is_empty() && self.state == DocState::InRoot {
                    self.state = DocState::Epilog;
                }
            }
        }
        match self.state {
            DocState::Init => self.read_document_start(),
            DocState::Done => Ok(XmlEvent::EndDocument),
            _ => self.read_content(),
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
            self.scanner.skip_raw(3);
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
        self.scanner.consume_ascii(b"<?xml")?;
        let mut version = None;
        let mut encoding = None;
        let mut key = String::new();
        loop {
            self.skip_whitespace()?;
            match self.scanner.peek_byte()? {
                Some(b'?') => {
                    self.expect_ascii(b"?>")?;
                    break;
                }
                Some(_) => {
                    let pos = self.scanner.position();
                    key.clear();
                    read_name(&mut self.scanner, &mut key)?;
                    self.skip_whitespace()?;
                    self.expect_ascii(b"=")?;
                    self.skip_whitespace()?;
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
                                    pos,
                                ));
                            }
                            encoding = Some(value);
                        }
                        "standalone" => {}
                        other => {
                            return Err(XmlError::syntax(
                                format!("unexpected XML-declaration attribute {other:?}"),
                                pos,
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
            let pos = self.scanner.position();
            match self.scanner.peek_byte()? {
                None => return self.handle_eof(pos),
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
                                pos,
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
                Some(_) => {
                    if self.state == DocState::InRoot {
                        return self.read_text();
                    }
                    // Outside the root element only whitespace may appear.
                    if !self.skip_whitespace()? {
                        return Err(XmlError::new(XmlErrorKind::TextOutsideRoot, pos));
                    }
                }
            }
        }
    }

    fn handle_eof(&mut self, pos: TextPosition) -> XmlResult<XmlEvent<'static>> {
        match self.state {
            DocState::InRoot => Err(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "end tags for open elements" },
                pos,
            )),
            DocState::Prolog | DocState::Init => {
                Err(XmlError::new(XmlErrorKind::NoRootElement, pos))
            }
            DocState::Epilog | DocState::Done => {
                self.state = DocState::Done;
                self.flush_scan_probe();
                Ok(XmlEvent::EndDocument)
            }
        }
    }

    fn classify_markup(&mut self) -> XmlResult<Markup> {
        // peek_byte returned '<'; decide which construct follows.
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
        let start_offset = *self.open_starts.last().expect("stack in sync");
        EndElementEvent {
            name: Cow::Borrowed(self.innermost_name()),
            level: self.name_ends.len() as u32,
            element_span: ByteSpan::new(start_offset, end_offset),
        }
    }

    fn read_start_tag(&mut self) -> XmlResult<XmlEvent<'_>> {
        let start_offset = self.scanner.offset();
        let position = self.scanner.position();
        match self.state {
            DocState::Epilog => return Err(XmlError::new(XmlErrorKind::TrailingContent, position)),
            DocState::Prolog => {}
            DocState::InRoot => {}
            _ => unreachable!("start tag in state {:?}", self.state),
        }
        self.expect_ascii(b"<")?;
        // The name goes straight onto the open-name stack.
        let name_start = self.open_names_len();
        self.names.truncate(name_start);
        read_name(&mut self.scanner, &mut self.names)?;
        self.attrs.clear();
        let self_closing = loop {
            let had_ws = self.skip_whitespace()?;
            match self.scanner.peek_byte()? {
                Some(b'>') => {
                    self.expect_ascii(b">")?;
                    break false;
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
                    let attr_pos = self.scanner.position();
                    let attr_start = self.attrs.text.len();
                    read_name(&mut self.scanner, &mut self.attrs.text)?;
                    let attr_name = &self.attrs.text[attr_start..];
                    if self.attrs.view().get(attr_name).is_some() {
                        return Err(XmlError::new(
                            XmlErrorKind::DuplicateAttribute { name: attr_name.into() },
                            attr_pos,
                        ));
                    }
                    let name_end = self.attrs.text.len();
                    self.skip_whitespace()?;
                    self.expect_ascii(b"=")?;
                    self.skip_whitespace()?;
                    read_attribute_value(&mut self.scanner, &mut self.refs, &mut self.attrs.text)?;
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
            return Err(XmlError::new(XmlErrorKind::DepthLimit { max: self.max_depth }, position));
        }
        let end_offset = self.scanner.offset();
        self.name_ends.push(self.names.len());
        self.open_starts.push(start_offset);
        if self.state == DocState::Prolog {
            self.state = DocState::InRoot;
        }
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
        let position = self.scanner.position();
        self.expect_ascii(b"</")?;
        // Read past the open names and compare.
        let found_start = self.open_names_len();
        self.names.truncate(found_start);
        read_name(&mut self.scanner, &mut self.names)?;
        self.skip_whitespace()?;
        self.expect_ascii(b">")?;
        let found = &self.names[found_start..];
        if self.name_ends.is_empty() {
            return Err(XmlError::new(
                XmlErrorKind::UnbalancedEndTag { name: found.into() },
                position,
            ));
        }
        let expected = self.innermost_name();
        if expected != found {
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag { expected: expected.into(), found: found.into() },
                position,
            ));
        }
        self.owed = Owed::Pop;
        Ok(XmlEvent::EndElement(self.innermost_end(self.scanner.offset())))
    }

    // ---------------------------------------------------------------- //
    // Text
    // ---------------------------------------------------------------- //

    fn read_text(&mut self) -> XmlResult<XmlEvent<'_>> {
        let position = self.scanner.position();
        let start_offset = self.scanner.offset();
        self.text.clear();
        // Rolling window to detect the illegal raw sequence `]]>` even when
        // split across scanning chunks (decoded entities / CDATA content are
        // exempt, as the spec requires).
        let mut raw_tail: [char; 2] = ['\0', '\0'];
        loop {
            // Fast ASCII path via the prebuilt byte class. TEXT_RUN holds
            // neither `]` nor `>`, so a non-empty run ends any `]]` in
            // progress.
            if self.scanner.consume_class_run(&TEXT_RUN, &mut self.text)? > 0 {
                raw_tail = ['\0', '\0'];
            }
            match self.scanner.peek_byte()? {
                None => break,
                Some(b'<') => {
                    if self.scanner.starts_with(b"<![CDATA[")? {
                        self.read_cdata()?;
                        raw_tail = ['\0', '\0'];
                        continue;
                    }
                    break;
                }
                Some(b'&') => {
                    self.refs.read(&mut self.scanner, &mut self.text)?;
                    raw_tail = ['\0', '\0'];
                    continue;
                }
                Some(_) => {
                    let c = self.scanner.next_char()?.expect("peeked byte");
                    if !entities::is_xml_char(c) {
                        return Err(XmlError::new(
                            XmlErrorKind::InvalidChar { ch: c },
                            self.scanner.position(),
                        ));
                    }
                    if raw_tail == [']', ']'] && c == '>' {
                        return Err(XmlError::syntax(
                            "']]>' must not appear in character data",
                            position,
                        ));
                    }
                    raw_tail = [raw_tail[1], c];
                    self.text.push(c);
                }
            }
        }
        if self.text.is_empty() {
            // Nothing reportable (e.g. an empty CDATA section): recurse
            // into the next construct.
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
        let open_pos = self.scanner.position();
        let mut tail: [char; 2] = ['\0', '\0'];
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "CDATA section" },
                        open_pos,
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
        let open_pos = self.scanner.position();
        self.expect_ascii(b"<!--")?;
        self.text.clear();
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "comment" },
                        open_pos,
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
                        match self.scanner.peek_byte()? {
                            Some(b'>') => {
                                self.expect_ascii(b">")?;
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
        let position = self.scanner.position();
        self.expect_ascii(b"<?")?;
        self.text.clear();
        read_name(&mut self.scanner, &mut self.text)?;
        if self.text.eq_ignore_ascii_case("xml") {
            return Err(XmlError::syntax(
                "processing-instruction target 'xml' is reserved",
                position,
            ));
        }
        let target_end = self.text.len();
        let had_ws = self.skip_whitespace()?;
        loop {
            match self.scanner.peek_byte()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "processing instruction" },
                        position,
                    ))
                }
                Some(b'?') if self.scanner.peek_at(1)? == Some(b'>') => {
                    self.expect_ascii(b"?>")?;
                    break;
                }
                Some(_) => {
                    if !had_ws && self.text.len() == target_end {
                        return Err(XmlError::syntax(
                            "expected whitespace after PI target",
                            self.scanner.position(),
                        ));
                    }
                    let c = self.scanner.next_char()?.expect("peeked byte");
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
        let position = self.scanner.position();
        if self.state != DocState::Prolog {
            return Err(XmlError::syntax("DOCTYPE must appear before the root element", position));
        }
        if self.seen_doctype {
            return Err(XmlError::syntax("multiple DOCTYPE declarations", position));
        }
        self.seen_doctype = true;
        self.expect_ascii(b"<!DOCTYPE")?;
        if !self.skip_whitespace()? {
            return Err(XmlError::syntax("expected whitespace after '<!DOCTYPE'", position));
        }
        let mut name = String::new();
        read_name(&mut self.scanner, &mut name)?;
        self.skip_whitespace()?;
        // Optional ExternalID.
        if self.scanner.starts_with(b"SYSTEM")? {
            self.expect_ascii(b"SYSTEM")?;
            self.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.skip_whitespace()?;
        } else if self.scanner.starts_with(b"PUBLIC")? {
            self.expect_ascii(b"PUBLIC")?;
            self.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.skip_whitespace()?;
            let _ = self.read_quoted_literal()?;
            self.skip_whitespace()?;
        }
        if self.scanner.peek_byte()? == Some(b'[') {
            self.expect_ascii(b"[")?;
            self.read_internal_subset()?;
            self.skip_whitespace()?;
        }
        self.expect_ascii(b">")?;
        Ok(XmlEvent::DoctypeDeclaration { name })
    }

    fn read_internal_subset(&mut self) -> XmlResult<()> {
        loop {
            self.skip_whitespace()?;
            match self.scanner.peek_byte()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "DOCTYPE internal subset" },
                        self.scanner.position(),
                    ))
                }
                Some(b']') => {
                    self.expect_ascii(b"]")?;
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
                        self.skip_markup_decl()?;
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
        let pos = self.scanner.position();
        self.expect_ascii(b"<!ENTITY")?;
        if !self.skip_whitespace()? {
            return Err(XmlError::syntax("expected whitespace after '<!ENTITY'", pos));
        }
        if self.scanner.peek_byte()? == Some(b'%') {
            // Parameter entity declaration: tolerated but ignored.
            self.skip_markup_decl_tail()?;
            return Ok(());
        }
        let mut name = String::new();
        read_name(&mut self.scanner, &mut name)?;
        if !self.skip_whitespace()? {
            return Err(XmlError::syntax("expected whitespace after entity name", pos));
        }
        match self.scanner.peek_byte()? {
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
        self.skip_whitespace()?;
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

    fn skip_markup_decl(&mut self) -> XmlResult<()> {
        self.expect_ascii(b"<!")?;
        self.skip_markup_decl_tail()
    }

    // ---------------------------------------------------------------- //
    // Lexical helpers
    // ---------------------------------------------------------------- //

    /// Skips XML whitespace; returns whether any was consumed.
    ///
    /// Bulk path: a zero-copy class run chews through space/tab/newline
    /// without materializing the bytes; only `\r` (which needs line-ending
    /// normalization) falls back to the char-wise path.
    fn skip_whitespace(&mut self) -> XmlResult<bool> {
        let mut any = false;
        loop {
            if self.scanner.skip_class_run(&WS_RUN)? > 0 {
                any = true;
            }
            match self.scanner.peek_byte()? {
                Some(b'\r') => {
                    self.scanner.next_char()?;
                    any = true;
                }
                _ => return Ok(any),
            }
        }
    }

    /// Reads `"..."` or `'...'` without reference expansion (XML
    /// declaration, DOCTYPE literals, entity replacement text).
    fn read_quoted_literal(&mut self) -> XmlResult<String> {
        let pos = self.scanner.position();
        let quote = match self.scanner.next_char()? {
            Some(q @ ('"' | '\'')) => q,
            None => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof { expected: "quoted literal" },
                    pos,
                ))
            }
            _ => return Err(XmlError::syntax("expected quoted literal", pos)),
        };
        let mut out = String::new();
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "quoted literal" },
                        pos,
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
        self.scanner.consume_ascii(s)
    }
}

impl References {
    /// Reads `&...;` (the caller peeked the `&`) and appends the decoded
    /// replacement to `out`. A predefined entity is matched in the input
    /// window; any other body is read into the kept `body` buffer.
    fn read<R: Read>(&mut self, scanner: &mut Scanner<R>, out: &mut String) -> XmlResult<()> {
        let pos = scanner.position();
        scanner.consume_ascii(b"&")?;
        for (name, c) in entities::PREDEFINED {
            if scanner.starts_with(name.as_bytes())? && scanner.peek_at(name.len())? == Some(b';') {
                scanner.consume_ascii(name.as_bytes())?;
                scanner.consume_ascii(b";")?;
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
                        pos,
                    ))
                }
                Some(';') => break,
                Some(c) if c == '#' || name::is_name_char(c) => self.body.push(c),
                Some(c) => {
                    return Err(XmlError::syntax(
                        format!("invalid character {c:?} in entity reference"),
                        pos,
                    ))
                }
            }
        }
        if let Some(num) = self.body.strip_prefix('#') {
            out.push(entities::parse_char_ref(num, pos)?);
        } else if self.body.is_empty() {
            return Err(XmlError::syntax("empty entity reference", pos));
        } else {
            self.table.expand(&self.body, &self.limits, pos, out)?;
        }
        Ok(())
    }
}

/// Reads an XML `Name`, appending it to `out`.
fn read_name<R: Read>(scanner: &mut Scanner<R>, out: &mut String) -> XmlResult<()> {
    let pos = scanner.position();
    let start = out.len();
    // Fast ASCII path.
    scanner.consume_class_run(&NAME_RUN, out)?;
    // Slow path for non-ASCII name characters.
    while let Some(c) = scanner.peek_char()? {
        if c.is_ascii() || !name::is_name_char(c) {
            break;
        }
        out.push(c);
        scanner.next_char()?;
        // Resume the fast path after each non-ASCII char.
        scanner.consume_class_run(&NAME_RUN, out)?;
    }
    let name = &out[start..];
    if !name::is_valid_name(name) {
        return Err(XmlError::new(XmlErrorKind::InvalidName { name: name.into() }, pos));
    }
    Ok(())
}

/// Reads an attribute value with XML 1.0 §3.3.3 normalization, appending
/// it to `out`: references expanded, whitespace characters become spaces,
/// `<` is forbidden.
fn read_attribute_value<R: Read>(
    scanner: &mut Scanner<R>,
    refs: &mut References,
    out: &mut String,
) -> XmlResult<()> {
    let pos = scanner.position();
    let quote = match scanner.next_char()? {
        Some(q @ ('"' | '\'')) => q,
        None => {
            return Err(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                pos,
            ))
        }
        _ => return Err(XmlError::syntax("expected quoted attribute value", pos)),
    };
    let run = if quote == '"' { &ATTR_RUN_DQ } else { &ATTR_RUN_SQ };
    loop {
        // Bulk-copy the printable run up to the next quote, reference,
        // `<`, whitespace-to-normalize, or non-ASCII byte; the char-wise
        // arms below handle the stopping byte.
        scanner.consume_class_run(run, out)?;
        match scanner.peek_byte()? {
            None => {
                return Err(XmlError::new(
                    XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                    pos,
                ))
            }
            Some(b'<') => {
                return Err(XmlError::syntax(
                    "'<' is not allowed in attribute values",
                    scanner.position(),
                ))
            }
            Some(b'&') => {
                // References are expanded but their content is *not*
                // re-normalized (per spec: a character reference to tab
                // stays a tab).
                refs.read(scanner, out)?;
            }
            Some(_) => {
                let c = scanner.next_char()?.expect("peeked byte");
                if c == quote {
                    return Ok(());
                }
                if !entities::is_xml_char(c) {
                    return Err(XmlError::new(
                        XmlErrorKind::InvalidChar { ch: c },
                        scanner.position(),
                    ));
                }
                out.push(if matches!(c, '\t' | '\n') { ' ' } else { c });
            }
        }
    }
}

const fn is_ascii_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.')
}

/// Membership table for ASCII name bytes — the scanner's fast path chews
/// through whole tag/attribute names with table lookups (E2: SAX
/// dominates runtime, and names are the most frequent token class).
static NAME_RUN: ByteClass = ByteClass::new({
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 0x80 {
        t[b] = is_ascii_name_byte(b as u8);
        b += 1;
    }
    t
});

/// Membership table for plain character-data bytes: everything except
/// markup/reference starters (`<`, `&`), the `]`/`>` bytes (kept
/// char-wise so the `']]>'` well-formedness check sees them) and control
/// characters other than tab/newline. `\r` and non-ASCII are excluded by
/// [`ByteClass`] itself.
static TEXT_RUN: ByteClass = ByteClass::new({
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 0x80 {
        let byte = b as u8;
        t[b] = byte != b'<'
            && byte != b'&'
            && byte != b']'
            && byte != b'>'
            && (byte >= 0x20 || byte == b'\t' || byte == b'\n');
        b += 1;
    }
    t
});

/// Membership tables for attribute-value bytes that can be copied
/// verbatim (one per quote kind): printable ASCII minus the closing
/// quote and the `<`/`&` specials. Tab/newline stay char-wise (they
/// normalize to spaces), as do `\r`, controls and non-ASCII.
static ATTR_RUN_DQ: ByteClass = ByteClass::new(attr_value_table(b'"'));
/// See [`ATTR_RUN_DQ`]; single-quoted values.
static ATTR_RUN_SQ: ByteClass = ByteClass::new(attr_value_table(b'\''));

const fn attr_value_table(quote: u8) -> [bool; 256] {
    let mut t = [false; 256];
    let mut b = 0x20usize;
    while b < 0x80 {
        t[b] = b as u8 != quote && b as u8 != b'<' && b as u8 != b'&';
        b += 1;
    }
    t
}

/// Membership table for XML whitespace, minus `\r` (normalization stays
/// char-wise). Drives the zero-copy skip in [`XmlReader::skip_whitespace`].
static WS_RUN: ByteClass = ByteClass::new({
    let mut t = [false; 256];
    t[b' ' as usize] = true;
    t[b'\t' as usize] = true;
    t[b'\n' as usize] = true;
    t
});

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
