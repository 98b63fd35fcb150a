//! The streaming pull parser.
//!
//! [`XmlReader`] drives a [`Scanner`] through the XML grammar and yields
//! [`XmlEvent`]s one at a time. It is the "XML SAX parser" box of the ViteX
//! architecture diagram; `vitex-core`'s engine calls [`XmlReader::next_event`]
//! in a loop and feeds each event to the TwigM machine.
//!
//! Well-formedness is enforced incrementally: the reader maintains exactly
//! one piece of unbounded state — the stack of open element names — whose
//! size is the document depth, not the document length.

use std::io::{Cursor, Read};

use crate::entities::{self, EntityLimits, EntityTable};
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::event::{
    Attribute, CharactersEvent, EndElementEvent, ProcessingInstructionEvent, StartElementEvent,
    XmlEvent,
};
use crate::input::{ByteClass, Scanner};
use crate::name::{self, QName};
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

/// A streaming, pull-based XML parser.
pub struct XmlReader<R: Read> {
    scanner: Scanner<R>,
    config: ReaderConfig,
    state: DocState,
    /// Names of currently open elements (innermost last).
    open: Vec<QName>,
    /// Byte offset of the `<` of each open element's start tag.
    open_starts: Vec<u64>,
    entities: EntityTable,
    /// A self-closing tag produces a deferred `EndElement`.
    pending_end: Option<EndElementEvent>,
    seen_doctype: bool,
    scratch: String,
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
            config,
            state: DocState::Init,
            open: Vec::new(),
            open_starts: Vec::new(),
            entities: EntityTable::new(),
            pending_end: None,
            seen_doctype: false,
            scratch: String::new(),
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
        self.open.len()
    }

    /// Current stream position.
    pub fn position(&self) -> TextPosition {
        self.scanner.position()
    }

    /// Current absolute byte offset.
    pub fn offset(&self) -> u64 {
        self.scanner.offset()
    }

    /// Pulls the next event. After [`XmlEvent::EndDocument`] has been
    /// returned, every further call returns it again.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent> {
        let event = self.next_event_inner();
        if matches!(&event, Ok(XmlEvent::EndDocument)) {
            self.flush_scan_probe();
        }
        event
    }

    fn next_event_inner(&mut self) -> XmlResult<XmlEvent> {
        if let Some(end) = self.pending_end.take() {
            self.pop_open();
            if self.open.is_empty() && self.state == DocState::InRoot {
                self.state = DocState::Epilog;
            }
            return Ok(XmlEvent::EndElement(end));
        }
        match self.state {
            DocState::Init => self.read_document_start(),
            DocState::Done => Ok(XmlEvent::EndDocument),
            _ => self.read_content(),
        }
    }

    /// Convenience: runs the document to completion, returning all events
    /// including the final `EndDocument`. Intended for tests and small
    /// inputs; production consumers should stream.
    pub fn collect_events(mut self) -> XmlResult<Vec<XmlEvent>> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?;
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

    fn read_document_start(&mut self) -> XmlResult<XmlEvent> {
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

    fn read_xml_declaration(&mut self) -> XmlResult<XmlEvent> {
        self.scanner.consume_ascii(b"<?xml")?;
        let mut version = None;
        let mut encoding = None;
        loop {
            self.skip_whitespace()?;
            match self.scanner.peek_byte()? {
                Some(b'?') => {
                    self.expect_ascii(b"?>")?;
                    break;
                }
                Some(_) => {
                    let pos = self.scanner.position();
                    let key = self.read_name()?;
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

    fn read_content(&mut self) -> XmlResult<XmlEvent> {
        loop {
            let pos = self.scanner.position();
            match self.scanner.peek_byte()? {
                None => return self.handle_eof(pos),
                Some(b'<') => match self.classify_markup()? {
                    Markup::EndTag => return self.read_end_tag(),
                    Markup::Comment => return Ok(XmlEvent::Comment(self.read_comment()?)),
                    Markup::Cdata => {
                        if self.state != DocState::InRoot {
                            return Err(XmlError::syntax(
                                "CDATA section outside the root element",
                                pos,
                            ));
                        }
                        return self.read_text();
                    }
                    Markup::Doctype => {
                        let event = self.read_doctype()?;
                        return Ok(event);
                    }
                    Markup::Pi => return self.read_pi().map(XmlEvent::ProcessingInstruction),
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

    fn handle_eof(&mut self, pos: TextPosition) -> XmlResult<XmlEvent> {
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

    fn read_start_tag(&mut self) -> XmlResult<XmlEvent> {
        let start_offset = self.scanner.offset();
        let position = self.scanner.position();
        match self.state {
            DocState::Epilog => return Err(XmlError::new(XmlErrorKind::TrailingContent, position)),
            DocState::Prolog => {}
            DocState::InRoot => {}
            _ => unreachable!("start tag in state {:?}", self.state),
        }
        self.expect_ascii(b"<")?;
        let name = QName::new(self.read_name()?);
        let mut attributes: Vec<Attribute> = Vec::new();
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
                    let attr_name = QName::new(self.read_name()?);
                    if attributes.iter().any(|a| a.name == attr_name) {
                        return Err(XmlError::new(
                            XmlErrorKind::DuplicateAttribute { name: attr_name.as_str().into() },
                            attr_pos,
                        ));
                    }
                    self.skip_whitespace()?;
                    self.expect_ascii(b"=")?;
                    self.skip_whitespace()?;
                    let value = self.read_attribute_value()?;
                    attributes.push(Attribute { name: attr_name, value });
                }
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "start tag" },
                        self.scanner.position(),
                    ))
                }
            }
        };
        if self.open.len() >= self.config.max_depth {
            return Err(XmlError::new(
                XmlErrorKind::DepthLimit { max: self.config.max_depth },
                position,
            ));
        }
        let end_offset = self.scanner.offset();
        self.open.push(name.clone());
        self.open_starts.push(start_offset);
        if self.state == DocState::Prolog {
            self.state = DocState::InRoot;
        }
        let level = self.open.len() as u32;
        if self_closing {
            self.pending_end = Some(EndElementEvent {
                name: name.clone(),
                level,
                element_span: ByteSpan::new(start_offset, end_offset),
            });
        }
        Ok(XmlEvent::StartElement(StartElementEvent {
            name,
            attributes,
            level,
            span: ByteSpan::new(start_offset, end_offset),
        }))
    }

    fn read_end_tag(&mut self) -> XmlResult<XmlEvent> {
        let position = self.scanner.position();
        self.expect_ascii(b"</")?;
        let name = self.read_name()?;
        self.skip_whitespace()?;
        self.expect_ascii(b">")?;
        let expected = match self.open.last() {
            Some(n) => n,
            None => return Err(XmlError::new(XmlErrorKind::UnbalancedEndTag { name }, position)),
        };
        if expected.as_str() != name {
            return Err(XmlError::new(
                XmlErrorKind::MismatchedTag { expected: expected.as_str().into(), found: name },
                position,
            ));
        }
        let level = self.open.len() as u32;
        let start_offset = *self.open_starts.last().expect("stack in sync");
        let end_offset = self.scanner.offset();
        let name = self.pop_open();
        if self.open.is_empty() {
            self.state = DocState::Epilog;
        }
        Ok(XmlEvent::EndElement(EndElementEvent {
            name,
            level,
            element_span: ByteSpan::new(start_offset, end_offset),
        }))
    }

    fn pop_open(&mut self) -> QName {
        self.open_starts.pop();
        self.open.pop().expect("pop_open with empty stack")
    }

    // ---------------------------------------------------------------- //
    // Text
    // ---------------------------------------------------------------- //

    fn read_text(&mut self) -> XmlResult<XmlEvent> {
        let position = self.scanner.position();
        let start_offset = self.scanner.offset();
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        // Rolling window to detect the illegal raw sequence `]]>` even when
        // split across scanning chunks (decoded entities / CDATA content are
        // exempt, as the spec requires).
        let mut raw_tail: [char; 2] = ['\0', '\0'];
        loop {
            // Fast ASCII path via the prebuilt byte class. TEXT_RUN holds
            // neither `]` nor `>`, so a non-empty run ends any `]]` in
            // progress.
            if self.scanner.consume_class_run(&TEXT_RUN, &mut text)? > 0 {
                raw_tail = ['\0', '\0'];
            }
            match self.scanner.peek_byte()? {
                None => break,
                Some(b'<') => {
                    if self.scanner.starts_with(b"<![CDATA[")? {
                        self.read_cdata_into(&mut text)?;
                        raw_tail = ['\0', '\0'];
                        continue;
                    }
                    break;
                }
                Some(b'&') => {
                    self.read_reference_into(&mut text)?;
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
                    text.push(c);
                }
            }
        }
        let span = ByteSpan::new(start_offset, self.scanner.offset());
        let level = self.open.len() as u32;
        let event = CharactersEvent { text, level, span };
        if event.text.is_empty() {
            // Nothing reportable (e.g. an empty CDATA section): recurse
            // into the next construct.
            self.scratch = event.text;
            return self.read_content();
        }
        Ok(XmlEvent::Characters(event))
    }

    fn read_cdata_into(&mut self, out: &mut String) -> XmlResult<()> {
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
                        out.truncate(out.len() - 2);
                        return Ok(());
                    }
                    tail = [tail[1], c];
                    out.push(c);
                }
            }
        }
    }

    /// Reads `&...;` (the `&` is still unconsumed) and appends the decoded
    /// replacement to `out`.
    fn read_reference_into(&mut self, out: &mut String) -> XmlResult<()> {
        let pos = self.scanner.position();
        self.expect_ascii(b"&")?;
        let mut body = String::new();
        loop {
            match self.scanner.next_char()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "entity reference" },
                        pos,
                    ))
                }
                Some(';') => break,
                Some(c) if c == '#' || name::is_name_char(c) => body.push(c),
                Some(c) => {
                    return Err(XmlError::syntax(
                        format!("invalid character {c:?} in entity reference"),
                        pos,
                    ))
                }
            }
        }
        if let Some(num) = body.strip_prefix('#') {
            out.push(entities::parse_char_ref(num, pos)?);
        } else if body.is_empty() {
            return Err(XmlError::syntax("empty entity reference", pos));
        } else {
            self.entities.expand(&body, &self.config.entity_limits, pos, out)?;
        }
        Ok(())
    }

    // ---------------------------------------------------------------- //
    // Comments and processing instructions
    // ---------------------------------------------------------------- //

    fn read_comment(&mut self) -> XmlResult<String> {
        let open_pos = self.scanner.position();
        self.expect_ascii(b"<!--")?;
        let mut text = String::new();
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
                    text.push(c);
                    if text.ends_with("--") {
                        match self.scanner.peek_byte()? {
                            Some(b'>') => {
                                self.expect_ascii(b">")?;
                                text.truncate(text.len() - 2);
                                return Ok(text);
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

    fn read_pi(&mut self) -> XmlResult<ProcessingInstructionEvent> {
        let position = self.scanner.position();
        self.expect_ascii(b"<?")?;
        let target = self.read_name()?;
        if target.eq_ignore_ascii_case("xml") {
            return Err(XmlError::syntax(
                "processing-instruction target 'xml' is reserved",
                position,
            ));
        }
        let mut data = String::new();
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
                    if !had_ws && data.is_empty() {
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
                    data.push(c);
                }
            }
        }
        Ok(ProcessingInstructionEvent { target, data })
    }

    // ---------------------------------------------------------------- //
    // DOCTYPE
    // ---------------------------------------------------------------- //

    fn read_doctype(&mut self) -> XmlResult<XmlEvent> {
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
        let name = self.read_name()?;
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
        let name = self.read_name()?;
        if !self.skip_whitespace()? {
            return Err(XmlError::syntax("expected whitespace after entity name", pos));
        }
        match self.scanner.peek_byte()? {
            Some(b'"') | Some(b'\'') => {
                let raw = self.read_quoted_literal()?;
                self.entities.declare_internal(&name, &raw);
            }
            _ => {
                // SYSTEM / PUBLIC external entity: record and skip.
                self.entities.declare_external(&name);
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

    /// Reads an XML `Name`.
    fn read_name(&mut self) -> XmlResult<String> {
        let pos = self.scanner.position();
        let mut out = String::new();
        // Fast ASCII path.
        self.scanner.consume_class_run(&NAME_RUN, &mut out)?;
        // Slow path for non-ASCII name characters.
        while let Some(c) = self.scanner.peek_char()? {
            if c.is_ascii() || !name::is_name_char(c) {
                break;
            }
            out.push(c);
            self.scanner.next_char()?;
            // Resume the fast path after each non-ASCII char.
            self.scanner.consume_class_run(&NAME_RUN, &mut out)?;
        }
        if !name::is_valid_name(&out) {
            return Err(XmlError::new(XmlErrorKind::InvalidName { name: out }, pos));
        }
        Ok(out)
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

    /// Reads an attribute value with XML 1.0 §3.3.3 normalization:
    /// references expanded, whitespace characters become spaces, `<` is
    /// forbidden.
    fn read_attribute_value(&mut self) -> XmlResult<String> {
        let pos = self.scanner.position();
        let quote = match self.scanner.next_char()? {
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
        let mut out = String::new();
        loop {
            // Bulk-copy the printable run up to the next quote, reference,
            // `<`, whitespace-to-normalize, or non-ASCII byte; the
            // char-wise arms below handle the stopping byte.
            self.scanner.consume_class_run(run, &mut out)?;
            match self.scanner.peek_byte()? {
                None => {
                    return Err(XmlError::new(
                        XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                        pos,
                    ))
                }
                Some(b'<') => {
                    return Err(XmlError::syntax(
                        "'<' is not allowed in attribute values",
                        self.scanner.position(),
                    ))
                }
                Some(b'&') => {
                    // References are expanded but their content is *not*
                    // re-normalized (per spec: a character reference to
                    // tab stays a tab).
                    self.read_reference_into(&mut out)?;
                }
                Some(_) => {
                    let c = self.scanner.next_char()?.expect("peeked byte");
                    if c == quote {
                        return Ok(out);
                    }
                    if !entities::is_xml_char(c) {
                        return Err(XmlError::new(
                            XmlErrorKind::InvalidChar { ch: c },
                            self.scanner.position(),
                        ));
                    }
                    out.push(if matches!(c, '\t' | '\n') { ' ' } else { c });
                }
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

/// Iterating a reader yields events up to and including `EndDocument`,
/// then stops. An error also terminates iteration.
impl<R: Read> Iterator for XmlReader<R> {
    type Item = XmlResult<XmlEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state == DocState::Done {
            return None;
        }
        match self.next_event() {
            Ok(e) => {
                if e.is_end_document() {
                    self.state = DocState::Done;
                }
                Some(Ok(e))
            }
            Err(e) => {
                self.state = DocState::Done;
                Some(Err(e))
            }
        }
    }
}
