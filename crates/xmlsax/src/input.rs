//! Buffered, two-stage byte scanner over any [`Read`].
//!
//! This is the lowest layer of the streaming parser: a sliding window over
//! the input, walked in two stages (the split simdjson and Parabix make).
//!
//! * **Stage 1** classifies the window one 64-byte block at a time: one
//!   pass of byte compares, shared between two classes and vectorized by
//!   the compiler, packed eight lanes per `u64` word by a SWAR multiply
//!   into two stop masks — one for character data, one for markup. Only
//!   the current block's two masks are kept.
//! * **Stage 2** (the reader) jumps from stop to stop with
//!   `trailing_zeros` and slices names, values and text straight out of
//!   the window; it looks at single bytes only where a mask stopped it.
//!
//! The window holds validated UTF-8 only (each read is checked once, in
//! bulk), so a slice of it is text with no further check; malformed bytes
//! wait past its end until the walk reaches them. It keeps the construct
//! being read: it discards only bytes before `keep`, which the reader
//! moves up at each event (and through a text node too long to keep), so
//! every offset an error may report is still in the window. Line and
//! column are not tracked per byte. Each slide counts the newlines in the
//! bytes it discards (`\r\n` and a bare `\r` count once, as XML 1.0
//! §2.11 normalizes them), and a position is computed from the window
//! when asked. Memory use is bounded by the window and the largest tag,
//! comment, PI or DOCTYPE, not by the document.

use std::io::Read;

use crate::entities;
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::name;
use crate::pos::TextPosition;

/// `block` when no block is classified.
const NO_BLOCK: usize = usize::MAX;
/// Bytes one `read` asks for: a stack buffer, so the window stays the
/// only heap the scanner holds.
const CHUNK: usize = 8 * 1024;

/// The buffered scanner: a window over the source, a cursor, and the
/// stage-1 masks of the block under the cursor.
pub(crate) struct Scanner<R: Read> {
    source: R,
    /// The window. Reads append only whole, valid UTF-8 characters, so
    /// any slice between two cursor positions is text as it stands.
    buf: String,
    /// The start of a character a read cut off, waiting for the rest.
    held: ([u8; 4], usize),
    /// The first byte of malformed UTF-8 (or of a character the stream
    /// cut off) just past the window. The source is not read past it, and
    /// decoding it is an error at the offset it sits at.
    bad: Option<u8>,
    /// First byte of the construct being read: only bytes before it may
    /// be discarded.
    keep: usize,
    /// Next unread byte.
    pos: usize,
    /// The underlying reader reported end-of-stream (or `bad` was met).
    source_eof: bool,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// Newlines in the discarded bytes, and the characters on the last
    /// line of them.
    lines: u32,
    columns: u32,
    /// Window index of the block the two masks describe.
    block: usize,
    text_stops: u64,
    tag_stops: u64,
    /// Bytes walked past through the masks (the rest were read one at a
    /// time): plain integers, flushed to a probe once per document.
    block_bytes: u64,
}

impl<R: Read> Scanner<R> {
    /// Creates a scanner with a specific window size (minimum 16 bytes).
    pub(crate) fn with_capacity(source: R, capacity: usize) -> Self {
        Scanner {
            source,
            buf: String::with_capacity(capacity.max(16)),
            held: ([0; 4], 0),
            bad: None,
            keep: 0,
            pos: 0,
            source_eof: false,
            base: 0,
            lines: 0,
            columns: 0,
            block: NO_BLOCK,
            text_stops: 0,
            tag_stops: 0,
            block_bytes: 0,
        }
    }

    /// Bytes consumed so far as `(through block masks, one at a time)`;
    /// the two add up to [`Scanner::offset`].
    pub(crate) fn scan_counts(&self) -> (u64, u64) {
        (self.block_bytes, self.offset() - self.block_bytes)
    }

    /// The window's size in bytes.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Stream offset of the cursor.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Position of the cursor.
    pub(crate) fn position(&self) -> TextPosition {
        self.position_at(self.offset())
    }

    /// Position of stream offset `at`, which must lie in the window (at
    /// or after the kept construct's start).
    pub(crate) fn position_at(&self, at: u64) -> TextPosition {
        let seen = &self.buf.as_bytes()[..(at - self.base) as usize];
        let (lines, columns) = count_lines(seen, self.lines, self.columns);
        TextPosition::new(at, lines + 1, columns + 1)
    }

    /// Marks the cursor as the start of the next construct: the window
    /// may discard everything before it.
    pub(crate) fn commit(&mut self) {
        self.keep = self.pos;
    }

    /// Lets the window discard the construct's bytes before stream offset
    /// `at` (at most the cursor): a long construct copied out as it goes.
    pub(crate) fn release(&mut self, at: u64) {
        let at = (at - self.base) as usize;
        debug_assert!(self.keep <= at && at <= self.pos);
        self.keep = at;
    }

    /// Whether the kept construct fills more than half the window.
    pub(crate) fn crowded(&self) -> bool {
        2 * (self.pos - self.keep) > self.buf.capacity()
    }

    /// The bytes from stream offset `from` to the cursor.
    pub(crate) fn bytes_since(&self, from: u64) -> &[u8] {
        &self.buf.as_bytes()[(from - self.base) as usize..self.pos]
    }

    /// The text from stream offset `from` to the cursor.
    pub(crate) fn str_since(&self, from: u64) -> &str {
        self.str_between(from, self.offset())
    }

    /// The text between two stream offsets in the window.
    pub(crate) fn str_between(&self, from: u64, to: u64) -> &str {
        &self.buf[(from - self.base) as usize..(to - self.base) as usize]
    }

    /// The first byte of malformed UTF-8 just past the window, once a
    /// read has met it.
    pub(crate) fn bad(&self) -> Option<u8> {
        self.bad
    }

    /// Reads more input, first sliding out the bytes before `keep` (or,
    /// when the kept construct fills the window, doubling the window).
    /// Returns `false` once the stream has ended or malformed UTF-8 stops
    /// it.
    pub(crate) fn fill(&mut self) -> XmlResult<bool> {
        if self.source_eof {
            return Ok(false);
        }
        // Room for a read plus the held bytes that complete a character.
        if self.buf.capacity() - self.buf.len() < 8 && self.keep > 0 {
            (self.lines, self.columns) =
                count_lines(&self.buf.as_bytes()[..self.keep], self.lines, self.columns);
            self.buf.drain(..self.keep);
            self.base += self.keep as u64;
            self.pos -= self.keep;
            self.keep = 0;
        }
        if self.buf.capacity() - self.buf.len() < 8 {
            self.buf.reserve_exact(self.buf.capacity());
        }
        self.block = NO_BLOCK;
        let mut chunk = [0; CHUNK];
        let (held, h) = self.held;
        chunk[..h].copy_from_slice(&held[..h]);
        let room = (self.buf.capacity() - self.buf.len() - h).min(CHUNK - h);
        let read = self
            .source
            .read(&mut chunk[h..h + room])
            .map_err(|e| XmlError::new(XmlErrorKind::Io(e.into()), self.position()))?;
        let got = &chunk[..h + read];
        let valid = match std::str::from_utf8(got) {
            Ok(text) => text,
            Err(e) => {
                let rest = &got[e.valid_up_to()..];
                if e.error_len().is_some() || read == 0 {
                    // Malformed, or cut off by the end of the stream.
                    self.bad = Some(rest[0]);
                    self.source_eof = true;
                } else {
                    self.held.0[..rest.len()].copy_from_slice(rest);
                }
                // The valid prefix `e` ends.
                got.utf8_chunks().next().map_or("", |chunk| chunk.valid())
            }
        };
        self.held.1 = h + read - valid.len();
        self.buf.push_str(valid);
        self.source_eof |= read == 0;
        Ok(read > 0)
    }

    /// Makes `n` bytes available at the cursor; `false` if the stream
    /// ends (or turns malformed) first.
    fn ensure(&mut self, n: usize) -> XmlResult<bool> {
        while self.buf.len() - self.pos < n {
            if !self.fill()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The byte at the cursor, not consumed.
    #[inline]
    pub(crate) fn peek(&mut self) -> XmlResult<Option<u8>> {
        self.peek_at(0)
    }

    /// The byte `i` past the cursor, not consumed. The first byte of
    /// malformed UTF-8 shows as itself; nothing after it shows.
    #[inline]
    pub(crate) fn peek_at(&mut self, i: usize) -> XmlResult<Option<u8>> {
        if self.pos + i < self.buf.len() || self.ensure(i + 1)? {
            Ok(Some(self.buf.as_bytes()[self.pos + i]))
        } else {
            Ok(self.bad.filter(|_| self.pos + i == self.buf.len()))
        }
    }

    /// Whether the unread input starts with `prefix`.
    pub(crate) fn starts_with(&mut self, prefix: &[u8]) -> XmlResult<bool> {
        Ok(self.ensure(prefix.len())? && self.buf.as_bytes()[self.pos..].starts_with(prefix))
    }

    /// Consumes `n` bytes the caller has peeked.
    #[inline]
    pub(crate) fn advance(&mut self, n: usize) {
        debug_assert!(self.pos + n <= self.buf.len());
        self.pos += n;
    }

    /// Consumes `bytes` and then `last` if the unread input starts with
    /// them; returns whether it did.
    pub(crate) fn skip_exact(&mut self, bytes: &[u8], last: u8) -> XmlResult<bool> {
        let n = bytes.len();
        let found = (self.pos + n < self.buf.len() || self.ensure(n + 1)?)
            && self.buf.as_bytes()[self.pos + n] == last
            && &self.buf.as_bytes()[self.pos..self.pos + n] == bytes;
        if found {
            self.pos += n + 1;
        }
        Ok(found)
    }

    /// Discards a UTF-8 byte-order mark at the start of the stream: it
    /// moves the offset but not the column.
    pub(crate) fn skip_bom(&mut self) {
        debug_assert!(self.pos == 0 && self.buf.starts_with('\u{FEFF}'));
        self.buf.drain(..3);
        self.base = 3;
    }

    /// Consumes a line end the cursor is at: `\r\n` or a bare `\r`.
    pub(crate) fn skip_cr(&mut self) -> XmlResult<()> {
        self.pos += 1;
        if self.peek()? == Some(b'\n') {
            self.pos += 1;
        }
        Ok(())
    }

    /// Skips XML whitespace; returns whether any was consumed.
    #[inline]
    pub(crate) fn skip_whitespace(&mut self) -> XmlResult<bool> {
        let from = self.offset();
        loop {
            match self.peek()? {
                Some(b' ' | b'\t' | b'\n') => self.pos += 1,
                Some(b'\r') => self.skip_cr()?,
                _ => return Ok(self.offset() != from),
            }
        }
    }

    /// The character at the cursor (not consumed) and its length in
    /// bytes; the cursor must be at a non-ASCII byte. Malformed UTF-8 is
    /// an error at its first byte.
    pub(crate) fn decode(&mut self) -> XmlResult<(char, usize)> {
        match self.buf[self.pos..].chars().next() {
            Some(c) => Ok((c, c.len_utf8())),
            None => Err(XmlError::new(XmlErrorKind::InvalidUtf8, self.position())),
        }
    }

    /// Consumes the non-ASCII character at the cursor, which must be an
    /// XML `Char`.
    pub(crate) fn xml_char(&mut self) -> XmlResult<()> {
        let (c, len) = self.decode()?;
        self.pos += len;
        if !entities::is_xml_char(c) {
            return Err(XmlError::new(XmlErrorKind::InvalidChar { ch: c }, self.position()));
        }
        Ok(())
    }

    /// Consumes and returns the next character, normalizing line ends
    /// (`\r\n` and a bare `\r` are delivered as `\n`); `None` at end of
    /// stream. The character-wise path for markup that is rare in data:
    /// comments, PIs, CDATA, the DOCTYPE.
    pub(crate) fn next_char(&mut self) -> XmlResult<Option<char>> {
        let (c, len) = match self.peek()? {
            None => return Ok(None),
            Some(b'\r') => {
                self.skip_cr()?;
                return Ok(Some('\n'));
            }
            Some(b) if b < 0x80 => (b as char, 1),
            Some(_) => self.decode()?,
        };
        self.pos += len;
        Ok(Some(c))
    }

    /// Stage 2: walks the cursor to the next stop of the text mask (`TAG
    /// = false`) or the tag mask (`TAG = true`) in the window. Returns the
    /// stop byte, not consumed, or `None` at the window's end.
    #[inline]
    pub(crate) fn run_here<const TAG: bool>(&mut self) -> Option<u8> {
        let stop = self.next_stop::<TAG>(self.pos);
        self.block_bytes += (stop - self.pos) as u64;
        self.pos = stop;
        self.buf.as_bytes().get(stop).copied()
    }

    /// [`Scanner::run_here`], reading more input at the window's end.
    /// Returns the stop byte (malformed UTF-8 stops as its first byte), or
    /// `None` at end of stream.
    #[inline]
    pub(crate) fn run<const TAG: bool>(&mut self) -> XmlResult<Option<u8>> {
        loop {
            if let Some(b) = self.run_here::<TAG>() {
                return Ok(Some(b));
            }
            if !self.fill()? {
                return Ok(self.bad);
            }
        }
    }

    /// Reads an XML `Name` at the cursor: an ASCII run up to the next
    /// tag-mask stop, checked byte by byte, then any non-ASCII name
    /// characters (each decoded and checked) and the runs after them.
    pub(crate) fn name(&mut self) -> XmlResult<&str> {
        let start = self.offset();
        loop {
            let from = self.pos;
            let stop = self.next_stop::<true>(from);
            let bytes = &self.buf.as_bytes()[from..stop];
            self.pos =
                bytes.iter().position(|&b| !NAME_BYTES[b as usize]).map_or(stop, |k| from + k);
            self.block_bytes += (self.pos - from) as u64;
            if self.pos < stop {
                break;
            }
            match self.buf.as_bytes().get(stop).copied() {
                None if self.fill()? => continue,
                None if self.bad.is_none() => break,
                Some(b) if b < 0x80 => break,
                _ => {}
            }
            let (c, len) = self.decode()?;
            if !name::is_name_char(c) {
                break;
            }
            self.pos += len;
        }
        // Every character after the first is a name character by now.
        let name = self.str_since(start);
        if name.chars().next().is_some_and(name::is_name_start_char) {
            Ok(name)
        } else {
            let kind = XmlErrorKind::InvalidName { name: name.into() };
            Err(XmlError::new(kind, self.position_at(start)))
        }
    }

    /// The skip walk's start tag: a plain ASCII start tag at the cursor
    /// (its `<`), read from the window alone and consumed. Plain means
    /// ASCII names, at most [`PLAIN_ATTRS`] attributes with distinct names,
    /// and quoted values free of `&`, `<` and control bytes. On anything
    /// else, or where the tag runs past the window, it returns `None` and
    /// leaves the cursor and the counts as they were, for the reader's own
    /// routine to read the tag from its first byte.
    pub(crate) fn plain_start_tag(&mut self) -> Option<PlainTag> {
        let mut names = [(0, 0); PLAIN_ATTRS];
        let mut jumped = 0;
        let name = self.pos + 1;
        let mut i = self.plain_name(name, &mut jumped)?;
        let name_len = i - name;
        let mut attributes = 0;
        let self_closing = loop {
            let ws = i;
            i = self.plain_whitespace(i)?;
            match self.byte(i)? {
                b'>' => break false,
                b'/' if self.byte(i + 1)? == b'>' => {
                    i += 1;
                    break true;
                }
                _ if i == ws || attributes == PLAIN_ATTRS => return None,
                _ => {}
            }
            let start = i;
            i = self.plain_name(start, &mut jumped)?;
            let window = self.buf.as_bytes();
            if names[..attributes].iter().any(|&(s, e)| window[s..e] == window[start..i]) {
                return None;
            }
            names[attributes] = (start, i);
            attributes += 1;
            i = self.plain_whitespace(i)?;
            if self.byte(i)? != b'=' {
                return None;
            }
            i = self.plain_whitespace(i + 1)?;
            let quote @ (b'"' | b'\'') = self.byte(i)? else { return None };
            loop {
                let stop = self.next_stop::<true>(i + 1);
                jumped += stop - i - 1;
                i = stop;
                match self.byte(stop)? {
                    b if b == quote => break,
                    b' ' | b'"' | b'\'' | b'/' | b'>' | b'=' => {}
                    _ => return None,
                }
            }
            i += 1;
        };
        self.block_bytes += jumped as u64;
        self.pos = i + 1;
        Some(PlainTag { name_len, attributes: attributes as u32, self_closing })
    }

    /// The skip walk's text node: a plain ASCII text run at the cursor,
    /// consumed up to the `<` of the next tag in the window. Plain means free
    /// of `&`, `\r`, control bytes and `]]>`, and not followed by `<!` (a
    /// CDATA section would continue the text node). Returns `false`, with
    /// the cursor and the counts as they were, on anything else or where
    /// the run reaches the window's end.
    pub(crate) fn plain_text(&mut self) -> bool {
        let start = self.pos;
        let mut i = start;
        let mut jumped = 0;
        let end = loop {
            let stop = self.next_stop::<false>(i);
            jumped += stop - i;
            match self.byte(stop) {
                Some(b'<') if !matches!(self.byte(stop + 1), None | Some(b'!')) => break stop,
                Some(b'=') => {}
                Some(b'>') if !self.buf.as_bytes()[start..stop].ends_with(b"]]") => {}
                _ => return false,
            }
            i = stop + 1;
        };
        self.block_bytes += jumped as u64;
        self.pos = end;
        true
    }

    /// The window's byte at index `i`, if it holds one.
    #[inline]
    fn byte(&self, i: usize) -> Option<u8> {
        self.buf.as_bytes().get(i).copied()
    }

    /// The end of a plain ASCII name at window index `i`: a name-start
    /// byte, then name bytes up to a tag stop inside the window. Counts
    /// the name into `jumped`.
    fn plain_name(&mut self, i: usize, jumped: &mut usize) -> Option<usize> {
        let stop = self.next_stop::<true>(i);
        let name = &self.buf.as_bytes()[i..stop];
        let start =
            name.first().is_some_and(|&b| b.is_ascii_alphabetic() || b == b'_' || b == b':');
        if !start || stop == self.buf.len() || !name.iter().all(|&b| NAME_BYTES[b as usize]) {
            return None;
        }
        *jumped += stop - i;
        Some(stop)
    }

    /// The first window index at or after `i` that is not XML whitespace.
    fn plain_whitespace(&self, mut i: usize) -> Option<usize> {
        while matches!(self.byte(i)?, b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        Some(i)
    }

    /// The first stop at or after window index `i`; the window's end if
    /// none comes before it (bytes past the end classify as stops).
    #[inline]
    fn next_stop<const TAG: bool>(&mut self, mut i: usize) -> usize {
        loop {
            let b = i & !63;
            if b != self.block {
                self.classify(b);
            }
            let stops = if TAG { self.tag_stops } else { self.text_stops } >> (i - b);
            if stops != 0 {
                return i + stops.trailing_zeros() as usize;
            }
            i = b + 64;
        }
    }

    /// Stage 1 on the block at window index `b`: a partial last block is
    /// padded with `0x80`, a stop in both masks.
    fn classify(&mut self, b: usize) {
        let window = self.buf.as_bytes();
        (self.text_stops, self.tag_stops) = match window[b..].first_chunk() {
            Some(block) => block_masks(block),
            None => {
                let mut padded = [0x80; 64];
                padded[..window.len() - b].copy_from_slice(&window[b..]);
                block_masks(&padded)
            }
        };
        self.block = b;
    }
}

/// Attributes a start tag may have for the skip walk to read it; a tag
/// with more goes to the reader's routine, whose duplicate check scales.
const PLAIN_ATTRS: usize = 8;

/// A start tag the skip walk read whole ([`Scanner::plain_start_tag`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlainTag {
    /// Length of the element name, which starts one byte past the `<`.
    pub(crate) name_len: usize,
    pub(crate) attributes: u32,
    pub(crate) self_closing: bool,
}

/// `(lines, columns)` carried over `bytes`: the newlines in them, and the
/// characters after the last one (added to `columns` if there is none).
/// The common cases are three vectorizable counts.
fn count_lines(bytes: &[u8], lines: u32, columns: u32) -> (u32, u32) {
    let chars = |s: &[u8]| s.iter().filter(|&&b| b & 0xC0 != 0x80).count() as u32;
    let lf = bytes.iter().filter(|&&b| b == b'\n').count() as u32;
    let cr = bytes.iter().filter(|&&b| b == b'\r').count() as u32;
    if lf + cr == 0 {
        return (lines, columns + chars(bytes));
    }
    let crlf = if cr == 0 { 0 } else { bytes.windows(2).filter(|w| w == b"\r\n").count() as u32 };
    let after = bytes.iter().rposition(|&b| b == b'\n' || b == b'\r').map_or(0, |i| i + 1);
    (lines + lf + cr - crlf, chars(&bytes[after..]))
}

/// A byte's stops as `(text, tag)`.
///
/// * Text stops at `<`, `=`, `>`, `&`, controls other than tab and
///   newline (so `\r` too) and non-ASCII: `>` for `]]>`, `=` because
///   tags need it anyway.
/// * Tags stop at `<`, `=`, `>`, `&`, quotes, `/`, whitespace and the
///   other controls (every byte up to space) and non-ASCII.
#[inline(always)]
fn stops(b: u8) -> (bool, bool) {
    // `|` and `&`, not `||` and `&&`: no branches, so the block loop
    // compiles to SIMD compares.
    let shared = (b >= 0x80) | (b == b'<') | (b == b'=') | (b == b'>') | (b == b'&');
    let text = shared | ((b < 0x20) & (b != b'\t') & (b != b'\n'));
    let tag = shared | (b <= 0x20) | (b == b'"') | (b == b'\'') | (b == b'/');
    (text, tag)
}

/// Stage 1 on one 64-byte block: the `(text, tag)` stop masks, bit `i`
/// for byte `i`. The byte loop shares its compares between the two
/// classes and vectorizes; each class's eight 0/1 lanes per `u64` word are
/// then packed with one multiply, which moves lane `k`'s bit to bit
/// `56 + k` (no two partial products meet there).
fn block_masks(block: &[u8; 64]) -> (u64, u64) {
    let (mut text_lanes, mut tag_lanes) = ([0u8; 64], [0u8; 64]);
    for i in 0..64 {
        let (text, tag) = stops(block[i]);
        text_lanes[i] = text as u8;
        tag_lanes[i] = tag as u8;
    }
    let pack = |lanes: &[u8; 64]| {
        lanes.as_chunks().0.iter().enumerate().fold(0u64, |mask, (w, &word)| {
            let word = u64::from_le_bytes(word);
            mask | (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * w)
        })
    };
    (pack(&text_lanes), pack(&tag_lanes))
}

/// ASCII bytes that may appear in an XML name.
static NAME_BYTES: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 0x80 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.');
        b += 1;
    }
    t
};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn scan(s: &str, capacity: usize) -> Scanner<Cursor<Vec<u8>>> {
        Scanner::with_capacity(Cursor::new(s.as_bytes().to_vec()), capacity)
    }

    /// The masks byte by byte, as the doc comment of `stops` states them.
    fn reference(b: u8) -> (bool, bool) {
        let shared = b >= 0x80 || matches!(b, b'<' | b'=' | b'>' | b'&');
        let text = shared || (b < 0x20 && b != b'\t' && b != b'\n');
        let tag = shared || b <= 0x20 || matches!(b, b'"' | b'\'' | b'/');
        (text, tag)
    }

    #[test]
    fn reads_chars_and_tracks_position() {
        let mut sc = scan("ab\ncd", 64);
        assert_eq!(sc.next_char().unwrap(), Some('a'));
        assert_eq!(sc.next_char().unwrap(), Some('b'));
        assert_eq!(sc.next_char().unwrap(), Some('\n'));
        assert_eq!((sc.position().line, sc.position().column), (2, 1));
        assert_eq!(sc.next_char().unwrap(), Some('c'));
        assert_eq!(sc.position().column, 2);
        assert_eq!(sc.next_char().unwrap(), Some('d'));
        assert_eq!(sc.next_char().unwrap(), None);
        assert_eq!(sc.offset(), 5);
    }

    #[test]
    fn normalizes_line_endings() {
        let mut sc = scan("a\r\nb\rc", 64);
        let mut got = String::new();
        while let Some(c) = sc.next_char().unwrap() {
            got.push(c);
        }
        assert_eq!(got, "a\nb\nc");
        // Offsets still count raw bytes.
        assert_eq!(sc.offset(), 6);
        assert_eq!(sc.position().line, 3);
    }

    #[test]
    fn decodes_multibyte_utf8() {
        let mut sc = scan("é日x", 64);
        assert_eq!(sc.next_char().unwrap(), Some('é'));
        assert_eq!(sc.next_char().unwrap(), Some('日'));
        assert_eq!(sc.next_char().unwrap(), Some('x'));
        assert_eq!(sc.offset(), 6);
        assert_eq!(sc.position().column, 4);
    }

    #[test]
    fn rejects_invalid_utf8() {
        let mut sc = Scanner::with_capacity(Cursor::new(b"ab\xFFc".to_vec()), 64);
        assert_eq!(sc.next_char().unwrap(), Some('a'));
        assert_eq!(sc.next_char().unwrap(), Some('b'));
        let e = sc.next_char().unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::InvalidUtf8));
        assert_eq!(e.position().offset, 2, "reported at the bad byte");
    }

    #[test]
    fn rejects_truncated_utf8() {
        let mut sc = Scanner::with_capacity(Cursor::new(vec![0xC3]), 64); // lone lead byte
        assert!(matches!(sc.next_char().unwrap_err().kind(), XmlErrorKind::InvalidUtf8));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut sc = scan("xy", 64);
        assert_eq!(sc.peek().unwrap(), Some(b'x'));
        assert_eq!(sc.peek_at(1).unwrap(), Some(b'y'));
        assert_eq!(sc.peek_at(2).unwrap(), None);
        assert_eq!(sc.next_char().unwrap(), Some('x'));
    }

    #[test]
    fn starts_with_and_consume() {
        let mut sc = scan("<!--rest", 64);
        assert!(sc.starts_with(b"<!--").unwrap());
        assert!(!sc.starts_with(b"<!DOCTYPE").unwrap());
        sc.advance(4);
        assert_eq!(sc.next_char().unwrap(), Some('r'));
    }

    #[test]
    fn ascii_run_stops_at_boundary() {
        let mut sc = scan("hello<world", 64);
        assert_eq!(sc.run::<false>().unwrap(), Some(b'<'));
        assert_eq!(sc.str_since(0), "hello");
    }

    #[test]
    fn ascii_run_stops_at_non_ascii_and_cr() {
        let mut sc = scan("ab\récd", 64);
        assert_eq!(sc.run::<false>().unwrap(), Some(b'\r'));
        assert_eq!(sc.offset(), 2);
        sc.skip_cr().unwrap();
        assert_eq!(sc.run::<false>().unwrap(), Some(0xC3), "é is non-ASCII");
        sc.xml_char().unwrap();
        assert_eq!(sc.run::<false>().unwrap(), None);
        assert_eq!((sc.offset(), sc.position().line, sc.position().column), (7, 2, 4));
    }

    #[test]
    fn byte_class_masks_cr_and_non_ascii() {
        for b in [b'\r', 0x80, 0xC3, 0xFF] {
            assert_eq!(stops(b), (true, true), "byte {b:#x}");
        }
        assert_eq!(stops(b'a'), (false, false));
        assert_eq!(stops(b'\n'), (false, true), "a newline ends a name, not text");
        assert_eq!(stops(b'"'), (false, true));
        assert_eq!(stops(b'<'), (true, true));
    }

    #[test]
    fn class_run_accounts_position_in_bulk() {
        let mut sc = scan("ab\ncd\né", 64);
        assert_eq!(sc.run::<false>().unwrap(), Some(0xC3));
        assert_eq!(sc.str_since(0), "ab\ncd\n");
        let p = sc.position();
        assert_eq!((p.offset, p.line, p.column), (6, 3, 1));
    }

    #[test]
    fn class_run_spans_refills() {
        let text = format!("{}<rest", "xyz".repeat(40));
        let mut sc = scan(&text, 16);
        assert_eq!(sc.run::<false>().unwrap(), Some(b'<'));
        assert_eq!(sc.str_since(0), "xyz".repeat(40));
    }

    #[test]
    fn class_run_crosses_windows_end_to_end() {
        let text = format!("{}\n{}\x7f tail", "run ".repeat(50), "line".repeat(9));
        let mut sc = scan(&text, 32);
        assert_eq!(sc.run::<false>().unwrap(), None);
        assert_eq!(sc.str_since(0), text);
        assert_eq!(sc.position().line, 2);
    }

    #[test]
    fn works_across_tiny_buffer_refills() {
        // Committing after every character lets the window slide; the
        // position is counted over what it discards.
        let text = "abcdefghijklm\nopqrstuvwxyz".repeat(8);
        let mut sc = scan(&text, 16);
        let mut got = String::new();
        while let Some(c) = sc.next_char().unwrap() {
            got.push(c);
            sc.commit();
        }
        assert_eq!(got, text);
        let p = sc.position();
        assert_eq!((p.offset, p.line, p.column), (208, 9, 13));
    }

    #[test]
    fn lookahead_larger_than_window_grows() {
        let mut sc = scan("0123456789abcdef0123", 16);
        assert_eq!(sc.peek_at(18).unwrap(), Some(b'2'));
        assert_eq!(sc.next_char().unwrap(), Some('0'));
    }

    #[test]
    fn runs_are_borrowed_from_the_window() {
        // A kept construct stays whole in the window however it arrived.
        let text = format!("{} rest", "abcd".repeat(10));
        let mut sc = scan(&text, 16);
        assert_eq!(sc.name().unwrap(), "abcd".repeat(10));
        assert_eq!(sc.peek().unwrap(), Some(b' '));
    }

    #[test]
    fn skip_whitespace_consumes_without_output() {
        let mut sc = scan("  \r\n\t x", 64);
        assert!(sc.skip_whitespace().unwrap());
        assert_eq!(sc.peek().unwrap(), Some(b'x'));
        assert_eq!((sc.position().line, sc.position().column), (2, 3));
        assert!(!sc.skip_whitespace().unwrap());
    }

    #[test]
    fn find_stop_wide_matches_scalar_on_all_boundaries() {
        // Every byte value in every lane of a block.
        for b in 0..=255u8 {
            for lane in 0..64 {
                let mut block = [b'a'; 64];
                block[lane] = b;
                let (text, tag) = block_masks(&block);
                let (want_text, want_tag) = reference(b);
                assert_eq!(text, u64::from(want_text) << lane, "text, byte {b:#x} lane {lane}");
                assert_eq!(tag, u64::from(want_tag) << lane, "tag, byte {b:#x} lane {lane}");
            }
        }
    }

    #[test]
    fn wide_and_scalar_scan_agree_exhaustively() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            let mut block = [0u8; 64];
            for byte in &mut block {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *byte = (state >> 56) as u8;
            }
            let (text, tag) = block_masks(&block);
            for (i, &b) in block.iter().enumerate() {
                let (want_text, want_tag) = reference(b);
                assert_eq!(text >> i & 1 == 1, want_text, "byte {b:#x} at {i}");
                assert_eq!(tag >> i & 1 == 1, want_tag, "byte {b:#x} at {i}");
            }
        }
    }

    #[test]
    fn scan_counts_split_wide_and_scalar() {
        // Runs count as block bytes, stop bytes one at a time, whatever
        // the window size.
        for capacity in [16, 17, 64, 65, 1024] {
            let text = format!("{}<{}\"x", "t".repeat(70), "n".repeat(130));
            let mut sc = scan(&text, capacity);
            assert_eq!(sc.run::<false>().unwrap(), Some(b'<'));
            sc.advance(1);
            sc.commit();
            assert_eq!(sc.run::<true>().unwrap(), Some(b'"'));
            assert_eq!(sc.offset(), 201);
            sc.advance(1);
            assert_eq!(sc.run::<true>().unwrap(), None);
            assert_eq!(sc.scan_counts(), (70 + 130 + 1, 2));
        }
    }

    #[test]
    fn positions_count_line_ends_once_however_the_window_slides() {
        // `\r\n` and a bare `\r` each end one line; `é` is one column.
        let text = "ab\r\ncé\rd\nxyz";
        for capacity in [16, 64] {
            let mut sc = scan(text, capacity);
            let mut seen = Vec::new();
            while sc.next_char().unwrap().is_some() {
                let p = sc.position();
                seen.push((p.offset, p.line, p.column));
                sc.commit();
            }
            assert_eq!(
                seen,
                [
                    (1, 1, 2),
                    (2, 1, 3),
                    (4, 2, 1),
                    (5, 2, 2),
                    (7, 2, 3),
                    (8, 3, 1),
                    (9, 3, 2),
                    (10, 4, 1),
                    (11, 4, 2),
                    (12, 4, 3),
                    (13, 4, 4)
                ]
            );
        }
    }

    #[test]
    fn names_stop_at_the_first_non_name_character() {
        let mut sc = scan("café:x-1.y!rest", 64);
        assert_eq!(sc.name().unwrap(), "café:x-1.y");
        assert_eq!(sc.peek().unwrap(), Some(b'!'));
        let e = scan("9lives", 64).name().unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::InvalidName { name } if name == "9lives"));
    }

    #[test]
    fn byte_order_mark_moves_the_offset_not_the_column() {
        let mut sc = scan("\u{FEFF}<a", 64);
        assert!(sc.starts_with(b"\xEF\xBB\xBF").unwrap());
        sc.skip_bom();
        assert_eq!(sc.peek().unwrap(), Some(b'<'));
        let p = sc.position();
        assert_eq!((p.offset, p.line, p.column), (3, 1, 1));
    }
}
