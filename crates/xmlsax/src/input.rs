//! Buffered, position-tracking byte scanner over any [`Read`].
//!
//! This is the lowest layer of the streaming parser: a fixed-size sliding
//! window over the input with UTF-8 decoding, XML 1.0 §2.11 line-ending
//! normalization (`\r\n` and bare `\r` become `\n`), and byte/line/column
//! accounting. Memory use is bounded by the window size regardless of
//! document size — the property the ViteX memory experiments rely on.

use std::io::Read;

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::pos::TextPosition;

/// A buffered scanner with single-character lookahead primitives.
pub struct Scanner<R: Read> {
    source: R,
    buf: Vec<u8>,
    /// First unconsumed byte in `buf`.
    start: usize,
    /// One past the last valid byte in `buf`.
    end: usize,
    /// The underlying reader reported end-of-stream.
    source_eof: bool,
    pos: TextPosition,
    /// Class-run bytes advanced by the SWAR wide path (plain integers:
    /// the accounting is two adds per *run*, not per byte, so it stays on
    /// even when no probe ever reads it).
    scan_wide_bytes: u64,
    /// Class-run bytes advanced by the scalar path (including the short
    /// scalar probe that precedes every wide scan).
    scan_scalar_bytes: u64,
}

impl<R: Read> Scanner<R> {
    /// Creates a scanner with a specific window size (minimum 16 bytes).
    pub fn with_capacity(source: R, capacity: usize) -> Self {
        Scanner {
            source,
            buf: vec![0; capacity.max(16)],
            start: 0,
            end: 0,
            source_eof: false,
            pos: TextPosition::START,
            scan_wide_bytes: 0,
            scan_scalar_bytes: 0,
        }
    }

    /// Class-run scan accounting since construction: `(wide_bytes,
    /// scalar_bytes)`. Only the bulk class-run path is counted — char-wise
    /// consumption (markup punctuation, UTF-8, `\r` normalization) is not
    /// scanning in the memchr sense.
    pub fn scan_counts(&self) -> (u64, u64) {
        (self.scan_wide_bytes, self.scan_scalar_bytes)
    }

    /// Current position (of the next unconsumed byte).
    pub fn position(&self) -> TextPosition {
        self.pos
    }

    /// Current absolute byte offset.
    pub fn offset(&self) -> u64 {
        self.pos.offset
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Makes at least `n` bytes available in the window, unless the stream
    /// ends first. Returns the number actually available (`< n` only at
    /// end of stream).
    fn ensure(&mut self, n: usize) -> XmlResult<usize> {
        while self.buffered() < n && !self.source_eof {
            // Slide the window if the tail has no room.
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                }
                if self.end == self.buf.len() {
                    // A single construct larger than the window (only
                    // possible for pathological lookahead requests; normal
                    // scanning consumes as it goes). Grow geometrically.
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            let read = self
                .source
                .read(&mut self.buf[self.end..])
                .map_err(|e| XmlError::new(XmlErrorKind::Io(e.into()), self.pos))?;
            if read == 0 {
                self.source_eof = true;
            } else {
                self.end += read;
            }
        }
        Ok(self.buffered().min(n))
    }

    /// Peeks the next byte without consuming it.
    pub fn peek_byte(&mut self) -> XmlResult<Option<u8>> {
        if self.ensure(1)? == 0 {
            return Ok(None);
        }
        Ok(Some(self.buf[self.start]))
    }

    /// Peeks the byte at lookahead distance `i` (0 = next byte).
    pub fn peek_at(&mut self, i: usize) -> XmlResult<Option<u8>> {
        if self.ensure(i + 1)? < i + 1 {
            return Ok(None);
        }
        Ok(Some(self.buf[self.start + i]))
    }

    /// Whether the unconsumed input starts with `prefix`.
    pub fn starts_with(&mut self, prefix: &[u8]) -> XmlResult<bool> {
        if self.ensure(prefix.len())? < prefix.len() {
            return Ok(false);
        }
        Ok(&self.buf[self.start..self.start + prefix.len()] == prefix)
    }

    /// Consumes `prefix`, which the caller has verified (ASCII only — the
    /// position advance assumes one column per byte).
    pub fn consume_ascii(&mut self, prefix: &[u8]) -> XmlResult<()> {
        debug_assert!(prefix.is_ascii());
        debug_assert!(self.buffered() >= prefix.len());
        for &b in prefix {
            self.start += 1;
            self.pos.advance(b as char, 1);
        }
        Ok(())
    }

    /// Consumes `n` raw bytes the caller has already peeked, advancing the
    /// offset without newline accounting (used for the UTF-8 BOM).
    pub fn skip_raw(&mut self, n: usize) {
        debug_assert!(self.buffered() >= n);
        self.start += n;
        self.pos.offset += n as u64;
    }

    /// Consumes and returns the next character, applying line-ending
    /// normalization: `\r\n` and bare `\r` are delivered as `\n`.
    ///
    /// Returns `Ok(None)` at end of stream.
    pub fn next_char(&mut self) -> XmlResult<Option<char>> {
        let first = match self.peek_byte()? {
            Some(b) => b,
            None => return Ok(None),
        };
        if first == b'\r' {
            // Normalize; consume a following '\n' too if present.
            let mut consumed = 1;
            if self.peek_at(1)? == Some(b'\n') {
                consumed = 2;
            }
            self.start += consumed;
            self.pos.advance('\n', consumed);
            return Ok(Some('\n'));
        }
        if first < 0x80 {
            self.start += 1;
            self.pos.advance(first as char, 1);
            return Ok(Some(first as char));
        }
        // Multi-byte UTF-8.
        let len =
            utf8_len(first).ok_or_else(|| XmlError::new(XmlErrorKind::InvalidUtf8, self.pos))?;
        if self.ensure(len)? < len {
            return Err(XmlError::new(XmlErrorKind::InvalidUtf8, self.pos));
        }
        let bytes = &self.buf[self.start..self.start + len];
        let s = std::str::from_utf8(bytes)
            .map_err(|_| XmlError::new(XmlErrorKind::InvalidUtf8, self.pos))?;
        let ch = s.chars().next().expect("non-empty validated UTF-8");
        self.start += len;
        self.pos.advance(ch, len);
        Ok(Some(ch))
    }

    /// Peeks the next character (with the same normalization as
    /// [`Scanner::next_char`]) without consuming it.
    pub fn peek_char(&mut self) -> XmlResult<Option<char>> {
        let first = match self.peek_byte()? {
            Some(b) => b,
            None => return Ok(None),
        };
        if first == b'\r' {
            return Ok(Some('\n'));
        }
        if first < 0x80 {
            return Ok(Some(first as char));
        }
        let len =
            utf8_len(first).ok_or_else(|| XmlError::new(XmlErrorKind::InvalidUtf8, self.pos))?;
        if self.ensure(len)? < len {
            return Err(XmlError::new(XmlErrorKind::InvalidUtf8, self.pos));
        }
        let bytes = &self.buf[self.start..self.start + len];
        let s = std::str::from_utf8(bytes)
            .map_err(|_| XmlError::new(XmlErrorKind::InvalidUtf8, self.pos))?;
        Ok(s.chars().next())
    }

    /// The memchr-style fast path: consumes the longest prefix of bytes
    /// whose [`ByteClass`] entry is set, appending it to `out` in one
    /// `push_str` and advancing the position **in bulk** (one newline
    /// count per run instead of a branch per byte). Classes never include
    /// `\r` (normalization) or non-ASCII bytes (UTF-8 decoding), so the
    /// char-wise slow path keeps handling those. Returns how many bytes
    /// were consumed.
    pub fn consume_class_run(&mut self, class: &ByteClass, out: &mut String) -> XmlResult<usize> {
        // The class is ASCII-only sans '\r'; safe to push as str.
        self.consume_class_run_with(class, |run| {
            out.push_str(std::str::from_utf8(run).expect("ascii run"))
        })
    }

    /// Zero-copy variant of [`Scanner::consume_class_run`]: the run is
    /// handed to `sink` as borrowed slices (one per buffer window crossed)
    /// instead of being appended to a `String`. Callers that only need the
    /// span — or that copy into their own storage — skip the intermediate
    /// allocation entirely.
    pub fn consume_class_run_with(
        &mut self,
        class: &ByteClass,
        mut sink: impl FnMut(&[u8]),
    ) -> XmlResult<usize> {
        let mut total = 0;
        loop {
            if self.buffered() == 0 && self.ensure(1)? == 0 {
                break;
            }
            let window = &self.buf[self.start..self.end];
            let n = match class.find_stop(window) {
                Some(0) => break,
                Some(stop) => stop,
                None => window.len(),
            };
            let run = &self.buf[self.start..self.start + n];
            sink(run);
            self.pos.advance_ascii_run(run);
            if class.wide.ok {
                // The first word of every run is probed scalar-wise before
                // the SWAR loop takes over (see ByteClass::find_stop).
                let probe = n.min(8) as u64;
                self.scan_scalar_bytes += probe;
                self.scan_wide_bytes += n as u64 - probe;
            } else {
                self.scan_scalar_bytes += n as u64;
            }
            self.start += n;
            total += n;
            if n < window.len() {
                break; // stopped at a boundary byte, not at window end
            }
        }
        Ok(total)
    }

    /// Consumes a class run without materializing it anywhere — the
    /// borrowed-slice fast path for callers that discard the bytes (e.g.
    /// whitespace skipping). Returns how many bytes were consumed.
    pub fn skip_class_run(&mut self, class: &ByteClass) -> XmlResult<usize> {
        self.consume_class_run_with(class, |_| {})
    }
}

/// All-ones in the low bit of every lane of a `u64` (8 ASCII lanes).
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// The high bit of every lane.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// SWAR companion of a [`ByteClass`]: the ASCII members decomposed into at
/// most 8 contiguous ranges so an 8-byte word can be classified with a few
/// adds and masks instead of 8 table lookups. Derived at `const` time from
/// the membership table; classes too fragmented to decompose fall back to
/// the scalar loop (`ok == false`).
#[derive(Debug, Clone, Copy)]
struct WideSpec {
    /// Per-range lane-replicated add constants, precomputed at `const`
    /// time: `((0x80 - lo) * LANE_LO, (0x7F - hi) * LANE_LO)` for member
    /// range `lo..=hi`. Slots past `len` hold an empty range (`lo > hi`)
    /// whose compare never flags a lane, so [`WideSpec::stop_mask`] can
    /// run a fixed-trip, fully unrollable loop.
    adds: [(u64, u64); 8],
    ok: bool,
}

impl WideSpec {
    /// The add-constant pair of the empty range `1..=0`: `gt_hi` flags
    /// every lane, so `ge_lo & !gt_hi` contributes no members.
    const NEVER: (u64, u64) = ((0x80 - 1) * LANE_LO, 0x7F * LANE_LO);

    const fn derive(table: &[bool; 256]) -> WideSpec {
        let mut adds = [WideSpec::NEVER; 8];
        let mut len = 0;
        let mut b = 0usize;
        while b < 0x80 {
            if table[b] {
                let lo = b;
                while b < 0x80 && table[b] {
                    b += 1;
                }
                let hi = b - 1;
                if len == adds.len() {
                    return WideSpec { adds: [WideSpec::NEVER; 8], ok: false };
                }
                adds[len] = ((0x80 - lo as u64) * LANE_LO, (0x7F - hi as u64) * LANE_LO);
                len += 1;
            } else {
                b += 1;
            }
        }
        let _ = len;
        WideSpec { adds, ok: true }
    }

    /// Returns a mask with `0x80` set in every lane of `x` that must stop
    /// the run: bytes outside all member ranges, plus non-ASCII bytes.
    ///
    /// The per-range compare is the 7-bit trick `x + (0x80 - lo)` /
    /// `x + (0x7F - hi)`: with the high bit masked off, lane sums never
    /// exceed `0xFE`, so no carry crosses lanes and the result is *exact*
    /// (unlike the classic `haszero` subtraction, which can smear borrows
    /// upward).
    #[inline(always)]
    fn stop_mask(&self, x: u64) -> u64 {
        let x7 = x & !LANE_HI;
        let mut member = 0u64;
        // Fixed trip count over the padded table (empty ranges are
        // no-ops): no data-dependent branch, fully unrollable.
        let mut r = 0usize;
        while r < self.adds.len() {
            let (add_lo, add_hi) = self.adds[r];
            let ge_lo = x7.wrapping_add(add_lo) & LANE_HI;
            let gt_hi = x7.wrapping_add(add_hi) & LANE_HI;
            member |= ge_lo & !gt_hi;
            r += 1;
        }
        // Non-ASCII lanes (high bit in x) stop regardless of what their
        // low 7 bits looked like to the range compares.
        (x | !member) & LANE_HI
    }
}

/// A 256-entry byte-membership table driving
/// [`Scanner::consume_class_run`]: the scanning loop is a table lookup per
/// byte instead of a predicate call, and tables are built once (`const`)
/// per byte class rather than once per run.
///
/// Construction masks out `\r` and non-ASCII bytes unconditionally — runs
/// must stop there so line-ending normalization and UTF-8 decoding stay in
/// the char-wise slow path.
#[derive(Debug, Clone)]
pub struct ByteClass {
    table: [bool; 256],
    wide: WideSpec,
}

impl ByteClass {
    /// Builds a class from a membership table (entries for `\r` and bytes
    /// `>= 0x80` are ignored and forced to `false`).
    pub const fn new(mut table: [bool; 256]) -> Self {
        table[b'\r' as usize] = false;
        let mut b = 0x80;
        while b < 256 {
            table[b] = false;
            b += 1;
        }
        ByteClass { wide: WideSpec::derive(&table), table }
    }

    /// Whether byte `b` belongs to the class.
    #[inline(always)]
    pub fn contains(&self, b: u8) -> bool {
        self.table[b as usize]
    }

    /// Index of the first byte of `window` *not* in the class, or `None`
    /// if every byte is a member. A decomposable class is classified 8
    /// bytes per step via [`WideSpec::stop_mask`]; the scalar loop
    /// ([`ByteClass::find_stop_scalar`]) handles the tail and is the whole
    /// scan for a class SWAR cannot express.
    #[inline]
    pub(crate) fn find_stop(&self, window: &[u8]) -> Option<usize> {
        let mut i = 0;
        if self.wide.ok {
            // Most runs are short (tag/attribute names average well under
            // 8 bytes): probe the first word scalar-wise so they never
            // pay the SWAR setup; only runs that survive it go wide.
            let probe = window.len().min(8);
            while i < probe {
                if !self.contains(window[i]) {
                    return Some(i);
                }
                i += 1;
            }
            // 16 bytes per iteration: the two words' mask computations
            // have no data dependency, so they overlap in the pipeline.
            while i + 16 <= window.len() {
                let a = u64::from_le_bytes(window[i..i + 8].try_into().expect("8-byte chunk"));
                let b = u64::from_le_bytes(window[i + 8..i + 16].try_into().expect("8-byte chunk"));
                let sa = self.wide.stop_mask(a);
                let sb = self.wide.stop_mask(b);
                if sa | sb != 0 {
                    // from_le_bytes puts window[i] in the least significant
                    // lane on every host, so trailing_zeros finds the first.
                    return Some(if sa != 0 {
                        i + sa.trailing_zeros() as usize / 8
                    } else {
                        i + 8 + sb.trailing_zeros() as usize / 8
                    });
                }
                i += 16;
            }
            if i + 8 <= window.len() {
                let x = u64::from_le_bytes(window[i..i + 8].try_into().expect("8-byte chunk"));
                let stops = self.wide.stop_mask(x);
                if stops != 0 {
                    return Some(i + stops.trailing_zeros() as usize / 8);
                }
                i += 8;
            }
        }
        self.find_stop_scalar(window, i)
    }

    /// [`ByteClass::find_stop`] from offset `from`, one table lookup per
    /// byte.
    #[inline]
    fn find_stop_scalar(&self, window: &[u8], from: usize) -> Option<usize> {
        window[from..].iter().position(|&b| !self.contains(b)).map(|p| from + p)
    }
}

/// Length of a UTF-8 sequence from its first byte, or `None` if invalid.
fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC2..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF4 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn scan(s: &str) -> Scanner<Cursor<Vec<u8>>> {
        Scanner::with_capacity(Cursor::new(s.as_bytes().to_vec()), 64 * 1024)
    }

    #[test]
    fn reads_chars_and_tracks_position() {
        let mut sc = scan("ab\ncd");
        assert_eq!(sc.next_char().unwrap(), Some('a'));
        assert_eq!(sc.next_char().unwrap(), Some('b'));
        assert_eq!(sc.next_char().unwrap(), Some('\n'));
        assert_eq!(sc.position().line, 2);
        assert_eq!(sc.position().column, 1);
        assert_eq!(sc.next_char().unwrap(), Some('c'));
        assert_eq!(sc.position().column, 2);
        assert_eq!(sc.next_char().unwrap(), Some('d'));
        assert_eq!(sc.next_char().unwrap(), None);
        assert_eq!(sc.offset(), 5);
    }

    #[test]
    fn normalizes_line_endings() {
        let mut sc = scan("a\r\nb\rc");
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
        let mut sc = scan("é日x");
        assert_eq!(sc.next_char().unwrap(), Some('é'));
        assert_eq!(sc.next_char().unwrap(), Some('日'));
        assert_eq!(sc.next_char().unwrap(), Some('x'));
        assert_eq!(sc.offset(), 6);
    }

    #[test]
    fn rejects_invalid_utf8() {
        let mut sc = Scanner::with_capacity(Cursor::new(vec![0xFF, 0x41]), 64 * 1024);
        assert!(sc.next_char().is_err());
    }

    #[test]
    fn rejects_truncated_utf8() {
        let mut sc = Scanner::with_capacity(Cursor::new(vec![0xC3]), 64 * 1024); // lone lead byte
        assert!(sc.next_char().is_err());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut sc = scan("xy");
        assert_eq!(sc.peek_byte().unwrap(), Some(b'x'));
        assert_eq!(sc.peek_at(1).unwrap(), Some(b'y'));
        assert_eq!(sc.peek_at(2).unwrap(), None);
        assert_eq!(sc.peek_char().unwrap(), Some('x'));
        assert_eq!(sc.next_char().unwrap(), Some('x'));
    }

    #[test]
    fn starts_with_and_consume() {
        let mut sc = scan("<!--rest");
        assert!(sc.starts_with(b"<!--").unwrap());
        assert!(!sc.starts_with(b"<!DOCTYPE").unwrap());
        sc.consume_ascii(b"<!--").unwrap();
        assert_eq!(sc.next_char().unwrap(), Some('r'));
    }

    #[test]
    fn ascii_run_stops_at_boundary() {
        let mut sc = scan("hello<world");
        let mut out = String::new();
        let mut not_lt = [true; 256];
        not_lt[b'<' as usize] = false;
        let n = sc.consume_class_run(&ByteClass::new(not_lt), &mut out).unwrap();
        assert_eq!(n, 5);
        assert_eq!(out, "hello");
        assert_eq!(sc.peek_byte().unwrap(), Some(b'<'));
    }

    #[test]
    fn ascii_run_stops_at_non_ascii_and_cr() {
        static ALL: ByteClass = ByteClass::new([true; 256]);
        let mut sc = scan("ab\récd");
        let mut out = String::new();
        sc.consume_class_run(&ALL, &mut out).unwrap();
        assert_eq!(out, "ab");
        assert_eq!(sc.next_char().unwrap(), Some('\n')); // normalized \r
        out.clear();
        sc.consume_class_run(&ALL, &mut out).unwrap();
        assert_eq!(out, ""); // é is non-ASCII
        assert_eq!(sc.next_char().unwrap(), Some('é'));
    }

    #[test]
    fn byte_class_masks_cr_and_non_ascii() {
        let class = ByteClass::new([true; 256]);
        assert!(class.contains(b'a') && class.contains(b'\n') && class.contains(0x7F));
        assert!(!class.contains(b'\r'));
        assert!(!class.contains(0x80) && !class.contains(0xFF));
    }

    #[test]
    fn class_run_accounts_position_in_bulk() {
        static ALL: ByteClass = ByteClass::new([true; 256]);
        let mut sc = scan("ab\ncd\né");
        let mut out = String::new();
        let n = sc.consume_class_run(&ALL, &mut out).unwrap();
        assert_eq!(n, 6);
        assert_eq!(out, "ab\ncd\n");
        assert_eq!(sc.position().line, 3);
        assert_eq!(sc.position().column, 1);
        assert_eq!(sc.offset(), 6);
        assert_eq!(sc.next_char().unwrap(), Some('é'));
    }

    #[test]
    fn class_run_spans_refills() {
        static ALPHA: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                t[b] = (b as u8).is_ascii_alphabetic();
                b += 1;
            }
            t
        });
        let text = format!("{}1rest", "xyz".repeat(40));
        let mut sc = Scanner::with_capacity(Cursor::new(text.into_bytes()), 16);
        let mut out = String::new();
        let n = sc.consume_class_run(&ALPHA, &mut out).unwrap();
        assert_eq!(n, 120);
        assert_eq!(out, "xyz".repeat(40));
        assert_eq!(sc.peek_byte().unwrap(), Some(b'1'));
    }

    #[test]
    fn works_across_tiny_buffer_refills() {
        let text = "abcdefghijklmnopqrstuvwxyz".repeat(8);
        let mut sc = Scanner::with_capacity(Cursor::new(text.clone().into_bytes()), 16);
        let mut got = String::new();
        while let Some(c) = sc.next_char().unwrap() {
            got.push(c);
        }
        assert_eq!(got, text);
    }

    #[test]
    fn lookahead_larger_than_window_grows() {
        let mut sc = Scanner::with_capacity(Cursor::new(b"0123456789abcdef0123".to_vec()), 16);
        assert_eq!(sc.peek_at(18).unwrap(), Some(b'2'));
        assert_eq!(sc.next_char().unwrap(), Some('0'));
    }

    #[test]
    fn wide_spec_decomposes_ranges() {
        // Alphanumerics + ':' '_' '-' '.' — the NAME_RUN shape.
        let class = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                let c = b as u8;
                t[b] = c.is_ascii_alphanumeric() || matches!(c, b':' | b'_' | b'-' | b'.');
                b += 1;
            }
            t
        });
        assert!(class.wide.ok);
        // '-' '.' merge into one range (0x2D..=0x2E); ':' rides on '0'..='9':
        // the class fits the 8-range budget, so `ok` held above.
        for b in 0u8..=0x7F {
            let member = class.contains(b);
            let word = u64::from_le_bytes([b; 8]);
            let stops = class.wide.stop_mask(word);
            assert_eq!(stops == 0, member, "byte {b:#x}");
        }
    }

    #[test]
    fn wide_spec_rejects_fragmented_class() {
        // Every other byte: 64 ranges, far past the 8-range budget.
        let class = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                t[b] = b.is_multiple_of(2);
                b += 1;
            }
            t
        });
        assert!(!class.wide.ok);
        // find_stop still works via the scalar fallback.
        assert_eq!(class.find_stop(b"\x00\x02\x04\x05"), Some(3));
    }

    #[test]
    fn find_stop_wide_matches_scalar_on_all_boundaries() {
        static TEXTISH: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                let c = b as u8;
                t[b] = !matches!(c, b'<' | b'&' | b']' | b'>')
                    && (c >= 0x20 || c == b'\t' || c == b'\n');
                b += 1;
            }
            t
        });
        // Stop byte at every lane position of the 8-byte word, plus in the
        // scalar tail, plus high-bit and no-stop windows.
        for stop_at in 0..20usize {
            let mut window = vec![b'a'; 20];
            for &stop in &[b'<', b'&', b'\r', 0x80u8, 0x00] {
                window[stop_at] = stop;
                let wide = TEXTISH.find_stop(&window);
                let scalar = TEXTISH.find_stop_scalar(&window, 0);
                assert_eq!(wide, scalar, "stop {stop:#x} at {stop_at}");
                assert_eq!(wide, Some(stop_at));
                window[stop_at] = b'a';
            }
        }
        assert_eq!(TEXTISH.find_stop(&[b'x'; 23]), None);
        assert_eq!(TEXTISH.find_stop(&[]), None);
    }

    #[test]
    fn wide_and_scalar_scan_agree_exhaustively() {
        // Pseudo-random windows over the full byte range, wide vs scalar.
        static TEXTISH: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                let c = b as u8;
                t[b] = !matches!(c, b'<' | b'&') && (c >= 0x20 || c == b'\t' || c == b'\n');
                b += 1;
            }
            t
        });
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..64usize {
            let mut window = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                window.push((state >> 56) as u8);
            }
            assert_eq!(
                TEXTISH.find_stop(&window),
                TEXTISH.find_stop_scalar(&window, 0),
                "window {window:?}"
            );
        }
    }

    #[test]
    fn skip_class_run_consumes_without_output() {
        static WS: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            t[b' ' as usize] = true;
            t[b'\t' as usize] = true;
            t[b'\n' as usize] = true;
            t
        });
        let mut sc = scan("  \n\t x");
        let n = sc.skip_class_run(&WS).unwrap();
        assert_eq!(n, 5);
        assert_eq!(sc.peek_byte().unwrap(), Some(b'x'));
        assert_eq!(sc.position().line, 2);
        assert_eq!(sc.position().column, 3);
    }

    #[test]
    fn scan_counts_split_wide_and_scalar() {
        static ALL: ByteClass = ByteClass::new([true; 256]);
        let text = "x".repeat(100);
        let mut sc = scan(&text);
        sc.skip_class_run(&ALL).unwrap();
        let (wide, scalar) = sc.scan_counts();
        assert_eq!(wide + scalar, 100);
        assert_eq!(scalar, 8, "first word is always probed scalar-wise");
        // A class SWAR cannot express (every other byte) scans scalar.
        static EVEN: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                t[b] = b.is_multiple_of(2);
                b += 1;
            }
            t
        });
        let mut sc = scan(&"bd".repeat(50));
        sc.skip_class_run(&EVEN).unwrap();
        assert_eq!(sc.scan_counts(), (0, 100));
    }

    #[test]
    fn consume_class_run_with_borrows_slices() {
        static ALPHA: ByteClass = ByteClass::new({
            let mut t = [false; 256];
            let mut b = 0usize;
            while b < 0x80 {
                t[b] = (b as u8).is_ascii_alphabetic();
                b += 1;
            }
            t
        });
        let text = format!("{}9", "abcd".repeat(10));
        let mut sc = Scanner::with_capacity(Cursor::new(text.into_bytes()), 16);
        let mut collected = Vec::new();
        let n = sc.consume_class_run_with(&ALPHA, |run| collected.extend_from_slice(run)).unwrap();
        assert_eq!(n, 40);
        assert_eq!(collected, "abcd".repeat(10).into_bytes());
        assert_eq!(sc.peek_byte().unwrap(), Some(b'9'));
    }

    #[test]
    fn class_run_crosses_windows_end_to_end() {
        static ALL: ByteClass = ByteClass::new([true; 256]);
        let text = format!("{}\n{}\x7f tail", "run ".repeat(50), "line".repeat(9));
        let mut sc = Scanner::with_capacity(Cursor::new(text.clone().into_bytes()), 32);
        let mut out = String::new();
        let n = sc.consume_class_run(&ALL, &mut out).unwrap();
        assert_eq!(n, text.len());
        assert_eq!(out, text);
        assert_eq!(sc.position().line, 2);
    }
}
