//! Source-position tracking for the streaming parser.
//!
//! Every SAX event reports where in the byte stream it came from. ViteX uses
//! byte offsets as stable node identifiers (the paper subscripts nodes with
//! their line numbers — `table_5`, `cell_8` — for exactly this purpose), and
//! the offsets double as fragment boundaries when extracting query results
//! from a retained document.

use std::fmt;

/// A position inside the input stream.
///
/// `offset` counts bytes from the start of the stream (0-based); `line` and
/// `column` are 1-based and count Unicode scalar values, with lines split on
/// normalized `\n` (the scanner performs XML 1.0 §2.11 line-ending
/// normalization before counting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TextPosition {
    /// Byte offset from the start of the stream.
    pub offset: u64,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number in Unicode scalar values.
    pub column: u32,
}

impl TextPosition {
    /// The position of the very first byte.
    pub const START: TextPosition = TextPosition { offset: 0, line: 1, column: 1 };

    /// Creates a position from raw parts.
    pub fn new(offset: u64, line: u32, column: u32) -> Self {
        TextPosition { offset, line, column }
    }
}

impl Default for TextPosition {
    fn default() -> Self {
        TextPosition::START
    }
}

impl fmt::Display for TextPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A half-open byte range `[start, end)` identifying an event or element in
/// the original stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ByteSpan {
    /// First byte of the construct.
    pub start: u64,
    /// One past the last byte of the construct.
    pub end: u64,
}

impl ByteSpan {
    /// Creates a span from raw offsets.
    pub fn new(start: u64, end: u64) -> Self {
        debug_assert!(start <= end, "span start must not exceed end");
        ByteSpan { start, end }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &ByteSpan) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Extracts the spanned bytes from a fully buffered document, if the
    /// span is in range.
    pub fn slice<'a>(&self, doc: &'a [u8]) -> Option<&'a [u8]> {
        let s = usize::try_from(self.start).ok()?;
        let e = usize::try_from(self.end).ok()?;
        doc.get(s..e)
    }
}

impl fmt::Display for ByteSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn display_is_line_colon_column() {
        let p = TextPosition::new(10, 3, 7);
        assert_eq!(p.to_string(), "3:7");
    }

    #[test]
    fn span_slice_and_contains() {
        let doc = b"<a><b/></a>";
        let outer = ByteSpan::new(0, 11);
        let inner = ByteSpan::new(3, 7);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert_eq!(inner.slice(doc).unwrap(), b"<b/>");
        assert_eq!(inner.len(), 4);
        assert!(!inner.is_empty());
        assert!(ByteSpan::new(5, 5).is_empty());
    }

    #[test]
    fn span_slice_out_of_range_is_none() {
        let doc = b"abc";
        assert!(ByteSpan::new(1, 9).slice(doc).is_none());
    }
}
