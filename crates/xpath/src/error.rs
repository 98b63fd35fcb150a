//! Parse errors for the XPath front-end.

use std::fmt;

/// Result alias for parsing operations.
pub type ParseResult<T> = Result<T, ParseError>;

/// A query parse/validation error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    offset: usize,
}

impl ParseError {
    /// Creates an error at a byte offset within the query string.
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        ParseError { message: message.into(), offset }
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset into the query text.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offset() {
        let e = ParseError::new("unexpected token", 7);
        assert_eq!(e.to_string(), "XPath error at offset 7: unexpected token");
        assert_eq!(e.offset(), 7);
        assert_eq!(e.message(), "unexpected token");
    }
}
