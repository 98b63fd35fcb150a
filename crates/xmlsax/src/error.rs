//! Error types for the streaming parser.
//!
//! Every error carries the [`TextPosition`] at which it was detected so that
//! a streaming client can report precisely where a malformed document broke
//! the single sequential scan.

use std::fmt;
use std::io;
use std::sync::Arc;

use crate::pos::TextPosition;

/// Convenient result alias used throughout the crate.
pub type XmlResult<T> = Result<T, XmlError>;

/// The category of a parse failure.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum XmlErrorKind {
    /// An I/O error surfaced by the underlying reader. Shared behind an
    /// `Arc` because `io::Error` is not `Clone` and [`XmlError`] is; the
    /// source chain stays reachable through `Error::source`.
    Io(Arc<io::Error>),
    /// The input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        expected: &'static str,
    },
    /// A byte sequence that is not valid UTF-8.
    InvalidUtf8,
    /// A character that may not appear in XML content (XML 1.0 §2.2).
    InvalidChar {
        /// The offending character.
        ch: char,
    },
    /// A syntactically invalid XML name.
    InvalidName {
        /// The offending name as far as it was read.
        name: String,
    },
    /// Malformed markup with a human-readable description.
    Syntax {
        /// Description of the violation.
        msg: String,
    },
    /// An end tag that does not match the open start tag.
    MismatchedTag {
        /// The name that was expected (the innermost open element).
        expected: String,
        /// The name that was found.
        found: String,
    },
    /// An end tag with no corresponding open element.
    UnbalancedEndTag {
        /// The name of the stray end tag.
        name: String,
    },
    /// A second root element, or content after the root closed.
    TrailingContent,
    /// A document with no root element.
    NoRootElement,
    /// Character data outside the root element.
    TextOutsideRoot,
    /// The same attribute name appeared twice in one start tag.
    DuplicateAttribute {
        /// The repeated attribute name.
        name: String,
    },
    /// Reference to an undeclared entity.
    UnknownEntity {
        /// The entity name as written (without `&`/`;`).
        name: String,
    },
    /// Entity expansion exceeded the configured depth or size bounds
    /// (defends against "billion laughs"-style inputs).
    EntityExpansionLimit {
        /// Description of the exceeded bound.
        what: &'static str,
    },
    /// Reference to an external entity (never fetched; XXE-safe).
    ExternalEntity {
        /// The entity name.
        name: String,
    },
    /// An entity whose replacement text contains markup was referenced in
    /// content — this non-validating parser does not re-parse entity bodies.
    MarkupInEntity {
        /// The entity name.
        name: String,
    },
    /// A declared but unsupported encoding in the XML declaration.
    UnsupportedEncoding {
        /// The declared encoding label.
        encoding: String,
    },
    /// Element nesting exceeded the configured maximum depth.
    DepthLimit {
        /// The configured maximum.
        max: usize,
    },
}

/// A parse error: a kind plus the position where it was detected.
#[derive(Debug, Clone)]
pub struct XmlError {
    kind: XmlErrorKind,
    position: TextPosition,
}

impl XmlError {
    /// Creates an error at a position.
    pub fn new(kind: XmlErrorKind, position: TextPosition) -> Self {
        XmlError { kind, position }
    }

    /// Creates a [`XmlErrorKind::Syntax`] error at a position.
    pub fn syntax(msg: impl Into<String>, position: TextPosition) -> Self {
        XmlError::new(XmlErrorKind::Syntax { msg: msg.into() }, position)
    }

    /// The error category.
    pub fn kind(&self) -> &XmlErrorKind {
        &self.kind
    }

    /// Where the error was detected.
    pub fn position(&self) -> TextPosition {
        self.position
    }

    /// Whether this error is an I/O error (as opposed to malformed XML).
    pub fn is_io(&self) -> bool {
        matches!(self.kind, XmlErrorKind::Io(_))
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.position)?;
        match &self.kind {
            XmlErrorKind::Io(e) => write!(f, "I/O error: {e}"),
            XmlErrorKind::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input while reading {expected}")
            }
            XmlErrorKind::InvalidUtf8 => write!(f, "invalid UTF-8 sequence"),
            XmlErrorKind::InvalidChar { ch } => {
                write!(f, "character U+{:04X} is not allowed in XML", *ch as u32)
            }
            XmlErrorKind::InvalidName { name } => write!(f, "invalid XML name {name:?}"),
            XmlErrorKind::Syntax { msg } => write!(f, "{msg}"),
            XmlErrorKind::MismatchedTag { expected, found } => {
                write!(f, "mismatched end tag: expected </{expected}>, found </{found}>")
            }
            XmlErrorKind::UnbalancedEndTag { name } => {
                write!(f, "end tag </{name}> has no matching start tag")
            }
            XmlErrorKind::TrailingContent => {
                write!(f, "content after the root element closed")
            }
            XmlErrorKind::NoRootElement => write!(f, "document has no root element"),
            XmlErrorKind::TextOutsideRoot => {
                write!(f, "character data outside the root element")
            }
            XmlErrorKind::DuplicateAttribute { name } => {
                write!(f, "duplicate attribute {name:?}")
            }
            XmlErrorKind::UnknownEntity { name } => {
                write!(f, "reference to undeclared entity &{name};")
            }
            XmlErrorKind::EntityExpansionLimit { what } => {
                write!(f, "entity expansion exceeded {what}")
            }
            XmlErrorKind::ExternalEntity { name } => write!(
                f,
                "reference to external entity &{name}; (external entities are not fetched)"
            ),
            XmlErrorKind::MarkupInEntity { name } => {
                write!(f, "entity &{name}; expands to markup, which this parser does not re-parse")
            }
            XmlErrorKind::UnsupportedEncoding { encoding } => {
                write!(f, "unsupported encoding {encoding:?} (only UTF-8 is supported)")
            }
            XmlErrorKind::DepthLimit { max } => {
                write!(f, "element nesting exceeds the configured maximum of {max}")
            }
        }
    }
}

impl std::error::Error for XmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            XmlErrorKind::Io(e) => Some(&**e),
            _ => None,
        }
    }
}

impl From<io::Error> for XmlError {
    fn from(e: io::Error) -> Self {
        XmlError::new(XmlErrorKind::Io(Arc::new(e)), TextPosition::START)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_message() {
        let e = XmlError::new(
            XmlErrorKind::MismatchedTag { expected: "a".into(), found: "b".into() },
            TextPosition::new(5, 2, 3),
        );
        assert_eq!(e.to_string(), "2:3: mismatched end tag: expected </a>, found </b>");
    }

    #[test]
    fn io_errors_are_flagged() {
        let e: XmlError = io::Error::other("boom").into();
        assert!(e.is_io());
        assert!(e.to_string().contains("boom"));
        let s = XmlError::syntax("bad", TextPosition::START);
        assert!(!s.is_io());
    }
}
