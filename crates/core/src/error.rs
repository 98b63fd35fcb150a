//! Errors produced by the evaluation engine.

use std::fmt;

use vitex_xmlsax::XmlError;
use vitex_xpath::ParseError;

use crate::builder::BuildError;

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// Any failure while evaluating a query over a stream.
#[derive(Debug)]
pub enum EngineError {
    /// The XML stream was malformed (or I/O failed).
    Xml(XmlError),
    /// The query text failed to parse.
    Query(ParseError),
    /// The query could not be compiled into a machine.
    Build(BuildError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xml(e) => write!(f, "XML error: {e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Build(e) => write!(f, "machine build error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Xml(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::Build(e) => Some(e),
        }
    }
}

impl From<XmlError> for EngineError {
    fn from(e: XmlError) -> Self {
        EngineError::Xml(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Query(e)
    }
}

impl From<BuildError> for EngineError {
    fn from(e: BuildError) -> Self {
        EngineError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_query_errors() {
        let qe = ParseError::new("bad", 3);
        let e: EngineError = qe.into();
        assert!(e.to_string().contains("query error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
