//! XML names: validation and qualified-name handling.
//!
//! ViteX matches query nametests against element and attribute names
//! lexically (prefix included), exactly as the 2005 system did. This module
//! provides the [`QName`] type used everywhere a name appears, plus the
//! character-class predicates from the XML 1.0 (Fifth Edition) `Name`
//! production used by the tokenizer.

use std::borrow::Borrow;
use std::fmt;

/// Is `c` a valid first character of an XML `Name` (colon allowed)?
///
/// Implements the `NameStartChar` production of XML 1.0 §2.3.
pub fn is_name_start_char(c: char) -> bool {
    matches!(c,
        ':' | '_'
        | 'A'..='Z' | 'a'..='z'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Is `c` a valid non-first character of an XML `Name`?
///
/// Implements the `NameChar` production of XML 1.0 §2.3.
pub fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c,
            '-' | '.' | '0'..='9'
            | '\u{B7}'
            | '\u{300}'..='\u{36F}'
            | '\u{203F}'..='\u{2040}')
}

/// Validates a complete XML `Name`.
pub fn is_valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start_char(c) => chars.all(is_name_char),
        _ => false,
    }
}

/// A qualified XML name as written in the document, e.g. `title` or
/// `dc:title`.
///
/// `QName` stores the raw lexical form; [`QName::prefix`] and
/// [`QName::local`] split it on the first colon. Comparison and hashing use
/// the raw form, which is also how the TwigM machine matches nametests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    raw: Box<str>,
}

impl QName {
    /// Wraps a raw name without validation (the tokenizer has already
    /// validated character classes).
    pub fn new(raw: impl Into<String>) -> Self {
        QName { raw: raw.into().into_boxed_str() }
    }

    /// The full lexical form.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// The raw bytes of the lexical form.
    pub fn as_bytes(&self) -> &[u8] {
        self.raw.as_bytes()
    }

    /// The namespace prefix, if the name contains a colon.
    pub fn prefix(&self) -> Option<&str> {
        self.raw.split_once(':').map(|(p, _)| p)
    }

    /// The local part (everything after the first colon, or the whole name).
    pub fn local(&self) -> &str {
        self.raw.split_once(':').map_or(&*self.raw, |(_, l)| l)
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::new(s)
    }
}

impl From<String> for QName {
    fn from(s: String) -> Self {
        QName::new(s)
    }
}

impl Borrow<str> for QName {
    fn borrow(&self) -> &str {
        &self.raw
    }
}

impl AsRef<str> for QName {
    fn as_ref(&self) -> &str {
        &self.raw
    }
}

impl PartialEq<str> for QName {
    fn eq(&self, other: &str) -> bool {
        &*self.raw == other
    }
}

impl PartialEq<&str> for QName {
    fn eq(&self, other: &&str) -> bool {
        &*self.raw == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_names_validate() {
        assert!(is_valid_name("book"));
        assert!(is_valid_name("_id"));
        assert!(is_valid_name("ns:book"));
        assert!(is_valid_name("a-b.c_d9"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("9lives"));
        assert!(!is_valid_name("-x"));
        assert!(!is_valid_name(".x"));
        assert!(!is_valid_name("a b"));
    }

    #[test]
    fn unicode_names_validate() {
        assert!(is_valid_name("café"));
        assert!(is_valid_name("日本語"));
        assert!(is_valid_name("Ω"));
        // U+00D7 MULTIPLICATION SIGN is excluded from NameStartChar.
        assert!(!is_valid_name("×"));
    }

    #[test]
    fn qname_splits_prefix_and_local() {
        let q = QName::new("dc:title");
        assert_eq!(q.prefix(), Some("dc"));
        assert_eq!(q.local(), "title");
        assert_eq!(q.as_str(), "dc:title");
        assert_eq!(q.to_string(), "dc:title");

        let plain = QName::new("title");
        assert_eq!(plain.prefix(), None);
        assert_eq!(plain.local(), "title");
    }

    #[test]
    fn qname_compares_with_str() {
        let q = QName::new("a");
        assert_eq!(q, "a");
        assert_ne!(q, "b");
    }

    #[test]
    fn qname_byte_and_ref_access() {
        let q = QName::new("tag");
        assert_eq!(q.as_bytes(), b"tag");
        assert_eq!(<QName as AsRef<str>>::as_ref(&q), "tag");
    }
}
