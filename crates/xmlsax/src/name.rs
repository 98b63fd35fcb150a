//! XML names: validation.
//!
//! ViteX matches query nametests against element and attribute names
//! lexically (prefix included), exactly as the 2005 system did, so a name
//! is the string the document wrote. This module provides the
//! character-class predicates from the XML 1.0 (Fifth Edition) `Name`
//! production used by the tokenizer.

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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
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
}
