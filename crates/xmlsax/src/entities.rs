//! Entity and character-reference resolution.
//!
//! Supports the five predefined entities, decimal/hexadecimal character
//! references, and internal general entities declared in a DOCTYPE internal
//! subset. Expansion is guarded by depth and total-size bounds so that
//! recursive declarations ("billion laughs") fail fast instead of exhausting
//! memory — a non-negotiable property for a streaming system meant to run
//! unattended over untrusted feeds.

use std::collections::HashMap;

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::pos::TextPosition;

/// How an entity was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntityValue {
    /// `<!ENTITY name "replacement">` — replacement text stored verbatim
    /// (character references already resolved, general entity references
    /// kept for recursive expansion).
    Internal(String),
    /// `<!ENTITY name SYSTEM "uri">` (or PUBLIC) — recorded but never
    /// fetched; referencing one is an error.
    External,
}

/// Bounds applied to entity expansion.
#[derive(Debug, Clone, Copy)]
pub struct EntityLimits {
    /// Maximum nesting depth of entity-in-entity expansion.
    pub max_depth: usize,
    /// Maximum total expanded size (bytes) a single reference may produce.
    pub max_expansion: usize,
}

impl Default for EntityLimits {
    fn default() -> Self {
        EntityLimits { max_depth: 16, max_expansion: 1 << 20 }
    }
}

/// The entity table built from a DOCTYPE internal subset.
#[derive(Debug, Default, Clone)]
pub struct EntityTable {
    entities: HashMap<String, EntityValue>,
}

impl EntityTable {
    /// Creates an empty table (predefined entities are always available and
    /// are not stored here).
    pub fn new() -> Self {
        EntityTable::default()
    }

    /// Declares an internal entity. Per XML 1.0 §4.2, the *first*
    /// declaration wins; later duplicates are ignored.
    pub fn declare_internal(&mut self, name: &str, replacement: &str) {
        self.entities
            .entry(name.to_owned())
            .or_insert_with(|| EntityValue::Internal(replacement.to_owned()));
    }

    /// Declares an external entity (recorded so that references produce a
    /// specific error rather than "unknown entity").
    pub fn declare_external(&mut self, name: &str) {
        self.entities.entry(name.to_owned()).or_insert(EntityValue::External);
    }

    /// Looks up a declared entity.
    pub fn get(&self, name: &str) -> Option<&EntityValue> {
        self.entities.get(name)
    }

    /// Number of declared entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether no entities are declared.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Expands the entity `name` (without `&`/`;`), appending the result to
    /// `out`.
    ///
    /// `allow_markup` controls whether replacement text containing `<` is
    /// acceptable (it is not: this non-validating parser does not re-parse
    /// entity bodies, so such references are rejected with a clear error —
    /// see the crate docs' conformance notes).
    pub fn expand(
        &self,
        name: &str,
        limits: &EntityLimits,
        pos: TextPosition,
        out: &mut String,
    ) -> XmlResult<()> {
        // Predefined entities first — always available.
        if let Some(c) = predefined(name) {
            out.push(c);
            return Ok(());
        }
        let budget_start = out.len();
        self.expand_rec(name, limits, pos, 0, budget_start, out)
    }

    fn expand_rec(
        &self,
        name: &str,
        limits: &EntityLimits,
        pos: TextPosition,
        depth: usize,
        budget_start: usize,
        out: &mut String,
    ) -> XmlResult<()> {
        if depth >= limits.max_depth {
            return Err(XmlError::new(
                XmlErrorKind::EntityExpansionLimit { what: "maximum nesting depth" },
                pos,
            ));
        }
        if let Some(c) = predefined(name) {
            out.push(c);
            return Ok(());
        }
        let value = match self.entities.get(name) {
            Some(v) => v,
            None => {
                return Err(XmlError::new(
                    XmlErrorKind::UnknownEntity { name: name.to_owned() },
                    pos,
                ))
            }
        };
        let text = match value {
            EntityValue::External => {
                return Err(XmlError::new(
                    XmlErrorKind::ExternalEntity { name: name.to_owned() },
                    pos,
                ))
            }
            EntityValue::Internal(t) => t,
        };
        if text.contains('<') {
            return Err(XmlError::new(XmlErrorKind::MarkupInEntity { name: name.to_owned() }, pos));
        }
        // Scan replacement text for nested general-entity references.
        let mut rest = text.as_str();
        while let Some(amp) = rest.find('&') {
            let (before, after_amp) = rest.split_at(amp);
            out.push_str(before);
            if out.len() - budget_start > limits.max_expansion {
                return Err(XmlError::new(
                    XmlErrorKind::EntityExpansionLimit { what: "maximum expansion size" },
                    pos,
                ));
            }
            let after = &after_amp[1..];
            let semi = after.find(';').ok_or_else(|| {
                XmlError::syntax(format!("unterminated entity reference in entity {name:?}"), pos)
            })?;
            let inner = &after[..semi];
            if let Some(rest_digits) = inner.strip_prefix('#') {
                let c = parse_char_ref(rest_digits, pos)?;
                out.push(c);
            } else {
                self.expand_rec(inner, limits, pos, depth + 1, budget_start, out)?;
            }
            if out.len() - budget_start > limits.max_expansion {
                return Err(XmlError::new(
                    XmlErrorKind::EntityExpansionLimit { what: "maximum expansion size" },
                    pos,
                ));
            }
            rest = &after[semi + 1..];
        }
        out.push_str(rest);
        if out.len() - budget_start > limits.max_expansion {
            return Err(XmlError::new(
                XmlErrorKind::EntityExpansionLimit { what: "maximum expansion size" },
                pos,
            ));
        }
        Ok(())
    }
}

/// The five predefined entities of XML 1.0 §4.6, by name.
pub const PREDEFINED: [(&str, char); 5] =
    [("amp", '&'), ("lt", '<'), ("gt", '>'), ("quot", '"'), ("apos", '\'')];

/// The predefined entity `name`, if it is one.
pub fn predefined(name: &str) -> Option<char> {
    PREDEFINED.iter().find(|&&(n, _)| n == name).map(|&(_, c)| c)
}

/// Parses the body of a character reference (after `#`, before `;`):
/// decimal digits or `x` + hex digits. Rejects characters outside the XML
/// `Char` production.
pub fn parse_char_ref(body: &str, pos: TextPosition) -> XmlResult<char> {
    let code = if let Some(hex) = body.strip_prefix(['x', 'X']) {
        // Only lowercase 'x' is legal XML, but accept 'X' leniently? No —
        // stay strict: the spec says 'x'.
        if body.starts_with('X') {
            return Err(XmlError::syntax("character reference must use lowercase 'x'", pos));
        }
        u32::from_str_radix(hex, 16)
            .map_err(|_| XmlError::syntax(format!("bad character reference &#{body};"), pos))?
    } else {
        body.parse::<u32>()
            .map_err(|_| XmlError::syntax(format!("bad character reference &#{body};"), pos))?
    };
    let ch = char::from_u32(code).ok_or_else(|| {
        XmlError::syntax(format!("character reference &#{body}; is not a character"), pos)
    })?;
    if !is_xml_char(ch) {
        return Err(XmlError::new(XmlErrorKind::InvalidChar { ch }, pos));
    }
    Ok(ch)
}

/// The XML 1.0 `Char` production (§2.2): characters allowed in documents.
pub fn is_xml_char(c: char) -> bool {
    matches!(c,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    const POS: TextPosition = TextPosition::START;

    fn expand(table: &EntityTable, name: &str) -> XmlResult<String> {
        let mut out = String::new();
        table.expand(name, &EntityLimits::default(), POS, &mut out)?;
        Ok(out)
    }

    #[test]
    fn predefined_entities() {
        let t = EntityTable::new();
        assert_eq!(expand(&t, "lt").unwrap(), "<");
        assert_eq!(expand(&t, "gt").unwrap(), ">");
        assert_eq!(expand(&t, "amp").unwrap(), "&");
        assert_eq!(expand(&t, "apos").unwrap(), "'");
        assert_eq!(expand(&t, "quot").unwrap(), "\"");
    }

    #[test]
    fn unknown_entity_errors() {
        let t = EntityTable::new();
        let e = expand(&t, "nope").unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::UnknownEntity { .. }));
    }

    #[test]
    fn internal_entity_expands() {
        let mut t = EntityTable::new();
        t.declare_internal("copy", "©2005");
        assert_eq!(expand(&t, "copy").unwrap(), "©2005");
    }

    #[test]
    fn nested_entities_expand() {
        let mut t = EntityTable::new();
        t.declare_internal("a", "x");
        t.declare_internal("b", "&a;&a;");
        t.declare_internal("c", "[&b;]");
        assert_eq!(expand(&t, "c").unwrap(), "[xx]");
    }

    #[test]
    fn first_declaration_wins() {
        let mut t = EntityTable::new();
        t.declare_internal("e", "first");
        t.declare_internal("e", "second");
        assert_eq!(expand(&t, "e").unwrap(), "first");
    }

    #[test]
    fn recursive_entities_hit_depth_limit() {
        let mut t = EntityTable::new();
        t.declare_internal("a", "&b;");
        t.declare_internal("b", "&a;");
        let e = expand(&t, "a").unwrap_err();
        assert!(matches!(
            e.kind(),
            XmlErrorKind::EntityExpansionLimit { what: "maximum nesting depth" }
        ));
    }

    #[test]
    fn billion_laughs_hits_size_limit() {
        let mut t = EntityTable::new();
        t.declare_internal("l0", &"ha".repeat(50));
        for i in 1..10 {
            let prev = format!("&l{};", i - 1).repeat(10);
            t.declare_internal(&format!("l{i}"), &prev);
        }
        let limits = EntityLimits { max_depth: 32, max_expansion: 10_000 };
        let mut out = String::new();
        let e = t.expand("l9", &limits, POS, &mut out).unwrap_err();
        assert!(matches!(
            e.kind(),
            XmlErrorKind::EntityExpansionLimit { what: "maximum expansion size" }
        ));
    }

    #[test]
    fn external_entities_are_refused() {
        let mut t = EntityTable::new();
        t.declare_external("xxe");
        let e = expand(&t, "xxe").unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::ExternalEntity { .. }));
    }

    #[test]
    fn markup_in_entity_is_refused() {
        let mut t = EntityTable::new();
        t.declare_internal("frag", "<b>bold</b>");
        let e = expand(&t, "frag").unwrap_err();
        assert!(matches!(e.kind(), XmlErrorKind::MarkupInEntity { .. }));
    }

    #[test]
    fn char_refs_in_entity_bodies() {
        let mut t = EntityTable::new();
        t.declare_internal("tab", "a&#9;b");
        assert_eq!(expand(&t, "tab").unwrap(), "a\tb");
    }

    #[test]
    fn char_ref_parsing() {
        assert_eq!(parse_char_ref("65", POS).unwrap(), 'A');
        assert_eq!(parse_char_ref("x41", POS).unwrap(), 'A');
        assert_eq!(parse_char_ref("x1F600", POS).unwrap(), '😀');
        assert!(parse_char_ref("xZZ", POS).is_err());
        assert!(parse_char_ref("", POS).is_err());
        // U+0000 is not an XML char; neither is a lone surrogate.
        assert!(parse_char_ref("0", POS).is_err());
        assert!(parse_char_ref("xD800", POS).is_err());
        // Control chars other than tab/nl/cr are invalid.
        assert!(parse_char_ref("1", POS).is_err());
        assert!(parse_char_ref("x1F", POS).is_err());
    }

    #[test]
    fn xml_char_classifier() {
        assert!(is_xml_char('\t'));
        assert!(is_xml_char('a'));
        assert!(is_xml_char('\u{10FFFF}'));
        assert!(!is_xml_char('\u{0}'));
        assert!(!is_xml_char('\u{B}'));
        assert!(!is_xml_char('\u{FFFE}'));
    }
}
