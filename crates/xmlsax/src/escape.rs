//! Escaping helpers shared by the writer and tests.
//!
//! Only the five predefined XML entities are involved here; numeric
//! character references and general entities are handled by
//! [`crate::entities`].

use std::borrow::Cow;

/// Escapes text content: `&`, `<`, `>` (the latter for `]]>` safety).
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>'))
}

/// Escapes an attribute value for emission inside double quotes:
/// `&`, `<`, `>`, `"`, plus tab/newline so round-tripping survives
/// attribute-value normalization.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>' | '"' | '\t' | '\n' | '\r'))
}

fn escape_with(s: &str, needs: impl Fn(char) -> bool) -> Cow<'_, str> {
    if !s.chars().any(&needs) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        if needs(c) {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&apos;"),
                // Control whitespace in attribute values must survive
                // normalization, so emit character references.
                other => {
                    out.push_str("&#");
                    out.push_str(&(other as u32).to_string());
                    out.push(';');
                }
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn text_passthrough_borrows() {
        let s = "plain text";
        assert!(matches!(escape_text(s), Cow::Borrowed(_)));
    }

    #[test]
    fn text_escapes_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        // Quotes are fine in text.
        assert_eq!(escape_text(r#"say "hi"'"#), r#"say "hi"'"#);
    }

    #[test]
    fn attr_escapes_quotes_and_whitespace() {
        assert_eq!(escape_attr(r#"a"b"#), "a&quot;b");
        assert_eq!(escape_attr("a\tb"), "a&#9;b");
        assert_eq!(escape_attr("a\nb"), "a&#10;b");
        assert_eq!(escape_attr("<&>"), "&lt;&amp;&gt;");
    }
}
