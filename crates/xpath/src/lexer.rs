//! Tokenizer for the XPath fragment.

use crate::error::{ParseError, ParseResult};

/// A lexical token with its byte offset in the query string.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// Token kinds of the fragment's grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `@`
    At,
    /// `*`
    Star,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// An NCName (possibly the contextual keyword `and` or `text`).
    Name(String),
    /// A quoted string literal (quotes stripped).
    StringLit(String),
    /// A numeric literal.
    Number(f64),
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Slash => "'/'".into(),
            TokenKind::DoubleSlash => "'//'".into(),
            TokenKind::At => "'@'".into(),
            TokenKind::Star => "'*'".into(),
            TokenKind::LBracket => "'['".into(),
            TokenKind::RBracket => "']'".into(),
            TokenKind::LParen => "'('".into(),
            TokenKind::RParen => "')'".into(),
            TokenKind::Name(n) => format!("name '{n}'"),
            TokenKind::StringLit(_) => "string literal".into(),
            TokenKind::Number(_) => "number".into(),
            TokenKind::Eq => "'='".into(),
            TokenKind::Ne => "'!='".into(),
            TokenKind::Lt => "'<'".into(),
            TokenKind::Le => "'<='".into(),
            TokenKind::Gt => "'>'".into(),
            TokenKind::Ge => "'>='".into(),
            TokenKind::Eof => "end of query".into(),
        }
    }
}

/// Tokenizes a whole query string.
pub fn tokenize(input: &str) -> ParseResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let offset = i;
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    tokens.push(Token { kind: TokenKind::DoubleSlash, offset });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Slash, offset });
                    i += 1;
                }
            }
            b'@' => {
                tokens.push(Token { kind: TokenKind::At, offset });
                i += 1;
            }
            b'*' => {
                tokens.push(Token { kind: TokenKind::Star, offset });
                i += 1;
            }
            b'[' => {
                tokens.push(Token { kind: TokenKind::LBracket, offset });
                i += 1;
            }
            b']' => {
                tokens.push(Token { kind: TokenKind::RBracket, offset });
                i += 1;
            }
            b'(' => {
                tokens.push(Token { kind: TokenKind::LParen, offset });
                i += 1;
            }
            b')' => {
                tokens.push(Token { kind: TokenKind::RParen, offset });
                i += 1;
            }
            b'=' => {
                tokens.push(Token { kind: TokenKind::Eq, offset });
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Ne, offset });
                    i += 2;
                } else {
                    return Err(ParseError::new("expected '=' after '!'", offset));
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Le, offset });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Lt, offset });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Ge, offset });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Gt, offset });
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let quote = b;
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError::new("unterminated string literal", offset));
                }
                let lit = input[i + 1..j].to_owned();
                tokens.push(Token { kind: TokenKind::StringLit(lit), offset });
                i = j + 1;
            }
            b'0'..=b'9' | b'.' => {
                // A number: digits, optional fraction. A lone '.' is an
                // error (we don't support the '.' step).
                let mut j = i;
                let mut seen_digit = false;
                let mut seen_dot = false;
                while j < bytes.len() {
                    match bytes[j] {
                        b'0'..=b'9' => {
                            seen_digit = true;
                            j += 1;
                        }
                        b'.' if !seen_dot => {
                            seen_dot = true;
                            j += 1;
                        }
                        _ => break,
                    }
                }
                if !seen_digit {
                    return Err(ParseError::new(
                        "unexpected '.' (the '.' step is not part of the fragment)",
                        offset,
                    ));
                }
                let text = &input[i..j];
                let value: f64 = text
                    .parse()
                    .map_err(|_| ParseError::new(format!("invalid number {text:?}"), offset))?;
                tokens.push(Token { kind: TokenKind::Number(value), offset });
                i = j;
            }
            _ => {
                // An NCName (ASCII fast path + full Unicode via chars()).
                let rest = &input[i..];
                let mut char_indices = rest.char_indices();
                let Some((_, first)) = char_indices.next() else {
                    return Err(ParseError::new("unexpected end of query", offset));
                };
                if !vitex_name_start(first) {
                    return Err(ParseError::new(format!("unexpected character {first:?}"), offset));
                }
                let mut end = rest.len();
                for (ci, c) in char_indices {
                    if !vitex_name_char(c) {
                        end = ci;
                        break;
                    }
                }
                let name = &rest[..end];
                tokens.push(Token { kind: TokenKind::Name(name.to_owned()), offset });
                i += end;
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, offset: input.len() });
    Ok(tokens)
}

// NCName character classes (no colon: the fragment matches lexical names,
// and a colon inside a nametest is accepted as part of the name so that
// prefixed documents can be queried — see below).
fn vitex_name_start(c: char) -> bool {
    c == '_' || c == ':' || c.is_alphabetic()
}

fn vitex_name_char(c: char) -> bool {
    c == '_' || c == ':' || c == '-' || c == '.' || c.is_alphanumeric()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    fn kinds(q: &str) -> Vec<TokenKind> {
        tokenize(q).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_paper_query() {
        use TokenKind::*;
        assert_eq!(
            kinds("//section[author]//table[position]//cell"),
            vec![
                DoubleSlash,
                Name("section".into()),
                LBracket,
                Name("author".into()),
                RBracket,
                DoubleSlash,
                Name("table".into()),
                LBracket,
                Name("position".into()),
                RBracket,
                DoubleSlash,
                Name("cell".into()),
                Eof
            ]
        );
    }

    #[test]
    fn tokenizes_attribute_query() {
        use TokenKind::*;
        assert_eq!(
            kinds("//ProteinEntry[reference]/@id"),
            vec![
                DoubleSlash,
                Name("ProteinEntry".into()),
                LBracket,
                Name("reference".into()),
                RBracket,
                Slash,
                At,
                Name("id".into()),
                Eof
            ]
        );
    }

    #[test]
    fn tokenizes_comparisons() {
        use TokenKind::*;
        assert_eq!(
            kinds("//a[b = 'x'][c != \"y\"][d < 2][e <= 2][f > 2.5][g >= 10]"),
            vec![
                DoubleSlash,
                Name("a".into()),
                LBracket,
                Name("b".into()),
                Eq,
                StringLit("x".into()),
                RBracket,
                LBracket,
                Name("c".into()),
                Ne,
                StringLit("y".into()),
                RBracket,
                LBracket,
                Name("d".into()),
                Lt,
                Number(2.0),
                RBracket,
                LBracket,
                Name("e".into()),
                Le,
                Number(2.0),
                RBracket,
                LBracket,
                Name("f".into()),
                Gt,
                Number(2.5),
                RBracket,
                LBracket,
                Name("g".into()),
                Ge,
                Number(10.0),
                RBracket,
                Eof
            ]
        );
    }

    #[test]
    fn tokenizes_text_function() {
        use TokenKind::*;
        assert_eq!(
            kinds("//a[text()='v']"),
            vec![
                DoubleSlash,
                Name("a".into()),
                LBracket,
                Name("text".into()),
                LParen,
                RParen,
                Eq,
                StringLit("v".into()),
                RBracket,
                Eof
            ]
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(kinds(" // a [ b ] "), kinds("//a[b]"));
    }

    #[test]
    fn unterminated_string_errors() {
        let e = tokenize("//a[b='x]").unwrap_err();
        assert!(e.message().contains("unterminated"));
    }

    #[test]
    fn lone_bang_errors() {
        assert!(tokenize("//a[b ! 'x']").is_err());
    }

    #[test]
    fn lone_dot_errors() {
        assert!(tokenize("//a/.").is_err());
    }

    #[test]
    fn number_with_fraction() {
        assert_eq!(
            kinds("//a[b=3.25]")
                .iter()
                .filter(|k| matches!(k, TokenKind::Number(n) if *n == 3.25))
                .count(),
            1
        );
    }

    #[test]
    fn unicode_names() {
        assert!(matches!(
            &kinds("//日本語")[1],
            TokenKind::Name(n) if n == "日本語"
        ));
    }

    #[test]
    fn offsets_point_into_input() {
        let toks = tokenize("//abc[x]").unwrap();
        assert_eq!(toks[0].offset, 0); // //
        assert_eq!(toks[1].offset, 2); // abc
        assert_eq!(toks[2].offset, 5); // [
        assert_eq!(toks[3].offset, 6); // x
    }
}
