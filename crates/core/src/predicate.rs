//! Value-comparison evaluation with XPath 1.0 semantics.
//!
//! A comparison attaches to a predicate-subtree leaf (`[year > 1999]`,
//! `[@id = 'x']`, `[text() != 'v']`) and is tested against the node's
//! **string-value**: the element's concatenated descendant text, the
//! attribute's value, or the text node's content.
//!
//! Semantics follow XPath 1.0 §3.4:
//! * relational operators (`<`, `<=`, `>`, `>=`) convert both sides to
//!   numbers; any comparison involving NaN is false;
//! * `=` / `!=` against a **numeric** literal convert the node value to a
//!   number (`NaN = n` is false, `NaN != n` is true);
//! * `=` / `!=` against a **string** literal compare strings.

use vitex_xpath::{CmpOp, Literal};

/// XPath 1.0 `number()` conversion of a string: optional whitespace,
/// optional minus, digits with optional fraction; anything else is NaN.
pub fn xpath_number(s: &str) -> f64 {
    let t = s.trim_matches([' ', '\t', '\n', '\r']);
    if t.is_empty() {
        return f64::NAN;
    }
    // XPath's Number grammar is stricter than Rust's float parser (no
    // exponent, no 'inf'/'nan' words, no '+' sign), so validate first.
    let rest = t.strip_prefix('-').unwrap_or(t);
    let mut parts = rest.splitn(2, '.');
    let int_part = parts.next().unwrap_or("");
    let frac_part = parts.next();
    let digits_ok = |p: &str| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit());
    let valid = match frac_part {
        None => digits_ok(int_part),
        Some(frac) => {
            (digits_ok(int_part) && (frac.is_empty() || digits_ok(frac)))
                || (int_part.is_empty() && digits_ok(frac))
        }
    };
    if !valid {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// Evaluates `node_value <op> literal`.
pub fn compare(node_value: &str, op: CmpOp, literal: &Literal) -> bool {
    let right = match (op, literal) {
        (CmpOp::Eq, Literal::Str(s)) => return node_value == s,
        (CmpOp::Ne, Literal::Str(s)) => return node_value != s,
        (_, Literal::Num(n)) => *n,
        (_, Literal::Str(s)) => xpath_number(s),
    };
    // IEEE comparisons are XPath's: with NaN on either side only `!=`
    // holds.
    let left = xpath_number(node_value);
    match op {
        CmpOp::Eq => left == right,
        CmpOp::Ne => left != right,
        CmpOp::Lt => left < right,
        CmpOp::Le => left <= right,
        CmpOp::Gt => left > right,
        CmpOp::Ge => left >= right,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn number_conversion() {
        assert_eq!(xpath_number("42"), 42.0);
        assert_eq!(xpath_number("  -3.5\n"), -3.5);
        assert_eq!(xpath_number(".5"), 0.5);
        assert_eq!(xpath_number("2."), 2.0);
        assert!(xpath_number("").is_nan());
        assert!(xpath_number("abc").is_nan());
        assert!(xpath_number("1 2").is_nan());
        assert!(xpath_number("1e3").is_nan()); // no exponent in XPath 1.0
        assert!(xpath_number("+1").is_nan()); // no unary plus
        assert!(xpath_number("inf").is_nan());
        assert!(xpath_number("-").is_nan());
        assert!(xpath_number(".").is_nan());
    }

    #[test]
    fn string_equality() {
        assert!(compare("abc", CmpOp::Eq, &Literal::Str("abc".into())));
        assert!(!compare("abc", CmpOp::Eq, &Literal::Str("abd".into())));
        assert!(compare("abc", CmpOp::Ne, &Literal::Str("abd".into())));
        assert!(!compare("abc", CmpOp::Ne, &Literal::Str("abc".into())));
        // Case sensitive, whitespace significant.
        assert!(!compare("Abc", CmpOp::Eq, &Literal::Str("abc".into())));
        assert!(!compare(" abc", CmpOp::Eq, &Literal::Str("abc".into())));
    }

    #[test]
    fn numeric_equality() {
        assert!(compare("42", CmpOp::Eq, &Literal::Num(42.0)));
        assert!(compare(" 42 ", CmpOp::Eq, &Literal::Num(42.0)));
        assert!(compare("42.0", CmpOp::Eq, &Literal::Num(42.0)));
        assert!(!compare("abc", CmpOp::Eq, &Literal::Num(42.0)));
        // NaN != n is true in XPath 1.0.
        assert!(compare("abc", CmpOp::Ne, &Literal::Num(42.0)));
        assert!(compare("43", CmpOp::Ne, &Literal::Num(42.0)));
        assert!(!compare("42", CmpOp::Ne, &Literal::Num(42.0)));
    }

    #[test]
    fn relational_operators() {
        assert!(compare("1999", CmpOp::Lt, &Literal::Num(2000.0)));
        assert!(!compare("2000", CmpOp::Lt, &Literal::Num(2000.0)));
        assert!(compare("2000", CmpOp::Le, &Literal::Num(2000.0)));
        assert!(compare("2001", CmpOp::Gt, &Literal::Num(2000.0)));
        assert!(compare("2000", CmpOp::Ge, &Literal::Num(2000.0)));
        assert!(!compare("1999", CmpOp::Ge, &Literal::Num(2000.0)));
    }

    #[test]
    fn relational_with_string_literal_converts() {
        assert!(compare("5", CmpOp::Lt, &Literal::Str("10".into())));
        assert!(!compare("5", CmpOp::Lt, &Literal::Str("abc".into()))); // NaN
    }

    #[test]
    fn relational_with_nan_is_false() {
        assert!(!compare("abc", CmpOp::Lt, &Literal::Num(1.0)));
        assert!(!compare("abc", CmpOp::Gt, &Literal::Num(1.0)));
        assert!(!compare("abc", CmpOp::Le, &Literal::Num(1.0)));
        assert!(!compare("abc", CmpOp::Ge, &Literal::Num(1.0)));
    }
}
