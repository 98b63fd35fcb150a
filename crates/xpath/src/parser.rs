//! Recursive-descent parser for the XP{/, //, *, []} fragment.

use crate::ast::{Axis, CmpOp, Condition, Literal, NodeTest, Predicate, Query, Step};
use crate::error::{ParseError, ParseResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parses an absolute XPath query in the supported fragment.
///
/// ```
/// let q = vitex_xpath::parse("//ProteinEntry[reference]/@id").unwrap();
/// assert_eq!(q.steps.len(), 2);
/// ```
pub fn parse(input: &str) -> ParseResult<Query> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let query = parser.parse_query()?;
    parser.expect_eof()?;
    validate(&query)?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.offset())
    }

    fn expect_eof(&self) -> ParseResult<()> {
        if *self.peek() != TokenKind::Eof {
            return Err(self.error(format!("unexpected {}", self.peek().describe())));
        }
        Ok(())
    }

    fn parse_query(&mut self) -> ParseResult<Query> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                TokenKind::Slash => {
                    self.bump();
                    Axis::Child
                }
                TokenKind::DoubleSlash => {
                    self.bump();
                    Axis::Descendant
                }
                _ if steps.is_empty() => {
                    return Err(self.error("a query must start with '/' or '//'"))
                }
                _ => break,
            };
            steps.push(self.parse_step(axis)?);
        }
        Ok(Query { steps })
    }

    /// Parses a step whose axis token has been consumed.
    fn parse_step(&mut self, axis: Axis) -> ParseResult<Step> {
        let test = self.parse_node_test()?;
        let mut predicates = Vec::new();
        while *self.peek() == TokenKind::LBracket {
            if !test.is_element() {
                return Err(self.error("predicates are only allowed on element steps"));
            }
            predicates.push(self.parse_predicate()?);
        }
        Ok(Step { axis, test, predicates })
    }

    fn parse_node_test(&mut self) -> ParseResult<NodeTest> {
        match self.peek().clone() {
            TokenKind::Star => {
                self.bump();
                Ok(NodeTest::Wildcard)
            }
            TokenKind::At => {
                self.bump();
                match self.bump() {
                    TokenKind::Name(n) => Ok(NodeTest::Attribute(n)),
                    TokenKind::Star => Ok(NodeTest::AttributeWildcard),
                    other => Err(ParseError::new(
                        format!(
                            "expected attribute name or '*' after '@', found {}",
                            other.describe()
                        ),
                        self.tokens[self.pos.saturating_sub(1)].offset,
                    )),
                }
            }
            TokenKind::Name(name) => {
                self.bump();
                if *self.peek() == TokenKind::LParen {
                    // A node-type test or an (unsupported) function call.
                    if name == "text" {
                        self.bump();
                        if self.bump() != TokenKind::RParen {
                            return Err(self.error("expected ')' after 'text('"));
                        }
                        Ok(NodeTest::Text)
                    } else if name == "node"
                        || name == "comment"
                        || name == "processing-instruction"
                    {
                        Err(self.error(format!(
                            "node test '{name}()' is not in the XP{{/,//,*,[]}} fragment"
                        )))
                    } else {
                        Err(self.error(format!(
                            "function '{name}()' is not supported (the fragment has no \
                             functions; note that in the ViteX paper 'position' is an \
                             element name, not position())"
                        )))
                    }
                } else {
                    Ok(NodeTest::Name(name))
                }
            }
            other => Err(self.error(format!("expected a node test, found {}", other.describe()))),
        }
    }

    fn parse_predicate(&mut self) -> ParseResult<Predicate> {
        debug_assert_eq!(*self.peek(), TokenKind::LBracket);
        self.bump();
        let mut conditions = vec![self.parse_condition()?];
        loop {
            match self.peek() {
                TokenKind::RBracket => {
                    self.bump();
                    return Ok(Predicate { conditions });
                }
                TokenKind::Name(n) if n == "and" => {
                    self.bump();
                    conditions.push(self.parse_condition()?);
                }
                other => {
                    return Err(
                        self.error(format!("expected ']' or 'and', found {}", other.describe()))
                    )
                }
            }
        }
    }

    fn parse_condition(&mut self) -> ParseResult<Condition> {
        // A relative path: first step has an implicit child axis.
        if matches!(self.peek(), TokenKind::Slash | TokenKind::DoubleSlash) {
            return Err(self
                .error("predicates contain relative paths; they must not start with '/' or '//'"));
        }
        if matches!(self.peek(), TokenKind::Number(_) | TokenKind::StringLit(_)) {
            return Err(self
                .error("comparisons must have the path on the left and the literal on the right"));
        }
        let mut path = vec![self.parse_step(Axis::Child)?];
        loop {
            let axis = match self.peek() {
                TokenKind::Slash => Axis::Child,
                TokenKind::DoubleSlash => Axis::Descendant,
                _ => break,
            };
            self.bump();
            path.push(self.parse_step(axis)?);
        }
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        let comparison = match op {
            Some(op) => {
                self.bump();
                let lit = match self.bump() {
                    TokenKind::StringLit(s) => Literal::Str(s),
                    TokenKind::Number(n) => Literal::Num(n),
                    other => {
                        return Err(ParseError::new(
                            format!(
                                "expected a string or number literal after the comparison, \
                                 found {}",
                                other.describe()
                            ),
                            self.tokens[self.pos.saturating_sub(1)].offset,
                        ))
                    }
                };
                Some((op, lit))
            }
            None => None,
        };
        Ok(Condition { path, comparison })
    }
}

/// Structural validation beyond the grammar: attribute and text steps are
/// leaves (last in their path).
fn validate(query: &Query) -> ParseResult<()> {
    validate_path(&query.steps, "the query")?;
    Ok(())
}

fn validate_path(steps: &[Step], what: &str) -> ParseResult<()> {
    for (i, step) in steps.iter().enumerate() {
        let is_last = i + 1 == steps.len();
        if !step.test.is_element() && !is_last {
            return Err(ParseError::new(
                format!(
                    "attribute and text() steps must be the last step of {what} \
                     (nothing can follow them)"
                ),
                0,
            ));
        }
        for pred in &step.predicates {
            for cond in &pred.conditions {
                validate_path(&cond.path, "a predicate path")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_q1() {
        let q = parse("//section[author]//table[position]//cell").unwrap();
        assert_eq!(q.steps.len(), 3);
        assert_eq!(q.size(), 5);
        assert!(q.steps.iter().all(|s| s.axis == Axis::Descendant));
        assert_eq!(q.steps[0].predicates.len(), 1);
        assert_eq!(q.steps[2].predicates.len(), 0);
    }

    #[test]
    fn parses_paper_query_q2() {
        let q = parse("//ProteinEntry[reference]/@id").unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[1].axis, Axis::Child);
        assert_eq!(q.steps[1].test, NodeTest::Attribute("id".into()));
    }

    #[test]
    fn parses_child_axis_root() {
        let q = parse("/book/section").unwrap();
        assert_eq!(q.steps[0].axis, Axis::Child);
    }

    #[test]
    fn parses_wildcards() {
        let q = parse("//*[x]/*/@*").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::Wildcard);
        assert_eq!(q.steps[1].test, NodeTest::Wildcard);
        assert_eq!(q.steps[2].test, NodeTest::AttributeWildcard);
    }

    #[test]
    fn parses_value_comparisons() {
        let q = parse("//book[year > 1999][title = 'Dune']").unwrap();
        let preds = &q.steps[0].predicates;
        assert_eq!(preds.len(), 2);
        let c0 = &preds[0].conditions[0];
        assert_eq!(c0.comparison, Some((CmpOp::Gt, Literal::Num(1999.0))));
        let c1 = &preds[1].conditions[0];
        assert_eq!(c1.comparison, Some((CmpOp::Eq, Literal::Str("Dune".into()))));
    }

    #[test]
    fn parses_and_conjunction() {
        let q = parse("//a[b and c and d='x']").unwrap();
        assert_eq!(q.steps[0].predicates[0].conditions.len(), 3);
    }

    #[test]
    fn parses_nested_predicates() {
        let q = parse("//a[b[c[d]]]").unwrap();
        assert_eq!(q.size(), 4);
        assert_eq!(q.predicate_depth(), 3);
    }

    #[test]
    fn parses_predicate_paths() {
        let q = parse("//a[b/c//d]").unwrap();
        let cond = &q.steps[0].predicates[0].conditions[0];
        assert_eq!(cond.path.len(), 3);
        assert_eq!(cond.path[0].axis, Axis::Child); // implicit
        assert_eq!(cond.path[1].axis, Axis::Child);
        assert_eq!(cond.path[2].axis, Axis::Descendant);
    }

    #[test]
    fn parses_attribute_predicates() {
        let q = parse("//a[@id='x' and @class]").unwrap();
        let conds = &q.steps[0].predicates[0].conditions;
        assert_eq!(conds[0].path[0].test, NodeTest::Attribute("id".into()));
        assert_eq!(conds[1].path[0].test, NodeTest::Attribute("class".into()));
    }

    #[test]
    fn parses_text_predicates() {
        let q = parse("//a[text()='v']").unwrap();
        let cond = &q.steps[0].predicates[0].conditions[0];
        assert_eq!(cond.path[0].test, NodeTest::Text);
    }

    #[test]
    fn parses_text_result_step() {
        let q = parse("//a/text()").unwrap();
        assert_eq!(q.steps[1].test, NodeTest::Text);
    }

    #[test]
    fn element_named_text_without_parens() {
        let q = parse("//text").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::Name("text".into()));
    }

    #[test]
    fn rejects_relative_query() {
        assert!(parse("a/b").is_err());
    }

    #[test]
    fn rejects_empty_query() {
        assert!(parse("").is_err());
        assert!(parse("//").is_err());
        assert!(parse("/").is_err());
    }

    #[test]
    fn rejects_position_function() {
        let e = parse("//a[position()=1]").unwrap_err();
        assert!(e.message().contains("position"));
    }

    #[test]
    fn rejects_absolute_predicate_paths() {
        assert!(parse("//a[/b]").is_err());
        assert!(parse("//a[//b]").is_err());
    }

    #[test]
    fn rejects_steps_after_attribute() {
        assert!(parse("//a/@id/b").is_err());
        assert!(parse("//a[@id/b]").is_err());
    }

    #[test]
    fn rejects_steps_after_text() {
        assert!(parse("//a/text()/b").is_err());
    }

    #[test]
    fn rejects_predicates_on_attributes() {
        assert!(parse("//a/@id[b]").is_err());
    }

    #[test]
    fn rejects_literal_on_left() {
        assert!(parse("//a[1 < b]").is_err());
        assert!(parse("//a['x' = b]").is_err());
    }

    #[test]
    fn rejects_comparison_without_literal() {
        assert!(parse("//a[b = c]").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("//a]").is_err());
        assert!(parse("//a b").is_err());
    }

    #[test]
    fn rejects_unclosed_predicate() {
        assert!(parse("//a[b").is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let a = parse("//a[ b and @c = 'v' ] / d").unwrap();
        let b = parse("//a[b and @c='v']/d").unwrap();
        assert_eq!(a, b);
    }
}
