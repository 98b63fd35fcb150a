//! Rendering ASTs back to XPath syntax.
//!
//! `parse(q.to_string()) == q` holds for every valid query — the property
//! tests rely on this for shrink-friendly debugging, and the benchmark
//! harness uses it to label generated workloads.

use std::fmt;

use crate::ast::{Axis, CmpOp, Condition, Literal, NodeTest, Predicate, Query, Step};

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => f.write_str("/"),
            Axis::Descendant => f.write_str("//"),
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Wildcard => f.write_str("*"),
            NodeTest::Attribute(n) => write!(f, "@{n}"),
            NodeTest::AttributeWildcard => f.write_str("@*"),
            NodeTest::Text => f.write_str("text()"),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Pick a quote the content doesn't contain (the lexer cannot
            // escape quotes, so a literal containing both kinds is not
            // representable; the generator never produces one).
            Literal::Str(s) => {
                if s.contains('\'') {
                    write!(f, "\"{s}\"")
                } else {
                    write!(f, "'{s}'")
                }
            }
            Literal::Num(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "{}", step.axis)?;
            } else {
                debug_assert_eq!(step.axis, Axis::Child, "first predicate step is implicit-child");
            }
            write!(f, "{}", StepBody(step))?;
        }
        if let Some((op, lit)) = &self.comparison {
            write!(f, " {op} {lit}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                f.write_str(" and ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("]")
    }
}

/// A step without its leading axis (used where the axis is printed by the
/// surrounding path logic).
struct StepBody<'a>(&'a Step);

impl fmt::Display for StepBody<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.test)?;
        for p in &self.0.predicates {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.axis, StepBody(self))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use crate::parse;

    fn round_trip(q: &str) {
        let parsed = parse(q).unwrap();
        let printed = parsed.to_string();
        assert_eq!(printed, q, "canonical form mismatch");
        assert_eq!(parse(&printed).unwrap(), parsed, "reparse mismatch");
    }

    #[test]
    fn round_trips_paper_queries() {
        round_trip("//section[author]//table[position]//cell");
        round_trip("//ProteinEntry[reference]/@id");
    }

    #[test]
    fn round_trips_comparisons() {
        round_trip("//a[b = 'x']");
        round_trip("//a[b != 'x']");
        round_trip("//a[b < 2]");
        round_trip("//a[b <= 2.5]");
        round_trip("//a[b > 10]");
        round_trip("//a[b >= 0.5]");
    }

    #[test]
    fn round_trips_structure() {
        round_trip("/book/section//table/cell");
        round_trip("//*[x and y]/@*");
        round_trip("//a[b/c//d]//e[f[g]]/text()");
        round_trip("//a[@id = 'x' and text() = 'v']");
    }

    #[test]
    fn double_quotes_when_needed() {
        let q = parse("//a[b=\"it's\"]").unwrap();
        assert_eq!(q.to_string(), "//a[b = \"it's\"]");
    }
}
