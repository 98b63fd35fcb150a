//! Abstract syntax for the XP{/, //, *, []} fragment.
//!
//! The AST mirrors the surface grammar; [`crate::query_tree`] normalizes it
//! into the twig form the TwigM builder consumes. Keeping the two separate
//! lets the parser stay a faithful grammar transcription while the query
//! tree makes the evaluation-relevant structure (main path vs predicate
//! subtrees) explicit.

/// The axis connecting a step to its context node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — the step matches children of the context node.
    Child,
    /// `//` — the step matches descendants (any depth ≥ 1) of the context
    /// node (shorthand for `/descendant-or-self::node()/child::`).
    Descendant,
}

/// What a step matches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// A named element: `section`.
    Name(String),
    /// Any element: `*`.
    Wildcard,
    /// A named attribute: `@id`.
    Attribute(String),
    /// Any attribute: `@*`.
    AttributeWildcard,
    /// A text node: `text()`.
    Text,
}

impl NodeTest {
    /// Whether this test selects elements (named or wildcard).
    pub fn is_element(&self) -> bool {
        matches!(self, NodeTest::Name(_) | NodeTest::Wildcard)
    }

    /// Whether this test selects attributes.
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeTest::Attribute(_) | NodeTest::AttributeWildcard)
    }
}

/// A comparison operator in a value predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
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
}

/// A literal operand of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `'...'` or `"..."`.
    Str(String),
    /// A decimal number.
    Num(f64),
}

/// One condition inside a predicate: an (optionally compared) relative
/// path. `[author]` is existence; `[year > 1999]` compares the
/// string-values of matching nodes; `[@id='x']` compares an attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// The relative path, child-first (`author/name`). At least one step.
    pub path: Vec<Step>,
    /// Optional comparison applied to nodes matched by the last step.
    pub comparison: Option<(CmpOp, Literal)>,
}

/// A predicate `[...]`: one or more conditions joined by `and`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The conjuncts.
    pub conditions: Vec<Condition>,
}

/// A location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis connecting this step to the previous one.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Zero or more predicates.
    pub predicates: Vec<Predicate>,
}

impl Step {
    /// Creates a plain element step with no predicates.
    pub fn element(axis: Axis, name: impl Into<String>) -> Self {
        Step { axis, test: NodeTest::Name(name.into()), predicates: Vec::new() }
    }
}

/// A complete query: an absolute path (`/...` or `//...`).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The location steps, outermost first. Non-empty.
    pub steps: Vec<Step>,
}

impl Query {
    /// The total number of query nodes (steps plus all predicate path
    /// steps, recursively) — the paper's `|Q|`.
    pub fn size(&self) -> usize {
        fn steps_size(steps: &[Step]) -> usize {
            steps
                .iter()
                .map(|s| {
                    1 + s
                        .predicates
                        .iter()
                        .flat_map(|p| &p.conditions)
                        .map(|c| steps_size(&c.path))
                        .sum::<usize>()
                })
                .sum()
        }
        steps_size(&self.steps)
    }

    /// Maximum nesting depth of predicates.
    pub fn predicate_depth(&self) -> usize {
        fn depth(steps: &[Step]) -> usize {
            steps
                .iter()
                .map(|s| {
                    s.predicates
                        .iter()
                        .flat_map(|p| &p.conditions)
                        .map(|c| 1 + depth(&c.path))
                        .max()
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0)
        }
        depth(&self.steps)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    fn step(name: &str) -> Step {
        Step::element(Axis::Descendant, name)
    }

    #[test]
    fn query_size_counts_all_nodes() {
        // //a[b]//c  →  3 nodes
        let mut a = step("a");
        a.predicates.push(Predicate {
            conditions: vec![Condition { path: vec![step("b")], comparison: None }],
        });
        let q = Query { steps: vec![a, step("c")] };
        assert_eq!(q.size(), 3);
        assert_eq!(q.predicate_depth(), 1);
    }

    #[test]
    fn nested_predicates_count() {
        // //a[b[c]]  →  3 nodes, depth 2
        let mut b = step("b");
        b.predicates.push(Predicate {
            conditions: vec![Condition { path: vec![step("c")], comparison: None }],
        });
        let mut a = step("a");
        a.predicates
            .push(Predicate { conditions: vec![Condition { path: vec![b], comparison: None }] });
        let q = Query { steps: vec![a] };
        assert_eq!(q.size(), 3);
        assert_eq!(q.predicate_depth(), 2);
    }

    #[test]
    fn node_test_classification() {
        assert!(NodeTest::Name("a".into()).is_element());
        assert!(NodeTest::Wildcard.is_element());
        assert!(NodeTest::Attribute("id".into()).is_attribute());
        assert!(NodeTest::AttributeWildcard.is_attribute());
        assert!(!NodeTest::Text.is_element());
        assert!(!NodeTest::Text.is_attribute());
    }
}
