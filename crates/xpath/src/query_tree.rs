//! The normalized *query tree* (twig) — the structure the TwigM builder
//! consumes.
//!
//! The ViteX paper (Figure 3) draws the query as a tree: one node per tag /
//! wildcard, single-line edges for child axes, double-line edges for
//! descendant axes. This module materializes exactly that, with two
//! additions the paper's prose implies:
//!
//! * the **main path** — the chain of steps from the query root to the
//!   *result node* (the last location step, whose bindings are the query
//!   solutions); every other node belongs to a predicate subtree;
//! * per-node **value comparisons** (from `[p = 'v']`-style predicates).
//!
//! Node ids are dense indices (`0..len`), parents precede children, and the
//! root is id 0 — properties the machine's flat arrays rely on.

use std::fmt;

use crate::ast::{Axis, CmpOp, Condition, Literal, NodeTest, Query, Step};
use crate::error::{ParseError, ParseResult};

/// Index of a node in a [`QueryTree`].
pub type QNodeId = usize;

/// What kind of document node a query node binds to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element; `None` name is the wildcard `*`.
    Element {
        /// Element name, or `None` for `*`.
        name: Option<String>,
    },
    /// An attribute; `None` name is `@*`.
    Attribute {
        /// Attribute name, or `None` for `@*`.
        name: Option<String>,
    },
    /// A text node (`text()`).
    Text,
}

impl NodeKind {
    /// Whether the kind is an element test.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// Whether the kind is an attribute test.
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute { .. })
    }
}

/// One node of the query tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QNode {
    /// This node's id (== its index).
    pub id: QNodeId,
    /// Parent node, `None` for the query root.
    pub parent: Option<QNodeId>,
    /// Axis on the incoming edge (from the parent, or from the document
    /// root for the query root).
    pub axis: Axis,
    /// The node test.
    pub kind: NodeKind,
    /// Optional value comparison (`[... = 'v']`) against this node's
    /// string-value (elements), value (attributes) or content (text).
    pub comparison: Option<(CmpOp, Literal)>,
    /// Predicate children: all must be matched for this node's subtree to
    /// be satisfied.
    pub pred_children: Vec<QNodeId>,
    /// The next main-path node below this one, if this node is on the main
    /// path and not the result node.
    pub main_child: Option<QNodeId>,
    /// Whether this node lies on the main path.
    pub on_main_path: bool,
}

impl QNode {
    /// The element/attribute name, if the test is named.
    pub fn name(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { name } | NodeKind::Attribute { name } => name.as_deref(),
            NodeKind::Text => None,
        }
    }
}

/// The normalized query twig.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTree {
    nodes: Vec<QNode>,
    main_path: Vec<QNodeId>,
    original: String,
}

impl QueryTree {
    /// Normalizes a parsed query.
    ///
    /// Two semantic rewrites/validations happen here (beyond what the
    /// grammar can express):
    ///
    /// * A leading `//@attr` / `//text()` is rewritten to `//*/@attr` /
    ///   `//*/text()` — an exact XPath 1.0 equivalence (`//x` abbreviates
    ///   `/descendant-or-self::node()/x`, and only elements can own
    ///   attributes or text).
    /// * A leading `/@attr` or `/text()` selects nothing (the document
    ///   root node has neither) and is rejected with an explanatory error,
    ///   as is a **non-leading** descendant-axis attribute/text step
    ///   (`a//@id` means "attributes of `a` *or* its descendants", which a
    ///   twig without a self axis cannot express).
    pub fn build(query: &Query) -> ParseResult<QueryTree> {
        if query.steps.is_empty() {
            return Err(ParseError::new("query has no steps", 0));
        }
        let mut tree = QueryTree {
            nodes: Vec::with_capacity(query.size() + 1),
            main_path: Vec::with_capacity(query.steps.len() + 1),
            original: query.to_string(),
        };
        let mut parent: Option<QNodeId> = None;
        for (i, step) in query.steps.iter().enumerate() {
            let mut step = std::borrow::Cow::Borrowed(step);
            if !step.test.is_element() {
                match (i, step.axis) {
                    (0, Axis::Descendant) => {
                        // //@id  →  //*/@id
                        let synth = Step {
                            axis: Axis::Descendant,
                            test: NodeTest::Wildcard,
                            predicates: Vec::new(),
                        };
                        let id = tree.add_step(&synth, parent, true)?;
                        tree.main_path.push(id);
                        parent = Some(id);
                        step.to_mut().axis = Axis::Child;
                    }
                    (0, Axis::Child) => {
                        return Err(ParseError::new(
                            "'/@attr' and '/text()' select nothing: the document root \
                             node has no attributes or text children",
                            0,
                        ));
                    }
                    (_, Axis::Descendant) => {
                        return Err(ParseError::new(
                            "descendant-axis attribute/text() steps are only supported \
                             as the first step of a query (write 'a//*/@id' for the \
                             descendants of 'a')",
                            0,
                        ));
                    }
                    (_, Axis::Child) => {}
                }
            }
            let id = tree.add_step(&step, parent, true)?;
            tree.main_path.push(id);
            parent = Some(id);
        }
        Ok(tree)
    }

    /// Convenience: parse + build.
    pub fn parse(input: &str) -> ParseResult<QueryTree> {
        QueryTree::build(&crate::parser::parse(input)?)
    }

    fn add_step(
        &mut self,
        step: &Step,
        parent: Option<QNodeId>,
        on_main_path: bool,
    ) -> ParseResult<QNodeId> {
        let kind = match &step.test {
            NodeTest::Name(n) => NodeKind::Element { name: Some(n.clone()) },
            NodeTest::Wildcard => NodeKind::Element { name: None },
            NodeTest::Attribute(n) => NodeKind::Attribute { name: Some(n.clone()) },
            NodeTest::AttributeWildcard => NodeKind::Attribute { name: None },
            NodeTest::Text => NodeKind::Text,
        };
        if !kind.is_element() && step.axis == Axis::Descendant {
            return Err(ParseError::new(
                "descendant-axis attribute/text() steps are only supported as the \
                 first step of a query",
                0,
            ));
        }
        let id = self.nodes.len();
        self.nodes.push(QNode {
            id,
            parent,
            axis: step.axis,
            kind,
            comparison: None,
            pred_children: Vec::new(),
            main_child: None,
            on_main_path,
        });
        if let Some(p) = parent {
            if on_main_path {
                self.nodes[p].main_child = Some(id);
            } else {
                self.nodes[p].pred_children.push(id);
            }
        }
        for predicate in &step.predicates {
            for condition in &predicate.conditions {
                self.add_condition(condition, id)?;
            }
        }
        Ok(id)
    }

    fn add_condition(&mut self, condition: &Condition, owner: QNodeId) -> ParseResult<QNodeId> {
        let mut parent = owner;
        let mut last = owner;
        for (i, step) in condition.path.iter().enumerate() {
            debug_assert!(i > 0 || step.axis == Axis::Child, "first predicate step is child-axis");
            last = self.add_step(step, Some(parent), false)?;
            parent = last;
        }
        if let Some((op, lit)) = &condition.comparison {
            self.nodes[last].comparison = Some((*op, lit.clone()));
        }
        Ok(last)
    }

    /// All nodes, id order (parents before children).
    pub fn nodes(&self) -> &[QNode] {
        &self.nodes
    }

    /// Node count — the paper's `|Q|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node by id.
    pub fn node(&self, id: QNodeId) -> &QNode {
        &self.nodes[id]
    }

    /// The query root (first main-path step).
    pub fn root(&self) -> QNodeId {
        self.main_path[0]
    }

    /// The result node (last main-path step).
    pub fn result(&self) -> QNodeId {
        // A built tree's main path holds at least its root: the parser
        // rejects a query without a step.
        #[allow(clippy::expect_used)]
        *self.main_path.last().expect("main path is non-empty")
    }

    /// The main path, root → result.
    pub fn main_path(&self) -> &[QNodeId] {
        &self.main_path
    }

    /// The query string this tree was built from (canonical form).
    pub fn original(&self) -> &str {
        &self.original
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: QNodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// The canonical structural form of the query: a whitespace-free
    /// serialization with every predicate list **sorted** by the predicates'
    /// own canonical forms. Two queries with equal canonical keys select
    /// exactly the same nodes on every document (predicate order is
    /// conjunctive and therefore irrelevant), which is what lets the
    /// multi-query planner dedupe them into one shared machine.
    ///
    /// ```
    /// use vitex_xpath::QueryTree;
    /// let a = QueryTree::parse("//a[c and b]/d").unwrap();
    /// let b = QueryTree::parse("//a[b][ c ]/d").unwrap();
    /// assert_eq!(a.canonical_key(), b.canonical_key());
    /// ```
    pub fn canonical_key(&self) -> String {
        let mut out = String::with_capacity(self.original.len());
        self.canonical_node(self.root(), &mut out);
        out
    }

    /// The query's **parametric leaf**: its one predicate element node
    /// compared with `= 'string'` — a test of the node's string-value,
    /// decided when the element closes (`[payment = 'Cash']`). A query
    /// with no such element takes its one inline `[@name = 'string']` test
    /// instead, decided at the start tag (`[@id = 'item3']`). `None` when
    /// the query has neither, or two candidates of the kind that decides:
    /// two elements, or no element and two attribute tests. `@*`, `text()`
    /// comparisons, `!=`, numeric literals and relational operators never
    /// make a leaf parametric.
    pub fn parametric_node(&self) -> Option<QNodeId> {
        self.parametric_leaf().map(|(id, _)| id)
    }

    /// The parametric leaf and its literal.
    fn parametric_leaf(&self) -> Option<(QNodeId, &str)> {
        let leaves = |attributes: bool| {
            self.nodes.iter().filter_map(move |n| {
                let kind = match &n.kind {
                    NodeKind::Element { .. } => !attributes,
                    NodeKind::Attribute { name } => attributes && name.is_some(),
                    NodeKind::Text => false,
                };
                match &n.comparison {
                    Some((CmpOp::Eq, Literal::Str(s))) if kind && !n.on_main_path => {
                        Some((n.id, s.as_str()))
                    }
                    _ => None,
                }
            })
        };
        let mut elements = leaves(false);
        let (leaf, mut rest) = match elements.next() {
            Some(leaf) => (leaf, elements),
            None => {
                let mut tests = leaves(true);
                (tests.next()?, tests)
            }
        };
        rest.next().is_none().then_some(leaf)
    }

    /// The **shape key** and the literal it leaves out: the canonical key
    /// with the parametric leaf's literal erased to `''`, so queries that
    /// differ only in that literal share a key (`//a[b = 'x']` and
    /// `//a[b = 'y']` both read `//a[/b='']`, `//a[@id = 'x']` and
    /// `//a[@id = 'y']` both read `//a[/@id='']`). A query without a
    /// parametric leaf keys by its canonical key and has no literal.
    ///
    /// An erased leaf cannot be mistaken for a real `= ''` test, because a
    /// key shows which rule chose its leaf. An element-parametric key
    /// always holds an element `=''` and no other element `=`-string test.
    /// An attribute-parametric key never holds an element `=`-string test,
    /// and holds exactly one named attribute one: the `=''`. A query whose
    /// key reads like either with a real `''` literal has the same single
    /// candidate, so the same rule makes it parametric, bound to `''`, in
    /// the same shape. Any other query has no candidate, or two of the
    /// deciding kind, and its key keeps every literal: it shows none, or
    /// two where an erased key holds exactly one.
    ///
    /// ```
    /// use vitex_xpath::QueryTree;
    /// let a = QueryTree::parse("//item[payment = 'Cash']/@id").unwrap();
    /// let b = QueryTree::parse("//item[payment = 'Creditcard']/@id").unwrap();
    /// assert_eq!(a.shape_key(), ("//item[/payment='']/@id".to_string(), Some("Cash")));
    /// assert_eq!(a.shape_key().0, b.shape_key().0);
    /// let c = QueryTree::parse("/site/regions/asia/item[@id = 'item7']/name").unwrap();
    /// let key = "/site/regions/asia/item[/@id='']/name".to_string();
    /// assert_eq!(c.shape_key(), (key, Some("item7")));
    /// ```
    pub fn shape_key(&self) -> (String, Option<&str>) {
        let leaf = self.parametric_leaf();
        let mut out = String::with_capacity(self.original.len());
        self.key_node(self.root(), leaf.map(|(id, _)| id), &mut out);
        (out, leaf.map(|(_, literal)| literal))
    }

    fn canonical_node(&self, id: QNodeId, out: &mut String) {
        self.key_node(id, None, out);
    }

    /// The canonical serialization of `id`'s subtree, the literal of node
    /// `erase` (if any) written as `''`.
    fn key_node(&self, id: QNodeId, erase: Option<QNodeId>, out: &mut String) {
        let n = self.node(id);
        out.push_str(match n.axis {
            Axis::Child => "/",
            Axis::Descendant => "//",
        });
        match &n.kind {
            NodeKind::Element { name } => out.push_str(name.as_deref().unwrap_or("*")),
            NodeKind::Attribute { name } => {
                out.push('@');
                out.push_str(name.as_deref().unwrap_or("*"));
            }
            NodeKind::Text => out.push_str("text()"),
        }
        match &n.comparison {
            Some((op, _)) if erase == Some(id) => out.push_str(&format!("{op}''")),
            Some((op, lit)) => out.push_str(&format!("{op}{lit}")),
            None => {}
        }
        if !n.pred_children.is_empty() {
            let mut preds: Vec<String> = n
                .pred_children
                .iter()
                .map(|&c| {
                    let mut p = String::new();
                    self.key_node(c, erase, &mut p);
                    p
                })
                .collect();
            preds.sort_unstable();
            for p in preds {
                out.push('[');
                out.push_str(&p);
                out.push(']');
            }
        }
        if let Some(mc) = n.main_child {
            self.key_node(mc, erase, out);
        }
    }
}

impl fmt::Display for QueryTree {
    /// An indented dump of the twig, predicates marked `?`, the main path
    /// marked `*` — handy in test failures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            tree: &QueryTree,
            id: QNodeId,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let n = tree.node(id);
            let axis = match n.axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            };
            let label = match &n.kind {
                NodeKind::Element { name } => name.clone().unwrap_or_else(|| "*".into()),
                NodeKind::Attribute { name } => {
                    format!("@{}", name.clone().unwrap_or_else(|| "*".into()))
                }
                NodeKind::Text => "text()".into(),
            };
            let marker = if n.on_main_path { "*" } else { "?" };
            write!(f, "{:indent$}{marker}{axis}{label}", "", indent = indent)?;
            if let Some((op, lit)) = &n.comparison {
                write!(f, " {op} {lit}")?;
            }
            writeln!(f)?;
            for &c in &n.pred_children {
                rec(tree, c, indent + 2, f)?;
            }
            if let Some(mc) = n.main_child {
                rec(tree, mc, indent + 2, f)?;
            }
            Ok(())
        }
        rec(self, self.root(), 0, f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::parse;

    fn build(q: &str) -> QueryTree {
        QueryTree::parse(q).unwrap()
    }

    #[test]
    fn paper_figure_3_shape() {
        // //section[author]//table[position]//cell — 5 machine nodes.
        let t = build("//section[author]//table[position]//cell");
        assert_eq!(t.len(), 5);
        assert_eq!(t.main_path().len(), 3);
        let section = t.node(t.root());
        assert_eq!(section.name(), Some("section"));
        assert_eq!(section.pred_children.len(), 1);
        assert_eq!(t.node(section.pred_children[0]).name(), Some("author"));
        let table = t.node(section.main_child.unwrap());
        assert_eq!(table.name(), Some("table"));
        assert_eq!(t.node(table.pred_children[0]).name(), Some("position"));
        let cell = t.node(t.result());
        assert_eq!(cell.name(), Some("cell"));
        assert!(cell.main_child.is_none());
        assert!(cell.pred_children.is_empty());
        assert!(t.node(t.root()).parent.is_none());
    }

    #[test]
    fn ids_are_dense_and_parents_precede_children() {
        let t = build("//a[b[c] and d]//e[f]/g");
        for (i, n) in t.nodes().iter().enumerate() {
            assert_eq!(n.id, i);
            if let Some(p) = n.parent {
                assert!(p < i, "parent {p} must precede child {i}");
            }
        }
    }

    #[test]
    fn main_path_flags() {
        let t = build("//a[b]//c[d]/e");
        let on_main: Vec<bool> = t.nodes().iter().map(|n| n.on_main_path).collect();
        // a, b, c, d, e in insertion order: a(main), b(pred), c(main),
        // d(pred), e(main)
        assert_eq!(on_main, [true, false, true, false, true]);
        assert_eq!(t.main_path(), [0, 2, 4]);
        assert_eq!(t.result(), 4);
    }

    #[test]
    fn predicate_chains_nest() {
        let t = build("//a[b/c//d]");
        let a = t.node(0);
        assert_eq!(a.pred_children.len(), 1);
        let b = t.node(a.pred_children[0]);
        assert_eq!(b.name(), Some("b"));
        assert_eq!(b.pred_children.len(), 1);
        let c = t.node(b.pred_children[0]);
        assert_eq!(c.axis, Axis::Child);
        let d = t.node(c.pred_children[0]);
        assert_eq!(d.axis, Axis::Descendant);
        assert!(d.pred_children.is_empty());
    }

    #[test]
    fn comparisons_attach_to_path_leaf() {
        let t = build("//a[b/c = 'v']");
        let a = t.node(0);
        let b = t.node(a.pred_children[0]);
        let c = t.node(b.pred_children[0]);
        assert!(a.comparison.is_none());
        assert!(b.comparison.is_none());
        assert_eq!(c.comparison, Some((CmpOp::Eq, Literal::Str("v".into()))));
    }

    #[test]
    fn attribute_result_node() {
        let t = build("//ProteinEntry[reference]/@id");
        let result = t.node(t.result());
        assert!(result.kind.is_attribute());
        assert_eq!(result.name(), Some("id"));
        assert_eq!(result.axis, Axis::Child);
        assert!(result.on_main_path);
    }

    #[test]
    fn text_result_node() {
        let t = build("//a/text()");
        assert_eq!(t.node(t.result()).kind, NodeKind::Text);
    }

    #[test]
    fn depth_counts_ancestors() {
        let t = build("//a[b[c]]/d");
        assert_eq!(t.depth(0), 0); // a
        assert_eq!(t.depth(1), 1); // b
        assert_eq!(t.depth(2), 2); // c
        assert_eq!(t.depth(3), 1); // d
    }

    #[test]
    fn display_dump_mentions_structure() {
        let t = build("//a[b = 'x']/c");
        let dump = t.to_string();
        assert!(dump.contains("*//a"));
        assert!(dump.contains("?/b = 'x'"));
        assert!(dump.contains("*/c"));
    }

    #[test]
    fn original_is_canonical() {
        let t = QueryTree::build(&parse("//a[ b ]").unwrap()).unwrap();
        assert_eq!(t.original(), "//a[b]");
    }

    #[test]
    fn leading_descendant_attribute_is_rewritten() {
        // //@id  ≡  //*/@id
        let t = build("//@id");
        assert_eq!(t.len(), 2);
        let star = t.node(t.root());
        assert_eq!(star.kind, NodeKind::Element { name: None });
        assert_eq!(star.axis, Axis::Descendant);
        let attr = t.node(t.result());
        assert!(attr.kind.is_attribute());
        assert_eq!(attr.axis, Axis::Child);
        assert_eq!(t.main_path().len(), 2);
    }

    #[test]
    fn leading_descendant_text_is_rewritten() {
        let t = build("//text()");
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(t.result()).kind, NodeKind::Text);
    }

    #[test]
    fn leading_child_attribute_is_rejected() {
        assert!(QueryTree::parse("/@id").is_err());
        assert!(QueryTree::parse("/text()").is_err());
    }

    #[test]
    fn canonical_key_sorts_predicates() {
        let a = build("//a[c and b]/d");
        let b = build("//a[b][c]/d");
        assert_eq!(a.canonical_key(), b.canonical_key());
        // ...but the original text keeps the user's spelling.
        assert_ne!(a.original(), b.original());
    }

    #[test]
    fn canonical_key_distinguishes_structure() {
        let distinct = [
            "//a",
            "/a",
            "//a/b",
            "//a//b",
            "//a[b]",
            "//a[b/c]",
            "//a[b][c]",
            "//a/*",
            "//a/@id",
            "//a/text()",
            "//a[@id = 'x']",
            "//a[@id = 'y']",
            "//a[b = 'x']",
        ];
        let keys: Vec<String> = distinct.iter().map(|q| build(q).canonical_key()).collect();
        for (i, ki) in keys.iter().enumerate() {
            for (j, kj) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(ki, kj, "{} vs {}", distinct[i], distinct[j]);
                }
            }
        }
    }

    #[test]
    fn shape_keys_erase_only_the_parametric_literal() {
        // One `=`-string leaf, wherever it sits: parametric.
        for (q, key, literal) in [
            ("//a[b = 'x']", "//a[/b='']", "x"),
            ("//a[c][b/d = \"it's\"]/e", "//a[/b[/d='']][/c]/e", "it's"),
            ("/r/a[@id = 'v'][p = 'Cash']/n", "/r/a[/@id='v'][/p='']/n", "Cash"),
            ("//a[b > 3][c = 'y']", "//a[/b>3][/c='']", "y"),
        ] {
            let t = build(q);
            assert_eq!(t.shape_key(), (key.to_string(), Some(literal)), "{q}");
            assert!(t.node(t.parametric_node().unwrap()).kind.is_element());
        }
        // No such element: the one named inline attribute test, on the
        // main path or on a predicate node.
        for (q, key, literal) in [
            ("//a[@id = 'x']", "//a[/@id='']", "x"),
            ("/r/a[@id = 'x'][@k != 'y'][@* = 'z']/b", "/r/a[/@*='z'][/@id=''][/@k!='y']/b", "x"),
            ("//p[q[@i = 'v']]/n", "//p[/q[/@i='']]/n", "v"),
            ("//a[b/@id = 'x'][c > 2]", "//a[/b[/@id='']][/c>2]", "x"),
        ] {
            let t = build(q);
            assert_eq!(t.shape_key(), (key.to_string(), Some(literal)), "{q}");
            assert!(t.node(t.parametric_node().unwrap()).kind.is_attribute());
        }
        // These stay keyed by their canonical form, literal and all.
        for q in [
            "//a",
            "//a[b != 'x']",
            "//a[b = 5]",
            "//a[b < 'x']",
            "//a[text() = 'x']",
            "//a[@* = 'x']",
            "//a[@id = 5]",
            "//a[@id != 'x']",
            "//a[@id = 'x'][@k = 'y']",
            "//a[b = 'x'][c = 'y']",
            "//a[b = 'x'][c = 'y'][@id = 'z']",
            "//a[b = ''][c = 'x']",
        ] {
            let t = build(q);
            assert_eq!(t.parametric_node(), None, "{q}");
            assert_eq!(t.shape_key(), (t.canonical_key(), None), "{q}");
        }
        // Predicate order is still sorted away, after the erasure.
        assert_eq!(build("//a[z = 'q'][c]").shape_key().0, build("//a[c][z = 'r']").shape_key().0);
        // An erased leaf is not a real empty-literal test: that one comes
        // with a second literal.
        assert_ne!(
            build("//a[b = ''][c = 'x']").shape_key().0,
            build("//a[b = 'x'][c]").shape_key().0
        );
        assert_ne!(
            build("//a[@id = ''][@k = 'x']").shape_key().0,
            build("//a[@id = 'x'][@k]").shape_key().0
        );
        // A real `''` in the one candidate's place is that shape's binding.
        assert_eq!(build("//a[@id = '']").shape_key(), ("//a[/@id='']".to_string(), Some("")));
    }

    #[test]
    fn parametric_node_takes_the_element_leaf_first_then_the_one_named_attribute_test() {
        let leaf = |q: &str| {
            let t = build(q);
            t.parametric_node().and_then(|id| t.node(id).name().map(str::to_owned))
        };
        let named = |n: &str| Some(n.to_string());
        assert_eq!(leaf("//a[@id = 'x'][b = 'y']/c"), named("b"), "an element leaf wins");
        assert_eq!(leaf("//a[@id = 'x'][b = 'y'][d = 'z']"), None, "two elements: no fallback");
        assert_eq!(leaf("//a[@id = 'x'][b = 5]"), named("id"), "no `= 'string'` element");
        assert_eq!(leaf("//a[@* = 'x'][@id = 'y']"), named("id"), "`@*` is no candidate");
        for q in ["//a[@* = 'x']", "//a[@id = 5]", "//a[@id != 'x']", "//a[@id >= 'x']"] {
            assert_eq!(leaf(q), None, "{q}");
        }
        assert_eq!(leaf("//a[@id = 'x']/b[@k = 'y']"), None, "two attribute tests");
        assert_eq!(leaf("//a/@id"), None, "a result is no test");
    }

    #[test]
    fn non_leading_descendant_attribute_is_rejected() {
        assert!(QueryTree::parse("//a//@id").is_err());
        assert!(QueryTree::parse("//a//text()").is_err());
        assert!(QueryTree::parse("//a[b//@id]").is_err());
        // Child-axis forms are fine.
        assert!(QueryTree::parse("//a/@id").is_ok());
        assert!(QueryTree::parse("//a[b/@id]").is_ok());
    }
}
