//! The TwigM builder: compiles a [`QueryTree`] into a [`MachineSpec`].
//!
//! The paper's Feature 2: *"The query processor TwigM can be constructed
//! from an XPath query in time which is linear in the size of the query."*
//! The builder below is a single pass over the query tree; experiment E7
//! measures its linearity.
//!
//! ## Layout
//!
//! Only **element-test** query nodes become *stacked* machine nodes (they
//! are the ones XML open/close nesting applies to). They keep the query's
//! order, so parents precede children and node 0 is the machine root. Each
//! has one [`Role`]:
//!
//! * the **root** and the other **main**-path nodes carry candidates up
//!   towards the root, where they are solutions;
//! * a **predicate** node, once its subtree is satisfied, sets one
//!   match-flag slot on its parent's entries: its role names both.
//!
//! Attribute and `text()` query nodes are folded into their parent machine
//! node as inline sub-tests, evaluated directly on `startElement`
//! (attributes) or `characters` (text) events:
//!
//! * an attribute / text **predicate child** ([`AttrPred`], [`TextTest`])
//!   carries one of the parent's match-flag slots, exactly like an element
//!   predicate child;
//! * an attribute / text **result child** (e.g. the `@id` of
//!   `//ProteinEntry[reference]/@id`) makes the parent machine node a
//!   *candidate generator* ([`MachineNode::attr_result`],
//!   [`MachineSpec::text_result_parent`]): matching attributes / text nodes
//!   become candidate solutions attached to the parent's stack entry.
//!
//! The query's parametric leaf, if it has one, is stated once, as a
//! [`Leaf`]: a predicate node, or one attribute predicate of a node.

use std::fmt;

use vitex_xpath::query_tree::{NodeKind, QueryTree};
use vitex_xpath::{Axis, CmpOp, Literal};

use crate::intern::Interner;

/// Errors from compiling a query tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    message: String,
}

impl BuildError {
    fn new(message: impl Into<String>) -> Self {
        BuildError { message: message.into() }
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BuildError {}

/// An inline attribute test: a name test and an optional value comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrTest {
    /// Attribute name; `None` for `@*`.
    pub name: Option<String>,
    /// Optional value comparison.
    pub comparison: Option<(CmpOp, Literal)>,
}

/// An inline attribute predicate: its test and the flag slot it sets.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrPred {
    /// What an attribute of the element must satisfy.
    pub test: AttrTest,
    /// Flag slot in the owning machine node's entries.
    pub slot: u32,
}

/// An inline `text()` predicate on a machine node.
#[derive(Debug, Clone, PartialEq)]
pub struct TextTest {
    /// Optional content comparison.
    pub comparison: Option<(CmpOp, Literal)>,
    /// Flag slot in the owning machine node's entries.
    pub slot: u32,
}

/// What a stacked machine node is for (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The machine root, node 0: the first main-path element.
    Root,
    /// A main-path node below the root, under parent machine node `.0`.
    Main(usize),
    /// A predicate node under parent machine node `.0`: satisfied, it sets
    /// flag slot `.1` on the parent's entries.
    Pred(usize, u32),
}

/// Where the query's parametric leaf ([`QueryTree::parametric_node`]) is:
/// its `= 'string'` comparison is a lookup in the machine's binding table,
/// which a shape group fills with every subscriber's literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// Predicate machine node `.0`, tested on its string-value at pop.
    Node(usize),
    /// Machine node `.0`'s attribute predicate `.1` (an index into its
    /// [`MachineNode::attr_preds`]), tested at push.
    Attr(usize, usize),
}

/// One stacked machine node (an element-test query node).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineNode {
    /// Axis of the incoming query edge.
    pub axis: Axis,
    /// Root, main-path node or predicate node, with its parent.
    pub role: Role,
    /// Element name to match; `None` is the wildcard.
    pub name: Option<String>,
    /// String-value comparison (predicate-subtree leaves only): entries
    /// accumulate descendant text for it.
    pub comparison: Option<(CmpOp, Literal)>,
    /// Number of flag slots entries of this node carry (= number of
    /// predicate children of any kind).
    pub nflags: u32,
    /// The result node itself (element-result queries)?
    pub is_result: bool,
    /// Inline attribute predicate children.
    pub attr_preds: Vec<AttrPred>,
    /// Inline text predicate children.
    pub text_preds: Vec<TextTest>,
    /// Inline attribute result child (this node is the result's parent).
    pub attr_result: Option<AttrTest>,
}

impl MachineNode {
    /// The parent machine node; `None` for the root.
    pub fn parent(&self) -> Option<usize> {
        match self.role {
            Role::Root => None,
            Role::Main(parent) | Role::Pred(parent, _) => Some(parent),
        }
    }
}

/// The compiled machine layout: everything [`crate::machine::TwigM`] needs,
/// immutable after build, shareable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Stacked machine nodes; parents precede children (node 0 is the root).
    pub nodes: Vec<MachineNode>,
    /// Nodes with text predicate children (checked on `characters`).
    pub text_watchers: Vec<usize>,
    /// Nodes with a string-value comparison, whose entries accumulate text.
    pub text_accumulators: Vec<usize>,
    /// The node whose entries generate text-result candidates.
    pub text_result_parent: Option<usize>,
    /// The query's parametric leaf, if it has one.
    pub parametric: Option<Leaf>,
}

impl MachineSpec {
    /// Compiles a query tree against a throwaway interner — enough to
    /// inspect or measure the layout.
    pub fn compile(tree: &QueryTree) -> Result<MachineSpec, BuildError> {
        MachineSpec::compile_with(tree, &mut Interner::new())
    }

    /// Compiles a query tree, interning every element nametest in
    /// `interner`: the names a driver must resolve for this query's
    /// events. Single pass; see experiment E7 for the measured
    /// linearity.
    pub fn compile_with(
        tree: &QueryTree,
        interner: &mut Interner,
    ) -> Result<MachineSpec, BuildError> {
        let mut spec = MachineSpec {
            nodes: Vec::with_capacity(tree.len()),
            text_watchers: Vec::new(),
            text_accumulators: Vec::new(),
            text_result_parent: None,
            parametric: None,
        };
        // By query-node id, each element's machine node (`None` for an
        // attribute or `text()` test): parents precede children.
        let mut at: Vec<Option<usize>> = Vec::with_capacity(tree.len());
        let parametric = tree.parametric_node();

        for qnode in tree.nodes() {
            let (leaf, comparison) = (parametric == Some(qnode.id), qnode.comparison.clone());
            // The flag slot of a predicate child in its parent's entries.
            let slot = match qnode.parent {
                Some(p) if !qnode.on_main_path => {
                    let slot = tree.node(p).pred_children.iter().position(|&c| c == qnode.id);
                    Some(slot.ok_or_else(|| BuildError::new("internal: unlisted predicate"))? as u32)
                }
                _ => None,
            };
            let parent = match qnode.parent.map(|p| at[p]) {
                Some(None) => return Err(BuildError::new("internal: a step under an attribute")),
                parent => parent.flatten(),
            };
            let NodeKind::Element { name } = &qnode.kind else {
                // An attribute or `text()` test folds into its parent.
                let Some(pm) = parent.filter(|_| qnode.axis == Axis::Child) else {
                    return Err(BuildError::new(
                        "internal: an attribute or text() step survived normalization off an \
                         element's child axis",
                    ));
                };
                at.push(None);
                let node = &mut spec.nodes[pm];
                match (&qnode.kind, slot) {
                    (NodeKind::Attribute { name }, slot) => {
                        let test = AttrTest { name: name.clone(), comparison };
                        let Some(slot) = slot else {
                            node.attr_result = Some(test);
                            continue;
                        };
                        if leaf {
                            spec.parametric = Some(Leaf::Attr(pm, node.attr_preds.len()));
                        }
                        node.attr_preds.push(AttrPred { test, slot });
                    }
                    (_, None) => spec.text_result_parent = Some(pm),
                    (_, Some(slot)) => {
                        if node.text_preds.is_empty() {
                            spec.text_watchers.push(pm);
                        }
                        node.text_preds.push(TextTest { comparison, slot });
                    }
                }
                continue;
            };
            let mi = spec.nodes.len();
            at.push(Some(mi));
            if comparison.is_some() {
                spec.text_accumulators.push(mi);
            }
            if leaf {
                spec.parametric = Some(Leaf::Node(mi));
            }
            if let Some(n) = name {
                interner.intern(n);
            }
            let role = match (parent, slot) {
                (None, _) => Role::Root,
                (Some(parent), None) => Role::Main(parent),
                (Some(parent), Some(slot)) => Role::Pred(parent, slot),
            };
            spec.nodes.push(MachineNode {
                axis: qnode.axis,
                role,
                name: name.clone(),
                comparison,
                nflags: qnode.pred_children.len() as u32,
                is_result: qnode.id == tree.result(),
                attr_preds: Vec::new(),
                text_preds: Vec::new(),
                attr_result: None,
            });
        }
        debug_assert!(!spec.nodes.is_empty(), "normalized trees have ≥1 element node");
        Ok(spec)
    }

    /// Whether the machine consumes `characters` events at all (text
    /// predicates, string-value accumulation, or text results).
    pub fn needs_characters(&self) -> bool {
        !self.text_watchers.is_empty()
            || !self.text_accumulators.is_empty()
            || self.text_result_parent.is_some()
    }

    /// Approximate heap bytes of the compiled layout: node storage (with
    /// inline sub-tests and name strings) and the auxiliary node lists. The plan layer sums this across machines to
    /// report how much build memory query sharing saves (experiment E9).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = self.nodes.capacity() * size_of::<MachineNode>();
        for n in &self.nodes {
            bytes += n.name.as_ref().map_or(0, |s| s.len());
            bytes += n.attr_preds.capacity() * size_of::<AttrPred>();
            bytes += n.text_preds.capacity() * size_of::<TextTest>();
            for a in n.attr_preds.iter().map(|p| &p.test).chain(n.attr_result.iter()) {
                bytes += a.name.as_ref().map_or(0, |s| s.len());
            }
        }
        bytes += (self.text_watchers.capacity() + self.text_accumulators.capacity())
            * size_of::<usize>();
        bytes as u64
    }

    /// Number of stacked machine nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the machine has no nodes (never true for compiled specs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use vitex_xpath::query_tree::QueryTree;

    fn compile(q: &str) -> MachineSpec {
        MachineSpec::compile(&QueryTree::parse(q).unwrap()).unwrap()
    }

    #[test]
    fn paper_figure_3_machine() {
        // //section[author]//table[position]//cell → 5 stacked nodes
        // (author and position are element predicates, so they stack too).
        let m = compile("//section[author]//table[position]//cell");
        assert_eq!(m.len(), 5);
        let section = &m.nodes[0];
        assert!(section.role == Role::Root && !section.is_result);
        assert_eq!(section.nflags, 1);
        let author = &m.nodes[1];
        assert_eq!(author.name.as_deref(), Some("author"));
        assert_eq!(author.role, Role::Pred(0, 0));
        assert_eq!(m.nodes[2].role, Role::Main(0));
        let cell = m.nodes.iter().find(|n| n.name.as_deref() == Some("cell")).unwrap();
        assert!(cell.is_result && cell.role == Role::Main(2));
        assert_eq!(cell.nflags, 0);
    }

    #[test]
    fn protein_query_attribute_result() {
        let m = compile("//ProteinEntry[reference]/@id");
        // ProteinEntry + reference stack; @id folds into ProteinEntry.
        assert_eq!(m.len(), 2);
        let pe = &m.nodes[0];
        assert_eq!(pe.name.as_deref(), Some("ProteinEntry"));
        assert_eq!(pe.nflags, 1);
        let ar = pe.attr_result.as_ref().unwrap();
        assert_eq!(ar.name.as_deref(), Some("id"));
        assert!(ar.comparison.is_none());
        // `reference` is an element predicate with slot 0.
        assert_eq!(m.nodes[1].role, Role::Pred(0, 0));
    }

    #[test]
    fn attribute_predicates_fold_inline() {
        let m = compile("//a[@id = 'x' and b]");
        assert_eq!(m.len(), 2); // a + b
        let a = &m.nodes[0];
        assert_eq!(a.nflags, 2);
        assert_eq!(a.attr_preds.len(), 1);
        let ap = &a.attr_preds[0];
        assert_eq!(ap.test.name.as_deref(), Some("id"));
        assert!(ap.test.comparison.is_some());
        // Slots: @id is pred child 0, b is pred child 1.
        assert_eq!(ap.slot, 0);
        assert_eq!(m.nodes[1].role, Role::Pred(0, 1));
    }

    #[test]
    fn text_predicates_register_watchers() {
        let m = compile("//a[text() = 'v']/b");
        let a = &m.nodes[0];
        assert_eq!(a.text_preds.len(), 1);
        assert_eq!(a.nflags, 1);
        assert_eq!(m.text_watchers, vec![0]);
        assert!(m.text_result_parent.is_none());
    }

    #[test]
    fn text_result_registers_parent() {
        let m = compile("//a/text()");
        assert_eq!(m.len(), 1);
        assert_eq!(m.text_result_parent, Some(0));
    }

    #[test]
    fn value_comparison_needs_text_accumulation() {
        let m = compile("//a[b = 'v']");
        assert!(m.nodes[1].comparison.is_some());
        // The main node never accumulates.
        assert_eq!(m.text_accumulators, vec![1]);
    }

    #[test]
    fn the_parametric_leaf_is_marked() {
        let leaf = |q: &str| compile(q).parametric;
        assert_eq!(leaf("//a[c][b = 'v']/d"), Some(Leaf::Node(2)));
        assert_eq!(leaf("//a[b/c = 'v']"), Some(Leaf::Node(2)), "the leaf of a predicate path");
        assert_eq!(leaf("//a[@id = 'v'][b = 'w']"), Some(Leaf::Node(1)), "an element leaf first");
        assert_eq!(leaf("//a[@k != 'u'][@id = 'v']/b"), Some(Leaf::Attr(0, 1)));
        let on_pred = Some(Leaf::Attr(1, 0));
        assert_eq!(leaf("//a[b[@id = 'v']]/c"), on_pred, "a test on a predicate node");
        for q in [
            "//a[b != 'v']",
            "//a[b = 1]",
            "//a[@* = 'v']",
            "//a[@id = 1]",
            "//a[b = 'v'][c = 'w']",
            "//a[@id = 'v']/b[@k = 'w']",
        ] {
            assert_eq!(leaf(q), None, "{q}");
        }
    }

    #[test]
    fn shared_interner_gives_shared_symbols() {
        let mut interner = Interner::new();
        let mut compile_with =
            |q: &str| MachineSpec::compile_with(&QueryTree::parse(q).unwrap(), &mut interner);
        assert!(!compile_with("//a[b]/a/*").unwrap().needs_characters());
        let (a, b) = (interner.lookup("a").unwrap(), interner.lookup("b").unwrap());
        assert_eq!(interner.len(), 2, "every nametest once, the wildcard none");
        let mut compile_with =
            |q: &str| MachineSpec::compile_with(&QueryTree::parse(q).unwrap(), &mut interner);
        // `b` resolves to the same symbol for both queries; only `c` is new.
        compile_with("//b/c").unwrap();
        assert!(compile_with("//a[text() = 'v']").unwrap().needs_characters());
        assert_eq!((interner.lookup("a"), interner.lookup("b")), (Some(a), Some(b)));
        assert!(interner.lookup("c").is_some());
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn rewritten_leading_attribute_query_compiles() {
        let m = compile("//@id");
        assert_eq!(m.len(), 1);
        assert!(m.nodes[0].name.is_none()); // synthetic //*
        assert!(m.nodes[0].attr_result.is_some());
    }

    #[test]
    fn a_step_under_an_attribute_is_a_build_error() {
        // The parser rejects `//a[@id/b]`; a query built by hand reaches the
        // builder, which must not fold `b` into `a`.
        let mut query = vitex_xpath::parse("//a[@id]").unwrap();
        let b = vitex_xpath::parse("//a/b").unwrap().steps.pop().unwrap();
        query.steps[0].predicates[0].conditions[0].path.push(b);
        let err = MachineSpec::compile(&QueryTree::build(&query).unwrap()).unwrap_err();
        assert!(err.message().starts_with("internal:"), "{err}");
    }

    #[test]
    fn single_node_query() {
        let m = compile("//a");
        assert_eq!(m.len(), 1);
        let a = &m.nodes[0];
        assert!(a.role == Role::Root && a.is_result && a.parent().is_none());
        assert_eq!(a.nflags, 0);
    }

    #[test]
    fn build_is_linear_shaped() {
        // Smoke check: node count equals query-tree element count for
        // chains of any length (the E7 bench measures actual time).
        for k in [1usize, 4, 16, 64] {
            let q = "//a".repeat(k);
            let m = compile(&q);
            assert_eq!(m.len(), k);
        }
    }
}
