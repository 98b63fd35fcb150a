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
//! are the ones XML open/close nesting applies to). Attribute and `text()`
//! query nodes are folded into their parent machine node as inline
//! sub-tests, evaluated directly on `startElement` (attributes) or
//! `characters` (text) events:
//!
//! * an attribute / text **predicate child** occupies one of the parent's
//!   match-flag slots, exactly like an element predicate child;
//! * an attribute / text **result child** (e.g. the `@id` of
//!   `//ProteinEntry[reference]/@id`) makes the parent machine node a
//!   *candidate generator*: matching attributes / text nodes become
//!   candidate solutions attached to the parent's stack entry.

use std::collections::HashMap;
use std::fmt;

use vitex_xpath::query_tree::{NodeKind, QueryTree};
use vitex_xpath::{Axis, CmpOp, Literal};

use crate::intern::{Interner, Symbol};

/// Candidate-propagation strategy — the ablation axis of experiment E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// The paper's design: a candidate is attached to the *deepest*
    /// compatible stack entry and lazily re-attached (inherited) outward /
    /// upward as entries pop. Polynomial space.
    #[default]
    Compact,
    /// Strawman: candidates are copied to **every** compatible parent
    /// entry at forwarding time. Exposes the duplication the compact
    /// encoding avoids; still better than full match enumeration (that
    /// strawman lives in `vitex-baseline`).
    Eager,
}

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

/// An inline attribute sub-test (predicate or result) on a machine node.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrTest {
    /// Attribute name; `None` for `@*`.
    pub name: Option<String>,
    /// Optional value comparison.
    pub comparison: Option<(CmpOp, Literal)>,
    /// Flag slot in the owning machine node's entries (predicates only;
    /// `None` for the result sub-test).
    pub slot: Option<u32>,
}

/// An inline `text()` sub-test on a machine node.
#[derive(Debug, Clone, PartialEq)]
pub struct TextTest {
    /// Optional content comparison.
    pub comparison: Option<(CmpOp, Literal)>,
    /// Flag slot (predicates only).
    pub slot: Option<u32>,
}

/// One stacked machine node (an element-test query node).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineNode {
    /// Axis of the incoming query edge.
    pub axis: Axis,
    /// Parent machine node (index into [`MachineSpec::nodes`]); `None` for
    /// the machine root.
    pub parent: Option<usize>,
    /// Element name to match; `None` is the wildcard.
    pub name: Option<String>,
    /// String-value comparison (predicate-subtree leaves only).
    pub comparison: Option<(CmpOp, Literal)>,
    /// This node's flag slot in its parent's entries (predicate nodes
    /// only).
    pub flag_slot: Option<u32>,
    /// Number of flag slots entries of this node carry (= number of
    /// predicate children of any kind).
    pub nflags: u32,
    /// On the main path?
    pub is_main: bool,
    /// The machine root (first main-path element)?
    pub is_root: bool,
    /// The result node itself (element-result queries)?
    pub is_result: bool,
    /// Entries must accumulate descendant text for `comparison`.
    pub needs_text: bool,
    /// Inline attribute predicate children.
    pub attr_preds: Vec<AttrTest>,
    /// Inline text predicate children.
    pub text_preds: Vec<TextTest>,
    /// Inline attribute result child (this node is the result's parent).
    pub attr_result: Option<AttrTest>,
    /// Inline text result child.
    pub text_result: bool,
}

impl MachineNode {
    /// Whether start-tag processing must look at this node's attributes.
    pub fn wants_attributes(&self) -> bool {
        !self.attr_preds.is_empty() || self.attr_result.is_some()
    }
}

/// The compiled machine layout: everything [`crate::machine::TwigM`] needs,
/// immutable after build, shareable across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Stacked machine nodes; parents precede children.
    pub nodes: Vec<MachineNode>,
    /// Machine nodes per nametest, parallel to `name_symbols`: entry `i`
    /// lists the nodes testing `name_symbols[i]`. Sparse on purpose — a
    /// query names a handful of tags, so the table's size depends on the
    /// query alone, never on how many names the shared interner holds.
    pub by_symbol: Vec<Vec<usize>>,
    /// The distinct symbols this spec's nametests mention, in first-use
    /// order. Symbols come from the interner handed to
    /// [`MachineSpec::compile_with`].
    pub name_symbols: Vec<Symbol>,
    /// The distinct symbols mentioned by **predicate-subtree** nametests
    /// only: the main path is driven by the plan trie, so per-group
    /// element dispatch narrows to these.
    pub pred_name_symbols: Vec<Symbol>,
    /// Machine nodes with a wildcard element test.
    pub wildcards: Vec<usize>,
    /// Predicate-subtree machine nodes with a wildcard element test.
    pub pred_wildcards: Vec<usize>,
    /// Nodes with text predicate children (checked on `characters`).
    pub text_watchers: Vec<usize>,
    /// Nodes whose entries accumulate string-values.
    pub text_accumulators: Vec<usize>,
    /// The node whose entries generate text-result candidates.
    pub text_result_parent: Option<usize>,
    /// The machine root.
    pub root: usize,
    /// The canonical query text (diagnostics).
    pub query: String,
}

impl MachineSpec {
    /// Compiles a query tree against a throwaway interner — enough to
    /// inspect or measure the layout. A machine that is to be driven needs
    /// [`MachineSpec::compile_with`] and the interner its events are
    /// resolved through.
    pub fn compile(tree: &QueryTree) -> Result<MachineSpec, BuildError> {
        MachineSpec::compile_with(tree, &mut Interner::new())
    }

    /// Compiles a query tree, interning every element nametest in
    /// `interner`. Single pass; see experiment E7 for the measured
    /// linearity.
    pub fn compile_with(
        tree: &QueryTree,
        interner: &mut Interner,
    ) -> Result<MachineSpec, BuildError> {
        let mut spec = MachineSpec {
            nodes: Vec::with_capacity(tree.len()),
            by_symbol: Vec::new(),
            name_symbols: Vec::new(),
            pred_name_symbols: Vec::new(),
            wildcards: Vec::new(),
            pred_wildcards: Vec::new(),
            text_watchers: Vec::new(),
            text_accumulators: Vec::new(),
            text_result_parent: None,
            root: 0,
            query: tree.original().to_owned(),
        };
        // Query-node id → machine-node index (element nodes only).
        let mut index: HashMap<usize, usize> = HashMap::new();

        for qnode in tree.nodes() {
            match &qnode.kind {
                NodeKind::Element { name } => {
                    let parent = qnode.parent.map(|p| {
                        *index.get(&p).expect(
                            "parent of an element query node is an element (grammar \
                             forbids steps under attributes/text)",
                        )
                    });
                    let mi = spec.nodes.len();
                    index.insert(qnode.id, mi);
                    // Flag slots are assigned in pred_children order as the
                    // children are visited (children follow parents in id
                    // order, so slots are handed out before any child needs
                    // its own slot).
                    let nflags = qnode.pred_children.len() as u32;
                    let node = MachineNode {
                        axis: qnode.axis,
                        parent,
                        name: name.clone(),
                        comparison: qnode.comparison.clone(),
                        flag_slot: None, // filled when visited as a child below
                        nflags,
                        is_main: qnode.on_main_path,
                        is_root: qnode.parent.is_none(),
                        is_result: qnode.on_main_path
                            && qnode.main_child.is_none()
                            && qnode.id == tree.result(),
                        needs_text: qnode.comparison.is_some(),
                        attr_preds: Vec::new(),
                        text_preds: Vec::new(),
                        attr_result: None,
                        text_result: false,
                    };
                    if node.needs_text {
                        spec.text_accumulators.push(mi);
                    }
                    match &node.name {
                        Some(n) => {
                            let sym = interner.intern(n);
                            let at = spec.name_symbols.iter().position(|&s| s == sym);
                            let at = at.unwrap_or_else(|| {
                                spec.name_symbols.push(sym);
                                spec.by_symbol.push(Vec::new());
                                spec.by_symbol.len() - 1
                            });
                            spec.by_symbol[at].push(mi);
                            if !node.is_main && !spec.pred_name_symbols.contains(&sym) {
                                spec.pred_name_symbols.push(sym);
                            }
                        }
                        None => {
                            spec.wildcards.push(mi);
                            if !node.is_main {
                                spec.pred_wildcards.push(mi);
                            }
                        }
                    }
                    spec.nodes.push(node);
                    // Assign this node's slot within its parent.
                    if let Some(p) = qnode.parent {
                        if !qnode.on_main_path {
                            let slot = slot_of(tree, p, qnode.id);
                            let pm = index[&p];
                            spec.nodes[mi].flag_slot = Some(slot);
                            debug_assert!(slot < spec.nodes[pm].nflags);
                        }
                    }
                }
                NodeKind::Attribute { name } => {
                    let p = qnode.parent.expect(
                        "attribute query nodes always have an element parent after normalization",
                    );
                    let pm = *index.get(&p).expect("parent compiled before child");
                    if qnode.axis != Axis::Child {
                        return Err(BuildError::new(
                            "internal: descendant-axis attribute survived normalization",
                        ));
                    }
                    if qnode.on_main_path {
                        spec.nodes[pm].attr_result = Some(AttrTest {
                            name: name.clone(),
                            comparison: qnode.comparison.clone(),
                            slot: None,
                        });
                    } else {
                        let slot = slot_of(tree, p, qnode.id);
                        spec.nodes[pm].attr_preds.push(AttrTest {
                            name: name.clone(),
                            comparison: qnode.comparison.clone(),
                            slot: Some(slot),
                        });
                    }
                }
                NodeKind::Text => {
                    let p = qnode.parent.expect(
                        "text query nodes always have an element parent after normalization",
                    );
                    let pm = *index.get(&p).expect("parent compiled before child");
                    if qnode.axis != Axis::Child {
                        return Err(BuildError::new(
                            "internal: descendant-axis text() survived normalization",
                        ));
                    }
                    if qnode.on_main_path {
                        spec.nodes[pm].text_result = true;
                        spec.text_result_parent = Some(pm);
                    } else {
                        let slot = slot_of(tree, p, qnode.id);
                        spec.nodes[pm].text_preds.push(TextTest {
                            comparison: qnode.comparison.clone(),
                            slot: Some(slot),
                        });
                        if !spec.text_watchers.contains(&pm) {
                            spec.text_watchers.push(pm);
                        }
                    }
                }
            }
        }
        debug_assert!(!spec.nodes.is_empty(), "normalized trees have ≥1 element node");
        Ok(spec)
    }

    /// The machine node generating result candidates: the result element
    /// node itself, or the parent of an attribute/text result.
    pub fn result_owner(&self) -> usize {
        if let Some(p) = self.text_result_parent {
            return p;
        }
        if let Some((i, _)) = self.nodes.iter().enumerate().find(|(_, n)| n.attr_result.is_some()) {
            return i;
        }
        self.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.is_result)
            .map(|(i, _)| i)
            .expect("every query has a result node")
    }

    /// Machine nodes whose nametest is `sym` (empty for names this spec
    /// never mentions, including symbols interned after compilation). A
    /// scan over the spec's few names beats the indexed load it replaces.
    #[inline]
    pub fn machines_for(&self, sym: Symbol) -> &[usize] {
        match self.name_symbols.iter().position(|&s| s == sym) {
            Some(at) => &self.by_symbol[at],
            None => &[],
        }
    }

    /// Whether any machine node carries a wildcard element test (such a
    /// machine must see every element event).
    pub fn has_wildcard(&self) -> bool {
        !self.wildcards.is_empty()
    }

    /// Whether the machine consumes `characters` events at all (text
    /// predicates, string-value accumulation, or text results).
    pub fn needs_characters(&self) -> bool {
        !self.text_watchers.is_empty()
            || !self.text_accumulators.is_empty()
            || self.text_result_parent.is_some()
    }

    /// Approximate heap bytes of the compiled layout: node storage (with
    /// inline sub-tests and name strings), the symbol index and the
    /// auxiliary node lists. The plan layer sums this across machines to
    /// report how much build memory query sharing saves (experiment E9).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = self.nodes.capacity() * size_of::<MachineNode>();
        for n in &self.nodes {
            bytes += n.name.as_ref().map_or(0, |s| s.len());
            bytes += n.attr_preds.capacity() * size_of::<AttrTest>();
            bytes += n.text_preds.capacity() * size_of::<TextTest>();
            for a in n.attr_preds.iter().chain(n.attr_result.iter()) {
                bytes += a.name.as_ref().map_or(0, |s| s.len());
            }
        }
        for list in &self.by_symbol {
            bytes += size_of::<Vec<usize>>() + list.capacity() * size_of::<usize>();
        }
        bytes += (self.name_symbols.capacity() + self.pred_name_symbols.capacity())
            * size_of::<Symbol>();
        bytes += (self.wildcards.capacity()
            + self.pred_wildcards.capacity()
            + self.text_watchers.capacity()
            + self.text_accumulators.capacity())
            * size_of::<usize>();
        bytes += self.query.len();
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

/// The flag-slot index of query node `child` within `parent`'s predicate
/// children.
fn slot_of(tree: &QueryTree, parent: usize, child: usize) -> u32 {
    tree.node(parent)
        .pred_children
        .iter()
        .position(|&c| c == child)
        .expect("child listed under parent") as u32
}

#[cfg(test)]
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
        assert_eq!(m.root, 0);
        let section = &m.nodes[0];
        assert!(section.is_root && section.is_main && !section.is_result);
        assert_eq!(section.nflags, 1);
        let author = &m.nodes[1];
        assert_eq!(author.name.as_deref(), Some("author"));
        assert_eq!(author.flag_slot, Some(0));
        assert!(!author.is_main);
        let cell = m.nodes.iter().find(|n| n.name.as_deref() == Some("cell")).unwrap();
        assert!(cell.is_result && cell.is_main);
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
        assert!(pe.wants_attributes());
        assert_eq!(m.result_owner(), 0);
        // `reference` is an element predicate with slot 0.
        assert_eq!(m.nodes[1].flag_slot, Some(0));
    }

    #[test]
    fn attribute_predicates_fold_inline() {
        let m = compile("//a[@id = 'x' and b]");
        assert_eq!(m.len(), 2); // a + b
        let a = &m.nodes[0];
        assert_eq!(a.nflags, 2);
        assert_eq!(a.attr_preds.len(), 1);
        let ap = &a.attr_preds[0];
        assert_eq!(ap.name.as_deref(), Some("id"));
        assert!(ap.comparison.is_some());
        // Slots: @id is pred child 0, b is pred child 1.
        assert_eq!(ap.slot, Some(0));
        assert_eq!(m.nodes[1].flag_slot, Some(1));
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
        assert!(m.nodes[0].text_result);
        assert_eq!(m.text_result_parent, Some(0));
        assert_eq!(m.result_owner(), 0);
    }

    #[test]
    fn value_comparison_needs_text_accumulation() {
        let m = compile("//a[b = 'v']");
        let b = &m.nodes[1];
        assert!(b.needs_text);
        assert_eq!(m.text_accumulators, vec![1]);
        // The main node never accumulates.
        assert!(!m.nodes[0].needs_text);
    }

    #[test]
    fn symbol_index_and_wildcards() {
        let mut interner = Interner::new();
        let tree = QueryTree::parse("//a[b]/a/*").unwrap();
        let m = MachineSpec::compile_with(&tree, &mut interner).unwrap();
        let a = interner.lookup("a").unwrap();
        let b = interner.lookup("b").unwrap();
        assert_eq!(m.machines_for(a), [0, 2]);
        assert_eq!(m.machines_for(b), [1]);
        assert_eq!(m.wildcards, [3]);
        assert_eq!(m.name_symbols, vec![a, b]);
        assert!(m.has_wildcard());
        assert!(!m.needs_characters());
    }

    #[test]
    fn shared_interner_gives_shared_symbols() {
        let mut interner = Interner::new();
        let m1 =
            MachineSpec::compile_with(&QueryTree::parse("//a/b").unwrap(), &mut interner).unwrap();
        let m2 =
            MachineSpec::compile_with(&QueryTree::parse("//b/c").unwrap(), &mut interner).unwrap();
        let b = interner.lookup("b").unwrap();
        // `b` resolves to the same symbol in both specs; the later symbol
        // `c` is simply unknown to the first spec.
        assert_eq!(m1.machines_for(b), &[1]);
        assert_eq!(m2.machines_for(b), &[0]);
        let c = interner.lookup("c").unwrap();
        assert_eq!(m1.machines_for(c), &[] as &[usize]);
        assert!(MachineSpec::compile_with(
            &QueryTree::parse("//a[text() = 'v']").unwrap(),
            &mut interner
        )
        .unwrap()
        .needs_characters());
    }

    #[test]
    fn pred_dispatch_lists_cover_predicate_subtrees_only() {
        let mut interner = Interner::new();
        let tree = QueryTree::parse("//a[b[*] and c]/a/d").unwrap();
        let m = MachineSpec::compile_with(&tree, &mut interner).unwrap();
        let b = interner.lookup("b").unwrap();
        let c = interner.lookup("c").unwrap();
        // a and d are main-path-only names; b, c and the wildcard live in
        // predicate subtrees.
        assert_eq!(m.pred_name_symbols, vec![b, c]);
        assert_eq!(m.pred_wildcards.len(), 1);
        assert!(!m.nodes[m.pred_wildcards[0]].is_main);
        // A pure main-path query has empty predicate dispatch lists.
        let pure = MachineSpec::compile_with(&QueryTree::parse("/a/*//d").unwrap(), &mut interner)
            .unwrap();
        assert!(pure.pred_name_symbols.is_empty());
        assert!(pure.pred_wildcards.is_empty());
        assert_eq!(pure.wildcards.len(), 1);
    }

    #[test]
    fn rewritten_leading_attribute_query_compiles() {
        let m = compile("//@id");
        assert_eq!(m.len(), 1);
        assert!(m.nodes[0].name.is_none()); // synthetic //*
        assert!(m.nodes[0].attr_result.is_some());
    }

    #[test]
    fn single_node_query() {
        let m = compile("//a");
        assert_eq!(m.len(), 1);
        let a = &m.nodes[0];
        assert!(a.is_root && a.is_result && a.is_main);
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
