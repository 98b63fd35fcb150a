//! The paper's strawman: explicit pattern-match enumeration.
//!
//! *"This could be done naively by explicitly storing pattern matches, and
//! enumerating them to test predicates. However, the number of pattern
//! matches can be exponential."* (ViteX §1)
//!
//! This module implements exactly that strawman, honestly: a streaming
//! evaluator that materializes every partial **embedding** of the query
//! tree into the open document (the paper's
//! `⟨section_i, table_j, cell_8⟩` tuples) and updates/tests each of them
//! individually as events arrive. On recursive data the embedding count —
//! and therefore both memory and per-event time — grows exponentially with
//! the query size, which experiment E3 measures against TwigM's polynomial
//! stacks.
//!
//! A configurable cap aborts evaluation when the embedding count explodes,
//! so benchmarks can report "exceeded N" instead of hanging.

use std::collections::HashSet;
use std::io::Read;

use vitex_core::predicate;
use vitex_xmlsax::{XmlError, XmlEvent, XmlReader};
use vitex_xpath::query_tree::{NodeKind, QueryTree};
use vitex_xpath::{Axis, CmpOp, Literal};

/// Limits for the strawman.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// Abort when the live embedding count exceeds this.
    pub max_embeddings: usize,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig { max_embeddings: 1_000_000 }
    }
}

/// Failure modes of the strawman.
#[derive(Debug)]
pub enum NaiveError {
    /// The stream was malformed.
    Xml(XmlError),
    /// The embedding count exceeded [`NaiveConfig::max_embeddings`] — the
    /// exponential blowup the paper predicts.
    Blowup {
        /// Live embeddings at the moment of the abort.
        embeddings: usize,
    },
}

impl std::fmt::Display for NaiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NaiveError::Xml(e) => write!(f, "XML error: {e}"),
            NaiveError::Blowup { embeddings } => {
                write!(f, "pattern-match blowup: {embeddings} embeddings exceed the cap")
            }
        }
    }
}

impl std::error::Error for NaiveError {}

impl From<XmlError> for NaiveError {
    fn from(e: XmlError) -> Self {
        NaiveError::Xml(e)
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// Result node ids (document order), deduplicated.
    pub matches: Vec<u64>,
    /// Peak number of simultaneously stored embeddings — the quantity the
    /// paper's complexity argument is about.
    pub peak_embeddings: usize,
    /// Total embeddings ever created.
    pub embeddings_created: u64,
}

// ------------------------------------------------------------------ //
// Compiled query shape
// ------------------------------------------------------------------ //

/// Requirement bit positions for one element query node.
#[allow(clippy::type_complexity)]
#[derive(Debug, Clone, Default)]
struct NodeReqs {
    /// Total requirement bits (element children + attr/text preds +
    /// result capture).
    count: u32,
    /// Attribute predicates: (bit, name test, comparison).
    attr_preds: Vec<(u32, Option<String>, Option<(CmpOp, Literal)>)>,
    /// Text predicates: (bit, comparison).
    text_preds: Vec<(u32, Option<(CmpOp, Literal)>)>,
    /// Attribute result capture bit + name test.
    attr_result: Option<(u32, Option<String>)>,
    /// Text result capture bit.
    text_result: Option<u32>,
}

/// One element query node, flattened.
#[derive(Debug, Clone)]
struct ENode {
    axis: Axis,
    parent: Option<usize>,
    /// This node's requirement bit within its parent.
    parent_bit: Option<u32>,
    name: Option<String>,
    comparison: Option<(CmpOp, Literal)>,
    reqs: NodeReqs,
    is_root: bool,
    is_result: bool,
}

struct Compiled {
    nodes: Vec<ENode>,
    needs_string_values: bool,
}

fn compile(tree: &QueryTree) -> Compiled {
    use std::collections::HashMap;
    let mut nodes: Vec<ENode> = Vec::new();
    let mut index: HashMap<usize, usize> = HashMap::new();
    let result_qid = tree.result();
    for qnode in tree.nodes() {
        match &qnode.kind {
            NodeKind::Element { name } => {
                let parent = qnode.parent.map(|p| index[&p]);
                let idx = nodes.len();
                index.insert(qnode.id, idx);
                let parent_bit = parent.map(|p| {
                    let bit = nodes[p].reqs.count;
                    nodes[p].reqs.count += 1;
                    bit
                });
                nodes.push(ENode {
                    axis: qnode.axis,
                    parent,
                    parent_bit,
                    name: name.clone(),
                    comparison: qnode.comparison.clone(),
                    reqs: NodeReqs::default(),
                    is_root: qnode.parent.is_none(),
                    is_result: qnode.id == result_qid,
                });
            }
            NodeKind::Attribute { name } => {
                let p = index[&qnode.parent.expect("attributes have parents")];
                let bit = nodes[p].reqs.count;
                nodes[p].reqs.count += 1;
                if qnode.id == result_qid {
                    nodes[p].reqs.attr_result = Some((bit, name.clone()));
                } else {
                    nodes[p].reqs.attr_preds.push((bit, name.clone(), qnode.comparison.clone()));
                }
            }
            NodeKind::Text => {
                let p = index[&qnode.parent.expect("text nodes have parents")];
                let bit = nodes[p].reqs.count;
                nodes[p].reqs.count += 1;
                if qnode.id == result_qid {
                    nodes[p].reqs.text_result = Some(bit);
                } else {
                    nodes[p].reqs.text_preds.push((bit, qnode.comparison.clone()));
                }
            }
        }
    }
    let needs_string_values = nodes.iter().any(|n| n.comparison.is_some());
    Compiled { nodes, needs_string_values }
}

// ------------------------------------------------------------------ //
// Embeddings
// ------------------------------------------------------------------ //

#[derive(Debug, Clone, Copy, PartialEq)]
struct Bind {
    doc: u64,
    level: u32,
    open: bool,
}

/// One explicitly stored pattern match (possibly partial).
#[derive(Debug, Clone)]
struct Embedding {
    bindings: Box<[Option<Bind>]>,
    /// Per element query node: bitmask of satisfied requirements.
    flags: Box<[u64]>,
    /// Captured result node ids (attr/text results may capture several).
    results: Vec<u64>,
}

impl Embedding {
    fn new(n: usize) -> Self {
        Embedding {
            bindings: vec![None; n].into_boxed_slice(),
            flags: vec![0u64; n].into_boxed_slice(),
            results: Vec::new(),
        }
    }

    fn complete_at(&self, q: usize, node: &ENode) -> bool {
        let mask = if node.reqs.count >= 64 {
            u64::MAX // queries with ≥64 requirements per node are absurd; saturate
        } else {
            (1u64 << node.reqs.count) - 1
        };
        self.flags[q] & mask == mask
    }
}

/// The strawman evaluator.
pub struct NaiveEvaluator {
    compiled: Compiled,
    config: NaiveConfig,
}

impl NaiveEvaluator {
    /// Compiles a query tree.
    pub fn new(tree: &QueryTree, config: NaiveConfig) -> Self {
        NaiveEvaluator { compiled: compile(tree), config }
    }

    /// Runs the strawman over a stream.
    #[allow(clippy::needless_range_loop)] // q indexes `nodes` and `emb` in parallel
    pub fn run<R: Read>(&self, mut reader: XmlReader<R>) -> Result<NaiveOutcome, NaiveError> {
        let nodes = &self.compiled.nodes;
        let n = nodes.len();
        let mut embeddings: Vec<Embedding> = Vec::new();
        let mut results: HashSet<u64> = HashSet::new();
        let mut peak = 0usize;
        let mut created = 0u64;
        // Global open-element stack for ids/levels/string values.
        struct Open {
            id: u64,
            text: Option<String>,
        }
        let mut open: Vec<Open> = Vec::new();
        let mut next_id: u64 = 0;
        loop {
            match reader.next_event()? {
                XmlEvent::StartElement(e) => {
                    let elem_id = next_id;
                    next_id += 1 + e.attributes().len() as u64;
                    // Extend embeddings with new bindings. The set must be
                    // closed under *subsets* of the applicable bindings —
                    // one element may bind several query nodes at once
                    // (e.g. both the predicate and the result `b` of
                    // `//a[b]/b`) — so embeddings created for earlier query
                    // nodes in this same event are extension candidates
                    // too. Level checks prevent an element from acting as
                    // its own ancestor.
                    for q in 0..n {
                        let node = &nodes[q];
                        let name_ok = node.name.as_deref().is_none_or(|t| t == e.name);
                        if !name_ok {
                            continue;
                        }
                        if node.is_root {
                            let axis_ok = match node.axis {
                                Axis::Child => e.level == 1,
                                Axis::Descendant => true,
                            };
                            if axis_ok {
                                let mut emb = Embedding::new(n);
                                emb.bindings[q] =
                                    Some(Bind { doc: elem_id, level: e.level, open: true });
                                bind_inline(&mut emb, q, node, &e, elem_id + 1);
                                embeddings.push(emb);
                                created += 1;
                            }
                            continue;
                        }
                        let p = node.parent.expect("non-root nodes have parents");
                        let snapshot = embeddings.len();
                        for ei in 0..snapshot {
                            let parent_bind = match embeddings[ei].bindings[p] {
                                Some(b) if b.open => b,
                                _ => continue,
                            };
                            if embeddings[ei].bindings[q].is_some() {
                                continue; // q already bound in this embedding
                            }
                            let axis_ok = match node.axis {
                                Axis::Child => parent_bind.level + 1 == e.level,
                                Axis::Descendant => parent_bind.level < e.level,
                            };
                            if !axis_ok {
                                continue;
                            }
                            let mut emb = embeddings[ei].clone();
                            emb.bindings[q] =
                                Some(Bind { doc: elem_id, level: e.level, open: true });
                            bind_inline(&mut emb, q, node, &e, elem_id + 1);
                            embeddings.push(emb);
                            created += 1;
                        }
                    }
                    peak = peak.max(embeddings.len());
                    if embeddings.len() > self.config.max_embeddings {
                        return Err(NaiveError::Blowup { embeddings: embeddings.len() });
                    }
                    open.push(Open {
                        id: elem_id,
                        text: self.compiled.needs_string_values.then(String::new),
                    });
                }
                XmlEvent::Characters(c) => {
                    let text_id = next_id;
                    next_id += 1;
                    if self.compiled.needs_string_values {
                        for o in open.iter_mut() {
                            if let Some(buf) = &mut o.text {
                                buf.push_str(&c.text);
                            }
                        }
                    }
                    // Text predicates / result capture: enumerate all
                    // embeddings (this is the strawman's cost).
                    for emb in embeddings.iter_mut() {
                        for q in 0..n {
                            let node = &nodes[q];
                            if node.reqs.text_preds.is_empty() && node.reqs.text_result.is_none() {
                                continue;
                            }
                            let bound_here = matches!(
                                emb.bindings[q],
                                Some(b) if b.open && b.level == c.level
                            );
                            if !bound_here {
                                continue;
                            }
                            for (bit, cmp) in &node.reqs.text_preds {
                                if cmp_opt(cmp, &c.text) {
                                    emb.flags[q] |= 1 << bit;
                                }
                            }
                            if let Some(bit) = node.reqs.text_result {
                                emb.flags[q] |= 1 << bit;
                                emb.results.push(text_id);
                            }
                        }
                    }
                }
                XmlEvent::EndElement(_) => {
                    let closing = open.pop().expect("balanced");
                    // Enumerate every stored match and update it — the
                    // paper's "enumerating them to test predicates".
                    let mut i = 0;
                    while i < embeddings.len() {
                        let mut kill = false;
                        let mut finished_root = false;
                        for q in 0..n {
                            let bind = match embeddings[i].bindings[q] {
                                Some(b) if b.open && b.doc == closing.id => b,
                                _ => continue,
                            };
                            let node = &nodes[q];
                            // Close the binding.
                            embeddings[i].bindings[q] = Some(Bind { open: false, ..bind });
                            // Local completion: requirements + comparison.
                            let mut ok = embeddings[i].complete_at(q, node);
                            if ok {
                                if let Some((op, lit)) = &node.comparison {
                                    let sv = closing.text.as_deref().unwrap_or("");
                                    ok = predicate::compare(sv, *op, lit);
                                }
                            }
                            if !ok {
                                kill = true;
                                break;
                            }
                            if node.is_result {
                                embeddings[i].results.push(bind.doc);
                            }
                            if let (Some(p), Some(bit)) = (node.parent, node.parent_bit) {
                                embeddings[i].flags[p] |= 1 << bit;
                            }
                            if node.is_root {
                                finished_root = true;
                            }
                        }
                        if kill {
                            embeddings.swap_remove(i);
                        } else if finished_root {
                            for r in embeddings[i].results.drain(..) {
                                results.insert(r);
                            }
                            embeddings.swap_remove(i);
                        } else {
                            i += 1;
                        }
                    }
                }
                XmlEvent::EndDocument => break,
                _ => {}
            }
        }
        let mut matches: Vec<u64> = results.into_iter().collect();
        matches.sort_unstable();
        Ok(NaiveOutcome { matches, peak_embeddings: peak, embeddings_created: created })
    }
}

/// Evaluates attribute predicates / captures attribute results at bind
/// time (attributes arrive with the start tag).
fn bind_inline(
    emb: &mut Embedding,
    q: usize,
    node: &ENode,
    e: &vitex_xmlsax::StartElementEvent<'_>,
    attr_id_base: u64,
) {
    for (bit, name, cmp) in &node.reqs.attr_preds {
        let hit = e
            .attributes()
            .iter()
            .any(|(attr, value)| name.as_deref().is_none_or(|t| t == attr) && cmp_opt(cmp, value));
        if hit {
            emb.flags[q] |= 1 << bit;
        }
    }
    if let Some((bit, name)) = &node.reqs.attr_result {
        for (i, (attr, _)) in e.attributes().iter().enumerate() {
            if name.as_deref().is_none_or(|t| t == attr) {
                emb.flags[q] |= 1 << bit;
                emb.results.push(attr_id_base + i as u64);
            }
        }
    }
}

fn cmp_opt(comparison: &Option<(CmpOp, Literal)>, value: &str) -> bool {
    match comparison {
        None => true,
        Some((op, lit)) => predicate::compare(value, *op, lit),
    }
}

/// One-call convenience.
pub fn evaluate_str(
    xml: &str,
    query: &str,
    config: NaiveConfig,
) -> Result<NaiveOutcome, NaiveError> {
    let tree = QueryTree::parse(query).expect("valid query");
    NaiveEvaluator::new(&tree, config).run(XmlReader::from_str(xml))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xml: &str, query: &str) -> Vec<u64> {
        evaluate_str(xml, query, NaiveConfig::default()).unwrap().matches
    }

    #[test]
    fn simple_queries_agree_with_intuition() {
        assert_eq!(ids("<a><b/><c><b/></c></a>", "//b"), [1, 3]);
        assert_eq!(ids("<a><b/><c><b/></c></a>", "/a/b"), [1]);
        assert_eq!(ids("<a><b/></a>", "//x"), Vec::<u64>::new());
    }

    #[test]
    fn predicates_resolved_late() {
        let xml = "<s><cell/><author/></s>";
        assert_eq!(ids(xml, "//s[author]//cell"), [1]);
        let xml2 = "<s><cell/></s>";
        assert_eq!(ids(xml2, "//s[author]//cell"), Vec::<u64>::new());
    }

    #[test]
    fn paper_figure_1() {
        let xml = "<book><section><section><section>\
                   <table><table><table><cell>A</cell></table></table>\
                   <position>B</position></table>\
                   </section></section><author>C</author></section></book>";
        let out =
            evaluate_str(xml, "//section[author]//table[position]//cell", NaiveConfig::default())
                .unwrap();
        assert_eq!(out.matches.len(), 1);
        // The strawman materialized the multiple ⟨section, table, cell⟩
        // tuples the paper talks about.
        assert!(out.peak_embeddings >= 9, "peak={}", out.peak_embeddings);
    }

    #[test]
    fn attribute_results() {
        let xml = "<r><a id=\"x\"/><a/></r>";
        let out = evaluate_str(xml, "//a/@id", NaiveConfig::default()).unwrap();
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn text_results_and_predicates() {
        let xml = "<a>hi<b>there</b></a>";
        assert_eq!(ids(xml, "//a/text()").len(), 1);
        assert_eq!(ids(xml, "//a[text() = 'hi']").len(), 1);
        assert_eq!(ids(xml, "//a[text() = 'nope']").len(), 0);
    }

    #[test]
    fn value_comparisons() {
        let xml = "<l><b><y>2003</y></b><b><y>1999</y></b></l>";
        assert_eq!(ids(xml, "//b[y > 2000]").len(), 1);
    }

    #[test]
    fn blowup_is_detected() {
        // Deep recursion + long descendant chain = exponential embeddings.
        let depth = 24;
        let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let query = "//a//a//a//a//a//a";
        let err = evaluate_str(&xml, query, NaiveConfig { max_embeddings: 10_000 }).unwrap_err();
        assert!(matches!(err, NaiveError::Blowup { .. }));
    }

    #[test]
    fn embedding_count_grows_combinatorially() {
        // C(n, k)-ish growth: measure that deeper nesting inflates peak
        // embeddings much faster than document size.
        let q = "//a//a//a";
        let peak = |depth: usize| {
            let xml = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
            evaluate_str(&xml, q, NaiveConfig::default()).unwrap().peak_embeddings
        };
        let p8 = peak(8);
        let p16 = peak(16);
        assert!(p16 > 4 * p8, "expected superlinear growth: {p8} → {p16}");
    }
}
