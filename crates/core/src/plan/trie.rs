//! The shared-prefix **step trie**: one node per distinct location-step
//! path across every registered query, and the index that routes each
//! start tag to the machine nodes whose step it could satisfy.
//!
//! Thousands of realistic standing queries overlap heavily — `/site/…`
//! subscriptions in an auction feed, `//ProteinEntry/…` in the protein
//! stream. The trie materializes that overlap: a query's main path
//! descends edge by edge, each edge labeled by a [`StepKey`] (axis +
//! interned name test), so queries sharing a `/a/b//c…` prefix share trie
//! nodes. A predicate step hangs off the node of the step it qualifies
//! (`//a[b]` adds `//a/b`), the way YFilter runs nested-path predicates as
//! paths of its one shared automaton, so it is shared with every main-path
//! or predicate step of the same path. Terminal nodes carry the plan
//! groups whose main path ends there, which makes the trie the planner's
//! **grouping index**: an incoming query walks symbols (integer
//! comparisons, no hashing of the whole query) and only then compares
//! shape keys against the few groups at its terminal.
//!
//! ## Routing
//!
//! TwigM pushes every element-test node by one rule — a name test plus an
//! axis witness on its parent node's stack — whether the node is on the
//! main path or in a predicate. So a machine node's **stack shape** —
//! which entries exist, at what level, with what parent pointer — depends
//! *only* on the (axis, name) chain from the machine root, never on the
//! group's predicates, comparisons or result kind (those live in the
//! flags/candidates carried *on* the entries, which do not influence
//! push/pop timing). Every machine node routed through a trie node
//! therefore holds, at every moment of the stream, the same stack shape.
//! The trie keeps no copy of it: the machines hold the stacks, and the
//! trie is a static routing index of the step structure and its
//! **routes** (`(group, machine node)` pairs). `StepTrie::advance` decides
//! each live step's push **once per event**, with the machine's own rule on
//! the step's first route, and expands it along the routes, so each
//! group's entry carries its own flags and candidate bookkeeping. This is
//! the one place a multi-query start tag's pushes are decided. Per-event
//! planning thus scales with *distinct trie nodes*, not with the number of
//! registered queries; the `prefix_*` fields of [`PlanStats`] count both
//! sides of that trade.

use vitex_xpath::Axis;

use crate::intern::Symbol;
use crate::plan::PlanGroup;
use crate::stats::PlanStats;

/// The label of a trie edge: one element location step of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepKey {
    /// Axis of the step.
    pub axis: Axis,
    /// Interned name test; `None` is the wildcard `*`.
    pub name: Option<Symbol>,
}

#[derive(Debug)]
struct TrieNode {
    /// Edge label from the parent (meaningless for the root).
    key: StepKey,
    /// Parent node; the root is its own parent.
    parent: u32,
    /// Child node indices (small fan-out: linear scan beats hashing).
    children: Vec<u32>,
    /// Plan groups whose main path ends exactly here.
    terminals: Vec<u32>,
}

/// A trie over location-step paths, nodes addressed by dense indices.
#[derive(Debug)]
pub struct StepTrie {
    /// `nodes[0]` is the root (no incoming edge).
    nodes: Vec<TrieNode>,
    /// Parallel to `nodes`: the machine nodes a push of each node drives,
    /// as `(group id, machine node)` of the active plan groups, **ascending**
    /// — a recycled low slot re-enters in order, so an event with a single
    /// trie push expands into an already-sorted plan. One group may route
    /// two machine nodes on one trie node: `//a[b]/b` tests `//a/b` twice.
    routes: Vec<Vec<(u32, u32)>>,
    /// Symbol index → trie nodes whose step tests that name.
    by_symbol: Vec<Vec<u32>>,
    /// Trie nodes whose step is the wildcard `*`.
    wildcards: Vec<u32>,
    /// Routes on descendant-axis steps. While there are none, a start tag
    /// whose pushed steps have no routed child opens a subtree nothing
    /// can push in ([`StepTrie::advance`]).
    descendant_routes: usize,
}

impl StepTrie {
    /// An empty trie (root only).
    pub fn new() -> Self {
        StepTrie {
            nodes: vec![TrieNode {
                key: StepKey { axis: Axis::Child, name: None },
                parent: 0,
                children: Vec::new(),
                terminals: Vec::new(),
            }],
            routes: vec![Vec::new()],
            by_symbol: Vec::new(),
            wildcards: Vec::new(),
            descendant_routes: 0,
        }
    }

    /// The child of `parent` along `step`, created (unrouted) when
    /// missing. Newest children are looked at first: registration routes
    /// the path it has just inserted, under a root that may have thousands
    /// of children.
    pub fn child(&mut self, parent: usize, step: StepKey) -> usize {
        let children = &self.nodes[parent].children;
        if let Some(&c) = children.iter().rev().find(|&&c| self.nodes[c as usize].key == step) {
            return c as usize;
        }
        let id = self.nodes.len();
        self.nodes.push(TrieNode {
            key: step,
            parent: parent as u32,
            children: Vec::new(),
            terminals: Vec::new(),
        });
        self.routes.push(Vec::new());
        self.nodes[parent].children.push(id as u32);
        match step.name {
            Some(sym) => {
                if self.by_symbol.len() <= sym.index() {
                    self.by_symbol.resize(sym.index() + 1, Vec::new());
                }
                self.by_symbol[sym.index()].push(id as u32);
            }
            None => self.wildcards.push(id as u32),
        }
        id
    }

    /// Descends `steps` from the root, creating missing nodes, and returns
    /// the last node's index. Does **not** change routes — the planner
    /// routes a path only when it gains a distinct plan group.
    pub fn insert_path(&mut self, steps: &[StepKey]) -> usize {
        steps.iter().fold(0, |cur, &step| self.child(cur, step))
    }

    /// The nodes from the root (exclusive) down to `node`, in step order.
    #[cfg(test)]
    pub(crate) fn path_to(&self, node: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = node;
        while cur != 0 {
            path.push(cur);
            cur = self.nodes[cur].parent as usize;
        }
        path.reverse();
        path
    }

    /// The plan groups terminating at `node`.
    pub fn terminals(&self, node: usize) -> &[u32] {
        &self.nodes[node].terminals
    }

    /// Records `group` as terminating at `node` and files its `routes`:
    /// `(trie node, machine node)` for every node of the group's machine,
    /// what a push of that trie node drives.
    pub fn add_group(&mut self, node: usize, group: usize, routes: &[(usize, u32)]) {
        let gid = group as u32;
        self.nodes[node].terminals.push(gid);
        for &(at, mnode) in routes {
            let list = &mut self.routes[at];
            list.insert(list.partition_point(|&r| r < (gid, mnode)), (gid, mnode));
            if self.nodes[at].key.axis == Axis::Descendant {
                self.descendant_routes += 1;
            }
        }
    }

    /// Unrecords `group` from `node` (the group went inactive) and splices
    /// its routes out. A group's machine is one tree, routed onto one
    /// subtree of the trie, so the walk starts at the top of `node`'s path
    /// and descends only into nodes that route the group. Trie nodes are
    /// never deleted; one with no routes left stops counting as shared and
    /// `StepTrie::advance` stops checking it.
    pub fn remove_group(&mut self, node: usize, group: usize) {
        let gid = group as u32;
        let terminals = &mut self.nodes[node].terminals;
        let Some(pos) = terminals.iter().position(|&g| g == gid) else { return };
        terminals.swap_remove(pos);
        let mut top = node;
        while self.nodes[top].parent != 0 {
            top = self.nodes[top].parent as usize;
        }
        let mut todo = vec![top];
        while let Some(at) = todo.pop() {
            let routes = &mut self.routes[at];
            let before = routes.len();
            routes.retain(|&(g, _)| g != gid); // order-preserving
            let removed = before - routes.len();
            if removed > 0 {
                if self.nodes[at].key.axis == Axis::Descendant {
                    self.descendant_routes -= removed;
                }
                todo.extend(self.nodes[at].children.iter().map(|&c| c as usize));
            }
        }
    }

    /// The `(group id, machine node)` pairs routed through `node`,
    /// ascending.
    #[cfg(test)]
    pub(crate) fn routes(&self, node: usize) -> &[(u32, u32)] {
        &self.routes[node]
    }

    /// Number of machine nodes routed through `node`.
    pub fn route_count(&self, node: usize) -> usize {
        self.routes[node].len()
    }

    /// Whether `group` is routed anywhere in the trie (linear scan; meant
    /// for tests asserting retired groups leave no orphan state behind).
    pub fn is_routed(&self, group: usize) -> bool {
        self.routes.iter().any(|r| r.iter().any(|&(g, _)| g as usize == group))
    }

    /// Whether any **live** step — a trie node with at least one route —
    /// tests `sym` (or is a wildcard). A start tag for which this is false
    /// cannot advance the trie: [`StepTrie::advance`] checks exactly these
    /// nodes.
    #[cfg(test)]
    pub(crate) fn has_live_step(&self, sym: Option<Symbol>) -> bool {
        steps_testing(&self.by_symbol, &self.wildcards, sym)
            .any(|ni| !self.routes[ni as usize].is_empty())
    }

    /// The routes of the live steps an element named `sym` could satisfy,
    /// in the order [`StepTrie::advance`] checks them.
    #[cfg(test)]
    pub(crate) fn routes_testing(&self, sym: Option<Symbol>) -> Vec<(u32, u32)> {
        let steps = steps_testing(&self.by_symbol, &self.wildcards, sym);
        steps.flat_map(|ni| self.routes[ni as usize].iter().copied()).collect()
    }

    /// Number of step nodes (the root does not count: it is not a step).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether no step has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Step nodes routing **at least two** distinct active plan groups —
    /// the structure the trie shares instead of duplicating. One group
    /// routing two machine nodes on a node shares nothing.
    pub fn shared_nodes(&self) -> usize {
        self.routes
            .iter()
            .filter(|r| matches!((r.first(), r.last()), (Some(a), Some(b)) if a.0 != b.0))
            .count()
    }

    /// Approximate heap bytes of the trie: it holds no run-time state, so
    /// the figure follows registrations alone.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = self.nodes.capacity() * size_of::<TrieNode>();
        for n in &self.nodes {
            bytes += n.children.capacity() * size_of::<u32>()
                + n.terminals.capacity() * size_of::<u32>();
        }
        for r in &self.routes {
            bytes += size_of::<Vec<(u32, u32)>>() + r.capacity() * size_of::<(u32, u32)>();
        }
        for list in &self.by_symbol {
            bytes += size_of::<Vec<u32>>() + list.capacity() * size_of::<u32>();
        }
        bytes += self.wildcards.capacity() * size_of::<u32>();
        bytes as u64
    }

    /// A `startElement` against the routed machines: checks every live trie
    /// node whose step tests `sym` (plus the wildcard nodes) with the
    /// machine's own push rule (`TwigM::push_point`) on the node's first
    /// route, and expands each push along the node's routes into `plans` as
    /// `(group, machine node, parent-stack ptr)`. One check per distinct
    /// trie node, however many machine nodes share it; every machine node
    /// routed on it holds the same stack shape, which debug builds check
    /// route by route. Nothing is applied here, so every decision reads the
    /// **pre-event** stacks; `run` counts the checks.
    ///
    /// Returns whether a step could push inside the element: `false` only
    /// when no descendant-axis step is routed and no step that pushed here
    /// has a routed child step. Then every routed step is a child step, and
    /// one at level L + 2 or deeper needs a parent entry at level L + 1 or
    /// deeper, which only the element's content could push; a child step
    /// at level L + 1 needs an entry at level L, which only this tag could
    /// have pushed. So nothing inside the element pushes.
    #[inline(always)]
    pub(crate) fn advance(
        &self,
        groups: &[PlanGroup],
        sym: Option<Symbol>,
        level: u32,
        plans: &mut Vec<(u32, u32, u32)>,
        run: &mut PlanStats,
    ) -> bool {
        let push_point =
            |(g, m): (u32, u32)| groups[g as usize].machine().push_point(m as usize, level);
        let mut below = self.descendant_routes > 0;
        for ni in steps_testing(&self.by_symbol, &self.wildcards, sym) {
            let routes = &self.routes[ni as usize];
            let Some(&first) = routes.first() else {
                continue; // stale path: every group on it retired
            };
            run.prefix_steps_executed += 1;
            run.prefix_steps_saved += routes.len() as u64 - 1;
            let decision = push_point(first);
            debug_assert!(
                routes.iter().all(|&route| push_point(route) == decision),
                "every machine node routed on a trie step holds its stack shape"
            );
            let Some(ptr) = decision else { continue };
            run.prefix_forks += routes.len() as u64;
            plans.extend(routes.iter().map(|&(slot, mnode)| (slot, mnode, ptr)));
            below = below || self.has_routed_child(ni as usize);
        }
        below
    }

    /// Whether a child step of `node` has a route.
    fn has_routed_child(&self, node: usize) -> bool {
        self.nodes[node].children.iter().any(|&c| !self.routes[c as usize].is_empty())
    }
}

/// The trie nodes whose step an element named `sym` could satisfy: the
/// ones testing that name (`by_symbol`) plus the `wildcards`. The two lists
/// are disjoint and a node appears in each at most once.
#[inline]
fn steps_testing<'a>(
    by_symbol: &'a [Vec<u32>],
    wildcards: &'a [u32],
    sym: Option<Symbol>,
) -> impl Iterator<Item = u32> + 'a {
    let named = sym.and_then(|s| by_symbol.get(s.index())).map_or(&[][..], Vec::as_slice);
    named.iter().chain(wildcards).copied()
}

impl Default for StepTrie {
    fn default() -> Self {
        StepTrie::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::intern::Interner;
    use crate::multi::MultiEngine;
    use crate::result::{MatchRef, QueryId};
    use crate::stats::MachineStats;
    use vitex_xmlsax::event::StartElementEvent;
    use vitex_xmlsax::pos::ByteSpan;

    fn key(interner: &mut Interner, axis: Axis, name: Option<&str>) -> StepKey {
        StepKey { axis, name: name.map(|n| interner.intern(n)) }
    }

    /// Routes a group's main path ending at `node`: `mnodes[d]` is the
    /// machine node of the step at depth `d + 1`.
    fn main_routes(t: &StepTrie, node: usize, mnodes: &[u32]) -> Vec<(usize, u32)> {
        t.path_to(node).into_iter().zip(mnodes.iter().copied()).collect()
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        // /a/b and /a/c share the /a node: 3 nodes total, not 4.
        let ab = [key(&mut i, Axis::Child, Some("a")), key(&mut i, Axis::Child, Some("b"))];
        let ac = [key(&mut i, Axis::Child, Some("a")), key(&mut i, Axis::Child, Some("c"))];
        let n_ab = t.insert_path(&ab);
        let n_ac = t.insert_path(&ac);
        assert_ne!(n_ab, n_ac);
        assert_eq!(t.len(), 3);
        // Re-inserting an existing path allocates nothing.
        assert_eq!(t.insert_path(&ab), n_ab);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn axis_distinguishes_edges() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let child = [key(&mut i, Axis::Child, Some("a"))];
        let desc = [key(&mut i, Axis::Descendant, Some("a"))];
        assert_ne!(t.insert_path(&child), t.insert_path(&desc));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn wildcard_is_its_own_edge() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let named = [key(&mut i, Axis::Descendant, Some("a"))];
        let wild = [key(&mut i, Axis::Descendant, None)];
        assert_ne!(t.insert_path(&named), t.insert_path(&wild));
    }

    #[test]
    fn routes_track_active_groups() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let ab = [key(&mut i, Axis::Child, Some("a")), key(&mut i, Axis::Child, Some("b"))];
        let ac = [key(&mut i, Axis::Child, Some("a")), key(&mut i, Axis::Child, Some("c"))];
        let n_ab = t.insert_path(&ab);
        let n_ac = t.insert_path(&ac);
        t.add_group(n_ab, 1, &main_routes(&t, n_ab, &[0, 1]));
        assert_eq!(t.shared_nodes(), 0);
        t.add_group(n_ac, 2, &main_routes(&t, n_ac, &[0, 1]));
        // /a now routes two groups; the b/c leaves route one each.
        assert_eq!(t.shared_nodes(), 1);
        assert_eq!(t.terminals(n_ab), &[1]);
        assert!(t.is_routed(1) && t.is_routed(2));
        // A low slot registered late (a recycled one) enters in order:
        // routes stay ascending by group id, whatever the insertion order.
        t.add_group(n_ab, 0, &main_routes(&t, n_ab, &[5, 6]));
        let n_a = t.insert_path(&ab[..1]);
        assert_eq!(t.path_to(n_ab), [n_a, n_ab]);
        assert_eq!(t.routes(n_a), [(0, 5), (1, 0), (2, 0)]);
        assert_eq!(t.routes(n_ab), [(0, 6), (1, 1)]);
        t.remove_group(n_ab, 1);
        assert_eq!(t.routes(n_a), [(0, 5), (2, 0)]);
        t.remove_group(n_ab, 0);
        assert_eq!(t.shared_nodes(), 0);
        assert!(t.terminals(n_ab).is_empty());
        assert!(!t.is_routed(0) && !t.is_routed(1), "retired groups leave no route behind");
        // Removing an unknown group is a no-op.
        t.remove_group(n_ab, 99);
        assert_eq!(t.shared_nodes(), 0);
    }

    #[test]
    fn empty_path_terminates_at_root() {
        let mut t = StepTrie::new();
        assert_eq!(t.insert_path(&[]), 0);
        assert!(t.is_empty());
        assert!(t.approx_bytes() > 0);
    }

    /// Drives an engine's executor by hand, one tag at a time, the way a
    /// document's events reach it: what `advance` decides is the plan each
    /// start tag leaves, and what it counts the executor's step counters.
    struct Doc<'m>(&'m mut MultiEngine);

    impl Doc<'_> {
        /// Starts a document: the machines at rest, the counters at zero.
        fn begin(multi: &mut MultiEngine) -> Doc<'_> {
            let (_, groups) = multi.planner.runtime();
            multi.exec.begin_document(groups);
            Doc(multi)
        }

        /// A start tag named `name` at `level`; returns its plan,
        /// `(group, machine node, ptr)`.
        fn start(&mut self, name: &str, level: u32) -> Vec<(u32, u32, u32)> {
            let Doc(multi) = self;
            let sym = multi.interner.lookup(name);
            let (trie, groups) = multi.planner.runtime();
            let span = ByteSpan::new(0, 0);
            let event =
                StartElementEvent { name: name.into(), attrs: Default::default(), level, span };
            multi.exec.start(
                trie,
                groups,
                sym,
                &event,
                0,
                &mut |_: &[QueryId], _: &MatchRef<'_>| {},
            );
            multi.exec.plans().to_vec()
        }

        /// The end tag of the element named `name` at `level`.
        fn end(&mut self, name: &str, level: u32) {
            let Doc(multi) = self;
            let (_, groups) = multi.planner.runtime();
            let span = ByteSpan::new(0, 0);
            multi.exec.end(groups, name, level, span, &mut |_: &[QueryId], _: &MatchRef<'_>| {});
        }

        /// The step counters so far: `(executed, saved, forks)`.
        fn counters(&self) -> (u64, u64, u64) {
            let run = self.0.exec.run_stats();
            (run.prefix_steps_executed, run.prefix_steps_saved, run.prefix_forks)
        }

        /// Whether the content of the last start tag's element can matter.
        fn content(&self) -> bool {
            self.0.exec.content_matters()
        }

        /// The statistics of group `g`'s machine.
        fn machine(&self, g: usize) -> &MachineStats {
            self.0.planner.group(g).machine().stats()
        }
    }

    #[test]
    fn advance_mirrors_machine_push_rules() {
        // //a/b : descendant a, child b; machine nodes a = 0, b = 1.
        let mut multi = MultiEngine::new();
        multi.add_query("//a/b").unwrap();
        let mut doc = Doc::begin(&mut multi);
        // Plans are `(group, machine node, ptr)`.
        // <a> at level 1: a pushes (descendant root), b has no witness.
        assert_eq!(doc.start("a", 1), [(0, 0, 0)]);
        // <x> at level 2: nothing matches.
        assert!(doc.start("x", 2).is_empty());
        // <b> at level 3 inside <x>? No — b needs a as *direct* parent.
        assert!(doc.start("b", 3).is_empty(), "child axis needs level + 1 witness");
        doc.end("b", 3);
        // </x>, then <b> at level 2: direct child of the open a.
        doc.end("x", 2);
        assert_eq!(doc.start("b", 2), [(0, 1, 0)]);
        doc.end("b", 2);
        assert_eq!(doc.machine(0).live_entries, 1, "</b> popped b's entry only");
        doc.end("a", 1);
        assert_eq!((doc.machine(0).live_entries, doc.machine(0).peak_entries), (0, 2));
        // One check per start tag that named a live step: <a>, <b>, <b>;
        // each push forks to the single routed group.
        assert_eq!(doc.counters(), (3, 0, 2));

        // /a : a child step at the path root is witnessed at level 1 only.
        let mut multi = MultiEngine::new();
        multi.add_query("/a").unwrap();
        let mut doc = Doc::begin(&mut multi);
        assert!(doc.start("r", 1).is_empty());
        assert!(doc.start("a", 2).is_empty(), "a root child step needs level 1");
        doc.end("a", 2);
        doc.end("r", 1);
        assert_eq!(doc.start("a", 1), [(0, 0, 0)]);
        assert_eq!(doc.counters(), (2, 0, 1), "<a> was checked twice and pushed once");
    }

    #[test]
    fn advance_skips_unrouted_nodes() {
        // A retired group leaves its step in the trie, unrouted.
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//a").unwrap();
        multi.remove_query(q);
        let a = multi.interner.lookup("a");
        assert!(!multi.planner.trie().has_live_step(a));
        let mut doc = Doc::begin(&mut multi);
        assert!(doc.start("a", 1).is_empty(), "no routed group: the node is dormant");
        assert_eq!(doc.counters().0, 0, "a dormant step counts no check");
        doc.end("a", 1);
        let q = multi.add_query("//a").unwrap();
        assert!(multi.planner.trie().has_live_step(a) && !multi.planner.trie().has_live_step(None));
        let mut doc = Doc::begin(&mut multi);
        assert_eq!(doc.start("a", 2), [(0, 0, 0)]);
        assert_eq!(doc.counters().0, 1);
        doc.end("a", 2);
        // A wildcard step is live for every name, interned or not.
        let w = multi.add_query("//*").unwrap();
        assert!(multi.planner.trie().has_live_step(None));
        let mut doc = Doc::begin(&mut multi);
        assert_eq!(doc.start("zzz", 1), [(1, 0, 0)]);
        assert_eq!(doc.start("a", 2), [(0, 0, 0), (1, 0, 0)]);
        assert_eq!(doc.counters(), (3, 0, 3));
        multi.remove_query(w);
        multi.remove_query(q);
        let trie = multi.planner.trie();
        assert!(!trie.has_live_step(a), "retiring the last group makes the step dormant again");
        assert!(!trie.has_live_step(None));
    }

    #[test]
    fn predicate_steps_route_on_the_node_of_their_path() {
        // //a[b]/b: machine nodes a = 0, the predicate b = 1 and the main b
        // = 2. Both b's test `//a/b`, so one group routes that node twice.
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//a[b]/b").unwrap();
        let n_ab = multi.planner.group(0).trie_node();
        let n_a = multi.planner.trie().path_to(n_ab)[0];
        let trie = multi.planner.trie();
        assert_eq!(trie.routes(n_ab), [(0, 1), (0, 2)], "ascending by (group, machine node)");
        assert_eq!(trie.shared_nodes(), 0, "one group shares nothing with itself");
        // <a><b/></a>: one check each, however many routes it drives.
        let mut doc = Doc::begin(&mut multi);
        assert_eq!(doc.start("a", 1), [(0, 0, 0)]);
        assert_eq!(doc.machine(0).live_entries, 1);
        assert_eq!(doc.start("b", 2), [(0, 1, 0), (0, 2, 0)]);
        assert_eq!(doc.machine(0).live_entries, 3, "both routed machine nodes pushed");
        // <b> forks to both machine nodes, and one check stands for two.
        assert_eq!(doc.counters(), (2, 1, 3));
        doc.end("b", 2);
        doc.end("a", 1);
        assert!(multi.planner.group(0).machine().is_quiescent());
        // //a/b as group 1 shares both nodes with group 0.
        multi.add_query("//a/b").unwrap();
        let trie = multi.planner.trie();
        assert_eq!(trie.shared_nodes(), 2, "`//a` and `//a/b` each route two groups");
        assert_eq!(trie.routes(n_ab), [(0, 1), (0, 2), (1, 1)]);
        // Removal walks group 0's subtree and takes both of its routes.
        multi.remove_query(q);
        let trie = multi.planner.trie();
        assert!(!trie.is_routed(0));
        assert_eq!((trie.routes(n_a), trie.routes(n_ab)), (&[(1, 0)][..], &[(1, 1)][..]));
        assert_eq!(trie.shared_nodes(), 0);
    }

    #[test]
    fn content_matters_while_a_step_could_push_inside_or_an_entry_reads_text() {
        let mut multi = MultiEngine::new();
        multi.add_query("/a/b").unwrap();
        let d = multi.add_query("//d").unwrap();
        let mut doc = Doc::begin(&mut multi);
        doc.start("a", 1);
        doc.start("b", 2);
        assert!(doc.content(), "a routed `//` step could push anywhere");
        multi.remove_query(d);
        let mut doc = Doc::begin(&mut multi);
        doc.start("a", 1);
        assert!(doc.content(), "/a/b could push under the <a> that /a pushed");
        doc.start("b", 2);
        assert!(!doc.content(), "no step is routed below /a/b");
        doc.end("b", 2);
        doc.start("x", 2);
        assert!(!doc.content(), "<x> pushed nothing, and /a/b needs level 2");
        doc.end("x", 2);
        doc.end("a", 1);
        // An open entry that reads text keeps the content below it.
        let t = multi.add_query("/a/b/text()").unwrap();
        let mut doc = Doc::begin(&mut multi);
        doc.start("a", 1);
        doc.start("b", 2);
        assert!(doc.content(), "/a/b/text() reads the text under <b>");
        doc.end("b", 2);
        doc.end("a", 1);
        multi.remove_query(t);
        // Registration churn keeps the count of descendant routes.
        multi.add_query("/a[b//c]").unwrap();
        let mut doc = Doc::begin(&mut multi);
        doc.start("r", 1);
        assert!(doc.content(), "the predicate step /a/b//c is routed");
    }
}
