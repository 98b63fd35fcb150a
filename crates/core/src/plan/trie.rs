//! The shared-prefix **step trie**: one node per distinct location-step
//! path across every registered query — and the *runtime* owner of the
//! match state those steps share.
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
//! ## Runtime state
//!
//! TwigM pushes every element-test node by one rule — a name test plus an
//! axis witness on its parent node's stack — whether the node is on the
//! main path or in a predicate. So a machine node's **stack shape** —
//! which entries exist, at what level, with what parent pointer — depends
//! *only* on the (axis, name) chain from the machine root, never on the
//! group's predicates, comparisons or result kind (those live in the
//! flags/candidates carried *on* the entries, which do not influence
//! push/pop timing). Every machine node routed through a trie node
//! therefore agrees, at every moment of the stream, on that node's stack.
//! Each trie node owns exactly one copy of that stack (`TrieEntry`: the
//! level; the node keeps its height and top, the trie's open list the
//! rest), `StepTrie::advance` updates it **once per event**, and the
//! engine forks into per-group machines only where state actually
//! diverges — delivering the pushes through the node's **routes**
//! (`(group, machine node)` pairs) so each group's entry carries its own
//! flags and candidate bookkeeping. This is the one place a multi-query
//! start tag's pushes are decided. Per-event planning thus scales with
//! *distinct trie nodes*, not with the number of registered queries;
//! [`PrefixRunStats`] counts both sides of that trade.

use vitex_xpath::Axis;

use crate::intern::Symbol;

/// The label of a trie edge: one element location step of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepKey {
    /// Axis of the step.
    pub axis: Axis,
    /// Interned name test; `None` is the wildcard `*`.
    pub name: Option<Symbol>,
}

/// One entry of a trie node's shared runtime stack: the level of the
/// open element it stands for. The push rule reads a stack's height and
/// its top entry only, so a node holds those two and each entry of the
/// trie's open list keeps the top it covered, restored when it pops. The
/// parent-stack pointer a TwigM entry would also carry is not stored — it
/// is derived from the parent's stack height at plan time and handed to
/// the groups with each push, never read back.
type TrieEntry = u32;

/// Per-run counters of the shared-prefix runtime, reset by
/// [`StepTrie::begin_document`] and surfaced through
/// [`crate::stats::PlanStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixRunStats {
    /// Step checks executed against the trie (one per event × live node).
    pub steps_executed: u64,
    /// Machine-node step checks avoided (`routes - 1` per executed check).
    pub steps_saved: u64,
    /// Machine-node entry deliveries fanned out from trie pushes.
    pub forks: u64,
    /// Current live shared-stack entries.
    pub live_entries: u64,
    /// Peak of `live_entries`.
    pub peak_entries: u64,
}

impl PrefixRunStats {
    /// Peak bytes of the shared trie stacks.
    pub fn peak_stack_bytes(&self) -> u64 {
        self.peak_entries * std::mem::size_of::<TrieEntry>() as u64
    }
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
    terminals: Vec<usize>,
    /// Height of the shared runtime stack (0 between documents).
    height: u32,
    /// Its top entry, when `height > 0`.
    top: TrieEntry,
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
    /// Flat stack of the trie nodes pushed per open element, each with the
    /// top entry its push covered: the end tag pops exactly the stacks its
    /// start tag pushed, the last ones listed.
    open: Vec<(u32, TrieEntry)>,
    /// Runtime counters of the current (or last) document run.
    run_stats: PrefixRunStats,
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
                height: 0,
                top: 0,
            }],
            routes: vec![Vec::new()],
            by_symbol: Vec::new(),
            wildcards: Vec::new(),
            open: Vec::new(),
            run_stats: PrefixRunStats::default(),
        }
    }

    /// The child of `parent` along `step`, created (unrouted) when
    /// missing.
    pub fn child(&mut self, parent: usize, step: StepKey) -> usize {
        let children = &self.nodes[parent].children;
        if let Some(&c) = children.iter().find(|&&c| self.nodes[c as usize].key == step) {
            return c as usize;
        }
        let id = self.nodes.len();
        self.nodes.push(TrieNode {
            key: step,
            parent: parent as u32,
            children: Vec::new(),
            terminals: Vec::new(),
            height: 0,
            top: 0,
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
    pub fn path_to(&self, node: usize) -> Vec<usize> {
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
    pub fn terminals(&self, node: usize) -> &[usize] {
        &self.nodes[node].terminals
    }

    /// Records `group` as terminating at `node` and files its `routes`:
    /// `(trie node, machine node)` for every node of the group's machine,
    /// what a push of that trie node drives.
    pub fn add_group(&mut self, node: usize, group: usize, routes: &[(usize, u32)]) {
        self.nodes[node].terminals.push(group);
        let gid = group as u32;
        for &(at, mnode) in routes {
            let list = &mut self.routes[at];
            list.insert(list.partition_point(|&r| r < (gid, mnode)), (gid, mnode));
        }
    }

    /// Unrecords `group` from `node` (the group went inactive) and splices
    /// its routes out. A group's machine is one tree, routed onto one
    /// subtree of the trie, so the walk starts at the top of `node`'s path
    /// and descends only into nodes that route the group. Trie nodes are
    /// never deleted; one with no routes left stops counting as shared and
    /// `StepTrie::advance` stops touching its runtime stack.
    pub fn remove_group(&mut self, node: usize, group: usize) {
        let terminals = &mut self.nodes[node].terminals;
        let Some(pos) = terminals.iter().position(|&g| g == group) else { return };
        terminals.swap_remove(pos);
        let gid = group as u32;
        let mut top = node;
        while self.nodes[top].parent != 0 {
            top = self.nodes[top].parent as usize;
        }
        let mut todo = vec![top];
        while let Some(at) = todo.pop() {
            let routes = &mut self.routes[at];
            let before = routes.len();
            routes.retain(|&(g, _)| g != gid); // order-preserving
            if routes.len() < before {
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

    /// Approximate heap bytes of the trie's *plan* structure. Runtime
    /// stack capacity is deliberately excluded: it varies over a run, and
    /// plan statistics must be identical whether they are snapshotted
    /// before a session or after a run — the runtime side is reported
    /// separately as
    /// [`PrefixRunStats::peak_stack_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = self.nodes.capacity() * size_of::<TrieNode>();
        for n in &self.nodes {
            bytes += n.children.capacity() * size_of::<u32>()
                + n.terminals.capacity() * size_of::<usize>();
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

    // ------------------------------------------------------------- //
    // Runtime
    // ------------------------------------------------------------- //

    /// Clears the shared stacks and resets the run
    /// counters — called at the start of each document run, mirroring the
    /// machines' resets (a document that ended in a parse error left its
    /// open elements behind). Only the stacks `open` still lists hold
    /// entries, so only they are cleared: nothing after a well-formed
    /// document.
    pub fn begin_document(&mut self) {
        for &(node, _) in &self.open {
            self.nodes[node as usize].height = 0;
        }
        self.open.clear();
        self.run_stats = PrefixRunStats::default();
    }

    /// Counters of the current (or last completed) document run.
    pub fn run_stats(&self) -> PrefixRunStats {
        self.run_stats
    }

    /// Total live shared-stack entries (0 between well-formed documents).
    pub fn live_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.height as usize).sum()
    }

    /// A `startElement` against the shared stacks: checks every live trie
    /// node whose step tests `sym` (plus the wildcard nodes) against its
    /// parent's **pre-event** stack — exactly the TwigM push rule — and
    /// expands each push along the node's routes into `plans` as
    /// `(group, machine node, parent-stack ptr)`, then applies the pushes.
    /// One check per distinct trie node, however many machine nodes share
    /// it. The end tag's [`StepTrie::retreat`] pops them.
    #[inline(always)]
    pub(crate) fn advance(
        &mut self,
        sym: Option<Symbol>,
        level: u32,
        plans: &mut Vec<(u32, u32, u32)>,
    ) {
        let Self { nodes, routes, by_symbol, wildcards, open, run_stats } = self;
        let base = open.len();
        let (mut executed, mut saved, mut forks) = (0u64, 0u64, 0u64);
        // Plan phase: decide every push against pre-event stacks.
        for ni in steps_testing(by_symbol, wildcards, sym) {
            let node = &nodes[ni as usize];
            let node_routes = &routes[ni as usize];
            if node_routes.is_empty() {
                continue; // stale path: every group on it retired
            }
            executed += 1;
            saved += node_routes.len() as u64 - 1;
            let ptr = if node.parent == 0 {
                match node.key.axis {
                    Axis::Child if level != 1 => continue,
                    _ => 0, // ptr unused at the path root
                }
            } else {
                let pstack = &nodes[node.parent as usize];
                match node.key.axis {
                    _ if pstack.height == 0 => continue,
                    Axis::Child if pstack.top + 1 != level => continue,
                    _ => pstack.height - 1,
                }
            };
            forks += node_routes.len() as u64;
            for &(slot, mnode) in node_routes {
                plans.push((slot, mnode, ptr));
            }
            open.push((ni, 0));
        }
        if executed == 0 {
            return; // no live step tests `sym`
        }
        // Apply phase.
        for (ni, below) in &mut open[base..] {
            let node = &mut nodes[*ni as usize];
            (*below, node.top, node.height) = (node.top, level, node.height + 1);
        }
        run_stats.steps_executed += executed;
        run_stats.steps_saved += saved;
        run_stats.forks += forks;
        run_stats.live_entries = open.len() as u64;
        run_stats.peak_entries = run_stats.peak_entries.max(run_stats.live_entries);
    }

    /// The `endElement` counterpart of [`StepTrie::advance`]: pops the
    /// shared-stack entries the matching start tag pushed — the last ones
    /// open, each on top of its stack at the element's `level` (the ones
    /// below belong to its ancestors, at lower levels).
    #[inline]
    pub(crate) fn retreat(&mut self, level: u32) {
        while let Some(&(ni, below)) = self.open.last() {
            let node = &mut self.nodes[ni as usize];
            if node.top != level {
                break;
            }
            (node.top, node.height) = (below, node.height - 1);
            self.open.pop();
        }
        self.run_stats.live_entries = self.open.len() as u64;
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
mod tests {
    use super::*;
    use crate::intern::Interner;

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

    #[test]
    fn advance_mirrors_machine_push_rules() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        // //a/b : descendant a, child b.
        let path = [key(&mut i, Axis::Descendant, Some("a")), key(&mut i, Axis::Child, Some("b"))];
        let n_b = t.insert_path(&path);
        let n_a = t.insert_path(&path[..1]);
        t.add_group(n_b, 0, &main_routes(&t, n_b, &[0, 1]));
        let a = i.lookup("a");
        let b = i.lookup("b");
        t.begin_document();
        // Plans are `(group, machine node, ptr)`: n_a routes (0, 0), n_b (0, 1).
        let mut plans = Vec::new();
        // <a> at level 1: a pushes (descendant root), b has no witness.
        t.advance(a, 1, &mut plans);
        assert_eq!(plans, [(0, 0, 0)]);
        assert_eq!(t.routes(n_a), [(0, 0)]);
        // <x> at level 2: nothing matches.
        plans.clear();
        t.advance(None, 2, &mut plans);
        assert!(plans.is_empty());
        // <b> at level 3 inside <x>? No — b needs a as *direct* parent.
        t.advance(b, 3, &mut plans);
        assert!(plans.is_empty(), "child axis needs level + 1 witness");
        t.retreat(3);
        // </x>, then <b> at level 2: direct child of the open a.
        t.retreat(2);
        t.advance(b, 2, &mut plans);
        assert_eq!(plans, [(0, 1, 0)]);
        assert_eq!(t.routes(n_b), [(0, 1)]);
        t.retreat(2);
        assert_eq!(t.live_entries(), 1, "</b> popped b's entry only");
        t.retreat(1);
        assert_eq!(t.live_entries(), 0);
        let stats = t.run_stats();
        assert_eq!(stats.live_entries, 0);
        assert_eq!(stats.peak_entries, 2);
        // One check per advance that named a live node: <a>, <b>, <b>.
        assert_eq!(stats.steps_executed, 3);
        assert_eq!(stats.forks, 2, "each push forks to the single routed group");
    }

    #[test]
    fn advance_skips_unrouted_nodes() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let path = [key(&mut i, Axis::Descendant, Some("a"))];
        let n_a = t.insert_path(&path);
        let a = i.lookup("a");
        t.begin_document();
        let mut plans = Vec::new();
        assert!(!t.has_live_step(a));
        t.advance(a, 1, &mut plans);
        assert!(plans.is_empty(), "no routed group: the node is dormant");
        assert_eq!(t.run_stats().steps_executed, 0);
        t.add_group(n_a, 3, &[(n_a, 0)]);
        assert!(t.has_live_step(a) && !t.has_live_step(None));
        t.advance(a, 2, &mut plans);
        assert_eq!(plans, [(3, 0, 0)]);
        assert_eq!(t.run_stats().steps_executed, 1);
        // A wildcard step is live for every name, interned or not.
        let wild = t.insert_path(&[key(&mut i, Axis::Descendant, None)]);
        t.add_group(wild, 4, &[(wild, 0)]);
        assert!(t.has_live_step(None));
        t.remove_group(wild, 4);
        t.remove_group(n_a, 3);
        assert!(!t.has_live_step(a), "retiring the last group makes the step dormant again");
    }

    #[test]
    fn predicate_steps_route_on_the_node_of_their_path() {
        // //a[b]/b: machine nodes a = 0, the predicate b = 1 and the main b
        // = 2. Both b's test `//a/b`, so one group routes that node twice.
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let n_a = t.insert_path(&[key(&mut i, Axis::Descendant, Some("a"))]);
        let n_ab = t.child(n_a, key(&mut i, Axis::Child, Some("b")));
        let (a, b) = (i.lookup("a"), i.lookup("b"));
        t.add_group(n_ab, 0, &[(n_a, 0), (n_ab, 2), (n_ab, 1)]);
        assert_eq!(t.routes(n_ab), [(0, 1), (0, 2)], "ascending by (group, machine node)");
        assert_eq!(t.shared_nodes(), 0, "one group shares nothing with itself");
        // <a><b/></a>: one push each, however many routes it drives.
        let mut plans = Vec::new();
        t.begin_document();
        for (sym, level, routed) in [(a, 1, &[(0, 0, 0)][..]), (b, 2, &[(0, 1, 0), (0, 2, 0)])] {
            plans.clear();
            t.advance(sym, level, &mut plans);
            assert_eq!(t.live_entries(), level as usize, "one shared entry per push");
            assert_eq!(plans, routed);
        }
        assert_eq!(t.run_stats().forks, 3, "<b> forks to both machine nodes");
        assert_eq!(t.run_stats().steps_saved, 1, "one check stands for two");
        t.retreat(2);
        t.retreat(1);
        // //a/b as group 1 shares both nodes with group 0.
        t.add_group(n_ab, 1, &main_routes(&t, n_ab, &[0, 1]));
        assert_eq!(t.shared_nodes(), 2, "`//a` and `//a/b` each route two groups");
        assert_eq!(t.routes(n_ab), [(0, 1), (0, 2), (1, 1)]);
        // Removal walks group 0's subtree and takes both of its routes.
        t.remove_group(n_ab, 0);
        assert!(!t.is_routed(0));
        assert_eq!((t.routes(n_a), t.routes(n_ab)), (&[(1, 0)][..], &[(1, 1)][..]));
        assert_eq!(t.shared_nodes(), 0);
    }
}
