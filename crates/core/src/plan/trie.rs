//! The shared-prefix **step trie**: one node per distinct location-step
//! prefix across every registered query — and the *runtime* owner of the
//! main-path match state those steps share.
//!
//! Thousands of realistic standing queries overlap heavily — `/site/…`
//! subscriptions in an auction feed, `//ProteinEntry/…` in the protein
//! stream. The trie materializes that overlap: a query's main path
//! descends edge by edge, each edge labeled by a [`StepKey`] (axis +
//! interned name test), so queries sharing a `/a/b//c…` prefix share trie
//! nodes. Terminal nodes carry the plan groups whose main path ends
//! there, which makes the trie the planner's **grouping index**: an
//! incoming query walks symbols (integer comparisons, no hashing of the
//! whole query) and only then compares canonical keys against the few
//! groups at its terminal.
//!
//! ## Runtime state
//!
//! The key observation behind prefix sharing is that a TwigM main-path
//! node's **stack shape** — which entries exist, at what level, with what
//! parent pointer — depends *only* on the (axis, name) chain from the
//! machine root, never on the group's predicates, comparisons or result
//! kind (those live in the flags/candidates carried *on* the entries,
//! which do not influence push/pop timing). Every group whose main path
//! routes through a trie node therefore agrees, at every moment of the
//! stream, on that node's stack. Each trie node owns exactly one copy of
//! that stack (`TrieEntry`: the level), `StepTrie::advance` updates it
//! **once per event**, and the engine forks into per-group machines only
//! where state actually diverges — delivering the planned pushes through
//! the node's **routes** (`(group, machine node)` pairs) so each group's
//! entry carries its own flags and candidate bookkeeping. Per-event
//! main-path planning thus scales with *distinct trie nodes*, not with
//! the number of registered queries; [`PrefixRunStats`] counts both sides
//! of that trade.
//!
//! ## Value gates
//!
//! Structure is half of what subscriptions share; the other half is the
//! literal they test (YFilter's split, Diao et al., TODS 2003). A trie
//! node N gets a **value gate** when every step from the root to N is a
//! child step — so N's stack holds at most one entry — and some group
//! routed through N tests `[@name = 'literal']` inline on its machine node
//! for N. The gate files those groups under [`gate_key`]`(name, literal)`
//! and keeps the routed groups with no such test apart; `add_group` /
//! `remove_group` maintain it in place, and it lives beside the nodes, so
//! a plan without gates pays nothing for it.
//!
//! At N's push, `StepTrie::advance` hashes the tag's attributes once. The
//! **survivors** are the untested groups plus those whose key an
//! attribute carries, among the survivors of the nearest gate above N.
//! Every push at or below N carries that set ([`TriePush::gated`]), and
//! the executor pushes only the routed groups in it. This is exact:
//!
//! * a skipped group's N entry fails its own test, so it could never be
//!   satisfied;
//! * without that entry its stack at N stays empty for the element's
//!   whole life, so nothing at or below N — predicate nodes included —
//!   could push for it;
//! * with at most one entry per stack there is no outer entry that lazy
//!   inheritance could have copied its candidates down to.
//!
//! So matches, payloads, callback order and emission points are those of
//! an ungated run; only the skipped groups' counters fall, and a group's
//! counters depend on its own test alone, never on its neighbours. A key
//! collision only widens a survivor set: each survivor still evaluates its
//! own test. `@*`, numeric literals, `!=` and relational tests stay
//! ungated, and so does any step with a `//` above it: under
//! `//item[@id = 'a']//name`, `<item id="a"><item id="b"><name/>` is a
//! match through the outer item, which a gate on the inner one would drop.

use vitex_xmlsax::event::Attribute;
use vitex_xpath::Axis;

use crate::intern::Symbol;
use crate::machine::fnv1a;

/// The label of a trie edge: one location step of a query's main path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepKey {
    /// Axis of the step.
    pub axis: Axis,
    /// Interned name test; `None` is the wildcard `*`.
    pub name: Option<Symbol>,
}

/// One entry of a trie node's shared runtime stack: the level of the
/// open element it stands for. The parent-stack pointer a TwigM entry
/// would also carry is not stored — it is derived from the parent's
/// stack height at plan time and handed to the groups in the
/// [`TriePush`], never read back.
type TrieEntry = u32;

/// A main-path push decided by `StepTrie::advance`: the trie node (its
/// routes name the group machine nodes to push onto), the parent-stack
/// pointer the new entries carry and, below a value gate, which routed
/// groups survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriePush {
    /// The trie node that pushed.
    pub node: u32,
    /// Parent-stack pointer for the new entry.
    pub ptr: u32,
    /// `None`: every routed group pushes. Otherwise a value gate at or
    /// above `node` narrowed them to a range of the walk's survivor list
    /// (ascending slots; see the module docs).
    pub gated: Option<(u32, u32)>,
}

impl TriePush {
    /// The push's survivors within the survivor list they were recorded
    /// in; `None` when every routed group pushes.
    pub(crate) fn survivors<'s>(&self, list: &'s [u32]) -> Option<&'s [u32]> {
        self.gated.map(|(from, to)| &list[from as usize..to as usize])
    }
}

/// One step of a group's main path, as [`StepTrie::add_group`] routes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedStep {
    /// The group's machine node for the step: what a push of the trie
    /// node drives.
    pub mnode: u32,
    /// [`gate_key`] of the machine node's first inline
    /// `[@name = 'literal']` test, if it has one.
    pub key: Option<u64>,
}

/// The key a value gate files an `@name = 'literal'` test under and
/// looks a start tag's attribute up by: FNV-1a over the name, a byte no
/// UTF-8 string contains, and the value. Pairs that collide only widen a
/// survivor set.
pub fn gate_key(name: &str, value: &str) -> u64 {
    fnv1a(name.bytes().chain([0xff]).chain(value.bytes()))
}

/// A trie node's value gate (see the module docs). Its lists hold group
/// ids, ascending.
#[derive(Debug)]
struct Gate {
    /// The gated trie node.
    node: u32,
    /// `(gate key, the routed groups testing it)`, ascending by key.
    keyed: Vec<(u64, Vec<u32>)>,
    /// The routed groups with no such test at this step.
    untested: Vec<u32>,
    /// The survivors of the node's open entry, as a range of
    /// `StepTrie::survivors` (a gated node has at most one open entry).
    open: (u32, u32),
}

impl Gate {
    fn insert(&mut self, gid: u32, key: Option<u64>) {
        let list = match key {
            None => &mut self.untested,
            Some(key) => match self.keyed.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(at) => &mut self.keyed[at].1,
                Err(at) => {
                    self.keyed.insert(at, (key, Vec::new()));
                    &mut self.keyed[at].1
                }
            },
        };
        list.insert(list.partition_point(|&g| g < gid), gid);
    }

    /// Takes `gid` out; returns whether no keyed group is left, i.e. the
    /// gate no longer narrows anything.
    fn remove(&mut self, gid: u32, key: Option<u64>) -> bool {
        let at = match key {
            None => None,
            Some(key) => self.keyed.binary_search_by_key(&key, |&(k, _)| k).ok(),
        };
        let list = at.map_or(&mut self.untested, |at| &mut self.keyed[at].1);
        if let Ok(pos) = list.binary_search(&gid) {
            list.remove(pos);
        }
        if let Some(at) = at.filter(|&at| self.keyed[at].1.is_empty()) {
            self.keyed.remove(at);
        }
        self.keyed.is_empty()
    }
}

/// Where a trie node's pushes land: per trie node, the `(group id,
/// machine node)` pairs it drives, ascending by group id.
pub(crate) type RouteTable = Vec<Vec<(u32, u32)>>;

/// Per-run counters of the shared-prefix runtime, reset by
/// [`StepTrie::begin_document`] and surfaced through
/// [`crate::stats::PlanStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixRunStats {
    /// Step checks executed against the trie (one per event × live node).
    pub steps_executed: u64,
    /// Per-group step checks avoided (`routes - 1` per executed check).
    pub steps_saved: u64,
    /// Per-group entry deliveries fanned out from trie pushes.
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
    /// Parent node; `None` for the root.
    parent: Option<usize>,
    /// 1-based step depth (0 for the root).
    depth: u32,
    /// Child node indices (small fan-out: linear scan beats hashing).
    children: Vec<usize>,
    /// Plan groups whose main path ends exactly here.
    terminals: Vec<usize>,
    /// The shared runtime stack (empty between documents).
    stack: Vec<TrieEntry>,
}

/// A trie over location-step paths, nodes addressed by dense indices.
#[derive(Debug)]
pub struct StepTrie {
    /// `nodes[0]` is the root (no incoming edge).
    nodes: Vec<TrieNode>,
    /// Parallel to `nodes`: the active plan groups whose main path passes
    /// through each node (including those ending there), as `(group id,
    /// the group's machine node for this step)`, **ascending by group id**
    /// — a recycled low slot re-enters in order, so an event with a single
    /// trie push expands into an already-sorted plan.
    routes: RouteTable,
    /// Symbol index → trie nodes whose step tests that name.
    by_symbol: Vec<Vec<u32>>,
    /// Trie nodes whose step is the wildcard `*`.
    wildcards: Vec<u32>,
    /// The value gates, ascending by node.
    gates: Vec<Gate>,
    /// Flat stack of the trie nodes pushed per open element: the end tag
    /// pops exactly the stacks its start tag pushed.
    open: Vec<u32>,
    /// The survivor lists of the open gated entries, outermost first.
    survivors: Vec<u32>,
    /// Per open element, the `open` and `survivors` lengths before it.
    frames: Vec<(u32, u32)>,
    /// Scratch of one gated push: the hit groups, then the union.
    hits: Vec<u32>,
    union: Vec<u32>,
    /// Runtime counters of the current (or last) document run.
    run_stats: PrefixRunStats,
}

impl StepTrie {
    /// An empty trie (root only).
    pub fn new() -> Self {
        StepTrie {
            nodes: vec![TrieNode {
                key: StepKey { axis: Axis::Child, name: None },
                parent: None,
                depth: 0,
                children: Vec::new(),
                terminals: Vec::new(),
                stack: Vec::new(),
            }],
            routes: vec![Vec::new()],
            by_symbol: Vec::new(),
            wildcards: Vec::new(),
            gates: Vec::new(),
            open: Vec::new(),
            survivors: Vec::new(),
            frames: Vec::new(),
            hits: Vec::new(),
            union: Vec::new(),
            run_stats: PrefixRunStats::default(),
        }
    }

    /// Descends `steps` from the root, creating missing nodes, and returns
    /// the terminal node's index. Does **not** change routes — the planner
    /// marks a route only when a path gains a distinct plan group.
    pub fn insert_path(&mut self, steps: &[StepKey]) -> usize {
        let mut cur = 0usize;
        for &step in steps {
            cur = match self.nodes[cur].children.iter().find(|&&c| self.nodes[c].key == step) {
                Some(&c) => c,
                None => {
                    let id = self.nodes.len();
                    let depth = self.nodes[cur].depth + 1;
                    self.nodes.push(TrieNode {
                        key: step,
                        parent: Some(cur),
                        depth,
                        children: Vec::new(),
                        terminals: Vec::new(),
                        stack: Vec::new(),
                    });
                    self.routes.push(Vec::new());
                    self.nodes[cur].children.push(id);
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
            };
        }
        cur
    }

    /// The plan groups terminating at `node`.
    pub fn terminals(&self, node: usize) -> &[usize] {
        &self.nodes[node].terminals
    }

    /// Records `group` as terminating at `node` and routes it on every
    /// node from `node` up to the root. `steps[d - 1]` is the group's step
    /// at depth `d`: the machine node a push of that trie node drives, and
    /// the key its value gate files the group under (an unanchored step
    /// has no gate and ignores the key).
    pub fn add_group(&mut self, node: usize, group: usize, steps: &[RoutedStep]) {
        debug_assert_eq!(steps.len(), self.nodes[node].depth as usize);
        self.nodes[node].terminals.push(group);
        let gid = group as u32;
        let mut cur = node;
        while let Some(parent) = self.nodes[cur].parent {
            let step = steps[self.nodes[cur].depth as usize - 1];
            let routes = &mut self.routes[cur];
            routes.insert(routes.partition_point(|&(g, _)| g < gid), (gid, step.mnode));
            match self.gate_index(cur) {
                Ok(at) => self.gates[at].insert(gid, step.key),
                Err(at) => {
                    if let Some(key) = step.key.filter(|_| self.anchored(cur)) {
                        // Until now nothing was keyed here: every other
                        // routed group is untested.
                        let untested = self.routes[cur].iter().map(|&(g, _)| g);
                        let untested = untested.filter(|&g| g != gid).collect();
                        let keyed = vec![(key, vec![gid])];
                        let gate = Gate { node: cur as u32, keyed, untested, open: (0, 0) };
                        self.gates.insert(at, gate);
                    }
                }
            }
            cur = parent;
        }
    }

    /// Unrecords `group` from `node` (the group went inactive), splicing
    /// it out of the route lists and value gates up to the root; `steps`
    /// are the ones it was added with. Trie nodes are never deleted; an
    /// empty suffix simply stops counting as shared — and, with no routes
    /// left, `StepTrie::advance` stops touching its runtime stack
    /// entirely. A gate whose last keyed group leaves is dropped.
    pub fn remove_group(&mut self, node: usize, group: usize, steps: &[RoutedStep]) {
        let terminals = &mut self.nodes[node].terminals;
        if let Some(pos) = terminals.iter().position(|&g| g == group) {
            terminals.swap_remove(pos);
            let gid = group as u32;
            let mut cur = node;
            while let Some(parent) = self.nodes[cur].parent {
                let routes = &mut self.routes[cur];
                let at = routes
                    .iter()
                    .position(|&(g, _)| g == gid)
                    .expect("terminal group is routed on its whole path");
                routes.remove(at); // order-preserving: routes stay ascending
                if let Ok(at) = self.gate_index(cur) {
                    if self.gates[at].remove(gid, steps[self.nodes[cur].depth as usize - 1].key) {
                        self.gates.remove(at);
                    }
                }
                cur = parent;
            }
        }
    }

    /// Whether every step from the root to `node` is a child step, so its
    /// stack holds at most one entry: the nodes a value gate may sit on.
    fn anchored(&self, mut node: usize) -> bool {
        while let Some(parent) = self.nodes[node].parent {
            if self.nodes[node].key.axis != Axis::Child {
                return false;
            }
            node = parent;
        }
        true
    }

    /// Where `node`'s gate is in `gates`, or where it would go.
    fn gate_index(&self, node: usize) -> Result<usize, usize> {
        self.gates.binary_search_by_key(&(node as u32), |g| g.node)
    }

    /// The nearest gate at or above `node`, as an index into `gates`.
    fn gate_at_or_above(&self, mut node: usize) -> Option<usize> {
        loop {
            if let Ok(at) = self.gate_index(node) {
                return Some(at);
            }
            node = self.nodes[node].parent?;
        }
    }

    /// The route table: per trie node, the `(group id, machine node)`
    /// pairs of the active groups routed through it, ascending by group
    /// id.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Number of active groups whose main path passes through `node`.
    pub fn route_count(&self, node: usize) -> usize {
        self.routes[node].len()
    }

    /// Whether `group` is routed anywhere in the trie (linear scan; meant
    /// for tests asserting retired groups leave no orphan state behind).
    pub fn is_routed(&self, group: usize) -> bool {
        self.routes.iter().any(|r| r.iter().any(|&(g, _)| g as usize == group))
    }

    /// Whether any **live** step — a trie node with at least one routed
    /// group — tests `sym` (or is a wildcard). A start tag for which this
    /// is false cannot advance the trie: [`StepTrie::advance`] checks
    /// exactly these nodes. The admission filter asks this per element;
    /// the first node listed is almost always live, so the scan is O(1)
    /// outside heavy churn.
    pub(crate) fn has_live_step(&self, sym: Option<Symbol>) -> bool {
        self.steps_testing(sym).any(|ni| !self.routes[ni as usize].is_empty())
    }

    /// The trie nodes whose step an element named `sym` could satisfy:
    /// the ones testing that name plus the wildcards. The two lists are
    /// disjoint and a node appears in each at most once.
    fn steps_testing(&self, sym: Option<Symbol>) -> impl Iterator<Item = u32> + '_ {
        let named: &[u32] =
            sym.and_then(|s| self.by_symbol.get(s.index())).map(Vec::as_slice).unwrap_or(&[]);
        named.iter().chain(&self.wildcards).copied()
    }

    /// Number of step nodes (the root does not count: it is not a step).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether no step has been inserted.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Step nodes on the main path of **more than one** active plan group
    /// — the prefix structure the trie shares instead of duplicating.
    pub fn shared_nodes(&self) -> usize {
        self.routes.iter().filter(|r| r.len() >= 2).count()
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
            bytes += (n.children.capacity() + n.terminals.capacity()) * size_of::<usize>();
        }
        for r in &self.routes {
            bytes += size_of::<Vec<(u32, u32)>>() + r.capacity() * size_of::<(u32, u32)>();
        }
        for list in &self.by_symbol {
            bytes += size_of::<Vec<u32>>() + list.capacity() * size_of::<u32>();
        }
        bytes += self.wildcards.capacity() * size_of::<u32>();
        bytes += self.gates.capacity() * size_of::<Gate>();
        for g in &self.gates {
            bytes += g.keyed.capacity() * size_of::<(u64, Vec<u32>)>();
            let lists = g.keyed.iter().map(|(_, l)| l).chain([&g.untested]);
            bytes += lists.map(|l| l.capacity() * size_of::<u32>()).sum::<usize>();
        }
        bytes as u64
    }

    // ------------------------------------------------------------- //
    // Runtime
    // ------------------------------------------------------------- //

    /// Clears every shared stack and open-element frame and resets the
    /// run counters — called at the start of each document run, mirroring
    /// the machines' resets (a document that ended in a parse error left
    /// its open elements behind).
    pub fn begin_document(&mut self) {
        for n in &mut self.nodes {
            n.stack.clear();
        }
        self.open.clear();
        self.survivors.clear();
        self.frames.clear();
        self.run_stats = PrefixRunStats::default();
    }

    /// Counters of the current (or last completed) document run.
    pub fn run_stats(&self) -> PrefixRunStats {
        self.run_stats
    }

    /// Total live shared-stack entries (0 between well-formed documents).
    pub fn live_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.stack.len()).sum()
    }

    /// A `startElement` against the shared stacks: checks every live trie
    /// node whose step tests `sym` (plus the wildcard nodes) against its
    /// parent's **pre-event** stack — exactly the TwigM push rule — then
    /// lets the value gates at or above each push narrow it by the tag's
    /// `attributes`, applies the pushes, records them as the element's
    /// frame, and appends them to `pushed` for the engine to fan out along
    /// the routes. One check per distinct trie node, however many groups
    /// share it. Every advance is paired with one [`StepTrie::retreat`].
    pub(crate) fn advance(
        &mut self,
        sym: Option<Symbol>,
        level: u32,
        attributes: &[Attribute],
        pushed: &mut Vec<TriePush>,
    ) {
        let base = pushed.len();
        let (mut executed, mut saved) = (0u64, 0u64);
        // Plan phase: decide every push against pre-event stacks.
        for ni in self.steps_testing(sym) {
            let node = &self.nodes[ni as usize];
            let routes = self.routes[ni as usize].len();
            if routes == 0 {
                continue; // stale path: every group on it retired
            }
            executed += 1;
            saved += routes as u64 - 1;
            let ptr = match node.parent {
                Some(0) | None => match node.key.axis {
                    Axis::Child if level != 1 => continue,
                    _ => 0, // ptr unused at the path root
                },
                Some(p) => {
                    let pstack = &self.nodes[p].stack;
                    match node.key.axis {
                        Axis::Child => match pstack.last() {
                            Some(&top) if top + 1 == level => pstack.len() as u32 - 1,
                            _ => continue,
                        },
                        Axis::Descendant => {
                            if pstack.is_empty() {
                                continue;
                            }
                            pstack.len() as u32 - 1
                        }
                    }
                }
            };
            pushed.push(TriePush { node: ni, ptr, gated: None });
        }
        self.run_stats.steps_executed += executed;
        self.run_stats.steps_saved += saved;
        self.frames.push((self.open.len() as u32, self.survivors.len() as u32));
        // Gate phase: no push of this event is below another one's gate
        // (a gated node pushes only at its own depth), so the order is free.
        if !self.gates.is_empty() {
            for p in &mut pushed[base..] {
                p.gated = self.narrow(p.node as usize, attributes);
            }
        }
        // Apply phase.
        for p in &pushed[base..] {
            let routes = &self.routes[p.node as usize];
            self.run_stats.forks += match p.survivors(&self.survivors) {
                None => routes.len() as u64,
                Some(alive) => {
                    let mut forks = 0;
                    for_each_alive(routes, |&(slot, _)| slot, alive, |_| forks += 1);
                    forks
                }
            };
            self.nodes[p.node as usize].stack.push(level);
            self.open.push(p.node);
            self.run_stats.live_entries += 1;
            self.run_stats.peak_entries =
                self.run_stats.peak_entries.max(self.run_stats.live_entries);
        }
    }

    /// The `endElement` counterpart of [`StepTrie::advance`]: pops the
    /// shared-stack entries the matching start tag pushed.
    pub(crate) fn retreat(&mut self, level: u32) {
        let (base, survivors) = self.frames.pop().expect("every retreat pairs with an advance");
        for &node in &self.open[base as usize..] {
            let top = self.nodes[node as usize].stack.pop();
            debug_assert_eq!(top, Some(level), "shared stacks pop in start-tag pairing order");
            self.run_stats.live_entries -= 1;
        }
        self.open.truncate(base as usize);
        self.survivors.truncate(survivors as usize);
    }

    /// The survivors of a push of `node` (see the module docs): `None`
    /// with no gate at or above it, the open entry's survivors of the
    /// nearest gate above it, and at a gate the untested groups plus those
    /// whose key one of `attributes` carries, among the survivors of the
    /// gate above. A new list is appended to `survivors`.
    fn narrow(&mut self, node: usize, attributes: &[Attribute]) -> Option<(u32, u32)> {
        let at = self.gate_at_or_above(node)?;
        if self.gates[at].node as usize != node {
            return Some(self.gates[at].open);
        }
        let above = self.nodes[node].parent.and_then(|p| self.gate_at_or_above(p));
        let above = above.map(|g| self.gates[g].open);
        let Self { gates, survivors, hits, union, .. } = self;
        let gate = &mut gates[at];
        hits.clear();
        let mut lists = 0;
        for a in attributes {
            let key = gate_key(a.name.as_str(), &a.value);
            if let Ok(k) = gate.keyed.binary_search_by_key(&key, |&(k, _)| k) {
                hits.extend_from_slice(&gate.keyed[k].1);
                lists += 1;
            }
        }
        if lists > 1 {
            hits.sort_unstable();
            hits.dedup();
        }
        union_into(&gate.untested, hits, union);
        let start = survivors.len() as u32;
        match above {
            None => survivors.extend_from_slice(union),
            Some((from, to)) => {
                hits.clear();
                let alive = &survivors[from as usize..to as usize];
                for_each_alive(union, |&g| g, alive, |g| hits.push(g));
                survivors.extend_from_slice(hits);
            }
        }
        gate.open = (start, survivors.len() as u32);
        Some(gate.open)
    }

    /// The current survivor lists: what the [`TriePush::gated`] ranges of
    /// this document's pushes index.
    pub(crate) fn survivors(&self) -> &[u32] {
        &self.survivors
    }

    /// Bills one shared step per `(push, routed group that pushes)` pair
    /// into the gid-indexed `bill` (cost attribution; a no-op on an empty
    /// bill, i.e. when profiling is off).
    pub(crate) fn bill_pushes(&self, pushed: &[TriePush], bill: &mut [u64]) {
        if bill.is_empty() {
            return;
        }
        for p in pushed {
            let routes = &self.routes[p.node as usize];
            for_each_pushed(routes, p.survivors(&self.survivors), |(gid, _)| {
                bill[gid as usize] += 1
            });
        }
    }
}

/// Calls `f` with every route of `routes` that a push drives: all of them
/// when `alive` is `None`, otherwise those whose slot survives.
pub(crate) fn for_each_pushed(
    routes: &[(u32, u32)],
    alive: Option<&[u32]>,
    mut f: impl FnMut((u32, u32)),
) {
    match alive {
        None => routes.iter().for_each(|&r| f(r)),
        Some(alive) => for_each_alive(routes, |&(slot, _)| slot, alive, f),
    }
}

/// Calls `f` on every item of `items` (ascending by `key`) whose key is
/// in `alive` (ascending). It walks the shorter list and gallops through
/// the longer, so it never costs more than merging the two, and one
/// survivor against a long route list costs a few probes.
fn for_each_alive<T: Copy>(
    items: &[T],
    key: impl Fn(&T) -> u32,
    alive: &[u32],
    mut f: impl FnMut(T),
) {
    if items.len() <= alive.len() {
        let mut rest = alive;
        for item in items {
            let k = key(item);
            rest = &rest[gallop(rest, |&g| g < k)..];
            match rest.first() {
                Some(&g) if g == k => f(*item),
                Some(_) => {}
                None => return,
            }
        }
    } else {
        let mut rest = items;
        for &g in alive {
            rest = &rest[gallop(rest, |item| key(item) < g)..];
            match rest.first() {
                Some(item) if key(item) == g => f(*item),
                Some(_) => {}
                None => return,
            }
        }
    }
}

/// How many leading elements of `xs` satisfy `below`, which holds on a
/// prefix of `xs`: doubling, then bisecting, in O(log answer).
fn gallop<T>(xs: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut hi = 1;
    while hi < xs.len() && below(&xs[hi]) {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + xs[lo..hi.min(xs.len())].partition_point(below)
}

/// `out` ← `a` ∪ `b`: both ascending, the union ascending without repeats.
fn union_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
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

    /// Unkeyed steps driving machine nodes `mnodes`.
    fn steps(mnodes: &[u32]) -> Vec<RoutedStep> {
        mnodes.iter().map(|&mnode| RoutedStep { mnode, key: None }).collect()
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
        t.add_group(n_ab, 1, &steps(&[0, 1]));
        assert_eq!(t.shared_nodes(), 0);
        t.add_group(n_ac, 2, &steps(&[0, 1]));
        // /a now routes two groups; the b/c leaves route one each.
        assert_eq!(t.shared_nodes(), 1);
        assert_eq!(t.terminals(n_ab), &[1]);
        assert!(t.is_routed(1) && t.is_routed(2));
        // A low slot registered late (a recycled one) enters in order:
        // routes stay ascending by group id, whatever the insertion order.
        t.add_group(n_ab, 0, &steps(&[5, 6]));
        let n_a = t.insert_path(&ab[..1]);
        assert_eq!(t.routes()[n_a], [(0, 5), (1, 0), (2, 0)]);
        assert_eq!(t.routes()[n_ab], [(0, 6), (1, 1)]);
        t.remove_group(n_ab, 1, &steps(&[0, 1]));
        assert_eq!(t.routes()[n_a], [(0, 5), (2, 0)]);
        t.remove_group(n_ab, 0, &steps(&[5, 6]));
        assert_eq!(t.shared_nodes(), 0);
        assert!(t.terminals(n_ab).is_empty());
        assert!(!t.is_routed(0) && !t.is_routed(1), "retired groups leave no route behind");
        // Removing an unknown group is a no-op.
        t.remove_group(n_ab, 99, &steps(&[0, 1]));
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
        t.add_group(n_b, 0, &steps(&[0, 1]));
        let a = i.lookup("a");
        let b = i.lookup("b");
        t.begin_document();
        let mut pushed = Vec::new();
        // <a> at level 1: a pushes (descendant root), b has no witness.
        t.advance(a, 1, &[], &mut pushed);
        assert_eq!(pushed, [TriePush { node: n_a as u32, ptr: 0, gated: None }]);
        // <x> at level 2: nothing matches.
        pushed.clear();
        t.advance(None, 2, &[], &mut pushed);
        assert!(pushed.is_empty());
        // <b> at level 3 inside <x>? No — b needs a as *direct* parent.
        t.advance(b, 3, &[], &mut pushed);
        assert!(pushed.is_empty(), "child axis needs level + 1 witness");
        t.retreat(3);
        // </x>, then <b> at level 2: direct child of the open a.
        t.retreat(2);
        t.advance(b, 2, &[], &mut pushed);
        assert_eq!(pushed, [TriePush { node: n_b as u32, ptr: 0, gated: None }]);
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
        let mut pushed = Vec::new();
        assert!(!t.has_live_step(a));
        t.advance(a, 1, &[], &mut pushed);
        assert!(pushed.is_empty(), "no routed group: the node is dormant");
        assert_eq!(t.run_stats().steps_executed, 0);
        t.add_group(n_a, 3, &steps(&[0]));
        assert!(t.has_live_step(a) && !t.has_live_step(None));
        t.advance(a, 2, &[], &mut pushed);
        assert_eq!(pushed.len(), 1);
        assert_eq!(t.run_stats().steps_executed, 1);
        // A wildcard step is live for every name, interned or not.
        let wild = t.insert_path(&[key(&mut i, Axis::Descendant, None)]);
        t.add_group(wild, 4, &steps(&[0]));
        assert!(t.has_live_step(None));
        t.remove_group(wild, 4, &steps(&[0]));
        t.remove_group(n_a, 3, &steps(&[0]));
        assert!(!t.has_live_step(a), "retiring the last group makes the step dormant again");
    }

    #[test]
    fn value_gates_keep_their_lists_in_place_and_narrow_pushes() {
        let mut i = Interner::new();
        let mut t = StepTrie::new();
        let [r, a, b] = ["r", "a", "b"].map(|n| key(&mut i, Axis::Child, Some(n)));
        let n_b = t.insert_path(&[r, a, b]);
        let n_a = t.insert_path(&[r, a]);
        let deep = t.insert_path(&[r, key(&mut i, Axis::Descendant, Some("a"))]);
        let (x, y, v) = (gate_key("id", "x"), gate_key("id", "y"), gate_key("k", "v"));
        let route = |keys: &[Option<u64>]| -> Vec<RoutedStep> {
            let steps = keys.iter().enumerate();
            steps.map(|(m, &key)| RoutedStep { mnode: m as u32, key }).collect()
        };
        // /r/a[@id = 'x']/b as groups 3 and 0 (the lower one registered
        // late, like a recycled slot), /r/a/b (1), /r/a[@id = 'y']/b (2),
        // /r/a[@id = 'x']/b[@k = 'v'] (4), and /r//a[@id = 'x'] (5): a
        // `//` above its step, so no gate takes it.
        let set = [
            (3, route(&[None, Some(x), None])),
            (1, route(&[None, None, None])),
            (2, route(&[None, Some(y), None])),
            (4, route(&[None, Some(x), Some(v)])),
            (0, route(&[None, Some(x), None])),
        ];
        for (g, steps) in &set {
            t.add_group(n_b, *g, steps);
        }
        t.add_group(deep, 5, &route(&[None, Some(x)]));
        let lists = |t: &StepTrie, node: usize, key: u64| {
            let gate = &t.gates[t.gate_index(node).expect("gated")];
            let keyed = gate.keyed.iter().find(|(k, _)| *k == key).map(|(_, l)| l.clone());
            (keyed.unwrap_or_default(), gate.untested.clone())
        };
        assert_eq!(t.gates.iter().map(|g| g.node as usize).collect::<Vec<_>>(), [n_a, n_b]);
        assert_eq!(lists(&t, n_a, x), (vec![0, 3, 4], vec![1]), "two groups, one literal");
        assert_eq!(lists(&t, n_a, y).0, [2]);
        assert_eq!(lists(&t, n_b, v), (vec![4], vec![0, 1, 2, 3]), "a nested gate");

        let (sym_r, sym_a, sym_b) = (i.lookup("r"), i.lookup("a"), i.lookup("b"));
        let tag = |pairs: &[(&str, &str)]| -> Vec<Attribute> {
            pairs.iter().map(|&(n, v)| Attribute::new(n, v)).collect()
        };
        let survivors = |t: &StepTrie, pushed: &[TriePush]| -> Vec<Option<Vec<u32>>> {
            pushed.iter().map(|p| p.survivors(t.survivors()).map(<[u32]>::to_vec)).collect()
        };
        t.begin_document();
        let mut pushed = Vec::new();
        t.advance(sym_r, 1, &tag(&[("id", "x")]), &mut pushed);
        assert_eq!(survivors(&t, &pushed), [None], "no gate at or above /r");
        let forks = t.run_stats().forks;
        pushed.clear();
        // `<a id="x">` pushes /r/a (gated) and /r//a (not).
        t.advance(sym_a, 2, &tag(&[("id", "x")]), &mut pushed);
        assert_eq!(survivors(&t, &pushed), [Some(vec![0, 1, 3, 4]), None]);
        for (attrs, alive) in [(tag(&[("k", "v")]), vec![0, 1, 3, 4]), (tag(&[]), vec![0, 1, 3])] {
            pushed.clear();
            t.advance(sym_b, 3, &attrs, &mut pushed);
            assert_eq!(survivors(&t, &pushed), [Some(alive)], "the gate above narrows /r/a/b");
            t.retreat(3);
        }
        t.retreat(2);
        assert_eq!(t.run_stats().forks - forks, 4 + 1 + 4 + 3, "forks count survivors");
        assert!(t.survivors().is_empty(), "</a> drops its survivor list");
        pushed.clear();
        // A hit on `y` and a miss on `k`: the untested group and group 2.
        t.advance(sym_a, 2, &tag(&[("id", "y"), ("k", "x")]), &mut pushed);
        assert_eq!(survivors(&t, &pushed)[0], Some(vec![1, 2]));
        t.retreat(2);
        t.retreat(1);

        // Upkeep: the last keyed group of a gate takes the gate with it;
        // the untested groups it kept stay routed.
        t.remove_group(n_b, 2, &set[2].1);
        assert_eq!(lists(&t, n_a, y).0, [] as [u32; 0], "an emptied key goes");
        t.remove_group(n_b, 4, &set[3].1);
        assert!(t.gate_index(n_b).is_err(), "/r/a/b lost its last keyed group");
        t.remove_group(n_b, 3, &set[0].1);
        t.remove_group(n_b, 0, &set[4].1);
        assert!(t.gates.is_empty() && t.route_count(n_b) == 1, "only /r/a/b is left");
        t.add_group(n_b, 0, &set[4].1);
        assert_eq!(lists(&t, n_a, x), (vec![0], vec![1]), "a new gate takes the routed groups");
    }
}
