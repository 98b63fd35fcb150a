//! The multi-query **planner**: batches standing queries into a shared
//! execution plan instead of k independent machines.
//!
//! The paper's pub/sub motivation (stock tickers, personalized
//! newspapers) registers thousands of subscriptions over one stream, and
//! realistic subscription sets overlap heavily — many are literally
//! identical, many differ only in the value they look for, most share
//! long `/site/…`-style prefixes. The planner collapses that redundancy in
//! layers:
//!
//! 1. **Shapes** — each query is reduced to its shape key
//!    ([`vitex_xpath::QueryTree::shape_key`]: the canonical structural
//!    form, predicate order sorted away, with the literal of its one
//!    `= 'string'` predicate leaf erased, or, without one, of its one
//!    inline `[@name = 'string']` test). Queries of one shape join one
//!    [`PlanGroup`] sharing a single TwigM machine, whose binding table
//!    files each subscriber under the literal it tests; the group fans each
//!    solution out to the subscribers of the bindings it reaches.
//!    Structurally identical queries are the one-binding case. Matching
//!    happens **once** per distinct shape, not once per registration or
//!    per literal, and a literal joins or leaves a live shape without a
//!    compilation.
//! 2. **Shared-prefix trie** — element steps (axis + interned name test)
//!    are inserted into a [`StepTrie`]: the main path from the root, and
//!    each predicate step below the node of the step it qualifies, so
//!    queries sharing step paths share trie nodes whether a step is on
//!    their main path or in a predicate. Every machine node is routed on
//!    the trie node of its step path. The trie doubles as the grouping
//!    index (candidate groups live at the main path's terminal node, so
//!    registration compares shape keys against a handful of candidates,
//!    not against every group) and as the measurement substrate for
//!    [`PlanStats`] (shared-node counts, dedup ratio).
//! 3. **The trie routes** — it also decides every push, and keeps no
//!    run-time state of its own (see [`trie`]): the machines hold the
//!    stacks, and every machine node routed on a trie node holds the same
//!    stack shape, so a start tag checks each live step once per event, on
//!    the step's first routed machine, and forks into per-group machines
//!    along the routes, where flags and candidates diverge. It is the one
//!    place a multi-query start tag's pushes are decided.

pub mod group;
pub mod trie;

pub use group::PlanGroup;
pub use trie::{StepKey, StepTrie};

use vitex_xpath::query_tree::{NodeKind, QueryTree};

use crate::builder::{BuildError, MachineSpec, Role};
use crate::intern::Interner;
use crate::machine::TwigM;
use crate::result::QueryId;
use crate::stats::PlanStats;

/// The outcome of registering one query with the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// Index of the plan group now serving the query.
    pub group: usize,
    /// Whether the group (and its machine) was created by this
    /// registration — `false` means the query joined an existing machine,
    /// under its literal's binding or a new one, and nothing was compiled.
    pub created: bool,
}

/// Plans standing queries into deduplicated, prefix-shared groups.
#[derive(Debug, Default)]
pub struct QueryPlanner {
    trie: StepTrie,
    /// Group slots, dense indices. A slot whose group retires (every
    /// subscriber removed) goes onto [`QueryPlanner::free_slots`] and is
    /// **recycled** by a later registration, so long churny add/remove
    /// sessions keep the id space — and with it the engine's per-slot
    /// bitsets — from growing without bound. Between retirement and reuse
    /// the slot still holds the retired group (inactive).
    groups: Vec<PlanGroup>,
    /// Retired slots available for reuse, most recently retired last.
    free_slots: Vec<usize>,
    /// Cumulative count of slot reuses ([`PlanStats::recycled_slots`]).
    recycled: u64,
    active_queries: usize,
    /// [`QueryPlanner::stats`] as its last walk found it: `None` once a
    /// registration or removal changed the plan. Documents do not move it.
    cached: Option<PlanStats>,
}

impl QueryPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        QueryPlanner::default()
    }

    /// Registers `tree` for subscriber `id`: joins the existing group of
    /// its shape (under its literal's binding), otherwise compiles a new
    /// machine (interning its nametests in `interner`).
    pub fn register(
        &mut self,
        tree: &QueryTree,
        id: QueryId,
        interner: &mut Interner,
    ) -> Result<Registration, BuildError> {
        self.cached = None;
        let steps = self.main_path_steps(tree, interner);
        let terminal = self.trie.insert_path(&steps);
        let (key, literal) = tree.shape_key();
        let existing = self.trie.terminals(terminal).iter().map(|&g| g as usize).find(|&g| {
            let group = &self.groups[g];
            group.is_active() && group.shape_key() == key
        });
        if let Some(g) = existing {
            self.groups[g].subscribe(id, literal);
            self.active_queries += 1;
            return Ok(Registration { group: g, created: false });
        }
        let spec = MachineSpec::compile_with(tree, interner)?;
        let routes = self.routes(&spec, terminal, interner);
        let machine = TwigM::from_spec(spec);
        let group = PlanGroup::new(machine, key, terminal, id);
        let gid = match self.free_slots.pop() {
            Some(slot) => {
                // Recycle a retired slot: the trie and the engine unwired
                // the old group at retirement, so the slot is clean to
                // repopulate in place.
                self.recycled += 1;
                self.groups[slot] = group;
                slot
            }
            None => {
                self.groups.push(group);
                self.groups.len() - 1
            }
        };
        self.trie.add_group(terminal, gid, &routes);
        self.active_queries += 1;
        Ok(Registration { group: gid, created: true })
    }

    /// Removes subscriber `id` from group `gid` (and its literal's binding,
    /// if it was the last to test it); returns whether it was the group's
    /// **last** subscriber (the group is now inactive and the engine must
    /// stop dispatching to it). An id that is not subscribed to `gid`
    /// changes nothing and returns `false`.
    pub fn unsubscribe(&mut self, gid: usize, id: QueryId) -> bool {
        let Some(last) = self.groups[gid].unsubscribe(id) else {
            return false;
        };
        self.cached = None;
        self.active_queries -= 1;
        if last {
            self.trie.remove_group(self.groups[gid].trie_node(), gid);
            self.free_slots.push(gid);
        }
        last
    }

    /// Drops the spare group slots: for a plan that will not change again.
    /// (Slots are run-time capacity; the plan's bytes do not count them.)
    pub(crate) fn shrink_to_fit(&mut self) {
        self.groups.shrink_to_fit();
    }

    /// All group slots (inactive, not-yet-recycled slots included), dense
    /// indices. The slot count is bounded by the *peak* concurrent group
    /// count, not the registration history — retirement recycles slots.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// The shared step trie (read-only).
    pub fn trie(&self) -> &StepTrie {
        &self.trie
    }

    /// Splits the planner into the borrows a document's events need: the
    /// trie, read to decide each start tag's pushes, and the group machines
    /// driven from its decisions.
    pub(crate) fn runtime(&mut self) -> (&StepTrie, &mut [PlanGroup]) {
        (&self.trie, &mut self.groups)
    }

    /// One group by index.
    pub fn group(&self, gid: usize) -> &PlanGroup {
        &self.groups[gid]
    }

    /// Active subscription count.
    pub fn query_count(&self) -> usize {
        self.active_queries
    }

    /// Active group count (machines actually running).
    pub fn group_count(&self) -> usize {
        self.groups.len() - self.free_slots.len()
    }

    /// The plan's shape, computed from scratch: a walk over every group,
    /// trie node and interned name. `interner` contributes its table bytes:
    /// the symbol table is part of the shared plan's resident structure.
    /// The `prefix_*` run counters are the executor's, and zero here.
    pub fn stats(&self, interner: &Interner) -> PlanStats {
        let active = self.groups.iter().filter(|g| g.is_active());
        let (machine_nodes, group_bytes) = active.fold((0, 0), |(nodes, bytes), g| {
            (nodes + g.machine().spec().len() as u64, bytes + g.approx_bytes())
        });
        PlanStats {
            queries: self.active_queries as u64,
            groups: self.group_count() as u64,
            recycled_slots: self.recycled,
            machine_nodes,
            trie_nodes: self.trie.len() as u64,
            shared_trie_nodes: self.trie.shared_nodes() as u64,
            plan_bytes: self.trie.approx_bytes() + interner.heap_bytes() + group_bytes,
            ..PlanStats::default()
        }
    }

    /// [`QueryPlanner::stats`] without the walk: the plan's shape from the
    /// cache, filled by one walk after a registration or removal.
    pub(crate) fn cached_stats(&mut self, interner: &Interner) -> PlanStats {
        match self.cached {
            Some(shape) => shape,
            None => *self.cached.insert(self.stats(interner)),
        }
    }

    /// Whether a registration or removal changed the plan since a
    /// document's epilogue last cached its statistics.
    pub(crate) fn changed_since_document(&self) -> bool {
        self.cached.is_none()
    }

    /// Where each node of `spec` routes: `(trie node, machine node)`, the
    /// trie node of the machine node's step path — its parent's trie node's
    /// child along its own step (parents precede children), main path and
    /// predicates alike. The main path's nodes exist already, down to
    /// `terminal`.
    fn routes(
        &mut self,
        spec: &MachineSpec,
        terminal: usize,
        interner: &mut Interner,
    ) -> Vec<(usize, u32)> {
        let mut at: Vec<usize> = Vec::with_capacity(spec.len());
        for node in &spec.nodes {
            let name = node.name.as_deref().map(|n| interner.intern(n));
            let parent = node.parent().map_or(0, |p| at[p]);
            at.push(self.trie.child(parent, StepKey { axis: node.axis, name }));
        }
        debug_assert_eq!(
            spec.nodes.iter().rposition(|n| !matches!(n.role, Role::Pred(..))).map(|q| at[q]),
            Some(terminal),
            "the main path's last node lands on the terminal"
        );
        at.into_iter().zip(0..).collect()
    }

    /// The trie keys of `tree`'s main path: element steps only (attribute
    /// and `text()` result steps fold into their parent machine node and
    /// are disambiguated by the canonical key at the terminal).
    fn main_path_steps(&self, tree: &QueryTree, interner: &mut Interner) -> Vec<StepKey> {
        tree.main_path()
            .iter()
            .filter_map(|&id| {
                let node = tree.node(id);
                match &node.kind {
                    NodeKind::Element { name } => Some(StepKey {
                        axis: node.axis,
                        name: name.as_deref().map(|n| interner.intern(n)),
                    }),
                    NodeKind::Attribute { .. } | NodeKind::Text => None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    fn register(
        planner: &mut QueryPlanner,
        interner: &mut Interner,
        q: &str,
        id: usize,
    ) -> Registration {
        let tree = QueryTree::parse(q).unwrap();
        planner.register(&tree, QueryId(id), interner).unwrap()
    }

    /// Which machine nodes an element's name reaches is decided by the step
    /// trie, and depends on the query alone, never on how many names the
    /// shared interner holds: the routes of the live steps testing a name
    /// are exactly the machine nodes testing it.
    #[test]
    fn the_steps_a_name_selects_do_not_depend_on_the_interner_population() {
        let tree = QueryTree::parse("//a[b]/a/c").unwrap();
        let names = ["a", "b", "c", "unrelated4999"];
        let selected = |crowd: usize| {
            let (mut p, mut interner) = (QueryPlanner::new(), Interner::new());
            for i in 0..crowd {
                interner.intern(&format!("unrelated{i}"));
            }
            p.register(&tree, QueryId(0), &mut interner).unwrap();
            let spec = p.group(0).machine().spec();
            names.map(|name| {
                let mut routes = p.trie.routes_testing(interner.lookup(name));
                routes.sort_unstable();
                let nodes = spec.nodes.iter().enumerate();
                let testing = nodes.filter(|(_, n)| n.name.as_deref() == Some(name));
                let testing: Vec<(u32, u32)> = testing.map(|(q, _)| (0, q as u32)).collect();
                assert_eq!(routes, testing, "the machine nodes testing {name}");
                routes
            })
        };
        let (fresh, crowded) = (selected(0), selected(5000));
        assert_eq!(crowded, fresh);
        assert_eq!(fresh.map(|r| r.len()), [2, 1, 1, 0], "a, b and c are tested; nothing else");
    }

    #[test]
    fn identical_queries_share_one_machine() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let a = register(&mut p, &mut i, "//a[b and c]/d", 0);
        let b = register(&mut p, &mut i, "//a[c][ b ]/d", 1); // same canonical form
        assert!(a.created);
        assert!(!b.created);
        assert_eq!(a.group, b.group);
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.query_count(), 2);
        assert_eq!(p.group(a.group).subscribers(), &[QueryId(0), QueryId(1)]);
    }

    #[test]
    fn distinct_queries_get_distinct_groups() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let a = register(&mut p, &mut i, "//a/b", 0);
        let b = register(&mut p, &mut i, "//a/c", 1);
        let c = register(&mut p, &mut i, "//a//b", 2);
        assert!(a.created && b.created && c.created);
        assert_eq!(p.group_count(), 3);
        // //a/b/@id shares the full element path with //a/b but is a
        // different query: same terminal, different group.
        let d = register(&mut p, &mut i, "//a/b/@id", 3);
        assert!(d.created);
        assert_ne!(d.group, a.group);
        assert_eq!(p.group(d.group).trie_node(), p.group(a.group).trie_node());
    }

    #[test]
    fn unsubscribe_retires_groups() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let a = register(&mut p, &mut i, "//a", 0);
        register(&mut p, &mut i, "//a", 1);
        assert!(!p.unsubscribe(a.group, QueryId(0)), "one subscriber left");
        assert!(p.unsubscribe(a.group, QueryId(1)), "group now inactive");
        assert_eq!(p.group_count(), 0);
        assert_eq!(p.query_count(), 0);
        // A fresh registration starts a new group *in the recycled slot*:
        // the id space is bounded by peak concurrency, not churn history.
        let c = register(&mut p, &mut i, "//a", 2);
        assert!(c.created);
        assert_eq!(c.group, a.group, "retired slot is recycled");
        assert_eq!(p.stats(&i).recycled_slots, 1);
    }

    #[test]
    fn churny_sessions_recycle_slots_and_bound_the_id_space() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let first = register(&mut p, &mut i, "//a/b", 0);
        p.unsubscribe(first.group, QueryId(0));
        for round in 1..100usize {
            // Alternate shapes so recycling is not just same-shape reuse.
            let q = if round % 2 == 0 { "//a/b" } else { "//c[d]" };
            let r = register(&mut p, &mut i, q, round);
            assert!(r.created);
            assert!(r.group < 1, "single live group must stay in slot 0, got {}", r.group);
            p.unsubscribe(r.group, QueryId(round));
        }
        assert_eq!(p.groups().len(), 1, "churn must not grow the slot table");
        assert_eq!(p.stats(&i).recycled_slots, 99);
        assert_eq!(p.group_count(), 0);
    }

    #[test]
    fn unsubscribing_an_unknown_id_leaves_counters_intact() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let a = register(&mut p, &mut i, "//a", 0);
        assert!(!p.unsubscribe(a.group, QueryId(42)), "not a subscriber");
        assert_eq!(p.query_count(), 1);
        assert_eq!(p.group_count(), 1);
        assert!(p.unsubscribe(a.group, QueryId(0)));
        assert!(!p.unsubscribe(a.group, QueryId(0)), "already removed");
        assert_eq!(p.query_count(), 0);
        assert_eq!(p.group_count(), 0);
    }

    #[test]
    fn pop_time_string_literals_share_a_shape_and_the_rest_do_not() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let group =
            |p: &mut QueryPlanner, i: &mut Interner, q: &str, id| register(p, i, q, id).group;
        // One `= 'string'` element leaf: the literal is a binding.
        for shape in ["//item[payment = $]/@id", "/r/a[b/c = $]//d", "//a[@id = 'k'][b = $]/c"] {
            let at = |l: &str| shape.replace('$', &format!("'{l}'"));
            let g = group(&mut p, &mut i, &at("x"), 0);
            assert_eq!(group(&mut p, &mut i, &at("y"), 1), g, "{shape}");
            assert_eq!(p.group(g).machine().binding_count(), 2, "{shape}");
        }
        // Everything else keys by its literal: a group per query.
        for (n, shape) in ["//a[b != $]", "//a[b < $]", "//a[text() = $]", "//a[b = $][c = 'v']"]
            .into_iter()
            .enumerate()
        {
            let at = |l: &str| shape.replace('$', &format!("'{l}'"));
            let g = group(&mut p, &mut i, &at("x"), 10 + n);
            assert_ne!(group(&mut p, &mut i, &at("y"), 20 + n), g, "{shape}");
            assert_eq!(p.group(g).machine().binding_count(), 1, "{shape}");
        }
        let numeric = group(&mut p, &mut i, "//a[b = 1]", 30);
        assert_ne!(group(&mut p, &mut i, "//a[b = 2]", 31), numeric, "numeric literals");
        assert_eq!(p.group_count(), 3 + 2 * 4 + 2);
    }

    #[test]
    fn inline_attribute_literals_share_a_shape_and_the_rest_do_not() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let group =
            |p: &mut QueryPlanner, i: &mut Interner, q: &str, id| register(p, i, q, id).group;
        let at = |shape: &str, l: &str| shape.replace('$', &format!("'{l}'"));
        // One named `= 'string'` attribute test and no such element: the
        // literal is a binding, on the main path, under `//` or on a
        // predicate node.
        for shape in
            ["/r/a[@id = $]/b", "//item[@id = $]//name", "//p[q[@i = $]]/n", "//a[@id = $]/@id"]
        {
            let g = group(&mut p, &mut i, &at(shape, "x"), 0);
            assert_eq!(group(&mut p, &mut i, &at(shape, "y"), 1), g, "{shape}");
            assert_eq!(p.group(g).machine().binding_count(), 2, "{shape}");
        }
        // `@*`, `!=`, two candidates, and an element leaf beside it: the
        // attribute literal stays in the key.
        for (n, shape) in
            ["//a[@* = $]", "//a[@id != $]", "//a[@id = $][@k = 'v']", "//a[@id = $][b = 'v']"]
                .into_iter()
                .enumerate()
        {
            let g = group(&mut p, &mut i, &at(shape, "x"), 10 + n);
            assert_ne!(group(&mut p, &mut i, &at(shape, "y"), 20 + n), g, "{shape}");
            assert_eq!(p.group(g).machine().binding_count(), 1, "{shape}");
        }
        let numeric = group(&mut p, &mut i, "//a[@id = 1]", 30);
        assert_ne!(group(&mut p, &mut i, "//a[@id = 2]", 31), numeric, "numeric literals");
        assert_eq!(p.group_count(), 4 + 2 * 4 + 2);
    }

    #[test]
    fn a_literal_joins_and_leaves_a_live_shape_without_compiling() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        let first = register(&mut p, &mut i, "//person[emailaddress = 'a']/name", 0);
        assert!(first.created);
        let (spec, names) = (p.group(first.group).machine().spec().clone(), i.len());
        for (id, literal) in [(1, "b"), (2, "a"), (3, "c")] {
            let q = format!("//person[emailaddress = '{literal}']/name");
            let r = register(&mut p, &mut i, &q, id);
            assert_eq!(r, Registration { group: first.group, created: false }, "{literal}");
        }
        let g = p.group(first.group);
        assert_eq!(
            (g.machine().spec(), i.len()),
            (&spec, names),
            "nothing was compiled or interned"
        );
        assert_eq!(g.subscribers(), [0, 2, 1, 3].map(QueryId), "binding `a`, then `b`, then `c`");
        assert_eq!((p.query_count(), p.group_count(), p.groups().len()), (4, 1, 1));

        // Dropping bindings one subscriber at a time; the last one retires
        // the group and frees its slot for the next shape.
        for (id, last) in [(1, false), (0, false), (3, false), (2, true)] {
            assert_eq!(p.unsubscribe(first.group, QueryId(id)), last, "{id}");
        }
        assert_eq!((p.query_count(), p.group_count()), (0, 0));
        assert!(!p.trie().is_routed(first.group), "the retired group is unrouted");
        let next = register(&mut p, &mut i, "//item[payment = 'x']/@id", 4);
        assert_eq!((next.group, next.created), (first.group, true), "the slot is recycled");
        assert_eq!(p.stats(&i).recycled_slots, 1);
    }

    #[test]
    fn stats_report_sharing() {
        let mut p = QueryPlanner::new();
        let mut i = Interner::new();
        register(&mut p, &mut i, "/site/people/person", 0);
        register(&mut p, &mut i, "/site/people/person", 1); // duplicate
        register(&mut p, &mut i, "/site/regions/africa", 2);
        let s = p.stats(&i);
        assert_eq!(s.queries, 3);
        assert_eq!(s.groups, 2);
        assert_eq!(s.dedup_ratio(), 1.5);
        // site, people, person, regions, africa = 5 trie nodes; only
        // /site carries both groups.
        assert_eq!(s.trie_nodes, 5);
        assert_eq!(s.shared_trie_nodes, 1);
        assert!(s.plan_bytes > 0);
        assert!(s.machine_nodes >= 2);
    }
}
