//! The multi-query **planner**: batches standing queries into a shared
//! execution plan instead of k independent machines.
//!
//! The paper's pub/sub motivation (stock tickers, personalized
//! newspapers) registers thousands of subscriptions over one stream, and
//! realistic subscription sets overlap heavily — many are literally
//! identical, most share long `/site/…`-style prefixes. The planner
//! collapses that redundancy in two layers:
//!
//! 1. **Canonicalization + dedup** — each query is reduced to its
//!    canonical structural form ([`vitex_xpath::QueryTree::canonical_key`]:
//!    predicate order sorted away). Structurally equal queries join one
//!    [`PlanGroup`] sharing a single TwigM machine; the group fans each
//!    solution out to every subscriber id. Matching happens **once** per
//!    distinct query shape, not once per registration.
//! 2. **Shared-prefix trie** — main-path steps (axis + interned name
//!    test) are inserted into a [`StepTrie`], so queries sharing prefixes
//!    share trie nodes. The trie doubles as the grouping index (candidate
//!    groups live at the terminal node, so registration compares canonical
//!    keys against a handful of candidates, not against every group) and
//!    as the measurement substrate for [`PlanStats`] (shared-node counts,
//!    dedup ratio).
//! 3. **The trie executes** — it is also the **runtime** structure whose
//!    nodes own the shared main-path match state (see [`trie`]): a start
//!    tag advances each common prefix once per event and only forks into
//!    per-group machines where queries diverge — predicates, branches,
//!    suffix steps. There is no other way a multi-query start tag is
//!    applied.

pub mod group;
pub mod trie;

pub use group::PlanGroup;
pub(crate) use trie::RouteTable;
pub use trie::{PrefixRunStats, StepKey, StepTrie, TriePush};

use vitex_xpath::query_tree::{NodeKind, QueryTree};

use crate::builder::{BuildError, EvalMode, MachineSpec};
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
    /// registration — `false` means the query joined an existing machine.
    pub created: bool,
}

/// Plans standing queries into deduplicated, prefix-shared groups.
#[derive(Debug, Default)]
pub struct QueryPlanner {
    trie: StepTrie,
    /// Group slots, dense indices. A slot whose group retires (every
    /// subscriber removed) goes onto [`QueryPlanner::free_slots`] and is
    /// **recycled** by a later registration, so long churny add/remove
    /// sessions keep the id space — and with it the engine's dispatch
    /// bitsets — from growing without bound. Between retirement and reuse
    /// the slot still holds the retired group (inactive), so dispatch
    /// structures can read its spec while unwiring it.
    groups: Vec<PlanGroup>,
    /// Retired slots available for reuse, most recently retired last.
    free_slots: Vec<usize>,
    /// Cumulative count of slot reuses ([`PlanStats::recycled_slots`]).
    recycled: u64,
    active_groups: usize,
    active_queries: usize,
}

impl QueryPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        QueryPlanner::default()
    }

    /// Registers `tree` for subscriber `id`: joins the existing group of a
    /// structural duplicate, otherwise compiles a new machine (interning
    /// its nametests in `interner`).
    pub fn register(
        &mut self,
        tree: &QueryTree,
        id: QueryId,
        interner: &mut Interner,
    ) -> Result<Registration, BuildError> {
        let steps = self.main_path_steps(tree, interner);
        let terminal = self.trie.insert_path(&steps);
        let canonical = tree.canonical_key();
        let hash = QueryTree::hash_canonical(&canonical);
        let existing = self.trie.terminals(terminal).iter().copied().find(|&g| {
            let group = &self.groups[g];
            group.is_active() && group.stable_hash() == hash && group.canonical_key() == canonical
        });
        if let Some(g) = existing {
            self.groups[g].subscribe(id);
            self.active_queries += 1;
            return Ok(Registration { group: g, created: false });
        }
        let spec = MachineSpec::compile_with(tree, interner)?;
        // The machine node each main-path step drives, in step order:
        // what a push of the trie node at that depth lands on.
        let main_nodes: Vec<u32> =
            (0..spec.len()).filter(|&q| spec.nodes[q].is_main).map(|q| q as u32).collect();
        let machine = TwigM::from_spec(spec, EvalMode::Compact);
        let group = PlanGroup::new(machine, canonical, hash, terminal, id);
        let gid = match self.free_slots.pop() {
            Some(slot) => {
                // Recycle a retired slot: the engine unwired the old
                // group's dispatch bits at retirement, so the slot is
                // clean to repopulate in place.
                self.recycled += 1;
                self.groups[slot] = group;
                slot
            }
            None => {
                self.groups.push(group);
                self.groups.len() - 1
            }
        };
        self.trie.add_group(terminal, gid, &main_nodes);
        self.active_groups += 1;
        self.active_queries += 1;
        Ok(Registration { group: gid, created: true })
    }

    /// Removes subscriber `id` from group `gid`; returns whether it was
    /// the group's **last** subscriber (the group is now inactive and the
    /// engine must stop dispatching to it). An id that is not subscribed
    /// to `gid` changes nothing and returns `false`.
    pub fn unsubscribe(&mut self, gid: usize, id: QueryId) -> bool {
        let Some(last) = self.groups[gid].unsubscribe(id) else {
            return false;
        };
        self.active_queries -= 1;
        if last {
            self.active_groups -= 1;
            self.trie.remove_group(self.groups[gid].trie_node(), gid);
            self.free_slots.push(gid);
        }
        last
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

    /// Splits the planner into the disjoint borrows execution needs: the
    /// runtime trie is advanced once per event while the group machines
    /// are driven from its push decisions.
    pub(crate) fn run_split(&mut self) -> (&mut StepTrie, &mut [PlanGroup]) {
        (&mut self.trie, &mut self.groups)
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
        self.active_groups
    }

    /// Plan-level statistics. `interner` contributes its table bytes: the
    /// symbol table is part of the shared plan's resident structure.
    pub fn stats(&self, interner: &Interner) -> PlanStats {
        let mut stats = self.stats_sans_group_bytes(interner);
        stats.plan_bytes += resident_bytes(&self.groups);
        stats
    }

    /// [`QueryPlanner::stats`] with `plan_bytes` short of the groups'
    /// resident bytes — the one part of the plan a streamed document
    /// moves (stack capacity grows). A session snapshots this when it
    /// opens and adds [`resident_bytes`] after each document, so a
    /// one-document session walks the groups' bytes once, not twice.
    pub(crate) fn stats_sans_group_bytes(&self, interner: &Interner) -> PlanStats {
        let active = self.groups.iter().filter(|g| g.is_active());
        let machine_nodes = active.map(|g| g.machine().spec().len() as u64).sum();
        let run = self.trie.run_stats();
        PlanStats {
            queries: self.active_queries as u64,
            groups: self.active_groups as u64,
            recycled_slots: self.recycled,
            machine_nodes,
            trie_nodes: self.trie.len() as u64,
            shared_trie_nodes: self.trie.shared_nodes() as u64,
            plan_bytes: self.trie.approx_bytes() + interner.heap_bytes(),
            prefix_steps_executed: run.steps_executed,
            prefix_steps_saved: run.steps_saved,
            prefix_forks: run.forks,
            prefix_stack_bytes: run.peak_stack_bytes(),
        }
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

/// Resident bytes of the active groups among `groups` (stack capacity
/// grows with the documents seen, so this is re-read per document).
pub(crate) fn resident_bytes(groups: &[PlanGroup]) -> u64 {
    groups.iter().filter(|g| g.is_active()).map(PlanGroup::approx_bytes).sum()
}

#[cfg(test)]
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
