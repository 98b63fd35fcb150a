//! A **plan group**: one shared TwigM machine plus the list of
//! subscribers it answers for.
//!
//! Deduplication is the workhorse of the shared plan: when k standing
//! queries are structurally identical after canonicalization, the group
//! runs *one* machine over the stream and fans every emitted solution out
//! to all k subscriber ids — per-event work and machine memory stop
//! scaling with duplicate registrations.

use crate::machine::TwigM;
use crate::result::QueryId;

/// One deduplicated unit of execution in a shared query plan.
#[derive(Debug)]
pub struct PlanGroup {
    machine: TwigM,
    /// Subscribing queries, registration order (fan-out order).
    subscribers: Vec<QueryId>,
    /// The canonical key every subscriber shares
    /// ([`vitex_xpath::QueryTree::canonical_key`]).
    canonical: String,
    /// Stable hash of `canonical` — compared before the string.
    hash: u64,
    /// Terminal node of the group's main path in the planner's step trie.
    trie_node: usize,
}

impl PlanGroup {
    /// A new group with its first subscriber.
    pub(crate) fn new(
        machine: TwigM,
        canonical: String,
        hash: u64,
        trie_node: usize,
        first: QueryId,
    ) -> Self {
        PlanGroup { machine, subscribers: vec![first], canonical, hash, trie_node }
    }

    /// The shared machine.
    pub fn machine(&self) -> &TwigM {
        &self.machine
    }

    /// Mutable access to the shared machine (the engine resets it).
    pub(crate) fn machine_mut(&mut self) -> &mut TwigM {
        &mut self.machine
    }

    /// Splits the borrow for the event loop: the machine is driven
    /// mutably while the emit callback reads the subscriber list.
    pub(crate) fn machine_and_subscribers(&mut self) -> (&mut TwigM, &[QueryId]) {
        (&mut self.machine, &self.subscribers)
    }

    /// Subscribing query ids, registration order.
    pub fn subscribers(&self) -> &[QueryId] {
        &self.subscribers
    }

    /// Whether any subscriber remains.
    pub fn is_active(&self) -> bool {
        !self.subscribers.is_empty()
    }

    /// The canonical key shared by every subscriber.
    pub fn canonical_key(&self) -> &str {
        &self.canonical
    }

    /// Stable hash of the canonical key.
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    /// Terminal trie node of the group's main path.
    pub(crate) fn trie_node(&self) -> usize {
        self.trie_node
    }

    /// Adds a subscriber (idempotence is the caller's concern: every
    /// registration gets a fresh [`QueryId`]).
    pub(crate) fn subscribe(&mut self, id: QueryId) {
        self.subscribers.push(id);
    }

    /// Removes a subscriber. Returns `Some(last)` when the id was
    /// subscribed — `last` meaning it was the final one and the group is
    /// now inactive — and `None` for unknown ids (nothing changed), so
    /// callers can keep their own counters consistent.
    pub(crate) fn unsubscribe(&mut self, id: QueryId) -> Option<bool> {
        let pos = self.subscribers.iter().position(|&s| s == id)?;
        self.subscribers.remove(pos);
        Some(self.subscribers.is_empty())
    }

    /// Approximate bytes of the group at rest: the shared machine plus
    /// bookkeeping.
    pub fn approx_bytes(&self) -> u64 {
        self.machine.approx_build_bytes()
            + (self.subscribers.capacity() * std::mem::size_of::<QueryId>()) as u64
            + self.canonical.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EvalMode, MachineSpec};
    use vitex_xpath::QueryTree;

    fn group() -> PlanGroup {
        let tree = QueryTree::parse("//a[b]").unwrap();
        let machine = TwigM::from_spec(MachineSpec::compile(&tree).unwrap(), EvalMode::Compact);
        PlanGroup::new(machine, tree.canonical_key(), tree.stable_hash(), 1, QueryId(0))
    }

    #[test]
    fn subscribe_unsubscribe_lifecycle() {
        let mut g = group();
        assert!(g.is_active());
        g.subscribe(QueryId(3));
        assert_eq!(g.subscribers(), &[QueryId(0), QueryId(3)]);
        assert_eq!(g.unsubscribe(QueryId(0)), Some(false), "one subscriber remains");
        assert_eq!(g.unsubscribe(QueryId(7)), None, "unknown id is a no-op");
        assert_eq!(g.unsubscribe(QueryId(3)), Some(true), "last subscriber leaves");
        assert!(!g.is_active());
    }

    #[test]
    fn metadata_accessors() {
        let g = group();
        assert_eq!(g.canonical_key(), "//a[/b]");
        assert_eq!(g.trie_node(), 1);
        assert_eq!(g.machine().spec().len(), 2);
        assert!(g.approx_bytes() > 0);
    }
}
