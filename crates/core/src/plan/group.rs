//! A **plan group**: one shared TwigM machine plus its **binding table**,
//! the subscribers it answers for, filed by the literal they test.
//!
//! Queries join a group by **shape** ([`vitex_xpath::QueryTree::shape_key`]):
//! the canonical key with the literal of the query's parametric leaf
//! erased. So `//item[payment = 'Cash']/@id` and
//! `//item[payment = 'Creditcard']/@id` share one machine, and so do
//! `/site/regions/asia/item[@id = 'item7']/name` and
//! `/site/regions/asia/item[@id = 'item13']/name`; each distinct
//! literal is a **binding**, and its subscribers get the solutions the
//! machine delivers to it. A query without a parametric leaf is a shape
//! with one binding, and so is a shape all of whose subscribers test the
//! same literal: that is plain deduplication, the group runs one machine
//! and fans every solution out to all its subscribers. Either way
//! per-event work and machine memory stop scaling with the subscriptions
//! a shape has.
//!
//! Bindings are numbered in first-registration order; the machine looks
//! their literals up (`TwigM::bind`), and the group keeps who subscribes
//! to which. Adding a literal to a live shape or dropping one compiles and
//! rebuilds nothing. A solution reaches its bindings in binding order, and
//! the subscribers of one binding in registration order.

use crate::machine::TwigM;
use crate::result::QueryId;

/// One shape's unit of execution in a shared query plan.
#[derive(Debug)]
pub struct PlanGroup {
    machine: TwigM,
    /// Subscribing queries, binding by binding in binding order, each
    /// binding's in registration order (fan-out order).
    subscribers: Vec<QueryId>,
    /// One per binding, at least one: where its subscribers end in
    /// `subscribers`, and what it was delivered this document.
    bindings: Vec<Binding>,
    /// The shape key every subscriber shares.
    key: String,
    /// Terminal node of the group's main path in the planner's step trie.
    trie_node: usize,
}

/// A binding of a group: its subscriber range and its bill for the
/// current document.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Binding {
    /// End of its subscribers in the group's list.
    pub(crate) end: u32,
    /// Solutions delivered to it.
    pub(crate) delivered: u64,
    /// Payload bytes of those solutions.
    pub(crate) bytes: u64,
}

impl PlanGroup {
    /// A new group with its first subscriber (whose literal, if any, the
    /// machine holds as binding 0).
    pub(crate) fn new(machine: TwigM, key: String, trie_node: usize, first: QueryId) -> Self {
        // `vec!` holds the one binding at exact capacity; a `push` would
        // reserve four.
        let bindings = vec![Binding { end: 1, ..Binding::default() }];
        PlanGroup { machine, subscribers: vec![first], bindings, key, trie_node }
    }

    /// The shared machine.
    pub fn machine(&self) -> &TwigM {
        &self.machine
    }

    /// Puts the machine and the bindings' bills back at rest for a new
    /// document.
    pub(crate) fn reset(&mut self) {
        self.machine.reset();
        for b in &mut self.bindings {
            (b.delivered, b.bytes) = (0, 0);
        }
    }

    /// Splits the borrow for the event loop: the machine is driven
    /// mutably while the emit callback fans out over the subscribers and
    /// bills the bindings.
    pub(crate) fn machine_and_fan_out(&mut self) -> (&mut TwigM, &[QueryId], &mut [Binding]) {
        (&mut self.machine, &self.subscribers, &mut self.bindings)
    }

    /// Subscribing query ids: binding by binding, each in registration
    /// order.
    pub fn subscribers(&self) -> &[QueryId] {
        &self.subscribers
    }

    /// Each binding's subscribers and bill this document, in binding
    /// order.
    pub(crate) fn binding_bills(&self) -> impl Iterator<Item = (&[QueryId], &Binding)> {
        let starts = std::iter::once(0).chain(self.bindings.iter().map(|b| b.end as usize));
        let ranges = starts.zip(&self.bindings);
        ranges.map(|(start, b)| (&self.subscribers[start..b.end as usize], b))
    }

    /// Whether any subscriber remains.
    pub fn is_active(&self) -> bool {
        !self.subscribers.is_empty()
    }

    /// The shape key shared by every subscriber.
    pub fn shape_key(&self) -> &str {
        &self.key
    }

    /// Terminal trie node of the group's main path.
    pub(crate) fn trie_node(&self) -> usize {
        self.trie_node
    }

    /// Adds a subscriber testing `literal` (its shape's parametric literal;
    /// `None` without one): to that literal's binding, made if new — no
    /// recompilation. Idempotence is the caller's concern: every
    /// registration gets a fresh [`QueryId`].
    pub(crate) fn subscribe(&mut self, id: QueryId, literal: Option<&str>) {
        let (b, new) = literal.map_or((0, false), |literal| self.machine.bind(literal));
        if new {
            let end = self.subscribers.len() as u32 + 1;
            self.bindings.push(Binding { end, ..Binding::default() });
            self.subscribers.push(id);
        } else {
            let end = self.bindings[b as usize].end;
            self.subscribers.insert(end as usize, id);
            self.bindings[b as usize..].iter_mut().for_each(|later| later.end += 1);
        }
        debug_assert_eq!(self.bindings.len(), self.machine.binding_count());
    }

    /// Removes a subscriber — and its binding, when it was the binding's
    /// last and others remain. Returns `Some(last)` when the id was
    /// subscribed — `last` meaning it was the final one and the group is
    /// now inactive — and `None` for unknown ids (nothing changed), so
    /// callers can keep their own counters consistent.
    pub(crate) fn unsubscribe(&mut self, id: QueryId) -> Option<bool> {
        let pos = self.subscribers.iter().position(|&s| s == id)?;
        self.subscribers.remove(pos);
        let b = self.bindings.partition_point(|r| r.end as usize <= pos);
        self.bindings[b..].iter_mut().for_each(|later| later.end -= 1);
        let start = if b == 0 { 0 } else { self.bindings[b - 1].end };
        if self.bindings[b].end == start && self.bindings.len() > 1 {
            self.bindings.remove(b);
            self.machine.unbind(b as u32);
        }
        debug_assert_eq!(self.bindings.len(), self.machine.binding_count());
        Some(self.subscribers.is_empty())
    }

    /// Approximate bytes of the group's plan structure: the shared
    /// machine's spec and bound literals plus the subscriber lists and the
    /// shape key. Run-time capacity is not counted, so the figure changes
    /// only when a subscriber joins or leaves.
    pub fn approx_bytes(&self) -> u64 {
        self.machine.approx_build_bytes()
            + (self.subscribers.capacity() * std::mem::size_of::<QueryId>()) as u64
            + (self.bindings.capacity() * std::mem::size_of::<Binding>()) as u64
            + self.key.len() as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::builder::MachineSpec;
    use vitex_xpath::QueryTree;

    fn group(query: &str) -> PlanGroup {
        let tree = QueryTree::parse(query).unwrap();
        let machine = TwigM::from_spec(MachineSpec::compile(&tree).unwrap());
        let (key, _) = tree.shape_key();
        PlanGroup::new(machine, key, 1, QueryId(0))
    }

    /// Each binding's subscribers, in binding order.
    fn filed(g: &PlanGroup) -> Vec<Vec<usize>> {
        g.binding_bills().map(|(subs, _)| subs.iter().map(|q| q.0).collect()).collect()
    }

    #[test]
    fn subscribe_unsubscribe_lifecycle() {
        let mut g = group("//a[b]");
        assert!(g.is_active());
        g.subscribe(QueryId(3), None);
        assert_eq!(g.subscribers(), &[QueryId(0), QueryId(3)]);
        assert_eq!(g.unsubscribe(QueryId(0)), Some(false), "one subscriber remains");
        assert_eq!(g.unsubscribe(QueryId(7)), None, "unknown id is a no-op");
        assert_eq!(g.unsubscribe(QueryId(3)), Some(true), "last subscriber leaves");
        assert!(!g.is_active());
    }

    #[test]
    fn metadata_accessors() {
        let g = group("//a[b]");
        assert_eq!(g.shape_key(), "//a[/b]");
        assert_eq!(g.trie_node(), 1);
        assert_eq!(g.machine().spec().len(), 2);
        assert_eq!(g.bindings.capacity(), 1, "the one binding at exact capacity");
        assert!(g.approx_bytes() > 0);
    }

    #[test]
    fn bindings_file_subscribers_by_literal_in_place() {
        let mut g = group("//a[b = 'x']");
        assert_eq!(g.shape_key(), "//a[/b='']");
        let before = g.approx_bytes();
        g.subscribe(QueryId(1), Some("x"));
        assert_eq!((filed(&g), g.machine().binding_count()), (vec![vec![0, 1]], 1));
        g.subscribe(QueryId(2), Some("y"));
        g.subscribe(QueryId(3), Some("x"));
        g.subscribe(QueryId(4), Some("z"));
        g.subscribe(QueryId(5), Some("y"));
        assert_eq!(
            filed(&g),
            [vec![0, 1, 3], vec![2, 5], vec![4]],
            "binding order, then registration"
        );
        assert_eq!(g.subscribers().len(), 6);
        assert!(g.approx_bytes() > before, "the literals and ranges are the group's bytes");
        // Dropping binding `x` renumbers the later ones in the machine too.
        for q in [0, 3, 1] {
            assert_eq!(g.unsubscribe(QueryId(q)), Some(false));
        }
        assert_eq!((filed(&g), g.machine().binding_count()), (vec![vec![2, 5], vec![4]], 2));
        g.subscribe(QueryId(6), Some("z"));
        g.subscribe(QueryId(7), Some("x"));
        assert_eq!(filed(&g), [vec![2, 5], vec![4, 6], vec![7]], "`x` comes back last");
        for q in [2, 5, 7] {
            g.unsubscribe(QueryId(q));
        }
        assert_eq!((filed(&g), g.machine().binding_count()), (vec![vec![4, 6]], 1));
        assert_eq!(g.unsubscribe(QueryId(4)), Some(false));
        assert_eq!(g.unsubscribe(QueryId(6)), Some(true), "the last subscriber retires the group");
    }
}
