//! The admission walk: the inherently serial front of every session.
//!
//! Every element and text event of a document gets a **sequence number**
//! (the merge key ring-lane workers tag matches with), an **admission
//! filter** verdict (an event no group anywhere is interested in consumes
//! its number but is never delivered) and the **trie pushes** the global
//! plan trie decided for it — each with its survivors where a value gate
//! read the tag's attributes and narrowed the groups that push (see
//! [`crate::plan::trie`]). Each broadcast batch of the ring lane covers
//! every sequence number admitted up to its `through`.
//!
//! The session's sink asks this walk first and hands what it admits to
//! the lane, which only *delivers* (a call into the executor, or a
//! `ShardEvent` built from the borrowed driver event). Walking the trie
//! here, once per event on the document thread and nowhere else, is what
//! keeps the prefix counters — and therefore the plan statistics and the
//! shared-step bill, both of which count survivors — identical at every
//! shard count.

use vitex_xmlsax::event::Attribute;

use crate::intern::Symbol;
use crate::multi::DispatchIndex;
use crate::plan::{PrefixRunStats, RouteTable, StepTrie, TriePush};

/// The walk's buffers. The engine owns them, so a session per document
/// ([`crate::multi::MultiEngine::run`]) clears them instead of
/// reallocating them.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// The trie pushes of the current start tag.
    pushed: Vec<TriePush>,
    /// Trie pushes billed per routed group this document (gid-indexed;
    /// empty unless profiling).
    shared_steps: Vec<u64>,
}

/// Admission state of a session (see the module docs).
pub(super) struct Admission<'a> {
    /// The engine's dispatch index: predicate-subtree and text interests
    /// of every group. Frozen for the session.
    index: &'a DispatchIndex,
    /// The global plan trie: advanced here, once per admitted start tag.
    /// Its routes are frozen for the session too, so a filtered start
    /// tag's end tag (same symbol) gets the same verdict.
    trie: &'a mut StepTrie,
    buf: &'a mut WalkScratch,
    /// Sequence number of the last event walked (1-based).
    seq: u64,
}

impl<'a> Admission<'a> {
    pub(super) fn new(
        index: &'a DispatchIndex,
        trie: &'a mut StepTrie,
        buf: &'a mut WalkScratch,
    ) -> Self {
        Admission { index, trie, buf, seq: 0 }
    }

    /// Resets for a new document. `bill_slots` sizes the shared-step bill
    /// (the plan's group-slot count while profiling, 0 otherwise).
    pub(super) fn begin_document(&mut self, bill_slots: usize) {
        self.seq = 0;
        self.buf.shared_steps.clear();
        self.buf.shared_steps.resize(bill_slots, 0);
        self.trie.begin_document();
    }

    /// The admission filter's one question: does *any* group want an
    /// element with this tag? Either a live trie step (or wildcard step)
    /// tests it, or some group's predicate subtree does. It depends on
    /// the symbol alone, so start and end tags pair up.
    fn wants_element(&self, sym: Option<Symbol>) -> bool {
        self.trie.has_live_step(sym) || self.index.has_element_target(sym)
    }

    /// Admits a start tag: its sequence number when some group wants it
    /// (the trie has then advanced — its value gates reading
    /// `attributes` — and [`Admission::pushes`] holds what it decided),
    /// `None` when the filter drops it. A dropped tag still consumed a
    /// sequence number and is never shown to the trie — no live step tests
    /// its name, so it could not have pushed.
    pub(super) fn start(
        &mut self,
        sym: Option<Symbol>,
        level: u32,
        attributes: &[Attribute],
    ) -> Option<u64> {
        self.seq += 1;
        if !self.wants_element(sym) {
            return None;
        }
        self.buf.pushed.clear();
        self.trie.advance(sym, level, attributes, &mut self.buf.pushed);
        self.trie.bill_pushes(&self.buf.pushed, &mut self.buf.shared_steps);
        Some(self.seq)
    }

    /// Admits a text node: its sequence number when some group reads
    /// text.
    pub(super) fn text(&mut self) -> Option<u64> {
        self.seq += 1;
        self.index.has_text_target().then_some(self.seq)
    }

    /// Admits an end tag (`sym` is its start tag's symbol, so the filter
    /// verdicts pair up): its sequence number when its start tag was
    /// admitted.
    pub(super) fn end(&mut self, sym: Option<Symbol>, level: u32) -> Option<u64> {
        self.seq += 1;
        if !self.wants_element(sym) {
            return None;
        }
        self.trie.retreat(level);
        Some(self.seq)
    }

    /// Sequence number of the last event walked, filtered ones included:
    /// the document's final watermark once the walk is over.
    pub(super) fn seq(&self) -> u64 {
        self.seq
    }

    /// The trie pushes of the last admitted start tag.
    pub(super) fn pushes(&self) -> &[TriePush] {
        &self.buf.pushed
    }

    /// The survivor lists the gated ranges of [`Admission::pushes`] index
    /// (gid-keyed).
    pub(super) fn survivors(&self) -> &[u32] {
        self.trie.survivors()
    }

    /// The engine's dispatch index (gid-keyed).
    pub(super) fn index(&self) -> &'a DispatchIndex {
        self.index
    }

    /// The document's shared-step bill so far (empty unless profiling).
    pub(super) fn shared_steps(&self) -> &[u64] {
        &self.buf.shared_steps
    }

    /// The trie's run counters for the current (or last) document.
    pub(super) fn trie_run_stats(&self) -> PrefixRunStats {
        self.trie.run_stats()
    }

    /// The global route table (gid-keyed): what the direct lane delivers
    /// along, and what placement derives each shard's local one from.
    pub(super) fn routes(&self) -> &RouteTable {
        self.trie.routes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiEngine;
    use crate::result::QueryId;

    #[test]
    fn filtered_tags_pair_up_and_consume_sequence_numbers_without_shipping() {
        let mut multi = MultiEngine::new();
        multi.add_query("/a/b").unwrap();
        let parts = multi.shard_parts();
        let (a, b) = (parts.interner.lookup("a"), parts.interner.lookup("b"));
        let mut adm = Admission::new(parts.index, parts.planner.run_split().0, parts.walk);
        adm.begin_document(0);
        // <a><x><b/></x>t<b/></a>: x is unknown to every query, and no
        // query reads text.
        assert_eq!((adm.start(a, 1, &[]), adm.pushes().len()), (Some(1), 1));
        assert!(adm.start(None, 2, &[]).is_none(), "<x> is filtered");
        let b_in_x = adm.start(b, 3, &[]).expect("<b> ships even under a filtered parent");
        assert_eq!((b_in_x, adm.pushes().len()), (3, 0), "/a/b does not match a/x/b");
        assert_eq!(adm.end(b, 3), Some(4));
        assert_eq!(adm.end(None, 2), None, "</x> pairs with its filtered start tag");
        assert_eq!(adm.text(), None, "no group reads text");
        assert_eq!(adm.seq(), 6, "filtered events still consume numbers");
        let b_in_a = adm.start(b, 2, &[]).expect("ships");
        assert_eq!((b_in_a, adm.pushes().len()), (7, 1), "/a/b matches a/b");
        assert_eq!(adm.end(b, 2), Some(8));
        assert_eq!(adm.end(a, 1), Some(9));
        assert_eq!(adm.seq(), 9);
        assert_eq!(adm.trie.live_entries(), 0, "every shipped start tag was retreated");
        // Three start tags shipped (<a>, <b>, <b>), each testing one live step.
        assert_eq!(adm.trie_run_stats().steps_executed, 3);
        // A new document restarts the numbering.
        adm.begin_document(0);
        assert_eq!(adm.start(a, 1, &[]), Some(1));
    }

    #[test]
    fn retiring_every_group_on_a_trie_path_filters_its_tags_until_re_registration() {
        // The filter has no index of its own: it reads trie liveness and
        // the predicate index, so it must follow churn in both.
        let mut multi = MultiEngine::new();
        let q_ab = multi.add_query("/a/b").unwrap();
        let q_c = multi.add_query("//c[d]").unwrap();
        let ships = |multi: &mut MultiEngine, name: &str| {
            let parts = multi.shard_parts();
            let sym = parts.interner.lookup(name);
            let mut adm = Admission::new(parts.index, parts.planner.run_split().0, parts.walk);
            adm.begin_document(0);
            let shipped = adm.start(sym, 1, &[]).map(|seq| (seq, adm.pushes().len()));
            assert_eq!(adm.end(sym, 1).is_some(), shipped.is_some(), "</{name}> pairs up");
            assert_eq!(adm.seq(), 2, "shipped or not, both tags consumed a number");
            assert_eq!(adm.trie.live_entries(), 0);
            shipped
        };
        assert_eq!(ships(&mut multi, "a"), Some((1, 1)), "/a is a live trie step");
        assert_eq!(ships(&mut multi, "d"), Some((1, 0)), "d is a predicate name of //c[d]");
        assert_eq!(multi.remove_query(q_ab), Some(true));
        assert_eq!(multi.remove_query(q_c), Some(true));
        for name in ["a", "b", "c", "d"] {
            assert_eq!(ships(&mut multi, name), None, "<{name}>: every interested group retired");
        }
        assert_eq!(multi.add_query("/a/b").unwrap(), QueryId(2));
        assert_eq!(ships(&mut multi, "a"), Some((1, 1)), "re-registration revives the path");
        assert_eq!(ships(&mut multi, "c"), None, "//c[d] stays retired");
    }
}
