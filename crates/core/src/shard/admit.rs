//! The admission walk: the inherently serial part of feeding shard rings.
//!
//! Every element and text event of a document gets a **sequence number**
//! (the merge key workers tag matches with), a **broadcast-filter**
//! verdict (an event no group anywhere is interested in consumes its
//! number but is never built or shipped) and — under prefix sharing — the
//! **trie pushes** the global plan trie decided for it. Each broadcast
//! batch covers every sequence number admitted up to its `through`.
//!
//! The session's pump runs this walk and keeps only the payload
//! construction (building `ShardEvent`s from borrowed driver events).
//! Walking the trie here, once per event on the document thread, is what
//! keeps the prefix counters — and therefore the plan statistics and the
//! shared-step bill — identical at every shard count.

use std::sync::Arc;

use crate::intern::Symbol;
use crate::multi::DispatchIndex;
use crate::plan::{PrefixRunStats, StepTrie, TriePush};

/// Admission state of a sharded session (see the module docs).
pub(super) struct Admission<'a> {
    /// The engine's global dispatch index: does *any* group want this
    /// event? Frozen for the session, so a filtered start tag's end tag
    /// (same symbol) is filtered too.
    filter: &'a DispatchIndex,
    /// `Some` under prefix sharing: the global plan trie.
    trie: Option<&'a mut StepTrie>,
    /// Sequence number of the last admitted event (1-based).
    seq: u64,
    /// Scratch: the trie pushes of the current start tag.
    pushed: Vec<TriePush>,
    /// Flat stack of trie nodes pushed per open shipped element (the end
    /// tag retreats exactly these).
    trie_open: Vec<u32>,
    /// One `trie_open` offset per open shipped element.
    trie_frames: Vec<u32>,
    /// Shared empty push list (most events push nothing).
    empty_pushes: Arc<[TriePush]>,
    /// Trie pushes billed per routed group this document (gid-indexed;
    /// empty unless profiling).
    shared_steps: Vec<u64>,
}

impl<'a> Admission<'a> {
    pub(super) fn new(filter: &'a DispatchIndex, trie: Option<&'a mut StepTrie>) -> Self {
        Admission {
            filter,
            trie,
            seq: 0,
            pushed: Vec::new(),
            trie_open: Vec::new(),
            trie_frames: Vec::new(),
            empty_pushes: Vec::new().into(),
            shared_steps: Vec::new(),
        }
    }

    /// Resets for a new document. `bill_slots` sizes the shared-step bill
    /// (the plan's group-slot count while profiling, 0 otherwise).
    pub(super) fn begin_document(&mut self, bill_slots: usize) {
        self.seq = 0;
        self.trie_open.clear();
        self.trie_frames.clear();
        self.shared_steps.clear();
        self.shared_steps.resize(bill_slots, 0);
        if let Some(trie) = &mut self.trie {
            trie.begin_document();
        }
    }

    /// Admits a start tag. `Some((seq, pushes))` when it ships; `None`
    /// when the broadcast filter drops it (it still consumed a sequence
    /// number, and cannot have pushed: every routed trie step name, and
    /// any wildcard, is registered in the filter index).
    pub(super) fn start(
        &mut self,
        sym: Option<Symbol>,
        level: u32,
    ) -> Option<(u64, Arc<[TriePush]>)> {
        self.seq += 1;
        if let Some(trie) = &mut self.trie {
            self.pushed.clear();
            trie.advance(sym, level, &mut self.pushed);
            // One shared step per (push, routed group) pair — the
            // single-threaded prefix sink's billing discipline.
            if !self.shared_steps.is_empty() {
                for p in &self.pushed {
                    for &gid in trie.routed(p.node as usize) {
                        self.shared_steps[gid as usize] += 1;
                    }
                }
            }
        }
        if !self.filter.has_element_target(sym) {
            debug_assert!(self.pushed.is_empty(), "filtered events cannot advance the trie");
            return None;
        }
        if self.trie.is_some() {
            self.trie_frames.push(self.trie_open.len() as u32);
            self.trie_open.extend(self.pushed.iter().map(|p| p.node));
        }
        let pushes = if self.pushed.is_empty() {
            Arc::clone(&self.empty_pushes)
        } else {
            self.pushed.as_slice().into()
        };
        Some((self.seq, pushes))
    }

    /// Admits a text node: its sequence number when it ships.
    pub(super) fn text(&mut self) -> Option<u64> {
        self.seq += 1;
        self.filter.has_text_target().then_some(self.seq)
    }

    /// Admits an end tag (`sym` is its start tag's symbol, so the filter
    /// verdicts pair up): its sequence number when it ships.
    pub(super) fn end(&mut self, sym: Option<Symbol>, level: u32) -> Option<u64> {
        self.seq += 1;
        if !self.filter.has_element_target(sym) {
            return None;
        }
        if let Some(trie) = &mut self.trie {
            let base = self.trie_frames.pop().expect("shipped tags pair") as usize;
            for &node in &self.trie_open[base..] {
                trie.retreat_one(node, level);
            }
            self.trie_open.truncate(base);
        }
        Some(self.seq)
    }

    /// Sequence number of the last admitted event, filtered ones
    /// included: the `through` of a batch flushed now, and the document's
    /// final watermark once the walk is over.
    pub(super) fn seq(&self) -> u64 {
        self.seq
    }

    /// The document's shared-step bill so far (empty unless profiling).
    pub(super) fn shared_steps(&self) -> &[u64] {
        &self.shared_steps
    }

    /// The trie's run counters for the current (or last) document; `None`
    /// outside prefix sharing.
    pub(super) fn trie_run_stats(&self) -> Option<PrefixRunStats> {
        self.trie.as_ref().map(|t| t.run_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiEngine;
    use crate::plan::PlanMode;

    #[test]
    fn filtered_tags_pair_up_and_consume_sequence_numbers_without_shipping() {
        for plan in [PlanMode::Shared, PlanMode::PrefixShared] {
            let mut multi = MultiEngine::with_plan(plan);
            multi.add_query("/a/b").unwrap();
            let parts = multi.shard_parts();
            let (a, b) = (parts.interner.lookup("a"), parts.interner.lookup("b"));
            let prefix = plan == PlanMode::PrefixShared;
            let trie = prefix.then(|| parts.planner.run_split().0);
            let mut adm = Admission::new(parts.index, trie);
            adm.begin_document(0);
            // <a><x><b/></x>t<b/></a>: x is unknown to every query, and no
            // query reads text.
            assert_eq!(adm.start(a, 1).map(|(s, p)| (s, p.len())), Some((1, prefix as usize)));
            assert!(adm.start(None, 2).is_none(), "<x> is filtered");
            let b_in_x = adm.start(b, 3).expect("<b> ships even under a filtered parent");
            assert_eq!((b_in_x.0, b_in_x.1.len()), (3, 0), "/a/b does not match a/x/b");
            assert_eq!(adm.end(b, 3), Some(4));
            assert_eq!(adm.end(None, 2), None, "</x> pairs with its filtered start tag");
            assert_eq!(adm.text(), None, "no group reads text");
            assert_eq!(adm.seq(), 6, "filtered events still consume numbers");
            let b_in_a = adm.start(b, 2).expect("ships");
            assert_eq!((b_in_a.0, b_in_a.1.len()), (7, prefix as usize), "/a/b matches a/b");
            assert_eq!(adm.end(b, 2), Some(8));
            assert_eq!(adm.end(a, 1), Some(9));
            assert_eq!(adm.seq(), 9);
            if prefix {
                assert!(adm.trie_open.is_empty() && adm.trie_frames.is_empty());
                assert!(adm.trie_run_stats().expect("prefix mode").steps_executed > 0);
            }
            // A new document restarts the numbering.
            adm.begin_document(0);
            assert_eq!(adm.start(a, 1).map(|(s, _)| s), Some(1));
        }
    }
}
