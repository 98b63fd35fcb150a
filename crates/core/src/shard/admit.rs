//! The admission walk: the inherently serial front of every session.
//!
//! Every element and text event of a document gets an **admission
//! filter** verdict (an event no group anywhere is interested in is never
//! delivered) and, for a start tag, the **trie pushes** the global plan
//! trie decided for it — each with its survivors where a value gate read
//! the tag's attributes and narrowed the groups that push (see
//! [`crate::plan::trie`]).
//!
//! The session's sink asks this walk first and hands what it admits to
//! the executor, which only *delivers*. Walking the trie here, once per
//! event and nowhere else, is what the prefix counters — and therefore the
//! plan statistics and the shared-step bill, both of which count
//! survivors — are read from.

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

/// What the walk decided for the last admitted start tag, as the executor
/// reads it. Everything is keyed by group id.
pub(crate) struct Walked<'w> {
    /// The engine's dispatch index: predicate-subtree interests.
    pub(crate) index: &'w DispatchIndex,
    /// The trie's route table.
    pub(crate) routes: &'w RouteTable,
    /// The trie pushes of the tag.
    pub(crate) pushes: &'w [TriePush],
    /// The survivor lists the gated pushes' ranges index.
    pub(crate) survivors: &'w [u32],
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
}

impl<'a> Admission<'a> {
    pub(super) fn new(
        index: &'a DispatchIndex,
        trie: &'a mut StepTrie,
        buf: &'a mut WalkScratch,
    ) -> Self {
        Admission { index, trie, buf }
    }

    /// Resets for a new document. `bill_slots` sizes the shared-step bill
    /// (the plan's group-slot count while profiling, 0 otherwise).
    pub(super) fn begin_document(&mut self, bill_slots: usize) {
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

    /// Admits a start tag: `true` when some group wants it (the trie has
    /// then advanced — its value gates reading `attributes` — and
    /// [`Admission::walked`] holds what it decided). A dropped tag is
    /// never shown to the trie — no live step tests its name, so it could
    /// not have pushed.
    pub(super) fn start(
        &mut self,
        sym: Option<Symbol>,
        level: u32,
        attributes: &[Attribute],
    ) -> bool {
        if !self.wants_element(sym) {
            return false;
        }
        self.buf.pushed.clear();
        self.trie.advance(sym, level, attributes, &mut self.buf.pushed);
        self.trie.bill_pushes(&self.buf.pushed, &mut self.buf.shared_steps);
        true
    }

    /// Admits a text node: `true` when some group reads text.
    pub(super) fn text(&self) -> bool {
        self.index.has_text_target()
    }

    /// Admits an end tag (`sym` is its start tag's symbol, so the filter
    /// verdicts pair up): `true` when its start tag was admitted.
    pub(super) fn end(&mut self, sym: Option<Symbol>, level: u32) -> bool {
        if !self.wants_element(sym) {
            return false;
        }
        self.trie.retreat(level);
        true
    }

    /// What the walk decided for the last admitted start tag.
    pub(super) fn walked(&self) -> Walked<'_> {
        Walked {
            index: self.index,
            routes: self.trie.routes(),
            pushes: &self.buf.pushed,
            survivors: self.trie.survivors(),
        }
    }

    /// The document's shared-step bill so far (empty unless profiling).
    pub(super) fn shared_steps(&self) -> &[u64] {
        &self.buf.shared_steps
    }

    /// The trie's run counters for the current (or last) document.
    pub(super) fn trie_run_stats(&self) -> PrefixRunStats {
        self.trie.run_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiEngine;
    use crate::result::QueryId;

    #[test]
    fn filtered_tags_pair_up_and_are_never_delivered() {
        let mut multi = MultiEngine::new();
        multi.add_query("/a/b").unwrap();
        let parts = multi.session_parts();
        let (a, b) = (parts.interner.lookup("a"), parts.interner.lookup("b"));
        let mut adm = Admission::new(parts.index, parts.planner.run_split().0, parts.walk);
        adm.begin_document(0);
        let pushes = |adm: &Admission<'_>| adm.walked().pushes.len();
        // <a><x><b/></x>t<b/></a>: x is unknown to every query, and no
        // query reads text.
        assert!(adm.start(a, 1, &[]));
        assert_eq!(pushes(&adm), 1, "/a pushes");
        assert!(!adm.start(None, 2, &[]), "<x> is filtered");
        assert!(adm.start(b, 3, &[]), "<b> is admitted even under a filtered parent");
        assert_eq!(pushes(&adm), 0, "/a/b does not match a/x/b");
        assert!(adm.end(b, 3));
        assert!(!adm.end(None, 2), "</x> pairs with its filtered start tag");
        assert!(!adm.text(), "no group reads text");
        assert!(adm.start(b, 2, &[]));
        assert_eq!(pushes(&adm), 1, "/a/b matches a/b");
        assert!(adm.end(b, 2));
        assert!(adm.end(a, 1));
        assert_eq!(adm.trie.live_entries(), 0, "every admitted start tag was retreated");
        // Three start tags were admitted (<a>, <b>, <b>), each testing one
        // live step.
        assert_eq!(adm.trie_run_stats().steps_executed, 3);
        // A new document starts from an empty trie.
        adm.begin_document(0);
        assert_eq!(adm.trie_run_stats().steps_executed, 0);
        assert!(adm.start(a, 1, &[]));
        assert_eq!(pushes(&adm), 1);
    }

    #[test]
    fn retiring_every_group_on_a_trie_path_filters_its_tags_until_re_registration() {
        // The filter has no index of its own: it reads trie liveness and
        // the predicate index, so it must follow churn in both.
        let mut multi = MultiEngine::new();
        let q_ab = multi.add_query("/a/b").unwrap();
        let q_c = multi.add_query("//c[d]").unwrap();
        let admits = |multi: &mut MultiEngine, name: &str| {
            let parts = multi.session_parts();
            let sym = parts.interner.lookup(name);
            let mut adm = Admission::new(parts.index, parts.planner.run_split().0, parts.walk);
            adm.begin_document(0);
            let admitted = adm.start(sym, 1, &[]).then(|| adm.walked().pushes.len());
            assert_eq!(adm.end(sym, 1), admitted.is_some(), "</{name}> pairs up");
            assert_eq!(adm.trie.live_entries(), 0);
            admitted
        };
        assert_eq!(admits(&mut multi, "a"), Some(1), "/a is a live trie step");
        assert_eq!(admits(&mut multi, "d"), Some(0), "d is a predicate name of //c[d]");
        assert_eq!(multi.remove_query(q_ab), Some(true));
        assert_eq!(multi.remove_query(q_c), Some(true));
        for name in ["a", "b", "c", "d"] {
            assert_eq!(admits(&mut multi, name), None, "<{name}>: every interested group retired");
        }
        assert_eq!(multi.add_query("/a/b").unwrap(), QueryId(2));
        assert_eq!(admits(&mut multi, "a"), Some(1), "re-registration revives the path");
        assert_eq!(admits(&mut multi, "c"), None, "//c[d] stays retired");
    }
}
