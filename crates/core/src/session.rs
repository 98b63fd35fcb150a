//! The per-document path of a [`MultiEngine`]: one pipeline from SAX
//! events to delivered matches, on the calling thread.
//!
//! TwigM machines are independent consumers of one sequential scan.
//! [`MultiEngine::stream_document`] is that scan for the current
//! subscription set: the driver's interned events that some group can see
//! go straight into the engine's `crate::multi::Executor` over the step
//! trie and the live plan groups, and the per-document epilogue assembles
//! the output. Documents stream back-to-back through one engine without
//! re-planning; registration churn (`add_query` / `remove_query`) happens
//! between documents and updates the plan in place.
//!
//! The engine's one `EventSink` admits an element when a live trie step
//! tests its name (`StepTrie::has_live_step`: every machine node of every
//! group is routed on a trie step, so no other element can move a machine)
//! and hands every text node to the executor, which shows it only to the
//! machines holding an open entry that reads text; at document end the
//! epilogue reads the groups directly.
//!
//! ## One door out
//!
//! A match leaves through the caller's callback and nowhere else: the
//! executor emits into `crate::multi::fan_out_match`, and what telemetry
//! reports about matches is counted where a solution leaves its machine
//! (`MachineStats::emitted`; payload bytes by the executor).
//! So [`MultiEngine::stream_document`], the primitive, holds nothing per
//! match (the `vitex` CLI is built on it), and buffering is **one**
//! collecting adapter around it, [`MultiEngine::run`].
//!
//! ## Per-document cost
//!
//! A pub/sub feed is many standing queries over many small documents, so
//! what a document costs beyond its events must follow what it touched,
//! not the registration count k (YFilter keeps its per-message work
//! proportional to the states a message activates the same way). The
//! executor lists the groups a document pushed; they are the only
//! machines off rest. So the next document resets only those and the trie
//! clears only the stacks still open. Plan statistics describe the plan,
//! not the documents that ran (a machine's stack headroom is run-time
//! state and not counted), so the planner caches them: a registration or
//! removal invalidates the cache, the next document's epilogue refills it
//! with one walk, and every other epilogue only reads the trie's run
//! counters.
//! Telemetry folds the subscribers of the touched groups into their rows
//! and sums — exact, since an untouched machine's counters are zero — and
//! refreshes the rows of the groups registration churn changed since the
//! last document. The streamed [`MultiOutput`] carries the stream counters
//! and the plan statistics only; a subscription's statistics are read on
//! request ([`MultiEngine::query_stats`]). What stays O(k) per document is
//! opt-in: the collecting adapter's per-query vectors.
//!
//! ## Determinism
//!
//! Matches reach the callback in the executor's visit order: events in
//! document order, ascending group id within each event, and for one
//! solution of a shared machine its bindings in first-registration order,
//! each binding's subscribers in registration order.

use std::io::Read;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::XmlReader;

use crate::driver::EventSink;
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::multi::{Executor, MultiEngine, MultiOutput};
use crate::plan::{PlanGroup, StepTrie};
use crate::result::{Match, NodeId, QueryId};
use crate::stats::{Bill, MachineStats, PlanStats, StreamStats};
use crate::telemetry::metrics::Totals;
use crate::telemetry::{GroupRow, QueryRow};

impl MultiEngine {
    /// [`MultiEngine::stream_document`] behind the **one** collecting
    /// adapter: each delivered match is also copied into the returned
    /// [`MultiOutput`]'s `matches` (per query, in delivery order), which
    /// therefore grows with their number, and `stats` holds every
    /// registration's [`MultiEngine::query_stats`].
    pub fn run<R: Read, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let mut matches = vec![Vec::new(); self.records.len()];
        let mut out = self.stream_document(reader, |query, hit| {
            matches[query.0].push(hit.clone());
            on_match(query, hit);
        })?;
        out.matches = matches;
        out.stats = self.all_query_stats();
        Ok(out)
    }

    /// Every registration's [`MultiEngine::query_stats`], indexed by
    /// [`QueryId`], from one walk over the groups the last document
    /// touched.
    pub fn all_query_stats(&self) -> Vec<MachineStats> {
        let mut stats = vec![MachineStats::default(); self.records.len()];
        for &g in self.exec.touched() {
            self.visit_group(g as usize, |q, s, _| stats[q.0] = s.clone());
        }
        stats
    }

    /// Streams `reader` once through every active plan group and returns
    /// the [`MultiOutput`] — plan and stream counters — with `matches` and
    /// `stats` left empty: `on_match` is the only way a match leaves, and
    /// [`MultiEngine::query_stats`] reads a subscription's statistics.
    /// `on_match` fires with the originating query's id the moment a
    /// solution is decidable (a solution of a shared machine once per
    /// subscriber, in registration order), and nothing is kept once it
    /// returns. A malformed document ends with its error; the next one
    /// starts from nothing.
    pub fn stream_document<R: Read, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let tally_bytes = self.driver.telemetry().is_enabled();
        let (trie, groups) = self.planner.runtime();
        self.exec.begin_document(groups, tally_bytes);
        trie.begin_document();
        let mut sink = DocumentSink {
            interner: &self.interner,
            trie,
            groups,
            exec: &mut self.exec,
            on_match: &mut on_match,
        };
        let stream = self.driver.run(reader, &mut sink)?;
        Ok(self.finish_document(stream))
    }

    /// Subscription `q`'s machine statistics for the last document, what
    /// [`MultiEngine::run`] buffers as `stats[q]`: a private
    /// [`crate::Engine`]'s (with several bindings, on the work counters
    /// and on `emitted`, its own deliveries; see [`MultiOutput::stats`]).
    /// Zeros for a removed or unknown query and for one whose group the
    /// document did not touch. Costs the subscribers of `q`'s group.
    pub fn query_stats(&self, q: QueryId) -> MachineStats {
        let mut found = MachineStats::default();
        if let Some(g) = self.records.get(q.0).and_then(|r| r.group) {
            self.visit_group(g, |sub, stats, _| {
                if sub == q {
                    found = stats.clone();
                }
            });
        }
        found
    }

    /// Calls `f` with each subscriber of group `g` and what it reads for
    /// the last document: the machine's statistics, with `emitted` its
    /// binding's deliveries in a group with several (one with one binding
    /// delivers every solution to every subscriber), and the payload bytes
    /// delivered to it (zero unless telemetry is on, for a group with one
    /// binding).
    fn visit_group(&self, g: usize, mut f: impl FnMut(QueryId, &MachineStats, u64)) {
        let group = self.planner.group(g);
        let stats = group.machine().stats();
        if !group.has_several_bindings() {
            let bytes = self.exec.emitted_bytes(g);
            return group.subscribers().iter().for_each(|&q| f(q, stats, bytes));
        }
        let mut own = stats.clone();
        for (subscribers, bill) in group.binding_bills() {
            own.emitted = bill.delivered;
            subscribers.iter().for_each(|&q| f(q, &own, bill.bytes));
        }
    }

    /// The per-document epilogue: folds the document into the telemetry
    /// registry, when one is attached, and assembles the [`MultiOutput`].
    fn finish_document(&mut self, stream: StreamStats) -> MultiOutput {
        let plan = self.planner.cached_stats(&self.interner);
        self.driver.telemetry().fold(|totals| self.fold_telemetry(totals, &stream, &plan));
        self.churned.clear();
        MultiOutput {
            matches: Vec::new(),
            stats: Vec::new(),
            plan,
            elements: stream.elements,
            text_nodes: stream.text_nodes,
            events: stream.events,
        }
    }

    /// Folds the document into the registry's deterministic section: a row
    /// for each new registration, the rows of the groups churn changed
    /// (dropped when retired, restarted when created), then one walk over
    /// the touched groups that adds each machine to its group's row and to
    /// every subscriber's — per subscription, as private engines would,
    /// with what its own binding was delivered — and to the sums.
    fn fold_telemetry(&self, totals: &mut Totals, stream: &StreamStats, plan: &PlanStats) {
        for (id, r) in self.records.iter().enumerate().skip(totals.queries.len()) {
            totals.queries.push(QueryRow { id, query: r.text.clone(), ..QueryRow::default() });
        }
        let new_row = |gid: usize, g: &PlanGroup| GroupRow {
            gid,
            shape: g.shape_key().to_owned(),
            subscribers: g.subscribers().len() as u64,
            bill: Bill::default(),
        };
        let rows = &mut totals.groups;
        rows.resize(rows.len().max(self.planner.groups().len()), None);
        for &(gid, created) in &self.churned {
            let (gid, group) = (gid as usize, self.planner.group(gid as usize));
            rows[gid] = match rows[gid].take() {
                _ if !group.is_active() => None,
                Some(row) if !created => {
                    Some(GroupRow { subscribers: group.subscribers().len() as u64, ..row })
                }
                _ => Some(new_row(gid, group)),
            };
        }
        let mut total = MachineStats::default();
        for &gid in self.exec.touched() {
            let (gid, group) = (gid as usize, self.planner.group(gid as usize));
            let row = rows[gid].get_or_insert_with(|| new_row(gid, group));
            row.bill.add(group.machine().stats());
            self.visit_group(gid, |q, stats, bytes| {
                total.add(stats);
                let row = &mut totals.queries[q.0];
                row.bill.add(stats);
                row.matches += stats.emitted;
                row.emitted_bytes += bytes;
            });
        }
        // `emitted` counts each subscriber's deliveries.
        totals.fold_document(stream, &total, Some(plan), total.emitted);
    }
}

/// The **one** [`EventSink`] of multi-query execution: it admits an event
/// some group can see and hands it to the executor, with the borrowed
/// driver event and the caller's callback. An element is admitted when a
/// live trie step tests its name, which depends on the symbol alone, so
/// start and end tags pair up; a dropped start tag could not have pushed.
/// The trie's routes are frozen while a document streams, so a filtered
/// start tag's end tag (same symbol) gets the same verdict.
struct DocumentSink<'s, F> {
    interner: &'s Interner,
    trie: &'s mut StepTrie,
    groups: &'s mut [PlanGroup],
    exec: &'s mut Executor,
    on_match: &'s mut F,
}

impl<F: FnMut(QueryId, Match)> EventSink for DocumentSink<'_, F> {
    fn resolve(&mut self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    fn start_element(
        &mut self,
        sym: Option<Symbol>,
        event: &StartElementEvent<'_>,
        node_id: NodeId,
        _attr_id_base: NodeId,
    ) {
        if self.trie.has_live_step(sym) {
            self.exec.start(self.trie, self.groups, sym, event, node_id, self.on_match);
        }
    }

    fn characters(&mut self, event: &CharactersEvent<'_>, node_id: NodeId) {
        let (text, level, span) = (&*event.text, event.level, event.span);
        self.exec.text(self.groups, text, level, node_id, span, self.on_match);
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent<'_>) {
        if self.trie.has_live_step(sym) {
            let (name, level, element_span) = (&*event.name, event.level, event.element_span);
            self.trie.retreat(level);
            self.exec.end(self.groups, name, level, element_span, self.on_match);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitex_xmlsax::pos::ByteSpan;

    #[test]
    fn filtered_tags_pair_up_and_are_never_delivered() {
        let mut multi = MultiEngine::new();
        let q = multi.add_query("/a/b").unwrap();
        let (a, b) = (multi.interner.lookup("a"), multi.interner.lookup("b"));
        let (trie, groups) = multi.planner.runtime();
        trie.begin_document();
        multi.exec.begin_document(groups, false);
        let mut hits = Vec::new();
        let mut on_match = |q: QueryId, m: Match| hits.push((q, m.node));
        let mut sink = DocumentSink {
            interner: &multi.interner,
            trie,
            groups,
            exec: &mut multi.exec,
            on_match: &mut on_match,
        };
        let span = ByteSpan::new(0, 0);
        let start = |sink: &mut DocumentSink<'_, _>, sym, name: &str, level, id| {
            let event =
                StartElementEvent { name: name.into(), attrs: Default::default(), level, span };
            sink.start_element(sym, &event, id, id + 1);
            (sink.trie.run_stats().steps_executed, sink.groups[0].machine().stats().pushes)
        };
        let end = |sink: &mut DocumentSink<'_, _>, sym, name: &str, level| {
            let event = EndElementEvent { name: name.into(), level, element_span: span };
            sink.end_element(sym, &event);
            sink.trie.live_entries()
        };
        // <a><x><b/></x>t<b/></a>: x is unknown to every query, and no
        // query reads text. Each admitted start tag tests one live step.
        assert_eq!(start(&mut sink, a, "a", 1, 0), (1, 1), "/a pushes");
        assert_eq!(start(&mut sink, None, "x", 2, 1), (1, 1), "<x> is filtered");
        assert_eq!(start(&mut sink, b, "b", 3, 2), (2, 1), "/a/b does not match a/x/b");
        assert_eq!(end(&mut sink, b, "b", 3), 1);
        assert_eq!(end(&mut sink, None, "x", 2), 1, "</x> pairs with its filtered start tag");
        assert!(!sink.groups[0].machine().spec().needs_characters(), "no group reads text");
        let text = CharactersEvent { text: "t".into(), level: 1, span };
        sink.characters(&text, 3);
        assert_eq!(start(&mut sink, b, "b", 2, 4), (3, 2), "/a/b matches a/b");
        assert_eq!(end(&mut sink, b, "b", 2), 1);
        assert_eq!(end(&mut sink, a, "a", 1), 0, "every admitted start tag was retreated");
        // A new document starts from an empty trie.
        sink.trie.begin_document();
        assert_eq!(sink.trie.run_stats().steps_executed, 0);
        assert_eq!(start(&mut sink, a, "a", 1, 0).0, 1);
        assert_eq!(hits, [(q, 4)], "the second <b> was delivered, the first never matched");
    }

    #[test]
    fn retiring_every_group_on_a_trie_path_filters_its_tags_until_re_registration() {
        // The filter has no index of its own: it reads trie liveness, so it
        // must follow churn — predicate steps included, since `//c[d]`
        // routes `<d>` through the trie step `//c/d`.
        let mut multi = MultiEngine::new();
        let q_ab = multi.add_query("/a/b").unwrap();
        let q_c = multi.add_query("//c[d]").unwrap();
        let live = |multi: &MultiEngine, name: &str| {
            multi.planner.trie().has_live_step(multi.interner.lookup(name))
        };
        assert!(live(&multi, "a"), "/a is a live trie step");
        assert!(live(&multi, "d"), "//c/d is the live step of the predicate of //c[d]");
        assert_eq!(multi.remove_query(q_c), Some(true));
        assert!(!live(&multi, "d"), "retiring //c[d] makes <d> dormant again");
        assert_eq!(multi.remove_query(q_ab), Some(true));
        for name in ["a", "b", "c", "d"] {
            assert!(!live(&multi, name), "<{name}>: every interested group retired");
        }
        assert_eq!(multi.add_query("/a/b").unwrap(), QueryId(2));
        assert!(live(&multi, "a"), "re-registration revives the path");
        assert!(!live(&multi, "c") && !live(&multi, "d"), "//c[d] stays retired");
    }

    #[test]
    fn a_document_start_resets_exactly_the_machines_the_previous_document_pushed() {
        let mut multi = MultiEngine::new();
        let [a, b, c] = ["//a", "//b[x]", "//c"].map(|q| multi.add_query(q).unwrap());
        let touched = |multi: &MultiEngine| multi.exec.touched().to_vec();
        let at_rest = |multi: &MultiEngine, q: QueryId| {
            multi.planner.group(q.0).machine().stats() == &MachineStats::default()
        };
        // A truncated document pushes //b[x] (its predicate step included),
        // then //a: first-touch order, one entry per group.
        let cut = multi.run(XmlReader::from_str("<r><b><x/></b><a><b/><a>"), |_, _| {});
        assert!(cut.is_err());
        assert_eq!(touched(&multi), [b.0 as u32, a.0 as u32]);
        assert!(!at_rest(&multi, a) && !at_rest(&multi, b) && at_rest(&multi, c));
        // The next document's start resets those two and nothing else; it
        // then pushes //c alone.
        let out = multi.stream_document(XmlReader::from_str("<r><c/></r>"), |_, _| {}).unwrap();
        assert!(out.matches.is_empty() && out.stats.is_empty(), "a streamed document");
        assert_eq!(multi.query_stats(c).pushes, 1);
        for q in [a, b] {
            assert_eq!(multi.query_stats(q), MachineStats::default(), "{q:?}");
        }
        assert_eq!(touched(&multi), [c.0 as u32]);
        assert!(at_rest(&multi, a) && at_rest(&multi, b) && !at_rest(&multi, c));
        // A document that pushes nothing resets //c and lists nothing.
        multi.run(XmlReader::from_str("<r/>"), |_, _| {}).unwrap();
        assert!(touched(&multi).is_empty());
        assert!([a, b, c].into_iter().all(|q| at_rest(&multi, q)));
    }

    #[test]
    fn session_streams_documents_back_to_back() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("//a").unwrap();
        let qb = multi.add_query("//b").unwrap();
        let docs = ["<a><b/></a>", "<a><a/><b/><b/></a>", "<x/>"];
        let outs = docs
            .iter()
            .map(|xml| multi.run(XmlReader::from_str(xml), |_, _| {}))
            .collect::<EngineResult<Vec<_>>>()
            .unwrap();
        assert_eq!(outs[0].matches[qa.0].len(), 1);
        assert_eq!(outs[1].matches[qa.0].len(), 2);
        assert_eq!(outs[1].matches[qb.0].len(), 2);
        assert_eq!(outs[2].matches[qa.0].len(), 0);
        assert_eq!(outs[2].elements, 1);
    }

    #[test]
    fn parse_error_mid_session_leaves_the_session_usable() {
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//b").unwrap();
        let err = multi.run(XmlReader::from_str("<a><b></a>"), |_, _| {});
        assert!(err.is_err(), "malformed document surfaces its error");
        let out = multi.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[q.0].len(), 1);
    }

    #[test]
    fn an_engine_without_queries_still_counts_the_stream() {
        let mut empty = MultiEngine::new();
        let out = empty.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.elements, 2);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn churn_between_sessions_recycles_slots() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("//a").unwrap();
        let qb = multi.add_query("//b").unwrap();
        let out = multi.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        assert_eq!(multi.remove_query(qa), Some(true));
        let qc = multi.add_query("//c").unwrap();
        let out = multi.run(XmlReader::from_str("<a><b/><c/></a>"), |_, _| {}).unwrap();
        assert!(out.matches[qa.0].is_empty(), "removed query stays silent");
        assert_eq!(out.matches[qb.0].len(), 1);
        assert_eq!(out.matches[qc.0].len(), 1);
        assert_eq!(out.plan.recycled_slots, 1, "//c recycled //a's slot");
    }
}
