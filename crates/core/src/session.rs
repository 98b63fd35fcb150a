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
//! The engine's one `EventSink` hands every event it is shown to the
//! executor. A start tag asks the trie for its pushes, and the trie checks
//! only the live steps that test its name (every machine node of every
//! group is routed on a trie step, so no other element can move a
//! machine); a text node goes only to the machines holding an open entry
//! that reads text; at document end the epilogue reads the groups
//! directly. After a start tag's touches the sink tells the driver whether
//! the element's content can matter (`Executor::content_matters`): not
//! when no descendant-axis step is routed, no open entry reads text, and
//! no step that pushed at the tag has a routed child step, for then
//! nothing inside can push. Such content is walked by the reader without
//! building its events (`XmlReader::skip_subtree`), and the element's end
//! tag arrives as always, so its pops and element matches keep their
//! spans, and the stream counts and node ids are those of a full read.
//!
//! ## One door out
//!
//! A match leaves through the caller's callback and nowhere else, once
//! per group emission and binding it reaches: the executor lends the
//! callback the solution as a [`MatchRef`] into the machines' string pool
//! together with the binding's subscribers, and bills that binding the
//! delivery and its payload bytes (`crate::multi::touch_group`); what
//! telemetry reports about a subscription's matches is its binding's bill.
//! So [`MultiEngine::stream_document`], the primitive, holds nothing per
//! match and allocates nothing per match either (the `vitex` CLI is built
//! on it), and owned matches are made by one collecting adapter around it.
//! [`MultiEngine::run`] makes one [`Match`] per binding delivery and
//! pushes it onto the binding's sequence, which its first subscriber
//! keeps. Once the document has ended, each sequence is sized exactly and
//! every other subscriber's vector is a clone of it. So what the adapter
//! copies per subscriber is one contiguous vector, and a match in it whose
//! name and value are short ([`crate::Text`] keeps them inline) copies as
//! plain bytes, with no reference count to bump. [`crate::Engine::run`] is
//! the same adapter over a one-query `MultiEngine`.
//!
//! ## Per-document cost
//!
//! A pub/sub feed is many standing queries over many small documents, so
//! what a document costs beyond its events must follow what it touched,
//! not the registration count k (YFilter keeps its per-message work
//! proportional to the states a message activates the same way). The
//! executor lists the groups a document pushed; they are the only
//! machines off rest, and the machines hold every stack (the trie keeps
//! none). So the next document resets only those. Plan statistics describe
//! the plan, not the documents that ran (a machine's stack headroom is
//! run-time state and not counted), so the planner caches them: a
//! registration or removal invalidates the cache, the next document's
//! epilogue refills it with one walk, and every other epilogue only reads
//! the executor's step counters.
//! Telemetry folds the subscribers of the touched groups into their rows
//! and sums — exact, since an untouched machine's counters are zero. The
//! rows themselves are filed at registration and removal
//! (`MultiEngine::file_rows`), so a document replays no churn. The
//! streamed [`MultiOutput`] carries the stream counters and the plan
//! statistics only; a subscription's statistics are read on request
//! ([`MultiEngine::query_stats`]). What stays O(k) per document is
//! opt-in: the collecting adapter's per-query vectors.
//!
//! ## Determinism
//!
//! Matches reach the callback in the executor's visit order: events in
//! document order, ascending group id within each event, the solutions one
//! machine delivers at one event in its candidate list's order, and for
//! one solution of a shared machine its bindings in first-registration
//! order, each binding's subscribers in registration order. Flattening the
//! subscriber slices gives [`MultiEngine::run`]'s per-subscription order.

use std::io::Read;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::XmlReader;

use crate::driver::EventSink;
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::multi::{Executor, MultiEngine, MultiOutput};
use crate::plan::{PlanGroup, StepTrie};
use crate::result::{Match, MatchRef, NodeId, QueryId};
use crate::stats::{Bill, MachineStats, PlanStats, StreamStats};
use crate::telemetry::metrics::Totals;
use crate::telemetry::{GroupRow, QueryRow};

impl MultiEngine {
    /// [`MultiEngine::stream_document`] behind the **one** collecting
    /// adapter: each binding delivery becomes one owned [`Match`], lent to
    /// `on_match` once per subscriber of the binding, in registration
    /// order, and pushed once onto the binding's sequence: its first
    /// subscriber's vector in the returned [`MultiOutput`]'s `matches` (per
    /// query, in delivery order). Once the document has ended, each
    /// sequence is sized exactly, and every other subscriber of the binding
    /// gets a clone of it. So `matches` grows with the deliveries times the
    /// subscribers, and the copying costs one vector per subscriber rather
    /// than one scattered push per subscriber and match.
    /// `stats` holds every registration's [`MultiEngine::query_stats`].
    pub fn run<R: Read, F: FnMut(QueryId, &Match)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let mut matches: Vec<Vec<Match>> =
            std::iter::repeat_with(Vec::new).take(self.records.len()).collect();
        let mut out = self.stream_document(reader, |subscribers, hit| {
            let hit = Match::from(*hit);
            for &q in subscribers {
                on_match(q, &hit);
            }
            // A binding with one delivery holds one `Match`.
            let sequence = &mut matches[subscribers[0].0];
            if sequence.capacity() == 0 {
                sequence.reserve_exact(1);
            }
            sequence.push(hit);
        })?;
        for &g in self.exec.touched() {
            for (subscribers, _) in self.planner.group(g as usize).binding_bills() {
                if let [first, rest @ ..] = subscribers {
                    matches[first.0].shrink_to_fit();
                    for q in rest {
                        matches[q.0] = matches[first.0].clone();
                    }
                }
            }
        }
        out.stats = self.all_query_stats();
        debug_assert!(
            matches
                .iter()
                .zip(&out.stats)
                .all(|(m, s)| (m.len() as u64, m.capacity()) == (s.emitted, m.len())),
            "`emitted` counts each subscription's deliveries, and sizes its vector"
        );
        out.matches = matches;
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
    /// `on_match` fires the moment a solution is decidable, once per group
    /// emission and binding it reaches, in binding order: with that
    /// binding's subscribers in registration order, and the solution lent
    /// as a [`MatchRef`]. Nothing is kept, and nothing allocated, per
    /// match. A malformed document ends with its error; the next one starts
    /// from nothing.
    pub fn stream_document<R: Read, F: FnMut(&[QueryId], &MatchRef<'_>)>(
        &mut self,
        reader: XmlReader<R>,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let (trie, groups) = self.planner.runtime();
        self.exec.begin_document(groups);
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
    /// the last document: the machine's statistics with `emitted` its
    /// binding's deliveries, and the payload bytes delivered to it.
    fn visit_group(&self, g: usize, mut f: impl FnMut(QueryId, &MachineStats, u64)) {
        let group = self.planner.group(g);
        let stats = group.machine().stats();
        let mut own = stats.clone();
        for (subscribers, bill) in group.binding_bills() {
            // A lone binding is delivered every solution once: its bill is
            // the machine's count, until a removal merges bindings.
            debug_assert!(
                group.machine().binding_count() > 1
                    || bill.delivered == stats.emitted
                    || self.planner.changed_since_document(),
                "a lone binding's bill counts what the machine emitted"
            );
            own.emitted = bill.delivered;
            subscribers.iter().for_each(|&q| f(q, &own, bill.bytes));
        }
    }

    /// The per-document epilogue: folds the document into the telemetry
    /// registry, when one is attached, and assembles the [`MultiOutput`].
    fn finish_document(&mut self, stream: StreamStats) -> MultiOutput {
        let plan = self.exec.with_run_counters(self.planner.cached_stats(&self.interner));
        self.driver.telemetry().fold(|totals| self.fold_telemetry(totals, &stream, &plan));
        MultiOutput {
            matches: Vec::new(),
            stats: Vec::new(),
            plan,
            elements: stream.elements,
            text_nodes: stream.text_nodes,
            events: stream.events,
        }
    }

    /// Files registration into the telemetry rows, when a handle is
    /// attached: a row for each new registration, and the rows of the
    /// groups in `changed`, each with whether its change created it
    /// (dropped when retired, restarted when created, otherwise their
    /// subscriber count refreshed).
    pub(crate) fn file_rows(&self, changed: impl IntoIterator<Item = (usize, bool)>) {
        self.driver.telemetry().fold(|totals| {
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
            for (gid, created) in changed {
                let group = self.planner.group(gid);
                rows[gid] = match rows[gid].take() {
                    _ if !group.is_active() => None,
                    Some(row) if !created => {
                        Some(GroupRow { subscribers: group.subscribers().len() as u64, ..row })
                    }
                    _ => Some(new_row(gid, group)),
                };
            }
        });
    }

    /// Folds the document into the registry's deterministic section: one
    /// walk over the touched groups that adds each machine to its group's
    /// row (filed when the group was registered) and to every subscriber's
    /// — per subscription, as private engines would, with what its own
    /// binding was delivered — and to the sums.
    fn fold_telemetry(&self, totals: &mut Totals, stream: &StreamStats, plan: &PlanStats) {
        let mut total = MachineStats::default();
        for &gid in self.exec.touched() {
            let gid = gid as usize;
            if let Some(row) = &mut totals.groups[gid] {
                row.bill.add(self.planner.group(gid).machine().stats());
            }
            self.visit_group(gid, |q, stats, bytes| {
                total.add(stats);
                let row = &mut totals.queries[q.0];
                row.bill.add(stats);
                row.matches += stats.emitted;
                row.emitted_bytes += bytes;
            });
        }
        // `emitted` counts each subscriber's deliveries.
        totals.fold_document(stream, &total, plan, total.emitted);
    }
}

/// The **one** [`EventSink`] of multi-query execution: it hands each
/// event to the executor, with the borrowed driver event and the caller's
/// callback. An element that no live trie step tests pushes nothing, and
/// its end tag finds nothing of its own to pop; one in whose content
/// nothing can push, and under which no entry reads text, has that content
/// skipped.
struct DocumentSink<'s, F> {
    interner: &'s Interner,
    trie: &'s StepTrie,
    groups: &'s mut [PlanGroup],
    exec: &'s mut Executor,
    on_match: &'s mut F,
}

impl<F: FnMut(&[QueryId], &MatchRef<'_>)> EventSink for DocumentSink<'_, F> {
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
        self.exec.start(self.trie, self.groups, sym, event, node_id, self.on_match);
    }

    fn content_matters(&mut self) -> bool {
        self.exec.content_matters()
    }

    fn characters(&mut self, event: &CharactersEvent<'_>, node_id: NodeId) {
        let (text, level, span) = (&*event.text, event.level, event.span);
        self.exec.text(self.groups, text, level, node_id, span, self.on_match);
    }

    fn end_element(&mut self, _sym: Option<Symbol>, event: &EndElementEvent<'_>) {
        let (name, level, element_span) = (&*event.name, event.level, event.element_span);
        self.exec.end(self.groups, name, level, element_span, self.on_match);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use vitex_xmlsax::pos::ByteSpan;

    #[test]
    fn filtered_tags_pair_up_and_are_never_delivered() {
        let mut multi = MultiEngine::new();
        let q = multi.add_query("/a/b").unwrap();
        let (a, b) = (multi.interner.lookup("a"), multi.interner.lookup("b"));
        let (trie, groups) = multi.planner.runtime();
        multi.exec.begin_document(groups);
        let mut hits = Vec::new();
        let mut on_match =
            |qs: &[QueryId], m: &MatchRef<'_>| hits.extend(qs.iter().map(|&q| (q, m.node)));
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
            (sink.exec.run_stats().prefix_steps_executed, sink.groups[0].machine().stats().pushes)
        };
        let end = |sink: &mut DocumentSink<'_, _>, sym, name: &str, level| {
            let event = EndElementEvent { name: name.into(), level, element_span: span };
            sink.end_element(sym, &event);
            sink.groups[0].machine().stats().live_entries
        };
        // <a><x><b/></x>t<b/></a>: x is unknown to every query, and no
        // query reads text. A start tag a live step tests checks that one.
        assert_eq!(start(&mut sink, a, "a", 1, 0), (1, 1), "/a pushes");
        assert_eq!(start(&mut sink, None, "x", 2, 1), (1, 1), "<x> tests no step");
        assert_eq!(start(&mut sink, b, "b", 3, 2), (2, 1), "/a/b does not match a/x/b");
        assert_eq!(end(&mut sink, b, "b", 3), 1);
        assert_eq!(end(&mut sink, None, "x", 2), 1, "</x> has nothing of its own to pop");
        assert!(!sink.groups[0].machine().spec().needs_characters(), "no group reads text");
        let text = CharactersEvent { text: "t".into(), level: 1, span };
        sink.characters(&text, 3);
        assert_eq!(start(&mut sink, b, "b", 2, 4), (3, 2), "/a/b matches a/b");
        assert_eq!(end(&mut sink, b, "b", 2), 1);
        assert_eq!(end(&mut sink, a, "a", 1), 0, "every push was popped");
        // A new document starts from nothing: machines at rest, counters at zero.
        sink.exec.begin_document(sink.groups);
        assert_eq!(sink.exec.run_stats().prefix_steps_executed, 0);
        assert_eq!(sink.groups[0].machine().stats(), &MachineStats::default());
        assert_eq!(start(&mut sink, a, "a", 1, 0), (1, 1));
        assert_eq!(hits, [(q, 4)], "the second <b> was delivered, the first never matched");
    }

    #[test]
    fn retiring_every_group_on_a_trie_path_filters_its_tags_until_re_registration() {
        // Liveness has no index of its own: it reads the trie's routes, so
        // it must follow churn — predicate steps included, since `//c[d]`
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
    fn a_removal_that_merges_bindings_leaves_the_survivor_its_own_bill() {
        let mut multi = MultiEngine::new();
        let [cash, wire] = ["Cash", "Wire"]
            .map(|p| multi.add_query(&format!("//item[payment = '{p}']/@id")).unwrap());
        let xml = r#"<r><item id="a"><payment>Cash</payment></item>
            <item id="b"><payment>Wire</payment></item>
            <item id="c"><payment>Cash</payment></item></r>"#;
        multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert_eq!([cash, wire].map(|q| multi.query_stats(q).emitted), [2, 1]);
        assert_eq!(multi.remove_query(cash), Some(false));
        assert_eq!(multi.planner.group(0).machine().binding_count(), 1);
        assert_eq!(multi.query_stats(wire).emitted, 1, "its binding's bill, not the machine's 3");
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert_eq!(out.stats[wire.0].emitted, 1);
        assert_eq!(out.matches[wire.0].len(), 1);
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
