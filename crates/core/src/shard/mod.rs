//! Sessions: one pipeline from SAX events to delivered matches, on the
//! calling thread.
//!
//! TwigM machines are independent consumers of one sequential scan. A
//! [`Session`] is that scan for a frozen subscription set: the driver's
//! interned events pass the admission walk, what it admits goes straight
//! into the engine's `crate::multi::Executor` over the live plan groups,
//! and the per-document epilogue assembles the output.
//! [`MultiEngine::session`] opens one; [`MultiEngine::run`] is a
//! one-document session.
//!
//! [`MultiEngine::session`]: crate::MultiEngine::session
//! [`MultiEngine::run`]: crate::MultiEngine::run
//!
//! ## Sessions
//!
//! A session freezes the subscription set (it mutably borrows the engine)
//! and streams any number of documents back-to-back through
//! [`Session::stream_document`] without re-planning. Registration churn
//! (`add_query` / `remove_query`) happens between sessions.
//!
//! What a session holds, borrowed from the engine: the driver and
//! interner, the **admission walk** (`admit::Admission`: the
//! any-group-interested filter, the global trie advance and the
//! shared-step bill), the live groups and the executor that drives them.
//! Its one `EventSink` asks the walk first and hands what it admits to the
//! executor; at document end the session reads the groups directly.
//!
//! ## One door out
//!
//! A match leaves through the caller's callback and nowhere else: the
//! executor emits into `crate::multi::fan_out_match`, and what telemetry
//! and the ledger report about matches is counted where a solution leaves
//! its machine (`MachineStats::emitted`; payload bytes by the executor).
//! So [`Session::stream_document`], the primitive, holds nothing per
//! match (the `vitex` CLI is built on it), and buffering is **one**
//! collecting adapter around it, [`Session::run_document`], which
//! [`MultiEngine::run`] goes through.
//!
//! ## Determinism
//!
//! Matches reach the callback in the executor's visit order: events in
//! document order, ascending group id within each event, and a shared
//! machine's subscribers in registration order.

pub(crate) mod admit;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::EventSource;

use crate::driver::{DocumentDriver, EventSink};
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::multi::{Executor, MultiOutput, QueryRecord, SessionParts, StartTag};
use crate::plan::{resident_bytes, PlanGroup};
use crate::result::{Match, NodeId, QueryId};
use crate::stats::{MachineStats, PlanStats, StreamStats};
use crate::telemetry::CostLedger;

use admit::Admission;

/// A live session: the plan is frozen and any number of documents can
/// stream through (see the module docs). Obtained from
/// [`MultiEngine::session`](crate::MultiEngine::session).
pub struct Session<'a> {
    driver: &'a mut DocumentDriver,
    interner: &'a Interner,
    records: &'a [QueryRecord],
    /// Cost ledger: `None` unless profiling is on.
    profile: Option<&'a mut CostLedger>,
    /// The admission walk, reset per document.
    admission: Admission<'a>,
    /// Plan-group slots, active or not, indexed by group id.
    groups: &'a mut [PlanGroup],
    exec: &'a mut Executor,
    /// Plan statistics snapshot (the plan cannot change mid-session),
    /// `plan_bytes` short of the groups' resident bytes; those and the
    /// run counters are patched in per document.
    plan: PlanStats,
}

impl<'a> Session<'a> {
    /// Opens a session over `parts`. Opening costs the plan-statistics
    /// snapshot.
    pub(crate) fn open(parts: SessionParts<'a>) -> Self {
        let SessionParts { planner, interner, driver, index, exec, walk, records, profile } = parts;
        let plan = planner.stats_sans_group_bytes(interner);
        let (trie, groups) = planner.run_split();
        exec.sample_self_time(profile.is_some(), groups.len());
        Session {
            driver,
            interner,
            records,
            profile,
            admission: Admission::new(index, trie, walk),
            groups,
            exec,
            plan,
        }
    }

    /// [`Session::stream_document`] behind the **one** collecting
    /// adapter: each delivered match is also copied into the returned
    /// [`MultiOutput`]'s `matches` (per query, in delivery order), which
    /// therefore grows with their number.
    pub fn run_document<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let mut matches = vec![Vec::new(); self.records.len()];
        let mut out = self.stream_document(reader, |query, hit| {
            matches[query.0].push(hit.clone());
            on_match(query, hit);
        })?;
        out.matches = matches;
        Ok(out)
    }

    /// Streams one document through the session and returns the
    /// [`MultiOutput`] — per-query statistics, plan and stream counters —
    /// with `matches` left empty: `on_match` is the only way a match
    /// leaves. It fires in emission order while the document is still
    /// streaming, and nothing is kept once it returns. A malformed
    /// document ends with its error; the next one starts from nothing.
    pub fn stream_document<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        for g in self.groups.iter_mut().filter(|g| g.is_active()) {
            g.machine_mut().reset();
        }
        self.exec.begin_document();
        self.admission.begin_document(if self.profile.is_some() { self.groups.len() } else { 0 });
        let mut sink = SessionSink {
            interner: self.interner,
            walk: &mut self.admission,
            groups: self.groups,
            exec: self.exec,
            on_match: &mut on_match,
        };
        let stream = self.driver.run(reader, &mut sink)?;
        Ok(self.finish_document(stream))
    }

    /// The per-document epilogue: projects group statistics onto
    /// registration records, folds the document into the telemetry
    /// registry and the cost ledger (when there is one), and assembles the
    /// [`MultiOutput`]. Every fold is per subscription (not per group) — a
    /// shared machine contributes once per subscriber, as private engines
    /// would.
    fn finish_document(&mut self, stream: StreamStats) -> MultiOutput {
        let run = self.admission.trie_run_stats();
        let plan = PlanStats {
            plan_bytes: self.plan.plan_bytes + resident_bytes(self.groups),
            prefix_steps_executed: run.steps_executed,
            prefix_steps_saved: run.steps_saved,
            prefix_forks: run.forks,
            prefix_stack_bytes: run.peak_stack_bytes(),
            ..self.plan
        };
        let groups = &*self.groups;
        let stats: Vec<MachineStats> = (self.records.iter())
            .map(|r| {
                r.group.map_or_else(MachineStats::default, |g| groups[g].machine().stats().clone())
            })
            .collect();
        let telemetry = self.driver.telemetry();
        if telemetry.is_enabled() {
            let mut total = MachineStats::default();
            stats.iter().for_each(|s| total.add(s));
            // A machine counts `emitted` where a solution leaves it, and each
            // subscriber of its group is delivered every one.
            telemetry.fold_document(&stream, &total, Some(&plan), total.emitted);
        }
        if let Some(profile) = self.profile.as_deref_mut() {
            profile.add_doc();
            for (i, r) in self.records.iter().enumerate() {
                let emitted_bytes = r.group.map_or(0, |gid| self.exec.emitted_bytes(gid));
                profile.fold_query(QueryId(i), &r.text, r.group, &stats[i], emitted_bytes);
            }
            for (gid, g) in groups.iter().enumerate().filter(|(_, g)| g.is_active()) {
                let subscribers = g.subscribers().len() as u64;
                profile.fold_group(gid, g.canonical_key(), subscribers, g.machine().stats());
                profile.add_self_ns(gid, self.exec.self_ns(gid));
            }
            let shared_steps = self.admission.shared_steps();
            if shared_steps.iter().any(|&n| n > 0) {
                profile.add_shared_steps(shared_steps);
            }
        }
        MultiOutput {
            matches: Vec::new(),
            stats,
            plan,
            elements: stream.elements,
            text_nodes: stream.text_nodes,
            events: stream.events,
        }
    }
}

/// The **one** [`EventSink`] of multi-query execution: every method asks
/// the admission walk first and hands what it admits to the executor,
/// with the borrowed driver event and the caller's callback.
struct SessionSink<'s, 'a, F> {
    interner: &'a Interner,
    walk: &'s mut Admission<'a>,
    groups: &'s mut [PlanGroup],
    exec: &'s mut Executor,
    on_match: &'s mut F,
}

impl<F: FnMut(QueryId, Match)> EventSink for SessionSink<'_, '_, F> {
    fn resolve(&mut self, name: &str) -> Option<Symbol> {
        self.interner.lookup(name)
    }

    fn start_element(
        &mut self,
        sym: Option<Symbol>,
        event: &StartElementEvent,
        node_id: NodeId,
        attr_id_base: NodeId,
    ) {
        let (level, span, attributes) = (event.level, event.span, event.attributes.as_slice());
        if self.walk.start(sym, level, attributes) {
            let tag = StartTag { sym, level, attributes, node_id, attr_id_base, span };
            self.exec.start(self.groups, self.walk.walked(), &tag, self.on_match);
        }
    }

    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
        if self.walk.text() {
            let (text, level, span) = (event.text.as_str(), event.level, event.span);
            self.exec.text(self.groups, text, level, node_id, span, self.on_match);
        }
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        if self.walk.end(sym, event.level) {
            let (name, level, element_span) =
                (event.name.as_str(), event.level, event.element_span);
            self.exec.end(self.groups, name, level, element_span, self.on_match);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiEngine;
    use vitex_xmlsax::XmlReader;

    #[test]
    fn session_streams_documents_back_to_back() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("//a").unwrap();
        let qb = multi.add_query("//b").unwrap();
        let docs = ["<a><b/></a>", "<a><a/><b/><b/></a>", "<x/>"];
        let outs = multi
            .session(|session| {
                docs.iter()
                    .map(|xml| session.run_document(XmlReader::from_str(xml), |_, _| {}))
                    .collect::<EngineResult<Vec<_>>>()
            })
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
        let out = multi
            .session(|session| {
                let err = session.run_document(XmlReader::from_str("<a><b></a>"), |_, _| {});
                assert!(err.is_err(), "malformed document surfaces its error");
                session.run_document(XmlReader::from_str("<a><b/></a>"), |_, _| {})
            })
            .unwrap();
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
