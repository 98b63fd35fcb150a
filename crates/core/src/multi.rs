//! Multi-query evaluation: many standing queries, one scan, shared plan.
//!
//! The paper's motivating applications — stock tickers, sports feeds,
//! personalized newspapers — are publish/subscribe systems: *many*
//! standing queries watch *one* stream. Because TwigM machines are
//! independent consumers of the same SAX events, running `k` queries costs
//! one parse plus machine updates, not `k` parses. [`MultiEngine`]
//! packages that: register queries, stream a document once, receive
//! `(query id, match)` pairs as they become decidable.
//!
//! ## Planning
//!
//! Registration goes through the [`QueryPlanner`]: queries of one
//! **shape** (after canonicalization — predicate order sorted away — and
//! with the literal of their one `= 'string'` predicate leaf, or of their
//! one inline `[@name = 'string']` test, erased) share one [`PlanGroup`]
//! running a single machine, whose binding table files
//! each subscriber under its literal. Every solution fans out to the
//! subscribers of the bindings it reaches: bindings in first-registration
//! order, each binding's subscribers in registration order. Structurally
//! identical queries are the one-binding case (plain deduplication). The
//! planner's shared-prefix step trie keeps group lookup cheap and reports
//! how much structure the plan collapsed ([`MultiOutput::plan`]).
//!
//! ## Execution
//!
//! Poking every machine on every event makes the per-event cost `O(k)` —
//! fatal at thousands of standing queries. The **step trie**
//! ([`crate::plan::trie`]) keeps an event away from machines it cannot
//! move: every machine node of every group is routed on the trie node of
//! its step path, main path and predicates alike, and that node owns the
//! match state all of them agree on. A start tag advances it **once** —
//! one axis/name witness check per distinct trie node, however many
//! machine nodes share the step — and each push it decides lands, through
//! the node's routes, on exactly the group machine nodes that must push.
//!
//! A document streams through [`MultiEngine::stream_document`] (the
//! per-document path lives in the crate-private `session` module): it
//! shows a start tag to the per-event apply step (the crate-private
//! `Executor` at the bottom of this file) when a live trie step tests its
//! name, and every text node, on the calling thread. The executor
//! advances the trie and drives each routed group's pushes in ascending
//! group order, a frame stack lets an end tag touch exactly the machines
//! its start tag pushed (an untouched machine has nothing to pop), and
//! text goes to exactly the machines holding an open entry that reads
//! text (any other text consumer is idle). Every solution leaves through
//! the caller's callback and nowhere else (`fan_out_match`);
//! [`MultiOutput::matches`] is one collecting adapter around a streamed
//! document, at the API edge ([`MultiEngine::run`]). This is sound
//! because a machine's stacks only ever hold entries for elements it was
//! shown, and text/attribute tests live inside the delivered events.
//!
//! The plan updates **incrementally**: [`MultiEngine::add_query`] splices
//! the new group into the trie routes in place and
//! [`MultiEngine::remove_query`] clears it back out when the last
//! subscriber of a group leaves — no rebuild between documents, so a
//! long-lived pub/sub engine can churn subscriptions mid-stream.
//!
//! Per subscription, a run reproduces a private [`crate::Engine`]'s
//! matches and payloads, and its machine statistics: in a group with one
//! binding on every counter; in a group with several on the work counters
//! — pushes, pops, predicate evaluations and dispatch hits, the structure
//! being the literal's alone — and on `emitted`, which counts the
//! subscription's own deliveries. Flag and candidate counters are then
//! the shared machine's.

use vitex_xmlsax::event::StartElementEvent;
use vitex_xmlsax::pos::ByteSpan;
use vitex_xpath::query_tree::QueryTree;

use crate::bitset::DynBitSet;
use crate::driver::DocumentDriver;
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::machine::{CandidateStore, Deliver};
use crate::plan::group::Binding;
use crate::plan::{PlanGroup, QueryPlanner, StepTrie, TriePush};
use crate::result::{Match, NodeId};
use crate::stats::{MachineStats, PlanStats};
use crate::telemetry::Telemetry;

pub use crate::result::QueryId;

/// Summary of one multi-query run.
#[derive(Debug, Clone)]
pub struct MultiOutput {
    /// Matches per query, in emission order (indexed by [`QueryId`];
    /// removed queries keep an empty slot). Empty when the document was
    /// streamed ([`MultiEngine::stream_document`]).
    pub matches: Vec<Vec<Match>>,
    /// Machine statistics per query (indexed by [`QueryId`]); removed
    /// queries report zeros. Empty, like `matches`, when the document was
    /// streamed: filling it costs one record per registration, so
    /// [`MultiEngine::stream_document`] leaves it to
    /// [`MultiEngine::query_stats`], and only the collecting adapter
    /// ([`MultiEngine::run`]) fills it.
    ///
    /// Queries of one plan group share a machine and report its
    /// statistics — equal, for a group with one binding, to what a private
    /// [`crate::Engine`] reports on every counter — except `emitted`, which
    /// counts each subscription's own deliveries. With several bindings the
    /// shared counters still equal a private `Engine`'s on pushes, pops,
    /// predicate evaluations and dispatch hits; the flag and candidate
    /// counters are the group's.
    pub stats: Vec<MachineStats>,
    /// Plan-level statistics: group/dedup/trie-sharing counters.
    pub plan: PlanStats,
    /// Elements seen in the single scan.
    pub elements: u64,
    /// Text nodes seen in the single scan.
    pub text_nodes: u64,
    /// Total SAX events processed in the single scan.
    pub events: u64,
}

/// Evaluates many queries in a single sequential scan.
pub struct MultiEngine {
    /// The step trie and the plan-group slots, active or not, indexed by
    /// group id.
    pub(crate) planner: QueryPlanner,
    /// Per-registration records, indexed by [`QueryId`].
    pub(crate) records: Vec<QueryRecord>,
    pub(crate) interner: Interner,
    pub(crate) driver: DocumentDriver,
    /// The per-event apply step: engine-owned so that each document
    /// clears its buffers instead of reallocating them.
    pub(crate) exec: Executor,
    /// While telemetry is on, the groups whose subscriber set changed since
    /// the last document, in order, each with whether that change created
    /// it: what the next document's fold refreshes besides the groups it
    /// touched.
    pub(crate) churned: Vec<(u32, bool)>,
}

/// One registration's bookkeeping.
pub(crate) struct QueryRecord {
    /// Source text of the query as registered (`QueryTree::original`).
    pub(crate) text: String,
    /// Owning plan group; `None` once removed.
    pub(crate) group: Option<usize>,
}

impl MultiEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        MultiEngine {
            planner: QueryPlanner::new(),
            records: Vec::new(),
            interner: Interner::new(),
            driver: DocumentDriver::new(),
            exec: Executor::default(),
            churned: Vec::new(),
        }
    }

    /// Registers a query; returns its handle.
    pub fn add_query(&mut self, query: &str) -> EngineResult<QueryId> {
        let tree = QueryTree::parse(query)?;
        self.add_tree(&tree)
    }

    /// Registers an already-built query tree. The plan is updated in
    /// place — no rebuild happens on the next document, so subscriptions
    /// can be added between (or ahead of) documents at any point.
    pub fn add_tree(&mut self, tree: &QueryTree) -> EngineResult<QueryId> {
        let id = QueryId(self.records.len());
        let reg = self.planner.register(tree, id, &mut self.interner)?;
        self.records.push(QueryRecord { text: tree.original().to_owned(), group: Some(reg.group) });
        self.churn(reg.group, reg.created);
        Ok(id)
    }

    /// Unregisters a query. Returns `Some(true)` when it was the **last**
    /// subscriber of its plan group (the shared machine retired with it),
    /// `Some(false)` when other subscribers keep the group alive, and
    /// `None` when the id is unknown or already removed. Like
    /// registration, removal updates the plan in place.
    pub fn remove_query(&mut self, id: QueryId) -> Option<bool> {
        let record = self.records.get_mut(id.0)?;
        let gid = record.group.take()?;
        self.churn(gid, false);
        Some(self.planner.unsubscribe(gid, id))
    }

    /// Notes a change to group `gid`'s subscribers for the telemetry rows.
    fn churn(&mut self, gid: usize, created: bool) {
        if self.driver.telemetry().is_enabled() {
            self.churned.push((gid as u32, created));
        }
    }

    /// Active subscription count (registered minus removed).
    pub fn len(&self) -> usize {
        self.planner.query_count()
    }

    /// Whether no subscription is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of plan groups actually running machines:
    /// `group_count() <= len()`; the gap is the dedup win.
    pub fn group_count(&self) -> usize {
        self.planner.group_count()
    }

    /// The source text of a registered query, as registered (retained
    /// after removal); `None` for an id this engine never issued.
    pub fn query_text(&self, id: QueryId) -> Option<&str> {
        self.records.get(id.0).map(|r| r.text.as_str())
    }

    /// Plan-level statistics for the current subscription set.
    pub fn plan_stats(&self) -> PlanStats {
        self.planner.stats(&self.interner)
    }

    /// Attaches a telemetry handle: the driver records dispatch timing,
    /// and each run folds its stream counters, per-subscription machine
    /// counters, plan statistics, and match count into the registry, with
    /// one row per subscription (payload bytes delivered included) and one
    /// per active plan group ([`crate::telemetry::QueryRow`],
    /// [`crate::telemetry::GroupRow`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if telemetry.is_enabled() {
            // Rows for the groups registered before the handle came.
            self.churned.extend((0..self.planner.groups().len() as u32).map(|g| (g, false)));
        }
        self.driver.set_telemetry(telemetry);
    }
}

impl Default for MultiEngine {
    fn default() -> Self {
        MultiEngine::new()
    }
}

/// Match payload bytes for delivery accounting: the node id plus the
/// name/value text. A pure function of the match, so the total is
/// deterministic wherever the match set is.
fn match_bytes(m: &Match) -> u64 {
    8 + m.name.as_deref().map_or(0, str::len) as u64 + m.value.as_deref().map_or(0, str::len) as u64
}

/// Fans one solution a group's machine delivered to `to` — its bindings,
/// ascending, or `None` for all of them — out to their subscribers:
/// binding by binding, each one's in registration order, the last
/// subscriber taking the hit by value so a single-subscriber delivery
/// never clones. With several bindings, each one reached is billed the
/// delivery. This is the **one** fan-out in the system, and the callback
/// the only place a match goes.
pub(crate) fn fan_out_match<F: FnMut(QueryId, Match)>(
    subscribers: &[QueryId],
    bindings: &mut [Binding],
    to: Option<&[u32]>,
    on_match: &mut F,
    hit: Match,
) {
    let mut reached = subscribers;
    if !bindings.is_empty() {
        let (count, bytes) = (bindings.len(), match_bytes(&hit));
        // Bills binding `b` and returns its subscribers' range.
        let mut bill = |b: usize| {
            let start = if b == 0 { 0 } else { bindings[b - 1].end as usize };
            let binding = &mut bindings[b];
            (binding.delivered, binding.bytes) = (binding.delivered + 1, binding.bytes + bytes);
            start..binding.end as usize
        };
        match to {
            None => {
                for b in 0..count {
                    bill(b);
                }
            }
            Some(to) => {
                let (&last, rest) = to.split_last().expect("a delivery reaches a binding");
                for &b in rest {
                    subscribers[bill(b as usize)]
                        .iter()
                        .for_each(|&sub| on_match(sub, hit.clone()));
                }
                reached = &subscribers[bill(last as usize)];
            }
        }
    }
    let (&last, rest) = reached.split_last().expect("a binding has a subscriber");
    for &sub in rest {
        on_match(sub, hit.clone());
    }
    on_match(last, hit);
}

/// Runs one machine `touch` of group `slot`, handing it the emit closure:
/// the fan-out to `subscribers` and `bindings` through `on_match`, after
/// the slot's payload byte tally when `emitted_bytes` keeps one.
#[inline]
fn touch_group<R>(
    emitted_bytes: &mut [u64],
    slot: u32,
    (subscribers, bindings): (&[QueryId], &mut [Binding]),
    on_match: &mut impl FnMut(QueryId, Match),
    touch: impl FnOnce(&mut Deliver<'_>) -> R,
) -> R {
    let mut bytes = emitted_bytes.get_mut(slot as usize);
    touch(&mut |to, hit| {
        if let Some(bytes) = &mut bytes {
            **bytes += match_bytes(&hit);
        }
        fan_out_match(subscribers, bindings, to, on_match, hit)
    })
}

/// The **one** per-event apply step of multi-query execution: given the
/// step trie and the group slots (a slot is a group id), it drives exactly
/// the machines an event can move and fans every solution out to its
/// group's subscribers through the caller's callback ([`fan_out_match`]).
#[derive(Debug, Default)]
pub(crate) struct Executor {
    /// Scratch: the trie pushes of the current start tag.
    pushed: Vec<TriePush>,
    /// Scratch: the start tag's plan, `(slot, machine node, ptr)`,
    /// ascending.
    plans: Vec<(u32, u32, u32)>,
    /// Flat frame storage: slots that pushed, per open element.
    frame_slots: Vec<u32>,
    /// One `frame_slots` offset per open element.
    frames: Vec<u32>,
    /// Slots whose machine holds an open entry that reads text
    /// ([`crate::machine::TwigM::text_live`]), kept current at the start
    /// and end touches that open and close such entries.
    text_live: DynBitSet,
    /// The slots whose machine the current (or last) document pushed, in
    /// first-touch order: the only machines off rest, so the only ones the
    /// next document resets and the only ones whose statistics can be
    /// nonzero.
    touched: Vec<u32>,
    /// The run-time memory of every machine this executor drives.
    store: CandidateStore,
    /// Payload bytes of the solutions each slot's machine emitted this
    /// document, tallied where a solution leaves its machine: a
    /// subscription's `emitted_bytes` in a group with one binding (one with
    /// several bills its bindings). One entry per slot while telemetry is
    /// on, none otherwise.
    emitted_bytes: Vec<u64>,
}

impl Executor {
    /// Puts the machines the previous document touched back at rest,
    /// drops every frame it left open (a parse error ends a document
    /// mid-element), takes back what its machines held in the store, and
    /// zeroes their byte tallies — keeping one per group slot when
    /// `tally_bytes` (telemetry is on), none otherwise. Every other machine
    /// is already at rest with a zero tally, so this costs what that
    /// document touched plus the slots created since, not the slot count.
    pub(crate) fn begin_document(&mut self, groups: &mut [PlanGroup], tally_bytes: bool) {
        for slot in self.touched.drain(..) {
            groups[slot as usize].reset();
            self.text_live.remove(slot as usize);
            if let Some(bytes) = self.emitted_bytes.get_mut(slot as usize) {
                *bytes = 0;
            }
        }
        self.frame_slots.clear();
        self.frames.clear();
        self.store.reset();
        if tally_bytes {
            self.emitted_bytes.resize(groups.len(), 0);
        } else {
            self.emitted_bytes.clear();
        }
    }

    /// Payload bytes `slot`'s machine emitted this document (zero unless
    /// telemetry is on).
    pub(crate) fn emitted_bytes(&self, slot: usize) -> u64 {
        self.emitted_bytes.get(slot).copied().unwrap_or(0)
    }

    /// The slots the current (or last) document pushed, in first-touch
    /// order.
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// `startElement`: advances the trie once, expands its pushes along
    /// their routes into `(slot, machine node, ptr)` plans, and drives
    /// each slot's run of them in ascending slot order,
    /// recording the slots as the element's frame. A slot's first touch of
    /// the document is the one that finds its machine without a dispatch
    /// hit: the machine starts the document at rest, and every start touch
    /// counts one. `node_id` is the element's id, and its attributes take
    /// the ids after it.
    pub(crate) fn start(
        &mut self,
        trie: &mut StepTrie,
        groups: &mut [PlanGroup],
        sym: Option<Symbol>,
        event: &StartElementEvent<'_>,
        node_id: NodeId,
        on_match: &mut impl FnMut(QueryId, Match),
    ) {
        let Self { pushed, plans, frame_slots, frames, text_live, touched, store, emitted_bytes } =
            self;
        pushed.clear();
        trie.advance(sym, event.level, pushed);
        plans.clear();
        for p in pushed.iter() {
            let routes = trie.routes(p.node as usize);
            plans.extend(routes.iter().map(|&(slot, mnode)| (slot, mnode, p.ptr)));
        }
        // Routes ascend, so one push expands in order; several pushes
        // interleave.
        if pushed.len() > 1 {
            plans.sort_unstable();
        }
        frames.push(frame_slots.len() as u32);
        for run in plans.chunk_by(|a, b| a.0 == b.0) {
            let slot = run[0].0;
            let (machine, subscribers, bindings) = groups[slot as usize].machine_and_fan_out();
            if machine.stats().dispatch_hits == 0 {
                touched.push(slot);
            }
            touch_group(emitted_bytes, slot, (subscribers, bindings), on_match, |out| {
                machine.start_element_prefix(
                    store,
                    run.iter().map(|&(_, q, ptr)| (q, ptr)),
                    event.level,
                    event.attributes(),
                    node_id,
                    node_id + 1,
                    event.span,
                    out,
                )
            });
            frame_slots.push(slot);
            if machine.text_live() {
                text_live.insert(slot as usize);
            }
        }
    }

    /// `characters`: to every slot whose machine holds an open entry that
    /// reads text, ascending. A text consumer with none open would do
    /// nothing with the event, so skipping it changes no match and no
    /// counter.
    pub(crate) fn text(
        &mut self,
        groups: &mut [PlanGroup],
        text: &str,
        level: u32,
        node_id: NodeId,
        span: ByteSpan,
        on_match: &mut impl FnMut(QueryId, Match),
    ) {
        let Self { text_live, store, emitted_bytes, .. } = self;
        text_live.for_each(|slot| {
            let (machine, subscribers, bindings) = groups[slot].machine_and_fan_out();
            touch_group(emitted_bytes, slot as u32, (subscribers, bindings), on_match, |out| {
                machine.characters_to(store, text, level, node_id, span, out)
            });
        });
    }

    /// `endElement`: pops the element's frame and touches exactly the
    /// machines its start tag pushed, in the same ascending order.
    pub(crate) fn end(
        &mut self,
        groups: &mut [PlanGroup],
        name: &str,
        level: u32,
        element_span: ByteSpan,
        on_match: &mut impl FnMut(QueryId, Match),
    ) {
        let base = self.frames.pop().expect("events nest") as usize;
        for &slot in &self.frame_slots[base..] {
            let (machine, subscribers, bindings) = groups[slot as usize].machine_and_fan_out();
            touch_group(&mut self.emitted_bytes, slot, (subscribers, bindings), on_match, |out| {
                machine.end_element_to(&mut self.store, name, level, element_span, out)
            });
            if !machine.text_live() {
                self.text_live.remove(slot as usize);
            }
        }
        self.frame_slots.truncate(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitex_xmlsax::XmlReader;

    #[test]
    fn multiple_queries_one_scan() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("//a").unwrap();
        let qb = multi.add_query("//b").unwrap();
        let qab = multi.add_query("//a/b").unwrap();
        let xml = "<a><b/><c><b/></c></a>";
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        assert_eq!(out.matches[qb.0].len(), 2);
        assert_eq!(out.matches[qab.0].len(), 1);
        assert_eq!(out.elements, 4);
    }

    #[test]
    fn results_and_stats_agree_with_single_engines() {
        // k independent single-query engines are the reference: same
        // matches in the same order, and — untouched machines do no work —
        // the same per-query machine statistics.
        for (seed, queries) in [
            (99, &["//a", "//a[b]", "//a/@id", "//b/text()", "//a//b[c]"][..]),
            (7, &["//a[b]/c", "//b//c", "//c/@id", "//*[a]"][..]),
        ] {
            let xml = vitex_xmlgen_free::random_doc(seed);
            let mut multi = MultiEngine::new();
            for q in queries {
                multi.add_query(q).unwrap();
            }
            let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let tree = QueryTree::parse(q).unwrap();
                let single =
                    crate::engine::evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
                assert_eq!(out.matches[i], single.matches, "query {q}");
                assert_eq!(out.stats[i], single.stats, "query {q}");
                assert_eq!(out.events, single.events);
            }
        }
    }

    #[test]
    fn callback_carries_query_ids() {
        let mut multi = MultiEngine::new();
        multi.add_query("//a").unwrap();
        multi.add_query("//b").unwrap();
        let mut hits = Vec::new();
        multi.run(XmlReader::from_str("<a><b/></a>"), |q, m| hits.push((q.0, m.node))).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, [(0, 0), (1, 1)]);
    }

    #[test]
    fn query_text_and_introspection() {
        let mut multi = MultiEngine::default();
        assert!(multi.is_empty());
        let id = multi.add_query("//a[ b ]").unwrap();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi.group_count(), 1);
        assert_eq!(multi.query_text(id), Some("//a[b]"));
    }

    #[test]
    fn query_text_of_an_unknown_id_is_none() {
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//a").unwrap();
        assert_eq!(multi.query_text(QueryId(99)), None);
        assert_eq!(multi.remove_query(q), Some(true));
        assert_eq!(multi.query_text(q), Some("//a"), "a removed query keeps its text");
        assert_eq!(multi.remove_query(QueryId(99)), None);
        assert_eq!(multi.query_stats(QueryId(99)), MachineStats::default());
    }

    #[test]
    fn engine_is_reusable() {
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//b").unwrap();
        let a = multi.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        let b = multi.run(XmlReader::from_str("<a><b/><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(a.matches[q.0].len(), 1);
        assert_eq!(b.matches[q.0].len(), 2);
    }

    #[test]
    fn stream_counts_match_single_engine_instrumentation() {
        // MultiOutput parity: the same stream counters EvalOutput reports.
        let xml = "<a><b>text</b><!--c--><d/></a>";
        let mut multi = MultiEngine::new();
        multi.add_query("//b").unwrap();
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        let single = crate::engine::evaluate_str(xml, "//b").unwrap();
        assert_eq!(single.len(), 1);
        let eval = {
            let tree = vitex_xpath::QueryTree::parse("//b").unwrap();
            crate::engine::evaluate_reader(XmlReader::from_str(xml), &tree).unwrap()
        };
        assert_eq!(out.elements, eval.elements);
        assert_eq!(out.text_nodes, eval.text_nodes);
        assert_eq!(out.events, eval.events);
        assert_eq!(out.text_nodes, 1);
        assert!(out.events >= 8, "comments count as events: {}", out.events);
    }

    #[test]
    fn wildcard_only_machine_sees_every_event() {
        // A machine whose steps are all wildcards has an empty name index;
        // its wildcard trie steps must still deliver every element to it.
        let xml = "<r><x><y/></x><z/></r>";
        let mut multi = MultiEngine::new();
        let q = multi.add_query("//*/*").unwrap();
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        // Matches: x, y, z (every non-root element).
        assert_eq!(out.matches[q.0].len(), 3);
        // And its machine saw all 4 elements (pushes at the wildcard root).
        assert!(out.stats[q.0].pushes >= 4);
    }

    #[test]
    fn text_reaches_the_machines_with_an_open_text_reader() {
        // Text inside, between and outside the elements that read it, with
        // a reader (`<a>`) staying open across nested pushes of its own
        // machine: skipping idle text consumers changes no match and no
        // counter, no slot is left marked when the document ends, and the
        // marks a truncated document leaves behind do not reach the next.
        let queries = ["//a[b = 'x']/c", "//d/text()", "//e[text() = 'y']", "//a//a[text() = 'x']"];
        let xml = "<r>x<a>x<a><b>x</b>x<c/></a>y<b>x<i>!</i></b><c>x</c></a>y<d>y</d><e>y</e>x</r>";
        let mut multi = MultiEngine::new();
        for q in queries {
            multi.add_query(q).unwrap();
        }
        assert!(multi.run(XmlReader::from_str("<r><a><b>x"), |_, _| {}).is_err());
        assert!(!multi.exec.text_live.is_empty(), "the truncated document left <b> open");
        assert!(!multi.exec.store.is_idle(), "and its string-value buffer lent out");
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert!(multi.exec.text_live.is_empty());
        assert!(multi.exec.store.is_idle(), "a complete document returns every handle");
        for (i, q) in queries.iter().enumerate() {
            let tree = QueryTree::parse(q).unwrap();
            let single = crate::engine::evaluate_reader(XmlReader::from_str(xml), &tree).unwrap();
            assert!(!single.matches.is_empty(), "query {q} is exercised");
            assert_eq!(out.matches[i], single.matches, "query {q}");
            assert_eq!(out.stats[i], single.stats, "query {q}");
        }
    }

    #[test]
    fn late_registration_updates_the_index_in_place() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("//a").unwrap();
        let out = multi.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        // Register a query for a new name after a run: the index must pick
        // up both the new group and the new symbol.
        let qb = multi.add_query("//b").unwrap();
        let out = multi.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        assert_eq!(out.matches[qb.0].len(), 1);
    }

    #[test]
    fn duplicate_queries_share_a_machine_and_fan_out() {
        let mut multi = MultiEngine::new();
        let q1 = multi.add_query("//a[b and c]").unwrap();
        let q2 = multi.add_query("//a[c][b]").unwrap(); // same canonical form
        let q3 = multi.add_query("//a[b]").unwrap(); // different query
        assert_eq!(multi.len(), 3);
        assert_eq!(multi.group_count(), 2);
        let xml = "<r><a><b/><c/></a><a><b/></a></r>";
        let mut streamed: Vec<(usize, u64)> = Vec::new();
        let out = multi.run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node))).unwrap();
        // Both subscribers of the shared machine see the same single match.
        assert_eq!(out.matches[q1.0].len(), 1);
        assert_eq!(out.matches[q1.0], out.matches[q2.0]);
        assert_eq!(out.matches[q3.0].len(), 2);
        // Fan-out order is registration order, interleaved per solution.
        let shared_hits: Vec<usize> =
            streamed.iter().filter(|(_, n)| *n == 1).map(|(q, _)| *q).collect();
        assert_eq!(shared_hits[..2], [q1.0, q2.0]);
        // Shared subscribers report the same machine statistics.
        assert_eq!(out.stats[q1.0], out.stats[q2.0]);
        assert_eq!(out.plan.queries, 3);
        assert_eq!(out.plan.groups, 2);
        assert_eq!(out.plan.dedup_ratio(), 1.5);
    }

    #[test]
    fn prefix_shared_execution_matches_and_counts() {
        // /a/b and /a/c share the /a trie node; //x[y] forks on its
        // predicate. Results must equal private per-query engines, the
        // callback order is pinned by hand, and the prefix counters must
        // show the runtime trie at work.
        let xml = "<a><b/><c/><x><y/></x><b/></a>";
        let queries = ["/a/b", "/a/c", "//x[y]", "/a/b"];
        let mut multi = MultiEngine::new();
        for q in queries {
            multi.add_query(q).unwrap();
        }
        let mut streamed = Vec::new();
        let out = multi.run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node))).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let tree = QueryTree::parse(q).unwrap();
            let single = crate::engine::evaluate_reader(XmlReader::from_str(xml), &tree).unwrap();
            assert_eq!(out.matches[i], single.matches, "query {q}");
            assert_eq!(out.stats[i], single.stats, "query {q}");
        }
        // Elements number a=0 b=1 c=2 x=3 y=4 b=5. Each solution is
        // decidable at its element's end tag (x[y] once y closed inside
        // it); the two /a/b subscribers share a machine and fire together,
        // in registration order.
        assert_eq!(streamed, [(0, 1), (3, 1), (1, 2), (2, 3), (0, 5), (3, 5)]);
        // <a> checks /a once for two groups; <b>, <c>, <x>, <y> one node
        // each (the predicate step of //x[y] is the trie step //x/y).
        assert_eq!(out.plan.prefix_steps_executed, 6);
        assert_eq!(out.plan.prefix_steps_saved, 1, "/a is shared by two groups");
        assert_eq!(out.plan.prefix_forks, 7);
        assert!(out.plan.prefix_stack_bytes > 0);
        // Dedup still applies: the duplicate /a/b joined a group.
        assert_eq!(out.plan.queries, 4);
        assert_eq!(out.plan.groups, 3);
    }

    #[test]
    fn trie_routes_survive_churn_between_runs() {
        let mut multi = MultiEngine::new();
        let qa = multi.add_query("/a/b").unwrap();
        let qb = multi.add_query("/a/c").unwrap();
        let xml = "<a><b/><c/></a>";
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        assert_eq!(out.matches[qb.0].len(), 1);
        assert_eq!(multi.remove_query(qa), Some(true));
        let qd = multi.add_query("//b").unwrap();
        let out = multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap();
        assert!(out.matches[qa.0].is_empty(), "retired group stays silent");
        assert_eq!(out.matches[qb.0].len(), 1);
        assert_eq!(out.matches[qd.0].len(), 1);
        assert_eq!(out.plan.recycled_slots, 1, "//b recycled /a/b's slot");
    }

    #[test]
    fn remove_query_reports_last_subscriber_and_stops_matches() {
        let mut multi = MultiEngine::new();
        let q1 = multi.add_query("//a").unwrap();
        let q2 = multi.add_query("//a").unwrap();
        let q3 = multi.add_query("//b").unwrap();
        assert_eq!(multi.remove_query(q1), Some(false), "q2 still subscribes");
        assert_eq!(multi.remove_query(q1), None, "double removal");
        assert_eq!(multi.remove_query(q2), Some(true), "last subscriber");
        assert_eq!(multi.len(), 1);
        assert_eq!(multi.group_count(), 1);
        let out = multi
            .run(XmlReader::from_str("<a><b/></a>"), |q, _| {
                assert_eq!(q, q3, "only the surviving query fires");
            })
            .unwrap();
        assert!(out.matches[q1.0].is_empty());
        assert!(out.matches[q2.0].is_empty());
        assert_eq!(out.matches[q3.0].len(), 1);
        assert_eq!(out.stats[q1.0], MachineStats::default());
        // The id space is not recycled.
        let q4 = multi.add_query("//c").unwrap();
        assert_eq!(q4.0, 3);
    }

    /// A tiny deterministic random document without depending on
    /// vitex-xmlgen (which would be a cyclic dev-dependency).
    mod vitex_xmlgen_free {
        pub fn random_doc(seed: u64) -> String {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut out = String::from("<r>");
            let mut depth = 1;
            for _ in 0..120 {
                match next(5) {
                    0 | 1 if depth < 8 => {
                        let tag = ["a", "b", "c"][next(3) as usize];
                        if next(3) == 0 {
                            out.push_str(&format!("<{tag} id=\"v{}\">", next(3)));
                        } else {
                            out.push_str(&format!("<{tag}>"));
                        }
                        // remember with a marker on the stack via depth only
                        STACK.with(|s| s.borrow_mut().push(tag));
                        depth += 1;
                    }
                    2 if depth > 1 => {
                        let tag = STACK.with(|s| s.borrow_mut().pop().unwrap());
                        out.push_str(&format!("</{tag}>"));
                        depth -= 1;
                    }
                    _ => out.push_str(["x", "y", "7"][next(3) as usize]),
                }
            }
            while depth > 1 {
                let tag = STACK.with(|s| s.borrow_mut().pop().unwrap());
                out.push_str(&format!("</{tag}>"));
                depth -= 1;
            }
            out.push_str("</r>");
            out
        }

        thread_local! {
            static STACK: std::cell::RefCell<Vec<&'static str>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
    }
}
