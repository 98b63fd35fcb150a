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
//! Registration goes through the [`QueryPlanner`]: structurally identical
//! queries (after canonicalization — predicate order sorted away) are
//! **deduplicated** into one [`PlanGroup`] running a single machine, and
//! every emitted solution fans out to the group's subscriber list. The
//! planner's shared-prefix step trie keeps group lookup cheap and reports
//! how much structure the plan collapsed ([`MultiOutput::plan`]).
//!
//! ## Execution
//!
//! Poking every machine on every event makes the per-event cost `O(k)` —
//! fatal at thousands of standing queries. Two structures keep an event
//! away from machines it cannot move:
//!
//! * the **step trie** ([`crate::plan::trie`]) owns the main-path match
//!   state every group routed through a node agrees on. A start tag
//!   advances it **once** — one axis/name witness check per distinct trie
//!   node, however many groups share the step — and each push it decides
//!   lands, through the node's routes, on exactly the group machine nodes
//!   that must push;
//! * the **dispatch index** (over the shared [`Interner`]) covers what
//!   the trie does not: per interned name the groups whose *predicate
//!   subtrees* test it, the groups with a predicate wildcard, and the
//!   groups that consume `characters` events.
//!
//! A document runs through one [`crate::shard::ShardSession`], whatever
//! the shard count: its **admission walk** asks both structures whether
//! any group wants the event and advances the trie, and its lane hands
//! what was admitted to the per-event apply step (the crate-private
//! `Executor` at the bottom of this file): a start tag merge-walks
//! trie-decided main pushes ∪ predicate-name interests in ascending group
//! order, a frame stack lets an end tag touch exactly the machines its
//! start tag pushed (an untouched machine has nothing to pop), and text
//! goes to exactly the machines holding an open entry that reads text
//! (any other text consumer is idle). Every solution leaves through the
//! caller's callback and nowhere else (`fan_out_match`);
//! [`MultiOutput::matches`] is one collecting adapter around a streamed
//! document, at the API edge ([`ShardSession::run_document`]). The apply
//! step is written once:
//! the session's *direct lane* runs the engine's own over the live
//! groups, keyed by group id, on the calling thread — that is all
//! [`MultiEngine::run`] is, a one-document direct-lane session — and
//! every worker of its *ring lane* runs one over the groups it has on
//! loan, keyed by local slot. This is sound because a machine's stacks
//! only ever hold entries for elements it was shown, and text/attribute
//! tests live inside the delivered events.
//!
//! Both structures update **incrementally**: [`MultiEngine::add_query`]
//! splices the new group into trie routes and index in place and
//! [`MultiEngine::remove_query`] clears it back out when the last
//! subscriber of a group leaves — no rebuild between runs, so long-lived
//! pub/sub sessions can churn subscriptions mid-stream.

use std::borrow::BorrowMut;
use std::time::Instant;

use vitex_xmlsax::event::Attribute;
use vitex_xmlsax::pos::ByteSpan;
use vitex_xmlsax::EventSource;
use vitex_xpath::query_tree::QueryTree;

use crate::bitset::DynBitSet;
use crate::builder::MachineSpec;
use crate::driver::DocumentDriver;
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::machine::CandidateStore;
use crate::plan::{PlanGroup, QueryPlanner, TriePush};
use crate::result::{Match, NodeId};
use crate::shard::admit::WalkScratch;
use crate::shard::ShardSession;
use crate::stats::{MachineStats, PlanStats, StreamStats};
use crate::telemetry::profile::match_bytes;
use crate::telemetry::{CostLedger, Telemetry};

pub use crate::result::QueryId;

/// Summary of one multi-query run.
#[derive(Debug, Clone)]
pub struct MultiOutput {
    /// Matches per query, in emission order (indexed by [`QueryId`];
    /// removed queries keep an empty slot). Empty when the document was
    /// streamed ([`ShardSession::stream_document`]).
    pub matches: Vec<Vec<Match>>,
    /// Machine statistics per query (indexed by [`QueryId`]). Queries
    /// deduplicated into one plan group share a machine and therefore
    /// report identical statistics; removed queries report zeros.
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

/// The dispatch index: which group slots care about which events *beyond*
/// the main-path pushes the step trie decides. Maintained incrementally
/// as groups activate and retire; the engine's is keyed by group id (with
/// the trie it is the session's admission filter, and the direct lane
/// dispatches from it), a shard worker's by local slot over its group
/// subset.
#[derive(Debug, Default)]
pub(crate) struct DispatchIndex {
    /// Symbol index → slots whose predicate subtrees test that name (and
    /// have no predicate wildcard — those live in `wildcard`).
    by_symbol: Vec<DynBitSet>,
    /// Slots with a wildcard step in a predicate subtree: their machines
    /// see every element event.
    wildcard: DynBitSet,
    /// Slots that consume `characters` events: the admission filter's
    /// text question. Which of them a given text event can move is the
    /// executor's `text_live`.
    text: DynBitSet,
}

impl DispatchIndex {
    /// Splices a group in at `slot`. `nsymbols` is the interner's current
    /// size: compiling the group's spec may have interned names this
    /// index has never seen.
    pub(crate) fn add_group(&mut self, slot: usize, spec: &MachineSpec, nsymbols: usize) {
        if self.by_symbol.len() < nsymbols {
            self.by_symbol.resize(nsymbols, DynBitSet::new());
        }
        if !spec.pred_wildcards.is_empty() {
            // A wildcard slot sees every element, which subsumes its
            // named interests.
            self.wildcard.insert(slot);
        } else {
            for &sym in &spec.pred_name_symbols {
                self.by_symbol[sym.index()].insert(slot);
            }
        }
        if spec.needs_characters() {
            self.text.insert(slot);
        }
    }

    /// Clears a retired group (last subscriber removed) back out of the
    /// index — the inverse of [`DispatchIndex::add_group`].
    fn remove_group(&mut self, slot: usize, spec: &MachineSpec) {
        if !spec.pred_wildcards.is_empty() {
            self.wildcard.remove(slot);
        } else {
            for &sym in &spec.pred_name_symbols {
                if let Some(set) = self.by_symbol.get_mut(sym.index()) {
                    set.remove(slot);
                }
            }
        }
        if spec.needs_characters() {
            self.text.remove(slot);
        }
    }

    /// Calls `f` for every slot with predicate interest in an element
    /// with symbol `sym` (named slots ∪ wildcard slots), ascending.
    #[inline]
    fn for_each_element_target(&self, sym: Option<Symbol>, f: impl FnMut(usize)) {
        match sym.and_then(|s| self.by_symbol.get(s.index())) {
            Some(named) => named.union_for_each(&self.wildcard, f),
            None => self.wildcard.for_each(f),
        }
    }

    /// Whether *any* slot has predicate interest in an element with this
    /// symbol — half of the admission filter's question (the other half
    /// is [`crate::plan::StepTrie::has_live_step`]).
    #[inline]
    pub(crate) fn has_element_target(&self, sym: Option<Symbol>) -> bool {
        !self.wildcard.is_empty()
            || sym
                .and_then(|s| self.by_symbol.get(s.index()))
                .is_some_and(|named| !named.is_empty())
    }

    /// Whether any slot consumes `characters` events.
    #[inline]
    pub(crate) fn has_text_target(&self) -> bool {
        !self.text.is_empty()
    }
}

/// Evaluates many queries in a single sequential scan.
pub struct MultiEngine {
    planner: QueryPlanner,
    /// Per-registration records, indexed by [`QueryId`].
    records: Vec<QueryRecord>,
    interner: Interner,
    driver: DocumentDriver,
    /// Predicate-subtree and text interests of every group, by group id.
    index: DispatchIndex,
    /// The direct lane's apply step, and the admission walk's buffers:
    /// engine-owned so that a session per document clears them instead of
    /// reallocating them.
    exec: Executor,
    walk: WalkScratch,
    /// Per-subscription cost attribution; `None` (the default) while
    /// profiling is off.
    profile: Option<CostLedger>,
}

/// One registration's bookkeeping.
pub(crate) struct QueryRecord {
    /// Canonical text of the query as registered.
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
            index: DispatchIndex::default(),
            exec: Executor::default(),
            walk: WalkScratch::default(),
            profile: None,
        }
    }

    /// Registers a query; returns its handle.
    pub fn add_query(&mut self, query: &str) -> EngineResult<QueryId> {
        let tree = QueryTree::parse(query)?;
        self.add_tree(&tree)
    }

    /// Registers an already-built query tree. The dispatch index and the
    /// plan are updated in place — no rebuild happens on the next run, so
    /// subscriptions can be added between (or ahead of) documents at any
    /// point in a session.
    pub fn add_tree(&mut self, tree: &QueryTree) -> EngineResult<QueryId> {
        let id = QueryId(self.records.len());
        let reg = self.planner.register(tree, id, &mut self.interner)?;
        if reg.created {
            let spec = self.planner.group(reg.group).machine().spec();
            self.index.add_group(reg.group, spec, self.interner.len());
        }
        self.records.push(QueryRecord { text: tree.original().to_owned(), group: Some(reg.group) });
        Ok(id)
    }

    /// Unregisters a query. Returns `Some(true)` when it was the **last**
    /// subscriber of its plan group (the shared machine retired with it),
    /// `Some(false)` when other subscribers keep the group alive, and
    /// `None` when the id is unknown or already removed. Like
    /// registration, removal updates the plan and dispatch index in
    /// place.
    pub fn remove_query(&mut self, id: QueryId) -> Option<bool> {
        let record = self.records.get_mut(id.0)?;
        let gid = record.group.take()?;
        let last = self.planner.unsubscribe(gid, id);
        if last {
            self.index.remove_group(gid, self.planner.group(gid).machine().spec());
        }
        Some(last)
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

    /// The canonical text of a registered query (retained after removal).
    pub fn query_text(&self, id: QueryId) -> &str {
        &self.records[id.0].text
    }

    /// Plan-level statistics for the current subscription set.
    pub fn plan_stats(&self) -> PlanStats {
        self.planner.stats(&self.interner)
    }

    /// Attaches a telemetry handle: the driver records dispatch timing,
    /// and each run folds its stream counters, per-subscription machine
    /// counters, plan statistics, and match count into the registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.driver.set_telemetry(telemetry);
    }

    /// Enables (or disables) per-subscription cost attribution. Each run
    /// then folds per-query machine counters, match deliveries, and
    /// per-group diagnostics into the engine's cost ledger; read it back
    /// with [`MultiEngine::profile_snapshot`]. Switching it off drops the
    /// ledger.
    pub fn set_profiling(&mut self, on: bool) {
        if on != self.profile.is_some() {
            self.profile = on.then(CostLedger::default);
        }
    }

    /// Snapshot of the cost ledger: per-query deterministic counters plus
    /// per-group diagnostics. `None` when profiling is disabled.
    pub fn profile_snapshot(&self) -> Option<crate::telemetry::ProfileSnapshot> {
        self.profile.as_ref().map(CostLedger::snapshot)
    }

    /// Splits the engine into the disjoint borrows a
    /// [`ShardSession`] holds while documents stream: the planner (its
    /// trie goes to the admission walk, its groups to the lane), the
    /// dispatch index read-only, the direct lane's executor, and the
    /// registration records that parameterize output assembly.
    pub(crate) fn shard_parts(&mut self) -> ShardParts<'_> {
        ShardParts {
            planner: &mut self.planner,
            interner: &self.interner,
            driver: &mut self.driver,
            index: &self.index,
            exec: &mut self.exec,
            walk: &mut self.walk,
            records: &self.records,
            profile: self.profile.as_mut(),
        }
    }

    /// Streams `reader` once through every active plan group — a
    /// one-document session on the calling thread. `on_match` fires with
    /// the originating query's id the moment a solution is decidable; a
    /// solution of a shared machine fires once per subscriber, in
    /// registration order.
    pub fn run<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        ShardSession::open(self.shard_parts(), None).run_document(reader, on_match)
    }
}

/// What the per-document epilogue reads off one plan-group slot. The
/// direct lane answers from the live [`PlanGroup`]s and its executor; the
/// ring lane from its session-open snapshots plus the workers' `DocEnd`
/// reports.
pub(crate) struct GroupFacts<'a> {
    /// Canonical step key; `None` for an inactive slot.
    pub(crate) canonical: Option<&'a str>,
    pub(crate) subscribers: u64,
    pub(crate) stats: &'a MachineStats,
    /// Sampled machine self-time this document (zero unless profiling).
    pub(crate) self_ns: u64,
    /// Payload bytes of the solutions the group's machine emitted this
    /// document (zero unless profiling).
    pub(crate) emitted_bytes: u64,
}

/// One fully streamed document, as the session hands it to
/// [`finish_document`].
pub(crate) struct FinishedDocument<'a> {
    pub(crate) records: &'a [QueryRecord],
    pub(crate) stream: StreamStats,
    pub(crate) plan: PlanStats,
    /// Trie pushes billed per routed group (gid-indexed; empty unless
    /// profiling).
    pub(crate) shared_steps: &'a [u64],
    /// Merge-hold attribution `(gid, deliveries, ns)` (ring lane only).
    pub(crate) holds: Vec<(u32, u64, u64)>,
}

/// The **one** per-document epilogue: projects group statistics onto
/// registration records, folds the document into the telemetry registry
/// and the cost ledger (when there is one), and assembles the
/// [`MultiOutput`]. Every fold is per subscription (not per group) from the
/// per-record projection — a shared machine contributes once per
/// subscriber — which is what makes the counters and the ledger's
/// per-query section invariant across shard counts.
pub(crate) fn finish_document<'g>(
    doc: FinishedDocument<'_>,
    telemetry: &Telemetry,
    profile: Option<&mut CostLedger>,
    group_slots: usize,
    group: impl Fn(usize) -> GroupFacts<'g>,
) -> MultiOutput {
    let FinishedDocument { records, stream, plan, shared_steps, holds } = doc;
    let stats: Vec<MachineStats> = records
        .iter()
        .map(|r| match r.group {
            Some(gid) => group(gid).stats.clone(),
            None => MachineStats::default(),
        })
        .collect();
    if telemetry.is_enabled() {
        let mut total = MachineStats::default();
        stats.iter().for_each(|s| total.add(s));
        // A machine counts `emitted` where a solution leaves it, and each
        // subscriber of its group is delivered every one.
        telemetry.fold_document(&stream, &total, Some(&plan), total.emitted);
    }
    if let Some(profile) = profile {
        profile.add_doc();
        for (i, r) in records.iter().enumerate() {
            let emitted_bytes = r.group.map_or(0, |gid| group(gid).emitted_bytes);
            profile.fold_query(QueryId(i), &r.text, r.group, &stats[i], emitted_bytes);
        }
        for gid in 0..group_slots {
            let g = group(gid);
            if let Some(canonical) = g.canonical {
                profile.fold_group(gid, canonical, g.subscribers, g.stats);
                profile.add_self_ns(gid, g.self_ns);
            }
        }
        if shared_steps.iter().any(|&n| n > 0) {
            profile.add_shared_steps(shared_steps);
        }
        for (gid, deliveries, ns) in holds {
            profile.add_hold(gid as usize, deliveries, ns);
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

impl Default for MultiEngine {
    fn default() -> Self {
        MultiEngine::new()
    }
}

/// Split borrows of a [`MultiEngine`], held by a [`ShardSession`] for
/// its duration.
pub(crate) struct ShardParts<'a> {
    pub(crate) planner: &'a mut QueryPlanner,
    pub(crate) interner: &'a Interner,
    pub(crate) driver: &'a mut DocumentDriver,
    /// The engine's dispatch index — read-only during a session: the
    /// admission walk's any-group-interested filter, and what the direct
    /// lane dispatches from.
    pub(crate) index: &'a DispatchIndex,
    pub(crate) exec: &'a mut Executor,
    pub(crate) walk: &'a mut WalkScratch,
    pub(crate) records: &'a [QueryRecord],
    /// The cost ledger (`None` when profiling is off).
    pub(crate) profile: Option<&'a mut CostLedger>,
}

/// Fans one solution out to a group's subscribers in registration order,
/// the last subscriber taking the hit by value so a single-subscriber
/// group never clones. This is the **one** fan-out in the system — the
/// direct lane's emitter and the ring lane's merge both end here, which
/// keeps the two delivery orders identical by construction — and the
/// callback the only place a match goes.
pub(crate) fn fan_out_match<F: FnMut(QueryId, Match)>(
    subscribers: &[QueryId],
    on_match: &mut F,
    hit: Match,
) {
    let (&last, rest) = subscribers.split_last().expect("active group has a subscriber");
    for &sub in rest {
        on_match(sub, hit.clone());
    }
    on_match(last, hit);
}

/// Merge-walks one event's trie-planned main pushes (`plans`: `(slot,
/// machine node, ptr)`, sorted ascending) against its predicate dispatch
/// targets (`pred_targets`: slots, ascending) in ascending slot order, so
/// emission interleaving within an event is by group. `touch` drives one
/// group's machine and returns its push count; slots that pushed are
/// appended to `frame` for the matching end tag. This is the **one**
/// merge-walk in the system.
pub(crate) fn merge_prefix_targets(
    plans: &[(u32, u32, u32)],
    pred_targets: &[u32],
    main_scratch: &mut Vec<(u32, u32)>,
    frame: &mut Vec<u32>,
    mut touch: impl FnMut(u32, &[(u32, u32)], bool) -> u32,
) {
    let (mut pi, mut di) = (0usize, 0usize);
    while pi < plans.len() || di < pred_targets.len() {
        let pg = plans.get(pi).map(|&(s, _, _)| s);
        let dg = pred_targets.get(di).copied();
        let slot = match (pg, dg) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!(),
        };
        main_scratch.clear();
        while let Some(&(s, mnode, ptr)) = plans.get(pi) {
            if s != slot {
                break;
            }
            main_scratch.push((mnode, ptr));
            pi += 1;
        }
        let plan_preds = dg == Some(slot);
        if plan_preds {
            di += 1;
        }
        if touch(slot, main_scratch, plan_preds) > 0 {
            frame.push(slot);
        }
    }
}

/// A start tag as the [`Executor`] consumes it: borrowed from the
/// driver's event on the direct lane, from the ring's `Arc` payloads in a
/// worker.
pub(crate) struct StartTag<'a> {
    pub(crate) sym: Option<Symbol>,
    pub(crate) level: u32,
    pub(crate) attributes: &'a [Attribute],
    pub(crate) node_id: NodeId,
    pub(crate) attr_id_base: NodeId,
    pub(crate) span: ByteSpan,
}

/// Self-time sampling stride: every `SELF_SAMPLE`-th machine touch is
/// timed and the elapsed nanoseconds scaled back up. The stride is the
/// profiler's overhead dial: the touch path is the hottest loop in the
/// engine, so even the counter bump shows up at small strides (64 cost
/// ~8% on the k=1000 workload; 1024 keeps thousands of samples per
/// document and measures ~3%).
const SELF_SAMPLE: u64 = 1024;

/// Per-slot cost attribution: sampled machine self-time and the payload
/// bytes of emitted solutions (a session switches it on for whichever lane
/// runs while profiling, otherwise it is one predictable branch per touch).
#[derive(Debug, Default)]
struct SelfTimer {
    on: bool,
    touches: u64,
    /// Scaled-up sampled nanoseconds per slot, this document.
    ns: Vec<u64>,
    /// Payload bytes of the solutions each slot emitted this document —
    /// the ledger's `emitted_bytes`, tallied where a solution leaves its
    /// machine.
    emitted_bytes: Vec<u64>,
}

impl SelfTimer {
    /// Runs one machine `touch`, handing it the slot's emit closure: the
    /// lane's `emit`, after the byte tally while that is on.
    #[inline]
    fn time<R>(
        &mut self,
        slot: u32,
        subscribers: &[QueryId],
        emit: &mut impl FnMut(u32, &[QueryId], Match),
        touch: impl FnOnce(&mut dyn FnMut(Match)) -> R,
    ) -> R {
        let sampled = self.on && {
            self.touches += 1;
            self.touches.is_multiple_of(SELF_SAMPLE)
        };
        let t0 = sampled.then(Instant::now);
        let mut bytes = self.emitted_bytes.get_mut(slot as usize);
        let r = touch(&mut |hit| {
            if let Some(bytes) = &mut bytes {
                **bytes += match_bytes(&hit);
            }
            emit(slot, subscribers, hit)
        });
        if let Some(t0) = t0 {
            self.ns[slot as usize] += t0.elapsed().as_nanos() as u64 * SELF_SAMPLE;
        }
        r
    }
}

/// The **one** per-event apply step of multi-query execution: given a
/// slot-indexed group slice, the route table `trie node → [(slot,
/// machine node)]` and the trie's push decisions for a start tag, it
/// drives exactly the machines the event can move and hands every
/// solution to `emit` with the emitting slot and its group's subscriber
/// list. The direct lane keys slots by group id and emits through
/// [`fan_out_match`]; a shard worker keys them by local index over the
/// groups it has on loan and emits tagged matches for the merge. The
/// dispatch index is the caller's (the admission walk reads the engine's
/// while the direct lane drives this executor; a worker keeps its own
/// beside it).
#[derive(Debug, Default)]
pub(crate) struct Executor {
    /// Scratch: per-slot main-path plans, `(slot, machine node, ptr)`.
    plans: Vec<(u32, u32, u32)>,
    /// Scratch: slots with predicate interest in the current event.
    pred_slots: Vec<u32>,
    /// Scratch: one group's main plan in machine form.
    main_scratch: Vec<(u32, u32)>,
    /// Flat frame storage: slots that pushed, per open element.
    frame_slots: Vec<u32>,
    /// One `frame_slots` offset per open element.
    frames: Vec<u32>,
    /// Slots whose machine holds an open entry that reads text
    /// ([`crate::machine::TwigM::text_live`]), kept current at the start
    /// and end touches that open and close such entries.
    text_live: DynBitSet,
    /// The run-time memory of every machine this executor drives.
    store: CandidateStore,
    timer: SelfTimer,
}

impl Executor {
    /// Drops every frame a previous document left open (a parse error
    /// ends a document mid-element), takes back what its machines held in
    /// the store, and zeroes the self-time samples.
    pub(crate) fn begin_document(&mut self) {
        self.frame_slots.clear();
        self.frames.clear();
        self.text_live.clear();
        self.store.reset();
        self.timer.ns.fill(0);
        self.timer.emitted_bytes.fill(0);
    }

    /// Switches cost attribution — self-time sampling and the
    /// emitted-bytes tally — on or off for `slots` group slots (off keeps
    /// no per-slot table).
    pub(crate) fn sample_self_time(&mut self, on: bool, slots: usize) {
        self.timer.on = on;
        for table in [&mut self.timer.ns, &mut self.timer.emitted_bytes] {
            table.clear();
            table.resize(if on { slots } else { 0 }, 0);
        }
    }

    /// Sampled self-time (ns) of `slot`'s machine this document (zero
    /// unless sampling is on).
    pub(crate) fn self_ns(&self, slot: usize) -> u64 {
        self.timer.ns.get(slot).copied().unwrap_or(0)
    }

    /// Payload bytes `slot`'s machine emitted this document (zero unless
    /// profiling).
    pub(crate) fn emitted_bytes(&self, slot: usize) -> u64 {
        self.timer.emitted_bytes.get(slot).copied().unwrap_or(0)
    }

    /// `startElement`: expands the trie's `pushes` along `routes` into
    /// per-slot main plans, merge-walks them with the slots whose
    /// predicate subtrees test the tag's name (`index`), and records the
    /// slots that pushed as the element's frame.
    pub(crate) fn start<G: BorrowMut<PlanGroup>>(
        &mut self,
        groups: &mut [G],
        index: &DispatchIndex,
        routes: &[Vec<(u32, u32)>],
        pushes: &[TriePush],
        tag: &StartTag<'_>,
        mut emit: impl FnMut(u32, &[QueryId], Match),
    ) {
        let Self { plans, pred_slots, main_scratch, frame_slots, frames, text_live, store, timer } =
            self;
        plans.clear();
        for p in pushes {
            plans.extend(routes[p.node as usize].iter().map(|&(slot, mnode)| (slot, mnode, p.ptr)));
        }
        // Routes ascend by slot, so one push expands in order; several
        // pushes interleave.
        if pushes.len() > 1 {
            plans.sort_unstable();
        }
        pred_slots.clear();
        index.for_each_element_target(tag.sym, |slot| pred_slots.push(slot as u32));
        frames.push(frame_slots.len() as u32);
        merge_prefix_targets(plans, pred_slots, main_scratch, frame_slots, |slot, main, preds| {
            let (machine, subscribers) =
                groups[slot as usize].borrow_mut().machine_and_subscribers();
            let pushes = timer.time(slot, subscribers, &mut emit, |out| {
                machine.start_element_prefix(
                    store,
                    main,
                    preds,
                    tag.sym,
                    tag.level,
                    tag.attributes,
                    tag.node_id,
                    tag.attr_id_base,
                    tag.span,
                    out,
                )
            });
            if pushes > 0 && machine.text_live() {
                text_live.insert(slot as usize);
            }
            pushes
        });
    }

    /// `characters`: to every slot whose machine holds an open entry that
    /// reads text, ascending. A text consumer with none open would do
    /// nothing with the event, so skipping it changes no match and no
    /// counter.
    pub(crate) fn text<G: BorrowMut<PlanGroup>>(
        &mut self,
        groups: &mut [G],
        text: &str,
        level: u32,
        node_id: NodeId,
        span: ByteSpan,
        mut emit: impl FnMut(u32, &[QueryId], Match),
    ) {
        let Self { text_live, store, timer, .. } = self;
        text_live.for_each(|slot| {
            let (machine, subscribers) = groups[slot].borrow_mut().machine_and_subscribers();
            let slot = slot as u32;
            timer.time(slot, subscribers, &mut emit, |out| {
                machine.characters(store, text, level, node_id, span, out)
            });
        });
    }

    /// `endElement`: pops the element's frame and touches exactly the
    /// machines its start tag pushed, in the same ascending order.
    pub(crate) fn end<G: BorrowMut<PlanGroup>>(
        &mut self,
        groups: &mut [G],
        name: &str,
        level: u32,
        element_span: ByteSpan,
        mut emit: impl FnMut(u32, &[QueryId], Match),
    ) {
        let base = self.frames.pop().expect("events nest") as usize;
        for &slot in &self.frame_slots[base..] {
            let (machine, subscribers) =
                groups[slot as usize].borrow_mut().machine_and_subscribers();
            self.timer.time(slot, subscribers, &mut emit, |out| {
                machine.end_element(&mut self.store, name, level, element_span, out)
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
        assert_eq!(multi.query_text(id), "//a[b]");
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
        // the dispatch index must still deliver every element to it.
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
        // <a> checks /a once for two groups; <b>, <c>, <x> one node each
        // (y is a predicate step, not a trie step).
        assert_eq!(out.plan.prefix_steps_executed, 5);
        assert_eq!(out.plan.prefix_steps_saved, 1, "/a is shared by two groups");
        assert_eq!(out.plan.prefix_forks, 6);
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
