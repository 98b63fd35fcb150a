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
//! Under [`PlanMode::PrefixShared`] (`vitex --prefix-sharing`) the trie
//! is also a *runtime* structure (see [`crate::plan::trie`]) whose nodes
//! own the shared main-path match state, advanced once per event by the
//! dedicated `PrefixSink` below — per-group element dispatch then narrows
//! to predicate-subtree names, and a frame stack pairs each end tag with
//! exactly the machines its start tag pushed.
//!
//! ## Dispatch
//!
//! Poking every machine on every event makes the per-event cost `O(k)` —
//! fatal at thousands of standing queries. The engine therefore maintains
//! a **dispatch index** over the shared [`Interner`]:
//!
//! * per interned element name, a [`DynBitSet`] of plan groups whose query
//!   mentions that name;
//! * an always-on set of groups containing a wildcard step (they must see
//!   every element);
//! * the set of groups that consume `characters` events at all.
//!
//! A `startElement` then touches only groups interested in that name
//! (plus wildcards), and the end tag replays the same set via the symbol
//! the [`DocumentDriver`] remembered from the start tag. This is sound
//! because a machine's stacks only ever hold entries for elements it was
//! shown: skipping an element's start guarantees there is nothing to pop
//! at its end, and text/attribute tests live inside the delivered events.
//!
//! Both structures update **incrementally**: [`MultiEngine::add_query`]
//! splices the new group into the index in place and
//! [`MultiEngine::remove_query`] clears it back out when the last
//! subscriber of a group leaves — no rebuild between runs, so long-lived
//! pub/sub sessions can churn subscriptions mid-stream.

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::EventSource;
use vitex_xpath::query_tree::QueryTree;

use crate::bitset::DynBitSet;
use crate::builder::MachineSpec;
use crate::driver::{DocumentDriver, EventSink};
use crate::error::EngineResult;
use crate::intern::{Interner, Symbol};
use crate::plan::{PlanGroup, PlanMode, QueryPlanner};
use crate::result::{Match, NodeId};
use crate::stats::{MachineStats, PlanStats, StreamStats};
use crate::telemetry::{CostLedger, Telemetry};

pub use crate::result::QueryId;

/// Summary of one multi-query run.
#[derive(Debug, Clone)]
pub struct MultiOutput {
    /// Matches per query, in emission order (indexed by [`QueryId`];
    /// removed queries keep an empty slot).
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

/// The dispatch index: which plan groups care about which events.
/// Maintained incrementally as groups activate and retire. Also built
/// per shard by [`crate::shard`] workers over their group subset, so
/// sharded dispatch filters events exactly like the single-threaded path.
#[derive(Debug, Default)]
pub(crate) struct DispatchIndex {
    /// Symbol index → groups whose query mentions that name (and have no
    /// wildcard step — wildcard groups live in `wildcard`).
    by_symbol: Vec<DynBitSet>,
    /// Groups containing a wildcard element step: they see every element
    /// event.
    wildcard: DynBitSet,
    /// Groups that consume `characters` events.
    text: DynBitSet,
}

impl DispatchIndex {
    /// Splices a newly created group into the index. `nsymbols` is the
    /// interner's current size: compiling the group's spec may have
    /// interned names this index has never seen.
    pub(crate) fn add_group(&mut self, gid: usize, spec: &MachineSpec, nsymbols: usize) {
        if self.by_symbol.len() < nsymbols {
            self.by_symbol.resize(nsymbols, DynBitSet::new());
        }
        if spec.has_wildcard() {
            // A wildcard group sees every element, which subsumes its
            // named interests.
            self.wildcard.insert(gid);
        } else {
            for &sym in &spec.name_symbols {
                self.by_symbol[sym.index()].insert(gid);
            }
        }
        if spec.needs_characters() {
            self.text.insert(gid);
        }
    }

    /// Clears a retired group (last subscriber removed) back out of the
    /// index — the inverse of [`DispatchIndex::add_group`].
    fn remove_group(&mut self, gid: usize, spec: &MachineSpec) {
        if spec.has_wildcard() {
            self.wildcard.remove(gid);
        } else {
            for &sym in &spec.name_symbols {
                if let Some(set) = self.by_symbol.get_mut(sym.index()) {
                    set.remove(gid);
                }
            }
        }
        if spec.needs_characters() {
            self.text.remove(gid);
        }
    }

    /// Splices a group in with **predicate-only** element interests: under
    /// prefix-shared execution the main path is driven once per event by
    /// the plan trie, so the per-group element dispatch narrows to the
    /// names its predicate subtrees test (text interest is unchanged — a
    /// `characters` event never pushes entries, so there is no trie work
    /// to share for it).
    pub(crate) fn add_group_prefix(&mut self, gid: usize, spec: &MachineSpec, nsymbols: usize) {
        if self.by_symbol.len() < nsymbols {
            self.by_symbol.resize(nsymbols, DynBitSet::new());
        }
        if !spec.pred_wildcards.is_empty() {
            self.wildcard.insert(gid);
        } else {
            for &sym in &spec.pred_name_symbols {
                self.by_symbol[sym.index()].insert(gid);
            }
        }
        if spec.needs_characters() {
            self.text.insert(gid);
        }
    }

    /// The inverse of [`DispatchIndex::add_group_prefix`].
    fn remove_group_prefix(&mut self, gid: usize, spec: &MachineSpec) {
        if !spec.pred_wildcards.is_empty() {
            self.wildcard.remove(gid);
        } else {
            for &sym in &spec.pred_name_symbols {
                if let Some(set) = self.by_symbol.get_mut(sym.index()) {
                    set.remove(gid);
                }
            }
        }
        if spec.needs_characters() {
            self.text.remove(gid);
        }
    }

    /// Calls `f` for every group interested in an element with symbol
    /// `sym` (named groups ∪ wildcard groups).
    #[inline]
    pub(crate) fn for_each_element_target(&self, sym: Option<Symbol>, f: impl FnMut(usize)) {
        match sym.and_then(|s| self.by_symbol.get(s.index())) {
            Some(named) => named.union_for_each(&self.wildcard, f),
            None => self.wildcard.for_each(f),
        }
    }

    /// Calls `f` for every group that consumes `characters` events.
    #[inline]
    pub(crate) fn for_each_text_target(&self, f: impl FnMut(usize)) {
        self.text.for_each(f)
    }

    /// Whether *any* group would receive an element event with this
    /// symbol. The sharded broadcast path uses this to skip building and
    /// shipping payloads for events every shard would drop anyway.
    #[inline]
    pub(crate) fn has_element_target(&self, sym: Option<Symbol>) -> bool {
        !self.wildcard.is_empty()
            || sym
                .and_then(|s| self.by_symbol.get(s.index()))
                .is_some_and(|named| !named.is_empty())
    }

    /// Whether any group consumes `characters` events.
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
    index: DispatchIndex,
    /// Predicate-only dispatch index, maintained alongside `index` under
    /// [`PlanMode::PrefixShared`] (the main path dispatches through the
    /// plan trie instead); `None` under [`PlanMode::Shared`].
    pred_index: Option<DispatchIndex>,
    /// Per-subscription cost attribution (disabled by default).
    profile: CostLedger,
    /// Scratch for prefix-shared runs: trie pushes billed per routed
    /// group this document (indexed by gid; empty when profiling is off).
    shared_scratch: Vec<u64>,
}

/// One registration's bookkeeping.
pub(crate) struct QueryRecord {
    /// Canonical text of the query as registered.
    pub(crate) text: String,
    /// Owning plan group; `None` once removed.
    pub(crate) group: Option<usize>,
}

impl MultiEngine {
    /// Creates an empty engine with the default plan mode
    /// ([`PlanMode::Shared`]).
    pub fn new() -> Self {
        MultiEngine::with_plan(PlanMode::Shared)
    }

    /// Creates an empty engine with an explicit plan mode. The mode is
    /// fixed for the engine's lifetime: it decides which dispatch
    /// structures registration maintains, so flipping it mid-session
    /// would strand live subscribers.
    pub fn with_plan(plan: PlanMode) -> Self {
        MultiEngine {
            planner: QueryPlanner::new(),
            records: Vec::new(),
            interner: Interner::new(),
            driver: DocumentDriver::new(),
            index: DispatchIndex::default(),
            pred_index: (plan == PlanMode::PrefixShared).then(DispatchIndex::default),
            profile: CostLedger::disabled(),
            shared_scratch: Vec::new(),
        }
    }

    /// The plan mode fixed at construction.
    pub fn plan_mode(&self) -> PlanMode {
        if self.pred_index.is_some() {
            PlanMode::PrefixShared
        } else {
            PlanMode::Shared
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
            // Splice the new group in while the borrow rules allow: spec
            // is read-only and the index is disjoint from the planner.
            let nsymbols = self.interner.len();
            self.index.add_group(reg.group, spec, nsymbols);
            if let Some(pred) = &mut self.pred_index {
                pred.add_group_prefix(reg.group, spec, nsymbols);
            }
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
            let spec = self.planner.group(gid).machine().spec();
            self.index.remove_group(gid, spec);
            if let Some(pred) = &mut self.pred_index {
                pred.remove_group_prefix(gid, spec);
            }
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

    /// Number of plan groups actually running machines. With sharing on,
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

    /// Attaches a telemetry handle: the driver records stream counters and
    /// dispatch timing, and each run folds per-subscription machine
    /// counters, plan statistics, and the match count into the registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.driver.set_telemetry(telemetry);
    }

    /// Enables (or disables) per-subscription cost attribution. Each run
    /// then folds per-query machine counters, match deliveries, and
    /// per-group diagnostics into a [`CostLedger`]; read it back with
    /// [`MultiEngine::profile_snapshot`].
    pub fn set_profiling(&mut self, on: bool) {
        if on != self.profile.is_enabled() {
            self.profile = if on { CostLedger::enabled() } else { CostLedger::disabled() };
        }
    }

    /// The live cost-ledger handle (a cheap clone; inert when profiling
    /// is off). The heartbeat reporter samples it concurrently with runs.
    pub fn cost_ledger(&self) -> CostLedger {
        self.profile.clone()
    }

    /// Snapshot of the cost ledger: per-query deterministic counters plus
    /// per-group diagnostics. `None` when profiling is disabled.
    pub fn profile_snapshot(&self) -> Option<crate::telemetry::ProfileSnapshot> {
        self.profile.snapshot()
    }

    /// Splits the engine into the disjoint borrows the sharded execution
    /// layer ([`crate::shard`]) needs: plan groups go to worker threads,
    /// the driver and interner stay on the document thread, and the
    /// registration records parameterize output assembly. The engine's own
    /// dispatch index travels read-only as the broadcast filter — each
    /// shard builds its own over its group subset.
    pub(crate) fn shard_parts(&mut self) -> ShardParts<'_> {
        ShardParts {
            planner: &mut self.planner,
            interner: &self.interner,
            driver: &mut self.driver,
            index: &self.index,
            records: &self.records,
            profile: &self.profile,
        }
    }

    /// Streams `reader` once through every active plan group. `on_match`
    /// fires with the originating query's id the moment a solution is
    /// decidable; a solution of a shared machine fires once per
    /// subscriber, in registration order.
    pub fn run<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        for g in self.planner.groups_mut() {
            if g.is_active() {
                g.machine_mut().reset();
            }
        }
        let mut matches: Vec<Vec<Match>> = self.records.iter().map(|_| Vec::new()).collect();
        self.shared_scratch.clear();
        let stream = if let Some(pred) = &self.pred_index {
            if self.profile.is_enabled() {
                self.shared_scratch.resize(self.planner.groups().len(), 0);
            }
            let (trie, groups) = self.planner.run_split();
            trie.begin_document();
            let mut sink = PrefixSink {
                trie,
                groups,
                interner: &self.interner,
                pred,
                matches: &mut matches,
                on_match,
                pushed: Vec::new(),
                plans: Vec::new(),
                pred_gids: Vec::new(),
                main_scratch: Vec::new(),
                frame_gids: Vec::new(),
                frame_nodes: Vec::new(),
                frames: Vec::new(),
                shared_steps: &mut self.shared_scratch,
            };
            self.driver.run(reader, &mut sink)?
        } else {
            let mut sink = MultiSink {
                groups: self.planner.groups_mut(),
                interner: &self.interner,
                index: &self.index,
                matches: &mut matches,
                on_match,
            };
            self.driver.run(reader, &mut sink)?
        };
        let groups = self.planner.groups();
        Ok(finish_document(
            FinishedDocument {
                records: &self.records,
                matches,
                stream,
                plan: self.planner.stats(&self.interner),
                shared_steps: &self.shared_scratch,
                holds: Vec::new(),
            },
            &self.driver.telemetry(),
            &self.profile,
            groups.len(),
            |gid| {
                let g = &groups[gid];
                GroupFacts {
                    canonical: g.is_active().then(|| g.canonical_key()),
                    subscribers: g.subscribers().len() as u64,
                    stats: g.machine().stats(),
                }
            },
        ))
    }
}

/// What the per-document epilogue reads off one plan-group slot. The
/// inline engine answers from the live [`PlanGroup`]s; a sharded session
/// from its frozen-plan snapshots plus the workers' `DocEnd` statistics.
pub(crate) struct GroupFacts<'a> {
    /// Canonical step key; `None` for an inactive slot.
    pub(crate) canonical: Option<&'a str>,
    pub(crate) subscribers: u64,
    pub(crate) stats: &'a MachineStats,
}

/// One fully streamed document, as an engine hands it to
/// [`finish_document`].
pub(crate) struct FinishedDocument<'a> {
    pub(crate) records: &'a [QueryRecord],
    /// Matches per registration record, in delivery order.
    pub(crate) matches: Vec<Vec<Match>>,
    pub(crate) stream: StreamStats,
    pub(crate) plan: PlanStats,
    /// Trie pushes billed per routed group (gid-indexed; empty unless
    /// profiling a prefix-shared plan).
    pub(crate) shared_steps: &'a [u64],
    /// Merge-hold attribution `(gid, deliveries, ns)` (sharded runs only).
    pub(crate) holds: Vec<(u32, u64, u64)>,
}

/// The **one** per-document epilogue, shared by the inline engine and the
/// sharded session: projects group statistics onto registration
/// records, folds the deterministic telemetry counters and the cost
/// ledger, and assembles the [`MultiOutput`]. Every fold is per
/// subscription (not per group) from the per-record projection — a shared
/// machine contributes once per subscriber — which is what makes the
/// counters and the ledger's per-query section invariant across plan
/// modes and shard counts.
pub(crate) fn finish_document<'g>(
    doc: FinishedDocument<'_>,
    telemetry: &Telemetry,
    profile: &CostLedger,
    group_slots: usize,
    group: impl Fn(usize) -> GroupFacts<'g>,
) -> MultiOutput {
    let FinishedDocument { records, matches, stream, plan, shared_steps, holds } = doc;
    let stats: Vec<MachineStats> = records
        .iter()
        .map(|r| match r.group {
            Some(gid) => group(gid).stats.clone(),
            None => MachineStats::default(),
        })
        .collect();
    if telemetry.is_enabled() {
        for s in &stats {
            telemetry.fold_machine(s);
        }
        telemetry.fold_plan(&plan);
        telemetry.add_matches(matches.iter().map(|m| m.len() as u64).sum());
    }
    if profile.is_enabled() {
        profile.add_doc();
        for (i, r) in records.iter().enumerate() {
            profile.fold_query(QueryId(i), &r.text, r.group, &stats[i], &matches[i]);
        }
        for gid in 0..group_slots {
            let g = group(gid);
            if let Some(canonical) = g.canonical {
                profile.fold_group(gid, canonical, g.subscribers, g.stats);
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
        matches,
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

/// Split borrows of a [`MultiEngine`] handed to the sharded execution
/// layer for the duration of a [`crate::shard::ShardSession`].
pub(crate) struct ShardParts<'a> {
    pub(crate) planner: &'a mut QueryPlanner,
    pub(crate) interner: &'a Interner,
    pub(crate) driver: &'a mut DocumentDriver,
    /// The engine's global dispatch index — read-only during a session,
    /// used by the admission walk as an any-shard-interested filter.
    pub(crate) index: &'a DispatchIndex,
    pub(crate) records: &'a [QueryRecord],
    /// The cost ledger (disabled when profiling is off).
    pub(crate) profile: &'a CostLedger,
}

/// The multi-query [`EventSink`]: routes each event to the interested
/// plan groups and fans each group's solutions out to its subscribers.
struct MultiSink<'a, F: FnMut(QueryId, Match)> {
    groups: &'a mut [PlanGroup],
    interner: &'a Interner,
    index: &'a DispatchIndex,
    matches: &'a mut [Vec<Match>],
    on_match: F,
}

impl<F: FnMut(QueryId, Match)> MultiSink<'_, F> {
    /// Runs `f` on group `gi`'s machine with a match callback that fans
    /// out to the group's subscribers (buffers and the user callback).
    /// Inactive groups are skipped: a stale index bit could briefly
    /// outlive a retirement.
    #[inline]
    fn with_group(
        &mut self,
        gi: usize,
        f: impl FnOnce(&mut crate::machine::TwigM, &mut dyn FnMut(Match)),
    ) {
        let group = &mut self.groups[gi];
        if !group.is_active() {
            return;
        }
        let (machine, subscribers) = group.machine_and_subscribers();
        let matches = &mut *self.matches;
        let on_match = &mut self.on_match;
        f(machine, &mut |hit| fan_out_match(subscribers, matches, on_match, hit));
    }
}

/// Fans one solution out to a group's subscribers in registration order:
/// buffer push then callback per subscriber, the last subscriber taking
/// the hit by value so a single-subscriber group clones exactly once (as
/// the pre-planner engine did). This is the **one** fan-out in the
/// system — the sharded merge calls it too, which is what keeps sharded
/// delivery order identical to single-threaded by construction.
pub(crate) fn fan_out_match<F: FnMut(QueryId, Match)>(
    subscribers: &[QueryId],
    matches: &mut [Vec<Match>],
    on_match: &mut F,
    hit: Match,
) {
    let (&last, rest) = subscribers.split_last().expect("active group has a subscriber");
    for &sub in rest {
        matches[sub.0].push(hit.clone());
        on_match(sub, hit.clone());
    }
    matches[last.0].push(hit.clone());
    on_match(last, hit);
}

impl<F: FnMut(QueryId, Match)> EventSink for MultiSink<'_, F> {
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
        self.index.for_each_element_target(sym, |gi| {
            self.with_group(gi, |machine, emit| {
                machine.start_element_interned(
                    sym,
                    event.name.as_str(),
                    event.level,
                    &event.attributes,
                    node_id,
                    attr_id_base,
                    event.span,
                    emit,
                );
            });
        });
    }

    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
        self.index.for_each_text_target(|gi| {
            self.with_group(gi, |machine, emit| {
                machine.characters(&event.text, event.level, node_id, event.span, emit);
            });
        });
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        self.index.for_each_element_target(sym, |gi| {
            self.with_group(gi, |machine, emit| {
                machine.end_element(event.name.as_str(), event.level, event.element_span, emit);
            });
        });
    }
}

/// Merge-walks one event's trie-planned main pushes (`plans`: `(slot,
/// machine node, ptr)`, sorted ascending) against its predicate dispatch
/// targets (`pred_targets`: slots, ascending) in ascending slot order —
/// the group visit order the dispatch index uses, so emission interleaving
/// cannot differ between the plan modes. `touch` drives one group's machine
/// and returns its push count; slots that pushed are appended to `frame`
/// for the matching end tag. This is the **one** prefix merge-walk in
/// the system — the single-threaded [`PrefixSink`] keys it by group id,
/// the shard workers by local slot, which is what keeps sharded
/// prefix-shared delivery identical to single-threaded by construction.
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

/// The prefix-shared [`EventSink`]: a start tag advances the plan trie
/// **once** — one axis/name witness check per distinct trie node, however
/// many groups share the step — then forks into per-group machines only
/// where something actually happens: a main-path push decided by the trie,
/// or a predicate-subtree step testing the event's name. Machines that
/// pushed are recorded on a frame stack so the matching end tag touches
/// exactly them (an untouched machine has nothing to pop and would have
/// been a statistics-neutral no-op under [`PlanMode::Shared`], which is
/// what keeps output and machine statistics byte-identical across plan
/// modes).
struct PrefixSink<'a, F: FnMut(QueryId, Match)> {
    trie: &'a mut crate::plan::StepTrie,
    groups: &'a mut [PlanGroup],
    interner: &'a Interner,
    /// Predicate-only element interests per group.
    pred: &'a DispatchIndex,
    matches: &'a mut [Vec<Match>],
    on_match: F,
    /// Scratch: trie pushes of the current event.
    pushed: Vec<crate::plan::TriePush>,
    /// Scratch: per-group main-path plans, `(gid, machine node, ptr)`.
    plans: Vec<(u32, u32, u32)>,
    /// Scratch: groups with predicate interest in the current event.
    pred_gids: Vec<u32>,
    /// Scratch: one group's main plan in machine form.
    main_scratch: Vec<(u32, u32)>,
    /// Flat frame storage: groups that pushed, per open element.
    frame_gids: Vec<u32>,
    /// Flat frame storage: trie nodes that pushed, per open element.
    frame_nodes: Vec<u32>,
    /// One `(frame_gids offset, frame_nodes offset)` per open element.
    frames: Vec<(u32, u32)>,
    /// Shared-step billing per routed group (cost attribution); empty
    /// when profiling is off, indexed by gid otherwise.
    shared_steps: &'a mut Vec<u64>,
}

impl<F: FnMut(QueryId, Match)> EventSink for PrefixSink<'_, F> {
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
        let Self {
            trie,
            groups,
            pred,
            matches,
            on_match,
            pushed,
            plans,
            pred_gids,
            main_scratch,
            frame_gids,
            frame_nodes,
            frames,
            shared_steps,
            ..
        } = self;
        pushed.clear();
        trie.advance(sym, event.level, pushed);
        // Expand trie pushes into per-group plans, ascending (gid, node).
        plans.clear();
        let bill = !shared_steps.is_empty();
        for p in pushed.iter() {
            let depth0 = (p.depth - 1) as usize;
            for &gid in trie.routed(p.node as usize) {
                plans.push((gid, groups[gid as usize].main_nodes()[depth0], p.ptr));
                if bill {
                    shared_steps[gid as usize] += 1;
                }
            }
        }
        plans.sort_unstable();
        // Groups whose predicate subtrees test this name.
        pred_gids.clear();
        pred.for_each_element_target(sym, |gi| pred_gids.push(gi as u32));
        // Frame bookkeeping for the matching end tag.
        frames.push((frame_gids.len() as u32, frame_nodes.len() as u32));
        frame_nodes.extend(pushed.iter().map(|p| p.node));
        merge_prefix_targets(plans, pred_gids, main_scratch, frame_gids, |gid, main, preds| {
            let group = &mut groups[gid as usize];
            if !group.is_active() {
                return 0;
            }
            let (machine, subscribers) = group.machine_and_subscribers();
            machine.start_element_prefix(
                main,
                preds,
                sym,
                event.name.as_str(),
                event.level,
                &event.attributes,
                node_id,
                attr_id_base,
                event.span,
                &mut |hit| fan_out_match(subscribers, matches, on_match, hit),
            )
        });
    }

    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
        let Self { groups, pred, matches, on_match, .. } = self;
        pred.for_each_text_target(|gi| {
            let group = &mut groups[gi];
            if !group.is_active() {
                return;
            }
            let (machine, subscribers) = group.machine_and_subscribers();
            machine.characters(&event.text, event.level, node_id, event.span, &mut |hit| {
                fan_out_match(subscribers, matches, on_match, hit)
            });
        });
    }

    fn end_element(&mut self, _sym: Option<Symbol>, event: &EndElementEvent) {
        let (gid_base, node_base) = self.frames.pop().expect("events nest");
        for i in gid_base as usize..self.frame_gids.len() {
            let gid = self.frame_gids[i] as usize;
            let group = &mut self.groups[gid];
            let (machine, subscribers) = group.machine_and_subscribers();
            let (matches, on_match) = (&mut *self.matches, &mut self.on_match);
            machine.end_element(event.name.as_str(), event.level, event.element_span, &mut |hit| {
                fan_out_match(subscribers, matches, on_match, hit)
            });
        }
        self.frame_gids.truncate(gid_base as usize);
        for i in node_base as usize..self.frame_nodes.len() {
            self.trie.retreat_one(self.frame_nodes[i], event.level);
        }
        self.frame_nodes.truncate(node_base as usize);
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
            for plan in [PlanMode::Shared, PlanMode::PrefixShared] {
                let mut multi = MultiEngine::with_plan(plan);
                for q in queries {
                    multi.add_query(q).unwrap();
                }
                let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
                for (i, q) in queries.iter().enumerate() {
                    let tree = QueryTree::parse(q).unwrap();
                    let single =
                        crate::engine::evaluate_reader(XmlReader::from_str(&xml), &tree).unwrap();
                    assert_eq!(out.matches[i], single.matches, "query {q} under {plan:?}");
                    assert_eq!(out.stats[i], single.stats, "query {q} under {plan:?}");
                    assert_eq!(out.events, single.events);
                }
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
        assert_eq!(multi.plan_mode(), PlanMode::Shared);
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
    fn prefix_shared_mode_matches_and_counts() {
        // /a/b and /a/c share the /a trie node; //x[y] forks on its
        // predicate. Results must equal shared mode, and the prefix
        // counters must show the runtime trie at work.
        let xml = "<a><b/><c/><x><y/></x><b/></a>";
        let queries = ["/a/b", "/a/c", "//x[y]", "/a/b"];
        let run = |plan: PlanMode| {
            let mut multi = MultiEngine::with_plan(plan);
            for q in queries {
                multi.add_query(q).unwrap();
            }
            let mut streamed = Vec::new();
            let out =
                multi.run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node))).unwrap();
            (out, streamed)
        };
        let (prefix, p_streamed) = run(PlanMode::PrefixShared);
        let (shared, s_streamed) = run(PlanMode::Shared);
        assert_eq!(prefix.matches, shared.matches);
        assert_eq!(prefix.stats, shared.stats);
        assert_eq!(p_streamed, s_streamed);
        assert!(prefix.plan.prefix_steps_executed > 0);
        assert!(prefix.plan.prefix_steps_saved > 0, "/a is shared by two groups");
        assert!(prefix.plan.prefix_forks > 0);
        assert!(prefix.plan.prefix_stack_bytes > 0);
        assert_eq!(shared.plan.prefix_steps_executed, 0);
        // Dedup still applies: the duplicate /a/b joined a group.
        assert_eq!(prefix.plan.queries, 4);
        assert_eq!(prefix.plan.groups, 3);
    }

    #[test]
    fn prefix_shared_mode_survives_churn_between_runs() {
        let mut multi = MultiEngine::with_plan(PlanMode::PrefixShared);
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
