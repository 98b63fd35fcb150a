//! Sessions: one pipeline from SAX events to delivered matches, with the
//! plan groups on the calling thread or partitioned across workers.
//!
//! TwigM machines are independent consumers of the same event stream, and
//! the planner already routes each event to disjoint plan groups — so the
//! groups are an embarrassingly partitionable unit of work, and *where*
//! they run is a transport question. A [`ShardSession`] is the one
//! pipeline: the driver's interned events pass the admission walk, what
//! it admits is delivered to the groups, and the per-document epilogue
//! assembles the output. [`ShardedEngine`] opens sessions over `N` worker
//! threads; [`MultiEngine::run`] is a one-document session with none. The
//! output — same matches, same order, same statistics — does not depend
//! on which.
//!
//! ## Sessions
//!
//! A session freezes the subscription set (it mutably borrows the engine)
//! and streams any number of documents back-to-back through
//! [`ShardSession::stream_document`] without re-planning — the
//! document-collections workload, where keeping workers warm is what
//! makes threads pay. Registration churn (`add_query` / `remove_query`)
//! happens between sessions; the partition is recomputed over the
//! then-active groups each time a session opens, so retired slots
//! recycled by the planner's free-list migrate shards naturally.
//!
//! What every session shares, written once: the driver and interner, the
//! **admission walk** (`admit::Admission`: sequence numbers, the
//! any-group-interested filter, the global trie advance and the
//! shared-step bill — on the document thread, which is what keeps plan
//! statistics identical at every shard count), the one `EventSink` that
//! asks the walk first and hands what it admits to the lane, poisoning,
//! the plan-statistics derivation and the epilogue
//! (`crate::multi::finish_document`).
//!
//! ## One door out
//!
//! A match leaves through the caller's callback and nowhere else: both
//! lanes end in `crate::multi::fan_out_match`, and what telemetry and the
//! ledger report about matches is counted where a solution leaves its
//! machine (`MachineStats::emitted`; payload bytes by the executor). So
//! [`ShardSession::stream_document`], the primitive, holds nothing per
//! match (the `vitex` CLI is built on it), and buffering is **one**
//! collecting adapter around it, [`ShardSession::run_document`], which
//! [`MultiEngine::run`] and [`ShardedEngine::run`] go through.
//!
//! ## The two lanes
//!
//! A lane owns two things: *delivering one admitted event* and
//! *collecting per-group facts at document end*. Which lane a session
//! runs follows from the **effective worker count** `min(shards, active
//! groups)`, which the code observes — nobody chooses it:
//!
//! * **direct** (one worker or none): the borrowed driver event goes
//!   straight into the engine's `crate::multi::Executor` over the live
//!   groups, with `crate::multi::fan_out_match` as the emitter. Matches
//!   leave the machines already in delivery order, so nothing is tagged,
//!   copied into `Arc` payloads or merged; facts are read off the live
//!   groups. Opening the lane snapshots nothing a live group can answer.
//! * **ring** (two or more): the event is built once as a `ShardEvent` —
//!   trie push decisions attached — batched, and broadcast over bounded
//!   rings (`worker::Ring`); each worker applies it with its own executor
//!   over the groups it has on loan and reports matches tagged `(event
//!   seq, group id)`; the watermark merge (`merge::MatchMerger`) releases
//!   them into exactly the direct lane's order, and the workers' `DocEnd`
//!   acknowledgements carry the per-group facts. Groups being out on loan
//!   is why this lane snapshots subscriber lists (and, while profiling,
//!   canonical keys) when the session opens.
//!
//! ## Placement
//!
//! *Which* groups land on which ring-lane worker is the `place`
//! subsystem's call: LPT bin-packing over ledger-refined cost estimates,
//! with mid-session repartitioning at document boundaries when measured
//! imbalance exceeds a hysteresis threshold. Groups live in a
//! `worker::GroupPool` between documents, and every document's `DocStart`
//! carries the assignment to run under — so a repartition is just a new
//! assignment version, adopted by the workers before the next event
//! flows.
//!
//! ## Determinism
//!
//! The direct lane's order is the executor's visit order: ascending group
//! id within each event. The ring lane reproduces it by construction:
//! every match carries its `(event seq, group id)` key, each shard's
//! stream is emitted in key order, and the merger releases a match only
//! once every shard's watermark has passed its event. The differential
//! batteries assert equality at shard counts {1, 2, 4, 7}.

pub(crate) mod admit;
pub(crate) mod merge;
pub(crate) mod place;
pub(crate) mod worker;

use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::EventSource;

use crate::driver::{DocumentDriver, EventSink};
use crate::error::{EngineError, EngineResult};
use crate::intern::{Interner, Symbol};
use crate::multi::{
    fan_out_match, finish_document, Executor, FinishedDocument, GroupFacts, MultiEngine,
    MultiOutput, QueryRecord, ShardParts, StartTag,
};
use crate::plan::{resident_bytes, PlanGroup, RouteTable, TriePush};
use crate::result::{Match, NodeId, QueryId};
use crate::stats::PlanStats;
use crate::telemetry::{CostLedger, Telemetry};

use admit::Admission;
use merge::MatchMerger;
pub use place::PlacementSnapshot;
use place::{Assignment, CostModel, ShardPlan};
use worker::{
    run_worker, EventBatch, GroupPool, GroupSnapshot, Ring, SeqBatch, ShardEvent, WorkerReport,
};

/// Events per broadcast batch: large enough to amortize ring locking and
/// `Arc<[_]>` allocation, small enough to keep delivery incremental.
const EVENT_BATCH: usize = 256;

/// Ring depth in batches — the backpressure bound per shard.
const RING_BATCHES: usize = 8;

/// A multi-query engine that executes plan groups on up to `N` worker
/// threads.
///
/// It dereferences to the [`MultiEngine`] it runs — registration,
/// telemetry and profiling are that engine's methods; only execution
/// differs. See the module docs for the architecture and
/// [`ShardedEngine::session`] for streaming several documents through
/// warm workers.
pub struct ShardedEngine {
    multi: MultiEngine,
    shards: usize,
    /// Test-only fault injection: `(shard, seq)` — that shard's worker
    /// panics when it applies the event with that sequence number.
    fault: Option<(usize, u64)>,
    /// Test-only fault injection: that shard's worker panics while
    /// adopting a repartitioned assignment.
    swap_fault: Option<usize>,
}

impl ShardedEngine {
    /// An empty engine running up to `shards` workers (0 is clamped to 1).
    pub fn new(shards: usize) -> Self {
        ShardedEngine {
            multi: MultiEngine::new(),
            shards: shards.max(1),
            fault: None,
            swap_fault: None,
        }
    }

    /// Test-only fault injection: make shard `shard`'s worker panic when
    /// it applies the event with sequence number `seq` (in any later run
    /// or session, until [`Self::clear_worker_fault`]). Exercises the
    /// poison path from integration tests. A session whose effective
    /// worker count is one delivers on the calling thread and has no
    /// worker to fault.
    #[doc(hidden)]
    pub fn inject_worker_fault(&mut self, shard: usize, seq: u64) {
        self.fault = Some((shard, seq));
    }

    /// Test-only fault injection: make shard `shard`'s worker panic while
    /// adopting a *repartitioned* assignment (the initial adoption at
    /// session open is exempt). Exercises the poison path in the swap
    /// window from integration tests.
    #[doc(hidden)]
    pub fn inject_swap_fault(&mut self, shard: usize) {
        self.swap_fault = Some(shard);
    }

    /// Clears faults installed by [`Self::inject_worker_fault`] /
    /// [`Self::inject_swap_fault`].
    #[doc(hidden)]
    pub fn clear_worker_fault(&mut self) {
        self.fault = None;
        self.swap_fault = None;
    }

    /// The configured worker count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Streams one document; a one-document [`ShardedEngine::session`].
    pub fn run<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        self.session(|session| session.run_document(reader, on_match))
    }

    /// Opens a streaming session: partitions the active plan groups
    /// across the effective worker count, spawns that many worker threads
    /// when it is two or more, hands `f` a [`ShardSession`] to stream
    /// documents through, and tears the workers down when `f` returns.
    /// The subscription set is frozen for the session (the borrow checker
    /// enforces it — the session mutably borrows the engine), so
    /// documents stream back-to-back with zero re-planning or thread
    /// churn between them.
    pub fn session<T>(
        &mut self,
        f: impl FnOnce(&mut ShardSession<'_>) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let (fault, swap_fault) = (self.fault, self.swap_fault);
        // A surplus worker would own zero machines yet pop and acknowledge
        // every batch, so the count is clamped to the active groups —
        // *here*, against the post-churn set, so removals between sessions
        // shrink the worker pool. A lone worker behind a ring would
        // parallelize nothing: below two the calling thread delivers.
        let workers = self.shards.min(self.multi.group_count());
        let parts = self.multi.shard_parts();
        if workers < 2 {
            return f(&mut ShardSession::open(parts, None));
        }
        let (nsymbols, profiled) = (parts.interner.len(), parts.profile.is_some());
        let telemetry = parts.driver.telemetry();
        let rings: Vec<Arc<Ring<SeqBatch>>> = (0..workers)
            .map(|_| Arc::new(Ring::with_telemetry(RING_BATCHES, telemetry.clone())))
            .collect();
        let (tx, rx) = channel();
        let pool = GroupPool::vacant(parts.planner.groups().len());
        let ends = RingEnds { rings: &rings, rx: &rx, pool: &pool };
        let mut session = ShardSession::open(parts, Some(ends));
        thread::scope(|scope| {
            for (shard, ring) in rings.iter().enumerate() {
                let (ring, tx, pool) = (Arc::clone(ring), tx.clone(), &pool);
                let fault = fault.and_then(|(s, seq)| (s == shard).then_some(seq));
                let swap_fault = swap_fault == Some(shard);
                scope.spawn(move || {
                    run_worker(shard, pool, nsymbols, fault, swap_fault, profiled, ring, tx)
                });
            }
            drop(tx);
            // Rings must close even if `f` (or output assembly) panics:
            // the scope joins the workers on unwind, and a worker blocked
            // in `Ring::pop` would never exit.
            let _close_on_exit = CloseRings(&rings);
            f(&mut session)
        })
    }
}

impl Deref for ShardedEngine {
    type Target = MultiEngine;

    fn deref(&self) -> &MultiEngine {
        &self.multi
    }
}

impl DerefMut for ShardedEngine {
    fn deref_mut(&mut self) -> &mut MultiEngine {
        &mut self.multi
    }
}

/// The clean error a poisoned session surfaces — and keeps surfacing on
/// every subsequent document (the dead worker cannot be respawned
/// mid-session; open a new session to recover).
fn poison_error(shard: usize) -> EngineError {
    EngineError::Worker(if shard == usize::MAX {
        "shard workers terminated unexpectedly; session poisoned".to_string()
    } else {
        format!("shard worker {shard} panicked mid-document; session poisoned")
    })
}

fn close_rings(rings: &[Arc<Ring<SeqBatch>>]) {
    for ring in rings {
        ring.close();
    }
}

/// Closes every ring on drop — the session's worker-release guard, run on
/// both the normal and the unwinding exit path.
struct CloseRings<'a>(&'a [Arc<Ring<SeqBatch>>]);

impl Drop for CloseRings<'_> {
    fn drop(&mut self) {
        close_rings(self.0);
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards)
            .field("queries", &self.multi.len())
            .field("groups", &self.multi.group_count())
            .finish()
    }
}

/// A live session: the plan is frozen and any number of documents can
/// stream through (see the module docs). Obtained from
/// [`ShardedEngine::session`].
pub struct ShardSession<'a> {
    driver: &'a mut DocumentDriver,
    interner: &'a Interner,
    records: &'a [QueryRecord],
    /// Cost ledger: `None` unless profiling is on.
    profile: Option<&'a mut CostLedger>,
    /// The admission walk, reset per document.
    admission: Admission<'a>,
    lane: Lane<'a>,
    /// Plan-group slots, active or not: what gid-indexed tables size to.
    group_slots: usize,
    /// Plan statistics snapshot (the plan cannot change mid-session),
    /// `plan_bytes` short of the groups' resident bytes; those and the
    /// run counters are patched in per document.
    plan: PlanStats,
    /// `Some(shard)` once a worker died mid-document: the session is
    /// poisoned and every subsequent document fails fast (`usize::MAX`
    /// when the failing shard is unknown — the report channel died).
    poisoned: Option<usize>,
    /// Assignment swaps performed this session.
    repartitions: u64,
    /// Measured imbalance (millis) of the most recent document.
    last_imbalance: Option<u64>,
}

/// The session's ends of a spawned worker set: one ring per worker, the
/// report channel, and the pool the workers borrow their groups from.
pub(crate) struct RingEnds<'r, 'a> {
    rings: &'a [Arc<Ring<SeqBatch>>],
    rx: &'a Receiver<WorkerReport>,
    pool: &'r GroupPool<'a>,
}

impl<'a> ShardSession<'a> {
    /// Opens a session over `parts`: on the ring lane when the caller
    /// spawned workers (`ring`), on the direct lane otherwise. Opening
    /// costs the plan-statistics snapshot plus whatever the lane snapshots.
    pub(crate) fn open(parts: ShardParts<'a>, ring: Option<RingEnds<'_, 'a>>) -> Self {
        let ShardParts { planner, interner, driver, index, exec, walk, records, profile } = parts;
        let plan = planner.stats_sans_group_bytes(interner);
        let (trie, groups) = planner.run_split();
        let group_slots = groups.len();
        let lane = match ring {
            None => {
                exec.sample_self_time(profile.is_some(), group_slots);
                Lane::Direct { groups, exec }
            }
            Some(ends) => {
                let telemetry = driver.telemetry();
                Lane::Ring(Box::new(RingLane::open(
                    groups,
                    trie.routes(),
                    profile.as_deref(),
                    telemetry,
                    ends,
                )))
            }
        };
        ShardSession {
            driver,
            interner,
            records,
            profile,
            admission: Admission::new(index, trie, walk),
            lane,
            group_slots,
            plan,
            poisoned: None,
            repartitions: 0,
            last_imbalance: None,
        }
    }

    /// [`ShardSession::stream_document`] behind the **one** collecting
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
    /// that [`MultiEngine::run`] produces for this subscription set,
    /// whatever the lane, with `matches` left empty: `on_match` is the
    /// only way a match leaves. It fires on the calling thread, in
    /// emission order, while the document is still streaming (on the ring
    /// lane held back only by the merge watermarks), and nothing is kept
    /// once it returns.
    pub fn stream_document<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        if let Some(shard) = self.poisoned {
            return Err(poison_error(shard));
        }
        let telemetry = self.driver.telemetry();
        self.lane.begin_document();
        self.admission.begin_document(if self.profile.is_some() { self.group_slots } else { 0 });
        let mut sink = SessionSink {
            interner: self.interner,
            walk: &mut self.admission,
            lane: &mut self.lane,
            on_match: &mut on_match,
            ended: false,
        };
        let stream = self.driver.run(reader, &mut sink);
        // On a parse error the driver never reached `document_end`; end
        // the document on the lane anyway, so ring-lane workers quiesce
        // and the session stays usable for the next document.
        if !sink.ended {
            sink.document_end();
        }
        // Every machine has seen the whole document once the ring lane's
        // workers have all acknowledged `DocEnd` (the direct lane's just
        // did); the merge held back `holds`.
        let mut holds = Vec::new();
        if let Lane::Ring(r) = sink.lane {
            self.poisoned = r.await_doc_end(sink.on_match);
            if let Some(shard) = self.poisoned {
                return Err(poison_error(shard));
            }
            holds = r.doc.merger.take_holds();
        }
        let stream = stream?;
        let run = self.admission.trie_run_stats();
        let plan = PlanStats {
            plan_bytes: self.plan.plan_bytes + self.lane.group_bytes(),
            prefix_steps_executed: run.steps_executed,
            prefix_steps_saved: run.steps_saved,
            prefix_forks: run.forks,
            prefix_stack_bytes: run.peak_stack_bytes(),
            ..self.plan
        };
        let lane = &self.lane;
        let out = finish_document(
            FinishedDocument {
                records: self.records,
                stream,
                plan,
                shared_steps: self.admission.shared_steps(),
                holds,
            },
            &telemetry,
            self.profile.as_deref_mut(),
            self.group_slots,
            |gid| lane.facts(gid),
        );
        // Placement observes the document. One worker carries everything,
        // which is balanced by definition.
        let (imbalance, swapped) = match &mut self.lane {
            Lane::Direct { .. } => (place::imbalance_millis(&[]), false),
            Lane::Ring(r) => r.rebalance(self.admission.routes()),
        };
        self.last_imbalance = Some(imbalance);
        telemetry.gauge_set(|r| &r.shard_imbalance, imbalance);
        if swapped {
            self.repartitions += 1;
            telemetry.add(|r| &r.shard_repartitions, 1);
        }
        Ok(out)
    }

    /// The session's current placement state: effective worker count,
    /// the group→shard map the *next* document will run under,
    /// repartitions so far, and the last measured imbalance.
    pub fn placement_snapshot(&self) -> PlacementSnapshot {
        let (shards, shard_of) = match &self.lane {
            Lane::Direct { groups, .. } => {
                (1, groups.iter().map(|g| g.is_active().then_some(0)).collect())
            }
            Lane::Ring(r) => {
                let plan = ShardPlan { shard_gids: r.assignment.shard_gids.clone() };
                let shard_of = plan.shard_of(self.group_slots).into_iter();
                (r.rings.len(), shard_of.map(|s| (s != usize::MAX).then_some(s)).collect())
            }
        };
        PlacementSnapshot {
            shards,
            shard_of,
            repartitions: self.repartitions,
            last_imbalance_millis: self.last_imbalance,
        }
    }
}

/// How a session delivers what its admission walk admits, and where it
/// reads per-group facts at document end (see the module docs).
enum Lane<'a> {
    /// The calling thread drives the engine's executor over the live
    /// groups, slots keyed by group id.
    Direct { groups: &'a mut [PlanGroup], exec: &'a mut Executor },
    /// Worker threads are running (boxed: the ring-lane state is large).
    Ring(Box<RingLane<'a>>),
}

impl Lane<'_> {
    /// Opens a document: machines and executor reset here or, on the ring
    /// lane, in each worker when the `DocStart` this queues arrives.
    fn begin_document(&mut self) {
        match self {
            Lane::Direct { groups, exec } => {
                for g in groups.iter_mut().filter(|g| g.is_active()) {
                    g.machine_mut().reset();
                }
                exec.begin_document();
            }
            Lane::Ring(r) => {
                r.doc = DocState::new(r.rings.len(), r.subscribers.len(), &r.telemetry, r.profiled);
                r.batch.clear();
                r.batch.push(ShardEvent::DocStart { assignment: Arc::clone(&r.assignment) });
            }
        }
    }

    /// Post-document resident bytes of the active groups.
    fn group_bytes(&self) -> u64 {
        match self {
            Lane::Direct { groups, .. } => resident_bytes(groups),
            Lane::Ring(r) => r.doc.groups.iter().map(|g| g.approx_bytes).sum(),
        }
    }

    /// What the epilogue reads off group slot `gid`.
    fn facts(&self, gid: usize) -> GroupFacts<'_> {
        match self {
            Lane::Direct { groups, exec } => {
                let g = &groups[gid];
                GroupFacts {
                    canonical: g.is_active().then(|| g.canonical_key()),
                    subscribers: g.subscribers().len() as u64,
                    stats: g.machine().stats(),
                    self_ns: exec.self_ns(gid),
                    emitted_bytes: exec.emitted_bytes(gid),
                }
            }
            Lane::Ring(r) => GroupFacts {
                canonical: r.canonicals.get(gid).and_then(|c| c.as_deref()),
                subscribers: r.subscribers[gid].len() as u64,
                stats: &r.doc.groups[gid].stats,
                self_ns: r.doc.groups[gid].self_ns,
                emitted_bytes: r.doc.groups[gid].emitted_bytes,
            },
        }
    }
}

/// The **one** [`EventSink`] of multi-query execution: every method asks
/// the admission walk first and hands what it admits to the lane — a
/// call into the executor with the borrowed driver event (the slot it
/// emits under is the group id, which the fan-out does not need), or a
/// `ShardEvent` built from it and queued for broadcast.
struct SessionSink<'s, 'a, F> {
    interner: &'a Interner,
    walk: &'s mut Admission<'a>,
    lane: &'s mut Lane<'a>,
    on_match: &'s mut F,
    ended: bool,
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
        let (level, span) = (event.level, event.span);
        let Some(seq) = self.walk.start(sym, level) else { return };
        let (walk, attributes) = (&*self.walk, event.attributes.as_slice());
        match self.lane {
            Lane::Direct { groups, exec } => {
                let tag = StartTag { sym, level, attributes, node_id, attr_id_base, span };
                let emit = |_, subscribers: &[QueryId], hit| {
                    fan_out_match(subscribers, self.on_match, hit)
                };
                exec.start(&mut groups[..], walk.index(), walk.routes(), walk.pushes(), &tag, emit);
            }
            Lane::Ring(r) => {
                let pushes = match walk.pushes() {
                    [] => Arc::clone(&r.no_pushes),
                    pushes => pushes.into(),
                };
                let attrs = attributes.into();
                let event = ShardEvent::Start {
                    seq,
                    sym,
                    level,
                    attrs,
                    node_id,
                    attr_id_base,
                    span,
                    pushes,
                };
                r.ship(seq, event, self.on_match);
            }
        }
    }

    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
        let Some(seq) = self.walk.text() else { return };
        let (text, level, span) = (event.text.as_str(), event.level, event.span);
        match self.lane {
            Lane::Direct { groups, exec } => {
                let emit = |_, subscribers: &[QueryId], hit| {
                    fan_out_match(subscribers, self.on_match, hit)
                };
                exec.text(&mut groups[..], text, level, node_id, span, emit);
            }
            Lane::Ring(r) => {
                let event = ShardEvent::Text { seq, text: text.into(), level, node_id, span };
                r.ship(seq, event, self.on_match);
            }
        }
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        let Some(seq) = self.walk.end(sym, event.level) else { return };
        let (name, level, element_span) = (event.name.as_str(), event.level, event.element_span);
        match self.lane {
            Lane::Direct { groups, exec } => {
                let emit = |_, subscribers: &[QueryId], hit| {
                    fan_out_match(subscribers, self.on_match, hit)
                };
                exec.end(&mut groups[..], name, level, element_span, emit);
            }
            Lane::Ring(r) => {
                let event = ShardEvent::End { seq, name: name.into(), level, element_span };
                r.ship(seq, event, self.on_match);
            }
        }
    }

    /// Terminates the document on the ring lane's worker side: `DocEnd`
    /// at the final sequence number, flushed with whatever the batch
    /// still holds.
    fn document_end(&mut self) {
        if let Lane::Ring(r) = self.lane {
            let seq = self.walk.seq();
            r.batch.push(ShardEvent::DocEnd { seq });
            r.flush(seq, self.on_match);
        }
        self.ended = true;
    }
}

/// Ring-lane state. Groups are out on loan to the workers while documents
/// stream, so what the coordinator reads off them is snapshotted when the
/// session opens (the plan is frozen for it).
struct RingLane<'a> {
    /// One ring per worker; the worker count is `rings.len()`.
    rings: &'a [Arc<Ring<SeqBatch>>],
    rx: &'a Receiver<WorkerReport>,
    /// Records the broadcast batch-size histogram and the merge gauges.
    telemetry: Telemetry,
    /// Subscriber list per group slot, for the fan-out.
    subscribers: Vec<Vec<QueryId>>,
    /// Canonical step key per group slot, `None` for inactive slots
    /// (empty unless profiling).
    canonicals: Vec<Option<String>>,
    /// Whether the merge attributes hold latency to groups (profiling).
    profiled: bool,
    /// Per-group cost estimates, refined from every document's measured
    /// work; drives LPT replanning.
    cost: CostModel,
    /// The active group ids this session partitions (ascending).
    active_gids: Vec<usize>,
    /// The assignment the *next* document will run under; shipped inside
    /// its `DocStart` and swapped by [`RingLane::rebalance`].
    assignment: Arc<Assignment>,
    /// Shared empty push list (most start tags push nothing).
    no_pushes: Arc<[TriePush]>,
    /// The broadcast batch being filled.
    batch: Vec<ShardEvent>,
    doc: DocState,
}

/// Coordinator-side state of one in-flight document: what the worker
/// reports fold into.
struct DocState {
    merger: MatchMerger,
    /// Per-group end-of-document state, filled by `DocEnd`
    /// acknowledgements (gid-indexed; zeros for inactive slots).
    groups: Vec<GroupSnapshot>,
    /// Shards that have acknowledged `DocEnd` so far.
    done: usize,
    /// `Some(shard)` once a worker died mid-document (`usize::MAX` when
    /// the failing shard is unknown).
    poisoned: Option<usize>,
}

impl DocState {
    fn new(nshards: usize, group_slots: usize, telemetry: &Telemetry, profiled: bool) -> Self {
        DocState {
            merger: MatchMerger::with_profile(nshards, telemetry.clone(), profiled),
            groups: (0..group_slots).map(|_| GroupSnapshot::default()).collect(),
            done: 0,
            poisoned: None,
        }
    }
}
impl<'a> RingLane<'a> {
    /// Snapshots what the coordinator reads off the groups, plans the
    /// initial placement and stocks the workers' pool.
    fn open(
        groups: &'a mut [PlanGroup],
        routes: &RouteTable,
        profile: Option<&CostLedger>,
        telemetry: Telemetry,
        ends: RingEnds<'_, 'a>,
    ) -> Self {
        let RingEnds { rings, rx, pool } = ends;
        let subscribers: Vec<Vec<QueryId>> =
            groups.iter().map(|g| g.subscribers().to_vec()).collect();
        let active_gids: Vec<usize> =
            (0..groups.len()).filter(|&g| groups[g].is_active()).collect();
        // Cost estimates for placement planning: uniform prior, seeded
        // from the live cost ledger when there is one. Seeding is guarded
        // by each group's canonical step key: the planner's free-list
        // recycles retired gids, and a recycled slot must not inherit the
        // retired query's bill.
        let mut cost = CostModel::uniform(groups.len());
        let mut canonicals = Vec::new();
        if let Some(ledger) = profile {
            canonicals = groups
                .iter()
                .map(|g| g.is_active().then(|| g.canonical_key().to_string()))
                .collect();
            cost.seed_from_ledger(ledger.groups(), &canonicals);
        }
        let profiled = profile.is_some();
        // Each worker only needs the global trie's route table narrowed
        // to its own group subset, which the assignment carries.
        let plan = place::lpt_plan(&active_gids, &cost, rings.len());
        let assignment = Arc::new(place::make_assignment(0, &plan, routes));
        // All active groups start in the pool; workers check theirs out
        // per document under whatever assignment that document carries.
        for (gid, group) in groups.iter_mut().enumerate().filter(|(_, g)| g.is_active()) {
            pool.put(gid, group);
        }
        RingLane {
            rings,
            rx,
            doc: DocState::new(rings.len(), subscribers.len(), &telemetry, profiled),
            telemetry,
            subscribers,
            canonicals,
            profiled,
            cost,
            active_gids,
            assignment,
            no_pushes: Vec::new().into(),
            batch: Vec::with_capacity(EVENT_BATCH),
        }
    }

    /// Queues one admitted event (sequence number `seq`) for broadcast.
    fn ship<F: FnMut(QueryId, Match)>(&mut self, seq: u64, event: ShardEvent, on_match: &mut F) {
        self.batch.push(event);
        if self.batch.len() >= EVENT_BATCH {
            self.flush(seq, on_match);
        }
    }

    /// Broadcasts the pending batch — built once, `Arc`-shared by every
    /// ring — covering every sequence number walked `through` now, then
    /// folds in whatever worker reports have already arrived, without
    /// blocking, so merged matches stream to the caller while the
    /// document is still being read.
    fn flush<F: FnMut(QueryId, Match)>(&mut self, through: u64, on_match: &mut F) {
        if self.batch.is_empty() {
            return;
        }
        self.telemetry.observe(|r| &r.batch_events, self.batch.len() as u64);
        let events: EventBatch = std::mem::take(&mut self.batch).into();
        for ring in self.rings {
            ring.push(SeqBatch { through, events: Arc::clone(&events) });
        }
        self.batch.reserve(EVENT_BATCH);
        while let Ok(report) = self.rx.try_recv() {
            self.ingest_report(report, on_match);
        }
    }

    /// Blocks until every shard has acknowledged `DocEnd` or the session
    /// is poisoned, delivering merged matches as they become safe.
    fn await_doc_end<F: FnMut(QueryId, Match)>(&mut self, on_match: &mut F) -> Option<usize> {
        while self.doc.done < self.rings.len() && self.doc.poisoned.is_none() {
            match self.rx.recv() {
                Ok(report) => self.ingest_report(report, on_match),
                // Every worker hung up without a final report: a panic
                // escaped containment, on an unknown shard.
                Err(_) => self.poison(usize::MAX),
            }
        }
        debug_assert!(
            self.doc.poisoned.is_some() || self.doc.merger.is_drained(),
            "all shards reported through the final event"
        );
        self.doc.poisoned
    }

    /// Closes every ring and records the failing shard (the first one
    /// wins). From here on no callback fires: no matches after an error.
    fn poison(&mut self, shard: usize) {
        close_rings(self.rings);
        self.doc.poisoned.get_or_insert(shard);
    }

    /// Folds one worker report in: matches into the merger (releasing and
    /// fanning out whatever became safe — through the same
    /// [`fan_out_match`] the direct lane emits into, so delivery order
    /// cannot diverge), `DocEnd` acknowledgements into the per-group
    /// snapshots. Late reports from surviving workers draining their
    /// rings after a poisoning are dropped.
    fn ingest_report<F: FnMut(QueryId, Match)>(&mut self, report: WorkerReport, on_match: &mut F) {
        if report.poisoned {
            return self.poison(report.shard);
        }
        if self.doc.poisoned.is_some() {
            return;
        }
        if let Some(doc_stats) = report.doc_stats {
            for snapshot in doc_stats {
                let gid = snapshot.gid;
                self.doc.groups[gid] = snapshot;
            }
            self.doc.done += 1;
        }
        self.doc.merger.push(report.shard, report.matches, report.through_seq);
        let subscribers = &self.subscribers;
        self.doc.merger.drain(|t| fan_out_match(&subscribers[t.gid as usize], on_match, t.m));
    }

    /// Post-document placement bookkeeping: measure per-shard loads under
    /// the assignment the document just ran with (from the deterministic
    /// machine work counters, so the decision stream is repeatable),
    /// refine the cost estimates and — past the hysteresis threshold —
    /// swap in a rebalanced assignment for the next document. Swapping
    /// here is what keeps repartitioning output-transparent: the new
    /// assignment travels inside the next `DocStart`, workers adopt it
    /// before any event of that document flows, and the watermark merge
    /// never notices. Returns the measured imbalance and whether it
    /// swapped.
    fn rebalance(&mut self, routes: &RouteTable) -> (u64, bool) {
        let nshards = self.rings.len();
        let mut loads = vec![0u64; nshards];
        for (shard, gids) in self.assignment.shard_gids.iter().enumerate() {
            for &gid in gids {
                let work = self.doc.groups[gid].stats.work();
                self.cost.observe(gid, work);
                loads[shard] += work;
            }
        }
        let measured = place::imbalance_millis(&loads);
        if measured < place::REPARTITION_THRESHOLD_MILLIS {
            return (measured, false);
        }
        let plan = place::lpt_plan(&self.active_gids, &self.cost, nshards);
        if plan.shard_gids == self.assignment.shard_gids {
            return (measured, false);
        }
        // Only swap when the refined estimates actually predict an
        // improvement over keeping the current assignment — hysteresis
        // against estimate noise oscillating two near-equal plans.
        let current = ShardPlan { shard_gids: self.assignment.shard_gids.clone() };
        let predicted = place::imbalance_millis(&plan.loads(&self.cost));
        let staying = place::imbalance_millis(&current.loads(&self.cost));
        if predicted >= staying {
            return (measured, false);
        }
        let version = self.assignment.version + 1;
        self.assignment = Arc::new(place::make_assignment(version, &plan, routes));
        (measured, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitex_xmlsax::XmlReader;

    /// Runs `xml` through a ring-lane session over two rings nobody
    /// consumes (pre-sent `DocEnd` acknowledgements stand in for the
    /// workers) and returns what it broadcast, in ring order.
    fn capture(xml: &str) -> Vec<SeqBatch> {
        let mut multi = MultiEngine::new();
        for q in ["/r/a/b", "//a[c]", "//b/text()", "/r/a"] {
            multi.add_query(q).unwrap();
        }
        let rings = [Arc::new(Ring::new(4096)), Arc::new(Ring::new(4096))];
        let (tx, rx) = channel();
        for shard in 0..rings.len() {
            tx.send(WorkerReport {
                shard,
                matches: Vec::new(),
                through_seq: 0,
                doc_stats: Some(Vec::new()),
                poisoned: false,
            })
            .unwrap();
        }
        let parts = multi.shard_parts();
        let pool = GroupPool::vacant(parts.planner.groups().len());
        let ends = RingEnds { rings: &rings, rx: &rx, pool: &pool };
        let mut session = ShardSession::open(parts, Some(ends));
        session.run_document(XmlReader::from_str(xml), |_, _| {}).expect("pump run");
        rings[0].close();
        std::iter::from_fn(|| rings[0].pop()).collect()
    }

    #[test]
    fn pump_batches_cover_increasing_sequence_ranges_up_to_doc_end() {
        // Names no query mentions (<x>, <y>) are filtered but still
        // consume sequence numbers; text ships (//b/text() reads it).
        let mut xml = String::from("<r>");
        for i in 0..40 {
            xml.push_str(&format!("<a><x>skip{i}<y/></x><b>t{i}</b><c/></a><x><a><b/></a></x>"));
        }
        xml.push_str("</r>");
        let batches = capture(&xml);
        assert!(batches.len() > 1, "several batches");
        assert!(
            batches.windows(2).all(|w| w[0].through < w[1].through),
            "`through` strictly increases"
        );
        let through = batches.last().expect("non-empty").through;
        // Every shipped event, in full (seq, symbol, level, trie pushes,
        // payloads), as its `Debug` rendering.
        let events: Vec<String> =
            batches.iter().flat_map(|b| b.events.iter()).map(|e| format!("{e:?}")).collect();
        assert_eq!(events.last(), Some(&format!("DocEnd {{ seq: {through} }}")));
        assert!(through > events.len() as u64, "filtered events consumed sequence numbers");
        assert!(
            !events.iter().any(|e| e.contains("\"x\"") || e.contains("\"y\"")),
            "filtered elements never ship"
        );
        assert!(events.iter().any(|e| e.contains("TriePush")), "trie pushes ship");
    }

    #[test]
    fn sharded_output_matches_single_threaded() {
        let xml = "<r><a id=\"1\"><b>hi</b></a><c/><a id=\"2\"/></r>";
        let queries = ["//a", "//a/@id", "//b/text()", "//a", "//*"];
        let reference = {
            let mut multi = MultiEngine::new();
            for q in queries {
                multi.add_query(q).unwrap();
            }
            multi.run(XmlReader::from_str(xml), |_, _| {}).unwrap()
        };
        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedEngine::new(shards);
            for q in queries {
                sharded.add_query(q).unwrap();
            }
            let mut streamed = Vec::new();
            let out =
                sharded.run(XmlReader::from_str(xml), |q, m| streamed.push((q.0, m.node))).unwrap();
            assert_eq!(out.matches, reference.matches, "{shards} shards");
            assert_eq!(out.stats, reference.stats, "{shards} shards");
            assert_eq!(out.plan, reference.plan, "{shards} shards");
            assert_eq!(out.elements, reference.elements);
            assert_eq!(out.events, reference.events);
            assert!(!streamed.is_empty());
        }
    }

    #[test]
    fn session_streams_documents_back_to_back() {
        let mut sharded = ShardedEngine::new(3);
        let qa = sharded.add_query("//a").unwrap();
        let qb = sharded.add_query("//b").unwrap();
        let docs = ["<a><b/></a>", "<a><a/><b/><b/></a>", "<x/>"];
        let outs = sharded
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
        let mut sharded = ShardedEngine::new(2);
        let q = sharded.add_query("//b").unwrap();
        let out = sharded
            .session(|session| {
                let err = session.run_document(XmlReader::from_str("<a><b></a>"), |_, _| {});
                assert!(err.is_err(), "malformed document surfaces its error");
                session.run_document(XmlReader::from_str("<a><b/></a>"), |_, _| {})
            })
            .unwrap();
        assert_eq!(out.matches[q.0].len(), 1);
    }

    #[test]
    fn more_shards_than_groups_is_fine() {
        let mut sharded = ShardedEngine::new(8);
        let q = sharded.add_query("//a").unwrap();
        let out = sharded.run(XmlReader::from_str("<a><a/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[q.0].len(), 2);
        // And with no queries at all, the stream statistics still flow.
        let mut empty = ShardedEngine::new(4);
        let out = empty.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.elements, 2);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn churn_between_sessions_rebalances() {
        let mut sharded = ShardedEngine::new(2);
        let qa = sharded.add_query("//a").unwrap();
        let qb = sharded.add_query("//b").unwrap();
        let out = sharded.run(XmlReader::from_str("<a><b/></a>"), |_, _| {}).unwrap();
        assert_eq!(out.matches[qa.0].len(), 1);
        assert_eq!(sharded.remove_query(qa), Some(true));
        let qc = sharded.add_query("//c").unwrap();
        let out = sharded.run(XmlReader::from_str("<a><b/><c/></a>"), |_, _| {}).unwrap();
        assert!(out.matches[qa.0].is_empty(), "removed query stays silent");
        assert_eq!(out.matches[qb.0].len(), 1);
        assert_eq!(out.matches[qc.0].len(), 1);
        assert_eq!(out.plan.recycled_slots, 1, "//c recycled //a's slot");
    }
}
