//! Sharded parallel execution: plan groups partitioned across worker
//! threads, with a deterministic merge back into single-threaded order.
//!
//! TwigM machines are independent consumers of the same event stream, and
//! the planner already routes each event to disjoint plan groups — so the
//! groups are an embarrassingly partitionable unit of work. The
//! [`ShardedEngine`] exploits that: it wraps the multi-query engine,
//! partitions the active plan groups across `N` worker threads, advances
//! the plan trie once per event on the document thread, broadcasts the
//! driver's interned events — trie push decisions attached — over bounded
//! rings ([`worker::Ring`]), applies them in each shard with the same
//! [`crate::multi::Executor`] the inline engine runs, over the shard's
//! subset, and k-way-merges the per-shard match streams by watermark
//! ([`merge::MatchMerger`]) into **exactly** the output — same matches,
//! same order, same statistics — the single-threaded engine produces.
//!
//! ## Sessions
//!
//! Worker threads are scoped to a [`ShardSession`], not to a single
//! document: [`ShardedEngine::session`] spawns the workers once, then
//! [`ShardSession::run_document`] streams any number of documents
//! back-to-back through the same registered query set without
//! re-planning — the document-collections workload, where keeping the
//! workers warm is what makes the threads pay. Registration churn
//! (`add_query` / `remove_query`) happens between sessions; the partition
//! is recomputed over the then-active groups each time a session opens,
//! so retired slots recycled by the planner's free-list migrate shards
//! naturally.
//!
//! ## The coordinator
//!
//! The document thread runs the driver over any [`EventSource`]
//! ([`ShardSession::run_document`]) and does three things per document:
//! the **admission walk** ([`admit::Admission`]) numbers events, applies
//! the broadcast filter and sequences the global trie, and the `DocPump`
//! sink ships what it admits, batched, to every shard ring; the
//! per-document `DocState` ingests worker reports into the watermark
//! merge until every shard has acknowledged `DocEnd`; and the epilogue
//! (`ThreadedSession::finish_document`, ending in
//! [`crate::multi::finish_document`]) assembles the output exactly as the
//! inline engine does.
//!
//! ## Placement
//!
//! *Which* groups land on which worker is the [`place`] subsystem's
//! call: LPT bin-packing over ledger-refined cost estimates, with
//! mid-session repartitioning at document boundaries when measured
//! imbalance exceeds a hysteresis threshold. Groups live in a
//! [`worker::GroupPool`] between documents, and every document's
//! `DocStart` carries the assignment to run under — so a repartition is
//! just a new assignment version, adopted by the workers before the
//! next event flows.
//!
//! ## Determinism
//!
//! With `shards = 1` the engine *is* the single-threaded
//! [`MultiEngine::run`] path — no threads, no rings. With `shards > 1`
//! determinism is by construction: every match carries its
//! `(event seq, group id)` key, each shard's stream is emitted in key
//! order, and the merger releases a match only once every shard's
//! watermark has passed its event. The differential battery asserts
//! equality at several shard counts.

pub(crate) mod admit;
pub(crate) mod merge;
pub(crate) mod place;
pub(crate) mod worker;

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;

use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::EventSource;
use vitex_xpath::query_tree::QueryTree;

use crate::driver::EventSink;
use crate::error::{EngineError, EngineResult};
use crate::intern::{Interner, Symbol};
use crate::multi::{
    finish_document, FinishedDocument, GroupFacts, MultiEngine, MultiOutput, QueryRecord,
};
use crate::plan::TriePush;
use crate::result::{Match, NodeId, QueryId};
use crate::stats::{MachineStats, PlanStats, StreamStats};
use crate::telemetry::{CostLedger, Telemetry};

use admit::Admission;
use merge::MatchMerger;
pub use place::PlacementSnapshot;
use place::{Assignment, CostModel, ShardPlan};
use worker::{run_worker, EventBatch, GroupPool, Ring, SeqBatch, ShardEvent, WorkerReport};

/// Events per broadcast batch: large enough to amortize ring locking and
/// `Arc<[_]>` allocation, small enough to keep delivery incremental.
const EVENT_BATCH: usize = 256;

/// Ring depth in batches — the backpressure bound per shard.
const RING_BATCHES: usize = 8;

/// A multi-query engine that executes plan groups on `N` worker threads.
///
/// The registration surface mirrors [`MultiEngine`] (it *is* one
/// underneath); only execution differs. See the module docs for the
/// architecture and [`ShardedEngine::session`] for streaming several
/// documents through warm workers.
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
    /// An empty engine running `shards` workers (0 is clamped to 1).
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
    /// poison path from integration tests.
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

    /// The wrapped single-threaded engine, for registration-surface calls
    /// not mirrored here.
    pub fn engine(&self) -> &MultiEngine {
        &self.multi
    }

    /// Registers a query; returns its handle.
    pub fn add_query(&mut self, query: &str) -> EngineResult<QueryId> {
        self.multi.add_query(query)
    }

    /// Registers an already-built query tree.
    pub fn add_tree(&mut self, tree: &QueryTree) -> EngineResult<QueryId> {
        self.multi.add_tree(tree)
    }

    /// Unregisters a query (see [`MultiEngine::remove_query`]).
    pub fn remove_query(&mut self, id: QueryId) -> Option<bool> {
        self.multi.remove_query(id)
    }

    /// Active subscription count.
    pub fn len(&self) -> usize {
        self.multi.len()
    }

    /// Whether no subscription is active.
    pub fn is_empty(&self) -> bool {
        self.multi.is_empty()
    }

    /// Active plan-group (machine) count.
    pub fn group_count(&self) -> usize {
        self.multi.group_count()
    }

    /// Plan-level statistics for the current subscription set.
    pub fn plan_stats(&self) -> PlanStats {
        self.multi.plan_stats()
    }

    /// Attaches a telemetry handle. Beyond the single-threaded counters,
    /// sharded runs record ring occupancy/stalls, worker busy/idle time,
    /// per-batch shard spans, and merge hold/release statistics.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.multi.set_telemetry(telemetry);
    }

    /// Enables (or disables) per-subscription cost attribution (see
    /// [`MultiEngine::set_profiling`]). Sharded runs additionally
    /// attribute sampled worker self-time, shared trie steps billed on
    /// the document thread, and merge hold latency to each plan group.
    pub fn set_profiling(&mut self, on: bool) {
        self.multi.set_profiling(on);
    }

    /// Snapshot of the cost ledger — deterministic per-query counters
    /// plus per-group diagnostics (self-time, shared steps, merge holds).
    /// `None` when profiling is disabled.
    pub fn group_costs(&self) -> Option<crate::telemetry::ProfileSnapshot> {
        self.multi.profile_snapshot()
    }

    /// The live cost-ledger handle (see [`MultiEngine::cost_ledger`]).
    pub fn cost_ledger(&self) -> CostLedger {
        self.multi.cost_ledger()
    }

    /// Streams one document; a one-document [`ShardedEngine::session`].
    /// With one shard this *is* [`MultiEngine::run`].
    pub fn run<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        self.session(|session| session.run_document(reader, on_match))
    }

    /// Opens a streaming session: spawns the worker threads, partitions
    /// the active plan groups across them, hands `f` a [`ShardSession`]
    /// to stream documents through, and tears the workers down when `f`
    /// returns. The subscription set is frozen for the session (the
    /// borrow checker enforces it — the session mutably borrows the
    /// engine), so documents stream back-to-back with zero re-planning
    /// or thread churn between them.
    pub fn session<T>(
        &mut self,
        f: impl FnOnce(&mut ShardSession<'_>) -> EngineResult<T>,
    ) -> EngineResult<T> {
        if self.shards == 1 {
            // Inline: same API, no threads — the single-threaded engine.
            return f(&mut ShardSession { inner: SessionInner::Inline(&mut self.multi) });
        }
        let injected_fault = self.fault;
        let injected_swap_fault = self.swap_fault;
        let parts = self.multi.shard_parts();
        let plan = parts.planner.stats(parts.interner);
        // Group-resident bytes are re-read from the workers after each
        // document (stack capacity grows with the stream); everything else
        // in the plan is frozen for the session. `plan_overhead` is the
        // non-group remainder (trie, interner).
        let plan_overhead = plan.plan_bytes
            - parts
                .planner
                .groups()
                .iter()
                .filter(|g| g.is_active())
                .map(|g| g.approx_bytes())
                .sum::<u64>();
        let nsymbols = parts.interner.len();
        // Groups are out on loan to the workers while documents stream,
        // so what the coordinator reads off them is snapshotted up front
        // (the plan is frozen for the session): subscriber lists for the
        // fan-out and, while profiling, canonical keys for the ledger.
        let subscribers: Vec<Vec<QueryId>> =
            parts.planner.groups().iter().map(|g| g.subscribers().to_vec()).collect();
        let group_slots = subscribers.len();
        let profiled = parts.profile.is_enabled();
        let group_canonicals: Vec<Option<String>> = if profiled {
            parts
                .planner
                .groups()
                .iter()
                .map(|g| g.is_active().then(|| g.canonical_key().to_string()))
                .collect()
        } else {
            Vec::new()
        };

        // Partition the active groups. Surplus workers would own zero
        // machines yet still pop and acknowledge every batch, so the
        // worker count is clamped to the active group count (a session
        // always runs at least one worker — stream statistics must flow
        // even with no subscriptions). Clamping happens *here*, against
        // the post-churn active set, so removals between sessions shrink
        // the worker pool rather than leave idle acknowledgers.
        let active_gids: Vec<usize> = parts
            .planner
            .groups()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_active())
            .map(|(gid, _)| gid)
            .collect();
        let nshards = self.shards.min(active_gids.len()).max(1);

        // Cost estimates for placement planning: uniform prior, seeded
        // from the live cost ledger when there is one. Seeding is guarded
        // by each group's canonical step key: the planner's free-list
        // recycles retired gids, and a recycled slot must not inherit the
        // retired query's bill.
        let mut cost = CostModel::uniform(group_slots);
        if let Some(snapshot) = parts.profile.snapshot() {
            cost.seed_from_ledger(&snapshot, &group_canonicals);
        }
        let initial_plan = place::lpt_plan(&active_gids, &cost, nshards);

        // The admission walk advances the *global* plan trie once per
        // event and ships the push decisions; each worker only needs the
        // trie's route table narrowed to its own group subset, which the
        // assignment carries.
        let (trie, groups) = parts.planner.run_split();
        let assignment = Arc::new(place::make_assignment(0, &initial_plan, trie.routes()));

        // All active groups start in the pool; workers check theirs out
        // per document under whatever assignment that document carries.
        let pool = GroupPool::new(groups);

        let telemetry = parts.driver.telemetry();
        let rings: Vec<Arc<Ring<SeqBatch>>> = (0..nshards)
            .map(|_| Arc::new(Ring::with_telemetry(RING_BATCHES, telemetry.clone())))
            .collect();
        let (tx, rx): (Sender<WorkerReport>, Receiver<WorkerReport>) = channel();
        thread::scope(|scope| {
            let pool = &pool;
            for (shard, shard_ring) in rings.iter().enumerate() {
                let ring = Arc::clone(shard_ring);
                let tx = tx.clone();
                let fault =
                    injected_fault.and_then(|(s, seq)| if s == shard { Some(seq) } else { None });
                let swap_fault = injected_swap_fault == Some(shard);
                scope.spawn(move || {
                    run_worker(shard, pool, nsymbols, fault, swap_fault, profiled, ring, tx)
                });
            }
            drop(tx);
            // Rings must close even if `f` (or output assembly) panics:
            // the scope joins the workers on unwind, and a worker blocked
            // in `Ring::pop` would never exit.
            let _close_on_exit = CloseRings(&rings);
            let mut session = ShardSession {
                inner: SessionInner::Threaded(Box::new(ThreadedSession {
                    driver: parts.driver,
                    interner: parts.interner,
                    admission: Admission::new(parts.index, trie),
                    rings: &rings,
                    rx: &rx,
                    subscribers: &subscribers,
                    records: parts.records,
                    group_canonicals: &group_canonicals,
                    profile: parts.profile,
                    plan,
                    plan_overhead,
                    poisoned: None,
                    cost,
                    active_gids,
                    assignment,
                    repartitions: 0,
                    last_imbalance: None,
                })),
            };
            f(&mut session)
        })
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

/// Pushes one batch (built once, `Arc`-shared) into every shard ring.
fn broadcast(rings: &[Arc<Ring<SeqBatch>>], batch: SeqBatch) {
    for ring in rings {
        ring.push(batch.clone());
    }
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

/// A live sharded session: worker threads are up, the plan is frozen, and
/// any number of documents can stream through. Obtained from
/// [`ShardedEngine::session`].
pub struct ShardSession<'a> {
    inner: SessionInner<'a>,
}

enum SessionInner<'a> {
    /// One shard: delegate to the single-threaded engine.
    Inline(&'a mut MultiEngine),
    /// Worker threads are running (boxed: the threaded state is large).
    Threaded(Box<ThreadedSession<'a>>),
}

impl ShardSession<'_> {
    /// Streams one document through the session's workers and returns the
    /// same [`MultiOutput`] — matches, per-query statistics, plan and
    /// stream counters, all in the same order — that
    /// [`MultiEngine::run`] produces for this subscription set.
    /// `on_match` fires on the calling thread, in single-threaded
    /// emission order, while the document is still streaming (held back
    /// only by the merge watermarks).
    pub fn run_document<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        match &mut self.inner {
            SessionInner::Inline(multi) => multi.run(reader, on_match),
            SessionInner::Threaded(t) => t.run_document(reader, on_match),
        }
    }

    /// The session's current placement state: effective worker count,
    /// the group→shard map the *next* document will run under,
    /// repartitions so far, and the last measured imbalance. Inline
    /// (one-shard) sessions report a trivial snapshot — one shard, no
    /// per-group map, nothing to repartition.
    pub fn placement_snapshot(&self) -> PlacementSnapshot {
        match &self.inner {
            SessionInner::Inline(_) => PlacementSnapshot {
                shards: 1,
                shard_of: Vec::new(),
                repartitions: 0,
                last_imbalance_millis: None,
            },
            SessionInner::Threaded(t) => t.placement_snapshot(),
        }
    }
}

/// Session state for the `shards > 1` path. The `&'a` fields are frozen
/// for the session and `Copy`, so per-document state ([`DocState`]) takes
/// its own copies instead of borrowing the session.
struct ThreadedSession<'a> {
    driver: &'a mut crate::driver::DocumentDriver,
    interner: &'a Interner,
    /// The admission walk (broadcast filter, global trie, sequence
    /// numbers), reset per document.
    admission: Admission<'a>,
    /// One ring per worker; the worker count is `rings.len()`.
    rings: &'a [Arc<Ring<SeqBatch>>],
    rx: &'a Receiver<WorkerReport>,
    /// Subscriber snapshot per group slot.
    subscribers: &'a [Vec<QueryId>],
    records: &'a [QueryRecord],
    /// Canonical step key per group slot, `None` for inactive slots
    /// (empty unless profiling).
    group_canonicals: &'a [Option<String>],
    /// Cost ledger: disabled (inert) unless profiling is on.
    profile: &'a CostLedger,
    /// Plan statistics snapshot (the plan cannot change mid-session);
    /// the per-run parts are refreshed per document.
    plan: PlanStats,
    /// The non-group share of `plan.plan_bytes` (trie, interner).
    plan_overhead: u64,
    /// `Some(shard)` once a worker died mid-document: the session is
    /// poisoned and every subsequent document fails fast (`usize::MAX`
    /// when the failing shard is unknown — the report channel died).
    poisoned: Option<usize>,
    /// Per-group cost estimates, refined from every document's measured
    /// work; drives LPT replanning.
    cost: CostModel,
    /// The active group ids this session partitions (ascending).
    active_gids: Vec<usize>,
    /// The assignment the *next* document will run under; shipped inside
    /// its `DocStart` and swapped by [`ThreadedSession::after_document`]
    /// when a repartition fires.
    assignment: Arc<Assignment>,
    /// Repartitions performed this session.
    repartitions: u64,
    /// Measured imbalance (millis) of the most recent document.
    last_imbalance: Option<u64>,
}

impl<'a> ThreadedSession<'a> {
    /// The driver pulls `reader` on this thread and the [`DocPump`] sink
    /// ships what the admission walk admits.
    fn run_document<E: EventSource, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: E,
        mut on_match: F,
    ) -> EngineResult<MultiOutput> {
        let telemetry = self.driver.telemetry();
        let mut doc = self.begin_document(&telemetry)?;
        let mut pump = DocPump {
            interner: self.interner,
            telemetry: &telemetry,
            admission: &mut self.admission,
            doc: &mut doc,
            on_match: &mut on_match,
            open_names: Vec::new(),
            no_pushes: Vec::new().into(),
            batch: Vec::with_capacity(EVENT_BATCH),
            ended: false,
        };
        pump.batch.push(ShardEvent::DocStart { assignment: Arc::clone(&self.assignment) });
        let stream = self.driver.run(reader, &mut pump);
        // On a parse error the driver never reached `document_end`;
        // close the document on the worker side anyway so the workers
        // quiesce and the session stays usable for the next document.
        if !pump.ended {
            pump.finish_document();
        }
        doc.await_doc_end(&mut on_match);
        self.finish_document(doc, stream, &telemetry)
    }

    /// Opens a document: fails fast on a poisoned session, resets the
    /// admission walk, and returns fresh coordinator state.
    fn begin_document(&mut self, telemetry: &Telemetry) -> EngineResult<DocState<'a>> {
        if let Some(shard) = self.poisoned {
            return Err(poison_error(shard));
        }
        let group_slots = self.subscribers.len();
        let profiled = self.profile.is_enabled();
        self.admission.begin_document(if profiled { group_slots } else { 0 });
        Ok(DocState {
            rings: self.rings,
            rx: self.rx,
            subscribers: self.subscribers,
            profile: self.profile,
            matches: self.records.iter().map(|_| Vec::new()).collect(),
            merger: MatchMerger::with_profile(self.rings.len(), telemetry.clone(), profiled),
            group_stats: vec![MachineStats::default(); group_slots],
            group_bytes: 0,
            done: 0,
            poisoned: None,
        })
    }

    /// The sharded per-document epilogue, after every shard acknowledged
    /// `DocEnd` (or the session was poisoned): surfaces poisoning and
    /// parse errors, refreshes the per-run parts of the plan snapshot —
    /// group-resident bytes from the worker acknowledgements, prefix
    /// counters from the admission walk's trie run — hands over to the
    /// engine-wide [`finish_document`], and lets placement observe the
    /// document.
    fn finish_document(
        &mut self,
        doc: DocState<'a>,
        stream: EngineResult<StreamStats>,
        telemetry: &Telemetry,
    ) -> EngineResult<MultiOutput> {
        self.poisoned = doc.poisoned;
        if let Some(shard) = self.poisoned {
            return Err(poison_error(shard));
        }
        let stream = stream?;
        let DocState { matches, mut merger, group_stats, group_bytes, .. } = doc;
        debug_assert!(merger.is_drained(), "all shards reported through the final event");
        let run = self.admission.trie_run_stats();
        let plan = PlanStats {
            plan_bytes: self.plan_overhead + group_bytes,
            prefix_steps_executed: run.steps_executed,
            prefix_steps_saved: run.steps_saved,
            prefix_forks: run.forks,
            prefix_stack_bytes: run.peak_stack_bytes(),
            ..self.plan
        };
        let out = finish_document(
            FinishedDocument {
                records: self.records,
                matches,
                stream,
                plan,
                shared_steps: self.admission.shared_steps(),
                holds: merger.take_holds(),
            },
            telemetry,
            self.profile,
            self.subscribers.len(),
            |gid| GroupFacts {
                canonical: self.group_canonicals.get(gid).and_then(|c| c.as_deref()),
                subscribers: self.subscribers[gid].len() as u64,
                stats: &group_stats[gid],
            },
        );
        self.after_document(&group_stats, telemetry);
        Ok(out)
    }

    /// Post-document placement bookkeeping: measure per-shard loads under
    /// the assignment the document just ran with (from the deterministic
    /// machine work counters, so the decision stream is repeatable),
    /// refine the cost estimates, export the imbalance
    /// gauge, and — past the hysteresis threshold — swap in a rebalanced
    /// assignment for the next document. Swapping here is what keeps
    /// repartitioning output-transparent: the new assignment travels
    /// inside the next `DocStart`, workers adopt it before any event of
    /// that document flows, and the watermark merge never notices.
    fn after_document(&mut self, group_stats: &[MachineStats], telemetry: &Telemetry) {
        let nshards = self.rings.len();
        let mut loads = vec![0u64; nshards];
        for (shard, gids) in self.assignment.shard_gids.iter().enumerate() {
            for &gid in gids {
                let work = place::work_of(&group_stats[gid]);
                self.cost.observe(gid, work);
                loads[shard] += work;
            }
        }
        let measured = place::imbalance_millis(&loads);
        self.last_imbalance = Some(measured);
        telemetry.gauge_set(|r| &r.shard_imbalance, measured);
        if nshards < 2 || measured < place::REPARTITION_THRESHOLD_MILLIS {
            return;
        }
        let plan = place::lpt_plan(&self.active_gids, &self.cost, nshards);
        if plan.shard_gids == self.assignment.shard_gids {
            return;
        }
        // Only swap when the refined estimates actually predict an
        // improvement over keeping the current assignment — hysteresis
        // against estimate noise oscillating two near-equal plans.
        let current = ShardPlan { shard_gids: self.assignment.shard_gids.clone() };
        let predicted = place::imbalance_millis(&plan.loads(&self.cost));
        let staying = place::imbalance_millis(&current.loads(&self.cost));
        if predicted >= staying {
            return;
        }
        self.assignment = Arc::new(place::make_assignment(
            self.assignment.version + 1,
            &plan,
            self.admission.routes(),
        ));
        self.repartitions += 1;
        telemetry.add(|r| &r.shard_repartitions, 1);
    }

    fn placement_snapshot(&self) -> PlacementSnapshot {
        let plan = ShardPlan { shard_gids: self.assignment.shard_gids.clone() };
        let shard_of = plan
            .shard_of(self.subscribers.len())
            .into_iter()
            .map(|s| (s != usize::MAX).then_some(s))
            .collect();
        PlacementSnapshot {
            shards: self.rings.len(),
            shard_of,
            repartitions: self.repartitions,
            last_imbalance_millis: self.last_imbalance,
        }
    }
}

/// Coordinator-side state of one in-flight document: what the worker
/// reports fold into.
struct DocState<'a> {
    rings: &'a [Arc<Ring<SeqBatch>>],
    rx: &'a Receiver<WorkerReport>,
    subscribers: &'a [Vec<QueryId>],
    /// Receives the sampled self-time riding on `DocEnd` snapshots.
    profile: &'a CostLedger,
    /// Delivered matches per registration record.
    matches: Vec<Vec<Match>>,
    merger: MatchMerger,
    /// Per-group machine statistics, filled by `DocEnd` acknowledgements.
    group_stats: Vec<MachineStats>,
    /// Post-document group-resident bytes summed across `DocEnd`
    /// acknowledgements (feeds [`PlanStats::plan_bytes`]).
    group_bytes: u64,
    /// Shards that have acknowledged `DocEnd` so far.
    done: usize,
    /// `Some(shard)` once a worker died mid-document (`usize::MAX` when
    /// the failing shard is unknown).
    poisoned: Option<usize>,
}

impl DocState<'_> {
    /// Closes every ring and records the failing shard (the first one
    /// wins). From here on no callback fires: no matches after an error.
    fn poison(&mut self, shard: usize) {
        close_rings(self.rings);
        self.poisoned.get_or_insert(shard);
    }

    /// Folds one worker report in: matches into the merger (releasing and
    /// fanning out whatever became safe — through the same
    /// [`crate::multi::fan_out_match`] the single-threaded sinks use, so
    /// delivery order cannot diverge), `DocEnd` acknowledgements into the
    /// statistics snapshot. Late reports from surviving workers draining
    /// their rings after a poisoning are dropped.
    fn ingest_report<F: FnMut(QueryId, Match)>(&mut self, report: WorkerReport, on_match: &mut F) {
        if report.poisoned {
            return self.poison(report.shard);
        }
        if self.poisoned.is_some() {
            return;
        }
        if let Some(doc_stats) = report.doc_stats {
            for snapshot in doc_stats {
                self.profile.add_self_ns(snapshot.gid, snapshot.self_ns);
                self.group_stats[snapshot.gid] = snapshot.stats;
                self.group_bytes += snapshot.approx_bytes;
            }
            self.done += 1;
        }
        self.merger.push(report.shard, report.matches, report.through_seq);
        let (subscribers, matches) = (self.subscribers, &mut self.matches);
        self.merger.drain(|t| {
            crate::multi::fan_out_match(&subscribers[t.gid as usize], matches, on_match, t.m)
        });
    }

    /// Folds in whatever reports have already arrived, without blocking —
    /// called between batches so merged matches stream to the caller
    /// while the document is still being read.
    fn ingest_ready<F: FnMut(QueryId, Match)>(&mut self, on_match: &mut F) {
        while let Ok(report) = self.rx.try_recv() {
            self.ingest_report(report, on_match);
        }
    }

    /// Blocks until every shard has acknowledged `DocEnd` or the session
    /// is poisoned, delivering merged matches as they become safe.
    fn await_doc_end<F: FnMut(QueryId, Match)>(&mut self, on_match: &mut F) {
        while self.done < self.rings.len() && self.poisoned.is_none() {
            match self.rx.recv() {
                Ok(report) => self.ingest_report(report, on_match),
                // Every worker hung up without a final report: a panic
                // escaped containment, on an unknown shard.
                Err(_) => self.poison(usize::MAX),
            }
        }
    }
}

/// The session's [`EventSink`]: ships each event the admission walk
/// admits, batched, to every shard ring, and folds in
/// worker reports between batches.
struct DocPump<'p, 'a, F: FnMut(QueryId, Match)> {
    interner: &'a Interner,
    /// Records the broadcast batch-size histogram.
    telemetry: &'p Telemetry,
    admission: &'p mut Admission<'a>,
    doc: &'p mut DocState<'a>,
    on_match: &'p mut F,
    /// `Arc` names of open *shipped* elements, innermost last: the end
    /// tag reuses the start tag's allocation. Filter verdicts pair up, so
    /// pushes and pops balance.
    open_names: Vec<Arc<str>>,
    /// Shared empty push list (most start tags push nothing).
    no_pushes: Arc<[TriePush]>,
    batch: Vec<ShardEvent>,
    ended: bool,
}

impl<F: FnMut(QueryId, Match)> DocPump<'_, '_, F> {
    fn push(&mut self, event: ShardEvent) {
        self.batch.push(event);
        if self.batch.len() >= EVENT_BATCH {
            self.flush();
        }
    }

    /// Broadcasts the pending batch, covering every sequence number
    /// admitted so far, then drains any worker reports that already
    /// arrived.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.telemetry.observe(|r| &r.batch_events, self.batch.len() as u64);
        let events: EventBatch = std::mem::take(&mut self.batch).into();
        broadcast(self.doc.rings, SeqBatch { through: self.admission.seq(), events });
        self.batch.reserve(EVENT_BATCH);
        self.doc.ingest_ready(self.on_match);
    }

    /// Terminates the document on the worker side: `DocEnd` at the final
    /// sequence number, flushed with whatever the batch still holds.
    fn finish_document(&mut self) {
        self.batch.push(ShardEvent::DocEnd { seq: self.admission.seq() });
        self.flush();
        self.ended = true;
    }
}

impl<F: FnMut(QueryId, Match)> EventSink for DocPump<'_, '_, F> {
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
        let Some((seq, pushes)) = self.admission.start(sym, event.level) else { return };
        let pushes =
            if pushes.is_empty() { Arc::clone(&self.no_pushes) } else { Arc::from(pushes) };
        let name: Arc<str> = event.name.as_str().into();
        self.open_names.push(Arc::clone(&name));
        self.push(ShardEvent::Start {
            seq,
            sym,
            name,
            level: event.level,
            attrs: event.attributes.as_slice().into(),
            node_id,
            attr_id_base,
            span: event.span,
            pushes,
        });
    }

    fn characters(&mut self, event: &CharactersEvent, node_id: NodeId) {
        let Some(seq) = self.admission.text() else { return };
        self.push(ShardEvent::Text {
            seq,
            text: event.text.as_str().into(),
            level: event.level,
            node_id,
            span: event.span,
        });
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        let Some(seq) = self.admission.end(sym, event.level) else { return };
        let name = self.open_names.pop().expect("shipped end tags pair with shipped start tags");
        self.push(ShardEvent::End {
            seq,
            name,
            level: event.level,
            element_span: event.element_span,
        });
    }

    fn document_end(&mut self) {
        self.finish_document();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vitex_xmlsax::XmlReader;

    /// Runs `xml` through the pump of a hand-built one-shard session whose
    /// ring nobody consumes (a pre-sent `DocEnd` acknowledgement stands in
    /// for the worker) and returns what it broadcast, in ring order.
    fn capture(xml: &str) -> Vec<SeqBatch> {
        let mut multi = MultiEngine::new();
        for q in ["/r/a/b", "//a[c]", "//b/text()", "/r/a"] {
            multi.add_query(q).unwrap();
        }
        let parts = multi.shard_parts();
        let subscribers: Vec<Vec<QueryId>> =
            parts.planner.groups().iter().map(|g| g.subscribers().to_vec()).collect();
        let active_gids: Vec<usize> = (0..subscribers.len()).collect();
        let cost = CostModel::uniform(subscribers.len());
        let plan_stats = parts.planner.stats(parts.interner);
        let trie = parts.planner.run_split().0;
        let assignment = Arc::new(place::make_assignment(
            0,
            &place::lpt_plan(&active_gids, &cost, 1),
            trie.routes(),
        ));
        let rings = [Arc::new(Ring::new(4096))];
        let (tx, rx) = channel();
        tx.send(WorkerReport {
            shard: 0,
            matches: Vec::new(),
            through_seq: 0,
            doc_stats: Some(Vec::new()),
            poisoned: false,
        })
        .unwrap();
        let mut session = ThreadedSession {
            driver: parts.driver,
            interner: parts.interner,
            admission: Admission::new(parts.index, trie),
            rings: &rings,
            rx: &rx,
            subscribers: &subscribers,
            records: parts.records,
            group_canonicals: &[],
            profile: parts.profile,
            plan: plan_stats,
            plan_overhead: 0,
            poisoned: None,
            cost,
            active_gids,
            assignment,
            repartitions: 0,
            last_imbalance: None,
        };
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
