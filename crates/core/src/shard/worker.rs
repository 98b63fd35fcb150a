//! Shard workers: the bounded event ring and the per-shard event loop.
//!
//! A worker of a [`crate::shard::ShardSession`]'s ring lane has a
//! disjoint subset of the plan groups on loan while a document streams
//! (the borrow is scoped — groups return to the engine when the session
//! closes). It pops event batches off its ring and applies them with its
//! own [`Executor`] over the subset — the same per-event apply step the
//! direct lane runs, keyed by local slot and fed the trie pushes the
//! document thread shipped — and reports emitted matches tagged with
//! their global ordering key, plus a watermark, back to the document
//! thread.
//!
//! Each ring has exactly one producer — the document thread — so batches
//! arrive in document order, which the twig machines (streaming stack
//! automata) require. A batch names the sequence number it covers
//! `through` ([`SeqBatch`]); that becomes the shard's watermark once the
//! batch is applied.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use vitex_xmlsax::event::Attribute;
use vitex_xmlsax::pos::ByteSpan;

use crate::intern::Symbol;
use crate::multi::{DispatchIndex, Executor, StartTag};
use crate::plan::{PlanGroup, TriePush};
use crate::result::{Match, NodeId, QueryId};
use crate::stats::MachineStats;
use crate::telemetry::{Telemetry, TID_SHARD_BASE};

use super::merge::TaggedMatch;
use super::place::Assignment;

/// One document event in shard-transportable form. String payloads
/// (attributes, text, end-tag name) are `Arc`-shared: the document thread
/// builds each event **once** and broadcasting to N shards bumps
/// reference counts; everything else is `Copy`.
#[derive(Debug, Clone)]
pub(crate) enum ShardEvent {
    /// A document begins: acquire the groups this shard owns under
    /// `assignment` (adopting it — rebuilding the local dispatch index and
    /// taking its route table — when its version differs from the one
    /// currently running) and reset machine state (stacks, stats) and the
    /// executor's candidate store.
    DocStart { assignment: Arc<Assignment> },
    /// `startElement` with the symbol the driver resolved once.
    Start {
        seq: u64,
        sym: Option<Symbol>,
        level: u32,
        attrs: Arc<[Attribute]>,
        node_id: NodeId,
        attr_id_base: NodeId,
        span: ByteSpan,
        /// Main-path push decisions from the document thread's plan
        /// trie. `Arc`-shared like the other payloads: built once,
        /// bumped per ring.
        pushes: Arc<[TriePush]>,
    },
    /// A text node.
    Text { seq: u64, text: Arc<str>, level: u32, node_id: NodeId, span: ByteSpan },
    /// `endElement`.
    End { seq: u64, name: Arc<str>, level: u32, element_span: ByteSpan },
    /// The document ended; `seq` is the total number of sequenced events,
    /// i.e. the final watermark. The worker snapshots machine statistics
    /// and acknowledges.
    DocEnd { seq: u64 },
}

/// A broadcast batch: built once, shared by every shard's ring.
pub(crate) type EventBatch = Arc<[ShardEvent]>;

/// A ring item: one broadcast batch plus the highest sequence number it
/// covers — which can exceed the last *shipped* event's own seq, because
/// filtered events consume sequence numbers without shipping a payload.
#[derive(Debug, Clone)]
pub(crate) struct SeqBatch {
    pub(crate) through: u64,
    pub(crate) events: EventBatch,
}

/// A bounded SPSC ring buffer carrying event batches from the document
/// thread to one worker.
///
/// Safe-Rust implementation: a mutex-guarded deque with condvars for the
/// full/empty edges. The coarse lock is taken once per *batch* (hundreds
/// of events), so lock traffic is off the per-event hot path; the bound
/// provides backpressure — a slow shard stalls the document reader
/// instead of buffering the whole stream.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    state: Mutex<RingState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Occupancy and stall accounting; disabled handles make every
    /// recording call a no-op.
    telemetry: Telemetry,
}

#[derive(Debug)]
struct RingState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items, with no telemetry.
    #[cfg(test)]
    pub(crate) fn new(capacity: usize) -> Self {
        Ring::with_telemetry(capacity, Telemetry::disabled())
    }

    /// A ring holding at most `capacity` items that records occupancy and
    /// enqueue stalls into `telemetry`.
    pub(crate) fn with_telemetry(capacity: usize, telemetry: Telemetry) -> Self {
        Ring {
            state: Mutex::new(RingState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            telemetry,
        }
    }

    /// Enqueues `item`, blocking while the ring is full. Items pushed
    /// after [`Ring::close`] are dropped (the consumer is gone).
    pub(crate) fn push(&self, item: T) {
        let mut state = self.state.lock().expect("ring lock");
        if state.queue.len() >= self.capacity && !state.closed {
            // Backpressure engaged: the consumer shard is behind.
            let t_stall = self.telemetry.timer();
            self.telemetry.add(|r| &r.ring_enqueue_stalls, 1);
            while state.queue.len() >= self.capacity && !state.closed {
                state = self.not_full.wait(state).expect("ring lock");
            }
            self.telemetry.add_elapsed(|r| &r.ring_stall_ns, t_stall);
        }
        if !state.closed {
            state.queue.push_back(item);
            self.telemetry.add(|r| &r.ring_batches, 1);
            self.telemetry.gauge_set(|r| &r.ring_occupancy, state.queue.len() as u64);
            drop(state);
            self.not_empty.notify_one();
        }
    }

    /// Dequeues the next item, blocking while the ring is empty. Returns
    /// `None` once the ring is closed **and** drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock");
        loop {
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ring lock");
        }
    }

    /// Closes the ring: pending items remain poppable, further pushes are
    /// dropped, and a blocked consumer (or producer) wakes up.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("ring lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The session's group loan desk: every active plan group's exclusive
/// borrow, parked in a per-slot mutex between documents.
///
/// Workers take their assigned groups at every [`ShardEvent::DocStart`]
/// and put them back at every [`ShardEvent::DocEnd`] — *before* sending
/// the end-of-document acknowledgement, and the coordinator ships the
/// next document's `DocStart` only after collecting every
/// acknowledgement, so whenever a new assignment arrives the pool is
/// fully stocked and a group can migrate between workers without any
/// cross-worker handoff protocol. Machines reset at `DocStart`, so a
/// migrated group carries no document state. The per-document mutex
/// traffic is two uncontended locks per group — noise next to a
/// document's event volume.
pub(crate) struct GroupPool<'a> {
    /// Indexed by global group id; `None` for inactive slots and for
    /// groups currently out on loan.
    slots: Vec<Mutex<Option<&'a mut PlanGroup>>>,
}

impl<'a> GroupPool<'a> {
    /// A pool of `slots` empty slots; the session stocks it with the
    /// planner's active groups when it opens.
    pub(crate) fn vacant(slots: usize) -> Self {
        GroupPool { slots: (0..slots).map(|_| Mutex::new(None)).collect() }
    }

    /// Borrows group `gid` out of the pool. Panics if the group is
    /// absent — that would mean two workers believe they own the same
    /// gid, which the version-gated assignment protocol rules out.
    pub(crate) fn take(&self, gid: usize) -> &'a mut PlanGroup {
        self.slots[gid]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("group checked out twice — assignment shards overlap")
    }

    /// Returns group `gid` to the pool.
    pub(crate) fn put(&self, gid: usize, group: &'a mut PlanGroup) {
        let prev = self.slots[gid]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .replace(group);
        debug_assert!(prev.is_none(), "pool slot {gid} already occupied");
    }
}

/// One worker→document-thread report: the matches emitted while
/// processing a batch (often empty), the shard's new watermark, and — on
/// the report acknowledging a [`ShardEvent::DocEnd`] — per-group machine
/// statistics snapshots for output assembly.
#[derive(Debug)]
pub(crate) struct WorkerReport {
    pub(crate) shard: usize,
    pub(crate) matches: Vec<TaggedMatch>,
    pub(crate) through_seq: u64,
    pub(crate) doc_stats: Option<Vec<GroupSnapshot>>,
    /// The worker is unwinding from a panic. The document thread must
    /// stop feeding the session and re-raise (the scope join surfaces
    /// the original panic payload) instead of waiting on this shard.
    pub(crate) poisoned: bool,
}

/// End-of-document state of one plan group, reported by its worker:
/// machine statistics for [`crate::multi::MultiOutput::stats`] and the
/// group's resident bytes (stack capacity grows with the documents seen,
/// so plan-memory accounting must read the post-run value).
#[derive(Debug, Default)]
pub(crate) struct GroupSnapshot {
    pub(crate) gid: usize,
    pub(crate) stats: MachineStats,
    pub(crate) approx_bytes: u64,
    /// Sampled self-time (ns) this group's machines spent inside event
    /// handlers during the document. Timing-class: lives here rather than
    /// on [`MachineStats`] because the stats struct is asserted equal
    /// across shard configurations. Zero unless profiling is on.
    pub(crate) self_ns: u64,
    /// Payload bytes of the solutions the group emitted (see
    /// `Executor::emitted_bytes`). Zero unless profiling is on.
    pub(crate) emitted_bytes: u64,
}

/// The worker entry point: runs on its own thread for the lifetime of a
/// session, processing batches until the ring closes. The worker owns no
/// groups between documents — it borrows its assigned subset from `pool`
/// at every `DocStart` (in ascending group-id order, mirroring the
/// direct lane) and returns them at `DocEnd`. `nsymbols` sizes the local
/// dispatch index (the interner is frozen for the session); the trie
/// route table arrives inside the assignment.
/// Telemetry (batch timing, busy time, per-batch spans) records through
/// the handle the ring was built with. `fault` and `swap_fault` are the
/// test-only injection hooks: the worker panics when it applies the
/// event with that sequence number, or mid-adoption of a repartitioned
/// assignment.
///
/// A panicking worker must not take the session down with it: the
/// [`PoisonGuard`] closes the ring and sends a poisoned report during the
/// unwind (`std::thread::panicking()` is true even for a caught panic),
/// and catching the unwind here lets the thread return normally so the
/// session's scope join succeeds instead of re-raising. The document
/// thread turns the poisoned report into a clean [`EngineError::Worker`].
/// Groups the worker held when it panicked stay checked out — harmless,
/// because the poisoned session never starts another document.
///
/// [`EngineError::Worker`]: crate::error::EngineError::Worker
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker(
    shard: usize,
    pool: &GroupPool<'_>,
    nsymbols: usize,
    fault: Option<u64>,
    swap_fault: bool,
    profiled: bool,
    ring: Arc<Ring<SeqBatch>>,
    out: Sender<WorkerReport>,
) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(shard, pool, nsymbols, fault, swap_fault, profiled, &ring, &out);
    }));
    // The guard inside worker_loop already reported the poisoning.
    let _ = result;
}

/// Sequence number of a shard event (`None` for the un-sequenced
/// document-start marker).
fn event_seq(ev: &ShardEvent) -> Option<u64> {
    match ev {
        ShardEvent::DocStart { .. } => None,
        ShardEvent::Start { seq, .. }
        | ShardEvent::Text { seq, .. }
        | ShardEvent::End { seq, .. }
        | ShardEvent::DocEnd { seq } => Some(*seq),
    }
}

/// The worker-side emitter: tags a solution of local slot `li` with the
/// event's sequence number and the slot's global group id — the key the
/// watermark merge orders by.
fn tagger<'m>(
    matches: &'m mut Vec<TaggedMatch>,
    gids: &'m [usize],
    seq: u64,
) -> impl FnMut(u32, &[QueryId], Match) + 'm {
    move |li, _, m| matches.push(TaggedMatch { seq, gid: gids[li as usize] as u32, m })
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<'a>(
    shard: usize,
    pool: &GroupPool<'a>,
    nsymbols: usize,
    fault: Option<u64>,
    swap_fault: bool,
    profiled: bool,
    ring: &Arc<Ring<SeqBatch>>,
    out: &Sender<WorkerReport>,
) {
    // If this worker panics (a machine bug, or the injected fault), the
    // session must not hang: close our ring so a producer blocked in
    // `Ring::push` on it wakes up, and report the poisoning so the
    // document thread stops waiting for our DocEnd acknowledgement.
    let _poison_on_panic = PoisonGuard { shard, ring, out };
    let telemetry = ring.telemetry.clone();

    // The groups currently on loan from the pool (empty between
    // documents), slot `li` holding global group `assignment
    // .shard_gids[shard][li]` — ascending, so slot order is the
    // direct lane's visit order and match tags stay globally comparable.
    // The dispatch index (predicate and text interests by slot) and the
    // executor are assignment-dependent state, rebuilt when a DocStart
    // carries a version we have not adopted yet.
    let mut groups: Vec<&'a mut PlanGroup> = Vec::new();
    let mut current: Option<Arc<Assignment>> = None;
    let mut index = DispatchIndex::default();
    let mut exec = Executor::default();

    let mut matches: Vec<TaggedMatch> = Vec::new();
    let shard_tid = TID_SHARD_BASE + shard as u32;
    while let Some(batch) = ring.pop() {
        let t_batch = telemetry.timer();
        let mut doc_stats = None;
        for event in batch.events.iter() {
            if let Some(f) = fault {
                if event_seq(event) == Some(f) {
                    panic!("injected shard-worker fault at seq {f}");
                }
            }
            if let ShardEvent::DocStart { assignment } = event {
                debug_assert!(groups.is_empty(), "prior document returned its groups");
                let adopt = current.as_ref().is_none_or(|c| c.version != assignment.version);
                if adopt && swap_fault && current.is_some() {
                    // Injected fault: die mid-swap, after the old
                    // assignment retired but before the new one is
                    // adopted (the repartition hazard window).
                    panic!("injected shard-worker fault during assignment swap");
                }
                groups.extend(assignment.shard_gids[shard].iter().map(|&gid| pool.take(gid)));
                if adopt {
                    index = DispatchIndex::default();
                    exec = Executor::default();
                    for (li, group) in groups.iter().enumerate() {
                        index.add_group(li, group.machine().spec(), nsymbols);
                    }
                    exec.sample_self_time(profiled, groups.len());
                    current = Some(Arc::clone(assignment));
                }
                for group in groups.iter_mut() {
                    group.machine_mut().reset();
                }
                exec.begin_document();
                continue;
            }
            let assignment = current.as_ref().expect("a DocStart precedes every other event");
            let gids = &assignment.shard_gids[shard];
            match event {
                ShardEvent::DocStart { .. } => unreachable!("handled above"),
                ShardEvent::Start {
                    seq,
                    sym,
                    level,
                    attrs,
                    node_id,
                    attr_id_base,
                    span,
                    pushes,
                } => {
                    let tag = StartTag {
                        sym: *sym,
                        level: *level,
                        attributes: attrs,
                        node_id: *node_id,
                        attr_id_base: *attr_id_base,
                        span: *span,
                    };
                    let routes = &assignment.routes[shard];
                    let emit = tagger(&mut matches, gids, *seq);
                    exec.start(&mut groups, &index, routes, pushes, &tag, emit);
                }
                ShardEvent::Text { seq, text, level, node_id, span } => {
                    let emit = tagger(&mut matches, gids, *seq);
                    exec.text(&mut groups, text, *level, *node_id, *span, emit);
                }
                ShardEvent::End { seq, name, level, element_span } => {
                    let emit = tagger(&mut matches, gids, *seq);
                    exec.end(&mut groups, name, *level, *element_span, emit);
                }
                ShardEvent::DocEnd { .. } => {
                    doc_stats = Some(
                        gids.iter()
                            .zip(&groups)
                            .enumerate()
                            .map(|(li, (&gid, group))| GroupSnapshot {
                                gid,
                                stats: group.machine().stats().clone(),
                                approx_bytes: group.approx_bytes(),
                                self_ns: exec.self_ns(li),
                                emitted_bytes: exec.emitted_bytes(li),
                            })
                            .collect(),
                    );
                    // Return the loans before the acknowledgement goes
                    // out: once every shard has acknowledged, the
                    // coordinator may ship a new assignment, and any
                    // group may then belong to a different worker.
                    for (&gid, group) in gids.iter().zip(groups.drain(..)) {
                        pool.put(gid, group);
                    }
                }
            }
        }
        telemetry.add_elapsed(|r| &r.worker_busy_ns, t_batch);
        telemetry.record_span("batch", "shard", shard_tid, t_batch);
        let report = WorkerReport {
            shard,
            matches: std::mem::take(&mut matches),
            through_seq: batch.through,
            doc_stats,
            poisoned: false,
        };
        if out.send(report).is_err() {
            return; // session is gone; nothing left to report to
        }
    }
}

/// The worker's unwind guard (see [`run_worker`]). On a normal exit the
/// drop is a no-op.
struct PoisonGuard<'a> {
    shard: usize,
    ring: &'a Ring<SeqBatch>,
    out: &'a Sender<WorkerReport>,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ring.close();
            let _ = self.out.send(WorkerReport {
                shard: self.shard,
                matches: Vec::new(),
                through_seq: 0,
                doc_stats: None,
                poisoned: true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ring_is_fifo_and_close_drains() {
        let ring = Ring::new(4);
        ring.push(1);
        ring.push(2);
        ring.close();
        ring.push(3); // dropped: closed
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_occupancy_high_water_is_registry_lifetime_scoped() {
        // Pin the documented gauge scope: the occupancy high-water mark
        // accumulates for the life of the registry — it does NOT reset
        // between documents of a session (per-document peaks require
        // snapshot differencing). A future "reset per document" change
        // must flip this test deliberately.
        let telemetry = Telemetry::enabled();
        let ring = Ring::with_telemetry(4, telemetry.clone());
        ring.push(1);
        ring.push(2);
        ring.push(3);
        for _ in 0..3 {
            ring.pop();
        }
        // "Next document": shallower occupancy must not lower the peak.
        ring.push(4);
        let (value, high) = occupancy(&telemetry);
        assert_eq!(value, 1, "last recorded occupancy");
        assert_eq!(high, 3, "high-water spans the whole registry lifetime");

        fn occupancy(telemetry: &Telemetry) -> (u64, u64) {
            let snapshot = telemetry.snapshot().expect("telemetry enabled");
            let g = snapshot
                .gauges
                .iter()
                .find(|g| g.name == "vitex_ring_occupancy")
                .expect("occupancy gauge exported");
            (g.value, g.high)
        }
    }

    #[test]
    fn ring_bounds_apply_backpressure() {
        let ring = Arc::new(Ring::new(2));
        let popped = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let consumer = {
                let ring = Arc::clone(&ring);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    while ring.pop().is_some() {
                        popped.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            // 64 pushes through a capacity-2 ring must block-and-resume
            // rather than drop or reorder.
            for i in 0..64 {
                ring.push(i);
            }
            ring.close();
            consumer.join().unwrap();
        });
        assert_eq!(popped.load(Ordering::SeqCst), 64);
    }
}
