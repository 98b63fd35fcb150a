//! The TwigM machine: stacks, transitions, lazy candidate propagation.
//!
//! This is the runtime half of the paper's contribution. Each stacked
//! machine node owns a stack of `Entry` values — the paper's triplet
//! *(level, match status of query children, candidate solutions)*. The
//! transition functions below implement the `startElement` / `characters` /
//! `endElement` behaviour described in §3.2 of the paper:
//!
//! * **push** — an element is pushed onto every machine node whose name
//!   test it satisfies *and* whose axis is witnessed by the parent machine
//!   node's stack (child: an open entry exactly one level up; descendant:
//!   any open entry). Axis checks use the stack state *before* this
//!   element's own pushes, so an element can never serve as its own
//!   ancestor (relevant for queries like `//a//a`).
//! * **bookkeeping at pop** — when an element closes, its entries pop
//!   (innermost query nodes first). A satisfied *predicate* entry sets its
//!   match flag on **every** compatible parent entry — flags are single
//!   bits, so this eager fan-out is cheap and encodes what would otherwise
//!   be exponentially many match combinations. A satisfied *main-path*
//!   entry forwards its candidate solutions one query level up, attaching
//!   them to the **deepest** compatible parent entry; outer alternatives
//!   are preserved by a lazy *inheritance* rule (see below) instead of
//!   eager copying.
//! * **lazy inheritance** — a candidate records the lowest stack index it
//!   is compatible with (`low`). When the entry holding it pops, the
//!   candidate slides to the entry below (if still ≥ `low`) — its chances
//!   through outer ancestors stay alive without ever materializing the
//!   match combinations. When a satisfied entry *forwards* candidates, a
//!   copy also slides down, because chains through outer entries may
//!   succeed where the inner chain's continuation fails; a solution that
//!   reaches the root along several chains is reported exactly once.
//! * **emission** — candidates on a satisfied entry of the machine *root*
//!   are solutions (paper: "a node matching the root of TwigM ensures that
//!   the candidate solutions associated with it are indeed query
//!   solutions") and are handed to the caller's `emit` callback
//!   immediately — the only way a solution leaves: neither the machine
//!   nor anything between it and the API edge keeps a copy.
//!
//! ## Representation: instance, payload, store
//!
//! The transitions above move candidates far more often than they create
//! them (on the recursive benchmark document: 1 752 created, 103 416
//! moved), so what moves is as small as it can be:
//!
//! * an **instance** (`Cand`) is what sits in an entry's candidate list:
//!   8 bytes, `Copy` — the compatibility bound `low` and the handle of
//!   the solution it stands for. Down-copying, forwarding and inheriting
//!   are `memcpy`.
//! * a **payload** is the solution itself — kind, node id, span, level,
//!   name and value — stored **once**, however many instances stand for
//!   it, together with what the instances share: their count (the payload
//!   is freed with its last instance), the `emitted` bit (a second
//!   instance reaching the root is suppressed by looking at the payload,
//!   so the machine keeps no set of emitted node ids and nothing in it
//!   grows with the number of matches) and the merge stamp. A [`Match`]'s
//!   `Arc<str>`s are built from the payload when it is emitted, and only
//!   then.
//! * the [`CandidateStore`] holds payloads, candidate lists and string
//!   buffers (names, values, string-value accumulators) in three pools
//!   with free lists; entries hold `u32` handles into it. It belongs to
//!   **whoever drives machines** — one in [`crate::engine::Engine`], one
//!   in the multi-query executor — and is lent to
//!   every transition, so a thousand machines share one set of warm
//!   buffers, a warm transition allocates nothing, and a machine at rest
//!   is its spec plus empty stacks. The owner resets it once per document,
//!   next to [`TwigM::reset`]: a well-formed document hands every handle
//!   back, which makes that reset O(1); after an aborted document it
//!   reclaims what the abandoned entries still held.
//!
//! **Why hand-over preserves order and counters.** "The candidates slide
//! to the entry below" is, when the entry below holds none and every
//! candidate may slide (`max_low`, an upper bound on `low` over the list,
//! is below the popped index), the same as appending them one by one to an
//! empty list: same members, same order, none merged. So the list *handle*
//! moves, in O(1), and `candidates_inherited` grows by the list's length —
//! exactly what the walk would have counted. A list arriving at a
//! non-empty list is merged in one pass over both (`CandidateStore::arrive`):
//! arrivals append in their own order, and an arrival whose solution is
//! already there widens that instance's range instead — the outcome, and
//! hence the emission order, of the one-by-one walk. [`MachineStats`]
//! counts these *logical* operations, per instance and in the walk's
//! order, so its counters and peaks do not depend on which route a list
//! took.

use std::mem::size_of;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use vitex_xmlsax::event::Attribute;
use vitex_xmlsax::pos::ByteSpan;
use vitex_xpath::{Axis, CmpOp, Literal};

use crate::bitset::SmallBitSet;
use crate::builder::{EvalMode, MachineSpec};
use crate::intern::Symbol;
use crate::predicate;
use crate::result::{Match, MatchKind};
use crate::stats::MachineStats;

/// "No handle": an entry without candidates or without a text buffer, a
/// payload without a name or value.
const NONE: u32 = u32::MAX;

/// A stack entry: the paper's *(level, match flags, candidates)* triplet,
/// plus the parent-stack pointer that makes the compact encoding work.
#[derive(Debug, Clone)]
struct Entry {
    /// Depth of the open XML element this entry stands for.
    level: u32,
    /// Index of the top of the parent machine node's stack at push time:
    /// the deepest compatible ancestor. For descendant axes every entry at
    /// index ≤ `ptr` is compatible; for child axes exactly the entry at
    /// `ptr` is.
    ptr: u32,
    /// Document-order id of the element.
    node_id: u64,
    /// One bit per predicate child of the query node: has a complete match
    /// of that child subtree been bookkept onto this entry?
    flags: SmallBitSet,
    /// The candidate solutions currently waiting on this entry: a list in
    /// the store, [`NONE`] when there are none (a held list is never
    /// empty).
    cands: u32,
    /// Upper bound on `low` over `cands` (merges only ever lower a `low`).
    max_low: u32,
    /// Accumulated descendant text, a string in the store (only for
    /// predicate leaves carrying a value comparison; [`NONE`] otherwise).
    text: u32,
}

/// A candidate instance: one solution waiting on one stack entry.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Lowest index in the *current* stack this instance may slide down
    /// to (compatibility bound).
    low: u32,
    /// The solution it stands for.
    payload: u32,
}

const CAND_BYTES: u64 = size_of::<Cand>() as u64;

/// A candidate solution — what becomes a [`Match`] — and the state its
/// instances share.
#[derive(Debug)]
struct Payload {
    node: u64,
    span: ByteSpan,
    level: u32,
    /// Name and value strings in the store ([`NONE`] where the match has
    /// none).
    name: u32,
    value: u32,
    /// Live instances; the payload is freed with the last one.
    instances: u32,
    /// Merge epoch this payload was last seen in on the receiving side,
    /// and its position in that list.
    stamp: u32,
    pos: u32,
    kind: MatchKind,
    /// Already delivered: any further instance reaching the root is a
    /// duplicate.
    emitted: bool,
}

impl Default for Payload {
    fn default() -> Self {
        Payload {
            node: 0,
            span: ByteSpan::default(),
            level: 0,
            name: NONE,
            value: NONE,
            instances: 0,
            stamp: 0,
            pos: 0,
            kind: MatchKind::Element,
            emitted: false,
        }
    }
}

/// Recycled slots addressed by `u32` handles. A slot handed back keeps its
/// contents (and heap capacity) until it is taken again.
#[derive(Debug)]
struct Pool<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T: Default> Pool<T> {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(T::default());
            self.slots.len() as u32 - 1
        })
    }

    fn give(&mut self, handle: u32) {
        self.free.push(handle);
    }

    fn is_idle(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Reclaims every slot, lowest handle first out.
    fn reclaim(&mut self) {
        self.free.clear();
        self.free.extend((0..self.slots.len() as u32).rev());
    }
}

impl<T> Index<u32> for Pool<T> {
    type Output = T;
    fn index(&self, handle: u32) -> &T {
        &self.slots[handle as usize]
    }
}

impl<T> IndexMut<u32> for Pool<T> {
    fn index_mut(&mut self, handle: u32) -> &mut T {
        &mut self.slots[handle as usize]
    }
}

/// The run-time memory of TwigM machines: candidate payloads, candidate
/// lists and string buffers, pooled and recycled (see the module docs).
///
/// One store serves any number of machines, as long as they are driven
/// from one place: pass it to every transition of every one of them, and
/// call [`CandidateStore::reset`] wherever the machines are
/// [reset](TwigM::reset). [`crate::engine::Engine`] and the multi-query
/// engines own theirs; only callers of the raw [`TwigM`] make one.
#[derive(Debug, Default)]
pub struct CandidateStore {
    payloads: Pool<Payload>,
    lists: Pool<Vec<Cand>>,
    strings: Pool<String>,
    /// The current merge epoch: a payload stamped with it is in the list
    /// being merged into, at its recorded position.
    epoch: u32,
}

impl CandidateStore {
    /// An empty store.
    pub fn new() -> Self {
        CandidateStore::default()
    }

    /// Takes back everything lent out, keeping the buffers. After a
    /// well-formed document the machines have already returned it all and
    /// there is nothing to do; a document that ended mid-element leaves
    /// handles in abandoned stack entries, and those are reclaimed here.
    pub fn reset(&mut self) {
        if !self.is_idle() {
            self.payloads.reclaim();
            self.lists.reclaim();
            self.strings.reclaim();
        }
    }

    /// Whether nothing is lent out.
    pub(crate) fn is_idle(&self) -> bool {
        self.payloads.is_idle() && self.lists.is_idle() && self.strings.is_idle()
    }

    /// A pooled copy of `s`.
    fn string(&mut self, s: &str) -> u32 {
        let h = self.strings.take();
        let buf = &mut self.strings[h];
        buf.clear();
        buf.push_str(s);
        h
    }

    /// The pooled string `h`, or `""` for [`NONE`].
    fn str(&self, h: u32) -> &str {
        if h == NONE {
            ""
        } else {
            &self.strings[h]
        }
    }

    /// Stores a new solution, counts it, and returns its first instance.
    #[allow(clippy::too_many_arguments)]
    fn create(
        &mut self,
        stats: &mut MachineStats,
        low: u32,
        kind: MatchKind,
        node: u64,
        name: Option<&str>,
        span: ByteSpan,
        value: Option<&str>,
        level: u32,
    ) -> Cand {
        let name = name.map_or(NONE, |n| self.string(n));
        let value = value.map_or(NONE, |v| self.string(v));
        let payload = self.payloads.take();
        self.payloads[payload] =
            Payload { node, span, level, name, value, instances: 1, kind, ..Payload::default() };
        stats.on_candidate_created(CAND_BYTES + self.payload_bytes(payload));
        Cand { low, payload }
    }

    /// Bytes a payload accounts for beyond its instances.
    fn payload_bytes(&self, payload: u32) -> u64 {
        let p = &self.payloads[payload];
        (size_of::<Payload>() + self.str(p.name).len() + self.str(p.value).len()) as u64
    }

    /// Ends one instance's life and returns the bytes that go with it: its
    /// own, plus the payload's when it was the last.
    fn release(&mut self, c: Cand) -> u64 {
        let p = &mut self.payloads[c.payload];
        p.instances -= 1;
        if p.instances > 0 {
            return CAND_BYTES;
        }
        let bytes = CAND_BYTES + self.payload_bytes(c.payload);
        let p = &self.payloads[c.payload];
        for h in [p.name, p.value] {
            if h != NONE {
                self.strings.give(h);
            }
        }
        self.payloads.give(c.payload);
        bytes
    }

    /// The solution as the caller receives it.
    fn to_match(&self, payload: u32) -> Match {
        let p = &self.payloads[payload];
        let arc = |h: u32| (h != NONE).then(|| Arc::from(&*self.strings[h]));
        Match {
            kind: p.kind,
            node: p.node,
            name: arc(p.name),
            span: p.span,
            value: arc(p.value),
            level: p.level,
        }
    }

    /// Detaches `entry`'s list for a walk; [`CandidateStore::hand_over`]
    /// or [`CandidateStore::recycle`] ends it.
    fn detach(&mut self, entry: &Entry) -> Vec<Cand> {
        std::mem::take(&mut self.lists[entry.cands])
    }

    /// Gives the detached list of `from` to `to`, which holds none.
    fn hand_over(&mut self, from: &Entry, list: Vec<Cand>, to: &mut Entry, max_low: u32) {
        debug_assert!(to.cands == NONE && !list.is_empty());
        self.lists[from.cands] = list;
        to.cands = from.cands;
        to.max_low = max_low;
    }

    /// Returns the detached list of `from`, now walked, to the pool.
    fn recycle(&mut self, from: &Entry, list: Vec<Cand>) {
        self.lists[from.cands] = list;
        self.lists.give(from.cands);
    }

    /// One instance arrives at `entry`: it joins the list, or — when the
    /// list already holds an instance of the same solution — widens that
    /// one's range and is absorbed (`true`).
    ///
    /// `stamped` carries one merge across the arrivals of a walk: start it
    /// `false`. The first arrival that could be present at all (its
    /// solution has another instance somewhere — a freshly created one
    /// never does) stamps every payload in the list with a fresh epoch and
    /// its position, after which each lookup is one comparison; the
    /// arrivals of one walk are distinct solutions, so the stamps stay
    /// exact as the list grows.
    ///
    /// `c` is either an instance on the move — absorbed, it ends — or, with
    /// `copy`, a duplicate of one that stays where it is — unabsorbed, it
    /// becomes an instance of its own.
    fn arrive(&mut self, entry: &mut Entry, stamped: &mut bool, c: Cand, copy: bool) -> bool {
        if entry.cands == NONE {
            entry.cands = self.lists.take();
            self.lists[entry.cands].clear();
        } else if self.payloads[c.payload].instances > 1 {
            if !*stamped {
                *stamped = true;
                self.next_epoch();
                for (pos, held) in self.lists[entry.cands].iter().enumerate() {
                    let p = &mut self.payloads.slots[held.payload as usize];
                    (p.stamp, p.pos) = (self.epoch, pos as u32);
                }
            }
            let p = &mut self.payloads[c.payload];
            if p.stamp == self.epoch {
                p.instances -= u32::from(!copy);
                let held = &mut self.lists[entry.cands][p.pos as usize];
                held.low = held.low.min(c.low);
                return true;
            }
        }
        self.payloads[c.payload].instances += u32::from(copy);
        self.lists[entry.cands].push(c);
        entry.max_low = entry.max_low.max(c.low);
        false
    }

    /// Starts a merge epoch no payload is stamped with.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.payloads.slots.iter_mut().for_each(|p| p.stamp = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

fn entry_base_bytes(e: &Entry) -> u64 {
    size_of::<Entry>() as u64 + e.flags.heap_bytes() as u64
}

/// The TwigM machine.
///
/// Feed it SAX events ([`TwigM::start_element_interned`], [`TwigM::characters`],
/// [`TwigM::end_element`]), lending each call the [`CandidateStore`] its
/// run-time state lives in; solutions come out of the `emit` callback as
/// soon as they are decidable. [`crate::engine::Engine`] wires an
/// [`vitex_xmlsax::XmlReader`] to this interface.
#[derive(Debug)]
pub struct TwigM {
    spec: MachineSpec,
    mode: EvalMode,
    stacks: Vec<Vec<Entry>>,
    /// Reusable per-event push plan (machine node, parent-stack ptr).
    plan: Vec<(u32, u32)>,
    stats: MachineStats,
}

impl TwigM {
    /// Wraps an already-compiled spec.
    pub fn from_spec(spec: MachineSpec, mode: EvalMode) -> Self {
        let stacks = spec.nodes.iter().map(|_| Vec::new()).collect();
        TwigM { spec, mode, stacks, plan: Vec::new(), stats: MachineStats::default() }
    }

    /// The compiled layout.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Approximate resident bytes of the machine at rest: the compiled
    /// spec plus per-node stack headroom (run-time entry/candidate bytes
    /// are tracked live in [`MachineStats`]). The multi-query planner sums
    /// this across plan groups to report the build-memory effect of query
    /// sharing.
    pub fn approx_build_bytes(&self) -> u64 {
        let stacks: usize =
            self.stacks.iter().map(|s| s.capacity() * std::mem::size_of::<Entry>()).sum();
        self.spec.approx_bytes() + (stacks + self.plan.capacity() * 8) as u64
    }

    /// True when no entries are live (before a document and after a
    /// well-formed one).
    pub fn is_quiescent(&self) -> bool {
        self.stacks.iter().all(|s| s.is_empty())
    }

    /// Whether a `characters` event could move the machine right now: some
    /// text-watching, accumulating or text-result-parent node has an open
    /// entry. With none open [`TwigM::characters`] is a no-op, which is
    /// what lets the multi-query executor skip idle machines on text.
    pub(crate) fn text_live(&self) -> bool {
        let open = |&q: &usize| !self.stacks[q].is_empty();
        self.spec.text_watchers.iter().any(open)
            || self.spec.text_accumulators.iter().any(open)
            || self.spec.text_result_parent.as_ref().is_some_and(open)
    }

    /// A human-readable snapshot of every machine-node stack — the state
    /// the paper's demo visualizes ("TwigM changes its state according to
    /// the current state and the input event"). One line per stack entry
    /// (`store` is the one the transitions were lent):
    ///
    /// ```text
    /// [2] //table        L5 #4 flags 0/1 cands 1
    /// ```
    pub fn dump_state(&self, store: &CandidateStore) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (q, stack) in self.stacks.iter().enumerate() {
            let node = &self.spec.nodes[q];
            let axis = if node.axis == Axis::Descendant { "//" } else { "/" };
            let name = node.name.as_deref().unwrap_or("*");
            let _ = writeln!(
                out,
                "[{q}] {axis}{name}{} ({} entries)",
                if node.is_main { "" } else { " ?" },
                stack.len()
            );
            for e in stack {
                let _ = writeln!(
                    out,
                    "      L{} #{} ptr {} flags {}/{} cands {}",
                    e.level,
                    e.node_id,
                    e.ptr,
                    e.flags.count(),
                    node.nflags,
                    if e.cands == NONE { 0 } else { store.lists[e.cands].len() }
                );
            }
        }
        out
    }

    /// Clears all run state (stacks, statistics) so the machine can
    /// process another document. What the dropped entries held in the
    /// store is reclaimed by [`CandidateStore::reset`].
    pub fn reset(&mut self) {
        for s in &mut self.stacks {
            s.clear();
        }
        self.stats = MachineStats::default();
    }

    // ------------------------------------------------------------- //
    // Transitions
    // ------------------------------------------------------------- //

    /// `startElement`: push onto every machine node the element matches,
    /// found by integer-indexed lookup of the interned symbol the
    /// [`crate::driver::DocumentDriver`] resolved once per event.
    ///
    /// `node_id` is the element's document-order id; its attributes get ids
    /// `attr_id_base + i`. `tag_span` is the byte span of the start tag
    /// (used as the span of attribute matches). `sym` must come from
    /// the interner this machine's spec was compiled with (`None` means
    /// the name is not interned there — only wildcard nodes can match).
    #[allow(clippy::too_many_arguments)]
    pub fn start_element_interned(
        &mut self,
        store: &mut CandidateStore,
        sym: Option<Symbol>,
        level: u32,
        attributes: &[Attribute],
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let mut plan = std::mem::take(&mut self.plan);
        let named = sym.map(|s| self.spec.machines_for(s)).unwrap_or(&[]);
        self.plan_pushes(named, level, &mut plan);
        self.apply_pushes(store, &plan, level, attributes, node_id, attr_id_base, tag_span, emit);
        self.plan = plan;
    }

    /// Phase 1 of `startElement`: plan all pushes for the `named` and
    /// wildcard machine nodes against the pre-event stack state — every
    /// push is decided before any is applied.
    fn plan_pushes(&self, named: &[usize], level: u32, plan: &mut Vec<(u32, u32)>) {
        plan.clear();
        for &q in named.iter().chain(&self.spec.wildcards) {
            if let Some(ptr) = self.push_point(q, level) {
                plan.push((q as u32, ptr));
            }
        }
    }

    /// `startElement` for a plan group's machine: the **main-path**
    /// push decisions arrive pre-computed from the shared plan trie
    /// (`main_plan`, `(machine node, ptr)` pairs in ascending node order —
    /// the trie's stacks mirror this machine's main-path stacks exactly,
    /// so the decisions are the ones [`TwigM::plan_pushes`] would have
    /// made), and only the predicate-subtree nodes are planned here, when
    /// `plan_preds` says this machine has predicate steps testing the
    /// event's name (or a predicate wildcard). Both plans are merged and
    /// applied through the same [`TwigM::apply_pushes`] as the
    /// single-query entry point, so the transition semantics — flags,
    /// candidates, early emission, statistics — cannot diverge between a
    /// private engine and a plan group.
    ///
    /// Returns the number of entries pushed, which is what the engine's
    /// frame stack uses to touch, at the matching end tag, exactly the
    /// machines that have something to pop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_element_prefix(
        &mut self,
        store: &mut CandidateStore,
        main_plan: &[(u32, u32)],
        plan_preds: bool,
        sym: Option<Symbol>,
        level: u32,
        attributes: &[Attribute],
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) -> u32 {
        #[cfg(debug_assertions)]
        for &(q, ptr) in main_plan {
            debug_assert!(self.spec.nodes[q as usize].is_main, "trie drives main nodes only");
            debug_assert_eq!(
                self.push_point(q as usize, level),
                Some(ptr),
                "trie push decision must equal the machine's own"
            );
        }
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        plan.extend_from_slice(main_plan);
        if plan_preds {
            let named = sym.map(|s| self.spec.machines_for(s)).unwrap_or(&[]);
            for &q in named
                .iter()
                .filter(|&&q| !self.spec.nodes[q].is_main)
                .chain(&self.spec.pred_wildcards)
            {
                if let Some(ptr) = self.push_point(q, level) {
                    plan.push((q as u32, ptr));
                }
            }
            // Planning happened against pre-event state, so ordering the
            // merged plan by node index is purely cosmetic determinism.
            plan.sort_unstable_by_key(|&(q, _)| q);
        }
        let pushes = plan.len() as u32;
        self.apply_pushes(store, &plan, level, attributes, node_id, attr_id_base, tag_span, emit);
        self.plan = plan;
        pushes
    }

    /// Phase 2 of `startElement`: apply a planned set of pushes.
    #[allow(clippy::too_many_arguments)]
    fn apply_pushes(
        &mut self,
        store: &mut CandidateStore,
        plan: &[(u32, u32)],
        level: u32,
        attributes: &[Attribute],
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        if !plan.is_empty() {
            self.stats.dispatch_hits += 1;
        }
        for &(q, ptr) in plan {
            self.push_entry(
                store,
                q as usize,
                ptr,
                level,
                attributes,
                node_id,
                attr_id_base,
                tag_span,
                emit,
            );
        }
    }

    /// Where would machine node `q` attach for an element at `level`?
    fn push_point(&self, q: usize, level: u32) -> Option<u32> {
        let node = &self.spec.nodes[q];
        match node.parent {
            None => match node.axis {
                Axis::Child if level != 1 => None,
                _ => Some(0), // ptr unused at the root
            },
            Some(p) => {
                let stack = &self.stacks[p];
                match node.axis {
                    Axis::Child => match stack.last() {
                        Some(top) if top.level + 1 == level => Some(stack.len() as u32 - 1),
                        _ => None,
                    },
                    Axis::Descendant => {
                        if stack.is_empty() {
                            None
                        } else {
                            Some(stack.len() as u32 - 1)
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_entry(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        ptr: u32,
        level: u32,
        attributes: &[Attribute],
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let Self { spec, stacks, stats, .. } = self;
        let node = &spec.nodes[q];
        let own_index = stacks[q].len() as u32;
        let mut flags = SmallBitSet::empty(node.nflags as usize);
        // Inline attribute predicates are decidable right now.
        for ap in &node.attr_preds {
            stats.predicate_evals += 1;
            let hit = attributes.iter().any(|a| {
                attr_name_matches(ap.name.as_deref(), a.name.as_str())
                    && cmp_opt(&ap.comparison, &a.value)
            });
            if hit {
                flags.set(ap.slot.expect("predicate tests carry slots") as usize);
                stats.flag_propagations += 1;
            }
        }
        let mut entry = Entry { level, ptr, node_id, flags, cands: NONE, max_low: 0, text: NONE };
        // Attribute-result candidates are born here, waiting on this entry.
        if let Some(ar) = &node.attr_result {
            for (i, a) in attributes.iter().enumerate() {
                if attr_name_matches(ar.name.as_deref(), a.name.as_str())
                    && cmp_opt(&ar.comparison, &a.value)
                {
                    let c = store.create(
                        stats,
                        own_index,
                        MatchKind::Attribute,
                        attr_id_base + i as u64,
                        Some(a.name.as_str()),
                        tag_span,
                        Some(a.value.as_str()),
                        level,
                    );
                    store.arrive(&mut entry, &mut false, c, false);
                }
            }
        }
        // Early emission: if this is the machine root and its predicates
        // are already satisfied (e.g. it has none), any candidate born here
        // is a solution *now* — deliver it instead of buffering it until
        // the root element closes. This is what makes queries like
        // `//site/people/person/@id` stream with O(1) candidate memory.
        if node.is_root && entry.cands != NONE && entry.flags.all_set(node.nflags as usize) {
            let born = store.detach(&entry);
            for &c in &born {
                emit_candidate(stats, store, c, emit);
            }
            store.recycle(&entry, born);
            (entry.cands, entry.max_low) = (NONE, 0);
        }
        if node.needs_text {
            entry.text = store.string("");
        }
        stats.on_push(entry_base_bytes(&entry));
        stacks[q].push(entry);
    }

    /// `characters`: text predicates, string-value accumulation, text
    /// result candidates. `level` is the depth of the text's parent
    /// element.
    pub fn characters(
        &mut self,
        store: &mut CandidateStore,
        text: &str,
        level: u32,
        node_id: u64,
        span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let Self { spec, stacks, stats, .. } = self;
        // Text predicates of elements whose entry is the direct parent.
        for &q in &spec.text_watchers {
            if let Some(top) = stacks[q].last_mut() {
                if top.level == level {
                    for tp in &spec.nodes[q].text_preds {
                        stats.predicate_evals += 1;
                        let slot = tp.slot.expect("predicate tests carry slots") as usize;
                        if !top.flags.get(slot) && cmp_opt(&tp.comparison, text) {
                            top.flags.set(slot);
                            stats.flag_propagations += 1;
                        }
                    }
                }
            }
        }
        // String-value accumulation: text belongs to the subtree of every
        // open entry of an accumulating node.
        for &q in &spec.text_accumulators {
            for e in &stacks[q] {
                debug_assert!(e.text != NONE, "accumulators carry buffers");
                store.strings[e.text].push_str(text);
            }
            stats.add_bytes(stacks[q].len() as u64 * text.len() as u64);
        }
        // Text-result candidates.
        if let Some(p) = spec.text_result_parent {
            let pnode = &spec.nodes[p];
            let own_index = stacks[p].len().wrapping_sub(1) as u32;
            if let Some(top) = stacks[p].last_mut().filter(|top| top.level == level) {
                let c = store.create(
                    stats,
                    own_index,
                    MatchKind::Text,
                    node_id,
                    None,
                    span,
                    Some(text),
                    level,
                );
                if pnode.is_root && top.flags.all_set(pnode.nflags as usize) {
                    emit_candidate(stats, store, c, emit); // early emission (see push_entry)
                } else {
                    store.arrive(top, &mut false, c, false);
                }
            }
        }
    }

    /// `endElement`: pop every machine node whose top entry belongs to the
    /// closing element, innermost query nodes first, bookkeeping flags and
    /// candidates into parents. Solutions reaching the machine root are
    /// handed to `emit`.
    pub fn end_element(
        &mut self,
        store: &mut CandidateStore,
        name: &str,
        level: u32,
        element_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        // Reverse id order = children before parents (the builder lays
        // parents out first).
        for q in (0..self.spec.nodes.len()).rev() {
            let needs_pop = matches!(self.stacks[q].last(), Some(top) if top.level == level);
            if needs_pop {
                self.pop_entry(store, q, name, element_span, emit);
            }
        }
    }

    fn pop_entry(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        name: &str,
        element_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let Self { spec, mode, stacks, stats, .. } = self;
        let idx = stacks[q].len() - 1;
        let mut e = stacks[q].pop().expect("checked by caller");
        let node = &spec.nodes[q];
        let base = entry_base_bytes(&e);

        let preds_ok = e.flags.all_set(node.nflags as usize);
        let cmp_ok = match &node.comparison {
            None => true,
            Some((op, lit)) => {
                stats.predicate_evals += 1;
                predicate::compare(store.str(e.text), *op, lit)
            }
        };
        let satisfied = preds_ok && cmp_ok;
        // Release the entry's byte accounting now; candidate bytes travel
        // with the candidates.
        if e.text != NONE {
            stats.sub_bytes(store.strings[e.text].len() as u64);
            store.strings.give(e.text);
        }

        if !node.is_main {
            // Predicate node: propagate the match flag; no candidates live
            // here.
            debug_assert!(e.cands == NONE, "predicate entries never hold candidates");
            if satisfied {
                let slot = node.flag_slot.expect("predicate nodes have slots") as usize;
                let p = node.parent.expect("predicate nodes have parents");
                match node.axis {
                    Axis::Child => {
                        set_flag(stats, &mut stacks[p][e.ptr as usize], slot);
                    }
                    Axis::Descendant => {
                        for t in &mut stacks[p][..=e.ptr as usize] {
                            set_flag(stats, t, slot);
                        }
                    }
                }
            }
            stats.on_pop(base);
            return;
        }

        // Main-path node. A satisfied result entry is itself a candidate.
        if node.is_result && satisfied {
            let c = store.create(
                stats,
                idx as u32,
                MatchKind::Element,
                e.node_id,
                Some(name),
                element_span,
                None,
                e.level,
            );
            store.arrive(&mut e, &mut false, c, false);
        }
        stats.on_pop(base);
        if e.cands == NONE {
            return;
        }
        let idx = idx as u32;
        let mut cands = store.detach(&e);

        if satisfied && node.is_root {
            // Solutions! Emit immediately (the paper's incremental
            // delivery); an instance of a solution already delivered is
            // suppressed.
            for &c in &cands {
                emit_candidate(stats, store, c, emit);
            }
        } else if satisfied {
            let p = node.parent.expect("non-root nodes have parents");
            let pn = &spec.nodes[p];
            // If the forwarding target is the machine root with all its
            // predicates already satisfied, the candidates are solutions
            // right now — deliver instead of buffering (down-copies would
            // only ever produce duplicates, so they are skipped too).
            if pn.is_root && stacks[p][e.ptr as usize].flags.all_set(pn.nflags as usize) {
                for &c in &cands {
                    stats.candidates_forwarded += 1;
                    emit_candidate(stats, store, c, emit);
                }
            } else if *mode == EvalMode::Compact {
                // Outer entries of *this* stack are alternative attachment
                // points whose upward chains may succeed where this one's
                // fails: copy candidates down (lazy inheritance keeps them
                // moving).
                if idx > 0 {
                    let below = &mut stacks[q][idx as usize - 1];
                    let mut stamped = false;
                    for &c in cands.iter().filter(|c| c.low < idx) {
                        stats.on_candidate_copied(CAND_BYTES);
                        if store.arrive(below, &mut stamped, c, true) {
                            stats.on_candidate_merged(CAND_BYTES);
                        }
                    }
                }
                // Forward originals to the deepest compatible parent
                // entry.
                let new_low = match node.axis {
                    Axis::Child => e.ptr,
                    Axis::Descendant => 0,
                };
                stats.candidates_forwarded += cands.len() as u64;
                cands.iter_mut().for_each(|c| c.low = new_low);
                let target = &mut stacks[p][e.ptr as usize];
                if target.cands == NONE {
                    store.hand_over(&e, cands, target, new_low);
                    return;
                }
                let mut stamped = false;
                for &c in &cands {
                    if store.arrive(target, &mut stamped, c, false) {
                        stats.on_candidate_merged(CAND_BYTES);
                    }
                }
            } else {
                // Strawman: a copy to every compatible parent entry below
                // the deepest, which the original moves to.
                let (lo, ptr) = match node.axis {
                    Axis::Child => (e.ptr, e.ptr),
                    Axis::Descendant => (0, e.ptr),
                };
                for &c in &cands {
                    for low in lo..=ptr {
                        let copy = low < ptr;
                        if copy {
                            stats.on_candidate_copied(CAND_BYTES);
                        } else {
                            stats.candidates_forwarded += 1;
                        }
                        let target = &mut stacks[p][low as usize];
                        if store.arrive(target, &mut false, Cand { low, ..c }, copy) {
                            stats.on_candidate_merged(CAND_BYTES);
                        }
                    }
                }
            }
        } else if idx > 0 {
            // Entry died: candidates slide down to the next compatible
            // entry of the same stack, or are discarded at their bound.
            let below = stacks[q].last_mut().expect("idx > 0 means a lower entry exists");
            if below.cands == NONE && e.max_low < idx {
                // All of them slide, onto nothing: the list itself moves.
                stats.candidates_inherited += cands.len() as u64;
                store.hand_over(&e, cands, below, e.max_low);
                return;
            }
            let mut stamped = false;
            for &c in &cands {
                if c.low >= idx {
                    stats.on_candidate_dropped(store.release(c));
                    continue;
                }
                stats.candidates_inherited += 1;
                if store.arrive(below, &mut stamped, c, false) {
                    stats.on_candidate_merged(CAND_BYTES);
                }
            }
        } else {
            for &c in &cands {
                stats.on_candidate_dropped(store.release(c));
            }
        }
        store.recycle(&e, cands);
    }
}

/// Delivers one candidate as a solution, suppressing an instance of a
/// solution already delivered so every solution is reported exactly once.
fn emit_candidate(
    stats: &mut MachineStats,
    store: &mut CandidateStore,
    c: Cand,
    emit: &mut dyn FnMut(Match),
) {
    if std::mem::replace(&mut store.payloads[c.payload].emitted, true) {
        stats.on_candidate_suppressed(store.release(c));
        return;
    }
    let hit = store.to_match(c.payload);
    stats.on_candidate_emitted(store.release(c));
    emit(hit);
}

/// Sets a flag bit, counting only actual transitions.
fn set_flag(stats: &mut MachineStats, entry: &mut Entry, slot: usize) {
    if !entry.flags.get(slot) {
        entry.flags.set(slot);
        stats.flag_propagations += 1;
    }
}

/// Does an attribute name test (None = `@*`) match a concrete name?
fn attr_name_matches(test: Option<&str>, name: &str) -> bool {
    test.is_none_or(|t| t == name)
}

/// Optional comparison: `None` is existence (always true).
fn cmp_opt(comparison: &Option<(CmpOp, Literal)>, value: &str) -> bool {
    match comparison {
        None => true,
        Some((op, lit)) => predicate::compare(value, *op, lit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Interner;
    use vitex_xpath::query_tree::QueryTree;

    /// Drives the machine over a tiny hand-rolled event stream.
    struct Driver {
        machine: TwigM,
        store: CandidateStore,
        interner: Interner,
        level: u32,
        next_id: u64,
        offset: u64,
        matches: Vec<Match>,
    }

    impl Driver {
        fn new(query: &str) -> Self {
            Driver::with_mode(query, EvalMode::Compact)
        }

        fn with_mode(query: &str, mode: EvalMode) -> Self {
            let tree = QueryTree::parse(query).unwrap();
            let mut interner = Interner::new();
            let spec = MachineSpec::compile_with(&tree, &mut interner).unwrap();
            Driver {
                machine: TwigM::from_spec(spec, mode),
                store: CandidateStore::new(),
                interner,
                level: 0,
                next_id: 0,
                offset: 0,
                matches: Vec::new(),
            }
        }

        fn open(&mut self, name: &str) -> &mut Self {
            self.open_attrs(name, &[])
        }

        fn open_attrs(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
            self.level += 1;
            let id = self.next_id;
            self.next_id += 1 + attrs.len() as u64;
            let attrs: Vec<Attribute> = attrs.iter().map(|(n, v)| Attribute::new(*n, *v)).collect();
            let span = ByteSpan::new(self.offset, self.offset + 1);
            self.offset += 1;
            let matches = &mut self.matches;
            let sym = self.interner.lookup(name);
            self.machine.start_element_interned(
                &mut self.store,
                sym,
                self.level,
                &attrs,
                id,
                id + 1,
                span,
                &mut |m| matches.push(m),
            );
            self
        }

        fn text(&mut self, t: &str) -> &mut Self {
            let id = self.next_id;
            self.next_id += 1;
            let span = ByteSpan::new(self.offset, self.offset + t.len() as u64);
            self.offset += t.len() as u64;
            let matches = &mut self.matches;
            self.machine
                .characters(&mut self.store, t, self.level, id, span, &mut |m| matches.push(m));
            self
        }

        fn close(&mut self, name: &str) -> &mut Self {
            let span = ByteSpan::new(0, self.offset);
            let level = self.level;
            let matches = &mut self.matches;
            self.machine.end_element(&mut self.store, name, level, span, &mut |m| matches.push(m));
            self.level -= 1;
            self
        }

        fn leaf(&mut self, name: &str) -> &mut Self {
            self.open(name).close(name)
        }

        fn names(&self) -> Vec<u64> {
            self.matches.iter().map(|m| m.node).collect()
        }
    }

    #[test]
    fn single_step_matches_all() {
        let mut d = Driver::new("//a");
        d.open("a").leaf("a").close("a");
        assert_eq!(d.matches.len(), 2);
        assert!(d.machine.is_quiescent());
    }

    #[test]
    fn child_axis_from_root() {
        let mut d = Driver::new("/a");
        d.open("a").leaf("a").close("a"); // inner a must not match
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 0);
    }

    #[test]
    fn root_name_mismatch_matches_nothing() {
        let mut d = Driver::new("/b");
        d.open("a").leaf("b").close("a"); // b is not the root element
        assert!(d.matches.is_empty());
    }

    #[test]
    fn descendant_chain() {
        let mut d = Driver::new("//a//b");
        d.open("a").open("x").open("b").leaf("b").close("b").close("x").close("a");
        assert_eq!(d.matches.len(), 2);
    }

    #[test]
    fn child_chain_requires_direct_parent() {
        let mut d = Driver::new("//a/b");
        d.open("a").open("x").leaf("b").close("x").leaf("b").close("a");
        // Only the second b (direct child of a) matches.
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn predicate_satisfied_later_in_stream() {
        // The paper's core scenario: the predicate witness (author) arrives
        // after the candidate (cell).
        let mut d = Driver::new("//section[author]//cell");
        d.open("section").leaf("cell").leaf("author").close("section");
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn predicate_never_satisfied_discards() {
        let mut d = Driver::new("//section[author]//cell");
        d.open("section").leaf("cell").close("section");
        assert!(d.matches.is_empty());
        assert_eq!(d.machine.stats().candidates_discarded, 1);
    }

    #[test]
    fn paper_figure_1_single_solution() {
        // Query Q over the Figure 1 document: only cell_8 qualifies, via
        // (section_2, table_7, cell_8).
        let mut d = Driver::new("//section[author]//table[position]//cell");
        d.open("book");
        d.open("section"); // line 2 — has author
        d.open("section"); // line 3
        d.open("section"); // line 4
        d.open("table"); // line 5
        d.open("table"); // line 6
        d.open("table"); // line 7 — has position
        d.open("cell").text("A").close("cell"); // line 8
        d.close("table"); // 9
        d.close("table"); // 10
        d.open("position").text("B").close("position"); // 11
        d.close("table"); // 12
        d.close("section"); // 13
        d.close("section"); // 14
        d.open("author").text("C").close("author"); // 15
        d.close("section"); // 16
        d.close("book"); // 17
        assert_eq!(d.matches.len(), 1, "exactly one solution: cell_8");
        assert_eq!(d.matches[0].name.as_deref(), Some("cell"));
        assert!(d.machine.is_quiescent());
        // The machine saw the 3 candidate paths die for table_7/table_6
        // and succeed for table_5... in the compact encoding this shows up
        // as bookkeeping, not as 9 stored matches.
        assert!(d.machine.stats().peak_candidates <= 4);
    }

    #[test]
    fn alternative_outer_chain_survives_inner_failure() {
        // Regression test for the subtle completeness case behind the
        // module doc's lazy-inheritance rule: an inner satisfied step whose
        // own parent fails must not steal the candidate from a viable outer
        // chain.
        //
        // Query: //a[p]/b[q]//c over:
        //   <a> <p/> <b> <a> <b> <q/> <c/> </b> </a> <q/> </b> </a>
        // The only witness chain is (outer a, outer b, c): inner b is
        // satisfied (has q) but its parent a has no p.
        let mut d = Driver::new("//a[p]/b[q]//c");
        d.open("a");
        d.leaf("p");
        d.open("b");
        d.open("a");
        d.open("b");
        d.leaf("q");
        d.leaf("c");
        d.close("b");
        d.close("a");
        d.leaf("q");
        d.close("b");
        d.close("a");
        assert_eq!(d.matches.len(), 1, "the outer chain must witness c");
    }

    #[test]
    fn no_duplicate_emission_when_both_chains_succeed() {
        // Same shape, but both chains are fully satisfied: c must still be
        // reported exactly once.
        let mut d = Driver::new("//a[p]/b[q]//c");
        d.open("a");
        d.leaf("p");
        d.open("b");
        d.open("a");
        d.leaf("p");
        d.open("b");
        d.leaf("q");
        d.leaf("c");
        d.close("b");
        d.close("a");
        d.leaf("q");
        d.close("b");
        d.close("a");
        assert_eq!(d.matches.len(), 1, "exactly-once emission");
    }

    #[test]
    fn recursive_self_query() {
        // //a//a: an element must not act as its own ancestor.
        let mut d = Driver::new("//a//a");
        d.open("a").close("a");
        assert!(d.matches.is_empty(), "a single a has no a ancestor");
        let mut d = Driver::new("//a//a");
        d.open("a").leaf("a").close("a");
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn attribute_predicates() {
        let mut d = Driver::new("//a[@id = 'x']");
        d.open_attrs("a", &[("id", "x")]).close("a");
        d.open_attrs("a", &[("id", "y")]).close("a");
        d.open("a").close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 0);
    }

    #[test]
    fn attribute_results() {
        let mut d = Driver::new("//a/@id");
        d.open_attrs("a", &[("id", "x"), ("k", "z")]).close("a");
        assert_eq!(d.matches.len(), 1);
        let m = &d.matches[0];
        assert_eq!(m.kind, MatchKind::Attribute);
        assert_eq!(m.name.as_deref(), Some("id"));
        assert_eq!(m.value.as_deref(), Some("x"));
    }

    #[test]
    fn attribute_wildcard_results() {
        let mut d = Driver::new("//a/@*");
        d.open_attrs("a", &[("id", "x"), ("k", "z")]).close("a");
        assert_eq!(d.matches.len(), 2);
    }

    #[test]
    fn attribute_result_waits_for_predicates() {
        let mut d = Driver::new("//a[b]/@id");
        d.open_attrs("a", &[("id", "x")]).leaf("b").close("a");
        d.open_attrs("a", &[("id", "y")]).close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].value.as_deref(), Some("x"));
    }

    #[test]
    fn text_predicates() {
        let mut d = Driver::new("//a[text() = 'v']");
        d.open("a").text("v").close("a");
        d.open("a").text("w").close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 0);
    }

    #[test]
    fn text_results() {
        let mut d = Driver::new("//a/text()");
        d.open("a").text("hello").close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].value.as_deref(), Some("hello"));
        assert_eq!(d.matches[0].kind, MatchKind::Text);
    }

    #[test]
    fn text_result_only_direct_children() {
        let mut d = Driver::new("//a/text()");
        d.open("a").open("b").text("inner").close("b").text("direct").close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].value.as_deref(), Some("direct"));
    }

    #[test]
    fn string_value_comparison_accumulates_descendant_text() {
        // [b = 'xy'] where b's text is split across a child element.
        let mut d = Driver::new("//a[b = 'xy']");
        d.open("a").open("b").text("x").open("c").text("y").close("c").close("b").close("a");
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn numeric_comparison() {
        let mut d = Driver::new("//book[year > 1999]");
        d.open("book").open("year").text("2003").close("year").close("book");
        d.open("book").open("year").text("1995").close("year").close("book");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 0);
    }

    #[test]
    fn wildcard_steps() {
        let mut d = Driver::new("//*/b");
        d.open("x").leaf("b").close("x");
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn conjunctive_predicates() {
        let mut d = Driver::new("//a[b and c]");
        d.open("a").leaf("b").close("a");
        d.open("a").leaf("b").leaf("c").close("a");
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 2);
    }

    #[test]
    fn nested_predicates() {
        let mut d = Driver::new("//a[b[c]]");
        d.open("a").open("b").leaf("c").close("b").close("a"); // match
        d.open("a").leaf("b").leaf("c").close("a"); // c not under b
        assert_eq!(d.matches.len(), 1);
        assert_eq!(d.matches[0].node, 0);
    }

    #[test]
    fn eager_mode_agrees_with_compact() {
        for mode in [EvalMode::Compact, EvalMode::Eager] {
            let mut d = Driver::with_mode("//a[p]/b[q]//c", mode);
            d.open("a");
            d.leaf("p");
            d.open("b");
            d.open("a");
            d.leaf("p");
            d.open("b");
            d.leaf("q");
            d.leaf("c");
            d.close("b");
            d.close("a");
            d.leaf("q");
            d.close("b");
            d.close("a");
            assert_eq!(d.matches.len(), 1, "mode {mode:?}");
        }
    }

    #[test]
    fn text_live_is_false_only_where_characters_is_a_no_op() {
        // A text-predicate watcher, a string-value accumulator and a
        // text-result parent: each reads text exactly while `<a>` is open.
        for query in ["//a[text() = 'x']", "//r[a = 'x']", "//a/text()"] {
            let mut d = Driver::new(query);
            assert!(!d.machine.text_live(), "{query}: before the document");
            d.open("r");
            assert!(!d.machine.text_live(), "{query}: <r> reads no text");
            let idle = (d.machine.stats().clone(), d.machine.dump_state(&d.store));
            d.text("x");
            assert_eq!(
                (d.machine.stats().clone(), d.machine.dump_state(&d.store)),
                idle,
                "{query}"
            );
            d.open("a").open("c");
            assert!(d.machine.text_live(), "{query}: <a> is open above <c>");
            d.close("c").text("x").close("a");
            assert!(!d.machine.text_live(), "{query}: <a> closed");
            d.close("r");
            assert_eq!(d.matches.len(), 1, "{query}");
        }
    }

    #[test]
    fn the_moving_parts_are_small() {
        assert_eq!(size_of::<Cand>(), 8);
        assert!(size_of::<Entry>() <= 48, "{}", size_of::<Entry>());
        assert!(size_of::<Payload>() <= 56, "{}", size_of::<Payload>());
    }

    #[test]
    fn a_well_formed_document_returns_every_handle_and_reset_reclaims_an_aborted_one() {
        // Candidates, down-copies, a string-value accumulator and text
        // results: every kind of handle is out at some point.
        let mut d = Driver::new("//a[b = 'x']//c/text()");
        d.open("a").open("a").open("c").text("t").close("c");
        assert!(!d.store.is_idle(), "candidates are waiting on <a>");
        d.open("b").text("x").close("b").close("a").close("a");
        assert_eq!(d.matches.len(), 1);
        assert!(d.store.is_idle(), "nothing left to reset after a well-formed document");

        d.open("a").open("c").text("t").close("c").open("b").text("x");
        assert!(!d.store.is_idle());
        d.machine.reset();
        d.store.reset();
        assert!(d.store.is_idle() && d.machine.is_quiescent());
    }

    #[test]
    fn merge_stamps_survive_epoch_wrap_around() {
        // Two towers of the benchmark's recursive shape: every tower merges
        // down-copies into lists that already hold the same solutions,
        // which takes a stamping pass per merge. Started two epochs short
        // of the wrap, the run crosses it; a stale stamp surviving the
        // wrap would merge the wrong pair (or none) and move the counters.
        let run = |epoch: u32| {
            let mut d = Driver::new("//*[author]//*[position]//*");
            d.store.epoch = epoch;
            d.open("book");
            for _ in 0..2 {
                d.open("section").open("section").open("table").open("table").leaf("cell");
                d.leaf("position").close("table").leaf("position").close("table");
                d.close("section").leaf("author").close("section");
            }
            d.close("book");
            (d.matches.clone(), d.machine.stats().clone(), d.store.epoch)
        };
        let (matches, stats, epochs) = run(0);
        assert!(stats.candidates_merged >= 2 && epochs >= 2, "{stats:?}, {epochs} epochs");
        let wrapped = run(u32::MAX - 1);
        assert_eq!((&wrapped.0, &wrapped.1), (&matches, &stats));
        assert_eq!(wrapped.2, epochs - 1, "one epoch before the wrap, the rest after it");
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Driver::new("//a");
        d.open("a").close("a");
        assert_eq!(d.machine.stats().emitted, 1);
        d.machine.reset();
        assert_eq!(d.machine.stats().emitted, 0);
        assert!(d.machine.is_quiescent());
    }

    #[test]
    fn stats_balance() {
        let mut d = Driver::new("//section[author]//table[position]//cell");
        d.open("book");
        for _ in 0..3 {
            d.open("section");
        }
        d.open("table").leaf("cell").leaf("position").close("table");
        d.leaf("author");
        for _ in 0..3 {
            d.close("section");
        }
        d.close("book");
        let s = d.machine.stats();
        assert_eq!(s.pushes, s.pops);
        assert_eq!(s.live_entries, 0);
        assert_eq!(s.live_candidates, 0);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn document_ids_round_trip() {
        let mut d = Driver::new("//b");
        d.open("a").leaf("b").leaf("c").leaf("b").close("a");
        assert_eq!(d.names(), vec![1, 3]);
    }
}
