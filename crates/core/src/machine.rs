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
//!   grows with the number of matches) and the merge stamp. An emitted
//!   solution reaches the caller as a [`MatchRef`] that borrows its name
//!   and value from the store's string pool for the length of the
//!   callback: the machine builds no owned string, and an owned
//!   [`crate::Match`] is made at the API edge, by the adapter that keeps
//!   one.
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
//!
//! ## Bindings: one machine for many literals
//!
//! A query's *parametric leaf* ([`vitex_xpath::QueryTree::parametric_node`])
//! — its one predicate element compared with `= 'string'`, or, without
//! one, its one inline `[@name = 'string']` test — is not compared with a
//! literal but looked up in the machine's **binding table**. The element's
//! string-value when it pops, or the named attribute's value when the
//! tested element is pushed, is hashed once and the table names the
//! binding whose literal it equals (the bytes are compared, so a hash
//! collision cannot match). A lone query's table has one binding; a shape
//! group's holds one per distinct literal its subscribers test, and its
//! machine then runs as all those one-literal machines at once:
//!
//! * structure does not depend on the literal, so pushes, pops and every
//!   other flag are shared;
//! * the leaf's ancestors up to its main-path **owner** keep, beside the
//!   leaf's flag bit, the *set* of bindings it was satisfied for (`lits`,
//!   a set in the store; with one binding the bit says it all and no set
//!   is kept). An attribute test's set starts on the entry it is tested
//!   on, at push — the owner itself when that entry is on the main path;
//! * where the owner pops satisfied for every binding, or for none, the
//!   transitions are exactly the one-literal ones. Satisfied for some
//!   bindings `S` only, it is both at once: every candidate that may slide
//!   to the entry below does (as for a failed entry), and what goes up
//!   goes for `S` only — a **tagged** payload: the solution's own when no
//!   other instance of it is left, otherwise a *variant* that stands for
//!   the same solution and keeps it alive;
//! * emission delivers a solution to the bindings its payload stands for
//!   (and, at a root that is the owner, that the entry satisfied) minus
//!   those it already reached: the solution keeps a per-binding *done*
//!   record, so one reaching the root along two owner entries is
//!   delivered once per binding. The caller's callback learns which
//!   bindings: all of them, or a list ascending by binding id.
//!
//! An owner that holds an attribute test knows its set from the push on,
//! so a root owner delivers what is decidable at push to that set at
//! once (the others failed for good). Candidate instances stay 8 bytes
//! and a machine without a parametric leaf never looks at any of this.

use std::mem::size_of;
use std::ops::{Index, IndexMut};

use vitex_xmlsax::event::Attributes;
use vitex_xmlsax::pos::ByteSpan;
use vitex_xpath::{Axis, CmpOp, Literal};

use crate::bitset::SmallBitSet;
use crate::builder::{EvalMode, MachineSpec};
use crate::predicate;
use crate::result::{MatchKind, MatchRef};
use crate::stats::MachineStats;

/// "No handle": an entry without candidates, text buffer or binding set, a
/// payload without a name, value or tag.
const NONE: u32 = u32::MAX;

/// Where a machine delivers a solution: to the bindings listed (ascending
/// binding ids), or with `None` to every binding it has (see "Bindings"
/// in the module docs). The solution is lent for the call.
pub(crate) type Deliver<'a> = dyn FnMut(Option<&[u32]>, &MatchRef<'_>) + 'a;

/// FNV-1a over `bytes`: what a binding table files a literal under.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, fold)
}

/// A machine's binding table: the literals its parametric leaf is
/// compared with, by binding id (see the module docs).
#[derive(Debug, Clone)]
struct Bindings {
    /// Each binding's literal, by id: first-registration order.
    literals: Vec<Box<str>>,
    /// `(fnv1a of the literal, binding id)`, ascending: the lookup index.
    index: Vec<(u64, u32)>,
}

impl Bindings {
    /// A table binding `first` as binding 0.
    fn new(first: &str) -> Self {
        let mut table = Bindings { literals: Vec::new(), index: Vec::new() };
        table.bind(first);
        table
    }

    fn len(&self) -> usize {
        self.literals.len()
    }

    /// The binding whose literal is `value`: one hash, then a byte
    /// comparison per binding filed under it.
    fn lookup(&self, value: &str) -> Option<u32> {
        let hash = fnv1a(value.bytes());
        let filed = &self.index[self.index.partition_point(|&(h, _)| h < hash)..];
        let mut ids = filed.iter().take_while(|&&(h, _)| h == hash).map(|&(_, id)| id);
        ids.find(|&id| *self.literals[id as usize] == *value)
    }

    /// `literal`'s binding id, and whether this call added it (as the last
    /// binding).
    fn bind(&mut self, literal: &str) -> (u32, bool) {
        if let Some(id) = self.lookup(literal) {
            return (id, false);
        }
        let (hash, id) = (fnv1a(literal.bytes()), self.literals.len() as u32);
        self.index.insert(self.index.partition_point(|&(h, _)| h <= hash), (hash, id));
        self.literals.push(literal.into());
        (id, true)
    }

    /// Drops binding `id`; the later ones move down by one.
    fn unbind(&mut self, id: u32) {
        self.literals.remove(id as usize);
        self.index.retain(|&(_, i)| i != id);
        self.index.iter_mut().filter(|(_, i)| *i > id).for_each(|(_, i)| *i -= 1);
    }
}

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
    /// The bindings the parametric leaf's flag bit stands for, a set in
    /// the store: kept by the leaf's ancestors up to its owner (for an
    /// attribute test, from the entry it is tested on) while the machine
    /// has several bindings ([`NONE`] otherwise, and until the bit is
    /// first set).
    lits: u32,
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

/// A candidate solution — what becomes a [`MatchRef`] — and the state its
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
    /// Already delivered (to every binding): any further instance reaching
    /// the root is a duplicate.
    emitted: bool,
    /// Its [`Tag`] in the store, [`NONE`] for a solution that stands for
    /// every binding and has reached none of them.
    tag: u32,
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
            tag: NONE,
        }
    }
}

/// Which bindings a payload stands for, and which its solution reached
/// (see "Bindings" in the module docs).
#[derive(Debug)]
struct Tag {
    /// The solution's own payload when this one is a variant of it
    /// (holding it alive; the variant has no strings of its own), [`NONE`]
    /// on the solution's payload.
    base: u32,
    /// The bindings the payload stands for, ascending; empty for all.
    alive: Vec<u32>,
    /// On the solution's payload: the bindings already delivered to,
    /// ascending.
    done: Vec<u32>,
}

impl Default for Tag {
    fn default() -> Self {
        Tag { base: NONE, alive: Vec::new(), done: Vec::new() }
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
/// [reset](TwigM::reset). The multi-query executor owns the one every
/// engine drives its machines with.
#[derive(Debug, Default)]
pub struct CandidateStore {
    payloads: Pool<Payload>,
    lists: Pool<Vec<Cand>>,
    strings: Pool<String>,
    /// Binding sets of entries (`Entry::lits`), ascending ids.
    sets: Pool<Vec<u32>>,
    tags: Pool<Tag>,
    /// The current merge epoch: a payload stamped with it is in the list
    /// being merged into, at its recorded position.
    epoch: u32,
    /// Scratch: the bindings one delivery goes to.
    to: Vec<u32>,
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
            self.sets.reclaim();
            self.tags.reclaim();
        }
    }

    /// Whether nothing is lent out.
    pub(crate) fn is_idle(&self) -> bool {
        self.payloads.is_idle()
            && self.lists.is_idle()
            && self.strings.is_idle()
            && self.sets.is_idle()
            && self.tags.is_idle()
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
        CAND_BYTES + self.free(c.payload)
    }

    /// Frees a payload nothing stands on any more and returns its bytes —
    /// plus its solution's, when it was a variant holding the last of it.
    fn free(&mut self, payload: u32) -> u64 {
        let bytes = self.payload_bytes(payload);
        let p = &self.payloads[payload];
        let (tag, strings) = (p.tag, [p.name, p.value]);
        for h in strings.into_iter().filter(|&h| h != NONE) {
            self.strings.give(h);
        }
        self.payloads.give(payload);
        if tag == NONE {
            return bytes;
        }
        let base = self.tags[tag].base;
        self.tags.give(tag);
        if base == NONE {
            return bytes;
        }
        let solution = &mut self.payloads[base];
        solution.instances -= 1;
        if solution.instances > 0 {
            bytes
        } else {
            bytes + self.free(base)
        }
    }

    /// The solution `payload` belongs to (itself, or a variant's base), and
    /// the bindings `payload` stands for (ascending; empty for all).
    fn solution(&self, payload: u32) -> (u32, &[u32]) {
        match self.payloads[payload].tag {
            NONE => (payload, &[]),
            t => {
                let tag = &self.tags[t];
                (if tag.base == NONE { payload } else { tag.base }, &tag.alive)
            }
        }
    }

    /// A fresh tag with `base` and the `alive` list `fill` writes (reading
    /// the store as it is).
    fn tag(&mut self, base: u32, fill: impl FnOnce(&Self, &mut Vec<u32>)) -> u32 {
        let t = self.tags.take();
        let mut alive = std::mem::take(&mut self.tags[t].alive);
        alive.clear();
        fill(self, &mut alive);
        let tag = &mut self.tags[t];
        (tag.base, tag.alive) = (base, alive);
        tag.done.clear();
        t
    }

    /// A new instance standing for `c`'s solution for those bindings of
    /// `lits` that `c` stands for: a variant payload, holding the solution
    /// alive. `None` when `c` stands for none of them.
    fn variant(&mut self, stats: &mut MachineStats, c: Cand, lits: &[u32]) -> Option<Cand> {
        let (solution, _) = self.solution(c.payload);
        let tag = self.tag(solution, |store, alive| {
            let (_, stands) = store.solution(c.payload);
            let kept = |l: &u32| stands.is_empty() || stands.binary_search(l).is_ok();
            alive.extend(lits.iter().copied().filter(kept));
        });
        if self.tags[tag].alive.is_empty() {
            self.tags.give(tag);
            return None;
        }
        let payload = self.payloads.take();
        self.payloads[payload] = Payload { instances: 1, tag, ..Payload::default() };
        self.payloads[solution].instances += 1;
        stats.on_candidate_copied(CAND_BYTES + self.payload_bytes(payload));
        Some(Cand { low: c.low, payload })
    }

    /// `c`, carried on for the bindings in `lits` only: its payload tagged
    /// in place when `c` is all there is of the solution, otherwise a
    /// variant, `c` itself ending here.
    fn retag(&mut self, stats: &mut MachineStats, c: Cand, lits: &[u32]) -> Option<Cand> {
        let p = &self.payloads[c.payload];
        if p.tag == NONE && p.instances == 1 {
            let tag = self.tag(NONE, |_, alive| alive.extend_from_slice(lits));
            self.payloads[c.payload].tag = tag;
            return Some(c);
        }
        let up = self.variant(stats, c, lits);
        stats.on_candidate_dropped(self.release(c));
        up
    }

    /// Delivers `c`'s solution through `emit` to the bindings `c` stands
    /// for — those in `within` only, when given — that the solution has not
    /// reached yet, and records them; `false` when there are none. `n` is
    /// the machine's binding count.
    fn deliver(
        &mut self,
        c: Cand,
        within: Option<&[u32]>,
        n: usize,
        emit: &mut Deliver<'_>,
    ) -> bool {
        let p = &mut self.payloads[c.payload];
        if p.tag == NONE && within.is_none() {
            // The one-literal case: all bindings, once.
            if std::mem::replace(&mut p.emitted, true) {
                return false;
            }
            emit(None, &self.match_ref(c.payload));
            return true;
        }
        let mut to = std::mem::take(&mut self.to);
        to.clear();
        let (solution, stands) = self.solution(c.payload);
        let s = &self.payloads[solution];
        let done: &[u32] = if s.tag == NONE { &[] } else { &self.tags[s.tag].done };
        let new = |l: &u32| !s.emitted && done.binary_search(l).is_err();
        match (stands.is_empty(), within) {
            (true, None) => to.extend((0..n as u32).filter(new)),
            (true, Some(w)) => to.extend(w.iter().copied().filter(new)),
            (false, w) => to.extend(
                stands
                    .iter()
                    .copied()
                    .filter(|l| new(l) && w.is_none_or(|w| w.binary_search(l).is_ok())),
            ),
        }
        let delivered = !to.is_empty();
        if delivered {
            emit((to.len() < n).then_some(&to[..]), &self.match_ref(solution));
            self.record_done(solution, &to, n);
        }
        self.to = to;
        delivered
    }

    /// Records that `solution` reached the bindings `to` (ascending).
    fn record_done(&mut self, solution: u32, to: &[u32], n: usize) {
        let mut tag = self.payloads[solution].tag;
        if tag == NONE {
            tag = self.tag(NONE, |_, _| {});
            self.payloads[solution].tag = tag;
        }
        let done = &mut self.tags[tag].done;
        for &l in to {
            if let Err(at) = done.binary_search(&l) {
                done.insert(at, l);
            }
        }
        if done.len() == n {
            self.payloads[solution].emitted = true;
        }
    }

    /// The solution as the caller receives it, borrowing its strings from
    /// the pool.
    fn match_ref(&self, payload: u32) -> MatchRef<'_> {
        let p = &self.payloads[payload];
        let text = |h: u32| (h != NONE).then(|| &*self.strings[h]);
        MatchRef {
            kind: p.kind,
            node: p.node,
            name: text(p.name),
            span: p.span,
            value: text(p.value),
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
/// The engines drive it: [`crate::multi::MultiEngine`] — and
/// [`crate::engine::Engine`], a one-query `MultiEngine` — hands each
/// machine the start tags whose pushes the step trie decided, the text
/// nodes it can read and the end tags of the elements it pushed, lending
/// every transition the [`CandidateStore`] its run-time state lives in.
/// Solutions leave through the engine's callback, lent as [`MatchRef`]s,
/// as soon as they are decidable. From outside the crate a machine is
/// read-only: its spec, its statistics and [`TwigM::dump_state`].
#[derive(Debug)]
pub struct TwigM {
    spec: MachineSpec,
    mode: EvalMode,
    stacks: Vec<Vec<Entry>>,
    /// The parametric leaf's binding table (`None` without one).
    bindings: Option<Box<Bindings>>,
    stats: MachineStats,
}

impl TwigM {
    /// Wraps an already-compiled spec. A parametric leaf's literal becomes
    /// binding 0.
    pub fn from_spec(spec: MachineSpec, mode: EvalMode) -> Self {
        let stacks = spec.nodes.iter().map(|_| Vec::new()).collect();
        let bindings = spec.nodes.iter().find_map(|n| {
            let comparison = match n.parametric {
                true => &n.comparison,
                false => &n.attr_preds.iter().find(|t| n.binds(t))?.comparison,
            };
            match comparison {
                Some((CmpOp::Eq, Literal::Str(literal))) => Some(Box::new(Bindings::new(literal))),
                _ => unreachable!("a parametric leaf compares with `= 'string'`"),
            }
        });
        TwigM { spec, mode, stacks, bindings, stats: MachineStats::default() }
    }

    /// How many literals the parametric leaf is looked up against: the
    /// bindings a shape group's subscribers test, one for a lone query and
    /// for a machine without a parametric leaf.
    pub fn binding_count(&self) -> usize {
        self.bindings.as_ref().map_or(1, |b| b.len())
    }

    /// Binds `literal` to the parametric leaf: its binding id (new
    /// bindings come last) and whether it is new. Between documents only.
    pub(crate) fn bind(&mut self, literal: &str) -> (u32, bool) {
        self.bindings.as_mut().expect("only a parametric leaf binds literals").bind(literal)
    }

    /// Drops binding `id`; the later ones move down by one. Between
    /// documents only.
    pub(crate) fn unbind(&mut self, id: u32) {
        self.bindings.as_mut().expect("only a parametric leaf binds literals").unbind(id);
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

    /// Approximate bytes of what was built: the compiled spec and the
    /// bound literals. Stack capacity is run-time state and left out (as
    /// are entry and candidate bytes, tracked live in [`MachineStats`]), so
    /// the figure follows registrations alone, not the documents that ran.
    /// The multi-query planner sums this across plan groups to report the
    /// build-memory effect of query sharing.
    pub fn approx_build_bytes(&self) -> u64 {
        let literals: usize =
            self.bindings.as_ref().map_or(0, |b| b.literals.iter().map(|l| l.len()).sum());
        self.spec.approx_bytes() + literals as u64
    }

    /// True when no entries are live (before a document and after a
    /// well-formed one).
    pub fn is_quiescent(&self) -> bool {
        self.stacks.iter().all(|s| s.is_empty())
    }

    /// Whether a `characters` event could move the machine right now: some
    /// text-watching, accumulating or text-result-parent node has an open
    /// entry. With none open a `characters` event is a no-op, which is
    /// what lets the multi-query executor skip idle machines on text.
    #[inline]
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

    /// `startElement`: every push decision arrives pre-computed from the
    /// step trie (`pushes`, `(machine node, ptr)` pairs decided by
    /// [`TwigM::push_point`] against the pre-event stacks, in any order: one
    /// push never reads another's entry, and only a machine with a single
    /// node, which pushes once, emits at a push). `node_id` is the element's
    /// document-order id; its attributes get ids `attr_id_base + i`.
    /// `tag_span` is the byte span of the start tag (used as the span of
    /// attribute matches).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_element_prefix(
        &mut self,
        store: &mut CandidateStore,
        pushes: impl Iterator<Item = (u32, u32)>,
        level: u32,
        attributes: Attributes<'_>,
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut Deliver<'_>,
    ) {
        let mut hit = false;
        for (q, ptr) in pushes {
            hit = true;
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
        self.stats.dispatch_hits += u64::from(hit);
    }

    /// Where would machine node `q` attach for an element at `level`? The
    /// machine's own push rule — a name-matched element pushes when its
    /// axis is witnessed on the parent node's stack — and the pointer into
    /// that stack. The step trie decides every push with it, once per
    /// trie step, on the step's first route.
    #[inline]
    pub(crate) fn push_point(&self, q: usize, level: u32) -> Option<u32> {
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
        attributes: Attributes<'_>,
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
        let Self { spec, stacks, bindings, stats, .. } = self;
        let node = &spec.nodes[q];
        let own_index = stacks[q].len() as u32;
        let flags = SmallBitSet::empty(node.nflags as usize);
        let mut entry =
            Entry { level, ptr, node_id, flags, cands: NONE, max_low: 0, text: NONE, lits: NONE };
        // Inline attribute predicates are decidable right now; the
        // parametric one names its bindings.
        for ap in &node.attr_preds {
            stats.predicate_evals += 1;
            let slot = ap.slot.expect("predicate tests carry slots") as usize;
            let mut named =
                attributes.iter().filter(|&(name, _)| attr_name_matches(ap.name.as_deref(), name));
            if !node.binds(ap) {
                if named.any(|(_, value)| cmp_opt(&ap.comparison, value)) {
                    set_flag(stats, &mut entry, slot);
                }
                continue;
            }
            let table = bindings.as_deref().expect("a parametric test has a binding table");
            for b in named.filter_map(|(_, value)| table.lookup(value)) {
                if n == 1 {
                    set_flag(stats, &mut entry, slot);
                } else {
                    add_lits(stats, store, &mut entry, slot, &[b]);
                }
            }
        }
        // Attribute-result candidates are born here, waiting on this entry.
        if let Some(ar) = &node.attr_result {
            for (i, (name, value)) in attributes.iter().enumerate() {
                if attr_name_matches(ar.name.as_deref(), name) && cmp_opt(&ar.comparison, value) {
                    let c = store.create(
                        stats,
                        own_index,
                        MatchKind::Attribute,
                        attr_id_base + i as u64,
                        Some(name),
                        tag_span,
                        Some(value),
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
        // `//site/people/person/@id` stream with O(1) candidate memory. (A
        // root that owns a parametric element leaf is never satisfied yet:
        // the leaf has not popped. One holding its parametric attribute
        // test for some bindings delivers to those: the others failed.)
        if node.is_root && entry.cands != NONE && entry.flags.all_set(node.nflags as usize) {
            let held = match entry.lits {
                NONE => Vec::new(),
                set => std::mem::take(&mut store.sets[set]),
            };
            let within = (held.len() < n).then_some(&held[..]).filter(|set| !set.is_empty());
            let born = store.detach(&entry);
            for &c in &born {
                emit_candidate(stats, store, c, within, n, emit);
            }
            store.recycle(&entry, born);
            if entry.lits != NONE {
                store.sets[entry.lits] = held;
            }
            (entry.cands, entry.max_low) = (NONE, 0);
        }
        if node.needs_text {
            entry.text = store.string("");
        }
        stats.on_push(entry_base_bytes(&entry));
        stacks[q].push(entry);
    }

    /// `characters`: text predicates, string-value accumulation, text
    /// result candidates, telling `emit` which bindings a solution goes
    /// to. `level` is the depth of the text's parent element.
    pub(crate) fn characters_to(
        &mut self,
        store: &mut CandidateStore,
        text: &str,
        level: u32,
        node_id: u64,
        span: ByteSpan,
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
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
                if !(pnode.is_root && top.flags.all_set(pnode.nflags as usize)) {
                    store.arrive(top, &mut false, c, false);
                } else if top.lits == NONE || store.sets[top.lits].len() == n {
                    emit_candidate(stats, store, c, None, n, emit); // early emission (see push_entry)
                } else {
                    // A root satisfied for some bindings: they have the text
                    // now, the others may still come.
                    let held = std::mem::take(&mut store.sets[top.lits]);
                    deliver_now(stats, store, c, &held, n, emit);
                    store.sets[top.lits] = held;
                    store.arrive(top, &mut false, c, false);
                }
            }
        }
    }

    /// `endElement`: pop every machine node whose top entry belongs to the
    /// closing element, innermost query nodes first, bookkeeping flags and
    /// candidates into parents. Solutions reaching the machine root are
    /// handed to `emit`, with the bindings they go to.
    pub(crate) fn end_element_to(
        &mut self,
        store: &mut CandidateStore,
        name: &str,
        level: u32,
        element_span: ByteSpan,
        emit: &mut Deliver<'_>,
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
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
        let Self { spec, stacks, bindings, stats, .. } = self;
        let idx = stacks[q].len() - 1;
        let mut e = stacks[q].pop().expect("checked by caller");
        let node = &spec.nodes[q];
        let base = entry_base_bytes(&e);

        let mut satisfied = e.flags.all_set(node.nflags as usize);
        // The binding a parametric leaf's string-value names.
        let mut bound = NONE;
        if let Some((op, lit)) = &node.comparison {
            stats.predicate_evals += 1;
            let value = store.str(e.text);
            satisfied &= if node.parametric {
                let table = bindings.as_deref().expect("a parametric leaf has a binding table");
                table.lookup(value).inspect(|&id| bound = id).is_some()
            } else {
                predicate::compare(value, *op, lit)
            };
        }
        // Release the entry's byte accounting now; candidate bytes travel
        // with the candidates.
        if e.text != NONE {
            stats.sub_bytes(store.strings[e.text].len() as u64);
            store.strings.give(e.text);
        }

        if node.is_main {
            // Owning the parametric leaf of a machine with several
            // bindings, the entry may hold for some of them only: the set
            // its flag stands for.
            let sat = match e.lits {
                _ if !satisfied => Sat::No,
                NONE => Sat::All,
                set if store.sets[set].len() == n => Sat::All,
                set => Sat::Some(set),
            };
            if e.lits != NONE && !matches!(sat, Sat::Some(_)) {
                store.sets.give(e.lits);
            }
            return self.pop_main(
                store,
                q,
                idx as u32,
                &mut e,
                sat,
                base,
                name,
                element_span,
                emit,
            );
        }
        // Predicate node: propagate the match flag — with several bindings,
        // for the ones this subtree satisfied; no candidates live here.
        debug_assert!(e.cands == NONE, "predicate entries never hold candidates");
        if satisfied {
            let slot = node.flag_slot.expect("predicate nodes have slots") as usize;
            let p = node.parent.expect("predicate nodes have parents");
            let parents = match node.axis {
                Axis::Child => e.ptr as usize..=e.ptr as usize,
                Axis::Descendant => 0..=e.ptr as usize,
            };
            let parents = &mut stacks[p][parents];
            if n == 1 || (!node.parametric && e.lits == NONE) {
                parents.iter_mut().for_each(|t| set_flag(stats, t, slot));
            } else if node.parametric {
                parents.iter_mut().for_each(|t| add_lits(stats, store, t, slot, &[bound]));
            } else {
                let set = std::mem::take(&mut store.sets[e.lits]);
                parents.iter_mut().for_each(|t| add_lits(stats, store, t, slot, &set));
                store.sets[e.lits] = set;
            }
        }
        if e.lits != NONE {
            store.sets.give(e.lits);
        }
        stats.on_pop(base);
    }

    /// The main-path half of a pop: the entry (at index `idx` of its stack)
    /// was satisfied as `sat` says, and its candidates move on.
    #[allow(clippy::too_many_arguments)]
    fn pop_main(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &mut Entry,
        sat: Sat,
        base: u64,
        name: &str,
        element_span: ByteSpan,
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
        let Self { spec, stacks, stats, .. } = self;
        let node = &spec.nodes[q];
        // A satisfied result entry is itself a candidate.
        if node.is_result && !matches!(sat, Sat::No) {
            let c = store.create(
                stats,
                idx,
                MatchKind::Element,
                e.node_id,
                Some(name),
                element_span,
                None,
                e.level,
            );
            store.arrive(e, &mut false, c, false);
        }
        stats.on_pop(base);
        if let Sat::Some(set) = sat {
            let held = std::mem::take(&mut store.sets[set]);
            if e.cands != NONE {
                let cands = store.detach(e);
                self.pop_partial(store, q, idx, e, cands, &held, emit);
            }
            store.sets[set] = held;
            return store.sets.give(set);
        }
        if e.cands == NONE {
            return;
        }
        let cands = store.detach(e);
        if let Sat::No = sat {
            return self.fail(store, q, idx, e, cands);
        }
        if node.is_root {
            // Solutions! Emit immediately (the paper's incremental
            // delivery); an instance of a solution already delivered is
            // suppressed.
            for &c in &cands {
                emit_candidate(stats, store, c, None, n, emit);
            }
            return store.recycle(e, cands);
        }
        let p = node.parent.expect("non-root nodes have parents");
        let pn = &spec.nodes[p];
        let target = &stacks[p][e.ptr as usize];
        if pn.is_root && target.flags.all_set(pn.nflags as usize) {
            // The forwarding target is the machine root with all its
            // predicates already satisfied: the candidates are solutions
            // right now — deliver instead of buffering (down-copies would
            // only ever produce duplicates, so they are skipped too). A root
            // that owns the parametric leaf may hold for some bindings only:
            // they get the candidates now, which also wait on it for the
            // others.
            let held = target.lits;
            if held == NONE || store.sets[held].len() == n {
                for &c in &cands {
                    stats.candidates_forwarded += 1;
                    emit_candidate(stats, store, c, None, n, emit);
                }
                return store.recycle(e, cands);
            }
            let held_for = std::mem::take(&mut store.sets[held]);
            for &c in &cands {
                deliver_now(stats, store, c, &held_for, n, emit);
            }
            store.sets[held] = held_for;
        }
        self.forward(store, q, idx, e, cands)
    }

    /// [`TwigM::pop_main`] for an entry that owns the parametric leaf and
    /// holds for the bindings in `s` only. For the others it failed.
    #[allow(clippy::too_many_arguments)]
    fn pop_partial(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &Entry,
        cands: Vec<Cand>,
        s: &[u32],
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
        let Self { spec, stacks, stats, .. } = self;
        let node = &spec.nodes[q];
        let root_now = node.parent.is_none_or(|p| {
            let pn = &spec.nodes[p];
            pn.is_root && stacks[p][e.ptr as usize].flags.all_set(pn.nflags as usize)
        });
        if !root_now {
            return self.forward_tagged(store, q, idx, e, cands, s);
        }
        // Solutions for the bindings in `s`, at the root or forwarded to a
        // satisfied one (which owns no parametric leaf: this entry does).
        for &c in &cands {
            stats.candidates_forwarded += u64::from(!node.is_root);
            deliver_now(stats, store, c, s, n, emit);
        }
        self.fail(store, q, idx, e, cands)
    }

    /// Candidates of a satisfied non-root entry go up to the deepest
    /// compatible parent entry.
    fn forward(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &Entry,
        mut cands: Vec<Cand>,
    ) {
        let Self { spec, mode, stacks, stats, .. } = self;
        let node = &spec.nodes[q];
        let p = node.parent.expect("non-root nodes have parents");
        if *mode == EvalMode::Compact {
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
            // Forward originals to the deepest compatible parent entry.
            let new_low = match node.axis {
                Axis::Child => e.ptr,
                Axis::Descendant => 0,
            };
            stats.candidates_forwarded += cands.len() as u64;
            cands.iter_mut().for_each(|c| c.low = new_low);
            let target = &mut stacks[p][e.ptr as usize];
            if target.cands == NONE {
                return store.hand_over(e, cands, target, new_low);
            }
            let mut stamped = false;
            for &c in &cands {
                if store.arrive(target, &mut stamped, c, false) {
                    stats.on_candidate_merged(CAND_BYTES);
                }
            }
        } else {
            // Strawman: a copy to every compatible parent entry below the
            // deepest, which the original moves to.
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
        store.recycle(e, cands);
    }

    /// Candidates of a non-root entry that owns the parametric leaf and is
    /// satisfied for the bindings in `s` only. For the others it failed:
    /// every candidate that may slide down does. What goes up, goes for
    /// `s` only, as a tagged instance.
    fn forward_tagged(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &Entry,
        mut cands: Vec<Cand>,
        s: &[u32],
    ) {
        let Self { spec, mode, stacks, stats, .. } = self;
        debug_assert_eq!(*mode, EvalMode::Compact, "several bindings run compact");
        let node = &spec.nodes[q];
        let p = node.parent.expect("non-root nodes have parents");
        let new_low = match node.axis {
            Axis::Child => e.ptr,
            Axis::Descendant => 0,
        };
        let (mut stamped, mut up) = (false, 0);
        for i in 0..cands.len() {
            let c = cands[i];
            let tagged = if c.low < idx {
                let below = &mut stacks[q][idx as usize - 1];
                stats.candidates_inherited += 1;
                if store.arrive(below, &mut stamped, c, false) {
                    stats.on_candidate_merged(CAND_BYTES);
                }
                store.variant(stats, c, s)
            } else {
                store.retag(stats, c, s)
            };
            if let Some(t) = tagged {
                cands[up] = Cand { low: new_low, ..t };
                up += 1;
            }
        }
        cands.truncate(up);
        stats.candidates_forwarded += up as u64;
        let target = &mut stacks[p][e.ptr as usize];
        if target.cands == NONE && up > 0 {
            return store.hand_over(e, cands, target, new_low);
        }
        let mut stamped = false;
        for &c in &cands {
            if store.arrive(target, &mut stamped, c, false) {
                stats.on_candidate_merged(CAND_BYTES);
            }
        }
        store.recycle(e, cands);
    }

    /// Candidates of an entry that failed (for every binding, or for all
    /// but those they were just delivered to): each slides down to the
    /// next compatible entry of the same stack, or is discarded at its
    /// bound.
    fn fail(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &Entry,
        cands: Vec<Cand>,
    ) {
        let Self { stacks, stats, .. } = self;
        if idx == 0 {
            for &c in &cands {
                stats.on_candidate_dropped(store.release(c));
            }
            return store.recycle(e, cands);
        }
        let below = stacks[q].last_mut().expect("idx > 0 means a lower entry exists");
        if below.cands == NONE && e.max_low < idx {
            // All of them slide, onto nothing: the list itself moves.
            stats.candidates_inherited += cands.len() as u64;
            return store.hand_over(e, cands, below, e.max_low);
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
        store.recycle(e, cands);
    }
}

/// What a popping main-path entry is satisfied for.
#[derive(Debug, Clone, Copy)]
enum Sat {
    No,
    /// Every binding (one, unless the entry owns the parametric leaf).
    All,
    /// Only those in this set of the store: it owns the parametric leaf,
    /// whose flag holds for them.
    Some(u32),
}

/// Delivers one candidate as a solution — to the bindings in `within`
/// only, when given — suppressing an instance of a solution already
/// delivered, so that every solution reaches each of its bindings exactly
/// once. The candidate ends here.
fn emit_candidate(
    stats: &mut MachineStats,
    store: &mut CandidateStore,
    c: Cand,
    within: Option<&[u32]>,
    n: usize,
    emit: &mut Deliver<'_>,
) {
    let delivered = store.deliver(c, within, n, emit);
    let bytes = store.release(c);
    if delivered {
        stats.on_candidate_emitted(bytes);
    } else {
        stats.on_candidate_suppressed(bytes);
    }
}

/// Delivers `c`'s solution to those bindings of `within` it stands for and
/// has not reached; the candidate itself stays where it is, for the
/// others.
fn deliver_now(
    stats: &mut MachineStats,
    store: &mut CandidateStore,
    c: Cand,
    within: &[u32],
    n: usize,
    emit: &mut Deliver<'_>,
) {
    if store.deliver(c, Some(within), n, emit) {
        stats.emitted += 1;
    }
}

/// Sets a flag bit, counting only actual transitions.
fn set_flag(stats: &mut MachineStats, entry: &mut Entry, slot: usize) {
    if !entry.flags.get(slot) {
        entry.flags.set(slot);
        stats.flag_propagations += 1;
    }
}

/// Sets the parametric leaf's flag bit on `entry` for the bindings in
/// `lits`, counting each binding new to its set.
fn add_lits(
    stats: &mut MachineStats,
    store: &mut CandidateStore,
    entry: &mut Entry,
    slot: usize,
    lits: &[u32],
) {
    if entry.lits == NONE {
        entry.lits = store.sets.take();
        store.sets[entry.lits].clear();
    }
    let set = &mut store.sets[entry.lits];
    for &l in lits {
        if let Err(at) = set.binary_search(&l) {
            set.insert(at, l);
            stats.flag_propagations += 1;
        }
    }
    entry.flags.set(slot);
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
    use crate::result::Match;
    use vitex_xmlsax::event::AttributeBuf;
    use vitex_xpath::query_tree::QueryTree;

    /// Drives the machine over a tiny hand-rolled event stream.
    struct Driver {
        machine: TwigM,
        store: CandidateStore,
        level: u32,
        next_id: u64,
        offset: u64,
        matches: Vec<Match>,
        /// Every delivery: to which bindings (`None`: all), and the node.
        delivered: Vec<(Option<Vec<u32>>, u64)>,
    }

    impl Driver {
        fn new(query: &str) -> Self {
            Driver::with_mode(query, EvalMode::Compact)
        }

        fn with_mode(query: &str, mode: EvalMode) -> Self {
            let spec = MachineSpec::compile(&QueryTree::parse(query).unwrap()).unwrap();
            Driver {
                machine: TwigM::from_spec(spec, mode),
                store: CandidateStore::new(),
                level: 0,
                next_id: 0,
                offset: 0,
                matches: Vec::new(),
                delivered: Vec::new(),
            }
        }

        fn open(&mut self, name: &str) -> &mut Self {
            self.open_attrs(name, &[])
        }

        fn open_attrs(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
            self.level += 1;
            let id = self.next_id;
            self.next_id += 1 + attrs.len() as u64;
            let attrs: AttributeBuf = attrs.iter().copied().collect();
            let span = ByteSpan::new(self.offset, self.offset + 1);
            self.offset += 1;
            let (matches, delivered) = (&mut self.matches, &mut self.delivered);
            let emit = &mut |to: Option<&[u32]>, m: &MatchRef<'_>| {
                delivered.push((to.map(<[u32]>::to_vec), m.node));
                matches.push(Match::from(*m))
            };
            // The push rule on every node whose name test matches, all
            // decided before any is applied: the trie's decisions.
            let pushes: Vec<(u32, u32)> = (0..self.machine.spec.len())
                .filter(|&q| self.machine.spec.nodes[q].name.as_deref().is_none_or(|n| n == name))
                .filter_map(|q| Some((q as u32, self.machine.push_point(q, self.level)?)))
                .collect();
            let (store, level) = (&mut self.store, self.level);
            let attrs = attrs.view();
            let pushes = pushes.into_iter();
            self.machine.start_element_prefix(store, pushes, level, attrs, id, id + 1, span, emit);
            self
        }

        fn text(&mut self, t: &str) -> &mut Self {
            let id = self.next_id;
            self.next_id += 1;
            let span = ByteSpan::new(self.offset, self.offset + t.len() as u64);
            self.offset += t.len() as u64;
            let (matches, delivered) = (&mut self.matches, &mut self.delivered);
            let emit = &mut |to: Option<&[u32]>, m: &MatchRef<'_>| {
                delivered.push((to.map(<[u32]>::to_vec), m.node));
                matches.push(Match::from(*m))
            };
            self.machine.characters_to(&mut self.store, t, self.level, id, span, emit);
            self
        }

        fn close(&mut self, name: &str) -> &mut Self {
            let span = ByteSpan::new(0, self.offset);
            let level = self.level;
            let (matches, delivered) = (&mut self.matches, &mut self.delivered);
            let emit = &mut |to: Option<&[u32]>, m: &MatchRef<'_>| {
                delivered.push((to.map(<[u32]>::to_vec), m.node));
                matches.push(Match::from(*m))
            };
            self.machine.end_element_to(&mut self.store, name, level, span, emit);
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

    /// The state dump shows live stacks mid-stream (demo introspection).
    #[test]
    fn dump_state_reflects_stacks() {
        let mut d = Driver::new("//section[author]//cell");
        d.open("section").open("cell");
        let dump = d.machine.dump_state(&d.store);
        assert!(dump.contains("//section"), "{dump}");
        assert!(dump.contains("//cell"), "{dump}");
        assert!(dump.contains("(1 entries)"), "{dump}");
        assert!(dump.contains("/author ?"), "{dump}");
        d.close("cell").close("section");
        assert!(d.machine.is_quiescent());
        let dump = d.machine.dump_state(&d.store);
        assert!(dump.contains("(0 entries)"), "{dump}");
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

    /// Runs `events` through one machine binding every literal of
    /// `literals` (distinct) into `shape` (`$` stands for the literal) and
    /// through one machine per literal. Each binding must be delivered,
    /// in order, exactly the matches of its literal's machine — nothing
    /// twice — and the shared machine must do its work counters' worth.
    /// Returns the shared driver.
    fn agrees_with_one_literal_machines(
        shape: &str,
        literals: &[&str],
        events: impl Fn(&mut Driver),
    ) -> Driver {
        let query = |literal: &str| shape.replace('$', &format!("'{literal}'"));
        let mut shared = Driver::new(&query(literals[0]));
        for literal in literals {
            shared.machine.bind(literal);
        }
        assert_eq!(shared.machine.binding_count(), literals.len());
        events(&mut shared);
        assert!(shared.machine.is_quiescent() && shared.store.is_idle(), "every handle returned");
        let work = |s: &MachineStats| (s.pushes, s.pops, s.predicate_evals, s.dispatch_hits);
        for (b, literal) in literals.iter().enumerate() {
            let mut alone = Driver::new(&query(literal));
            events(&mut alone);
            let to_b =
                |to: &Option<Vec<u32>>| to.as_ref().is_none_or(|to| to.contains(&(b as u32)));
            let got: Vec<u64> =
                shared.delivered.iter().filter(|(to, _)| to_b(to)).map(|&(_, n)| n).collect();
            assert_eq!(got, alone.names(), "{}", query(literal));
            assert_eq!(work(shared.machine.stats()), work(alone.machine.stats()), "{literal}");
        }
        shared
    }

    #[test]
    fn an_owner_holds_the_set_of_bindings_its_leaves_satisfied() {
        // Two `p` children satisfy two literals on one `a`: its `c` reaches
        // both in one delivery; the second `a` reaches one; the third none.
        let d = agrees_with_one_literal_machines("//a[p = $]/c", &["x", "y", "z"], |d| {
            d.open("r");
            d.open("a").open("p").text("x").close("p").open("p").text("y").close("p");
            d.leaf("c").close("a");
            d.open("a").open("p").text("z").close("p").leaf("c").close("a");
            d.open("a").open("p").text("w").close("p").leaf("c").close("a");
            d.close("r");
        });
        assert_eq!(d.delivered, [(Some(vec![0, 1]), 6), (Some(vec![2]), 10)]);
        // A binding's set is what flag propagations count.
        assert_eq!(d.machine.stats().flag_propagations, 3);
    }

    #[test]
    fn nested_owners_deliver_once_per_binding() {
        // `//a[p = $]//b` over `a` in `a`: the inner `a` holds for one
        // literal, the outer for the other or the same one.
        for (outer, inner) in [("y", "x"), ("x", "x"), ("x", "y"), ("w", "x")] {
            let d = agrees_with_one_literal_machines("//a[p = $]//b", &["x", "y"], |d| {
                d.open("a").open("p").text(outer).close("p");
                d.open("a").open("p").text(inner).close("p").leaf("b").close("a");
                d.leaf("b").close("a");
            });
            let deliveries = d.delivered.iter().map(|(to, _)| to.as_ref().map_or(2, Vec::len));
            assert!(deliveries.sum::<usize>() <= 4, "{outer}/{inner}: {:?}", d.delivered);
        }
    }

    #[test]
    fn a_variant_carries_a_solution_up_for_some_bindings() {
        // The owner `a` is not the root and lets `b` slide to the outer `a`:
        // what goes up to `r` (satisfied only once its `z` closes) goes for
        // the inner `a`'s literal only, a variant of the solution that also
        // waits below for the other.
        for (outer, inner) in [("x", "y"), ("y", "y"), ("w", "x")] {
            let d = agrees_with_one_literal_machines("//r[z]/a[p = $]//b", &["x", "y"], |d| {
                d.open("r").open("a").open("p").text(outer).close("p");
                d.open("r").open("a").open("p").text(inner).close("p").leaf("b");
                d.close("a").leaf("z").close("r").leaf("b").close("a").leaf("z").close("r");
            });
            assert!(d.machine.stats().candidates_copied > 0, "{outer}/{inner}: a variant was made");
        }
    }

    #[test]
    fn a_partly_satisfied_root_delivers_early_and_keeps_the_rest() {
        // Text results and element results decidable at the root while it
        // holds for some bindings: those get them at once, the rest later.
        agrees_with_one_literal_machines("//a[p = $]/text()", &["x", "y", "z"], |d| {
            d.open("a").open("p").text("x").close("p").text("t1");
            d.open("p").text("y").close("p").text("t2").close("a");
        });
        agrees_with_one_literal_machines("//a[p = $]/c/d", &["x", "y"], |d| {
            d.open("a").open("p").text("x").close("p").open("c").leaf("d").close("c");
            d.open("p").text("y").close("p").open("c").leaf("d").close("c").close("a");
        });
        agrees_with_one_literal_machines("//a[q/p = $]//c/@id", &["x", "y"], |d| {
            d.open("a").open("q").open("p").text("x").close("p").close("q");
            d.open("c").open_attrs("c", &[("id", "1")]).close("c").close("c");
            d.open("q").open("p").text("y").close("p").close("q").close("a");
        });
    }

    /// The binding set on the top entry of machine node `q`, and whether
    /// its flag bits are all set.
    fn lits_of(d: &Driver, q: usize) -> (Option<Vec<u32>>, bool) {
        let e = d.machine.stacks[q].last().expect("an open entry");
        let set = (e.lits != NONE).then(|| d.store.sets[e.lits].clone());
        (set, e.flags.all_set(d.machine.spec.nodes[q].nflags as usize))
    }

    #[test]
    fn an_attribute_test_files_its_bindings_on_the_entry_at_push() {
        // Machine nodes: r 0, a 1, b 2. The set is stored on `a` when it is
        // pushed; a value no binding names sets nothing.
        let mut d = Driver::new("/r/a[@id = 'x']/b");
        for literal in ["y", "z"] {
            d.machine.bind(literal);
        }
        d.open("r").open_attrs("a", &[("k", "x"), ("id", "y")]);
        assert_eq!(lits_of(&d, 1), (Some(vec![1]), true));
        d.open_attrs("b", &[("id", "z")]).close("b").close("a");
        d.open_attrs("a", &[("id", "w")]);
        assert_eq!(lits_of(&d, 1), (None, false));
        d.close("a").close("r");
        assert!(d.store.is_idle(), "the sets went back");
        // A test on a predicate node files them on the predicate's entry.
        let mut d = Driver::new("//p[q[@i = 'x']]/n");
        d.machine.bind("y");
        d.open("p").open_attrs("q", &[("i", "x")]);
        assert_eq!(lits_of(&d, 1), (Some(vec![0]), true));
        // With one binding the flag bit says it all.
        let mut d = Driver::new("/r/a[@id = 'x']/b");
        d.open("r").open_attrs("a", &[("id", "x")]);
        assert_eq!(lits_of(&d, 1), (None, true));
    }

    #[test]
    fn attribute_bindings_run_as_one_literal_machines() {
        // Nested owners under `//`: `b`'s name reaches `a` through the outer
        // item and `b` through the inner one.
        let d = agrees_with_one_literal_machines("//item[@id = $]//name", &["a", "b", "c"], |d| {
            d.open("r");
            d.open_attrs("item", &[("id", "a")]).open_attrs("item", &[("id", "b")]);
            d.leaf("name").close("item").close("item");
            d.open_attrs("item", &[("id", "b")]).open_attrs("item", &[("id", "a")]);
            d.leaf("name").close("item").leaf("name").close("item");
            d.close("r");
        });
        assert!(d.delivered.iter().all(|(to, _)| to.is_some()), "{:?}", d.delivered);
        // A test on a predicate node: the owner is its main-path ancestor.
        agrees_with_one_literal_machines("//person[profile[@income = $]]/name", &["1", "2"], |d| {
            d.open("site");
            d.open("person").leaf("name").open_attrs("profile", &[("income", "2")]);
            d.close("profile").open_attrs("profile", &[("income", "1")]).close("profile");
            d.close("person");
            d.open("person").open_attrs("profile", &[("income", "3")]).close("profile");
            d.leaf("name").close("person");
            d.close("site");
        });
        // A root owner early-emits at push, to its binding only.
        let d = agrees_with_one_literal_machines("//item[@id = $]/@id", &["a", "b"], |d| {
            d.open("r").open_attrs("item", &[("id", "b")]);
            d.close("item").open_attrs("item", &[("id", "z")]).close("item").close("r");
        });
        assert_eq!(d.delivered, [(Some(vec![1]), 2)], "delivered for `b` only");
    }

    #[test]
    fn the_table_confirms_the_bytes_a_hash_names() {
        let mut table = Bindings::new("x");
        assert_eq!(table.bind("y"), (1, true));
        assert_eq!(table.bind("x"), (0, false));
        assert_eq!(
            (table.lookup("x"), table.lookup("y"), table.lookup("z")),
            (Some(0), Some(1), None)
        );
        // File "zz" under binding 0 as a colliding hash would: still no match.
        let collision = fnv1a("zz".bytes());
        let at = table.index.partition_point(|&(h, _)| h < collision);
        table.index.insert(at, (collision, 0));
        assert_eq!(table.lookup("zz"), None);
        table.unbind(0);
        assert_eq!((table.lookup("y"), table.len()), (Some(0), 1), "later bindings move down");
    }
}
