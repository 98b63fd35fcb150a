//! The candidate store: instances, payloads, pooled lists and strings.
//!
//! The transitions move candidates far more often than they create them
//! (on the recursive benchmark document: 1 752 created, 49 272 moved), so
//! what moves is as small as it can be:
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
//!   buffers (names, values, string-value accumulators) in pools with free
//!   lists; entries hold `u32` handles into it. The multi-query executor
//!   owns the one store every engine drives its machines with and lends it
//!   to every transition, so a thousand machines share one set of warm
//!   buffers, a warm transition allocates nothing, and a machine at rest
//!   is its spec plus empty stacks. The executor resets it once per
//!   document, next to [`TwigM::reset`](super::TwigM::reset): a
//!   well-formed document hands every handle back, which makes that reset
//!   O(1); after an aborted document it reclaims what the abandoned
//!   entries still held.
//!
//! **Why hand-over preserves order and counters.** "The candidates slide
//! to the entry below" is, when the entry below holds none and every
//! candidate may slide (`max_low`, an upper bound on `low` over the list,
//! is below the popped index), the same as appending them one by one to an
//! empty list: same members, same order, none merged. So the list *handle*
//! moves, in O(1), and `candidates_inherited` grows by the list's length —
//! exactly what the walk would have counted. When the entry below holds a
//! list, every candidate may slide, and no solution has a second instance
//! (each payload's count is 1), none of them can be there already: the
//! walk would append each, in order, merging none, and so does one
//! `extend_from_slice` ([`CandidateStore::append`]), counted the same way.
//! Otherwise a list arriving at a non-empty list is merged in one pass over
//! both (`CandidateStore::arrive`): arrivals append in their own order, and
//! an arrival whose solution is already there widens that instance's range
//! instead — the outcome, and hence the emission order, of the one-by-one
//! walk. [`MachineStats`] counts these *logical* operations, per instance
//! and in the walk's order, so its counters and peaks do not depend on
//! which route a list took.

use std::mem::size_of;
use std::ops::{Index, IndexMut};

use vitex_xmlsax::pos::ByteSpan;

use super::bindings::Tag;
use super::{Entry, NONE};
use crate::result::{MatchKind, MatchRef};
use crate::stats::MachineStats;

/// A candidate instance: one solution waiting on one stack entry.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cand {
    /// Lowest index in the *current* stack this instance may slide down
    /// to (compatibility bound).
    pub(super) low: u32,
    /// The solution it stands for.
    pub(super) payload: u32,
}

pub(super) const CAND_BYTES: u64 = size_of::<Cand>() as u64;

/// A candidate solution — what becomes a [`MatchRef`] — and the state its
/// instances share.
#[derive(Debug)]
pub(super) struct Payload {
    pub(super) node: u64,
    pub(super) span: ByteSpan,
    pub(super) level: u32,
    /// Name and value strings in the store ([`NONE`] where the match has
    /// none).
    pub(super) name: u32,
    pub(super) value: u32,
    /// Live instances; the payload is freed with the last one.
    pub(super) instances: u32,
    /// Merge epoch this payload was last seen in on the receiving side,
    /// and its position in that list.
    pub(super) stamp: u32,
    pub(super) pos: u32,
    pub(super) kind: MatchKind,
    /// Already delivered (to every binding): any further instance reaching
    /// the root is a duplicate.
    pub(super) emitted: bool,
    /// Its [`Tag`] in the store, [`NONE`] for a solution that stands for
    /// every binding and has reached none of them.
    pub(super) tag: u32,
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

/// Recycled slots addressed by `u32` handles. A slot handed back keeps its
/// contents (and heap capacity) until it is taken again.
#[derive(Debug, Default)]
pub(super) struct Pool<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Pool<T> {
    pub(super) fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(T::default());
            self.slots.len() as u32 - 1
        })
    }

    pub(super) fn give(&mut self, handle: u32) {
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

/// The run-time memory of TwigM machines: candidate payloads (each
/// solution stored once), lists of 8-byte candidate instances, string
/// buffers and binding sets, pooled and recycled, so that a warm
/// transition allocates nothing.
///
/// One store serves any number of machines, as long as they are driven
/// from one place: pass it to every transition of every one of them, and
/// call [`CandidateStore::reset`] wherever the machines are
/// [reset](super::TwigM::reset). The multi-query executor owns the one
/// every engine drives its machines with.
#[derive(Debug, Default)]
pub(crate) struct CandidateStore {
    pub(super) payloads: Pool<Payload>,
    pub(super) lists: Pool<Vec<Cand>>,
    pub(super) strings: Pool<String>,
    /// Binding sets of entries (`Entry::lits`), ascending ids.
    pub(super) sets: Pool<Vec<u32>>,
    pub(super) tags: Pool<Tag>,
    /// The current merge epoch: a payload stamped with it is in the list
    /// being merged into, at its recorded position.
    pub(super) epoch: u32,
    /// Scratch: the bindings one delivery goes to.
    pub(super) to: Vec<u32>,
}

impl CandidateStore {
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
    pub(super) fn string(&mut self, s: &str) -> u32 {
        let h = self.strings.take();
        let buf = &mut self.strings[h];
        buf.clear();
        buf.push_str(s);
        h
    }

    /// The pooled string `h`, or `""` for [`NONE`].
    pub(super) fn str(&self, h: u32) -> &str {
        if h == NONE {
            ""
        } else {
            &self.strings[h]
        }
    }

    /// Stores a new solution, counts it, and returns its first instance.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn create(
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
    pub(super) fn payload_bytes(&self, payload: u32) -> u64 {
        let p = &self.payloads[payload];
        (size_of::<Payload>() + self.str(p.name).len() + self.str(p.value).len()) as u64
    }

    /// Ends one instance's life and returns the bytes that go with it: its
    /// own, plus the payload's when it was the last.
    pub(super) fn release(&mut self, c: Cand) -> u64 {
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

    /// The solution as the caller receives it, borrowing its strings from
    /// the pool.
    pub(super) fn match_ref(&self, payload: u32) -> MatchRef<'_> {
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

    /// Detaches `entry`'s list for a walk; [`CandidateStore::hand_over`],
    /// [`CandidateStore::move_up`] or [`CandidateStore::recycle`] ends it.
    pub(super) fn detach(&mut self, entry: &Entry) -> Vec<Cand> {
        std::mem::take(&mut self.lists[entry.cands])
    }

    /// Gives the detached list of `from` to `to`, which holds none.
    pub(super) fn hand_over(
        &mut self,
        from: &Entry,
        list: Vec<Cand>,
        to: &mut Entry,
        max_low: u32,
    ) {
        debug_assert!(to.cands == NONE && !list.is_empty());
        self.lists[from.cands] = list;
        to.cands = from.cands;
        to.max_low = max_low;
    }

    /// Appends the detached list of `from` to `to`'s non-empty one and
    /// returns it to the pool.
    pub(super) fn append(&mut self, from: &Entry, list: Vec<Cand>, to: &mut Entry, max_low: u32) {
        debug_assert!(to.cands != NONE && !list.is_empty());
        self.lists[to.cands].extend_from_slice(&list);
        to.max_low = to.max_low.max(max_low);
        self.recycle(from, list);
    }

    /// Returns the detached list of `from`, now walked, to the pool.
    pub(super) fn recycle(&mut self, from: &Entry, list: Vec<Cand>) {
        self.lists[from.cands] = list;
        self.lists.give(from.cands);
    }

    /// Moves the detached list of `from`, every `low` at most `max_low`,
    /// onto `to`: handed over when `to` holds none, otherwise arrival by
    /// arrival, counting each one absorbed.
    #[inline]
    pub(super) fn move_up(
        &mut self,
        stats: &mut MachineStats,
        from: &Entry,
        list: Vec<Cand>,
        to: &mut Entry,
        max_low: u32,
    ) {
        if to.cands == NONE && !list.is_empty() {
            return self.hand_over(from, list, to, max_low);
        }
        let mut stamped = false;
        for &c in &list {
            if self.arrive(to, &mut stamped, c, false) {
                stats.on_candidate_merged(CAND_BYTES);
            }
        }
        self.recycle(from, list);
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
    pub(super) fn arrive(
        &mut self,
        entry: &mut Entry,
        stamped: &mut bool,
        c: Cand,
        copy: bool,
    ) -> bool {
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
