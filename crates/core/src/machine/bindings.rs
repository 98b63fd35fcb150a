//! Bindings: one machine for many literals.
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

use super::store::{Cand, CandidateStore, Payload, CAND_BYTES};
use super::{Deliver, NONE};
use crate::stats::MachineStats;

/// FNV-1a over `bytes`: what a binding table files a literal under.
pub(super) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, fold)
}

/// A machine's binding table: the literals its parametric leaf is
/// compared with, by binding id (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct Bindings {
    /// Each binding's literal, by id: first-registration order.
    pub(super) literals: Vec<Box<str>>,
    /// `(fnv1a of the literal, binding id)`, ascending: the lookup index.
    pub(super) index: Vec<(u64, u32)>,
}

impl Bindings {
    /// A table binding `first` as binding 0.
    pub(super) fn new(first: &str) -> Self {
        let mut table = Bindings { literals: Vec::new(), index: Vec::new() };
        table.bind(first);
        table
    }

    pub(super) fn len(&self) -> usize {
        self.literals.len()
    }

    /// The binding whose literal is `value`: one hash, then a byte
    /// comparison per binding filed under it.
    pub(super) fn lookup(&self, value: &str) -> Option<u32> {
        let hash = fnv1a(value.bytes());
        let filed = &self.index[self.index.partition_point(|&(h, _)| h < hash)..];
        let mut ids = filed.iter().take_while(|&&(h, _)| h == hash).map(|&(_, id)| id);
        ids.find(|&id| *self.literals[id as usize] == *value)
    }

    /// `literal`'s binding id, and whether this call added it (as the last
    /// binding).
    pub(super) fn bind(&mut self, literal: &str) -> (u32, bool) {
        if let Some(id) = self.lookup(literal) {
            return (id, false);
        }
        let (hash, id) = (fnv1a(literal.bytes()), self.literals.len() as u32);
        self.index.insert(self.index.partition_point(|&(h, _)| h <= hash), (hash, id));
        self.literals.push(literal.into());
        (id, true)
    }

    /// Drops binding `id`; the later ones move down by one.
    pub(super) fn unbind(&mut self, id: u32) {
        self.literals.remove(id as usize);
        self.index.retain(|&(_, i)| i != id);
        self.index.iter_mut().filter(|(_, i)| *i > id).for_each(|(_, i)| *i -= 1);
    }
}

/// Which bindings a payload stands for, and which its solution reached
/// (see the module docs).
#[derive(Debug, Default)]
pub(super) struct Tag {
    /// The solution's own payload when this one is a variant of it
    /// (holding it alive; the variant has no strings of its own), [`NONE`]
    /// on the solution's payload.
    pub(super) base: u32,
    /// The bindings the payload stands for, ascending; empty for all.
    alive: Vec<u32>,
    /// On the solution's payload: the bindings already delivered to,
    /// ascending.
    done: Vec<u32>,
}

impl CandidateStore {
    /// Whether the binding set `set` stands for all `n` bindings: it is
    /// [`NONE`] (no set is kept) or full.
    #[inline]
    pub(super) fn holds_all(&self, set: u32, n: usize) -> bool {
        set == NONE || self.sets[set].len() == n
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
    /// the set `lits` that `c` stands for: a variant payload, holding the
    /// solution alive. `None` when `c` stands for none of them.
    pub(super) fn variant(&mut self, stats: &mut MachineStats, c: Cand, lits: u32) -> Option<Cand> {
        let (solution, _) = self.solution(c.payload);
        let tag = self.tag(solution, |store, alive| {
            let (_, stands) = store.solution(c.payload);
            let kept = |l: &u32| stands.is_empty() || stands.binary_search(l).is_ok();
            alive.extend(store.sets[lits].iter().copied().filter(kept));
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

    /// `c`, carried on for the bindings in the set `lits` only: its payload
    /// tagged in place when `c` is all there is of the solution, otherwise
    /// a variant, `c` itself ending here.
    pub(super) fn retag(&mut self, stats: &mut MachineStats, c: Cand, lits: u32) -> Option<Cand> {
        let p = &self.payloads[c.payload];
        if p.tag == NONE && p.instances == 1 {
            let tag = self.tag(NONE, |store, alive| alive.extend_from_slice(&store.sets[lits]));
            self.payloads[c.payload].tag = tag;
            return Some(c);
        }
        let up = self.variant(stats, c, lits);
        stats.on_candidate_dropped(self.release(c));
        up
    }

    /// Delivers `c`'s solution through `emit` to the bindings `c` stands
    /// for — those in the set `within` only, unless it holds all `n` — that
    /// the solution has not reached yet, and records them; `false` when
    /// there are none.
    pub(super) fn deliver(
        &mut self,
        c: Cand,
        within: u32,
        n: usize,
        emit: &mut Deliver<'_>,
    ) -> bool {
        let within = (!self.holds_all(within, n)).then(|| &self.sets[within][..]);
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
}
