//! The TwigM machine: stacks, transitions, lazy candidate propagation.
//!
//! This is the runtime half of the paper's contribution. Each stacked
//! machine node owns a stack of `Entry` values — the paper's triplet
//! *(level, match status of query children, candidate solutions)*. The
//! transitions below implement the `startElement` / `characters` /
//! `endElement` behaviour described in §3.2 of the paper, and each states
//! its rule: the push rule (`push_point`), bookkeeping at pop
//! (`end_element_to`), forwarding (`forward`), lazy inheritance (`fail`)
//! and emission (`reach_root`), the only way a solution leaves: neither
//! the machine nor anything between it and the API edge keeps a copy.
//!
//! Beside them sit the [`CandidateStore`] (`store.rs`), where a candidate
//! waits as an 8-byte instance of a solution stored once, and the binding
//! table (`bindings.rs`), through which one machine runs as many
//! one-literal machines at once.

mod bindings;
mod store;

use std::mem::size_of;

use vitex_xmlsax::event::Attributes;
use vitex_xmlsax::pos::ByteSpan;
use vitex_xpath::{Axis, CmpOp, Literal};

use crate::bitset::SmallBitSet;
use crate::builder::{AttrTest, Leaf, MachineSpec, Role};
use crate::predicate;
use crate::result::{MatchKind, MatchRef};
use crate::stats::MachineStats;
use bindings::Bindings;
pub use store::CandidateStore;
use store::{Cand, CAND_BYTES};

/// "No handle": an entry without candidates, text buffer or binding set, a
/// payload without a name, value or tag.
const NONE: u32 = u32::MAX;

/// Where a machine delivers a solution: to the bindings listed (ascending
/// binding ids), or with `None` to every binding it has (see
/// `bindings.rs`). The solution is lent for the call.
pub(crate) type Deliver<'a> = dyn FnMut(Option<&[u32]>, &MatchRef<'_>) + 'a;

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
    stacks: Vec<Vec<Entry>>,
    /// The parametric leaf's binding table (`None` without one).
    bindings: Option<Box<Bindings>>,
    stats: MachineStats,
}

impl TwigM {
    /// Wraps an already-compiled spec. A parametric leaf's literal becomes
    /// binding 0.
    pub fn from_spec(spec: MachineSpec) -> Self {
        let stacks = spec.nodes.iter().map(|_| Vec::new()).collect();
        let leaf = match spec.parametric {
            Some(Leaf::Node(q)) => spec.nodes[q].comparison.as_ref(),
            Some(Leaf::Attr(q, test)) => spec.nodes[q].attr_preds[test].test.comparison.as_ref(),
            None => None,
        };
        let bindings = match leaf {
            Some((CmpOp::Eq, Literal::Str(literal))) => Some(Box::new(Bindings::new(literal))),
            _ => None,
        };
        TwigM { spec, stacks, bindings, stats: MachineStats::default() }
    }

    /// How many literals the parametric leaf is looked up against: the
    /// bindings a shape group's subscribers test, one for a lone query and
    /// for a machine without a parametric leaf.
    pub fn binding_count(&self) -> usize {
        self.bindings.as_ref().map_or(1, |b| b.len())
    }

    /// Binds `literal` to the parametric leaf: its binding id (new
    /// bindings come last) and whether it is new: binding 0, without a
    /// table. Between documents only.
    pub(crate) fn bind(&mut self, literal: &str) -> (u32, bool) {
        self.bindings.as_mut().map_or((0, false), |b| b.bind(literal))
    }

    /// Drops binding `id`; the later ones move down by one. Between
    /// documents only.
    pub(crate) fn unbind(&mut self, id: u32) {
        self.bindings.iter_mut().for_each(|b| b.unbind(id));
    }

    /// The compiled layout.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
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
                if let Role::Pred(..) = node.role { " ?" } else { "" },
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
        let n = self.binding_count();
        let Self { spec, stacks, bindings, stats, .. } = self;
        // The parametric attribute test, if any, and its binding table.
        let leaf = match (spec.parametric, bindings.as_deref()) {
            (Some(Leaf::Attr(node, test)), Some(table)) => Some((node, test, table)),
            _ => None,
        };
        let mut hit = false;
        for (q, ptr) in pushes.map(|(q, ptr)| (q as usize, ptr)) {
            hit = true;
            let node = &spec.nodes[q];
            let own_index = stacks[q].len() as u32;
            let flags = SmallBitSet::empty(node.nflags as usize);
            let mut entry = Entry {
                level,
                ptr,
                node_id,
                flags,
                cands: NONE,
                max_low: 0,
                text: NONE,
                lits: NONE,
            };
            // Inline attribute predicates are decidable right now; the
            // parametric one names its bindings.
            for (i, ap) in node.attr_preds.iter().enumerate() {
                stats.predicate_evals += 1;
                let (slot, test) = (ap.slot as usize, &ap.test);
                let mut named = attributes.iter().filter(|&(name, _)| name_matches(test, name));
                let Some((.., table)) = leaf.filter(|&(at, t, _)| (at, t) == (q, i)) else {
                    if named.any(|(_, value)| cmp_opt(&test.comparison, value)) {
                        set_flag(stats, &mut entry, slot);
                    }
                    continue;
                };
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
                    if name_matches(ar, name) && cmp_opt(&ar.comparison, value) {
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
            // are already satisfied (e.g. it has none), any candidate born
            // here is a solution *now* — deliver it instead of buffering it
            // until the root element closes. This is what makes queries like
            // `//site/people/person/@id` stream with O(1) candidate memory.
            // (A root that owns a parametric element leaf is never satisfied
            // yet: the leaf has not popped. One holding its parametric
            // attribute test for some bindings delivers to those, for good:
            // the others failed.)
            if q == 0 && entry.cands != NONE && entry.flags.all_set(node.nflags as usize) {
                let born = store.detach(&entry);
                for &c in &born {
                    reach_root(stats, store, c, entry.lits, true, n, emit);
                }
                store.recycle(&entry, born);
                (entry.cands, entry.max_low) = (NONE, 0);
            }
            if node.comparison.is_some() {
                entry.text = store.string("");
            }
            stats.on_push(entry_base_bytes(&entry));
            stacks[q].push(entry);
        }
        stats.dispatch_hits += u64::from(hit);
    }

    /// Where would machine node `q` attach for an element at `level`? The
    /// push rule: an element is pushed onto every machine node whose name
    /// test it satisfies *and* whose axis is witnessed by the parent
    /// machine node's stack (child: an open entry exactly one level up;
    /// descendant: any open entry); the answer is the pointer into that
    /// stack. The step trie decides every push with it, once per trie step,
    /// on the step's first route, against the stacks *before* the element's
    /// own pushes, so an element can never serve as its own ancestor (as in
    /// `//a//a`).
    #[inline]
    pub(crate) fn push_point(&self, q: usize, level: u32) -> Option<u32> {
        let node = &self.spec.nodes[q];
        match node.parent() {
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
                    Axis::Descendant => (stack.len() as u32).checked_sub(1),
                }
            }
        }
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
                        if !top.flags.get(tp.slot as usize) && cmp_opt(&tp.comparison, text) {
                            top.flags.set(tp.slot as usize);
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
                // Early emission (see `start_element_prefix`); a root satisfied
                // for some bindings keeps the text for the others, if any.
                let at_root = p == 0 && top.flags.all_set(spec.nodes[p].nflags as usize);
                let fin = root_set_is_final(spec);
                if !(at_root && reach_root(stats, store, c, top.lits, fin, n, emit)) {
                    store.arrive(top, &mut false, c, false);
                }
            }
        }
    }

    /// `endElement`: pop every machine node whose top entry belongs to the
    /// closing element, innermost query nodes first, bookkeeping flags and
    /// candidates into parents. A satisfied *predicate* entry sets its
    /// match flag on **every** compatible parent entry — flags are single
    /// bits, so this eager fan-out is cheap and encodes what would
    /// otherwise be exponentially many match combinations. A satisfied
    /// *main-path* entry forwards its candidates one query level up
    /// ([`TwigM::forward`]); a failed one lets them slide down
    /// ([`TwigM::fail`]). Solutions reaching the machine root are handed to
    /// `emit`, with the bindings they go to.
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
            if let Some(e) = self.stacks[q].pop_if(|top| top.level == level) {
                self.pop_entry(store, q, e, name, element_span, emit);
            }
        }
    }

    /// Pops `e`, the former top of machine node `q`'s stack.
    fn pop_entry(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        mut e: Entry,
        name: &str,
        element_span: ByteSpan,
        emit: &mut Deliver<'_>,
    ) {
        let n = self.binding_count();
        let Self { spec, stacks, bindings, stats, .. } = self;
        let idx = stacks[q].len() as u32;
        let node = &spec.nodes[q];
        let base = entry_base_bytes(&e);

        let mut satisfied = e.flags.all_set(node.nflags as usize);
        // The binding a parametric leaf's string-value names.
        let (leaf, mut bound) = (spec.parametric == Some(Leaf::Node(q)), NONE);
        if let Some((op, lit)) = &node.comparison {
            stats.predicate_evals += 1;
            let value = store.str(e.text);
            satisfied &= match bindings.as_deref() {
                Some(table) if leaf => table.lookup(value).inspect(|&id| bound = id).is_some(),
                _ => predicate::compare(value, *op, lit),
            };
        }
        // Release the entry's byte accounting now; candidate bytes travel
        // with the candidates.
        if e.text != NONE {
            stats.sub_bytes(store.strings[e.text].len() as u64);
            store.strings.give(e.text);
        }

        if let Role::Pred(parent, slot) = node.role {
            // Predicate node: propagate the match flag — with several
            // bindings, for the ones this subtree satisfied; no candidates
            // live here.
            debug_assert!(e.cands == NONE, "predicate entries never hold candidates");
            if satisfied {
                let parents = match node.axis {
                    Axis::Child => e.ptr as usize..=e.ptr as usize,
                    Axis::Descendant => 0..=e.ptr as usize,
                };
                let (parents, slot) = (&mut stacks[parent][parents], slot as usize);
                if n == 1 || (!leaf && e.lits == NONE) {
                    parents.iter_mut().for_each(|t| set_flag(stats, t, slot));
                } else if leaf {
                    parents.iter_mut().for_each(|t| add_lits(stats, store, t, slot, &[bound]));
                } else {
                    let set = std::mem::take(&mut store.sets[e.lits]);
                    parents.iter_mut().for_each(|t| add_lits(stats, store, t, slot, &set));
                    store.sets[e.lits] = set;
                }
            }
            stats.on_pop(base);
        } else {
            // Owning the parametric leaf of a machine with several
            // bindings, the entry may hold for some of them only: the set
            // its flag stands for.
            let sat = match e.lits {
                _ if !satisfied => Sat::No,
                set if store.holds_all(set, n) => Sat::All,
                set => Sat::Some(set),
            };
            self.pop_main(store, q, idx, &mut e, sat, base, name, element_span, emit);
        }
        if e.lits != NONE {
            store.sets.give(e.lits);
        }
    }

    /// The main-path half of a pop: the entry (at index `idx` of its stack)
    /// was satisfied as `sat` says. Its candidates slide down if it failed
    /// ([`TwigM::fail`]) and go up if it held ([`TwigM::forward`]); where
    /// they reach a satisfied root entry — this one, the parent entry they
    /// go up to, or the root entry they slide onto — they are solutions
    /// ([`reach_root`]). An owner of the parametric leaf that holds for some
    /// bindings only is both at once: at a satisfied root its candidates
    /// are delivered to those and fail for the others; elsewhere they go up
    /// for those only ([`TwigM::forward_tagged`]).
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
        if e.cands == NONE {
            return;
        }
        let mut cands = store.detach(e);
        let own = match sat {
            Sat::No => return self.fail(store, q, idx, e, cands, n, emit),
            Sat::All => NONE,
            Sat::Some(set) => set,
        };
        let Some(p) = node.parent() else {
            // The root: solutions for the bindings it holds for.
            cands.retain(|&c| !reach_root(stats, store, c, own, false, n, emit));
            return self.fail(store, q, idx, e, cands, n, emit);
        };
        let (pn, target) = (&spec.nodes[p], &stacks[p][e.ptr as usize]);
        let root = p == 0 && target.flags.all_set(pn.nflags as usize);
        if !root && own != NONE {
            return self.forward_tagged(store, q, p, idx, e, cands, own);
        }
        stats.candidates_forwarded += cands.len() as u64;
        if root {
            // The root entry's bindings, or this entry's (at most one of
            // the two owns the parametric leaf). What ends here skips
            // `forward`: its down-copies could only be duplicates. A final
            // set ends a candidate that reaches no other root entry: one on
            // entry 0, or, up a child edge, one leaving no down-copy.
            let held = if own == NONE { target.lits } else { own };
            let (fin, child) = (root_set_is_final(spec), node.axis == Axis::Child);
            let fin = |c: Cand| fin && (e.ptr == 0 || (child && c.low >= idx));
            cands.retain(|&c| !reach_root(stats, store, c, held, fin(c), n, emit));
        }
        if own == NONE {
            self.forward(store, q, p, idx, e, cands)
        } else {
            self.fail(store, q, idx, e, cands, n, emit)
        }
    }

    /// Candidates of a satisfied non-root entry go up to machine node `p`,
    /// attached to the **deepest** compatible parent entry `P = e.ptr`.
    /// Outer alternatives are kept by lazy inheritance instead of eager
    /// copying ([`TwigM::fail`]), and a copy goes down this stack only up a
    /// child edge:
    /// * up a child edge the original is pinned to `P` (`low = P`), while
    ///   the outer entries of this stack point below `P`: a copy slides down
    ///   to the entry below, because chains through those may succeed where
    ///   the inner chain's continuation fails;
    /// * up a descendant edge the original goes with `low = 0`, so it
    ///   already slides to every parent entry `≤ P`. A copy could only
    ///   reach parent entries `≤ ptr(idx − 1) ≤ P`, which the original
    ///   reaches too, and a solution reaching the root twice is suppressed
    ///   there (`Payload::emitted`). So none is made.
    fn forward(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        p: usize,
        idx: u32,
        e: &Entry,
        mut cands: Vec<Cand>,
    ) {
        let Self { spec, stacks, stats, .. } = self;
        let axis = spec.nodes[q].axis;
        // Up a child edge, the outer entries of *this* stack are the only
        // way to the parent entries below `P`: copy candidates down (lazy
        // inheritance keeps them moving). Up a descendant edge the original
        // reaches those entries itself.
        if axis == Axis::Child && idx > 0 {
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
        let new_low = match axis {
            Axis::Child => e.ptr,
            Axis::Descendant => 0,
        };
        cands.iter_mut().for_each(|c| c.low = new_low);
        store.move_up(stats, e, cands, &mut stacks[p][e.ptr as usize], new_low)
    }

    /// Candidates of a non-root entry that owns the parametric leaf and is
    /// satisfied for the bindings in the set `s` only. For the others it
    /// failed: every candidate that may slide down does. What goes up to
    /// machine node `p`, goes for `s` only, as a tagged instance.
    #[allow(clippy::too_many_arguments)]
    fn forward_tagged(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        p: usize,
        idx: u32,
        e: &Entry,
        mut cands: Vec<Cand>,
        s: u32,
    ) {
        let Self { spec, stacks, stats, .. } = self;
        let node = &spec.nodes[q];
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
        store.move_up(stats, e, cands, &mut stacks[p][e.ptr as usize], new_low)
    }

    /// Candidates of an entry that failed (for every binding, or for all
    /// but those they were just delivered to) follow the lazy inheritance
    /// rule: a candidate records the lowest stack index it is compatible
    /// with (`low`), and when the entry holding it pops it slides to the
    /// entry below if that is still ≥ `low` — its chances through outer
    /// ancestors stay alive without ever materializing the match
    /// combinations — or is discarded at its bound. A candidate sliding
    /// onto a satisfied root entry is a solution then, as is one going up
    /// to it.
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &mut self,
        store: &mut CandidateStore,
        q: usize,
        idx: u32,
        e: &Entry,
        mut cands: Vec<Cand>,
        n: usize,
        emit: &mut Deliver<'_>,
    ) {
        let Self { spec, stacks, stats, .. } = self;
        let Some(below) = stacks[q].last_mut() else {
            // The bottom entry (`idx` 0): nothing to slide onto.
            for &c in &cands {
                stats.on_candidate_dropped(store.release(c));
            }
            return store.recycle(e, cands);
        };
        if q == 0 && below.flags.all_set(spec.nodes[0].nflags as usize) {
            // The entry below already holds, so a candidate that may slide
            // onto it is decided now, not when that entry closes. A final
            // set ends it on the bottom entry, or where it slides no
            // further.
            let fin = root_set_is_final(spec);
            let fin = |c: Cand| fin && (idx == 1 || c.low + 1 >= idx);
            let held = below.lits;
            cands.retain(|&c| c.low >= idx || !reach_root(stats, store, c, held, fin(c), n, emit));
        }
        if e.max_low < idx && !cands.is_empty() {
            if below.cands == NONE {
                // All of them slide, onto nothing: the list itself moves.
                stats.candidates_inherited += cands.len() as u64;
                return store.hand_over(e, cands, below, e.max_low);
            }
            if cands.iter().all(|c| store.payloads[c.payload].instances == 1) {
                // All of them slide, and none can meet its solution below:
                // the list is appended whole.
                stats.candidates_inherited += cands.len() as u64;
                return store.append(e, cands, below, e.max_low);
            }
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

/// Emission: `c` has reached a satisfied entry of the machine *root*, and
/// candidates there are solutions (paper: "a node matching the root of
/// TwigM ensures that the candidate solutions associated with it are
/// indeed query solutions"). The root holds for the bindings in the set
/// `held` ([`NONE`]: all of them); the solution goes at once to those of
/// them it stands for and has not reached, so a solution reaching the root
/// along several chains is delivered once per binding. Returns whether `c`
/// ends here: when `held` is every binding (a duplicate, if it delivered
/// nothing), or is `fin`al for `c` (the others failed for good and `c`
/// reaches no other root entry; discarded, if it delivered nothing).
#[inline]
fn reach_root(
    stats: &mut MachineStats,
    store: &mut CandidateStore,
    c: Cand,
    held: u32,
    fin: bool,
    n: usize,
    emit: &mut Deliver<'_>,
) -> bool {
    let (delivered, all) = (store.deliver(c, held, n, emit), store.holds_all(held, n));
    if !fin && !all {
        stats.emitted += u64::from(delivered);
        return false;
    }
    let bytes = store.release(c);
    match (delivered, all) {
        (true, _) => stats.on_candidate_emitted(bytes),
        (false, true) => stats.on_candidate_suppressed(bytes),
        (false, false) => stats.on_candidate_dropped(bytes),
    }
    true
}

/// Whether a root entry's binding set is final once it is pushed: the
/// root carries the parametric attribute test, which decides the set then.
fn root_set_is_final(spec: &MachineSpec) -> bool {
    matches!(spec.parametric, Some(Leaf::Attr(0, _)))
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

/// Does an attribute test's name (`None` for `@*`) match a concrete name?
fn name_matches(test: &AttrTest, name: &str) -> bool {
    test.name.as_deref().is_none_or(|t| t == name)
}

/// Optional comparison: `None` is existence (always true).
fn cmp_opt(comparison: &Option<(CmpOp, Literal)>, value: &str) -> bool {
    match comparison {
        None => true,
        Some((op, lit)) => predicate::compare(value, *op, lit),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::bindings::fnv1a;
    use super::store::Payload;
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
            let spec = MachineSpec::compile(&QueryTree::parse(query).unwrap()).unwrap();
            Driver {
                machine: TwigM::from_spec(spec),
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
        // lazy-inheritance rule (`TwigM::forward`): an inner satisfied step
        // whose own parent fails must not steal the candidate from a viable
        // outer chain.
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
    fn a_solution_on_two_chains_is_emitted_once() {
        // The chain-stealing document: `c` completes the inner `a/b` chain
        // and, through lazy inheritance, the outer one.
        let mut d = Driver::new("//a[p]/b[q]//c");
        d.open("a").leaf("p").open("b");
        d.open("a").leaf("p").open("b").leaf("q").leaf("c").close("b").close("a");
        d.leaf("q").close("b").close("a");
        assert_eq!(d.matches.len(), 1);
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

    const _: () = assert!(size_of::<crate::builder::MachineNode>() == 184);

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
        // Two towers of the benchmark's recursive shape, with a child edge
        // under the middle step: every tower merges down-copies into lists
        // that already hold the same solutions, which takes a stamping pass
        // per merge. Started two epochs short of the wrap, the run crosses
        // it; a stale stamp surviving the wrap would merge the wrong pair
        // (or none) and move the counters.
        let run = |epoch: u32| {
            let mut d = Driver::new("//*[author]//*/*[position]//*");
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
    fn only_a_child_edge_copies_down() {
        // The inner `<c>` forwards `<d>` to its own parent, `<b>` entry 1,
        // pinned there by the `/` edge; the outer `<c>` is the only way to
        // `<b>` entry 0, so a copy slides down to it. Both reach `<a>`,
        // where the copy merges into the original. The `//` edges up to
        // `<c>` and to `<a>` copy none.
        let mut d = Driver::new("//a[x]//b/c//d");
        d.open("r").open("a").open("b").open("c").open("b").open("c").leaf("d");
        d.close("c").close("b").close("c").close("b").leaf("x").close("a").close("r");
        let s = d.machine.stats();
        assert_eq!((s.candidates_copied, s.candidates_merged), (1, 1), "{s:?}");
        assert_eq!(d.matches.len(), 1);
    }

    #[test]
    fn a_candidate_sliding_onto_a_satisfied_root_is_delivered_then() {
        // The outer `<a>` holds once its first `<a>` closed; the second
        // never does. The second `<c>` goes up the `//` edge to it, the
        // deepest root entry, and slides onto the outer one when it pops:
        // decided there, at the inner `</a>`, not at the outer one.
        let mut d = Driver::new("//a[a//c]//*//c");
        d.open("a").open("a").leaf("c").close("a");
        d.open("a").open("e").leaf("c").close("e").leaf("d").close("a");
        assert_eq!(d.names(), [5]);
        d.close("a");
        assert_eq!(d.names(), [5, 2]);
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
    /// Returns the shared driver and all of its machine's statistics.
    fn agrees_with_one_literal_machines(
        shape: &str,
        literals: &[&str],
        events: impl Fn(&mut Driver),
    ) -> (Driver, [u64; 19]) {
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
        let stats = all_fields(shared.machine.stats());
        (shared, stats)
    }

    /// Every field of `s`, in declaration order: what a test pins.
    fn all_fields(s: &MachineStats) -> [u64; 19] {
        let MachineStats {
            pushes,
            pops,
            flag_propagations,
            predicate_evals,
            dispatch_hits,
            candidates_created,
            candidates_forwarded,
            candidates_inherited,
            candidates_discarded,
            candidates_merged,
            candidates_copied,
            emitted,
            duplicates_suppressed,
            live_entries,
            peak_entries,
            live_candidates,
            peak_candidates,
            live_bytes,
            peak_bytes,
        } = *s;
        [
            pushes,
            pops,
            flag_propagations,
            predicate_evals,
            dispatch_hits,
            candidates_created,
            candidates_forwarded,
            candidates_inherited,
            candidates_discarded,
            candidates_merged,
            candidates_copied,
            emitted,
            duplicates_suppressed,
            live_entries,
            peak_entries,
            live_candidates,
            peak_candidates,
            live_bytes,
            peak_bytes,
        ]
    }

    #[test]
    fn an_owner_holds_the_set_of_bindings_its_leaves_satisfied() {
        // Two `p` children satisfy two literals on one `a`: its `c` reaches
        // both in one delivery; the second `a` reaches one; the third none.
        let (d, _) = agrees_with_one_literal_machines("//a[p = $]/c", &["x", "y", "z"], |d| {
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
        // The full statistics were recorded before the satisfied-root
        // rule became one function, and must not move.
        for (outer, inner, stats) in [
            ("y", "x", [6, 6, 2, 2, 6, 2, 2, 1, 2, 0, 0, 3, 0, 0, 3, 0, 2, 0, 226]),
            ("x", "x", [6, 6, 2, 2, 6, 2, 2, 1, 2, 0, 0, 2, 0, 0, 3, 0, 2, 0, 226]),
            ("x", "y", [6, 6, 2, 2, 6, 2, 2, 1, 2, 0, 0, 3, 0, 0, 3, 0, 2, 0, 226]),
            ("w", "x", [6, 6, 1, 2, 6, 2, 2, 1, 2, 0, 0, 1, 0, 0, 3, 0, 2, 0, 226]),
        ] {
            let (d, got) = agrees_with_one_literal_machines("//a[p = $]//b", &["x", "y"], |d| {
                d.open("a").open("p").text(outer).close("p");
                d.open("a").open("p").text(inner).close("p").leaf("b").close("a");
                d.leaf("b").close("a");
            });
            let deliveries = d.delivered.iter().map(|(to, _)| to.as_ref().map_or(2, Vec::len));
            assert!(deliveries.sum::<usize>() <= 4, "{outer}/{inner}: {:?}", d.delivered);
            assert_eq!(got, stats, "{outer}/{inner}");
        }
    }

    #[test]
    fn a_variant_carries_a_solution_up_for_some_bindings() {
        // The owner `a` is not the root and lets `b` slide to the outer `a`:
        // what goes up to `r` (satisfied only once its `z` closes) goes for
        // the inner `a`'s literal only, a variant of the solution that also
        // waits below for the other.
        for (outer, inner, stats) in [
            ("x", "y", [10, 10, 4, 2, 10, 2, 5, 1, 1, 0, 2, 3, 0, 0, 5, 0, 3, 0, 321]),
            ("y", "y", [10, 10, 4, 2, 10, 2, 5, 1, 1, 0, 2, 2, 1, 0, 5, 0, 3, 0, 321]),
            ("w", "x", [10, 10, 3, 2, 10, 2, 3, 1, 2, 0, 1, 1, 0, 0, 5, 0, 2, 0, 321]),
        ] {
            let (_, got) =
                agrees_with_one_literal_machines("//r[z]/a[p = $]//b", &["x", "y"], |d| {
                    d.open("r").open("a").open("p").text(outer).close("p");
                    d.open("r").open("a").open("p").text(inner).close("p").leaf("b");
                    d.close("a").leaf("z").close("r").leaf("b").close("a").leaf("z").close("r");
                });
            assert!(got[10] > 0, "{outer}/{inner}: a variant was made");
            assert_eq!(got, stats, "{outer}/{inner}");
        }
    }

    #[test]
    fn a_partly_satisfied_root_delivers_early_and_keeps_the_rest() {
        // Text results and element results decidable at the root while it
        // holds for some bindings: those get them at once, the rest later.
        let (_, stats) =
            agrees_with_one_literal_machines("//a[p = $]/text()", &["x", "y", "z"], |d| {
                d.open("a").open("p").text("x").close("p").text("t1");
                d.open("p").text("y").close("p").text("t2").close("a");
            });
        assert_eq!(stats, [3, 3, 2, 2, 3, 2, 0, 0, 2, 0, 0, 3, 0, 0, 2, 0, 2, 0, 180]);
        let (_, stats) = agrees_with_one_literal_machines("//a[p = $]/c/d", &["x", "y"], |d| {
            d.open("a").open("p").text("x").close("p").open("c").leaf("d").close("c");
            d.open("p").text("y").close("p").open("c").leaf("d").close("c").close("a");
        });
        assert_eq!(stats, [7, 7, 2, 2, 7, 2, 4, 0, 0, 0, 0, 3, 0, 0, 3, 0, 2, 0, 274]);
        let (_, stats) =
            agrees_with_one_literal_machines("//a[q/p = $]//c/@id", &["x", "y"], |d| {
                d.open("a").open("q").open("p").text("x").close("p").close("q");
                d.open("c").open_attrs("c", &[("id", "1")]).close("c").close("c");
                d.open("q").open("p").text("y").close("p").close("q").close("a");
            });
        assert_eq!(stats, [7, 7, 4, 2, 7, 1, 1, 0, 0, 0, 0, 2, 0, 0, 3, 0, 1, 0, 212]);
        // A root whose set its attribute test decided at push: the others
        // failed for good, so its text results end once delivered, as they
        // do in the lone query's machine.
        let events = |d: &mut Driver| {
            d.open("r").open_attrs("item", &[("id", "a")]).text("t1").leaf("x").text("t2");
            d.leaf("x").text("t3").close("item").close("r");
        };
        let (_, stats) =
            agrees_with_one_literal_machines("//item[@id = $]/text()", &["a", "b"], events);
        assert_eq!(stats, [1, 1, 1, 1, 1, 3, 0, 0, 0, 0, 0, 3, 0, 0, 1, 0, 1, 0, 114]);
        let mut alone = Driver::new("//item[@id = 'a']/text()");
        events(&mut alone);
        let alone = all_fields(alone.machine.stats());
        assert_eq!((alone[16], alone[8]), (stats[16], stats[8]), "peak and discarded candidates");
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
        let (d, stats) =
            agrees_with_one_literal_machines("//item[@id = $]//name", &["a", "b", "c"], |d| {
                d.open("r");
                d.open_attrs("item", &[("id", "a")]).open_attrs("item", &[("id", "b")]);
                d.leaf("name").close("item").close("item");
                d.open_attrs("item", &[("id", "b")]).open_attrs("item", &[("id", "a")]);
                d.leaf("name").close("item").leaf("name").close("item");
                d.close("r");
            });
        assert!(d.delivered.iter().all(|(to, _)| to.is_some()), "{:?}", d.delivered);
        // The inner items' candidates slide onto the outer ones, which hold
        // for their own literal from push: delivered then, they end on the
        // bottom entry.
        assert_eq!(stats, [7, 7, 4, 4, 7, 3, 3, 0, 0, 0, 0, 5, 0, 0, 3, 0, 1, 0, 212]);
        // Reaching the inner root entry along a child edge, `name`'s
        // solution leaves a down-copy on the outer `x`, whose chain reaches
        // the outer root entry: delivered to `b`, it is not final there,
        // and the copy goes on to `a`.
        let (d, _) =
            agrees_with_one_literal_machines("//item[@id = $]/x//name", &["a", "b"], |d| {
                d.open_attrs("item", &[("id", "a")]).open("x").open_attrs("item", &[("id", "b")]);
                d.open("x").leaf("name").close("x").close("item").close("x").close("item");
            });
        assert_eq!(d.delivered, [(Some(vec![1]), 6), (Some(vec![0]), 6)]);
        // A test on a predicate node: the owner is its main-path ancestor.
        let (_, stats) = agrees_with_one_literal_machines(
            "//person[profile[@income = $]]/name",
            &["1", "2"],
            |d| {
                d.open("site");
                d.open("person").leaf("name").open_attrs("profile", &[("income", "2")]);
                d.close("profile").open_attrs("profile", &[("income", "1")]).close("profile");
                d.close("person");
                d.open("person").open_attrs("profile", &[("income", "3")]).close("profile");
                d.leaf("name").close("person");
                d.close("site");
            },
        );
        assert_eq!(stats, [7, 7, 4, 3, 7, 2, 2, 0, 1, 0, 0, 1, 0, 0, 2, 0, 1, 0, 164]);
        // A root owner early-emits at push, to its binding only.
        let (d, stats) =
            agrees_with_one_literal_machines("//item[@id = $]/@id", &["a", "b"], |d| {
                d.open("r").open_attrs("item", &[("id", "b")]);
                d.close("item").open_attrs("item", &[("id", "z")]).close("item").close("r");
            });
        assert_eq!(d.delivered, [(Some(vec![1]), 2)], "delivered for `b` only");
        assert_eq!(stats, [2, 2, 1, 2, 2, 2, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 115]);
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
