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
//!   copy also slides down (marked `shared`), because chains through outer
//!   entries may succeed where the inner chain's continuation fails;
//!   `shared` candidates are deduplicated at emission so each solution is
//!   reported exactly once.
//! * **emission** — candidates on a satisfied entry of the machine *root*
//!   are solutions (paper: "a node matching the root of TwigM ensures that
//!   the candidate solutions associated with it are indeed query
//!   solutions") and are handed to the caller immediately.

use std::collections::HashSet;
use std::mem::size_of;
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
    /// Candidate solutions currently waiting on this entry.
    cands: CandList,
    /// Accumulated descendant text (only for predicate leaves carrying a
    /// value comparison).
    text: Option<String>,
}

/// A candidate solution attached to a stack entry.
#[derive(Debug, Clone)]
struct Candidate {
    /// Lowest index in the *current* stack this candidate may slide down
    /// to (compatibility bound).
    low: u32,
    /// Another live instance of this candidate may exist (created by
    /// forward-time down-copying); emission must deduplicate.
    shared: bool,
    /// The payload that becomes a [`Match`].
    item: CandItem,
}

#[derive(Debug, Clone, PartialEq)]
struct CandItem {
    kind: MatchKind,
    node: u64,
    name: Option<Arc<str>>,
    span: ByteSpan,
    value: Option<Arc<str>>,
    level: u32,
}

impl CandItem {
    fn heap_bytes(&self) -> u64 {
        (self.name.as_ref().map_or(0, |n| n.len()) + self.value.as_ref().map_or(0, |v| v.len()))
            as u64
    }

    fn into_match(self) -> Match {
        Match {
            kind: self.kind,
            node: self.node,
            name: self.name,
            span: self.span,
            value: self.value,
            level: self.level,
        }
    }
}

fn cand_bytes(c: &Candidate) -> u64 {
    size_of::<Candidate>() as u64 + c.item.heap_bytes()
}

/// Once a list holds this many candidates, membership checks switch from a
/// linear scan to a hash index (one long-lived entry — e.g. the root
/// binding of a selective query — can accumulate the whole result set).
const CAND_INDEX_THRESHOLD: usize = 32;

/// An entry's candidate buffer with amortized O(1) duplicate detection.
#[derive(Debug, Clone, Default)]
struct CandList {
    items: Vec<Candidate>,
    index: Option<HashSet<u64>>,
}

impl CandList {
    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends a candidate known to be absent (freshly created ids).
    fn push_new(&mut self, c: Candidate) {
        if let Some(ix) = &mut self.index {
            ix.insert(c.item.node);
        }
        self.items.push(c);
        if self.index.is_none() && self.items.len() >= CAND_INDEX_THRESHOLD {
            self.index = Some(self.items.iter().map(|c| c.item.node).collect());
        }
    }

    /// Adds an arriving candidate, merging with an existing instance of
    /// the same solution (widest compatibility range wins).
    fn merge_or_push(&mut self, stats: &mut MachineStats, cand: Candidate) {
        let present = match &self.index {
            Some(ix) => ix.contains(&cand.item.node),
            None => self.items.iter().any(|c| c.item.node == cand.item.node),
        };
        if present {
            let existing = self
                .items
                .iter_mut()
                .find(|c| c.item.node == cand.item.node)
                .expect("index agrees with items");
            existing.low = existing.low.min(cand.low);
            existing.shared |= cand.shared;
            stats.on_candidate_merged(cand_bytes(&cand));
        } else {
            self.push_new(cand);
        }
    }

    /// Removes and returns all candidates (dropping the index).
    fn drain(&mut self) -> std::vec::Drain<'_, Candidate> {
        self.index = None;
        self.items.drain(..)
    }
}

fn entry_base_bytes(e: &Entry) -> u64 {
    size_of::<Entry>() as u64 + e.flags.heap_bytes() as u64
}

/// The TwigM machine.
///
/// Feed it SAX events ([`TwigM::start_element_interned`], [`TwigM::characters`],
/// [`TwigM::end_element`]); solutions come out of the `emit` callback of
/// `end_element` as soon as they are decidable. [`crate::engine::Engine`]
/// wires an [`vitex_xmlsax::XmlReader`] to this interface.
#[derive(Debug)]
pub struct TwigM {
    spec: MachineSpec,
    mode: EvalMode,
    stacks: Vec<Vec<Entry>>,
    /// Reusable per-event push plan (machine node, parent-stack ptr).
    plan: Vec<(u32, u32)>,
    /// Node ids of already-emitted shared candidates.
    emitted: HashSet<u64>,
    stats: MachineStats,
}

impl TwigM {
    /// Wraps an already-compiled spec.
    pub fn from_spec(spec: MachineSpec, mode: EvalMode) -> Self {
        let stacks = spec.nodes.iter().map(|_| Vec::new()).collect();
        TwigM {
            spec,
            mode,
            stacks,
            plan: Vec::new(),
            emitted: HashSet::new(),
            stats: MachineStats::default(),
        }
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
    /// the current state and the input event"). One line per stack entry:
    ///
    /// ```text
    /// [2] //table        L5 #4 flags 0/1 cands 1
    /// ```
    pub fn dump_state(&self) -> String {
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
                    e.cands.items.len()
                );
            }
        }
        out
    }

    /// Clears all run state (stacks, dedup set, statistics) so the machine
    /// can process another document.
    pub fn reset(&mut self) {
        for s in &mut self.stacks {
            s.clear();
        }
        self.emitted.clear();
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
        self.apply_pushes(&plan, level, attributes, node_id, attr_id_base, tag_span, emit);
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
        self.apply_pushes(&plan, level, attributes, node_id, attr_id_base, tag_span, emit);
        self.plan = plan;
        pushes
    }

    /// Phase 2 of `startElement`: apply a planned set of pushes.
    #[allow(clippy::too_many_arguments)]
    fn apply_pushes(
        &mut self,
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
        q: usize,
        ptr: u32,
        level: u32,
        attributes: &[Attribute],
        node_id: u64,
        attr_id_base: u64,
        tag_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let node = &self.spec.nodes[q];
        let own_index = self.stacks[q].len() as u32;
        let mut flags = SmallBitSet::empty(node.nflags as usize);
        // Inline attribute predicates are decidable right now.
        for ap in &node.attr_preds {
            self.stats.predicate_evals += 1;
            let hit = attributes.iter().any(|a| {
                attr_name_matches(ap.name.as_deref(), a.name.as_str())
                    && cmp_opt(&ap.comparison, &a.value)
            });
            if hit {
                flags.set(ap.slot.expect("predicate tests carry slots") as usize);
                self.stats.flag_propagations += 1;
            }
        }
        // Attribute-result candidates are born here, waiting on this entry.
        let mut cands = CandList::default();
        if let Some(ar) = &node.attr_result {
            for (i, a) in attributes.iter().enumerate() {
                if attr_name_matches(ar.name.as_deref(), a.name.as_str())
                    && cmp_opt(&ar.comparison, &a.value)
                {
                    let c = Candidate {
                        low: own_index,
                        shared: false,
                        item: CandItem {
                            kind: MatchKind::Attribute,
                            node: attr_id_base + i as u64,
                            name: Some(a.name.as_str().into()),
                            span: tag_span,
                            value: Some(a.value.as_str().into()),
                            level,
                        },
                    };
                    self.stats.on_candidate_created(cand_bytes(&c));
                    cands.push_new(c);
                }
            }
        }
        // Early emission: if this is the machine root and its predicates
        // are already satisfied (e.g. it has none), any candidate born here
        // is a solution *now* — deliver it instead of buffering it until
        // the root element closes. This is what makes queries like
        // `//site/people/person/@id` stream with O(1) candidate memory.
        let is_root = node.is_root;
        let nflags = node.nflags as usize;
        let needs_text = node.needs_text;
        if is_root && !cands.is_empty() && flags.all_set(nflags) {
            for c in cands.drain() {
                self.emit_candidate(c, emit);
            }
        }
        let text = needs_text.then(String::new);
        let entry = Entry { level, ptr, node_id, flags, cands, text };
        self.stats.on_push(entry_base_bytes(&entry));
        self.stacks[q].push(entry);
    }

    /// Delivers one candidate as a solution, deduplicating shared
    /// instances so every solution is reported exactly once.
    fn emit_candidate(&mut self, c: Candidate, emit: &mut dyn FnMut(Match)) {
        let bytes = cand_bytes(&c);
        if (c.shared || self.mode == EvalMode::Eager) && !self.emitted.insert(c.item.node) {
            self.stats.on_candidate_suppressed(bytes);
            return;
        }
        self.stats.on_candidate_emitted(bytes);
        emit(c.item.into_match());
    }

    /// `characters`: text predicates, string-value accumulation, text
    /// result candidates. `level` is the depth of the text's parent
    /// element.
    pub fn characters(
        &mut self,
        text: &str,
        level: u32,
        node_id: u64,
        span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        // Text predicates of elements whose entry is the direct parent.
        for &q in &self.spec.text_watchers {
            if let Some(top) = self.stacks[q].last_mut() {
                if top.level == level {
                    for tp in &self.spec.nodes[q].text_preds {
                        self.stats.predicate_evals += 1;
                        let slot = tp.slot.expect("predicate tests carry slots") as usize;
                        if !top.flags.get(slot) && cmp_opt(&tp.comparison, text) {
                            top.flags.set(slot);
                            self.stats.flag_propagations += 1;
                        }
                    }
                }
            }
        }
        // String-value accumulation: text belongs to the subtree of every
        // open entry of an accumulating node.
        for &q in &self.spec.text_accumulators {
            for e in self.stacks[q].iter_mut() {
                e.text.as_mut().expect("accumulators carry buffers").push_str(text);
            }
            let n = self.stacks[q].len() as u64;
            self.stats.add_bytes(n * text.len() as u64);
        }
        // Text-result candidates.
        if let Some(p) = self.spec.text_result_parent {
            let own_index = self.stacks[p].len().wrapping_sub(1) as u32;
            let pnode = &self.spec.nodes[p];
            let hot_root = pnode.is_root;
            let nflags = pnode.nflags as usize;
            let mut pending = None;
            if let Some(top) = self.stacks[p].last_mut() {
                if top.level == level {
                    let c = Candidate {
                        low: own_index,
                        shared: false,
                        item: CandItem {
                            kind: MatchKind::Text,
                            node: node_id,
                            name: None,
                            span,
                            value: Some(text.into()),
                            level,
                        },
                    };
                    self.stats.on_candidate_created(cand_bytes(&c));
                    if hot_root && top.flags.all_set(nflags) {
                        pending = Some(c); // early emission (see push_entry)
                    } else {
                        top.cands.push_new(c);
                    }
                }
            }
            if let Some(c) = pending {
                self.emit_candidate(c, emit);
            }
        }
    }

    /// `endElement`: pop every machine node whose top entry belongs to the
    /// closing element, innermost query nodes first, bookkeeping flags and
    /// candidates into parents. Solutions reaching the machine root are
    /// handed to `emit`.
    pub fn end_element(
        &mut self,
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
                self.pop_entry(q, name, element_span, emit);
            }
        }
    }

    fn pop_entry(
        &mut self,
        q: usize,
        name: &str,
        element_span: ByteSpan,
        emit: &mut dyn FnMut(Match),
    ) {
        let idx = self.stacks[q].len() - 1;
        let mut e = self.stacks[q].pop().expect("checked by caller");
        let node = &self.spec.nodes[q];

        // Release the entry's byte accounting now; candidate bytes travel
        // with the candidates.
        if let Some(t) = &e.text {
            self.stats.sub_bytes(t.len() as u64);
        }
        let base = entry_base_bytes(&e);

        let preds_ok = e.flags.all_set(node.nflags as usize);
        let cmp_ok = match &node.comparison {
            None => true,
            Some((op, lit)) => {
                self.stats.predicate_evals += 1;
                predicate::compare(e.text.as_deref().unwrap_or(""), *op, lit)
            }
        };
        let satisfied = preds_ok && cmp_ok;

        if !node.is_main {
            // Predicate node: propagate the match flag; no candidates live
            // here.
            debug_assert!(e.cands.is_empty(), "predicate entries never hold candidates");
            if satisfied {
                let slot = node.flag_slot.expect("predicate nodes have slots") as usize;
                let p = node.parent.expect("predicate nodes have parents");
                let stats = &mut self.stats;
                match node.axis {
                    Axis::Child => {
                        set_flag(stats, &mut self.stacks[p][e.ptr as usize], slot);
                    }
                    Axis::Descendant => {
                        for t in &mut self.stacks[p][..=e.ptr as usize] {
                            set_flag(stats, t, slot);
                        }
                    }
                }
            }
            self.stats.on_pop(base);
            return;
        }

        // Main-path node. A satisfied result entry is itself a candidate.
        if node.is_result && satisfied {
            let c = Candidate {
                low: idx as u32,
                shared: false,
                item: CandItem {
                    kind: MatchKind::Element,
                    node: e.node_id,
                    name: Some(name.into()),
                    span: element_span,
                    value: None,
                    level: e.level,
                },
            };
            self.stats.on_candidate_created(cand_bytes(&c));
            e.cands.push_new(c);
        }

        if satisfied && node.is_root {
            // Solutions! Emit immediately (the paper's incremental
            // delivery), deduplicating shared candidates.
            for c in e.cands.drain() {
                self.emit_candidate(c, emit);
            }
        } else if satisfied {
            let p = node.parent.expect("non-root nodes have parents");
            // If the forwarding target is the machine root with all its
            // predicates already satisfied, the candidates are solutions
            // right now — deliver instead of buffering (down-copies would
            // only ever produce duplicates, so they are skipped too).
            let target_hot = {
                let pn = &self.spec.nodes[p];
                pn.is_root && self.stacks[p][e.ptr as usize].flags.all_set(pn.nflags as usize)
            };
            if target_hot {
                for c in e.cands.drain() {
                    self.stats.candidates_forwarded += 1;
                    self.emit_candidate(c, emit);
                }
                self.stats.on_pop(base);
                return;
            }
            match self.mode {
                EvalMode::Compact => {
                    // Outer entries of *this* stack are alternative
                    // attachment points whose upward chains may succeed
                    // where this one's fails: copy candidates down, marked
                    // shared (lazy inheritance keeps them moving).
                    if idx > 0 {
                        let mut copies = Vec::new();
                        for c in &mut e.cands.items {
                            if c.low < idx as u32 {
                                c.shared = true;
                                copies.push(c.clone());
                            }
                        }
                        if !copies.is_empty() {
                            let stats = &mut self.stats;
                            let below = &mut self.stacks[q][idx - 1];
                            for copy in copies {
                                stats.on_candidate_copied(cand_bytes(&copy));
                                merge_candidate(stats, below, copy);
                            }
                        }
                    }
                    // Forward originals to the deepest compatible parent
                    // entry.
                    let new_low = match node.axis {
                        Axis::Child => e.ptr,
                        Axis::Descendant => 0,
                    };
                    let stats = &mut self.stats;
                    let target = &mut self.stacks[p][e.ptr as usize];
                    for mut c in e.cands.drain() {
                        c.low = new_low;
                        stats.candidates_forwarded += 1;
                        merge_candidate(stats, target, c);
                    }
                }
                EvalMode::Eager => {
                    // Strawman: copy to every compatible parent entry.
                    let lo = match node.axis {
                        Axis::Child => e.ptr as usize,
                        Axis::Descendant => 0,
                    };
                    let stats = &mut self.stats;
                    for c in e.cands.drain() {
                        let bytes = cand_bytes(&c);
                        for (t_idx, target) in
                            self.stacks[p][lo..=e.ptr as usize].iter_mut().enumerate()
                        {
                            let mut copy = c.clone();
                            copy.low = (lo + t_idx) as u32;
                            copy.shared = true;
                            if lo + t_idx == e.ptr as usize {
                                stats.candidates_forwarded += 1;
                            } else {
                                stats.on_candidate_copied(cand_bytes(&copy));
                            }
                            merge_candidate(stats, target, copy);
                        }
                        // The original is consumed by its copies.
                        let _ = bytes;
                    }
                }
            }
        } else {
            // Entry died: candidates slide down to the next compatible
            // entry of the same stack, or are discarded at their bound.
            let stats = &mut self.stats;
            if idx > 0 {
                // Split the borrow: the entry is already popped, so the
                // stack top is `idx - 1`.
                let below = self.stacks[q].last_mut().expect("idx > 0 means a lower entry exists");
                for c in e.cands.drain() {
                    if c.low < idx as u32 {
                        stats.candidates_inherited += 1;
                        merge_candidate(stats, below, c);
                    } else {
                        stats.on_candidate_dropped(cand_bytes(&c));
                    }
                }
            } else {
                for c in e.cands.drain() {
                    stats.on_candidate_dropped(cand_bytes(&c));
                }
            }
        }
        self.stats.on_pop(base);
    }
}

/// Sets a flag bit, counting only actual transitions.
fn set_flag(stats: &mut MachineStats, entry: &mut Entry, slot: usize) {
    if !entry.flags.get(slot) {
        entry.flags.set(slot);
        stats.flag_propagations += 1;
    }
}

/// Adds a candidate to an entry, merging with an existing instance of the
/// same document node (keeping the widest compatibility range).
fn merge_candidate(stats: &mut MachineStats, entry: &mut Entry, cand: Candidate) {
    entry.cands.merge_or_push(stats, cand);
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
            self.machine.characters(t, self.level, id, span, &mut |m| matches.push(m));
            self
        }

        fn close(&mut self, name: &str) -> &mut Self {
            let span = ByteSpan::new(0, self.offset);
            let level = self.level;
            let matches = &mut self.matches;
            self.machine.end_element(name, level, span, &mut |m| matches.push(m));
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
            let idle = (d.machine.stats().clone(), d.machine.dump_state());
            d.text("x");
            assert_eq!((d.machine.stats().clone(), d.machine.dump_state()), idle, "{query}");
            d.open("a").open("c");
            assert!(d.machine.text_live(), "{query}: <a> is open above <c>");
            d.close("c").text("x").close("a");
            assert!(!d.machine.text_live(), "{query}: <a> closed");
            d.close("r");
            assert_eq!(d.matches.len(), 1, "{query}");
        }
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
