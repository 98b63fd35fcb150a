//! Machine instrumentation.
//!
//! The paper's headline memory claim ("stable at 1 MB while streaming a
//! 75 MB Protein dataset") is about the *machine's* state, not the process
//! RSS. [`MachineStats`] accounts for exactly that state — stack entries,
//! candidate buffers, string-value accumulators — so experiments E1 and E6
//! can report peak machine-resident bytes without an OS profiler.
//!
//! This module is the one place that knows which counters a layer
//! reports, how they add up, what they are called on export and which of
//! them are *work*: each record has a **row table** — `(export name,
//! value)` in export order — and the deterministic section of
//! `vitex.metrics.v1`, the `--stats` lines and the cost ledger's bills all
//! read the records through it. A new counter is a field and a row here,
//! plus whoever increments it.

/// `name=value` for every row, space-separated: the `--stats` rendering of
/// a row table.
fn line(rows: &[(&'static str, u64)]) -> String {
    rows.iter().map(|(name, value)| format!("{name}={value}")).collect::<Vec<_>>().join(" ")
}

/// Document-stream counters maintained by the
/// [`crate::driver::DocumentDriver`] — one set per scan, shared verbatim
/// by single-query ([`crate::engine::EvalOutput`]) and multi-query
/// ([`crate::multi::MultiOutput`]) runs so both report identical
/// instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Elements seen in the scan.
    pub elements: u64,
    /// Text nodes seen in the scan.
    pub text_nodes: u64,
    /// Total SAX events processed (including structural events such as
    /// comments and the terminating `EndDocument`).
    pub events: u64,
}

impl StreamStats {
    /// The exported rows, in export order.
    pub fn rows(&self) -> [(&'static str, u64); 3] {
        [
            ("vitex_stream_events_total", self.events),
            ("vitex_stream_elements_total", self.elements),
            ("vitex_stream_text_nodes_total", self.text_nodes),
        ]
    }

    /// Adds `other` field by field: several scans as one record.
    pub(crate) fn add(&mut self, other: &StreamStats) {
        self.elements += other.elements;
        self.text_nodes += other.text_nodes;
        self.events += other.events;
    }

    /// Human-readable one-line summary: the rows.
    pub fn summary(&self) -> String {
        line(&self.rows())
    }
}

/// Plan-level counters reported by the multi-query planner
/// ([`crate::plan::QueryPlanner`]): how much standing-query structure the
/// shared-prefix plan collapsed. Exposed per run via
/// [`crate::multi::MultiOutput::plan`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanStats {
    /// Active subscriptions (registered queries minus removed ones).
    pub queries: u64,
    /// Active plan groups — the number of TwigM machines actually running.
    /// Equal to `queries` when no query duplicates another.
    pub groups: u64,
    /// Cumulative count of retired group slots recycled by later
    /// registrations: the planner's free-list keeps the group-id space
    /// (and the engine's dispatch bitsets) bounded by *peak* concurrent
    /// groups under churny add/remove sessions.
    pub recycled_slots: u64,
    /// Total stacked machine nodes across active group machines.
    pub machine_nodes: u64,
    /// Nodes in the shared step trie (one per distinct location-step
    /// prefix across all registered queries).
    pub trie_nodes: u64,
    /// Trie nodes on the main path of more than one plan group — the
    /// prefix structure the trie deduplicates.
    pub shared_trie_nodes: u64,
    /// Approximate bytes of compiled plan structure (machine specs, stacks
    /// at rest, trie, subscriber lists).
    pub plan_bytes: u64,

    // ----- step-trie execution counters -----
    // All four are per-*run* counters maintained by the runtime step trie
    // on the document thread (zero before the first run), so they are
    // identical across shard counts by construction.
    /// Main-path step checks executed against the shared trie this run —
    /// one per (event, trie node with live routes), instead of one per
    /// (event, group, machine node) as per-group planning would need. It
    /// scales with distinct trie nodes rather than with the query count.
    pub prefix_steps_executed: u64,
    /// Per-group main-path step checks *avoided* by sharing: for every
    /// executed trie check, `routes - 1` group machines did not have to
    /// re-evaluate the same axis/name witness.
    pub prefix_steps_saved: u64,
    /// Forks from shared trie state into per-group machines: entry
    /// deliveries where a trie push fanned out to each routed group's own
    /// stack (flags/candidates diverge per group from here on).
    pub prefix_forks: u64,
    /// Peak bytes of the shared trie stacks this run — the main-path
    /// match state the groups consult instead of each probing their own.
    pub prefix_stack_bytes: u64,
}

impl PlanStats {
    /// Queries per machine: 1.0 means no sharing, k means every machine
    /// serves k subscribers on average.
    pub fn dedup_ratio(&self) -> f64 {
        if self.groups == 0 {
            1.0
        } else {
            self.queries as f64 / self.groups as f64
        }
    }

    /// The exported rows, in export order: the plan's shape, then the
    /// step trie's run counters. `recycled_slots` and the dedup ratio are
    /// read off the record, not exported.
    pub fn rows(&self) -> [(&'static str, u64); 10] {
        [
            ("vitex_plan_queries", self.queries),
            ("vitex_plan_groups", self.groups),
            ("vitex_plan_machine_nodes", self.machine_nodes),
            ("vitex_plan_trie_nodes", self.trie_nodes),
            ("vitex_plan_shared_trie_nodes", self.shared_trie_nodes),
            ("vitex_plan_bytes", self.plan_bytes),
            ("vitex_prefix_steps_executed_total", self.prefix_steps_executed),
            ("vitex_prefix_steps_saved_total", self.prefix_steps_saved),
            ("vitex_prefix_forks_total", self.prefix_forks),
            ("vitex_prefix_stack_bytes_peak", self.prefix_stack_bytes),
        ]
    }

    /// Folds the next document of a stream of documents in: the shape
    /// fields are *levels* (the plan as of that document), the stack bytes
    /// a peak, and only the three step counters accumulate.
    pub(crate) fn fold(&mut self, doc: &PlanStats) {
        *self = PlanStats {
            prefix_steps_executed: self.prefix_steps_executed + doc.prefix_steps_executed,
            prefix_steps_saved: self.prefix_steps_saved + doc.prefix_steps_saved,
            prefix_forks: self.prefix_forks + doc.prefix_forks,
            prefix_stack_bytes: self.prefix_stack_bytes.max(doc.prefix_stack_bytes),
            ..*doc
        };
    }

    /// Human-readable one-line summary: the rows, then what is not
    /// exported.
    pub fn summary(&self) -> String {
        format!(
            "{} dedup={:.2}x recycled_slots={}",
            line(&self.rows()),
            self.dedup_ratio(),
            self.recycled_slots
        )
    }
}

/// Counters and gauges maintained by the TwigM machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Stack pushes performed.
    pub pushes: u64,
    /// Stack pops performed.
    pub pops: u64,
    /// Match-flag bits set on parent entries (the paper's "bookkeeping").
    pub flag_propagations: u64,
    /// Predicate evaluations: attribute checks at push time, text
    /// predicate probes on character events, and value comparisons at pop
    /// time. Counted per (entry, predicate) on the same events however
    /// the machine is driven, so the value is configuration-invariant.
    pub predicate_evals: u64,
    /// Element events that engaged this machine with a non-empty push
    /// plan — the machine's share of dispatch traffic. Calls with an
    /// empty plan are not hits, so a single-query engine (shown every
    /// element) and a plan group (shown only what can move it) agree by
    /// construction.
    pub dispatch_hits: u64,
    /// Candidates created (self, attribute, text).
    pub candidates_created: u64,
    /// Candidates forwarded one query level up.
    pub candidates_forwarded: u64,
    /// Candidates lazily re-attached to an outer entry of the same stack.
    pub candidates_inherited: u64,
    /// Candidates discarded because their last compatible ancestor died.
    pub candidates_discarded: u64,
    /// Candidate instances absorbed into an existing instance of the same
    /// solution on arrival at an entry (range-merge).
    pub candidates_merged: u64,
    /// Candidate copies made (down-copies at forward time in compact mode;
    /// range fan-out in eager mode).
    pub candidates_copied: u64,
    /// Solutions emitted.
    pub emitted: u64,
    /// Duplicate emissions suppressed (eager mode only; compact mode must
    /// never produce any, which the differential tests assert).
    pub duplicates_suppressed: u64,

    /// Current live stack entries across all machine nodes.
    pub live_entries: u64,
    /// Peak of `live_entries`.
    pub peak_entries: u64,
    /// Current live candidates across all entries.
    pub live_candidates: u64,
    /// Peak of `live_candidates`.
    pub peak_candidates: u64,
    /// Current machine-resident bytes (entries + candidates + accumulated
    /// string-value text).
    pub live_bytes: u64,
    /// Peak of `live_bytes`.
    pub peak_bytes: u64,
}

impl MachineStats {
    /// The exported rows, in export order. A sum over machines turns the
    /// three peaks into the `_sum` the names say; the live gauges and the
    /// inherited / merged / copied candidate counts are read off the
    /// record, not exported.
    pub fn rows(&self) -> [(&'static str, u64); 13] {
        [
            ("vitex_machine_pushes_total", self.pushes),
            ("vitex_machine_pops_total", self.pops),
            ("vitex_machine_flag_propagations_total", self.flag_propagations),
            ("vitex_machine_predicate_evals_total", self.predicate_evals),
            ("vitex_machine_dispatch_hits_total", self.dispatch_hits),
            ("vitex_machine_candidates_created_total", self.candidates_created),
            ("vitex_machine_candidates_forwarded_total", self.candidates_forwarded),
            ("vitex_machine_candidates_discarded_total", self.candidates_discarded),
            ("vitex_machine_emitted_total", self.emitted),
            ("vitex_machine_duplicates_suppressed_total", self.duplicates_suppressed),
            ("vitex_machine_peak_entries_sum", self.peak_entries),
            ("vitex_machine_peak_candidates_sum", self.peak_candidates),
            ("vitex_machine_peak_bytes_sum", self.peak_bytes),
        ]
    }

    /// Machine steps executed: pushes + pops.
    pub fn steps(&self) -> u64 {
        self.pushes + self.pops
    }

    /// Attributable machine work — the **one** work formula: what the cost
    /// ledger ranks subscriptions by and what shard placement balances.
    /// Every term is invariant across shard counts, so rankings and
    /// placement decisions are too.
    pub fn work(&self) -> u64 {
        self.pushes + self.pops + self.predicate_evals + self.dispatch_hits
    }

    /// Adds `other` field by field: what many machines did, as one record.
    pub fn add(&mut self, other: &MachineStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.flag_propagations += other.flag_propagations;
        self.predicate_evals += other.predicate_evals;
        self.dispatch_hits += other.dispatch_hits;
        self.candidates_created += other.candidates_created;
        self.candidates_forwarded += other.candidates_forwarded;
        self.candidates_inherited += other.candidates_inherited;
        self.candidates_discarded += other.candidates_discarded;
        self.candidates_merged += other.candidates_merged;
        self.candidates_copied += other.candidates_copied;
        self.emitted += other.emitted;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.live_entries += other.live_entries;
        self.peak_entries += other.peak_entries;
        self.live_candidates += other.live_candidates;
        self.peak_candidates += other.peak_candidates;
        self.live_bytes += other.live_bytes;
        self.peak_bytes += other.peak_bytes;
    }

    pub(crate) fn on_push(&mut self, entry_bytes: u64) {
        self.pushes += 1;
        self.live_entries += 1;
        self.peak_entries = self.peak_entries.max(self.live_entries);
        self.add_bytes(entry_bytes);
    }

    pub(crate) fn on_pop(&mut self, entry_bytes: u64) {
        self.pops += 1;
        self.live_entries -= 1;
        self.sub_bytes(entry_bytes);
    }

    pub(crate) fn on_candidate_created(&mut self, bytes: u64) {
        self.candidates_created += 1;
        self.live_candidates += 1;
        self.peak_candidates = self.peak_candidates.max(self.live_candidates);
        self.add_bytes(bytes);
    }

    pub(crate) fn on_candidate_dropped(&mut self, bytes: u64) {
        self.candidates_discarded += 1;
        self.live_candidates -= 1;
        self.sub_bytes(bytes);
    }

    pub(crate) fn on_candidate_copied(&mut self, bytes: u64) {
        self.candidates_copied += 1;
        self.live_candidates += 1;
        self.peak_candidates = self.peak_candidates.max(self.live_candidates);
        self.add_bytes(bytes);
    }

    pub(crate) fn on_candidate_merged(&mut self, bytes: u64) {
        self.candidates_merged += 1;
        self.live_candidates -= 1;
        self.sub_bytes(bytes);
    }

    pub(crate) fn on_candidate_suppressed(&mut self, bytes: u64) {
        self.duplicates_suppressed += 1;
        self.live_candidates -= 1;
        self.sub_bytes(bytes);
    }

    pub(crate) fn on_candidate_emitted(&mut self, bytes: u64) {
        self.emitted += 1;
        self.live_candidates -= 1;
        self.sub_bytes(bytes);
    }

    pub(crate) fn add_bytes(&mut self, bytes: u64) {
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    pub(crate) fn sub_bytes(&mut self, bytes: u64) {
        debug_assert!(self.live_bytes >= bytes, "byte accounting underflow");
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Human-readable one-line summary: the rows.
    pub fn summary(&self) -> String {
        line(&self.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_tracks_peaks() {
        let mut s = MachineStats::default();
        s.on_push(100);
        s.on_push(100);
        assert_eq!(s.live_entries, 2);
        assert_eq!(s.peak_entries, 2);
        assert_eq!(s.peak_bytes, 200);
        s.on_pop(100);
        assert_eq!(s.live_entries, 1);
        assert_eq!(s.peak_entries, 2);
        assert_eq!(s.live_bytes, 100);
        assert_eq!(s.peak_bytes, 200);
    }

    #[test]
    fn candidate_lifecycle() {
        let mut s = MachineStats::default();
        s.on_candidate_created(48);
        s.on_candidate_created(48);
        assert_eq!(s.peak_candidates, 2);
        s.on_candidate_emitted(48);
        s.on_candidate_dropped(48);
        assert_eq!(s.live_candidates, 0);
        assert_eq!(s.emitted, 1);
        assert_eq!(s.candidates_discarded, 1);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn plan_stats_dedup_ratio() {
        let empty = PlanStats::default();
        assert_eq!(empty.dedup_ratio(), 1.0);
        let p = PlanStats { queries: 10, groups: 4, ..PlanStats::default() };
        assert_eq!(p.dedup_ratio(), 2.5);
        assert!(p.summary().contains("dedup=2.50x"));
        assert!(p.summary().contains("vitex_plan_groups=4"));
    }

    #[test]
    fn plan_fold_assigns_levels_maxes_the_peak_and_sums_the_step_counters() {
        let doc = |queries, steps, stack| PlanStats {
            queries,
            groups: queries,
            plan_bytes: 100 * queries,
            prefix_steps_executed: steps,
            prefix_steps_saved: 1,
            prefix_forks: 2,
            prefix_stack_bytes: stack,
            ..PlanStats::default()
        };
        let mut total = PlanStats::default();
        total.fold(&doc(3, 10, 48));
        total.fold(&doc(2, 5, 24));
        assert_eq!((total.queries, total.groups, total.plan_bytes), (2, 2, 200), "last document");
        assert_eq!(total.prefix_stack_bytes, 48, "peak");
        assert_eq!(
            (total.prefix_steps_executed, total.prefix_steps_saved, total.prefix_forks),
            (15, 2, 4)
        );
    }

    #[test]
    fn every_machine_row_is_summed_by_add() {
        let mut s = MachineStats {
            flag_propagations: 3,
            predicate_evals: 4,
            dispatch_hits: 5,
            candidates_forwarded: 6,
            ..MachineStats::default()
        };
        s.on_push(10);
        s.on_candidate_created(8);
        s.on_candidate_created(8);
        s.on_candidate_created(8);
        s.on_candidate_emitted(8);
        s.on_candidate_dropped(8);
        s.on_candidate_suppressed(8);
        s.on_pop(10);
        let mut twice = s.clone();
        twice.add(&s);
        for ((name, one), (_, two)) in s.rows().into_iter().zip(twice.rows()) {
            assert!(one > 0, "{name} is exercised");
            assert_eq!(two, 2 * one, "{name}");
        }
        assert_eq!(s.work(), 1 + 1 + 4 + 5);
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn summary_is_the_row_table() {
        let mut s = MachineStats::default();
        s.on_push(10);
        let text = s.summary();
        assert!(text.starts_with("vitex_machine_pushes_total=1 vitex_machine_pops_total=0 "));
        assert!(text.ends_with(" vitex_machine_peak_bytes_sum=10"));
        let stream = StreamStats { elements: 3, text_nodes: 1, events: 9 };
        assert_eq!(
            stream.summary(),
            "vitex_stream_events_total=9 vitex_stream_elements_total=3 \
             vitex_stream_text_nodes_total=1"
        );
    }
}
