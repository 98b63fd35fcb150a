//! Atomic metric primitives and the fixed-field registry.
//!
//! The registry is deliberately *not* a string-keyed map. What is recorded
//! *live* — from whichever thread does the work — is a named struct field,
//! so the hot path is a single relaxed atomic op with no hashing, no
//! locking, and no allocation; its export names live in the descriptor
//! tables at the bottom of this file. What is *deterministic* is not
//! recorded live at all: the registry holds the per-layer records of
//! [`crate::stats`], one row per subscription and one per active plan
//! group, and folds each finished document into them under one lock; their
//! export names are the records' own row tables.
//!
//! Determinism classes matter for testing: a metric marked `deterministic`
//! is a pure function of the document and the query set. Timers and the
//! scanner's byte counts (they depend on how reads chunk the input) are
//! excluded from equality.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::stats::{Bill, MachineStats, PlanStats, StreamStats};

/// Number of log2 histogram buckets: bucket 0 holds zero-valued samples,
/// bucket `i >= 1` holds samples `v` with `2^(i-1) <= v < 2^i`. 65 buckets
/// cover the full `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram with exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a sample: 0 for zero, else `64 - leading_zeros(v)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Count in bucket `i` (see [`HIST_BUCKETS`] for the bucket scheme).
    #[inline]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }
}

/// The deterministic section of the registry: the per-layer records every
/// finished document is folded into, the match count, and the rows of the
/// subscriptions and plan groups a multi-query engine folds.
#[derive(Debug, Default)]
pub(crate) struct Totals {
    stream: StreamStats,
    matches: u64,
    /// Summed over subscriptions — not over plan groups — so a query that
    /// duplicates another counts the shared machine under both, exactly as
    /// two private engines would.
    machine: MachineStats,
    plan: PlanStats,
    /// One row per registration, indexed by [`crate::QueryId`].
    pub(crate) queries: Vec<QueryRow>,
    /// One row per plan-group slot, indexed by group id; `None` while the
    /// slot holds no active group.
    pub(crate) groups: Vec<Option<GroupRow>>,
}

impl Totals {
    /// Folds one finished document into the per-layer records: `machine`
    /// is the sum over its subscriptions, `plan` the plan it ran.
    pub(crate) fn fold_document(
        &mut self,
        stream: &StreamStats,
        machine: &MachineStats,
        plan: &PlanStats,
        matches: u64,
    ) {
        self.stream.add(stream);
        self.matches += matches;
        self.machine.add(machine);
        self.plan.fold(plan);
    }
}

/// Every metric the pipeline records, shared behind an `Arc` by every
/// clone of a [`crate::Telemetry`] handle.
#[derive(Debug, Default)]
pub struct Registry {
    /// The deterministic section; locked once per document, on the
    /// document thread, by the document's fold.
    totals: Mutex<Totals>,

    // ----- parser (xmlsax; the two add up to the bytes consumed) -----
    /// Bytes the tokenizer walked past through its block stop masks
    /// (`vitex_scan_wide_bytes_total`).
    pub scan_wide_bytes: Counter,
    /// Bytes the tokenizer consumed one at a time
    /// (`vitex_scan_scalar_bytes_total`).
    pub scan_scalar_bytes: Counter,

    // ----- timing -----
    /// Wall nanoseconds of each document that streamed to its end
    /// (`vitex_doc_ns`).
    pub doc_ns: Histogram,
    /// Sampled per-event dispatch time in ns (`vitex_dispatch_ns`).
    pub dispatch_ns: Histogram,
}

/// One exported counter: name, determinism class, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Prometheus-style metric name.
    pub name: &'static str,
    /// Whether the value is a pure function of the document and the query
    /// set (see module docs).
    pub deterministic: bool,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One exported histogram: count, sum, and non-empty log2 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRow {
    /// Prometheus-style metric name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(bucket_index, count)` pairs for non-empty buckets; samples in
    /// bucket `i >= 1` satisfy `2^(i-1) <= v < 2^i`, bucket 0 is zeros.
    pub buckets: Vec<(usize, u64)>,
}

/// One subscription's row, summed over the documents folded: what a
/// private [`crate::Engine`] would be billed for it (see
/// [`crate::MultiOutput::stats`]). Every field is a pure function of the
/// documents and the query set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryRow {
    /// Registration index of the subscription ([`crate::QueryId`]).
    pub id: usize,
    /// The query's source text, as registered.
    pub query: String,
    /// Its machine's work counters.
    pub bill: Bill,
    /// Matches delivered to it.
    pub matches: u64,
    /// Payload bytes of the matches delivered to it: node id, name and
    /// value text.
    pub emitted_bytes: u64,
}

impl QueryRow {
    /// The exported rows, in export order.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        let b = &self.bill;
        [
            ("vitex_query_steps_total", b.steps()),
            ("vitex_query_pushes_total", b.pushes),
            ("vitex_query_pops_total", b.pops),
            ("vitex_query_predicate_evals_total", b.predicate_evals),
            ("vitex_query_dispatch_hits_total", b.dispatch_hits),
            ("vitex_query_matches_total", self.matches),
            ("vitex_query_emitted_bytes_total", self.emitted_bytes),
        ]
    }
}

/// One active plan group's row: its machine, however many subscriptions it
/// serves, summed over the documents folded since the group was created.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupRow {
    /// Plan group id (a slot a later group may recycle).
    pub gid: usize,
    /// The shape key every subscriber shares.
    pub shape: String,
    /// Subscriptions the group serves.
    pub subscribers: u64,
    /// The group machine's work counters.
    pub bill: Bill,
}

impl GroupRow {
    /// The exported rows, in export order.
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        let m = &self.bill;
        [
            ("vitex_group_subscribers", self.subscribers),
            ("vitex_group_pushes_total", m.pushes),
            ("vitex_group_pops_total", m.pops),
            ("vitex_group_predicate_evals_total", m.predicate_evals),
            ("vitex_group_dispatch_hits_total", m.dispatch_hits),
        ]
    }
}

impl Registry {
    /// The deterministic section. Every critical section is plain
    /// arithmetic on counters that are valid at every step, so a poisoned
    /// lock is recovered rather than propagated.
    pub(crate) fn totals(&self) -> MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enumerate all counters with their export names and determinism
    /// class: the deterministic section from the records' row tables, then
    /// the live counters.
    pub fn counter_rows(&self) -> Vec<CounterRow> {
        let totals = self.totals();
        let deterministic = (totals.stream.rows().into_iter())
            .chain([("vitex_matches_total", totals.matches)])
            .chain(totals.machine.rows())
            .chain(totals.plan.rows())
            .map(|(name, value)| CounterRow { name, deterministic: true, value });
        let timing = |name, c: &Counter| CounterRow { name, deterministic: false, value: c.get() };
        deterministic
            .chain([
                timing("vitex_scan_wide_bytes_total", &self.scan_wide_bytes),
                timing("vitex_scan_scalar_bytes_total", &self.scan_scalar_bytes),
            ])
            .collect()
    }

    /// Enumerate all histograms (non-empty buckets only).
    pub fn histogram_rows(&self) -> Vec<HistogramRow> {
        let row = |name, h: &Histogram| {
            let buckets = (0..HIST_BUCKETS)
                .filter_map(|i| {
                    let c = h.bucket(i);
                    if c > 0 {
                        Some((i, c))
                    } else {
                        None
                    }
                })
                .collect();
            HistogramRow { name, count: h.count(), sum: h.sum(), buckets }
        };
        vec![row("vitex_dispatch_ns", &self.dispatch_ns), row("vitex_doc_ns", &self.doc_ns)]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let c = Counter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1001);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(bucket_index(1000)), 1);
    }

    #[test]
    fn exported_names_are_unique() {
        let r = Registry::default();
        let mut names: Vec<&str> = r
            .counter_rows()
            .iter()
            .map(|c| c.name)
            .chain(r.histogram_rows().iter().map(|h| h.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names in registry");
    }
}
