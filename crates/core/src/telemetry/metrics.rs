//! Atomic metric primitives and the fixed-field registry.
//!
//! The registry is deliberately *not* a string-keyed map: every metric the
//! pipeline records is a named struct field, so the hot path is a single
//! relaxed atomic op with no hashing, no locking, and no allocation. Export
//! enumerates the fields through hand-written descriptor tables, which is
//! also where each metric's Prometheus-style name and determinism class
//! live.
//!
//! Determinism classes matter for testing: a metric marked `deterministic`
//! must be byte-identical across shard counts for the same document +
//! query set (the differential battery enforces this). Timers,
//! ring/backpressure counters, and the scanner's byte counts (they depend
//! on how reads chunk the input) are excluded from equality.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Last-value gauge with a monotonic high-water mark.
///
/// The high-water mark is **registry-lifetime scoped**: it is never reset,
/// so across a multi-document `ShardSession` (or anything else sharing the
/// telemetry handle) it reports the highest level any document reached.
/// Per-document peaks must be obtained by snapshot differencing between
/// runs, not from a single accumulated export.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// Record the current level and fold it into the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Most recently recorded level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever recorded.
    #[inline]
    pub fn high(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
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

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }
}

/// Every metric the pipeline records, as fixed fields. Shared behind an
/// `Arc` by the coordinator, shard workers, and the merger.
#[derive(Debug, Default)]
pub struct Registry {
    // ----- stream stage (DocumentDriver; deterministic) -----
    /// SAX events processed (`vitex_stream_events_total`).
    pub stream_events: Counter,
    /// Elements seen (`vitex_stream_elements_total`).
    pub stream_elements: Counter,
    /// Text nodes seen (`vitex_stream_text_nodes_total`).
    pub stream_text_nodes: Counter,
    /// Matches emitted across all queries (`vitex_matches_total`).
    pub matches_emitted: Counter,

    // ----- machine stage (TwigM; folded per subscription; deterministic) -----
    /// Stack pushes (`vitex_machine_pushes_total`).
    pub machine_pushes: Counter,
    /// Stack pops (`vitex_machine_pops_total`).
    pub machine_pops: Counter,
    /// Match-flag propagations (`vitex_machine_flag_propagations_total`).
    pub machine_flag_propagations: Counter,
    /// Predicate evaluations (`vitex_machine_predicate_evals_total`).
    pub machine_predicate_evals: Counter,
    /// Element events that engaged a machine with a non-empty push plan
    /// (`vitex_machine_dispatch_hits_total`).
    pub machine_dispatch_hits: Counter,
    /// Candidates created (`vitex_machine_candidates_created_total`).
    pub machine_candidates_created: Counter,
    /// Candidates forwarded (`vitex_machine_candidates_forwarded_total`).
    pub machine_candidates_forwarded: Counter,
    /// Candidates discarded (`vitex_machine_candidates_discarded_total`).
    pub machine_candidates_discarded: Counter,
    /// Solutions emitted by machines (`vitex_machine_emitted_total`).
    pub machine_emitted: Counter,
    /// Duplicate emissions suppressed (`vitex_machine_duplicates_suppressed_total`).
    pub machine_duplicates_suppressed: Counter,
    /// Sum of per-subscription peak stack entries (`vitex_machine_peak_entries_sum`).
    pub machine_peak_entries: Counter,
    /// Sum of per-subscription peak candidates (`vitex_machine_peak_candidates_sum`).
    pub machine_peak_candidates: Counter,
    /// Sum of per-subscription peak machine-resident bytes (`vitex_machine_peak_bytes_sum`).
    pub machine_peak_bytes: Counter,

    // ----- plan stage (QueryPlanner; deterministic) -----
    /// Active subscriptions (`vitex_plan_queries`).
    pub plan_queries: Counter,
    /// Active plan groups (`vitex_plan_groups`).
    pub plan_groups: Counter,
    /// Stacked machine nodes (`vitex_plan_machine_nodes`).
    pub plan_machine_nodes: Counter,
    /// Shared step-trie nodes (`vitex_plan_trie_nodes`).
    pub plan_trie_nodes: Counter,
    /// Trie nodes shared by >1 group (`vitex_plan_shared_trie_nodes`).
    pub plan_shared_trie_nodes: Counter,
    /// Approximate compiled plan bytes (`vitex_plan_bytes`).
    pub plan_bytes: Counter,

    // ----- step-trie runtime (deterministic) -----
    /// Shared trie step checks executed (`vitex_prefix_steps_executed_total`).
    pub prefix_steps_executed: Counter,
    /// Per-group step checks avoided by sharing (`vitex_prefix_steps_saved_total`).
    pub prefix_steps_saved: Counter,
    /// Forks from trie state into group machines (`vitex_prefix_forks_total`).
    pub prefix_forks: Counter,
    /// Peak shared trie stack bytes (`vitex_prefix_stack_bytes_peak`).
    pub prefix_stack_bytes: Counter,

    // ----- parser (xmlsax; depends on read chunking) -----
    /// Bytes scanned by the SWAR wide path (`vitex_scan_wide_bytes_total`).
    pub scan_wide_bytes: Counter,
    /// Bytes scanned by the scalar path (`vitex_scan_scalar_bytes_total`).
    pub scan_scalar_bytes: Counter,

    // ----- shard rings and workers (timing dependent) -----
    /// Event batches enqueued to shard rings (`vitex_ring_batches_total`).
    pub ring_batches: Counter,
    /// Producer blocked on a full ring (`vitex_ring_enqueue_stalls_total`).
    pub ring_enqueue_stalls: Counter,
    /// Nanoseconds the producer spent blocked on full rings
    /// (`vitex_ring_stall_ns_total`).
    pub ring_stall_ns: Counter,
    /// Nanoseconds shard workers spent processing batches
    /// (`vitex_worker_busy_ns_total`).
    pub worker_busy_ns: Counter,
    /// Nanoseconds shard workers spent blocked on empty rings
    /// (`vitex_worker_idle_ns_total`).
    pub worker_idle_ns: Counter,
    /// Matches released by the merger (`vitex_merge_released_total`).
    pub merge_released: Counter,
    /// Mid-session shard repartitions performed by the placer
    /// (`vitex_shard_repartitions_total`). Shard-count dependent, so
    /// excluded from the deterministic class even though the decision
    /// stream is reproducible for a fixed configuration.
    pub shard_repartitions: Counter,
    /// Wall nanoseconds for whole-document runs (`vitex_doc_ns_total`).
    pub doc_ns: Counter,

    // ----- gauges -----
    /// Ring occupancy in batches, sampled at enqueue
    /// (`vitex_ring_occupancy`). High-water is registry-lifetime scoped
    /// (see [`Gauge`]): it accumulates across every document a session
    /// runs rather than resetting per document.
    pub ring_occupancy: Gauge,
    /// Matches held by the merger awaiting watermark release
    /// (`vitex_merge_hold_depth`).
    pub merge_hold_depth: Gauge,
    /// Measured per-document shard load imbalance in millis
    /// (`vitex_shard_imbalance`): max shard load over the ideal
    /// per-shard load, scaled by 1000 — 1000 is perfectly balanced,
    /// `shards * 1000` is one shard carrying everything. Computed from
    /// the deterministic machine work counters after every multi-query
    /// document (1000 whenever one worker ran it); the high-water mark
    /// records the worst document the registry has seen.
    pub shard_imbalance: Gauge,

    // ----- histograms (distributions; timing dependent) -----
    /// Per-event dispatch time in ns (`vitex_dispatch_ns`).
    pub dispatch_ns: Histogram,
    /// Events per shard batch (`vitex_batch_events`).
    pub batch_events: Histogram,
    /// Merger hold time per released match in ns (`vitex_merge_release_ns`).
    pub merge_release_ns: Histogram,
}

/// One exported counter: name, determinism class, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Prometheus-style metric name.
    pub name: &'static str,
    /// Whether the value must be invariant across shard counts (see
    /// module docs).
    pub deterministic: bool,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One exported gauge: last value and high-water mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    /// Prometheus-style metric name.
    pub name: &'static str,
    /// Last recorded level.
    pub value: u64,
    /// High-water mark.
    pub high: u64,
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

impl Registry {
    /// Enumerate all counters with their export names and determinism class.
    pub fn counter_rows(&self) -> Vec<CounterRow> {
        let det = |name, c: &Counter| CounterRow { name, deterministic: true, value: c.get() };
        let timing = |name, c: &Counter| CounterRow { name, deterministic: false, value: c.get() };
        vec![
            det("vitex_stream_events_total", &self.stream_events),
            det("vitex_stream_elements_total", &self.stream_elements),
            det("vitex_stream_text_nodes_total", &self.stream_text_nodes),
            det("vitex_matches_total", &self.matches_emitted),
            det("vitex_machine_pushes_total", &self.machine_pushes),
            det("vitex_machine_pops_total", &self.machine_pops),
            det("vitex_machine_flag_propagations_total", &self.machine_flag_propagations),
            det("vitex_machine_predicate_evals_total", &self.machine_predicate_evals),
            det("vitex_machine_dispatch_hits_total", &self.machine_dispatch_hits),
            det("vitex_machine_candidates_created_total", &self.machine_candidates_created),
            det("vitex_machine_candidates_forwarded_total", &self.machine_candidates_forwarded),
            det("vitex_machine_candidates_discarded_total", &self.machine_candidates_discarded),
            det("vitex_machine_emitted_total", &self.machine_emitted),
            det("vitex_machine_duplicates_suppressed_total", &self.machine_duplicates_suppressed),
            det("vitex_machine_peak_entries_sum", &self.machine_peak_entries),
            det("vitex_machine_peak_candidates_sum", &self.machine_peak_candidates),
            det("vitex_machine_peak_bytes_sum", &self.machine_peak_bytes),
            det("vitex_plan_queries", &self.plan_queries),
            det("vitex_plan_groups", &self.plan_groups),
            det("vitex_plan_machine_nodes", &self.plan_machine_nodes),
            det("vitex_plan_trie_nodes", &self.plan_trie_nodes),
            det("vitex_plan_shared_trie_nodes", &self.plan_shared_trie_nodes),
            det("vitex_plan_bytes", &self.plan_bytes),
            det("vitex_prefix_steps_executed_total", &self.prefix_steps_executed),
            det("vitex_prefix_steps_saved_total", &self.prefix_steps_saved),
            det("vitex_prefix_forks_total", &self.prefix_forks),
            det("vitex_prefix_stack_bytes_peak", &self.prefix_stack_bytes),
            timing("vitex_scan_wide_bytes_total", &self.scan_wide_bytes),
            timing("vitex_scan_scalar_bytes_total", &self.scan_scalar_bytes),
            timing("vitex_ring_batches_total", &self.ring_batches),
            timing("vitex_ring_enqueue_stalls_total", &self.ring_enqueue_stalls),
            timing("vitex_ring_stall_ns_total", &self.ring_stall_ns),
            timing("vitex_worker_busy_ns_total", &self.worker_busy_ns),
            timing("vitex_worker_idle_ns_total", &self.worker_idle_ns),
            timing("vitex_merge_released_total", &self.merge_released),
            timing("vitex_shard_repartitions_total", &self.shard_repartitions),
            timing("vitex_doc_ns_total", &self.doc_ns),
        ]
    }

    /// Enumerate all gauges.
    pub fn gauge_rows(&self) -> Vec<GaugeRow> {
        let row = |name, g: &Gauge| GaugeRow { name, value: g.get(), high: g.high() };
        vec![
            row("vitex_ring_occupancy", &self.ring_occupancy),
            row("vitex_merge_hold_depth", &self.merge_hold_depth),
            row("vitex_shard_imbalance", &self.shard_imbalance),
        ]
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
        vec![
            row("vitex_dispatch_ns", &self.dispatch_ns),
            row("vitex_batch_events", &self.batch_events),
            row("vitex_merge_release_ns", &self.merge_release_ns),
        ]
    }
}

#[cfg(test)]
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
    fn gauge_tracks_high_water() {
        let g = Gauge::default();
        g.set(5);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high(), 9);
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
        assert!((h.mean() - 1001.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn registry_rows_have_unique_names() {
        let r = Registry::default();
        let mut names: Vec<&str> = r
            .counter_rows()
            .iter()
            .map(|c| c.name)
            .chain(r.gauge_rows().iter().map(|g| g.name))
            .chain(r.histogram_rows().iter().map(|h| h.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names in registry");
    }
}
