//! Atomic metric primitives and the fixed-field registry.
//!
//! The registry is deliberately *not* a string-keyed map. What is recorded
//! *live* — from whichever thread does the work — is a named struct field,
//! so the hot path is a single relaxed atomic op with no hashing, no
//! locking, and no allocation; its export names live in the descriptor
//! tables at the bottom of this file. What is *deterministic* is not
//! recorded live at all: the registry holds the per-layer records of
//! [`crate::stats`] and folds each finished document into them under one
//! lock, and their export names are the records' own row tables.
//!
//! Determinism classes matter for testing: a metric marked `deterministic`
//! must be byte-identical across shard counts for the same document +
//! query set (the differential battery enforces this). Timers,
//! ring/backpressure counters, and the scanner's byte counts (they depend
//! on how reads chunk the input) are excluded from equality.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::stats::{MachineStats, PlanStats, StreamStats};

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

/// The deterministic section of the registry: the per-layer records every
/// finished document is folded into, plus the match count.
#[derive(Debug, Default)]
struct Totals {
    stream: StreamStats,
    matches: u64,
    /// Summed over subscriptions — not over plan groups — so a query that
    /// duplicates another counts the shared machine under both, exactly as
    /// two private engines would.
    machine: MachineStats,
    plan: PlanStats,
}

/// Every metric the pipeline records. Shared behind an `Arc` by the
/// coordinator, shard workers, and the merger.
#[derive(Debug, Default)]
pub struct Registry {
    /// The deterministic section; locked once per document, on the
    /// document thread, by [`Registry::fold_document`].
    totals: Mutex<Totals>,

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
    /// The deterministic section. Every critical section is plain
    /// arithmetic on counters that are valid at every step, so a poisoned
    /// lock is recovered rather than propagated.
    fn totals(&self) -> MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds one finished document into the deterministic section:
    /// `machine` is the sum over its subscriptions, `plan` is absent for a
    /// single-query engine (which has none).
    pub(crate) fn fold_document(
        &self,
        stream: &StreamStats,
        machine: &MachineStats,
        plan: Option<&PlanStats>,
        matches: u64,
    ) {
        let mut totals = self.totals();
        totals.stream.add(stream);
        totals.matches += matches;
        totals.machine.add(machine);
        if let Some(plan) = plan {
            totals.plan.fold(plan);
        }
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
                timing("vitex_ring_batches_total", &self.ring_batches),
                timing("vitex_ring_enqueue_stalls_total", &self.ring_enqueue_stalls),
                timing("vitex_ring_stall_ns_total", &self.ring_stall_ns),
                timing("vitex_worker_busy_ns_total", &self.worker_busy_ns),
                timing("vitex_shard_repartitions_total", &self.shard_repartitions),
                timing("vitex_doc_ns_total", &self.doc_ns),
            ])
            .collect()
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
    fn exported_names_are_unique() {
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
