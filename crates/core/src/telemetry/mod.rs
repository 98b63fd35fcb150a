//! Unified telemetry layer: metrics registry, stage spans, and exportable
//! traces across parse → plan → shard → merge.
//!
//! All pipeline stages record through one [`Telemetry`] handle — a cheap
//! clone-able wrapper around an optional `Arc`. When telemetry is disabled
//! (the default) the handle holds `None` and every recording method is an
//! `#[inline]` early return that touches no atomics, takes no clock
//! readings, and allocates nothing. When enabled, live counters and
//! histograms are relaxed atomics shared across the coordinator and the
//! shard workers, and coarse-grained spans land in a bounded
//! ring for Chrome-trace export; what that costs is the benchmark's
//! `telemetry.enabled_overhead_pct` — the best full pass with an enabled
//! handle attached over the best pass with the default disabled one,
//! per workload.
//!
//! Deterministic counters (stream, matches, machine, plan, prefix) are not
//! recorded live: the registry holds the per-layer records of
//! [`crate::stats`] and [`Telemetry::fold_document`] folds each finished
//! document into them — once, on the document thread, the machine record
//! summed per subscription — so their values are invariant across shard
//! counts by construction, and their export names are the records' own
//! row tables. Timing counters and ring/backpressure metrics are recorded
//! live from whichever thread does the work and are scheduling-dependent.

pub mod export;
pub mod metrics;
pub mod profile;
pub mod span;

pub use export::{trace_json, Snapshot, SNAPSHOT_SCHEMA};
pub use metrics::{Counter, CounterRow, Gauge, GaugeRow, Histogram, HistogramRow, Registry};
pub(crate) use profile::CostLedger;
pub use profile::{GroupCost, ProfileSnapshot, QueryCost, PROFILE_SCHEMA};
pub use span::{Span, SpanRecorder, TID_COORDINATOR, TID_SHARD_BASE};

use crate::stats::{MachineStats, PlanStats, StreamStats};
use std::sync::Arc;
use std::time::Instant;
use vitex_xmlsax::probe::ParseProbe;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    spans: SpanRecorder,
    epoch: Instant,
}

/// Shared handle to the telemetry sinks; `None` inside means disabled and
/// every recording call is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle (the default): recording never touches an atomic.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh registry and span ring. The epoch for
    /// span timestamps is the moment of this call.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                spans: SpanRecorder::default(),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to the counter selected from the registry.
    #[inline]
    pub fn add(&self, pick: impl FnOnce(&Registry) -> &Counter, n: u64) {
        if let Some(inner) = &self.inner {
            pick(&inner.registry).add(n);
        }
    }

    /// Record a gauge level (also folds the high-water mark).
    #[inline]
    pub fn gauge_set(&self, pick: impl FnOnce(&Registry) -> &Gauge, v: u64) {
        if let Some(inner) = &self.inner {
            pick(&inner.registry).set(v);
        }
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&self, pick: impl FnOnce(&Registry) -> &Histogram, v: u64) {
        if let Some(inner) = &self.inner {
            pick(&inner.registry).observe(v);
        }
    }

    /// Start a timing interval: `Some(now)` when enabled, `None` (no clock
    /// read) when disabled. Pair with [`Telemetry::add_elapsed`],
    /// [`Telemetry::observe_elapsed`], or [`Telemetry::record_span`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.inner.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Add the nanoseconds elapsed since `t0` to a counter; returns the
    /// elapsed ns (0 when disabled).
    #[inline]
    pub fn add_elapsed(
        &self,
        pick: impl FnOnce(&Registry) -> &Counter,
        t0: Option<Instant>,
    ) -> u64 {
        match (&self.inner, t0) {
            (Some(inner), Some(t0)) => {
                let ns = t0.elapsed().as_nanos() as u64;
                pick(&inner.registry).add(ns);
                ns
            }
            _ => 0,
        }
    }

    /// Record the nanoseconds elapsed since `t0` as a histogram sample.
    #[inline]
    pub fn observe_elapsed(&self, pick: impl FnOnce(&Registry) -> &Histogram, t0: Option<Instant>) {
        if let (Some(inner), Some(t0)) = (&self.inner, t0) {
            pick(&inner.registry).observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record a span from `t0` to now on logical thread `tid`.
    #[inline]
    pub fn record_span(
        &self,
        name: &'static str,
        cat: &'static str,
        tid: u32,
        t0: Option<Instant>,
    ) {
        if let (Some(inner), Some(t0)) = (&self.inner, t0) {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            let start_ns =
                t0.checked_duration_since(inner.epoch).map(|d| d.as_nanos() as u64).unwrap_or(0);
            inner.spans.record(Span { name, cat, tid, start_ns, dur_ns });
        }
    }

    /// Snapshot all metrics, when enabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_deref().map(|i| Snapshot::capture(&i.registry, &i.spans))
    }

    /// Retained spans sorted by start time, when enabled.
    pub fn spans(&self) -> Option<Vec<Span>> {
        self.inner.as_deref().map(|i| i.spans.collect())
    }

    /// Folds one finished document into the deterministic section of the
    /// registry: the stream counters, the machine counters summed over the
    /// document's subscriptions, the plan statistics (`None` from a
    /// single-query engine, which has no plan) and the match count.
    pub fn fold_document(
        &self,
        stream: &StreamStats,
        machine: &MachineStats,
        plan: Option<&PlanStats>,
        matches: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner.registry.fold_document(stream, machine, plan, matches);
        }
    }
}

/// The telemetry handle doubles as the parser's probe: scanner byte
/// counts land in the same registry as everything else.
impl ParseProbe for Telemetry {
    fn on_scan_bytes(&self, wide: u64, scalar: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.scan_wide_bytes.add(wide);
            inner.registry.scan_scalar_bytes.add(scalar);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(tel.timer().is_none());
        tel.add(|r| &r.ring_batches, 5);
        tel.gauge_set(|r| &r.ring_occupancy, 5);
        tel.observe(|r| &r.dispatch_ns, 5);
        let stream = StreamStats { elements: 1, text_nodes: 1, events: 1 };
        tel.fold_document(&stream, &MachineStats::default(), None, 1);
        assert!(tel.snapshot().is_none());
        assert!(tel.spans().is_none());
    }

    #[test]
    fn enabled_records_and_snapshots() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        tel.add(|r| &r.ring_batches, 5);
        let t0 = tel.timer();
        assert!(t0.is_some());
        let ns = tel.add_elapsed(|r| &r.worker_busy_ns, t0);
        tel.record_span("document", "stream", TID_COORDINATOR, t0);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("vitex_ring_batches_total"), Some(5));
        assert_eq!(snap.counter("vitex_worker_busy_ns_total"), Some(ns));
        let spans = tel.spans().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "document");
    }

    #[test]
    fn documents_fold_into_the_deterministic_section() {
        let tel = Telemetry::enabled();
        let stream = StreamStats { elements: 2, text_nodes: 1, events: 7 };
        let mut machine = MachineStats::default();
        machine.on_push(100);
        let plan = |queries| PlanStats { queries, prefix_forks: 4, ..PlanStats::default() };
        tel.fold_document(&stream, &machine, Some(&plan(3)), 2);
        tel.fold_document(&stream, &machine, Some(&plan(2)), 1);
        // A single-query engine's document leaves the plan rows alone.
        tel.fold_document(&stream, &machine, None, 0);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("vitex_stream_events_total"), Some(21));
        assert_eq!(snap.counter("vitex_matches_total"), Some(3));
        assert_eq!(snap.counter("vitex_machine_pushes_total"), Some(3));
        assert_eq!(snap.counter("vitex_machine_peak_bytes_sum"), Some(300));
        assert_eq!(snap.counter("vitex_plan_queries"), Some(2), "a level: the last plan");
        assert_eq!(snap.counter("vitex_prefix_forks_total"), Some(8));
    }

    #[test]
    fn clones_share_the_registry() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.add(|r| &r.ring_batches, 3);
        assert_eq!(tel.snapshot().unwrap().counter("vitex_ring_batches_total"), Some(3));
    }

    #[test]
    fn probe_records_scan_bytes() {
        let tel = Telemetry::enabled();
        let probe: &dyn ParseProbe = &tel;
        probe.on_scan_bytes(100, 7);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("vitex_scan_wide_bytes_total"), Some(100));
        assert_eq!(snap.counter("vitex_scan_scalar_bytes_total"), Some(7));
    }
}
