//! Unified telemetry layer: one metrics registry across parse → plan →
//! dispatch → machines, exported as one snapshot, `vitex.metrics.v3`.
//!
//! All pipeline stages record through one [`Telemetry`] handle — a cheap
//! clone-able wrapper around an optional `Arc`. When telemetry is disabled
//! (the default) the handle holds `None` and every recording method is an
//! `#[inline]` early return that touches no atomics, takes no clock
//! readings, and allocates nothing. When enabled, live counters and
//! histograms are relaxed atomics — among them `vitex_doc_ns`, one sample
//! per document; what that costs is the benchmark's
//! `telemetry.enabled_overhead_pct` — the best full pass with an enabled
//! handle attached over the best pass with the default disabled one,
//! per workload.
//!
//! Deterministic counters (stream, matches, machine, plan, prefix) are not
//! recorded live: the registry holds the per-layer records of
//! [`crate::stats`] and each finished document is folded into them — once,
//! the machine record summed per subscription — so their values are a pure
//! function of the documents and the query set, and their export names are
//! the records' own row tables. A [`crate::MultiEngine`] folds, in the same
//! walk over the groups the document touched, one [`QueryRow`] per
//! subscription and one [`GroupRow`] per active plan group: who costs what,
//! which is what the top-10 ranking of [`Snapshot::human_summary`] reads.
//! Timing counters are recorded live and vary from run to run.

pub mod export;
pub mod metrics;

pub use export::{Snapshot, SNAPSHOT_SCHEMA};
pub use metrics::{Counter, CounterRow, GroupRow, Histogram, HistogramRow, QueryRow, Registry};

use crate::stats::{MachineStats, PlanStats, StreamStats};
use metrics::Totals;
use std::sync::Arc;
use std::time::Instant;
use vitex_xmlsax::probe::ParseProbe;

/// Shared handle to the telemetry registry; `None` inside means disabled
/// and every recording call is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// The no-op handle (the default): recording never touches an atomic.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh registry.
    pub fn enabled() -> Telemetry {
        Telemetry { inner: Some(Arc::default()) }
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a timing interval: `Some(now)` when enabled, `None` (no clock
    /// read) when disabled. Pair with [`Telemetry::observe_elapsed`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.inner.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the nanoseconds elapsed since `t0` as a histogram sample.
    #[inline]
    pub fn observe_elapsed(&self, pick: impl FnOnce(&Registry) -> &Histogram, t0: Option<Instant>) {
        if let (Some(registry), Some(t0)) = (&self.inner, t0) {
            pick(registry).observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Snapshot all metrics, when enabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_deref().map(Snapshot::capture)
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
        self.fold(|totals| totals.fold_document(stream, machine, plan, matches));
    }

    /// Runs `fold` on the deterministic section, under its lock, when
    /// enabled.
    pub(crate) fn fold(&self, fold: impl FnOnce(&mut Totals)) {
        if let Some(registry) = &self.inner {
            fold(&mut registry.totals());
        }
    }
}

/// The telemetry handle doubles as the parser's probe: scanner byte
/// counts land in the same registry as everything else.
impl ParseProbe for Telemetry {
    fn on_scan_bytes(&self, wide: u64, scalar: u64) {
        if let Some(registry) = &self.inner {
            registry.scan_wide_bytes.add(wide);
            registry.scan_scalar_bytes.add(scalar);
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
        tel.observe_elapsed(|r| &r.doc_ns, Some(Instant::now()));
        let stream = StreamStats { elements: 1, text_nodes: 1, events: 1 };
        tel.fold_document(&stream, &MachineStats::default(), None, 1);
        assert!(tel.snapshot().is_none());
    }

    #[test]
    fn enabled_records_and_snapshots() {
        let tel = Telemetry::enabled();
        assert!(tel.is_enabled());
        let t0 = tel.timer();
        assert!(t0.is_some());
        tel.observe_elapsed(|r| &r.dispatch_ns, t0);
        tel.observe_elapsed(|r| &r.doc_ns, t0);
        tel.observe_elapsed(|r| &r.doc_ns, t0);
        let snap = tel.snapshot().unwrap();
        let count = |name| snap.histograms.iter().find(|h| h.name == name).unwrap().count;
        assert_eq!(count("vitex_dispatch_ns"), 1);
        assert_eq!(count("vitex_doc_ns"), 2);
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
        let stream = StreamStats { elements: 1, text_nodes: 0, events: 3 };
        clone.fold_document(&stream, &MachineStats::default(), None, 0);
        assert_eq!(tel.snapshot().unwrap().counter("vitex_stream_events_total"), Some(3));
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
