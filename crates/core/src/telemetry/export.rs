//! Snapshot and export formats: stable-schema JSON and a human-readable
//! summary.
//!
//! The JSON snapshot (`schema: "vitex.metrics.v2"`) holds two sections,
//! `counters` and `histograms`; metric names are Prometheus-style.

use super::metrics::{CounterRow, HistogramRow, Registry};
use std::fmt::Write as _;

/// Schema identifier embedded in every metrics snapshot.
pub const SNAPSHOT_SCHEMA: &str = "vitex.metrics.v2";

/// Point-in-time copy of every registry metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters with determinism class.
    pub counters: Vec<CounterRow>,
    /// Always empty and never exported: the registry has no gauge (see
    /// `crate::compat`).
    #[doc(hidden)]
    pub gauges: Vec<crate::compat::GaugeRow>,
    /// All histograms (non-empty buckets only).
    pub histograms: Vec<HistogramRow>,
}

impl Snapshot {
    /// Capture the registry.
    pub fn capture(registry: &Registry) -> Snapshot {
        Snapshot {
            counters: registry.counter_rows(),
            gauges: Vec::new(),
            histograms: registry.histogram_rows(),
        }
    }

    /// Value of a counter by export name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The deterministic counter subset as `(name, value)` rows — the part
    /// of the snapshot that is a pure function of the documents and the
    /// query set (tests compare it byte-for-byte via
    /// [`Snapshot::deterministic_json`]).
    pub fn deterministic_counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().filter(|c| c.deterministic).map(|c| (c.name, c.value)).collect()
    }

    /// Canonical JSON of just the deterministic counters, for byte-equality
    /// assertions in tests.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.deterministic_counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push('}');
        out
    }

    /// Full snapshot as stable-schema JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(out, "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"deterministic\":{},\"value\":{}}}",
                c.name, c.deterministic, c.value
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                h.name, h.count, h.sum
            );
            for (j, (pow2, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"pow2\":{pow2},\"count\":{count}}}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Human-readable multi-line summary (the `--metrics` stderr report).
    /// Zero-valued counters and empty histograms are omitted.
    pub fn human_summary(&self) -> String {
        let mut out = String::from("telemetry:\n");
        let section = |out: &mut String, title: &str| {
            let _ = writeln!(out, "  {title}:");
        };
        section(&mut out, "counters");
        for c in &self.counters {
            if c.value > 0 {
                let _ = writeln!(out, "    {:<44} {}", c.name, c.value);
            }
        }
        if self.histograms.iter().any(|h| h.count > 0) {
            section(&mut out, "histograms (count / mean / max-bucket)");
            for h in &self.histograms {
                if h.count == 0 {
                    continue;
                }
                let mean = h.sum as f64 / h.count as f64;
                let max_pow2 = h.buckets.last().map(|(p, _)| *p).unwrap_or(0);
                let _ =
                    writeln!(out, "    {:<44} {} / {:.1} / <2^{}", h.name, h.count, mean, max_pow2);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{MachineStats, StreamStats};

    fn sample_snapshot() -> Snapshot {
        let registry = Registry::default();
        let stream = StreamStats { events: 10, ..StreamStats::default() };
        registry.fold_document(&stream, &MachineStats::default(), None, 0);
        registry.doc_ns.observe(999);
        registry.dispatch_ns.observe(100);
        Snapshot::capture(&registry)
    }

    #[test]
    fn json_has_schema_and_values() {
        let json = sample_snapshot().to_json();
        // Two sections and nothing else.
        assert!(json.starts_with("{\"schema\":\"vitex.metrics.v2\",\"counters\":[{"));
        assert_eq!(json.matches("],\"histograms\":[").count(), 1);
        assert!(json.ends_with("]}]}"));
        assert!(json.contains(
            "\"name\":\"vitex_stream_events_total\",\"deterministic\":true,\"value\":10"
        ));
        assert!(json.contains("{\"name\":\"vitex_doc_ns\",\"count\":1,\"sum\":999,"));
    }

    #[test]
    fn deterministic_subset_excludes_timers() {
        let snap = sample_snapshot();
        let det = snap.deterministic_json();
        assert!(det.contains("vitex_stream_events_total"));
        assert!(!det.contains("vitex_doc_ns"));
        assert!(!det.contains("vitex_dispatch_ns"));
    }

    #[test]
    fn human_summary_omits_zeroes() {
        let text = sample_snapshot().human_summary();
        assert!(text.contains("vitex_stream_events_total"));
        assert!(!text.contains("vitex_stream_elements_total"));
        assert!(text.contains("vitex_doc_ns"));
        assert!(text.contains("vitex_dispatch_ns"));
    }
}
