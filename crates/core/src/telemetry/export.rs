//! Snapshot and export formats: stable-schema JSON, Chrome trace-event
//! JSON, and a human-readable summary.
//!
//! The JSON snapshot (`schema: "vitex.metrics.v1"`) is the payload a future
//! subscription server would serve from its scrape endpoint; metric names
//! are Prometheus-ready. The trace export follows the Chrome trace-event
//! format (`ph: "X"` complete events, microsecond timestamps) and loads
//! directly in Perfetto or `chrome://tracing`.

use super::metrics::{CounterRow, GaugeRow, HistogramRow, Registry};
use super::span::{Span, SpanRecorder};
use std::fmt::Write as _;

/// Schema identifier embedded in every metrics snapshot.
pub const SNAPSHOT_SCHEMA: &str = "vitex.metrics.v1";

/// Point-in-time copy of every registry metric plus span-ring health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters with determinism class.
    pub counters: Vec<CounterRow>,
    /// All gauges with high-water marks.
    pub gauges: Vec<GaugeRow>,
    /// All histograms (non-empty buckets only).
    pub histograms: Vec<HistogramRow>,
    /// Spans overwritten because the span ring was full.
    pub spans_dropped: u64,
}

impl Snapshot {
    /// Capture the registry and span-ring state.
    pub fn capture(registry: &Registry, spans: &SpanRecorder) -> Snapshot {
        Snapshot {
            counters: registry.counter_rows(),
            gauges: registry.gauge_rows(),
            histograms: registry.histogram_rows(),
            spans_dropped: spans.dropped(),
        }
    }

    /// Value of a counter by export name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The deterministic counter subset as `(name, value)` rows — the part
    /// of the snapshot that must be invariant across shard counts (the
    /// differential battery compares this byte-for-byte via
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
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"value\":{},\"high\":{}}}",
                g.name, g.value, g.high
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
        let _ = write!(out, "],\"spans_dropped\":{}}}", self.spans_dropped);
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
        if self.gauges.iter().any(|g| g.high > 0) {
            section(&mut out, "gauges (last / high-water)");
            for g in &self.gauges {
                if g.high > 0 {
                    let _ = writeln!(out, "    {:<44} {} / {}", g.name, g.value, g.high);
                }
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
        if self.spans_dropped > 0 {
            let _ = writeln!(out, "  spans_dropped: {}", self.spans_dropped);
        }
        out
    }
}

/// Render spans as Chrome trace-event JSON (complete `"X"` events plus
/// `thread_name` metadata), loadable in Perfetto / `chrome://tracing`.
pub fn trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 512);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        if !first {
            out.push(',');
        }
        first = false;
        let name = thread_label(*tid);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        // Trace-event timestamps are in microseconds; keep fractional
        // precision so short spans stay visible.
        let ts = s.start_ns as f64 / 1000.0;
        let dur = (s.dur_ns as f64 / 1000.0).max(0.001);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{ts:.3},\"dur\":{dur:.3}}}",
            s.name, s.cat, s.tid
        );
    }
    out.push_str("]}");
    out
}

fn thread_label(tid: u32) -> String {
    use super::span::{TID_COORDINATOR, TID_SHARD_BASE};
    if tid == TID_COORDINATOR {
        "coordinator".to_string()
    } else {
        format!("shard-worker-{}", tid - TID_SHARD_BASE)
    }
}

#[cfg(test)]
mod tests {
    use super::super::span::Span;
    use super::*;
    use crate::stats::{MachineStats, StreamStats};

    fn sample_snapshot() -> Snapshot {
        let registry = Registry::default();
        let stream = StreamStats { events: 10, ..StreamStats::default() };
        registry.fold_document(&stream, &MachineStats::default(), None, 0);
        registry.worker_busy_ns.add(999);
        registry.ring_occupancy.set(3);
        registry.dispatch_ns.observe(100);
        let spans = SpanRecorder::default();
        Snapshot::capture(&registry, &spans)
    }

    #[test]
    fn json_has_schema_and_values() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"schema\":\"vitex.metrics.v1\""));
        assert!(json.contains(
            "\"name\":\"vitex_stream_events_total\",\"deterministic\":true,\"value\":10"
        ));
        assert!(json.contains(
            "\"name\":\"vitex_worker_busy_ns_total\",\"deterministic\":false,\"value\":999"
        ));
        assert!(json.contains("\"spans_dropped\":0"));
    }

    #[test]
    fn deterministic_subset_excludes_timers() {
        let snap = sample_snapshot();
        let det = snap.deterministic_json();
        assert!(det.contains("vitex_stream_events_total"));
        assert!(!det.contains("vitex_worker_busy_ns_total"));
        assert!(!det.contains("vitex_dispatch_ns"));
    }

    #[test]
    fn human_summary_omits_zeroes() {
        let text = sample_snapshot().human_summary();
        assert!(text.contains("vitex_stream_events_total"));
        assert!(!text.contains("vitex_stream_elements_total"));
        assert!(text.contains("vitex_ring_occupancy"));
        assert!(text.contains("vitex_dispatch_ns"));
    }

    #[test]
    fn trace_json_shape() {
        let spans = vec![
            Span { name: "document", cat: "stream", tid: 1, start_ns: 1000, dur_ns: 5000 },
            Span { name: "batch", cat: "shard", tid: 2, start_ns: 2000, dur_ns: 100 },
        ];
        let json = trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"shard-worker-0\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":5.000"));
    }
}
