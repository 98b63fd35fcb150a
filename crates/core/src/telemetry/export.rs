//! Snapshot and export formats: stable-schema JSON and a human-readable
//! summary.
//!
//! The JSON snapshot (`schema: "vitex.metrics.v3"`) holds four sections:
//! `counters` and `histograms`, whose metric names are Prometheus-style,
//! then `queries` (one row per subscription) and `groups` (one row per
//! active plan group), whose fields are the rows' export names.

use super::metrics::{CounterRow, GroupRow, HistogramRow, QueryRow, Registry};
use std::fmt::Write as _;

/// Schema identifier embedded in every metrics snapshot.
pub const SNAPSHOT_SCHEMA: &str = "vitex.metrics.v3";

/// How many queries the human-readable summary ranks.
const TOP_QUERIES: usize = 10;

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
    /// One row per subscription, ordered by query id.
    pub queries: Vec<QueryRow>,
    /// One row per active plan group, ordered by group id.
    pub groups: Vec<GroupRow>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// query text — the workspace carries no serde.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends `rows` as `"name":value` members, each preceded by a comma.
fn push_members(out: &mut String, rows: &[(&'static str, u64)]) {
    for (name, value) in rows {
        let _ = write!(out, ",\"{name}\":{value}");
    }
}

impl Snapshot {
    /// Capture the registry.
    pub fn capture(registry: &Registry) -> Snapshot {
        let (counters, histograms) = (registry.counter_rows(), registry.histogram_rows());
        let totals = registry.totals();
        let groups = totals.groups.iter().flatten().cloned().collect();
        Snapshot {
            counters,
            gauges: Vec::new(),
            histograms,
            queries: totals.queries.clone(),
            groups,
        }
    }

    /// Queries ranked by [`crate::stats::Bill::work`] descending, query id
    /// ascending on ties — a deterministic order, so the ranking is stable
    /// from run to run.
    pub fn top_queries(&self, k: usize) -> Vec<&QueryRow> {
        let mut ranked: Vec<&QueryRow> = self.queries.iter().collect();
        ranked.sort_by(|a, b| b.bill.work().cmp(&a.bill.work()).then(a.id.cmp(&b.id)));
        ranked.truncate(k);
        ranked
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
        out.push_str("],\"queries\":[");
        for (i, q) in self.queries.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}{{\"id\":{},\"query\":\"{}\"", q.id, escape_json(&q.query));
            push_members(&mut out, &q.rows());
            out.push('}');
        }
        out.push_str("],\"groups\":[");
        for (i, g) in self.groups.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ =
                write!(out, "{comma}{{\"gid\":{},\"shape\":\"{}\"", g.gid, escape_json(&g.shape));
            push_members(&mut out, &g.rows());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Human-readable multi-line summary (the `--stats` stderr report,
    /// after the per-run rows): the counters, the histograms, and the top
    /// 10 queries by work. Zero-valued counters and empty histograms are
    /// omitted.
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
        if !self.queries.is_empty() {
            let total = self.queries.iter().map(|q| q.bill.work()).sum::<u64>().max(1);
            section(
                &mut out,
                &format!("top queries by work (of {}, total {total})", self.queries.len()),
            );
            out.push_str(
                "    rank          work   share       steps     preds      hits   matches  query\n",
            );
            for (rank, q) in self.top_queries(TOP_QUERIES).iter().enumerate() {
                let m = &q.bill;
                let _ = writeln!(
                    out,
                    "    {:>4}  {:>12}  {:>5.1}%  {:>10}  {:>8}  {:>8}  {:>8}  {}",
                    rank + 1,
                    m.work(),
                    100.0 * m.work() as f64 / total as f64,
                    m.steps(),
                    m.predicate_evals,
                    m.dispatch_hits,
                    q.matches,
                    q.query
                );
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;
    use crate::stats::{Bill, MachineStats, PlanStats, StreamStats};

    fn sample_snapshot() -> Snapshot {
        let registry = Registry::default();
        let stream = StreamStats { events: 10, ..StreamStats::default() };
        registry.totals().fold_document(
            &stream,
            &MachineStats::default(),
            &PlanStats::default(),
            0,
        );
        registry.doc_ns.observe(999);
        registry.dispatch_ns.observe(100);
        Snapshot::capture(&registry)
    }

    fn bill(pushes: u64, preds: u64) -> Bill {
        Bill { pushes, pops: pushes, predicate_evals: preds, dispatch_hits: pushes }
    }

    fn query(id: usize, text: &str, bill: Bill) -> QueryRow {
        QueryRow { id, query: text.into(), bill, ..QueryRow::default() }
    }

    #[test]
    fn json_has_schema_and_values() {
        let json = sample_snapshot().to_json();
        // Four sections and nothing else.
        assert!(json.starts_with("{\"schema\":\"vitex.metrics.v3\",\"counters\":[{"));
        assert_eq!(json.matches("],\"histograms\":[").count(), 1);
        assert!(json.ends_with("]}],\"queries\":[],\"groups\":[]}"));
        assert!(json.contains(
            "\"name\":\"vitex_stream_events_total\",\"deterministic\":true,\"value\":10"
        ));
        assert!(json.contains("{\"name\":\"vitex_doc_ns\",\"count\":1,\"sum\":999,"));
    }

    #[test]
    fn query_and_group_rows_are_escaped_members() {
        let mut snap = sample_snapshot();
        let row = query(3, "//a[b = \"x\"]", bill(2, 1));
        snap.queries = vec![QueryRow { matches: 1, emitted_bytes: 13, ..row }];
        let shape = "//a[b = '']".into();
        snap.groups = vec![GroupRow { gid: 7, shape, subscribers: 3, bill: bill(2, 1) }];
        let json = snap.to_json();
        assert!(json.contains(
            "\"queries\":[{\"id\":3,\"query\":\"//a[b = \\\"x\\\"]\",\"vitex_query_steps_total\":4,\
             \"vitex_query_pushes_total\":2,\"vitex_query_pops_total\":2,\
             \"vitex_query_predicate_evals_total\":1,\"vitex_query_dispatch_hits_total\":2,\
             \"vitex_query_matches_total\":1,\"vitex_query_emitted_bytes_total\":13}]"
        ));
        assert!(json.ends_with(
            "\"groups\":[{\"gid\":7,\"shape\":\"//a[b = '']\",\"vitex_group_subscribers\":3,\
             \"vitex_group_pushes_total\":2,\"vitex_group_pops_total\":2,\
             \"vitex_group_predicate_evals_total\":1,\"vitex_group_dispatch_hits_total\":2}]}"
        ));
        // The rows stay out of the deterministic counter subset.
        assert!(!snap.deterministic_json().contains("vitex_query_"));
    }

    #[test]
    fn ranking_is_by_work_then_id() {
        let mut snap = sample_snapshot();
        snap.queries = vec![
            query(0, "cheap", bill(1, 0)),
            query(1, "hot", bill(100, 50)),
            query(2, "cheap2", bill(1, 0)),
        ];
        let top: Vec<&str> = snap.top_queries(2).iter().map(|q| q.query.as_str()).collect();
        assert_eq!(top, ["hot", "cheap"], "the tie with cheap2 is broken by id");
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
        assert!(!text.contains("top queries"), "no subscription, no ranking");
    }

    #[test]
    fn human_summary_ranks_the_top_queries() {
        let mut snap = sample_snapshot();
        snap.queries = (0..12).map(|i| query(i, &format!("//q{i}"), bill(i as u64, 0))).collect();
        snap.queries[4].bill = bill(500, 100);
        let text = snap.human_summary();
        let ranking = text.split("top queries by work (of 12, total ").nth(1).expect("ranked");
        let lines: Vec<&str> = ranking.lines().skip(2).collect();
        assert_eq!(lines.len(), 10, "the top 10 of 12");
        assert!(lines[0].trim_start().starts_with("1 ") && lines[0].ends_with("//q4"), "{text}");
        assert!(lines[1].ends_with("//q11") && lines[9].ends_with("//q2"), "{text}");
    }
}
