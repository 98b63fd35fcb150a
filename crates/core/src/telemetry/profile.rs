//! Per-subscription cost attribution: who costs what, live.
//!
//! The engine's whole performance story is built on *sharing* — deduped
//! plan groups, a shared prefix trie, subscriber fan-out — which makes
//! per-subscription cost invisible: the metrics registry answers "how is
//! the pipeline doing" but not "which of my thousand standing queries is
//! eating the machine". The cost ledger answers that second question.
//!
//! Attribution has two determinism classes, mirroring the metrics
//! registry:
//!
//! * **Per-query counters** (steps, pushes, pops, predicate evaluations,
//!   dispatch hits) are read off the same per-run [`MachineStats`] the
//!   engine already reports per subscription, summed over the documents
//!   billed; emitted bytes are tallied by the executor as each solution
//!   leaves its machine. Those stats are a pure function of the documents
//!   and the query set, so the per-query profile is **byte-identical**
//!   from run to run — [`ProfileSnapshot::deterministic_json`] is
//!   comparable with `==`.
//! * **Per-group diagnostics** (shared trie steps billed to routed
//!   groups, sampled machine self-time, subscriber counts) depend on how
//!   registrations dedupe, or on the clock, and are reported separately,
//!   outside the deterministic section.
//!
//! The ledger is plain data the engine owns (`None` while profiling is
//! off): the per-document epilogue folds into it through `&mut` once a
//! document has streamed — never per event — and readers take a
//! [`ProfileSnapshot`] copy between documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::result::{Match, QueryId};
use crate::stats::MachineStats;

/// Schema identifier embedded in every profile export.
pub const PROFILE_SCHEMA: &str = "vitex.profile.v1";

/// Deterministic per-subscription cost counters, keyed by [`QueryId`] and
/// the query's source text. All counter fields are a pure function of the
/// documents billed and the query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Registration index of the subscription.
    pub id: usize,
    /// The query's source text, as registered.
    pub text: String,
    /// Plan group currently serving this subscription. Group identity is
    /// plan-mode-dependent, so this field is diagnostic only — it is
    /// deliberately **excluded** from the JSON exports.
    pub group: Option<usize>,
    /// The subscription's machine counters, summed over the documents
    /// billed: the bill's steps, predicate evaluations and dispatch hits,
    /// and — [`MachineStats::work`] — its ranking score.
    pub machine: MachineStats,
    /// Matches delivered to this subscription.
    pub matches: u64,
    /// Bytes of match payload delivered (node id + name + value text).
    pub emitted_bytes: u64,
}

/// Per-plan-group cost diagnostics. Group composition depends on which
/// registrations dedupe, and self-time is a clock reading, so none of
/// this participates in deterministic comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Plan group id.
    pub gid: usize,
    /// Canonical query text of the group.
    pub canonical: String,
    /// Subscriptions served by this group.
    pub subscribers: u64,
    /// The group machine's counters (one machine, however many
    /// subscribers), summed over the documents billed. A diagnostic only.
    pub machine: MachineStats,
    /// Shared step-trie advances billed to this group: each trie push is
    /// billed once to every routed group, so the sum over groups counts
    /// the work sharing *avoided*.
    pub shared_steps: u64,
    /// Sampled machine self-time in nanoseconds. Timing class — never
    /// deterministic.
    pub self_ns: u64,
}

/// The cost ledger: what each subscription and each plan group has cost
/// over the documents folded so far.
#[derive(Debug, Default)]
pub(crate) struct CostLedger {
    docs: u64,
    queries: BTreeMap<usize, QueryCost>,
    groups: BTreeMap<usize, GroupCost>,
}

/// Match payload bytes for delivery accounting: the node id plus the
/// name/value text. A pure function of the match, so the
/// total is deterministic wherever the match set is.
pub(crate) fn match_bytes(m: &Match) -> u64 {
    8 + m.name.as_deref().map_or(0, str::len) as u64 + m.value.as_deref().map_or(0, str::len) as u64
}

impl CostLedger {
    /// Count one completed document.
    pub(crate) fn add_doc(&mut self) {
        self.docs += 1;
    }

    /// Fold one subscription's per-document machine stats and the payload
    /// bytes of the matches delivered to it (their number is the machine's
    /// own `emitted`: it counts at the one place a solution leaves it).
    /// Called once per registered query — per subscription, not per plan
    /// group, the fold discipline the metrics registry uses — which is
    /// what makes the per-query counters configuration-invariant.
    pub(crate) fn fold_query(
        &mut self,
        id: QueryId,
        text: &str,
        group: Option<usize>,
        stats: &MachineStats,
        emitted_bytes: u64,
    ) {
        let q = self.queries.entry(id.0).or_default();
        q.id = id.0;
        if q.text.is_empty() {
            q.text = text.to_string();
        }
        q.group = group;
        q.machine.add(stats);
        q.matches += stats.emitted;
        q.emitted_bytes += emitted_bytes;
    }

    fn group(&mut self, gid: usize) -> &mut GroupCost {
        let g = self.groups.entry(gid).or_default();
        g.gid = gid;
        g
    }

    /// Fold one plan group's per-document machine stats (diagnostic
    /// section; group identity is plan-mode-dependent).
    pub(crate) fn fold_group(
        &mut self,
        gid: usize,
        canonical: &str,
        subscribers: u64,
        stats: &MachineStats,
    ) {
        let g = self.group(gid);
        if g.canonical.is_empty() {
            g.canonical = canonical.to_string();
        }
        g.subscribers = subscribers;
        g.machine.add(stats);
    }

    /// Bill shared step-trie advances to routed groups: `counts[gid]`
    /// trie pushes were executed on behalf of group `gid` this document.
    pub(crate) fn add_shared_steps(&mut self, counts: &[u64]) {
        for (gid, &n) in counts.iter().enumerate() {
            if n > 0 {
                self.group(gid).shared_steps += n;
            }
        }
    }

    /// Add sampled machine self-time for a group.
    pub(crate) fn add_self_ns(&mut self, gid: usize, ns: u64) {
        if ns > 0 {
            self.group(gid).self_ns += ns;
        }
    }

    /// Point-in-time copy of the ledger.
    pub(crate) fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            docs: self.docs,
            queries: self.queries.values().cloned().collect(),
            groups: self.groups.values().cloned().collect(),
        }
    }
}

/// Point-in-time copy of the cost ledger: deterministic per-query
/// counters plus per-group diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Documents folded into the ledger.
    pub docs: u64,
    /// Per-subscription costs, ordered by query id.
    pub queries: Vec<QueryCost>,
    /// Per-group diagnostics, ordered by group id.
    pub groups: Vec<GroupCost>,
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

impl ProfileSnapshot {
    /// Queries ranked by [`MachineStats::work`] descending, query id
    /// ascending on ties — a deterministic order, so the ranking is
    /// stable from run to run.
    pub fn top_queries(&self, k: usize) -> Vec<&QueryCost> {
        let mut ranked: Vec<&QueryCost> = self.queries.iter().collect();
        ranked.sort_by(|a, b| b.machine.work().cmp(&a.machine.work()).then(a.id.cmp(&b.id)));
        ranked.truncate(k);
        ranked
    }

    /// Total ranking work across all queries.
    pub fn total_work(&self) -> u64 {
        self.queries.iter().map(|q| q.machine.work()).sum()
    }

    fn queries_json(&self) -> String {
        let mut out = String::from("[");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"query\":\"{}\",\
                 \"vitex_query_steps_total\":{},\
                 \"vitex_query_pushes_total\":{},\
                 \"vitex_query_pops_total\":{},\
                 \"vitex_query_predicate_evals_total\":{},\
                 \"vitex_query_dispatch_hits_total\":{},\
                 \"vitex_query_matches_total\":{},\
                 \"vitex_query_emitted_bytes_total\":{}}}",
                q.id,
                escape_json(&q.text),
                q.machine.steps(),
                q.machine.pushes,
                q.machine.pops,
                q.machine.predicate_evals,
                q.machine.dispatch_hits,
                q.matches,
                q.emitted_bytes,
            );
        }
        out.push(']');
        out
    }

    /// Canonical JSON of the deterministic section only (schema, document
    /// count, per-query counters). Byte-identical for the same document
    /// stream and query set — tests compare it with `==`.
    pub fn deterministic_json(&self) -> String {
        format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"docs\":{},\"queries\":{}}}",
            self.docs,
            self.queries_json()
        )
    }

    /// Full profile as stable-schema JSON: the deterministic per-query
    /// section plus the per-group diagnostic section (plan-shape- and
    /// timing-dependent; excluded from equality).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"docs\":{},\"queries\":{},\"groups\":[",
            self.docs,
            self.queries_json()
        );
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"gid\":{},\"canonical\":\"{}\",\"subscribers\":{},\
                 \"pushes\":{},\"pops\":{},\"predicate_evals\":{},\"dispatch_hits\":{},\
                 \"shared_steps\":{},\"self_ns\":{}}}",
                g.gid,
                escape_json(&g.canonical),
                g.subscribers,
                g.machine.pushes,
                g.machine.pops,
                g.machine.predicate_evals,
                g.machine.dispatch_hits,
                g.shared_steps,
                g.self_ns,
            );
        }
        out.push_str("]}");
        out
    }

    /// The `--profile` stderr report: a top-k hot-query table with cost
    /// shares and, where a shared trie ran, the shared-vs-private step
    /// split (shared = trie advances billed to the query's group, private
    /// = the machine steps the query still executes itself).
    pub fn table(&self, k: usize) -> String {
        let total = self.total_work().max(1);
        let shared_of = |q: &QueryCost| -> Option<u64> {
            let gid = q.group?;
            self.groups.iter().find(|g| g.gid == gid).map(|g| g.shared_steps)
        };
        let mut out = format!(
            "profile: docs={} queries={} groups={} total_work={}\n",
            self.docs,
            self.queries.len(),
            self.groups.len(),
            total
        );
        let _ = writeln!(
            out,
            "{:>4}  {:>12}  {:>6}  {:>10}  {:>8}  {:>8}  {:>8}  {:>15}  query",
            "rank", "work", "share", "steps", "preds", "hits", "matches", "shared/private"
        );
        for (rank, q) in self.top_queries(k).iter().enumerate() {
            let m = &q.machine;
            let share = 100.0 * m.work() as f64 / total as f64;
            let split = match shared_of(q) {
                Some(s) if s > 0 => format!("{}/{}", s, m.steps()),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>12}  {:>5.1}%  {:>10}  {:>8}  {:>8}  {:>8}  {:>15}  {}",
                rank + 1,
                m.work(),
                share,
                m.steps(),
                m.predicate_evals,
                m.dispatch_hits,
                q.matches,
                split,
                q.text
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MatchKind;
    use vitex_xmlsax::pos::ByteSpan;

    fn sample_match(name: &str, value: Option<&str>) -> Match {
        Match {
            kind: MatchKind::Element,
            node: 1,
            name: Some(name.into()),
            span: ByteSpan::new(0, 4),
            value: value.map(Into::into),
            level: 1,
        }
    }

    fn stats(pushes: u64, preds: u64) -> MachineStats {
        MachineStats {
            pushes,
            pops: pushes,
            predicate_evals: preds,
            dispatch_hits: pushes,
            ..MachineStats::default()
        }
    }

    #[test]
    fn folds_accumulate_per_query() {
        let mut ledger = CostLedger::default();
        ledger.add_doc();
        ledger.add_doc();
        let one_match = MachineStats { emitted: 1, ..stats(5, 2) };
        let bytes = match_bytes(&sample_match("cell", Some("x")));
        ledger.fold_query(QueryId(0), "//a", Some(0), &one_match, bytes);
        ledger.fold_query(QueryId(0), "//a", Some(0), &stats(5, 2), 0);
        let snap = ledger.snapshot();
        assert_eq!(snap.docs, 2);
        assert_eq!(snap.queries.len(), 1);
        let q = &snap.queries[0];
        assert_eq!(q.text, "//a");
        assert_eq!(q.machine.pushes, 10);
        assert_eq!(q.machine.predicate_evals, 4);
        assert_eq!(q.matches, 1);
        assert_eq!(q.emitted_bytes, 8 + 4 + 1);
    }

    #[test]
    fn ranking_is_by_work_then_id() {
        let mut ledger = CostLedger::default();
        ledger.fold_query(QueryId(0), "cheap", None, &stats(1, 0), 0);
        ledger.fold_query(QueryId(1), "hot", None, &stats(100, 50), 0);
        ledger.fold_query(QueryId(2), "cheap2", None, &stats(1, 0), 0);
        let snap = ledger.snapshot();
        let top = snap.top_queries(2);
        assert_eq!(top[0].text, "hot");
        assert_eq!(top[1].text, "cheap"); // tie with cheap2 broken by id
    }

    #[test]
    fn deterministic_json_shape_and_escaping() {
        let mut ledger = CostLedger::default();
        ledger.add_doc();
        ledger.fold_query(QueryId(3), "//a[b = \"x\"]", Some(7), &stats(2, 1), 0);
        let snap = ledger.snapshot();
        let json = snap.deterministic_json();
        assert!(json.starts_with("{\"schema\":\"vitex.profile.v1\",\"docs\":1,"));
        assert!(json.contains("\"query\":\"//a[b = \\\"x\\\"]\""));
        assert!(json.contains("\"vitex_query_steps_total\":4"));
        assert!(json.contains("\"vitex_query_predicate_evals_total\":1"));
        // Group identity is plan-mode-dependent and must stay out of the
        // deterministic section.
        assert!(!json.contains("\"group\""));
        assert!(!json.contains("\"gid\""));
    }

    #[test]
    fn full_json_adds_group_diagnostics() {
        let mut ledger = CostLedger::default();
        ledger.fold_query(QueryId(0), "//a", Some(0), &stats(2, 0), 0);
        ledger.fold_group(0, "//a", 3, &stats(2, 0));
        ledger.add_shared_steps(&[4]);
        ledger.add_self_ns(0, 1234);
        let snap = ledger.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"groups\":[{\"gid\":0,\"canonical\":\"//a\",\"subscribers\":3"));
        assert!(json.contains("\"shared_steps\":4"));
        assert!(json.contains("\"shared_steps\":4,\"self_ns\":1234}"));
        // The queries array is the same bytes in both exports.
        let queries = snap.queries_json();
        assert!(json.contains(&queries));
        assert!(snap.deterministic_json().contains(&queries));
    }

    #[test]
    fn table_ranks_and_splits() {
        let mut ledger = CostLedger::default();
        ledger.add_doc();
        ledger.fold_query(QueryId(0), "//cheap", Some(1), &stats(1, 0), 0);
        ledger.fold_query(QueryId(1), "//hot//deep", Some(0), &stats(500, 100), 0);
        ledger.fold_group(0, "//hot//deep", 1, &stats(500, 100));
        ledger.add_shared_steps(&[7]);
        let snap = ledger.snapshot();
        let table = snap.table(2);
        let hot_line = table.lines().find(|l| l.contains("//hot//deep")).unwrap();
        assert!(hot_line.trim_start().starts_with('1'), "hot query must rank #1: {hot_line}");
        assert!(hot_line.contains("7/1000"), "shared/private split missing: {hot_line}");
    }
}
