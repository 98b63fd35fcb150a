//! Per-subscription cost attribution: who costs what, live.
//!
//! The engine's whole performance story is built on *sharing* — deduped
//! plan groups, a shared prefix trie, shard fan-out — which makes
//! per-subscription cost invisible: the metrics registry answers "how is
//! the pipeline doing" but not "which of my thousand standing queries is
//! eating the machine". The [`CostLedger`] answers that second question.
//!
//! Attribution has two determinism classes, mirroring the metrics
//! registry:
//!
//! * **Per-query counters** (steps, pushes, pops, predicate evaluations,
//!   dispatch hits, matches, emitted bytes) are folded on the document
//!   thread from the same per-run [`MachineStats`] the engine already
//!   reports per subscription. Because those stats are invariant across
//!   shard counts (the differential batteries assert it), the per-query
//!   profile is **byte-identical** across every execution configuration —
//!   [`ProfileSnapshot::deterministic_json`] is comparable with `==`.
//! * **Per-group diagnostics** (shared trie steps billed to routed
//!   groups, sampled machine self-time, merge hold latency, subscriber
//!   counts) depend on the chosen shard configuration and are reported
//!   separately, outside the deterministic section.
//!
//! The ledger is a cheap clone-able handle like
//! [`Telemetry`]: disabled (the default) it holds
//! `None` and every call is an inert early return; enabled it holds an
//! `Arc<Mutex<..>>` that is only locked at per-document fold granularity,
//! never per event.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::Telemetry;
use crate::result::{Match, QueryId};
use crate::stats::MachineStats;

/// Schema identifier embedded in every profile export.
pub const PROFILE_SCHEMA: &str = "vitex.profile.v1";

/// Deterministic per-subscription cost counters, keyed by [`QueryId`] and
/// the query's source text. All counter fields are invariant across
/// plan × shard configurations.
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
    /// Machine stack pushes attributed to this subscription.
    pub pushes: u64,
    /// Machine stack pops attributed to this subscription.
    pub pops: u64,
    /// Predicate evaluations attributed to this subscription.
    pub predicate_evals: u64,
    /// Element events that engaged this subscription's machine.
    pub dispatch_hits: u64,
    /// Matches delivered to this subscription.
    pub matches: u64,
    /// Bytes of match payload delivered (node id + name + value text).
    pub emitted_bytes: u64,
}

impl QueryCost {
    /// Machine steps executed: pushes + pops.
    pub fn steps(&self) -> u64 {
        self.pushes + self.pops
    }

    /// The ranking score: total attributable machine work. Deterministic,
    /// so top-k ranking is stable across every execution configuration.
    pub fn work(&self) -> u64 {
        self.pushes + self.pops + self.predicate_evals + self.dispatch_hits
    }
}

/// Per-plan-group cost diagnostics. Group composition depends on which
/// registrations dedupe, and self-time/hold figures are
/// scheduling-dependent, so none of this participates in deterministic
/// comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Plan group id.
    pub gid: usize,
    /// Canonical query text of the group.
    pub canonical: String,
    /// Subscriptions served by this group.
    pub subscribers: u64,
    /// Machine stack pushes executed by the group's machine.
    pub pushes: u64,
    /// Machine stack pops executed by the group's machine.
    pub pops: u64,
    /// Predicate evaluations executed by the group's machine.
    pub predicate_evals: u64,
    /// Element events that engaged the group's machine.
    pub dispatch_hits: u64,
    /// Shared step-trie advances billed to this group: each trie push is
    /// billed once to every routed group, so the sum over groups counts
    /// the work sharing *avoided*.
    pub shared_steps: u64,
    /// Sampled machine self-time in nanoseconds, from whichever thread
    /// ran the group's machine. Timing class — never deterministic.
    pub self_ns: u64,
    /// Matches from this group released by the watermark merger.
    pub deliveries: u64,
    /// Nanoseconds those matches waited in the merger for their
    /// watermark. Timing class.
    pub hold_ns: u64,
}

impl GroupCost {
    /// Machine work executed by this group (one machine, however many
    /// subscribers) — the input a cost-aware shard partitioner consumes.
    pub fn work(&self) -> u64 {
        self.pushes + self.pops + self.predicate_evals + self.dispatch_hits
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    docs: u64,
    queries: BTreeMap<usize, QueryCost>,
    groups: BTreeMap<usize, GroupCost>,
}

/// Shared handle to the cost ledger; `None` inside means profiling is
/// disabled and every recording call is a no-op. The mutex is taken at
/// per-document fold granularity only.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    inner: Option<Arc<Mutex<LedgerInner>>>,
}

/// Match payload bytes for delivery accounting: the node id plus the
/// `Arc`-backed name/value text. A pure function of the match, so the
/// total is deterministic wherever the match set is.
fn match_bytes(m: &Match) -> u64 {
    8 + m.name.as_deref().map_or(0, str::len) as u64 + m.value.as_deref().map_or(0, str::len) as u64
}

impl CostLedger {
    /// The no-op handle (the default).
    pub fn disabled() -> CostLedger {
        CostLedger { inner: None }
    }

    /// A live ledger.
    pub fn enabled() -> CostLedger {
        CostLedger { inner: Some(Arc::new(Mutex::new(LedgerInner::default()))) }
    }

    /// Whether attribution is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, LedgerInner>> {
        self.inner.as_ref().map(|m| m.lock().expect("cost ledger poisoned"))
    }

    /// Count one completed document.
    pub fn add_doc(&self) {
        if let Some(mut inner) = self.lock() {
            inner.docs += 1;
        }
    }

    /// Fold one subscription's per-document machine stats and match
    /// deliveries. Called on the document thread after each run, once per
    /// registered query — the same per-subscription fold discipline the
    /// metrics registry uses, which is what makes the per-query counters
    /// configuration-invariant.
    pub fn fold_query(
        &self,
        id: QueryId,
        text: &str,
        group: Option<usize>,
        stats: &MachineStats,
        matches: &[Match],
    ) {
        if let Some(mut inner) = self.lock() {
            let q = inner.queries.entry(id.0).or_default();
            q.id = id.0;
            if q.text.is_empty() {
                q.text = text.to_string();
            }
            q.group = group;
            q.pushes += stats.pushes;
            q.pops += stats.pops;
            q.predicate_evals += stats.predicate_evals;
            q.dispatch_hits += stats.dispatch_hits;
            q.matches += matches.len() as u64;
            q.emitted_bytes += matches.iter().map(match_bytes).sum::<u64>();
        }
    }

    /// Fold one plan group's per-document machine stats (diagnostic
    /// section; group identity is plan-mode-dependent).
    pub fn fold_group(&self, gid: usize, canonical: &str, subscribers: u64, stats: &MachineStats) {
        if let Some(mut inner) = self.lock() {
            let g = inner.groups.entry(gid).or_default();
            g.gid = gid;
            if g.canonical.is_empty() {
                g.canonical = canonical.to_string();
            }
            g.subscribers = subscribers;
            g.pushes += stats.pushes;
            g.pops += stats.pops;
            g.predicate_evals += stats.predicate_evals;
            g.dispatch_hits += stats.dispatch_hits;
        }
    }

    /// Bill shared step-trie advances to routed groups: `counts[gid]`
    /// trie pushes were executed on behalf of group `gid` this document.
    pub fn add_shared_steps(&self, counts: &[u64]) {
        if let Some(mut inner) = self.lock() {
            for (gid, &n) in counts.iter().enumerate() {
                if n > 0 {
                    inner.groups.entry(gid).or_default().shared_steps += n;
                }
            }
        }
    }

    /// Add sampled machine self-time for a group.
    pub fn add_self_ns(&self, gid: usize, ns: u64) {
        if ns > 0 {
            if let Some(mut inner) = self.lock() {
                let g = inner.groups.entry(gid).or_default();
                g.gid = gid;
                g.self_ns += ns;
            }
        }
    }

    /// Add merger hold accounting for a group: `deliveries` matches
    /// released after waiting a total of `ns` nanoseconds.
    pub fn add_hold(&self, gid: usize, deliveries: u64, ns: u64) {
        if deliveries > 0 {
            if let Some(mut inner) = self.lock() {
                let g = inner.groups.entry(gid).or_default();
                g.gid = gid;
                g.deliveries += deliveries;
                g.hold_ns += ns;
            }
        }
    }

    /// Point-in-time copy of the ledger, when enabled.
    pub fn snapshot(&self) -> Option<ProfileSnapshot> {
        self.lock().map(|inner| ProfileSnapshot {
            docs: inner.docs,
            queries: inner.queries.values().cloned().collect(),
            groups: inner.groups.values().cloned().collect(),
        })
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
    /// Queries ranked by [`QueryCost::work`] descending, query id
    /// ascending on ties — a deterministic order, so the ranking is
    /// stable across every execution configuration.
    pub fn top_queries(&self, k: usize) -> Vec<&QueryCost> {
        let mut ranked: Vec<&QueryCost> = self.queries.iter().collect();
        ranked.sort_by(|a, b| b.work().cmp(&a.work()).then(a.id.cmp(&b.id)));
        ranked.truncate(k);
        ranked
    }

    /// Total ranking work across all queries.
    pub fn total_work(&self) -> u64 {
        self.queries.iter().map(QueryCost::work).sum()
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
                q.steps(),
                q.pushes,
                q.pops,
                q.predicate_evals,
                q.dispatch_hits,
                q.matches,
                q.emitted_bytes,
            );
        }
        out.push(']');
        out
    }

    /// Canonical JSON of the deterministic section only (schema, document
    /// count, per-query counters). Byte-identical across plan × shard
    /// configurations for the same document stream and query set — tests
    /// compare it with `==`.
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
                 \"shared_steps\":{},\"self_ns\":{},\"deliveries\":{},\"hold_ns\":{}}}",
                g.gid,
                escape_json(&g.canonical),
                g.subscribers,
                g.pushes,
                g.pops,
                g.predicate_evals,
                g.dispatch_hits,
                g.shared_steps,
                g.self_ns,
                g.deliveries,
                g.hold_ns,
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
            let share = 100.0 * q.work() as f64 / total as f64;
            let split = match shared_of(q) {
                Some(s) if s > 0 => format!("{}/{}", s, q.steps()),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>12}  {:>5.1}%  {:>10}  {:>8}  {:>8}  {:>8}  {:>15}  {}",
                rank + 1,
                q.work(),
                share,
                q.steps(),
                q.predicate_evals,
                q.dispatch_hits,
                q.matches,
                split,
                q.text
            );
        }
        out
    }
}

/// Periodic stderr heartbeat for long sessions: documents per second,
/// ring occupancy, and the top-3 hot plan groups by attributed work.
/// Stops (and joins its thread) on drop.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Start a heartbeat printing every `every` to stderr. The ledger
    /// and telemetry handles are sampled live; either may be disabled
    /// (the corresponding fields print as absent).
    pub fn start(every: Duration, ledger: CostLedger, telemetry: Telemetry) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("vitex-heartbeat".into())
            .spawn(move || heartbeat_loop(every, &ledger, &telemetry, &flag))
            .expect("spawn heartbeat thread");
        Heartbeat { stop, handle: Some(handle) }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn heartbeat_loop(every: Duration, ledger: &CostLedger, telemetry: &Telemetry, stop: &AtomicBool) {
    let mut last_docs = 0u64;
    let mut last = Instant::now();
    loop {
        let deadline = Instant::now() + every;
        while Instant::now() < deadline {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20).min(every));
        }
        let Some(snap) = ledger.snapshot() else { continue };
        let now = Instant::now();
        let dt = now.saturating_duration_since(last).as_secs_f64();
        let delta_docs = snap.docs.saturating_sub(last_docs);
        last_docs = snap.docs;
        last = now;
        let ring = telemetry
            .registry()
            .map(|r| format!(" ring={}/{}", r.ring_occupancy.get(), r.ring_occupancy.high()))
            .unwrap_or_default();
        let mut hot: Vec<&GroupCost> = snap.groups.iter().collect();
        hot.sort_by(|a, b| b.work().cmp(&a.work()).then(a.gid.cmp(&b.gid)));
        let hot = hot
            .iter()
            .take(3)
            .filter(|g| g.work() > 0)
            .map(|g| {
                let text: String = g.canonical.chars().take(32).collect();
                format!("g{}:{}({})", g.gid, g.work(), text)
            })
            .collect::<Vec<_>>()
            .join(" ");
        eprintln!("{}", heartbeat_line(snap.docs, delta_docs, dt, &ring, &hot));
    }
}

/// Formats one heartbeat line. Until the first document completes there
/// is no rate to report — dividing would print a spurious `0.0/s`, or
/// `inf`/`NaN` for a degenerate interval — so the rate field renders as
/// `-` while `docs == 0` and whenever the interval is unusable.
fn heartbeat_line(docs: u64, delta_docs: u64, dt_secs: f64, ring: &str, hot: &str) -> String {
    let rate = if docs == 0 || !dt_secs.is_finite() || dt_secs <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.1}/s", delta_docs as f64 / dt_secs)
    };
    format!("heartbeat: docs={docs} rate={rate}{ring} hot=[{hot}]")
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
    fn heartbeat_line_guards_the_rate_division() {
        // Zero completed documents: no rate, not "0.0/s" (and never
        // NaN/inf, whatever the interval did).
        assert_eq!(heartbeat_line(0, 0, 5.0, "", ""), "heartbeat: docs=0 rate=- hot=[]");
        assert_eq!(heartbeat_line(0, 0, 0.0, "", ""), "heartbeat: docs=0 rate=- hot=[]");
        // Degenerate intervals stay non-numeric even with documents done.
        assert_eq!(heartbeat_line(3, 3, 0.0, "", ""), "heartbeat: docs=3 rate=- hot=[]");
        assert_eq!(heartbeat_line(3, 3, f64::NAN, "", ""), "heartbeat: docs=3 rate=- hot=[]");
        // The healthy case formats as before.
        assert_eq!(
            heartbeat_line(10, 5, 2.0, " ring=1/4", "g0:9(//a)"),
            "heartbeat: docs=10 rate=2.5/s ring=1/4 hot=[g0:9(//a)]"
        );
    }

    #[test]
    fn disabled_is_inert() {
        let ledger = CostLedger::disabled();
        assert!(!ledger.is_enabled());
        ledger.add_doc();
        ledger.fold_query(QueryId(0), "//a", None, &stats(1, 0), &[]);
        ledger.fold_group(0, "//a", 1, &stats(1, 0));
        assert!(ledger.snapshot().is_none());
    }

    #[test]
    fn folds_accumulate_per_query() {
        let ledger = CostLedger::enabled();
        ledger.add_doc();
        ledger.add_doc();
        let matches = vec![sample_match("cell", Some("x"))];
        ledger.fold_query(QueryId(0), "//a", Some(0), &stats(5, 2), &matches);
        ledger.fold_query(QueryId(0), "//a", Some(0), &stats(5, 2), &[]);
        let snap = ledger.snapshot().unwrap();
        assert_eq!(snap.docs, 2);
        assert_eq!(snap.queries.len(), 1);
        let q = &snap.queries[0];
        assert_eq!(q.text, "//a");
        assert_eq!(q.pushes, 10);
        assert_eq!(q.predicate_evals, 4);
        assert_eq!(q.matches, 1);
        assert_eq!(q.emitted_bytes, 8 + 4 + 1);
    }

    #[test]
    fn ranking_is_by_work_then_id() {
        let ledger = CostLedger::enabled();
        ledger.fold_query(QueryId(0), "cheap", None, &stats(1, 0), &[]);
        ledger.fold_query(QueryId(1), "hot", None, &stats(100, 50), &[]);
        ledger.fold_query(QueryId(2), "cheap2", None, &stats(1, 0), &[]);
        let snap = ledger.snapshot().unwrap();
        let top = snap.top_queries(2);
        assert_eq!(top[0].text, "hot");
        assert_eq!(top[1].text, "cheap"); // tie with cheap2 broken by id
    }

    #[test]
    fn deterministic_json_shape_and_escaping() {
        let ledger = CostLedger::enabled();
        ledger.add_doc();
        ledger.fold_query(QueryId(3), "//a[b = \"x\"]", Some(7), &stats(2, 1), &[]);
        let snap = ledger.snapshot().unwrap();
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
        let ledger = CostLedger::enabled();
        ledger.fold_query(QueryId(0), "//a", Some(0), &stats(2, 0), &[]);
        ledger.fold_group(0, "//a", 3, &stats(2, 0));
        ledger.add_shared_steps(&[4]);
        ledger.add_self_ns(0, 1234);
        ledger.add_hold(0, 2, 99);
        let snap = ledger.snapshot().unwrap();
        let json = snap.to_json();
        assert!(json.contains("\"groups\":[{\"gid\":0,\"canonical\":\"//a\",\"subscribers\":3"));
        assert!(json.contains("\"shared_steps\":4"));
        assert!(json.contains("\"self_ns\":1234"));
        assert!(json.contains("\"deliveries\":2,\"hold_ns\":99"));
        // The queries array is the same bytes in both exports.
        let queries = snap.queries_json();
        assert!(json.contains(&queries));
        assert!(snap.deterministic_json().contains(&queries));
    }

    #[test]
    fn table_ranks_and_splits() {
        let ledger = CostLedger::enabled();
        ledger.add_doc();
        ledger.fold_query(QueryId(0), "//cheap", Some(1), &stats(1, 0), &[]);
        ledger.fold_query(QueryId(1), "//hot//deep", Some(0), &stats(500, 100), &[]);
        ledger.fold_group(0, "//hot//deep", 1, &stats(500, 100));
        ledger.add_shared_steps(&[7]);
        let snap = ledger.snapshot().unwrap();
        let table = snap.table(2);
        let hot_line = table.lines().find(|l| l.contains("//hot//deep")).unwrap();
        assert!(hot_line.trim_start().starts_with('1'), "hot query must rank #1: {hot_line}");
        assert!(hot_line.contains("7/1000"), "shared/private split missing: {hot_line}");
    }

    #[test]
    fn heartbeat_starts_and_stops() {
        let ledger = CostLedger::enabled();
        ledger.add_doc();
        let hb = Heartbeat::start(Duration::from_secs(3600), ledger, Telemetry::disabled());
        drop(hb); // must join promptly despite the long interval
    }
}
