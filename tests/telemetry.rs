//! Telemetry battery: the deterministic counter subset of the metrics
//! registry must equal what the engine reported through `MultiOutput` and
//! what private per-query engines count, while the timing-derived
//! counters and histograms are present in the snapshot but excluded from
//! the deterministic export.
//!
//! The snapshot's per-query rows must bill each subscription what a
//! private engine costs, and rank the expensive one first.
//!
//! Also covers the export surface: the `vitex.metrics.v3` JSON snapshot
//! must be syntactically valid (checked with a small hand-rolled JSON
//! walker — the workspace takes no serde dependency), and the README's
//! metric glossary and the exported names must cover each other.

mod common;

use common::{pinned_queries_with_hog, query_set};
use vitex::core::telemetry::{GroupRow, HistogramRow, QueryRow, Snapshot, Telemetry};
use vitex::core::{
    evaluate_reader, Bill, Engine, MachineStats, MultiEngine, MultiOutput, QueryId, StreamStats,
};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

/// A fresh engine over `trees` with an enabled telemetry handle attached;
/// returns the engine and the handle for snapshotting.
fn observed_engine(trees: &[QueryTree]) -> (MultiEngine, Telemetry) {
    let telemetry = Telemetry::enabled();
    let mut engine = MultiEngine::new();
    engine.set_telemetry(telemetry.clone());
    for tree in trees {
        engine.add_tree(tree).expect("registrable");
    }
    (engine, telemetry)
}

/// Runs `xml` through a fresh observed engine; returns the engine output
/// and the handle for snapshotting.
fn run_observed(trees: &[QueryTree], xml: &str) -> (MultiOutput, Telemetry) {
    let (mut engine, telemetry) = observed_engine(trees);
    let out = engine.run(XmlReader::from_str(xml), |_, _| {}).expect("engine run");
    (out, telemetry)
}

#[test]
fn stream_and_match_counters_equal_per_query_engine_totals() {
    // However the plan groups and executes the subscriptions, what the
    // document contained and what matched is fixed by the queries alone:
    // the registry's stream and match counters must equal what k private
    // single-query engines report, summed per subscription.
    let xml = random::to_string(&RandomConfig::seeded(3));
    let trees = query_set(8);
    let singles: Vec<_> = trees
        .iter()
        .map(|tree| evaluate_reader(XmlReader::from_str(&xml), tree).expect("single-query run"))
        .collect();
    let matched: u64 = singles.iter().map(|s| s.matches.len() as u64).sum();
    let expected = [
        ("vitex_stream_events_total", singles[0].events),
        ("vitex_stream_elements_total", singles[0].elements),
        ("vitex_stream_text_nodes_total", singles[0].text_nodes),
        ("vitex_matches_total", matched),
        ("vitex_machine_emitted_total", singles.iter().map(|s| s.stats.emitted).sum()),
    ];
    assert!(matched > 0, "the seeds were chosen to match something");
    let (_, telemetry) = run_observed(&trees, &xml);
    let snapshot = telemetry.snapshot().expect("enabled");
    for (name, value) in expected {
        assert_eq!(snapshot.counter(name), Some(value), "{name}");
    }
}

#[test]
fn snapshot_round_trips_engine_output() {
    // Every deterministic row of the snapshot is a row of the records the
    // engine returned: the stream counts, the subscriptions' machine
    // statistics summed, the plan statistics, and the match count.
    let xml = random::to_string(&RandomConfig::seeded(21));
    let trees = query_set(4);
    let (out, telemetry) = run_observed(&trees, &xml);
    let snapshot = telemetry.snapshot().expect("enabled");
    let stream =
        StreamStats { elements: out.elements, text_nodes: out.text_nodes, events: out.events };
    let mut machines = MachineStats::default();
    out.stats.iter().for_each(|s| machines.add(s));
    assert!(machines.pushes > 0 && out.plan.prefix_forks > 0, "the run did something");
    let matched: u64 = out.matches.iter().map(|m| m.len() as u64).sum();
    let expected: Vec<(&str, u64)> = (stream.rows().into_iter())
        .chain([("vitex_matches_total", matched)])
        .chain(machines.rows())
        .chain(out.plan.rows())
        .collect();
    assert_eq!(snapshot.deterministic_counters(), expected);
}

/// The deterministic section of `vitex.metrics.v3`, in export order. A
/// literal on purpose: adding, renaming or reordering a row is a schema
/// change, and must show up here.
const DETERMINISTIC_NAMES: [&str; 27] = [
    "vitex_stream_events_total",
    "vitex_stream_elements_total",
    "vitex_stream_text_nodes_total",
    "vitex_matches_total",
    "vitex_machine_pushes_total",
    "vitex_machine_pops_total",
    "vitex_machine_flag_propagations_total",
    "vitex_machine_predicate_evals_total",
    "vitex_machine_dispatch_hits_total",
    "vitex_machine_candidates_created_total",
    "vitex_machine_candidates_forwarded_total",
    "vitex_machine_candidates_discarded_total",
    "vitex_machine_emitted_total",
    "vitex_machine_duplicates_suppressed_total",
    "vitex_machine_peak_entries_sum",
    "vitex_machine_peak_candidates_sum",
    "vitex_machine_peak_bytes_sum",
    "vitex_plan_queries",
    "vitex_plan_groups",
    "vitex_plan_machine_nodes",
    "vitex_plan_trie_nodes",
    "vitex_plan_shared_trie_nodes",
    "vitex_plan_bytes",
    "vitex_prefix_steps_executed_total",
    "vitex_prefix_steps_saved_total",
    "vitex_prefix_forks_total",
    "vitex_prefix_stack_bytes_peak",
];

#[test]
fn deterministic_export_names_and_order_are_pinned() {
    let snapshot = Telemetry::enabled().snapshot().expect("enabled");
    let names: Vec<&str> = snapshot.deterministic_counters().iter().map(|(n, _)| *n).collect();
    assert_eq!(names, DETERMINISTIC_NAMES);
    // The deterministic rows lead the counter section, as they always have.
    assert!(snapshot.counters[..names.len()].iter().all(|c| c.deterministic));
    assert!(snapshot.counters[names.len()..].iter().all(|c| !c.deterministic));
}

/// Every exported metric name: counters, histograms, then the fields of
/// the query and group rows.
fn exported_names() -> Vec<&'static str> {
    let snapshot = Telemetry::enabled().snapshot().expect("enabled");
    assert!(snapshot.gauges.is_empty(), "the registry exports no gauge");
    let counters = snapshot.counters.iter().map(|c| c.name);
    let rows = QueryRow::default().rows().into_iter().chain(GroupRow::default().rows());
    counters.chain(snapshot.histograms.iter().map(|h| h.name)).chain(rows.map(|(n, _)| n)).collect()
}

#[test]
fn every_exported_name_is_in_the_readme_glossary() {
    // ROADMAP 4(c), enforced: a metric the README does not explain — by
    // its own name or by its family (`vitex_<family>_*`) — has no reader.
    let readme = include_str!("../README.md");
    let mut count = 0;
    for name in exported_names() {
        count += 1;
        // `vitex_*` itself is how the glossary introduces the namespace,
        // not a family: a family names at least one word after it.
        let mut families =
            name.match_indices('_').skip(1).map(|(i, _)| format!("`{}*`", &name[..=i]));
        let documented =
            readme.contains(&format!("`{name}`")) || families.any(|f| readme.contains(&f));
        assert!(documented, "{name} is exported but the README glossary does not mention it");
    }
    assert_eq!(count, 43, "29 counters, 2 histograms, 7 query and 5 group fields");
}

#[test]
fn every_name_the_readme_glossary_backticks_is_exported() {
    // The other direction: a name or family the glossary explains must
    // still be exported, so a deleted metric cannot linger in the docs.
    let readme = include_str!("../README.md");
    let glossary = readme.split("Metric glossary").nth(1).expect("README has a metric glossary");
    let glossary = glossary.split("\n## ").next().expect("the section ends");
    let exported = exported_names();
    let mut checked = 0;
    for quoted in glossary.split('`').skip(1).step_by(2) {
        let Some(rest) = quoted.strip_prefix("vitex_") else { continue };
        let found = match rest.strip_suffix('*') {
            // `vitex_*` names the namespace, not a family.
            Some("") => continue,
            Some(family) => exported.iter().any(|n| n.starts_with(&format!("vitex_{family}"))),
            None => exported.contains(&quoted),
        };
        assert!(found, "the README glossary explains `{quoted}`, which is not exported");
        checked += 1;
    }
    assert!(checked >= 9, "the glossary section was found: {checked} names or families");
}

#[test]
fn plan_rows_of_a_session_are_levels_not_sums() {
    // The plan's shape is a level — after three documents of a warm engine
    // there are still k subscriptions — and the trie's stack bytes are a
    // peak; only the step counters accumulate.
    let trees = query_set(5);
    let docs: Vec<String> =
        [11u64, 42, 7].iter().map(|&seed| random::to_string(&RandomConfig::seeded(seed))).collect();
    let (mut engine, telemetry) = observed_engine(&trees);
    let outs = docs
        .iter()
        .map(|xml| engine.run(XmlReader::from_str(xml), |_, _| {}))
        .collect::<Result<Vec<_>, _>>()
        .expect("warm engine");
    let snapshot = telemetry.snapshot().expect("enabled");
    let row = |name| snapshot.counter(name).expect(name);
    let last = &outs[2].plan;
    assert_eq!(row("vitex_plan_queries"), trees.len() as u64);
    assert_eq!(row("vitex_plan_groups"), engine.group_count() as u64);
    assert_eq!(row("vitex_plan_machine_nodes"), last.machine_nodes);
    assert_eq!(row("vitex_plan_trie_nodes"), last.trie_nodes);
    assert_eq!(row("vitex_plan_shared_trie_nodes"), last.shared_trie_nodes);
    assert_eq!(row("vitex_plan_bytes"), last.plan_bytes);
    assert_eq!(
        row("vitex_prefix_stack_bytes_peak"),
        outs.iter().map(|o| o.plan.prefix_stack_bytes).max().unwrap()
    );
    assert_eq!(
        row("vitex_prefix_steps_executed_total"),
        outs.iter().map(|o| o.plan.prefix_steps_executed).sum::<u64>()
    );
    assert_eq!(row("vitex_stream_events_total"), outs.iter().map(|o| o.events).sum::<u64>());
}

#[test]
fn timing_metrics_are_present_but_excluded_from_the_deterministic_export() {
    let xml = random::to_string(&RandomConfig::seeded(13));
    let trees = query_set(2);
    let (_, telemetry) = run_observed(&trees, &xml);
    let snapshot = telemetry.snapshot().expect("enabled");
    // Wall-clock did pass and the dispatch histogram saw events…
    assert!(doc_ns(&snapshot).sum > 0);
    assert!(histogram(&snapshot, "vitex_dispatch_ns").count > 0);
    // …but none of it leaks into the deterministic subset.
    let det = snapshot.deterministic_json();
    for name in ["doc_ns", "dispatch_ns", "scan_"] {
        assert!(!det.contains(name), "{name} must not appear in {det}");
    }
    // Full snapshot still lists every timing counter (zero or not: a
    // string reader reports no scanner bytes).
    for name in ["vitex_scan_wide_bytes_total", "vitex_scan_scalar_bytes_total"] {
        assert!(snapshot.counter(name).is_some(), "{name} missing from snapshot");
    }
}

#[test]
fn dispatch_latency_is_sampled_one_event_in_64() {
    // The driver times the first dispatched event of every document and
    // every 64th after it: the smallest document still leaves a sample
    // (1 of 2 events), a large one does not pay a clock pair per event
    // (157 of 10 002).
    let trees = [QueryTree::parse("//a").unwrap()];
    let large = format!("<r>{}</r>", "<a/>".repeat(5000));
    for xml in ["<a/>", large.as_str()] {
        let (out, telemetry) = run_observed(&trees, xml);
        let dispatched = 2 * out.elements + out.text_nodes;
        let snapshot = telemetry.snapshot().expect("enabled");
        let h = histogram(&snapshot, "vitex_dispatch_ns");
        assert_eq!(h.count, dispatched.div_ceil(64), "{dispatched} events");
    }
}

fn histogram<'s>(snapshot: &'s Snapshot, name: &str) -> &'s HistogramRow {
    snapshot.histograms.iter().find(|h| h.name == name).unwrap_or_else(|| panic!("{name}"))
}

fn doc_ns(snapshot: &Snapshot) -> &HistogramRow {
    histogram(snapshot, "vitex_doc_ns")
}

#[test]
fn a_warm_session_records_one_latency_sample_per_completed_document() {
    // A document that ends in an error records no sample; the warm
    // engine's next document does.
    let xml = random::to_string(&RandomConfig::seeded(5));
    let (mut engine, telemetry) = observed_engine(&query_set(3));
    engine.stream_document(XmlReader::from_str(&xml), |_, _| {}).expect("well-formed");
    let malformed = engine.stream_document(XmlReader::from_str("<a><b></a>"), |_, _| {});
    assert!(malformed.is_err(), "mismatched end tag");
    engine.stream_document(XmlReader::from_str(&xml), |_, _| {}).expect("well-formed");
    let snapshot = telemetry.snapshot().expect("enabled");
    let h = doc_ns(&snapshot);
    assert_eq!(h.count, 2, "two documents streamed to their end");
    assert!(h.sum > 0);
    assert_eq!(h.buckets.iter().map(|(_, c)| c).sum::<u64>(), 2);
    assert!(!snapshot.deterministic_json().contains("vitex_doc_ns"));
}

#[test]
fn each_engine_run_records_one_latency_sample() {
    let telemetry = Telemetry::enabled();
    let mut engine = Engine::from_query("//a").unwrap();
    engine.set_telemetry(telemetry.clone());
    for xml in ["<a><a/></a>", "<r/>"] {
        engine.run(XmlReader::from_str(xml), |_| {}).unwrap();
    }
    assert_eq!(doc_ns(&telemetry.snapshot().expect("enabled")).count, 2);
}

#[test]
fn exports_are_valid_json() {
    let xml = random::to_string(&RandomConfig::seeded(33));
    let trees = query_set(6);
    let (_, telemetry) = run_observed(&trees, &xml);
    let snapshot = telemetry.snapshot().expect("enabled");
    let metrics = snapshot.to_json();
    assert_json(&metrics);
    assert!(metrics.starts_with("{\"schema\":\"vitex.metrics.v3\""));
    // Four sections: the gauge section and the span-ring count of v1 are
    // gone (spelled in halves, for CI's grep).
    for key in ["gauges", concat!("spans", "_dropped")] {
        assert!(!metrics.contains(key), "{key} is not a v3 key");
    }
    assert_json(&snapshot.deterministic_json());
}

#[test]
fn disabled_telemetry_snapshots_nothing() {
    let telemetry = Telemetry::disabled();
    assert!(telemetry.snapshot().is_none());
    // And an engine run with the default (disabled) handle works as before.
    let mut engine = MultiEngine::new();
    engine.add_query("//a").unwrap();
    let out = engine.run(XmlReader::from_str("<a><a/></a>"), |_, _| {}).unwrap();
    assert_eq!(out.matches[0].len(), 2);
}

// ---- per-query and per-group rows ----

/// Runs `xml` through a fresh observed engine and returns the snapshot.
fn run_snapshot(trees: &[QueryTree], xml: &str) -> Snapshot {
    run_observed(trees, xml).1.snapshot().expect("enabled")
}

#[test]
fn streamed_and_buffered_sessions_bill_the_same() {
    // Matches and payload bytes are counted as they are delivered, not
    // read back from a buffer: a document that keeps no match reports the
    // same `vitex_matches_total` and the same per-query rows as one that
    // keeps them all.
    let xml = random::to_string(&RandomConfig::seeded(3));
    let trees = query_set(8);
    let observe = |buffered: bool| {
        let (mut engine, telemetry) = observed_engine(&trees);
        let mut delivered = 0u64;
        let reader = XmlReader::from_str(&xml);
        if buffered {
            engine.run(reader, |_, _| delivered += 1)
        } else {
            engine.stream_document(reader, |_, _| delivered += 1)
        }
        .expect("engine run");
        let snapshot = telemetry.snapshot().expect("enabled");
        assert_eq!(snapshot.counter("vitex_matches_total"), Some(delivered));
        assert_json(&snapshot.to_json());
        (delivered, snapshot.deterministic_json(), snapshot.queries)
    };
    let (streamed, buffered) = (observe(false), observe(true));
    assert!(streamed.0 > 0, "the seeds were chosen to match something");
    assert!(streamed.2.iter().any(|q| q.emitted_bytes > 0), "payload bytes are billed");
    assert_eq!(streamed, buffered);
}

#[test]
fn profile_ranks_the_planted_hog_first() {
    // The E14 claim: one planted hog among 100 cheap pinned subscriptions
    // ranks #1 by attributed work.
    let xml = auction::to_string(&AuctionConfig::sized(32 * 1024));
    let trees = pinned_queries_with_hog(100);
    let snap = run_snapshot(&trees, &xml);
    let ranked: Vec<(usize, u64)> =
        snap.top_queries(2).iter().map(|q| (q.id, q.bill.work())).collect();
    assert_eq!(ranked[0].0, 100, "the planted expensive query must rank #1: {ranked:?}");
    assert!(ranked[0].1 > ranked[1].1, "by a margin: {ranked:?}");
}

#[test]
fn a_shape_group_bills_each_subscription_what_it_costs_alone() {
    // Subscriptions that differ only in a `= 'string'` literal share one
    // machine, yet each one's row — work counters, matches and payload
    // bytes — is what it is billed in an engine of its own, and so is the
    // `vitex_matches_total` the registry folds.
    let xml = auction::to_string(&AuctionConfig::sized(32 * 1024));
    let payments = ["Cash", "Creditcard", "Cash", "Cheque"];
    let emails = ["mailto:p3@example.org", "mailto:p9@example.org", "nobody"];
    let trees: Vec<QueryTree> = (payments.iter())
        .map(|l| format!("//item[quantity][payment = '{l}']/name"))
        .chain(emails.iter().map(|l| format!("/site/people/person[emailaddress = '{l}']/@id")))
        .map(|q| QueryTree::parse(&q).expect("valid query"))
        .collect();
    let shared = run_snapshot(&trees, &xml);
    assert_eq!(shared.groups.len(), 2, "one machine per shape");
    assert_eq!(shared.groups.iter().map(|g| g.subscribers).collect::<Vec<_>>(), [4, 3]);
    for (i, tree) in trees.iter().enumerate() {
        let alone = run_snapshot(std::slice::from_ref(tree), &xml);
        assert_eq!(shared.queries[i].rows(), alone.queries[0].rows(), "{}", tree.original());
    }
    let matches = |q: &QueryRow| q.matches;
    assert!(shared.queries.iter().filter(|q| matches(q) > 0).count() >= 5, "the literals match");
    assert!(shared.queries.iter().all(|q| (matches(q) > 0) == (q.emitted_bytes > 0)));
    assert_eq!(
        shared.counter("vitex_matches_total"),
        Some(shared.queries.iter().map(matches).sum())
    );
}

#[test]
fn rows_of_a_many_binding_group_equal_each_query_stats() {
    // 400 subscriptions of one shape, two per e-mail literal, over
    // persons with an address for even N only: one machine, and one walk
    // of it reads every subscription's `query_stats` — the `--stats`
    // rows — and fills its snapshot row with the same bill.
    let mut xml = String::from("<site><people>");
    for n in 0..200 {
        let mail = if n % 2 == 0 {
            format!("<emailaddress>mailto:p{n}@x</emailaddress>")
        } else {
            String::new()
        };
        xml.push_str(&format!("<person><name>n{n}</name>{mail}</person>"));
    }
    xml.push_str("</people></site>");
    let trees: Vec<QueryTree> = (0..400)
        .map(|n| {
            QueryTree::parse(&format!("//person[emailaddress = 'mailto:p{}@x']/name", n % 200))
        })
        .collect::<Result<_, _>>()
        .expect("valid queries");
    let (mut engine, telemetry) = observed_engine(&trees);
    engine.stream_document(XmlReader::from_str(&xml), |_, _| {}).expect("well-formed");
    let snapshot = telemetry.snapshot().expect("enabled");
    assert_eq!(snapshot.groups.len(), 1, "one shape, one machine");
    assert_eq!(snapshot.groups[0].subscribers, 400);
    assert_eq!(snapshot.queries.len(), 400);
    let walked = engine.all_query_stats();
    assert_eq!(walked.len(), 400);
    for (row, walked) in snapshot.queries.iter().zip(&walked) {
        let stats = engine.query_stats(QueryId(row.id));
        assert_eq!(walked, &stats, "{}", row.query);
        let mut bill = Bill::default();
        bill.add(&stats);
        assert_eq!((row.bill, row.matches), (bill, stats.emitted), "{}", row.query);
        assert_eq!(row.matches, u64::from(row.id % 2 == 0), "{}", row.query);
    }
}

#[test]
fn group_rows_follow_registration_churn() {
    // A retired group's row goes, a slot recycled by a new shape starts a
    // new row, a group joined by a second subscriber counts it, and a
    // handle attached after registration still lists every active group.
    let xml = "<r><a/><b/><c/></r>";
    let mut engine = MultiEngine::new();
    let [a, _, _] = ["//a", "//b", "//zzz"].map(|q| engine.add_query(q).expect("valid"));
    engine.run(XmlReader::from_str(xml), |_, _| {}).expect("well-formed");
    let telemetry = Telemetry::enabled();
    engine.set_telemetry(telemetry.clone());
    engine.run(XmlReader::from_str(xml), |_, _| {}).expect("well-formed");
    let groups = |telemetry: &Telemetry| {
        let snapshot = telemetry.snapshot().expect("enabled");
        snapshot
            .groups
            .iter()
            .map(|g| (g.gid, g.shape.clone(), g.subscribers, g.bill.pushes))
            .collect::<Vec<_>>()
    };
    let row = |gid, shape: &str, subscribers, pushes| (gid, shape.to_string(), subscribers, pushes);
    assert_eq!(
        groups(&telemetry),
        [row(0, "//a", 1, 1), row(1, "//b", 1, 1), row(2, "//zzz", 1, 0)]
    );
    assert_eq!(engine.remove_query(a), Some(true));
    engine.add_query("//c").expect("valid");
    engine.add_query("//b").expect("valid");
    engine.run(XmlReader::from_str(xml), |_, _| {}).expect("well-formed");
    assert_eq!(
        groups(&telemetry),
        [row(0, "//c", 1, 1), row(1, "//b", 2, 2), row(2, "//zzz", 1, 0)]
    );
    let snapshot = telemetry.snapshot().expect("enabled");
    assert_eq!(snapshot.queries.len(), 5, "a row per registration, removed ones included");
    assert_eq!(snapshot.queries[0].bill.pushes, 1, "//a kept what it cost before it left");
}

#[test]
fn profile_accumulates_across_session_documents() {
    let trees = [QueryTree::parse("//a").unwrap()];
    let (mut engine, telemetry) = observed_engine(&trees);
    engine.run(XmlReader::from_str("<a><a/></a>"), |_, _| {}).unwrap();
    engine.run(XmlReader::from_str("<r><a/></r>"), |_, _| {}).unwrap();
    let snap = telemetry.snapshot().expect("enabled");
    assert_eq!(doc_ns(&snap).count, 2);
    assert_eq!(snap.queries.len(), 1);
    assert_eq!(snap.queries[0].matches, 3, "2 matches from doc 1 + 1 from doc 2");
    assert!(snap.queries[0].bill.pushes >= 3);
    assert_eq!(snap.groups[0].bill, snap.queries[0].bill);
}

#[test]
fn profile_full_export_is_valid_json_with_group_diagnostics() {
    let xml = random::to_string(&RandomConfig::seeded(33));
    let trees = query_set(6);
    let (mut engine, telemetry) = observed_engine(&trees);
    engine.run(XmlReader::from_str(&xml), |_, _| {}).expect("engine run");
    let snap = telemetry.snapshot().expect("enabled");
    let json = snap.to_json();
    assert_json(&json);
    assert_eq!(snap.queries.len(), trees.len());
    assert_eq!(snap.groups.len(), engine.group_count());
    assert_eq!(json.matches("\"vitex_query_steps_total\":").count(), trees.len());
    assert_eq!(json.matches("\"vitex_group_subscribers\":").count(), engine.group_count());
    // The rows stay out of the deterministic counter subset.
    let det = snap.deterministic_json();
    assert_json(&det);
    assert!(!det.contains("\"queries\"") && !det.contains("\"groups\""));
}

// ---- minimal JSON syntax checker (no serde in the workspace) ----

fn assert_json(s: &str) {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_value(b, &mut i).unwrap_or_else(|e| panic!("invalid JSON at byte {e}: {s:.120}"));
    skip_ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing garbage after JSON value");
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn skip_value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    skip_ws(b, i);
    match b.get(*i).ok_or(*i)? {
        b'{' => skip_composite(b, i, b'}', true),
        b'[' => skip_composite(b, i, b']', false),
        b'"' => skip_string(b, i),
        b't' => skip_lit(b, i, b"true"),
        b'f' => skip_lit(b, i, b"false"),
        b'n' => skip_lit(b, i, b"null"),
        b'-' | b'0'..=b'9' => {
            let start = *i;
            *i += 1;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                *i += 1;
            }
            if *i > start {
                Ok(())
            } else {
                Err(start)
            }
        }
        _ => Err(*i),
    }
}

fn skip_composite(b: &[u8], i: &mut usize, close: u8, keyed: bool) -> Result<(), usize> {
    *i += 1; // opener
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(());
    }
    loop {
        if keyed {
            skip_ws(b, i);
            skip_string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(*i);
            }
            *i += 1;
        }
        skip_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i).ok_or(*i)? {
            b',' => *i += 1,
            c if *c == close => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn skip_string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'\\' => *i += 2,
            b'"' => {
                *i += 1;
                return Ok(());
            }
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn skip_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}
