//! Telemetry determinism battery: the deterministic counter subset of the
//! metrics registry must be **byte-identical** across every execution
//! configuration that is supposed to be an implementation detail — the
//! shard count — while the timing-derived counters, gauges and histograms
//! are present in the snapshot but excluded from the deterministic export.
//!
//! Also covers the export surface: the `vitex.metrics.v1` JSON snapshot
//! and the Chrome trace-event JSON must be syntactically valid (checked
//! with a small hand-rolled JSON walker — the workspace takes no serde
//! dependency) and must round-trip the counter values the engine reported
//! through `MultiOutput`.

mod common;

use common::{pinned_queries_with_hog, query_set};
use vitex::core::telemetry::{trace_json, ProfileSnapshot, Telemetry};
use vitex::core::{evaluate_reader, MachineStats, MultiOutput, ShardedEngine, StreamStats};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlgen::random::{self, RandomConfig};
use vitex::xmlsax::XmlReader;
use vitex::xpath::QueryTree;

const SHARDS: &[usize] = &[1, 2, 4, 7];

/// Runs one configuration with a fresh enabled telemetry handle; returns
/// the engine output and the handle for snapshotting.
fn run_config(trees: &[QueryTree], xml: &str, shards: usize) -> (MultiOutput, Telemetry) {
    let telemetry = Telemetry::enabled();
    let mut engine = ShardedEngine::new(shards);
    engine.set_telemetry(telemetry.clone());
    for tree in trees {
        engine.add_tree(tree).expect("registrable");
    }
    let out = engine.run(XmlReader::from_str(xml), |_, _| {}).expect("engine run");
    (out, telemetry)
}

#[test]
fn deterministic_counters_are_invariant_across_shard_counts() {
    // Every shard count must export byte-identical deterministic
    // counters — scheduling is an implementation detail.
    for (doc_seed, query_seed) in [(11u64, 5u64), (42, 9)] {
        let xml = random::to_string(&RandomConfig::seeded(doc_seed));
        let trees = query_set(query_seed);
        let mut reference: Option<String> = None;
        for &shards in SHARDS {
            let (_, telemetry) = run_config(&trees, &xml, shards);
            let json = telemetry.snapshot().expect("enabled").deterministic_json();
            match &reference {
                None => reference = Some(json),
                Some(r) => assert_eq!(
                    &json, r,
                    "doc_seed={doc_seed} query_seed={query_seed} shards={shards}: \
                     deterministic counters must be byte-identical across shard counts"
                ),
            }
        }
    }
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
    let (_, telemetry) = run_config(&trees, &xml, 1);
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
    let (out, telemetry) = run_config(&trees, &xml, 4);
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

/// The deterministic section of `vitex.metrics.v1`, in export order. A
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

#[test]
fn every_exported_name_is_in_the_readme_glossary() {
    // ROADMAP 4(c), enforced: a metric the README does not explain — by
    // its own name or by its family (`vitex_<family>_*`) — has no reader.
    let readme = include_str!("../README.md");
    let snapshot = Telemetry::enabled().snapshot().expect("enabled");
    let names = (snapshot.counters.iter().map(|c| c.name))
        .chain(snapshot.gauges.iter().map(|g| g.name))
        .chain(snapshot.histograms.iter().map(|h| h.name));
    let mut count = 0;
    for name in names {
        count += 1;
        // `vitex_*` itself is how the glossary introduces the namespace,
        // not a family: a family names at least one word after it.
        let mut families =
            name.match_indices('_').skip(1).map(|(i, _)| format!("`{}*`", &name[..=i]));
        let documented =
            readme.contains(&format!("`{name}`")) || families.any(|f| readme.contains(&f));
        assert!(documented, "{name} is exported but the README glossary does not mention it");
    }
    assert_eq!(count, 40, "35 counters, 3 gauges, 2 histograms");
}

#[test]
fn plan_rows_of_a_session_are_levels_not_sums() {
    // The plan's shape is a level — after three documents of a session
    // there are still k subscriptions — and the trie's stack bytes are a
    // peak; only the step counters accumulate. Same bytes at 1 and 2
    // shards.
    let trees = query_set(5);
    let docs: Vec<String> =
        [11u64, 42, 7].iter().map(|&seed| random::to_string(&RandomConfig::seeded(seed))).collect();
    let mut reference: Option<String> = None;
    for shards in [1, 2] {
        let telemetry = Telemetry::enabled();
        let mut engine = ShardedEngine::new(shards);
        engine.set_telemetry(telemetry.clone());
        for tree in &trees {
            engine.add_tree(tree).expect("registrable");
        }
        let outs = engine
            .session(|session| {
                docs.iter()
                    .map(|xml| session.run_document(XmlReader::from_str(xml), |_, _| {}))
                    .collect::<Result<Vec<_>, _>>()
            })
            .expect("session");
        let snapshot = telemetry.snapshot().expect("enabled");
        let row = |name| snapshot.counter(name).expect(name);
        let last = &outs[2].plan;
        assert_eq!(row("vitex_plan_queries"), trees.len() as u64, "{shards} shard(s)");
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
        let json = snapshot.deterministic_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "byte-identical at 1 and 2 shards"),
        }
    }
}

#[test]
fn timing_metrics_are_present_but_excluded_from_the_deterministic_export() {
    let xml = random::to_string(&RandomConfig::seeded(13));
    let trees = query_set(2);
    let (out, telemetry) = run_config(&trees, &xml, 4);
    assert!(out.plan.groups >= 2, "a session ships batches only to two or more workers");
    let snapshot = telemetry.snapshot().expect("enabled");
    // Wall-clock did pass and the dispatch histogram saw events…
    assert!(snapshot.counter("vitex_doc_ns_total").unwrap() > 0);
    assert!(snapshot.histograms.iter().any(|h| h.name == "vitex_dispatch_ns" && h.count > 0));
    assert!(snapshot.histograms.iter().any(|h| h.name == "vitex_batch_events" && h.count > 0));
    // …but none of it leaks into the deterministic subset.
    let det = snapshot.deterministic_json();
    for name in ["doc_ns", "dispatch_ns", "ring_", "worker_", "merge_", "scan_"] {
        assert!(!det.contains(name), "{name} must not appear in {det}");
    }
    // Full snapshot still lists every timing counter (zero or not).
    for name in ["vitex_ring_enqueue_stalls_total", "vitex_worker_busy_ns_total"] {
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
    for shards in [1, 2] {
        for xml in ["<a/>", large.as_str()] {
            let (out, telemetry) = run_config(&trees, xml, shards);
            let dispatched = 2 * out.elements + out.text_nodes;
            let snapshot = telemetry.snapshot().expect("enabled");
            let h = snapshot.histograms.iter().find(|h| h.name == "vitex_dispatch_ns").unwrap();
            assert_eq!(h.count, dispatched.div_ceil(64), "{shards} shard(s), {dispatched} events");
        }
    }
}

#[test]
fn exports_are_valid_json() {
    let xml = random::to_string(&RandomConfig::seeded(33));
    let trees = query_set(6);
    let (_, telemetry) = run_config(&trees, &xml, 4);
    let snapshot = telemetry.snapshot().expect("enabled");
    let metrics = snapshot.to_json();
    assert_json(&metrics);
    assert!(metrics.starts_with("{\"schema\":\"vitex.metrics.v1\""));
    let spans = telemetry.spans().expect("enabled");
    assert!(!spans.is_empty(), "a sharded run records document and batch spans");
    let trace = trace_json(&spans);
    assert_json(&trace);
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"thread_name\""));
    assert_json(&snapshot.deterministic_json());
}

#[test]
fn disabled_telemetry_snapshots_nothing() {
    let telemetry = Telemetry::disabled();
    assert!(telemetry.snapshot().is_none());
    assert!(telemetry.spans().is_none());
    // And an engine run with the default (disabled) handle works as before.
    let mut engine = ShardedEngine::new(2);
    engine.add_query("//a").unwrap();
    let out = engine.run(XmlReader::from_str("<a><a/></a>"), |_, _| {}).unwrap();
    assert_eq!(out.matches[0].len(), 2);
}

// ---- cost-attribution (profile) battery ----

/// Runs one configuration with profiling enabled and returns the ledger
/// snapshot.
fn run_profiled(trees: &[QueryTree], xml: &str, shards: usize) -> ProfileSnapshot {
    let mut engine = ShardedEngine::new(shards);
    engine.set_profiling(true);
    for tree in trees {
        engine.add_tree(tree).expect("registrable");
    }
    engine.run(XmlReader::from_str(xml), |_, _| {}).expect("engine run");
    engine.profile_snapshot().expect("profiling enabled")
}

#[test]
fn profile_counters_are_invariant_across_every_configuration() {
    // The ledger's per-query section folds once per subscription, so it
    // must be byte-identical at every shard count: ONE reference per
    // (document, query set), full stop.
    for (doc_seed, query_seed) in [(11u64, 5u64), (42, 9)] {
        let xml = random::to_string(&RandomConfig::seeded(doc_seed));
        let trees = query_set(query_seed);
        let mut reference: Option<String> = None;
        for &shards in SHARDS {
            let json = run_profiled(&trees, &xml, shards).deterministic_json();
            assert_json(&json);
            match &reference {
                None => reference = Some(json),
                Some(r) => assert_eq!(
                    &json, r,
                    "doc_seed={doc_seed} query_seed={query_seed} shards={shards}: \
                     per-query profile counters must be byte-identical across configurations"
                ),
            }
        }
    }
}

#[test]
fn streamed_and_buffered_sessions_bill_the_same() {
    // Matches and payload bytes are counted as they are delivered, not
    // read back from a buffer: a session that keeps no match reports the
    // same `vitex_matches_total` and the same per-query bills as one that
    // keeps them all.
    let xml = random::to_string(&RandomConfig::seeded(3));
    let trees = query_set(8);
    for &shards in SHARDS {
        let observe = |buffered: bool| {
            let telemetry = Telemetry::enabled();
            let mut engine = ShardedEngine::new(shards);
            engine.set_telemetry(telemetry.clone());
            engine.set_profiling(true);
            for tree in &trees {
                engine.add_tree(tree).expect("registrable");
            }
            let mut delivered = 0u64;
            engine
                .session(|session| {
                    let reader = XmlReader::from_str(&xml);
                    if buffered {
                        session.run_document(reader, |_, _| delivered += 1)
                    } else {
                        session.stream_document(reader, |_, _| delivered += 1)
                    }
                })
                .expect("engine run");
            let snapshot = telemetry.snapshot().expect("enabled");
            assert_eq!(snapshot.counter("vitex_matches_total"), Some(delivered));
            let profile = engine.profile_snapshot().expect("profiling enabled");
            (delivered, snapshot.deterministic_json(), profile.deterministic_json())
        };
        let (streamed, buffered) = (observe(false), observe(true));
        assert!(streamed.0 > 0, "the seeds were chosen to match something");
        assert_eq!(streamed, buffered, "{shards} shards");
    }
}

#[test]
fn profile_ranking_is_stable_across_shard_counts() {
    // Second input, the E14 claim: one planted hog among 100 cheap pinned
    // subscriptions must rank #1 by attributed work.
    let auction = auction::to_string(&AuctionConfig::sized(32 * 1024));
    for (xml, trees, hog) in [
        (random::to_string(&RandomConfig::seeded(17)), query_set(12), None),
        (auction, pinned_queries_with_hog(100), Some(100)),
    ] {
        let rank = |shards: usize| -> Vec<(usize, u64)> {
            let snap = run_profiled(&trees, &xml, shards);
            snap.top_queries(trees.len()).iter().map(|q| (q.id, q.machine.work())).collect()
        };
        let reference = rank(1);
        assert!(!reference.is_empty());
        if let Some(hog) = hog {
            assert_eq!(reference[0].0, hog, "the planted expensive query must rank #1");
        }
        for &shards in &SHARDS[1..] {
            assert_eq!(rank(shards), reference, "top-k order must not depend on the shard count");
        }
    }
}

#[test]
fn sampled_self_time_is_billed_on_both_lanes() {
    // The ledger's `self_ns` comes from timing one machine touch in 1024,
    // on whichever lane runs the machines — the calling thread at one
    // shard, the workers at two — so the document must be long enough
    // for several thousand touches. Asserted on the sum over groups: a
    // periodic document can alias a small group out of every sample.
    // The deterministic per-query section ignores all of it.
    let xml = auction::to_string(&AuctionConfig::sized(256 * 1024));
    let trees = pinned_queries_with_hog(100);
    let mut reference: Option<String> = None;
    for &shards in SHARDS {
        let snap = run_profiled(&trees, &xml, shards);
        let touches: u64 = snap.groups.iter().map(|g| g.machine.pushes + g.machine.pops).sum();
        assert!(touches > 8 * 1024, "{touches} pushes + pops: too short a document to sample");
        if shards <= 2 {
            let self_ns: u64 = snap.groups.iter().map(|g| g.self_ns).sum();
            assert!(self_ns > 0, "{shards} shard(s): no self-time sampled over {touches} touches");
        }
        let json = snap.deterministic_json();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "per-query section at {shards} shards"),
        }
    }
}

#[test]
fn profile_accumulates_across_session_documents() {
    let mut engine = ShardedEngine::new(2);
    engine.set_profiling(true);
    engine.add_query("//a").unwrap();
    engine
        .session(|session| {
            session.run_document(XmlReader::from_str("<a><a/></a>"), |_, _| {})?;
            session.run_document(XmlReader::from_str("<r><a/></r>"), |_, _| {})?;
            Ok(())
        })
        .unwrap();
    let snap = engine.profile_snapshot().expect("profiling enabled");
    assert_eq!(snap.docs, 2);
    assert_eq!(snap.queries.len(), 1);
    assert_eq!(snap.queries[0].matches, 3, "2 matches from doc 1 + 1 from doc 2");
    assert!(snap.queries[0].machine.pushes >= 3);
}

#[test]
fn profile_full_export_is_valid_json_with_group_diagnostics() {
    let xml = random::to_string(&RandomConfig::seeded(33));
    let trees = query_set(6);
    let snap = run_profiled(&trees, &xml, 4);
    let json = snap.to_json();
    assert_json(&json);
    assert!(json.starts_with("{\"schema\":\"vitex.profile.v1\""));
    assert!(json.contains("\"groups\":["));
    assert!(json.contains("\"shared_steps\":"));
    // The deterministic export is a strict prefix-section of the full one:
    // same docs, same queries array, no groups.
    let det = snap.deterministic_json();
    assert_json(&det);
    assert!(!det.contains("\"groups\""));
}

#[test]
fn disabled_profiling_snapshots_nothing() {
    let mut engine = ShardedEngine::new(2);
    engine.add_query("//a").unwrap();
    engine.run(XmlReader::from_str("<a><a/></a>"), |_, _| {}).unwrap();
    assert!(engine.profile_snapshot().is_none());
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
