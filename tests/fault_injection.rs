//! Fault-injection battery for the overlapped parse→match pipeline:
//! kill a parse worker or a shard worker mid-document and assert the
//! session surfaces a **clean error** — no hang, no panic escaping to
//! the caller, and no match callbacks delivered after the failure.
//!
//! The hooks are test-only seams: `ParallelConfig::fail_chunk` makes the
//! parse worker that claims that chunk panic before parsing it;
//! `ShardedEngine::inject_worker_fault(shard, seq)` makes that shard's
//! worker panic when it applies the event with that sequence number.
//! Every test runs under the overlapped front-end (multi-producer shard
//! feeding), where a lost batch would otherwise strand the workers'
//! reorder stash forever — precisely the regime the teardown discipline
//! has to cover. The shard-worker fault is additionally exercised under
//! the pipelined front-end, whose poisoning path shares the same code.

use vitex::core::{EngineError, ShardedEngine};
use vitex::xmlsax::{ParallelConfig, ParallelReader, XmlReader};

/// A document big enough to split into many chunks at the test chunk
/// size, with matches spread throughout.
fn document() -> String {
    let mut xml = String::from("<root>");
    for i in 0..400 {
        xml.push_str(&format!("<item id=\"{i}\"><a><b>x{i}</b></a><c>t{i}</c></item>"));
    }
    xml.push_str("</root>");
    xml
}

fn engine(shards: usize) -> ShardedEngine {
    let mut engine = ShardedEngine::new(shards);
    for q in ["//item/@id", "//a//b", "//c/text()", "//item"] {
        engine.add_query(q).expect("valid query");
    }
    engine
}

/// Small chunks so the parse front-end genuinely splits and speculates.
fn par_config(threads: usize) -> ParallelConfig {
    ParallelConfig { threads, chunk_bytes: Some(256), ..ParallelConfig::default() }
}

#[test]
fn parse_worker_panic_surfaces_clean_error_under_overlap() {
    let xml = document();
    let mut engine = engine(4);
    let config = ParallelConfig { fail_chunk: Some(3), ..par_config(4) };
    let result = engine.run_overlapped(xml.clone().into_bytes(), config, |_, _| {});
    match result {
        Err(EngineError::Xml(e)) => {
            assert!(
                e.to_string().contains("parse worker panicked"),
                "clean parse-fault error, got: {e}"
            );
        }
        other => panic!("expected a parse-worker fault error, got {other:?}"),
    }
    // A parse error does not poison the session: the shard workers
    // quiesced at the last admitted event, so the same engine runs the
    // next (healthy) document to completion.
    let mut matches = 0u64;
    let (out, stats) = engine
        .run_overlapped(xml.into_bytes(), par_config(4), |_, _| matches += 1)
        .expect("healthy rerun succeeds");
    assert!(stats.chunks > 1, "the rerun actually split: {stats:?}");
    assert!(matches > 0, "matches stream again after recovery");
    assert_eq!(out.matches.iter().map(Vec::len).sum::<usize>() as u64, matches);
}

#[test]
fn shard_worker_panic_poisons_session_under_overlap() {
    let xml = document();
    let mut engine = engine(4);
    // Fault deep enough into the document that earlier windows flow.
    engine.inject_worker_fault(2, 900);
    let mut first_msg = None;
    let mut second_calls = 0u64;
    engine
        .session(|session| {
            // Document 1: the fault fires mid-document.
            let first =
                session.run_document_overlapped(xml.clone().into_bytes(), par_config(4), |_, _| {});
            match first {
                Err(EngineError::Worker(msg)) => first_msg = Some(msg),
                other => panic!("expected a worker fault error, got {other:?}"),
            }
            // Document 2 on the now-poisoned session: fails fast, zero
            // callbacks (the dead worker cannot be respawned mid-session).
            let second =
                session.run_document_overlapped(xml.clone().into_bytes(), par_config(4), |_, _| {
                    second_calls += 1
                });
            assert!(matches!(second, Err(EngineError::Worker(_))), "poisoned sessions fail fast");
            Ok(())
        })
        .expect("the session closure itself succeeds");
    let msg = first_msg.expect("fault fired");
    assert!(msg.contains("shard worker 2"), "names the failing shard: {msg}");
    assert!(msg.contains("poisoned"), "announces the poisoning: {msg}");
    assert_eq!(second_calls, 0, "no callbacks from a poisoned session");
    // Clearing the fault and opening a fresh session recovers fully.
    engine.clear_worker_fault();
    let mut matches = 0u64;
    engine
        .run_overlapped(xml.into_bytes(), par_config(4), |_, _| matches += 1)
        .expect("fresh session after clearing the fault");
    assert!(matches > 0);
}

#[test]
fn shard_worker_panic_poisons_session_under_pipelined_front_end() {
    let xml = document();
    let mut engine = engine(4);
    engine.inject_worker_fault(1, 700);
    let result = engine.run(XmlReader::from_str(&xml), |_, _| {});
    match result {
        Err(EngineError::Worker(msg)) => {
            assert!(msg.contains("shard worker 1"), "names the failing shard: {msg}");
        }
        other => panic!("expected a worker fault error, got {other:?}"),
    }
    engine.clear_worker_fault();
    let mut matches = 0u64;
    engine.run(XmlReader::from_str(&xml), |_, _| matches += 1).expect("recovers");
    assert!(matches > 0);
}

#[test]
fn poisoning_is_per_session_and_front_end_agnostic() {
    // The overlapped and pipelined front-ends share one poisoning path:
    // within a session, a worker fault on an *overlapped* document also
    // fail-fasts a subsequent *pipelined* document (and vice versa the
    // shared `run_document` entry check covers both).
    let xml = document();
    let mut engine = engine(3);
    engine.inject_worker_fault(0, 500);
    let mut later_calls = 0u64;
    engine
        .session(|session| {
            let first =
                session.run_document_overlapped(xml.clone().into_bytes(), par_config(2), |_, _| {});
            assert!(matches!(first, Err(EngineError::Worker(_))), "fault fires: {first:?}");
            let second = session.run_document(XmlReader::from_str(&xml), |_, _| later_calls += 1);
            assert!(
                matches!(second, Err(EngineError::Worker(_))),
                "pipelined document on a poisoned session fails fast too"
            );
            Ok(())
        })
        .expect("the session closure itself succeeds");
    assert_eq!(later_calls, 0, "no callbacks after poisoning");
}

#[test]
fn worker_panic_during_assignment_swap_poisons_cleanly() {
    // Placement swaps in a new group→shard assignment at a
    // document boundary. `inject_swap_fault` makes a worker panic at the
    // exact adoption point — after the repartition decision, while the
    // new assignment is being taken up at DocStart. The session must
    // poison cleanly (no hang at the ring or the watermark barrier, no
    // stray callbacks), and a fresh session after clearing the fault
    // must perform the same swap and complete.
    let xml = document();
    let mut engine = ShardedEngine::new(2);
    // One hog among three near-idle groups: the seed plan (uniform costs
    // deal round-robin) pairs the hog with a cheap group, the first
    // document's counters push measured imbalance past the hysteresis
    // threshold, and the planner swaps at the second document.
    for q in ["//item//b", "/root/zzz", "/root/yyy", "/root/xxx"] {
        engine.add_query(q).expect("valid query");
    }
    engine.inject_swap_fault(1);
    let mut later_calls = 0u64;
    engine
        .session(|session| {
            // Document 1 runs under the seed plan — no swap, no fault.
            let first = session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
            assert!(first.matches.iter().map(Vec::len).sum::<usize>() > 0, "doc 1 matched");
            // Document 2 ships the repartitioned assignment; worker 1
            // panics while adopting it.
            let second = session.run_document(XmlReader::from_str(&xml), |_, _| later_calls += 1);
            match second {
                Err(EngineError::Worker(msg)) => {
                    assert!(msg.contains("shard worker 1"), "names the failing shard: {msg}");
                    assert!(msg.contains("poisoned"), "announces the poisoning: {msg}");
                }
                other => panic!("expected a worker fault during the swap, got {other:?}"),
            }
            // The poisoned session fails fast from here on.
            let third = session.run_document(XmlReader::from_str(&xml), |_, _| later_calls += 1);
            assert!(matches!(third, Err(EngineError::Worker(_))), "poisoned sessions fail fast");
            Ok(())
        })
        .expect("the session closure itself succeeds");
    assert_eq!(later_calls, 0, "no callbacks from the faulted or poisoned documents");
    // Same workload, fault cleared: the swap goes through and the warm
    // session streams every document.
    engine.clear_worker_fault();
    let mut matches = 0u64;
    let snap = engine
        .session(|session| {
            for _ in 0..3 {
                session.run_document(XmlReader::from_str(&xml), |_, _| matches += 1)?;
            }
            Ok(session.placement_snapshot())
        })
        .expect("fresh session after clearing the fault");
    assert!(snap.repartitions >= 1, "the cleared session performs the swap that was faulted");
    assert!(matches > 0, "matches stream again after recovery");
}

#[test]
fn parse_fault_in_pipelined_reader_is_clean_too() {
    // The pipelined front-end with a failing parse worker: the reader
    // surfaces a sticky XML error through the normal error path and the
    // session survives.
    let xml = document();
    let mut engine = engine(2);
    let config = ParallelConfig { fail_chunk: Some(1), ..par_config(2) };
    let reader = ParallelReader::with_config(xml.clone().into_bytes(), config);
    let result = engine.run(reader, |_, _| {});
    match result {
        Err(EngineError::Xml(e)) => {
            assert!(e.to_string().contains("parse worker panicked"), "{e}");
        }
        other => panic!("expected a parse fault, got {other:?}"),
    }
    let mut matches = 0u64;
    engine
        .run(ParallelReader::with_config(xml.into_bytes(), par_config(2)), |_, _| matches += 1)
        .expect("engine survives a parse fault");
    assert!(matches > 0);
}
