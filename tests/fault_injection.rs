//! Fault-injection battery for the sharded pipeline: kill a shard worker
//! mid-document and assert the session surfaces a **clean error** — no
//! hang, no panic escaping to the caller, and no match callbacks delivered
//! after the failure.
//!
//! The hooks are test-only seams:
//! `ShardedEngine::inject_worker_fault(shard, seq)` makes that shard's
//! worker panic when it applies the event with that sequence number, and
//! `inject_swap_fault(shard)` makes it panic while adopting a
//! repartitioned assignment. A dead worker stops draining its ring and
//! never acknowledges `DocEnd` — precisely what the poison path (ring
//! close on unwind, poisoned report, sticky session error) has to cover.

use vitex::core::{EngineError, ShardedEngine};
use vitex::xmlsax::XmlReader;

/// A document spanning many ring batches, with matches spread throughout.
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

#[test]
fn shard_worker_panic_poisons_session() {
    let xml = document();
    let mut engine = engine(4);
    // Fault deep enough into the document that earlier batches flow.
    engine.inject_worker_fault(1, 700);
    let mut before_fault = 0u64;
    let result = engine.run(XmlReader::from_str(&xml), |_, _| before_fault += 1);
    match result {
        Err(EngineError::Worker(msg)) => {
            assert!(msg.contains("shard worker 1"), "names the failing shard: {msg}");
            assert!(msg.contains("poisoned"), "announces the poisoning: {msg}");
        }
        other => panic!("expected a worker fault error, got {other:?}"),
    }
    // Clearing the fault and opening a fresh session recovers fully.
    engine.clear_worker_fault();
    let mut matches = 0u64;
    engine.run(XmlReader::from_str(&xml), |_, _| matches += 1).expect("recovers");
    assert!(matches > before_fault, "the healthy run delivers the whole document");
}

#[test]
fn poisoning_is_per_session() {
    // Within a session a worker fault fail-fasts every later document
    // (the dead worker cannot be respawned mid-session) with zero
    // callbacks; the next session of the same engine is healthy.
    let xml = document();
    let mut engine = engine(3);
    engine.inject_worker_fault(0, 500);
    let mut later_calls = 0u64;
    engine
        .session(|session| {
            let first = session.run_document(XmlReader::from_str(&xml), |_, _| {});
            assert!(matches!(first, Err(EngineError::Worker(_))), "fault fires: {first:?}");
            let second = session.run_document(XmlReader::from_str(&xml), |_, _| later_calls += 1);
            assert!(
                matches!(second, Err(EngineError::Worker(_))),
                "a document on a poisoned session fails fast"
            );
            Ok(())
        })
        .expect("the session closure itself succeeds");
    assert_eq!(later_calls, 0, "no callbacks after poisoning");
    engine.clear_worker_fault();
    let mut matches = 0u64;
    engine.run(XmlReader::from_str(&xml), |_, _| matches += 1).expect("a new session is healthy");
    assert!(matches > 0);
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
