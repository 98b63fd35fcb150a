//! Fault-injection battery for the sharded pipeline: kill a shard worker
//! mid-document and assert the session surfaces a **clean error** — no
//! hang, no panic escaping to the caller, and no match callbacks delivered
//! after the failure.
//!
//! The hook is a test-only seam:
//! `ShardedEngine::inject_worker_fault(shard, seq)` makes that shard's
//! worker panic when it applies the event with that sequence number. A
//! dead worker stops draining its ring and never acknowledges `DocEnd` —
//! precisely what the poison path (ring close on unwind, poisoned report,
//! sticky session error) has to cover.

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
