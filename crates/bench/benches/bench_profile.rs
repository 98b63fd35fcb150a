//! Cost-ledger overhead: the E10 sharded workload (k = 1000 distinct
//! standing queries, 4 shards, warm session) with profiling disabled
//! and enabled.
//!
//! The acceptance bar for the attribution layer is that the *disabled*
//! row is indistinguishable from the baseline (the ledger handle is an
//! `Option` check — no allocation, no lock, nothing sampled) and the
//! *enabled* row costs at most low single-digit percent: the per-event
//! hot path is untouched (workers sample self-time on every 64th
//! machine touch only), the shared-trie billing is a per-push counter
//! bump on the document thread, and the fold into the ledger's mutex
//! happens once per document. `BENCH_profile.json` records the measured
//! baseline for the CI overhead check.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vitex_bench::multiquery::distinct_overlapping_queries;
use vitex_core::ShardedEngine;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

fn build_engine(k: usize, shards: usize, profiled: bool) -> ShardedEngine {
    let mut engine = ShardedEngine::new(shards);
    engine.set_profiling(profiled);
    for q in distinct_overlapping_queries(k) {
        engine.add_query(&q).expect("valid query");
    }
    engine
}

fn bench_profile(c: &mut Criterion) {
    let xml = auction::to_string(&AuctionConfig::sized(1 << 20));
    let mut group = c.benchmark_group("profile_overhead");
    // Longer window than bench_telemetry: the acceptance check is a
    // ratio of minima, so each row needs enough samples for its min to
    // settle on a time-sliced CI core.
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    group.throughput(Throughput::Bytes(xml.len() as u64));
    for (label, profiled) in [("disabled", false), ("enabled", true)] {
        let mut engine = build_engine(1000, 4, profiled);
        group.bench_with_input(BenchmarkId::new(label, "k1000x4"), &xml, |b, xml| {
            engine
                .session(|session| {
                    b.iter(|| {
                        session
                            .run_document(XmlReader::from_str(xml), |_, _| {})
                            .expect("well-formed workload")
                            .elements
                    });
                    Ok(())
                })
                .expect("session");
        });
    }
    group.finish();
}

criterion_group!(benches, bench_profile);
criterion_main!(benches);
