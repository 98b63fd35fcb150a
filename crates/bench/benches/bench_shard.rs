//! Sharded-execution throughput: one auction scan at k = 1000 distinct
//! standing queries, partitioned across 1 / 2 / 4 / 8 worker threads.
//!
//! The workload is the distinct-literal regime of experiment E10: every
//! query is its own plan group and most groups watch the same hot element
//! names, so per-event machine work is `O(k)` — the term sharding
//! divides. The 1-shard row is the single-threaded engine itself (the
//! sharded path delegates), making the group a self-contained scaling
//! curve; on an N-core host the acceptance bar is ≥ 2× at 4 shards.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vitex_bench::multiquery::distinct_overlapping_queries;
use vitex_core::ShardedEngine;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

fn build_engine(k: usize, shards: usize) -> ShardedEngine {
    let mut engine = ShardedEngine::new(shards);
    for q in distinct_overlapping_queries(k) {
        engine.add_query(&q).expect("valid query");
    }
    engine
}

fn bench_shard(c: &mut Criterion) {
    let xml = auction::to_string(&AuctionConfig::sized(1 << 20));
    let mut group = c.benchmark_group("sharded_scaling");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Bytes(xml.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        let mut engine = build_engine(1000, shards);
        group.bench_with_input(BenchmarkId::new("k1000", shards), &xml, |b, xml| {
            // Measure the warm-session path: workers spawned and groups
            // partitioned once, documents streamed back-to-back — the
            // production shape, not per-document thread churn.
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

criterion_group!(benches, bench_shard);
criterion_main!(benches);
