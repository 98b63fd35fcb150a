//! Telemetry overhead: the E10 sharded workload (k = 1000 distinct
//! standing queries, 4 shards, warm session) with telemetry disabled,
//! enabled, and enabled-with-a-parse-probe.
//!
//! The acceptance bar for the observability layer is that the *disabled*
//! row is indistinguishable from the pre-telemetry baseline (the handle
//! is a `None` check inlined at every record site — no atomics, no clock
//! reads), and the *enabled* row costs low single-digit percent: the hot
//! per-event path records only into relaxed atomics and a per-batch
//! histogram, never takes a lock, and folds the deterministic counters
//! once per document. `BENCH_telemetry.json` records the measured
//! baseline for the CI overhead check.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vitex_bench::multiquery::distinct_overlapping_queries;
use vitex_core::telemetry::Telemetry;
use vitex_core::ShardedEngine;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

fn build_engine(k: usize, shards: usize, telemetry: Telemetry) -> ShardedEngine {
    let mut engine = ShardedEngine::new(shards);
    engine.set_telemetry(telemetry);
    for q in distinct_overlapping_queries(k) {
        engine.add_query(&q).expect("valid query");
    }
    engine
}

fn bench_telemetry(c: &mut Criterion) {
    let xml = auction::to_string(&AuctionConfig::sized(1 << 20));
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Bytes(xml.len() as u64));
    for (label, telemetry) in
        [("disabled", Telemetry::disabled()), ("enabled", Telemetry::enabled())]
    {
        let mut engine = build_engine(1000, 4, telemetry);
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

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
