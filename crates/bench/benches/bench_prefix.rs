//! Prefix-shared execution throughput: one scan at k *distinct* standing
//! queries with heavily overlapping main paths, `PlanMode::Shared`
//! (per-group main-path planning) vs `PlanMode::PrefixShared` (one trie
//! check per distinct step per event).
//!
//! The workload is the distinct-literal regime of experiment E11 /
//! `e10_sharded`: canonicalization cannot collapse the queries, so the
//! plan really runs k machines — which is exactly the per-event
//! main-path cost the runtime trie absorbs. The duplicate-heavy
//! workload is measured too: dedup collapses it to ~16 groups first, so
//! the residual prefix win is smaller but still present.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vitex_bench::multiquery::{distinct_overlapping_queries, region_pinned_queries};
use vitex_core::{MultiEngine, PlanMode};
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

fn build_engine(queries: &[String], plan: PlanMode) -> MultiEngine {
    let mut multi = MultiEngine::with_plan(plan);
    for q in queries {
        multi.add_query(q).expect("valid query");
    }
    multi
}

fn bench_prefix(c: &mut Criterion) {
    let xml = auction::to_string(&AuctionConfig::sized(1 << 20));
    type Workload = fn(usize) -> Vec<String>;
    let workloads: [(&str, Workload); 2] =
        [("pinned", region_pinned_queries), ("distinct", distinct_overlapping_queries)];
    for (workload, make) in workloads {
        let mut group = c.benchmark_group(format!("prefix_sharing_{workload}"));
        group.sample_size(10).measurement_time(Duration::from_secs(2));
        group.throughput(Throughput::Bytes(xml.len() as u64));
        for k in [100usize, 1000] {
            let queries = make(k);
            for (label, plan) in
                [("shared", PlanMode::Shared), ("prefix_shared", PlanMode::PrefixShared)]
            {
                let mut multi = build_engine(&queries, plan);
                group.bench_with_input(BenchmarkId::new(label, k), &xml, |b, xml| {
                    b.iter(|| {
                        multi
                            .run(XmlReader::from_str(xml), |_, _| {})
                            .expect("well-formed workload")
                            .elements
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_prefix);
criterion_main!(benches);
