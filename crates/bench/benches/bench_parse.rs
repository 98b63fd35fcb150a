//! Parse front-end benchmarks: the sequential reader and the speculative
//! chunked parallel reader at several thread counts. Complements `bench_parser.rs` (which measures
//! structural regimes of the default sequential reader); this suite holds
//! the document fixed and varies the *front-end*.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::{EventSource, ParallelReader, XmlEvent, XmlReader};

fn count_events(mut src: impl EventSource) -> u64 {
    let mut events = 0u64;
    loop {
        match src.next_event().expect("well-formed benchmark data") {
            XmlEvent::EndDocument => return events,
            _ => events += 1,
        }
    }
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse_front_end");
    group.sample_size(10).measurement_time(Duration::from_secs(2));

    let xml = auction::to_string(&AuctionConfig::sized(2 << 20));
    group.throughput(Throughput::Bytes(xml.len() as u64));

    group.bench_with_input(BenchmarkId::new("sequential", 1), &xml, |b, xml| {
        b.iter(|| count_events(XmlReader::from_str(xml)))
    });
    for threads in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &xml, |b, xml| {
            b.iter(|| count_events(ParallelReader::from_bytes(xml.as_bytes().to_vec(), threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
