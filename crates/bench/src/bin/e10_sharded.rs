//! E10 — sharded multi-core pub/sub (plan-group partitioning).
//!
//! A production filter serving `k` standing subscriptions spends its
//! per-event budget poking the machines interested in that event; with
//! `k` *distinct* queries over the same hot element names that budget is
//! `O(k)` on one core no matter how fast the parser is. The sharded
//! engine partitions the plan groups across `N` worker threads behind
//! bounded event rings and merges the match streams deterministically, so
//! the per-event machine work — the dominant term at large `k` — divides
//! by `N` while output stays byte-identical to the single-threaded
//! engine.
//!
//! This experiment registers `k = 1000` distinct overlapping auction
//! subscriptions (see `multiquery::distinct_overlapping_queries`), then
//! streams a document collection (the same XMark-style document,
//! back-to-back through one warm [`vitex_core::ShardSession`]) at 1, 2, 4
//! and 8 shards, reporting wall-clock, throughput and speedup over the
//! 1-shard row, and asserting the match totals agree.
//!
//! Expected shape **on a multi-core host**: ≥ 2× at 4 shards for the
//! k = 1000 row. On a single-core host the rows degenerate to ~1× minus
//! ring overhead — the table reports whatever the hardware gives; the
//! differential battery (not this bin) is the correctness gate.

use vitex_bench::multiquery::distinct_overlapping_queries;
use vitex_bench::{fmt_dur, header, scale_arg, throughput, time_once};
use vitex_core::ShardedEngine;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

/// Documents streamed back-to-back per session (the collections
/// workload: one plan, one partition, warm workers).
const DOCS: usize = 3;

struct Row {
    build: std::time::Duration,
    run: std::time::Duration,
    matches: u64,
    groups: usize,
}

fn run_once(queries: &[String], shards: usize, xml: &str) -> Row {
    let (mut engine, build) = time_once(|| {
        let mut engine = ShardedEngine::new(shards);
        for q in queries {
            engine.add_query(q).expect("valid query");
        }
        engine
    });
    let groups = engine.group_count();
    let mut matches = 0u64;
    let (_, run) = time_once(|| {
        engine
            .session(|session| {
                for _ in 0..DOCS {
                    let out = session.run_document(XmlReader::from_str(xml), |_, _| {})?;
                    matches += out.matches.iter().map(|m| m.len() as u64).sum::<u64>();
                }
                Ok(())
            })
            .expect("session run");
    });
    Row { build, run, matches, groups }
}

fn main() {
    header(
        "E10: sharded pub/sub (plan groups across worker threads)",
        "k distinct standing queries cost O(k) machine work per event; \
         partitioning groups across N shards divides it by N with \
         deterministic, byte-identical merged output",
    );
    let scale = scale_arg();
    let xml = auction::to_string(&AuctionConfig::sized(((1 << 20) as f64 * scale) as u64));
    let k = 1000usize;
    let queries = distinct_overlapping_queries(k);
    let streamed = xml.len() * DOCS;

    println!(
        "{:>6} | {:>9} | {:>6} | {:>10} | {:>8} | {:>8} | {:>9}",
        "shards", "build", "groups", "run", "MB/s", "speedup", "matches"
    );
    let mut baseline: Option<Row> = None;
    for shards in [1usize, 2, 4, 8] {
        let row = run_once(&queries, shards, &xml);
        assert_eq!(row.groups, k, "distinct queries must not dedupe");
        if let Some(base) = &baseline {
            assert_eq!(row.matches, base.matches, "shard counts must agree on matches");
        }
        let speedup =
            baseline.as_ref().map_or(1.0, |b| b.run.as_secs_f64() / row.run.as_secs_f64());
        println!(
            "{:>6} | {:>9} | {:>6} | {:>10} | {:>8.1} | {:>7.2}x | {:>9}",
            shards,
            fmt_dur(row.build),
            row.groups,
            fmt_dur(row.run),
            throughput(streamed, row.run),
            speedup,
            row.matches,
        );
        if baseline.is_none() {
            baseline = Some(row);
        }
    }
    println!(
        "\nshape check: every row reports identical matches (the merge is\n\
         deterministic); on an N-core host the speedup column should\n\
         approach min(shards, cores), with >= 2x at 4 shards as the\n\
         acceptance bar for the k = 1000 workload. {DOCS} documents are\n\
         streamed per session, so worker threads and the partition are\n\
         reused across documents (the collections workload)."
    );
}
