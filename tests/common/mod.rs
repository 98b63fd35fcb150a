//! Harness pieces shared by the differential batteries
//! (`random_differential`, `telemetry`): the seeded query-set generator
//! and the parse front-end axis.
#![allow(dead_code)]

use vitex::core::{Match, MultiOutput, PlanStats, QueryId, ShardedEngine};
use vitex::xmlsax::{ParallelConfig, ParallelReader, XmlReader};
use vitex::xpath::generate::{GenConfig, QueryGenerator};
use vitex::xpath::QueryTree;

/// Queries per generated set — enough for overlap and duplicates to
/// appear (the generator's alphabet is 5 tags), small enough to keep the
/// full configuration product fast.
pub const QUERIES_PER_SET: usize = 8;

/// Generates a query set: random trees plus a forced literal duplicate of
/// the first query (dedup + fan-out must always be exercised).
pub fn query_set(query_seed: u64) -> Vec<QueryTree> {
    let mut qgen = QueryGenerator::new(query_seed, GenConfig::default());
    let mut trees: Vec<QueryTree> = qgen
        .queries(QUERIES_PER_SET - 1)
        .iter()
        .map(|q| QueryTree::build(q).expect("generated queries are valid"))
        .collect();
    trees.push(QueryTree::parse(trees[0].original()).expect("round-trips"));
    trees
}

/// Parse front-ends. `Sequential` is the streaming reader; `Pipelined(n)`
/// is the n-thread speculative chunked reader funneled through the
/// document pump; `Overlapped(n)` is the overlapped front-end — n parse
/// workers and n publisher threads feeding the shard rings directly, with
/// out-of-order batch delivery. All three must be byte-identical in
/// matches, callback order and statistics.
#[derive(Clone, Copy, Debug)]
pub enum FrontEnd {
    Sequential,
    Pipelined(usize),
    Overlapped(usize),
}

/// Every front-end at the thread counts the fixed sweeps pin.
pub const ALL_FRONT_ENDS: &[FrontEnd] = &[
    FrontEnd::Sequential,
    FrontEnd::Pipelined(2),
    FrontEnd::Pipelined(4),
    FrontEnd::Overlapped(2),
    FrontEnd::Overlapped(4),
];

/// Tiny chunks so even the harnesses' small documents split into many
/// speculative fragments: the seam reconciliation and the out-of-order
/// publication paths get exercised, not just the whole-document
/// fallback.
pub fn par_config(threads: usize) -> ParallelConfig {
    ParallelConfig { threads, chunk_bytes: Some(96), ..ParallelConfig::default() }
}

/// Streams `xml` through `engine` by the given front-end.
pub fn run_front(
    engine: &mut ShardedEngine,
    xml: &str,
    front: FrontEnd,
    on_match: impl FnMut(QueryId, Match),
) -> MultiOutput {
    let bytes = || xml.as_bytes().to_vec();
    match front {
        FrontEnd::Sequential => engine.run(XmlReader::from_str(xml), on_match),
        FrontEnd::Pipelined(threads) => {
            engine.run(ParallelReader::with_config(bytes(), par_config(threads)), on_match)
        }
        FrontEnd::Overlapped(threads) => {
            engine.run_overlapped(bytes(), par_config(threads), on_match).map(|(out, _)| out)
        }
    }
    .expect("engine run")
}

/// Plan statistics with the prefix runtime counters zeroed — the
/// structural part that `Shared` and `PrefixShared` must agree on.
pub fn structural(p: &PlanStats) -> PlanStats {
    PlanStats {
        prefix_steps_executed: 0,
        prefix_steps_saved: 0,
        prefix_forks: 0,
        prefix_stack_bytes: 0,
        ..*p
    }
}
