use std::io::Read;

use vitex_xmlsax::XmlReader;

use crate::{EngineResult, Match, MultiEngine, MultiOutput, QueryId};
/// A [`MultiEngine`]: `benchmark/src/engines.rs:218` builds one and opens its `session`.
pub struct ShardedEngine(MultiEngine);
impl ShardedEngine {
    pub fn new(_workers: usize) -> Self {
        ShardedEngine(MultiEngine::new())
    }
    /// `benchmark/src/engines.rs:225` hands `f` the engine as a [`ShardSession`].
    pub fn session<T>(
        &mut self,
        f: impl FnOnce(&mut ShardSession<'_>) -> EngineResult<T>,
    ) -> EngineResult<T> {
        f(&mut ShardSession(&mut self.0))
    }
}
impl std::ops::Deref for ShardedEngine {
    type Target = MultiEngine;
    fn deref(&self) -> &MultiEngine {
        &self.0
    }
}
impl std::ops::DerefMut for ShardedEngine {
    fn deref_mut(&mut self) -> &mut MultiEngine {
        &mut self.0
    }
}
/// `benchmark/src/engines.rs:162` implements its `Warm` for this name.
pub struct ShardSession<'a>(&'a mut MultiEngine);
impl ShardSession<'_> {
    /// [`MultiEngine::run`]: `benchmark/src/engines.rs:164` calls it.
    pub fn run_document<R: Read, F: FnMut(QueryId, Match)>(
        &mut self,
        reader: XmlReader<R>,
        on_match: F,
    ) -> EngineResult<MultiOutput> {
        self.0.run(reader, on_match)
    }
    /// `benchmark/src/engines.rs:168` calls it.
    pub fn placement_snapshot(&self) -> PlacementSnapshot {
        PlacementSnapshot { repartitions: 0, last_imbalance_millis: Some(1000) }
    }
}
/// A constant one-thread placement: `benchmark/src/trace.rs:573-574` reads both fields.
#[derive(Debug, Clone)]
pub struct PlacementSnapshot {
    pub repartitions: u64,
    pub last_imbalance_millis: Option<u64>,
}
/// `benchmark/src/trace.rs:568-569` looks one up in the always empty `Snapshot::gauges`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    pub name: &'static str,
    pub high: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_entry_point_runs_what_multi_engine_run_runs() {
        let queries = ["//a", "//a[b]", "//b/text()", "//a[b]"];
        let docs = ["<r><a><b>x</b></a><b>y</b></r>", "<r><a><b></a>", "<a><a/><b>z</b></a>"];
        let mut fresh = MultiEngine::new();
        let mut sharded = ShardedEngine::new(2);
        for q in queries {
            assert_eq!(fresh.add_query(q).unwrap(), sharded.add_query(q).unwrap());
        }
        let outs = sharded
            .session(|s| Ok(docs.map(|xml| s.run_document(XmlReader::from_str(xml), |_, _| {}))))
            .unwrap();
        for (xml, out) in docs.iter().zip(outs) {
            match (out, fresh.run(XmlReader::from_str(xml), |_, _| {})) {
                (Ok(out), Ok(expected)) => {
                    assert!(out.matches.iter().any(|m| !m.is_empty()), "{xml} matches");
                    assert_eq!(out.matches, expected.matches, "{xml}");
                    assert_eq!(out.stats, expected.stats, "{xml}");
                    assert_eq!(out.plan, expected.plan, "{xml}");
                }
                (out, expected) => {
                    assert!(out.is_err() && expected.is_err(), "{xml}: both fail");
                    assert_eq!(xml, &docs[1], "only the malformed document fails");
                }
            }
        }
    }
}
