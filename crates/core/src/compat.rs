use crate::{MultiEngine, Session};
/// A [`MultiEngine`]: `benchmark/src/engines.rs:218` builds one and opens its `session`.
pub struct ShardedEngine(MultiEngine);
impl ShardedEngine {
    pub fn new(_workers: usize) -> Self {
        ShardedEngine(MultiEngine::new())
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
pub type ShardSession<'a> = Session<'a>;
/// A constant one-thread placement: `benchmark/src/trace.rs:573-574` reads both fields.
#[derive(Debug, Clone)]
pub struct PlacementSnapshot {
    pub repartitions: u64,
    pub last_imbalance_millis: Option<u64>,
}
#[doc(hidden)]
impl Session<'_> {
    /// `benchmark/src/engines.rs:168` calls it.
    pub fn placement_snapshot(&self) -> PlacementSnapshot {
        PlacementSnapshot { repartitions: 0, last_imbalance_millis: Some(1000) }
    }
}
/// `benchmark/src/trace.rs:568-569` looks one up in the always empty `Snapshot::gauges`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeRow {
    pub name: &'static str,
    pub high: u64,
}
