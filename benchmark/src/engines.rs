//! The engines under test, reached only through default constructors
//! (`Engine::from_query`, `MultiEngine::new`, `ShardedEngine::new(2)`) and
//! the public `run` / `run_document` calls — never an ablation enum or
//! flag — so the benchmark measures what a user gets by default and a
//! later PR can delete modes without editing it.

use std::collections::HashMap;
use std::time::Instant;

use vitex_baseline::dom::Document;
use vitex_baseline::oracle;
use vitex_core::{
    Engine, EngineResult, EvalOutput, MachineStats, Match, MatchKind, MultiEngine, MultiOutput,
    PlacementSnapshot, ShardSession, ShardedEngine, Telemetry,
};
use vitex_xmlsax::XmlReader;
use vitex_xpath::QueryTree;

use crate::stats::Fnv;
use crate::workloads::{EngineKind, Workload};

/// Worker threads of the sharded sessions: `nproc` on the reference host.
pub const SHARDS: usize = 2;

/// What one pass returned.
pub enum Output {
    Single(EvalOutput),
    Multi(MultiOutput),
}

/// `(match count, FNV-1a digest)` of an output — how a pass is compared
/// with the oracle-verified reference pass.
pub type Fingerprint = (u64, u64);

impl Output {
    /// Matches per query, in the order the engine returned them.
    fn per_query(&self) -> &[Vec<Match>] {
        match self {
            Output::Single(o) => std::slice::from_ref(&o.matches),
            Output::Multi(o) => &o.matches,
        }
    }

    /// Count and digest over every (query id, node id, kind, value).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut f = Fnv::default();
        let mut count = 0;
        for (q, matches) in self.per_query().iter().enumerate() {
            for m in matches {
                count += 1;
                f.u64(q as u64);
                f.u64(m.node);
                f.u64(match m.kind {
                    MatchKind::Element => 0,
                    MatchKind::Attribute => 1,
                    MatchKind::Text => 2,
                });
                match &m.value {
                    Some(v) => {
                        f.u64(v.len() as u64 + 1);
                        f.bytes(v.as_bytes());
                    }
                    None => f.u64(0),
                }
            }
        }
        (count, f.finish())
    }

    pub fn events(&self) -> u64 {
        match self {
            Output::Single(o) => o.events,
            Output::Multi(o) => o.events,
        }
    }

    /// Machine counters summed over the machines that ran: the one machine
    /// of a single-query engine, or one representative subscriber per plan
    /// group (subscribers of a shared machine all report its counters).
    pub fn machine_counts(&self, representatives: &[usize]) -> MachineCounts {
        let mut sum = MachineCounts::default();
        match self {
            Output::Single(o) => sum.add(&o.stats),
            Output::Multi(o) => representatives.iter().for_each(|&q| sum.add(&o.stats[q])),
        }
        sum
    }
}

/// The `MachineStats` counters the per-layer metrics use, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounts {
    pub pushes: u64,
    pub predicate_evals: u64,
    pub flag_propagations: u64,
    pub dispatch_hits: u64,
    /// Candidates created, forwarded, inherited and copied.
    pub candidate_moves: u64,
    /// Sum of the machines' peak resident bytes.
    pub peak_bytes: u64,
}

impl MachineCounts {
    /// Folds one more document's counts in: counters add up, the peak is
    /// the largest document's.
    pub fn add_document(&mut self, doc: MachineCounts) {
        self.pushes += doc.pushes;
        self.predicate_evals += doc.predicate_evals;
        self.flag_propagations += doc.flag_propagations;
        self.dispatch_hits += doc.dispatch_hits;
        self.candidate_moves += doc.candidate_moves;
        self.peak_bytes = self.peak_bytes.max(doc.peak_bytes);
    }

    fn add(&mut self, s: &MachineStats) {
        self.pushes += s.pushes;
        self.predicate_evals += s.predicate_evals;
        self.flag_propagations += s.flag_propagations;
        self.dispatch_hits += s.dispatch_hits;
        self.candidate_moves += s.candidates_created
            + s.candidates_forwarded
            + s.candidates_inherited
            + s.candidates_copied;
        self.peak_bytes += s.peak_bytes;
    }
}

/// The first subscriber of each structurally distinct query: the queries
/// the planner folds into one machine share a canonical key.
pub fn representatives(queries: &[String]) -> EngineResult<Vec<usize>> {
    let mut seen = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        seen.entry(QueryTree::parse(q)?.canonical_key()).or_insert(i);
    }
    let mut firsts: Vec<usize> = seen.into_values().collect();
    firsts.sort_unstable();
    Ok(firsts)
}

/// A warm engine: one public call per document, no-op match callback.
pub trait Warm {
    fn run_doc(&mut self, doc: &str) -> EngineResult<Output>;

    /// Shard placement state (sharded sessions only).
    fn placement(&self) -> Option<PlacementSnapshot> {
        None
    }
}

impl Warm for Engine {
    fn run_doc(&mut self, doc: &str) -> EngineResult<Output> {
        Ok(Output::Single(Engine::run(self, XmlReader::from_str(doc), |_| {})?))
    }
}

impl Warm for MultiEngine {
    fn run_doc(&mut self, doc: &str) -> EngineResult<Output> {
        Ok(Output::Multi(MultiEngine::run(self, XmlReader::from_str(doc), |_, _| {})?))
    }
}

impl Warm for ShardSession<'_> {
    fn run_doc(&mut self, doc: &str) -> EngineResult<Output> {
        Ok(Output::Multi(self.run_document(XmlReader::from_str(doc), |_, _| {})?))
    }

    fn placement(&self) -> Option<PlacementSnapshot> {
        Some(self.placement_snapshot())
    }
}

/// One timed pass: the clock runs around the engine call only; the
/// output is inspected after it stops.
pub struct Pass {
    pub start: Instant,
    pub nanos: u64,
    pub output: EngineResult<Output>,
}

pub fn pass(engine: &mut dyn Warm, doc: &str) -> Pass {
    let start = Instant::now();
    let output = engine.run_doc(doc);
    let nanos = start.elapsed().as_nanos() as u64;
    Pass { start, nanos, output }
}

pub fn multi_engine(queries: &[String], telemetry: &Telemetry) -> EngineResult<MultiEngine> {
    let mut engine = MultiEngine::new();
    if telemetry.is_enabled() {
        engine.set_telemetry(telemetry.clone());
    }
    for q in queries {
        engine.add_query(q)?;
    }
    Ok(engine)
}

/// Builds `kind`'s engine the way a user would — parse, compile and
/// register every query in a fresh default engine; for the sharded kind
/// also open the session — and hands it to `body`. A disabled `telemetry`
/// handle is never attached, so the default path is measured untouched.
pub fn with_engine<T>(
    kind: EngineKind,
    queries: &[String],
    telemetry: &Telemetry,
    body: impl FnOnce(&mut dyn Warm) -> EngineResult<T>,
) -> EngineResult<T> {
    match kind {
        EngineKind::Single => {
            let mut engine = Engine::from_query(&queries[0])?;
            if telemetry.is_enabled() {
                engine.set_telemetry(telemetry.clone());
            }
            body(&mut engine)
        }
        EngineKind::Multi => body(&mut multi_engine(queries, telemetry)?),
        EngineKind::Sharded => {
            let mut engine = ShardedEngine::new(SHARDS);
            if telemetry.is_enabled() {
                engine.set_telemetry(telemetry.clone());
            }
            for q in queries {
                engine.add_query(q)?;
            }
            engine.session(|session| body(session))
        }
    }
}

/// Cold start to first document delivered: what one `vitex -e ... file`
/// invocation pays. The clock stops at delivery; tear-down is not timed.
pub fn cold_start(w: &Workload) -> Pass {
    let start = Instant::now();
    let mut nanos = 0;
    let output = with_engine(w.spec.kind, &w.queries, &Telemetry::disabled(), |engine| {
        let out = engine.run_doc(&w.docs[0]);
        nanos = start.elapsed().as_nanos() as u64;
        out
    });
    if output.is_err() {
        nanos = start.elapsed().as_nanos() as u64;
    }
    Pass { start, nanos, output }
}

/// Checks every (document, query set) pair once against the DOM oracle —
/// match counts and per-query node-id lists — and returns the verified
/// pass's fingerprint per document, the reference for every later pass.
pub fn verify(w: &Workload) -> Result<Vec<Fingerprint>, String> {
    let name = w.spec.name;
    let trees: Vec<QueryTree> = w
        .queries
        .iter()
        .map(|q| QueryTree::parse(q).map_err(|e| format!("workload {name}: query {q}: {e}")))
        .collect::<Result<_, _>>()?;
    let outputs = with_engine(w.spec.kind, &w.queries, &Telemetry::disabled(), |engine| {
        w.docs.iter().map(|doc| engine.run_doc(doc)).collect::<EngineResult<Vec<Output>>>()
    })
    .map_err(|e| format!("workload {name}: {e}"))?;
    let mut reference = Vec::with_capacity(w.docs.len());
    for (d, (doc, output)) in w.docs.iter().zip(&outputs).enumerate() {
        let dom = Document::parse_str(doc).map_err(|e| format!("workload {name}: doc {d}: {e}"))?;
        // Identical query texts (the fan-out workload) share one oracle run.
        let mut expected: HashMap<&str, Vec<u64>> = HashMap::new();
        for (q, got) in output.per_query().iter().enumerate() {
            let want = expected.entry(w.queries[q].as_str()).or_insert_with(|| {
                oracle::evaluate(&dom, &trees[q]).iter().map(|m| m.node).collect()
            });
            let mut got: Vec<u64> = got.iter().map(|m| m.node).collect();
            got.sort_unstable();
            if got != *want {
                return Err(format!(
                    "workload {name}: document {d}, query {q} ({}): engine delivered {} matches, \
                     oracle {}",
                    w.queries[q],
                    got.len(),
                    want.len()
                ));
            }
        }
        reference.push(output.fingerprint());
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    #[test]
    fn fingerprint_sees_query_node_kind_and_value() {
        let run = |query: &str, xml: &str| {
            let mut e = Engine::from_query(query).unwrap();
            e.run_doc(xml).unwrap().fingerprint()
        };
        let base = run("//b/@id", "<a><b id=\"1\"/><b id=\"2\"/></a>");
        assert_eq!(base.0, 2);
        assert_eq!(base, run("//b/@id", "<a><b id=\"1\"/><b id=\"2\"/></a>"), "stable");
        assert_ne!(base, run("//b/@id", "<a><b id=\"1\"/><b id=\"3\"/></a>"), "value");
        assert_ne!(base, run("//b/@id", "<a><b id=\"1\"/><c/><b id=\"2\"/></a>"), "node id");
        assert_ne!(run("//b", "<a><b>x</b></a>"), run("//b/text()", "<a><b>x</b></a>"), "kind");
    }

    #[test]
    fn representatives_fold_canonical_duplicates() {
        let queries: Vec<String> =
            ["//a[b][c]/d", "//x", "//a[c][b]/d", "//x"].iter().map(|s| s.to_string()).collect();
        assert_eq!(representatives(&queries).unwrap(), [0, 1]);
    }

    #[test]
    fn verification_accepts_the_engines_and_names_a_wrong_output() {
        let mut w = spec("pubsub-k1000-smalldocs").unwrap().generate(11).unwrap();
        w.docs.truncate(2);
        let reference = verify(&w).unwrap();
        assert_eq!(reference.len(), 2);
        assert!(reference[0].0 > 0, "the workload delivers matches");
        // The same documents through the sharded session fingerprint alike.
        let sharded: EngineResult<Vec<Fingerprint>> =
            with_engine(EngineKind::Sharded, &w.queries, &Telemetry::disabled(), |engine| {
                w.docs.iter().map(|d| Ok(engine.run_doc(d)?.fingerprint())).collect()
            });
        assert_eq!(sharded.unwrap(), reference);
        // A malformed document is reported, not measured.
        w.docs[1] = "<stream><t1></stream>".to_string();
        let err = verify(&w).expect_err("malformed document");
        assert!(err.contains("pubsub-k1000-smalldocs"), "{err}");
    }
}
