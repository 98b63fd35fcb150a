//! The traced run: the per-layer metrics of one workload.
//!
//! Measured from outside, a layer boundary is a public function that runs
//! the pipeline *up to* that layer, so the trace is made of **replays** of
//! the same document: the `XmlReader::next_event` loop, then
//! `DocumentDriver::run` into a sink that only resolves names, then the
//! full engine pass. A layer's self time is its replay's best sweep minus
//! the next-inner replay's, so xmlsax + driver + match closes against the
//! full pass by construction. Counts come from the engine's own
//! statistics, the counting allocator and a parse probe at the same
//! boundaries — on extra repetitions, never on a timed one. End-to-end
//! metrics are never taken from this run.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vitex_core::{
    DocumentDriver, EngineResult, EventSink, Interner, MachineSpec, MultiEngine, PlacementSnapshot,
    PlanStats, Snapshot, Symbol, Telemetry,
};
use vitex_xmlsax::event::{CharactersEvent, EndElementEvent, StartElementEvent};
use vitex_xmlsax::{ParseProbe, XmlEvent, XmlReader};
use vitex_xpath::QueryTree;

use crate::alloc::{self, AllocCounts};
use crate::engines::{
    pass, representatives, with_engine, Fingerprint, MachineCounts, Output, Pass, Warm, SHARDS,
};
use crate::measure::{PassTimes, Protocol, Tally};
use crate::metrics::{Values, PER_LAYER};
use crate::stats::{best, sweep_best};
use crate::workloads::{EngineKind, Workload};

/// Engine generations of a full run; each repeats until its share of the
/// time runs out.
const MAX_GENERATIONS: u32 = 4;
/// Share of the run the replays may use; the rest is for set-up timings,
/// the counting repetitions and the root-only passes.
const REPLAY_SHARE: f64 = 0.8;
/// Repetitions of the set-up layer timings (parse, compile, register).
const SETUP_REPS: usize = 7;
/// Passes over the root-only document.
const ROOT_ONLY_PASSES: usize = 100;
const ROOT_ONLY: &str = "<doc/>";

/// One replay: `{name, start, end, parent, trace = workload/doc/rep}`.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    doc: usize,
    rep: usize,
}

/// Spans kept in memory, written as Chrome-trace JSON when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        nanos: u64,
        parent: Option<usize>,
        (doc, rep): (usize, usize),
    ) -> usize {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns + nanos, parent, doc, rep });
        self.spans.len() - 1
    }

    /// Chrome trace-event JSON (`ph: "X"`, microseconds); opens in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"trace\":\"{workload}/{}/{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.doc,
                s.rep,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// The xmlsax replay: the tokenizer alone. Returns start and duration.
fn replay_xmlsax(doc: &str, probe: Option<Arc<ScanProbe>>) -> (Instant, u64) {
    let mut reader = XmlReader::from_str(doc);
    if let Some(probe) = probe {
        reader.set_probe(probe);
    }
    let start = Instant::now();
    while !matches!(
        black_box(reader.next_event().expect("verified document")),
        XmlEvent::EndDocument
    ) {}
    (start, start.elapsed().as_nanos() as u64)
}

/// Scanner byte counts, wide (SWAR) path against scalar path.
#[derive(Default)]
struct ScanProbe {
    wide: AtomicU64,
    scalar: AtomicU64,
}

impl ParseProbe for ScanProbe {
    fn on_scan_bytes(&self, wide: u64, scalar: u64) {
        self.wide.fetch_add(wide, Relaxed);
        self.scalar.fetch_add(scalar, Relaxed);
    }
}

/// The sink of the driver replay: resolves names like an engine does (the
/// interner holds the query set's names) and does nothing else, so the
/// replay costs xmlsax + `driver.rs` + `intern.rs`.
struct ResolveOnly<'a>(&'a Interner);

impl EventSink for ResolveOnly<'_> {
    fn resolve(&mut self, name: &str) -> Option<Symbol> {
        self.0.lookup(name)
    }

    fn start_element(&mut self, sym: Option<Symbol>, event: &StartElementEvent, id: u64, _: u64) {
        black_box((sym, event, id));
    }

    fn characters(&mut self, event: &CharactersEvent, id: u64) {
        black_box((event, id));
    }

    fn end_element(&mut self, sym: Option<Symbol>, event: &EndElementEvent) {
        black_box((sym, event));
    }
}

fn replay_driver(doc: &str, driver: &mut DocumentDriver, names: &Interner) -> (Instant, u64) {
    let start = Instant::now();
    let stats = driver.run(XmlReader::from_str(doc), &mut ResolveOnly(names));
    let nanos = start.elapsed().as_nanos() as u64;
    black_box(stats.expect("verified document"));
    (start, nanos)
}

/// Set-up layer timings and the plan's shape.
struct SetupLayers {
    parse_us_per_query: f64,
    compile_us_per_query: f64,
    spec_bytes_per_query: f64,
    register_us_per_query: f64,
    plan: PlanStats,
    /// Every element name the query set mentions.
    names: Interner,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

fn setup_layers(w: &Workload) -> EngineResult<SetupLayers> {
    let k = w.queries.len() as f64;
    let (mut parse, mut compile, mut register) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (trees, ns) =
            timed(|| w.queries.iter().map(|q| QueryTree::parse(q)).collect::<Result<Vec<_>, _>>());
        let trees = trees?;
        parse.push(ns);
        let mut names = Interner::new();
        let (specs, ns) = timed(|| {
            trees
                .iter()
                .map(|t| MachineSpec::compile_with(t, &mut names))
                .collect::<Result<Vec<_>, _>>()
        });
        let specs = specs?;
        compile.push(ns);
        let spec_bytes: u64 = specs.iter().map(MachineSpec::approx_bytes).sum();
        let mut plan = PlanStats::default();
        if w.spec.kind != EngineKind::Single {
            let mut engine = MultiEngine::new();
            let (registered, ns) =
                timed(|| trees.iter().try_for_each(|t| engine.add_tree(t).map(drop)));
            registered?;
            register.push(ns);
            plan = engine.plan_stats();
        }
        last = Some((names, spec_bytes, plan));
    }
    let (names, spec_bytes, plan) = last.expect("SETUP_REPS > 0");
    let us_per_query = |samples: &[u64]| best(samples) as f64 / 1e3 / k;
    Ok(SetupLayers {
        parse_us_per_query: us_per_query(&parse),
        compile_us_per_query: us_per_query(&compile),
        spec_bytes_per_query: spec_bytes as f64 / k,
        register_us_per_query: if register.is_empty() { 0.0 } else { us_per_query(&register) },
        plan,
        names,
    })
}

/// What the traced run of one workload measured.
pub struct Traced {
    pub values: Values,
    pub tracer: Tracer,
    /// Best sweep of the full pass in this run, against the untraced run's.
    pub sweep_ns: u64,
    pub tally: Tally,
    /// Registry names the shard metrics wanted and did not find.
    pub missing: Vec<&'static str>,
}

/// Per-document samples of each replay level.
struct Replays {
    xmlsax: Vec<Vec<u64>>,
    driver: Vec<Vec<u64>>,
    full: PassTimes,
    /// Full pass with `Telemetry::enabled()` attached.
    observed: Vec<Vec<u64>>,
    /// Multi-query workloads: the same pass through one warm
    /// `ShardedEngine::new(2)` session, telemetry attached.
    sharded: Vec<Vec<u64>>,
}

/// Counts of one sweep, taken at the replay boundaries with nothing timed.
#[derive(Default)]
struct Counts {
    events: u64,
    deliveries: u64,
    /// Summed over the sweep, but `peak_bytes` is the largest document's.
    machine: MachineCounts,
    prefix_steps: u64,
    prefix_saved: u64,
    /// Allocations of the xmlsax, driver and full replays.
    allocs: [AllocCounts; 3],
    wide_bytes: u64,
    scalar_bytes: u64,
    /// Best pass over the root-only document (engines with a `multi` layer).
    root_only_ns: Option<u64>,
    /// Documents, events and wall time of every pass the sharded
    /// sessions made (their registry saw all of them).
    sharded_docs: u64,
    sharded_events: u64,
    sharded_ns: u64,
    placement: Option<PlacementSnapshot>,
}

/// The state one traced run accumulates across engine generations.
struct Run<'a> {
    w: &'a Workload,
    reference: &'a [Fingerprint],
    setup: &'a SetupLayers,
    tracer: Tracer,
    tally: Tally,
    replays: Replays,
    counts: Counts,
    driver: DocumentDriver,
    reps: usize,
}

impl Run<'_> {
    /// One full pass as a span under `parent`.
    fn full_pass(
        &mut self,
        name: &'static str,
        engine: &mut dyn Warm,
        parent: usize,
        at: (usize, usize),
    ) -> Pass {
        let p = pass(engine, &self.w.docs[at.0]);
        self.tally.check(&p.output, self.reference[at.0]);
        self.tracer.record(name, p.start, p.nanos, Some(parent), at);
        p
    }

    /// One repetition: every level sweeps the collection in turn, so each
    /// engine runs its documents back to back with its own state cached,
    /// as in the untraced run. The engines are the default one, one with
    /// telemetry attached and, for multi-query workloads, a sharded
    /// session (also with telemetry).
    fn repetition(
        &mut self,
        full: &mut dyn Warm,
        observed: &mut dyn Warm,
        sharded: Option<&mut (dyn Warm + '_)>,
    ) {
        let rep = self.reps;
        self.reps += 1;
        // Each repetition starts its sweeps one document further on, so
        // no document is always the one that follows another engine.
        let n = self.w.docs.len();
        let order = move || (0..n).map(move |i| (i + rep) % n);
        let t = Instant::now();
        let parent = self.tracer.record("repetition", t, 0, None, (0, rep));
        for d in order() {
            let (start, ns) = replay_xmlsax(&self.w.docs[d], None);
            self.tracer.record("xmlsax", start, ns, Some(parent), (d, rep));
            self.replays.xmlsax[d].push(ns);
        }
        for d in order() {
            let (start, ns) = replay_driver(&self.w.docs[d], &mut self.driver, &self.setup.names);
            self.tracer.record("driver", start, ns, Some(parent), (d, rep));
            self.replays.driver[d].push(ns);
        }
        for d in order() {
            let ns = self.full_pass("full", full, parent, (d, rep)).nanos;
            self.replays.full.per_doc[d].push(ns);
        }
        for d in order() {
            let ns = self.full_pass("full+telemetry", observed, parent, (d, rep)).nanos;
            self.replays.observed[d].push(ns);
        }
        if let Some(sharded) = sharded {
            for d in order() {
                let ns = self.full_pass("sharded+telemetry", sharded, parent, (d, rep)).nanos;
                self.replays.sharded[d].push(ns);
                self.counts.sharded_docs += 1;
                self.counts.sharded_ns += ns;
            }
        }
        self.tracer.spans[parent].end_ns += t.elapsed().as_nanos() as u64;
    }

    /// One generation of engines: warm each with an untimed sweep, repeat
    /// until `deadline`, and on the last generation (`count` holds the
    /// representative queries) take the counts.
    fn generation(
        &mut self,
        full: &mut dyn Warm,
        observed: &mut dyn Warm,
        mut sharded: Option<&mut (dyn Warm + '_)>,
        deadline: Instant,
        count: Option<&[usize]>,
    ) -> EngineResult<()> {
        let (w, reference, docs) = (self.w, self.reference, self.w.docs.len());
        PassTimes::new(docs).sweep(full, w, reference, &mut self.tally);
        PassTimes::new(docs).sweep(observed, w, reference, &mut self.tally);
        if let Some(sharded) = sharded.as_deref_mut() {
            let mut warmup = PassTimes::new(docs);
            warmup.sweep(sharded, w, reference, &mut self.tally);
            self.counts.sharded_docs += docs as u64;
            self.counts.sharded_ns += warmup.per_doc.iter().flatten().sum::<u64>();
        }
        loop {
            self.repetition(full, observed, sharded.as_deref_mut());
            if Instant::now() >= deadline {
                break;
            }
        }
        if let Some(reps_of) = count {
            self.count(full, reps_of)?;
            // The root-only document: per-document fixed cost.
            self.counts.root_only_ns = (w.spec.kind != EngineKind::Single).then(|| {
                let samples: Vec<u64> =
                    (0..ROOT_ONLY_PASSES).map(|_| pass(full, ROOT_ONLY).nanos).collect();
                best(&samples)
            });
            self.counts.placement = sharded.and_then(|s| s.placement());
        }
        Ok(())
    }

    /// Counts: one more repetition per level with the allocator armed and
    /// the scan probe attached; nothing here is timed.
    fn count(&mut self, engine: &mut dyn Warm, reps_of: &[usize]) -> EngineResult<()> {
        let probe = Arc::new(ScanProbe::default());
        let c = &mut self.counts;
        for (d, doc) in self.w.docs.iter().enumerate() {
            let mut add = |slot: usize, counts: AllocCounts| {
                c.allocs[slot].count += counts.count;
                c.allocs[slot].bytes += counts.bytes;
            };
            add(0, alloc::counted(|| replay_xmlsax(doc, Some(probe.clone()))).1);
            add(1, alloc::counted(|| replay_driver(doc, &mut self.driver, &self.setup.names)).1);
            let (output, counts) = alloc::counted(|| engine.run_doc(doc));
            add(2, counts);
            self.tally.check(&output, self.reference[d]);
            let output = output?;
            c.events += output.events();
            c.deliveries += output.fingerprint().0;
            c.machine.add_document(output.machine_counts(reps_of));
            if let Output::Multi(o) = &output {
                c.prefix_steps += o.plan.prefix_steps_executed;
                c.prefix_saved += o.plan.prefix_steps_saved;
            }
        }
        c.wide_bytes = probe.wide.load(Relaxed);
        c.scalar_bytes = probe.scalar.load(Relaxed);
        Ok(())
    }
}

pub fn traced(w: &Workload, reference: &[Fingerprint], protocol: Protocol) -> EngineResult<Traced> {
    let start = Instant::now();
    let kind = w.spec.kind;
    let docs = w.docs.len();
    let setup = setup_layers(w)?;
    let reps_of = representatives(&w.queries)?;
    // One registry for every generation's observed engine, another for
    // the sharded sessions'.
    let registry = Telemetry::enabled();
    let shard_registry = Telemetry::enabled();
    let off = Telemetry::disabled();
    let mut run = Run {
        w,
        reference,
        setup: &setup,
        tracer: Tracer::new(),
        tally: Tally::default(),
        replays: Replays {
            xmlsax: vec![Vec::new(); docs],
            driver: vec![Vec::new(); docs],
            full: PassTimes::new(docs),
            observed: vec![Vec::new(); docs],
            sharded: vec![Vec::new(); docs],
        },
        counts: Counts::default(),
        driver: DocumentDriver::new(),
        reps: 0,
    };

    // Fresh engines per generation, as the untraced run has per round, so
    // comparisons between engines (telemetry on and off, inline and
    // sharded) do not hang on one instance's luck with memory placement.
    let generations = protocol.rounds.min(MAX_GENERATIONS);
    let slice = Duration::from_secs_f64(protocol.seconds * REPLAY_SHARE / f64::from(generations));
    for generation in 1..=generations {
        let last = generation == generations;
        let deadline = start + slice * generation;
        with_engine(kind, &w.queries, &off, |full| {
            with_engine(kind, &w.queries, &registry, |observed| {
                let count = last.then_some(&reps_of[..]);
                match kind {
                    EngineKind::Single => run.generation(full, observed, None, deadline, count),
                    _ => with_engine(EngineKind::Sharded, &w.queries, &shard_registry, |s| {
                        run.generation(full, observed, Some(s), deadline, count)
                    }),
                }
            })
        })?;
    }
    // The sharded sessions ran whole sweeps of the counted documents.
    run.counts.sharded_events = run.counts.events * (run.counts.sharded_docs / docs as u64);

    let (values, missing) =
        derive(w, &setup, &run.replays, &run.counts, shard_registry.snapshot().as_ref());
    Ok(Traced {
        values,
        sweep_ns: run.replays.full.sweep_ns(),
        tracer: run.tracer,
        tally: run.tally,
        missing,
    })
}

/// Turns samples and counts into the per-layer metrics.
fn derive(
    w: &Workload,
    setup: &SetupLayers,
    r: &Replays,
    c: &Counts,
    snapshot: Option<&Snapshot>,
) -> (Values, Vec<&'static str>) {
    let kind = w.spec.kind;
    let mut values = Values::zeroed(PER_LAYER);
    let mut missing = Vec::new();
    let mut set = |name: &str, v: f64| values.set(name, v);

    let ev = c.events as f64;
    let xmlsax_ns = sweep_best(&r.xmlsax) as f64;
    let driver_ns = sweep_best(&r.driver) as f64 - xmlsax_ns;
    let full_ns = r.full.sweep_ns() as f64;
    let match_ns = full_ns - xmlsax_ns - driver_ns;
    let pct = |part: f64| 100.0 * part / full_ns;

    set("xmlsax.ns_per_event", xmlsax_ns / ev);
    set("xmlsax.mb_s", w.mib_per_s(xmlsax_ns));
    set("xmlsax.share", pct(xmlsax_ns));
    set(
        "xmlsax.wide_byte_share",
        100.0 * c.wide_bytes as f64 / (c.wide_bytes + c.scalar_bytes) as f64,
    );
    set("driver.self_ns_per_event", driver_ns / ev);
    set("driver.share", pct(driver_ns));

    set("xpath.parse_us_per_query", setup.parse_us_per_query);
    set("builder.compile_us_per_query", setup.compile_us_per_query);
    set("builder.spec_bytes_per_query", setup.spec_bytes_per_query);
    set("plan.prefix_steps_per_event", c.prefix_steps as f64 / ev);
    set("plan.prefix_saved_per_event", c.prefix_saved as f64 / ev);

    let m = &c.machine;
    set("machine.pushes_per_event", m.pushes as f64 / ev);
    set("machine.predicate_evals_per_event", m.predicate_evals as f64 / ev);
    set("machine.flag_propagations_per_event", m.flag_propagations as f64 / ev);
    set("machine.candidates_per_event", m.candidate_moves as f64 / ev);
    set("machine.ns_per_push", match_ns / m.pushes as f64);
    set("machine.peak_bytes", m.peak_bytes as f64);
    if kind == EngineKind::Single {
        // No `multi` layer: everything behind the driver is the machine.
        set("machine.self_ns_per_event", match_ns / ev);
        set("machine.share", pct(match_ns));
    } else {
        // From outside, dispatch, machines and fan-out are one layer.
        set("multi.self_ns_per_event", match_ns / ev);
        set("multi.share", pct(match_ns));
        set("multi.touches_per_event", m.dispatch_hits as f64 / ev);
        set("multi.ns_per_touch", match_ns / m.dispatch_hits as f64);
        set("multi.push_per_touch", m.pushes as f64 / m.dispatch_hits as f64);
        set("multi.deliveries_per_event", c.deliveries as f64 / ev);
        set("multi.doc_overhead_us", c.root_only_ns.unwrap_or(0) as f64 / 1e3);
        set("plan.register_us_per_query", setup.register_us_per_query);
        set("plan.groups", setup.plan.groups as f64);
        set("plan.dedup_ratio", setup.plan.dedup_ratio());
        set("plan.trie_nodes", setup.plan.trie_nodes as f64);
        set("plan.shared_trie_nodes", setup.plan.shared_trie_nodes as f64);
        set("plan.bytes", setup.plan.plan_bytes as f64);

        // Both sides of the ratio carry telemetry, so it cancels.
        let sharded_ns = sweep_best(&r.sharded) as f64;
        set("shard.speedup_vs_inline", sweep_best(&r.observed) as f64 / sharded_ns);
        // A name the registry no longer exports reads 0 and is reported,
        // not a failure: the registry is the program's to reshape.
        let mut counter = |name: &'static str| {
            snapshot.and_then(|s| s.counter(name)).unwrap_or_else(|| {
                missing.push(name);
                0
            }) as f64
        };
        let busy = counter("vitex_worker_busy_ns_total");
        let stall_ns = counter("vitex_ring_stall_ns_total");
        let stalls = counter("vitex_ring_enqueue_stalls_total");
        // Workers also idle while the other replays run, so the base is the
        // worker time available during the sharded passes, not busy + idle.
        set("shard.worker_busy_share", 100.0 * busy / (SHARDS as f64 * c.sharded_ns as f64));
        set("shard.ring_stall_ns_per_event", stall_ns / c.sharded_events as f64);
        set("shard.ring_stalls_per_doc", stalls / c.sharded_docs as f64);
        let gauge = "vitex_merge_hold_depth";
        match snapshot.and_then(|s| s.gauges.iter().find(|g| g.name == gauge)) {
            Some(g) => set("shard.merge_hold_depth_max", g.high as f64),
            None => missing.push(gauge),
        }
        if let Some(placement) = &c.placement {
            set("shard.imbalance_millis", placement.last_imbalance_millis.unwrap_or(0) as f64);
            set("shard.repartitions", placement.repartitions as f64);
        }
    }
    set("telemetry.enabled_overhead_pct", 100.0 * (sweep_best(&r.observed) as f64 / full_ns - 1.0));

    let [xmlsax, driver, full] = c.allocs.map(|a| a.count as f64);
    set("alloc.count_per_event", full / ev);
    set("alloc.bytes_per_event", c.allocs[2].bytes as f64 / ev);
    set("alloc.xmlsax_per_event", xmlsax / ev);
    set("alloc.driver_per_event", (driver - xmlsax) / ev);
    set("alloc.match_per_event", (full - driver) / ev);

    let diag = r.full.diagnostics();
    set("run.ns_per_event", full_ns / ev);
    set("run.doc_ms_p50", diag.doc_ms_p50);
    set("run.doc_ms_tail", diag.doc_ms_tail);
    set("run.passes", diag.passes as f64);
    set("run.events_per_pass", ev / w.docs.len() as f64);
    set("run.noise_ratio", diag.noise_ratio);
    (values, missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;

    /// Synthetic samples: xmlsax 100 ns, driver replay 130 ns, full pass
    /// 1000 ns per document (the best of each), two documents, 10 events.
    fn synthetic(docs: usize) -> (Replays, Counts) {
        let level = |best: u64| vec![vec![best + 50, best, best + 900]; docs];
        let replays = Replays {
            xmlsax: level(100),
            driver: level(130),
            full: PassTimes { per_doc: level(1000) },
            observed: level(1100),
            sharded: level(550),
        };
        let counts = Counts {
            events: 10,
            deliveries: 5,
            machine: MachineCounts { pushes: 20, dispatch_hits: 10, ..Default::default() },
            ..Default::default()
        };
        (replays, counts)
    }

    fn setup() -> SetupLayers {
        SetupLayers {
            parse_us_per_query: 1.0,
            compile_us_per_query: 1.0,
            spec_bytes_per_query: 1.0,
            register_us_per_query: 1.0,
            plan: PlanStats::default(),
            names: Interner::new(),
        }
    }

    #[test]
    fn layer_self_times_close_against_the_full_pass() {
        for (name, match_layer) in [("protein-k1", "machine"), ("auction-k1000-fanout", "multi")] {
            let mut w = spec(name).unwrap().generate(1).unwrap();
            w.docs.truncate(2);
            let (r, c) = synthetic(2);
            let (v, missing) = derive(&w, &setup(), &r, &c, None);
            let get = |metric: &str| v.get(metric).unwrap();
            let self_ns = format!("{match_layer}.self_ns_per_event");
            let share = format!("{match_layer}.share");
            // 2 documents x (100 + 30 + 870) ns over 10 events.
            assert_eq!(get("xmlsax.ns_per_event"), 20.0, "{name}");
            assert_eq!(get("driver.self_ns_per_event"), 6.0, "{name}");
            assert_eq!(get(&self_ns), 174.0, "{name}");
            assert_eq!(get("run.ns_per_event"), 200.0, "{name}");
            assert_eq!(get("xmlsax.share") + get("driver.share") + get(&share), 100.0, "{name}");
            assert!((get("telemetry.enabled_overhead_pct") - 10.0).abs() < 1e-9, "{name}");
            if match_layer == "multi" {
                assert_eq!(get("machine.self_ns_per_event"), 0.0, "a layer never entered reads 0");
                assert_eq!(get("shard.speedup_vs_inline"), 2.0);
                assert_eq!(get("multi.push_per_touch"), 2.0);
                assert_eq!(missing.len(), 4, "no registry: every shard name is reported missing");
            } else {
                assert_eq!(get("multi.self_ns_per_event"), 0.0, "a layer never entered reads 0");
                assert_eq!(get("shard.speedup_vs_inline"), 0.0);
                assert!(missing.is_empty());
            }
        }
    }

    #[test]
    fn spans_carry_parent_and_trace_identifier() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let parent = t.record("repetition", start, 500, None, (0, 3));
        t.record("xmlsax", start, 200, Some(parent), (1, 3));
        let json = crate::json::Json::parse(&t.chrome_json("w")).unwrap();
        let events = json.get("traceEvents").unwrap().as_array();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(args.get("trace").and_then(|p| p.as_str()), Some("w/1/3"));
        assert_eq!(events[0].get("args").unwrap().get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(events[1].get("dur").and_then(|p| p.as_f64()), Some(0.2));
    }
}
