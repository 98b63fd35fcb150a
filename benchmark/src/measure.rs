//! The untraced run: the end-to-end metrics of one workload.
//!
//! A closed loop with one client — the next document is sent when the
//! previous one has delivered its last match. The run is cut into rounds;
//! a round is a batch of cold starts, then a freshly built warm engine
//! and whole sweeps of the collection through it. Both kinds of sample
//! therefore spread over the whole window instead of one contiguous slice
//! of it, and no single engine instance's luck with memory placement
//! (worth several percent at k = 1000, measured) decides the result.

use std::time::{Duration, Instant};

use vitex_core::{EngineResult, Telemetry};

use crate::alloc;
use crate::engines::{cold_start, pass, with_engine, Fingerprint, Output, Warm};
use crate::stats::{best, p50, sweep_best, tail};
use crate::workloads::Workload;

/// How long and in how many rounds a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    pub seconds: f64,
    pub rounds: u32,
    /// Documents of each collection to keep; `None` keeps all.
    pub max_docs: Option<usize>,
}

impl Protocol {
    /// The full protocol: `seconds` cut into ten rounds.
    pub fn full(seconds: f64) -> Self {
        Protocol { seconds, rounds: 10, max_docs: None }
    }

    /// One short round over the first two documents, for `--check`: it
    /// exercises every code path and every metric, and measures nothing.
    pub fn smoke() -> Self {
        Protocol { seconds: 0.2, rounds: 1, max_docs: Some(2) }
    }

    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / f64::from(self.rounds))
    }
}

/// Cold starts take this share of every round, and at least [`MIN_COLD`]
/// are made however long they last.
const COLD_SHARE: f64 = 0.25;
const MIN_COLD: usize = 3;
/// Sweeps of the dedicated memory pass.
const MEMORY_SWEEPS: usize = 2;

/// Passes attempted and failed. A pass fails if the call returns `Err` or
/// its fingerprint differs from the oracle-verified reference pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, output: &EngineResult<Output>, want: Fingerprint) {
        self.attempted += 1;
        if !matches!(output, Ok(o) if o.fingerprint() == want) {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Pass times of warm engines, per document of the collection.
#[derive(Debug, Default)]
pub struct PassTimes {
    pub per_doc: Vec<Vec<u64>>,
}

impl PassTimes {
    pub fn new(docs: usize) -> Self {
        PassTimes { per_doc: vec![Vec::new(); docs] }
    }

    /// One sweep: every document once, checked against the reference.
    /// Returns how long the sweep took.
    pub fn sweep(
        &mut self,
        engine: &mut dyn Warm,
        w: &Workload,
        reference: &[Fingerprint],
        tally: &mut Tally,
    ) -> Duration {
        let t = Instant::now();
        for (d, doc) in w.docs.iter().enumerate() {
            let p = pass(engine, doc);
            tally.check(&p.output, reference[d]);
            self.per_doc[d].push(p.nanos);
        }
        t.elapsed()
    }

    /// Time per sweep, ns: the sum of each document's own best pass.
    pub fn sweep_ns(&self) -> u64 {
        sweep_best(&self.per_doc)
    }

    /// Diagnostics of the run itself; reported, never gated.
    pub fn diagnostics(&self) -> Diagnostics {
        let pooled: Vec<u64> = self.per_doc.iter().flatten().copied().collect();
        let (tail_ns, tail_pct) = tail(&pooled);
        let sweep_p50: u64 = self.per_doc.iter().map(|s| p50(s)).sum();
        Diagnostics {
            passes: pooled.len() as u64,
            doc_ms_p50: p50(&pooled) as f64 / 1e6,
            doc_ms_tail: tail_ns as f64 / 1e6,
            tail_pct,
            noise_ratio: sweep_p50 as f64 / self.sweep_ns() as f64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Diagnostics {
    pub passes: u64,
    /// Median pass time over all documents, ms.
    pub doc_ms_p50: f64,
    /// The highest percentile with at least ten samples beyond it, ms.
    pub doc_ms_tail: f64,
    /// Which percentile that is.
    pub tail_pct: f64,
    /// Median sweep over best sweep; above 1.25 the host is noisy.
    pub noise_ratio: f64,
}

/// What the untraced run of one workload measured.
#[derive(Debug)]
pub struct EndToEnd {
    /// Collection bytes over the best sweep time, MiB/s.
    pub throughput_mb_s: f64,
    /// Best cold start to first document delivered, seconds.
    pub setup_s: f64,
    /// Peak live heap over engine construction and two sweeps, KiB.
    pub engine_mem_kib: f64,
    pub cold_starts: usize,
    pub sweep_ns: u64,
    pub diagnostics: Diagnostics,
    pub tally: Tally,
}

/// Peak live heap above the pre-construction baseline over engine
/// construction plus [`MEMORY_SWEEPS`] sweeps. The documents were
/// allocated before the window opens; outputs are held until checked, as
/// a caller would hold them.
fn engine_mem_bytes(
    w: &Workload,
    reference: &[Fingerprint],
    tally: &mut Tally,
) -> EngineResult<u64> {
    let (run, counts) = alloc::counted(|| {
        with_engine(w.spec.kind, &w.queries, &Telemetry::disabled(), |engine| {
            for _ in 0..MEMORY_SWEEPS {
                for (doc, want) in w.docs.iter().zip(reference) {
                    tally.check(&engine.run_doc(doc), *want);
                }
            }
            Ok(())
        })
    });
    run.map(|()| counts.peak)
}

/// Runs the protocol on one workload. A pass that fails is tallied; only
/// a failure to build the engine at all is an error.
pub fn measure(
    w: &Workload,
    reference: &[Fingerprint],
    protocol: Protocol,
) -> EngineResult<EndToEnd> {
    let mut tally = Tally::default();
    let mem = engine_mem_bytes(w, reference, &mut tally)?;
    let mut times = PassTimes::new(w.docs.len());
    let mut cold = Vec::new();
    let start = Instant::now();
    for round in 1..=protocol.rounds {
        let round_start = Instant::now();
        let round_end = start + protocol.slice() * round;
        let cold_budget = round_end.saturating_duration_since(round_start).mul_f64(COLD_SHARE);
        let mut n = 0;
        while n < MIN_COLD || round_start.elapsed() < cold_budget {
            let p = cold_start(w);
            tally.check(&p.output, reference[0]);
            cold.push(p.nanos);
            n += 1;
        }
        with_engine(w.spec.kind, &w.queries, &Telemetry::disabled(), |engine| {
            // One sweep to warm the engine.
            PassTimes::new(w.docs.len()).sweep(engine, w, reference, &mut tally);
            // Whole sweeps only, so every document has the same number of
            // samples; stop when the next one would overrun the round.
            loop {
                let took = times.sweep(engine, w, reference, &mut tally);
                if Instant::now() + took > round_end {
                    break;
                }
            }
            Ok(())
        })?;
    }
    let sweep_ns = times.sweep_ns();
    Ok(EndToEnd {
        throughput_mb_s: w.mib_per_s(sweep_ns as f64),
        setup_s: best(&cold) as f64 / 1e9,
        engine_mem_kib: mem as f64 / 1024.0,
        cold_starts: cold.len(),
        sweep_ns,
        diagnostics: times.diagnostics(),
        tally,
    })
}
