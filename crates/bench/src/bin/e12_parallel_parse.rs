//! E12 — the parallel parse front-end: speculative chunked parsing.
//!
//! The sharded engine (E10) divides the *machine* work across cores, which
//! makes the parse the end-to-end ceiling: the paper measures parsing at
//! 74% of E2's runtime, and a single-core parser caps every downstream
//! speedup. The document is split at `<` candidates, chunks are parsed
//! speculatively on worker threads and reconciled on the coordinator —
//! same event stream, N-way parse parallelism. (The single-thread layer
//! underneath, SWAR class-run scanning, is on record in
//! `BENCH_parse.json`.)
//!
//! The table holds the document fixed and scales parse threads, asserting
//! the event count and a reference query's match count are identical
//! across every configuration.
//!
//! Expected shape: **on a multi-core host** 4-thread parallel ≥ 2×
//! sequential. On a single-core host the parallel rows degenerate to ~1×
//! minus speculation overhead — the table reports what the hardware
//! gives; the differential batteries are the correctness gate.

use vitex_bench::{fmt_bytes, fmt_dur, header, scale_arg, throughput, time_best};
use vitex_core::evaluate_reader;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::{EventSource, ParallelReader, XmlEvent, XmlReader};
use vitex_xpath::QueryTree;

/// Timing reps per row (minimum is reported).
const REPS: usize = 3;

fn count_events(mut src: impl EventSource) -> u64 {
    let mut events = 0u64;
    loop {
        match src.next_event().expect("well-formed benchmark data") {
            XmlEvent::EndDocument => return events,
            _ => events += 1,
        }
    }
}

/// Sequential vs. speculative chunked parsing at N threads.
fn parallel_table(scale: f64) {
    let xml = auction::to_string(&AuctionConfig::sized(((8 << 20) as f64 * scale) as u64));
    let tree = QueryTree::parse("//item/@id").expect("reference query");
    let matches = |r: vitex_core::EngineResult<vitex_core::EvalOutput>| {
        r.expect("benchmark query").matches.len()
    };
    println!(
        "speculative chunked parsing ({} auction XML, reference query //item/@id):\n",
        fmt_bytes(xml.len() as u64)
    );
    println!(
        "{:>12} | {:>10} | {:>8} | {:>12} | {:>8}",
        "mode", "parse", "MB/s", "events/s", "speedup"
    );
    let mut base: Option<f64> = None;
    let mut expected: Option<(u64, usize)> = None;
    for threads in [1usize, 2, 4, 8] {
        let label = if threads == 1 { "seq".to_string() } else { format!("par({threads})") };
        let run = || {
            if threads == 1 {
                count_events(XmlReader::from_str(&xml))
            } else {
                count_events(ParallelReader::from_bytes(xml.as_bytes().to_vec(), threads))
            }
        };
        let (events, d) = time_best(REPS, run);
        let m = if threads == 1 {
            matches(evaluate_reader(XmlReader::from_str(&xml), &tree))
        } else {
            matches(evaluate_reader(
                ParallelReader::from_bytes(xml.as_bytes().to_vec(), threads),
                &tree,
            ))
        };
        match expected {
            None => expected = Some((events, m)),
            Some((ev, mm)) => {
                assert_eq!(events, ev, "{label}: event count diverged");
                assert_eq!(m, mm, "{label}: match count diverged");
            }
        }
        let secs = d.as_secs_f64();
        let speedup = base.map_or(1.0, |b| b / secs);
        if base.is_none() {
            base = Some(secs);
        }
        println!(
            "{:>12} | {:>10} | {:>8.1} | {:>12.2e} | {:>7.2}x",
            label,
            fmt_dur(d),
            throughput(xml.len(), d),
            events as f64 / secs,
            speedup,
        );
    }
    println!();
}

fn main() {
    header(
        "E12: parallel parse front-end (speculative chunks)",
        "parsing dominates streaming XPath runtime (74% of E2); speculative \
         chunked parsing divides the parse across cores with a \
         byte-identical event stream",
    );
    parallel_table(scale_arg());
    println!(
        "shape check: every row drains the identical event stream and\n\
         reports the identical //item/@id match count (asserted above).\n\
         par(N)/seq isolates chunked-parse scaling: >= 2x at 4 threads\n\
         expected on a multi-core host; ~1x minus speculation overhead on\n\
         a single core."
    );
}
