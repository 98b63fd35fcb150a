//! E8 — multi-query (pub/sub) scaling with the dispatch index.
//!
//! The paper motivates ViteX with publish/subscribe systems: many standing
//! queries over one stream. This experiment measures one scan of a
//! disjoint-name workload (one query per element name) at growing k: the
//! dispatch index makes an event touch only machines whose query mentions
//! its name (plus wildcard machines), so per-event cost follows the
//! interested machines, not k.
//!
//! Expected shape: the time column stays near the k=1 cost while k grows
//! a thousandfold.

use vitex_bench::multiquery::{disjoint_queries, pubsub_doc};
use vitex_bench::{fmt_bytes, fmt_dur, header, scale_arg, time_best};
use vitex_core::MultiEngine;
use vitex_xmlsax::XmlReader;

fn main() {
    header(
        "E8: multi-query scaling (pub/sub)",
        "k standing queries over one scan; indexed dispatch keeps per-event cost \
         proportional to interested machines, not k",
    );
    let scale = scale_arg();
    let records = (20_000_f64 * scale).max(500.0) as usize;

    println!("{:>5} | {:>10} | {:>10} | {:>9}", "k", "doc", "time", "matches");
    for k in [1usize, 10, 100, 1000] {
        let xml = pubsub_doc(k.max(100), records);
        let mut multi = MultiEngine::new();
        for q in disjoint_queries(k) {
            multi.add_query(&q).expect("valid query");
        }
        let (matches, t) = time_best(3, || {
            let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).expect("run");
            out.matches.iter().map(|m| m.len() as u64).sum::<u64>()
        });
        println!(
            "{:>5} | {:>10} | {:>10} | {:>9}",
            k,
            fmt_bytes(xml.len() as u64),
            fmt_dur(t),
            matches
        );
    }
    println!("\nshape check: the time column stays near the k=1 cost as k grows.");
}
