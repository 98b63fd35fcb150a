//! Publish/subscribe: many standing queries over one document scan.
//!
//! The paper motivates ViteX with "electronic personalized newspapers" —
//! each reader subscribes with their own XPath query, and the system must
//! evaluate all of them in a single pass over the incoming stream. The
//! [`vitex::core::MultiEngine`] does exactly that: one SAX parse, k TwigM
//! machines.
//!
//! ```text
//! cargo run --release --example pubsub
//! ```

//! The second half of the demo streams a *collection* of snapshots
//! through [`vitex::core::MultiEngine::stream_document`]: same
//! subscriptions, no re-planning between documents, and nothing kept per
//! match.

use std::time::Instant;

use vitex::core::MultiEngine;
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlsax::XmlReader;

fn main() {
    let subscriptions = [
        "//item[payment = 'Creditcard']/@id",
        "//item[quantity > 5]/name",
        "//regions//item/description//listitem",
        "//person[profile/@income > 150000]/name",
        "//person[profile/interest]/emailaddress/text()",
        "//site/people/person/@id",
    ];

    println!("generating a 4 MiB auction-site snapshot…");
    let xml = auction::to_string(&AuctionConfig::sized(4 << 20));

    let mut multi = MultiEngine::new();
    for q in &subscriptions {
        multi.add_query(q).expect("valid subscription");
    }

    let t = Instant::now();
    let mut first_delivery: Vec<Option<u64>> = vec![None; subscriptions.len()];
    let out = multi
        .run(XmlReader::from_str(&xml), |qid, m| {
            first_delivery[qid.0].get_or_insert(m.node);
        })
        .expect("well-formed snapshot");
    let multi_time = t.elapsed();

    println!("\none pass over {} elements in {multi_time:?}:\n", out.elements);
    for (i, q) in subscriptions.iter().enumerate() {
        println!(
            "  {:>6} matches  (first at node #{:<7})  {q}",
            out.matches[i].len(),
            first_delivery[i].map_or("-".to_string(), |n| n.to_string()),
        );
    }

    // Compare against evaluating each subscription with its own scan.
    let t = Instant::now();
    for q in &subscriptions {
        let _ = vitex::evaluate(&xml, q).expect("single run");
    }
    let separate_time = t.elapsed();
    println!(
        "\nshared scan: {multi_time:?}   vs   {} separate scans: {separate_time:?}  ({:.1}x)",
        subscriptions.len(),
        separate_time.as_secs_f64() / multi_time.as_secs_f64(),
    );
    println!(
        "total machine memory across all subscriptions: {} bytes",
        out.stats.iter().map(|s| s.peak_bytes).sum::<u64>()
    );

    // A document collection through the same engine: a stream of
    // snapshots, zero re-planning between documents, matches counted as
    // they stream.
    let snapshots: Vec<String> =
        (0..3).map(|_| auction::to_string(&AuctionConfig::sized(1 << 20))).collect();
    let t = Instant::now();
    let mut totals = Vec::new();
    for snap in &snapshots {
        let mut delivered = 0usize;
        multi
            .stream_document(XmlReader::from_str(snap), |reached, _| delivered += reached.len())
            .expect("snapshot");
        totals.push(delivered);
    }
    println!(
        "\none engine: {} snapshots back-to-back in {:?}, matches per snapshot: {totals:?}",
        snapshots.len(),
        t.elapsed(),
    );
}
