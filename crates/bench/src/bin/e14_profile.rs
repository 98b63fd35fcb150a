//! E14 — per-subscription cost attribution: who costs what, live.
//!
//! A pub/sub engine with a thousand standing subscriptions has a
//! thousand tenants sharing one document scan — and no `top(1)` to tell
//! an operator which tenant is burning the budget. This experiment
//! plants one deliberately expensive subscription (a descendant-axis
//! query with a value predicate that fans out into every item's
//! description subtree) among k = 1000 cheap region-pinned queries
//! (each pins a single `@id`, so its machine barely moves), runs the
//! E10 warm-session workload with the cost ledger enabled, and asks the
//! profiler to name the culprit.
//!
//! The acceptance check is printed and asserted: the planted query must
//! rank #1 by attributed work, at every shard count, with the same
//! per-query counters (the ledger's deterministic section folds per
//! subscription, so shard count cannot change the bill).

use vitex_bench::multiquery::region_pinned_queries;
use vitex_bench::{header, scale_arg};
use vitex_core::ShardedEngine;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlsax::XmlReader;

/// The planted hog: descendant scan over every item, a value predicate
/// evaluated per item, then another descendant descent into the
/// description subtree. Everything the cheap pinned queries avoid.
const EXPENSIVE: &str = "//item[payment = 'Cash']//listitem";

fn main() {
    header(
        "E14: per-subscription cost attribution (1 hog among 1000 cheap queries)",
        "query-level cost metering attributes shared-scan work to the \
         subscriptions that cause it, so one expensive tenant is visible \
         instead of being averaged into the crowd",
    );
    let scale = scale_arg();
    let xml = auction::to_string(&AuctionConfig::sized(((1 << 20) as f64 * scale) as u64));
    let k = 1000usize;
    let mut queries = region_pinned_queries(k);
    queries.push(EXPENSIVE.to_string());
    let hog_id = k; // registration order = QueryId

    let mut reference: Option<String> = None;
    for shards in [1usize, 4] {
        let mut engine = ShardedEngine::new(shards);
        engine.set_profiling(true);
        for q in &queries {
            engine.add_query(q).expect("valid query");
        }
        // The E10 warm-session shape: several documents through one
        // session, the ledger accumulating across them.
        engine
            .session(|session| {
                for _ in 0..3 {
                    session.run_document(XmlReader::from_str(&xml), |_, _| {})?;
                }
                Ok(())
            })
            .expect("session runs");
        let snapshot = engine.group_costs().expect("profiling enabled");

        println!("--- shards={shards} ---");
        print!("{}", snapshot.table(5));
        let top = snapshot.top_queries(1);
        let top = top.first().expect("queries registered");
        assert_eq!(top.id, hog_id, "the planted expensive query must rank #1 by attributed work");
        let share = top.work() as f64 / snapshot.total_work().max(1) as f64;
        println!(
            "profiler verdict: query #{} ({}) is the hog — {:.1}% of all attributed work\n",
            top.id,
            top.text,
            share * 100.0
        );

        // Shard-count invariance of the bill itself.
        let det = snapshot.deterministic_json();
        match &reference {
            None => reference = Some(det),
            Some(r) => {
                assert_eq!(&det, r, "per-query cost counters must not depend on the shard count")
            }
        }
    }
    println!(
        "shape check: the pinned queries each touch one item subtree and\n\
         share a handful of machine steps; the planted descendant query\n\
         pushes on every item, evaluates its payment predicate each time,\n\
         and descends into every matching description — so its work share\n\
         dwarfs any single pinned query's. The table and the verdict are\n\
         computed from the cost ledger alone (no timing), which is why the\n\
         same bill falls out at 1 and 4 shards, asserted above."
    );
}
