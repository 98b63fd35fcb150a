//! # vitex-bench — the experiment harness
//!
//! One binary per experiment row of DESIGN.md §5 (E1–E7), each printing the
//! table its paper counterpart reports, plus Criterion benches for the
//! timing-sensitive experiments. Run everything with:
//!
//! ```text
//! cargo run --release -p vitex-bench --bin e1_memory
//! cargo run --release -p vitex-bench --bin e2_protein_time
//! cargo run --release -p vitex-bench --bin e3_blowup
//! cargo run --release -p vitex-bench --bin e4_scaling_data
//! cargo run --release -p vitex-bench --bin e5_scaling_query
//! cargo run --release -p vitex-bench --bin e6_ablation
//! cargo run --release -p vitex-bench --bin e7_build_time
//! cargo bench -p vitex-bench
//! ```
//!
//! Experiment bins accept an optional `--scale <f64>` argument multiplying
//! the default workload sizes (EXPERIMENTS.md records scale = 1 runs).

use std::time::{Duration, Instant};

use vitex_core::{evaluate_reader, EvalOutput};
use vitex_xmlsax::{XmlEvent, XmlReader};
use vitex_xpath::QueryTree;

/// Parses `--scale <f>` from argv (default 1.0).
pub fn scale_arg() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Times one invocation of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Times `f` over `reps` runs and returns the minimum (the conventional
/// low-noise summary for deterministic workloads).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best: Option<Duration> = None;
    let mut value = None;
    for _ in 0..reps.max(1) {
        let (v, d) = time_once(&mut f);
        if best.is_none_or(|b| d < b) {
            best = Some(d);
        }
        value = Some(v);
    }
    (value.expect("reps >= 1"), best.expect("reps >= 1"))
}

/// Pure SAX scan of an in-memory document; returns the event count.
pub fn sax_only(xml: &str) -> u64 {
    let mut events = 0;
    let mut reader = XmlReader::from_str(xml);
    loop {
        match reader.next_event().expect("well-formed benchmark data") {
            XmlEvent::EndDocument => return events,
            _ => events += 1,
        }
    }
}

/// Full-pipeline evaluation of a prepared tree over an in-memory document.
pub fn run_query(xml: &str, tree: &QueryTree) -> EvalOutput {
    evaluate_reader(XmlReader::from_str(xml), tree).expect("benchmark run")
}

/// Formats a duration in engineering-friendly units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Formats bytes with binary units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// MB/s throughput.
pub fn throughput(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / d.as_secs_f64()
}

/// Prints an experiment header in a fixed format EXPERIMENTS.md links to.
pub fn header(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("paper claim: {claim}");
    println!();
}

/// The multi-query (pub/sub) workloads of the E8/E10/E14/E15 experiment
/// binaries and their benches. The first: `tags` distinct element names
/// cycled through `records` records, and one standing query per name —
/// the disjoint-name regime where the dispatch index shines (every event
/// interests exactly one machine).
pub mod multiquery {
    /// A document of `records` records cycling through `tags` distinct
    /// element names, each record carrying an id attribute, a per-tag
    /// witness child and a text payload. The witness name is suffixed with
    /// the tag index so the query set stays *fully* disjoint — a witness
    /// name shared across queries would rightly be dispatched to every
    /// machine and wash out the regime this workload isolates.
    pub fn pubsub_doc(tags: usize, records: usize) -> String {
        assert!(tags > 0);
        let mut xml = String::with_capacity(records * 52);
        xml.push_str("<stream>");
        for r in 0..records {
            let t = r % tags;
            xml.push_str(&format!("<t{t} id=\"r{r}\"><w{t}/><payload>v{r}</payload></t{t}>"));
        }
        xml.push_str("</stream>");
        xml
    }

    /// `k` standing queries over disjoint names: `//t{i}[w{i}]/@id`.
    pub fn disjoint_queries(k: usize) -> Vec<String> {
        (0..k).map(|i| format!("//t{i}[w{i}]/@id")).collect()
    }

    /// The distinct query shapes behind [`overlapping_queries`]: realistic
    /// auction-feed subscriptions over the `vitex-xmlgen` XMark-style
    /// document, sharing long `/site/…` prefixes. Two entries are
    /// deliberately the *same* query with predicates in different order —
    /// the planner must dedupe them through canonicalization, not string
    /// equality.
    pub const OVERLAP_SHAPES: &[&str] = &[
        "/site/regions/africa/item/@id",
        "/site/regions/asia/item/@id",
        "/site/regions/europe/item/@id",
        "/site/regions/africa/item/name",
        "/site/regions/namerica/item/quantity",
        "/site/regions//item/description/parlist/listitem",
        "/site/people/person/@id",
        "/site/people/person/name",
        "/site/people/person/emailaddress",
        "/site/people/person/profile/@income",
        "//item[payment = 'Creditcard']/@id",
        "//item[quantity][payment]/name",
        "//item[payment][quantity]/name", // == previous after canonicalization
        "//person[profile/interest]/name",
        "//person[profile]/emailaddress",
        "//regions//item/name",
    ];

    /// `k` standing queries for the shared-plan regime: the
    /// [`OVERLAP_SHAPES`] pool cycled to length `k`, so a 1000-query set
    /// contains ~60 literal duplicates of each shape plus heavy `/site/…`
    /// prefix overlap across shapes. Dedup collapses it to
    /// `min(k, distinct shapes)` machines.
    pub fn overlapping_queries(k: usize) -> Vec<String> {
        (0..k).map(|i| OVERLAP_SHAPES[i % OVERLAP_SHAPES.len()].to_string()).collect()
    }

    /// `k` **structurally distinct** standing queries for the sharded
    /// regime (experiment E10): the same auction-feed shapes, but each
    /// instance carries a distinct comparison literal (subscriber `i`
    /// watching *their* item/person), so canonicalization cannot collapse
    /// them — the plan really runs `k` machines, most of them interested
    /// in the same hot element names. Per-event work is therefore `O(k)`
    /// on one core, which is exactly what partitioning groups across
    /// shards divides.
    pub fn distinct_overlapping_queries(k: usize) -> Vec<String> {
        (0..k)
            .map(|i| match i % 4 {
                0 => format!("/site/regions//item[payment = 'P{i}']/@id"),
                1 => format!("//item[quantity][payment = 'Q{i}']/name"),
                2 => format!("//person[emailaddress = 'mailto:p{i}@example.org']/name"),
                _ => format!("/site/people/person[name = 'N{i}']/@id"),
            })
            .collect()
    }

    /// `k` **region-pinned** distinct subscriptions for the prefix-shared
    /// regime: subscriber `i` watches one region's items
    /// for *their* item id —
    /// `/site/regions/{region}/item[@id = 'itemI']/{field}`. The
    /// distinguishing predicate is an **inline attribute test** (it folds
    /// into the `item` machine node — no predicate-subtree steps), so the
    /// whole per-event planning surface is the main path the trie shares:
    /// an `<item>` or `<name>` event in the *wrong* region fails one trie
    /// check instead of `k / 6` per-group checks. This isolates what
    /// prefix sharing accelerates; `distinct_overlapping_queries` keeps
    /// measuring the mixed predicate-fork regime.
    pub fn region_pinned_queries(k: usize) -> Vec<String> {
        const REGIONS: [&str; 6] =
            ["africa", "asia", "australia", "europe", "namerica", "samerica"];
        const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];
        (0..k)
            .map(|i| {
                format!(
                    "/site/regions/{}/item[@id = 'item{}']/{}",
                    REGIONS[i % REGIONS.len()],
                    i,
                    FIELDS[(i / REGIONS.len()) % FIELDS.len()],
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert!(fmt_dur(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_dur(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_secs(2)).ends_with('s'));
    }

    #[test]
    fn sax_only_counts_events() {
        // StartDocument + <a> + <b> + </b> + </a> (EndDocument excluded).
        assert_eq!(sax_only("<a><b/></a>"), 5);
    }

    #[test]
    fn run_query_works() {
        let tree = QueryTree::parse("//b").unwrap();
        let out = run_query("<a><b/></a>", &tree);
        assert_eq!(out.matches.len(), 1);
    }

    #[test]
    fn time_best_returns_min() {
        let (_, d) = time_best(3, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
    }
}
