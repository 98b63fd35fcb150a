//! Subtrees no subscription can see are walked, not read. Over the
//! region-pinned family (no `//` step, no text read), the `people` section
//! and each field's content are dead: the driver asks the reader to walk
//! them (`XmlReader::skip_subtree`) and resumes at their end tags. What the
//! engine reports must not show it: the oracle's matches, a plain reader's
//! event, element and text-node counts, a plain reader's error (kind and
//! position) for a fault inside a dead subtree, and a warm engine that
//! streams the next document as a fresh one does. One `//` query switches
//! the skip off, and the trie's step checks rise back to one per live step
//! testing each element of the document.

use vitex::baseline::{oracle, Document};
use vitex::core::{MultiEngine, MultiOutput};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlsax::{XmlEvent, XmlReader};
use vitex::xpath::QueryTree;
use vitex::EngineError;

const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];

/// The benchmark's `-pinned` family: query `i` pins one item of one region
/// and returns one of its fields.
fn pinned_queries(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| {
            let (region, field) = (REGIONS[i % 6], FIELDS[i / 6 % 4]);
            format!("/site/regions/{region}/item[@id = 'item{i}']/{field}")
        })
        .collect()
}

/// CI's `ci_regions.xml` shape — items with a name in the even regions —
/// with each item's `description/parlist` and a `people` section added.
fn regions_doc(items: usize) -> String {
    let mut doc = String::from("<site><regions>");
    for (r, region) in REGIONS.iter().enumerate() {
        doc += &format!("<{region}>");
        if r % 2 == 0 {
            for i in (r..items).step_by(6) {
                doc += &format!(
                    "<item id=\"item{i}\"><name>n{i}</name><description><parlist>\
                     <listitem>rare {i}</listitem><listitem/></parlist></description></item>"
                );
            }
        }
        doc += &format!("</{region}>");
    }
    doc += "</regions><people>";
    for n in 0..items / 6 {
        doc += &format!(
            "<person id=\"person{n}\"><name>p{n}</name>\
             <profile income=\"{n}0\"><interest category=\"cat{n}\"/></profile></person>"
        );
    }
    doc + "</people></site>"
}

fn engine(queries: &[String]) -> MultiEngine {
    let mut engine = MultiEngine::new();
    for q in queries {
        engine.add_query(q).unwrap();
    }
    engine
}

/// A plain reader's pass: `(events, elements, text nodes)` counted as the
/// driver counts them, or the error as `kind line:column @offset`.
fn plain_pass(xml: &[u8]) -> Result<(u64, u64, u64), String> {
    let mut reader = XmlReader::from_slice(xml);
    let (mut events, mut elements, mut text_nodes) = (0, 0, 0);
    loop {
        let event = reader.next_event().map_err(|e| outcome(&EngineError::Xml(e)))?;
        events += 1;
        match event {
            XmlEvent::StartElement(_) => elements += 1,
            XmlEvent::Characters(_) => text_nodes += 1,
            XmlEvent::EndDocument => return Ok((events, elements, text_nodes)),
            _ => {}
        }
    }
}

fn outcome(e: &EngineError) -> String {
    let EngineError::Xml(e) = e else { panic!("not an XML error: {e}") };
    let p = e.position();
    format!("{:?} {}:{} @{}", e.kind(), p.line, p.column, p.offset)
}

/// Runs `xml` through `engine`: its counts, or its error as [`outcome`]
/// spells it.
fn run(engine: &mut MultiEngine, xml: &[u8]) -> Result<MultiOutput, String> {
    engine.run(XmlReader::from_slice(xml), |_, _| {}).map_err(|e| outcome(&e))
}

/// Everything a document reports, for comparing two engines.
fn report(out: &MultiOutput) -> impl PartialEq + std::fmt::Debug {
    (out.matches.clone(), out.stats.clone(), out.plan, (out.events, out.elements, out.text_nodes))
}

/// The oracle's matches and a plain reader's counts.
fn assert_faithful(label: &str, queries: &[String], xml: &str) -> MultiOutput {
    let out = run(&mut engine(queries), xml.as_bytes()).unwrap();
    let doc = Document::parse_str(xml).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let want: Vec<u64> = oracle::evaluate(&doc, &QueryTree::parse(q).unwrap())
            .into_iter()
            .map(|m| m.node)
            .collect();
        let got: Vec<u64> = out.matches[i].iter().map(|m| m.node).collect();
        assert_eq!(got, want, "{label}: oracle, {q}");
    }
    let counts = (out.events, out.elements, out.text_nodes);
    assert_eq!(Ok(counts), plain_pass(xml.as_bytes()), "{label}: stream counts");
    out
}

/// Step checks with nothing skipped: one per live step that tests each
/// element's name. In the pinned family at k ≥ 24, that is one for `site`,
/// `regions` and each region, and six for `item` and each field.
fn full_step_checks(xml: &str) -> u64 {
    let mut reader = XmlReader::from_str(xml);
    let mut checks = 0;
    loop {
        match reader.next_event().unwrap() {
            XmlEvent::StartElement(e) => {
                checks += match &*e.name {
                    "site" | "regions" => 1,
                    name if REGIONS.contains(&name) => 1,
                    name if name == "item" || FIELDS.contains(&name) => 6,
                    _ => 0,
                }
            }
            XmlEvent::EndDocument => return checks,
            _ => {}
        }
    }
}

fn documents() -> Vec<(String, String)> {
    let mut docs = vec![("ci regions".to_string(), regions_doc(120))];
    for seed in [2005, 99] {
        let xml = auction::to_string(&AuctionConfig { seed, target_bytes: 16 << 10 });
        docs.push((format!("auction seed {seed}"), xml));
    }
    docs
}

#[test]
fn matches_and_counts_are_those_of_a_plain_pass() {
    let queries = pinned_queries(1000);
    for (label, xml) in documents() {
        let out = assert_faithful(&label, &queries, &xml);
        assert!(out.matches.iter().any(|m| !m.is_empty()), "{label}: something matches");
        let full = full_step_checks(&xml);
        assert!(out.plan.prefix_steps_executed < full, "{label}: dead subtrees were walked");
        // One `//` step switches the skip off: every element is read, and
        // every live step testing it is checked again.
        let mut with_descendant = queries.clone();
        with_descendant.push("//zzz".into());
        let out = assert_faithful(&label, &with_descendant, &xml);
        assert_eq!(out.plan.prefix_steps_executed, full, "{label}: with a `//` query");
    }
}

#[test]
fn a_query_reading_text_keeps_its_subtrees_read() {
    // A field compared by its string value reads text under it; the rest
    // of the family still skips.
    let xml = regions_doc(60);
    let mut queries = pinned_queries(24);
    queries.push("/site/regions/africa/item[description = 'rare 0']/name".into());
    queries.push("/site/people/person/name/text()".into());
    let out = assert_faithful("text readers", &queries, &xml);
    assert_eq!(out.matches[24].len(), 1);
    assert_eq!(out.matches[25].len(), 10);
}

/// Where each dead subtree of `regions_doc`'s items and people starts and
/// ends: the content of every `name`, every `description` and `people`.
fn dead_ranges(xml: &str) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    for (open, close) in [("<name>", "</name>"), ("<description>", "</description>")] {
        let mut from = 0;
        while let Some(at) = xml[from..].find(open) {
            let start = from + at + open.len();
            let end = start + xml[start..].find(close).unwrap();
            ranges.push(start..end);
            from = end;
        }
    }
    let people = xml.find("<people>").unwrap() + "<people>".len();
    ranges.push(people..xml.find("</people>").unwrap());
    ranges
}

#[test]
fn a_fault_inside_a_dead_subtree_is_the_plain_readers_error() {
    let queries = pinned_queries(1000);
    let xml = regions_doc(24);
    let mut warm = engine(&queries);
    let fresh = run(&mut engine(&queries), xml.as_bytes()).unwrap();
    let mut check = |label: String, bytes: &[u8]| {
        let want = plain_pass(bytes).map(|_| ());
        let got = run(&mut warm, bytes).map(|_| ());
        assert_eq!(got, want, "{label}");
        // The warm engine streams the intact document as a fresh one does.
        let again = run(&mut warm, xml.as_bytes()).unwrap();
        assert_eq!(report(&again), report(&fresh), "{label}: the next document");
    };
    for len in 0..xml.len() {
        check(format!("cut at {len}"), &xml.as_bytes()[..len]);
    }
    let ranges = dead_ranges(&xml);
    assert!(ranges.len() > 10);
    for range in ranges {
        for at in range.clone() {
            for byte in [b'\x01', b'<'] {
                let mut bytes = xml.clone().into_bytes();
                bytes[at] = byte;
                check(format!("{byte:#04x} at {at}"), &bytes);
            }
        }
        // An end tag with no start inside the subtree, at its start and
        // after its first tag.
        let after_tag = xml[range.clone()].find('>').map_or(range.start, |i| range.start + i + 1);
        for at in [range.start, after_tag] {
            let bytes = format!("{}</zzz>{}", &xml[..at], &xml[at..]);
            let want = plain_pass(bytes.as_bytes());
            assert!(want.as_ref().is_err_and(|e| e.starts_with("MismatchedTag")), "{want:?}");
            check(format!("</zzz> at {at}"), bytes.as_bytes());
        }
    }
}
