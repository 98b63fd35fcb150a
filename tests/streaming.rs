//! Streaming-behaviour tests: chunked input, incremental delivery,
//! malformed streams, multi-query single-pass evaluation, and writer →
//! reader round-trips under randomized content.

use proptest::prelude::*;

use vitex::core::{Engine, MultiEngine};
use vitex::xmlsax::writer::XmlWriter;
use vitex::xmlsax::{XmlEvent, XmlReader};
use vitex::xpath::QueryTree;

/// A reader that delivers at most `chunk` bytes per read call.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn chunked_input_gives_identical_results() {
    let xml =
        vitex::xmlgen::protein::to_string(&vitex::xmlgen::protein::ProteinConfig::sized(40_000));
    let tree = QueryTree::parse("//ProteinEntry[reference]/@id").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let whole = engine.run(XmlReader::from_str(&xml), |_| {}).unwrap();
    for chunk in [1usize, 7, 64, 4096] {
        let reader = XmlReader::new(Chunked { data: xml.as_bytes(), pos: 0, chunk });
        let chunked = engine.run(reader, |_| {}).unwrap();
        assert_eq!(
            chunked.matches.len(),
            whole.matches.len(),
            "chunk size {chunk} changed the result"
        );
        assert_eq!(chunked.stats.emitted, whole.stats.emitted);
    }
}

#[test]
fn results_arrive_before_stream_end() {
    // Record how many elements had been seen when each match fired; every
    // match must fire before the last element of the document.
    let mut xml = String::from("<feed>");
    for i in 0..50 {
        xml.push_str(&format!("<msg id=\"{i}\"><urgent/></msg>"));
    }
    xml.push_str("<tail/><tail/><tail/></feed>");
    let tree = QueryTree::parse("//msg[urgent]/@id").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let mut fired_at: Vec<u64> = Vec::new();
    let out = engine.run(XmlReader::from_str(&xml), |m| fired_at.push(m.node)).unwrap();
    assert_eq!(out.matches.len(), 50);
    // The first match must have fired long before the document's last
    // node id was reached.
    assert!(fired_at[0] < out.matches.last().unwrap().node / 2);
}

#[test]
fn malformed_stream_fails_cleanly_with_partial_results() {
    let xml = "<feed><msg><urgent/></msg><msg><urgent/></oops>";
    let tree = QueryTree::parse("//msg[urgent]").unwrap();
    let mut engine = Engine::new(&tree).unwrap();
    let mut delivered = 0;
    let err = engine.run(XmlReader::from_str(xml), |_| delivered += 1).unwrap_err();
    assert!(err.to_string().contains("mismatched end tag"));
    // The first message was decidable before the error and was delivered.
    assert_eq!(delivered, 1);
    // The engine is reusable after a failed run.
    let ok = engine.run(XmlReader::from_str("<feed><msg><urgent/></msg></feed>"), |_| {});
    assert_eq!(ok.unwrap().matches.len(), 1);
}

#[test]
fn multi_engine_single_pass() {
    let xml =
        vitex::xmlgen::auction::to_string(&vitex::xmlgen::auction::AuctionConfig::sized(50_000));
    let queries = ["//item/@id", "//person[profile]/name", "//regions//item/description//listitem"];
    let mut multi = MultiEngine::new();
    for q in &queries {
        multi.add_query(q).unwrap();
    }
    let out = multi.run(XmlReader::from_str(&xml), |_, _| {}).unwrap();
    for (i, q) in queries.iter().enumerate() {
        let single = vitex::evaluate(&xml, q).unwrap();
        assert_eq!(out.matches[i].len(), single.len(), "query {q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Writer → reader round-trip with hostile text content: whatever the
    /// writer emits, the reader must reproduce exactly.
    #[test]
    fn writer_reader_round_trip(
        texts in proptest::collection::vec(".{0,40}", 1..8),
        attr_value in ".{0,30}",
    ) {
        // Filter out raw control characters the XML data model cannot
        // carry at all (writer escaping cannot save U+0000 etc.).
        let clean = |s: &str| {
            s.chars()
                .filter(|&c| vitex::xmlsax::entities::is_xml_char(c) && c != '\r')
                .collect::<String>()
        };
        let texts: Vec<String> = texts.iter().map(|t| clean(t)).collect();
        let attr_value = clean(&attr_value);

        let mut buf = Vec::new();
        {
            let mut w = XmlWriter::new(&mut buf);
            w.start_element("root").unwrap();
            w.attribute("v", &attr_value).unwrap();
            for t in &texts {
                w.start_element("item").unwrap();
                w.text(t).unwrap();
                w.end_element().unwrap();
            }
            w.finish().unwrap();
        }
        let xml = String::from_utf8(buf).unwrap();
        let events = XmlReader::from_str(&xml).collect_events().unwrap();

        // Attribute survives.
        let root = events.iter().find_map(|e| match e {
            XmlEvent::StartElement(s) if s.name == "root" => Some(s),
            _ => None,
        }).unwrap();
        prop_assert_eq!(root.attribute("v").unwrap(), attr_value.as_str());

        // Text nodes survive (whitespace-preserving, entity round-trip).
        let got: Vec<String> = events.iter().filter_map(|e| match e {
            XmlEvent::Characters(c) => Some(c.text.to_string()),
            _ => None,
        }).collect();
        let expected: Vec<String> =
            texts.iter().filter(|t| !t.is_empty()).cloned().collect();
        prop_assert_eq!(got, expected);
    }

    /// Chunk size must never affect the event stream.
    #[test]
    fn chunking_invariance(seed in 0u64..500, chunk in 1usize..64) {
        let xml = vitex::xmlgen::random::to_string(
            &vitex::xmlgen::random::RandomConfig::seeded(seed),
        );
        let whole = XmlReader::from_str(&xml).collect_events().unwrap();
        let reader = XmlReader::new(Chunked { data: xml.as_bytes(), pos: 0, chunk });
        let chunked = reader.collect_events().unwrap();
        prop_assert_eq!(whole, chunked);
    }
}
