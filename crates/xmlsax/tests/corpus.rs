//! A seeded corpus of damaged documents, checked two ways.
//!
//! * **Golden error positions.** Every document's trace — its element and
//!   text events, then `$` or the error's kind, `line:column` and `@offset`
//!   — must equal the line recorded in `golden/error_positions.txt`. The
//!   file pins what the tokenizer reports, so a rewrite of the scanner has
//!   to keep every event and every error position.
//! * **Window boundaries.** The same corpus, and the four generator
//!   families at full size, must read identically whatever the window
//!   size and however the source chunks its reads: every construct, block
//!   and `\r\n` pair gets to straddle a refill somewhere.

use std::io::{Cursor, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlgen::protein::{self, ProteinConfig};
use vitex_xmlgen::random::{self, RandomConfig};
use vitex_xmlgen::recursive::{self, RecursiveConfig};
use vitex_xmlsax::{ParseProbe, ReaderConfig, Skipped, XmlEvent, XmlReader};

/// The `robustness.rs` base document.
const BASE: &str = "<?xml version=\"1.0\"?>\
    <!DOCTYPE r [<!ENTITY e \"ok\">]>\
    <r a=\"1\" b='two'>\
    text &amp; &e; &#65;\
    <!--comment--><?pi data?>\
    <child><![CDATA[<raw>]]></child>\
    <deep><deep><deep>x</deep></deep></deep>\
    </r>";

/// Bytes a mutation draws from half the time: markup, references, line
/// ends, controls and UTF-8 lead and continuation bytes.
const INTERESTING: &[u8] = b"<>&;#\"'=/?![]- \t\r\n\x00\x01\xC3\xA9\xE2\xFFax9:";

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The small documents the corpus damages, by name.
fn bases() -> Vec<(&'static str, Vec<u8>)> {
    let protein = protein::to_string(&ProteinConfig {
        seed: 7,
        target_bytes: 1,
        sequence_len: 24,
        ..Default::default()
    });
    let auction = auction::to_string(&AuctionConfig { seed: 7, target_bytes: 600 });
    vec![
        ("base", BASE.as_bytes().to_vec()),
        ("protein", protein.into_bytes()),
        ("auction", auction.into_bytes()),
        ("recursive", recursive::figure1().into_bytes()),
    ]
}

/// Each base, then seeded single-byte mutations and truncations of it.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, doc) in bases() {
        let mut state = doc.len() as u64;
        out.push((name.to_string(), doc.clone()));
        for _ in 0..40 {
            let at = (splitmix(&mut state) % doc.len() as u64) as usize;
            let r = splitmix(&mut state);
            let byte = if r & 1 == 0 {
                INTERESTING[(r >> 8) as usize % INTERESTING.len()]
            } else {
                (r >> 8) as u8
            };
            let mut bytes = doc.clone();
            bytes[at] = byte;
            out.push((format!("{name} [{at}]={byte:#04x}"), bytes));
        }
        for _ in 0..12 {
            let len = (splitmix(&mut state) % doc.len() as u64) as usize;
            out.push((format!("{name} [..{len}]"), doc[..len].to_vec()));
        }
    }
    out
}

/// The element and text events (`+name@level dDEPTH`, `-name@level
/// dDEPTH`, `tLEN`), then `$` or the error's kind, `line:column` and
/// offset.
fn trace<R: Read>(mut reader: XmlReader<R>) -> String {
    let mut out = String::new();
    loop {
        let step = match reader.next_event() {
            Ok(XmlEvent::StartElement(e)) => format!("+{}@{}", e.name, e.level),
            Ok(XmlEvent::EndElement(e)) => format!("-{}@{}", e.name, e.level),
            Ok(XmlEvent::Characters(t)) => format!("t{}", t.text.len()),
            Ok(XmlEvent::EndDocument) => return out + "$",
            Ok(_) => continue,
            Err(e) => {
                let p = e.position();
                return out + &format!("{:?} {}:{} @{}", e.kind(), p.line, p.column, p.offset);
            }
        };
        out.push_str(&format!("{step} d{} ", reader.depth()));
    }
}

#[test]
fn error_positions_match_the_golden_file() {
    let golden = include_str!("golden/error_positions.txt");
    let mut expected = golden.lines();
    let mut mismatches = Vec::new();
    let corpus = corpus();
    for (name, bytes) in &corpus {
        let got = format!("{name}: {}", trace(XmlReader::from_slice(bytes)));
        let want = expected.next().unwrap_or("<missing>");
        if got != want {
            mismatches.push(format!("want {want}\n got {got}"));
        }
    }
    assert_eq!(golden.lines().count(), corpus.len(), "golden file and corpus differ in length");
    assert!(mismatches.is_empty(), "{} mismatches:\n{}", mismatches.len(), mismatches.join("\n"));
}

/// Hands out one byte per `read`, so every byte is a refill boundary.
struct TrickleReader<'a> {
    data: &'a [u8],
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.data.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.data = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[derive(Default)]
struct Counts {
    block: AtomicU64,
    byte: AtomicU64,
}

impl ParseProbe for Counts {
    fn on_scan_bytes(&self, block: u64, byte: u64) {
        self.block.fetch_add(block, Ordering::Relaxed);
        self.byte.fetch_add(byte, Ordering::Relaxed);
    }
}

/// Every event in full (owned), then `$` or the error's kind and position.
fn full_trace<R: Read>(mut reader: XmlReader<R>) -> (Vec<XmlEvent<'static>>, String) {
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(XmlEvent::EndDocument) => return (events, "$".into()),
            Ok(e) => events.push(e.into_owned()),
            Err(e) => {
                let p = e.position();
                return (events, format!("{:?} {}:{} @{}", e.kind(), p.line, p.column, p.offset));
            }
        }
    }
}

/// A reader over `bytes` through a window of `capacity` bytes, or (on
/// `None`) through a 16-byte window fed one byte per `read`.
fn windowed(bytes: &[u8], capacity: Option<usize>) -> XmlReader<Box<dyn Read + '_>> {
    let config = ReaderConfig { buffer_capacity: capacity.unwrap_or(16), ..Default::default() };
    let source: Box<dyn Read> = match capacity {
        Some(_) => Box::new(Cursor::new(bytes)),
        None => Box::new(TrickleReader { data: bytes }),
    };
    XmlReader::with_config(source, config)
}

/// Reads `bytes` whole, through windows of several sizes and through a
/// one-byte trickle; all must agree, and a document that parses must have
/// every byte counted once by the probe. Returns the outcome.
fn assert_window_independent(name: &str, bytes: &[u8]) -> String {
    let reference = full_trace(XmlReader::from_slice(bytes));
    for capacity in [Some(16), Some(17), Some(63), Some(64), Some(65), Some(127), None] {
        let counts = Arc::new(Counts::default());
        let mut reader = windowed(bytes, capacity);
        reader.set_probe(counts.clone());
        let got = full_trace(reader);
        let how = capacity.map_or("a 1-byte trickle".into(), |c| format!("a {c}-byte window"));
        assert!(got.0 == reference.0, "{name}: events differ through {how}");
        assert_eq!(got.1, reference.1, "{name}: outcome differs through {how}");
        if reference.1 == "$" {
            let counted =
                counts.block.load(Ordering::Relaxed) + counts.byte.load(Ordering::Relaxed);
            assert_eq!(counted, bytes.len() as u64, "{name}: probe counts through {how}");
        }
    }
    reference.1
}

#[test]
fn the_corpus_reads_the_same_through_every_window() {
    for (name, bytes) in corpus() {
        assert_window_independent(&name, &bytes);
    }
}

#[test]
fn full_size_generator_documents_read_the_same_through_every_window() {
    let docs = [
        (
            "protein",
            protein::to_string(&ProteinConfig {
                seed: 2005,
                target_bytes: 256 << 10,
                ..Default::default()
            }),
        ),
        ("auction", auction::to_string(&AuctionConfig { seed: 2005, target_bytes: 32 << 10 })),
        (
            "recursive",
            recursive::to_string(&RecursiveConfig {
                section_depth: 24,
                table_depth: 24,
                towers: 24,
                position_on_outermost_only: false,
                author_present: true,
            }),
        ),
        ("random", random::to_string(&RandomConfig::seeded(2005))),
    ];
    for (name, doc) in &docs {
        assert_eq!(assert_window_independent(name, doc.as_bytes()), "$");
        // The same document with every line ended by `\r\n`: pairs land on
        // both sides of every refill.
        let crlf = doc.replace('>', ">\r\n");
        assert_eq!(assert_window_independent(&format!("{name} (CRLF)"), crlf.as_bytes()), "$");
        // And with two-, three- and four-byte characters in names, values
        // and text (past the XML declaration, and in no entity name): reads
        // cut them apart everywhere.
        let at = doc.find("?>").map_or(0, |i| i + 2);
        let wide = doc[at..].replace('e', "é").replace('i', "日").replace('y', "𝄞");
        let wide = format!("{}{wide}", &doc[..at]);
        assert_eq!(assert_window_independent(&format!("{name} (non-ASCII)"), wide.as_bytes()), "$");
    }
}

/// One step of a pass that skips every subtree rooted at `depth`: an
/// event in full, or what a skip walked past.
#[derive(Debug, PartialEq)]
enum Step {
    Event(XmlEvent<'static>),
    Skip(Skipped),
}

/// What a skipping pass must produce, derived from a plain pass's events:
/// each start tag at `depth` followed by the counts of the events up to
/// its end tag (or up to the error, if the document fails inside it).
fn expected_skips(events: &[XmlEvent<'static>], depth: u32) -> Vec<Step> {
    let mut out = Vec::new();
    let mut rest = events.iter();
    while let Some(e) = rest.next() {
        out.push(Step::Event(e.clone()));
        let XmlEvent::StartElement(start) = e else { continue };
        if start.level != depth {
            continue;
        }
        let mut skipped = Skipped::default();
        for e in rest.by_ref() {
            match e {
                XmlEvent::EndElement(end) if end.level == depth => {
                    out.push(Step::Skip(skipped));
                    out.push(Step::Event(e.clone()));
                    break;
                }
                XmlEvent::StartElement(s) => {
                    skipped.elements += 1;
                    skipped.node_ids += 1 + s.attributes().len() as u64;
                }
                XmlEvent::Characters(_) => {
                    skipped.text_nodes += 1;
                    skipped.node_ids += 1;
                }
                _ => {}
            }
            skipped.events += 1;
        }
        if !matches!(out.last(), Some(Step::Event(XmlEvent::EndElement(_)))) {
            out.push(Step::Skip(skipped)); // cut short by the error
        }
    }
    out
}

/// A pass that calls `skip_subtree` after every start tag at `depth`,
/// checking after each skip that the scan counts add up to the offset.
fn skipping_trace<R: Read>(mut reader: XmlReader<R>, depth: u32) -> (Vec<Step>, String) {
    let mut steps = Vec::new();
    loop {
        let skip = match reader.next_event() {
            Ok(XmlEvent::EndDocument) => return (steps, "$".into()),
            Ok(e) => {
                let skip = matches!(&e, XmlEvent::StartElement(s) if s.level == depth);
                steps.push(Step::Event(e.into_owned()));
                skip
            }
            Err(e) => return (steps, outcome(&e)),
        };
        if skip {
            match reader.skip_subtree() {
                Ok(skipped) => steps.push(Step::Skip(skipped)),
                Err(e) => return (steps, outcome(&e)),
            }
            let (block, byte) = reader.scan_counts();
            assert_eq!(block + byte, reader.offset(), "scan counts after a skip");
        }
    }
}

fn outcome(e: &vitex_xmlsax::XmlError) -> String {
    let p = e.position();
    format!("{:?} {}:{} @{}", e.kind(), p.line, p.column, p.offset)
}

/// Skipping the subtrees at depths 1–3, through every window of the
/// matrix, the default 64 KiB one and the one-byte trickle, must return the counts a plain pass
/// reads in their place, then the same end tag and the rest of the same
/// events; a document that fails must fail with the plain pass's error
/// (a skip may or may not have returned before an error at the skipped
/// element's own end tag).
fn assert_skips_agree(name: &str, bytes: &[u8]) {
    let (events, reference) = full_trace(XmlReader::from_slice(bytes));
    for depth in 1..=3 {
        let mut want = expected_skips(&events, depth);
        let windows = [16, 17, 63, 64, 65, 127, 64 << 10].map(Some);
        for capacity in windows.into_iter().chain([None]) {
            let how = capacity.map_or("a 1-byte trickle".into(), |c| format!("a {c}-byte window"));
            let (got, end) = skipping_trace(windowed(bytes, capacity), depth);
            assert_eq!(end, reference, "{name}: outcome skipping depth {depth} through {how}");
            if reference != "$" && got.len() + 1 == want.len() {
                if let Some(Step::Skip(_)) = want.last() {
                    want.pop(); // the error came inside the subtree
                }
            }
            assert!(got == want, "{name}: steps skipping depth {depth} through {how}");
        }
    }
}

#[test]
fn skipping_subtrees_counts_what_the_plain_pass_reads() {
    for (name, bytes) in corpus() {
        assert_skips_agree(&name, &bytes);
    }
    let docs = [
        ("auction", auction::to_string(&AuctionConfig { seed: 2005, target_bytes: 16 << 10 })),
        (
            "protein",
            protein::to_string(&ProteinConfig {
                seed: 2005,
                target_bytes: 16 << 10,
                ..Default::default()
            }),
        ),
        ("recursive", recursive::figure1()),
        (
            "recursive towers",
            recursive::to_string(&RecursiveConfig {
                section_depth: 6,
                table_depth: 6,
                towers: 6,
                position_on_outermost_only: false,
                author_present: true,
            }),
        ),
    ];
    for (name, doc) in &docs {
        assert_skips_agree(name, doc.as_bytes());
        // With `\r\n` line ends, and with two-byte characters in names,
        // values and text: both leave many constructs to the routines.
        assert_skips_agree(&format!("{name} (CRLF)"), doc.replace('>', ">\r\n").as_bytes());
        let at = doc.find("?>").map_or(0, |i| i + 2);
        let wide = format!("{}{}", &doc[..at], doc[at..].replace('e', "\u{e9}"));
        assert_skips_agree(&format!("{name} (non-ASCII)"), wide.as_bytes());
    }
    // Faults the plain walk must leave to the routines, two levels down.
    for fault in [
        "t]]>t",
        "<b x='1' x='2'/>",
        "<b x='<'/>",
        "<b x='a\x01'/>",
        "<b x='&bad;'/>",
        "<b x=1/>",
        "<b x='1'y='2'/>",
        "<b/ >",
        "<9b/>",
        "<b!/>",
        "</c>",
        "<b></c>",
        "t&#0;",
        "t\x01",
        "<b>\u{e9}\u{fffe}</b>",
        "<![CDATA[x]]]>",
        "<!-- -- -->",
        "<?xml x?>",
        "<!DOCTYPE r>",
    ] {
        let xml = format!("<r><a><p>{fault}<q/></p></a></r>");
        assert_skips_agree(&format!("{xml:?}"), xml.as_bytes());
    }
    let deep = format!("<r><a><p>{}</p></a></r>", "<d>".repeat(4100));
    assert_skips_agree("past the depth limit", deep.as_bytes());
}
