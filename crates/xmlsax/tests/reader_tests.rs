//! End-to-end tests for the pull reader: happy paths, every
//! well-formedness check, streaming behaviour, and failure injection.

use vitex_xmlsax::event::ProcessingInstructionEvent;
use vitex_xmlsax::reader::ReaderConfig;
use vitex_xmlsax::{XmlErrorKind, XmlEvent, XmlReader};

/// Collects all events, panicking on error.
fn events(xml: &str) -> Vec<XmlEvent> {
    XmlReader::from_str(xml).collect_events().unwrap()
}

/// Returns the parse error for a malformed document.
fn parse_err(xml: &str) -> vitex_xmlsax::XmlError {
    XmlReader::from_str(xml).collect_events().unwrap_err()
}

/// Compact event trace: `+name` open, `-name` close, `"text"`, etc.
fn trace(xml: &str) -> String {
    trace_with(xml, ReaderConfig::default())
}

fn trace_with(xml: &str, config: ReaderConfig) -> String {
    let reader = XmlReader::with_config(std::io::Cursor::new(xml.as_bytes()), config);
    let mut out = String::new();
    for ev in reader {
        match ev.unwrap() {
            XmlEvent::StartDocument { .. } => {}
            XmlEvent::StartElement(e) => {
                out.push('+');
                out.push_str(e.name.as_str());
                for a in &e.attributes {
                    out.push_str(&format!("[{}={}]", a.name, a.value));
                }
                out.push(' ');
            }
            XmlEvent::EndElement(e) => {
                out.push('-');
                out.push_str(e.name.as_str());
                out.push(' ');
            }
            XmlEvent::Characters(c) => {
                out.push_str(&format!("{:?} ", c.text));
            }
            XmlEvent::Comment(c) => out.push_str(&format!("#{c}# ")),
            XmlEvent::ProcessingInstruction(ProcessingInstructionEvent { target, .. }) => {
                out.push_str(&format!("?{target} "))
            }
            XmlEvent::DoctypeDeclaration { name } => out.push_str(&format!("!{name} ")),
            XmlEvent::EndDocument => out.push('$'),
        }
    }
    out
}

// ------------------------------------------------------------------ //
// Happy paths
// ------------------------------------------------------------------ //

#[test]
fn minimal_document() {
    assert_eq!(trace("<a/>"), "+a -a $");
}

#[test]
fn nested_elements_and_text() {
    assert_eq!(trace("<a><b>x</b><c>y</c></a>"), "+a +b \"x\" -b +c \"y\" -c -a $");
}

#[test]
fn attributes_in_document_order() {
    assert_eq!(trace(r#"<a x="1" y="2"/>"#), "+a[x=1][y=2] -a $");
}

#[test]
fn single_and_double_quoted_attributes() {
    assert_eq!(trace(r#"<a x='sq' y="dq"/>"#), "+a[x=sq][y=dq] -a $");
}

#[test]
fn xml_declaration_is_reported() {
    let evs = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    match &evs[0] {
        XmlEvent::StartDocument { version, encoding } => {
            assert_eq!(version.as_deref(), Some("1.0"));
            assert_eq!(encoding.as_deref(), Some("UTF-8"));
        }
        other => panic!("expected StartDocument, got {other:?}"),
    }
}

#[test]
fn xml_declaration_with_standalone() {
    assert_eq!(trace("<?xml version=\"1.0\" standalone=\"yes\"?><a/>"), "+a -a $");
}

#[test]
fn bom_is_skipped() {
    let mut bytes = vec![0xEF, 0xBB, 0xBF];
    bytes.extend_from_slice(b"<a/>");
    let evs = XmlReader::from_bytes(bytes).collect_events().unwrap();
    assert!(matches!(evs[1], XmlEvent::StartElement(_)));
}

#[test]
fn levels_are_depths() {
    let evs = events("<a><b><c/></b></a>");
    let levels: Vec<u32> = evs
        .iter()
        .filter_map(|e| match e {
            XmlEvent::StartElement(s) => Some(s.level),
            _ => None,
        })
        .collect();
    assert_eq!(levels, [1, 2, 3]);
    let end_levels: Vec<u32> = evs
        .iter()
        .filter_map(|e| match e {
            XmlEvent::EndElement(s) => Some(s.level),
            _ => None,
        })
        .collect();
    assert_eq!(end_levels, [3, 2, 1]);
}

#[test]
fn element_spans_cover_whole_elements() {
    let xml = "<a><b>xy</b></a>";
    let evs = events(xml);
    for e in &evs {
        if let XmlEvent::EndElement(end) = e {
            let frag = end.element_span.slice(xml.as_bytes()).unwrap();
            match end.name.as_str() {
                "b" => assert_eq!(frag, b"<b>xy</b>"),
                "a" => assert_eq!(frag, xml.as_bytes()),
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn self_closing_gets_synthetic_end() {
    assert_eq!(trace("<a><b/></a>"), "+a +b -b -a $");
    let evs = events("<a/>");
    match (&evs[1], &evs[2]) {
        (XmlEvent::StartElement(s), XmlEvent::EndElement(e)) => {
            assert_eq!(s.span, e.element_span);
        }
        other => panic!("unexpected events {other:?}"),
    }
}

#[test]
fn comments_and_pis() {
    assert_eq!(trace("<!--pre--><a><?go now?></a><!--post-->"), "#pre# +a ?go -a #post# $");
}

#[test]
fn whitespace_outside_root_is_ignored() {
    assert_eq!(trace("\n  <a/>\n  "), "+a -a $");
}

#[test]
fn crlf_outside_root_is_ignored() {
    assert_eq!(trace("<?xml version=\"1.0\"?>\r\n<a/>\r\n"), "+a -a $");
}

// ------------------------------------------------------------------ //
// Text handling
// ------------------------------------------------------------------ //

#[test]
fn entities_in_text() {
    assert_eq!(trace("<a>&lt;&amp;&gt;&apos;&quot;</a>"), "+a \"<&>'\\\"\" -a $");
}

#[test]
fn char_references() {
    assert_eq!(trace("<a>&#65;&#x42;</a>"), "+a \"AB\" -a $");
}

#[test]
fn cdata_is_text() {
    assert_eq!(trace("<a><![CDATA[<not&markup>]]></a>"), "+a \"<not&markup>\" -a $");
}

#[test]
fn adjacent_text_and_cdata_coalesce() {
    assert_eq!(trace("<a>x<![CDATA[y]]>z</a>"), "+a \"xyz\" -a $");
}

#[test]
fn comments_split_text_nodes() {
    // Matches the XPath data model: a comment terminates a text node.
    assert_eq!(trace("<a>x<!--c-->y</a>"), "+a \"x\" #c# \"y\" -a $");
}

#[test]
fn whitespace_text_is_reported_by_default() {
    assert_eq!(trace("<a> <b/> </a>"), "+a \" \" +b -b \" \" -a $");
}

#[test]
fn line_endings_are_normalized_in_text() {
    assert_eq!(trace("<a>x\r\ny\rz</a>"), "+a \"x\\ny\\nz\" -a $");
}

#[test]
fn attribute_values_normalize_whitespace() {
    assert_eq!(trace("<a x=\"p\tq\nr\"/>"), "+a[x=p q r] -a $");
}

#[test]
fn attribute_char_refs_survive_normalization() {
    // A character reference to tab must stay a tab (XML 1.0 §3.3.3).
    let evs = events("<a x=\"p&#9;q\"/>");
    if let XmlEvent::StartElement(e) = &evs[1] {
        assert_eq!(e.attribute("x"), Some("p\tq"));
    } else {
        panic!();
    }
}

#[test]
fn entities_in_attribute_values() {
    assert_eq!(trace("<a x=\"&lt;&amp;&gt;\"/>"), "+a[x=<&>] -a $");
}

#[test]
fn multibyte_text_round_trips() {
    assert_eq!(trace("<a>héllo 日本 😀</a>"), "+a \"héllo 日本 😀\" -a $");
}

#[test]
fn empty_cdata_produces_no_event() {
    assert_eq!(trace("<a><![CDATA[]]></a>"), "+a -a $");
}

#[test]
fn cdata_with_brackets() {
    assert_eq!(trace("<a><![CDATA[a]]b]]]></a>"), "+a \"a]]b]\" -a $");
}

// ------------------------------------------------------------------ //
// DOCTYPE and entities
// ------------------------------------------------------------------ //

#[test]
fn doctype_name_is_reported() {
    assert_eq!(trace("<!DOCTYPE book><book/>"), "!book +book -book $");
}

#[test]
fn doctype_with_system_id() {
    assert_eq!(trace("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>"), "!a +a -a $");
}

#[test]
fn doctype_with_public_id() {
    assert_eq!(trace("<!DOCTYPE a PUBLIC \"-//X//DTD//EN\" \"a.dtd\"><a/>"), "!a +a -a $");
}

#[test]
fn internal_entities_expand_in_content() {
    let xml = "<!DOCTYPE a [<!ENTITY who \"world\">]><a>hello &who;</a>";
    assert_eq!(trace(xml), "!a +a \"hello world\" -a $");
}

#[test]
fn internal_entities_expand_in_attributes() {
    let xml = "<!DOCTYPE a [<!ENTITY v \"42\">]><a x=\"&v;!\"/>";
    assert_eq!(trace(xml), "!a +a[x=42!] -a $");
}

#[test]
fn nested_internal_entities() {
    let xml = "<!DOCTYPE a [<!ENTITY x \"1\"><!ENTITY y \"&x;&x;\">]><a>&y;</a>";
    assert_eq!(trace(xml), "!a +a \"11\" -a $");
}

#[test]
fn doctype_skips_element_and_attlist_decls() {
    let xml = "<!DOCTYPE a [\
        <!ELEMENT a (#PCDATA)>\
        <!ATTLIST a x CDATA \"d>e\">\
        <!ENTITY e \"ok\">\
    ]><a>&e;</a>";
    assert_eq!(trace(xml), "!a +a \"ok\" -a $");
}

#[test]
fn doctype_internal_comments_are_skipped() {
    let xml = "<!DOCTYPE a [<!--<!ENTITY fake \"x\">--><!ENTITY real \"y\">]><a>&real;</a>";
    assert_eq!(trace(xml), "!a +a \"y\" -a $");
}

#[test]
fn external_entity_reference_fails() {
    let xml = "<!DOCTYPE a [<!ENTITY xxe SYSTEM \"file:///etc/passwd\">]><a>&xxe;</a>";
    let e = parse_err(xml);
    assert!(matches!(e.kind(), XmlErrorKind::ExternalEntity { .. }));
}

#[test]
fn recursive_entity_fails() {
    let xml = "<!DOCTYPE a [<!ENTITY a \"&b;\"><!ENTITY b \"&a;\">]><a>&a;</a>";
    let e = parse_err(xml);
    assert!(matches!(e.kind(), XmlErrorKind::EntityExpansionLimit { .. }));
}

#[test]
fn billion_laughs_is_bounded() {
    let mut dtd = String::from("<!DOCTYPE a [<!ENTITY l0 \"lol\">");
    for i in 1..=12 {
        dtd.push_str(&format!("<!ENTITY l{i} \"{}\">", format!("&l{};", i - 1).repeat(10)));
    }
    dtd.push_str("]><a>&l12;</a>");
    let e = parse_err(&dtd);
    assert!(matches!(e.kind(), XmlErrorKind::EntityExpansionLimit { .. }));
}

// ------------------------------------------------------------------ //
// Well-formedness violations
// ------------------------------------------------------------------ //

#[test]
fn mismatched_tags() {
    assert!(matches!(parse_err("<a><b></a>").kind(), XmlErrorKind::MismatchedTag { .. }));
}

#[test]
fn unbalanced_end_tag() {
    // After the root closed, a stray end tag has nothing to match.
    assert!(matches!(parse_err("<a></a></b>").kind(), XmlErrorKind::UnbalancedEndTag { .. }));
    // Before any root element, likewise.
    assert!(matches!(parse_err("</a>").kind(), XmlErrorKind::UnbalancedEndTag { .. }));
}

#[test]
fn unexpected_eof_inside_element() {
    assert!(matches!(parse_err("<a><b>").kind(), XmlErrorKind::UnexpectedEof { .. }));
}

#[test]
fn unexpected_eof_inside_tag() {
    assert!(matches!(parse_err("<a x=").kind(), XmlErrorKind::UnexpectedEof { .. }));
}

#[test]
fn unexpected_eof_inside_comment() {
    assert!(matches!(parse_err("<a/><!-- oops").kind(), XmlErrorKind::UnexpectedEof { .. }));
}

#[test]
fn unexpected_eof_inside_cdata() {
    assert!(matches!(parse_err("<a><![CDATA[x").kind(), XmlErrorKind::UnexpectedEof { .. }));
}

#[test]
fn empty_input_has_no_root() {
    assert!(matches!(parse_err("").kind(), XmlErrorKind::NoRootElement));
    assert!(matches!(parse_err("  \n ").kind(), XmlErrorKind::NoRootElement));
    assert!(matches!(parse_err("<!--only comments-->").kind(), XmlErrorKind::NoRootElement));
}

#[test]
fn two_roots_rejected() {
    assert!(matches!(parse_err("<a/><b/>").kind(), XmlErrorKind::TrailingContent));
}

#[test]
fn text_outside_root_rejected() {
    assert!(matches!(parse_err("hello<a/>").kind(), XmlErrorKind::TextOutsideRoot));
    assert!(matches!(parse_err("<a/>bye").kind(), XmlErrorKind::TextOutsideRoot));
}

#[test]
fn duplicate_attributes_rejected() {
    assert!(matches!(
        parse_err("<a x=\"1\" x=\"2\"/>").kind(),
        XmlErrorKind::DuplicateAttribute { .. }
    ));
}

#[test]
fn invalid_names_rejected() {
    assert!(matches!(parse_err("<9a/>").kind(), XmlErrorKind::InvalidName { .. }));
    assert!(matches!(parse_err("<a 9x=\"1\"/>").kind(), XmlErrorKind::InvalidName { .. }));
}

#[test]
fn missing_attribute_equals_rejected() {
    assert!(parse_err("<a x\"1\"/>").to_string().contains("expected"));
}

#[test]
fn unquoted_attribute_rejected() {
    assert!(parse_err("<a x=1/>").to_string().contains("quoted"));
}

#[test]
fn lt_in_attribute_value_rejected() {
    assert!(parse_err("<a x=\"<\"/>").to_string().contains("not allowed"));
}

#[test]
fn missing_whitespace_between_attributes_rejected() {
    assert!(parse_err("<a x=\"1\"y=\"2\"/>").to_string().contains("whitespace"));
}

#[test]
fn double_hyphen_in_comment_rejected() {
    assert!(parse_err("<a><!-- x -- y --></a>").to_string().contains("--"));
}

#[test]
fn cdata_end_in_text_rejected() {
    assert!(parse_err("<a>x]]>y</a>").to_string().contains("]]>"));
}

#[test]
fn cdata_end_split_is_still_detected() {
    // ']]' then '>' arriving via separate slow-path characters.
    assert!(parse_err("<a>]]></a>").to_string().contains("]]>"));
}

#[test]
fn a_plain_run_ends_a_cdata_end_in_progress() {
    // The bulk path copies "a" and forgets what came before it: only a
    // contiguous raw ']]>' is an error, wherever the run falls.
    assert!(parse_err("<r>a]]></r>").to_string().contains("]]>"));
    assert_eq!(trace("<r>]a]></r>"), "+r \"]a]>\" -r $");
    assert_eq!(trace("<r>]]a></r>"), "+r \"]]a>\" -r $");
}

#[test]
fn escaped_cdata_end_is_fine() {
    assert_eq!(trace("<a>x]]&gt;y</a>"), "+a \"x]]>y\" -a $");
}

#[test]
fn unknown_entity_rejected() {
    assert!(matches!(parse_err("<a>&nope;</a>").kind(), XmlErrorKind::UnknownEntity { .. }));
}

#[test]
fn bad_char_reference_rejected() {
    assert!(parse_err("<a>&#xZZ;</a>").to_string().contains("character reference"));
    assert!(matches!(parse_err("<a>&#0;</a>").kind(), XmlErrorKind::InvalidChar { .. }));
}

#[test]
fn reserved_pi_target_rejected() {
    assert!(parse_err("<a><?xml version=\"1.0\"?></a>").to_string().contains("reserved"));
}

#[test]
fn doctype_after_root_rejected() {
    assert!(parse_err("<a/><!DOCTYPE a>").to_string().contains("DOCTYPE"));
}

#[test]
fn second_doctype_rejected() {
    assert!(parse_err("<!DOCTYPE a><!DOCTYPE b><a/>").to_string().contains("multiple"));
}

#[test]
fn unsupported_encoding_rejected() {
    let e = parse_err("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>");
    assert!(matches!(e.kind(), XmlErrorKind::UnsupportedEncoding { .. }));
}

#[test]
fn control_characters_rejected() {
    assert!(matches!(parse_err("<a>\u{1}</a>").kind(), XmlErrorKind::InvalidChar { .. }));
}

#[test]
fn depth_limit_enforced() {
    let cfg = ReaderConfig { max_depth: 4, ..Default::default() };
    let xml = "<a><a><a><a><a/></a></a></a></a>";
    let e = XmlReader::with_config(std::io::Cursor::new(xml.as_bytes()), cfg)
        .collect_events()
        .unwrap_err();
    assert!(matches!(e.kind(), XmlErrorKind::DepthLimit { max: 4 }));
}

#[test]
fn error_positions_are_accurate() {
    let e = parse_err("<a>\n  <b></c>\n</a>");
    assert_eq!(e.position().line, 2);
    // column of the `<` of `</c>`
    assert_eq!(e.position().column, 6);
}

// ------------------------------------------------------------------ //
// Streaming behaviour
// ------------------------------------------------------------------ //

/// A reader that returns bytes one at a time, to exercise every
/// refill boundary.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl std::io::Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

#[test]
fn single_byte_reads_work() {
    let xml = "<?xml version=\"1.0\"?><root a=\"v\"><x>té&amp;xt</x><![CDATA[cd]]></root>";
    let trickle = TrickleReader { data: xml.as_bytes(), pos: 0 };
    let cfg = ReaderConfig { buffer_capacity: 16, ..Default::default() };
    let evs = XmlReader::with_config(trickle, cfg).collect_events().unwrap();
    let fast = XmlReader::from_str(xml).collect_events().unwrap();
    assert_eq!(evs, fast);
}

#[test]
fn io_errors_surface() {
    struct FailingReader;
    impl std::io::Read for FailingReader {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "stream died"))
        }
    }
    let e = XmlReader::new(FailingReader).collect_events().unwrap_err();
    assert!(e.is_io());
}

#[test]
fn end_document_repeats() {
    let mut r = XmlReader::from_str("<a/>");
    while !r.next_event().unwrap().is_end_document() {}
    assert!(r.next_event().unwrap().is_end_document());
    assert!(r.next_event().unwrap().is_end_document());
}

#[test]
fn iterator_stops_after_end() {
    let evs: Vec<_> = XmlReader::from_str("<a/>").collect();
    assert_eq!(evs.len(), 4); // StartDocument, Start, End, EndDocument
    assert!(evs.iter().all(|e| e.is_ok()));
}

#[test]
fn iterator_stops_after_error() {
    let evs: Vec<_> = XmlReader::from_str("<a><b></a>").collect();
    assert!(evs.last().unwrap().is_err());
    let errors = evs.iter().filter(|e| e.is_err()).count();
    assert_eq!(errors, 1);
}

#[test]
fn depth_tracks_open_elements() {
    let mut r = XmlReader::from_str("<a><b/></a>");
    assert_eq!(r.depth(), 0);
    r.next_event().unwrap(); // StartDocument
    r.next_event().unwrap(); // <a>
    assert_eq!(r.depth(), 1);
    r.next_event().unwrap(); // <b>
    assert_eq!(r.depth(), 2);
    r.next_event().unwrap(); // </b>
    assert_eq!(r.depth(), 1);
}

#[test]
fn paper_figure_1_document_parses() {
    // The sample data from Figure 1 of the ViteX paper (tags only; the
    // paper's `<cell> A </>` shorthand expanded to full end tags).
    let xml = "<book>\
        <section><section><section>\
        <table><table><table><cell>A</cell></table></table>\
        <position>B</position></table>\
        </section></section>\
        <author>C</author></section>\
        </book>";
    let evs = events(xml);
    let starts = evs.iter().filter(|e| matches!(e, XmlEvent::StartElement(_))).count();
    assert_eq!(starts, 10); // book, 3×section, 3×table, cell, position, author
}
