//! The machine's memory claims, measured at the allocator.
//!
//! The paper's TwigM keeps state that is polynomial in the query and the
//! document *depth* and independent of the document's *length*. Two things
//! follow that a counter inside the engine cannot prove about itself, so
//! this suite counts at the allocator (its own `#[global_allocator]`,
//! per-thread tallies so parallel tests do not see each other):
//!
//! * what an [`Engine`] still holds after a document does not grow with
//!   the number of matches it delivered;
//! * what a streaming `MultiEngine` holds *while* a document runs does not
//!   grow with them either — the callback is the only place a match goes;
//! * a warm machine allocates **nothing** per transition — the only
//!   allocations of a second pass are the `Arc<str>` payloads of the
//!   matches it hands out;
//! * the same holds for the whole pipeline, from `XmlReader::from_str` to
//!   the callback: the reader lends its events from buffers it reuses, so
//!   a warm engine's pass, one query or many, allocates the match payloads plus a
//!   per-document constant, whatever the document's length and however
//!   many entities it decodes.
//!
//! Allocation counts are only meaningful optimised; CI runs this suite
//! with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vitex::core::{
    CandidateStore, Engine, EvalMode, Interner, MachineSpec, Match, MultiEngine, TwigM,
};
use vitex::xmlgen::auction::{self, AuctionConfig};
use vitex::xmlgen::protein::{self, ProteinConfig};
use vitex::xmlgen::recursive::{self, RecursiveConfig};
use vitex::xmlsax::{XmlEvent, XmlReader};
use vitex::xpath::QueryTree;

/// Allocation calls made, bytes they asked for, and bytes currently held
/// by one thread.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: u64,
    allocated_bytes: u64,
    live_bytes: i64,
}

thread_local! {
    static TALLY: Cell<Tally> =
        const { Cell::new(Tally { allocations: 0, allocated_bytes: 0, live_bytes: 0 }) };
}

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

struct Counting;

impl Counting {
    /// Records one call that asked for `asked` bytes (none for a
    /// deallocation) and changed the bytes held by `held`.
    fn record(allocations: u64, asked: usize, held: i64) {
        // A thread being torn down has no tally left to update.
        let _ = TALLY.try_with(|t| {
            let mut v = t.get();
            v.allocations += allocations;
            v.allocated_bytes += asked as u64;
            v.live_bytes += held;
            t.set(v);
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::record(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RECURSIVE: &str = "//*[author]//*[position]//*";

fn towers(section_depth: usize, table_depth: usize, towers: usize) -> String {
    recursive::to_string(&RecursiveConfig {
        section_depth,
        table_depth,
        towers,
        position_on_outermost_only: false,
        author_present: true,
    })
}

/// Bytes an engine still holds after streaming `xml`, its output dropped.
fn held_after(xml: &str) -> (i64, usize) {
    let before = tally().live_bytes;
    let mut engine = Engine::from_query(RECURSIVE).unwrap();
    let matches = engine.run(XmlReader::from_str(xml), |_| {}).unwrap().matches.len();
    let held = tally().live_bytes - before;
    drop(engine);
    assert_eq!(tally().live_bytes, before, "dropping the engine returns everything");
    (held, matches)
}

#[test]
fn what_an_engine_holds_does_not_grow_with_the_number_of_matches() {
    let (small, large) = (towers(12, 12, 50), towers(12, 12, 400));
    let (held_small, matches_small) = held_after(&small);
    let (held_large, matches_large) = held_after(&large);
    assert_eq!(matches_large, 8 * matches_small, "eight times the towers, eight times the matches");
    assert!(
        (held_large - held_small).abs() < 1024,
        "engine memory must depend on depth, not on length: {held_small} B after {matches_small} \
         matches, {held_large} B after {matches_large}"
    );
}

/// Streams `//*` over `xml` through a `MultiEngine`. Returns the most
/// this thread held at any delivery, relative to before the document, and
/// the number of deliveries.
fn streaming_peak(xml: &str) -> (i64, u64) {
    let mut engine = MultiEngine::new();
    engine.add_query("//*").unwrap();
    let (mut peak, mut delivered) = (0i64, 0u64);
    let opened = tally().live_bytes;
    engine
        .stream_document(XmlReader::from_str(xml), |_, _| {
            peak = peak.max(tally().live_bytes - opened);
            delivered += 1;
        })
        .unwrap();
    (peak, delivered)
}

#[test]
fn what_a_streaming_session_holds_does_not_grow_with_the_number_of_matches() {
    let (small, large) = (towers(12, 12, 8), towers(12, 12, 64));
    let (peak_small, matches_small) = streaming_peak(&small);
    let (peak_large, matches_large) = streaming_peak(&large);
    assert!(matches_large > 7 * matches_small, "{matches_small} and {matches_large} matches");
    assert!(
        peak_large <= peak_small + 4096,
        "a streamed document keeps no match: peak {peak_small} B over {matches_small} matches, \
         {peak_large} B over {matches_large}"
    );
}

/// The `Arc<str>` strings a match carries.
fn payloads(m: &Match) -> u64 {
    u64::from(m.name.is_some()) + u64::from(m.value.is_some())
}

/// A raw machine with everything it needs to replay a parsed document.
struct Replay {
    machine: TwigM,
    store: CandidateStore,
    interner: Interner,
    events: Vec<XmlEvent<'static>>,
}

impl Replay {
    fn new(query: &str, xml: &str) -> Self {
        let tree = QueryTree::parse(query).unwrap();
        let mut interner = Interner::new();
        let spec = MachineSpec::compile_with(&tree, &mut interner).unwrap();
        Replay {
            machine: TwigM::from_spec(spec, EvalMode::Compact),
            store: CandidateStore::new(),
            interner,
            events: XmlReader::from_str(xml).collect_events().unwrap(),
        }
    }

    /// One pass, numbering nodes as the document driver does. Returns the
    /// matches emitted, their `Arc<str>` payloads, and the allocations the
    /// pass made.
    fn pass(&mut self) -> (u64, u64, u64) {
        let Replay { machine, store, interner, events } = self;
        machine.reset();
        store.reset();
        let (mut emitted, mut arcs) = (0u64, 0u64);
        let mut emit = |m: Match| {
            emitted += 1;
            arcs += payloads(&m);
        };
        let mut next_id = 0u64;
        let before = tally().allocations;
        for event in events.iter() {
            match event {
                XmlEvent::StartElement(e) => {
                    let node_id = next_id;
                    next_id += 1 + e.attributes().len() as u64;
                    machine.start_element_interned(
                        store,
                        interner.lookup(&e.name),
                        e.level,
                        e.attributes(),
                        node_id,
                        node_id + 1,
                        e.span,
                        &mut emit,
                    );
                }
                XmlEvent::Characters(c) => {
                    machine.characters(store, &c.text, c.level, next_id, c.span, &mut emit);
                    next_id += 1;
                }
                XmlEvent::EndElement(e) => {
                    machine.end_element(store, &e.name, e.level, e.element_span, &mut emit);
                }
                _ => {}
            }
        }
        let allocations = tally().allocations - before;
        assert!(machine.is_quiescent());
        (emitted, arcs, allocations)
    }
}

#[test]
fn a_warm_machine_allocates_only_the_payloads_of_the_matches_it_emits() {
    let xml = towers(24, 24, 24);
    for (query, matches, payloads) in [
        // Every candidate is created, copied, inherited and finally
        // discarded: nothing reaches the caller, nothing is allocated.
        ("//section[author = 'nobody']//table[position]//cell", 0, 0),
        // Element matches carry a name, text matches a value.
        (RECURSIVE, 1152, 1152),
        ("//section[author]//table[position]//cell/text()", 24, 24),
    ] {
        let mut replay = Replay::new(query, &xml);
        let cold = replay.pass();
        let warm = replay.pass();
        assert_eq!((cold.0, cold.1), (matches, payloads), "{query}");
        assert_eq!((warm.0, warm.1), (matches, payloads), "{query}: the second pass agrees");
        assert!(cold.2 > payloads, "{query}: the first pass sizes the pools");
        assert_eq!(warm.2, payloads, "{query}: allocations of a warm pass");
    }
}

// ------------------------------------------------------------------ //
// The whole pipeline: bytes to callback
// ------------------------------------------------------------------ //

/// `xml` with the first character of every text node and attribute value
/// replaced by `&amp;`: the same shape and decoded lengths, with an entity
/// to decode in each of them.
fn entity_dense(xml: &str) -> String {
    let body = xml.find("?>").map_or(0, |i| i + 2);
    let mut out = String::from(&xml[..body]);
    let (mut in_tag, mut prev) = (false, '\0');
    let mut chars = xml[body..].chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        // A text node runs to the next `<`, a value to its closing quote.
        let closer = match c {
            '<' => {
                in_tag = true;
                None
            }
            '>' => {
                in_tag = false;
                Some('<')
            }
            '"' if in_tag && prev == '=' => Some('"'),
            _ => None,
        };
        if closer.is_some_and(|close| chars.peek().is_some_and(|&n| n != close)) {
            chars.next();
            out.push_str("&amp;");
        }
        prev = c;
    }
    out
}

const PROTEIN_QUERY: &str = "//ProteinEntry[reference]/@id";

/// Auction queries whose match counts depend on the document's shape
/// alone, so its entity-dense variant matches as often.
const AUCTION_QUERIES: &[&str] = &[
    "//item[payment]/name",
    "//item/@id",
    "//person[profile/interest]/emailaddress/text()",
    "//listitem",
];

/// What a document costs the pipeline beyond its match payloads: the
/// reader's window and buffers, and the doublings of the match vector
/// `Engine::run` collects. A streamed document's output holds no vector.
const PER_DOCUMENT: u64 = 32;

/// One pass of a warm `engine` over `xml`, counted from
/// `XmlReader::from_str` to the callback: `(allocations, payloads)`.
fn engine_pass(engine: &mut Engine, xml: &str) -> (u64, u64) {
    let mut arcs = 0u64;
    let before = tally().allocations;
    engine.run(XmlReader::from_str(xml), |m| arcs += payloads(&m)).unwrap();
    (tally().allocations - before, arcs)
}

/// One streamed pass of `engine` over `xml` after `warmup`, counted the
/// same way.
fn session_pass(engine: &mut MultiEngine, warmup: &str, xml: &str) -> (u64, u64) {
    let mut arcs = 0u64;
    engine.stream_document(XmlReader::from_str(warmup), |_, _| {}).unwrap();
    let before = tally().allocations;
    engine.stream_document(XmlReader::from_str(xml), |_, m| arcs += payloads(&m)).unwrap();
    (tally().allocations - before, arcs)
}

/// What a warm engine's document that pushes one group allocates with
/// `k` disjoint `//t{i}[w{i}]/@id` queries registered: `(allocations,
/// bytes asked for)`.
fn one_group_document(k: usize) -> (u64, u64) {
    let mut multi = MultiEngine::new();
    for i in 0..k {
        multi.add_query(&format!("//t{i}[w{i}]/@id")).unwrap();
    }
    let xml = r#"<r><t3 id="x"><w3/></t3><t3/><z>text</z></r>"#;
    multi.stream_document(XmlReader::from_str(xml), |_, _| {}).unwrap();
    let before = tally();
    let mut matches = 0;
    multi.stream_document(XmlReader::from_str(xml), |_, _| matches += 1).unwrap();
    let after = tally();
    assert_eq!(matches, 1, "k = {k}");
    (after.allocations - before.allocations, after.allocated_bytes - before.allocated_bytes)
}

#[test]
fn a_document_costs_what_it_touched_not_the_number_of_queries() {
    // The document pushes //t3[w3]/@id alone: its start resets one
    // machine, and its epilogue reads one group's statistics and bytes, so
    // 9 990 more registered queries cost it nothing.
    let (few, many) = (one_group_document(10), one_group_document(10_000));
    assert_eq!(few, many, "(allocations, bytes) at k = 10 and k = 10 000");
}

#[test]
fn the_entity_dense_variant_has_an_entity_in_every_text_node_and_value() {
    assert_eq!(
        entity_dense(r#"<?xml version="1.0"?><a x="yz" e=""><b>t</b><c/>uv</a>"#),
        r#"<?xml version="1.0"?><a x="&amp;z" e=""><b>&amp;</b><c/>&amp;v</a>"#
    );
}

#[test]
fn a_warm_engine_allocates_the_payloads_plus_a_per_document_constant() {
    let doc = |scale: u64| protein::to_string(&ProteinConfig::sized(scale * (128 << 10)));
    let mut engine = Engine::from_query(PROTEIN_QUERY).unwrap();
    engine_pass(&mut engine, &doc(1));
    for scale in [1, 2, 4] {
        let xml = doc(scale);
        let (allocations, payloads) = engine_pass(&mut engine, &xml);
        assert!(payloads > 0);
        assert!(
            allocations <= payloads + PER_DOCUMENT,
            "{scale}x: {allocations} allocations for {payloads} payloads"
        );
        let dense = entity_dense(&xml);
        assert_eq!(engine_pass(&mut engine, &dense), (allocations, payloads), "{scale}x, entities");
    }
}

#[test]
fn a_warm_session_allocates_the_payloads_plus_a_per_document_constant() {
    let doc = |scale: u64| auction::to_string(&AuctionConfig::sized(scale * (128 << 10)));
    let mut multi = MultiEngine::new();
    for q in AUCTION_QUERIES {
        multi.add_query(q).unwrap();
    }
    let warmup = doc(1);
    for scale in [1, 2, 4] {
        let xml = doc(scale);
        let (allocations, payloads) = session_pass(&mut multi, &warmup, &xml);
        assert!(payloads > 0);
        assert!(
            allocations <= payloads + PER_DOCUMENT,
            "{scale}x: {allocations} allocations for {payloads} payloads"
        );
        let dense = entity_dense(&xml);
        assert_eq!(
            session_pass(&mut multi, &warmup, &dense),
            (allocations, payloads),
            "{scale}x, entities"
        );
    }
}
