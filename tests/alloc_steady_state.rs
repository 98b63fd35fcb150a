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
//! * what a streaming session holds *while* a document runs does not grow
//!   with them either — the callback is the only place a match goes;
//! * a warm machine allocates **nothing** per transition — the only
//!   allocations of a second pass are the `Arc<str>` payloads of the
//!   matches it hands out.
//!
//! Allocation counts are only meaningful optimised; CI runs this suite
//! with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vitex::core::{
    CandidateStore, Engine, EvalMode, Interner, MachineSpec, Match, ShardedEngine, TwigM,
};
use vitex::xmlgen::recursive::{self, RecursiveConfig};
use vitex::xmlsax::{XmlEvent, XmlReader};
use vitex::xpath::QueryTree;

/// Allocation calls made and bytes currently held by one thread.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocations: u64,
    live_bytes: i64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocations: 0, live_bytes: 0 }) };
}

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

struct Counting;

impl Counting {
    fn record(allocations: u64, bytes: i64) {
        // A thread being torn down has no tally left to update.
        let _ = TALLY.try_with(|t| {
            let mut v = t.get();
            v.allocations += allocations;
            v.live_bytes += bytes;
            t.set(v);
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(1, layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::record(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(1, new_size as i64 - layout.size() as i64);
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

/// Streams `//*` over `xml` through a one-shard session. Returns the most
/// this thread held at any delivery, relative to when the session opened,
/// and the number of deliveries.
fn streaming_peak(xml: &str) -> (i64, u64) {
    let mut engine = ShardedEngine::new(1);
    engine.add_query("//*").unwrap();
    let (mut peak, mut delivered) = (0i64, 0u64);
    engine
        .session(|session| {
            let opened = tally().live_bytes;
            session.stream_document(XmlReader::from_str(xml), |_, _| {
                peak = peak.max(tally().live_bytes - opened);
                delivered += 1;
            })
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

/// A raw machine with everything it needs to replay a parsed document.
struct Replay {
    machine: TwigM,
    store: CandidateStore,
    interner: Interner,
    events: Vec<XmlEvent>,
}

impl Replay {
    fn new(query: &str, xml: &str) -> Self {
        let tree = QueryTree::parse(query).unwrap();
        let mut interner = Interner::new();
        let spec = MachineSpec::compile_with(&tree, &mut interner).unwrap();
        let mut reader = XmlReader::from_str(xml);
        let mut events = Vec::new();
        loop {
            let event = reader.next_event().unwrap();
            let last = matches!(event, XmlEvent::EndDocument);
            events.push(event);
            if last {
                break;
            }
        }
        Replay {
            machine: TwigM::from_spec(spec, EvalMode::Compact),
            store: CandidateStore::new(),
            interner,
            events,
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
            arcs += u64::from(m.name.is_some()) + u64::from(m.value.is_some());
        };
        let mut next_id = 0u64;
        let before = tally().allocations;
        for event in events.iter() {
            match event {
                XmlEvent::StartElement(e) => {
                    let node_id = next_id;
                    next_id += 1 + e.attributes.len() as u64;
                    machine.start_element_interned(
                        store,
                        interner.lookup(e.name.as_str()),
                        e.level,
                        &e.attributes,
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
                    machine.end_element(store, e.name.as_str(), e.level, e.element_span, &mut emit);
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
