//! # vitex-core — the TwigM streaming XPath machine
//!
//! This crate is the primary contribution of the ViteX paper (Chen,
//! Davidson, Zheng — ICDE 2005): a streaming XPath processor that evaluates
//! XP{/, //, *, []} queries over a single sequential scan of XML in
//! **polynomial time and space**, even though a single XML node may
//! participate in an *exponential* number of pattern matches on recursive
//! data.
//!
//! ## How it works (paper §3; each rule is stated on its [`machine`] transition)
//!
//! * [`builder`] compiles a [`vitex_xpath::QueryTree`] into a **TwigM
//!   machine** in time linear in the query size: one machine node per query
//!   node, each element-test machine node owning a **stack**.
//! * [`machine::TwigM`] consumes SAX events. A stack entry is the paper's
//!   triplet — *(level of the XML node, match status of its query children,
//!   candidate solutions)* — and compactly encodes **all** pattern matches
//!   the open XML nodes participate in.
//! * On `endElement` the popped entry's match flags are *bookkept* into the
//!   parent machine node's stack, and candidate solutions are forwarded
//!   (when the entry's predicates are satisfied) or lazily re-attached to
//!   an outer candidate ancestor (when they are not). A candidate that
//!   reaches the root machine node fully satisfied **is** a query solution
//!   and is emitted immediately — the paper's incremental delivery.
//! * Pattern matches are never enumerated: a candidate waits on a stack
//!   entry as an 8-byte instance of a solution stored once, which is what
//!   turns the exponential match space into `O(|D|·|Q|·(|Q|+B))` work —
//!   and, with every instance, solution and string buffer pooled in a
//!   candidate store, into no allocation per event.
//!
//! ## Entry points
//!
//! * [`evaluate_str`] / [`evaluate_reader`] — one-call evaluation.
//! * [`engine::Engine`] — one query, reusable across documents: matches
//!   reach a callback as soon as they are decidable, and are kept. It is a
//!   [`MultiEngine`] with one registration, run through the same
//!   collecting adapter, so one query and many reach the machines the same
//!   way.
//! * [`multi::MultiEngine`] — publish/subscribe: many standing queries,
//!   one scan, executed through the shared step trie so an event only
//!   touches the machines it can move. [`MultiEngine::stream_document`] —
//!   the one pipeline every multi-query document goes through,
//!   [`MultiEngine::run`]'s collecting adapter included — streams document
//!   collections back-to-back on the calling thread without re-planning.
//! * [`plan::QueryPlanner`] — the shared-prefix query planner behind
//!   `MultiEngine`: canonicalizes queries, dedupes structural duplicates
//!   into one machine with a subscriber fan-out list, and tries element
//!   steps — main path and predicates — so overlapping subscriptions share
//!   plan structure. The trie also *routes*: it decides each start tag's
//!   pushes once per live step, from the step's first routed machine (the
//!   machines hold the stacks; the trie keeps none), so per-event planning
//!   scales with distinct steps instead of with the number of standing
//!   queries.
//! * [`driver::DocumentDriver`] — the single SAX event loop (node
//!   numbering, counting, symbol resolution) behind both engines; custom
//!   consumers implement [`driver::EventSink`].
//! * [`telemetry::Telemetry`] — the one observability surface: attach an
//!   enabled handle to either engine, and [`Telemetry::snapshot`] reads
//!   one `vitex.metrics.v3` [`Snapshot`] — counters, histograms, and for a
//!   `MultiEngine` one row per subscription and per active plan group
//!   (who costs what, ranked by [`Snapshot::top_queries`]).
//! * [`machine::TwigM`] — the machine itself, read through
//!   [`Engine::machine`] or a plan group: its compiled spec and its
//!   statistics. Only the engines drive it.
//!
//! ```
//! let xml = "<book><section><author>C</author>\
//!            <table><position>B</position><cell>A</cell></table>\
//!            </section></book>";
//! let matches = vitex_core::evaluate_str(xml, "//section[author]//table[position]//cell")
//!     .unwrap();
//! assert_eq!(matches.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod bitset;
pub mod builder;
/// Inert names the frozen `benchmark/` compiles against (ROADMAP item 5(i) retires them).
#[doc(hidden)]
pub mod compat;
pub mod driver;
pub mod engine;
pub mod error;
pub mod intern;
pub mod machine;
pub mod multi;
pub mod plan;
pub mod predicate;
pub mod result;
mod session;
pub mod stats;
pub mod telemetry;

pub use builder::{BuildError, MachineSpec};
pub use driver::{DocumentDriver, EventSink};
pub use engine::{evaluate_reader, evaluate_str, Engine, EvalOutput};
pub use error::{EngineError, EngineResult};
pub use intern::{Interner, Symbol};
pub use machine::TwigM;
pub use multi::{MultiEngine, MultiOutput};
pub use plan::{PlanGroup, QueryPlanner};
pub use result::{Match, MatchKind, MatchRef, QueryId, Text};
pub use stats::{Bill, MachineStats, PlanStats, StreamStats};
pub use telemetry::{Snapshot, Telemetry};

#[doc(hidden)]
pub use compat::{PlacementSnapshot, ShardSession, ShardedEngine};
