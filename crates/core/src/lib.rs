//! # vitex-core — the TwigM streaming XPath machine
//!
//! This crate is the primary contribution of the ViteX paper (Chen,
//! Davidson, Zheng — ICDE 2005): a streaming XPath processor that evaluates
//! XP{/, //, *, []} queries over a single sequential scan of XML in
//! **polynomial time and space**, even though a single XML node may
//! participate in an *exponential* number of pattern matches on recursive
//! data.
//!
//! ## How it works (paper §3; the [`machine`] module doc has the rules in detail)
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
//!   [`machine::CandidateStore`], into no allocation per event.
//!
//! ## Entry points
//!
//! * [`evaluate_str`] / [`evaluate_reader`] — one-call evaluation.
//! * [`engine::Engine`] — incremental: feed events, receive matches via a
//!   callback as soon as they are decidable.
//! * [`multi::MultiEngine`] — publish/subscribe: many standing queries,
//!   one scan, executed through the shared step trie so an event only
//!   touches the machines it can move.
//! * [`shard::ShardedEngine`] — the same pub/sub surface executed on up
//!   to `N` worker threads: plan groups are partitioned across shards,
//!   events broadcast over bounded rings, and per-shard match streams
//!   merged back into the order one thread delivers; its
//!   [`shard::ShardSession`] — the one pipeline every multi-query run
//!   goes through, `MultiEngine::run` included — streams document
//!   collections back-to-back through warm workers.
//! * [`plan::QueryPlanner`] — the shared-prefix query planner behind
//!   `MultiEngine`: canonicalizes queries, dedupes structural duplicates
//!   into one machine with a subscriber fan-out list, and tries main-path
//!   steps so overlapping subscriptions share plan structure. The trie
//!   also *executes*: its nodes own the shared main-path match state,
//!   advanced once per event, so per-event planning scales with distinct
//!   steps instead of with the number of standing queries.
//! * [`driver::DocumentDriver`] — the single SAX event loop (node
//!   numbering, counting, symbol resolution) behind both engines; custom
//!   consumers implement [`driver::EventSink`].
//! * [`machine::TwigM`] — the raw machine, for callers with their own event
//!   source. They also make the [`machine::CandidateStore`] its
//!   transitions are lent (the engines above own theirs) and reset both
//!   between documents.
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

pub mod bitset;
pub mod builder;
pub mod driver;
pub mod engine;
pub mod error;
pub mod intern;
pub mod machine;
pub mod multi;
pub mod plan;
pub mod predicate;
pub mod result;
pub mod shard;
pub mod stats;
pub mod telemetry;

pub use builder::{BuildError, EvalMode, MachineSpec};
pub use driver::{DocumentDriver, EventSink};
pub use engine::{evaluate_reader, evaluate_str, Engine, EvalOutput};
pub use error::{EngineError, EngineResult};
pub use intern::{Interner, Symbol};
pub use machine::{CandidateStore, TwigM};
pub use multi::{MultiEngine, MultiOutput};
pub use plan::{PlanGroup, QueryPlanner};
pub use result::{Match, MatchKind, QueryId};
pub use shard::{PlacementSnapshot, ShardSession, ShardedEngine};
pub use stats::{MachineStats, PlanStats, StreamStats};
pub use telemetry::{Snapshot, Telemetry};
