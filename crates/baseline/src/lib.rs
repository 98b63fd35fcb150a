//! # vitex-baseline — comparison evaluators for the ViteX reproduction
//!
//! The ViteX paper argues against two alternatives; this crate implements
//! both, plus an in-memory oracle used as the correctness gold standard for
//! the differential test suites:
//!
//! * [`dom`] + [`oracle`] — a conventional **non-streaming** evaluator: the
//!   document is materialized as a tree and the query evaluated with random
//!   access and memoized recursion (polynomial, obviously correct — the
//!   paper's observation that "these challenges are not present in a
//!   non-streaming XML query evaluation algorithm"). Every TwigM result is
//!   differentially checked against it.
//! * [`naive`] — the paper's strawman: a **streaming** evaluator that
//!   explicitly stores pattern matches (embeddings) and enumerates them to
//!   test predicates. Worst-case exponential in the query size on recursive
//!   data; experiment E3 measures exactly that blowup against TwigM's
//!   polynomial bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod naive;
pub mod oracle;

pub use dom::Document;
pub use naive::{NaiveConfig, NaiveError, NaiveEvaluator};
pub use oracle::OracleMatch;
