//! # vitex-xpath — the XPath front-end of the ViteX system
//!
//! This crate implements the "XPath parser" module of the ViteX architecture
//! (ICDE 2005, Figure 2): it turns the textual XPath fragment
//! **XP{/, //, *, []}** — child axes, descendant axes, wildcards and
//! predicates, extended with attribute steps, `text()` steps and value
//! comparisons so the paper's own example queries are expressible — into
//!
//! 1. an [`ast::Query`] abstract syntax tree, and
//! 2. a normalized [`query_tree::QueryTree`] *twig*: the tree representation
//!    the paper's TwigM builder consumes, with a distinguished **main path**
//!    (whose leaf is the result node) and predicate subtrees hanging off it.
//!
//! The [`ast`] types mirror the accepted grammar production by production.
//! Queries the fragment cannot express (positional predicates, reverse axes,
//! functions other than `text()`) are rejected with precise error messages.
//!
//! A seeded [`generate::QueryGenerator`] produces random well-formed queries
//! for the differential test suites and the query-scaling experiments (E5,
//! E7).
//!
//! ```
//! use vitex_xpath::parse;
//!
//! let q = parse("//section[author]//table[position]//cell").unwrap();
//! let tree = vitex_xpath::query_tree::QueryTree::build(&q).unwrap();
//! assert_eq!(tree.main_path().len(), 3);         // section, table, cell
//! assert_eq!(tree.node(tree.result()).name(), Some("cell"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod display;
pub mod error;
pub mod generate;
pub mod lexer;
pub mod parser;
pub mod query_tree;

pub use ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
pub use error::{ParseError, ParseResult};
pub use parser::parse;
pub use query_tree::{NodeKind, QueryTree};
