//! Element-name interning: strings → dense `u32` symbols.
//!
//! The pub/sub workload the paper motivates ("electronic personalized
//! newspapers") runs *thousands* of standing queries over one stream. With
//! raw string dispatch every `startElement` hashes the tag name once per
//! machine; with interning the name is resolved to a [`Symbol`] **once per
//! event** by the document driver, and every downstream comparison — the
//! [`crate::plan::StepTrie`]'s per-name step lists — is an integer index.
//!
//! Interners are deliberately *local* (owned by an engine, shared by the
//! machines registered with it), not global: symbols from different
//! interners are incomparable, and nothing here is `static` or locked.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned element name: a dense index into its [`Interner`].
///
/// Symbols are only meaningful relative to the interner that produced
/// them; the driver resolves each document name against the engine's
/// interner exactly once per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index (0-based, contiguous per interner).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string-to-[`Symbol`] table with stable, dense indices.
///
/// Each name is stored in one shared allocation (`Arc<str>`), referenced
/// by both the hash map and the index-ordered vector.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, Symbol>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the symbol for `name`, creating one if needed. Used at
    /// query-compile time: query nametests populate the table.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        // Symbols are `u32`s: 2^32 names, each an `Arc` and a map entry,
        // would take hundreds of GiB before this could fail.
        #[allow(clippy::expect_used)]
        let sym = Symbol(u32::try_from(self.names.len()).expect("interner overflow"));
        let shared: Arc<str> = name.into();
        self.names.push(Arc::clone(&shared));
        self.map.insert(shared, sym);
        sym
    }

    /// Looks up `name` without inserting. Used on the hot path: document
    /// names that no registered query mentions stay out of the table, so
    /// its size is bounded by the query workload, not the stream.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Approximate heap bytes held by the table (string storage plus map
    /// and vector slots). Feeds the plan-memory accounting of the
    /// multi-query engine (experiment E9).
    pub fn heap_bytes(&self) -> u64 {
        let strings: usize = self.names.iter().map(|n| n.len()).sum();
        let slots = self.names.len()
            * (std::mem::size_of::<Arc<str>>() * 2 + std::mem::size_of::<Symbol>());
        (strings + slots) as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_eq!(i.intern("a"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut i = Interner::new();
        i.intern("known");
        assert_eq!(i.lookup("known").map(Symbol::index), Some(0));
        assert_eq!(i.lookup("unknown"), None);
        assert_eq!(i.len(), 1, "lookup must not grow the table");
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("ProteinEntry");
        assert_eq!(i.resolve(s), "ProteinEntry");
        assert!(!i.is_empty());
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut i = Interner::new();
        assert_eq!(i.heap_bytes(), 0);
        i.intern("a");
        let one = i.heap_bytes();
        assert!(one > 0);
        i.intern("bcdefgh");
        assert!(i.heap_bytes() > one);
    }
}
