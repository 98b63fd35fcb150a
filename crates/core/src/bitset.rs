//! A small inline bitset for stack-entry match flags.
//!
//! A TwigM stack entry records, per predicate child of its query node,
//! whether a complete match of that child's subtree has been bookkept onto
//! it (the paper's "information about the match status of its children in
//! the query tree"). Queries almost never have more than 64 predicate
//! children on one node, so the set is a single `u64` inline, with a heap
//! spill only for pathological queries.

/// A fixed-universe bitset sized at machine-build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmallBitSet {
    /// Up to 64 bits inline.
    Inline(u64),
    /// More than 64 bits.
    Spilled(Box<[u64]>),
}

impl SmallBitSet {
    /// An empty set able to hold `universe` bits.
    pub fn empty(universe: usize) -> Self {
        if universe <= 64 {
            SmallBitSet::Inline(0)
        } else {
            SmallBitSet::Spilled(vec![0u64; universe.div_ceil(64)].into_boxed_slice())
        }
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        match self {
            SmallBitSet::Inline(w) => {
                debug_assert!(i < 64);
                *w |= 1 << i;
            }
            SmallBitSet::Spilled(ws) => ws[i / 64] |= 1 << (i % 64),
        }
    }

    /// Tests bit `i`.
    pub fn get(&self, i: usize) -> bool {
        match self {
            SmallBitSet::Inline(w) => {
                debug_assert!(i < 64);
                *w & (1 << i) != 0
            }
            SmallBitSet::Spilled(ws) => ws[i / 64] & (1 << (i % 64)) != 0,
        }
    }

    /// Whether the first `universe` bits are all set.
    pub fn all_set(&self, universe: usize) -> bool {
        match self {
            SmallBitSet::Inline(w) => {
                if universe == 0 {
                    true
                } else if universe == 64 {
                    *w == u64::MAX
                } else {
                    debug_assert!(universe < 64);
                    let mask = (1u64 << universe) - 1;
                    *w & mask == mask
                }
            }
            SmallBitSet::Spilled(ws) => {
                let full_words = universe / 64;
                if ws[..full_words].iter().any(|&w| w != u64::MAX) {
                    return false;
                }
                let rem = universe % 64;
                rem == 0 || ws[full_words] & ((1u64 << rem) - 1) == (1u64 << rem) - 1
            }
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        match self {
            SmallBitSet::Inline(w) => w.count_ones(),
            SmallBitSet::Spilled(ws) => ws.iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// Approximate heap bytes used by this set (0 when inline).
    pub fn heap_bytes(&self) -> usize {
        match self {
            SmallBitSet::Inline(_) => 0,
            SmallBitSet::Spilled(ws) => ws.len() * 8,
        }
    }
}

/// A growable bitset over machine indices, used by the multi-query
/// dispatch index ([`crate::multi::MultiEngine`]): one word-packed set per
/// interned element name, iterated with bit-scanning so an event's cost is
/// proportional to the number of *interested* machines, not to the number
/// of registered queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynBitSet {
    words: Vec<u64>,
}

impl DynBitSet {
    /// An empty set (no capacity reserved).
    pub fn new() -> Self {
        DynBitSet::default()
    }

    /// Sets bit `i`, growing as needed.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Clears bit `i` (a no-op when it is not set). Supports the
    /// incremental unsubscribe path of the multi-query planner.
    pub fn remove(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Clears every bit, keeping the storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Calls `f` with each set bit's index, ascending.
    pub fn for_each(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Calls `f` with each index set in `self` **or** `other`, ascending.
    /// The union is formed word-by-word; nothing is allocated.
    pub fn union_for_each(&self, other: &DynBitSet, mut f: impl FnMut(usize)) {
        let longest = self.words.len().max(other.words.len());
        for wi in 0..longest {
            let mut w = self.words.get(wi).copied().unwrap_or(0)
                | other.words.get(wi).copied().unwrap_or(0);
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_set_get() {
        let mut s = SmallBitSet::empty(5);
        assert!(!s.get(0));
        assert!(!s.all_set(5));
        for i in 0..5 {
            s.set(i);
        }
        assert!(s.all_set(5));
        assert_eq!(s.count(), 5);
        assert!(matches!(s, SmallBitSet::Inline(_)));
        assert_eq!(s.heap_bytes(), 0);
    }

    #[test]
    fn zero_universe_is_trivially_complete() {
        let s = SmallBitSet::empty(0);
        assert!(s.all_set(0));
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn exactly_64_bits_inline() {
        let mut s = SmallBitSet::empty(64);
        assert!(matches!(s, SmallBitSet::Inline(_)));
        for i in 0..63 {
            s.set(i);
        }
        assert!(!s.all_set(64));
        s.set(63);
        assert!(s.all_set(64));
    }

    #[test]
    fn spilled_set_get() {
        let mut s = SmallBitSet::empty(130);
        assert!(matches!(s, SmallBitSet::Spilled(_)));
        assert!(s.heap_bytes() >= 24);
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.get(0) && s.get(64) && s.get(129));
        assert!(!s.get(1) && !s.get(65) && !s.get(128));
        assert_eq!(s.count(), 3);
        assert!(!s.all_set(130));
        for i in 0..130 {
            s.set(i);
        }
        assert!(s.all_set(130));
    }

    #[test]
    fn dyn_bitset_insert_iterate() {
        let mut s = DynBitSet::new();
        assert!(s.is_empty());
        for i in [0usize, 3, 63, 64, 130] {
            s.insert(i);
        }
        let mut got = Vec::new();
        s.for_each(|i| got.push(i));
        assert_eq!(got, [0, 3, 63, 64, 130]);
    }

    #[test]
    fn dyn_bitset_remove() {
        let mut s = DynBitSet::new();
        s.insert(3);
        s.insert(70);
        s.remove(3);
        s.remove(500); // out of range: no-op
        let mut got = Vec::new();
        s.for_each(|i| got.push(i));
        assert_eq!(got, [70]);
        s.remove(70);
        assert!(s.is_empty());
    }

    #[test]
    fn dyn_bitset_union_iteration() {
        let mut a = DynBitSet::new();
        a.insert(1);
        a.insert(200);
        let mut b = DynBitSet::new();
        b.insert(1);
        b.insert(70);
        let mut got = Vec::new();
        a.union_for_each(&b, |i| got.push(i));
        assert_eq!(got, [1, 70, 200], "union, deduplicated, ascending");
        let mut got = Vec::new();
        b.union_for_each(&a, |i| got.push(i));
        assert_eq!(got, [1, 70, 200], "length mismatch handled both ways");
        let empty = DynBitSet::new();
        let mut got = Vec::new();
        empty.union_for_each(&a, |i| got.push(i));
        assert_eq!(got, [1, 200]);
    }

    #[test]
    fn partial_prefix_all_set() {
        // all_set checks only the first `universe` bits.
        let mut s = SmallBitSet::empty(3);
        s.set(0);
        s.set(1);
        s.set(2);
        assert!(s.all_set(3));
        assert!(s.all_set(2));
        assert!(!s.get(3));
    }
}
