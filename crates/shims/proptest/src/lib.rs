//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this shim implements
//! the subset of proptest the workspace's test suites use:
//!
//! * the [`proptest!`] macro with an inner `#![proptest_config(..)]`
//!   attribute and `name in strategy` argument bindings,
//! * integer range strategies (`0u64..5000`, `0u8..=255`, …),
//! * string strategies written as regex-ish literals (`".{0,40}"`,
//!   `"[a-z ]{0,120}"`),
//! * [`collection::vec`] and [`any`],
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Cases are sampled from a per-test deterministic RNG; there is no
//! shrinking — on failure the panic message carries the inputs via the
//! standard assert formatting, which is enough to reproduce (all inputs
//! are printable seeds, lengths or short strings). The case count honors
//! the `PROPTEST_CASES` environment variable, like upstream.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration; only `cases` is interpreted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
    /// Accepted for source compatibility; unused.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

impl ProptestConfig {
    /// The effective case count: `PROPTEST_CASES` overrides the config.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(self.cases)
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `any::<T>()` — arbitrary values of a type.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

/// Types with a canonical "any value" distribution.
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen_range(<$t>::MIN..=<$t>::MAX)
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// String strategies written as regex-ish literals.
///
/// Supported shape: one atom — `.` (any XML-plausible char) or a `[...]`
/// character class with escapes and `a-z` ranges — followed by a `{m,n}`
/// repetition. This covers every pattern the workspace's tests use; other
/// patterns panic loudly rather than silently generating garbage.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        let (atom, min, max) = parse_pattern(self)
            .unwrap_or_else(|| panic!("unsupported test string pattern: {self:?}"));
        let len = rng.gen_range(min..=max);
        (0..len).map(|_| atom.sample_char(rng)).collect()
    }
}

enum Atom {
    /// `.` — any char; biased toward markup-hostile content.
    Dot,
    /// `[...]` — an explicit alternative set.
    Class(Vec<char>),
}

impl Atom {
    fn sample_char(&self, rng: &mut StdRng) -> char {
        match self {
            Atom::Dot => {
                // Mix printable ASCII with XML-special and non-ASCII chars
                // so escaping and multi-byte paths both get exercised.
                match rng.gen_range(0..10u32) {
                    0 => ['&', '<', '>', '"', '\'', ';'][rng.gen_range(0..6usize)],
                    1 => ['é', 'Ω', '日', '\u{2028}', '\u{FFFD}'][rng.gen_range(0..5usize)],
                    _ => char::from(rng.gen_range(0x20..0x7Fu8)),
                }
            }
            Atom::Class(chars) => chars[rng.gen_range(0..chars.len())],
        }
    }
}

fn parse_pattern(pat: &str) -> Option<(Atom, usize, usize)> {
    let (atom, rest) = if let Some(rest) = pat.strip_prefix('.') {
        (Atom::Dot, rest)
    } else if let Some(body) = pat.strip_prefix('[') {
        let close = find_class_end(body)?;
        let mut chars = Vec::new();
        let class: Vec<char> = body[..close].chars().collect();
        let mut i = 0;
        while i < class.len() {
            match class[i] {
                '\\' => {
                    chars.push(*class.get(i + 1)?);
                    i += 2;
                }
                c if i + 2 < class.len() && class[i + 1] == '-' && class[i + 2] != ']' => {
                    for r in c..=class[i + 2] {
                        chars.push(r);
                    }
                    i += 3;
                }
                c => {
                    chars.push(c);
                    i += 1;
                }
            }
        }
        if chars.is_empty() {
            return None;
        }
        (Atom::Class(chars), &body[close + 1..])
    } else {
        return None;
    };
    let bounds = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = bounds.split_once(',')?;
    Some((atom, min.trim().parse().ok()?, max.trim().parse().ok()?))
}

/// Index of the unescaped `]` closing a character class body.
fn find_class_end(body: &str) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b']' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// `vec(element_strategy, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Runs one property test: samples `cases` inputs and calls `body` on each.
pub fn run_cases(test_name: &str, config: &ProptestConfig, mut body: impl FnMut(&mut StdRng)) {
    // Deterministic per-test seed: tests are reproducible run to run.
    let seed =
        test_name.bytes().fold(0xC0FFEEu64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..config.effective_cases() {
        body(&mut rng);
    }
}

/// Assertion macro used inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion macro used inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// The property-test harness macro.
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]` that
/// samples the strategies `cases` times and runs the body.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_cases(stringify!($name), &config, |rng| {
                    $(let $arg = $crate::Strategy::sample(&$strat, rng);)+
                    $body
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// One-line import for test files, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn int_ranges_in_bounds(x in 5u64..50, y in 0u8..=255) {
            prop_assert!((5..50).contains(&x));
            let _ = y;
        }

        #[test]
        fn vec_strategy_lengths(v in crate::collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
        }

        #[test]
        fn string_patterns(s in ".{0,40}", t in "[a-c\\]]{1,5}") {
            prop_assert!(s.chars().count() <= 40);
            prop_assert!((1..=5).contains(&t.chars().count()));
            prop_assert!(t.chars().all(|c| matches!(c, 'a'..='c' | ']')));
        }
    }

    #[test]
    fn dot_pattern_hits_specials_eventually() {
        use rand::SeedableRng;
        let mut rng = crate::StdRng::seed_from_u64(9);
        let strat = ".{200,200}";
        let s = crate::Strategy::sample(&strat, &mut rng);
        assert!(s.contains('&') || s.contains('<') || s.contains('>'));
    }
}
