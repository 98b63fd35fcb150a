//! Query solutions ("matches") emitted by the machine.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use vitex_xmlsax::pos::ByteSpan;

/// Document-order node identifier assigned by the engine: every element,
/// attribute and text node gets the next integer as it is encountered.
/// (The paper subscripts nodes by line number — `cell_8` — for the same
/// purpose; byte-offset-free ids keep matches comparable across
/// serializations.)
pub type NodeId = u64;

/// A registered standing query's handle in the multi-query engine.
///
/// Ids are dense registration indices and stay valid for the engine's
/// lifetime — [`crate::multi::MultiEngine::remove_query`] retires an id
/// without renumbering the rest. Lives here (with [`NodeId`]) rather than
/// in `multi` because the plan layer attaches subscriber lists to shared
/// machines without otherwise depending on the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// What kind of document node a match binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// An element node.
    Element,
    /// An attribute node.
    Attribute,
    /// A text node.
    Text,
}

/// One query solution as the machine hands it out: a binding of the
/// query's result node, with `name` and `value` borrowed from the machine's
/// string pool for the length of the callback.
///
/// `Copy` and allocation-free: a shared plan group hands one solution to
/// all the subscribers a binding reaches in a single callback, so fanning
/// it out to thousands of them never copies the payload — nor builds an
/// owned [`Match`] unless a caller asks for one (`Match::from`, which
/// keeps a name or value of at most [`Text::INLINE_CAP`] bytes inline and
/// allocates only for a longer one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRef<'a> {
    /// Kind of the matched node.
    pub kind: MatchKind,
    /// Document-order id of the matched node.
    pub node: NodeId,
    /// Element name or attribute name (`None` for text nodes).
    pub name: Option<&'a str>,
    /// Byte span in the source stream (see [`Match::span`]).
    pub span: ByteSpan,
    /// Attribute value or text content (`None` for elements).
    pub value: Option<&'a str>,
    /// Depth of the matched node's element context (see [`Match::level`]).
    pub level: u32,
}

impl fmt::Display for MatchRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            MatchKind::Element => {
                write!(f, "element <{}> #{} @{}", self.name.unwrap_or("?"), self.node, self.span)
            }
            MatchKind::Attribute => write!(
                f,
                "attribute @{}={:?} #{}",
                self.name.unwrap_or("?"),
                self.value.unwrap_or(""),
                self.node
            ),
            MatchKind::Text => write!(f, "text {:?} #{}", self.value.unwrap_or(""), self.node),
        }
    }
}

/// An owned match's name or value: a string of at most
/// [`Text::INLINE_CAP`] bytes is kept inline, a longer one in one shared
/// allocation.
///
/// Reads as a `str` (`Deref`), and compares, hashes, orders and prints as
/// the `str` it holds, whichever way that is kept. Cloning an inline
/// `Text` copies 16 bytes and touches no reference count, so the copies
/// [`crate::MultiEngine::run`] makes of a binding's matches for each of
/// its subscribers cost a plain copy per short string.
pub struct Text(Repr);

/// `Text`'s two representations. The inline one is 16 bytes, aligned so
/// that a copy moves two words; its length byte's niche holds the tag,
/// so `Text` and `Option<Text>` are 16 bytes too.
enum Repr {
    Inline(Inline),
    Shared(Arc<String>),
}

/// Up to [`Text::INLINE_CAP`] bytes of a `str`, the rest zero, and one
/// byte of padding. A 15-byte buffer would fit in the same 16 bytes, but
/// with it cloning a match measured about twice as long.
#[derive(Clone, Copy)]
#[repr(C, align(8))]
struct Inline {
    buf: [u8; Text::INLINE_CAP],
    len: Len,
}

/// An inline length, `0..=14`: an enum, so that the byte leaves a niche.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    L9,
    L10,
    L11,
    L12,
    L13,
    L14,
}

/// Every inline length, indexed by its value.
const LENS: [Len; Text::INLINE_CAP + 1] = {
    use Len::*;
    [L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12, L13, L14]
};

const _: () = assert!(std::mem::size_of::<Option<Text>>() == 16);
const _: () = assert!(std::mem::size_of::<Match>() == 64);

impl Text {
    /// The longest string, in bytes, kept inline: building a `Text` of at
    /// most this many bytes allocates nothing, and cloning one copies it.
    pub const INLINE_CAP: usize = 14;
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text(match LENS.get(s.len()) {
            Some(&len) => {
                let mut buf = [0; Text::INLINE_CAP];
                buf[..s.len()].copy_from_slice(s.as_bytes());
                Repr::Inline(Inline { buf, len })
            }
            None => Repr::Shared(Arc::new(s.to_owned())),
        })
    }
}

// Written by hand, not derived: an inline `Text` is one 16-byte copy.
impl Clone for Text {
    #[inline]
    fn clone(&self) -> Self {
        Text(match &self.0 {
            Repr::Inline(inline) => Repr::Inline(*inline),
            Repr::Shared(shared) => Repr::Shared(Arc::clone(shared)),
        })
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        match &self.0 {
            Repr::Inline(inline) => {
                let text = std::str::from_utf8(&inline.buf[..inline.len as usize]);
                debug_assert!(text.is_ok(), "inline bytes are copied from a whole `str`");
                text.unwrap_or_default()
            }
            Repr::Shared(shared) => shared,
        }
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        **self == **other
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        **self == *other
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// One query solution, owned: what the collecting adapter
/// ([`crate::MultiEngine::run`], and [`crate::Engine::run`] over it)
/// keeps.
///
/// The string payloads (`name`, `value`) are [`Text`]s: one of at most
/// [`Text::INLINE_CAP`] bytes lives inside the match, a longer one in one
/// shared allocation. So a match is 64 bytes, building it allocates
/// nothing for short names and values, and copying it for another
/// subscription touches a reference count only for a long string.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Kind of the matched node.
    pub kind: MatchKind,
    /// Document-order id of the matched node.
    pub node: NodeId,
    /// Element name or attribute name (`None` for text nodes).
    pub name: Option<Text>,
    /// Byte span in the source stream: the whole element for elements, the
    /// owning start tag for attributes, the raw text run for text nodes.
    /// Slicing a retained document with this span yields the result
    /// *fragment* the paper's system outputs.
    pub span: ByteSpan,
    /// Attribute value or text content (`None` for elements — their content
    /// is identified by `span` so the machine's memory stays independent of
    /// match sizes).
    pub value: Option<Text>,
    /// Depth of the matched node's element context (the element itself for
    /// element matches; the owner element for attributes and text).
    pub level: u32,
}

impl Match {
    /// The borrowed view of this match.
    pub fn as_ref(&self) -> MatchRef<'_> {
        MatchRef {
            kind: self.kind,
            node: self.node,
            name: self.name.as_deref(),
            span: self.span,
            value: self.value.as_deref(),
            level: self.level,
        }
    }
}

impl From<MatchRef<'_>> for Match {
    fn from(m: MatchRef<'_>) -> Self {
        Match {
            kind: m.kind,
            node: m.node,
            name: m.name.map(Text::from),
            span: m.span,
            value: m.value.map(Text::from),
            level: m.level,
        }
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
mod tests {
    use super::*;

    fn m(node: NodeId) -> Match {
        Match {
            kind: MatchKind::Element,
            node,
            name: Some("a".into()),
            span: ByteSpan::new(0, 1),
            value: None,
            level: 1,
        }
    }

    #[test]
    fn display_formats() {
        assert!(m(7).to_string().contains("element <a> #7"));
        let attr = Match {
            kind: MatchKind::Attribute,
            node: 2,
            name: Some("id".into()),
            span: ByteSpan::new(0, 4),
            value: Some("x".into()),
            level: 1,
        };
        assert_eq!(attr.to_string(), "attribute @id=\"x\" #2");
        assert_eq!(Match::from(attr.as_ref()), attr, "an owned match round-trips");
        let text = Match {
            kind: MatchKind::Text,
            node: 3,
            name: None,
            span: ByteSpan::new(0, 4),
            value: Some("hi".into()),
            level: 1,
        };
        assert_eq!(text.to_string(), "text \"hi\" #3");
    }

    fn inline(t: &Text) -> bool {
        matches!(t.0, Repr::Inline(_))
    }

    /// `s` kept shared whatever its length, as `From` keeps only long ones.
    fn shared(s: &str) -> Text {
        Text(Repr::Shared(Arc::new(s.to_owned())))
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn text_keeps_up_to_the_cap_inline_and_longer_strings_shared() {
        for (s, kept_inline) in [
            ("", true),
            ("fourteen bytes", true),
            ("fifteen bytes!!", false),
            // A two-byte character on each side of the cap.
            ("twelve bytes\u{e9}", true),
            ("thirteen byte\u{e9}", false),
        ] {
            let t = Text::from(s);
            assert_eq!(s.len() <= Text::INLINE_CAP, kept_inline, "{s:?}: {} bytes", s.len());
            assert_eq!(inline(&t), kept_inline, "{s:?}");
            assert_eq!(&*t, s);
            assert_eq!(t, *s);
            assert_eq!(t.clone(), t);
            assert_eq!(&*t.clone(), s);
        }
        assert_eq!("twelve bytes\u{e9}".len(), 14);
        assert_eq!("thirteen byte\u{e9}".len(), 15);
    }

    #[test]
    fn text_compares_hashes_and_orders_as_its_str_however_it_is_kept() {
        let words = ["", "a", "ab", "b", "fourteen bytes", "fifteen bytes!!"];
        for x in words {
            let (kept, forced) = (Text::from(x), shared(x));
            assert!(!inline(&forced));
            assert_eq!(kept, forced, "{x:?}");
            assert_eq!(hash_of(&kept), hash_of(x), "{x:?}");
            assert_eq!(hash_of(&forced), hash_of(x), "{x:?}");
            assert_eq!(<Text as Borrow<str>>::borrow(&kept), x);
            assert_eq!(kept.as_ref(), x);
            for y in words {
                assert_eq!(kept.cmp(&shared(y)), x.cmp(y), "{x:?} against {y:?}");
                assert_eq!(forced.cmp(&Text::from(y)), x.cmp(y), "{x:?} against {y:?}");
                assert_eq!(kept == shared(y), x == y, "{x:?} against {y:?}");
            }
        }
        let set: std::collections::HashSet<Text> = words.iter().map(|&w| shared(w)).collect();
        assert!(words.iter().all(|w| set.contains(*w)), "looked up by `str`");
    }

    #[test]
    fn text_prints_what_its_str_prints() {
        for s in ["", "a \"quoted\"\tvalue", "a longer value with\nescapes \u{e9}"] {
            for t in [Text::from(s), shared(s)] {
                assert_eq!(t.to_string(), s);
                assert_eq!(format!("{t:?}"), format!("{s:?}"));
            }
        }
    }

    #[test]
    fn an_owned_match_round_trips_through_its_borrowed_view() {
        for (name, value) in [("id", "x"), ("a-rather-long-attribute", "a value well past the cap")]
        {
            let attr = Match {
                kind: MatchKind::Attribute,
                node: 2,
                name: Some(name.into()),
                span: ByteSpan::new(0, 4),
                value: Some(value.into()),
                level: 1,
            };
            let (n, v) = (attr.name.as_ref().unwrap(), attr.value.as_ref().unwrap());
            let cap = Text::INLINE_CAP;
            assert_eq!((inline(n), inline(v)), (name.len() <= cap, value.len() <= cap));
            assert_eq!(Match::from(attr.as_ref()), attr);
            assert_eq!(attr.as_ref().name, Some(name));
            assert_eq!(attr.clone().as_ref().value, Some(value));
        }
    }
}
