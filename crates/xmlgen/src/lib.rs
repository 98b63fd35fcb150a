//! # vitex-xmlgen — synthetic XML workloads for the ViteX reproduction
//!
//! The paper evaluates on the PIR Protein Sequence Database (75 MB) and
//! motivates the algorithm with deeply recursive documents (its Figure 1).
//! Neither dataset is redistributable here, so this crate generates
//! structurally faithful synthetic equivalents:
//!
//! * [`protein`] — a `ProteinDatabase` of `ProteinEntry` records mirroring
//!   the PIR schema: shallow, wide, attribute-rich, with long `sequence`
//!   text. Sized by target bytes; used by experiments E1/E2/E4.
//! * [`recursive`] — the paper's Figure 1 pattern, parameterized: nested
//!   `section`s containing nested `table`s with `cell`s, `position`s and
//!   `author`s appearing (or not) behind the candidates. The workload on
//!   which pattern-match counts explode; used by E3/E6.
//! * [`random`] — seeded random trees over a small tag alphabet, the fuzz
//!   half of the differential test suites.
//! * [`auction`] — an XMark-inspired auction site snapshot for workload
//!   variety in E4.
//!
//! All generators are deterministic in their seed and stream through
//! [`vitex_xmlsax::writer::XmlWriter`], so multi-hundred-megabyte documents
//! can be produced without materializing them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod protein;
pub mod random;
pub mod recursive;

use std::io::Write;

use vitex_xmlsax::writer::{WriteResult, XmlWriter};

/// Renders a generator into an in-memory string.
pub fn to_string(generate: impl FnOnce(&mut XmlWriter<&mut Vec<u8>>) -> WriteResult<()>) -> String {
    let mut buf = Vec::new();
    {
        let mut w = XmlWriter::new(&mut buf);
        generate(&mut w).expect("in-memory generation cannot fail");
        w.finish().expect("in-memory generation cannot fail");
    }
    String::from_utf8(buf).expect("writer emits UTF-8")
}

/// Renders a generator into any sink (e.g. a file or a counting sink).
pub fn to_writer<W: Write>(
    sink: W,
    generate: impl FnOnce(&mut XmlWriter<W>) -> WriteResult<()>,
) -> WriteResult<u64> {
    let mut w = XmlWriter::new(sink);
    generate(&mut w)?;
    w.finish()?;
    Ok(w.bytes_written())
}

/// A sink that counts bytes and discards them — used to measure generator
/// output sizes without allocation.
#[derive(Debug, Default)]
pub struct NullSink {
    bytes: u64,
}

impl NullSink {
    /// Bytes "written" so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_string_produces_wellformed_xml() {
        let s = to_string(|w| {
            w.start_element("a")?;
            w.leaf("b", "x")
        });
        assert_eq!(s, "<a><b>x</b></a>");
        vitex_xmlsax::XmlReader::from_str(&s).collect_events().unwrap();
    }

    #[test]
    fn null_sink_counts() {
        let mut s = NullSink::default();
        let n = to_writer(&mut s, |w| w.leaf("a", "hello")).unwrap();
        assert_eq!(n, s.bytes());
        assert_eq!(n, "<a>hello</a>".len() as u64);
    }
}
