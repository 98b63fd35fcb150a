//! Speculative chunked parsing — the parallel parse front-end.
//!
//! The sequential [`XmlReader`] is a single-core pipeline; once machine
//! execution is sharded across threads (vitex-core PR 4/5), parsing becomes
//! the end-to-end ceiling. This module breaks that ceiling while keeping
//! the *observable* event stream byte-identical to the sequential reader:
//!
//! 1. **Split.** The (fully buffered) document is cut at candidate chunk
//!    boundaries, each snapped forward to the next `<` byte. `<` cannot
//!    appear in character data or attribute values, so inside element
//!    content every `<` starts markup — the only constructs a `<` can be
//!    *inside* are comments, CDATA sections, PIs and the DOCTYPE (handled
//!    below).
//! 2. **Speculate.** Worker threads parse each chunk as a *document
//!    fragment* ([`XmlReader::fragment`]): parsing starts in content state,
//!    end tags without a local open element are emitted for later
//!    resolution, and byte offsets are absolute while line/column restart
//!    at 1:1. Each worker records the event run, its stop offset, and any
//!    parse error.
//! 3. **Reconcile.** The coordinating thread replays fragments in order.
//!    A fragment is accepted only if it starts exactly where the previous
//!    one stopped; a boundary that was inside a comment/CDATA/PI makes the
//!    previous fragment overshoot it, so the misparsed speculation is
//!    discarded and the hole is re-parsed inline (bounded waste: at worst
//!    the document is parsed twice). During replay the coordinator keeps
//!    the one global open-element stack, so *cross-chunk* well-formedness
//!    (tag matching, depth limits, single root, no text outside the root)
//!    is enforced with the same errors and positions as the sequential
//!    reader, and every event's level, element span, and line/column are
//!    rebased to document-absolute values.
//!
//! Documents with a DOCTYPE fall back to the sequential reader outright:
//! internal-subset entity declarations would have to be visible to workers
//! that may already be parsing ahead of the declaration.
//!
//! The trade: the sequential reader holds O(window) memory; the parallel
//! front-end buffers the document and its speculated events. Use it for
//! throughput, not footprint.

use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::event::XmlEvent;
use crate::name::QName;
use crate::pos::{ByteSpan, TextPosition};
use crate::probe::ProbeHandle;
use crate::reader::{EventSource, ReaderConfig, XmlReader};

/// Chunks smaller than this are not worth a thread hop; the splitter
/// lowers the chunk count instead.
const MIN_CHUNK_BYTES: usize = 32 * 1024;

/// Configuration for [`ParallelReader`].
///
/// The default has `threads: 0` (sequential), no explicit chunk size,
/// and the default [`ReaderConfig`].
#[derive(Debug, Clone, Default)]
pub struct ParallelConfig {
    /// Worker thread count. `0` or `1` selects the sequential reader
    /// (bit-identical by construction, not just by reconciliation).
    pub threads: usize,
    /// Explicit candidate chunk size in bytes (each boundary still snaps
    /// to the next `<`). `None` sizes chunks from the document length and
    /// thread count. Small explicit sizes are for seam testing.
    pub chunk_bytes: Option<usize>,
    /// Configuration for the underlying readers (fragment workers inherit
    /// everything except `max_depth`, which the coordinator enforces
    /// globally).
    pub reader: ReaderConfig,
    /// Test-only fault injection: the worker that claims this chunk index
    /// panics before parsing it. Exercises the poison path — the replay
    /// must surface a clean sticky error, never hang or re-raise.
    #[doc(hidden)]
    pub fail_chunk: Option<usize>,
}

/// Counters describing how a parallel parse went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Fragments parsed speculatively on workers (including chunk 0).
    pub chunks: usize,
    /// Speculative fragments discarded because a boundary fell inside an
    /// opaque construct and the predecessor overshot it.
    pub misspeculated: usize,
    /// Holes re-parsed inline on the coordinating thread.
    pub reparsed: usize,
    /// The document had a DOCTYPE (or a degenerate shape) and was handed
    /// to the sequential reader wholesale.
    pub sequential_fallback: bool,
}

/// One speculatively parsed chunk.
struct Fragment {
    /// Absolute byte offset the parse started at.
    start: u64,
    /// Absolute byte offset the parse stopped at (first event boundary at
    /// or past the chunk's target end — possibly far past it on
    /// misspeculation).
    end: u64,
    /// Reader position at `end`: absolute for chunk 0, fragment-relative
    /// (line/column restart at 1:1) otherwise.
    end_pos: TextPosition,
    /// The event run. `EndDocument` is never stored.
    events: Vec<XmlEvent>,
    /// Terminal parse error, if the chunk ended in one.
    error: Option<XmlError>,
    /// Whether positions in `events`/`error` are already absolute
    /// (chunk 0 runs the ordinary reader from the document start).
    absolute: bool,
}

/// An element the replay has open, for span/name resolution.
struct OpenElem {
    name: QName,
    start_offset: u64,
}

/// The parallel counterpart of [`XmlReader`]: same event stream, produced
/// by speculative chunk parsing on worker threads. See the module docs.
///
/// The constructor spawns the workers and returns immediately; each
/// finished chunk streams back to the coordinator over a channel, so
/// [`next_event`] overlaps replay (and inline hole re-parsing) with the
/// still-running speculative parses.
///
/// [`next_event`]: EventSource::next_event
pub struct ParallelReader {
    inner: Inner,
    /// How the stream ended, once [`Self::next_batch`] has observed it:
    /// `Ok` for `EndDocument` (the batch API never yields it; later calls
    /// return `None`), `Err` for the stream's terminal error (later calls
    /// return it, whatever the inner reader would do when polled again).
    batch_end: Option<XmlResult<()>>,
}

enum Inner {
    /// Sequential fallback: 0/1 threads, DOCTYPE, or empty input.
    Seq {
        reader: Box<XmlReader<Cursor<Vec<u8>>>>,
        stats: ParStats,
    },
    Par(Box<Replay>),
}

impl ParallelReader {
    /// Parses `bytes` on `threads` worker threads with default reader
    /// configuration.
    pub fn from_bytes(bytes: Vec<u8>, threads: usize) -> Self {
        ParallelReader::with_config(bytes, ParallelConfig { threads, ..ParallelConfig::default() })
    }

    /// Parses a string slice (tests and small inputs).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str, threads: usize) -> Self {
        ParallelReader::from_bytes(s.as_bytes().to_vec(), threads)
    }

    /// Parses with explicit configuration.
    pub fn with_config(bytes: Vec<u8>, config: ParallelConfig) -> Self {
        ParallelReader::with_config_probe(bytes, config, None)
    }

    /// Parses with explicit configuration and an observability probe (see
    /// [`crate::probe::ParseProbe`]). The probe receives per-chunk parse
    /// timings from the worker threads as chunks finish (the workers
    /// outlive this constructor and stream fragments back), stitch
    /// timings from the coordinator as the replay progresses, and scanner
    /// byte counts as each internal reader finishes.
    pub fn with_config_probe(
        bytes: Vec<u8>,
        config: ParallelConfig,
        probe: Option<ProbeHandle>,
    ) -> Self {
        let boundaries = if config.threads > 1 && !has_doctype(&bytes) {
            split_points(&bytes, config.threads, config.chunk_bytes)
        } else {
            Vec::new()
        };
        if boundaries.is_empty() {
            let stats = ParStats { sequential_fallback: true, ..ParStats::default() };
            let mut reader =
                Box::new(XmlReader::with_config(Cursor::new(bytes), config.reader.clone()));
            if let Some(p) = probe {
                reader.set_probe(p);
            }
            return ParallelReader { inner: Inner::Seq { reader, stats }, batch_end: None };
        }
        let bytes = Arc::new(bytes);
        let source = spawn_parse_workers(
            &bytes,
            Arc::new(boundaries.clone()),
            config.threads,
            &config.reader,
            config.fail_chunk,
            probe.as_ref(),
        );
        // Fragment starts are fixed by the split, independent of how the
        // speculative parses go: chunk 0 begins at offset 0, chunk i at
        // boundaries[i-1]. Keeping them here lets the replay skip
        // misspeculated fragments and size hole re-parses without waiting
        // for workers that are still running.
        let mut starts = Vec::with_capacity(boundaries.len() + 1);
        starts.push(0u64);
        starts.extend_from_slice(&boundaries);
        let stats = ParStats { chunks: starts.len(), ..ParStats::default() };
        ParallelReader {
            inner: Inner::Par(Box::new(Replay {
                bytes,
                config: config.reader,
                starts,
                source,
                next_frag: 0,
                cur: None,
                cur_event: 0,
                cursor: 0,
                base: TextPosition::START,
                open: Vec::new(),
                root_seen: false,
                done: false,
                failed: None,
                stats,
                probe,
            })),
            batch_end: None,
        }
    }

    /// Pulls the next run of reconciled events without per-event virtual
    /// dispatch: up to an internal cap of owned events per call. The
    /// stream-terminating `EndDocument` is never included — exhaustion is
    /// signalled by `Ok(None)`, after the same end-of-document
    /// well-formedness checks `next_event` performs. An error never
    /// swallows the valid events collected before it: they are returned
    /// first, and the (sticky) error surfaces on the next call.
    pub fn next_batch(&mut self) -> XmlResult<Option<Vec<XmlEvent>>> {
        const BATCH_EVENTS: usize = 256;
        let room = if self.batch_end.is_none() { BATCH_EVENTS } else { 0 };
        let mut events = Vec::with_capacity(room);
        while self.batch_end.is_none() && events.len() < room {
            match self.next_event() {
                Ok(ev) if ev.is_end_document() => self.batch_end = Some(Ok(())),
                Ok(ev) => events.push(ev),
                Err(e) => self.batch_end = Some(Err(e)),
            }
        }
        if !events.is_empty() {
            return Ok(Some(events));
        }
        match &self.batch_end {
            Some(Err(e)) => Err(e.clone()),
            _ => Ok(None),
        }
    }

    /// Counters for this parse. When the sequential fallback was taken,
    /// `sequential_fallback` is set and the remaining counters are zero;
    /// otherwise `chunks` (and, as the replay progresses,
    /// `misspeculated`/`reparsed`) reflect the chunked parse.
    pub fn stats(&self) -> ParStats {
        match &self.inner {
            Inner::Seq { stats, .. } => *stats,
            Inner::Par(replay) => replay.stats,
        }
    }

    /// Convenience: runs the stream to completion, returning all events
    /// including the final `EndDocument` (mirrors
    /// [`XmlReader::collect_events`]).
    pub fn collect_events(mut self) -> XmlResult<Vec<XmlEvent>> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?;
            let done = e.is_end_document();
            events.push(e);
            if done {
                return Ok(events);
            }
        }
    }
}

impl EventSource for ParallelReader {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        match &mut self.inner {
            Inner::Seq { reader, .. } => reader.next_event(),
            Inner::Par(replay) => replay.next_event(),
        }
    }
}

// ------------------------------------------------------------------ //
// Splitting
// ------------------------------------------------------------------ //

/// Fragment start offsets after chunk 0, each snapped to the next `<` at
/// or past a size-based candidate. Empty if the document is too small to
/// split.
fn split_points(bytes: &[u8], threads: usize, chunk_bytes: Option<usize>) -> Vec<u64> {
    let len = bytes.len();
    let chunk = match chunk_bytes {
        Some(c) => c.max(1),
        // Over-split relative to the thread count so the work-stealing
        // loop can balance fragments of uneven parse cost.
        None => (len / (threads * 4).max(1)).max(MIN_CHUNK_BYTES),
    };
    let mut points = Vec::new();
    let mut candidate = chunk;
    while candidate < len {
        match bytes[candidate..].iter().position(|&b| b == b'<') {
            Some(rel) => {
                let at = candidate + rel;
                if at >= len {
                    break;
                }
                if points.last() != Some(&(at as u64)) && at > 0 {
                    points.push(at as u64);
                }
                candidate = at.max(candidate) + chunk.max(1);
            }
            None => break,
        }
    }
    points
}

/// Whether the prolog contains a DOCTYPE (entity declarations cannot be
/// made visible to workers already parsing ahead of them, so such
/// documents take the sequential path).
fn has_doctype(bytes: &[u8]) -> bool {
    let mut i = if bytes.starts_with(b"\xEF\xBB\xBF") { 3 } else { 0 };
    loop {
        while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        let rest = &bytes[i..];
        if rest.is_empty() || rest[0] != b'<' {
            return false;
        }
        if rest.starts_with(b"<!--") {
            match find_sub(&bytes[i + 4..], b"-->") {
                Some(j) => i += 4 + j + 3,
                None => return false,
            }
        } else if rest.starts_with(b"<?") {
            match find_sub(&bytes[i + 2..], b"?>") {
                Some(j) => i += 2 + j + 2,
                None => return false,
            }
        } else if rest.starts_with(b"<!DOCTYPE") {
            return true;
        } else {
            // Root start tag (or malformed markup the parse will reject).
            return false;
        }
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

// ------------------------------------------------------------------ //
// Speculative workers
// ------------------------------------------------------------------ //

/// Speculative fragments streamed back from the parse workers as each
/// chunk finishes, out of claim order. The replay blocks in [`wait`] only
/// when it actually needs a fragment that has not arrived yet — chunks it
/// will skip (misspeculations) never force a wait.
///
/// A worker that dies mid-chunk is detected by channel disconnection with
/// the wanted slot still empty (work-stealing guarantees the chunk was
/// claimed by *some* worker, so if every sender is gone and the fragment
/// never arrived, its worker panicked); [`wait`] then returns a clean
/// parse error instead of hanging or re-raising the panic.
///
/// [`wait`]: FragStream::wait
struct FragStream {
    rx: Receiver<(usize, Fragment)>,
    slots: Vec<Option<Fragment>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl FragStream {
    fn wait(&mut self, idx: usize, at: TextPosition) -> XmlResult<Fragment> {
        loop {
            if let Some(frag) = self.slots[idx].take() {
                return Ok(frag);
            }
            match self.rx.recv() {
                Ok((i, frag)) => self.slots[i] = Some(frag),
                Err(_) => {
                    return Err(XmlError::syntax(
                        "parse worker panicked before delivering its chunk",
                        at,
                    ))
                }
            }
        }
    }
}

impl Drop for FragStream {
    fn drop(&mut self) {
        // Workers never block (the fragment channel is unbounded), so this
        // join only waits for in-flight parses. A panicked worker's Err is
        // deliberately ignored: the panic already surfaced as a clean
        // sticky error through `wait`.
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns up to `threads` owned worker threads that steal chunk indices
/// from a shared counter, parse chunk 0 with the ordinary reader (absolute
/// positions) and every boundary-delimited fragment speculatively, and
/// send each finished fragment back the moment it is done.
fn spawn_parse_workers(
    bytes: &Arc<Vec<u8>>,
    boundaries: Arc<Vec<u64>>,
    threads: usize,
    config: &ReaderConfig,
    fail_chunk: Option<usize>,
    probe: Option<&ProbeHandle>,
) -> FragStream {
    let n = boundaries.len() + 1;
    let workers = threads.min(n).max(1);
    let next = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = channel();
    let handles = (0..workers)
        .map(|w| {
            let bytes = Arc::clone(bytes);
            let boundaries = Arc::clone(&boundaries);
            let config = config.clone();
            let probe = probe.cloned();
            let next = Arc::clone(&next);
            let tx = tx.clone();
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if fail_chunk == Some(i) {
                    panic!("injected parse-worker fault at chunk {i}");
                }
                let target_end =
                    if i < boundaries.len() { boundaries[i] } else { bytes.len() as u64 };
                let t0 = probe.as_ref().map(|_| Instant::now());
                let frag = if i == 0 {
                    parse_prefix(&bytes, target_end, &config, probe.as_ref())
                } else {
                    parse_fragment(&bytes, boundaries[i - 1], target_end, &config, probe.as_ref())
                };
                if let (Some(p), Some(t0)) = (probe.as_ref(), t0) {
                    let covered = frag.end.saturating_sub(frag.start);
                    p.on_chunk(w, covered, t0, t0.elapsed().as_nanos() as u64);
                }
                if tx.send((i, frag)).is_err() {
                    // Coordinator gone (reader dropped early): stop parsing.
                    break;
                }
            })
        })
        .collect();
    FragStream { rx, slots: (0..n).map(|_| None).collect(), handles }
}

/// Chunk 0: the ordinary sequential reader over the document prefix, so
/// the prolog (BOM, XML declaration, comments, PIs) and the root start are
/// handled with fully absolute state.
fn parse_prefix(
    bytes: &[u8],
    target_end: u64,
    config: &ReaderConfig,
    probe: Option<&ProbeHandle>,
) -> Fragment {
    let mut reader = XmlReader::with_config(Cursor::new(bytes), config.clone());
    if let Some(p) = probe {
        reader.set_probe(p.clone());
    }
    drive(reader, 0, target_end, true)
}

/// A speculative fragment: starts at `start` (a `<` byte) in content
/// state. Depth limits are deferred to the replay, which knows absolute
/// depths.
fn parse_fragment(
    bytes: &[u8],
    start: u64,
    target_end: u64,
    config: &ReaderConfig,
    probe: Option<&ProbeHandle>,
) -> Fragment {
    let mut cfg = config.clone();
    cfg.max_depth = usize::MAX;
    let origin = TextPosition::new(start, 1, 1);
    let mut reader = XmlReader::fragment(Cursor::new(&bytes[start as usize..]), cfg, origin);
    if let Some(p) = probe {
        reader.set_probe(p.clone());
    }
    drive(reader, start, target_end, false)
}

/// Pulls events until the reader's cursor reaches `target_end` with no
/// deferred self-closing end tag pending, recording a terminal error in
/// place of further events. `EndDocument` is consumed but not stored —
/// the coordinator decides how the *document* ends.
fn drive<R: std::io::Read>(
    mut reader: XmlReader<R>,
    start: u64,
    target_end: u64,
    absolute: bool,
) -> Fragment {
    let mut events = Vec::new();
    let mut error = None;
    while reader.offset() < target_end || reader.has_pending_end() {
        match reader.next_event() {
            Ok(ev) => {
                if ev.is_end_document() {
                    break;
                }
                events.push(ev);
            }
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    Fragment { start, end: reader.offset(), end_pos: reader.position(), events, error, absolute }
}

// ------------------------------------------------------------------ //
// Reconciling replay
// ------------------------------------------------------------------ //

/// Replay state: walks accepted fragments in document order, re-parsing
/// misspeculated holes, maintaining the single global open-element stack,
/// and rebasing positions/levels/spans to absolute values.
struct Replay {
    bytes: Arc<Vec<u8>>,
    config: ReaderConfig,
    /// Static start offset of every chunk in document order (`starts[0]`
    /// is 0); fixed by the split, so the replay can skip and size holes
    /// without waiting for the fragments themselves.
    starts: Vec<u64>,
    /// Fragments streaming in from the workers, out of order.
    source: FragStream,
    next_frag: usize,
    cur: Option<Fragment>,
    cur_event: usize,
    /// Absolute offset the next accepted fragment must start at.
    cursor: u64,
    /// Absolute position at `cursor` (base for rebasing the current
    /// fragment's relative line/column values).
    base: TextPosition,
    open: Vec<OpenElem>,
    root_seen: bool,
    done: bool,
    /// Sticky terminal error: once returned, returned again.
    failed: Option<XmlError>,
    stats: ParStats,
    /// Observability hook: stitch (inline reparse) time is reported here.
    probe: Option<ProbeHandle>,
}

impl Replay {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        if self.done {
            return Ok(XmlEvent::EndDocument);
        }
        loop {
            // Ensure a current fragment (accepting, discarding, or
            // re-parsing as needed); none left means the document is done.
            if self.cur.is_none() {
                match self.advance_fragment() {
                    Ok(true) => {}
                    Ok(false) => return self.finish(),
                    Err(e) => return Err(self.fail(e)),
                }
            }
            let next = {
                let frag = self.cur.as_mut().expect("current fragment");
                if self.cur_event < frag.events.len() {
                    // Take ownership; the slot is never revisited.
                    let ev =
                        std::mem::replace(&mut frag.events[self.cur_event], XmlEvent::EndDocument);
                    self.cur_event += 1;
                    Some((ev, frag.absolute))
                } else {
                    None
                }
            };
            match next {
                Some((ev, absolute)) => match self.replay_event(ev, absolute) {
                    Ok(Some(out)) => return Ok(out),
                    Ok(None) => continue, // suppressed (e.g. prolog/epilog whitespace)
                    Err(e) => return Err(self.fail(e)),
                },
                None => {
                    // Fragment exhausted: surface its terminal error, else
                    // move the cursor to its stop point.
                    let frag = self.cur.take().expect("current fragment");
                    self.cur_event = 0;
                    if let Some(err) = frag.error {
                        let err = if frag.absolute {
                            err
                        } else {
                            let pos = self.rebase(err.position());
                            err.at(pos)
                        };
                        return Err(self.fail(err));
                    }
                    self.cursor = frag.end;
                    self.base =
                        if frag.absolute { frag.end_pos } else { compose(self.base, frag.end_pos) };
                }
            }
        }
    }

    /// Selects the fragment starting exactly at `cursor`: skips
    /// speculations the previous fragment overshot, re-parses the hole
    /// inline when the next speculation starts too far ahead. Returns
    /// `Ok(false)` when the document is exhausted; blocks on the worker
    /// stream only when the fragment it is about to *accept* has not
    /// arrived yet (skips and holes are decided from the static starts).
    fn advance_fragment(&mut self) -> XmlResult<bool> {
        while self.next_frag < self.starts.len() && self.starts[self.next_frag] < self.cursor {
            // Misspeculated: the previous fragment overshot this start.
            // The parse result is never needed, so don't wait for it.
            self.next_frag += 1;
            self.stats.misspeculated += 1;
        }
        if self.next_frag < self.starts.len() && self.starts[self.next_frag] == self.cursor {
            self.cur = Some(self.source.wait(self.next_frag, self.base)?);
            self.cur_event = 0;
            self.next_frag += 1;
            return Ok(true);
        }
        if self.cursor >= self.bytes.len() as u64 {
            return Ok(false);
        }
        // Hole: the accepted stream stopped short of the next speculation
        // (or of document end). Re-parse it inline up to that point.
        let target = match self.starts.get(self.next_frag) {
            Some(&start) => start,
            None => self.bytes.len() as u64,
        };
        self.stats.reparsed += 1;
        let t0 = self.probe.as_ref().map(|_| Instant::now());
        self.cur = Some(parse_fragment(
            &self.bytes,
            self.cursor,
            target,
            &self.config,
            self.probe.as_ref(),
        ));
        self.cur_event = 0;
        if let (Some(p), Some(t0)) = (&self.probe, t0) {
            p.on_stitch(t0.elapsed().as_nanos() as u64);
        }
        Ok(true)
    }

    /// Applies global well-formedness and position/level/span fixups to
    /// one speculated event. `Ok(None)` drops the event (whitespace
    /// outside the root).
    fn replay_event(&mut self, ev: XmlEvent, absolute: bool) -> XmlResult<Option<XmlEvent>> {
        Ok(Some(match ev {
            XmlEvent::StartDocument { .. }
            | XmlEvent::DoctypeDeclaration { .. }
            | XmlEvent::Comment(_) => ev,
            XmlEvent::ProcessingInstruction(mut e) => {
                if !absolute {
                    e.position = self.rebase(e.position);
                }
                XmlEvent::ProcessingInstruction(e)
            }
            XmlEvent::StartElement(mut e) => {
                if !absolute {
                    e.position = self.rebase(e.position);
                }
                if self.open.is_empty() {
                    if self.root_seen {
                        return Err(XmlError::new(XmlErrorKind::TrailingContent, e.position));
                    }
                    self.root_seen = true;
                }
                if self.open.len() >= self.config.max_depth {
                    return Err(XmlError::new(
                        XmlErrorKind::DepthLimit { max: self.config.max_depth },
                        e.position,
                    ));
                }
                self.open.push(OpenElem { name: e.name.clone(), start_offset: e.span.start });
                e.level = self.open.len() as u32;
                XmlEvent::StartElement(e)
            }
            XmlEvent::EndElement(mut e) => {
                if !absolute {
                    e.position = self.rebase(e.position);
                }
                let top = match self.open.pop() {
                    Some(top) => top,
                    None => {
                        return Err(XmlError::new(
                            XmlErrorKind::UnbalancedEndTag { name: e.name.as_str().into() },
                            e.position,
                        ))
                    }
                };
                if top.name != e.name {
                    return Err(XmlError::new(
                        XmlErrorKind::MismatchedTag {
                            expected: top.name.as_str().into(),
                            found: e.name.as_str().into(),
                        },
                        e.position,
                    ));
                }
                e.level = (self.open.len() + 1) as u32;
                e.element_span = ByteSpan::new(top.start_offset, e.element_span.end);
                XmlEvent::EndElement(e)
            }
            XmlEvent::Characters(mut e) => {
                if !absolute {
                    e.position = self.rebase(e.position);
                }
                if self.open.is_empty() {
                    // The sequential reader consumes whitespace between
                    // top-level constructs silently, but it decides on the
                    // *raw source*: a character reference or CDATA section
                    // that merely decodes to whitespace is still an error.
                    // Fragment readers parse the epilog in content state
                    // and hand us the decoded run, so walk the raw span to
                    // recover the sequential verdict and the exact error
                    // position, independent of entity/multibyte decoding.
                    let raw = e.span.slice(&self.bytes).expect("event span within document");
                    let mut pos = e.position;
                    let mut i = 0;
                    while i < raw.len() {
                        match raw[i] {
                            b' ' | b'\t' | b'\n' => {
                                pos.advance(raw[i] as char, 1);
                                i += 1;
                            }
                            b'\r' => {
                                // §2.11 normalization: \r\n is one '\n'.
                                let len = if raw.get(i + 1) == Some(&b'\n') { 2 } else { 1 };
                                pos.advance('\n', len);
                                i += len;
                            }
                            // Only a CDATA opener can put '<' inside a
                            // text span; the sequential reader rejects it
                            // before looking at its contents.
                            b'<' => {
                                return Err(XmlError::syntax(
                                    "CDATA section outside the root element",
                                    pos,
                                ))
                            }
                            _ => return Err(XmlError::new(XmlErrorKind::TextOutsideRoot, pos)),
                        }
                    }
                    return Ok(None);
                }
                e.level = self.open.len() as u32;
                XmlEvent::Characters(e)
            }
            XmlEvent::EndDocument => unreachable!("drive() never stores EndDocument"),
        }))
    }

    /// Document end: enforce the whole-document conditions the sequential
    /// reader checks at EOF.
    fn finish(&mut self) -> XmlResult<XmlEvent> {
        let pos = self.base;
        if !self.open.is_empty() {
            return Err(self.fail(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "end tags for open elements" },
                pos,
            )));
        }
        if !self.root_seen {
            return Err(self.fail(XmlError::new(XmlErrorKind::NoRootElement, pos)));
        }
        self.done = true;
        Ok(XmlEvent::EndDocument)
    }

    fn rebase(&self, rel: TextPosition) -> TextPosition {
        compose(self.base, rel)
    }

    fn fail(&mut self, err: XmlError) -> XmlError {
        self.failed = Some(err.clone());
        err
    }
}

/// Rebases a fragment-relative position onto the absolute position of the
/// fragment's first byte. Offsets are already absolute (fragment scanners
/// start at the true byte offset); lines add up with a shared origin; the
/// column only needs rebasing while still on the fragment's first line.
fn compose(base: TextPosition, rel: TextPosition) -> TextPosition {
    TextPosition {
        offset: rel.offset,
        line: base.line + (rel.line - 1),
        column: if rel.line > 1 { rel.column } else { base.column + (rel.column - 1) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_events(xml: &str) -> XmlResult<Vec<XmlEvent>> {
        XmlReader::from_str(xml).collect_events()
    }

    fn par_events(xml: &str, chunk: usize) -> XmlResult<Vec<XmlEvent>> {
        ParallelReader::with_config(
            xml.as_bytes().to_vec(),
            ParallelConfig { threads: 3, chunk_bytes: Some(chunk), ..ParallelConfig::default() },
        )
        .collect_events()
    }

    fn assert_equivalent(xml: &str, chunk: usize) {
        let seq = seq_events(xml);
        let par = par_events(xml, chunk);
        match (&seq, &par) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "chunk={chunk} xml={xml:?}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "chunk={chunk} xml={xml:?}")
            }
            _ => panic!("divergence at chunk={chunk} xml={xml:?}:\nseq={seq:?}\npar={par:?}"),
        }
    }

    #[test]
    fn simple_document_all_chunk_sizes() {
        let xml = "<a><b x='1'>hi</b><c/>text<d>more</d></a>";
        for chunk in 1..=xml.len() {
            assert_equivalent(xml, chunk);
        }
    }

    #[test]
    fn multiline_positions_survive_rebasing() {
        let xml = "<root>\n  <item id=\"1\">alpha</item>\n  <item id=\"2\">beta</item>\n</root>\n";
        for chunk in [1, 3, 7, 16, 64] {
            assert_equivalent(xml, chunk);
        }
    }

    #[test]
    fn seam_inside_comment_and_cdata_misspeculates_correctly() {
        let xml = "<r>pre<!-- a <fake> tag --><x/><![CDATA[raw <y> &amp; stuff]]>post</r>";
        for chunk in 1..=xml.len() {
            assert_equivalent(xml, chunk);
        }
    }

    #[test]
    fn cross_chunk_mismatched_tag_error_is_identical() {
        let xml = "<a><b>text</a></b>";
        for chunk in [1, 4, 9, 64] {
            assert_equivalent(xml, chunk);
        }
    }

    #[test]
    fn decoded_whitespace_outside_root_errors_like_sequential() {
        // Char-ref and CDATA whitespace outside the root decode to
        // whitespace text, but the sequential reader rejects them on the
        // raw source before decoding; the replay must produce the same
        // error at the same position.
        for xml in [
            "<r>a</r> &#32;",
            "<r>a</r>&#x20;",
            "<r>a</r> <![CDATA[ ]]>",
            "<r>a</r>\n<![CDATA[]]> ",
        ] {
            for chunk in 1..=xml.len() {
                assert_equivalent(xml, chunk);
            }
        }
    }

    #[test]
    fn text_outside_root_error_position_is_exact() {
        // Multibyte and entity-bearing runs after the root: the error
        // must point at the first non-whitespace character of the raw
        // source, independent of entity/multibyte decoding.
        for xml in ["<r>a</r>  \u{e9}x", "<r>a</r> \r\n x&amp;y", "<r>a</r>\t&#233;"] {
            for chunk in 1..=xml.len() {
                assert_equivalent(xml, chunk);
            }
        }
    }

    #[test]
    fn literal_whitespace_epilog_is_consumed() {
        for xml in ["<r>a</r> \n\t ", "<r/>\r\n \r"] {
            for chunk in 1..=xml.len() {
                assert_equivalent(xml, chunk);
            }
        }
    }

    #[test]
    fn doctype_falls_back_to_sequential() {
        let xml = "<!DOCTYPE r [<!ENTITY e \"ha\">]><r>&e;</r>";
        let par = ParallelReader::from_str(xml, 4);
        assert!(par.stats().sequential_fallback);
        assert_eq!(par.collect_events().unwrap(), seq_events(xml).unwrap());
    }

    #[test]
    fn zero_and_one_thread_are_sequential() {
        for threads in [0, 1] {
            let par = ParallelReader::from_str("<r><a/></r>", threads);
            assert!(par.stats().sequential_fallback);
            assert_eq!(par.collect_events().unwrap(), seq_events("<r><a/></r>").unwrap());
        }
    }

    #[test]
    fn end_document_is_sticky() {
        let mut par = ParallelReader::with_config(
            b"<r>aaaa</r>".to_vec(),
            ParallelConfig { threads: 2, chunk_bytes: Some(4), ..ParallelConfig::default() },
        );
        loop {
            if par.next_event().unwrap().is_end_document() {
                break;
            }
        }
        assert!(par.next_event().unwrap().is_end_document());
        assert!(par.next_event().unwrap().is_end_document());
    }

    #[test]
    fn probe_sees_chunks_scan_bytes_and_stitches() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        #[derive(Default)]
        struct Probe {
            chunks: AtomicU64,
            chunk_bytes: AtomicU64,
            scan_bytes: AtomicU64,
            stitches: AtomicU64,
        }
        impl crate::probe::ParseProbe for Probe {
            fn on_scan_bytes(&self, wide: u64, scalar: u64) {
                self.scan_bytes.fetch_add(wide + scalar, Ordering::Relaxed);
            }
            fn on_chunk(&self, _worker: usize, bytes: u64, _start: Instant, _dur_ns: u64) {
                self.chunks.fetch_add(1, Ordering::Relaxed);
                self.chunk_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            fn on_stitch(&self, _ns: u64) {
                self.stitches.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Seams inside the comment/CDATA force misspeculation; sweep all
        // chunk sizes so at least some of them leave holes to reparse.
        let xml = "<r>pre<!-- a <fake> tag --><x/><![CDATA[raw <y>]]>post</r>";
        let probe = Arc::new(Probe::default());
        let mut total_reparsed = 0u64;
        for chunk in 1..=xml.len() {
            let mut par = ParallelReader::with_config_probe(
                xml.as_bytes().to_vec(),
                ParallelConfig {
                    threads: 3,
                    chunk_bytes: Some(chunk),
                    ..ParallelConfig::default()
                },
                Some(probe.clone()),
            );
            while !par.next_event().unwrap().is_end_document() {}
            total_reparsed += par.stats().reparsed as u64;
        }
        let chunks = probe.chunks.load(Ordering::Relaxed);
        assert!(chunks > 1, "expected speculative chunks, got {chunks}");
        assert!(probe.chunk_bytes.load(Ordering::Relaxed) > 0);
        assert!(probe.scan_bytes.load(Ordering::Relaxed) > 0);
        assert!(total_reparsed > 0, "seams should force at least one reparse");
        assert_eq!(probe.stitches.load(Ordering::Relaxed), total_reparsed);
    }

    #[test]
    fn next_batch_matches_the_event_stream() {
        let xml = "<r>pre<!-- a <fake> tag --><x/><![CDATA[raw <y>]]>post<d>more</d></r>";
        for chunk in [1, 3, 7, 64] {
            let expected: Vec<XmlEvent> = par_events(xml, chunk)
                .unwrap()
                .into_iter()
                .filter(|e| !e.is_end_document())
                .collect();
            let mut par = ParallelReader::with_config(
                xml.as_bytes().to_vec(),
                ParallelConfig {
                    threads: 3,
                    chunk_bytes: Some(chunk),
                    ..ParallelConfig::default()
                },
            );
            let mut got = Vec::new();
            while let Some(batch) = par.next_batch().unwrap() {
                got.extend(batch);
            }
            assert_eq!(got, expected, "chunk={chunk}");
            // Exhaustion is sticky.
            assert!(par.next_batch().unwrap().is_none());
        }
        // The sequential fallback speaks the same batch API.
        let mut seq = ParallelReader::from_str(xml, 1);
        let mut got = Vec::new();
        while let Some(batch) = seq.next_batch().unwrap() {
            got.extend(batch);
        }
        let expected: Vec<XmlEvent> =
            seq_events(xml).unwrap().into_iter().filter(|e| !e.is_end_document()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parse_worker_panic_surfaces_a_clean_sticky_error() {
        let xml = "<r>".to_string() + &"<a>text</a>".repeat(40) + "</r>";
        let mut par = ParallelReader::with_config(
            xml.into_bytes(),
            ParallelConfig {
                threads: 2,
                chunk_bytes: Some(16),
                fail_chunk: Some(3),
                ..ParallelConfig::default()
            },
        );
        let first = loop {
            match par.next_event() {
                Ok(ev) => assert!(!ev.is_end_document(), "stream must not complete"),
                Err(e) => break e.to_string(),
            }
        };
        assert!(first.contains("parse worker panicked"), "unexpected error: {first}");
        assert_eq!(par.next_event().unwrap_err().to_string(), first);
        assert_eq!(par.next_batch().unwrap_err().to_string(), first);
    }

    #[test]
    fn error_is_sticky() {
        let mut par = ParallelReader::with_config(
            b"<r><a>text</b></r>".to_vec(),
            ParallelConfig { threads: 2, chunk_bytes: Some(5), ..ParallelConfig::default() },
        );
        let first = loop {
            match par.next_event() {
                Ok(_) => continue,
                Err(e) => break e.to_string(),
            }
        };
        assert_eq!(par.next_event().unwrap_err().to_string(), first);
    }
}
