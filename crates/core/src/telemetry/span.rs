//! Bounded span recorder for stage traces.
//!
//! Spans are coarse-grained by design — one per document and one per
//! shard batch — so a run records thousands of spans, not millions. They
//! land in a fixed-capacity ring guarded by a mutex: the lock is
//! uncontended in practice (each recording thread produces spans at batch
//! granularity), and when the ring fills the oldest spans are overwritten
//! and counted as dropped rather than growing memory without bound.

use std::sync::Mutex;

/// Default span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

/// Trace thread-id for the coordinator/document thread.
pub const TID_COORDINATOR: u32 = 1;
/// Base trace thread-id for shard workers (`TID_SHARD_BASE + shard`).
pub const TID_SHARD_BASE: u32 = 2;

/// One completed span, timestamped relative to the telemetry epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name (e.g. `"document"`, `"batch"`).
    pub name: &'static str,
    /// Category for trace viewers (e.g. `"stream"`, `"shard"`).
    pub cat: &'static str,
    /// Logical thread id (see the `TID_*` constants).
    pub tid: u32,
    /// Start time in nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct Ring {
    spans: Vec<Span>,
    /// Overwrite cursor once the ring is full.
    next: usize,
    dropped: u64,
    cap: usize,
}

/// Fixed-capacity span sink shared by all instrumented threads.
#[derive(Debug)]
pub struct SpanRecorder {
    ring: Mutex<Ring>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanRecorder {
    /// Recorder holding at most `cap` spans (oldest overwritten beyond that).
    pub fn with_capacity(cap: usize) -> Self {
        SpanRecorder {
            ring: Mutex::new(Ring { spans: Vec::new(), next: 0, dropped: 0, cap: cap.max(1) }),
        }
    }

    /// Record one span, overwriting the oldest when full.
    pub fn record(&self, span: Span) {
        let mut ring = self.ring.lock().expect("span ring poisoned");
        if ring.spans.len() < ring.cap {
            ring.spans.push(span);
        } else {
            let at = ring.next;
            ring.spans[at] = span;
            ring.next = (at + 1) % ring.cap;
            ring.dropped += 1;
        }
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("span ring poisoned").dropped
    }

    /// Snapshot of retained spans, sorted by start time.
    pub fn collect(&self) -> Vec<Span> {
        let ring = self.ring.lock().expect("span ring poisoned");
        let mut spans = ring.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.tid));
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64) -> Span {
        Span { name: "t", cat: "test", tid: 1, start_ns, dur_ns: 10 }
    }

    #[test]
    fn records_and_sorts() {
        let rec = SpanRecorder::with_capacity(8);
        rec.record(span(30));
        rec.record(span(10));
        rec.record(span(20));
        let got = rec.collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].start_ns, 10);
        assert_eq!(got[2].start_ns, 30);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let rec = SpanRecorder::with_capacity(2);
        rec.record(span(1));
        rec.record(span(2));
        rec.record(span(3));
        let got = rec.collect();
        assert_eq!(got.len(), 2);
        assert_eq!(rec.dropped(), 1);
        assert!(got.iter().any(|s| s.start_ns == 3));
        assert!(!got.iter().any(|s| s.start_ns == 1));
    }
}
