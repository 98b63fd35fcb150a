//! Deterministic merge of per-shard match streams.
//!
//! Workers emit matches tagged with a global ordering key — the sequence
//! number of the document event that produced the match and the plan
//! group id that emitted it. The direct lane (one executor on the calling
//! thread) visits groups in ascending group-id order within each event,
//! so sorting the union of all shard streams by `(seq, gid)` (ties within
//! one `(seq, gid)` keep the machine's emission order, which each shard's
//! FIFO preserves) reproduces its output **exactly** — same matches, same
//! delivery order.
//!
//! The merge is *streaming*: it never waits for end of document. Each
//! shard advances a **watermark** — the highest event sequence number it
//! has fully processed — with every report, and the merger releases a
//! match as soon as every shard's watermark has passed the match's event,
//! because no shard can still produce anything that sorts earlier. This
//! keeps the sharded engine incremental (solutions reach the subscriber
//! callback while the document is still streaming) without ever
//! reordering against the single-threaded reference.
//!
//! Watermarks advance monotonically but may *jump*: filtered events
//! consume sequence numbers without ever shipping, so consecutive reports
//! can skip arbitrarily many seqs. That is fine: `push` only requires
//! monotonicity (an equal watermark re-report is a no-op), and release
//! needs no per-seq bookkeeping — only the min across shards.

use std::collections::VecDeque;
use std::time::Instant;

use crate::result::Match;
use crate::telemetry::Telemetry;

/// One match tagged with its global ordering key.
#[derive(Debug, Clone)]
pub(crate) struct TaggedMatch {
    /// Sequence number (1-based) of the document event that emitted the
    /// match.
    pub(crate) seq: u64,
    /// Plan group that produced it (the subscriber fan-out happens after
    /// the merge, on the document thread).
    pub(crate) gid: u32,
    /// The match payload (`Arc`-backed strings, so it crossed the thread
    /// boundary without deep-copying).
    pub(crate) m: Match,
}

/// One shard's in-flight stream state.
#[derive(Debug, Default)]
struct ShardStream {
    /// Matches received but not yet released, already sorted by
    /// `(seq, gid)` — a worker processes events in sequence order and
    /// groups in ascending gid order. While profiling, each match carries
    /// its arrival instant (`None` otherwise) so the time it is held
    /// waiting on other shards' watermarks can be billed to its group.
    queue: VecDeque<(TaggedMatch, Option<Instant>)>,
    /// Every event with `seq <= watermark` is fully processed by this
    /// shard; it can produce nothing earlier.
    watermark: u64,
}

/// K-way watermark merge of shard match streams into the single-threaded
/// emission order.
#[derive(Debug)]
pub(crate) struct MatchMerger {
    shards: Vec<ShardStream>,
    /// Records the hold-depth gauge.
    telemetry: Telemetry,
    /// Cost-attribution mode: stamp arrivals and accumulate per-group
    /// hold time.
    profiled: bool,
    /// Per-group `(deliveries, hold_ns)` accumulated on release while
    /// profiling; drained per document by [`MatchMerger::take_holds`].
    holds: std::collections::BTreeMap<u32, (u64, u64)>,
}

impl MatchMerger {
    /// A merger for `nshards` streams, all watermarks at zero (sequence
    /// numbers are 1-based, so nothing is releasable yet).
    #[cfg(test)]
    pub(crate) fn new(nshards: usize) -> Self {
        MatchMerger::with_profile(nshards, Telemetry::disabled(), false)
    }

    /// A merger that records its hold depth into `telemetry`; with
    /// `profiled` it additionally attributes release counts and hold
    /// latency to plan groups for the cost ledger.
    pub(crate) fn with_profile(nshards: usize, telemetry: Telemetry, profiled: bool) -> Self {
        MatchMerger {
            shards: (0..nshards).map(|_| ShardStream::default()).collect(),
            telemetry,
            profiled,
            holds: std::collections::BTreeMap::new(),
        }
    }

    /// Drains the per-group `(deliveries, hold_ns)` attribution gathered
    /// since the last call. Empty unless profiling was requested.
    pub(crate) fn take_holds(&mut self) -> Vec<(u32, u64, u64)> {
        let out = self.holds.iter().map(|(&gid, &(n, ns))| (gid, n, ns)).collect();
        self.holds.clear();
        out
    }

    /// Ingests one worker report: `matches` in the shard's emission order
    /// plus the shard's new watermark. Watermarks only move forward.
    pub(crate) fn push(&mut self, shard: usize, matches: Vec<TaggedMatch>, through_seq: u64) {
        let arrived = self.profiled.then(Instant::now);
        let s = &mut self.shards[shard];
        debug_assert!(
            matches.windows(2).all(|w| (w[0].seq, w[0].gid) <= (w[1].seq, w[1].gid)),
            "a shard stream arrives sorted by (seq, gid)"
        );
        s.queue.extend(matches.into_iter().map(|m| (m, arrived)));
        debug_assert!(through_seq >= s.watermark, "watermarks are monotonic");
        s.watermark = s.watermark.max(through_seq);
        if self.telemetry.is_enabled() {
            let depth: u64 = self.shards.iter().map(|s| s.queue.len() as u64).sum();
            self.telemetry.gauge_set(|r| &r.merge_hold_depth, depth);
        }
    }

    /// Releases every match now globally ordered — head of some shard
    /// queue, and no shard's watermark is still behind its event — in
    /// `(seq, gid)` order.
    pub(crate) fn drain(&mut self, mut emit: impl FnMut(TaggedMatch)) {
        let safe_seq = self.shards.iter().map(|s| s.watermark).min().unwrap_or(0);
        loop {
            let best = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.queue.front().map(|(t, _)| ((t.seq, t.gid), i)))
                .min();
            match best {
                Some(((seq, _), i)) if seq <= safe_seq => {
                    let (t, arrived) = self.shards[i].queue.pop_front().expect("head exists");
                    if let Some(arrived) = arrived {
                        let e = self.holds.entry(t.gid).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += arrived.elapsed().as_nanos() as u64;
                    }
                    emit(t);
                }
                _ => break,
            }
        }
    }

    /// Whether every queue is empty (end-of-document invariant once all
    /// shards have reported through the final event).
    pub(crate) fn is_drained(&self) -> bool {
        self.shards.iter().all(|s| s.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MatchKind;
    use vitex_xmlsax::pos::ByteSpan;

    fn tm(seq: u64, gid: u32, node: u64) -> TaggedMatch {
        TaggedMatch {
            seq,
            gid,
            m: Match {
                kind: MatchKind::Element,
                node,
                name: Some("a".into()),
                span: ByteSpan::new(0, 1),
                value: None,
                level: 1,
            },
        }
    }

    fn keys(merger: &mut MatchMerger) -> Vec<(u64, u32, u64)> {
        let mut out = Vec::new();
        merger.drain(|t| out.push((t.seq, t.gid, t.m.node)));
        out
    }

    #[test]
    fn holds_matches_until_every_shard_passes_the_event() {
        let mut m = MatchMerger::new(2);
        m.push(0, vec![tm(3, 0, 30)], 5);
        // Shard 1 is only through seq 2: the seq-3 match must wait — shard
        // 1 could still produce a seq-3 match of a lower gid.
        m.push(1, vec![], 2);
        assert_eq!(keys(&mut m), []);
        m.push(1, vec![tm(3, 1, 31)], 5);
        assert_eq!(keys(&mut m), [(3, 0, 30), (3, 1, 31)]);
        assert!(m.is_drained());
    }

    #[test]
    fn merges_same_event_matches_by_group_id() {
        let mut m = MatchMerger::new(3);
        m.push(2, vec![tm(1, 7, 70)], 9);
        m.push(0, vec![tm(1, 2, 20), tm(4, 2, 21)], 9);
        m.push(1, vec![tm(1, 5, 50)], 9);
        assert_eq!(keys(&mut m), [(1, 2, 20), (1, 5, 50), (1, 7, 70), (4, 2, 21)]);
    }

    #[test]
    fn within_group_emission_order_is_preserved() {
        let mut m = MatchMerger::new(1);
        m.push(0, vec![tm(2, 0, 9), tm(2, 0, 4), tm(2, 0, 7)], 2);
        assert_eq!(keys(&mut m), [(2, 0, 9), (2, 0, 4), (2, 0, 7)]);
    }

    #[test]
    fn empty_reports_still_advance_watermarks() {
        let mut m = MatchMerger::new(2);
        m.push(0, vec![tm(1, 0, 1)], 1);
        assert_eq!(keys(&mut m), []);
        m.push(1, vec![], 1);
        assert_eq!(keys(&mut m), [(1, 0, 1)]);
    }
}
