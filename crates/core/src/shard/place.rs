//! Shard placement: which ring-lane worker runs which plan group — a
//! function of the plan, dealt once when a session opens.
//!
//! The pub/sub setting is many standing queries that share a path and
//! differ in literals. Groups on one path are pushed by the same events,
//! so their costs move together, and a deal blind to paths can park a
//! whole path on one worker: registering paths cyclically, in step with
//! the shard count, does exactly that to a gid round-robin. [`deal`]
//! therefore orders the active groups by `(trie terminal node, gid)`
//! before dealing them round-robin, so every path's groups spread across
//! the shards, within one of each other. With all-distinct paths the deal
//! is the registration-order round-robin.
//!
//! What the deal cannot see is a cost gap between *different* paths (one
//! hog among cheap queries): nothing is measured before a document, and
//! placement never changes within a session. Every document's measured
//! balance is still reported — [`imbalance_millis`] over the workers'
//! deterministic work counters, into
//! [`PlacementSnapshot::last_imbalance_millis`] and
//! `vitex_shard_imbalance` — so a deal that does not fit its traffic
//! shows. Matches are invariant under any placement by construction: the
//! watermark merge orders by `(event seq, group id)`.

use crate::plan::RouteTable;

/// A point-in-time view of a [`crate::shard::ShardSession`]'s placement,
/// from [`crate::shard::ShardSession::placement_snapshot`]: how many
/// workers actually run (after clamping to the active group count), where
/// each group sits, and how balanced the last document was. Placement is
/// fixed for the session, so `shard_of` reads the same before the first
/// document and after the last.
#[derive(Debug, Clone)]
pub struct PlacementSnapshot {
    /// Effective worker count.
    pub shards: usize,
    /// Shard of each plan-group slot (`None` = inactive slot).
    pub shard_of: Vec<Option<usize>>,
    /// Always 0: placement never changes within a session. Kept because
    /// the benchmark harness still reads it (`shard.repartitions`).
    pub repartitions: u64,
    /// Measured imbalance of the most recent document, in millis
    /// (1000 = perfectly balanced; `shards * 1000` = one shard carried
    /// everything). `None` before the first document.
    pub last_imbalance_millis: Option<u64>,
}

/// Deals the active groups, given as `(trie terminal node, gid)`, over
/// `nshards` shards: ordered by path, then gid, and dealt round-robin, so
/// groups the same events push land on different shards. Returns the
/// ascending gids of each shard; every shard gets at least one group
/// whenever there are at least `nshards` of them.
pub(crate) fn deal(mut active: Vec<(usize, usize)>, nshards: usize) -> Vec<Vec<usize>> {
    let nshards = nshards.max(1);
    active.sort_unstable();
    let mut shard_gids = vec![Vec::new(); nshards];
    for (i, (_, gid)) in active.into_iter().enumerate() {
        shard_gids[i % nshards].push(gid);
    }
    for gids in &mut shard_gids {
        gids.sort_unstable();
    }
    shard_gids
}

/// Load imbalance in millis: `max_shard_load / ideal_load * 1000`, where
/// ideal is `total / nshards`. 1000 = perfectly balanced; 2000 = the
/// hottest shard carries twice its fair share; `nshards * 1000` = one
/// shard carries everything. Zero-work documents report 1000 (nothing to
/// balance, nothing imbalanced).
pub(crate) fn imbalance_millis(loads: &[u64]) -> u64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1000;
    }
    let max = *loads.iter().max().expect("non-empty");
    // max * n * 1000 / total, in u128 to dodge overflow on huge counters.
    (max as u128 * loads.len() as u128 * 1000 / total as u128) as u64
}

/// Splits the trie's gid-keyed `routes` into one table per shard, keyed
/// by local slot (a group's position in its shard's ascending gid list):
/// global trie node → the `(local slot, machine node)` pairs a push of
/// that node drives within the shard. Routes ascend by gid and so do
/// each shard's gids, hence every split list ascends by slot.
pub(crate) fn split_routes(shard_gids: &[Vec<usize>], routes: &RouteTable) -> Vec<RouteTable> {
    let slots = shard_gids.iter().flatten().map(|&gid| gid + 1).max().unwrap_or(0);
    let mut home = vec![(usize::MAX, 0u32); slots];
    for (shard, gids) in shard_gids.iter().enumerate() {
        for (li, &gid) in gids.iter().enumerate() {
            home[gid] = (shard, li as u32);
        }
    }
    let mut split = vec![vec![Vec::new(); routes.len()]; shard_gids.len()];
    for (node, routed) in routes.iter().enumerate() {
        for &(gid, mnode) in routed {
            let (shard, li) = home[gid as usize];
            split[shard][node].push((li, mnode));
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six paths registered cyclically: gid `g` sits on trie node
    /// `100 + g % 6`, the shape of the region-pinned subscription sets.
    fn cyclic(groups: usize) -> Vec<(usize, usize)> {
        (0..groups).map(|gid| (100 + gid % 6, gid)).collect()
    }

    #[test]
    fn deal_spreads_every_path_across_every_shard() {
        for nshards in [2usize, 4] {
            let shard_gids = deal(cyclic(60), nshards);
            for path in 0..6 {
                let per_shard: Vec<usize> = shard_gids
                    .iter()
                    .map(|gids| gids.iter().filter(|&&gid| gid % 6 == path).count())
                    .collect();
                let (min, max) = (per_shard.iter().min(), per_shard.iter().max());
                let (min, max) = (*min.expect("shards"), *max.expect("shards"));
                assert!(min >= 1 && max - min <= 1, "path {path}, {nshards} shards: {per_shard:?}");
            }
        }
    }

    #[test]
    fn deal_keeps_each_shards_gids_ascending() {
        for nshards in [1usize, 2, 3, 4, 7] {
            let shard_gids = deal(cyclic(25), nshards);
            for gids in &shard_gids {
                assert!(gids.windows(2).all(|w| w[0] < w[1]), "{shard_gids:?}");
            }
            let mut all: Vec<usize> = shard_gids.concat();
            all.sort_unstable();
            assert_eq!(all, (0..25).collect::<Vec<_>>(), "every group dealt once");
        }
    }

    #[test]
    fn deal_onto_one_shard_takes_everything() {
        assert_eq!(deal(vec![(9, 4), (3, 5), (3, 1)], 1), [vec![1, 4, 5]]);
        assert_eq!(deal(vec![(9, 4)], 0), [vec![4]], "zero shards clamp to one");
        assert_eq!(deal(Vec::new(), 3), [vec![], vec![], vec![]]);
    }

    #[test]
    fn deal_fills_every_shard_when_groups_suffice() {
        for nshards in 1..=8 {
            for groups in nshards..=3 * nshards {
                // One shared path plus distinct ones, gids with gaps.
                let active = (0..groups).map(|i| (if i % 3 == 0 { 0 } else { i }, 2 * i)).collect();
                let shard_gids = deal(active, nshards);
                assert!(shard_gids.iter().all(|g| !g.is_empty()), "{shard_gids:?}");
            }
        }
    }

    #[test]
    fn imbalance_millis_scales() {
        assert_eq!(imbalance_millis(&[10, 10, 10, 10]), 1000);
        assert_eq!(imbalance_millis(&[40, 0, 0, 0]), 4000);
        assert_eq!(imbalance_millis(&[30, 10]), 1500);
        assert_eq!(imbalance_millis(&[0, 0]), 1000, "zero work is balanced");
        assert_eq!(imbalance_millis(&[]), 1000);
    }

    #[test]
    fn assignment_splits_the_route_table_per_shard() {
        let shard_gids = [vec![0, 2], vec![1]];
        // Trie node 1 routes gids 0, 1 and 2 (machine nodes 0, 0, 3);
        // node 2 routes gid 0 (machine node 1); node 3 routes gid 2.
        let routes: RouteTable =
            vec![vec![], vec![(0, 0), (1, 0), (2, 3)], vec![(0, 1)], vec![(2, 0)]];
        let split = split_routes(&shard_gids, &routes);
        // Shard 0 local slots: li 0 = gid 0, li 1 = gid 2.
        assert_eq!(split[0], [vec![], vec![(0, 0), (1, 3)], vec![(0, 1)], vec![(1, 0)]]);
        assert_eq!(split[1], [vec![], vec![(0, 0)], vec![], vec![]]);
    }
}
