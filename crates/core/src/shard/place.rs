//! Cost-aware shard placement: ledger-driven group→shard planning with
//! mid-session repartitioning.
//!
//! Plan groups do not cost the same: one hog query (the E14 scenario)
//! can pin a whole shard while the rest idle. This module plans
//! placements from per-group **cost estimates**: a [`ShardPlan`] is
//! computed by greedy LPT (longest-processing-time) bin-packing, the
//! classic 4/3 approximation for makespan on identical machines. Under
//! the uniform prior a fresh session starts from, LPT deals groups out
//! round-robin in ascending gid order.
//!
//! Estimates come from the same deterministic machine counters the cost
//! ledger bills ([`crate::stats::MachineStats::work`]: pushes, pops,
//! predicate evaluations, dispatch hits). Those arrive at the coordinator
//! with every `DocEnd` acknowledgement regardless of whether profiling is
//! on, so the [`CostModel`] refines itself after every document — and
//! because the counters are invariant across shard counts, so are the
//! placement decisions. Matches are
//! invariant *by construction* either way (the watermark merge orders by
//! `(event seq, group id)`, which no placement can perturb); determinism
//! of the decisions just makes experiments and tests reproducible.
//!
//! Repartitioning happens only between documents and only past a
//! hysteresis threshold ([`REPARTITION_THRESHOLD_MILLIS`]), so a nearly
//! balanced session never churns its dispatch indexes, and a skewed one
//! converges after the first document measured under skew.

use crate::plan::RouteTable;
use crate::telemetry::GroupCost;

/// A point-in-time view of a [`crate::shard::ShardSession`]'s placement
/// state, from [`crate::shard::ShardSession::placement_snapshot`]: how
/// many workers actually run (after clamping to the active group count),
/// where each group sits, and how the repartitioner has been behaving.
#[derive(Debug, Clone)]
pub struct PlacementSnapshot {
    /// Effective worker count.
    pub shards: usize,
    /// Shard of each plan-group slot under the assignment the *next*
    /// document would run with (`None` = inactive slot).
    pub shard_of: Vec<Option<usize>>,
    /// Assignment swaps performed so far this session.
    pub repartitions: u64,
    /// Measured imbalance of the most recent document, in millis
    /// (1000 = perfectly balanced; `shards * 1000` = one shard carried
    /// everything). `None` before the first document.
    pub last_imbalance_millis: Option<u64>,
}

/// Measured imbalance (in millis, 1000 = perfectly balanced) above which
/// a session replans between documents. 1300 means "the hottest shard
/// carries ≥ 1.3× the ideal per-shard load" — far enough from the noise
/// floor of an even deal that balanced workloads never churn.
pub(crate) const REPARTITION_THRESHOLD_MILLIS: u64 = 1300;

/// A group→shard assignment over a fixed worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    /// Ascending group ids per shard. Every shard owns at least one group
    /// whenever `active gids ≥ nshards` (LPT always fills an empty bin
    /// first).
    pub(crate) shard_gids: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// The shard of each group slot (`usize::MAX` for slots this plan
    /// does not place), sized to `group_slots`.
    pub(crate) fn shard_of(&self, group_slots: usize) -> Vec<usize> {
        let mut shard_of = vec![usize::MAX; group_slots];
        for (shard, gids) in self.shard_gids.iter().enumerate() {
            for &gid in gids {
                shard_of[gid] = shard;
            }
        }
        shard_of
    }

    /// Predicted per-shard loads under `costs`.
    pub(crate) fn loads(&self, costs: &CostModel) -> Vec<u64> {
        self.shard_gids
            .iter()
            .map(|gids| gids.iter().map(|&gid| costs.estimate(gid)).sum())
            .collect()
    }
}

/// Greedy LPT bin-packing: place groups in descending estimated cost
/// (ties broken by ascending gid), each onto the currently least-loaded
/// shard (ties broken by lowest shard index). Fully deterministic; with
/// uniform estimates it deals the groups out round-robin.
pub(crate) fn lpt_plan(active_gids: &[usize], costs: &CostModel, nshards: usize) -> ShardPlan {
    let nshards = nshards.max(1);
    let mut ranked: Vec<usize> = active_gids.to_vec();
    ranked.sort_by(|&a, &b| costs.estimate(b).cmp(&costs.estimate(a)).then(a.cmp(&b)));
    let mut shard_gids: Vec<Vec<usize>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut loads = vec![0u64; nshards];
    for gid in ranked {
        let shard = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &load)| (load, i))
            .map(|(i, _)| i)
            .expect("nshards >= 1");
        shard_gids[shard].push(gid);
        loads[shard] += costs.estimate(gid);
    }
    for gids in &mut shard_gids {
        gids.sort_unstable();
    }
    ShardPlan { shard_gids }
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

/// Per-group cost estimates driving LPT planning.
///
/// Seeded uniform (every active group costs 1), optionally pre-seeded
/// from a prior cost-ledger snapshot, and refined from measured
/// per-document work thereafter. The
/// refinement is an integer average of the previous estimate and the new
/// observation — enough smoothing to ride out per-document variance,
/// deterministic by construction.
#[derive(Debug)]
pub(crate) struct CostModel {
    est: Vec<u64>,
    /// Whether `est[gid]` reflects at least one observation (seeded or
    /// measured) rather than the uniform prior.
    observed: Vec<bool>,
}

impl CostModel {
    /// Uniform prior over `group_slots` slots.
    pub(crate) fn uniform(group_slots: usize) -> CostModel {
        CostModel { est: vec![1; group_slots], observed: vec![false; group_slots] }
    }

    /// Pre-seed estimates from the cost ledger's per-group bills as of
    /// session open. `canonicals[gid]` is the *current* canonical step
    /// key of each active slot: a ledger row is only trusted when its
    /// canonical key matches, because the planner's free-list recycles
    /// retired group ids — a recycled slot must never inherit the retired
    /// query's accumulated bill (the partition-staleness bug this guards
    /// against).
    pub(crate) fn seed_from_ledger<'g>(
        &mut self,
        bills: impl IntoIterator<Item = &'g GroupCost>,
        canonicals: &[Option<String>],
    ) {
        for g in bills {
            let fresh =
                canonicals.get(g.gid).and_then(|c| c.as_deref()).is_some_and(|c| c == g.canonical);
            let work = g.machine.work();
            if fresh && work > 0 {
                self.est[g.gid] = work;
                self.observed[g.gid] = true;
            }
        }
    }

    /// Fold one document's measured work for `gid` into the estimate.
    pub(crate) fn observe(&mut self, gid: usize, work: u64) {
        let work = work.max(1);
        if self.observed[gid] {
            self.est[gid] = (self.est[gid] + work).div_ceil(2);
        } else {
            self.est[gid] = work;
            self.observed[gid] = true;
        }
    }

    /// Current estimate for `gid` (≥ 1 for any slot ever seeded).
    pub(crate) fn estimate(&self, gid: usize) -> u64 {
        self.est[gid]
    }
}

/// One immutable group→shard assignment, shipped to the workers inside
/// every `DocStart` event. Workers adopt it when the `version` differs
/// from the one they are running (rebuilding their local dispatch index)
/// and otherwise just re-acquire the same groups — so a repartition costs
/// exactly one index rebuild per worker, at a document boundary, and
/// nothing at all when the plan is stable.
#[derive(Debug)]
pub(crate) struct Assignment {
    pub(crate) version: u64,
    /// Ascending gids per shard; a group's position is its local slot.
    pub(crate) shard_gids: Vec<Vec<usize>>,
    /// Per-shard route tables: global trie node → the `(local slot,
    /// machine node)` pairs a push of that node drives within the shard's
    /// group subset. Workers never walk the trie themselves — they apply
    /// the push decisions the document thread ships along these.
    pub(crate) routes: Vec<RouteTable>,
}

/// Builds the assignment for `plan`, splitting the trie's gid-keyed
/// `routes` into one slot-keyed table per shard. Routes ascend by gid and
/// so do each shard's gids, hence every split list ascends by slot.
pub(crate) fn make_assignment(version: u64, plan: &ShardPlan, routes: &RouteTable) -> Assignment {
    let slots = plan.shard_gids.iter().flatten().map(|&gid| gid + 1).max().unwrap_or(0);
    let mut home = vec![(usize::MAX, 0u32); slots];
    for (shard, gids) in plan.shard_gids.iter().enumerate() {
        for (li, &gid) in gids.iter().enumerate() {
            home[gid] = (shard, li as u32);
        }
    }
    let mut split = vec![vec![Vec::new(); routes.len()]; plan.shard_gids.len()];
    for (node, routed) in routes.iter().enumerate() {
        for &(gid, mnode) in routed {
            let (shard, li) = home[gid as usize];
            split[shard][node].push((li, mnode));
        }
    }
    Assignment { version, shard_gids: plan.shard_gids.clone(), routes: split }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(costs: &[(usize, u64)], slots: usize) -> CostModel {
        let mut m = CostModel::uniform(slots);
        for &(gid, w) in costs {
            m.observe(gid, w);
        }
        m
    }

    /// Round-robin in ascending gid order: the reference LPT must
    /// reproduce under uniform costs.
    fn round_robin_plan(active_gids: &[usize], nshards: usize) -> ShardPlan {
        let mut shard_gids: Vec<Vec<usize>> = (0..nshards).map(|_| Vec::new()).collect();
        for (i, &gid) in active_gids.iter().enumerate() {
            shard_gids[i % nshards].push(gid);
        }
        ShardPlan { shard_gids }
    }

    #[test]
    fn lpt_with_uniform_costs_is_round_robin() {
        let gids = [0usize, 2, 3, 7, 8];
        let costs = CostModel::uniform(9);
        let lpt = lpt_plan(&gids, &costs, 2);
        assert_eq!(lpt, round_robin_plan(&gids, 2));
        assert_eq!(lpt.shard_gids, [vec![0, 3, 8], vec![2, 7]]);
        assert_eq!(lpt_plan(&[4, 5], &costs, 1).shard_gids, [vec![4, 5]]);
        assert_eq!(lpt_plan(&[], &costs, 3), round_robin_plan(&[], 3));
    }

    #[test]
    fn lpt_isolates_a_hog() {
        // One group dwarfs the rest: LPT parks it alone and spreads the
        // cheap groups over the remaining shards.
        let gids: Vec<usize> = (0..9).collect();
        let mut costs = CostModel::uniform(9);
        costs.observe(4, 1_000_000);
        for gid in [0usize, 1, 2, 3, 5, 6, 7, 8] {
            costs.observe(gid, 10);
        }
        let plan = lpt_plan(&gids, &costs, 4);
        let shard_of = plan.shard_of(9);
        let hog_shard = shard_of[4];
        assert_eq!(plan.shard_gids[hog_shard], vec![4], "hog isolated on its own shard");
        for (gid, &s) in shard_of.iter().enumerate() {
            if gid != 4 {
                assert_ne!(s, hog_shard, "group {gid} must avoid the hog's shard");
            }
        }
    }

    #[test]
    fn lpt_fills_every_shard_when_groups_suffice() {
        let gids: Vec<usize> = (0..4).collect();
        let costs = model(&[(0, 100), (1, 1), (2, 1), (3, 1)], 4);
        let plan = lpt_plan(&gids, &costs, 4);
        assert!(plan.shard_gids.iter().all(|g| !g.is_empty()), "{:?}", plan.shard_gids);
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
    fn cost_model_averages_observations() {
        let mut m = CostModel::uniform(2);
        assert_eq!(m.estimate(0), 1);
        m.observe(0, 100);
        assert_eq!(m.estimate(0), 100, "first observation replaces the prior");
        m.observe(0, 50);
        assert_eq!(m.estimate(0), 75);
        m.observe(1, 0);
        assert_eq!(m.estimate(1), 1, "estimates stay >= 1");
    }

    #[test]
    fn ledger_seed_rejects_stale_canonicals() {
        let bill = |gid, canonical: &str, pushes| GroupCost {
            gid,
            canonical: canonical.into(),
            machine: crate::stats::MachineStats { pushes, ..Default::default() },
            ..Default::default()
        };
        let bills = [bill(0, "//a", 500), bill(1, "//b", 700)];
        // Slot 0 was recycled: it now serves "//c", so the ledger's
        // "//a" bill must not leak into its estimate. Slot 1 still
        // serves "//b" and keeps its seed.
        let canonicals = vec![Some("//c".to_string()), Some("//b".to_string())];
        let mut m = CostModel::uniform(2);
        m.seed_from_ledger(&bills, &canonicals);
        assert_eq!(m.estimate(0), 1, "recycled slot keeps the uniform prior");
        assert_eq!(m.estimate(1), 700, "matching canonical seeds the estimate");
    }

    #[test]
    fn assignment_splits_the_route_table_per_shard() {
        let plan = ShardPlan { shard_gids: vec![vec![0, 2], vec![1]] };
        // Trie node 1 routes gids 0, 1 and 2 (machine nodes 0, 0, 3);
        // node 2 routes gid 0 (machine node 1); node 3 routes gid 2.
        let routes: RouteTable =
            vec![vec![], vec![(0, 0), (1, 0), (2, 3)], vec![(0, 1)], vec![(2, 0)]];
        let a = make_assignment(3, &plan, &routes);
        assert_eq!(a.version, 3);
        // Shard 0 local slots: li 0 = gid 0, li 1 = gid 2.
        assert_eq!(a.routes[0], [vec![], vec![(0, 0), (1, 3)], vec![(0, 1)], vec![(1, 0)]]);
        assert_eq!(a.routes[1], [vec![], vec![(0, 0)], vec![], vec![]]);
    }
}
