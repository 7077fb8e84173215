//! Cost-weighted rebalancing.
//!
//! The paper's runs periodically regrid, and Uintah's load balancer
//! redistributes the patches across ranks using measured per-patch cost
//! along a space-filling curve. [`Regridder::rebalance`] produces a new
//! [`PatchDistribution`] from per-patch execution cost ([`PatchCosts`], fed
//! by the runtime's `ExecStats` per-patch timings): the costed SFC cut, or
//! a forced [`RebalancePolicy::Rotate`] flip that moves every patch. The
//! patch set itself never changes; a refinement proposal would need a
//! caller that applies it.
//!
//! Applying a changed distribution mid-run (graph invalidation, GPU
//! eviction) is the runtime's job — see `PersistentExecutor::regrid` in
//! `uintah-runtime`.

use crate::distribute::{morton3, PatchDistribution};
use crate::grid::Grid;
use crate::patch::PatchId;

/// How a regrid redistributes existing patches across ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RebalancePolicy {
    /// Patches Morton-ordered per level, the curve cut into contiguous
    /// chunks of approximately equal *cost* (Uintah's SFC load balancer
    /// weighted by measured time instead of patch count).
    CostedSfc,
    /// `rank(p) := (rank(p) + k) mod nranks` — a forced ownership flip that
    /// moves every patch. Not a balancer; the regrid tests and the
    /// benchmark's GPU workload use it to exercise the worst-case
    /// "everything moves" regrid on every run.
    Rotate(usize),
}

/// Per-patch execution cost, dense by patch id. The unit is arbitrary
/// (seconds, cells, rays) — only ratios matter to the balancer.
#[derive(Clone, Debug, PartialEq)]
pub struct PatchCosts {
    cost: Vec<f64>,
}

impl PatchCosts {

    /// Cost proportional to cell count (balance by volume — the static
    /// estimate used before any step has been measured).
    pub fn from_cells(grid: &Grid) -> Self {
        let mut cost = vec![0.0; grid.num_patches()];
        for p in grid.all_patches() {
            cost[p.id().index()] = p.num_cells() as f64;
        }
        Self { cost }
    }

    /// Adopt measured values (e.g. the all-reduced per-patch task seconds
    /// from `ExecStats`). Length must equal `grid.num_patches()` when used
    /// with [`Regridder::rebalance`].
    pub fn from_values(cost: Vec<f64>) -> Self {
        Self { cost }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.cost.len()
    }

    #[inline]
    pub fn get(&self, patch: PatchId) -> f64 {
        self.cost[patch.index()]
    }
}

/// Cost-weighted rebalance under one [`RebalancePolicy`].
#[derive(Clone, Copy, Debug)]
pub struct Regridder {
    pub policy: RebalancePolicy,
}

impl Regridder {
    pub fn new(policy: RebalancePolicy) -> Self {
        Self { policy }
    }

    /// Cost-weighted redistribution of the grid's patches. Deterministic
    /// for a given `(grid, costs, current)`, so every rank of a world can
    /// compute it independently from all-reduced costs and agree.
    pub fn rebalance(
        &self,
        grid: &Grid,
        costs: &PatchCosts,
        current: &PatchDistribution,
    ) -> PatchDistribution {
        assert_eq!(
            costs.len(),
            grid.num_patches(),
            "cost vector does not cover the grid"
        );
        let nranks = current.nranks();
        let mut rank_of = vec![0u32; grid.num_patches()];
        match self.policy {
            RebalancePolicy::Rotate(k) => {
                for p in grid.all_patches() {
                    rank_of[p.id().index()] = ((current.rank_of(p.id()) + k) % nranks) as u32;
                }
            }
            RebalancePolicy::CostedSfc => {
                for level in grid.levels() {
                    let order = sfc_order(level.patches().iter().map(|p| p.id()), grid);
                    let eff = effective_costs(&order, costs);
                    let total: f64 = eff.iter().sum();
                    let mut cum = 0.0;
                    for (&id, &c) in order.iter().zip(&eff) {
                        // Cut the curve at equal cumulative cost: the rank
                        // span of any chunk is ≤ total/nranks + max cost.
                        let r = ((cum / total) * nranks as f64) as usize;
                        rank_of[id.index()] = r.min(nranks - 1) as u32;
                        cum += c;
                    }
                }
            }
        }
        PatchDistribution::from_rank_of(nranks, rank_of)
    }

    /// The per-rank cost bound the costed SFC cut guarantees:
    /// `Σ_levels (level_total / nranks + level_max)`. The cut places every
    /// chunk's cumulative span inside one `total/nranks` window plus at
    /// most one straddling patch. `None` for [`RebalancePolicy::Rotate`],
    /// which advertises no bound (it preserves the load multiset).
    pub fn advertised_bound(&self, grid: &Grid, costs: &PatchCosts, nranks: usize) -> Option<f64> {
        if matches!(self.policy, RebalancePolicy::Rotate(_)) {
            return None;
        }
        let mut bound = 0.0;
        for level in grid.levels() {
            let ids: Vec<PatchId> = level.patches().iter().map(|p| p.id()).collect();
            let eff = effective_costs(&ids, costs);
            let total: f64 = eff.iter().sum();
            let max = eff.iter().copied().fold(0.0f64, f64::max);
            bound += total / nranks as f64 + max;
        }
        Some(bound)
    }
}

/// Morton order of a level's patches (the SFC the balancer cuts).
fn sfc_order(ids: impl Iterator<Item = PatchId>, grid: &Grid) -> Vec<PatchId> {
    let mut order: Vec<(u64, PatchId)> = ids
        .map(|id| (morton3(grid.patch(id).lattice_pos()), id))
        .collect();
    order.sort_unstable_by_key(|&(m, id)| (m, id.0));
    order.into_iter().map(|(_, id)| id).collect()
}

/// Costs with an all-zero fallback to uniform: a level that has not been
/// measured yet (or whose tasks were too fast to meter) still balances by
/// patch count instead of collapsing onto rank 0.
fn effective_costs(ids: &[PatchId], costs: &PatchCosts) -> Vec<f64> {
    let vals: Vec<f64> = ids.iter().map(|&id| costs.get(id).max(0.0)).collect();
    if vals.iter().sum::<f64>() > 0.0 {
        vals
    } else {
        vec![1.0; ids.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::DistributionPolicy;
    use crate::index::IntVector;

    impl PatchCosts {
        fn set(&mut self, patch: PatchId, cost: f64) {
            self.cost[patch.index()] = cost;
        }

        /// Every patch costs 1 (balance by patch count).
        fn uniform(grid: &Grid) -> Self {
            Self {
                cost: vec![1.0; grid.num_patches()],
            }
        }
    }

    fn grid2() -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(8))
            .build()
    }

    fn valid(dist: &PatchDistribution, grid: &Grid) {
        let mut seen = vec![false; grid.num_patches()];
        for r in 0..dist.nranks() {
            for &p in dist.owned_by(r) {
                assert!(!seen[p.index()], "{p:?} owned twice");
                seen[p.index()] = true;
                assert_eq!(dist.rank_of(p), r);
            }
        }
        assert!(seen.iter().all(|&s| s), "unowned patch");
    }

    #[test]
    fn rotate_moves_every_patch() {
        let g = grid2();
        let cur = PatchDistribution::new(&g, 3, DistributionPolicy::MortonSfc);
        let next = Regridder::new(RebalancePolicy::Rotate(1)).rebalance(
            &g,
            &PatchCosts::uniform(&g),
            &cur,
        );
        valid(&next, &g);
        for p in g.all_patches() {
            assert_eq!(next.rank_of(p.id()), (cur.rank_of(p.id()) + 1) % 3);
        }
        assert_ne!(next, cur);
        assert_eq!(next, next.clone());
    }

    #[test]
    fn costed_sfc_respects_advertised_bound() {
        let g = grid2();
        let cur = PatchDistribution::new(&g, 4, DistributionPolicy::MortonSfc);
        // Skewed costs: patch id squared.
        let mut costs = PatchCosts::uniform(&g);
        for p in g.all_patches() {
            costs.set(p.id(), (p.id().0 as f64 + 1.0).powi(2));
        }
        let rg = Regridder::new(RebalancePolicy::CostedSfc);
        let next = rg.rebalance(&g, &costs, &cur);
        valid(&next, &g);
        let bound = rg.advertised_bound(&g, &costs, 4).unwrap();
        for r in 0..4 {
            let load: f64 = next.owned_by(r).iter().map(|&p| costs.get(p)).sum();
            assert!(load <= bound + 1e-9, "rank {r} load {load} exceeds bound {bound}");
        }
    }

    #[test]
    fn zero_costs_fall_back_to_uniform() {
        let g = grid2();
        let cur = PatchDistribution::new(&g, 4, DistributionPolicy::MortonSfc);
        let costs = PatchCosts::from_values(vec![0.0; g.num_patches()]);
        let next =
            Regridder::new(RebalancePolicy::CostedSfc).rebalance(&g, &costs, &cur);
        valid(&next, &g);
        assert!(
            next.max_load() - next.min_load() <= 2,
            "uniform fallback must still balance"
        );
    }
}
