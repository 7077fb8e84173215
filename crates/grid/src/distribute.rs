//! Patch → rank distribution (load balancing).
//!
//! Uintah's load balancer assigns Cartesian patches to MPI ranks; for the
//! regular RMCRT benchmark grids it uses a space-filling-curve ordering so
//! that consecutive ranks own spatially compact patch sets (minimizing halo
//! traffic). We provide that (Morton order) plus plain round-robin, and the
//! census queries the scheduler and the Titan model use to derive message
//! volumes.

use crate::grid::Grid;
use crate::index::IntVector;
use crate::patch::PatchId;

/// How patches are laid out across ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DistributionPolicy {
    /// Patch `i` goes to rank `i % nranks` (cyclic).
    RoundRobin,
    /// Patches sorted along a Morton (Z-order) curve per level, then split
    /// into `nranks` contiguous chunks: spatially compact rank sets.
    MortonSfc,
}

/// The patch→rank assignment for a grid.
#[derive(Clone, Debug)]
pub struct PatchDistribution {
    nranks: usize,
    /// rank of each patch, indexed by dense patch id.
    rank_of: Vec<u32>,
    /// patches owned by each rank.
    owned: Vec<Vec<PatchId>>,
}

impl PartialEq for PatchDistribution {
    /// Two distributions are equal when they assign every patch to the same
    /// rank (the `owned` lists are derived data whose order is irrelevant).
    fn eq(&self, other: &Self) -> bool {
        self.nranks == other.nranks && self.rank_of == other.rank_of
    }
}

impl Eq for PatchDistribution {}

impl PatchDistribution {
    /// Distribute all patches of `grid` over `nranks` ranks.
    pub fn new(grid: &Grid, nranks: usize, policy: DistributionPolicy) -> Self {
        assert!(nranks > 0, "need at least one rank");
        let mut rank_of = vec![0u32; grid.num_patches()];
        let mut owned = vec![Vec::new(); nranks];
        match policy {
            DistributionPolicy::RoundRobin => {
                // Cycle per level so every rank gets patches from all levels.
                for level in grid.levels() {
                    for (i, p) in level.patches().iter().enumerate() {
                        let r = i % nranks;
                        rank_of[p.id().index()] = r as u32;
                        owned[r].push(p.id());
                    }
                }
            }
            DistributionPolicy::MortonSfc => {
                for level in grid.levels() {
                    let mut order: Vec<(u64, PatchId)> = level
                        .patches()
                        .iter()
                        .map(|p| (morton3(p.lattice_pos()), p.id()))
                        .collect();
                    order.sort_unstable_by_key(|&(m, _)| m);
                    let n = order.len();
                    for (i, &(_, id)) in order.iter().enumerate() {
                        // Contiguous chunks of the curve, remainder spread evenly.
                        let r = (i * nranks) / n;
                        rank_of[id.index()] = r as u32;
                        owned[r].push(id);
                    }
                }
            }
        }
        Self {
            nranks,
            rank_of,
            owned,
        }
    }

    /// Build from an explicit patch→rank map (a regridder's output).
    /// `rank_of[i]` is the rank of the patch with dense id `i`.
    pub fn from_rank_of(nranks: usize, rank_of: Vec<u32>) -> Self {
        assert!(nranks > 0, "need at least one rank");
        let mut owned = vec![Vec::new(); nranks];
        for (i, &r) in rank_of.iter().enumerate() {
            assert!(
                (r as usize) < nranks,
                "patch {i} assigned to rank {r} of {nranks}"
            );
            owned[r as usize].push(PatchId(i as u32));
        }
        Self {
            nranks,
            rank_of,
            owned,
        }
    }

    /// The dense patch→rank map, indexed by patch id.
    #[inline]
    pub fn rank_map(&self) -> &[u32] {
        &self.rank_of
    }

    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Rank owning `patch`.
    #[inline]
    pub fn rank_of(&self, patch: PatchId) -> usize {
        self.rank_of[patch.index()] as usize
    }

    /// Patches owned by `rank`.
    #[inline]
    pub fn owned_by(&self, rank: usize) -> &[PatchId] {
        &self.owned[rank]
    }
}

/// 3-D Morton (Z-order) key of a lattice position. Supports coordinates up
/// to 2^21 per axis, far beyond the benchmark lattices (<= 64 per axis).
pub fn morton3(p: IntVector) -> u64 {
    debug_assert!(p.x >= 0 && p.y >= 0 && p.z >= 0, "morton of negative {p:?}");
    part1by2(p.x as u64) | (part1by2(p.y as u64) << 1) | (part1by2(p.z as u64) << 2)
}

/// Spread the low 21 bits of `x` so there are two zero bits between each.
fn part1by2(mut x: u64) -> u64 {
    x &= 0x1f_ffff;
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    impl PatchDistribution {
        /// Maximum patches owned by any rank (load-imbalance check; the
        /// regrid tests use it too).
        pub(crate) fn max_load(&self) -> usize {
            self.owned.iter().map(Vec::len).max().unwrap_or(0)
        }

        /// Minimum patches owned by any rank.
        pub(crate) fn min_load(&self) -> usize {
            self.owned.iter().map(Vec::len).min().unwrap_or(0)
        }
    }

    fn grid() -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(64))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(16))
            .build()
    }

    #[test]
    fn every_patch_assigned_exactly_once() {
        let g = grid();
        for policy in [DistributionPolicy::RoundRobin, DistributionPolicy::MortonSfc] {
            let d = PatchDistribution::new(&g, 7, policy);
            let mut seen = vec![false; g.num_patches()];
            for r in 0..7 {
                for &p in d.owned_by(r) {
                    assert!(!seen[p.index()], "patch {p:?} assigned twice");
                    seen[p.index()] = true;
                    assert_eq!(d.rank_of(p), r);
                }
            }
            assert!(seen.iter().all(|&s| s), "unassigned patch under {policy:?}");
        }
    }

    #[test]
    fn balance_within_one_patch_per_level() {
        let g = grid();
        for policy in [DistributionPolicy::RoundRobin, DistributionPolicy::MortonSfc] {
            let d = PatchDistribution::new(&g, 6, policy);
            // 2 levels -> imbalance at most 1 per level.
            assert!(d.max_load() - d.min_load() <= 2, "imbalance under {policy:?}");
        }
    }

    #[test]
    fn morton_keys_strictly_interleave() {
        assert_eq!(morton3(IntVector::new(0, 0, 0)), 0);
        assert_eq!(morton3(IntVector::new(1, 0, 0)), 1);
        assert_eq!(morton3(IntVector::new(0, 1, 0)), 2);
        assert_eq!(morton3(IntVector::new(0, 0, 1)), 4);
        assert_eq!(morton3(IntVector::new(1, 1, 1)), 7);
        assert_eq!(morton3(IntVector::new(2, 0, 0)), 8);
    }

    #[test]
    fn morton_is_injective_on_lattice() {
        let mut keys = std::collections::HashSet::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    assert!(keys.insert(morton3(IntVector::new(x, y, z))));
                }
            }
        }
    }

    #[test]
    fn sfc_ranks_are_spatially_compact() {
        // With the Morton curve, the average pairwise lattice distance within
        // a rank should be lower than with round-robin for many ranks.
        let g = Grid::builder()
            .fine_cells(IntVector::splat(128))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(16))
            .build();
        let spread = |d: &PatchDistribution| -> f64 {
            let mut total = 0.0;
            let mut cnt = 0usize;
            for r in 0..d.nranks() {
                let pts: Vec<IntVector> = d
                    .owned_by(r)
                    .iter()
                    .map(|&id| g.patch(id).lattice_pos())
                    .collect();
                for i in 0..pts.len() {
                    for j in (i + 1)..pts.len() {
                        let dv = pts[i] - pts[j];
                        total += ((dv.x * dv.x + dv.y * dv.y + dv.z * dv.z) as f64).sqrt();
                        cnt += 1;
                    }
                }
            }
            total / cnt as f64
        };
        let sfc = PatchDistribution::new(&g, 16, DistributionPolicy::MortonSfc);
        let rr = PatchDistribution::new(&g, 16, DistributionPolicy::RoundRobin);
        assert!(
            spread(&sfc) < spread(&rr),
            "SFC should cluster patches: {} vs {}",
            spread(&sfc),
            spread(&rr)
        );
    }

    #[test]
    fn more_ranks_than_patches() {
        let g = Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(16))
            .build(); // 8 patches
        let d = PatchDistribution::new(&g, 32, DistributionPolicy::MortonSfc);
        assert_eq!(d.max_load(), 1);
        let assigned: usize = (0..32).map(|r| d.owned_by(r).len()).sum();
        assert_eq!(assigned, 8);
    }
}
