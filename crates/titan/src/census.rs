//! Per-rank work/communication census for the 2-level RMCRT pipeline.
//!
//! Derived from the same rules the runtime's graph compiler applies, but
//! computed arithmetically from the patch distribution so a 16,384-rank
//! census costs milliseconds instead of materializing 10⁹ graph edges.
//! `tests::census_matches_compiled_graph` pins it against the real
//! compiler at small rank counts.

use uintah_grid::{Grid, PatchDistribution, Region};

/// What one rank does in one radiation timestep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankCensus {
    /// Fine patches owned by this rank.
    pub local_fine_patches: usize,
    /// Cells per fine patch.
    pub cells_per_patch: usize,
    /// Ghost-halo messages sent (and an equal census received, by symmetry
    /// of the halo relation across the fleet).
    pub ghost_msgs_sent: usize,
    /// Total cells across ghost windows sent.
    pub ghost_cells_sent: usize,
    /// Whole-level (all-to-all) messages sent: one per local patch per
    /// other consumer rank per property variable.
    pub level_msgs_sent: usize,
    /// Total cells across level windows sent.
    pub level_cells_sent: usize,
    /// Whole-level messages received: one per remote fine patch per
    /// property variable.
    pub level_msgs_recv: usize,
    /// Total cells across level windows received.
    pub level_cells_recv: usize,
    /// Coarse-level cells in the whole-domain replica (per variable).
    pub coarse_level_cells: usize,
    /// GPU kernels launched (one per local fine patch).
    pub kernels: usize,
}

impl RankCensus {
    /// Bytes sent, assuming 8-byte cells for the two f64 fields and 1-byte
    /// for cellType (i.e. 17 bytes per 3-variable cell triple / 3).
    pub fn bytes_sent(&self) -> u64 {
        // Of the 3 property variables, 2 are f64 and 1 is u8.
        let per_cell_avg = (8 + 8 + 1) as f64 / 3.0;
        (((self.ghost_cells_sent + self.level_cells_sent) as f64) * per_cell_avg) as u64
    }

    pub fn bytes_recv(&self) -> u64 {
        let per_cell_avg = (8 + 8 + 1) as f64 / 3.0;
        ((self.level_cells_recv as f64) * per_cell_avg) as u64
    }

    pub fn msgs_sent(&self) -> usize {
        self.ghost_msgs_sent + self.level_msgs_sent
    }
}

/// Census of `rank` for the 2-level RMCRT pipeline with `halo` fine ghost
/// cells and 3 property variables (abskg, sigmaT4/π, cellType).
pub fn rank_census(grid: &Grid, dist: &PatchDistribution, rank: usize, halo: i32) -> RankCensus {
    const NVARS: usize = 3;
    assert_eq!(grid.num_levels(), 2, "census models the paper's 2-level pipeline");
    let fine = grid.fine_level();
    let fine_li = grid.fine_level_index();
    let rr = fine.ratio_to_coarser().as_ivec();

    let mut c = RankCensus {
        cells_per_patch: fine.patch_size().volume(),
        coarse_level_cells: grid.coarsest_level().num_cells(),
        ..Default::default()
    };

    let nranks = dist.nranks();
    let total_fine = fine.num_patches();

    for &pid in dist.owned_by(rank) {
        let patch = grid.patch(pid);
        if patch.level_index() != fine_li {
            continue;
        }
        c.local_fine_patches += 1;
        // Ghost sends: windows to remote patches whose halo overlaps us.
        for p in fine.patches_overlapping(&patch.with_ghosts(halo)) {
            if p.id() == pid || dist.rank_of(p.id()) == rank {
                continue;
            }
            let window: Region = p.with_ghosts(halo).intersect(&patch.interior());
            if !window.is_empty() {
                c.ghost_msgs_sent += NVARS;
                c.ghost_cells_sent += NVARS * window.volume();
            }
        }
        // Level windows: broadcast to every other rank that owns fine
        // patches (every rank is a consumer in these benchmarks).
        let window_cells = patch.interior().coarsened(rr).volume();
        c.level_msgs_sent += NVARS * (nranks - 1);
        c.level_cells_sent += NVARS * (nranks - 1) * window_cells;
    }

    // Level receives: one window per remote fine patch per variable.
    let remote_fine = total_fine - c.local_fine_patches;
    c.level_msgs_recv = NVARS * remote_fine;
    // Every fine patch's window has the same size on a regular grid.
    let window_cells = {
        let p0 = &fine.patches()[0];
        p0.interior().coarsened(rr).volume()
    };
    c.level_cells_recv = NVARS * remote_fine * window_cells;
    c.kernels = c.local_fine_patches;
    c
}

/// Max census over a sample of ranks (the critical path at scale is set by
/// the most loaded rank; sampling keeps 16k-rank sweeps fast).
pub(crate) fn max_census(grid: &Grid, dist: &PatchDistribution, halo: i32, sample: usize) -> RankCensus {
    let nranks = dist.nranks();
    let stride = (nranks / sample.max(1)).max(1);
    let mut best = RankCensus::default();
    let mut best_key = 0usize;
    for rank in (0..nranks).step_by(stride) {
        let c = rank_census(grid, dist, rank, halo);
        let key = c.local_fine_patches * 1_000_000 + c.msgs_sent();
        if key > best_key {
            best_key = key;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcrt_core::tasks::{multilevel_decls, RmcrtPipeline};
    use rmcrt_core::{BurnsChriston, RmcrtParams};
    use uintah_grid::{DistributionPolicy, IntVector};
    use uintah_runtime::graph;

    fn small() -> Grid {
        BurnsChriston::small_grid(32, 8)
    }

    #[test]
    fn census_matches_compiled_graph() {
        let grid = small();
        let halo = 2;
        for nranks in [2usize, 4] {
            let dist = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);
            let pipeline = RmcrtPipeline {
                params: RmcrtParams {
                    nrays: 1,
                    ..Default::default()
                },
                halo,
                problem: BurnsChriston::default(),
            };
            let decls = multilevel_decls(&grid, pipeline, false);
            for rank in 0..nranks {
                let cg = graph::compile(&grid, &dist, &decls, rank, 0);
                let c = rank_census(&grid, &dist, rank, halo);
                assert_eq!(
                    c.msgs_sent(),
                    cg.stats.messages,
                    "rank {rank}/{nranks}: send count"
                );
                assert_eq!(
                    c.ghost_cells_sent + c.level_cells_sent,
                    cg.stats.cells_sent,
                    "rank {rank}/{nranks}: cells sent"
                );
                // Level receives match the graph's Level recv entries.
                let level_recvs = cg
                    .recvs
                    .iter()
                    .filter(|r| matches!(r.action, graph::RecvAction::Level { .. }))
                    .count();
                assert_eq!(c.level_msgs_recv, level_recvs, "rank {rank}: level recvs");
            }
        }
    }

    #[test]
    fn paper_patch_count_262k() {
        // §IV-B: 512³ fine + 8³ patches = 262,144 patches.
        let grid = Grid::builder()
            .fine_cells(IntVector::splat(512))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(8))
            .build();
        assert_eq!(grid.fine_level().num_patches(), 262_144);
    }

    #[test]
    fn level_recv_volume_constant_in_rank_count() {
        // The coarse replica a rank must assemble is the whole level, so
        // received cells stay ~constant as ranks grow — the property that
        // makes the multi-level algorithm scale.
        // Once a rank owns a small fraction of the fine patches, the recv
        // volume approaches 3 × (all fine windows) and stays flat.
        let grid = small();
        let mut volumes = Vec::new();
        for nranks in [8usize, 16, 32] {
            let dist = PatchDistribution::new(&grid, nranks, DistributionPolicy::MortonSfc);
            volumes.push(rank_census(&grid, &dist, 0, 2).level_cells_recv);
        }
        let min = *volumes.iter().min().unwrap() as f64;
        let max = *volumes.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "recv volume should be ~flat: {volumes:?}");
    }

    #[test]
    fn sends_per_rank_shrink_with_patches() {
        let grid = small();
        let d2 = PatchDistribution::new(&grid, 2, DistributionPolicy::MortonSfc);
        let d8 = PatchDistribution::new(&grid, 8, DistributionPolicy::MortonSfc);
        let c2 = rank_census(&grid, &d2, 0, 2);
        let c8 = rank_census(&grid, &d8, 0, 2);
        assert!(c8.local_fine_patches < c2.local_fine_patches);
        assert!(c8.kernels < c2.kernels);
    }

    #[test]
    fn max_census_at_least_rank0() {
        let grid = small();
        let dist = PatchDistribution::new(&grid, 4, DistributionPolicy::MortonSfc);
        let m = max_census(&grid, &dist, 2, 4);
        let r0 = rank_census(&grid, &dist, 0, 2);
        assert!(m.local_fine_patches >= r0.local_fine_patches);
    }
}
