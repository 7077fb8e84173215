//! The AMR grid: a hierarchy of levels, coarsest first.

use crate::geom::{Point, Vector};
use crate::index::IntVector;
use crate::level::{Level, LevelIndex, RefinementRatio};
use crate::patch::{Patch, PatchId};
use crate::region::Region;

/// A structured AMR grid.
///
/// Level 0 is the coarsest and the last level the finest (Uintah convention).
/// For the RMCRT multi-level scheme, *every* level spans the full physical
/// domain: a coarse level is a whole-domain low-resolution replica that rays
/// fall back to outside their region of interest.
#[derive(Clone, Debug)]
pub struct Grid {
    levels: Vec<Level>,
    /// First patch id on each level (dense ids across levels).
    level_patch_offset: Vec<u32>,
    num_patches: usize,
}

impl Grid {
    pub fn builder() -> GridBuilder {
        GridBuilder::default()
    }

    #[inline]
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    #[inline]
    pub fn level(&self, i: LevelIndex) -> &Level {
        &self.levels[i as usize]
    }

    /// The finest level (where ∇·q is computed).
    #[inline]
    pub fn fine_level(&self) -> &Level {
        self.levels.last().expect("grid has no levels")
    }

    /// Index of the finest level.
    #[inline]
    pub fn fine_level_index(&self) -> LevelIndex {
        (self.levels.len() - 1) as LevelIndex
    }

    #[inline]
    pub fn coarsest_level(&self) -> &Level {
        &self.levels[0]
    }

    /// Total number of patches across all levels.
    #[inline]
    pub fn num_patches(&self) -> usize {
        self.num_patches
    }

    /// Total number of cells across all levels.
    pub fn num_cells(&self) -> usize {
        self.levels.iter().map(|l| l.num_cells()).sum()
    }

    /// Look a patch up by its dense id.
    pub fn patch(&self, id: PatchId) -> &Patch {
        let li = match self.level_patch_offset.binary_search(&id.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let level = &self.levels[li];
        &level.patches()[(id.0 - self.level_patch_offset[li]) as usize]
    }

    /// Iterate all patches, coarsest level first.
    pub fn all_patches(&self) -> impl Iterator<Item = &Patch> {
        self.levels.iter().flat_map(|l| l.patches().iter())
    }
}

/// Builder for regular multi-level grids matching the paper's benchmarks.
/// Every level spans the unit cube `[0, 1]³`.
///
/// ```
/// use uintah_grid::{Grid, IntVector};
/// // The MEDIUM benchmark: 2 levels, RR 4, fine 256^3 / coarse 64^3, 16^3 patches.
/// let grid = Grid::builder()
///     .fine_cells(IntVector::splat(256))
///     .num_levels(2)
///     .refinement_ratio(4)
///     .fine_patch_size(IntVector::splat(16))
///     .build();
/// assert_eq!(grid.fine_level().num_cells(), 256 * 256 * 256);
/// assert_eq!(grid.coarsest_level().num_cells(), 64 * 64 * 64);
/// ```
#[derive(Clone, Debug)]
pub struct GridBuilder {
    fine_cells: IntVector,
    num_levels: usize,
    refinement_ratio: i32,
    fine_patch_size: IntVector,
}

impl Default for GridBuilder {
    fn default() -> Self {
        Self {
            fine_cells: IntVector::splat(64),
            num_levels: 1,
            refinement_ratio: 4,
            fine_patch_size: IntVector::splat(16),
        }
    }
}

impl GridBuilder {
    /// Cell count of the finest level.
    pub fn fine_cells(mut self, cells: IntVector) -> Self {
        self.fine_cells = cells;
        self
    }

    pub fn num_levels(mut self, n: usize) -> Self {
        assert!(n >= 1, "grid needs at least one level");
        self.num_levels = n;
        self
    }

    /// Isotropic cell ratio between adjacent levels (paper uses 2 or 4).
    pub fn refinement_ratio(mut self, r: i32) -> Self {
        self.refinement_ratio = r;
        self
    }

    /// Patch size on the finest level (the paper sweeps 16^3 / 32^3 / 64^3).
    /// Coarser levels use it clamped to their extent.
    pub fn fine_patch_size(mut self, s: IntVector) -> Self {
        self.fine_patch_size = s;
        self
    }

    pub fn build(self) -> Grid {
        let rr = RefinementRatio::isotropic(self.refinement_ratio);
        // Work out cell counts per level, finest known, coarser by division.
        let mut cells_per_level = vec![self.fine_cells];
        for _ in 1..self.num_levels {
            let prev = *cells_per_level.last().unwrap();
            for a in 0..3 {
                assert!(
                    prev[a] % self.refinement_ratio == 0,
                    "cells {prev:?} not divisible by refinement ratio {}",
                    self.refinement_ratio
                );
            }
            cells_per_level.push(prev / IntVector::splat(self.refinement_ratio));
        }
        cells_per_level.reverse(); // now coarsest first

        let mut levels = Vec::with_capacity(self.num_levels);
        let mut offsets = Vec::with_capacity(self.num_levels);
        let mut next_id = 0u32;
        for (li, &cells) in cells_per_level.iter().enumerate() {
            let dx = Vector::new(1.0 / cells.x as f64, 1.0 / cells.y as f64, 1.0 / cells.z as f64);
            let is_finest = li == self.num_levels - 1;
            let ratio = if li == 0 {
                RefinementRatio::isotropic(1)
            } else {
                rr
            };
            let psize = if is_finest {
                self.fine_patch_size
            } else {
                clamp_patch_size(self.fine_patch_size, cells)
            };
            let level = Level::new(
                li as LevelIndex,
                Region::new(IntVector::ZERO, cells),
                Point::ORIGIN,
                dx,
                ratio,
                psize,
                next_id,
            );
            offsets.push(next_id);
            next_id += level.num_patches() as u32;
            levels.push(level);
        }
        let num_patches = next_id as usize;
        Grid {
            levels,
            level_patch_offset: offsets,
            num_patches,
        }
    }
}

/// Shrink a desired patch size so it tiles `cells` exactly: per axis, the
/// largest divisor of the extent that is `<=` the desired size.
fn clamp_patch_size(want: IntVector, cells: IntVector) -> IntVector {
    let mut out = IntVector::ONE;
    for a in 0..3 {
        let mut s = want[a].min(cells[a]).max(1);
        while cells[a] % s != 0 {
            s -= 1;
        }
        out[a] = s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Grid {
        Grid::builder()
            .fine_cells(IntVector::splat(256))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(16))
            .build()
    }

    #[test]
    fn medium_benchmark_shape() {
        let g = medium();
        assert_eq!(g.num_levels(), 2);
        assert_eq!(g.coarsest_level().num_cells(), 64usize.pow(3));
        assert_eq!(g.fine_level().num_cells(), 256usize.pow(3));
        // Paper: total cells in MEDIUM problem = 17.04M.
        let total = g.num_cells();
        assert_eq!(total, 256usize.pow(3) + 64usize.pow(3));
        assert!((total as f64 - 17.04e6).abs() / 17.04e6 < 0.01);
    }

    #[test]
    fn large_benchmark_shape() {
        let g = Grid::builder()
            .fine_cells(IntVector::splat(512))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(32))
            .build();
        // Paper: total cells in LARGE problem = 136.31M.
        let total = g.num_cells();
        assert_eq!(total, 512usize.pow(3) + 128usize.pow(3));
        assert!((total as f64 - 136.31e6).abs() / 136.31e6 < 0.01);
    }

    #[test]
    fn comm_census_patch_count_matches_paper() {
        // §IV-B: 512^3 fine + 128^3 coarse with 8^3 patches -> 262k patches.
        let g = Grid::builder()
            .fine_cells(IntVector::splat(512))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(8))
            .build();
        assert_eq!(g.fine_level().num_patches(), 64usize.pow(3)); // 262,144
        assert!(g.num_patches() >= 262_144);
    }

    #[test]
    fn dense_patch_ids_lookup() {
        let g = medium();
        assert_eq!(g.num_patches(), 64 + 16usize.pow(3));
        for p in g.all_patches() {
            let q = g.patch(p.id());
            assert_eq!(q.id(), p.id());
            assert_eq!(q.interior(), p.interior());
        }
    }

    #[test]
    fn level_spacing_ratio() {
        let g = medium();
        let coarse_dx = g.coarsest_level().dx();
        let fine_dx = g.fine_level().dx();
        assert!((coarse_dx.x / fine_dx.x - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_level_grid() {
        let g = Grid::builder()
            .fine_cells(IntVector::splat(32))
            .num_levels(1)
            .fine_patch_size(IntVector::splat(16))
            .build();
        assert_eq!(g.num_levels(), 1);
        assert_eq!(g.num_patches(), 8);
        assert!(std::ptr::eq(g.fine_level(), g.coarsest_level()));
    }

    #[test]
    fn clamp_patch_size_divides() {
        assert_eq!(
            clamp_patch_size(IntVector::splat(16), IntVector::splat(64)),
            IntVector::splat(16)
        );
        // 24 does not divide 64; largest divisor <= 24 is 16.
        assert_eq!(
            clamp_patch_size(IntVector::splat(24), IntVector::splat(64)),
            IntVector::splat(16)
        );
        // Desired larger than extent clamps to extent.
        assert_eq!(
            clamp_patch_size(IntVector::splat(128), IntVector::splat(64)),
            IntVector::splat(64)
        );
    }

    #[test]
    fn anisotropic_domain() {
        let g = Grid::builder()
            .fine_cells(IntVector::new(128, 64, 64))
            .num_levels(2)
            .refinement_ratio(4)
            .fine_patch_size(IntVector::splat(16))
            .build();
        let dx = g.fine_level().dx();
        assert!((dx.x - 1.0 / 128.0).abs() < 1e-15);
        assert!((dx.y - 1.0 / 64.0).abs() < 1e-15);
        assert_eq!(g.coarsest_level().cell_region().extent(), IntVector::new(32, 16, 16));
    }
}
