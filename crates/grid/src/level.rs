//! Mesh levels: spacing, extents, refinement ratio and patch tiling.

use crate::geom::{Point, Vector};
use crate::index::IntVector;
use crate::patch::{Patch, PatchId};
use crate::region::Region;

/// Index of a level within a [`crate::grid::Grid`]. Level 0 is the
/// *coarsest* (Uintah convention); the finest level is `nlevels - 1`.
pub type LevelIndex = u8;

/// Cell-count ratio between a level and the next-coarser one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefinementRatio(pub IntVector);

impl RefinementRatio {
    pub(crate) fn isotropic(r: i32) -> Self {
        assert!(r >= 1, "refinement ratio must be >= 1, got {r}");
        Self(IntVector::splat(r))
    }

    #[inline]
    pub fn as_ivec(self) -> IntVector {
        self.0
    }
}

/// One level of the AMR hierarchy.
///
/// A level owns a uniform Cartesian index space (`cell_region`), a physical
/// anchor + spacing mapping indices to space, and a lattice of equally-sized
/// patches tiling the index space. For the RMCRT benchmarks every coarse
/// level spans the *entire* physical domain (the whole-domain coarse replica
/// the rays fall back to).
#[derive(Clone, Debug)]
pub struct Level {
    index: LevelIndex,
    cell_region: Region,
    anchor: Point,
    dx: Vector,
    /// Ratio to the next-coarser level; identity for level 0.
    ratio_to_coarser: RefinementRatio,
    patch_size: IntVector,
    lattice_extent: IntVector,
    patches: Vec<Patch>,
}

impl Level {
    /// Build a level tiled by `patch_size` patches.
    ///
    /// `first_patch_id` is the id of the first patch created; ids are dense.
    /// Panics unless `patch_size` exactly divides the level extent (Uintah's
    /// regular-patch configuration for these benchmarks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        index: LevelIndex,
        cell_region: Region,
        anchor: Point,
        dx: Vector,
        ratio_to_coarser: RefinementRatio,
        patch_size: IntVector,
        first_patch_id: u32,
    ) -> Self {
        assert!(!cell_region.is_empty(), "level {index} has no cells");
        let extent = cell_region.extent();
        for a in 0..3 {
            assert!(
                patch_size[a] > 0 && extent[a] % patch_size[a] == 0,
                "patch size {patch_size:?} does not tile level extent {extent:?}"
            );
        }
        let lattice_extent = extent / patch_size;
        let lattice = Region::new(IntVector::ZERO, lattice_extent);
        let mut patches = Vec::with_capacity(lattice.volume());
        for (k, pos) in lattice.cells().enumerate() {
            let lo = cell_region.lo() + pos.comp_mul(patch_size);
            let hi = lo + patch_size;
            patches.push(Patch::new(
                PatchId(first_patch_id + k as u32),
                index,
                Region::new(lo, hi),
                pos,
            ));
        }
        Self {
            index,
            cell_region,
            anchor,
            dx,
            ratio_to_coarser,
            patch_size,
            lattice_extent,
            patches,
        }
    }

    #[inline]
    pub fn index(&self) -> LevelIndex {
        self.index
    }

    /// All cells of this level.
    #[inline]
    pub fn cell_region(&self) -> Region {
        self.cell_region
    }

    /// Physical location of the low corner of cell `(0,0,0)`.
    #[inline]
    pub fn anchor(&self) -> Point {
        self.anchor
    }

    /// Cell spacing.
    #[inline]
    pub fn dx(&self) -> Vector {
        self.dx
    }

    #[inline]
    pub fn ratio_to_coarser(&self) -> RefinementRatio {
        self.ratio_to_coarser
    }

    #[inline]
    pub fn patch_size(&self) -> IntVector {
        self.patch_size
    }

    #[inline]
    pub fn patches(&self) -> &[Patch] {
        &self.patches
    }

    #[inline]
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cell_region.volume()
    }

    /// Physical high corner of the level.
    pub fn physical_hi(&self) -> Point {
        self.cell_pos_lo(self.cell_region.hi())
    }

    /// Physical position of the low corner of cell `c`.
    #[inline]
    pub(crate) fn cell_pos_lo(&self, c: IntVector) -> Point {
        self.anchor
            + Vector::new(
                c.x as f64 * self.dx.x,
                c.y as f64 * self.dx.y,
                c.z as f64 * self.dx.z,
            )
    }

    /// Physical position of the centre of cell `c`.
    #[inline]
    pub fn cell_center(&self, c: IntVector) -> Point {
        self.cell_pos_lo(c) + self.dx * 0.5
    }

    /// The patch owning cell `c`, if `c` is on this level (O(1) lattice look-up).
    pub fn patch_containing(&self, c: IntVector) -> Option<&Patch> {
        if !self.cell_region.contains(c) {
            return None;
        }
        let rel = c - self.cell_region.lo();
        let pos = rel.div_floor(self.patch_size);
        let lattice = Region::new(IntVector::ZERO, self.lattice_extent);
        Some(&self.patches[lattice.linear_index(pos)])
    }

    /// Patches whose interior overlaps `region`.
    pub fn patches_overlapping<'a>(&'a self, region: &Region) -> Vec<&'a Patch> {
        let clipped = region.intersect(&self.cell_region);
        if clipped.is_empty() {
            return Vec::new();
        }
        let rel = Region::new(clipped.lo() - self.cell_region.lo(), clipped.hi() - self.cell_region.lo());
        let lat_lo = rel.lo().div_floor(self.patch_size);
        let lat_hi = (rel.hi() - IntVector::ONE).div_floor(self.patch_size) + IntVector::ONE;
        let lattice = Region::new(IntVector::ZERO, self.lattice_extent);
        Region::new(lat_lo, lat_hi)
            .cells()
            .map(|pos| &self.patches[lattice.linear_index(pos)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Level {
        /// Cell index containing physical point `p` (points exactly on a high
        /// face map to the higher cell; callers clamp as needed).
        fn cell_containing(&self, p: Point) -> IntVector {
            let r = p - self.anchor;
            IntVector::new(
                (r.x / self.dx.x).floor() as i32,
                (r.y / self.dx.y).floor() as i32,
                (r.z / self.dx.z).floor() as i32,
            )
        }
    }

    fn level64() -> Level {
        Level::new(
            0,
            Region::cube(64),
            Point::ORIGIN,
            Vector::splat(1.0 / 64.0),
            RefinementRatio::isotropic(1),
            IntVector::splat(16),
            0,
        )
    }

    #[test]
    fn tiling_counts() {
        let l = level64();
        assert_eq!(l.num_patches(), 64);
        assert_eq!(l.lattice_extent, IntVector::splat(4));
        assert_eq!(l.num_cells(), 64 * 64 * 64);
        // Patches tile without overlap: total cells match.
        let total: usize = l.patches().iter().map(|p| p.num_cells()).sum();
        assert_eq!(total, l.num_cells());
    }

    #[test]
    fn patch_ids_dense_and_ordered() {
        let l = level64();
        for (i, p) in l.patches().iter().enumerate() {
            assert_eq!(p.id().index(), i);
        }
    }

    #[test]
    fn patch_lookup_by_cell() {
        let l = level64();
        for &c in &[
            IntVector::ZERO,
            IntVector::splat(15),
            IntVector::splat(16),
            IntVector::new(63, 0, 31),
        ] {
            let p = l.patch_containing(c).unwrap();
            assert!(p.interior().contains(c));
        }
        assert!(l.patch_containing(IntVector::splat(64)).is_none());
        assert!(l.patch_containing(IntVector::splat(-1)).is_none());
    }

    #[test]
    fn geometry_roundtrip() {
        let l = level64();
        for &c in &[IntVector::ZERO, IntVector::new(13, 63, 7)] {
            let center = l.cell_center(c);
            assert_eq!(l.cell_containing(center), c);
        }
        assert_eq!(l.physical_hi(), Point::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn overlapping_patch_query() {
        let l = level64();
        // A region inside one patch.
        let r = Region::new(IntVector::splat(1), IntVector::splat(3));
        assert_eq!(l.patches_overlapping(&r).len(), 1);
        // A region crossing a patch boundary along x.
        let r = Region::new(IntVector::new(14, 0, 0), IntVector::new(18, 4, 4));
        assert_eq!(l.patches_overlapping(&r).len(), 2);
        // Whole level.
        assert_eq!(l.patches_overlapping(&l.cell_region()).len(), 64);
        // Region hanging off the level is clipped.
        let r = Region::new(IntVector::splat(-5), IntVector::splat(2));
        assert_eq!(l.patches_overlapping(&r).len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn non_tiling_patch_size_rejected() {
        Level::new(
            0,
            Region::cube(64),
            Point::ORIGIN,
            Vector::splat(1.0),
            RefinementRatio::isotropic(1),
            IntVector::splat(24),
            0,
        );
    }
}
