//! Cartesian mesh patches — the unit of work distribution.

use crate::index::IntVector;
use crate::region::Region;

/// Globally unique patch identifier.
///
/// Uintah numbers patches consecutively across levels; we do the same:
/// patch ids are dense `0..grid.num_patches()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PatchId(pub u32);

impl PatchId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A rectangular patch of cells on one level.
///
/// The *interior* region is exclusive: patches on a level tile the level's
/// cell space without overlap. Ghost data for stencils/ray origins comes from
/// neighbouring patches (or boundary conditions) via the data warehouse.
#[derive(Clone, Debug)]
pub struct Patch {
    id: PatchId,
    level: u8,
    interior: Region,
    /// Position of this patch in the level's patch lattice.
    lattice_pos: IntVector,
}

impl Patch {
    pub fn new(id: PatchId, level: u8, interior: Region, lattice_pos: IntVector) -> Self {
        assert!(!interior.is_empty(), "patch {id:?} with empty interior");
        Self {
            id,
            level,
            interior,
            lattice_pos,
        }
    }

    #[inline]
    pub fn id(&self) -> PatchId {
        self.id
    }

    /// Index of the level this patch lives on (0 = coarsest).
    #[inline]
    pub fn level_index(&self) -> u8 {
        self.level
    }

    /// Cells owned by this patch.
    #[inline]
    pub fn interior(&self) -> Region {
        self.interior
    }

    /// Interior grown by `g` ghost cells per face.
    #[inline]
    pub fn with_ghosts(&self, g: i32) -> Region {
        self.interior.grown(g)
    }

    /// Position in the level's patch lattice (patch-granular coordinates).
    #[inline]
    pub fn lattice_pos(&self) -> IntVector {
        self.lattice_pos
    }

    /// Number of interior cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.interior.volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patch(id: u32, lo: i32, n: i32) -> Patch {
        Patch::new(
            PatchId(id),
            0,
            Region::new(IntVector::splat(lo), IntVector::splat(lo + n)),
            IntVector::ZERO,
        )
    }

    #[test]
    fn ghost_halo_neighbour_detection() {
        let a = patch(0, 0, 16);
        let b = patch(1, 16, 16); // face neighbour in every axis (corner)
        // The window the task graph asks a neighbour for.
        assert!(a.with_ghosts(1).overlaps(&b.interior()));
        assert!(!a.with_ghosts(0).overlaps(&b.interior()));
        let fp = a.with_ghosts(1).intersect(&b.interior());
        assert_eq!(fp.volume(), 1); // single corner cell
    }

    #[test]
    fn footprint_volume_face_neighbour() {
        let a = patch(0, 0, 16);
        let b = Patch::new(
            PatchId(1),
            0,
            Region::new(IntVector::new(16, 0, 0), IntVector::new(32, 16, 16)),
            IntVector::new(1, 0, 0),
        );
        let fp = a.with_ghosts(2).intersect(&b.interior());
        assert_eq!(fp.extent(), IntVector::new(2, 16, 16));
        assert_eq!(fp.volume(), 2 * 16 * 16);
    }

    #[test]
    #[should_panic(expected = "empty interior")]
    fn empty_patch_rejected() {
        Patch::new(PatchId(0), 0, Region::EMPTY, IntVector::ZERO);
    }
}
